#include "src/trace/analysis.h"

#include <cinttypes>
#include <cstdio>
#include <map>
#include <unordered_map>
#include <utility>

namespace auragen {

int LatencyHistogram::MajorBucket(SimTime us) {
  int bucket = 0;
  while (bucket + 1 < kBuckets && (SimTime{1} << (bucket + 1)) <= us) ++bucket;
  if (us == 0) bucket = 0;
  return bucket;
}

void LatencyHistogram::Add(SimTime us) {
  const int major = MajorBucket(us);
  const SimTime lo = major == 0 ? 0 : (SimTime{1} << major);
  const SimTime width = (SimTime{1} << (major + 1)) - lo;  // bucket 0: [0,2)
  int sub;
  if (width >= kSubBuckets) {
    sub = static_cast<int>(((us - lo) * kSubBuckets) / width);
  } else {
    sub = static_cast<int>(us - lo);
  }
  if (sub >= kSubBuckets) sub = kSubBuckets - 1;
  if (sub_buckets_.empty()) sub_buckets_.resize(kBuckets * kSubBuckets);
  ++sub_buckets_[major * kSubBuckets + sub];
  ++count_;
  total_us_ += us;
  if (us < min_us_) min_us_ = us;
  if (us > max_us_) max_us_ = us;
}

SimTime LatencyHistogram::Percentile(double q) const {
  if (count_ == 0) return 0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  uint64_t rank = static_cast<uint64_t>(q * static_cast<double>(count_) + 0.5);
  if (rank == 0) rank = 1;
  if (rank > count_) rank = count_;
  uint64_t cum = 0;
  for (int major = 0; major < kBuckets; ++major) {
    const SimTime lo = major == 0 ? 0 : (SimTime{1} << major);
    const SimTime width = (SimTime{1} << (major + 1)) - lo;
    for (int sub = 0; sub < kSubBuckets; ++sub) {
      cum += sub_buckets_[major * kSubBuckets + sub];
      if (cum >= rank) {
        SimTime hi;
        if (width >= kSubBuckets) {
          hi = lo + (width * (sub + 1)) / kSubBuckets;
        } else {
          hi = lo + sub + 1;
        }
        SimTime value = hi == 0 ? 0 : hi - 1;  // inclusive upper edge
        if (value > max_us_) value = max_us_;
        if (value < min_us()) value = min_us();
        return value;
      }
    }
  }
  return max_us_;
}

std::string LatencyHistogram::ToString() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "count=%" PRIu64 " mean=%.1fus min=%" PRIu64 "us max=%" PRIu64
                "us p50=%" PRIu64 "us p99=%" PRIu64 "us p999=%" PRIu64 "us",
                count_, mean_us(), min_us(), max_us(), p50(), p99(), p999());
  std::string out(buf);
  if (count_ == 0) return out;
  out += " |";
  for (int i = 0; i < kBuckets; ++i) {
    uint64_t in_major = 0;
    for (int s = 0; s < kSubBuckets; ++s) in_major += sub_buckets_[i * kSubBuckets + s];
    if (in_major == 0) continue;
    std::snprintf(buf, sizeof(buf), " [%" PRIu64 ",%" PRIu64 "):%" PRIu64,
                  i == 0 ? SimTime{0} : (SimTime{1} << i), SimTime{1} << (i + 1),
                  in_major);
    out += buf;
  }
  return out;
}

double TraceAnalysis::RequestGoodputPerSec() const {
  if (requests_completed == 0 || last_request_done_us <= first_request_us) {
    return 0.0;
  }
  const double span_s =
      static_cast<double>(last_request_done_us - first_request_us) / 1e6;
  return static_cast<double>(requests_completed) / span_s;
}

std::string TraceAnalysis::ToString() const {
  std::string out;
  // A histogram without samples says nothing; a trace filtered to a few
  // kinds would otherwise print a column of count=0 lines.
  auto line = [&out](const char* label, const LatencyHistogram& h) {
    if (h.count() != 0) {
      out += std::string(label) + ": " + h.ToString() + "\n";
    }
  };
  line("delivery latency    ", delivery_latency);
  line("sync stall          ", sync_stall);
  line("sync build          ", sync_build);
  line("sync page enqueue   ", sync_page_enqueue);
  line("sync flush pages    ", sync_flush_pages);
  line("sync drain overlap  ", sync_drain_overlap);
  line("crash->dispatch     ", crash_to_dispatch);
  line("crash->recovered    ", crash_to_recovered);
  line("rollforward replayed", rollforward_replayed);
  line("disk queue wait     ", disk_queue_wait);
  line("fs commit blocks    ", fs_commit_blocks);
  if (fs_log_commits != 0 || fs_log_replays != 0) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "fs journal          : commits=%" PRIu64 " replays=%" PRIu64 "\n",
                  fs_log_commits, fs_log_replays);
    out += buf;
  }
  line("request latency     ", request_latency);
  line("request read lat    ", request_read_latency);
  line("request write lat   ", request_write_latency);
  if (requests_completed != 0) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "requests            : completed=%" PRIu64 " retries=%" PRIu64
                  " goodput=%.1f req/s over [%" PRIu64 "us,%" PRIu64 "us]\n",
                  requests_completed, request_retries, RequestGoodputPerSec(),
                  first_request_us, last_request_done_us);
    out += buf;
  }
  return out;
}

TraceAnalysis AnalyzeTrace(const std::vector<TraceEvent>& events) {
  TraceAnalysis out;
  std::unordered_map<uint64_t, SimTime> tx_ts;     // frame id -> tx time
  std::unordered_map<uint64_t, SimTime> detect_ts; // dead cluster -> detect
  std::unordered_map<uint64_t, SimTime> enqueue_b; // gpid -> last flush-begin enqueue stall
  // (gpid, tag) -> earliest issue mark. Ordered map: deterministic and
  // collision-free (tags repeat across sessions). Entries are kept (not
  // erased) after completion so a rollforward's re-executed marks cannot
  // re-pair an already-counted request; `completed` dedups the end marks.
  std::map<std::pair<uint64_t, uint64_t>, SimTime> issue_ts;
  std::map<std::pair<uint64_t, uint64_t>, bool> completed;
  bool crash_outstanding = false;
  SimTime first_detect = 0;

  for (const TraceEvent& e : events) {
    switch (e.kind) {
      case TraceEventKind::kBusTx:
        tx_ts[e.a] = e.ts;
        break;
      case TraceEventKind::kBusRx: {
        auto it = tx_ts.find(e.a);
        if (it != tx_ts.end() && e.ts >= it->second) {
          out.delivery_latency.Add(e.ts - it->second);
        }
        break;
      }
      case TraceEventKind::kSyncFlushBegin:
        out.sync_flush_pages.Add(e.a);
        out.sync_page_enqueue.Add(e.b);
        enqueue_b[e.gpid] = e.b;
        break;
      case TraceEventKind::kSyncTrigger: {
        out.sync_stall.Add(e.b);
        // kSyncFlushBegin precedes its kSyncTrigger at the same timestamp;
        // the difference of their b fields is the record-build portion.
        auto it = enqueue_b.find(e.gpid);
        if (it != enqueue_b.end() && e.b >= it->second) {
          out.sync_build.Add(e.b - it->second);
        }
        break;
      }
      case TraceEventKind::kSyncFlushAck:
        out.sync_drain_overlap.Add(e.b);
        break;
      case TraceEventKind::kCrashDetect:
        // Several survivors detect the same death; keep the earliest.
        if (detect_ts.find(e.a) == detect_ts.end()) detect_ts[e.a] = e.ts;
        if (!crash_outstanding) {
          crash_outstanding = true;
          first_detect = e.ts;
        }
        break;
      case TraceEventKind::kRecoveryDispatch:
        if (crash_outstanding) {
          out.crash_to_dispatch.Add(e.ts - first_detect);
          crash_outstanding = false;
        }
        break;
      case TraceEventKind::kCrashHandled: {
        auto it = detect_ts.find(e.a);
        if (it != detect_ts.end() && e.ts >= it->second) {
          out.crash_to_recovered.Add(e.ts - it->second);
        }
        break;
      }
      case TraceEventKind::kTakeover:
        out.rollforward_replayed.Add(e.b);
        break;
      case TraceEventKind::kDiskQueueWait:
        out.disk_queue_wait.Add(e.a);
        break;
      case TraceEventKind::kFsLogCommit:
        out.fs_commit_blocks.Add(e.b);
        if (e.channel == 0) {
          ++out.fs_log_commits;
        } else {
          ++out.fs_log_replays;
        }
        break;
      case TraceEventKind::kRequestMark: {
        const auto key = std::make_pair(e.gpid, e.b);
        if (e.a == 1) {
          // Keep the earliest issue mark: a rollforward re-executes the
          // mark, and the client-visible latency starts at first issue.
          issue_ts.emplace(key, e.ts);
          if (out.first_request_us == 0 || e.ts < out.first_request_us) {
            out.first_request_us = e.ts;
          }
        } else if (e.a == 2) {
          auto it = issue_ts.find(key);
          if (it != issue_ts.end() && e.ts >= it->second &&
              !completed.count(key)) {
            completed[key] = true;
            const SimTime latency = e.ts - it->second;
            out.request_latency.Add(latency);
            const uint64_t op = e.b >> 24;
            if (op == 1) out.request_read_latency.Add(latency);
            if (op == 2) out.request_write_latency.Add(latency);
            ++out.requests_completed;
            if (e.ts > out.last_request_done_us) out.last_request_done_us = e.ts;
          }
        } else if (e.a == 3) {
          ++out.request_retries;
        }
        break;
      }
      default:
        break;
    }
  }
  return out;
}

}  // namespace auragen
