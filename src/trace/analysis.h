// Post-hoc latency analysis over a captured trace: per-event-class
// histograms for the intervals the paper's design cares about — how long a
// frame is in flight, how long a sync stalls its primary, and how long
// recovery takes from crash detection to first dispatch / full completion.

#ifndef AURAGEN_SRC_TRACE_ANALYSIS_H_
#define AURAGEN_SRC_TRACE_ANALYSIS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/trace/trace.h"

namespace auragen {

// Power-of-two bucketed histogram of microsecond intervals. Each power-of-
// two major bucket is subdivided into kSubBuckets log-linear sub-buckets
// (HDR-histogram style), bounding Percentile() error to 1/kSubBuckets of
// the value — tight enough to gate p99/p999 regressions at 20%.
class LatencyHistogram {
 public:
  void Add(SimTime us);

  uint64_t count() const { return count_; }
  SimTime total_us() const { return total_us_; }
  SimTime min_us() const { return count_ == 0 ? 0 : min_us_; }
  SimTime max_us() const { return max_us_; }
  double mean_us() const {
    return count_ == 0 ? 0.0 : static_cast<double>(total_us_) / static_cast<double>(count_);
  }

  // Value at quantile q in [0,1]: the upper edge of the sub-bucket holding
  // the ceil(q*count)-th smallest sample, clamped to [min_us, max_us].
  SimTime Percentile(double q) const;
  SimTime p50() const { return Percentile(0.50); }
  SimTime p99() const { return Percentile(0.99); }
  SimTime p999() const { return Percentile(0.999); }

  // "count=12 mean=34.5us min=3us max=96us p50=12us p99=90us p999=96us
  //  | [4,8):2 [8,16):7 ..."
  std::string ToString() const;

 private:
  static constexpr int kBuckets = 40;     // [2^i, 2^(i+1)) us; bucket 0 = [0,2)
  static constexpr int kSubBuckets = 16;  // log-linear slices per major bucket

  static int MajorBucket(SimTime us);

  // kBuckets rows of kSubBuckets counts, allocated by the first Add, so an
  // unused histogram costs no bucket memory (a filled one holds 5 KB, and a
  // TraceAnalysis has 14).
  std::vector<uint64_t> sub_buckets_;
  uint64_t count_ = 0;
  SimTime total_us_ = 0;
  SimTime min_us_ = kSimForever;
  SimTime max_us_ = 0;
};

struct TraceAnalysis {
  LatencyHistogram delivery_latency;     // bus tx -> rx, per (frame, receiver)
  LatencyHistogram sync_stall;           // primary stall per sync (§5.2)
  // Split of the sync stall (§8.3): record build vs inline page enqueue.
  // Async flushes have zero inline enqueue; their page shipping shows up in
  // sync_drain_overlap (trigger -> record sent) instead.
  LatencyHistogram sync_build;
  LatencyHistogram sync_page_enqueue;
  LatencyHistogram sync_flush_pages;     // pages shipped per flush (a count, not us)
  LatencyHistogram sync_drain_overlap;   // kSyncFlushAck.b; 0 for synchronous flushes
  LatencyHistogram crash_to_dispatch;    // crash detect -> first dispatch
  LatencyHistogram crash_to_recovered;   // crash detect -> handling complete
  LatencyHistogram rollforward_replayed; // saved messages replayed per takeover

  // Disk queueing + file-server journal (kDiskQueueWait / kFsLogCommit).
  // Group commit's before/after lives here: queue waits collapse and each
  // commit carries more blocks.
  LatencyHistogram disk_queue_wait;      // per-request wait behind the actuator
  LatencyHistogram fs_commit_blocks;     // blocks per durable commit (a count)
  uint64_t fs_log_commits = 0;           // commit records made durable
  uint64_t fs_log_replays = 0;           // committed batches replayed at boot

  // Serving-workload SLO intervals (kRequestMark pairs from guest `sys
  // mark`). Pairing keys on (gpid, tag) and keeps the *earliest* issue
  // mark, so a request whose primary dies mid-flight is charged the full
  // client-visible latency including detection and switchover.
  LatencyHistogram request_latency;        // all completed requests
  LatencyHistogram request_read_latency;   // op == 1 subset
  LatencyHistogram request_write_latency;  // op == 2 subset
  uint64_t requests_completed = 0;
  uint64_t request_retries = 0;            // phase-3 marks (resend/switchover)
  SimTime first_request_us = 0;            // earliest issue mark
  SimTime last_request_done_us = 0;        // latest completion mark

  // Completed requests per simulated second over the marked interval.
  double RequestGoodputPerSec() const;

  std::string ToString() const;
};

TraceAnalysis AnalyzeTrace(const std::vector<TraceEvent>& events);

}  // namespace auragen

#endif  // AURAGEN_SRC_TRACE_ANALYSIS_H_
