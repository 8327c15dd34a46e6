#include "src/trace/trace.h"

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>

namespace auragen {

namespace {

constexpr uint64_t kFnvPrime = 1099511628211ull;
constexpr char kTraceMagic[4] = {'A', 'T', 'R', 'C'};
constexpr uint32_t kTraceVersion = 1;

// One record in a trace file: eight little-endian u64 words.
struct FileRecord {
  uint64_t w[8];
};

FileRecord Pack(const TraceEvent& e) {
  return FileRecord{{e.seq, e.ts, static_cast<uint64_t>(e.kind),
                     static_cast<uint64_t>(e.cluster), e.gpid, e.channel, e.a,
                     e.b}};
}

TraceEvent Unpack(const FileRecord& r) {
  TraceEvent e;
  e.seq = r.w[0];
  e.ts = r.w[1];
  e.kind = static_cast<TraceEventKind>(r.w[2]);
  e.cluster = static_cast<ClusterId>(r.w[3]);
  e.gpid = r.w[4];
  e.channel = r.w[5];
  e.a = r.w[6];
  e.b = r.w[7];
  return e;
}

}  // namespace

const char* TraceEventKindName(TraceEventKind kind) {
  switch (kind) {
    case TraceEventKind::kSend: return "send";
    case TraceEventKind::kSendSuppressed: return "send-suppressed";
    case TraceEventKind::kDeliverPrimary: return "deliver-primary";
    case TraceEventKind::kDeliverBackup: return "deliver-backup";
    case TraceEventKind::kDeliverCount: return "deliver-count";
    case TraceEventKind::kSyncTrigger: return "sync-trigger";
    case TraceEventKind::kSyncApply: return "sync-apply";
    case TraceEventKind::kSyncTrim: return "sync-trim";
    case TraceEventKind::kPageShip: return "page-ship";
    case TraceEventKind::kPageFault: return "page-fault";
    case TraceEventKind::kPageReply: return "page-reply";
    case TraceEventKind::kCrashDetect: return "crash-detect";
    case TraceEventKind::kCrashHandled: return "crash-handled";
    case TraceEventKind::kTakeover: return "takeover";
    case TraceEventKind::kRecoveryDispatch: return "recovery-dispatch";
    case TraceEventKind::kBackupShip: return "backup-ship";
    case TraceEventKind::kBackupCreate: return "backup-create";
    case TraceEventKind::kClusterCrash: return "cluster-crash";
    case TraceEventKind::kClusterRestart: return "cluster-restart";
    case TraceEventKind::kSpawn: return "spawn";
    case TraceEventKind::kFork: return "fork";
    case TraceEventKind::kBirthNotice: return "birth-notice";
    case TraceEventKind::kExit: return "exit";
    case TraceEventKind::kSignalDeliver: return "signal-deliver";
    case TraceEventKind::kServerSyncSend: return "server-sync-send";
    case TraceEventKind::kServerSyncApply: return "server-sync-apply";
    case TraceEventKind::kFsCommit: return "fs-commit";
    case TraceEventKind::kPageStore: return "page-store";
    case TraceEventKind::kPageServe: return "page-serve";
    case TraceEventKind::kTtyEmit: return "tty-emit";
    case TraceEventKind::kDiskRead: return "disk-read";
    case TraceEventKind::kDiskWrite: return "disk-write";
    case TraceEventKind::kBusTx: return "bus-tx";
    case TraceEventKind::kBusRx: return "bus-rx";
    case TraceEventKind::kFaultInject: return "fault-inject";
    case TraceEventKind::kProcFail: return "proc-fail";
    case TraceEventKind::kSyncFlushBegin: return "sync-flush-begin";
    case TraceEventKind::kSyncFlushAck: return "sync-flush-ack";
    case TraceEventKind::kSyncAdaptive: return "sync-adaptive";
    case TraceEventKind::kRequestMark: return "request-mark";
    case TraceEventKind::kSwitchFwd: return "switch-fwd";
    case TraceEventKind::kSwitchHeld: return "switch-held";
    case TraceEventKind::kEngineDispatch: return "engine-dispatch";
    case TraceEventKind::kFsLogCommit: return "fs-log-commit";
    case TraceEventKind::kDiskQueueWait: return "disk-queue-wait";
    case TraceEventKind::kMaxKind: break;
  }
  return "unknown";
}

std::string FormatTraceEvent(const TraceEvent& e) {
  char buf[256];
  char cluster[16];
  if (e.cluster == kNoCluster) {
    std::snprintf(cluster, sizeof(cluster), "c-");
  } else {
    std::snprintf(cluster, sizeof(cluster), "c%u", e.cluster);
  }
  std::snprintf(buf, sizeof(buf),
                "#%-8" PRIu64 " t=%-10" PRIu64 " %-3s %-18s pid=%s ch=%" PRIx64
                " a=%" PRIu64 " b=%" PRIu64,
                e.seq, e.ts, cluster, TraceEventKindName(e.kind),
                GpidStr(Gpid{e.gpid}).c_str(), e.channel, e.a, e.b);
  return std::string(buf);
}

void TraceDigest::Fold(const TraceEvent& e) {
  const uint64_t words[7] = {e.ts,     static_cast<uint64_t>(e.kind),
                             static_cast<uint64_t>(e.cluster),
                             e.gpid,   e.channel,
                             e.a,      e.b};
  uint64_t h = hash;
  for (uint64_t w : words) {
    for (int i = 0; i < 8; ++i) {
      h ^= (w >> (i * 8)) & 0xff;
      h *= kFnvPrime;
    }
  }
  hash = h;
  ++count;
  last_ts = e.ts;
}

std::string TraceDigest::ToString() const {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64 " (%" PRIu64 " events, last t=%" PRIu64 ")",
                hash, count, last_ts);
  return std::string(buf);
}

Tracer::Tracer(TraceOptions options) : options_(options) {
  clock_ = [] { return SimTime{0}; };
  if (!options_.unbounded && options_.ring_capacity > 0) {
    events_.reserve(options_.ring_capacity);
  }
}

void Tracer::Record(TraceEventKind kind, ClusterId cluster, uint64_t gpid,
                    uint64_t channel, uint64_t a, uint64_t b) {
  if (!WantsKind(kind)) return;  // skip the clock call for masked kinds
  TraceEvent e;
  e.seq = digest_.count;
  e.ts = clock_();
  e.kind = kind;
  e.cluster = cluster;
  e.gpid = gpid;
  e.channel = channel;
  e.a = a;
  e.b = b;
  digest_.Fold(e);
  if (options_.unbounded) {
    events_.push_back(e);
  } else if (options_.ring_capacity > 0) {
    if (events_.size() < options_.ring_capacity) {
      events_.push_back(e);
    } else {
      events_[head_] = e;
      head_ = (head_ + 1) % options_.ring_capacity;
    }
  }
}

std::vector<TraceEvent> Tracer::Events() const {
  if (options_.unbounded || head_ == 0) return events_;
  std::vector<TraceEvent> out;
  out.reserve(events_.size());
  for (size_t i = 0; i < events_.size(); ++i) {
    out.push_back(events_[(head_ + i) % events_.size()]);
  }
  return out;
}

bool Tracer::SaveTo(const std::string& path) const {
  return SaveTrace(path, Events(), digest_);
}

bool SaveTrace(const std::string& path, const std::vector<TraceEvent>& events,
               const TraceDigest& digest) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) return false;
  f.write(kTraceMagic, 4);
  uint32_t version = kTraceVersion;
  f.write(reinterpret_cast<const char*>(&version), sizeof(version));
  const uint64_t header[4] = {digest.hash, digest.count, digest.last_ts,
                              static_cast<uint64_t>(events.size())};
  f.write(reinterpret_cast<const char*>(header), sizeof(header));
  for (const TraceEvent& e : events) {
    FileRecord r = Pack(e);
    f.write(reinterpret_cast<const char*>(r.w), sizeof(r.w));
  }
  return f.good();
}

bool LoadTrace(const std::string& path, std::vector<TraceEvent>* events,
               TraceDigest* digest) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return false;
  char magic[4];
  f.read(magic, 4);
  if (!f || std::memcmp(magic, kTraceMagic, 4) != 0) return false;
  uint32_t version = 0;
  f.read(reinterpret_cast<char*>(&version), sizeof(version));
  if (!f || version != kTraceVersion) return false;
  uint64_t header[4];
  f.read(reinterpret_cast<char*>(header), sizeof(header));
  if (!f) return false;
  if (digest != nullptr) {
    digest->hash = header[0];
    digest->count = header[1];
    digest->last_ts = header[2];
  }
  const uint64_t n = header[3];
  if (events != nullptr) {
    events->clear();
    events->reserve(n);
  }
  for (uint64_t i = 0; i < n; ++i) {
    FileRecord r;
    f.read(reinterpret_cast<char*>(r.w), sizeof(r.w));
    if (!f) return false;
    if (events != nullptr) events->push_back(Unpack(r));
  }
  return true;
}

DivergenceReport FindFirstDivergence(const std::vector<TraceEvent>& a,
                                     const std::vector<TraceEvent>& b) {
  DivergenceReport report;
  const size_t n = a.size() < b.size() ? a.size() : b.size();
  for (size_t i = 0; i < n; ++i) {
    if (a[i] != b[i]) {
      report.diverged = true;
      report.index = a[i].seq;
      report.description = "traces diverge at event #" + std::to_string(a[i].seq) +
                           "\n  A: " + FormatTraceEvent(a[i]) +
                           "\n  B: " + FormatTraceEvent(b[i]);
      if (i > 0) {
        report.description +=
            "\n  last agreeing event: " + FormatTraceEvent(a[i - 1]);
      }
      return report;
    }
  }
  if (a.size() != b.size()) {
    report.diverged = true;
    report.index = n;
    const char* shorter = a.size() < b.size() ? "A" : "B";
    const std::vector<TraceEvent>& longer = a.size() < b.size() ? b : a;
    report.description = std::string("trace ") + shorter + " ends after " +
                         std::to_string(n) + " events; other continues with" +
                         "\n  " + FormatTraceEvent(longer[n]);
  }
  return report;
}

}  // namespace auragen
