// Deterministic event tracing ("flight recorder") for the whole machine.
//
// Same contract as src/core/metrics.h: tracing is write-only — no simulated
// component ever reads a trace back — so a traced run and an untraced run
// with the same seed execute identically. Every record carries sim-time and
// the identifiers of the thing it describes (cluster, gpid, channel), which
// makes a trace itself a pure function of configuration and seed: two
// identical-seed runs produce byte-identical traces, and DESIGN.md
// invariant 6 can be checked (and *diagnosed*, via FindFirstDivergence)
// event by event instead of by coarse end-state comparison.
//
// Two capture modes:
//   * kUnbounded  — keep every event (tests, tracedump captures);
//   * kRing       — bounded flight recorder: the last `ring_capacity` events
//                   survive, but the running digest still covers the whole
//                   run, so digest comparison works at any memory budget.

#ifndef AURAGEN_SRC_TRACE_TRACE_H_
#define AURAGEN_SRC_TRACE_TRACE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/base/types.h"

namespace auragen {

// Values are stable: they are serialized in trace files and folded into
// digests. Append only; never renumber.
enum class TraceEventKind : uint8_t {
  // Message system (§5.1).
  kSend = 1,            // a = MsgKind, b = body bytes
  kSendSuppressed = 2,  // §5.4 duplicate suppression; a = budget left after
  kDeliverPrimary = 3,  // a = MsgKind, b = body bytes
  kDeliverBackup = 4,   // a = MsgKind, b = body bytes
  kDeliverCount = 5,    // count-only leg; a = writes_since_sync after bump

  // Sync machinery (§5.2, §7.8).
  kSyncTrigger = 10,    // a = sync_seq, b = primary stall us
  kSyncApply = 11,      // backup PCB updated; a = sync_seq
  kSyncTrim = 12,       // saved queue trimmed; a = messages discarded
  kPageShip = 13,       // dirty page enqueued at sync; a = page, b = bytes

  // Paging & recovery (§7.6, §7.10).
  kPageFault = 20,      // a = page, b = cookie
  kPageReply = 21,      // a = page, b = known (0: zero-fill)
  kCrashDetect = 22,    // a = dead cluster
  kCrashHandled = 23,   // a = dead cluster, b = handling duration us
  kTakeover = 24,       // a = 0 restart / 1 rollforward / 2 parked server,
                        // b = saved messages replayed
  kRecoveryDispatch = 25,  // first post-crash dispatch of an unaffected proc
  kBackupShip = 26,     // backup-create state shipped; b = bytes
  kBackupCreate = 27,   // backup materialized here; a = 1 if peripheral
  kClusterCrash = 28,
  kClusterRestart = 29,

  // Lifecycle (§7.7).
  kSpawn = 30,          // a = BackupMode
  kFork = 31,           // gpid = child; a = fork_seq, b = 1 if replayed
  kBirthNotice = 32,    // gpid = child; a = fork_seq
  kExit = 33,           // a = exit status (cast)
  kSignalDeliver = 34,  // a = signal number

  // Servers (§7.9).
  kServerSyncSend = 40,   // b = payload bytes
  kServerSyncApply = 41,
  kFsCommit = 42,         // file-server superblock commit; a = epoch
  kPageStore = 43,        // page server stored a page; a = page
  kPageServe = 44,        // page server served a request; a = page, b = known
  kTtyEmit = 45,          // a = line, b = emit seq
  kDiskRead = 46,         // a = block
  kDiskWrite = 47,        // a = block, b = bytes

  // Bus (§5.1 atomic multicast).
  kBusTx = 50,          // cluster = src; a = frame id, b = wire bytes
  kBusRx = 51,          // cluster = receiver; a = frame id, b = transit us

  // Fault injection (src/fault campaign harness).
  kFaultInject = 52,    // injector fired; a = FaultKind, b = action index
  kProcFail = 53,       // §10 individual-process fault; gpid = victim

  // Incremental sync pipeline (§8.3 overlap).
  kSyncFlushBegin = 54,  // flush captured; a = pages, b = inline enqueue
                         // stall us (0 when the drain is asynchronous)
  kSyncFlushAck = 55,    // record reached the outgoing queue; a = sync_seq,
                         // b = overlap us (drain time the primary ran through)
  kSyncAdaptive = 56,    // trigger retuned; a = new time limit us, b = pages
                         // observed at the flush that caused the change

  // Guest workload instrumentation (src/workload serving SLO layer).
  kRequestMark = 57,     // guest `sys mark`; a = phase (1 = request issued,
                         // 2 = reply received, 3 = retry/switchover),
                         // b = request tag (op << 24 | request index)

  // Segmented fabric (src/bus/fabric.h): trunk sequencing of cross-segment
  // multicasts and switch partitions.
  kSwitchFwd = 58,   // trunk re-injected a copy; cluster = frame src,
                     // channel = destination segment, a = origin frame id,
                     // b = trunk sequence number
  kSwitchHeld = 59,  // a failed switch held a frame; channel = segment,
                     // a = origin frame id, b = 0 egress / 1 trunk inbound

  // Simulation engine (very high volume; masked out by default).
  kEngineDispatch = 60,  // a = event id

  // Journaled file server (DESIGN.md §19).
  kFsLogCommit = 61,    // commit record durable (channel = 0) or replayed at
                        // boot (channel = 1); a = log seq, b = blocks in batch
  kDiskQueueWait = 62,  // request left the disk queue; gpid = bound server,
                        // channel = drive index, a = wait us, b = queue depth

  kMaxKind = 63,  // bitmask bound; keep kinds below this
};

const char* TraceEventKindName(TraceEventKind kind);

inline constexpr uint64_t TraceKindBit(TraceEventKind k) {
  return uint64_t{1} << static_cast<unsigned>(k) % 64;
}

// All kinds except the per-engine-event firehose.
inline constexpr uint64_t kDefaultTraceKindMask =
    ~uint64_t{0} & ~TraceKindBit(TraceEventKind::kEngineDispatch);

struct TraceEvent {
  uint64_t seq = 0;        // 0-based position in the whole run (never wraps)
  SimTime ts = 0;
  TraceEventKind kind = TraceEventKind::kSend;
  ClusterId cluster = kNoCluster;  // recording cluster (kNoCluster: machine)
  uint64_t gpid = 0;
  uint64_t channel = 0;
  uint64_t a = 0;          // kind-specific, see enum comments
  uint64_t b = 0;

  friend bool operator==(const TraceEvent& x, const TraceEvent& y) {
    return x.seq == y.seq && x.ts == y.ts && x.kind == y.kind &&
           x.cluster == y.cluster && x.gpid == y.gpid && x.channel == y.channel &&
           x.a == y.a && x.b == y.b;
  }
  friend bool operator!=(const TraceEvent& x, const TraceEvent& y) { return !(x == y); }
};

// One-line human-readable rendering ("t=12345us c0 send pid<0.16> ch=... ").
std::string FormatTraceEvent(const TraceEvent& e);

// Running digest over every event ever recorded (including ones a ring
// buffer has since dropped). FNV-1a over the serialized fields.
struct TraceDigest {
  uint64_t hash = 14695981039346656037ull;  // FNV-1a offset basis
  uint64_t count = 0;
  SimTime last_ts = 0;

  void Fold(const TraceEvent& e);
  std::string ToString() const;

  friend bool operator==(const TraceDigest& x, const TraceDigest& y) {
    return x.hash == y.hash && x.count == y.count && x.last_ts == y.last_ts;
  }
  friend bool operator!=(const TraceDigest& x, const TraceDigest& y) { return !(x == y); }
};

struct TraceOptions {
  bool enabled = false;
  bool unbounded = true;         // false: ring-buffer flight recorder
  size_t ring_capacity = 65536;  // events kept when !unbounded
  uint64_t kind_mask = kDefaultTraceKindMask;
};

class Tracer {
 public:
  explicit Tracer(TraceOptions options);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // Timestamp source; the machine points this at its engine's clock.
  void set_clock(std::function<SimTime()> clock) { clock_ = std::move(clock); }

  // Routing hook for sharded runs: when set, Record() hands the event to
  // the hook instead of folding it directly — the machine points this at
  // ShardedEngine::Trace, which stages records per shard and replays them
  // through RecordAt() at each window barrier in deterministic merge order.
  // RecordAt() itself is never intercepted (it is the merge sink).
  using RecordHook = std::function<void(TraceEventKind, ClusterId, uint64_t, uint64_t,
                                        uint64_t, uint64_t)>;
  void set_record_hook(RecordHook hook) { record_hook_ = std::move(hook); }

  bool WantsKind(TraceEventKind k) const { return (options_.kind_mask & TraceKindBit(k)) != 0; }

  // The single hot path. Callers guard with `if (tracer_ != nullptr)`, so the
  // tracing-off configuration costs one pointer test per hook point.
  void Record(TraceEventKind kind, ClusterId cluster, uint64_t gpid, uint64_t channel,
              uint64_t a, uint64_t b);

  // Record with an explicit timestamp instead of the clock callback. This is
  // the sink of ShardedEngine's deterministic multi-stream merge: per-shard
  // streams carry their own shard-local timestamps, and the merge replays
  // them here in (ts, shard, shard-order) order so the folded digest is a
  // pure function of the per-shard streams.
  void RecordAt(SimTime ts, TraceEventKind kind, ClusterId cluster, uint64_t gpid,
                uint64_t channel, uint64_t a, uint64_t b);

  // Events currently held, oldest first (the full run when unbounded; the
  // tail of the run in ring mode).
  std::vector<TraceEvent> Events() const;

  const TraceDigest& digest() const { return digest_; }
  uint64_t total_recorded() const { return digest_.count; }
  const TraceOptions& options() const { return options_; }

  // Binary trace file I/O (format: "ATRC" magic, version, digest, records).
  bool SaveTo(const std::string& path) const;

 private:
  TraceOptions options_;
  std::function<SimTime()> clock_;
  RecordHook record_hook_;
  std::vector<TraceEvent> events_;  // ring mode: circular, head_ = oldest
  size_t head_ = 0;
  TraceDigest digest_;
};

// Loads a trace file written by Tracer::SaveTo. Returns false on a missing
// or malformed file. The digest in the file covers the *whole* run even if
// the saved events are only a ring-buffer tail.
bool LoadTrace(const std::string& path, std::vector<TraceEvent>* events,
               TraceDigest* digest);
bool SaveTrace(const std::string& path, const std::vector<TraceEvent>& events,
               const TraceDigest& digest);

// First point where two event streams disagree. Comparing digests answers
// *whether* two runs diverged; this answers *where*, with full context.
struct DivergenceReport {
  bool diverged = false;
  uint64_t index = 0;       // seq of the first divergent event
  std::string description;  // human-readable: both events, or which side ended

  std::string ToString() const { return description; }
};

DivergenceReport FindFirstDivergence(const std::vector<TraceEvent>& a,
                                     const std::vector<TraceEvent>& b);

}  // namespace auragen

#endif  // AURAGEN_SRC_TRACE_TRACE_H_
