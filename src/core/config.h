// Tunable parameters of the simulated machine and of the fault-tolerance
// mechanisms. The machine's shape (cluster count, segments, bus costs) is
// SystemConfig::topology and nothing else. The FT-relevant knobs correspond
// to the "system-defined" values of §5.2 and §7.8 ("It is possible to set
// the message count and execution time interval which trigger sync for each
// process").

#ifndef AURAGEN_SRC_CORE_CONFIG_H_
#define AURAGEN_SRC_CORE_CONFIG_H_

#include <cstdint>
#include <string>

#include "src/base/types.h"
#include "src/bus/topology.h"

namespace auragen {

// How processes are kept recoverable. kMessageSystem is the paper; the
// others are the §2 baselines implemented in src/baselines for the
// efficiency comparisons (experiments E2/E9).
enum class FtStrategy : uint8_t {
  kNone,            // no backups at all
  kMessageSystem,   // the paper: 3-way delivery + sync + rollforward
  kCheckpointFull,  // §2: copy the whole data space to the backup each trigger
  kCheckpointIncremental,  // checkpoint only pages dirtied since last trigger
  kLockstep,        // §2/Stratus: backup executes every instruction too
};

const char* FtStrategyName(FtStrategy s);

inline const char* FtStrategyName(FtStrategy s) {
  switch (s) {
    case FtStrategy::kNone: return "none";
    case FtStrategy::kMessageSystem: return "msgsys";
    case FtStrategy::kCheckpointFull: return "ckpt-full";
    case FtStrategy::kCheckpointIncremental: return "ckpt-incr";
    case FtStrategy::kLockstep: return "lockstep";
  }
  return "?";
}

// How dirty pages travel to the page server at a sync (§5.2, §8.3).
enum class SyncMode : uint8_t {
  // Ship every resident page synchronously at each sync: the classic
  // checkpoint transfer the incremental pipeline is measured against.
  kStopAndCopy,
  // Ship only pages dirtied since the last flush, synchronously: the
  // primary stalls for build + per-page enqueue time (§8.3).
  kIncremental,
  // Ship only pages dirtied since the last acknowledged flush, and let the
  // primary resume after the record is built: copy-on-write snapshots drain
  // to the outgoing queue from the executive while the process runs.
  kIncrementalAsync,
};

inline const char* SyncModeName(SyncMode m) {
  switch (m) {
    case SyncMode::kStopAndCopy: return "stop-and-copy";
    case SyncMode::kIncremental: return "incremental";
    case SyncMode::kIncrementalAsync: return "incremental-async";
  }
  return "?";
}

// Typed configuration for the sync pipeline. Replaces growing SystemConfig
// with more loose scalars: the mode, drain pacing, and the adaptive-trigger
// bounds travel together and are validated as a unit at Machine::Boot().
struct SyncPolicy {
  SyncMode mode = SyncMode::kIncremental;

  // kIncrementalAsync: pages enqueued per executive drain step. Smaller
  // batches interleave more with regular outgoing traffic; larger batches
  // finish the flush sooner.
  uint32_t drain_batch_pages = 8;

  // Adaptive trigger (§7.8 lets the trigger be set per process; this moves
  // it automatically). After each flush the effective time limit halves
  // when the flush captured more than `dirty_high` pages and grows 2x when
  // it captured fewer than `dirty_low`, clamped to [min,max].
  bool adaptive = false;
  SimTime adaptive_min_time_us = 2000;
  SimTime adaptive_max_time_us = 80000;
  uint32_t adaptive_dirty_high = 24;
  uint32_t adaptive_dirty_low = 4;

  // Empty string = valid; otherwise a diagnostic naming the bad field.
  std::string Validate() const {
    if (mode != SyncMode::kStopAndCopy && mode != SyncMode::kIncremental &&
        mode != SyncMode::kIncrementalAsync) {
      return "SyncPolicy.mode is not a known SyncMode";
    }
    if (drain_batch_pages == 0) {
      return "SyncPolicy.drain_batch_pages must be >= 1";
    }
    if (adaptive) {
      if (adaptive_min_time_us == 0) {
        return "SyncPolicy.adaptive_min_time_us must be > 0";
      }
      if (adaptive_min_time_us > adaptive_max_time_us) {
        return "SyncPolicy.adaptive_min_time_us exceeds adaptive_max_time_us";
      }
      if (adaptive_dirty_low >= adaptive_dirty_high) {
        return "SyncPolicy.adaptive_dirty_low must be < adaptive_dirty_high";
      }
    }
    return "";
  }
};

// The machine's fixed cost model and liveness timing. Constants rather
// than SystemConfig fields: no caller varies them.
inline constexpr uint32_t kWorkProcessorsPerCluster = 2;  // §7.1
// Work-processor cost model: one AVM instruction ≈ 0.5us (2 MIPS,
// M68000-era), and the work units one dispatch may run.
inline constexpr double kUsPerWorkUnit = 0.5;
inline constexpr uint64_t kQuantumWork = 500;
// Executive-processor cost model (§7.1: it handles all intercluster message
// traffic; §8.1: backup copies cost executive, not work, time).
inline constexpr SimTime kExecSendUs = 4;       // take a message off the outgoing queue
inline constexpr SimTime kExecDeliverUs = 3;    // distribute one arriving message locally
inline constexpr SimTime kExecSyncApplyUs = 6;  // apply a sync record to a backup PCB
// Work-processor stall per dirty page enqueued at sync, and for building the
// sync record (§8.3: the primary is interrupted "only as long as it takes to
// place its dirty pages and the sync message on the outgoing queue").
inline constexpr SimTime kSyncPageEnqueueUs = 2;
inline constexpr SimTime kSyncBuildUs = 10;
// Failure detection (§7.10: periodic polling).
inline constexpr SimTime kHeartbeatPeriodUs = 5000;
inline constexpr SimTime kHeartbeatTimeoutUs = 12000;  // missed ~2 heartbeats
// Crash handling (§7.10.1): routing-table patch cost per entry.
inline constexpr SimTime kCrashScanPerEntryUs = 1;

struct SystemConfig {
  // The machine's shape: how many clusters, on which dual-bus segments, with
  // which bus costs (src/bus/topology.h). The default is the paper's
  // smallest machine, two clusters on one dual bus (§7.1).
  Topology topology = Topology::SingleSegment(2);

  FtStrategy strategy = FtStrategy::kMessageSystem;

  // --- sync triggers (§5.2, §7.8) ---
  uint32_t sync_reads_limit = 32;        // reads since sync
  SimTime sync_time_limit_us = 20000;    // execution time since sync
  // How dirty pages travel at a sync (mode + drain pacing + adaptive
  // trigger bounds); see SyncPolicy above.
  SyncPolicy sync_policy;

  // Page-server shards (§7.9 scaled out): backup images for processes born
  // on different clusters land on different page-server instances, so
  // recovery paging does not converge on a single hot cluster. Shard choice
  // is pid.origin_cluster() % page_shards — stable across primary moves.
  uint32_t page_shards = 1;
};

}  // namespace auragen

#endif  // AURAGEN_SRC_CORE_CONFIG_H_
