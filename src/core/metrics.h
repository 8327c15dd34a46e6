// Counters the benchmarks read: one Metrics per machine, which kernels and
// servers increment as they go. Everything here is measurement-only — no
// simulated component ever reads a metric back, so metrics can never
// perturb determinism.

#ifndef AURAGEN_SRC_CORE_METRICS_H_
#define AURAGEN_SRC_CORE_METRICS_H_

#include <cstdint>

#include "src/base/types.h"

namespace auragen {

struct Metrics {
  // Message system.
  uint64_t messages_sent = 0;  // logical sends (writes entering the system)
  uint64_t deliveries_primary = 0;  // enqueues at primary destinations
  uint64_t deliveries_backup = 0;  // enqueues at destination backups
  uint64_t deliveries_count_only = 0;  // sender's-backup count bumps
  uint64_t sends_suppressed = 0;  // §5.4 duplicate suppression hits
  uint64_t bytes_sent = 0;
  uint64_t early_arrivals_parked = 0;  // arrived before their routing entry

  // Sync machinery (§7.8).
  uint64_t syncs = 0;
  uint64_t sync_pages_shipped = 0;
  uint64_t sync_bytes_shipped = 0;
  SimTime sync_primary_stall_us = 0;  // time the primary was held up (§8.3)
  // The stall split (the pipeline's cost model): record construction vs
  // synchronous page enqueueing; plus drain work done on the executive
  // while the primary kept running (incremental+async only).
  SimTime sync_build_stall_us = 0;  // record construction (sync_build_us)
  SimTime sync_enqueue_stall_us = 0;  // inline page enqueues (primary held)
  SimTime sync_drain_async_us = 0;  // executive drain steps (primary runs)
  SimTime sync_flush_overlap_us = 0;  // flush-begin to record-on-queue time
  uint64_t sync_flushes_async = 0;  // flushes drained asynchronously
  uint64_t syncs_deferred_drain = 0;  // triggers deferred: flush in flight
  uint64_t sync_adaptive_tighten = 0;  // adaptive trigger halved the limit
  uint64_t sync_adaptive_loosen = 0;  // adaptive trigger doubled the limit
  uint64_t forced_signal_syncs = 0;  // syncs forced by signal delivery (§8.3)
  uint64_t backup_msgs_trimmed = 0;  // saved messages discarded by sync

  // Backup lifecycle (§7.7, §8.2).
  uint64_t backups_created = 0;
  uint64_t birth_notices = 0;
  uint64_t processes_spawned = 0;
  uint64_t processes_exited = 0;
  uint64_t backup_create_bytes = 0;  // state shipped to create backups

  // Checkpoint baselines (src/baselines).
  uint64_t checkpoints = 0;
  uint64_t checkpoint_bytes = 0;
  SimTime checkpoint_stall_us = 0;

  // Paging (§7.6).
  uint64_t page_writes = 0;
  uint64_t page_faults_served = 0;
  uint64_t page_fault_zero_fills = 0;

  // Recovery (§7.10).
  uint64_t crashes_handled = 0;
  uint64_t takeovers = 0;
  uint64_t rollforward_msgs_replayed = 0;
  SimTime last_recovery_complete_at = 0;  // all takeovers runnable
  // Crash-notice receipt to takeovers-runnable, summed over (survivor,
  // crash) pairs — the rollforward-replay cost a survivor pays per crash.
  SimTime rollforward_replay_us = 0;

  // Delivery latency: bus accept at the sender to frame arrival at each
  // receiving executive processor (heartbeats excluded).
  SimTime delivery_latency_us_total = 0;
  uint64_t delivery_latency_samples = 0;

  // Processor accounting (E1/E9: §8.1 claims backup copies cost the
  // executive, never the work processors).
  SimTime work_busy_us = 0;
  SimTime exec_busy_us = 0;

  // Servers.
  uint64_t server_syncs = 0;
  uint64_t server_sync_bytes = 0;
  uint64_t fileserver_disk_bytes = 0;  // state made available via disk (§7.9)
};

}  // namespace auragen

#endif  // AURAGEN_SRC_CORE_METRICS_H_
