// Counters the benchmarks read. Kernels and servers increment them as they
// go. Everything here is measurement-only — no simulated component ever
// reads a metric back, so metrics can never perturb determinism.

#ifndef AURAGEN_SRC_CORE_METRICS_H_
#define AURAGEN_SRC_CORE_METRICS_H_

#include <algorithm>
#include <cstdint>

#include "src/base/types.h"

namespace auragen {

// Every counter, declared once as SUM(type, name) or MAX(type, name): the
// struct's fields and Accumulate are both derived from this list. Counters
// and durations add across clusters; the last_* stamps take the latest.
#define AURAGEN_METRICS(SUM, MAX)                                                      \
  /* Message system. */                                                                \
  SUM(uint64_t, messages_sent)         /* logical sends (writes entering the system) */ \
  SUM(uint64_t, deliveries_primary)    /* enqueues at primary destinations */          \
  SUM(uint64_t, deliveries_backup)     /* enqueues at destination backups */           \
  SUM(uint64_t, deliveries_count_only) /* sender's-backup count bumps */               \
  SUM(uint64_t, sends_suppressed)      /* §5.4 duplicate suppression hits */           \
  SUM(uint64_t, bytes_sent)                                                            \
  SUM(uint64_t, early_arrivals_parked) /* arrived before their routing entry */        \
                                                                                       \
  /* Sync machinery (§7.8). */                                                         \
  SUM(uint64_t, syncs)                                                                 \
  SUM(uint64_t, sync_pages_shipped)                                                    \
  SUM(uint64_t, sync_bytes_shipped)                                                    \
  SUM(SimTime, sync_primary_stall_us) /* time the primary was held up (§8.3) */        \
  /* The stall split (the pipeline's cost model): record construction vs */           \
  /* synchronous page enqueueing; plus drain work done on the executive */             \
  /* while the primary kept running (incremental+async only). */                       \
  SUM(SimTime, sync_build_stall_us)    /* record construction (sync_build_us) */       \
  SUM(SimTime, sync_enqueue_stall_us)  /* inline page enqueues (primary held) */       \
  SUM(SimTime, sync_drain_async_us)    /* executive drain steps (primary runs) */      \
  SUM(SimTime, sync_flush_overlap_us)  /* flush-begin to record-on-queue time */       \
  SUM(uint64_t, sync_flushes_async)    /* flushes drained asynchronously */            \
  SUM(uint64_t, syncs_deferred_drain)  /* triggers deferred: flush in flight */        \
  SUM(uint64_t, sync_adaptive_tighten) /* adaptive trigger halved the limit */         \
  SUM(uint64_t, sync_adaptive_loosen)  /* adaptive trigger doubled the limit */        \
  SUM(uint64_t, forced_signal_syncs)   /* syncs forced by signal delivery (§8.3) */    \
  SUM(uint64_t, backup_msgs_trimmed)   /* saved messages discarded by sync */          \
                                                                                       \
  /* Backup lifecycle (§7.7, §8.2). */                                                 \
  SUM(uint64_t, backups_created)                                                       \
  SUM(uint64_t, birth_notices)                                                         \
  SUM(uint64_t, processes_spawned)                                                     \
  SUM(uint64_t, processes_exited)                                                      \
  SUM(uint64_t, backup_create_bytes) /* state shipped to create backups */             \
                                                                                       \
  /* Checkpoint baselines (src/baselines). */                                          \
  SUM(uint64_t, checkpoints)                                                           \
  SUM(uint64_t, checkpoint_bytes)                                                      \
  SUM(SimTime, checkpoint_stall_us)                                                    \
                                                                                       \
  /* Paging (§7.6). */                                                                 \
  SUM(uint64_t, page_writes)                                                           \
  SUM(uint64_t, page_faults_served)                                                    \
  SUM(uint64_t, page_fault_zero_fills)                                                 \
                                                                                       \
  /* Recovery (§7.10). */                                                              \
  SUM(uint64_t, crashes_handled)                                                       \
  SUM(uint64_t, takeovers)                                                             \
  SUM(uint64_t, rollforward_msgs_replayed)                                             \
  MAX(SimTime, last_crash_detected_at)                                                 \
  MAX(SimTime, last_recovery_first_dispatch_at) /* first unaffected process on CPU */  \
  MAX(SimTime, last_recovery_complete_at)       /* all takeovers runnable */           \
  /* Crash-notice receipt to takeovers-runnable, summed over (survivor, */             \
  /* crash) pairs — the rollforward-replay cost a survivor pays per crash. */          \
  SUM(SimTime, rollforward_replay_us)                                                  \
                                                                                       \
  /* Delivery latency: bus accept at the sender to frame arrival at each */            \
  /* receiving executive processor (heartbeats excluded). */                           \
  SUM(SimTime, delivery_latency_us_total)                                              \
  SUM(uint64_t, delivery_latency_samples)                                              \
                                                                                       \
  /* Processor accounting (E1/E9: §8.1 claims backup copies cost the */                \
  /* executive, never the work processors). */                                         \
  SUM(SimTime, work_busy_us)                                                           \
  SUM(SimTime, exec_busy_us)                                                           \
                                                                                       \
  /* Servers. */                                                                       \
  SUM(uint64_t, server_syncs)                                                          \
  SUM(uint64_t, server_sync_bytes)                                                     \
  SUM(uint64_t, fileserver_disk_bytes) /* state made available via disk (§7.9) */

struct Metrics {
#define AURAGEN_METRIC_FIELD(type, name) type name = 0;
  AURAGEN_METRICS(AURAGEN_METRIC_FIELD, AURAGEN_METRIC_FIELD)
#undef AURAGEN_METRIC_FIELD

  // Folds another cluster's metrics into this one. The machine keeps one
  // Metrics per cluster and aggregates on read; merging them would move
  // last_recovery_first_dispatch_at, which each kernel computes from its
  // own stamps.
  void Accumulate(const Metrics& o) {
#define AURAGEN_METRIC_SUM(type, name) name += o.name;
#define AURAGEN_METRIC_MAX(type, name) name = std::max(name, o.name);
    AURAGEN_METRICS(AURAGEN_METRIC_SUM, AURAGEN_METRIC_MAX)
#undef AURAGEN_METRIC_SUM
#undef AURAGEN_METRIC_MAX
  }
};

}  // namespace auragen

#endif  // AURAGEN_SRC_CORE_METRICS_H_
