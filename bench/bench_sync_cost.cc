// E3 — §8.3: "The primary interrupts its normal execution for only as long
// as it takes to place its dirty pages and the sync message on the outgoing
// queue" — primary stall grows only with the number of dirty pages
// *enqueued*, not with the page server's or backup's processing.
//
// Sweep dirty pages per sync interval. Reported per configuration:
//   stall_us_per_sync   primary stall per sync (claim: linear in pages)
//   kb_per_sync         bytes shipped per sync
//   syncs               number of syncs
//   stall_share_pct     stall as % of total work time (claim: small)

#include <benchmark/benchmark.h>

#include "src/machine/machine.h"
#include "src/workload/guest_programs.h"

namespace auragen::bench {

using namespace auragen::workload;
namespace {

void BM_SyncStallVsDirtyPages(benchmark::State& state) {
  const int pages = static_cast<int>(state.range(0));
  for (auto _ : state) {
    MachineOptions options;
    options.config.topology = Topology::SingleSegment(2);
    options.config.sync_reads_limit = 4;  // sync every 4 rounds
    Machine machine(options);
    machine.Boot();
    Machine::UserSpawnOptions w;
    w.backup_cluster = 0;
    machine.SpawnUserProgram(1, StatefulWorker("w", 48, 2000, pages), w);
    machine.SpawnUserProgram(0, Feeder("w", 48), Machine::UserSpawnOptions{});
    bool done = machine.RunUntilAllExited(3'000'000'000ull);
    machine.Settle();
    AURAGEN_CHECK(done);

    const Metrics& m = machine.metrics();
    double syncs = static_cast<double>(m.syncs);
    state.counters["syncs"] = syncs;
    state.counters["stall_us_per_sync"] =
        static_cast<double>(m.sync_primary_stall_us) / syncs;
    state.counters["kb_per_sync"] =
        static_cast<double>(m.sync_bytes_shipped) / 1024.0 / syncs;
    state.counters["stall_share_pct"] =
        100.0 * static_cast<double>(m.sync_primary_stall_us) /
        static_cast<double>(m.work_busy_us);
  }
}

// Ablation: read-count trigger vs time trigger for a fixed workload — the
// §7.8 tunables. Sweeps the reads limit with the time trigger disabled.
void BM_SyncTriggerReads(benchmark::State& state) {
  const uint32_t limit = static_cast<uint32_t>(state.range(0));
  for (auto _ : state) {
    MachineOptions options;
    options.config.topology = Topology::SingleSegment(2);
    options.config.sync_reads_limit = limit;
    options.config.sync_time_limit_us = 3'000'000'000ull;
    Machine machine(options);
    machine.Boot();
    SimTime workload_start = machine.Now();
    Machine::UserSpawnOptions w;
    w.backup_cluster = 0;
    machine.SpawnUserProgram(1, StatefulWorker("w", 64, 1500, 4), w);
    machine.SpawnUserProgram(0, Feeder("w", 64), Machine::UserSpawnOptions{});
    bool done = machine.RunUntilAllExited(3'000'000'000ull);
    SimTime done_at = machine.Now();
    machine.Settle();
    AURAGEN_CHECK(done);
    const Metrics& m = machine.metrics();
    state.counters["syncs"] = static_cast<double>(m.syncs);
    state.counters["stall_ms_total"] = static_cast<double>(m.sync_primary_stall_us) / 1000.0;
    state.counters["shipped_kb"] = static_cast<double>(m.sync_bytes_shipped) / 1024.0;
    state.counters["sim_ms"] = static_cast<double>(done_at - workload_start) / 1000.0;
  }
}

BENCHMARK(BM_SyncStallVsDirtyPages)
    ->Arg(1)->Arg(4)->Arg(16)->Arg(48)
    ->Iterations(1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SyncTriggerReads)
    ->Arg(2)->Arg(8)->Arg(32)->Arg(128)
    ->Iterations(1)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace auragen::bench

BENCHMARK_MAIN();
