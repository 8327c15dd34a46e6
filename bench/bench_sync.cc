// BENCH_sync — the copy-on-write sync pipeline (§8.3) behind SyncPolicy.
// One binary sweeps the three modes over the same 25%-dirty working set
// (64 of the AVM's 256 pages dirtied per sync interval), so a single
// BENCH_sync.json self-contains the before/after comparison:
//
//   stop-and-copy      every resident page shipped, primary stalls for all
//   incremental        dirty pages only, still enqueued synchronously
//   incremental-async  dirty pages only, drained while the primary runs
//
// Reported per mode:
//   stall_us_per_sync   primary wall-clock held per sync (the headline)
//   kb_per_sync         bytes shipped per sync
//   drain_us_per_sync   executive drain work per sync (async only)
//   sim_ms              workload completion in simulated time

#include <benchmark/benchmark.h>

#include "src/machine/machine.h"
#include "src/workload/guest_programs.h"

namespace auragen::bench {

using namespace auragen::workload;
namespace {

void BM_SyncMode(benchmark::State& state) {
  const SyncMode mode = static_cast<SyncMode>(state.range(0));
  for (auto _ : state) {
    MachineOptions options =
        MachineOptions().WithTopology(Topology::SingleSegment(2)).WithSyncMode(mode);
    options.config.sync_reads_limit = 4;  // sync every 4 rounds
    Machine machine(options);
    machine.Boot();
    SimTime workload_start = machine.Now();
    Machine::UserSpawnOptions w;
    w.backup_cluster = 0;
    // 64 pages re-dirtied per round = 25% of the 256-page AVM space, on top
    // of a primed 96-page cold footprint that only stop-and-copy re-ships.
    machine.SpawnUserProgram(1, WideStatefulWorker("w", 48, 2000, 64, 96), w);
    machine.SpawnUserProgram(0, Feeder("w", 48), Machine::UserSpawnOptions{});
    bool done = machine.RunUntilAllExited(3'000'000'000ull);
    SimTime done_at = machine.Now();
    machine.Settle();
    AURAGEN_CHECK(done);

    const Metrics& m = machine.metrics();
    double syncs = static_cast<double>(m.syncs);
    state.counters["syncs"] = syncs;
    state.counters["stall_us_per_sync"] =
        static_cast<double>(m.sync_primary_stall_us) / syncs;
    state.counters["kb_per_sync"] =
        static_cast<double>(m.sync_bytes_shipped) / 1024.0 / syncs;
    state.counters["drain_us_per_sync"] =
        static_cast<double>(m.sync_drain_async_us) / syncs;
    state.counters["sim_ms"] = static_cast<double>(done_at - workload_start) / 1000.0;
    state.SetLabel(SyncModeName(mode));
  }
}

// Adaptive trigger ablation: a bursty dirtier under a fixed time trigger vs
// the adaptive one. Adaptation should cut pages-per-flush during bursts
// (tighten) and sync less often when quiet (loosen).
void BM_AdaptiveTrigger(benchmark::State& state) {
  const bool adaptive = state.range(0) != 0;
  for (auto _ : state) {
    MachineOptions options = MachineOptions()
                                 .WithTopology(Topology::SingleSegment(2))
                                 .WithSyncMode(SyncMode::kIncrementalAsync);
    options.config.sync_reads_limit = 1'000'000;  // time trigger only
    options.config.sync_time_limit_us = 20'000;
    options.config.sync_policy.adaptive = adaptive;
    Machine machine(options);
    machine.Boot();
    Machine::UserSpawnOptions w;
    w.backup_cluster = 0;
    machine.SpawnUserProgram(1, StatefulWorker("w", 48, 4000, 48), w);
    machine.SpawnUserProgram(0, Feeder("w", 48, 2000), Machine::UserSpawnOptions{});
    bool done = machine.RunUntilAllExited(3'000'000'000ull);
    machine.Settle();
    AURAGEN_CHECK(done);

    const Metrics& m = machine.metrics();
    double syncs = static_cast<double>(m.syncs);
    state.counters["syncs"] = syncs;
    state.counters["pages_per_flush"] = static_cast<double>(m.sync_pages_shipped) / syncs;
    state.counters["tighten"] = static_cast<double>(m.sync_adaptive_tighten);
    state.counters["loosen"] = static_cast<double>(m.sync_adaptive_loosen);
    state.SetLabel(adaptive ? "adaptive" : "fixed");
  }
}

BENCHMARK(BM_SyncMode)
    ->Arg(0)->Arg(1)->Arg(2)
    ->Iterations(1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_AdaptiveTrigger)
    ->Arg(0)->Arg(1)
    ->Iterations(1)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace auragen::bench

BENCHMARK_MAIN();
