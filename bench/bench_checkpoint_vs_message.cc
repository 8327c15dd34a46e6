// E2 — §2: explicit checkpointing "slows down the primary process and uses
// up a large portion of the added computing power", which the message-based
// strategy replaces with cheap asynchronous syncs.
//
// A stateful worker (reads a tick per round, touches `pages` pages per
// round) runs to completion under four strategies. Reported:
//   sim_ms           simulated completion time (primary slowdown)
//   stall_ms         time the primary stood still for FT bookkeeping
//   shipped_kb       state bytes pushed for backup maintenance
//   slowdown_vs_none completion time normalized to the no-FT run
//
// Expected shape: msgsys within a few percent of none; checkpoint-full far
// slower and growing with state size; incremental in between.

#include <benchmark/benchmark.h>

#include "src/machine/machine.h"
#include "src/workload/guest_programs.h"

namespace auragen::bench {

using namespace auragen::workload;
namespace {

double BaselineSimMs(int pages) {
  static std::map<int, double> cache;
  auto it = cache.find(pages);
  if (it != cache.end()) {
    return it->second;
  }
  MachineOptions options;
  options.config.topology = Topology::SingleSegment(2);
  options.config.strategy = FtStrategy::kNone;
  Machine machine(options);
  machine.Boot();
    SimTime workload_start = machine.Now();
  Machine::UserSpawnOptions w;
  w.backup_cluster = 0;
  machine.SpawnUserProgram(1, StatefulWorker("w", 40, 3000, pages), w);
  machine.SpawnUserProgram(0, Feeder("w", 40, 50), Machine::UserSpawnOptions{});
  AURAGEN_CHECK(machine.RunUntilAllExited(3'000'000'000ull));
  double ms = static_cast<double>(machine.Now() - workload_start) / 1000.0;
  cache[pages] = ms;
  return ms;
}

void RunStrategy(benchmark::State& state, FtStrategy strategy) {
  const int pages = static_cast<int>(state.range(0));
  for (auto _ : state) {
    MachineOptions options;
    options.config.topology = Topology::SingleSegment(2);
    options.config.strategy = strategy;
    // Equalize trigger cadence across strategies: every 8 reads.
    options.config.sync_reads_limit = 8;
    Machine machine(options);
    machine.Boot();
    SimTime workload_start = machine.Now();
    Machine::UserSpawnOptions w;
    w.backup_cluster = 0;
    machine.SpawnUserProgram(1, StatefulWorker("w", 40, 3000, pages), w);
    machine.SpawnUserProgram(0, Feeder("w", 40, 50), Machine::UserSpawnOptions{});
    bool done = machine.RunUntilAllExited(3'000'000'000ull);
    SimTime done_at = machine.Now();
    machine.Settle();
    AURAGEN_CHECK(done) << "worker stalled";

    const Metrics& m = machine.metrics();
    double sim_ms = static_cast<double>(done_at - workload_start) / 1000.0;
    state.counters["sim_ms"] = sim_ms;
    state.counters["stall_ms"] =
        static_cast<double>(m.sync_primary_stall_us + m.checkpoint_stall_us) / 1000.0;
    state.counters["shipped_kb"] =
        static_cast<double>(m.sync_bytes_shipped + m.checkpoint_bytes) / 1024.0;
    state.counters["slowdown_vs_none"] = sim_ms / BaselineSimMs(pages);
  }
}

void BM_MessageSystem(benchmark::State& s) { RunStrategy(s, FtStrategy::kMessageSystem); }
void BM_CheckpointFull(benchmark::State& s) { RunStrategy(s, FtStrategy::kCheckpointFull); }
void BM_CheckpointIncr(benchmark::State& s) {
  RunStrategy(s, FtStrategy::kCheckpointIncremental);
}
void BM_NoFt(benchmark::State& s) { RunStrategy(s, FtStrategy::kNone); }

#define SWEEP ->Arg(2)->Arg(16)->Arg(64)->Iterations(1)->Unit(benchmark::kMillisecond)
BENCHMARK(BM_MessageSystem) SWEEP;
BENCHMARK(BM_CheckpointFull) SWEEP;
BENCHMARK(BM_CheckpointIncr) SWEEP;
BENCHMARK(BM_NoFt) SWEEP;

}  // namespace
}  // namespace auragen::bench

BENCHMARK_MAIN();
