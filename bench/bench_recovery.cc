// E4 — §4/§8.4: recovery is rollforward from the last sync; the sync
// interval trades normal-execution overhead against recovery latency —
// "periodic synchronization ... limits the amount of recomputation required
// for the backup to catch up" (§11).
//
// Sweep the sync interval (reads trigger). A digit worker is crashed at a
// fixed instant. Reported:
//   syncs             syncs before the crash (overhead side of the trade)
//   replayed_msgs     saved messages replayed at takeover (recomputation)
//   recovery_ms       crash instant -> worker completion, minus the
//                     failure-free remainder (pure recovery cost)
//   overhead_pct      failure-free slowdown vs no-FT

#include <benchmark/benchmark.h>

#include "src/machine/machine.h"
#include "src/workload/guest_programs.h"

namespace auragen::bench {

using namespace auragen::workload;
namespace {

constexpr int kRounds = 24;
constexpr int kSpin = 3000;
constexpr SimTime kCrashAt = 60'000;

struct RunResult {
  double sim_ms = 0;
  double replayed = 0;
  double syncs = 0;
  bool ok = false;
};

RunResult RunWorker(uint32_t reads_limit, bool crash, FtStrategy strategy) {
  MachineOptions options;
  options.config.topology = Topology::SingleSegment(2);
  options.config.strategy = strategy;
  options.config.sync_reads_limit = reads_limit;
  options.config.sync_time_limit_us = 3'000'000'000ull;  // reads trigger only
  Machine machine(options);
  machine.Boot();
    SimTime workload_start = machine.Now();
  Machine::UserSpawnOptions w;
  w.backup_cluster = 0;
  machine.SpawnUserProgram(1, StatefulWorker("w", kRounds, kSpin, 2), w);
  machine.SpawnUserProgram(0, Feeder("w", kRounds, 400), Machine::UserSpawnOptions{});
  if (crash) {
    machine.CrashClusterAt(machine.Now() + kCrashAt, 1);
  }
  RunResult r;
  r.ok = machine.RunUntilAllExited(3'000'000'000ull);
  r.sim_ms = static_cast<double>(machine.Now() - workload_start) / 1000.0;
  machine.Settle();
  r.replayed = static_cast<double>(machine.metrics().rollforward_msgs_replayed);
  r.syncs = static_cast<double>(machine.metrics().syncs);
  return r;
}

void BM_RecoveryVsSyncInterval(benchmark::State& state) {
  const uint32_t limit = static_cast<uint32_t>(state.range(0));
  for (auto _ : state) {
    RunResult clean = RunWorker(limit, /*crash=*/false, FtStrategy::kMessageSystem);
    RunResult crashed = RunWorker(limit, /*crash=*/true, FtStrategy::kMessageSystem);
    RunResult no_ft = RunWorker(limit, /*crash=*/false, FtStrategy::kNone);
    AURAGEN_CHECK(clean.ok && crashed.ok && no_ft.ok);
    state.counters["syncs"] = clean.syncs;
    state.counters["replayed_msgs"] = crashed.replayed;
    state.counters["recovery_ms"] = crashed.sim_ms - clean.sim_ms;
    state.counters["overhead_pct"] = 100.0 * (clean.sim_ms - no_ft.sim_ms) / no_ft.sim_ms;
  }
}

// The §8.3 forced-sync ablation: how much extra sync traffic asynchronous
// signals cause at various alarm rates.
void BM_ForcedSignalSyncs(benchmark::State& state) {
  const uint64_t alarm_period_us = static_cast<uint64_t>(state.range(0));
  for (auto _ : state) {
    MachineOptions options;
    options.config.topology = Topology::SingleSegment(2);
    Machine machine(options);
    machine.Boot();
    SimTime workload_start = machine.Now();
    // Worker re-arms an alarm in its handler, forcing a sync per delivery.
    Executable prog = MustAssemble(R"(
start:
    li r1, handler
    sys sigset
    li r1, )" + std::to_string(alarm_period_us) + R"(
    sys alarm
    li r8, 0
loop:
    addi r8, r8, 1
    li r9, 400000
    blt r8, r9, loop
    exit 0
handler:
    li r1, )" + std::to_string(alarm_period_us) + R"(
    sys alarm
    sys sigret
)");
    Machine::UserSpawnOptions w;
    w.backup_cluster = 0;
    machine.SpawnUserProgram(1, prog, w);
    bool done = machine.RunUntilAllExited(3'000'000'000ull);
    SimTime done_at = machine.Now();
    machine.Settle();
    AURAGEN_CHECK(done);
    const Metrics& m = machine.metrics();
    state.counters["forced_syncs"] = static_cast<double>(m.forced_signal_syncs);
    state.counters["total_syncs"] = static_cast<double>(m.syncs);
    state.counters["sim_ms"] = static_cast<double>(done_at - workload_start) / 1000.0;
  }
}

BENCHMARK(BM_RecoveryVsSyncInterval)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(16)
    ->Iterations(1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ForcedSignalSyncs)
    ->Arg(5'000)->Arg(20'000)->Arg(80'000)
    ->Iterations(1)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace auragen::bench

BENCHMARK_MAIN();
