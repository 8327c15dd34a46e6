// E9 — §3.2 + Fig. §7.1: "The system should ... maximize the productive use
// of hardware during normal execution. A solution which requires the
// dedication of substantial system resources solely for the support of
// fault tolerance is therefore unacceptable."
//
// A fixed batch of compute jobs is spread across the clusters under three
// regimes: inactive backups (the paper), lockstep active replication (the
// §2 Stratus-style baseline: every job runs twice), and no FT. Reported:
//   jobs_done_per_sim_s   useful completions per simulated second
//   sim_ms                batch completion time
//   capacity_vs_none      throughput normalized to the no-FT run
//
// Expected shape: msgsys ≈ none (duplicate hardware runs *other* primaries);
// lockstep ≈ half of none (duplicate hardware re-runs the same work).

#include <benchmark/benchmark.h>

#include "src/machine/machine.h"
#include "src/workload/guest_programs.h"
#include "src/baselines/lockstep.h"

namespace auragen::bench {

using namespace auragen::workload;
namespace {

constexpr int kJobsPerCluster = 6;
constexpr int kJobSpin = 40'000;

double RunBatch(uint32_t clusters, FtStrategy strategy, bool lockstep) {
  MachineOptions options;
  options.config.topology = Topology::SingleSegment(clusters);
  options.config.strategy = strategy;
  Machine machine(options);
  machine.Boot();
    SimTime workload_start = machine.Now();
  const int jobs = static_cast<int>(clusters) * kJobsPerCluster;
  std::vector<LockstepPair> pairs;
  for (int i = 0; i < jobs; ++i) {
    ClusterId c = static_cast<ClusterId>(i % clusters);
    if (lockstep) {
      pairs.push_back(SpawnLockstep(machine, c, (c + 1) % clusters,
                                    ComputeJob(kJobSpin), Machine::UserSpawnOptions{}));
    } else {
      Machine::UserSpawnOptions o;
      o.backup_cluster = (c + 1) % clusters;
      machine.SpawnUserProgram(c, ComputeJob(kJobSpin), o);
    }
  }
  bool done = machine.RunUntilAllExited(3'000'000'000ull);
  AURAGEN_CHECK(done);
  double sim_s = static_cast<double>(machine.Now() - workload_start) / 1e6;
  return jobs / sim_s;  // useful completions per simulated second
}

void BM_Capacity(benchmark::State& state, FtStrategy strategy, bool lockstep) {
  const uint32_t clusters = static_cast<uint32_t>(state.range(0));
  for (auto _ : state) {
    double rate = RunBatch(clusters, strategy, lockstep);
    double none_rate = RunBatch(clusters, FtStrategy::kNone, false);
    state.counters["jobs_per_sim_s"] = rate;
    state.counters["capacity_vs_none"] = rate / none_rate;
  }
}

void BM_InactiveBackups(benchmark::State& s) {
  BM_Capacity(s, FtStrategy::kMessageSystem, false);
}
void BM_Lockstep(benchmark::State& s) { BM_Capacity(s, FtStrategy::kNone, true); }
void BM_NoFt(benchmark::State& s) { BM_Capacity(s, FtStrategy::kNone, false); }

BENCHMARK(BM_InactiveBackups)->Arg(2)->Arg(4)->Arg(8)
    ->Iterations(1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Lockstep)->Arg(2)->Arg(4)->Arg(8)
    ->Iterations(1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_NoFt)->Arg(2)->Arg(4)->Arg(8)
    ->Iterations(1)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace auragen::bench

BENCHMARK_MAIN();
