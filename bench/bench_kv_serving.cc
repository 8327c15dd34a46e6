// E10 — serving-workload SLO bench (DESIGN.md §15): what do checkpointing,
// sync, and failover do to *tail* latency under sustained closed-loop load?
// The microbenches (E1-E9) measure executive overhead per primitive; this
// one measures what a client of the replicated KV service actually observes:
//
//   p50_us / p99_us / p999_us   client-observed request latency (simulated)
//   goodput_rps                 verified completions per simulated second
//
// Three configurations, per the roadmap's serving north star:
//   BM_KvNoFault           incremental sync, no faults — the steady state
//   BM_KvIncrementalAsync  async page shipping — sync off the request path
//   BM_KvMidRunCrash       a cluster crash mid-run — failover tail cost
//
// Every run asserts the no-acked-write-lost invariant (mismatches == 0);
// a bench that loses writes is a broken bench, not a fast one. Simulated
// latency counters are deterministic for a fixed seed, so check_bench.py
// gates p99_us tightly (gated_counters) on top of the wall-clock gate.

#include <benchmark/benchmark.h>

#include "src/machine/machine.h"
#include "src/workload/kv_service.h"
#include "src/workload/slo.h"

namespace auragen::bench {

using namespace auragen::workload;
namespace {

constexpr uint32_t kClusters = 8;
constexpr uint32_t kPartitions = 8;
constexpr uint32_t kRequests = 8;
constexpr SimTime kCrashAtUs = 10'000;  // mid-stream for both bench sizes

SloReport RunServing(uint32_t sessions, SyncMode mode, bool crash) {
  MachineOptions options;
  options.config.topology = Topology::SingleSegment(kClusters);
  options.config.strategy = FtStrategy::kMessageSystem;
  options.config.sync_policy.mode = mode;
  options.seed = 1;
  options.trace.enabled = true;
  options.trace.unbounded = true;
  options.trace.kind_mask = TraceKindBit(TraceEventKind::kRequestMark) |
                            TraceKindBit(TraceEventKind::kCrashDetect) |
                            TraceKindBit(TraceEventKind::kCrashHandled) |
                            TraceKindBit(TraceEventKind::kRecoveryDispatch) |
                            TraceKindBit(TraceEventKind::kTakeover);
  Machine machine(options);
  machine.Boot();

  KvOptions kv;
  kv.sessions = sessions;
  kv.partitions = kPartitions;
  kv.requests_per_session = kRequests;
  kv.seed = 1;
  KvDeployment d = DeployKv(machine, kv);
  if (crash) {
    machine.CrashClusterAt(machine.Now() + kCrashAtUs, /*cluster=*/2);
  }
  const bool done =
      machine.RunUntil([&] { return KvClientsDone(machine, d); }, 2'000'000'000ull);
  machine.Settle();
  SloReport report = BuildSloReport(machine.tracer()->Events(), machine, d, done);
  AURAGEN_CHECK(report.complete);
  AURAGEN_CHECK(report.mismatches == 0);
  return report;
}

void BM_KvServing(benchmark::State& state, SyncMode mode, bool crash) {
  const uint32_t sessions = static_cast<uint32_t>(state.range(0));
  for (auto _ : state) {
    SloReport r = RunServing(sessions, mode, crash);
    state.counters["p50_us"] = static_cast<double>(r.p50_us);
    state.counters["p99_us"] = static_cast<double>(r.p99_us);
    state.counters["p999_us"] = static_cast<double>(r.p999_us);
    state.counters["goodput_rps"] = r.goodput_rps;
    state.counters["retries"] = static_cast<double>(r.retries);
  }
}

void BM_KvNoFault(benchmark::State& s) {
  BM_KvServing(s, SyncMode::kIncremental, /*crash=*/false);
}
void BM_KvIncrementalAsync(benchmark::State& s) {
  BM_KvServing(s, SyncMode::kIncrementalAsync, /*crash=*/false);
}
void BM_KvMidRunCrash(benchmark::State& s) {
  BM_KvServing(s, SyncMode::kIncremental, /*crash=*/true);
}

BENCHMARK(BM_KvNoFault)->Arg(64)->Arg(256)
    ->Iterations(1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_KvIncrementalAsync)->Arg(64)->Arg(256)
    ->Iterations(1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_KvMidRunCrash)->Arg(64)->Arg(256)
    ->Iterations(1)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace auragen::bench

BENCHMARK_MAIN();
