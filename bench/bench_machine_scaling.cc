// E12 — full-machine throughput on the ShardPlan layout (DESIGN.md §17):
// events/s of the complete Machine (kernels, servers, bus, disks) and
// campaign seeds/s.
//
//   events_per_s   dispatched simulation events per wall-clock second
//   seeds_per_s    completed campaign scenarios per wall-clock second
//   digest_ok      1 iff this run's trace digest equals the pinned
//                  reference digest of the same configuration
//
// Every row re-checks the determinism oracle and fails on divergence: a
// machine that drifts from the pinned digest is broken, not fast. The
// pinned digests were recorded before the in-machine worker pool was
// removed (it made these rows slower, not faster, at 2 and 4 threads);
// re-pinning one requires a stated reason in CHANGES.md.

#include <benchmark/benchmark.h>

#include <map>

#include "src/fault/campaign.h"
#include "src/machine/machine.h"
#include "src/workload/kv_service.h"

namespace auragen::bench {
namespace {

struct RunResult {
  uint64_t dispatched = 0;
  uint64_t digest_hash = 0;
  uint64_t digest_count = 0;
};

// One serving-shaped machine run: boot, deploy the KV workload sized to the
// topology, run to completion. The digest covers every traced event of the
// run in merge order.
RunResult RunMachine(uint32_t clusters) {
  MachineOptions mo;
  mo.config.topology = Topology::SingleSegment(clusters);
  mo.seed = 1;
  mo.trace.enabled = true;
  mo.trace.unbounded = false;
  mo.trace.ring_capacity = 4096;
  Machine machine(mo);
  machine.Boot();
  workload::KvOptions kv;
  kv.sessions = clusters * 8;
  kv.partitions = clusters / 2;
  kv.requests_per_session = 8;
  kv.seed = 1;
  workload::KvDeployment d = workload::DeployKv(machine, kv);
  machine.RunUntil([&] { return workload::KvClientsDone(machine, d); },
                   600'000'000);
  RunResult r;
  r.dispatched = machine.dispatched();
  r.digest_hash = machine.tracer()->digest().hash;
  r.digest_count = machine.tracer()->digest().count;
  return r;
}

RunResult PinnedMachine(uint32_t clusters) {
  switch (clusters) {
    case 8:
      return RunResult{22424, 0x1dd03ab050b6bb86ull, 15756};
    case 32:
      return RunResult{121233, 0x18525fd6d73072baull, 91652};
    default:
      AURAGEN_PANIC("no pinned digest for this cluster count");
  }
}

void BM_MachineScaling(benchmark::State& state) {
  const uint32_t clusters = static_cast<uint32_t>(state.range(0));
  const RunResult want = PinnedMachine(clusters);

  uint64_t dispatched = 0;
  RunResult got;
  for (auto _ : state) {
    got = RunMachine(clusters);
    dispatched += got.dispatched;
  }

  const bool digest_ok = got.digest_hash == want.digest_hash &&
                         got.digest_count == want.digest_count &&
                         got.dispatched == want.dispatched;
  if (!digest_ok) {
    state.SkipWithError("machine diverged from the pinned digest");
  }
  state.counters["events_per_s"] =
      benchmark::Counter(static_cast<double>(dispatched), benchmark::Counter::kIsRate);
  state.counters["digest_ok"] = digest_ok ? 1 : 0;
}

BENCHMARK(BM_MachineScaling)
    ->ArgName("clusters")
    ->Arg(8)
    ->Arg(32)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

constexpr uint64_t kCampaignFirstSeed = 1;
constexpr uint64_t kCampaignSeeds = 3;

// Campaign throughput: full scenarios (reference + faulted run per seed) at
// 8 clusters, digests compared seed for seed against the pinned ones.
void BM_MachineCampaign(benchmark::State& state) {
  CampaignOptions opt;
  opt.num_clusters = 8;
  opt.check_determinism = false;  // the pinned digests are the replay

  const std::map<uint64_t, TraceDigest> want = {
      {1, TraceDigest{0xbd7a9afdf44456b4ull, 5994, 597515}},
      {2, TraceDigest{0x04c51843f98ab2c0ull, 7290, 572515}},
      {3, TraceDigest{0x55cc17571f744e79ull, 5670, 547510}},
  };
  uint64_t seeds_done = 0;
  bool digest_ok = true;
  for (auto _ : state) {
    RunCampaign(kCampaignFirstSeed, kCampaignSeeds, opt,
                [&](const ScenarioResult& r) {
                  ++seeds_done;
                  digest_ok = digest_ok && r.ok && want.at(r.seed) == r.trace_digest;
                });
  }

  if (!digest_ok) {
    state.SkipWithError("campaign diverged from the pinned digests");
  }
  state.counters["seeds_per_s"] =
      benchmark::Counter(static_cast<double>(seeds_done), benchmark::Counter::kIsRate);
  state.counters["digest_ok"] = digest_ok ? 1 : 0;
}

BENCHMARK(BM_MachineCampaign)->Iterations(1)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace auragen::bench

BENCHMARK_MAIN();
