// The full Machine on the ShardPlan layout (DESIGN.md §17): real boots and
// fault-campaign scenarios must reproduce the trace digests pinned below,
// so "passes" keeps meaning "behaves exactly as the pinned build did".

#include <gtest/gtest.h>

#include "src/fault/campaign.h"
#include "src/machine/machine.h"

namespace auragen {
namespace {

// Pinned reference digests. They were recorded from the build that still
// had the in-machine worker pool, and every later build must reproduce them
// bit for bit. Re-pinning any of them requires a stated reason in
// CHANGES.md: a changed digest means changed behaviour.
struct PinnedRun {
  uint64_t hash;
  uint64_t count;
  uint64_t dispatched;
};

struct PinnedBoot {
  uint32_t clusters;
  uint64_t seed;
  PinnedRun want;
};

// Boot + 50ms of idle running. The boot path draws no randomness, so the
// digest depends on the cluster count only.
constexpr PinnedBoot kPinnedBoots[] = {
    {4, 1, {0x18631ea8e0834220ull, 278, 433}},
    {4, 7, {0x18631ea8e0834220ull, 278, 433}},
    {4, 42, {0x18631ea8e0834220ull, 278, 433}},
    {8, 1, {0x6b75cb06e8501c86ull, 966, 1257}},
    {8, 7, {0x6b75cb06e8501c86ull, 966, 1257}},
    {8, 42, {0x6b75cb06e8501c86ull, 966, 1257}},
};

struct PinnedScenario {
  uint64_t seed;
  uint64_t hash;
  uint64_t count;
  SimTime last_ts;
};

// Faulted-run digests (ScenarioResult::trace_digest) of one or more seeds
// per campaign family at the default 4 clusters.
constexpr PinnedScenario kPinnedPairs[] = {
    {1, 0x141460d4f4931787ull, 1754, 567510},
    {5, 0x450898719434b43cull, 2495, 568760},
    {11, 0x97a65493b1507075ull, 2156, 540010},
    {23, 0x125209bd8a9d66acull, 2321, 538760},
};
constexpr PinnedScenario kPinnedKv = {1, 0x19387dd68d1dd063ull, 4742, 527510};
constexpr PinnedScenario kPinnedFile = {3, 0x842b7d004c46a275ull, 3710, 588760};

PinnedRun BootAndRun(uint32_t clusters, uint64_t seed) {
  MachineOptions mo;
  mo.config.topology = Topology::SingleSegment(clusters);
  mo.seed = seed;
  mo.trace.enabled = true;
  mo.trace.unbounded = false;
  mo.trace.ring_capacity = 4096;
  Machine machine(mo);
  machine.Boot();
  machine.Run(50'000);
  return PinnedRun{machine.tracer()->digest().hash, machine.tracer()->digest().count,
                   machine.dispatched()};
}

void ExpectPinned(const ScenarioResult& got, const PinnedScenario& want, const char* family) {
  EXPECT_TRUE(got.ok) << family << " seed " << want.seed << ": " << got.failure;
  EXPECT_EQ(got.trace_digest.hash, want.hash) << family << " seed " << want.seed;
  EXPECT_EQ(got.trace_digest.count, want.count) << family << " seed " << want.seed;
  EXPECT_EQ(got.trace_digest.last_ts, want.last_ts) << family << " seed " << want.seed;
}

TEST(MachineShards, BootDigestsMatchPinned) {
  for (const PinnedBoot& p : kPinnedBoots) {
    const PinnedRun got = BootAndRun(p.clusters, p.seed);
    EXPECT_EQ(got.hash, p.want.hash) << "clusters=" << p.clusters << " seed=" << p.seed;
    EXPECT_EQ(got.count, p.want.count) << "clusters=" << p.clusters << " seed=" << p.seed;
    EXPECT_EQ(got.dispatched, p.want.dispatched)
        << "clusters=" << p.clusters << " seed=" << p.seed;
  }
}

TEST(MachineShards, CampaignFamiliesMatchPinned) {
  // End-to-end: full campaign scenarios (seeded workload + seeded fault
  // plan, reference/faulted runs, every invariant). The faulted run's trace
  // digest is the behaviour oracle; ok-ness checks everything else.
  CampaignOptions opt;
  opt.check_determinism = false;  // the pinned digest is the replay
  for (const PinnedScenario& p : kPinnedPairs) {
    ExpectPinned(RunScenario(p.seed, opt), p, "pairs");
  }
  CampaignOptions kv = opt;
  kv.kv_workload = true;
  ExpectPinned(RunKvScenario(kPinnedKv.seed, kv), kPinnedKv, "kv");
  CampaignOptions file = opt;
  file.file_workload = true;
  ExpectPinned(RunFileScenario(kPinnedFile.seed, file), kPinnedFile, "file");
}

TEST(MachineShards, ShardPlanDescribesTheLayout) {
  MachineOptions mo;
  mo.config.topology = Topology::SingleSegment(4);
  Machine machine(mo);
  EXPECT_EQ(machine.shard_plan().num_shards, 5u);
  EXPECT_EQ(machine.shard_plan().shard_of_cluster(2), 3u);
  EXPECT_EQ(machine.shard_plan().shared_shard(), kSharedShard);
}

TEST(MachineShardsDeath, EngineThreadShimAcceptsOnlyOne) {
  MachineOptions mo;
  mo.WithEngineThreads(1);
  EXPECT_DEATH(mo.WithEngineThreads(4), "engine threads were removed");
}

}  // namespace
}  // namespace auragen
