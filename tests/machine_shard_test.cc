// The full Machine on its one event heap (DESIGN.md §16–17): real boots and
// fault-campaign scenarios must reproduce the trace digests pinned below,
// so "passes" keeps meaning "behaves exactly as the pinned build did".

#include <gtest/gtest.h>

#include "src/fault/campaign.h"
#include "src/machine/machine.h"

namespace auragen {
namespace {

// Pinned reference digests. They were re-pinned once when the windowed
// engine was retired (one heap, no lookahead hops: every frame lost two
// arbitration hops and every disk operation two bus hops), and every later
// build must reproduce them bit for bit. Re-pinning any of them requires a
// stated reason in CHANGES.md: a changed digest means changed behaviour.
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
    {4, 1, {0x15158aea4f1cc3f3ull, 278, 171}},
    {4, 7, {0x15158aea4f1cc3f3ull, 278, 171}},
    {4, 42, {0x15158aea4f1cc3f3ull, 278, 171}},
    {8, 1, {0x11e1c3c538a61ba7ull, 966, 307}},
    {8, 7, {0x11e1c3c538a61ba7ull, 966, 307}},
    {8, 42, {0x11e1c3c538a61ba7ull, 966, 307}},
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
    {1, 0xe18a9a7561530530ull, 1754, 567506},
    {5, 0x00dedbee1e527167ull, 2500, 568756},
    {11, 0x4383c1aee6f04d6cull, 2156, 540006},
    {23, 0xa1a64d498642ab9dull, 2321, 538756},
};
constexpr PinnedScenario kPinnedKv = {1, 0x469db54f930c3201ull, 4747, 527506};
constexpr PinnedScenario kPinnedFile = {3, 0x2668d791afb81e84ull, 3748, 593756};

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

TEST(MachineShardsDeath, EngineThreadShimAcceptsOnlyOne) {
  MachineOptions mo;
  mo.WithEngineThreads(1);
  EXPECT_DEATH(mo.WithEngineThreads(4), "engine threads were removed");
}

}  // namespace
}  // namespace auragen
