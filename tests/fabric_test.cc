// The segmented intercluster fabric (src/bus/fabric.h): hierarchical
// routing, the §5.1 atomicity guarantees across segment boundaries, switch
// hold-and-drain semantics, the single-segment bit-identity promise, and
// pinned campaign digests per topology.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/avm/assembler.h"
#include "src/bus/fabric.h"
#include "src/bus/topology.h"
#include "src/fault/campaign.h"
#include "src/machine/machine.h"
#include "src/sim/engine.h"

namespace auragen {
namespace {

struct Recorder : BusEndpoint {
  std::vector<Frame> frames;
  void OnFrame(const Frame& frame) override { frames.push_back(frame); }
};

// Two segments of two clusters each: 0,1 | 2,3.
struct FabricFixture {
  Engine engine{Engine::kNoLogClock};
  Topology topo = Topology::Uniform(2, 2);
  Fabric fabric{engine, topo};
  Recorder endpoints[4];

  FabricFixture() {
    for (ClusterId c = 0; c < 4; ++c) {
      fabric.AttachEndpoint(c, &endpoints[c]);
    }
  }
};

TEST(Fabric, SameSegmentTrafficNeverCrossesTheTrunk) {
  FabricFixture f;
  f.fabric.Transmit(0, MaskOf(1), Bytes{9});
  f.engine.Run();
  ASSERT_EQ(f.endpoints[1].frames.size(), 1u);
  EXPECT_EQ(f.fabric.trunk_forwards(), 0u);
  EXPECT_EQ(f.fabric.switch_stats(0).forwarded, 0u);
}

TEST(Fabric, CrossSegmentMulticastReachesEveryTargetOnce) {
  FabricFixture f;
  f.fabric.Transmit(0, MaskOf(1) | MaskOf(2) | MaskOf(3), Bytes{42});
  f.engine.Run();
  // All-or-none across the boundary: the local target and both remote
  // targets each see the frame exactly once; the source does not.
  EXPECT_TRUE(f.endpoints[0].frames.empty());
  ASSERT_EQ(f.endpoints[1].frames.size(), 1u);
  ASSERT_EQ(f.endpoints[2].frames.size(), 1u);
  ASSERT_EQ(f.endpoints[3].frames.size(), 1u);
  EXPECT_EQ(*f.endpoints[2].frames[0].payload, Bytes{42});
  // The whole frame crossed the trunk once and came back as one copy per
  // target segment (origin's local target included).
  EXPECT_EQ(f.fabric.switch_stats(0).forwarded, 1u);
  EXPECT_EQ(f.fabric.trunk_forwards(), 2u);
  EXPECT_EQ(f.fabric.switch_stats(1).injected, 1u);
}

// §5.1 guarantee 2 across segments: any two clusters that are targets of
// two frames see those frames in the same relative order, regardless of
// which segments the senders sat in.
void ExpectPairwiseConsistentOrder(const Recorder* endpoints, uint32_t n) {
  for (ClusterId a = 0; a < n; ++a) {
    for (ClusterId b = a + 1; b < n; ++b) {
      std::vector<uint64_t> at_a, at_b;  // frames common to both, by payload tag
      for (const Frame& fr : endpoints[a].frames) {
        if (MaskHas(fr.targets, b)) {
          at_a.push_back((*fr.payload)[0]);
        }
      }
      for (const Frame& fr : endpoints[b].frames) {
        if (MaskHas(fr.targets, a)) {
          at_b.push_back((*fr.payload)[0]);
        }
      }
      EXPECT_EQ(at_a, at_b) << "clusters " << a << " and " << b
                            << " disagree on their common delivery order";
    }
  }
}

TEST(Fabric, CrossSegmentOrderConsistentAtCommonDestinations) {
  FabricFixture f;
  // Senders in both segments, every frame targeting destinations in both
  // segments — the shape that breaks a naive deliver-locally-and-forward
  // fabric (order could invert between segments).
  for (uint8_t i = 0; i < 24; ++i) {
    const ClusterId src = i % 4;
    const ClusterMask all = MaskOfRange(0, 4) & ~MaskOf(src);
    f.fabric.Transmit(src, all, Bytes{i});
  }
  f.engine.Run();
  for (ClusterId c = 0; c < 4; ++c) {
    EXPECT_EQ(f.endpoints[c].frames.size(), 18u);  // 24 frames, src excluded
  }
  ExpectPairwiseConsistentOrder(f.endpoints, 4);
}

TEST(Fabric, OrderSurvivesSeededLineAndSwitchFailures) {
  FabricFixture f;
  Rng rng(7);
  // One frame every 3us. Line and switch faults land with the frames as
  // scheduled events (the way a running machine injects them), so frames
  // are on the lines and at the switches when the faults hit.
  uint64_t expected = 0;
  for (uint8_t i = 0; i < 40; ++i) {
    const ClusterId src = static_cast<ClusterId>(rng.Below(4));
    ClusterMask targets;
    for (ClusterId c = 0; c < 4; ++c) {
      if (c != src && rng.Chance(0.6)) {
        targets |= MaskOf(c);
      }
    }
    if (!targets.any()) {
      targets = MaskOf((src + 1) % 4);
    }
    expected += targets.count();
    f.engine.ScheduleAt(3 * i, [&f, i, src, targets] {
      f.fabric.Transmit(src, targets, Bytes{i});
      switch (i) {
        case 10:
          f.fabric.FailLine(0);
          break;
        case 18:
          f.fabric.FailSwitch(1);
          break;
        case 26:
          f.fabric.RestoreSwitch(1);
          break;
        case 30:
          f.fabric.RestoreLine(0);
          break;
        default:
          break;
      }
    });
  }
  f.engine.Run();
  uint64_t total = 0;
  for (const Recorder& r : f.endpoints) {
    total += r.frames.size();
  }
  BusStats stats = f.fabric.stats();
  EXPECT_EQ(total, stats.deliveries);  // nothing dropped, nothing duplicated
  EXPECT_EQ(total, expected);          // every target got its frame
  EXPECT_GT(stats.failovers, 0u);      // the line fault hit traffic
  ExpectPairwiseConsistentOrder(f.endpoints, 4);
}

TEST(Fabric, FailedSwitchHoldsThenDrainsFifo) {
  FabricFixture f;
  f.fabric.FailSwitch(0);
  EXPECT_FALSE(f.fabric.SwitchOk(0));
  f.fabric.Transmit(0, MaskOf(2), Bytes{1});
  f.fabric.Transmit(1, MaskOf(3), Bytes{2});
  f.fabric.Transmit(2, MaskOf(0), Bytes{3});  // inbound: holds at the trunk
  f.engine.Run();
  EXPECT_TRUE(f.endpoints[2].frames.empty());
  EXPECT_TRUE(f.endpoints[3].frames.empty());
  EXPECT_TRUE(f.endpoints[0].frames.empty());
  EXPECT_EQ(f.fabric.switch_stats(0).held, 2u);

  f.fabric.RestoreSwitch(0);
  f.engine.Run();
  ASSERT_EQ(f.endpoints[2].frames.size(), 1u);
  ASSERT_EQ(f.endpoints[3].frames.size(), 1u);
  ASSERT_EQ(f.endpoints[0].frames.size(), 1u);
  EXPECT_EQ(*f.endpoints[0].frames[0].payload, Bytes{3});
  // Egress order preserved through the hold.
  EXPECT_EQ(*f.endpoints[2].frames[0].payload, Bytes{1});
  EXPECT_EQ(*f.endpoints[3].frames[0].payload, Bytes{2});
}

TEST(Fabric, StatsAddCountersAndKeepTheLongestFrame) {
  FabricFixture f;
  f.fabric.Transmit(0, MaskOf(1), Bytes(64, 0));    // segment 0 only
  f.fabric.Transmit(2, MaskOf(3), Bytes(1000, 0));  // segment 1 only
  f.engine.Run();
  const BusStats stats = f.fabric.stats();
  EXPECT_EQ(stats.frames_sent, 2u);
  EXPECT_EQ(stats.max_frame_bytes, 1000 + Frame::kHeaderBytes);
  EXPECT_EQ(stats.max_frame_us, f.fabric.segment_stats(1).max_frame_us);
  EXPECT_GT(stats.max_frame_us, f.fabric.segment_stats(0).max_frame_us);
}

TEST(Fabric, DetachedClusterSkippedOthersStillDelivered) {
  FabricFixture f;
  f.fabric.DetachEndpoint(3);
  f.fabric.Transmit(0, MaskOf(2) | MaskOf(3), Bytes{5});
  f.engine.Run();
  ASSERT_EQ(f.endpoints[2].frames.size(), 1u);
  EXPECT_TRUE(f.endpoints[3].frames.empty());
}

// ------------------------------------------------------------ machine level

// A crash notice (a frame with `fence` set) cuts its accused off at the
// bus: frames the accused sends after the notice reach no cluster, in its
// own segment or across the trunk, while everyone else's traffic flows. A
// frame it sent before the notice is delivered everywhere. Re-attaching
// (restart) lifts the fence at once: the restarted cluster's first frames
// are delivered before it has sent any heartbeat.
TEST(Fabric, CrashNoticeFencesTheAccusedUntilItReattaches) {
  FabricFixture f;
  const ClusterMask all = MaskOfRange(0, 4);
  auto tags_at = [&](ClusterId c) {
    std::vector<uint8_t> tags;
    for (const Frame& fr : f.endpoints[c].frames) {
      tags.push_back((*fr.payload)[0]);
    }
    return tags;
  };
  f.fabric.Transmit(2, all, Bytes{1});
  f.engine.Run();
  f.fabric.Transmit(0, all, Bytes{2}, /*urgent=*/false, /*fence=*/2);
  f.engine.Run();
  f.fabric.Transmit(2, all, Bytes{3});
  f.fabric.Transmit(2, MaskOf(3), Bytes{4}, /*urgent=*/true);
  f.fabric.Transmit(1, all, Bytes{5});
  f.engine.Run();
  for (ClusterId c = 0; c < 4; ++c) {
    EXPECT_EQ(tags_at(c), (std::vector<uint8_t>{1, 2, 5})) << "cluster " << c;
  }
  f.fabric.AttachEndpoint(2, &f.endpoints[2]);
  f.fabric.Transmit(2, MaskOf(3), Bytes{6});
  f.fabric.Transmit(2, MaskOf(0), Bytes{7});
  f.engine.Run();
  EXPECT_EQ(tags_at(3), (std::vector<uint8_t>{1, 2, 5, 6}));
  EXPECT_EQ(tags_at(0), (std::vector<uint8_t>{1, 2, 5, 7}));
}

TEST(Fabric, PlacementRejectsBackupInOtherSegment) {
  MachineOptions options;
  options.WithTopology(Topology::Uniform(2, 2));
  options.placement.file = ClusterPair{0, 2};       // segments 0 and 1
  options.placement.file_disk = ClusterPair{0, 2};
  Machine machine(options);
  EXPECT_DEATH(machine.Boot(), "different fabric segments|span fabric segments");
}

// The campaign exercises boot, servers, user workloads and faults on the
// given fabric. Its faulted-run digest must equal the one pinned here,
// re-pinned once when the windowed engine was retired (no lookahead hops);
// re-pinning one requires a stated reason in CHANGES.md.
TEST(Fabric, CampaignDigestsMatchPinned) {
  const struct {
    uint32_t clusters;
    uint32_t segments;
    uint64_t hash;
    uint64_t count;
    SimTime last_ts;
  } pinned[] = {
      {4, 2, 0x23caa8347ebfef82ull, 4724, 540019},
      {8, 4, 0x44f6bed68cda517bull, 15505, 540024},
  };
  const uint64_t seed = 11;
  for (const auto& p : pinned) {
    CampaignOptions opt;
    opt.num_clusters = p.clusters;
    opt.num_segments = p.segments;
    opt.check_determinism = false;  // the pinned digest is the replay
    ScenarioResult r = RunScenario(seed, opt);
    EXPECT_TRUE(r.ok) << p.segments << " segments: " << r.failure;
    EXPECT_EQ(r.trace_digest.hash, p.hash) << p.segments << " segments";
    EXPECT_EQ(r.trace_digest.count, p.count) << p.segments << " segments";
    EXPECT_EQ(r.trace_digest.last_ts, p.last_ts) << p.segments << " segments";
  }
}

TEST(Fabric, SegmentPartitionScenarioSurvives) {
  CampaignOptions opt;
  opt.num_segments = 2;
  // Find the first seeds whose plan is the segment-partition scenario; run
  // them end to end (reference, faulted, determinism replay).
  uint32_t run = 0;
  for (uint64_t seed = 1; seed <= 120 && run < 2; ++seed) {
    FaultPlan plan = MakeScenarioPlan(seed, opt);
    if (plan.scenario != ScenarioKind::kSegmentPartition) {
      continue;
    }
    ++run;
    ScenarioResult r = RunScenario(seed, opt);
    EXPECT_TRUE(r.ok) << "seed " << seed << ": " << r.failure;
  }
  EXPECT_GE(run, 1u) << "no segment-partition plan in seeds 1..120";
}

// Ping writes `rounds` words to a named channel; pong echoes each back.
// Placed in different segments, every round trip crosses the trunk twice.
Executable Ping(int index, int rounds) {
  return MustAssemble(R"(
start:
    li r1, name
    li r2, 6
    sys open
    mov r10, r0
    li r8, 0
loop:
    li r11, buf
    st r8, r11, 0
    mov r1, r10
    li r2, buf
    li r3, 4
    sys write
    mov r1, r10
    li r2, buf
    li r3, 4
    sys read
    addi r8, r8, 1
    li r12, )" + std::to_string(rounds) + R"(
    blt r8, r12, loop
    exit 0
.data
name: .ascii "ch:s)" + std::to_string(index) + R"("
buf: .word 0
)");
}

Executable Pong(int index, int rounds) {
  return MustAssemble(R"(
start:
    li r1, name
    li r2, 6
    sys open
    mov r10, r0
    li r8, 0
loop:
    mov r1, r10
    li r2, buf
    li r3, 4
    sys read
    mov r1, r10
    li r2, buf
    li r3, 4
    sys write
    addi r8, r8, 1
    li r12, )" + std::to_string(rounds) + R"(
    blt r8, r12, loop
    exit 0
.data
name: .ascii "ch:s)" + std::to_string(index) + R"("
buf: .word 0
)");
}

TEST(Fabric, FourSegment64ClusterMachineBootsAndServes) {
  MachineOptions options;
  options.WithTopology(Topology::Uniform(4, 16));
  ASSERT_EQ(options.config.topology.num_clusters(), 64u);
  Machine machine(options);
  machine.Boot();
  EXPECT_EQ(machine.bus().num_segments(), 4u);

  // A cross-segment ping/pong pair per segment boundary: the channel
  // fabrication, data frames, and exit records all ride the trunk.
  std::vector<Gpid> pids;
  for (uint32_t i = 0; i < 4; ++i) {
    const ClusterId ping_home = static_cast<ClusterId>(16 * i + 2);
    const ClusterId pong_home = static_cast<ClusterId>((16 * (i + 1) + 5) % 64);
    Machine::UserSpawnOptions popts;
    popts.backup_cluster = static_cast<ClusterId>(16 * i + 3);
    Machine::UserSpawnOptions qopts;
    qopts.backup_cluster = static_cast<ClusterId>((16 * (i + 1) + 6) % 64);
    pids.push_back(
        machine.SpawnUserProgram(ping_home, Ping(static_cast<int>(i), 4), popts));
    pids.push_back(
        machine.SpawnUserProgram(pong_home, Pong(static_cast<int>(i), 4), qopts));
  }
  EXPECT_TRUE(machine.RunUntilAllExited(120'000'000));
  machine.Settle();
  for (Gpid pid : pids) {
    ASSERT_TRUE(machine.HasExited(pid));
    EXPECT_EQ(machine.ExitStatus(pid), 0);
  }
  EXPECT_GT(machine.bus().trunk_forwards(), 0u);
}

}  // namespace
}  // namespace auragen
