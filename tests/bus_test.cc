// Unit tests for the intercluster bus: the §5.1 atomicity guarantees, the
// serialization property, dual-line failover, and the deliberate-violation
// hooks used by the negative recovery tests. The bus runs on one Engine, as
// in the machine: a frame is accepted when sent, and every target receives
// it when its transmission completes.

#include <gtest/gtest.h>

#include <vector>

#include "src/bus/intercluster_bus.h"
#include "src/bus/topology.h"
#include "src/sim/engine.h"

namespace auragen {
namespace {

struct Recorder : BusEndpoint {
  std::vector<Frame> frames;
  Engine* engine = nullptr;
  std::vector<SimTime> times;
  void OnFrame(const Frame& frame) override {
    frames.push_back(frame);
    if (engine != nullptr) {
      times.push_back(engine->Now());
    }
  }
};

struct BusFixture {
  Engine engine{Engine::kNoLogClock};
  BusConfig config;
  InterclusterBus bus{engine, config, 4};
  Recorder endpoints[4];

  BusFixture() {
    for (ClusterId c = 0; c < 4; ++c) {
      endpoints[c].engine = &engine;
      bus.AttachEndpoint(c, &endpoints[c]);
    }
  }
};

TEST(Bus, MulticastReachesExactlyTheTargets) {
  BusFixture f;
  f.bus.Transmit(0, MaskOf(1) | MaskOf(3), Bytes{42});
  f.engine.Run();
  EXPECT_TRUE(f.endpoints[0].frames.empty());
  ASSERT_EQ(f.endpoints[1].frames.size(), 1u);
  EXPECT_TRUE(f.endpoints[2].frames.empty());
  ASSERT_EQ(f.endpoints[3].frames.size(), 1u);
  EXPECT_EQ(*f.endpoints[1].frames[0].payload, Bytes{42});
  EXPECT_EQ(f.bus.stats().frames_sent, 1u);
  EXPECT_EQ(f.bus.stats().deliveries, 2u);
}

TEST(Bus, SelfDeliveryAfterTransmission) {
  BusFixture f;
  f.bus.Transmit(2, MaskOf(2), Bytes{7});
  f.engine.Run();
  ASSERT_EQ(f.endpoints[2].frames.size(), 1u);
  EXPECT_GT(f.engine.Now(), 0u);  // delivery cost simulated time
}

TEST(Bus, NoInterleaving) {
  // §5.1 guarantee 2: if A is accepted before B, A lands everywhere before
  // B lands anywhere. All four endpoints must see the same total order.
  BusFixture f;
  for (uint8_t i = 0; i < 10; ++i) {
    f.bus.Transmit(i % 4, MaskOf(0) | MaskOf(1) | MaskOf(2) | MaskOf(3), Bytes{i});
  }
  f.engine.Run();
  for (ClusterId c = 0; c < 4; ++c) {
    ASSERT_EQ(f.endpoints[c].frames.size(), 10u);
    for (uint8_t i = 0; i < 10; ++i) {
      EXPECT_EQ((*f.endpoints[c].frames[i].payload)[0], i) << "cluster " << c;
    }
  }
}

TEST(Bus, AllDestinationsSameInstant) {
  BusFixture f;
  f.bus.Transmit(0, MaskOf(1) | MaskOf(2) | MaskOf(3), Bytes{1});
  f.engine.Run();
  ASSERT_EQ(f.endpoints[1].times.size(), 1u);
  EXPECT_EQ(f.endpoints[1].times[0], f.endpoints[2].times[0]);
  EXPECT_EQ(f.endpoints[2].times[0], f.endpoints[3].times[0]);
}

TEST(Bus, DetachedEndpointMissesFrames) {
  BusFixture f;
  f.bus.DetachEndpoint(1);
  f.bus.Transmit(0, MaskOf(1) | MaskOf(2), Bytes{9});
  f.engine.Run();
  EXPECT_TRUE(f.endpoints[1].frames.empty());
  EXPECT_EQ(f.endpoints[2].frames.size(), 1u);
}

TEST(Bus, TransmissionTimeScalesWithSize) {
  BusFixture f;
  f.bus.Transmit(0, MaskOf(1), Bytes(16, 0));
  f.engine.Run();
  SimTime small = f.endpoints[1].times[0];

  BusFixture g;
  g.bus.Transmit(0, MaskOf(1), Bytes(4096, 0));
  g.engine.Run();
  SimTime large = g.endpoints[1].times[0];
  EXPECT_GT(large, small);
}

TEST(Bus, LineFailoverCostsTimeButDelivers) {
  BusFixture f;
  f.bus.Transmit(0, MaskOf(1), Bytes{1});
  f.engine.Run();
  SimTime normal = f.endpoints[1].times[0];

  BusFixture g;
  g.bus.FailLine(0);
  g.bus.Transmit(0, MaskOf(1), Bytes{1});
  g.engine.Run();
  ASSERT_EQ(g.endpoints[1].frames.size(), 1u);
  EXPECT_GT(g.endpoints[1].times[0], normal);
  EXPECT_EQ(g.bus.stats().failovers, 1u);
}

TEST(Bus, BothLinesDeadQueuesUntilRestore) {
  BusFixture f;
  f.bus.FailLine(0);
  f.bus.FailLine(1);
  f.bus.Transmit(0, MaskOf(1), Bytes{1});
  f.engine.Run();
  EXPECT_TRUE(f.endpoints[1].frames.empty());
  f.bus.RestoreLine(1);
  f.engine.Run();
  EXPECT_EQ(f.endpoints[1].frames.size(), 1u);
}

TEST(Bus, RestoreRestartsWhenOnlyUrgentFramesAreQueued) {
  // Regression: RestoreLine only checked the regular lane, so heartbeats
  // queued urgent during a dual-line outage stayed stranded forever after
  // the restore — every peer then saw heartbeat silence and declared false
  // crashes. The urgent lane must restart the pump too.
  BusFixture f;
  f.bus.FailLine(0);
  f.bus.FailLine(1);
  f.bus.Transmit(0, MaskOf(1), Bytes{7}, /*urgent=*/true);
  f.engine.Run();
  EXPECT_TRUE(f.endpoints[1].frames.empty());
  f.bus.RestoreLine(0);
  f.engine.Run();
  ASSERT_EQ(f.endpoints[1].frames.size(), 1u);
  EXPECT_EQ((*f.endpoints[1].frames[0].payload)[0], 7);
}

TEST(Bus, HeartbeatsQueuedUnderDualLineOutageDrainUrgentFirst) {
  // §7.10 liveness: after a dual-line outage ends, the queued heartbeats
  // win arbitration over the regular backlog that piled up alongside them.
  BusFixture f;
  f.bus.FailLine(0);
  f.bus.FailLine(1);
  f.bus.Transmit(0, MaskOf(1), Bytes{1});  // regular backlog, queued first
  f.bus.Transmit(0, MaskOf(1), Bytes{2});
  f.bus.Transmit(2, MaskOf(1), Bytes{99}, /*urgent=*/true);  // heartbeat
  f.engine.Run();
  EXPECT_TRUE(f.endpoints[1].frames.empty());
  f.bus.RestoreLine(1);
  f.engine.Run();
  ASSERT_EQ(f.endpoints[1].frames.size(), 3u);
  EXPECT_EQ((*f.endpoints[1].frames[0].payload)[0], 99);
  EXPECT_EQ((*f.endpoints[1].frames[1].payload)[0], 1);
  EXPECT_EQ((*f.endpoints[1].frames[2].payload)[0], 2);
}

TEST(Bus, InFlightFrameAbortedByLineFailureRetriesOnSurvivor) {
  // Failing the line mid-transmission kills the frame on the wire: it must
  // go back to the head of its lane and retry on the surviving line, with
  // only the successful attempt charged to the stats.
  BusFixture f;
  // The frame starts on line 0 at t=0, when it is sent.
  f.bus.Transmit(0, MaskOf(1), Bytes(16, 0));
  const SimTime frame_time = f.config.FrameTime(16 + Frame::kHeaderBytes);
  // Halfway through the line time.
  f.engine.Schedule(frame_time / 2, [&] { f.bus.FailLine(0); });
  f.engine.Run();
  ASSERT_EQ(f.endpoints[1].frames.size(), 1u);
  EXPECT_EQ(f.bus.stats().frames_sent, 1u);
  EXPECT_EQ(f.bus.stats().failovers, 1u);
  EXPECT_EQ(f.bus.stats().busy_us, frame_time);  // aborted attempt not charged
  // The retry starts at the abort, waits out the dead-line timeout, then
  // takes the whole line time again.
  EXPECT_EQ(f.endpoints[1].times[0],
            frame_time / 2 + f.config.line_failover_timeout_us + frame_time);
}

TEST(Bus, DualLineDeathMidTransmitKeepsAccountingConsistent) {
  // Regression: when both lines died mid-transmission the frame had already
  // been popped with busy_us charged, leaving the stats claiming a send that
  // never happened and `transmitting_` stranded. Now nothing is charged
  // until a transmission completes, and the restore replays the frame.
  BusFixture f;
  f.bus.Transmit(0, MaskOf(1), Bytes(16, 0));
  const SimTime frame_time = f.config.FrameTime(16 + Frame::kHeaderBytes);
  // One microsecond into the line time.
  f.engine.Schedule(1, [&] {
    f.bus.FailLine(0);
    f.bus.FailLine(1);
  });
  f.engine.Run();
  EXPECT_TRUE(f.endpoints[1].frames.empty());
  EXPECT_EQ(f.bus.stats().frames_sent, 0u);
  EXPECT_EQ(f.bus.stats().busy_us, 0u);
  EXPECT_EQ(f.bus.stats().failover_wait_us, 0u);
  f.bus.RestoreLine(0);
  f.engine.Run();
  ASSERT_EQ(f.endpoints[1].frames.size(), 1u);
  EXPECT_EQ(f.bus.stats().frames_sent, 1u);
  EXPECT_EQ(f.bus.stats().busy_us, frame_time);
  EXPECT_EQ(f.bus.stats().failovers, 0u);  // line 0 came back; no failover path
}

TEST(Bus, EveryTargetReceivesTheFrameAtTransmitCompletion) {
  // A frame sent at t=0 is accepted at once and received by every target
  // at FrameTime, which charges the arbitration.
  BusFixture f;
  f.bus.Transmit(0, MaskOf(1) | MaskOf(3), Bytes{42});
  f.engine.Run();
  ASSERT_EQ(f.endpoints[1].frames.size(), 1u);
  ASSERT_EQ(f.endpoints[3].frames.size(), 1u);
  EXPECT_EQ(*f.endpoints[1].frames[0].payload, Bytes{42});
  const SimTime frame_time = f.config.FrameTime(1 + Frame::kHeaderBytes);
  EXPECT_EQ(f.endpoints[1].times[0], frame_time);
  EXPECT_EQ(f.endpoints[3].times[0], frame_time);
  EXPECT_EQ(f.bus.stats().frames_sent, 1u);
  EXPECT_EQ(f.bus.stats().deliveries, 2u);
}

TEST(Bus, InjectedDropViolatesAllOrNothing) {
  BusFixture f;
  f.bus.InjectAtomicityViolation(AtomicityViolation::kDropPerDestination, 0.5, 42);
  for (int i = 0; i < 50; ++i) {
    f.bus.Transmit(0, MaskOf(1) | MaskOf(2), Bytes{static_cast<uint8_t>(i)});
  }
  f.engine.Run();
  // With p=0.5 per destination, the two receivers must disagree somewhere.
  EXPECT_NE(f.endpoints[1].frames.size(), f.endpoints[2].frames.size());
}

TEST(Bus, InjectedInterleavingBreaksSameInstantDelivery) {
  BusFixture f;
  f.bus.InjectAtomicityViolation(AtomicityViolation::kInterleave, 1.0, 7);
  f.bus.Transmit(0, MaskOf(1) | MaskOf(2), Bytes{1});
  f.engine.Run();
  ASSERT_EQ(f.endpoints[1].frames.size(), 1u);
  ASSERT_EQ(f.endpoints[2].frames.size(), 1u);
  // Jittered deliveries rarely coincide; allow equality only if jitter drew
  // the same value twice — assert at least the mechanism engaged by checking
  // the pair over several frames.
  bool diverged = f.endpoints[1].times[0] != f.endpoints[2].times[0];
  for (int i = 0; !diverged && i < 10; ++i) {
    f.bus.Transmit(0, MaskOf(1) | MaskOf(2), Bytes{2});
    f.engine.Run();
    diverged = f.endpoints[1].times.back() != f.endpoints[2].times.back();
  }
  EXPECT_TRUE(diverged);
}

TEST(Bus, AllDestinationsShareOnePayloadBuffer) {
  // Zero-copy plane (DESIGN.md §13): the three delivery legs of one frame
  // must see the *same* payload buffer — delivery allocates nothing per
  // destination.
  BusFixture f;
  f.bus.Transmit(0, MaskOf(1) | MaskOf(2) | MaskOf(3), Bytes(100, 5));
  f.engine.Run();
  ASSERT_EQ(f.endpoints[1].frames.size(), 1u);
  ASSERT_EQ(f.endpoints[2].frames.size(), 1u);
  ASSERT_EQ(f.endpoints[3].frames.size(), 1u);
  const Bytes* p = f.endpoints[1].frames[0].payload.get();
  EXPECT_EQ(f.endpoints[2].frames[0].payload.get(), p);
  EXPECT_EQ(f.endpoints[3].frames[0].payload.get(), p);
}

TEST(Bus, InterleaveViolationStillSharesThePayload) {
  // The violation path schedules one jittered closure per destination; each
  // closure copies the Frame header but must share the payload buffer, so
  // allocation stays O(1) in the destination count.
  BusFixture f;
  f.bus.InjectAtomicityViolation(AtomicityViolation::kInterleave, 1.0, 11);
  f.bus.Transmit(0, MaskOf(1) | MaskOf(2) | MaskOf(3), Bytes(100, 9));
  f.engine.Run();
  ASSERT_EQ(f.endpoints[1].frames.size(), 1u);
  ASSERT_EQ(f.endpoints[2].frames.size(), 1u);
  ASSERT_EQ(f.endpoints[3].frames.size(), 1u);
  const Bytes* p = f.endpoints[1].frames[0].payload.get();
  EXPECT_EQ(f.endpoints[2].frames[0].payload.get(), p);
  EXPECT_EQ(f.endpoints[3].frames[0].payload.get(), p);
}

TEST(Bus, FailoverWaitAccountedSeparatelyFromBusyTime) {
  // §E6 accounting: the line is idle while the sender waits out the dead-
  // line timeout, so that wait must not inflate transmit-busy time.
  BusFixture f;
  f.bus.Transmit(0, MaskOf(1), Bytes(16, 0));
  f.engine.Run();
  SimTime frame_time = f.config.FrameTime(16 + Frame::kHeaderBytes);
  EXPECT_EQ(f.bus.stats().busy_us, frame_time);
  EXPECT_EQ(f.bus.stats().failover_wait_us, 0u);

  BusFixture g;
  g.bus.FailLine(0);
  g.bus.Transmit(0, MaskOf(1), Bytes(16, 0));
  g.engine.Run();
  // Same transmit-busy time as the healthy run; the timeout shows up only
  // in failover_wait_us (and in the delivery timestamp).
  EXPECT_EQ(g.bus.stats().busy_us, frame_time);
  EXPECT_EQ(g.bus.stats().failover_wait_us, g.config.line_failover_timeout_us);
  EXPECT_EQ(g.bus.stats().failovers, 1u);
  ASSERT_EQ(g.endpoints[1].times.size(), 1u);
  EXPECT_EQ(g.endpoints[1].times[0],
            f.endpoints[1].times[0] + g.config.line_failover_timeout_us);
}

TEST(Bus, StatsKeepTheLongestTransmission) {
  BusFixture f;
  f.bus.Transmit(0, MaskOf(1), Bytes(4096, 0));
  f.bus.Transmit(0, MaskOf(1), Bytes(16, 0));
  f.engine.Run();
  EXPECT_EQ(f.bus.stats().max_frame_bytes, 4096 + Frame::kHeaderBytes);
  EXPECT_EQ(f.bus.stats().max_frame_us, f.config.FrameTime(4096 + Frame::kHeaderBytes));
}

TEST(Bus, RejectsBadClusterCounts) {
  Engine engine(Engine::kNoLogClock);
  // The raw bus now carries up to kMaxClusters (a fabric segment bus is the
  // one that holds the paper's 2..32 bound — Topology::Validate enforces it).
  EXPECT_DEATH(InterclusterBus(engine, BusConfig{}, 1), "2..256");
  EXPECT_DEATH(InterclusterBus(engine, BusConfig{}, 257), "2..256");
  InterclusterBus legal(engine, BusConfig{}, 33);  // no longer fatal
  EXPECT_EQ(legal.num_clusters(), 33u);
}

TEST(Bus, TopologyEnforcesPaperSegmentBound) {
  EXPECT_NE(Topology().WithSegment(33).Validate(), "");
  EXPECT_NE(Topology().WithSegment(1).Validate(), "");
  EXPECT_EQ(Topology().WithSegment(32).Validate(), "");
}

}  // namespace
}  // namespace auragen
