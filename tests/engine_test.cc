// Engine cancel/clock regression tests plus the ShardedEngine determinism
// suite: FIFO tie-breaks across shard merges, window semantics, the
// lookahead contract, and where Stop() and the dispatch limit halt a run.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "src/machine/shard_plan.h"
#include "src/sim/engine.h"
#include "src/sim/sharded_engine.h"
#include "src/trace/trace.h"

namespace auragen {
namespace {

// --- Engine::Cancel bookkeeping ---------------------------------------

TEST(EngineCancel, AfterFireCannotKillSlotReuse) {
  // The ABA case the old cancelled-id list got wrong at scale: an id kept
  // past its event's dispatch must stay a no-op even when the slot has been
  // handed to a new event.
  Engine engine(Engine::kNoLogClock);
  bool second_fired = false;
  EventId first = engine.Schedule(1, [] {});
  engine.Run();
  // The freed slot is reused immediately; only the generation differs.
  EventId second = engine.Schedule(1, [&] { second_fired = true; });
  EXPECT_NE(first, second);
  engine.Cancel(first);  // must not touch the reused slot
  EXPECT_EQ(engine.live_events(), 1u);
  engine.Run();
  EXPECT_TRUE(second_fired);
}

TEST(EngineCancel, FiredIdsLeaveNoResidue) {
  // Cancelling after the fact used to append to a forever-growing vector
  // scanned on every dispatch. Now it's a generation check: nothing is
  // retained for fired ids, and stale heap entries exist only for events
  // cancelled while pending — and drain as they surface.
  Engine engine(Engine::kNoLogClock);
  std::vector<EventId> fired_ids;
  for (int round = 0; round < 100; ++round) {
    fired_ids.push_back(engine.Schedule(1, [] {}));
    engine.Run();
    for (EventId id : fired_ids) {
      engine.Cancel(id);  // all no-ops
    }
    EXPECT_EQ(engine.stale_heap_entries(), 0u) << "round " << round;
  }

  // Cancel-while-pending leaves one stale entry each...
  std::vector<EventId> pending;
  for (int i = 0; i < 8; ++i) {
    pending.push_back(engine.Schedule(10, [] {}));
  }
  for (EventId id : pending) {
    engine.Cancel(id);
  }
  EXPECT_EQ(engine.stale_heap_entries(), 8u);
  EXPECT_TRUE(engine.Empty());
  // ...which vanish the next time the heap drains.
  engine.Run();
  EXPECT_EQ(engine.stale_heap_entries(), 0u);
}

TEST(EngineCancel, DoubleCancelIsNoop) {
  Engine engine(Engine::kNoLogClock);
  bool fired = false;
  EventId id = engine.Schedule(5, [&] { fired = true; });
  EventId other = engine.Schedule(5, [&] { fired = true; });
  engine.Cancel(id);
  engine.Cancel(id);
  engine.Cancel(kNoEvent);
  engine.Run();
  EXPECT_TRUE(fired);  // `other` still fires
  engine.Cancel(other);  // after fire: no-op
}

TEST(EngineCancel, PreservesFifoOfSurvivors) {
  Engine engine(Engine::kNoLogClock);
  std::vector<int> order;
  std::vector<EventId> ids;
  for (int i = 0; i < 6; ++i) {
    ids.push_back(engine.Schedule(5, [&order, i] { order.push_back(i); }));
  }
  engine.Cancel(ids[1]);
  engine.Cancel(ids[4]);
  engine.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 2, 3, 5}));
}

// --- Engine clock semantics at run cut-offs ---------------------------

TEST(EngineClock, DispatchLimitDoesNotFastForward) {
  // A limited run did not simulate through the horizon; advancing the clock
  // to `until` anyway would timestamp post-run assertions in a future the
  // run never reached.
  Engine engine(Engine::kNoLogClock);
  for (SimTime t : {10u, 20u, 30u}) {
    engine.ScheduleAt(t, [] {});
  }
  engine.set_dispatch_limit(2);
  uint64_t n = engine.Run(100);
  EXPECT_EQ(n, 2u);
  EXPECT_TRUE(engine.dispatch_limit_hit());
  EXPECT_EQ(engine.Now(), 20u);  // the last earned instant, not 100
}

TEST(EngineClock, StopDoesNotFastForward) {
  Engine engine(Engine::kNoLogClock);
  engine.Schedule(10, [&] { engine.Stop(); });
  engine.Schedule(20, [] {});
  engine.Run(100);
  EXPECT_EQ(engine.Now(), 10u);
}

TEST(EngineClock, CleanHorizonStillFastForwards) {
  Engine engine(Engine::kNoLogClock);
  engine.Schedule(10, [] {});
  engine.Run(100);
  EXPECT_EQ(engine.Now(), 100u);
}

// --- ShardedEngine windows and merges ---------------------------------

TEST(ShardedEngine, TiesMergeInShardOrder) {
  // Same-instant records from different shards must fold into the master
  // tracer in shard order — the exact interleaving a sequential engine
  // produces — or the digest oracle is worthless.
  ShardedEngineOptions seo;
  seo.num_shards = 3;
  TraceOptions to;
  to.enabled = true;
  Tracer tracer(to);
  ShardedEngine engine(seo);
  engine.set_tracer(&tracer);
  // Schedule in reverse shard order so FIFO-of-scheduling cannot mask a
  // broken merge.
  for (uint32_t s = 3; s-- > 0;) {
    engine.ScheduleAtOn(s, 7, [&engine, s] {
      engine.Trace(TraceEventKind::kSend, s, 100 + s, 0, 0, 0);
    });
  }
  engine.Run(10);
  std::vector<TraceEvent> events = tracer.Events();
  ASSERT_EQ(events.size(), 3u);
  for (uint32_t s = 0; s < 3; ++s) {
    EXPECT_EQ(events[s].ts, 7u);
    EXPECT_EQ(events[s].gpid, 100 + s) << "merge order broke at position " << s;
  }
}

TEST(ShardedEngine, CrossShardPostsHonorLatency) {
  ShardedEngineOptions seo;
  seo.num_shards = 2;
  seo.lookahead_us = 4;
  ShardedEngine engine(seo);
  std::vector<std::string> log;
  engine.ScheduleOn(1, 5, [&] {
    log.push_back("cluster@" + std::to_string(engine.ShardNow(1)));
    engine.ScheduleOn(kSharedShard, 4, [&] {
      log.push_back("bus@" + std::to_string(engine.ShardNow(kSharedShard)));
    });
  });
  engine.Run(100);
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0], "cluster@5");
  EXPECT_EQ(log[1], "bus@9");
  EXPECT_EQ(engine.Now(), 100u);
  EXPECT_TRUE(engine.Empty());
}

TEST(ShardedEngineDeath, LookaheadContractViolationPanics) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ShardedEngineOptions seo;
  seo.num_shards = 2;
  seo.lookahead_us = 5;
  ShardedEngine engine(seo);
  engine.ScheduleOn(1, 10, [&] {
    engine.ScheduleOn(kSharedShard, 2, [] {});  // 2 < lookahead 5
  });
  EXPECT_DEATH(engine.Run(100), "lookahead contract");
}

TEST(ShardedEngineDeath, CrossShardCancelPanics) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ShardedEngineOptions seo;
  seo.num_shards = 2;
  ShardedEngine engine(seo);
  EventId id = engine.ScheduleOn(kSharedShard, 50, [] {});
  engine.ScheduleOn(1, 10, [&] { engine.Cancel(kSharedShard, id); });
  EXPECT_DEATH(engine.Run(100), "cross-shard Cancel");
}

TEST(ShardedEngine, StopHaltsAtWindowBarrier) {
  ShardedEngineOptions seo;
  seo.num_shards = 2;
  ShardedEngine engine(seo);
  int later = 0;
  engine.ScheduleOn(1, 5, [&] { engine.Stop(); });
  engine.ScheduleOn(1, 50, [&] { ++later; });
  engine.Run(100);
  EXPECT_EQ(later, 0);
  EXPECT_FALSE(engine.Empty());
  EXPECT_LT(engine.Now(), 50u);  // no fast-forward past the halt
  engine.Run(100);  // resumable; drains the rest
  EXPECT_EQ(later, 1);
  EXPECT_TRUE(engine.Empty());
}

TEST(ShardedEngine, DispatchLimitHaltsAtWindowBarrier) {
  // The livelock guard cuts the run at a window barrier: every shard gets
  // the remaining budget for the window, the run stops at the first barrier
  // where the total reaches the limit, and the clock stays at that window
  // instead of fast-forwarding to the horizon.
  ShardedEngineOptions seo;
  seo.num_shards = 3;
  seo.lookahead_us = 2;
  ShardedEngine engine(seo);
  int fired = 0;
  for (ShardId s : {1u, 2u}) {
    for (SimTime t = 0; t < 100; ++t) {
      engine.ScheduleAtOn(s, t, [&fired] { ++fired; });
    }
  }
  engine.set_dispatch_limit(25);
  engine.Run(1000);
  // Windows [0,2), [2,4), ... carry two events per shard: six windows make
  // 24, and the seventh hands each shard the remaining budget of one.
  EXPECT_TRUE(engine.dispatch_limit_hit());
  EXPECT_EQ(engine.dispatched(), 26u);
  EXPECT_EQ(fired, 26);
  EXPECT_EQ(engine.Now(), 13u);  // end of the halting window, not the horizon
  EXPECT_EQ(engine.ShardNow(1), 12u);
  EXPECT_FALSE(engine.Empty());

  engine.set_dispatch_limit(0);
  engine.Run(1000);  // resumable; drains the rest and earns the horizon
  EXPECT_FALSE(engine.dispatch_limit_hit());
  EXPECT_EQ(fired, 200);
  EXPECT_EQ(engine.Now(), 1000u);
  EXPECT_TRUE(engine.Empty());
}

TEST(ShardedEngine, CancelledOnlyShardKeepsIdsUnderDispatchLimit) {
  // Shard 2's heap holds only cancelled entries: it never starts a window,
  // but each window must still pop its due leftovers, because the freed
  // slots decide the ids of later schedules. Counts, clock and ids are
  // pinned from the engine that ran every shard in every window.
  ShardedEngineOptions seo;
  seo.num_shards = 3;
  seo.lookahead_us = 2;
  ShardedEngine engine(seo);
  int fired = 0;
  for (SimTime t = 0; t < 100; ++t) {
    engine.ScheduleAtOn(1, t, [&fired] { ++fired; });
  }
  for (SimTime t : {5u, 9u, 24u, 25u, 40u}) {
    engine.Cancel(2, engine.ScheduleAtOn(2, t, [] {}));
  }
  engine.set_dispatch_limit(25);
  engine.Run(1000);
  EXPECT_TRUE(engine.dispatch_limit_hit());
  EXPECT_EQ(engine.dispatched(), 25u);
  EXPECT_EQ(fired, 25);
  EXPECT_EQ(engine.Now(), 25u);
  EXPECT_EQ(engine.ShardNow(2), 0u);

  // The leftovers at 5, 9, 24 and 25 were reclaimed (slots 0-3, reused
  // last-freed first at generation 2); the one at 40 still holds slot 4.
  std::vector<EventId> ids;
  for (int i = 0; i < 5; ++i) {
    ids.push_back(engine.ScheduleAtOn(2, 60, [&fired] { ++fired; }));
  }
  EXPECT_EQ(ids, (std::vector<EventId>{17179869186u, 12884901890u, 8589934594u,
                                        4294967298u, 25769803777u}));

  engine.set_dispatch_limit(0);
  engine.Run(1000);
  EXPECT_EQ(fired, 105);
  EXPECT_EQ(engine.dispatched(), 105u);
  EXPECT_EQ(engine.Now(), 1000u);
  EXPECT_TRUE(engine.Empty());
}

// --- ShardPlan: the machine-topology seam ------------------------------

TEST(ShardPlan, DerivesShardsAndLookaheadFromConfig) {
  DiskConfig disk;
  ShardPlan plan = MakeShardPlan(Topology::SingleSegment(6), disk);
  EXPECT_EQ(plan.num_shards, 7u);
  // min(bus arbitration 2us, disk seek 200us)
  EXPECT_EQ(plan.lookahead_us, std::min(BusConfig{}.arbitration_us, disk.seek_us));
  EXPECT_EQ(plan.shared_shard(), kSharedShard);
  EXPECT_EQ(plan.shard_of_cluster(0), 1u);
  EXPECT_EQ(plan.shard_of_cluster(5), 6u);
  ShardedEngineOptions seo = plan.EngineOptions();
  EXPECT_EQ(seo.num_shards, 7u);
  EXPECT_EQ(seo.lookahead_us, plan.lookahead_us);
  EXPECT_NE(plan.Describe().find("shards=7"), std::string::npos);
}

TEST(ShardPlanDeath, ZeroLatencyTopologyPanics) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  BusConfig bus;
  bus.arbitration_us = 0;
  DiskConfig disk;
  EXPECT_DEATH(MakeShardPlan(Topology::SingleSegment(2, bus), disk), "lookahead");
}

}  // namespace
}  // namespace auragen
