// Engine cancel/clock regression tests plus the one-heap run rules: where
// Stop(), the dispatch limit and a stop predicate halt a run, and the
// dispatch trace.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "src/sim/engine.h"
#include "src/trace/trace.h"

namespace auragen {

// The engine's cancel bookkeeping, which is not public API.
class EngineTestPeer {
 public:
  static uint64_t live_events(const Engine& engine) { return engine.live_events_; }
  // Heap entries whose slot generation has moved on (they vanish as they
  // surface). Bounded by the number of Cancel() calls on still-pending
  // events since the last drain — cancel-after-fire contributes nothing.
  static uint64_t stale_heap_entries(const Engine& engine) {
    return engine.queue_.size() - engine.live_events_;
  }
};

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
  EXPECT_EQ(EngineTestPeer::live_events(engine), 1u);
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
    EXPECT_EQ(EngineTestPeer::stale_heap_entries(engine), 0u) << "round " << round;
  }

  // Cancel-while-pending leaves one stale entry each...
  std::vector<EventId> pending;
  for (int i = 0; i < 8; ++i) {
    pending.push_back(engine.Schedule(10, [] {}));
  }
  for (EventId id : pending) {
    engine.Cancel(id);
  }
  EXPECT_EQ(EngineTestPeer::stale_heap_entries(engine), 8u);
  EXPECT_TRUE(engine.Empty());
  // ...which vanish the next time the heap drains.
  engine.Run();
  EXPECT_EQ(EngineTestPeer::stale_heap_entries(engine), 0u);
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

// --- One heap: where a run halts --------------------------------------

TEST(EngineRun, PredicateRunsOncePerInstantAfterItsLastEvent) {
  // Three events at t=5 (one scheduled by another), one at t=9 and a
  // cancelled one at t=7: the predicate must see all of t=5's events at
  // once, never run between them, and not run for the cancelled instant.
  Engine engine(Engine::kNoLogClock);
  std::vector<std::string> log;
  engine.ScheduleAt(5, [&] {
    log.push_back("a");
    engine.Schedule(0, [&] { log.push_back("c"); });
  });
  engine.ScheduleAt(5, [&] { log.push_back("b"); });
  engine.Cancel(engine.ScheduleAt(7, [&] { log.push_back("never"); }));
  engine.ScheduleAt(9, [&] { log.push_back("d"); });
  uint64_t n = engine.Run(100, [&] {
    log.push_back("pred@" + std::to_string(engine.Now()));
    return false;
  });
  EXPECT_EQ(n, 4u);
  EXPECT_EQ(log, (std::vector<std::string>{"a", "b", "c", "pred@5", "d", "pred@9"}));
  EXPECT_EQ(engine.Now(), 100u);  // the predicate never held: horizon earned
}

TEST(EngineRun, PredicateHaltsAtItsInstantWithoutFastForward) {
  Engine engine(Engine::kNoLogClock);
  int fired = 0;
  for (SimTime t : {10u, 10u, 20u, 30u}) {
    engine.ScheduleAt(t, [&fired] { ++fired; });
  }
  engine.Run(100, [&] { return fired >= 3; });
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(engine.Now(), 20u);
  EXPECT_FALSE(engine.Empty());
}

TEST(EngineRun, DispatchLimitHaltsAfterExactlyKEventsMidInstant) {
  // Ten events share t=4: the limit cuts the instant after exactly k of
  // them, the clock stays there, and raising the limit resumes in order.
  Engine engine(Engine::kNoLogClock);
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    engine.ScheduleAt(4, [&order, i] { order.push_back(i); });
  }
  engine.ScheduleAt(50, [&order] { order.push_back(10); });
  engine.set_dispatch_limit(7);
  EXPECT_EQ(engine.Run(100), 7u);
  EXPECT_TRUE(engine.dispatch_limit_hit());
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6}));
  EXPECT_EQ(engine.Now(), 4u);  // not the horizon
  engine.set_dispatch_limit(0);
  engine.Run(100);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}));
  EXPECT_EQ(engine.Now(), 100u);
}

TEST(EngineRun, StopHaltsAfterTheCurrentEvent) {
  Engine engine(Engine::kNoLogClock);
  std::vector<int> order;
  engine.ScheduleAt(5, [&] {
    order.push_back(1);
    engine.Stop();
  });
  engine.ScheduleAt(5, [&] { order.push_back(2); });  // same instant, still pending
  engine.Run(100);
  EXPECT_EQ(order, (std::vector<int>{1}));
  EXPECT_EQ(engine.Now(), 5u);
  engine.Run(100);  // resumable
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_TRUE(engine.Empty());
}

TEST(EngineRun, TracesOneDispatchRecordPerEvent) {
  TraceOptions to;
  to.enabled = true;
  to.kind_mask = ~uint64_t{0};
  Tracer tracer(to);
  Engine engine(Engine::kNoLogClock);
  tracer.set_clock([&engine] { return engine.Now(); });
  engine.set_tracer(&tracer);
  const EventId first = engine.ScheduleAt(3, [&tracer] {
    tracer.Record(TraceEventKind::kSend, 0, 1, 0, 0, 0);
  });
  engine.Cancel(engine.ScheduleAt(4, [] {}));
  const EventId second = engine.ScheduleAt(6, [] {});
  engine.Run();
  const std::vector<TraceEvent> events = tracer.Events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].kind, TraceEventKind::kSend);  // the event's own record first
  EXPECT_EQ(events[1].kind, TraceEventKind::kEngineDispatch);
  EXPECT_EQ(events[1].ts, 3u);
  EXPECT_EQ(events[1].a, first);
  EXPECT_EQ(events[2].kind, TraceEventKind::kEngineDispatch);
  EXPECT_EQ(events[2].ts, 6u);
  EXPECT_EQ(events[2].a, second);
}

}  // namespace
}  // namespace auragen
