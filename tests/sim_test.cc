// Unit tests for the discrete-event engine: ordering, cancellation,
// determinism of ties.

#include <gtest/gtest.h>

#include <vector>

#include "src/sim/engine.h"

namespace auragen {

// Steps the engine one event at a time, which is not public API.
class EngineTestPeer {
 public:
  static bool Step(Engine& engine) { return engine.Step(); }
};

namespace {

TEST(Engine, FiresInTimeOrder) {
  Engine engine;
  std::vector<int> order;
  engine.Schedule(30, [&] { order.push_back(3); });
  engine.Schedule(10, [&] { order.push_back(1); });
  engine.Schedule(20, [&] { order.push_back(2); });
  engine.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(engine.Now(), 30u);
}

TEST(Engine, TiesBreakFifo) {
  Engine engine;
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    engine.Schedule(5, [&order, i] { order.push_back(i); });
  }
  engine.Run();
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(order[i], i);
  }
}

TEST(Engine, NestedScheduling) {
  Engine engine;
  std::vector<SimTime> times;
  engine.Schedule(10, [&] {
    times.push_back(engine.Now());
    engine.Schedule(5, [&] { times.push_back(engine.Now()); });
  });
  engine.Run();
  EXPECT_EQ(times, (std::vector<SimTime>{10, 15}));
}

TEST(Engine, CancelPreventsDispatch) {
  Engine engine;
  bool fired = false;
  EventId id = engine.Schedule(10, [&] { fired = true; });
  engine.Cancel(id);
  engine.Run();
  EXPECT_FALSE(fired);
}

TEST(Engine, CancelAfterFireIsNoop) {
  Engine engine;
  int count = 0;
  EventId id = engine.Schedule(1, [&] { ++count; });
  engine.Run();
  engine.Cancel(id);  // must not disturb anything
  engine.Schedule(1, [&] { ++count; });
  engine.Run();
  EXPECT_EQ(count, 2);
}

TEST(Engine, RunUntilHorizonAdvancesClock) {
  Engine engine;
  bool fired = false;
  engine.Schedule(100, [&] { fired = true; });
  engine.Run(50);
  EXPECT_FALSE(fired);
  EXPECT_EQ(engine.Now(), 50u);
  engine.Run(200);
  EXPECT_TRUE(fired);
}

TEST(Engine, StepOneAtATime) {
  Engine engine;
  int count = 0;
  engine.Schedule(1, [&] { ++count; });
  engine.Schedule(2, [&] { ++count; });
  EXPECT_TRUE(EngineTestPeer::Step(engine));
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(EngineTestPeer::Step(engine));
  EXPECT_EQ(count, 2);
  EXPECT_FALSE(EngineTestPeer::Step(engine));
}

TEST(Engine, StopInterruptsRun) {
  Engine engine;
  int count = 0;
  engine.Schedule(1, [&] {
    ++count;
    engine.Stop();
  });
  engine.Schedule(2, [&] { ++count; });
  engine.Run();
  EXPECT_EQ(count, 1);
  engine.Run();
  EXPECT_EQ(count, 2);
}

TEST(Engine, SchedulingIntoThePastPanics) {
  Engine engine;
  engine.Schedule(10, [] {});
  engine.Run();
  EXPECT_DEATH(engine.ScheduleAt(5, [] {}), "scheduling into the past");
}

}  // namespace
}  // namespace auragen
