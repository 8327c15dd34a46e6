// Discrete-event simulation engine: one event heap.
//
// Events fire in (time, sequence) order, so ties at the same instant are
// broken by scheduling order, making every run a deterministic function of
// the configuration and RNG seed. That determinism is an architectural
// invariant (DESIGN.md §4): crash/recovery equivalence tests compare
// whole-machine traces between runs.
//
// The Machine runs one Engine per shard of a ShardedEngine
// (sharded_engine.h): one per cluster plus the shared shard, driven
// window-by-window under conservative synchronization.

#ifndef AURAGEN_SRC_SIM_ENGINE_H_
#define AURAGEN_SRC_SIM_ENGINE_H_

#include <cstdint>
#include <queue>
#include <vector>

#include "src/base/check.h"
#include "src/base/task.h"
#include "src/base/types.h"

namespace auragen {

// Handle for cancelling a scheduled event. Encodes (slot, generation): the
// slot names the slab entry holding the callable, the generation says which
// occupancy of that slot the handle refers to. A handle therefore stays
// valid-to-cancel exactly while its event is pending; after the event fires
// (or is cancelled) the slot's generation moves on and the handle becomes a
// guaranteed no-op — cancelling late can never kill an unrelated event that
// happens to reuse the slot, and costs no bookkeeping.
using EventId = uint64_t;
inline constexpr EventId kNoEvent = 0;

class Engine {
 public:
  // Tag for embedded use (one Engine per shard): skips installing this
  // engine's clock as the process-wide Logger time source.
  struct NoLogClockTag {};
  static constexpr NoLogClockTag kNoLogClock{};

  Engine();
  explicit Engine(NoLogClockTag);
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  SimTime Now() const { return now_; }

  // Schedules `fn` to run at Now() + delay. Returns an id usable with
  // Cancel(). Callbacks may schedule further events freely. Task keeps hot
  // closures (delivery frames, message views) inline — no heap per event.
  EventId Schedule(SimTime delay, Task fn);

  // Schedules at an absolute time (>= Now()).
  EventId ScheduleAt(SimTime when, Task fn);

  // Cancels a pending event. Cancelling an already-fired or unknown id is a
  // no-op (the common pattern: timers that usually fire). O(1): the slot's
  // generation is bumped so the heap entry is skipped when it surfaces; the
  // callable is destroyed immediately.
  void Cancel(EventId id);

  // Runs until the event queue empties or `until` is reached, whichever is
  // first. Returns the number of events dispatched. The clock advances to
  // `until` only when the run legitimately simulated through it — not when
  // Stop() or the dispatch limit cut the run short.
  uint64_t Run(SimTime until = kSimForever);

  // Runs exactly one event if any is pending before `until`. Returns false
  // when nothing was dispatched.
  bool Step(SimTime until = kSimForever);

  bool Empty() const { return live_events_ == 0; }
  uint64_t dispatched() const { return dispatched_; }
  uint64_t live_events() const { return live_events_; }

  // Absolute time of the earliest live pending event, or kSimForever when
  // none. Used by ShardedEngine to pick the next window.
  SimTime NextEventTime() const;

  // Time of the heap's top entry, cancelled or not; kSimForever when the
  // heap is empty. Step(until) pops something exactly when this is <= until
  // and the dispatch limit is not yet hit.
  SimTime HeapTopTime() const { return queue_.empty() ? kSimForever : queue_.top().when; }

  // Advances the clock to `t` without dispatching anything. Only legal when
  // no pending event would be skipped. ShardedEngine uses this to align
  // every shard clock at control points between windows, so that schedules
  // issued outside callbacks base on the global simulated-through time.
  void AdvanceTo(SimTime t) {
    if (now_ < t) {
      AURAGEN_CHECK(NextEventTime() >= t)
          << "AdvanceTo(" << t << ") would skip a pending event at " << NextEventTime();
      now_ = t;
    }
  }

  // Id of the most recently dispatched event (valid after Step() returned
  // true). Lets an embedding driver trace dispatches without a callback in
  // the hot loop.
  EventId last_dispatched() const { return last_dispatched_; }

  // Livelock guard for fault campaigns: with a nonzero limit, Run()/Step()
  // refuse to dispatch past `limit` total events — a run stuck re-scheduling
  // at the same instant (so time never reaches the horizon) terminates with
  // dispatch_limit_hit() set instead of spinning forever. 0 disables.
  void set_dispatch_limit(uint64_t limit) { dispatch_limit_ = limit; }
  uint64_t dispatch_limit() const { return dispatch_limit_; }
  bool dispatch_limit_hit() const {
    return dispatch_limit_ != 0 && dispatched_ >= dispatch_limit_;
  }

  // Requests that Run() return after the current callback. The queue is
  // left intact; Run() can be called again.
  void Stop() { stop_requested_ = true; }

  // Test-only visibility into the cancel bookkeeping: heap entries whose
  // slot generation has moved on (they vanish as they surface). Bounded by
  // the number of Cancel() calls on still-pending events since the last
  // drain — cancel-after-fire contributes nothing.
  uint64_t stale_heap_entries() const { return queue_.size() - live_events_; }

 private:
  // The heap holds only POD keys; callables live in a slab addressed by
  // slot index. Heap shuffles therefore move 24-byte entries instead of
  // relocating whole Tasks (whose inline buffers are deliberately large).
  // `seq` breaks same-time ties in scheduling order; `gen` must match the
  // slot's current generation or the entry is a cancelled leftover.
  struct Event {
    SimTime when;
    uint64_t seq;
    uint32_t slot;
    uint32_t gen;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.when != b.when) {
        return a.when > b.when;
      }
      return a.seq > b.seq;  // FIFO among same-time events
    }
  };
  struct Slot {
    Task task;
    uint32_t gen = 1;
  };

  static EventId MakeId(uint32_t slot, uint32_t gen) {
    return (static_cast<EventId>(slot) + 1) << 32 | gen;
  }

  SimTime now_ = 0;
  uint64_t next_seq_ = 1;
  uint64_t dispatched_ = 0;
  uint64_t dispatch_limit_ = 0;
  uint64_t live_events_ = 0;
  EventId last_dispatched_ = kNoEvent;
  bool stop_requested_ = false;
  bool owns_log_clock_ = false;
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  std::vector<Slot> slots_;  // slab of pending callables + generations
  std::vector<uint32_t> free_slots_;
};

}  // namespace auragen

#endif  // AURAGEN_SRC_SIM_ENGINE_H_
