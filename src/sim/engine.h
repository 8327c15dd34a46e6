// Discrete-event simulation engine: one event heap.
//
// Events fire in (time, sequence) order, so ties at the same instant are
// broken by scheduling order, making every run a deterministic function of
// the configuration and RNG seed. That determinism is an architectural
// invariant (DESIGN.md §4): crash/recovery equivalence tests compare
// whole-machine traces between runs.
//
// A Machine runs on one Engine: every cluster, bus, switch, disk and fault
// injection schedules into the same heap (DESIGN.md §16).

#ifndef AURAGEN_SRC_SIM_ENGINE_H_
#define AURAGEN_SRC_SIM_ENGINE_H_

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "src/base/check.h"
#include "src/base/task.h"
#include "src/base/types.h"

namespace auragen {

class Tracer;

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
  // Tag for embedded use (a Machine's engine; campaigns run several
  // machines at once): skips installing this engine's clock as the
  // process-wide Logger time source.
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
  // first. Returns the number of events dispatched. `stop_pred`, when set,
  // is called once per simulated instant, after that instant's last event
  // (the next live event lies later, or past `until`); true halts the run
  // there. The clock advances to `until` only when the run legitimately
  // simulated through it — not when Stop(), the dispatch limit or the
  // predicate cut the run short.
  uint64_t Run(SimTime until = kSimForever, const std::function<bool()>& stop_pred = {});

  bool Empty() const { return live_events_ == 0; }
  uint64_t dispatched() const { return dispatched_; }

  // Records one kEngineDispatch trace event per dispatched event (a = its
  // id) when `tracer` wants that kind. Write-only, like all tracing.
  void set_tracer(Tracer* tracer);

  // Livelock guard for fault campaigns: with a nonzero limit, Run() refuses
  // to dispatch past `limit` total events, so a run halts after exactly
  // `limit` of them — a run stuck re-scheduling at the same instant (so
  // time never reaches the horizon) terminates with dispatch_limit_hit()
  // set instead of spinning forever. 0 disables.
  void set_dispatch_limit(uint64_t limit) { dispatch_limit_ = limit; }
  bool dispatch_limit_hit() const {
    return dispatch_limit_ != 0 && dispatched_ >= dispatch_limit_;
  }

  // Requests that Run() return after the current event. The queue is left
  // intact; Run() can be called again.
  void Stop() { stop_requested_ = true; }

 private:
  friend class EngineTestPeer;

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

  // Pops cancelled leftovers off the heap top, freeing their slots, so the
  // top (if any) is the next live event.
  void DropCancelledTop();

  // Runs exactly one event if any is pending before `until`. Returns false
  // when nothing was dispatched.
  bool Step(SimTime until = kSimForever);

  SimTime now_ = 0;
  uint64_t next_seq_ = 1;
  uint64_t dispatched_ = 0;
  uint64_t dispatch_limit_ = 0;
  uint64_t live_events_ = 0;
  bool stop_requested_ = false;
  bool owns_log_clock_ = false;
  Tracer* dispatch_tracer_ = nullptr;  // set only when it wants the kind
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  std::vector<Slot> slots_;  // slab of pending callables + generations
  std::vector<uint32_t> free_slots_;
};

}  // namespace auragen

#endif  // AURAGEN_SRC_SIM_ENGINE_H_
