// ShardedEngine: windowed discrete-event simulation over per-shard heaps.
//
// The event space is sharded — one heap per cluster, plus shard 0 for
// shared components (bus arbitration, disks, process server) — and the
// shards run in conservative time windows (Chandy/Misra/Bryant style, per
// Treaster's survey of fault-tolerance techniques for large parallel
// systems), one shard after another on the calling thread.
//
// The synchronization unit comes straight from the paper's §5.1 bus
// atomicity model: a cluster never observes a remote effect sooner than the
// minimum intercluster bus/disk latency. That minimum is the *lookahead* L.
// Execution proceeds in windows [T, T+L): every shard dispatches its events
// inside the window in (time, sequence) order; at the window barrier,
// cross-shard schedules (bus deliveries, crash notices) are posted into the
// target shards. The lookahead contract keeps every shard's window
// independent of the others:
//
//   * a callback running on shard s may touch only shard-s state;
//   * a callback may schedule freely onto its own shard (any time >= now);
//   * a cross-shard schedule must land at or after the current window's end
//     (checked) — i.e. model latencies between shards must be >= L.
//
// Determinism is the non-negotiable invariant, and the windows decide
// behaviour: event ids, FIFO tie-breaks and the trace digest all follow
// from them. Three mechanisms make a run a pure function of its inputs:
//
//   1. per-shard execution is heap-ordered, so each shard's event stream is
//      a pure function of its inputs;
//   2. cross-shard posts are buffered per source shard and drained at the
//      barrier in (source shard, post order) order, so destination event
//      ids and FIFO tie-breaks follow the per-shard schedules;
//   3. trace records are staged per shard and merged at each barrier in
//      (timestamp, shard, shard order) order before folding into the master
//      Tracer digest.
//
// Dispatch-limit (livelock guard) and Stop() take effect at window
// barriers: the window is the unit of deterministic progress.
//
// The shards of a window run on one thread: a window holds a few events,
// so spreading them over worker threads cost more at the barrier than it
// saved (DESIGN.md §16.4).

#ifndef AURAGEN_SRC_SIM_SHARDED_ENGINE_H_
#define AURAGEN_SRC_SIM_SHARDED_ENGINE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "src/base/task.h"
#include "src/base/types.h"
#include "src/sim/engine.h"
#include "src/trace/trace.h"

namespace auragen {

using ShardId = uint32_t;
inline constexpr ShardId kNoShard = 0xffffffffu;
// Conventional home of shared components (bus, disks, machine-level timers).
inline constexpr ShardId kSharedShard = 0;

struct ShardedEngineOptions {
  // Shard 0 is shared; a machine with C clusters uses 1 + C shards.
  uint32_t num_shards = 1;
  // Conservative lookahead: the minimum cross-shard model latency, in
  // microseconds. Windows are [T, T+lookahead).
  SimTime lookahead_us = 2;
};

class ShardedEngine {
 public:
  explicit ShardedEngine(ShardedEngineOptions options);

  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  uint32_t num_shards() const { return static_cast<uint32_t>(shards_.size()); }
  SimTime lookahead() const { return lookahead_; }

  // Global simulated-through time: the last completed window (or the Run()
  // horizon when the run earned it). Valid between Run() calls.
  SimTime Now() const { return now_; }
  // A shard's local clock: the time of its last dispatched event.
  SimTime ShardNow(ShardId shard) const;
  // The shard whose callback is executing, or kNoShard.
  ShardId CurrentShard() const { return current_shard_; }

  // Direct access to a shard's Engine core. Components homed on a shard
  // (kernels, disks) hold this reference and schedule on it natively; the
  // lookahead contract applies only to cross-shard traffic, which must go
  // through ScheduleOn/ScheduleAtOn.
  Engine& shard_core(ShardId shard) {
    AURAGEN_CHECK(shard < shards_.size());
    return shards_[shard]->core;
  }

  // Schedules onto `shard`. From inside a callback: same-shard schedules are
  // unrestricted; cross-shard schedules must land at or after the current
  // window's end (model latency >= lookahead guarantees this). From outside
  // Run(), any shard and any time >= Now() is legal.
  EventId ScheduleOn(ShardId shard, SimTime delay, Task fn);
  EventId ScheduleAtOn(ShardId shard, SimTime when, Task fn);

  // Cancels a pending event on `shard`. Inside a callback only the current
  // shard's events may be cancelled (the target shard may already have run
  // past the event in this window).
  // Cancelling an already-fired id is a no-op (see Engine::Cancel).
  void Cancel(ShardId shard, EventId id);

  // Runs windows until every shard is out of events at or before `until`.
  // Returns the number of events dispatched. The global clock advances to
  // `until` only when the run simulated through it (not on Stop() or a
  // dispatch-limit halt).
  uint64_t Run(SimTime until = kSimForever);

  // Run with a stop predicate, evaluated at every window barrier and after
  // every control batch — the deterministic units of progress. A predicate
  // halt leaves the clock at the last completed window (no horizon
  // fast-forward). Returns the number of events dispatched.
  uint64_t Run(SimTime until, const std::function<bool()>& stop_pred);

  // Control events: machine-level actions (fault injection, console input,
  // restore timers) that must observe and mutate state across many shards.
  // They run *between* windows, with every shard clock aligned to the
  // control time (AdvanceTo), so they may touch any shard and fire at a
  // deterministic point. A control fires only once every shard's next
  // pending event is at or after its time. Only legal from outside a shard
  // callback (or from another control).
  void ScheduleControlAt(SimTime when, Task fn);
  void ScheduleControl(SimTime delay, Task fn) { ScheduleControlAt(now_ + delay, std::move(fn)); }

  // Aligns every shard core's clock with the global simulated-through time.
  // Call after Run() before issuing direct shard-core schedules from the
  // outside (e.g. spawning onto a machine that already ran): a core that
  // idled keeps the clock of its last event otherwise, and a delay-relative
  // schedule on it would land in the global past.
  void SyncShardClocks();

  // Requests a halt at the next window barrier (the deterministic unit of
  // progress). Callable from inside callbacks.
  void Stop() { stop_ = true; }

  bool Empty() const;
  uint64_t dispatched() const;

  // Livelock guard, enforced deterministically at window granularity: each
  // window every shard receives the remaining global budget, and the run
  // halts at the first barrier where the total reaches the limit, without
  // moving the clock past that window. 0 disables.
  void set_dispatch_limit(uint64_t limit) { dispatch_limit_ = limit; }
  bool dispatch_limit_hit() const { return limit_hit_; }

  // Master tracer for the deterministic multi-stream merge. Per-shard
  // records are staged locally and folded into this tracer at each barrier
  // in (ts, shard, shard order) order. kEngineDispatch records are staged
  // per dispatched event when the tracer's mask wants them.
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }

  // Records a trace event from inside a callback: staged on the current
  // shard at its local time, merged at the barrier. Outside a callback,
  // falls through to the master tracer at global time.
  void Trace(TraceEventKind kind, ClusterId cluster, uint64_t gpid, uint64_t channel,
             uint64_t a, uint64_t b);

 private:
  // One staged trace record; ts is the recording shard's local clock.
  struct Staged {
    SimTime ts;
    TraceEventKind kind;
    ClusterId cluster;
    uint64_t gpid;
    uint64_t channel;
    uint64_t a;
    uint64_t b;
  };
  struct CrossPost {
    ShardId dst;
    SimTime when;
    Task fn;
  };
  struct Shard {
    Shard() : core(Engine::kNoLogClock) {}
    Engine core;
    std::vector<Staged> staged;    // this window's trace records, ts-ordered
    std::vector<CrossPost> outbox; // this window's cross-shard schedules
  };
  // Merge key for the barrier trace merge (ts, shard, intra-shard order).
  struct MergeRef {
    SimTime ts;
    uint32_t shard;
    uint32_t index;
  };

  void RunShardWindow(ShardId shard, SimTime window_end);
  // Merges the staged trace records and drains the outboxes of the shards
  // in ran_, the only shards that can have any.
  void BarrierDrain();
  // Fires every control scheduled at `at` (in insertion order), with all
  // shard clocks advanced to `at` first.
  void RunControlsAt(SimTime at);

  const SimTime lookahead_;
  std::vector<std::unique_ptr<Shard>> shards_;
  ShardId current_shard_ = kNoShard;  // shard whose callback is running

  SimTime now_ = 0;
  uint64_t dispatch_limit_ = 0;
  uint64_t total_dispatched_ = 0;
  bool limit_hit_ = false;
  SimTime active_window_end_ = 0;    // immutable while a window executes
  uint64_t window_budget_ = 0;       // per-shard dispatch budget this window
  bool stage_dispatch_trace_ = false;
  bool stop_ = false;
  Tracer* tracer_ = nullptr;
  std::vector<MergeRef> merge_scratch_;
  std::vector<ShardId> ran_;  // shards that ran this window, ascending
  // Pending control events, fired between windows. multimap preserves
  // insertion order among equal times.
  std::multimap<SimTime, Task> controls_;
};

}  // namespace auragen

#endif  // AURAGEN_SRC_SIM_SHARDED_ENGINE_H_
