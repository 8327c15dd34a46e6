#include "src/sim/engine.h"

#include "src/base/log.h"

namespace auragen {

Engine::Engine() : owns_log_clock_(true) {
  Logger::Get().set_time_source([this] { return now_; });
}

Engine::Engine(NoLogClockTag) {}

Engine::~Engine() {
  if (owns_log_clock_) {
    Logger::Get().set_time_source({});
  }
}

EventId Engine::Schedule(SimTime delay, Task fn) {
  return ScheduleAt(now_ + delay, std::move(fn));
}

EventId Engine::ScheduleAt(SimTime when, Task fn) {
  AURAGEN_CHECK(when >= now_) << "scheduling into the past:" << when << "<" << now_;
  uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slots_[slot].task = std::move(fn);
  } else {
    slot = static_cast<uint32_t>(slots_.size());
    slots_.push_back(Slot{std::move(fn), 1});
  }
  queue_.push(Event{when, next_seq_++, slot, slots_[slot].gen});
  ++live_events_;
  return MakeId(slot, slots_[slot].gen);
}

void Engine::Cancel(EventId id) {
  if (id == kNoEvent) {
    return;
  }
  uint32_t slot = static_cast<uint32_t>(id >> 32) - 1;
  uint32_t gen = static_cast<uint32_t>(id);
  if (slot >= slots_.size() || slots_[slot].gen != gen) {
    return;  // already fired, already cancelled, or not ours: no-op
  }
  // Kill the pending event in place: destroy the callable now (it may pin
  // buffers), advance the generation so the heap entry is skipped when it
  // surfaces. The slot returns to the free list at that point — not here —
  // so each slot keeps exactly one outstanding heap entry.
  slots_[slot].task = Task();
  ++slots_[slot].gen;
  --live_events_;
}

bool Engine::Step(SimTime until) {
  while (!queue_.empty()) {
    if (queue_.top().when > until || dispatch_limit_hit()) {
      return false;
    }
    Event ev = queue_.top();
    queue_.pop();
    if (slots_[ev.slot].gen != ev.gen) {
      // Cancelled while pending; the slot is free for reuse now that its
      // heap entry is gone.
      free_slots_.push_back(ev.slot);
      continue;
    }
    --live_events_;
    Task fn = std::move(slots_[ev.slot].task);
    ++slots_[ev.slot].gen;
    free_slots_.push_back(ev.slot);
    now_ = ev.when;
    ++dispatched_;
    last_dispatched_ = MakeId(ev.slot, ev.gen);
    fn();
    return true;
  }
  return false;
}

SimTime Engine::NextEventTime() const {
  // Stale (cancelled) entries can only sit at the top transiently — they are
  // popped by Step as they surface — but a caller may probe before any Step.
  // The top entry's time is still a lower bound; for exactness, skip ahead
  // only when the engine has no live work at all.
  if (live_events_ == 0) {
    return kSimForever;
  }
  AURAGEN_CHECK(!queue_.empty());
  return queue_.top().when;
}

uint64_t Engine::Run(SimTime until) {
  uint64_t n = 0;
  stop_requested_ = false;
  while (!stop_requested_ && Step(until)) {
    ++n;
  }
  // Advance the clock to `until` when the horizon, not queue exhaustion,
  // ended the run — callers treat Run(t) as "simulate through t". A run cut
  // short by Stop() or the dispatch-limit livelock guard did NOT simulate
  // through the horizon, so its clock stays at the last earned instant
  // (fault-campaign invariant checks compare against this clock).
  if (until != kSimForever && now_ < until && !stop_requested_ && !dispatch_limit_hit()) {
    now_ = until;
  }
  return n;
}

}  // namespace auragen
