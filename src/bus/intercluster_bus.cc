#include "src/bus/intercluster_bus.h"

#include <algorithm>
#include <utility>

#include "src/base/log.h"
#include "src/bus/switch_node.h"

namespace auragen {

namespace {

// A default (empty) binding mask means every cluster is a local member.
ClusterMask ResolveLocal(const BusBinding& binding, uint32_t num_clusters) {
  return binding.local.any() ? binding.local : MaskOfRange(0, num_clusters);
}

}  // namespace

InterclusterBus::InterclusterBus(Engine& engine, BusConfig config, uint32_t num_clusters,
                                 BusBinding binding)
    : engine_(engine),
      config_(config),
      binding_(binding),
      local_mask_(ResolveLocal(binding, num_clusters)),
      endpoints_(num_clusters, nullptr),
      next_frame_id_(binding.frame_id_base) {
  AURAGEN_CHECK(num_clusters >= 2 && num_clusters <= kMaxClusters)
      << "the fabric carries 2..256 clusters, got" << num_clusters;
}

void InterclusterBus::AttachEndpoint(ClusterId cluster, BusEndpoint* endpoint) {
  AURAGEN_CHECK(cluster < endpoints_.size());
  endpoints_[cluster] = endpoint;
}

void InterclusterBus::DetachEndpoint(ClusterId cluster) {
  AURAGEN_CHECK(cluster < endpoints_.size());
  endpoints_[cluster] = nullptr;
}

bool InterclusterBus::IsAttached(ClusterId cluster) const {
  return cluster < endpoints_.size() && endpoints_[cluster] != nullptr;
}

void InterclusterBus::Transmit(ClusterId src, ClusterMask targets, Bytes payload, bool urgent,
                               ClusterId fence) {
  AURAGEN_CHECK(src < endpoints_.size());
  AURAGEN_CHECK(targets != 0) << "frame with no destinations";
  Frame frame;
  frame.src = src;
  frame.targets = targets;
  frame.fence = fence;
  frame.payload = MakePayload(std::move(payload));
  AcceptFrame(std::move(frame), urgent);
}

void InterclusterBus::ForwardAccept(Frame frame, bool urgent) {
  AcceptFrame(std::move(frame), urgent);
}

void InterclusterBus::Reconnect(ClusterId cluster) { fenced_ &= ~MaskOf(cluster); }

void InterclusterBus::AcceptFrame(Frame frame, bool urgent) {
  if (MaskHas(fenced_, frame.src)) {
    return;
  }
  // A notice that leaves for the trunk is delivered, and fences, only when
  // its copy comes back in trunk order (fabric.h).
  if (frame.fence != kNoCluster && !ForTrunk(frame)) {
    fenced_ |= MaskOf(frame.fence);
  }
  frame.frame_id = next_frame_id_;
  next_frame_id_ += binding_.frame_id_stride;
  frame.sent_at = engine_.Now();
  if (tracer_ != nullptr) {
    tracer_->Record(TraceEventKind::kBusTx, frame.src, 0, 0, frame.frame_id,
                    frame.WireSize());
  }
  if (urgent) {
    urgent_pending_.push_back(std::move(frame));
  } else {
    pending_.push_back(std::move(frame));
  }
  if (!transmitting_) {
    StartNext();
  }
}

void InterclusterBus::StartNext() {
  if (pending_.empty() && urgent_pending_.empty()) {
    transmitting_ = false;
    return;
  }
  if (alive_lines() == 0) {
    // Both lines dead: frames stay queued until a line is restored. A dual
    // bus failing twice is a double fault, outside the tolerated model
    // (§3.1), but the fault campaign exercises it.
    transmitting_ = false;
    return;
  }
  transmitting_ = true;
  const bool urgent = !urgent_pending_.empty();
  std::deque<Frame>& lane = urgent ? urgent_pending_ : pending_;
  InFlight fl;
  fl.urgent = urgent;
  fl.frame = std::move(lane.front());
  lane.pop_front();
  fl.cost = config_.FrameTime(fl.frame.WireSize());
  if (line_ok_[0]) {
    fl.line = 0;
  } else {
    // The preferred line is down: the low-level protocol times out and
    // retries on line 1. The wait is accounted separately from transmit-busy
    // time — the line is idle while the sender waits out the timeout.
    fl.line = 1;
    fl.wait = config_.line_failover_timeout_us;
  }
  const SimTime total = fl.cost + fl.wait;
  in_flight_ = std::move(fl);
  in_flight_->completion = engine_.Schedule(total, [this] { OnTransmitComplete(); });
}

void InterclusterBus::OnTransmitComplete() {
  AURAGEN_CHECK(in_flight_.has_value());
  InFlight fl = std::move(*in_flight_);
  in_flight_.reset();
  // Accounting happens at completion: only a frame that actually crossed a
  // line is charged.
  stats_.busy_us += fl.cost;
  if (fl.wait > 0) {
    stats_.failover_wait_us += fl.wait;
    ++stats_.failovers;
  }
  ++stats_.frames_sent;
  stats_.bytes_sent += fl.frame.payload_size();
  stats_.max_frame_us = std::max(stats_.max_frame_us, fl.cost);
  stats_.max_frame_bytes = std::max<uint64_t>(stats_.max_frame_bytes, fl.frame.WireSize());
  if (ForTrunk(fl.frame)) {
    // Multi-segment multicast: no destination — not even a local member —
    // is delivered from this transmission. The whole frame goes to the
    // fabric's trunk sequencer, which re-injects one copy per *target*
    // segment (the origin segment included), so every delivery of a
    // cross-segment frame is ordered by its destination segment's bus in
    // trunk order. That is what keeps §5.1's consistent total order when a
    // primary and its backup sit in different segments (fabric.h).
    switch_->ForwardFromBus(fl.frame, fl.urgent);
  } else {
    Deliver(fl.frame);
  }
  StartNext();
}

void InterclusterBus::Deliver(const Frame& frame) {
  if (violation_ == AtomicityViolation::kInterleave &&
      violation_rng_.Chance(violation_probability_)) {
    // Spread this frame's per-destination deliveries over time so another
    // frame can land in between — precisely what §5.1 forbids.
    for (ClusterId c = 0; c < endpoints_.size(); ++c) {
      if (!MaskHas(frame.targets, c) || !MaskHas(local_mask_, c)) {
        continue;
      }
      SimTime jitter = violation_rng_.Range(0, 3 * config_.arbitration_us + 5);
      // Each per-destination closure carries its own Frame copy, but the
      // payload is shared — allocations no longer scale with |targets|.
      engine_.Schedule(jitter, [this, frame, c] { DeliverTo(frame, c); });
    }
    return;
  }

  for (ClusterId c = 0; c < endpoints_.size(); ++c) {
    if (!MaskHas(frame.targets, c) || !MaskHas(local_mask_, c)) {
      continue;
    }
    if (violation_ == AtomicityViolation::kDropPerDestination &&
        violation_rng_.Chance(violation_probability_)) {
      ALOG_DEBUG() << "bus: injected drop of frame " << frame.frame_id << " at cluster " << c;
      continue;
    }
    DeliverTo(frame, c);
  }
}

void InterclusterBus::DeliverTo(const Frame& frame, ClusterId c) {
  if (endpoints_[c] == nullptr) {
    return;
  }
  ++stats_.deliveries;
  if (tracer_ != nullptr) {
    tracer_->Record(TraceEventKind::kBusRx, c, 0, 0, frame.frame_id,
                    engine_.Now() - frame.sent_at);
  }
  endpoints_[c]->OnFrame(frame);
}

void InterclusterBus::FailLine(int line) {
  AURAGEN_CHECK(line == 0 || line == 1);
  line_ok_[line] = false;
  if (in_flight_.has_value() && in_flight_->line == line) {
    // The frame on the wire dies with its line: abort the completion event,
    // return the frame to the front of its lane (nothing was delivered, so
    // nothing is charged), and retry — on the surviving line if one is up,
    // else the frame waits for a restore.
    engine_.Cancel(in_flight_->completion);
    InFlight fl = std::move(*in_flight_);
    in_flight_.reset();
    (fl.urgent ? urgent_pending_ : pending_).push_front(std::move(fl.frame));
    transmitting_ = false;
    StartNext();
  }
}

void InterclusterBus::RestoreLine(int line) {
  AURAGEN_CHECK(line == 0 || line == 1);
  line_ok_[line] = true;
  // Restart the pump when *either* lane has queued frames. Checking only
  // pending_ left urgent heartbeats stranded after a dual-line outage —
  // exactly the liveness traffic the dual bus exists to protect (§7.10).
  if (!transmitting_ && (!pending_.empty() || !urgent_pending_.empty())) {
    StartNext();
  }
}

void InterclusterBus::InjectAtomicityViolation(AtomicityViolation mode, double probability,
                                               uint64_t seed) {
  violation_ = mode;
  violation_probability_ = probability;
  violation_rng_ = Rng(seed);
}

}  // namespace auragen
