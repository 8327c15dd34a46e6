#include "src/bus/fabric.h"

#include <algorithm>
#include <utility>

#include "src/base/log.h"

namespace auragen {

Fabric::Fabric(Engine& engine, const Topology& topology)
    : engine_(engine), topology_(topology), num_clusters_(topology.num_clusters()) {
  if (std::string err = topology_.Validate(); !err.empty()) {
    AURAGEN_PANIC("invalid Topology: " + err);
  }
  BuildSegments();
}

void Fabric::BuildSegments() {
  const uint32_t n_seg = topology_.num_segments();
  const bool bridged = n_seg > 1;
  for (SegmentId s = 0; s < n_seg; ++s) {
    segment_masks_.push_back(topology_.segment_mask(s));
    BusBinding binding;
    binding.segment = s;
    // Single segment: the default (empty = all-local) mask and the 1,2,3,...
    // frame-id sequence reproduce the pre-fabric bus bit for bit.
    if (bridged) {
      binding.local = segment_masks_[s];
      binding.frame_id_base = 1 + s;
      binding.frame_id_stride = n_seg;
    }
    buses_.push_back(std::make_unique<InterclusterBus>(
        engine_, topology_.segments[s].bus, num_clusters_, binding));
  }
  if (bridged) {
    trunk_held_.resize(n_seg);
    for (SegmentId s = 0; s < n_seg; ++s) {
      switches_.push_back(std::make_unique<SwitchNode>(*this, s));
      buses_[s]->set_switch(switches_[s].get());
    }
  }
}

void Fabric::AttachEndpoint(ClusterId cluster, BusEndpoint* endpoint) {
  AURAGEN_CHECK(cluster < num_clusters_);
  // A (re)starting cluster is no longer fenced anywhere: its first frames
  // may reach a peer before its first heartbeat does.
  for (auto& bus : buses_) {
    bus->Reconnect(cluster);
  }
  // Every segment bus carries the full endpoint table, but a cluster only
  // ever receives from its own segment's bus — deliveries are gated by the
  // local member mask.
  buses_[segment_of(cluster)]->AttachEndpoint(cluster, endpoint);
}

void Fabric::DetachEndpoint(ClusterId cluster) {
  AURAGEN_CHECK(cluster < num_clusters_);
  buses_[segment_of(cluster)]->DetachEndpoint(cluster);
}

bool Fabric::IsAttached(ClusterId cluster) const {
  return cluster < num_clusters_ && buses_[topology_.segment_of(cluster)]->IsAttached(cluster);
}

void Fabric::Transmit(ClusterId src, ClusterMask targets, Bytes payload, bool urgent,
                      ClusterId fence) {
  AURAGEN_CHECK(src < num_clusters_);
  buses_[segment_of(src)]->Transmit(src, targets, std::move(payload), urgent, fence);
}

void Fabric::FailLine(int line) {
  for (auto& bus : buses_) {
    bus->FailLine(line);
  }
}

void Fabric::RestoreLine(int line) {
  for (auto& bus : buses_) {
    bus->RestoreLine(line);
  }
}

void Fabric::InjectAtomicityViolation(AtomicityViolation mode, double probability,
                                      uint64_t seed) {
  for (SegmentId s = 0; s < buses_.size(); ++s) {
    buses_[s]->InjectAtomicityViolation(mode, probability, seed + s);
  }
}

BusStats Fabric::stats() const {
  BusStats agg;
  for (const auto& bus : buses_) {
    BusStats s = bus->stats();
    agg.frames_sent += s.frames_sent;
    agg.deliveries += s.deliveries;
    agg.bytes_sent += s.bytes_sent;
    agg.failovers += s.failovers;
    agg.busy_us += s.busy_us;
    agg.failover_wait_us += s.failover_wait_us;
    agg.max_frame_us = std::max(agg.max_frame_us, s.max_frame_us);
    agg.max_frame_bytes = std::max(agg.max_frame_bytes, s.max_frame_bytes);
  }
  return agg;
}

void Fabric::set_tracer(Tracer* tracer) {
  tracer_ = tracer;
  for (auto& bus : buses_) {
    bus->set_tracer(tracer);
  }
}

void Fabric::FailSwitch(SegmentId s) {
  AURAGEN_CHECK(s < switches_.size()) << "no switch on a single-segment fabric";
  switches_[s]->Fail();
}

void Fabric::RestoreSwitch(SegmentId s) {
  AURAGEN_CHECK(s < switches_.size()) << "no switch on a single-segment fabric";
  switches_[s]->Restore();
  // Inbound copies that arrived at the trunk during the partition drain in
  // trunk order. The posts carry the full store-and-forward latency and are
  // scheduled now, so the drain lands ahead of any copy sequenced after the
  // restore.
  auto& held = trunk_held_[s];
  while (!held.empty()) {
    auto [frame, urgent] = std::move(held.front());
    held.pop_front();
    PostToSegment(s, std::move(frame), urgent);
  }
}

bool Fabric::SwitchOk(SegmentId s) const {
  return s < switches_.size() ? switches_[s]->ok() : true;
}

const SwitchStats& Fabric::switch_stats(SegmentId s) const {
  AURAGEN_CHECK(s < switches_.size());
  return switches_[s]->stats();
}

void Fabric::PostToTrunk(Frame frame, bool urgent) {
  engine_.Schedule(topology_.switch_latency_us,
                   [this, frame = std::move(frame), urgent] { TrunkAccept(frame, urgent); });
}

void Fabric::TrunkAccept(const Frame& frame, bool urgent) {
  // One totally-ordered pass: the sequence number is assigned here, and
  // every target segment receives its copy in this order (FIFO posts with
  // equal latency; FIFO re-injection at the far end).
  const uint64_t seq = ++next_trunk_seq_;
  for (SegmentId s = 0; s < buses_.size(); ++s) {
    ClusterMask local = frame.targets & segment_masks_[s];
    if (!local.any()) {
      continue;
    }
    Frame copy = frame;
    copy.targets = local;
    ++trunk_forwards_;
    if (tracer_ != nullptr) {
      tracer_->Record(TraceEventKind::kSwitchFwd, frame.src, 0, s, frame.frame_id, seq);
    }
    if (!switches_[s]->ok()) {
      if (tracer_ != nullptr) {
        tracer_->Record(TraceEventKind::kSwitchHeld, frame.src, 0, s, frame.frame_id, 1);
      }
      trunk_held_[s].emplace_back(std::move(copy), urgent);
      continue;
    }
    PostToSegment(s, std::move(copy), urgent);
  }
}

void Fabric::PostToSegment(SegmentId dest, Frame frame, bool urgent) {
  engine_.Schedule(topology_.switch_latency_us, [this, dest, frame = std::move(frame), urgent] {
    switches_[dest]->Inject(frame, urgent);
  });
}

}  // namespace auragen
