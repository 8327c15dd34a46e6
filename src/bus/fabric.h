// Fabric: the segmented intercluster interconnect — per-segment dual buses
// (intercluster_bus.h) bridged by store-and-forward switch nodes
// (switch_node.h) over a hub trunk, described and validated by a Topology.
//
// Routing is hierarchical. A frame whose targets stay inside the sender's
// segment never leaves its segment bus — the paper's machine, verbatim. A
// frame whose targets span segments is forwarded exactly once to the trunk
// sequencer, which emits exactly one segment-masked copy per *target*
// segment (origin included); each copy re-enters its destination segment's
// bus arbitration after the switch's store-and-forward latency.
//
// Why the trunk sequences cross-segment frames for every target segment,
// including the origin: §5.1's second property (no interleaving) must hold
// pairwise across the whole machine, because a primary and its backup may
// sit in different segments and both must see their shared multicasts in
// the same order. With per-segment buses alone, a multicast local to
// segment X and one local to segment Y that both span X and Y could arrive
// in opposite orders at the two ends. Routing every multi-segment multicast
// through one totally-ordered trunk — the fixed-sequencer scheme of the
// Generic Multicast literature — restores the invariant: any two frames
// sharing a destination are either both ordered by that destination's
// segment bus (same-segment traffic) or both ordered by the trunk, and
// trunk order is preserved into every segment by FIFO, equal-latency posts.
//
// Single-segment topologies build exactly one bus, no switches and no
// trunk, with the pre-fabric frame-id sequence.

#ifndef AURAGEN_SRC_BUS_FABRIC_H_
#define AURAGEN_SRC_BUS_FABRIC_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <utility>
#include <vector>

#include "src/bus/intercluster_bus.h"
#include "src/bus/switch_node.h"
#include "src/bus/topology.h"
#include "src/sim/engine.h"

namespace auragen {

class Fabric {
 public:
  Fabric(Engine& engine, const Topology& topology);

  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  // --- the InterclusterBus surface kernels and servers use (env.h) ---
  void AttachEndpoint(ClusterId cluster, BusEndpoint* endpoint);
  void DetachEndpoint(ClusterId cluster);
  bool IsAttached(ClusterId cluster) const;
  void Transmit(ClusterId src, ClusterMask targets, Bytes payload, bool urgent = false,
                ClusterId fence = kNoCluster);

  // Legacy machine-wide dual-line faults: the line fails (or returns) on
  // every segment at once, so the pre-fabric bus-outage scenarios keep their
  // meaning on any topology and `line_ok` stays consistent across segments.
  void FailLine(int line);
  void RestoreLine(int line);
  bool line_ok(int line) const { return buses_[0]->line_ok(line); }

  // Applied to every segment bus (segment 0 only would silently weaken
  // multi-segment negative tests).
  void InjectAtomicityViolation(AtomicityViolation mode, double probability, uint64_t seed);

  // Aggregated over every segment bus: counters add, the longest frame is
  // the maximum.
  BusStats stats() const;
  void set_tracer(Tracer* tracer);

  // --- segment-aware surface ---
  uint32_t num_segments() const { return static_cast<uint32_t>(buses_.size()); }
  SegmentId segment_of(ClusterId c) const { return topology_.segment_of(c); }
  BusStats segment_stats(SegmentId s) const { return buses_[s]->stats(); }

  // Switch faults. Failing a segment's switch partitions it from the
  // fabric: its outbound cross-segment frames hold at the switch, its
  // inbound copies hold at the trunk; both drain FIFO on restore, so no
  // frame is dropped or reordered. A single-segment fabric has no switches;
  // s is checked.
  void FailSwitch(SegmentId s);
  void RestoreSwitch(SegmentId s);
  bool SwitchOk(SegmentId s) const;
  const SwitchStats& switch_stats(SegmentId s) const;

  // Cross-segment copies emitted by the trunk (== kSwitchFwd records).
  uint64_t trunk_forwards() const { return trunk_forwards_; }
  SimTime switch_latency_us() const { return topology_.switch_latency_us; }

  // --- SwitchNode backend (not for component use) ---
  // Egress: schedules TrunkAccept after the store-and-forward hop.
  void PostToTrunk(Frame frame, bool urgent);
  InterclusterBus& bus_of_segment(SegmentId s) { return *buses_[s]; }
  Tracer* tracer() { return tracer_; }

 private:
  void BuildSegments();
  // Trunk sequencer: orders the frame and emits one masked copy per target
  // segment.
  void TrunkAccept(const Frame& frame, bool urgent);
  // Schedules SwitchNode::Inject on the destination segment after the
  // store-and-forward hop.
  void PostToSegment(SegmentId dest, Frame frame, bool urgent);

  Engine& engine_;
  Topology topology_;
  uint32_t num_clusters_ = 0;
  std::vector<ClusterMask> segment_masks_;
  std::vector<std::unique_ptr<InterclusterBus>> buses_;
  std::vector<std::unique_ptr<SwitchNode>> switches_;  // empty when 1 segment

  uint64_t next_trunk_seq_ = 0;
  uint64_t trunk_forwards_ = 0;
  std::vector<std::deque<std::pair<Frame, bool>>> trunk_held_;  // per dest segment

  Tracer* tracer_ = nullptr;
};

}  // namespace auragen

#endif  // AURAGEN_SRC_BUS_FABRIC_H_
