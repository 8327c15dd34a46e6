// Topology: the validated description of the machine's intercluster fabric.
//
// The paper fixes one dual bus carrying 2..32 clusters (§5.1, §7.1). The
// segmented fabric keeps that machine as the *segment* — each segment is a
// paper-faithful dual bus with 2..32 member clusters — and bridges segments
// with store-and-forward switch nodes (switch_node.h) so the whole machine
// scales to kMaxClusters. A Topology lists the segments in cluster order
// (segment 0 owns clusters [0, n0), segment 1 owns [n0, n0+n1), ...), the
// per-segment BusConfig, and the switch forwarding latency.
//
// SystemConfig::topology is the machine's only shape: the kernels, the
// Fabric and the server placement all read their cluster
// count and bus costs from it, and MachineOptions::Validate() runs
// Validate() below before anything else. The paper's machine is
// SingleSegment(n).

#ifndef AURAGEN_SRC_BUS_TOPOLOGY_H_
#define AURAGEN_SRC_BUS_TOPOLOGY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/bus/frame.h"
#include "src/bus/intercluster_bus.h"

namespace auragen {

// One dual-bus segment: a paper-faithful 2..32-cluster machine.
struct SegmentConfig {
  uint32_t num_clusters = 2;
  BusConfig bus;
};

struct Topology {
  // Segments in cluster order: segment s owns the next segments[s]
  // .num_clusters cluster ids after its predecessors.
  std::vector<SegmentConfig> segments;

  // Store-and-forward cost of one switch hop (segment bus -> trunk, or
  // trunk -> segment bus). A cross-segment frame pays two hops on top of
  // its origin-bus transmission.
  SimTime switch_latency_us = 4;

  // --- factories ---
  // The paper's machine (§7.1): one segment, every cluster on one dual bus.
  static Topology SingleSegment(uint32_t num_clusters, BusConfig bus = BusConfig{});
  // `num_segments` equal segments of `clusters_per_segment` each.
  static Topology Uniform(uint32_t num_segments, uint32_t clusters_per_segment,
                          BusConfig bus = BusConfig{});

  // --- fluent mutators (MachineOptions idiom) ---
  Topology& WithSegment(uint32_t num_clusters, BusConfig bus = BusConfig{}) {
    segments.push_back(SegmentConfig{num_clusters, bus});
    return *this;
  }
  Topology& WithSwitchLatency(SimTime us) {
    switch_latency_us = us;
    return *this;
  }

  // --- derived shape ---
  uint32_t num_segments() const { return static_cast<uint32_t>(segments.size()); }
  uint32_t num_clusters() const;
  SegmentId segment_of(ClusterId c) const;
  ClusterId segment_base(SegmentId s) const;   // first cluster id of segment s
  uint32_t segment_size(SegmentId s) const { return segments[s].num_clusters; }
  ClusterMask segment_mask(SegmentId s) const;
  const BusConfig& bus_of(ClusterId c) const { return segments[segment_of(c)].bus; }

  // "" when valid; otherwise an actionable diagnostic. Valid means: at least
  // one segment, every segment in the paper's 2..32 range, and the total
  // within kMaxClusters.
  std::string Validate() const;
};

}  // namespace auragen

#endif  // AURAGEN_SRC_BUS_TOPOLOGY_H_
