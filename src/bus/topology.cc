#include "src/bus/topology.h"

#include <string>

namespace auragen {

Topology Topology::SingleSegment(uint32_t num_clusters, BusConfig bus) {
  Topology t;
  t.segments.push_back(SegmentConfig{num_clusters, bus});
  return t;
}

Topology Topology::Uniform(uint32_t num_segments, uint32_t clusters_per_segment,
                           BusConfig bus) {
  Topology t;
  for (uint32_t s = 0; s < num_segments; ++s) {
    t.segments.push_back(SegmentConfig{clusters_per_segment, bus});
  }
  return t;
}

uint32_t Topology::num_clusters() const {
  uint32_t n = 0;
  for (const SegmentConfig& s : segments) {
    n += s.num_clusters;
  }
  return n;
}

SegmentId Topology::segment_of(ClusterId c) const {
  ClusterId base = 0;
  for (SegmentId s = 0; s < segments.size(); ++s) {
    base += segments[s].num_clusters;
    if (c < base) {
      return s;
    }
  }
  return kNoSegment;
}

ClusterId Topology::segment_base(SegmentId s) const {
  ClusterId base = 0;
  for (SegmentId i = 0; i < s; ++i) {
    base += segments[i].num_clusters;
  }
  return base;
}

ClusterMask Topology::segment_mask(SegmentId s) const {
  return MaskOfRange(segment_base(s), segments[s].num_clusters);
}

std::string Topology::Validate() const {
  if (segments.empty()) {
    return "Topology has no segments";
  }
  for (SegmentId s = 0; s < segments.size(); ++s) {
    const uint32_t n = segments[s].num_clusters;
    if (n < 2 || n > 32) {
      return "segment " + std::to_string(s) + " has " + std::to_string(n) +
             " clusters; a segment is a paper machine, 2..32 (§7.1)";
    }
  }
  if (num_clusters() > kMaxClusters) {
    return "topology exceeds kMaxClusters=" + std::to_string(kMaxClusters) +
           " clusters (got " + std::to_string(num_clusters()) + ")";
  }
  return "";
}

}  // namespace auragen
