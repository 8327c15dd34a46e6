// Wire-level frame carried by the intercluster bus.
//
// The bus is payload-agnostic: it moves opaque bytes from one cluster to a
// *set* of clusters. The paper's machine is 2..32 clusters on one dual bus
// (§7.1); the segmented fabric (src/bus/fabric.h) scales that to
// kMaxClusters across bridged segments, so the destination set is a 256-bit
// mask. Message semantics — three-way routing, sync, crash notices — live
// in src/core; the bus provides only the two atomicity guarantees of §5.1.

#ifndef AURAGEN_SRC_BUS_FRAME_H_
#define AURAGEN_SRC_BUS_FRAME_H_

#include <cstdint>

#include "src/base/codec.h"
#include "src/base/types.h"

namespace auragen {

// Fabric-wide cluster ceiling (per-segment the paper's 2..32 still holds;
// Topology::Validate enforces it).
inline constexpr uint32_t kMaxClusters = 256;

// Set of destination clusters, bit i = cluster i. Value-semantic fixed-width
// bitset: the implicit uint64_t constructor keeps historical call sites
// (`ClusterMask m = 0;`, `m != 0`) compiling unchanged.
struct ClusterMask {
  uint64_t w[4] = {0, 0, 0, 0};

  constexpr ClusterMask() = default;
  constexpr ClusterMask(uint64_t low) : w{low, 0, 0, 0} {}  // NOLINT(google-explicit-constructor)

  constexpr bool any() const { return (w[0] | w[1] | w[2] | w[3]) != 0; }
  constexpr bool none() const { return !any(); }
  constexpr uint32_t count() const {
    uint32_t n = 0;
    for (int i = 0; i < 4; ++i) {
      uint64_t v = w[i];
      while (v != 0) {
        v &= v - 1;
        ++n;
      }
    }
    return n;
  }

  constexpr ClusterMask& operator|=(const ClusterMask& o) {
    for (int i = 0; i < 4; ++i) w[i] |= o.w[i];
    return *this;
  }
  constexpr ClusterMask& operator&=(const ClusterMask& o) {
    for (int i = 0; i < 4; ++i) w[i] &= o.w[i];
    return *this;
  }
  friend constexpr ClusterMask operator|(ClusterMask a, const ClusterMask& b) { return a |= b; }
  friend constexpr ClusterMask operator&(ClusterMask a, const ClusterMask& b) { return a &= b; }
  friend constexpr ClusterMask operator~(ClusterMask a) {
    for (int i = 0; i < 4; ++i) a.w[i] = ~a.w[i];
    return a;
  }
  friend constexpr bool operator==(const ClusterMask& a, const ClusterMask& b) {
    return a.w[0] == b.w[0] && a.w[1] == b.w[1] && a.w[2] == b.w[2] && a.w[3] == b.w[3];
  }
  friend constexpr bool operator!=(const ClusterMask& a, const ClusterMask& b) {
    return !(a == b);
  }
};

inline constexpr ClusterMask MaskOf(ClusterId c) {
  ClusterMask m;
  m.w[(c >> 6) & 3] = uint64_t{1} << (c & 63);
  return m;
}

inline constexpr bool MaskHas(const ClusterMask& m, ClusterId c) {
  return ((m.w[(c >> 6) & 3] >> (c & 63)) & 1) != 0;
}

// Clusters [0, n): the broadcast domain of an n-cluster machine or the
// member set of a fabric segment starting at cluster 0.
inline constexpr ClusterMask MaskOfRange(ClusterId first, uint32_t n) {
  ClusterMask m;
  for (uint32_t i = 0; i < n; ++i) {
    m |= MaskOf(first + i);
  }
  return m;
}

struct Frame {
  uint64_t frame_id = 0;       // assigned by the bus, for tracing
  ClusterId src = kNoCluster;  // transmitting cluster
  ClusterMask targets;         // receivers (may include src: local delivery
                               // happens after successful transmission, §7.4.2)
  SimTime sent_at = 0;         // bus-accept time; observability only, not on
                               // the wire (excluded from WireSize)
  // The cluster a crash notice accuses (§7.10.1), else kNoCluster. Not on
  // the wire: the bus fences the accused when it accepts the notice.
  ClusterId fence = kNoCluster;
  // Shared immutable payload (DESIGN.md §13): one encoded buffer serves the
  // bus queue, every per-destination delivery, and any deferred executive
  // work. Copying a Frame bumps a refcount; the bytes are copied only where
  // a queue takes ownership.
  PayloadPtr payload;

  size_t payload_size() const { return payload == nullptr ? 0 : payload->size(); }
  size_t WireSize() const { return payload_size() + kHeaderBytes; }

  static constexpr size_t kHeaderBytes = 16;
};

}  // namespace auragen

#endif  // AURAGEN_SRC_BUS_FRAME_H_
