// Fundamental identifier and time types shared by every Auragen subsystem.
//
// The paper's machine is 2..32 clusters, each running an independent kernel.
// Identifiers that cross cluster boundaries (global process ids, channel
// names) must be globally unique without inter-kernel coordination (§7.5.1),
// so they embed the allocating cluster's id in their high bits.

#ifndef AURAGEN_SRC_BASE_TYPES_H_
#define AURAGEN_SRC_BASE_TYPES_H_

#include <cstdint>
#include <functional>
#include <string>

namespace auragen {

// Index of a processing unit ("cluster", §7.1). Dense, 0-based.
using ClusterId = uint32_t;
inline constexpr ClusterId kNoCluster = 0xffffffffu;

// Index of a fabric segment: one paper-faithful dual bus bridged to the
// others by store-and-forward switch nodes (src/bus/topology.h). Dense,
// 0-based, in cluster order.
using SegmentId = uint32_t;
inline constexpr SegmentId kNoSegment = 0xffffffffu;

// Simulated time in microseconds since machine power-on.
using SimTime = uint64_t;
inline constexpr SimTime kSimForever = ~SimTime{0};

// Globally unique process id (§7.5.1: "we have made the process id into a
// globally unique identifier"). High 16 bits: allocating cluster; low 48
// bits: per-cluster counter. A process keeps its gpid across recovery.
struct Gpid {
  uint64_t value = 0;

  static constexpr Gpid Make(ClusterId cluster, uint64_t counter) {
    return Gpid{(static_cast<uint64_t>(cluster) << 48) | (counter & 0xffffffffffffull)};
  }
  constexpr ClusterId origin_cluster() const { return static_cast<ClusterId>(value >> 48); }
  constexpr bool valid() const { return value != 0; }

  friend constexpr bool operator==(Gpid a, Gpid b) { return a.value == b.value; }
  friend constexpr bool operator!=(Gpid a, Gpid b) { return a.value != b.value; }
  friend constexpr bool operator<(Gpid a, Gpid b) { return a.value < b.value; }
};
inline constexpr Gpid kNoGpid{};

// Globally unique channel id, allocated by the file server when it pairs two
// openers of the same name (§7.4.1). Both ends and both backups of a channel
// share the ChannelId; routing-table entries are addressed by (cluster,
// ChannelId, endpoint).
struct ChannelId {
  uint64_t value = 0;

  constexpr bool valid() const { return value != 0; }
  friend constexpr bool operator==(ChannelId a, ChannelId b) { return a.value == b.value; }
  friend constexpr bool operator!=(ChannelId a, ChannelId b) { return a.value != b.value; }
  friend constexpr bool operator<(ChannelId a, ChannelId b) { return a.value < b.value; }
};
inline constexpr ChannelId kNoChannel{};

// UNIX-style file descriptor returned by open (§7.4.1).
using Fd = int32_t;
inline constexpr Fd kBadFd = -1;

// Page number within a process's virtual address space.
using PageNum = uint32_t;

// Disk block address.
using BlockNum = uint32_t;

// How a process is backed up after a crash (§7.3).
enum class BackupMode : uint8_t {
  kQuarterback,  // backed up until a crash; no new backup afterwards (default)
  kHalfback,     // new backup only when the original cluster returns (peripheral servers)
  kFullback,     // new backup created before the new primary runs (needs >= 3 clusters)
};

std::string GpidStr(Gpid gpid);

inline std::string GpidStr(Gpid gpid) {
  if (!gpid.valid()) {
    return "pid<none>";
  }
  return "pid<" + std::to_string(gpid.origin_cluster()) + "." +
         std::to_string(gpid.value & 0xffffffffffffull) + ">";
}

}  // namespace auragen

template <>
struct std::hash<auragen::Gpid> {
  size_t operator()(auragen::Gpid g) const noexcept { return std::hash<uint64_t>{}(g.value); }
};

template <>
struct std::hash<auragen::ChannelId> {
  size_t operator()(auragen::ChannelId c) const noexcept { return std::hash<uint64_t>{}(c.value); }
};

#endif  // AURAGEN_SRC_BASE_TYPES_H_
