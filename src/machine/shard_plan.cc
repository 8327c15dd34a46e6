#include "src/machine/shard_plan.h"

#include <algorithm>
#include <sstream>

#include "src/base/log.h"

namespace auragen {

ShardedEngineOptions ShardPlan::EngineOptions() const {
  ShardedEngineOptions opt;
  opt.num_shards = num_shards;
  opt.lookahead_us = lookahead_us;
  return opt;
}

std::string ShardPlan::Describe() const {
  std::ostringstream os;
  os << "shards=" << num_shards << " (shared=0, clusters=1.." << num_clusters;
  if (num_segments > 1) {
    os << ", segments=" << (num_clusters + 1) << ".." << (num_shards - 1);
  }
  os << ") lookahead=" << lookahead_us << "us";
  return os.str();
}

ShardPlan MakeShardPlan(const Topology& topo, const DiskConfig& disk) {
  AURAGEN_CHECK(topo.num_segments() >= 1) << "a machine needs at least one segment";
  ShardPlan plan;
  plan.num_clusters = topo.num_clusters();
  plan.num_segments = topo.num_segments();
  plan.num_shards = 1 + plan.num_clusters + (plan.num_segments - 1);
  // The soonest any shard can affect another: a cluster reaches its segment
  // shard no earlier than bus arbitration, the shared shard reaches a
  // cluster no earlier than the smaller of a zero-byte bus frame and a disk
  // completion, and on a bridged fabric a segment shard reaches the trunk
  // (and back) no earlier than the switch's store-and-forward latency.
  plan.lookahead_us = disk.seek_us;
  for (const SegmentConfig& seg : topo.segments) {
    plan.lookahead_us = std::min(plan.lookahead_us, seg.bus.arbitration_us);
  }
  if (plan.num_segments > 1) {
    plan.lookahead_us = std::min(plan.lookahead_us, topo.switch_latency_us);
  }
  AURAGEN_CHECK(plan.lookahead_us >= 1)
      << "derived lookahead is zero: a zero-latency bus/disk/switch leaves no "
         "conservative window (raise BusConfig::arbitration_us, "
         "DiskConfig::seek_us, or Topology::switch_latency_us)";
  return plan;
}

}  // namespace auragen
