// SwitchNode: the store-and-forward bridge between one fabric segment's
// dual bus and the fabric trunk (fabric.h).
//
// Egress: the segment bus hands a frame over at transmission-complete time
// when its target set leaves the segment; the switch forwards it to the
// trunk sequencer after the store-and-forward latency. Ingress: the trunk
// posts segment-masked copies back; the switch re-injects them into the
// segment bus's arbitration, so all deliveries inside a segment — local
// traffic and forwarded multicasts alike — share one total order.
//
// A failed switch holds, never drops: egress frames queue FIFO at the
// switch until a restore, preserving §5.1's all-or-none property in the
// eventual sense (a partitioned segment's multicasts are late, not
// partial). Fail/Restore fire only from machine control events (between
// engine windows), so every shard sees the ok flag change at one instant.

#ifndef AURAGEN_SRC_BUS_SWITCH_NODE_H_
#define AURAGEN_SRC_BUS_SWITCH_NODE_H_

#include <cstdint>
#include <deque>

#include "src/bus/frame.h"

namespace auragen {

class Fabric;

struct SwitchStats {
  uint64_t forwarded = 0;        // frames sent up to the trunk
  uint64_t forwarded_bytes = 0;  // payload bytes of those frames
  uint64_t injected = 0;         // trunk copies re-injected into the segment
  uint64_t held = 0;             // frames queued while the switch was failed
};

class SwitchNode {
 public:
  SwitchNode(Fabric& fabric, SegmentId segment)
      : fabric_(fabric), segment_(segment) {}

  // Bus egress hook (runs on the segment's home shard).
  void ForwardFromBus(const Frame& frame, bool urgent);

  // Trunk ingress (runs on the segment's home shard after the trunk's
  // store-and-forward hop). `frame.targets` is already segment-masked.
  void Inject(const Frame& frame, bool urgent);

  // Control-event-only fault hooks. Restore drains the held egress queue
  // FIFO, so the partition reorders nothing.
  void Fail() { ok_ = false; }
  void Restore();
  bool ok() const { return ok_; }

  SegmentId segment() const { return segment_; }
  const SwitchStats& stats() const { return stats_; }

 private:
  struct Held {
    Frame frame;
    bool urgent = false;
  };

  Fabric& fabric_;
  SegmentId segment_;
  bool ok_ = true;
  std::deque<Held> egress_held_;
  SwitchStats stats_;
};

}  // namespace auragen

#endif  // AURAGEN_SRC_BUS_SWITCH_NODE_H_
