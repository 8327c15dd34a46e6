#include "src/bus/switch_node.h"

#include <utility>

#include "src/bus/fabric.h"

namespace auragen {

void SwitchNode::ForwardFromBus(const Frame& frame, bool urgent) {
  if (!ok_) {
    ++stats_.held;
    if (fabric_.tracer() != nullptr) {
      fabric_.tracer()->Record(TraceEventKind::kSwitchHeld, frame.src, 0, segment_,
                               frame.frame_id, 0);
    }
    egress_held_.push_back(Held{frame, urgent});
    return;
  }
  ++stats_.forwarded;
  stats_.forwarded_bytes += frame.payload_size();
  fabric_.PostToTrunk(segment_, frame, urgent);
}

void SwitchNode::Inject(const Frame& frame, bool urgent) {
  ++stats_.injected;
  fabric_.bus_of_segment(segment_).ForwardAccept(frame, urgent);
}

void SwitchNode::Restore() {
  ok_ = true;
  // Control context (between windows): the held frames re-enter the trunk
  // FIFO, in the order the segment bus emitted them.
  while (!egress_held_.empty()) {
    Held h = std::move(egress_held_.front());
    egress_held_.pop_front();
    ++stats_.forwarded;
    stats_.forwarded_bytes += h.frame.payload_size();
    fabric_.PostToTrunk(segment_, std::move(h.frame), h.urgent);
  }
}

}  // namespace auragen
