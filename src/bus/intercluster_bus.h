// Dual high-speed intercluster bus model (§7.1, §5.1).
//
// Guarantees enforced (these carry the paper's whole correctness argument):
//   1. All-or-nothing: every *alive* target cluster of a frame receives it,
//      or none does (a frame is never partially delivered).
//   2. No interleaving: the bus transmits one frame at a time; if frame A is
//      accepted before frame B, A is delivered at every destination before B
//      is delivered at any destination. Together with per-cluster FIFO
//      outgoing queues this gives the identical-order property a primary and
//      its backup rely on.
//
// The machine has two bus lines. Frames normally ride line 0; if a line is
// failed by fault injection, transmission detects the failure after a
// timeout and retries on the surviving line (cost model for bench E6).
//
// Negative-testing hooks deliberately break guarantee 1 or 2 so the test
// suite can demonstrate that recovery correctness *depends* on them
// (DESIGN.md invariant 5).

#ifndef AURAGEN_SRC_BUS_INTERCLUSTER_BUS_H_
#define AURAGEN_SRC_BUS_INTERCLUSTER_BUS_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <vector>

#include "src/base/rng.h"
#include "src/bus/frame.h"
#include "src/sim/engine.h"
#include "src/trace/trace.h"

namespace auragen {

class SwitchNode;

// A cluster's receive side. The executive processor implements this.
class BusEndpoint {
 public:
  virtual ~BusEndpoint() = default;
  virtual void OnFrame(const Frame& frame) = 0;
};

struct BusConfig {
  // Fixed per-frame cost: arbitration + header, in microseconds.
  SimTime arbitration_us = 2;
  // Payload cost: microseconds per byte (dual high-speed bus; default
  // ~16 MB/s per line, generous for 1983 but the *relative* shapes matter).
  double us_per_byte = 0.0625;
  // Time for the sender to notice a dead line and fail over to the other.
  SimTime line_failover_timeout_us = 50;

  SimTime FrameTime(size_t wire_bytes) const {
    return arbitration_us + static_cast<SimTime>(static_cast<double>(wire_bytes) * us_per_byte);
  }
};

struct BusStats {
  uint64_t frames_sent = 0;       // accepted transmissions
  uint64_t deliveries = 0;        // per-destination deliveries
  uint64_t bytes_sent = 0;        // payload bytes transmitted (once per frame)
  uint64_t failovers = 0;         // line failovers performed
  SimTime busy_us = 0;            // time a line spent transmitting payload
  SimTime failover_wait_us = 0;   // time spent detecting a dead line before
                                  // retrying on the other (not transmit-busy;
                                  // folding it into busy_us inflated E6's
                                  // bus-utilization numbers)
  // The longest single transmission: a frame holds its line this long, and
  // no heartbeat can preempt it (§7.10).
  SimTime max_frame_us = 0;
  uint64_t max_frame_bytes = 0;   // wire bytes of the largest frame
};

// How a bus instance sits inside a segmented fabric (src/bus/fabric.h). The
// default binding is the pre-fabric machine: segment 0, every cluster a
// local member, frame ids 1, 2, 3, ...
struct BusBinding {
  SegmentId segment = 0;
  // Local members: only these clusters are delivered to directly; targets
  // outside the mask leave through the segment's switch. A default (empty)
  // mask means "every cluster is local" (single-bus machine).
  ClusterMask local;
  // Frame-id sequence (base + k*stride): segments interleave their id
  // spaces so every frame id is fabric-unique in traces.
  uint64_t frame_id_base = 1;
  uint64_t frame_id_stride = 1;
};

// Modes for deliberately violating §5.1 guarantees in negative tests.
enum class AtomicityViolation : uint8_t {
  kNone,
  // Each destination independently has a chance of being skipped
  // (violates all-or-nothing).
  kDropPerDestination,
  // Destinations of one frame are delivered at independently jittered times,
  // allowing another frame to arrive in between (violates non-interleaving).
  kInterleave,
};

class InterclusterBus {
 public:
  InterclusterBus(Engine& engine, BusConfig config, uint32_t num_clusters,
                  BusBinding binding = BusBinding{});

  // Registers the receive callback for a cluster. Must be called for every
  // cluster before traffic starts.
  void AttachEndpoint(ClusterId cluster, BusEndpoint* endpoint);

  // A cluster whose endpoint is detached (crashed) silently receives
  // nothing; the remaining destinations still get the frame.
  void DetachEndpoint(ClusterId cluster);
  bool IsAttached(ClusterId cluster) const;

  // Queues a frame for transmission; the bus accepts it at once. The bus
  // serializes: at most one frame is on a line at a time; queued frames go
  // out FIFO. Every target receives the frame when its transmission
  // completes (FrameTime, which includes arbitration), in target-cluster
  // order within that instant.
  //
  // `urgent` frames model the low-level bus interface protocol (heartbeats,
  // §7.10): they win arbitration over queued message frames, so liveness
  // signaling is never delayed behind a deep data backlog. Urgent frames
  // stay FIFO among themselves; the relative order of regular frames is
  // untouched, so guarantee 2 still holds where it matters.
  //
  // `fence` marks a crash notice and names the cluster it accuses. From the
  // moment this bus accepts the notice for delivery, it drops every frame
  // the accused sends, unsent and unnumbered: the accused runs on until the
  // notice reaches it, and nothing it sends in that window may reach a
  // survivor that has begun its crash handling (§7.10.1). Reconnect lifts
  // the fence when the accused restarts.
  void Transmit(ClusterId src, ClusterMask targets, Bytes payload, bool urgent = false,
                ClusterId fence = kNoCluster);
  void Reconnect(ClusterId cluster);

  // --- fabric integration (segmented machine only) ---
  // Registers the segment's switch. A frame whose targets leave the local
  // member set is handed to the switch at transmission-complete time instead
  // of being delivered; the fabric's trunk sequencer then re-injects a copy
  // per target segment (see fabric.h for the ordering argument).
  void set_switch(SwitchNode* sw) { switch_ = sw; }
  // Re-injection entry used by the segment's switch: the (already
  // segment-masked) copy re-enters arbitration as a fresh local frame, so
  // every delivery in this segment — local or forwarded — is totally ordered
  // by this bus.
  void ForwardAccept(Frame frame, bool urgent);
  SegmentId segment() const { return binding_.segment; }

  // --- fault injection ---
  // Failing the line currently carrying a frame aborts that transmission:
  // the frame goes back to the front of its lane (nothing was sent, nothing
  // is charged) and retries on the surviving line, or waits for a restore.
  void FailLine(int line);     // line in {0,1}
  void RestoreLine(int line);
  int alive_lines() const { return (line_ok_[0] ? 1 : 0) + (line_ok_[1] ? 1 : 0); }
  bool line_ok(int line) const { return line_ok_[line]; }

  // Enables a §5.1 violation for negative tests. `probability` applies per
  // destination (kDropPerDestination) or per frame (kInterleave).
  void InjectAtomicityViolation(AtomicityViolation mode, double probability, uint64_t seed);

  const BusStats& stats() const { return stats_; }
  uint32_t num_clusters() const { return static_cast<uint32_t>(endpoints_.size()); }

  // Write-only observability (kBusTx at accept, kBusRx per destination).
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }

 private:
  // A frame occupying a line. Stats are charged at completion, not at
  // start: a transmission aborted by line failure never happened as far as
  // accounting is concerned (the old start-time charging left busy_us
  // inflated and `transmitting_` stranded when both lines died mid-queue).
  struct InFlight {
    Frame frame;
    bool urgent = false;
    int line = 0;        // line carrying the frame
    SimTime cost = 0;    // transmit-busy time
    SimTime wait = 0;    // failover detection wait (0 when line 0 was up)
    EventId completion = kNoEvent;
  };

  void AcceptFrame(Frame frame, bool urgent);
  // True when `frame` leaves this segment: it goes to the trunk whole and is
  // delivered from the copies the trunk sends back.
  bool ForTrunk(const Frame& frame) const {
    return switch_ != nullptr && (frame.targets & ~local_mask_).any();
  }
  void StartNext();
  void OnTransmitComplete();
  void Deliver(const Frame& frame);
  void DeliverTo(const Frame& frame, ClusterId c);

  Engine& engine_;
  BusConfig config_;
  BusBinding binding_;
  ClusterMask local_mask_;             // resolved: binding.local or "all"
  SwitchNode* switch_ = nullptr;       // null on a single-segment machine
  std::vector<BusEndpoint*> endpoints_;
  std::deque<Frame> pending_;
  std::deque<Frame> urgent_pending_;  // heartbeat lane, wins arbitration
  ClusterMask fenced_;                // accused by an accepted crash notice
  bool transmitting_ = false;
  bool line_ok_[2] = {true, true};
  uint64_t next_frame_id_ = 1;
  std::optional<InFlight> in_flight_;
  BusStats stats_;
  Tracer* tracer_ = nullptr;

  AtomicityViolation violation_ = AtomicityViolation::kNone;
  double violation_probability_ = 0.0;
  Rng violation_rng_{0};
};

}  // namespace auragen

#endif  // AURAGEN_SRC_BUS_INTERCLUSTER_BUS_H_
