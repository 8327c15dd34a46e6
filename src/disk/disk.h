// Simulated disks: block devices, dual-ported attachment, mirrored pairs.
//
// §7.1: "All peripherals are dual-ported and connected to two clusters. In
// addition, disks are connected in pairs to facilitate mirrored files."
// Peripheral servers (file/raw/page) run in one of a disk's two clusters,
// their backup in the other (§7.3 halfback placement); after a cluster crash
// the surviving cluster keeps a path to the same blocks. The page server's
// page accounts and the file server's journaled filesystem both sit on
// these devices.
//
// Service-time model: fixed seek + per-byte transfer. Requests on one device
// are serialized (single actuator); mirrored writes go to both devices in
// parallel and complete when the slower finishes. A multi-block write batch
// (WriteMulti) is one request — one seek, then the blocks stream — which is
// what makes the file server's group commit pay off.

#ifndef AURAGEN_SRC_DISK_DISK_H_
#define AURAGEN_SRC_DISK_DISK_H_

#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "src/base/codec.h"
#include "src/base/result.h"
#include "src/base/task.h"
#include "src/base/types.h"
#include "src/sim/engine.h"

namespace auragen {

class Tracer;

inline constexpr uint32_t kBlockSize = 512;

// An ordered set of block writes submitted as one disk transaction.
using DiskWriteBatch = std::vector<std::pair<BlockNum, Bytes>>;

struct DiskConfig {
  uint32_t num_blocks = 16384;       // 8 MiB default
  SimTime seek_us = 200;             // per request
  double us_per_byte = 0.5;          // ~2 MB/s, era-appropriate
};

struct DiskStats {
  uint64_t reads = 0;
  uint64_t writes = 0;               // blocks written (a batch counts each)
  uint64_t batches = 0;              // WriteMulti requests
  uint64_t bytes_read = 0;
  uint64_t bytes_written = 0;
  SimTime busy_us = 0;
  // Queueing: time requests sat behind the single actuator, and the deepest
  // the queue ever got (in-flight request included). Group commit shows up
  // here first — fewer, larger requests mean less waiting.
  SimTime queue_wait_us = 0;
  uint64_t max_queue_depth = 0;
};

// One physical drive. Requests complete asynchronously on the engine in
// submission order.
class BlockDevice {
 public:
  using Callback = MoveFn<void(Result<void>)>;
  using ReadCallback = MoveFn<void(Result<Bytes>)>;

  BlockDevice(Engine& engine, DiskConfig config);

  void Read(BlockNum block, ReadCallback done);
  void Write(BlockNum block, Bytes data, Callback done);
  // One seek for the whole batch; all blocks land atomically at completion
  // (block writes are device-atomic, and a cluster crash never stops a
  // request already accepted by the peripheral — torn states arise at
  // request granularity, not mid-block).
  void WriteMulti(DiskWriteBatch batch, Callback done);

  // Synchronous accessor for test inspection only; it bypasses the timing
  // model and must not be used by simulated servers.
  Bytes PeekBlock(BlockNum block) const;

  void Fail() { failed_ = true; }
  void Restore() { failed_ = false; }
  bool failed() const { return failed_; }

  // Optional queue-wait tracing (kDiskQueueWait). `gpid` labels the bound
  // server, `channel` the drive index within a mirror.
  void set_tracer(Tracer* tracer, uint64_t gpid, uint64_t channel) {
    tracer_ = tracer;
    trace_gpid_ = gpid;
    trace_channel_ = channel;
  }

  uint32_t num_blocks() const { return config_.num_blocks; }
  const DiskStats& stats() const { return stats_; }

 private:
  enum class Op : uint8_t { kRead, kWrite, kWriteMulti };

  struct Request {
    Op op;
    BlockNum block = 0;
    Bytes data;
    DiskWriteBatch batch;
    Callback write_done;
    ReadCallback read_done;
    SimTime enqueued_at = 0;
  };

  void StartNext();
  void Complete();
  void Enqueue(Request req);
  SimTime ServiceTime(size_t bytes) const {
    return config_.seek_us + static_cast<SimTime>(static_cast<double>(bytes) * config_.us_per_byte);
  }

  Engine& engine_;
  DiskConfig config_;
  std::vector<Bytes> blocks_;
  std::deque<Request> queue_;
  // The single in-flight request lives here (not in the engine closure) so
  // the scheduled completion event captures only `this` and stays inside
  // Task's inline buffer — zero allocations per request.
  Request active_;
  bool busy_ = false;
  bool failed_ = false;
  DiskStats stats_;
  Tracer* tracer_ = nullptr;
  uint64_t trace_gpid_ = 0;
  uint64_t trace_channel_ = 0;
};

// A mirrored pair of drives presented as one logical device (§7.1). Writes
// are duplexed; reads are served by the first healthy drive. The pair stays
// available through any single drive failure.
class MirroredDisk {
 public:
  MirroredDisk(Engine& engine, DiskConfig config, ClusterId port_a, ClusterId port_b);

  void Read(BlockNum block, BlockDevice::ReadCallback done);
  void Write(BlockNum block, Bytes data, BlockDevice::Callback done);
  void WriteMulti(DiskWriteBatch batch, BlockDevice::Callback done);

  // Dual-ported attachment: which clusters have a hardware path.
  bool AttachedTo(ClusterId cluster) const { return cluster == port_a_ || cluster == port_b_; }
  ClusterId port_a() const { return port_a_; }
  ClusterId port_b() const { return port_b_; }
  ClusterId OtherPort(ClusterId cluster) const { return cluster == port_a_ ? port_b_ : port_a_; }

  BlockDevice& drive(int i) { return i == 0 ? drive0_ : drive1_; }
  uint32_t num_blocks() const { return drive0_.num_blocks(); }

  void set_tracer(Tracer* tracer, uint64_t gpid) {
    drive0_.set_tracer(tracer, gpid, 0);
    drive1_.set_tracer(tracer, gpid, 1);
  }

  uint64_t bytes_written() const {
    return drive0_.stats().bytes_written + drive1_.stats().bytes_written;
  }

 private:
  template <typename Submit>
  void DuplexWrite(BlockDevice::Callback done, Submit submit);

  BlockDevice drive0_;
  BlockDevice drive1_;
  ClusterId port_a_;
  ClusterId port_b_;
};

}  // namespace auragen

#endif  // AURAGEN_SRC_DISK_DISK_H_
