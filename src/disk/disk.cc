#include "src/disk/disk.h"

#include <memory>
#include <utility>

#include "src/trace/trace.h"

namespace auragen {

BlockDevice::BlockDevice(Engine& engine, DiskConfig config)
    : engine_(engine), config_(config) {}

void BlockDevice::Read(BlockNum block, ReadCallback done) {
  AURAGEN_CHECK(block < config_.num_blocks) << "read past end of disk:" << block;
  Request req;
  req.op = Op::kRead;
  req.block = block;
  req.read_done = std::move(done);
  Enqueue(std::move(req));
}

void BlockDevice::Write(BlockNum block, Bytes data, Callback done) {
  AURAGEN_CHECK(block < config_.num_blocks) << "write past end of disk:" << block;
  AURAGEN_CHECK(data.size() <= kBlockSize) << "block overflow:" << data.size();
  Request req;
  req.op = Op::kWrite;
  req.block = block;
  req.data = std::move(data);
  req.write_done = std::move(done);
  Enqueue(std::move(req));
}

void BlockDevice::WriteMulti(DiskWriteBatch batch, Callback done) {
  AURAGEN_CHECK(!batch.empty()) << "empty disk write batch";
  for (const auto& [block, data] : batch) {
    AURAGEN_CHECK(block < config_.num_blocks) << "write past end of disk:" << block;
    AURAGEN_CHECK(data.size() <= kBlockSize) << "block overflow:" << data.size();
  }
  Request req;
  req.op = Op::kWriteMulti;
  req.batch = std::move(batch);
  req.write_done = std::move(done);
  Enqueue(std::move(req));
}

void BlockDevice::Enqueue(Request req) {
  req.enqueued_at = engine_.Now();
  queue_.push_back(std::move(req));
  const uint64_t depth = queue_.size() + (busy_ ? 1 : 0);
  if (depth > stats_.max_queue_depth) stats_.max_queue_depth = depth;
  if (!busy_) {
    StartNext();
  }
}

void BlockDevice::StartNext() {
  if (queue_.empty()) {
    busy_ = false;
    return;
  }
  busy_ = true;
  const uint64_t depth = queue_.size();
  active_ = std::move(queue_.front());
  queue_.pop_front();

  const SimTime wait = engine_.Now() - active_.enqueued_at;
  stats_.queue_wait_us += wait;
  if (tracer_ != nullptr) {
    tracer_->Record(TraceEventKind::kDiskQueueWait, kNoCluster, trace_gpid_,
                    trace_channel_, wait, depth);
  }

  size_t bytes = 0;
  switch (active_.op) {
    case Op::kRead:
      bytes = kBlockSize;
      break;
    case Op::kWrite:
      bytes = active_.data.size();
      break;
    case Op::kWriteMulti:
      for (const auto& [block, data] : active_.batch) bytes += data.size();
      break;
  }
  SimTime cost = ServiceTime(bytes);
  stats_.busy_us += cost;

  engine_.Schedule(cost, [this] { Complete(); });
}

void BlockDevice::Complete() {
  Request req = std::move(active_);
  if (failed_) {
    if (req.op == Op::kRead) {
      req.read_done(Errc::kIo);
    } else {
      req.write_done(Errc::kIo);
    }
  } else {
    switch (req.op) {
      case Op::kRead:
        ++stats_.reads;
        stats_.bytes_read += kBlockSize;
        req.read_done(Result<Bytes>(PeekBlock(req.block)));
        break;
      case Op::kWrite:
        ++stats_.writes;
        stats_.bytes_written += req.data.size();
        Store(req.block, std::move(req.data));
        req.write_done(OkResult());
        break;
      case Op::kWriteMulti:
        ++stats_.batches;
        for (auto& [block, data] : req.batch) {
          ++stats_.writes;
          stats_.bytes_written += data.size();
          Store(block, std::move(data));
        }
        req.write_done(OkResult());
        break;
    }
  }
  StartNext();
}

Bytes BlockDevice::PeekBlock(BlockNum block) const {
  AURAGEN_CHECK(block < config_.num_blocks);
  return block < blocks_.size() ? blocks_[block] : Bytes{};
}

void BlockDevice::Store(BlockNum block, Bytes data) {
  if (block >= blocks_.size()) {
    blocks_.resize(block + 1);
  }
  blocks_[block] = std::move(data);
}

MirroredDisk::MirroredDisk(Engine& engine, DiskConfig config, ClusterId port_a, ClusterId port_b)
    : engine_(engine),
      drive0_(engine, config),
      drive1_(engine, config),
      port_a_(port_a),
      port_b_(port_b) {
  AURAGEN_CHECK(port_a != port_b) << "dual ports must reach distinct clusters";
}

template <typename Callback>
void MirroredDisk::FailLater(Callback done) {
  engine_.Schedule(0, [done = std::move(done)]() mutable { done(Errc::kIo); });
}

void MirroredDisk::Read(BlockNum block, BlockDevice::ReadCallback done) {
  if (!drive0_.failed()) {
    drive0_.Read(block, std::move(done));
  } else if (!drive1_.failed()) {
    drive1_.Read(block, std::move(done));
  } else {
    FailLater(std::move(done));
  }
}

// Duplex a write request; report success when both healthy drives are done.
// A failed drive is skipped — the mirror is then running unprotected, which
// is fine under the single-failure model.
template <typename Submit>
void MirroredDisk::DuplexWrite(BlockDevice::Callback done, Submit submit) {
  struct Join {
    int pending = 0;
    Errc worst = Errc::kOk;
    BlockDevice::Callback done;
  };
  auto join = std::make_shared<Join>();
  join->done = std::move(done);

  auto arm = [&](BlockDevice& d) {
    if (d.failed()) {
      return;
    }
    ++join->pending;
    submit(d, BlockDevice::Callback([join](Result<void> r) {
             if (!r.ok()) {
               join->worst = r.error();
             }
             if (--join->pending == 0) {
               join->done(join->worst == Errc::kOk ? Result<void>()
                                                   : Result<void>(join->worst));
             }
           }));
  };
  arm(drive0_);
  arm(drive1_);
  if (join->pending == 0) {
    FailLater(std::move(join->done));  // both drives dead
  }
}

void MirroredDisk::Write(BlockNum block, Bytes data, BlockDevice::Callback done) {
  DuplexWrite(std::move(done), [&](BlockDevice& d, BlockDevice::Callback cb) {
    d.Write(block, data, std::move(cb));
  });
}

void MirroredDisk::WriteMulti(DiskWriteBatch batch, BlockDevice::Callback done) {
  DuplexWrite(std::move(done), [&](BlockDevice& d, BlockDevice::Callback cb) {
    d.WriteMulti(batch, std::move(cb));
  });
}

}  // namespace auragen
