#include "src/servers/file_server.h"

#include <algorithm>
#include <utility>

#include "src/base/check.h"
#include "src/core/wire.h"
#include "src/disk/disk.h"
#include "src/trace/trace.h"

namespace auragen {

namespace {

constexpr uint32_t kSuperMagic = 0x41555246;  // "AURF"
constexpr uint32_t kLogMagic = 0x4155524C;    // "AURL"

// Commit record: {magic u32, seq u64, epoch_after u64, n u32, n x home u32}.
// Must fit one block, which caps a batch at 122 homes.
constexpr uint32_t kMaxLogBlocks = (kBlockSize - 24) / 4;

SyscallRequest DiskWriteReq(BlockNum block, Bytes data) {
  SyscallRequest req = NativeRequest(NativeSys::kDiskWrite);
  req.a = block;
  req.data = std::move(data);
  return req;
}

SyscallRequest DiskReadReq(BlockNum block) {
  SyscallRequest req = NativeRequest(NativeSys::kDiskRead);
  req.a = block;
  return req;
}

// One multi-block transaction writing each image to the given block.
SyscallRequest DiskWriteVecReq(const DiskWriteBatch& batch) {
  SyscallRequest req = NativeRequest(NativeSys::kDiskWriteVec);
  ByteWriter w;
  w.U32(static_cast<uint32_t>(batch.size()));
  for (const auto& [block, image] : batch) {
    w.U32(block);
    w.Blob(image);
  }
  req.data = w.Take();
  return req;
}

// The same transaction redirected into the log region: image i goes to log
// block i, regardless of its eventual home.
SyscallRequest LogAppendReq(const DiskWriteBatch& batch) {
  SyscallRequest req = NativeRequest(NativeSys::kDiskWriteVec);
  ByteWriter w;
  w.U32(static_cast<uint32_t>(batch.size()));
  for (size_t i = 0; i < batch.size(); ++i) {
    w.U32(FileServerProgram::kLogDataStart + static_cast<BlockNum>(i));
    w.Blob(batch[i].second);
  }
  req.data = w.Take();
  return req;
}

}  // namespace

FileServerProgram::FileServerProgram(FileServerOptions options)
    : options_(options), cache_(options.cache_blocks) {
  AURAGEN_CHECK(options_.log_blocks >= 4 && options_.log_blocks <= kMaxLogBlocks)
      << "log_blocks out of range: " << options_.log_blocks;
  next_block_ = kLogDataStart + options_.log_blocks;
  AURAGEN_CHECK(next_block_ < options_.num_blocks) << "log region exceeds the disk";
}

uint64_t FileServerProgram::FileSize(const std::string& name) const {
  auto it = names_.find(name);
  if (it == names_.end()) {
    return 0;
  }
  auto iit = inodes_.find(it->second);
  return iit == inodes_.end() ? 0 : iit->second.size;
}

BlockNum FileServerProgram::Alloc() {
  if (!free_list_.empty()) {
    BlockNum b = free_list_.back();
    free_list_.pop_back();
    return b;
  }
  AURAGEN_CHECK(next_block_ < options_.num_blocks) << "filesystem full";
  return next_block_++;
}

SyscallRequest FileServerProgram::ReadAny() {
  mode_ = Mode::kAwaitMessage;
  SyscallRequest req;
  req.num = Sys::kRead;
  req.a = kAnyChannel;
  return req;
}

// ------------------------------------------------------------------ replies

SyscallRequest FileServerProgram::ReplyData(uint64_t channel, const Bytes& data) {
  mode_ = Mode::kReplying;
  SyscallRequest req = NativeRequest(NativeSys::kWriteChan);
  req.b = channel;
  req.data = EncodeTaggedBlob(ReqTag::kData, data);
  return req;
}

SyscallRequest FileServerProgram::ReplyStatus(uint64_t channel, int32_t status) {
  mode_ = Mode::kReplying;
  SyscallRequest req = NativeRequest(NativeSys::kWriteChan);
  req.b = channel;
  req.data = EncodeTaggedI32(ReqTag::kStatus, status);
  return req;
}

SyscallRequest FileServerProgram::SendOpenReply(uint64_t control_channel,
                                                const OpenReplyBody& reply, Mode next_mode) {
  mode_ = next_mode;
  SyscallRequest req = NativeRequest(NativeSys::kWriteChan);
  req.a = 1;  // MsgKind::kOpenReply
  req.b = control_channel;
  req.data = Encode(reply);
  return req;
}

// --------------------------------------------------------------------- sync

// Group commit (DESIGN.md §19): everything dirtied since the last sync —
// partial tails, full data blocks, fresh metadata, the next superblock
// image — is assembled into ONE batch. The batch streams into the log
// region as a single multi-block transaction, one commit-record write makes
// it durable, and only then do the blocks migrate to their homes. Until the
// commit record lands, no home-location block has been touched, so §7.9's
// old copy survives any crash inside the window.
SyscallRequest FileServerProgram::StartSync() {
  commit_batch_.clear();

  // Dirty cache blocks, ascending block order (deterministic batch layout).
  // In-place home overwrite is safe because the home write happens only
  // after the commit record is durable.
  for (auto& [block, image] : cache_.DirtyBlocks()) {
    Bytes padded = std::move(image);
    padded.resize(kBlockSize, 0);
    commit_batch_.emplace_back(block, std::move(padded));
  }

  // Fresh metadata to shadow-allocated blocks, then the superblock image
  // that points at them. The old metadata blocks are freed in memory only
  // after the commit record is durable.
  Bytes meta = SerializeMeta();
  new_meta_blocks_.clear();
  for (size_t at = 0; at < meta.size(); at += kBlockSize) {
    size_t n = std::min<size_t>(kBlockSize, meta.size() - at);
    Bytes chunk(meta.begin() + at, meta.begin() + at + n);
    new_meta_blocks_.push_back(Alloc());
    commit_batch_.emplace_back(new_meta_blocks_.back(), std::move(chunk));
  }
  plan_offset_ = meta.size();

  ByteWriter sb;
  sb.U32(kSuperMagic);
  sb.U64(epoch_ + 1);
  sb.U32(static_cast<uint32_t>(meta.size()));
  sb.U32(static_cast<uint32_t>(new_meta_blocks_.size()));
  for (BlockNum b : new_meta_blocks_) {
    sb.U32(b);
  }
  commit_batch_.emplace_back(static_cast<BlockNum>((epoch_ + 1) % 2), sb.Take());

  AURAGEN_CHECK(commit_batch_.size() <= options_.log_blocks)
      << "commit batch overflows the log: " << commit_batch_.size();

  mode_ = Mode::kLogAppend;
  return LogAppendReq(commit_batch_);
}

// Checkpoint finished: the cache is clean relative to the home locations
// and the small §7.9 runtime state ships to the backup.
SyscallRequest FileServerProgram::FinishCommit() {
  for (const auto& [home, image] : commit_batch_) {
    cache_.MarkClean(home);
  }
  commit_batch_.clear();

  ops_since_sync_ = 0;
  mode_ = Mode::kSendingSync;
  SyscallRequest req = NativeRequest(NativeSys::kServerSyncSend);
  req.data = Encode(ServerSyncPrefix{std::exchange(serviced_since_sync_, {})}, AsBlob{rt_});
  return req;
}

Bytes FileServerProgram::SerializeMeta() const {
  ByteWriter w;
  w.U32(static_cast<uint32_t>(names_.size()));
  for (const auto& [name, inode] : names_) {
    w.Str(name);
    w.U32(inode);
  }
  w.U32(static_cast<uint32_t>(inodes_.size()));
  for (const auto& [id, inode] : inodes_) {
    w.U32(id);
    w.U64(inode.size);
    w.U32(static_cast<uint32_t>(inode.blocks.size()));
    for (BlockNum b : inode.blocks) {
      w.U32(b);
    }
  }
  w.U32(next_inode_);
  w.U32(next_block_);
  w.U32(static_cast<uint32_t>(free_list_.size()));
  for (BlockNum b : free_list_) {
    w.U32(b);
  }
  return w.Take();
}

void FileServerProgram::ParseMeta(const Bytes& blob) {
  ByteReader r(blob);
  names_.clear();
  inodes_.clear();
  uint32_t nn = r.U32();
  for (uint32_t i = 0; i < nn; ++i) {
    std::string name = r.Str();
    names_[name] = r.U32();
  }
  uint32_t ni = r.U32();
  for (uint32_t i = 0; i < ni; ++i) {
    uint32_t id = r.U32();
    Inode inode;
    inode.size = r.U64();
    uint32_t nb = r.U32();
    inode.blocks.resize(nb);
    for (BlockNum& b : inode.blocks) {
      b = r.U32();
    }
    inodes_[id] = std::move(inode);
  }
  next_inode_ = r.U32();
  next_block_ = r.U32();
  free_list_.clear();
  uint32_t nf = r.U32();
  for (uint32_t i = 0; i < nf; ++i) {
    free_list_.push_back(r.U32());
  }
}

// --------------------------------------------------------------- requests

SyscallRequest FileServerProgram::AfterService() {
  // Commit on the op-count trigger, or early when dirty pressure nears the
  // log's capacity (xv6's log-full forced commit; the margin leaves room
  // for metadata chunks and the superblock).
  if (ops_since_sync_ >= options_.sync_every_ops ||
      cache_.dirty_count() >= options_.log_blocks / 2) {
    return StartSync();
  }
  return ReadAny();
}

SyscallRequest FileServerProgram::HandleOpen(uint64_t control_channel,
                                             const OpenRequest& open) {
  if (open.name.rfind("ch:", 0) == 0) {
    // User-to-user channel pairing (§7.4.1): "the file server pairs up
    // openers to the same name and sends open replies back to the openers
    // and to their backups."
    auto it = rt_.pending_opens.find(open.name);
    if (it == rt_.pending_opens.end()) {
      rt_.pending_opens[open.name] =
          PendingOpen{open.cookie,         control_channel,    open.opener,
                      open.opener_cluster, open.opener_backup, open.opener_mode};
      return AfterService();  // first opener waits
    }
    PendingOpen first = it->second;
    rt_.pending_opens.erase(it);
    uint64_t channel = AllocChannelId();

    OpenReplyBody to_first;
    to_first.request_cookie = first.cookie;
    to_first.status = 0;
    to_first.channel = ChannelId{channel};
    to_first.peer_pid = open.opener;
    to_first.peer_primary_cluster = open.opener_cluster;
    to_first.peer_backup_cluster = open.opener_backup;
    to_first.peer_kind = 0;  // kUserPeer
    to_first.peer_mode = open.opener_mode;

    pair_reply2_ = OpenReplyBody{};
    pair_reply2_.request_cookie = open.cookie;
    pair_reply2_.status = 0;
    pair_reply2_.channel = ChannelId{channel};
    pair_reply2_.peer_pid = first.opener;
    pair_reply2_.peer_primary_cluster = first.opener_cluster;
    pair_reply2_.peer_backup_cluster = first.opener_backup;
    pair_reply2_.peer_kind = 0;
    pair_reply2_.peer_mode = first.opener_mode;
    pair_reply2_channel_ = control_channel;

    return SendOpenReply(first.control_channel, to_first, Mode::kPairReply2);
  }

  // File open: bind a fresh channel to the (possibly new) file. The server
  // creates its own routing entry via kAcceptChan, then replies; the
  // opener's kernel and backup cluster materialize their entries from the
  // reply itself.
  uint32_t inode_id;
  if (auto it = names_.find(open.name); it != names_.end()) {
    inode_id = it->second;
  } else {
    inode_id = next_inode_++;
    names_[open.name] = inode_id;
    inodes_[inode_id] = Inode{};
  }
  uint64_t channel = AllocChannelId();
  rt_.chans[channel] = Chan{inode_id, 0};

  ChanCreate accept;
  accept.channel = ChannelId{channel};
  accept.owner = my_pid_;
  accept.backup_entry = false;
  accept.peer_pid = open.opener;
  accept.peer_primary_cluster = open.opener_cluster;
  accept.peer_backup_cluster = open.opener_backup;
  accept.peer_kind = 0;  // kUserPeer (from the server's side)
  accept.peer_mode = open.opener_mode;

  pair_reply2_ = OpenReplyBody{};
  pair_reply2_.request_cookie = open.cookie;
  pair_reply2_.status = 0;
  pair_reply2_.channel = ChannelId{channel};
  pair_reply2_.peer_pid = my_pid_;
  pair_reply2_.peer_primary_cluster = my_cluster_;
  pair_reply2_.peer_backup_cluster = my_backup_;
  pair_reply2_.peer_kind = 2;  // kServerFile
  pair_reply2_.peer_mode = static_cast<uint8_t>(BackupMode::kHalfback);
  pair_reply2_channel_ = control_channel;

  mode_ = Mode::kAccepting;
  SyscallRequest req = NativeRequest(NativeSys::kAcceptChan);
  req.data = Encode(accept);
  return req;
}

SyscallRequest FileServerProgram::HandleFileRead(uint64_t channel, uint64_t max) {
  auto it = rt_.chans.find(channel);
  if (it == rt_.chans.end()) {
    return ReplyData(channel, {});
  }
  Chan& chan = it->second;
  const Inode& inode = inodes_[chan.inode];
  if (chan.offset >= inode.size || max == 0) {
    return ReplyData(channel, {});  // EOF
  }
  uint64_t want = std::min<uint64_t>(max, inode.size - chan.offset);

  cur_channel_ = channel;
  cur_inode_ = chan.inode;
  cur_max_ = want;
  plan_offset_ = chan.offset;
  plan_buffer_.clear();
  plan_blocks_.clear();
  uint32_t first_block = static_cast<uint32_t>(chan.offset / kBlockSize);
  uint32_t last_block = static_cast<uint32_t>((chan.offset + want - 1) / kBlockSize);
  for (uint32_t i = first_block; i <= last_block; ++i) {
    plan_blocks_.push_back(i);  // file-block indices; resolved per step
  }
  plan_idx_ = 0;
  chan.offset += want;
  mode_ = Mode::kReading;
  return StepRead();
}

// Advances the read plan: cached blocks are consumed inline (a hit skips
// the seek entirely), a miss yields one kDiskRead that also populates the
// cache, plan exhaustion yields the reply.
SyscallRequest FileServerProgram::StepRead() {
  const Inode& inode = inodes_[cur_inode_];
  while (plan_idx_ < plan_blocks_.size()) {
    uint32_t fb = plan_blocks_[plan_idx_];
    Bytes chunk;
    if (fb < inode.blocks.size()) {
      BlockNum home = inode.blocks[fb];
      const Bytes* cached = cache_.Get(home);
      if (cached == nullptr) {
        cur_read_block_ = home;
        mode_ = Mode::kReading;
        return DiskReadReq(home);
      }
      chunk = *cached;
    }
    chunk.resize(kBlockSize, 0);
    plan_buffer_.insert(plan_buffer_.end(), chunk.begin(), chunk.end());
    ++plan_idx_;
  }
  uint64_t skip = plan_offset_ % kBlockSize;
  Bytes out;
  if (skip < plan_buffer_.size()) {
    size_t take = std::min<size_t>(cur_max_, plan_buffer_.size() - skip);
    out.assign(plan_buffer_.begin() + skip, plan_buffer_.begin() + skip + take);
  }
  plan_buffer_.clear();
  return ReplyData(cur_channel_, out);
}

// Writes land at the channel's offset — a read-modify-write through the
// buffer cache, zero disk I/O when the touched blocks are cached. The write
// is acknowledged immediately: §7.9's saved message queues re-execute
// un-synced acked writes at the backup, and the next group commit makes the
// blocks durable in one transaction.
//
// Positioned writes are what make the at-least-once replay safe. The disk
// can be ahead of the last shipped ServerSync (a commit record is durable
// before the sync message lands), so a takeover re-executes requests whose
// effects may already be committed. Re-executing a positioned write lays
// down identical bytes at an identical offset — idempotent, exactly the
// §7.9 argument for the raw disk server — where an append-at-EOF would
// duplicate the record and shift every later byte.
SyscallRequest FileServerProgram::HandleFileWrite(uint64_t channel, Bytes data) {
  auto it = rt_.chans.find(channel);
  if (it == rt_.chans.end()) {
    return ReplyStatus(channel, -static_cast<int32_t>(Errc::kBadDescriptor));
  }
  Chan& chan = it->second;
  cur_channel_ = channel;
  cur_inode_ = chan.inode;
  Inode& inode = inodes_[cur_inode_];
  if (data.empty()) {
    return ReplyStatus(channel, 0);
  }

  uint64_t begin = chan.offset;
  uint64_t end = begin + data.size();
  uint32_t first_fb = static_cast<uint32_t>(begin / kBlockSize);
  uint32_t last_fb = static_cast<uint32_t>((end - 1) / kBlockSize);

  // An edge block the write only partially covers must be loaded through
  // the cache first when it holds committed content (read-modify-write).
  for (uint32_t fb : {first_fb, last_fb}) {
    uint64_t blk_begin = static_cast<uint64_t>(fb) * kBlockSize;
    bool covered = begin <= blk_begin && end >= blk_begin + kBlockSize;
    bool has_old = fb < inode.blocks.size() && blk_begin < inode.size;
    if (!covered && has_old && cache_.Get(inode.blocks[fb]) == nullptr) {
      cur_data_ = std::move(data);
      cur_read_block_ = inode.blocks[fb];
      mode_ = Mode::kWriteLoad;
      return DiskReadReq(cur_read_block_);
    }
  }

  // Extend the block map across the write span; hole blocks a forward seek
  // skipped become zero-filled dirty cache blocks so stale disk content can
  // never surface as file bytes.
  uint32_t old_nblocks = static_cast<uint32_t>(inode.blocks.size());
  while (inode.blocks.size() <= last_fb) {
    inode.blocks.push_back(Alloc());
  }
  for (uint32_t fb = old_nblocks; fb < first_fb; ++fb) {
    cache_.Put(inode.blocks[fb], Bytes(kBlockSize, 0), /*dirty=*/true);
  }

  for (uint32_t fb = first_fb; fb <= last_fb; ++fb) {
    BlockNum home = inode.blocks[fb];
    uint64_t blk_begin = static_cast<uint64_t>(fb) * kBlockSize;
    bool covered = begin <= blk_begin && end >= blk_begin + kBlockSize;
    Bytes image;
    if (!covered) {
      if (const Bytes* cached = cache_.Get(home)) {
        image = *cached;
      }
      // A write starting past the committed EOF inside this block: the gap
      // bytes are file content now and must read as zeros, not stale disk.
      if (begin > inode.size && blk_begin < inode.size) {
        image.resize(kBlockSize, 0);
        std::fill(image.begin() + (inode.size - blk_begin),
                  image.begin() + (begin - blk_begin), 0);
      }
    }
    image.resize(kBlockSize, 0);
    uint64_t from = std::max<uint64_t>(begin, blk_begin);
    uint64_t to = std::min<uint64_t>(end, blk_begin + kBlockSize);
    std::copy(data.begin() + static_cast<size_t>(from - begin),
              data.begin() + static_cast<size_t>(to - begin),
              image.begin() + static_cast<size_t>(from - blk_begin));
    cache_.Put(home, std::move(image), /*dirty=*/true);
  }
  inode.size = std::max(inode.size, end);
  chan.offset = end;
  return ReplyStatus(channel, static_cast<int32_t>(data.size()));
}

// ----------------------------------------------------------------- the FSM

SyscallRequest FileServerProgram::BootFromSuper() {
  if (!boot_sb_valid_) {
    // Virgin disk: the first commit runs through the normal WAL path —
    // formats an empty filesystem and sends the initial sync.
    epoch_ = 0;
    meta_blocks_.clear();
    return StartSync();
  }
  if (meta_blocks_.empty()) {
    return ReadAny();
  }
  plan_idx_ = 0;
  plan_buffer_.clear();
  mode_ = Mode::kBootMeta;
  return DiskReadReq(meta_blocks_[0]);
}

SyscallRequest FileServerProgram::Next(const SyscallResult& prev, bool first) {
  if (first) {
    mode_ = Mode::kStart;
  }
  switch (mode_) {
    case Mode::kStart:
      mode_ = Mode::kWho;
      return NativeRequest(NativeSys::kWhoAmI);

    case Mode::kWho: {
      ByteReader r(prev.data);
      my_pid_.value = r.U64();
      my_cluster_ = r.U32();
      my_backup_ = r.U32();
      mode_ = Mode::kBootSb0;
      return DiskReadReq(0);
    }

    case Mode::kBootSb0:
      boot_sb0_ = prev.rv >= 0 ? prev.data : Bytes{};
      mode_ = Mode::kBootSb1;
      return DiskReadReq(1);

    case Mode::kBootSb1: {
      auto parse_sb = [](const Bytes& raw, uint64_t* epoch, uint32_t* meta_len,
                         std::vector<BlockNum>* blocks) {
        if (raw.size() < 20) {
          return false;
        }
        ByteReader r(raw);
        if (r.U32() != kSuperMagic) {
          return false;
        }
        *epoch = r.U64();
        *meta_len = r.U32();
        uint32_t n = r.U32();
        blocks->clear();
        for (uint32_t i = 0; i < n; ++i) {
          blocks->push_back(r.U32());
        }
        return true;
      };
      uint64_t e0 = 0;
      uint64_t e1 = 0;
      uint32_t len0 = 0;
      uint32_t len1 = 0;
      std::vector<BlockNum> b0;
      std::vector<BlockNum> b1;
      bool ok0 = parse_sb(boot_sb0_, &e0, &len0, &b0);
      bool ok1 = prev.rv >= 0 && parse_sb(prev.data, &e1, &len1, &b1);
      boot_sb_valid_ = ok0 || ok1;
      if (ok1 && (!ok0 || e1 > e0)) {
        epoch_ = e1;
        meta_blocks_ = b1;
        plan_offset_ = len1;
      } else if (ok0) {
        epoch_ = e0;
        meta_blocks_ = b0;
        plan_offset_ = len0;
      } else {
        epoch_ = 0;
        meta_blocks_.clear();
      }
      // Always inspect the commit-record slots before trusting the
      // superblock: a record with a higher epoch means a committed batch
      // whose home migration never finished.
      mode_ = Mode::kBootCr0;
      return DiskReadReq(kCrSlot0);
    }

    case Mode::kBootCr0:
      boot_cr0_ = prev.rv >= 0 ? prev.data : Bytes{};
      mode_ = Mode::kBootCr1;
      return DiskReadReq(kCrSlot1);

    case Mode::kBootCr1: {
      auto parse_cr = [](const Bytes& raw, uint64_t* seq, uint64_t* epoch,
                         std::vector<BlockNum>* homes) {
        if (raw.size() < 24) {
          return false;
        }
        ByteReader r(raw);
        if (r.U32() != kLogMagic) {
          return false;
        }
        *seq = r.U64();
        *epoch = r.U64();
        uint32_t n = r.U32();
        if (raw.size() < 24 + size_t{n} * 4) {
          return false;
        }
        homes->clear();
        for (uint32_t i = 0; i < n; ++i) {
          homes->push_back(r.U32());
        }
        return true;
      };
      uint64_t s0 = 0;
      uint64_t s1 = 0;
      uint64_t ce0 = 0;
      uint64_t ce1 = 0;
      std::vector<BlockNum> h0;
      std::vector<BlockNum> h1;
      bool ok0 = parse_cr(boot_cr0_, &s0, &ce0, &h0);
      bool ok1 = prev.rv >= 0 && parse_cr(prev.data, &s1, &ce1, &h1);
      boot_cr_seq_ = 0;
      boot_cr_epoch_ = 0;
      boot_cr_homes_.clear();
      if (ok1 && (!ok0 || s1 > s0)) {
        boot_cr_seq_ = s1;
        boot_cr_epoch_ = ce1;
        boot_cr_homes_ = std::move(h1);
      } else if (ok0) {
        boot_cr_seq_ = s0;
        boot_cr_epoch_ = ce0;
        boot_cr_homes_ = std::move(h0);
      }
      if (boot_cr_seq_ != 0) {
        rt_.log_seq = boot_cr_seq_;
      }
      if (!boot_cr_homes_.empty() &&
          (!boot_sb_valid_ || boot_cr_epoch_ > epoch_)) {
        // Committed but unchecked: replay the batch from the log. A torn
        // append (log blocks without a newer record) never reaches here and
        // is simply overwritten by the next commit.
        plan_idx_ = 0;
        commit_batch_.clear();
        mode_ = Mode::kBootReplay;
        return DiskReadReq(kLogDataStart);
      }
      return BootFromSuper();
    }

    case Mode::kBootReplay: {
      Bytes img = prev.rv >= 0 ? prev.data : Bytes{};
      img.resize(kBlockSize, 0);
      commit_batch_.emplace_back(boot_cr_homes_[plan_idx_], std::move(img));
      ++plan_idx_;
      if (plan_idx_ < boot_cr_homes_.size()) {
        return DiskReadReq(kLogDataStart + static_cast<BlockNum>(plan_idx_));
      }
      if (options_.tracer != nullptr) {
        options_.tracer->Record(TraceEventKind::kFsLogCommit, my_cluster_, my_pid_.value,
                                1, boot_cr_seq_, commit_batch_.size());
      }
      mode_ = Mode::kBootReplayWrite;
      return DiskWriteVecReq(commit_batch_);
    }

    case Mode::kBootReplayWrite:
      // Homes are current; reboot from the superblocks. Idempotent: the
      // replayed superblock now carries the record's epoch, so a crash
      // during replay just replays again, and a completed replay parses
      // clean with no second pass.
      commit_batch_.clear();
      mode_ = Mode::kBootSb0;
      return DiskReadReq(0);

    case Mode::kBootMeta: {
      Bytes chunk = prev.rv >= 0 ? prev.data : Bytes(kBlockSize, 0);
      chunk.resize(kBlockSize, 0);
      plan_buffer_.insert(plan_buffer_.end(), chunk.begin(), chunk.end());
      ++plan_idx_;
      if (plan_idx_ < meta_blocks_.size()) {
        return DiskReadReq(meta_blocks_[plan_idx_]);
      }
      plan_buffer_.resize(plan_offset_);
      ParseMeta(plan_buffer_);
      plan_buffer_.clear();
      return ReadAny();
    }

    case Mode::kAwaitMessage: {
      auto [channel, src, binding_tag, kind, body] = Decode<ReadAnyResult>(prev.data);

      if (kind == MsgKind::kClose) {
        rt_.chans.erase(channel);
        serviced_since_sync_[channel]++;
        ops_since_sync_++;
        return AfterService();
      }
      if (body.empty()) {
        return ReadAny();
      }
      serviced_since_sync_[channel]++;
      ops_since_sync_++;
      ByteReader b(body);
      ReqTag tag = static_cast<ReqTag>(b.U8());
      switch (tag) {
        case ReqTag::kOpen:
          return HandleOpen(channel, Decode<OpenRequest>(b));
        case ReqTag::kFileRead:
          return HandleFileRead(channel, b.U64());
        case ReqTag::kFileWrite:
          return HandleFileWrite(channel, b.Blob());
        case ReqTag::kFileSeek: {
          uint64_t offset = b.U64();
          if (auto it = rt_.chans.find(channel); it != rt_.chans.end()) {
            it->second.offset = offset;
          }
          return ReplyStatus(channel, 0);
        }
        default:
          return AfterService();
      }
    }

    case Mode::kAccepting:
      return SendOpenReply(pair_reply2_channel_, pair_reply2_, Mode::kOpenReply);

    case Mode::kOpenReply:
    case Mode::kReplying:
      return AfterService();

    case Mode::kPairReply2:
      return SendOpenReply(pair_reply2_channel_, pair_reply2_, Mode::kOpenReply);

    case Mode::kWriteLoad: {
      // The edge block arrived; cache it and re-run the write. If it is the
      // committed EOF block, its bytes past EOF are not file content — zero
      // them so an extension can never surface stale disk data.
      Bytes raw = prev.rv >= 0 ? prev.data : Bytes{};
      raw.resize(kBlockSize, 0);
      const Inode& inode = inodes_[cur_inode_];
      uint64_t eof_cut = inode.size % kBlockSize;
      if (eof_cut != 0 && inode.size / kBlockSize < inode.blocks.size() &&
          inode.blocks[inode.size / kBlockSize] == cur_read_block_) {
        std::fill(raw.begin() + eof_cut, raw.end(), 0);
      }
      cache_.Put(cur_read_block_, std::move(raw), /*dirty=*/false);
      return HandleFileWrite(cur_channel_, std::move(cur_data_));
    }

    case Mode::kReading: {
      Bytes chunk = prev.rv >= 0 ? prev.data : Bytes{};
      chunk.resize(kBlockSize, 0);
      cache_.Put(cur_read_block_, chunk, /*dirty=*/false);
      plan_buffer_.insert(plan_buffer_.end(), chunk.begin(), chunk.end());
      ++plan_idx_;
      return StepRead();
    }

    case Mode::kLogAppend: {
      // Batch is in the log region; one commit-record write (alternating
      // slots, higher sequence wins) is the atomic commit point.
      ByteWriter cr;
      cr.U32(kLogMagic);
      cr.U64(rt_.log_seq + 1);
      cr.U64(epoch_ + 1);
      cr.U32(static_cast<uint32_t>(commit_batch_.size()));
      for (const auto& [home, image] : commit_batch_) {
        cr.U32(home);
      }
      mode_ = Mode::kLogCommit;
      return DiskWriteReq(kCrSlot0 + static_cast<BlockNum>((rt_.log_seq + 1) % 2),
                          cr.Take());
    }

    case Mode::kLogCommit: {
      // Commit point passed: the batch is durable in the log. Old blocks
      // are now reclaimable (§7.9's "old copy cannot be destroyed until the
      // sync is complete" — it is now recoverable from the log even if the
      // home migration below never runs).
      rt_.log_seq += 1;
      epoch_ += 1;
      commits_++;
      if (options_.tracer != nullptr) {
        options_.tracer->Record(TraceEventKind::kFsCommit, my_cluster_, my_pid_.value, 0,
                                epoch_, commits_);
        options_.tracer->Record(TraceEventKind::kFsLogCommit, my_cluster_, my_pid_.value,
                                0, rt_.log_seq, commit_batch_.size());
      }
      for (BlockNum b : meta_blocks_) {
        free_list_.push_back(b);
      }
      meta_blocks_ = new_meta_blocks_;
      new_meta_blocks_.clear();
      // Checkpoint: migrate the batch to the home locations.
      mode_ = Mode::kCheckpoint;
      return DiskWriteVecReq(commit_batch_);
    }

    case Mode::kCheckpoint:
      return FinishCommit();

    case Mode::kSendingSync:
      return ReadAny();
  }
  return ReadAny();
}

void FileServerProgram::ApplyServerSync(ByteReader& r) { DecodeInto(r, AsBlob{rt_}); }

// Used only for halfback re-backup snapshots; the durable state is on disk,
// so this carries the boot identity of the committed filesystem and the
// runtime table — minus the unpaired ch: opens, which a snapshot omits.
void FileServerProgram::SerializeState(ByteWriter& w) const {
  Runtime runtime = rt_;
  runtime.pending_opens.clear();
  EncodeTo(w, epoch_, rt_.log_seq, meta_blocks_, AsBlob{runtime});
}

void FileServerProgram::RestoreState(ByteReader& r) {
  DecodeInto(r, epoch_, rt_.log_seq, meta_blocks_, AsBlob{rt_});
}

}  // namespace auragen
