#include "src/servers/file_server.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "src/base/check.h"
#include "src/core/wire.h"
#include "src/disk/disk.h"
#include "src/trace/trace.h"

namespace auragen {

namespace {

// A commit record's header is 24 bytes and each home takes 4, so one block
// caps a batch at 122 homes.
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
  req.data = Encode(batch);
  return req;
}

// The same transaction redirected into the log region: image i goes to log
// block i, regardless of its eventual home.
SyscallRequest LogAppendReq(const DiskWriteBatch& batch) {
  DiskWriteBatch log;
  for (size_t i = 0; i < batch.size(); ++i) {
    log.emplace_back(FileServerProgram::kLogDataStart + static_cast<BlockNum>(i),
                     batch[i].second);
  }
  return DiskWriteVecReq(log);
}

// A slot holds a record if and only if it is at least a header long, carries
// the magic and holds the whole block list; a virgin or torn slot holds none.
// The header is the record with an empty list, whose count ends the header.
template <typename Record>
std::optional<Record> ParseSlot(const Bytes& raw) {
  const size_t header = Encode(Record{}).size();
  if (raw.size() < header || Decode<uint32_t>(raw) != Record::kMagic) {
    return std::nullopt;
  }
  const uint32_t n = Decode<uint32_t>(ByteView(raw).subview(header - 4, 4));
  if (raw.size() < header + size_t{n} * sizeof(BlockNum)) {
    return std::nullopt;
  }
  return Decode<Record>(raw);
}

// Slot 1 wins only if it holds a record and slot 0 holds none or an older one
// by `order`.
template <typename Record>
std::optional<Record> NewerSlot(const Bytes& slot0, const Bytes& slot1,
                                uint64_t Record::*order) {
  std::optional<Record> r0 = ParseSlot<Record>(slot0);
  std::optional<Record> r1 = ParseSlot<Record>(slot1);
  if (r1.has_value() && (!r0.has_value() || (*r1).*order > (*r0).*order)) {
    return r1;
  }
  return r0;
}

}  // namespace

FileServerProgram::FileServerProgram(FileServerOptions options)
    : options_(options), cache_(options.cache_blocks) {
  AURAGEN_CHECK(options_.log_blocks >= 4 && options_.log_blocks <= kMaxLogBlocks)
      << "log_blocks out of range: " << options_.log_blocks;
  meta_.next_block = kLogDataStart + options_.log_blocks;
  AURAGEN_CHECK(meta_.next_block < options_.num_blocks) << "log region exceeds the disk";
}

uint64_t FileServerProgram::FileSize(const std::string& name) const {
  auto it = meta_.names.find(name);
  if (it == meta_.names.end()) {
    return 0;
  }
  auto iit = meta_.inodes.find(it->second);
  return iit == meta_.inodes.end() ? 0 : iit->second.size;
}

BlockNum FileServerProgram::Alloc() {
  if (!meta_.free_list.empty()) {
    BlockNum b = meta_.free_list.back();
    meta_.free_list.pop_back();
    return b;
  }
  AURAGEN_CHECK(meta_.next_block < options_.num_blocks) << "filesystem full";
  return meta_.next_block++;
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
  req.data = Encode(ReqTag::kData, data);
  return req;
}

SyscallRequest FileServerProgram::ReplyStatus(uint64_t channel, int32_t status) {
  mode_ = Mode::kReplying;
  SyscallRequest req = NativeRequest(NativeSys::kWriteChan);
  req.b = channel;
  req.data = Encode(ReqTag::kStatus, status);
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
  Bytes meta = Encode(meta_);
  new_meta_blocks_.clear();
  for (size_t at = 0; at < meta.size(); at += kBlockSize) {
    size_t n = std::min<size_t>(kBlockSize, meta.size() - at);
    Bytes chunk(meta.begin() + at, meta.begin() + at + n);
    new_meta_blocks_.push_back(Alloc());
    commit_batch_.emplace_back(new_meta_blocks_.back(), std::move(chunk));
  }
  plan_offset_ = meta.size();

  Superblock sb;
  sb.epoch = epoch_ + 1;
  sb.meta_len = static_cast<uint32_t>(meta.size());
  sb.meta_blocks = new_meta_blocks_;
  commit_batch_.emplace_back(static_cast<BlockNum>(sb.epoch % 2), Encode(sb));

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
  if (auto it = meta_.names.find(open.name); it != meta_.names.end()) {
    inode_id = it->second;
  } else {
    inode_id = meta_.next_inode++;
    meta_.names[open.name] = inode_id;
    meta_.inodes[inode_id] = Inode{};
  }
  uint64_t channel = AllocChannelId();
  rt_.chans[channel] = Chan{inode_id, 0};

  ChanCreate accept;
  accept.channel = ChannelId{channel};
  accept.owner = self_.pid;
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
  pair_reply2_.peer_pid = self_.pid;
  pair_reply2_.peer_primary_cluster = self_.cluster;
  pair_reply2_.peer_backup_cluster = self_.backup;
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
  const Inode& inode = meta_.inodes[chan.inode];
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
  const Inode& inode = meta_.inodes[cur_inode_];
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
  Inode& inode = meta_.inodes[cur_inode_];
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

// Boot reads the four slots in block order: superblocks 0 and 1, then
// commit records 0 and 1 (DESIGN.md §19.4).
SyscallRequest FileServerProgram::ReadSlots() {
  plan_idx_ = 0;
  mode_ = Mode::kBootSlots;
  return DiskReadReq(0);
}

SyscallRequest FileServerProgram::BootFromSlots() {
  const std::optional<Superblock> sb =
      NewerSlot(boot_slots_[0], boot_slots_[1], &Superblock::epoch);
  const Superblock super = sb.value_or(Superblock{});
  epoch_ = super.epoch;
  meta_blocks_ = super.meta_blocks;
  plan_offset_ = super.meta_len;
  // Always inspect the commit records before trusting the superblock: a
  // record with a higher epoch means a committed batch whose home migration
  // never finished.
  boot_cr_ = NewerSlot(boot_slots_[kCrSlot0], boot_slots_[kCrSlot1], &CommitRecord::seq)
                 .value_or(CommitRecord{});
  if (boot_cr_.seq != 0) {
    rt_.log_seq = boot_cr_.seq;
  }
  if (!boot_cr_.homes.empty() && (!sb.has_value() || boot_cr_.epoch > epoch_)) {
    // Committed but unchecked: replay the batch from the log. A torn append
    // (log blocks without a newer record) never reaches here and is simply
    // overwritten by the next commit.
    plan_idx_ = 0;
    commit_batch_.clear();
    mode_ = Mode::kBootReplay;
    return DiskReadReq(kLogDataStart);
  }
  if (!sb.has_value()) {
    // Virgin disk: the first commit runs through the normal WAL path —
    // formats an empty filesystem and sends the initial sync.
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

    case Mode::kWho:
      self_ = Decode<WhoAmIReply>(prev.data);
      return ReadSlots();

    case Mode::kBootSlots:
      boot_slots_[plan_idx_] = prev.rv >= 0 ? prev.data : Bytes{};
      if (++plan_idx_ < boot_slots_.size()) {
        return DiskReadReq(static_cast<BlockNum>(plan_idx_));
      }
      return BootFromSlots();

    case Mode::kBootReplay: {
      Bytes img = prev.rv >= 0 ? prev.data : Bytes{};
      img.resize(kBlockSize, 0);
      commit_batch_.emplace_back(boot_cr_.homes[plan_idx_], std::move(img));
      ++plan_idx_;
      if (plan_idx_ < boot_cr_.homes.size()) {
        return DiskReadReq(kLogDataStart + static_cast<BlockNum>(plan_idx_));
      }
      if (options_.tracer != nullptr) {
        options_.tracer->Record(TraceEventKind::kFsLogCommit, self_.cluster, self_.pid.value,
                                1, boot_cr_.seq, commit_batch_.size());
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
      return ReadSlots();

    case Mode::kBootMeta: {
      Bytes chunk = prev.rv >= 0 ? prev.data : Bytes(kBlockSize, 0);
      chunk.resize(kBlockSize, 0);
      plan_buffer_.insert(plan_buffer_.end(), chunk.begin(), chunk.end());
      ++plan_idx_;
      if (plan_idx_ < meta_blocks_.size()) {
        return DiskReadReq(meta_blocks_[plan_idx_]);
      }
      plan_buffer_.resize(plan_offset_);
      meta_ = Decode<Meta>(plan_buffer_);
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
      switch (Decode<ReqTag>(b)) {
        case ReqTag::kOpen:
          return HandleOpen(channel, Decode<OpenRequest>(b));
        case ReqTag::kFileRead:
          return HandleFileRead(channel, Decode<uint64_t>(b));
        case ReqTag::kFileWrite:
          return HandleFileWrite(channel, Decode<Bytes>(b));
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
      const Inode& inode = meta_.inodes[cur_inode_];
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
      CommitRecord record;
      record.seq = rt_.log_seq + 1;
      record.epoch = epoch_ + 1;
      for (const auto& [home, image] : commit_batch_) {
        record.homes.push_back(home);
      }
      mode_ = Mode::kLogCommit;
      return DiskWriteReq(kCrSlot0 + static_cast<BlockNum>(record.seq % 2), Encode(record));
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
        options_.tracer->Record(TraceEventKind::kFsCommit, self_.cluster, self_.pid.value, 0,
                                epoch_, commits_);
        options_.tracer->Record(TraceEventKind::kFsLogCommit, self_.cluster, self_.pid.value,
                                0, rt_.log_seq, commit_batch_.size());
      }
      for (BlockNum b : meta_blocks_) {
        meta_.free_list.push_back(b);
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
