#include "src/paging/page_server.h"

#include <utility>

#include "src/core/wire.h"
#include "src/servers/protocol.h"
#include "src/trace/trace.h"

namespace auragen {

namespace {

// ServerSync op codes (the compact log the backup applies): {kWrite, pid,
// page, block} and {kSync, pid}.
enum class PsOp : uint8_t { kWrite = 1, kSync = 2 };

template <typename... T>
void AppendOp(Bytes& log, PsOp op, const T&... v) {
  ByteWriter w(std::move(log));
  EncodeTo(w, op, v...);
  log = w.Take();
}

SyscallRequest ReadAnyRequest() {
  SyscallRequest req;
  req.num = Sys::kRead;
  req.a = kAnyChannel;
  return req;
}

}  // namespace

PageServerProgram::PageServerProgram(PageServerOptions options)
    : options_(options), next_block_(options.first_block) {}

BlockNum PageServerProgram::Alloc() {
  if (!free_list_.empty()) {
    BlockNum b = free_list_.back();
    free_list_.pop_back();
    return b;
  }
  AURAGEN_CHECK(next_block_ < options_.num_blocks) << "page store exhausted";
  return next_block_++;
}

void PageServerProgram::Release(BlockNum block) {
  auto it = refcount_.find(block);
  AURAGEN_CHECK(it != refcount_.end()) << "release of untracked block" << block;
  if (--it->second == 0) {
    refcount_.erase(it);
    free_list_.push_back(block);
  }
}

void PageServerProgram::InstallWrite(Gpid pid, PageNum page, BlockNum block) {
  Account& acct = primary_[pid];
  if (auto it = acct.pages.find(page); it != acct.pages.end()) {
    Release(it->second);
  }
  acct.pages[page] = block;
  refcount_[block]++;
}

void PageServerProgram::CopyAccounts(Gpid pid) {
  // §7.8: "make the backup's account identical to that of the primary.
  // After a sync, only one copy of each page will exist."
  Account& b = backup_[pid];
  for (const auto& [page, block] : b.pages) {
    Release(block);
  }
  b = primary_[pid];
  for (const auto& [page, block] : b.pages) {
    refcount_[block]++;
  }
}

SyscallRequest PageServerProgram::ReadAny() {
  mode_ = Mode::kAwaitMessage;
  return ReadAnyRequest();
}

SyscallRequest PageServerProgram::AfterService() {
  if (ops_since_sync_ >= options_.sync_every_ops) {
    // §7.9 explicit sync: trim prefix + the op log the backup applies.
    ops_since_sync_ = 0;
    mode_ = Mode::kSendingSync;
    SyscallRequest req = NativeRequest(NativeSys::kServerSyncSend);
    req.data = Encode(ServerSyncPrefix{std::exchange(serviced_since_sync_, {})},
                      std::exchange(ops_log_, {}));
    return req;
  }
  return ReadAny();
}

SyscallRequest PageServerProgram::Next(const SyscallResult& prev, bool first) {
  if (first) {
    mode_ = Mode::kStart;
  }
  switch (mode_) {
    case Mode::kStart:
      return ReadAny();

    case Mode::kAwaitMessage: {
      auto [channel, src, tag, kind, body] = Decode<ReadAnyResult>(prev.data);
      cur_channel_ = channel;
      serviced_since_sync_[cur_channel_]++;

      switch (kind) {
        case MsgKind::kPageWrite: {
          PageWriteBody write = Decode<PageWriteBody>(body);
          cur_pid_ = write.pid;
          cur_page_ = write.page;
          cur_block_ = Alloc();
          mode_ = Mode::kDiskWriting;
          SyscallRequest req = NativeRequest(NativeSys::kDiskWrite);
          req.a = cur_block_;
          req.data = std::move(write.content);
          return req;
        }
        case MsgKind::kSync: {
          SyncRecord record = Decode<SyncRecord>(body);
          CopyAccounts(record.pid);
          AppendOp(ops_log_, PsOp::kSync, record.pid);
          ops_since_sync_++;
          return AfterService();
        }
        case MsgKind::kPageRequest: {
          PageRequestBody req_body = Decode<PageRequestBody>(body);
          cur_pid_ = req_body.pid;
          cur_page_ = req_body.page;
          cur_cookie_ = req_body.cookie;
          cur_reply_to_ = req_body.reply_to;
          auto ait = backup_.find(cur_pid_);
          const BlockNum* block = nullptr;
          if (ait != backup_.end()) {
            if (auto pit = ait->second.pages.find(cur_page_); pit != ait->second.pages.end()) {
              block = &pit->second;
            }
          }
          if (block == nullptr) {
            // Never synced: deterministic zero fill at the faulting kernel.
            PageReplyBody reply;
            reply.pid = cur_pid_;
            reply.page = cur_page_;
            reply.cookie = cur_cookie_;
            reply.known = false;
            mode_ = Mode::kReplying;
            SyscallRequest req = NativeRequest(NativeSys::kWriteChan);
            req.a = 3;  // kPageReply
            req.b = cur_channel_;
            req.data = Encode(reply);
            return req;
          }
          cur_block_ = *block;
          mode_ = Mode::kDiskReading;
          SyscallRequest req = NativeRequest(NativeSys::kDiskRead);
          req.a = cur_block_;
          return req;
        }
        case MsgKind::kUser:
        case MsgKind::kClose:
        default:
          // Close notifications and stray traffic change no state.
          return ReadAny();
      }
    }

    case Mode::kDiskWriting: {
      if (prev.rv < 0) {
        // Disk failure: the mirror absorbed it or the machine is beyond the
        // single-failure model; drop the block and continue.
        free_list_.push_back(cur_block_);
        return AfterService();
      }
      InstallWrite(cur_pid_, cur_page_, cur_block_);
      if (options_.tracer != nullptr) {
        options_.tracer->Record(TraceEventKind::kPageStore, kNoCluster, cur_pid_.value, 0,
                                cur_page_, cur_block_);
      }
      AppendOp(ops_log_, PsOp::kWrite, cur_pid_, cur_page_, cur_block_);
      ops_since_sync_++;
      return AfterService();
    }

    case Mode::kDiskReading: {
      PageReplyBody reply;
      reply.pid = cur_pid_;
      reply.page = cur_page_;
      reply.cookie = cur_cookie_;
      reply.known = true;
      if (prev.rv >= 0) {
        reply.content = prev.data;
        reply.content.resize(kAvmPageBytes, 0);
      } else {
        reply.known = false;  // double disk failure; zero-fill beats hanging
      }
      if (options_.tracer != nullptr) {
        options_.tracer->Record(TraceEventKind::kPageServe, kNoCluster, cur_pid_.value, 0,
                                cur_page_, reply.known ? 1 : 0);
      }
      mode_ = Mode::kReplying;
      SyscallRequest req = NativeRequest(NativeSys::kWriteChan);
      req.a = 3;
      req.b = cur_channel_;
      req.data = Encode(reply);
      return req;
    }

    case Mode::kReplying:
      return AfterService();

    case Mode::kSendingSync:
      return ReadAny();
  }
  return ReadAny();
}

void PageServerProgram::ApplyServerSync(ByteReader& r) {
  // Replay the primary's op log against our mirror of the tables. The ops
  // are deterministic: allocation results are recorded, not recomputed.
  const Bytes log = Decode<Bytes>(r);
  ByteReader ops(log);
  while (!ops.done()) {
    PsOp op{};
    Gpid pid;
    DecodeInto(ops, op, pid);
    if (op == PsOp::kSync) {
      CopyAccounts(pid);
      continue;
    }
    PageNum page = 0;
    BlockNum block = 0;
    DecodeInto(ops, page, block);
    // Mirror the allocator: remove from free list / bump next_block_.
    auto it = std::find(free_list_.begin(), free_list_.end(), block);
    if (it != free_list_.end()) {
      free_list_.erase(it);
    } else if (block >= next_block_) {
      next_block_ = block + 1;
    }
    InstallWrite(pid, page, block);
  }
}

void PageServerProgram::SerializeState(ByteWriter& w) const { EncodeTo(w, *this); }

void PageServerProgram::RestoreState(ByteReader& r) {
  DecodeInto(r, *this);
  refcount_.clear();
  for (const auto* accounts : {&primary_, &backup_}) {
    for (const auto& [pid, acct] : *accounts) {
      for (const auto& [page, block] : acct.pages) {
        refcount_[block]++;
      }
    }
  }
}

bool PageServerProgram::BackupHasPage(Gpid pid, PageNum page) const {
  auto it = backup_.find(pid);
  return it != backup_.end() && it->second.pages.count(page) != 0;
}

bool PageServerProgram::PrimaryHasPage(Gpid pid, PageNum page) const {
  auto it = primary_.find(pid);
  return it != primary_.end() && it->second.pages.count(page) != 0;
}

}  // namespace auragen
