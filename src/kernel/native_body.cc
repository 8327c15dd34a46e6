#include "src/kernel/native_body.h"

#include <algorithm>
#include <utility>

namespace auragen {

NativeBody::NativeBody(std::unique_ptr<NativeProgram> program, bool paged_ft)
    : program_(std::move(program)), paged_ft_(paged_ft) {}

Bytes NativeBody::SerializeProgram() const {
  ByteWriter w;
  program_->SerializeState(w);
  return w.Take();
}

std::vector<Bytes> NativeBody::Chunk(const Bytes& blob) {
  std::vector<Bytes> chunks;
  for (size_t at = 0; at < blob.size(); at += kAvmPageBytes) {
    size_t n = std::min<size_t>(kAvmPageBytes, blob.size() - at);
    Bytes chunk(blob.begin() + at, blob.begin() + at + n);
    chunk.resize(kAvmPageBytes, 0);
    chunks.push_back(std::move(chunk));
  }
  if (chunks.empty()) {
    chunks.emplace_back(kAvmPageBytes, 0);
  }
  return chunks;
}

BodyRun NativeBody::Run(uint64_t budget) {
  (void)budget;
  AURAGEN_CHECK(!awaiting_completion_) << "Run before CompleteSyscall";
  BodyRun run;

  if (recovering_) {
    // Demand the state chunks back, in order, then resume.
    for (uint32_t i = 0; i < expected_chunks_; ++i) {
      if (!incoming_chunks_[i].has_value()) {
        run.kind = BodyRun::Kind::kPageFault;
        run.fault_page = i;
        return run;
      }
    }
    Bytes blob;
    for (uint32_t i = 0; i < expected_chunks_; ++i) {
      blob.insert(blob.end(), incoming_chunks_[i]->begin(), incoming_chunks_[i]->end());
    }
    ByteReader r(blob);
    program_->RestoreState(r);
    last_synced_chunks_ = Chunk(blob);  // account content as of last sync
    recovering_ = false;
    incoming_chunks_.clear();
    started_ = true;
    if (restore_pending_request_) {
      restore_pending_request_ = false;
      if (!program_->WantsRunAfterRestore()) {
        // Re-issue the blocked read/which captured at sync time.
        AURAGEN_CHECK(pending_.has_value());
        run.kind = BodyRun::Kind::kSyscall;
        run.request = *pending_;
        run.work = 1;
        awaiting_completion_ = true;
        return run;
      }
      pending_.reset();
    }
  }

  SyscallResult prev;
  bool first = !started_;
  if (have_result_) {
    prev = std::move(*last_result_);
    last_result_.reset();
    have_result_ = false;
  }
  started_ = true;

  SyscallRequest req = program_->Next(prev, first);
  run.work = program_->StepWork();
  if (req.num == Sys::kExit) {
    run.kind = BodyRun::Kind::kExited;
    run.exit_status = static_cast<int32_t>(req.a);
    return run;
  }
  run.kind = BodyRun::Kind::kSyscall;
  run.request = req;
  pending_ = std::move(req);
  awaiting_completion_ = true;
  return run;
}

void NativeBody::CompleteSyscall(const SyscallResult& result) {
  AURAGEN_CHECK(awaiting_completion_);
  awaiting_completion_ = false;
  pending_.reset();
  last_result_ = result;
  have_result_ = true;
}

Bytes NativeBody::CaptureContext() const {
  // Context = chunk count, then a presence flag and the pending
  // (side-effect-free) request, if any. The kernel only syncs a native body
  // when it is parked in a blocking read/which or has consumed its last
  // result, both representable here.
  const uint32_t chunks = static_cast<uint32_t>(Chunk(SerializeProgram()).size());
  if (awaiting_completion_ && pending_.has_value()) {
    AURAGEN_CHECK(pending_->num == Sys::kRead || pending_->num == Sys::kWhich)
        << "sync with a side-effecting syscall pending: num="
        << static_cast<uint32_t>(pending_->num);
    return Encode(chunks, true, *pending_);
  }
  AURAGEN_CHECK(!have_result_) << "sync with an unconsumed syscall result";
  return Encode(chunks, false);
}

void NativeBody::RestoreContext(const Bytes& context) {
  ByteReader r(context);
  DecodeInto(r, expected_chunks_, restore_pending_request_);
  pending_.reset();
  if (restore_pending_request_) {
    pending_ = Decode<SyscallRequest>(r);
  }
  awaiting_completion_ = false;
  have_result_ = false;
  last_result_.reset();
}

std::vector<PageNum> NativeBody::DirtyPages() const {
  if (!paged_ft_) {
    return {};
  }
  sync_snapshot_ = Chunk(SerializeProgram());
  std::vector<PageNum> dirty;
  size_t n = std::max(sync_snapshot_.size(), last_synced_chunks_.size());
  static const Bytes kZeroChunk(kAvmPageBytes, 0);
  for (size_t i = 0; i < n; ++i) {
    const Bytes& cur = i < sync_snapshot_.size() ? sync_snapshot_[i] : kZeroChunk;
    const Bytes& old = i < last_synced_chunks_.size() ? last_synced_chunks_[i] : kZeroChunk;
    if (cur != old) {
      dirty.push_back(static_cast<PageNum>(i));
    }
  }
  return dirty;
}

Bytes NativeBody::PageContent(PageNum page) const {
  AURAGEN_CHECK(page < sync_snapshot_.size()) << "PageContent outside snapshot";
  return sync_snapshot_[page];
}

void NativeBody::ClearDirty() {
  if (!paged_ft_) {
    return;
  }
  last_synced_chunks_ = sync_snapshot_;
}

std::vector<std::pair<PageNum, Bytes>> NativeBody::CaptureFlushPages(bool full) {
  if (!paged_ft_) {
    return {};
  }
  std::vector<std::pair<PageNum, Bytes>> out;
  if (full) {
    sync_snapshot_ = Chunk(SerializeProgram());
    for (size_t i = 0; i < sync_snapshot_.size(); ++i) {
      out.emplace_back(static_cast<PageNum>(i), sync_snapshot_[i]);
    }
  } else {
    for (PageNum p : DirtyPages()) {
      out.emplace_back(p, PageContent(p));
    }
  }
  last_synced_chunks_ = sync_snapshot_;
  return out;
}

void NativeBody::EvictAllPages() {
  recovering_ = true;
  incoming_chunks_.assign(expected_chunks_, std::nullopt);
}

void NativeBody::InstallPage(PageNum page, bool known, const Bytes& content) {
  AURAGEN_CHECK(recovering_) << "native page-in outside recovery";
  AURAGEN_CHECK(page < incoming_chunks_.size());
  if (known) {
    incoming_chunks_[page] = content;
  } else {
    incoming_chunks_[page] = Bytes(kAvmPageBytes, 0);
  }
}

bool NativeBody::EnterSignal(uint32_t handler, uint32_t signal_number) {
  (void)handler;
  (void)signal_number;
  return false;  // servers take no asynchronous signals
}

}  // namespace auragen
