// NativeBody: C++ state-machine processes (system and peripheral servers).
//
// §7.6 distinguishes two server varieties and this file supports both:
//
//  * System servers (e.g. the process server) "are backed up, communicate
//    via message, and execute in the same way as ordinary user processes".
//    A NativeBody with paged_ft=true gets that: its serialized state is
//    chunked into AVM-sized pages, and the standard sync machinery ships
//    only the chunks that changed — the native analogue of dirty pages.
//
//  * Peripheral servers (§7.9) are core-resident, talk to devices directly,
//    and are backed by an *active* backup process that applies explicit
//    ServerSync messages. A NativeBody with paged_ft=false reports no dirty
//    pages; its program sends ServerSync payloads through the
//    kServerSyncSend native syscall, and the backup instance consumes them
//    via NativeProgram::ApplyServerSync.
//
// Programs are continuation-passing state machines: each Next() consumes
// the previous syscall's result and returns the next request. A program
// parked in a blocking read serializes as "pending request", which the body
// re-issues verbatim after restore — safe because only side-effect-free
// requests (read/which) may be pending across a sync.

#ifndef AURAGEN_SRC_KERNEL_NATIVE_BODY_H_
#define AURAGEN_SRC_KERNEL_NATIVE_BODY_H_

#include <map>
#include <memory>
#include <optional>

#include "src/kernel/body.h"

namespace auragen {

// Native-only syscall numbers, dispatched by the kernel to simulated
// devices. User (AVM) programs cannot issue these; peripheral servers
// "execute special system calls not available to user processes" (§4).
enum class NativeSys : uint32_t {
  kDiskRead = 100,        // a = block -> data
  kDiskWrite = 101,       // a = block, data = content
  kServerSyncSend = 102,  // data = trim-prefix + opaque state (see below)
  kTtyEmit = 103,         // data -> the terminal line's host transcript
  kSimTime = 104,         // -> current simulated time (process server only)
  kWriteChan = 105,       // b = channel id, a = kind (0 user / 1 open-reply /
                          // 2 signal / 3 page-reply), c = 1 for device-
                          // input-driven sends (uncounted, at-most-once),
                          // data = payload
  kAcceptChan = 106,      // data = encoded ChanCreate: create the server-side
                          // entry for a channel this server just opened
  kSetTimer = 107,        // a = delay us, b = cookie: a {kTimerFire, cookie}
                          // message lands on the server's self channel later.
                          // Timers are cluster-local soft state; a recovered
                          // server re-arms from its own tables.
  kFindChan = 108,        // a = binding_tag, b = peer pid (0 = any) ->
                          // channel id of the matching local entry, 0 if none
  kWhoAmI = 109,          // -> data = encoded WhoAmIReply: queried at
                          // startup/takeover, never from synced state (it
                          // is environmental, §7.5)
  kDiskWriteVec = 110,    // data = encoded DiskWriteBatch: one multi-block
                          // disk transaction (single seek per mirror, all
                          // blocks land atomically). The file server's log
                          // append + checkpoint migration.
};

inline constexpr uint32_t kFirstNativeSys = 100;

// Sys::kRead with a == kAnyChannel: consume the oldest message across every
// channel the server owns (result: a ReadAnyResult, src/core/wire.h).
inline constexpr uint64_t kAnyChannel = ~0ull;

inline SyscallRequest NativeRequest(NativeSys num) {
  SyscallRequest r;
  r.num = static_cast<Sys>(num);
  return r;
}

// The kWhoAmI reply: the caller's pid, its cluster and its backup cluster.
struct WhoAmIReply {
  Gpid pid;
  ClusterId cluster = kNoCluster;
  ClusterId backup = kNoCluster;

  template <class F>
  void Fields(F& f) {
    f(pid, cluster, backup);
  }
};

// The kServerSyncSend payload begins with a kernel-readable trim prefix —
// count of (channel id, requests serviced since last server sync) pairs —
// so the backup cluster's executive can discard already-serviced requests
// from the saved queues (§7.9), followed by an opaque program blob.
struct ServerSyncPrefix {
  std::map<uint64_t, uint32_t> serviced;  // channel id -> requests serviced

  template <class F>
  void Fields(F& f) {
    f(serviced);
  }
};

class NativeProgram {
 public:
  virtual ~NativeProgram() = default;

  // Consumes the previous result and returns the next syscall. `first` is
  // true on the initial call (and after a restart from a pre-first-sync
  // state), where `prev` is meaningless.
  virtual SyscallRequest Next(const SyscallResult& prev, bool first) = 0;

  // Complete state capture/restore; must include the program's position in
  // its own request-handling loop.
  virtual void SerializeState(ByteWriter& w) const = 0;
  virtual void RestoreState(ByteReader& r) = 0;

  // Peripheral-server backups: apply the opaque part of a ServerSync.
  virtual void ApplyServerSync(ByteReader& r) { (void)r; }

  // Work units one Next() costs (time accounting).
  virtual uint64_t StepWork() const { return 50; }

  // After a page-synced restore, return true to take a fresh Next() call
  // instead of re-issuing the blocking read captured at sync time. Programs
  // that must re-arm soft state (the process server's timers) use this; the
  // program then owns re-entering its read loop.
  virtual bool WantsRunAfterRestore() const { return false; }
};

class NativeBody : public Body {
 public:
  NativeBody(std::unique_ptr<NativeProgram> program, bool paged_ft);

  BodyRun Run(uint64_t budget) override;
  void CompleteSyscall(const SyscallResult& result) override;

  bool SyncReady() const override { return !have_result_; }
  Bytes CaptureContext() const override;
  void RestoreContext(const Bytes& context) override;

  std::vector<PageNum> DirtyPages() const override;
  Bytes PageContent(PageNum page) const override;
  void ClearDirty() override;
  std::vector<std::pair<PageNum, Bytes>> CaptureFlushPages(bool full) override;
  void EvictAllPages() override;
  void InstallPage(PageNum page, bool known, const Bytes& content) override;
  bool NeedsServerPaging() const override { return recovering_; }

  bool EnterSignal(uint32_t handler, uint32_t signal_number) override;

  NativeProgram& program() { return *program_; }
  bool paged_ft() const { return paged_ft_; }

 private:
  Bytes SerializeProgram() const;
  static std::vector<Bytes> Chunk(const Bytes& blob);

  std::unique_ptr<NativeProgram> program_;
  bool paged_ft_;

  bool started_ = false;
  bool awaiting_completion_ = false;
  std::optional<SyscallRequest> pending_;   // issued, not yet completed
  std::optional<SyscallResult> last_result_;
  bool have_result_ = false;

  // Page-diff sync state (paged_ft only).
  mutable std::vector<Bytes> sync_snapshot_;     // chunks captured by DirtyPages
  std::vector<Bytes> last_synced_chunks_;

  // Recovery state.
  bool recovering_ = false;
  uint32_t expected_chunks_ = 0;
  std::vector<std::optional<Bytes>> incoming_chunks_;
  bool restore_pending_request_ = false;
};

}  // namespace auragen

#endif  // AURAGEN_SRC_KERNEL_NATIVE_BODY_H_
