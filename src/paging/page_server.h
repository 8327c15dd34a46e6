// The page server (§7.6): a peripheral server owning disk space that holds
// the paged-out state of every backed-up process.
//
// It keeps two accounts per process: the primary account (pages as last
// shipped) and the backup account (pages as of the last *successful* sync).
// Dirty pages arriving at sync time go to disk and into the primary
// account; the sync message — which the bus delivered atomically to the
// backup cluster, to this server, and to this server's backup — makes the
// backup account identical to the primary's. "After a sync, only one copy
// of each page will exist" (§7.8): accounts share disk blocks by refcount,
// and a second copy appears only when the primary ships a newer version of
// a page.
//
// Recovery paging (§7.10.2) reads from the *backup* account, which is why
// the account copy and the backup-PCB update riding the same atomic message
// is load-bearing: the page account can never run ahead of the PCB.
//
// Fault tolerance of the server itself is §7.9's active-backup scheme: page
// contents live on the dual-ported mirrored disk; the explicit ServerSync
// carries only a compact operation log (allocations and account copies),
// and the backup instance replays untrimmed request messages on takeover.

#ifndef AURAGEN_SRC_PAGING_PAGE_SERVER_H_
#define AURAGEN_SRC_PAGING_PAGE_SERVER_H_

#include <map>
#include <vector>

#include "src/kernel/native_body.h"

namespace auragen {

class Tracer;

struct PageServerOptions {
  // Send a ServerSync after this many serviced state-changing requests.
  uint32_t sync_every_ops = 64;
  // First usable disk block (blocks below are reserved).
  BlockNum first_block = 8;
  BlockNum num_blocks = 16384;
  // Write-only flight recorder; null disables server-side trace events.
  Tracer* tracer = nullptr;
};

class PageServerProgram : public NativeProgram {
 public:
  explicit PageServerProgram(PageServerOptions options);

  SyscallRequest Next(const SyscallResult& prev, bool first) override;
  void SerializeState(ByteWriter& w) const override;
  void RestoreState(ByteReader& r) override;
  void ApplyServerSync(ByteReader& r) override;
  uint64_t StepWork() const override { return 30; }

  // Introspection for tests.
  bool BackupHasPage(Gpid pid, PageNum page) const;
  bool PrimaryHasPage(Gpid pid, PageNum page) const;
  uint64_t blocks_in_use() const { return refcount_.size(); }

 private:
  enum class Mode : uint8_t {
    kStart,
    kAwaitMessage,   // read-any pending
    kDiskWriting,    // page content on its way to disk
    kDiskReading,    // page content on its way back for a kPageRequest
    kReplying,       // kWriteChan of a page reply pending
    kSendingSync,    // kServerSyncSend pending
  };

  struct Account {
    std::map<PageNum, BlockNum> pages;
  };

  SyscallRequest ReadAny();
  SyscallRequest AfterService();
  BlockNum Alloc();
  void Release(BlockNum block);
  void InstallWrite(Gpid pid, PageNum page, BlockNum block);
  void CopyAccounts(Gpid pid);
  void DropAccounts(Gpid pid);

  PageServerOptions options_;
  Mode mode_ = Mode::kStart;

  std::map<Gpid, Account> primary_;
  std::map<Gpid, Account> backup_;
  std::map<BlockNum, uint32_t> refcount_;
  std::vector<BlockNum> free_list_;
  BlockNum next_block_;

  // In-flight operation context.
  Gpid cur_pid_;
  PageNum cur_page_ = 0;
  BlockNum cur_block_ = 0;
  uint64_t cur_cookie_ = 0;
  ClusterId cur_reply_to_ = kNoCluster;
  uint64_t cur_channel_ = 0;

  // ServerSync bookkeeping (§7.9).
  std::map<uint64_t, uint32_t> serviced_since_sync_;  // channel -> count
  Bytes ops_log_;
  uint32_t ops_since_sync_ = 0;
};

}  // namespace auragen

#endif  // AURAGEN_SRC_PAGING_PAGE_SERVER_H_
