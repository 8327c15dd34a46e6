// Process control blocks: live processes and passive backups (§7.7).
//
// A live Pcb drives a Body on the work processors. A BackupPcb is the
// passive shadow §7.7 describes — "a process control block ... less the
// kernel stack, and a backup page account kept by the page server" — plus
// the birth notices and saved channel bindings rollforward needs. Peripheral
// servers (§7.9) instead run an *active* backup: a live Pcb whose
// `server_backup` flag keeps it off the scheduler until takeover.

#ifndef AURAGEN_SRC_CORE_PCB_H_
#define AURAGEN_SRC_CORE_PCB_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "src/base/types.h"
#include "src/avm/program.h"
#include "src/core/wire.h"
#include "src/kernel/body.h"

namespace auragen {

enum class ProcState : uint8_t {
  kReady,         // runnable (queued or on a work processor)
  kBlockedRead,   // awaiting a message on one channel
  kBlockedWhich,  // awaiting a message on any channel of a bunch group
  kBlockedPage,   // awaiting a page server reply (recovery paging, §7.10.2)
  kBlockedDevice, // peripheral server awaiting simulated device completion
  kParkedBackup,  // active server backup: alive, never scheduled (§7.9)
  kExited,
};

// Kind of peer on a channel (§7.4.1 status info: "the type of process at
// the other end").
//   kUserPeer      — another user process; read pops queued messages.
//   kServerControl — a server control channel (fs fd0, proc fd1, tty fd2);
//                    read pops queued messages (replies, pushed input).
//   kServerFile    — a per-file channel to the file server: read(fd)
//                    auto-sends a READ request and awaits the data reply.
enum class PeerKind : uint8_t { kUserPeer = 0, kServerControl = 1, kServerFile = 2 };

struct FdBinding {
  ChannelId channel;
  PeerKind peer = PeerKind::kUserPeer;
};

struct Pcb {
  Gpid pid;
  BackupMode mode = BackupMode::kQuarterback;
  Gpid parent;
  Gpid family_head;                 // §7.7: family backups share one cluster
  ClusterId backup_cluster = kNoCluster;  // kNoCluster: running unprotected
  bool backup_exists = false;       // backup PCB materialized (first sync or spawn)
  bool needs_rebackup = false;      // backup cluster died; re-create at the
                                    // next sync-safe point (crash.cc)
  SimTime rebackup_not_before = 0;  // earliest instant every live peer has
                                    // frozen this process's channels
  bool rebuild_capture = false;     // re-backup capture in flight: CanSyncNow
                                    // accepts a blocked-for-reply process
                                    // (the reply is held by the very §7.10.1
                                    // freeze the re-backup lifts)
  bool is_server = false;           // native server (system or peripheral)
  bool peripheral = false;          // explicit-sync FT, device syscalls allowed
  bool server_backup = false;       // active backup instance of a peripheral server
  ClusterId primary_cluster = kNoCluster;  // server_backup: where the primary runs

  std::unique_ptr<Body> body;
  Executable exe;                   // for forks and pre-first-sync recovery

  ProcState state = ProcState::kReady;
  bool dispatched = false;          // currently occupying a work processor

  // Block details.
  ChannelId blocked_channel;        // kBlockedRead
  Fd blocked_fd = kBadFd;
  uint32_t blocked_group = 0;       // kBlockedWhich
  bool blocked_read_any = false;    // server read-any (native kAnyChannel)
  bool blocked_side_effects = false;  // blocked awaiting a reply to a request
                                      // we sent (open/writev/gettime): sync
                                      // is postponed at such points
  uint64_t blocked_max = 0;         // read size limit
  PageNum blocked_page = 0;         // kBlockedPage
  uint64_t page_cookie = 0;

  // The implicit signal channel (§7.5.2).
  ChannelId signal_channel;

  // Descriptor table and bunch groups (§7.5.1).
  std::map<Fd, FdBinding> fds;
  Fd next_fd = 0;
  std::map<uint32_t, std::vector<Fd>> groups;
  uint32_t next_group = 1;

  // Sync bookkeeping (§5.2/§7.8).
  uint32_t reads_since_sync = 0;
  SimTime exec_us_since_sync = 0;
  uint64_t sync_seq = 0;
  bool ever_synced = false;
  uint32_t sync_reads_limit = 0;    // 0: use system default
  SimTime sync_time_limit_us = 0;
  // Adaptive trigger (SyncPolicy.adaptive): the effective time limit, moved
  // after each flush by the observed dirty-page count. 0 until first tuned.
  SimTime adaptive_time_limit_us = 0;
  // Async flush (§8.3): a copy-on-write flush for this process is still
  // draining to the outgoing queue. New sync triggers are deferred, and
  // counted sends are tallied per channel so the eventual sync record can
  // carry the backup's remaining duplicate-suppression budget (§5.4).
  bool flush_in_flight = false;
  std::map<uint64_t, uint32_t> flush_window_writes;

  // Signals (§7.5.2).
  uint32_t sig_handler = 0;         // 0 = ignore
  bool in_signal = false;

  // Fork bookkeeping (§7.7).
  uint64_t fork_seq = 0;
  std::vector<BirthNotice> pending_birth_notices;  // set at takeover; consulted
                                                   // when replaying forks

  // Accounting.
  SimTime exec_us_total = 0;
  uint64_t reads_total = 0;
  uint64_t writes_total = 0;

  // The primary's FT stall (§8.3: enqueueing dirty pages + the sync
  // message; for the §2 checkpoint baselines, the whole synchronous copy).
  // The scheduler keeps the process off the work processors until then.
  SimTime stall_until = 0;
};

// Passive backup (§7.7): state as of the last sync plus fork/channel
// bookkeeping. Lives in the backup cluster's kernel; becomes a live Pcb on
// takeover (§7.10.1 step 2).
struct BackupPcb {
  Gpid pid;
  BackupMode mode = BackupMode::kQuarterback;
  Gpid parent;
  Gpid family_head;
  ClusterId primary_cluster = kNoCluster;

  bool has_sync = false;            // false: recover by restarting the image
  uint64_t sync_seq = 0;
  Bytes context;                    // body context as of last sync
  uint32_t sig_handler = 0;
  std::map<Fd, ChannelId> fds;      // bindings as of last sync
  Bytes exe;                        // serialized Executable

  bool is_server = false;
  bool peripheral = false;
  ChannelId signal_channel;

  std::vector<BirthNotice> birth_notices;  // children announced by the primary

  // §2 checkpointing baseline only: page images shipped by checkpoints.
  std::map<PageNum, Bytes> ckpt_pages;
};

}  // namespace auragen

#endif  // AURAGEN_SRC_CORE_PCB_H_
