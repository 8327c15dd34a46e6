// Message formats of the Auros message system (§5, §7.4).
//
// Every payload on the intercluster bus is one Msg: a fixed header followed
// by kind-specific bytes. The header carries the three-destination routing
// information of §5.1 — the clusters of the primary destination, of the
// destination's backup, and of the sender's backup — so a receiving
// executive processor can decide which of the three roles (or several at
// once, when roles co-reside) it plays for this message (§7.4.2).
//
// Each layout is declared once, as a Fields list in wire order; Encode(x)
// and Decode<T>(bytes) (src/base/codec.h) derive the writer and the reader
// from it.

#ifndef AURAGEN_SRC_CORE_WIRE_H_
#define AURAGEN_SRC_CORE_WIRE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/base/codec.h"
#include "src/base/types.h"

namespace auragen {

enum class MsgKind : uint8_t {
  // --- channel traffic (three-way delivered, §5.1) ---
  kUser = 1,        // ordinary data written on a channel
  kOpenReply = 2,   // file server -> opener (+ backup): creates the backup
                    // routing entry for the new channel (§7.4.1)
  kSignal = 3,      // asynchronous signal on the signal channel (§7.5.2)
  kClose = 4,       // peer closed its end; reader sees EOF after draining

  // --- kernel control (cluster-addressed) ---
  kSync = 10,         // user-process sync record (§5.2, §7.8)
  kBirthNotice = 11,  // fork announcement to the family's backup cluster (§7.7)
  kExitNotice = 12,   // normal exit: dismantle the backup
  kCrashNotice = 13,  // a cluster is down; begin crash handling (§7.10.1)
  kHeartbeat = 14,    // liveness polling (§7.10)
  kBackupCreate = 15, // fullback: state shipment creating a replacement backup
  kBackupReady = 16,  // fullback: new backup in place; unfreeze channels
  kChanCreate = 17,   // fabricate routing entries for spawn-time server channels

  // --- paging traffic on the kernel<->page-server channel (§7.6) ---
  kPageWrite = 20,    // dirty page shipped at sync
  kPageRequest = 21,  // demand fault during/after recovery (§7.10.2)
  kPageReply = 22,

  // --- peripheral-server explicit sync (§7.9) ---
  kServerSync = 30,

  // --- §2 explicit-checkpointing baseline (src/baselines, experiment E2) ---
  kCheckpoint = 40,

  // --- §10 future-work extension: individual-process failure ---
  // "Hardware failures which do not affect all processes in a cluster will
  // not cause the cluster to crash, but will cause individual backups to be
  // brought up for the affected processes."
  kProcCrash = 50,
};

const char* MsgKindName(MsgKind kind);

// Fixed header. `channel` / `dst_pid` identify the destination routing
// entry; the three cluster fields drive delivery roles. Control messages use
// kNoChannel and address clusters directly via the frame target mask.
struct MsgHeader {
  MsgKind kind = MsgKind::kUser;
  Gpid src_pid;
  Gpid dst_pid;
  ChannelId channel;
  ClusterId dst_primary_cluster = kNoCluster;
  ClusterId dst_backup_cluster = kNoCluster;
  ClusterId src_backup_cluster = kNoCluster;

  template <class F>
  void Fields(F& f) {
    f(kind, src_pid, dst_pid, channel, dst_primary_cluster, dst_backup_cluster,
      src_backup_cluster);
  }
};

struct Msg {
  MsgHeader header;
  Bytes body;

  template <class F>
  void Fields(F& f) {
    f(header, body);
  }
};

// A native server's read-any result (Sys::kRead on kAnyChannel): the oldest
// message across all its channels, with where it came from.
struct ReadAnyResult {
  uint64_t channel = 0;
  Gpid src;
  uint32_t binding_tag = 0;
  MsgKind kind = MsgKind::kUser;
  Bytes body;

  template <class F>
  void Fields(F& f) {
    f(channel, src, binding_tag, kind, body);
  }
};

// Decode-once view of a frame payload (DESIGN.md §13). The executive parses
// the fixed header a single time per arriving frame; the body stays a
// non-owning cursor into the shared payload buffer, which the view keeps
// alive. Receivers copy bytes only at the point a queue genuinely takes
// ownership (ToOwned: primary read queue, backup saved queue).
struct MsgView {
  MsgHeader header;
  PayloadPtr payload;     // shared frame buffer; never mutated
  uint32_t body_off = 0;  // body location inside *payload
  uint32_t body_len = 0;

  ByteView body() const { return ByteView(payload->data() + body_off, body_len); }

  // The single legal copy point: materializes an owned Msg for a queue.
  Msg ToOwned() const;

  static MsgView Parse(const PayloadPtr& frame_payload);

  // Adapts a locally-built Msg (no frame involved) by moving its body into
  // the shared-payload plane — for kernel-internal self-delivery paths.
  static MsgView FromOwned(Msg&& m);
};

// --- kind-specific bodies ---

// kSync (§7.8): "all cluster-independent information kept about the
// process's state" plus per-channel deltas. `context` is the serialized body
// context (AVM registers or a native body's resume token); bulky state went
// separately as kPageWrite traffic.
struct SyncChannelRecord {
  ChannelId channel;
  Fd fd = kBadFd;
  bool opened_since_sync = false;
  bool closed_since_sync = false;
  uint32_t reads_since_sync = 0;

  template <class F>
  void Fields(F& f) {
    f(channel, fd, opened_since_sync, closed_since_sync, reads_since_sync);
  }
};

struct SyncRecord {
  Gpid pid;
  uint64_t sync_seq = 0;          // monotone per process
  bool first_sync = false;        // triggers backup-process creation (§7.7)
  Bytes context;                  // registers / native resume state (wrapped
                                  // in a KernelContext)
  uint32_t sig_handler = 0;       // signal disposition as of this sync
  uint64_t exec_us = 0;           // accounting info
  // Identity carried so a first sync can materialize the backup PCB.
  ClusterId backup_cluster = kNoCluster;  // who applies the PCB update
  ClusterId primary_cluster = kNoCluster;
  uint8_t mode = 0;               // BackupMode
  Gpid parent;
  Gpid family_head;
  std::vector<SyncChannelRecord> channels;
  // Async flush (§8.3): counted sends the primary made on each channel
  // between record build and record transmission. Those messages reach the
  // backup *before* this record, so the backup must keep exactly this much
  // duplicate-suppression budget (§5.4) instead of zeroing the counter.
  std::vector<std::pair<uint64_t, uint32_t>> writes_in_flight;

  template <class F>
  void Fields(F& f) {
    f(pid, sync_seq, first_sync, context, sig_handler, exec_us, backup_cluster,
      primary_cluster, mode, parent, family_head, channels, writes_in_flight);
  }
};

// Kernel-held per-process state that must survive into the backup alongside
// the body context: descriptor allocation, bunch groups (§7.5.1), fork
// ordinal (§7.7), and the in-signal flag (§7.5.2). Wrapped around the body
// context inside SyncRecord::context.
struct KernelContext {
  Bytes body_context;
  int32_t next_fd = 0;
  uint32_t next_group = 1;
  std::vector<std::pair<uint32_t, std::vector<int32_t>>> groups;
  uint64_t fork_seq = 0;
  bool in_signal = false;

  template <class F>
  void Fields(F& f) {
    f(body_context, next_fd, next_group, groups, fork_seq, in_signal);
  }
};

// kBirthNotice (§7.7): enough to repeat the fork with the same identity, and
// to pre-create routing entries for fork-time channels.
struct BirthNotice {
  Gpid parent;
  Gpid child;
  uint64_t fork_seq = 0;          // ordinal of this fork at the parent
  uint8_t mode = 0;               // child's BackupMode
  Gpid family_head;
  std::vector<Bytes> chan_creates;  // encoded ChanCreate for fork channels

  template <class F>
  void Fields(F& f) {
    f(parent, child, fork_seq, mode, family_head, chan_creates);
  }
};

// kChanCreate: instructs a cluster's executive to fabricate a routing entry.
// Used for spawn-time channels to system/peripheral servers and for backup
// entries announced by open replies and birth notices.
struct ChanCreate {
  ChannelId channel;
  Gpid owner;                     // process whose entry this is
  bool backup_entry = false;
  Fd fd = kBadFd;                 // owner-side fd binding (primary entries)
  Gpid peer_pid;
  ClusterId peer_primary_cluster = kNoCluster;
  ClusterId peer_backup_cluster = kNoCluster;
  ClusterId own_backup_cluster = kNoCluster;
  uint8_t peer_kind = 0;          // PeerKind: read semantics (§7.4.1 status)
  uint8_t peer_mode = 0;          // peer's BackupMode (crash patching, §7.10.1)
  uint32_t binding_tag = 0;       // server-side meaning (e.g. tty line)

  template <class F>
  void Fields(F& f) {
    f(channel, owner, backup_entry, fd, peer_pid, peer_primary_cluster, peer_backup_cluster,
      own_backup_cluster, peer_kind, peer_mode, binding_tag);
  }
};

// kOpenReply body: the new channel's addressing, as seen by the opener.
struct OpenReplyBody {
  uint64_t request_cookie = 0;    // matches the open request
  int32_t status = 0;             // 0 ok, else -Errc
  ChannelId channel;              // new channel (when ok)
  Gpid peer_pid;
  ClusterId peer_primary_cluster = kNoCluster;
  ClusterId peer_backup_cluster = kNoCluster;
  uint8_t peer_kind = 0;          // PeerKind
  uint8_t peer_mode = 0;          // peer's BackupMode

  template <class F>
  void Fields(F& f) {
    f(request_cookie, status, channel, peer_pid, peer_primary_cluster, peer_backup_cluster,
      peer_kind, peer_mode);
  }
};

// kPageWrite / kPageReply payloads.
struct PageWriteBody {
  Gpid pid;
  PageNum page = 0;
  Bytes content;

  template <class F>
  void Fields(F& f) {
    f(pid, page, content);
  }
};

struct PageRequestBody {
  Gpid pid;
  PageNum page = 0;
  ClusterId reply_to = kNoCluster;
  uint64_t cookie = 0;

  template <class F>
  void Fields(F& f) {
    f(pid, page, reply_to, cookie);
  }
};

struct PageReplyBody {
  Gpid pid;
  PageNum page = 0;
  uint64_t cookie = 0;
  bool known = false;             // false: zero-fill (never synced)
  Bytes content;

  template <class F>
  void Fields(F& f) {
    f(pid, page, cookie, known, content);
  }
};

// kBackupCreate (§7.10.1 step 3): everything a cluster needs to become the
// new backup of a fullback process: last-sync PCB state plus the saved
// queues. Page data stays at the page server.
struct SavedQueueRecord {
  ChannelId channel;
  Fd fd = kBadFd;
  Gpid peer_pid;
  ClusterId peer_primary_cluster = kNoCluster;
  ClusterId peer_backup_cluster = kNoCluster;
  uint8_t peer_kind = 0;
  uint8_t peer_mode = 0;
  uint32_t writes_since_sync = 0;  // §5.4 suppression budget travels too
  std::vector<Bytes> queued;       // encoded Msgs, oldest first

  template <class F>
  void Fields(F& f) {
    f(channel, fd, peer_pid, peer_primary_cluster, peer_backup_cluster, peer_kind, peer_mode,
      writes_since_sync, queued);
  }
};

struct BackupCreateBody {
  Gpid pid;
  BackupMode mode = BackupMode::kQuarterback;
  Gpid parent;
  Gpid family_head;
  ClusterId primary_cluster = kNoCluster;
  bool has_sync = false;
  bool is_server = false;         // native system server (§7.6)
  bool peripheral = false;        // re-created *active* backup (§7.3 halfback
                                  // return-to-service); context = program state
  uint64_t sync_seq = 0;
  Bytes context;                  // KernelContext-wrapped body context
  uint32_t sig_handler = 0;
  Bytes exe;                      // serialized Executable (pre-first-sync restart)
  std::vector<std::pair<int32_t, uint64_t>> fds;  // fd -> channel as of sync
  std::vector<SavedQueueRecord> queues;

  template <class F>
  void Fields(F& f) {
    f(pid, mode, parent, family_head, primary_cluster, has_sync, is_server, peripheral, sync_seq,
      context, sig_handler, exe, fds, queues);
  }
};

// kCrashNotice (§7.10.1): the cluster every peer now starts handling as
// dead.
struct CrashNoticeBody {
  ClusterId dead = kNoCluster;

  template <class F>
  void Fields(F& f) {
    f(dead);
  }
};

// kBackupReady (§7.10.1): `pid`'s backup now lives at `cluster`; kNoCluster
// announces that it has none. Peers unfreeze its channels.
struct BackupReadyBody {
  Gpid pid;
  ClusterId cluster = kNoCluster;

  template <class F>
  void Fields(F& f) {
    f(pid, cluster);
  }
};

// kProcCrash (§10): process `pid` failed alone at cluster `at`.
struct ProcCrashBody {
  Gpid pid;
  ClusterId at = kNoCluster;

  template <class F>
  void Fields(F& f) {
    f(pid, at);
  }
};

// kCheckpoint (§2 explicit-checkpointing baseline): the whole checkpoint in
// one message. Its channel record has no opened flag, unlike sync's.
struct CheckpointChannelRecord {
  ChannelId channel;
  Fd fd = kBadFd;
  bool closed_since_checkpoint = false;
  uint32_t reads_since_checkpoint = 0;

  template <class F>
  void Fields(F& f) {
    f(channel, fd, closed_since_checkpoint, reads_since_checkpoint);
  }
};

struct CheckpointBody {
  Gpid pid;
  bool full = false;              // replaces every shipped page
  Bytes context;                  // KernelContext-wrapped body context
  std::vector<CheckpointChannelRecord> channels;
  std::vector<std::pair<PageNum, Bytes>> pages;

  template <class F>
  void Fields(F& f) {
    f(pid, full, context, channels, pages);
  }
};

}  // namespace auragen

#endif  // AURAGEN_SRC_CORE_WIRE_H_
