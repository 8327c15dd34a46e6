// The per-cluster Auros kernel with its embedded message system (§7.2,
// §7.4). This class is the paper's contribution: three-destination message
// delivery (§5.1), read/write count bookkeeping, periodic synchronization
// (§5.2, §7.8), duplicate-send suppression (§5.4), birth notices and lazy
// backup creation (§7.7), and crash handling with rollforward recovery
// (§6, §7.10).
//
// One Kernel instance exists per cluster. Kernels are never synchronized
// with each other (§7.2); everything they exchange rides the intercluster
// bus as encoded Msg payloads. The split between "work processors" (which
// run process bodies and execute system calls) and the "executive
// processor" (which transmits, receives and distributes messages) is
// modeled by separate serialized cost queues, so experiment E1 can measure
// §8.1's claim that backup copies never cost work-processor time.

#ifndef AURAGEN_SRC_CORE_KERNEL_H_
#define AURAGEN_SRC_CORE_KERNEL_H_

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "src/base/task.h"
#include "src/core/config.h"
#include "src/core/env.h"
#include "src/core/pcb.h"
#include "src/core/routing.h"
#include "src/core/wire.h"
#include "src/kernel/native_body.h"

namespace auragen {

// Addressing of a server a newly spawned process gets a channel to.
struct ServerAddr {
  Gpid pid;
  ClusterId primary = kNoCluster;
  ClusterId backup = kNoCluster;
  bool valid() const { return pid.valid(); }
};

struct SpawnSpec {
  // Exactly one of exe / native is used.
  Executable exe;
  std::unique_ptr<NativeProgram> native;
  bool native_paged_ft = false;   // system server: page-diff sync FT
  bool peripheral = false;        // explicit-sync FT, device syscalls allowed
  bool server_backup = false;     // spawn as a parked active backup (§7.9)

  BackupMode mode = BackupMode::kQuarterback;
  ClusterId backup_cluster = kNoCluster;
  ClusterId primary_cluster = kNoCluster;  // server_backup: where the primary runs
  Gpid fixed_pid;                 // optional well-known pid (servers)

  uint32_t sync_reads_limit = 0;  // 0: system default
  SimTime sync_time_limit_us = 0;

  // Spawn-time channels (fabricated by the kernel; fd 0 / fd 1 / fd 2).
  ServerAddr file_server;
  ServerAddr proc_server;
  ServerAddr tty_server;
  uint32_t tty_line = 0;
};

class Kernel : public BusEndpoint {
 public:
  Kernel(MachineEnv& env, ClusterId id);
  ~Kernel() override;

  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  // Attaches to the bus and starts heartbeat polling.
  void Start();

  // Creates a process in this cluster. Fabricates its spawn channels and —
  // for heads of families and servers — its backup PCB (§7.7).
  Gpid Spawn(SpawnSpec spec);

  // Fail-stop: the whole processing unit goes down (§7.10 initial model).
  void CrashNow();
  bool alive() const { return alive_; }
  ClusterId id() const { return id_; }

  // This kernel's local belief about a peer's liveness, maintained purely by
  // bus traffic (heartbeats set it, crash notices clear it). Backup
  // placement consults the *caller's* belief rather than ground truth: the
  // paper's kernels never had privileged knowledge — they only ever saw the
  // bus.
  bool PeerBelievedAlive(ClusterId c) const {
    return c < peer_alive_.size() && peer_alive_[c];
  }

  // Rejoins a restored cluster (halfback support). State is wiped; peers
  // learn via heartbeats that the cluster is back.
  void Restart();

  // §10 extension — individual-process failure: kills one process as if an
  // isolatable hardware fault destroyed it; its backup (elsewhere) is
  // brought up without taking the whole cluster down.
  void FailProcess(Gpid pid);

  // §7.3 halfback return-to-service: re-creates this peripheral server's
  // active backup at `target` (a freshly restored cluster), shipping the
  // program state, channel entries, and unserviced queues.
  void RecreateServerBackup(Gpid pid, ClusterId target);

  // BusEndpoint.
  void OnFrame(const Frame& frame) override;

  // --- test & harness access ---
  Pcb* FindProcess(Gpid pid);
  RoutingTable& routing() { return routing_; }
  bool Quiescent() const;  // no ready work, empty queues (drained)

  // Places a message on a local entry of `owner` identified by binding_tag
  // (self channels: timer fires, terminal hardware input). Local-only: never
  // crosses the bus and is not part of the fault-tolerance envelope.
  void InjectLocalMessage(Gpid owner, uint32_t binding_tag, Bytes payload);

  // Fabricates this kernel's channel to a server (page traffic, §7.6). The
  // kernel side is not backed up — kernels are never synchronized (§7.2) —
  // but the server side is, so requests reach the server's backup queue.
  void CreateKernelChannel(const ServerAddr& server, uint32_t tag);

  // Write-only observability (src/trace contract): never read back, so a
  // traced kernel behaves identically to an untraced one.
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }

 private:
  // ---- scheduling (kernel.cc) ----
  void MakeReady(Pcb& pcb);
  void TryDispatch();
  void FinishRun(Gpid pid, BodyRun run);
  uint64_t WorkBudget(const Pcb& pcb) const;
  SimTime WorkTime(uint64_t work) const;

  // ---- executive processor (delivery.cc) ----
  struct OutgoingItem {
    Msg msg;
    ClusterMask targets = 0;
    Gpid held_for;  // fullback destination awaiting kBackupReady (§7.10.1)
  };
  void EnqueueOutgoing(Msg msg, ClusterMask targets);
  void ExecEnqueue(SimTime cost, Task fn);
  void ExecPump();
  void PumpTransmit();
  void DeliverLocal(const MsgView& msg);
  // Queues `msg` at `entry` (a kClose marks it closed by the peer instead),
  // counted and traced by the role the entry plays.
  void DeliverAt(RoutingEntry& entry, const MsgView& msg);
  void EnqueueAtEntry(RoutingEntry& entry, const MsgView& msg);
  void WakeReaders(const RoutingEntry& entry);
  // Addresses a new channel end from its open reply (§7.4.1), patched for
  // every crash this kernel has already handled.
  void FillFromOpenReply(RoutingEntry& entry, const OpenReplyBody& reply, ClusterId own_backup);
  void HandleControl(const MsgView& msg);
  ClusterMask TargetsOf(const RoutingEntry& entry) const;

  // ---- system calls (syscalls.cc) ----
  void DoSyscall(Pcb& pcb, const SyscallRequest& req);
  void CompleteAndReady(Pcb& pcb, int64_t rv, Bytes data = {});
  void SysOpen(Pcb& pcb, const SyscallRequest& req);
  void SysRead(Pcb& pcb, const SyscallRequest& req);
  void SysWrite(Pcb& pcb, const SyscallRequest& req, bool wants_answer);
  void SysFork(Pcb& pcb);
  void SysExit(Pcb& pcb, int32_t status);
  void SysBunch(Pcb& pcb, const SyscallRequest& req);
  void SysWhich(Pcb& pcb, const SyscallRequest& req);
  void SysGettime(Pcb& pcb);
  void SysAlarm(Pcb& pcb, uint64_t delay_us);
  void SysClose(Pcb& pcb, Fd fd);
  void DoNativeSyscall(Pcb& pcb, const SyscallRequest& req);

  // Attempts to satisfy a blocking read immediately or parks the process.
  void ReadOrBlock(Pcb& pcb, Fd fd, uint64_t max);
  // Re-checks a blocked read/which after a new arrival (or EOF).
  void TryCompleteBlocked(Pcb& pcb);
  // Parks the process awaiting a server reply, re-checking immediately
  // (rollforward may find the reply already saved).
  void BlockForReply(Pcb& pcb, const RoutingEntry& entry, Fd fd, uint64_t max = ~0ull);
  // Consumes the head message of `entry` for `pcb` (counts the read).
  void ConsumeMessage(Pcb& pcb, RoutingEntry& entry, int64_t max, bool read_any);
  bool EntryReadable(const RoutingEntry& entry) const;
  RoutingEntry* EntryOfFd(Pcb& pcb, Fd fd);
  // §7.5.1's lowest-arrival-seq rule, read off the routing table's readable
  // index: the group's descriptor whose message arrived first (kBadFd if
  // none is readable), and the process's oldest readable entry (read-any).
  Fd PickReadable(const Pcb& pcb, const FdGroup& group) const;
  RoutingEntry* PickReadableAny(const Pcb& pcb) const;

  // Send path: builds the three-destination message (§5.1) with §5.4
  // suppression for recovered processes. `counted=false` marks sends driven
  // by local device input (terminal lines): they are not regenerated by
  // rollforward, so they must not consume or contribute suppression budget —
  // at-most-once, matching §7.9's lost-input window.
  void SendOnChannel(Pcb& pcb, RoutingEntry& entry, MsgKind kind, Bytes body,
                     bool counted = true);

  // ---- sync (sync.cc) ----
  void MaybeTriggerSync(Pcb& pcb);
  bool CanSyncNow(const Pcb& pcb) const;
  // `force_synchronous` overrides SyncMode::kIncrementalAsync: the record
  // and every page go on the outgoing queue before this returns. Crash
  // paths need it — replacement-backup creation must follow its sync record
  // immediately (§7.10.1), with no drain in between.
  void ForceSync(Pcb& pcb, bool signal_forced, bool force_synchronous = false);
  void ApplySyncAtBackup(const SyncRecord& record);
  // Adaptive trigger (SyncPolicy.adaptive): retune the process's effective
  // time limit from the dirty-page count the flush just observed.
  void RetuneSyncTrigger(Pcb& pcb, size_t flushed_pages);
  // Effective sync trigger limits for `pcb` (per-process override, else
  // system default; time limit further moved by the adaptive trigger).
  uint32_t SyncReadsLimit(const Pcb& pcb) const;
  SimTime SyncTimeLimit(const Pcb& pcb) const;

  // ---- async flush drain (sync.cc) ----
  // A copy-on-write flush parked on the per-kernel drain queue (§8.3: "the
  // primary continues … with the sync message on the outgoing queue"). The
  // executive enqueues the snapshots batch by batch and finishes with the
  // sync record, so per-process FIFO ordering — pages, then record, after
  // every message the record's counters cover — is preserved.
  struct FlushJob {
    Gpid pid;
    SimTime started_at = 0;
    std::vector<std::pair<PageNum, Bytes>> pages;
    size_t next_page = 0;
    SyncRecord record;
    bool cancelled = false;  // process exited mid-drain
  };
  // Enqueues the kSync multicast (backup cluster + page shard + its backup).
  void SendSyncRecord(const SyncRecord& record, RoutingEntry* page_entry);
  void StartFlushDrain();
  void ScheduleFlushStep();
  void FlushStep(uint64_t epoch, uint32_t batch, SimTime cost);
  void CompleteFlushJob(FlushJob& job);
  void CancelFlushJobs(Gpid pid);
  void ResetFlushPipeline();  // crash/restart: in-flight flushes die
  // Checkpoint baselines (§2) replace ForceSync when configured.
  void ForceCheckpoint(Pcb& pcb);
  void ApplyCheckpointAtBackup(const MsgView& msg);
  // Serialized KernelContext of `pcb` at a quiescent point (sync, checkpoint
  // and replacement-backup creation all ship exactly this).
  Bytes CaptureKernelContext(Pcb& pcb);
  // Closed-channel record seen by a backup (sync or checkpoint): drop the
  // saved entry and the fd binding, guarding fd == kBadFd.
  void DropClosedBackupChannel(BackupPcb& b, ChannelId channel, Gpid pid, Fd fd);

  // ---- paging (sync.cc) ----
  void HandlePageFault(Pcb& pcb, PageNum page);
  void HandlePageReply(const PageReplyBody& reply);
  void ReissuePageRequests();
  // Ships one page of `pid` to its page-server shard (§7.8).
  void ShipPage(RoutingEntry& page_entry, Gpid pid, PageNum page, const Bytes& content);
  // Asks for the page `pcb` is blocked on under a fresh cookie; replies to
  // an older cookie are dropped as stale.
  void RequestPage(Pcb& pcb, RoutingEntry& page_entry);
  // The kernel's own channel to a page-server shard (fabricated at boot,
  // one per shard). A process's pages always go to the shard keyed by its
  // origin cluster, which never changes — so the backup account is found
  // at the same shard after any number of takeovers.
  RoutingEntry* KernelPageEntry(uint32_t shard = 0);
  RoutingEntry* KernelPageEntryFor(Gpid pid);
  uint32_t PageShardOf(Gpid pid) const;
  // Sends on a kernel-owned channel (no Pcb, no suppression — kernels are
  // not backed up, §7.2).
  void SendKernelChannel(RoutingEntry& entry, MsgKind kind, Bytes body);

  // ---- signals (syscalls.cc) ----
  void DeliverPendingSignal(Pcb& pcb);
  RoutingEntry* SignalEntry(Gpid pid, bool backup_entry);

  // ---- fork/exit/backup lifecycle (lifecycle.cc) ----
  Gpid AllocPid();
  ChannelId AllocChannel();
  void FabricateSpawnChannels(Pcb& pcb, const SpawnSpec& spec);
  // Fabricates one process<->server channel: local primary entry, backup
  // entry at the owner's backup cluster, and both server-side entries.
  // `channel` is caller-allocated so fork replay can reuse recorded ids.
  void CreateChannelPair(Pcb& pcb, Fd fd, ChannelId channel, const ServerAddr& server,
                         PeerKind kind, uint32_t binding_tag);
  // Creates the entry `c` describes at cluster `to` (none for kNoCluster).
  void SendChanCreate(ClusterId to, const ChanCreate& c);
  // Native servers get a local self channel (timers, device input).
  void EnsureSelfEntry(Pcb& pcb);
  void DestroyProcess(Pcb& pcb, int32_t status);
  void HandleBirthNotice(const BirthNotice& notice);
  void HandleExitNotice(Gpid pid);

  // ---- crash handling & recovery (crash.cc) ----
  void HeartbeatTick();
  void CheckPeers();
  void BroadcastCrashNotice(ClusterId dead);
  void HandleCrashNotice(ClusterId dead);
  void RunCrashHandling(ClusterId dead);
  void PatchEntryAfterCrash(RoutingEntry& entry, ClusterId dead);
  // Re-checks every blocked read and which (EOF, flipped saved messages).
  void WakeBlockedReaders();
  void TakeOver(BackupPcb backup);
  void TakeOverParkedServer(Pcb& pcb);
  // Flips `p`'s saved backup entries into primary entries (§7.10.1),
  // keeping their queues (the rollforward input, §5.2) and write counts (the
  // §5.4 suppression budget). Returns the saved messages carried over.
  uint64_t FlipSavedEntries(Pcb& p);
  // The identity and program of `pcb` a kBackupCreate ships (§7.7): all of
  // the spawn-time skeleton, and the head of a replacement.
  BackupCreateBody BackupCreateOf(const Pcb& pcb) const;
  // One record per primary entry of `pcb` (addressing, §5.4 budget, unread
  // messages) for a new backup at pcb.backup_cluster, which the entries'
  // save legs address from now on.
  std::vector<SavedQueueRecord> CaptureSavedQueues(Pcb& pcb);
  // Recreates the saved backup entries a kBackupCreate carries.
  void RestoreSavedQueues(const BackupCreateBody& body);
  // Enqueues `body` to `to`. ship_kind is the kBackupShip trace's a:
  // 0 replacement, 1 peripheral re-backup, 2 spawn-time skeleton.
  void SendBackupCreate(const BackupCreateBody& body, ClusterId to, uint64_t ship_kind);
  void CreateReplacementBackup(Pcb& pcb, const Bytes& sync_context);
  // A live primary whose backup cluster died: place, sync, and announce a
  // fresh backup (deferred via Pcb::needs_rebackup when the process is not
  // at a sync-safe point).
  void RebuildLostBackup(Pcb& pcb);
  // kBackupReady broadcast: `pid`'s backup now lives at `cluster` (or
  // nowhere, for kNoCluster — peers unfreeze without a save destination).
  void BroadcastBackupLocation(Gpid pid, ClusterId cluster);
  // Clusters a broadcast from this kernel should reach: self plus every
  // peer not yet known dead (§7.10.1 — never address handled-dead clusters).
  ClusterMask LiveBroadcastMask() const;
  void HandleBackupCreate(const BackupCreateBody& body);
  void HandleBackupReady(Gpid pid, ClusterId new_backup, ClusterId primary_home);
  void HandleServerSync(const MsgView& msg);
  void HandleProcCrash(Gpid pid, ClusterId at);

  MachineEnv& env_;
  const ClusterId id_;
  // Clusters in the machine (SystemConfig::topology), read once at
  // construction: the per-cluster loops and liveness vectors use it.
  const uint32_t num_clusters_;
  bool alive_ = true;

  RoutingTable routing_;
  std::map<Gpid, std::unique_ptr<Pcb>> procs_;
  std::map<Gpid, BackupPcb> backups_;

  // Scheduling.
  std::deque<Gpid> ready_;
  uint32_t idle_workers_;

  // Executive processor: serialized service queue + FIFO outgoing queue.
  struct ExecItem {
    SimTime cost;
    Task fn;
  };
  std::deque<ExecItem> exec_queue_;
  bool exec_busy_ = false;
  Task exec_running_;  // the in-flight exec task (see ExecPump)
  std::deque<OutgoingItem> outgoing_;
  bool transmit_enabled_ = true;
  bool transmit_pumping_ = false;
  // Crash handlers scheduled but not yet run (§7.10.1). Transmission stays
  // disabled until every pending handler has drained; re-enabling after the
  // first of two overlapping crashes would let messages out with routing
  // state that still names the second dead cluster.
  uint32_t pending_crash_handlers_ = 0;

  // Arrival sequence numbers (§7.5.1: assigned on arrival at a cluster).
  uint64_t next_arrival_seq_ = 1;

  // Id allocation.
  uint64_t next_pid_counter_ = 16;
  uint64_t next_channel_counter_ = 1;
  Gpid kernel_pid_;

  // Liveness (§7.10): last heartbeat seen per cluster.
  std::vector<SimTime> last_heartbeat_;
  std::vector<bool> peer_alive_;
  std::vector<bool> crash_handled_;
  // When this kernel received the crash notice, per dead cluster (feeds the
  // rollforward_replay_us aggregate and kCrashHandled trace events).
  std::vector<SimTime> crash_detect_at_;
  // The latest crash this kernel detected, and the first dispatch after it:
  // that dispatch records kRecoveryDispatch.
  SimTime last_crash_detected_at_ = 0;
  SimTime last_recovery_first_dispatch_at_ = 0;

  Tracer* tracer_ = nullptr;

  // Outstanding page requests: cookie -> waiting pid.
  std::map<uint64_t, Gpid> page_waiters_;
  uint64_t next_cookie_ = 1;

  // Async flush drain (SyncMode::kIncrementalAsync). Jobs drain in FIFO
  // order on the executive; the epoch invalidates steps scheduled before a
  // crash or restart wiped the queue.
  std::deque<FlushJob> flush_queue_;
  bool flush_draining_ = false;
  uint64_t flush_epoch_ = 0;

  // Birth notices by parent (§7.7), kept independent of BackupPcb existence:
  // a parent re-created by its own parent's replayed fork still needs them.
  std::map<Gpid, std::vector<BirthNotice>> birth_store_;

  friend class KernelTestPeer;
};

}  // namespace auragen

#endif  // AURAGEN_SRC_CORE_KERNEL_H_
