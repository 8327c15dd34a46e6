// Crash handling and recovery (§6, §7.10). A whole processing unit fails
// fail-stop; surviving kernels learn via heartbeat timeout, serialize a
// crash notice through the bus (which orders it after every message the dead
// cluster managed to send), patch their routing tables, and bring up the
// backups of the lost primaries. User-process backups roll forward from the
// last sync; peripheral-server backups are already warm (§7.9).

#include "src/core/kernel.h"

#include <algorithm>

#include "src/base/log.h"
#include "src/kernel/avm_body.h"
#include "src/servers/protocol.h"

namespace auragen {

ClusterMask Kernel::LiveBroadcastMask() const {
  ClusterMask mask = 0;
  for (ClusterId c = 0; c < num_clusters_; ++c) {
    if (c == id_ || peer_alive_[c]) {
      mask |= MaskOf(c);
    }
  }
  return mask;
}

void Kernel::BroadcastBackupLocation(Gpid pid, ClusterId cluster) {
  // kBackupReady: peers update their triple-send address for `pid`, unfreeze
  // its channels, and release held messages. kNoCluster announces "no backup
  // anymore" — peers unfreeze without a save destination.
  Msg ready;
  ready.header.kind = MsgKind::kBackupReady;
  ready.header.src_pid = kernel_pid_;
  ready.header.dst_pid = pid;
  ready.body = Encode(BackupReadyBody{pid, cluster});
  EnqueueOutgoing(std::move(ready), LiveBroadcastMask());
}

void Kernel::BroadcastCrashNotice(ClusterId dead) {
  Msg msg;
  msg.header.kind = MsgKind::kCrashNotice;
  msg.header.src_pid = kernel_pid_;
  msg.body = Encode(CrashNoticeBody{dead});
  // Like heartbeats, the notice bypasses the outgoing queue: it must get out
  // even while a previous crash has transmission disabled, and its position
  // in the global bus order is the synchronization point every cluster
  // starts crash handling from (§7.10.1). The freshly dead cluster is still
  // in the mask (peer_alive_ flips in HandleCrashNotice); clusters from
  // *earlier* handled crashes are not. The bus fences the accused at the
  // notice: a cluster declared dead while alive keeps sending until the
  // notice reaches it, and survivors must not act on those frames.
  env_.bus().Transmit(id_, LiveBroadcastMask(), Encode(msg), /*urgent=*/false,
                      /*fence=*/dead);
}

void Kernel::HandleCrashNotice(ClusterId dead) {
  if (dead == id_) {
    // The rest of the machine has declared this cluster dead and is already
    // committed to bringing up its backups. Continuing to run would be
    // split-brain: two live copies of every process hosted here. Fail-stop
    // semantics demand the accused side fence itself (§6).
    ALOG_WARN() << "c" << id_ << ": fencing after crash notice naming self";
    CrashNow();
    return;
  }
  if (dead >= crash_handled_.size() || crash_handled_[dead]) {
    return;
  }
  crash_handled_[dead] = true;
  peer_alive_[dead] = false;
  crash_detect_at_[dead] = env_.engine().Now();
  if (env_.metrics().last_crash_detected_at < env_.engine().Now()) {
    env_.metrics().last_crash_detected_at = env_.engine().Now();
  }
  if (tracer_ != nullptr) {
    tracer_->Record(TraceEventKind::kCrashDetect, id_, 0, 0, dead, 0);
  }
  ALOG_INFO() << "c" << id_ << ": handling crash of cluster " << dead;

  // §7.10.1: transmission of outgoing messages is disabled, then two very
  // high priority crash processes run once all previously-arrived messages
  // are distributed. Bus serialization means everything the dead cluster
  // sent was already delivered when the notice fired; the scan cost is
  // charged against the work processors (the crash processes are "special
  // high priority user processes", §8.4).
  transmit_enabled_ = false;
  ++pending_crash_handlers_;
  SimTime scan_cost =
      kCrashScanPerEntryUs * std::max<size_t>(1, routing_.size()) / kWorkProcessorsPerCluster;
  env_.metrics().work_busy_us += scan_cost;
  env_.engine().Schedule(scan_cost, [this, dead] {
    if (!alive_) {
      return;
    }
    RunCrashHandling(dead);
  });
}

namespace {

// §7.10.1 step 1: the peer's primary died, so its backup destination
// replaces the primary one; fullback channels are unusable until the new
// backup's location arrives. A peer with no backup died unprotected.
void PromotePeerBackup(RoutingEntry& entry) {
  if (entry.peer_backup_cluster == kNoCluster) {
    entry.closed_by_peer = true;
    return;
  }
  entry.peer_primary_cluster = entry.peer_backup_cluster;
  entry.peer_backup_cluster = kNoCluster;
  if (static_cast<BackupMode>(entry.peer_mode) == BackupMode::kFullback) {
    entry.unusable = true;
  }
}

}  // namespace

void Kernel::PatchEntryAfterCrash(RoutingEntry& entry, ClusterId dead) {
  if (entry.peer_primary_cluster == dead) {
    PromotePeerBackup(entry);
  } else if (entry.peer_backup_cluster == dead) {
    entry.peer_backup_cluster = kNoCluster;
    if (static_cast<BackupMode>(entry.peer_mode) == BackupMode::kFullback &&
        !entry.closed_by_peer) {
      // The fullback peer's *backup* died while its primary lives on. Its
      // kernel will rebuild protection and broadcast kBackupReady (or give
      // up with kNoCluster). Until then nothing may reach the primary
      // unsaved: a message it read before the replacement existed would be
      // missing from the replacement's saved queue, and the next sync's
      // trim would underflow.
      entry.unusable = true;
    }
  }
  if (entry.own_backup_cluster == dead) {
    entry.own_backup_cluster = kNoCluster;
  }
}

void Kernel::WakeBlockedReaders() {
  for (auto& [pid, pcb] : procs_) {
    TryCompleteBlocked(*pcb);
  }
}

void Kernel::RunCrashHandling(ClusterId dead) {
  // Step 1: patch the routing table.
  routing_.ForEach([&](RoutingEntry& entry) { PatchEntryAfterCrash(entry, dead); });

  // Step 4: adjust the outgoing queue like the routing table.
  for (OutgoingItem& item : outgoing_) {
    MsgHeader& h = item.msg.header;
    item.targets &= ~MaskOf(dead);
    if (h.dst_primary_cluster == dead) {
      if (h.dst_backup_cluster != kNoCluster) {
        h.dst_primary_cluster = h.dst_backup_cluster;
        h.dst_backup_cluster = kNoCluster;
        item.targets |= MaskOf(h.dst_primary_cluster);
        // Fullback destination: hold until its new backup is known.
        RoutingEntry* e = routing_.Find(h.channel, h.src_pid, /*backup=*/false);
        if (e != nullptr && e->unusable) {
          item.held_for = h.dst_pid;
        }
      } else {
        item.targets = 0;  // destination lost for good; dropped at transmit
      }
    }
    if (h.dst_backup_cluster == dead) {
      h.dst_backup_cluster = kNoCluster;
    }
    if (h.src_backup_cluster == dead) {
      h.src_backup_cluster = kNoCluster;
    }
    if (item.targets == 0) {
      // Nothing left to address: a held item would otherwise wait forever
      // for a kBackupReady that can no longer matter. Release it so the
      // pump drains (and drops) it.
      item.held_for = Gpid{};
    }
  }

  // Steps 2/3: make runnable the backups of lost primaries.
  std::vector<Gpid> lost;
  for (auto& [pid, b] : backups_) {
    if (b.primary_cluster == dead) {
      lost.push_back(pid);
    }
  }
  for (Gpid pid : lost) {
    BackupPcb b = std::move(backups_[pid]);
    backups_.erase(pid);
    TakeOver(std::move(b));
  }

  // Step 5: peripheral-server backups begin recovery (§7.10.1).
  std::vector<Gpid> parked;
  for (auto& [pid, pcb] : procs_) {
    if (pcb->server_backup && pcb->primary_cluster == dead) {
      parked.push_back(pid);
    }
  }
  for (Gpid pid : parked) {
    TakeOverParkedServer(*procs_[pid]);
  }

  // Wake readers whose peers died unprotected (they see EOF now), and
  // re-issue page requests that may have been swallowed by the crash.
  WakeBlockedReaders();
  ReissuePageRequests();

  // Live primaries whose *backup* cluster died are now unprotected: stop
  // syncing into the void, and — for fullbacks — re-establish protection.
  // Quarterback and halfback processes stay unprotected by contract (§7.3:
  // their modes do not re-back after a failure).
  for (auto& [pid, pcb] : procs_) {
    if (pcb->backup_cluster != dead || pcb->server_backup) {
      continue;
    }
    pcb->backup_cluster = kNoCluster;
    pcb->backup_exists = false;
    if (pcb->mode == BackupMode::kFullback && !pcb->peripheral &&
        pcb->state != ProcState::kExited &&
        env_.config().strategy == FtStrategy::kMessageSystem) {
      pcb->needs_rebackup = true;
      // Peers freeze these channels when their own crash handling runs, but
      // detections are staggered by up to a heartbeat period. Capture the
      // replacement image only after every live peer has certainly frozen
      // and its pre-freeze traffic has drained; anything read before the
      // capture is then part of the image, and everything after is either
      // held at the sender or triple-sent to the announced replacement.
      pcb->rebackup_not_before =
          env_.engine().Now() + kHeartbeatPeriodUs + 1000;
      Gpid rebuild_pid = pid;
      env_.engine().ScheduleAt(pcb->rebackup_not_before, [this, rebuild_pid] {
        if (!alive_) {
          return;
        }
        Pcb* p = FindProcess(rebuild_pid);
        if (p == nullptr) {
          // Exited and reaped while peers were frozen: unfreeze them.
          BroadcastBackupLocation(rebuild_pid, kNoCluster);
          return;
        }
        if (p->needs_rebackup) {
          RebuildLostBackup(*p);
        }
      });
    }
  }

  AURAGEN_CHECK(pending_crash_handlers_ > 0) << "crash handler drained twice";
  --pending_crash_handlers_;
  if (pending_crash_handlers_ == 0) {
    // §7.10.1: only when *every* pending crash has been handled may regular
    // transmission resume — an earlier crash's completion must not release
    // messages addressed with routing state that still names a later dead
    // cluster.
    transmit_enabled_ = true;
  }
  env_.metrics().crashes_handled++;
  env_.metrics().last_recovery_complete_at = env_.engine().Now();
  SimTime handling_us = env_.engine().Now() - crash_detect_at_[dead];
  env_.metrics().rollforward_replay_us += handling_us;
  if (tracer_ != nullptr) {
    tracer_->Record(TraceEventKind::kCrashHandled, id_, 0, 0, dead, handling_us);
  }
  PumpTransmit();
  TryDispatch();
}

void Kernel::RebuildLostBackup(Pcb& pcb) {
  if (!pcb.needs_rebackup) {
    return;
  }
  if (env_.config().strategy != FtStrategy::kMessageSystem ||
      pcb.mode != BackupMode::kFullback || pcb.peripheral || pcb.server_backup ||
      pcb.state == ProcState::kExited) {
    // Permanently not rebuildable: release the peers that froze for us.
    pcb.needs_rebackup = false;
    BroadcastBackupLocation(pcb.pid, kNoCluster);
    return;
  }
  if (env_.engine().Now() < pcb.rebackup_not_before) {
    return;  // peers may not all have frozen yet; the scheduled retry comes
  }
  if (pcb.dispatched) {
    return;  // mid-slice; FinishRun -> MaybeTriggerSync retries
  }
  ClusterId nb = env_.PlaceNewBackup(id_, kNoCluster);
  if (nb == kNoCluster) {
    pcb.needs_rebackup = false;  // nowhere left to back up; run unprotected
    BroadcastBackupLocation(pcb.pid, kNoCluster);
    return;
  }
  pcb.backup_cluster = nb;
  // The capture must accept a process blocked awaiting a reply: that reply
  // is held at the sender by the §7.10.1 freeze, and only this re-backup's
  // broadcast releases it — deferring to a sync-safe point would deadlock.
  pcb.rebuild_capture = true;
  if (!CanSyncNow(pcb)) {
    pcb.rebuild_capture = false;
    pcb.backup_cluster = kNoCluster;
    return;  // flag stays set; retried from MaybeTriggerSync
  }
  pcb.needs_rebackup = false;
  // Order matters: the sync ships dirty pages and stages the page server's
  // backup account (§7.8 atomicity), so the context the create carries and
  // the page account a future rollforward reads agree. Both captures see the
  // same quiescent state, so the create's context matches the sync's. The
  // flush must be synchronous: an async drain would let the create (sent
  // below) overtake the record, and the new backup would trim its saved
  // queues twice.
  ForceSync(pcb, /*signal_forced=*/false, /*force_synchronous=*/true);
  CreateReplacementBackup(pcb, CaptureKernelContext(pcb));
  pcb.rebuild_capture = false;
  pcb.backup_exists = true;
}

uint64_t Kernel::FlipSavedEntries(Pcb& p) {
  std::vector<RoutingEntry> copies;
  uint64_t replayed = 0;
  for (RoutingEntry* e : routing_.EntriesOf(p.pid, /*backup=*/true)) {
    copies.push_back(*e);
    replayed += e->queue.size();
  }
  env_.metrics().rollforward_msgs_replayed += replayed;
  routing_.RemoveAllOf(p.pid, /*backup=*/true);
  for (RoutingEntry& c : copies) {
    RoutingEntry& ne = routing_.Create(c.channel, p.pid, /*backup=*/false);
    c.queue.merge(ne.queue);  // early arrivals the new entry adopted
    ne = std::move(c);
    ne.backup_entry = false;
    ne.own_backup_cluster = kNoCluster;  // set by a fullback's re-backup
    ne.opened_since_sync = false;
    if (ne.fd != kBadFd) {
      p.fds[ne.fd] = FdBinding{ne.channel, static_cast<PeerKind>(ne.peer_kind)};
    }
    if (ne.binding_tag == kBindSignalChannel) {
      p.signal_channel = ne.channel;
    }
  }
  return replayed;
}

void Kernel::TakeOver(BackupPcb b) {
  Gpid pid = b.pid;
  ALOG_INFO() << "c" << id_ << ": takeover of " << GpidStr(pid)
              << (b.has_sync ? " (rollforward)" : " (restart)");
  auto pcb = std::make_unique<Pcb>();
  Pcb& p = *pcb;
  p.pid = pid;
  p.mode = b.mode;
  p.parent = b.parent;
  p.family_head = b.family_head;
  p.is_server = b.is_server;
  p.peripheral = b.peripheral;
  p.sync_seq = b.sync_seq;
  p.sig_handler = b.sig_handler;
  p.signal_channel = b.signal_channel;

  Bytes replacement_context = b.context;

  const bool checkpoint_mode = env_.config().strategy == FtStrategy::kCheckpointFull ||
                               env_.config().strategy == FtStrategy::kCheckpointIncremental;

  if (b.is_server) {
    p.body = std::make_unique<NativeBody>(env_.MakeServerProgram(pid), /*paged_ft=*/true);
  } else if (b.has_sync) {
    p.body = std::make_unique<AvmBody>(Executable{});
  } else {
    p.exe = Decode<Executable>(b.exe);
    p.body = std::make_unique<AvmBody>(p.exe);
  }

  if (b.has_sync) {
    KernelContext kctx = Decode<KernelContext>(b.context);
    p.body->RestoreContext(kctx.body_context);
    if (checkpoint_mode) {
      // §2 baseline: state comes from the shipped checkpoint images, not
      // from a page server; untouched pages zero-fill locally.
      for (const auto& [page, content] : b.ckpt_pages) {
        p.body->InstallPage(page, /*known=*/true, content);
      }
    } else {
      p.body->EvictAllPages();  // §7.10.2: no pages resident; demand-fault in
    }
    p.next_fd = kctx.next_fd;
    p.next_group = kctx.next_group;
    for (const auto& [gid, fds] : kctx.groups) {
      p.groups[gid] = fds;
    }
    p.fork_seq = kctx.fork_seq;
    p.in_signal = kctx.in_signal;
    p.ever_synced = true;
  } else {
    p.next_fd = 3;
  }

  const uint64_t replayed = FlipSavedEntries(p);

  // Fork-replay inputs (§7.10.2).
  if (auto it = birth_store_.find(pid); it != birth_store_.end()) {
    p.pending_birth_notices = it->second;
  }
  for (const BirthNotice& n : b.birth_notices) {
    bool seen = false;
    for (const BirthNotice& have : p.pending_birth_notices) {
      seen = seen || have.fork_seq == n.fork_seq;
    }
    if (!seen) {
      p.pending_birth_notices.push_back(n);
    }
  }

  // Backup-mode epilogue (§7.3).
  switch (p.mode) {
    case BackupMode::kQuarterback:
    case BackupMode::kHalfback:
      p.backup_cluster = kNoCluster;
      p.backup_exists = false;
      break;
    case BackupMode::kFullback: {
      ClusterId nb = env_.PlaceNewBackup(id_, kNoCluster);
      p.backup_cluster = nb;
      if (nb != kNoCluster) {
        CreateReplacementBackup(p, replacement_context);
        p.backup_exists = true;
      } else {
        // Nowhere to back up: run unprotected, and release the peers that
        // froze this process's channels awaiting the new location (§7.10.1)
        // — without the broadcast they would hold their messages forever.
        p.backup_cluster = kNoCluster;
        BroadcastBackupLocation(pid, kNoCluster);
      }
      break;
    }
  }

  p.state = ProcState::kReady;
  if (p.is_server) {
    EnsureSelfEntry(p);
  }
  Gpid ppid = p.pid;
  procs_[ppid] = std::move(pcb);
  env_.metrics().takeovers++;
  if (tracer_ != nullptr) {
    tracer_->Record(TraceEventKind::kTakeover, id_, ppid.value, 0,
                    b.has_sync ? 1 : 0, replayed);
  }
  if (p.is_server) {
    env_.OnServerTakeover(ppid, id_);
  }
  MakeReady(*procs_[ppid]);
}

void Kernel::TakeOverParkedServer(Pcb& pcb) {
  ALOG_INFO() << "c" << id_ << ": peripheral server " << GpidStr(pcb.pid) << " taking over";
  // The active backup is warm (§7.9): entries flip, suppression counts and
  // saved (untrimmed) requests come along, and the program simply starts its
  // read-service loop against the saved queue. Halfback: re-backed when the
  // original cluster returns (§7.3).
  const uint64_t replayed = FlipSavedEntries(pcb);
  pcb.server_backup = false;
  pcb.backup_cluster = kNoCluster;
  pcb.primary_cluster = kNoCluster;
  pcb.state = ProcState::kReady;
  EnsureSelfEntry(pcb);
  env_.metrics().takeovers++;
  if (tracer_ != nullptr) {
    tracer_->Record(TraceEventKind::kTakeover, id_, pcb.pid.value, 0, 2, replayed);
  }
  env_.OnServerTakeover(pcb.pid, id_);
  MakeReady(pcb);
}

BackupCreateBody Kernel::BackupCreateOf(const Pcb& pcb) const {
  BackupCreateBody body;
  body.pid = pcb.pid;
  body.mode = pcb.mode;
  body.parent = pcb.parent;
  body.family_head = pcb.family_head;
  body.primary_cluster = id_;
  body.has_sync = pcb.ever_synced;
  body.is_server = pcb.is_server;
  body.sync_seq = pcb.sync_seq;
  body.sig_handler = pcb.sig_handler;
  if (!pcb.is_server && !pcb.ever_synced) {
    body.exe = Encode(pcb.exe);
  }
  return body;
}

std::vector<SavedQueueRecord> Kernel::CaptureSavedQueues(Pcb& pcb) {
  std::vector<SavedQueueRecord> queues;
  for (RoutingEntry* e : routing_.EntriesOf(pcb.pid, /*backup=*/false)) {
    e->own_backup_cluster = pcb.backup_cluster;
    SavedQueueRecord rec;
    rec.channel = e->channel;
    rec.fd = e->fd;
    rec.peer_pid = e->peer_pid;
    rec.peer_primary_cluster = e->peer_primary_cluster;
    rec.peer_backup_cluster = e->peer_backup_cluster;
    rec.peer_kind = e->peer_kind;
    rec.peer_mode = e->peer_mode;
    // The remaining §5.4 suppression budget travels: it counts sends already
    // delivered to the world since the last sync (by the dead primary or by
    // us); a replacement backup rolling forward must skip exactly those.
    rec.writes_since_sync = e->writes_since_sync;
    if (!pcb.peripheral && pcb.state == ProcState::kBlockedRead &&
        pcb.blocked_side_effects && e->channel == pcb.blocked_channel) {
      // The captured context rewinds to the request this process is blocked
      // on (the §5.4 note in CanSyncNow): a rollforward re-issues it, so one
      // extra suppression turns that resend into a no-op instead of a
      // duplicate at the peer. A peripheral server ships program state, not
      // a context, and re-issues nothing.
      rec.writes_since_sync++;
    }
    // Unserviced messages travel so the new backup's saved queues match.
    for (const QueuedMsg& q : e->queue) {
      rec.queued.push_back(Encode(q.msg));
    }
    queues.push_back(std::move(rec));
  }
  return queues;
}

void Kernel::RestoreSavedQueues(const BackupCreateBody& body) {
  for (const SavedQueueRecord& rec : body.queues) {
    RoutingEntry& e = routing_.Create(rec.channel, body.pid, /*backup=*/true);
    e.fd = rec.fd;
    e.peer_pid = rec.peer_pid;
    e.peer_primary_cluster = rec.peer_primary_cluster;
    e.peer_backup_cluster = rec.peer_backup_cluster;
    e.peer_kind = rec.peer_kind;
    e.peer_mode = rec.peer_mode;
    e.own_backup_cluster = id_;
    if (!body.peripheral) {
      // Only a rollforward backup takes over the shipped suppression budget;
      // a peripheral server's re-created active backup counts from zero.
      e.writes_since_sync = rec.writes_since_sync;
    }
    e.opened_since_sync = false;
    for (const Bytes& m : rec.queued) {
      e.queue.push_back(QueuedMsg{next_arrival_seq_++, Decode<Msg>(m)});
    }
  }
}

void Kernel::SendBackupCreate(const BackupCreateBody& body, ClusterId to, uint64_t ship_kind) {
  Msg create;
  create.header.kind = MsgKind::kBackupCreate;
  create.header.src_pid = kernel_pid_;
  create.header.dst_pid = body.pid;
  create.body = Encode(body);
  env_.metrics().backup_create_bytes += create.body.size();
  if (tracer_ != nullptr) {
    tracer_->Record(TraceEventKind::kBackupShip, id_, body.pid.value, 0, ship_kind,
                    create.body.size());
  }
  EnqueueOutgoing(std::move(create), MaskOf(to));
}

void Kernel::CreateReplacementBackup(Pcb& pcb, const Bytes& sync_context) {
  BackupCreateBody body = BackupCreateOf(pcb);
  body.context = sync_context;
  for (const auto& [fd, binding] : pcb.fds) {
    body.fds.emplace_back(fd, binding.channel.value);
  }
  body.queues = CaptureSavedQueues(pcb);
  SendBackupCreate(body, pcb.backup_cluster, /*ship_kind=*/0);

  // §7.10.1: once the new backup's location is known, peers unfreeze their
  // channels. Bus FIFO guarantees the create lands before the ready.
  BroadcastBackupLocation(pcb.pid, pcb.backup_cluster);
}

void Kernel::HandleBackupCreate(const BackupCreateBody& body) {
  RestoreSavedQueues(body);
  if (body.peripheral) {
    // Halfback re-backup (§7.3): materialize a parked *active* backup with
    // the shipped program state and saved queues.
    auto pcb = std::make_unique<Pcb>();
    Pcb& p = *pcb;
    p.pid = body.pid;
    p.mode = body.mode;
    p.is_server = true;
    p.peripheral = true;
    p.server_backup = true;
    p.primary_cluster = body.primary_cluster;
    p.state = ProcState::kParkedBackup;
    auto program = env_.MakeServerProgram(body.pid);
    ByteReader state(body.context);
    program->RestoreState(state);
    p.body = std::make_unique<NativeBody>(std::move(program), /*paged_ft=*/false);
    procs_[body.pid] = std::move(pcb);
  } else {
    BackupPcb b;
    b.pid = body.pid;
    b.mode = body.mode;
    b.parent = body.parent;
    b.family_head = body.family_head;
    b.primary_cluster = body.primary_cluster;
    b.has_sync = body.has_sync;
    b.is_server = body.is_server;
    b.sync_seq = body.sync_seq;
    b.context = body.context;
    b.sig_handler = body.sig_handler;
    b.exe = body.exe;
    for (const auto& [fd, chan] : body.fds) {
      b.fds[fd] = ChannelId{chan};
    }
    backups_[body.pid] = std::move(b);
  }
  env_.metrics().backups_created++;
  if (tracer_ != nullptr) {
    tracer_->Record(TraceEventKind::kBackupCreate, id_, body.pid.value, 0,
                    body.peripheral ? 1 : 0, 0);
  }
}

void Kernel::HandleBackupReady(Gpid pid, ClusterId new_backup, ClusterId primary_home) {
  // The announced cluster can itself be dead by the time the notice is
  // consumed (the creator queued it before learning of the crash). Treating
  // it as "no backup" keeps us from triple-sending into a void the creator
  // will re-announce from its own crash handling anyway.
  if (new_backup != kNoCluster &&
      (new_backup >= peer_alive_.size() ||
       (new_backup != id_ && !peer_alive_[new_backup]))) {
    new_backup = kNoCluster;
  }
  auto dead_here = [&](ClusterId c) {
    return c != kNoCluster && c != id_ &&
           (c >= peer_alive_.size() || !peer_alive_[c]);
  };
  routing_.ForEach([&](RoutingEntry& entry) {
    if (entry.peer_pid == pid) {
      entry.peer_backup_cluster = new_backup;
      entry.unusable = false;
      // The ready always originates from the primary's current kernel.
      // Detections are staggered, so a takeover's announcement can overtake
      // this kernel's own crash handling; without the repair the pending
      // PatchEntryAfterCrash pass would promote the freshly announced
      // *backup* into the primary slot and the primary leg would be lost.
      if (dead_here(entry.peer_primary_cluster)) {
        entry.peer_primary_cluster = primary_home;
      }
    }
  });
  bool released = false;
  for (OutgoingItem& item : outgoing_) {
    if (item.held_for == pid) {
      item.held_for = Gpid{};
      MsgHeader& h = item.msg.header;
      h.dst_backup_cluster = new_backup;
      if (new_backup != kNoCluster) {
        item.targets |= MaskOf(new_backup);
      }
      if (dead_here(h.dst_primary_cluster)) {
        // Same overtaking race for a held item: redirect its primary leg to
        // the announcing kernel before the transmit pump purges the dead bit.
        item.targets &= ~MaskOf(h.dst_primary_cluster);
        h.dst_primary_cluster = primary_home;
        item.targets |= MaskOf(primary_home);
      }
      released = true;
    }
  }
  if (released) {
    PumpTransmit();
  }
}

// --------------------------- §10 extension: individual-process failure

void Kernel::FailProcess(Gpid pid) {
  Pcb* pcb = FindProcess(pid);
  if (pcb == nullptr) {
    return;
  }
  ALOG_INFO() << "c" << id_ << ": process fault kills " << GpidStr(pid);
  if (tracer_ != nullptr) {
    tracer_->Record(TraceEventKind::kProcFail, id_, pid.value, 0, 0, 0);
  }
  // The process vanishes as a hardware fault would take it: no exit notice,
  // no channel closes — peers and the backup learn via the crash notice.
  routing_.RemoveAllOf(pid, /*backup=*/false);
  routing_.DropParked(pid);
  procs_.erase(pid);
  for (auto it = ready_.begin(); it != ready_.end();) {
    it = *it == pid ? ready_.erase(it) : std::next(it);
  }
  Msg notice;
  notice.header.kind = MsgKind::kProcCrash;
  notice.header.src_pid = kernel_pid_;
  notice.header.dst_pid = pid;
  notice.body = Encode(ProcCrashBody{pid, id_});
  EnqueueOutgoing(std::move(notice), LiveBroadcastMask());
}

void Kernel::HandleProcCrash(Gpid pid, ClusterId at) {
  // Scoped version of RunCrashHandling: only entries referring to this one
  // process are patched, and only its backup is brought up.
  routing_.ForEach([&](RoutingEntry& entry) {
    if (entry.peer_pid == pid && entry.peer_primary_cluster == at) {
      PromotePeerBackup(entry);
    }
  });
  for (OutgoingItem& item : outgoing_) {
    MsgHeader& h = item.msg.header;
    if (h.dst_pid != pid || h.dst_primary_cluster != at) {
      continue;
    }
    if (h.dst_backup_cluster != kNoCluster) {
      item.targets &= ~MaskOf(at);
      h.dst_primary_cluster = h.dst_backup_cluster;
      h.dst_backup_cluster = kNoCluster;
      item.targets |= MaskOf(h.dst_primary_cluster);
    } else {
      item.targets = 0;
      item.held_for = Gpid{};  // nothing left to wait for; drop at transmit
    }
  }
  auto bit = backups_.find(pid);
  if (bit != backups_.end() && bit->second.primary_cluster == at) {
    BackupPcb b = std::move(bit->second);
    backups_.erase(bit);
    TakeOver(std::move(b));
  }
  WakeBlockedReaders();
  PumpTransmit();
}

// ----------------------- §7.3 halfback return-to-service re-backup

void Kernel::RecreateServerBackup(Gpid pid, ClusterId target) {
  Pcb* pcb = FindProcess(pid);
  if (pcb == nullptr || !pcb->peripheral || pcb->server_backup) {
    return;
  }
  auto* nb = dynamic_cast<NativeBody*>(pcb->body.get());
  if (nb == nullptr) {
    return;
  }
  BackupCreateBody body;
  body.pid = pid;
  body.mode = pcb->mode;
  body.primary_cluster = id_;
  body.has_sync = true;
  body.is_server = true;
  body.peripheral = true;
  ByteWriter state;
  nb->program().SerializeState(state);
  body.context = state.Take();
  pcb->backup_cluster = target;
  body.queues = CaptureSavedQueues(*pcb);
  SendBackupCreate(body, target, /*ship_kind=*/1);

  // Peers resume triple-sending to the new backup location. Only self and
  // live peers are addressed; a cluster that died since this server's last
  // crash handling must not be.
  BroadcastBackupLocation(pid, target);
}

void Kernel::HandleServerSync(const MsgView& msg) {
  Pcb* pcb = FindProcess(msg.header.dst_pid);
  if (pcb == nullptr || !pcb->server_backup) {
    return;
  }
  ByteReader r(msg.body());
  ServerSyncPrefix prefix = Decode<ServerSyncPrefix>(r);
  for (const auto& [chan, count] : prefix.serviced) {
    RoutingEntry* e = routing_.Find(ChannelId{chan}, pcb->pid, /*backup=*/true);
    if (e == nullptr) {
      continue;
    }
    for (uint32_t i = 0; i < count && !e->queue.empty(); ++i) {
      e->queue.pop_front();
      env_.metrics().backup_msgs_trimmed++;
    }
    e->writes_since_sync = 0;
  }
  auto* nb = dynamic_cast<NativeBody*>(pcb->body.get());
  if (nb != nullptr) {
    nb->program().ApplyServerSync(r);
  }
  if (tracer_ != nullptr) {
    tracer_->Record(TraceEventKind::kServerSyncApply, id_, pcb->pid.value, 0,
                    msg.body().size(), 0);
  }
}

}  // namespace auragen
