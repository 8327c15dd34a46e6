// Process lifecycle: spawn-time channel fabrication, fork with birth
// notices (§7.7), exit, and the backup-PCB skeletons for heads of families.

#include "src/core/kernel.h"

#include "src/base/log.h"
#include "src/kernel/avm_body.h"
#include "src/servers/protocol.h"

namespace auragen {

namespace {

ChanCreate MakeChanCreate(ChannelId channel, Gpid owner, bool backup_entry, Fd fd,
                          Gpid peer_pid, ClusterId peer_primary, ClusterId peer_backup,
                          ClusterId own_backup, PeerKind kind, BackupMode peer_mode,
                          uint32_t tag) {
  ChanCreate c;
  c.channel = channel;
  c.owner = owner;
  c.backup_entry = backup_entry;
  c.fd = fd;
  c.peer_pid = peer_pid;
  c.peer_primary_cluster = peer_primary;
  c.peer_backup_cluster = peer_backup;
  c.own_backup_cluster = own_backup;
  c.peer_kind = static_cast<uint8_t>(kind);
  c.peer_mode = static_cast<uint8_t>(peer_mode);
  c.binding_tag = tag;
  return c;
}

}  // namespace

void Kernel::CreateChannelPair(Pcb& pcb, Fd fd, ChannelId channel, const ServerAddr& server,
                               PeerKind kind, uint32_t binding_tag) {
  // Local primary entry for the process end.
  RoutingEntry& e = routing_.Create(channel, pcb.pid, /*backup=*/false);
  e.fd = fd;
  e.peer_pid = server.pid;
  e.peer_primary_cluster = server.primary;
  e.peer_backup_cluster = server.backup;
  e.own_backup_cluster = pcb.backup_cluster;
  e.peer_kind = static_cast<uint8_t>(kind);
  e.peer_mode = static_cast<uint8_t>(BackupMode::kHalfback);  // servers (§7.3)
  e.binding_tag = binding_tag;

  if (fd != kBadFd) {
    pcb.fds[fd] = FdBinding{channel, kind};
  } else if (binding_tag == kBindSignalChannel) {
    pcb.signal_channel = channel;
  }

  // Backup entry for the process end at its backup cluster.
  SendChanCreate(pcb.backup_cluster,
                 MakeChanCreate(channel, pcb.pid, /*backup=*/true, fd, server.pid,
                                server.primary, server.backup, pcb.backup_cluster, kind,
                                BackupMode::kHalfback, binding_tag));
  // Server-side primary + backup entries.
  SendChanCreate(server.primary,
                 MakeChanCreate(channel, server.pid, /*backup=*/false, kBadFd, pcb.pid, id_,
                                pcb.backup_cluster, server.backup, PeerKind::kUserPeer,
                                pcb.mode, binding_tag));
  SendChanCreate(server.backup,
                 MakeChanCreate(channel, server.pid, /*backup=*/true, kBadFd, pcb.pid, id_,
                                pcb.backup_cluster, server.backup, PeerKind::kUserPeer,
                                pcb.mode, binding_tag));

  // Terminal sessions bind their line at creation so input can arrive
  // before the session's first output. The bind message is kernel-
  // originated (src = kernel pseudo-pid), so it perturbs no §5.4 write
  // count, and it rides the normal backed-up channel, so the tty server's
  // saved queue replays it on takeover.
  if (binding_tag >= kBindTtyLineBase && binding_tag < kBindTtyLineBase + 0x1000) {
    Msg bind;
    bind.header.kind = MsgKind::kUser;
    bind.header.src_pid = pcb.pid;
    bind.header.dst_pid = server.pid;
    bind.header.channel = channel;
    bind.header.dst_primary_cluster = server.primary;
    bind.header.dst_backup_cluster = server.backup;
    bind.header.src_backup_cluster = kNoCluster;
    bind.body = EncodeTagged(ReqTag::kTtyBind);
    ClusterMask targets = MaskOf(server.primary);
    if (server.backup != kNoCluster) {
      targets |= MaskOf(server.backup);
    }
    EnqueueOutgoing(std::move(bind), targets);
  }
}

void Kernel::FabricateSpawnChannels(Pcb& pcb, const SpawnSpec& spec) {
  if (spec.file_server.valid()) {
    CreateChannelPair(pcb, 0, AllocChannel(), spec.file_server, PeerKind::kServerControl,
                      kBindFsChannel);
  }
  if (spec.proc_server.valid()) {
    CreateChannelPair(pcb, 1, AllocChannel(), spec.proc_server, PeerKind::kServerControl,
                      kBindProcChannel);
    // The implicit signal channel (§7.5.2); all signals originate at the
    // process server in this implementation.
    CreateChannelPair(pcb, kBadFd, AllocChannel(), spec.proc_server,
                      PeerKind::kServerControl, kBindSignalChannel);
  }
  if (spec.tty_server.valid()) {
    CreateChannelPair(pcb, 2, AllocChannel(), spec.tty_server, PeerKind::kServerControl,
                      kBindTtyLineBase + spec.tty_line);
  }
  pcb.next_fd = 3;
}

void Kernel::CreateKernelChannel(const ServerAddr& server, uint32_t tag) {
  ChannelId channel = AllocChannel();
  RoutingEntry& e = routing_.Create(channel, kernel_pid_, /*backup=*/false);
  e.peer_pid = server.pid;
  e.peer_primary_cluster = server.primary;
  e.peer_backup_cluster = server.backup;
  e.own_backup_cluster = kNoCluster;
  e.peer_mode = static_cast<uint8_t>(BackupMode::kHalfback);
  e.binding_tag = tag;

  for (bool backup_entry : {false, true}) {
    SendChanCreate(backup_entry ? server.backup : server.primary,
                   MakeChanCreate(channel, server.pid, backup_entry, kBadFd, kernel_pid_, id_,
                                  kNoCluster, server.backup, PeerKind::kUserPeer,
                                  BackupMode::kQuarterback, tag));
  }
}

void Kernel::SendChanCreate(ClusterId to, const ChanCreate& c) {
  if (to == kNoCluster) {
    return;
  }
  Msg msg;
  msg.header.kind = MsgKind::kChanCreate;
  msg.header.src_pid = kernel_pid_;
  msg.header.dst_pid = c.owner;
  msg.body = Encode(c);
  if (to == id_) {
    // Local fabrication (the entry's owner is in this very cluster): apply
    // directly so ordering against locally-queued work stays trivial.
    HandleControl(MsgView::FromOwned(std::move(msg)));
    return;
  }
  EnqueueOutgoing(std::move(msg), MaskOf(to));
}

void Kernel::EnsureSelfEntry(Pcb& pcb) {
  for (RoutingEntry* e : routing_.EntriesOf(pcb.pid, /*backup=*/false)) {
    if (e->binding_tag == kBindSelfChannel) {
      return;
    }
  }
  RoutingEntry& e = routing_.Create(AllocChannel(), pcb.pid, /*backup=*/false);
  e.binding_tag = kBindSelfChannel;
  e.own_backup_cluster = kNoCluster;
}

void Kernel::InjectLocalMessage(Gpid owner, uint32_t binding_tag, Bytes payload) {
  if (!alive_) {
    return;
  }
  for (RoutingEntry* e : routing_.EntriesOf(owner, /*backup=*/false)) {
    if (e->binding_tag != binding_tag) {
      continue;
    }
    Msg msg;
    msg.header.kind = MsgKind::kUser;
    msg.header.src_pid = kernel_pid_;
    msg.header.dst_pid = owner;
    msg.header.channel = e->channel;
    msg.body = std::move(payload);
    EnqueueAtEntry(*e, MsgView::FromOwned(std::move(msg)));
    WakeReaders(*e);
    return;
  }
}

// --------------------------------------------------------------------- fork

void Kernel::SysFork(Pcb& parent) {
  auto* avm = dynamic_cast<AvmBody*>(parent.body.get());
  if (avm == nullptr) {
    CompleteAndReady(parent, -static_cast<int64_t>(Errc::kNotSupported));
    return;
  }
  parent.fork_seq++;

  auto pid_rv = [](Gpid pid) {
    return static_cast<int64_t>((pid.origin_cluster() << 24) |
                                static_cast<uint32_t>(pid.value & 0xffffff));
  };

  // Rollforward (§7.10.2): "On fork, the process checks whether it has any
  // birth notices. If it does, it either avoids the fork altogether if the
  // child process already exists, or uses information in the birth notice
  // to fork a child with the same identity as its primary."
  const BirthNotice* notice = nullptr;
  for (const BirthNotice& n : parent.pending_birth_notices) {
    if (n.fork_seq == parent.fork_seq) {
      notice = &n;
      break;
    }
  }
  Gpid child_pid;
  std::vector<ChannelId> chan_ids;
  if (notice != nullptr) {
    child_pid = notice->child;
    if (procs_.count(child_pid) != 0 || backups_.count(child_pid) != 0) {
      // The child recovered (or is recovering) on its own: skip the fork.
      CompleteAndReady(parent, pid_rv(child_pid));
      return;
    }
    for (const Bytes& blob : notice->chan_creates) {
      chan_ids.push_back(Decode<ChanCreate>(blob).channel);
    }
  } else {
    child_pid = AllocPid();
    chan_ids = {AllocChannel(), AllocChannel(), AllocChannel()};
  }
  while (chan_ids.size() < 3) {
    chan_ids.push_back(AllocChannel());
  }

  auto child = std::make_unique<Pcb>();
  Pcb& c = *child;
  c.pid = child_pid;
  c.mode = parent.mode;
  c.parent = parent.pid;
  c.family_head = parent.family_head;
  c.backup_cluster = parent.backup_cluster;  // family co-location (§7.7)
  c.sync_reads_limit = parent.sync_reads_limit;
  c.sync_time_limit_us = parent.sync_time_limit_us;
  c.exe = parent.exe;
  c.body = avm->CloneForFork(static_cast<uint32_t>(pid_rv(child_pid)));
  c.state = ProcState::kReady;

  // Fork-time channels: fresh fs/proc/signal channels (the child does not
  // share the parent's queues; see DESIGN.md on fd inheritance).
  ServerAddr fs;
  ServerAddr ps;
  if (RoutingEntry* e = EntryOfFd(parent, 0); e != nullptr) {
    fs = ServerAddr{e->peer_pid, e->peer_primary_cluster, e->peer_backup_cluster};
  }
  if (RoutingEntry* e = EntryOfFd(parent, 1); e != nullptr) {
    ps = ServerAddr{e->peer_pid, e->peer_primary_cluster, e->peer_backup_cluster};
  }
  std::vector<Bytes> chan_creates;
  if (fs.valid()) {
    CreateChannelPair(c, 0, chan_ids[0], fs, PeerKind::kServerControl, kBindFsChannel);
    chan_creates.push_back(Encode(MakeChanCreate(chan_ids[0], c.pid, true, 0, fs.pid, fs.primary,
                                                 fs.backup, c.backup_cluster,
                                                 PeerKind::kServerControl, BackupMode::kHalfback,
                                                 kBindNone)));
  }
  if (ps.valid()) {
    CreateChannelPair(c, 1, chan_ids[1], ps, PeerKind::kServerControl, kBindProcChannel);
    chan_creates.push_back(Encode(MakeChanCreate(chan_ids[1], c.pid, true, 1, ps.pid, ps.primary,
                                                 ps.backup, c.backup_cluster,
                                                 PeerKind::kServerControl, BackupMode::kHalfback,
                                                 kBindNone)));
    CreateChannelPair(c, kBadFd, chan_ids[2], ps, PeerKind::kServerControl,
                      kBindSignalChannel);
    chan_creates.push_back(Encode(MakeChanCreate(chan_ids[2], c.pid, true, kBadFd, ps.pid,
                                                 ps.primary, ps.backup, c.backup_cluster,
                                                 PeerKind::kServerControl, BackupMode::kHalfback,
                                                 kBindSignalChannel)));
  }
  c.next_fd = 3;

  // The child may itself be a replayed subtree: hand it any notices that
  // already arrived for it (same cluster — family backups are co-located).
  if (auto it = birth_store_.find(child_pid); it != birth_store_.end()) {
    c.pending_birth_notices = it->second;
  }

  // Birth notice to the family's backup cluster (§7.7): backup routing
  // entries must exist before messages to the child start arriving there;
  // the notice also records the identity for fork replay. Bus FIFO puts the
  // ChanCreates ahead of any message the child sends.
  if (c.backup_cluster != kNoCluster &&
      env_.config().strategy == FtStrategy::kMessageSystem) {
    BirthNotice notice_out;
    notice_out.parent = parent.pid;
    notice_out.child = child_pid;
    notice_out.fork_seq = parent.fork_seq;
    notice_out.mode = static_cast<uint8_t>(c.mode);
    notice_out.family_head = c.family_head;
    notice_out.chan_creates = chan_creates;
    Msg msg;
    msg.header.kind = MsgKind::kBirthNotice;
    msg.header.src_pid = parent.pid;
    msg.header.dst_pid = child_pid;
    msg.body = Encode(notice_out);
    env_.metrics().birth_notices++;
    EnqueueOutgoing(std::move(msg), MaskOf(c.backup_cluster));
  }

  env_.metrics().processes_spawned++;
  if (tracer_ != nullptr) {
    tracer_->Record(TraceEventKind::kFork, id_, child_pid.value, 0,
                    parent.fork_seq, notice != nullptr ? 1 : 0);
  }
  procs_[child_pid] = std::move(child);
  MakeReady(*procs_[child_pid]);
  CompleteAndReady(parent, pid_rv(child_pid));
}

void Kernel::HandleBirthNotice(const BirthNotice& notice) {
  // Create the fork-time backup routing entries (§7.7: "they must be there
  // to receive backup copies of messages sent to the primary").
  for (const Bytes& blob : notice.chan_creates) {
    Msg msg;
    msg.header.kind = MsgKind::kChanCreate;
    msg.body = blob;
    HandleControl(MsgView::FromOwned(std::move(msg)));
  }
  if (tracer_ != nullptr) {
    tracer_->Record(TraceEventKind::kBirthNotice, id_, notice.child.value, 0,
                    notice.fork_seq, 0);
  }
  // Stash for fork replay, deduplicating (a recovered parent resends).
  std::vector<BirthNotice>& store = birth_store_[notice.parent];
  for (const BirthNotice& n : store) {
    if (n.fork_seq == notice.fork_seq) {
      return;
    }
  }
  store.push_back(notice);
  // Also attach to a live recovering parent, if one exists here already.
  if (Pcb* parent = FindProcess(notice.parent); parent != nullptr) {
    for (const BirthNotice& n : parent->pending_birth_notices) {
      if (n.fork_seq == notice.fork_seq) {
        return;
      }
    }
    parent->pending_birth_notices.push_back(notice);
  }
}

// --------------------------------------------------------------------- exit

void Kernel::SysExit(Pcb& pcb, int32_t status) {
  // Body completion is irrelevant now, but keep the latch consistent.
  pcb.body->CompleteSyscall(SyscallResult{});
  DestroyProcess(pcb, status);
}

void Kernel::DestroyProcess(Pcb& pcb, int32_t status) {
  Gpid pid = pcb.pid;
  pcb.state = ProcState::kExited;
  if (pcb.flush_in_flight) {
    // A draining flush must not deliver its record after the exit notice:
    // the backup would be dismantled and then resurrected by the record.
    CancelFlushJobs(pid);
    pcb.flush_in_flight = false;
    pcb.flush_window_writes.clear();
  }
  if (pcb.needs_rebackup) {
    // Exiting before the lost backup could be rebuilt: peers froze this
    // process's channels at crash handling and must not wait forever.
    pcb.needs_rebackup = false;
    BroadcastBackupLocation(pid, kNoCluster);
  }

  // Close every open channel so peers see EOF (readers wake via kClose).
  for (RoutingEntry* e : routing_.EntriesOf(pid, /*backup=*/false)) {
    if (!e->closed_local && !e->closed_by_peer && e->peer_pid.valid() &&
        e->binding_tag != kBindSignalChannel) {
      SendOnChannel(pcb, *e, MsgKind::kClose, {});
    }
  }
  routing_.RemoveAllOf(pid, /*backup=*/false);
  routing_.DropParked(pid);

  // Dismantle the backup (§7.7's lifecycle ends here for normal exits).
  if (pcb.backup_cluster != kNoCluster && pcb.backup_exists) {
    Msg msg;
    msg.header.kind = MsgKind::kExitNotice;
    msg.header.src_pid = kernel_pid_;
    msg.header.dst_pid = pid;
    EnqueueOutgoing(std::move(msg), MaskOf(pcb.backup_cluster));
  }

  env_.metrics().processes_exited++;
  if (tracer_ != nullptr) {
    tracer_->Record(TraceEventKind::kExit, id_, pid.value, 0,
                    static_cast<uint64_t>(static_cast<int64_t>(status)), 0);
  }
  env_.OnProcessExit(pid, status);
  birth_store_.erase(pid);
  procs_.erase(pid);
}

void Kernel::HandleExitNotice(Gpid pid) {
  backups_.erase(pid);
  routing_.RemoveAllOf(pid, /*backup=*/true);
  routing_.DropParked(pid);
  birth_store_.erase(pid);
}

}  // namespace auragen
