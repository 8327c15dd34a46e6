// Executive-processor model: outgoing-queue drain, frame reception, and the
// three-role message distribution of §5.1/§7.4.2. Everything here runs "on
// the executive processor" — its costs accrue to Metrics::exec_busy_us, not
// work_busy_us, which is how experiment E1 checks §8.1's claim.

#include "src/core/kernel.h"

#include "src/base/log.h"
#include "src/servers/protocol.h"

namespace auragen {

void Kernel::ExecEnqueue(SimTime cost, Task fn) {
  exec_queue_.push_back(ExecItem{cost, std::move(fn)});
  ExecPump();
}

void Kernel::ExecPump() {
  if (exec_busy_ || exec_queue_.empty() || !alive_) {
    return;
  }
  exec_busy_ = true;
  ExecItem item = std::move(exec_queue_.front());
  exec_queue_.pop_front();
  env_.metrics().exec_busy_us += item.cost;
  // The running task is parked in a member rather than captured: a closure
  // holding a Task would always overflow Task's own inline buffer and force
  // a heap allocation per executive step. Only one task runs at a time
  // (exec_busy_), so the slot cannot be clobbered.
  exec_running_ = std::move(item.fn);
  env_.engine().Schedule(item.cost, [this] {
    if (!alive_) {
      return;
    }
    exec_busy_ = false;
    Task fn = std::move(exec_running_);
    fn();
    ExecPump();
  });
}

ClusterMask Kernel::TargetsOf(const RoutingEntry& entry) const {
  ClusterMask mask = 0;
  if (entry.peer_primary_cluster != kNoCluster) {
    mask |= MaskOf(entry.peer_primary_cluster);
  }
  if (entry.peer_backup_cluster != kNoCluster) {
    mask |= MaskOf(entry.peer_backup_cluster);
  }
  if (entry.own_backup_cluster != kNoCluster &&
      env_.config().strategy == FtStrategy::kMessageSystem) {
    mask |= MaskOf(entry.own_backup_cluster);
  }
  return mask;
}

void Kernel::EnqueueOutgoing(Msg msg, ClusterMask targets) {
  if (!alive_) {
    return;
  }
  OutgoingItem item;
  item.msg = std::move(msg);
  item.targets = targets;
  outgoing_.push_back(std::move(item));
  PumpTransmit();
}

void Kernel::PumpTransmit() {
  if (transmit_pumping_ || !transmit_enabled_ || !alive_) {
    return;
  }
  // Is anything transmittable (not held for a fullback re-creation)?
  bool any = false;
  for (const OutgoingItem& item : outgoing_) {
    if (!item.held_for.valid()) {
      any = true;
      break;
    }
  }
  if (!any) {
    return;
  }
  transmit_pumping_ = true;
  ExecEnqueue(kExecSendUs, [this] {
    transmit_pumping_ = false;
    if (!transmit_enabled_) {
      return;
    }
    for (auto it = outgoing_.begin(); it != outgoing_.end();) {
      if (it->held_for.valid()) {
        ++it;
        continue;
      }
      if (it->targets == 0) {
        // Crash handling stripped every destination (the peer died
        // unprotected): nothing to transmit, and paying a send slot per
        // dead item would stall live traffic behind a long casualty list.
        it = outgoing_.erase(it);
        continue;
      }
      Msg msg = std::move(it->msg);
      ClusterMask targets = it->targets;
      outgoing_.erase(it);
      env_.bus().Transmit(id_, targets, Encode(msg));
      break;
    }
    PumpTransmit();
  });
}

void Kernel::OnFrame(const Frame& frame) {
  if (!alive_) {
    return;
  }
  // Decode-once (§7.4.2): parse the fixed header in place; the body remains
  // a view into the shared frame payload, kept alive by the MsgView. No
  // bytes are copied until a queue takes ownership of the message.
  MsgView msg = MsgView::Parse(frame.payload);
  if (msg.header.kind == MsgKind::kHeartbeat) {
    // Heartbeats are handled by the bus interface hardware directly; they
    // cost no executive time and cannot be delayed behind message work.
    if (frame.src < last_heartbeat_.size()) {
      last_heartbeat_[frame.src] = env_.engine().Now();
      if (!peer_alive_[frame.src] && crash_handled_[frame.src]) {
        // A crashed cluster is beating again: it restarted (halfback path).
        peer_alive_[frame.src] = true;
        crash_handled_[frame.src] = false;
      }
    }
    return;
  }
  // Delivery latency (bus accept at the sender to arrival here); heartbeats
  // never enter this path.
  env_.metrics().delivery_latency_us_total += env_.engine().Now() - frame.sent_at;
  env_.metrics().delivery_latency_samples++;
  ExecEnqueue(kExecDeliverUs, [this, msg = std::move(msg)] {
    DeliverLocal(msg);
  });
}

void Kernel::EnqueueAtEntry(RoutingEntry& entry, const MsgView& msg) {
  QueuedMsg q;
  q.arrival_seq = next_arrival_seq_++;
  q.msg = msg.ToOwned();  // the queue takes ownership: the one legal copy
  entry.queue.push_back(std::move(q));
}

void Kernel::DeliverAt(RoutingEntry& entry, const MsgView& msg) {
  const MsgHeader& h = msg.header;
  if (h.kind == MsgKind::kClose) {
    entry.closed_by_peer = true;
    return;
  }
  EnqueueAtEntry(entry, msg);
  if (entry.backup_entry) {
    env_.metrics().deliveries_backup++;
  } else {
    env_.metrics().deliveries_primary++;
  }
  if (tracer_ != nullptr) {
    tracer_->Record(entry.backup_entry ? TraceEventKind::kDeliverBackup
                                       : TraceEventKind::kDeliverPrimary,
                    id_, h.dst_pid.value, h.channel.value, static_cast<uint64_t>(h.kind),
                    msg.body().size());
  }
}

void Kernel::DeliverLocal(const MsgView& msg) {
  const MsgHeader& h = msg.header;
  switch (h.kind) {
    case MsgKind::kUser:
    case MsgKind::kOpenReply:
    case MsgKind::kSignal:
    case MsgKind::kClose:
    case MsgKind::kPageWrite:
    case MsgKind::kPageRequest:
    case MsgKind::kSync:
      break;  // channel-routed below
    default:
      HandleControl(msg);
      return;
  }

  // Early arrival (DESIGN.md §11): the entry this leg needs does not exist
  // yet — a channel's first message can overtake the open reply that
  // creates it. Park the message for the entry's creation; drop it only
  // when its owner is not (or no longer) here.
  auto park = [&](bool backup_entry) {
    if (procs_.count(h.dst_pid) == 0 && backups_.count(h.dst_pid) == 0) {
      return;
    }
    routing_.Park(h.channel, h.dst_pid, backup_entry,
                  QueuedMsg{next_arrival_seq_++, msg.ToOwned()});
    env_.metrics().early_arrivals_parked++;
  };

  // §7.4.2: the executive determines which of the three roles this cluster
  // plays; co-resident roles are all served from the single transmission.
  if (h.dst_primary_cluster == id_) {
    RoutingEntry* entry = routing_.Find(h.channel, h.dst_pid, /*backup=*/false);
    if (entry == nullptr && h.dst_backup_cluster != id_) {
      // Detection stagger: a peer that already ran its crash handling
      // addresses this cluster as the destination's new primary before our
      // own handling has flipped the passive/parked backup entries. Park the
      // message in the saved queue — the takeover flip replays it.
      RoutingEntry* saved = routing_.Find(h.channel, h.dst_pid, /*backup=*/true);
      if (saved == nullptr) {
        park(/*backup_entry=*/false);
      } else if (h.kind != MsgKind::kClose) {
        DeliverAt(*saved, msg);
      }
    } else if (entry != nullptr) {
      DeliverAt(*entry, msg);
      WakeReaders(*entry);
      if (h.kind == MsgKind::kSignal) {
        // Interrupt a restartable wait right away (§7.5.2); otherwise the
        // signal is picked up at the next dispatch boundary.
        auto it = procs_.find(h.dst_pid);
        if (it != procs_.end()) {
          DeliverPendingSignal(*it->second);
          if (it->second->state == ProcState::kReady && !it->second->dispatched) {
            MakeReady(*it->second);
          }
        }
      }
    } else if (h.dst_pid == kernel_pid_) {
      // Kernel-addressed channel traffic (page replies ride kPageWrite-like
      // paths only toward servers; nothing else lands here today).
      ALOG_DEBUG() << "c" << id_ << ": kernel-addressed " << MsgKindName(h.kind);
    } else {
      ALOG_DEBUG() << "c" << id_ << ": no primary entry for ch " << h.channel.value << " "
                   << GpidStr(h.dst_pid) << " kind " << MsgKindName(h.kind);
    }
  }

  if (h.dst_backup_cluster == id_) {
    RoutingEntry* entry = routing_.Find(h.channel, h.dst_pid, /*backup=*/true);
    if (entry == nullptr && h.dst_primary_cluster != id_) {
      // Takeover stagger, reverse direction: the save leg of a message sent
      // with pre-takeover routing arrives after this cluster's backup entry
      // flipped to primary. Both legs ride one bus transmission, so a read
      // by the old primary implies the save landed here first — a late save
      // leg therefore carries a message the destination never saw. Deliver
      // it to the flipped primary entry instead of dropping it.
      RoutingEntry* flipped = routing_.Find(h.channel, h.dst_pid, /*backup=*/false);
      if (flipped != nullptr) {
        DeliverAt(*flipped, msg);
        WakeReaders(*flipped);
      } else {
        park(/*backup_entry=*/true);
      }
    } else if (entry != nullptr) {
      DeliverAt(*entry, msg);
    }
    if (h.kind == MsgKind::kOpenReply) {
      // §7.4.1: "The arrival of an open reply at a backup cluster causes the
      // creation of the backup routing table entry."
      OpenReplyBody reply = Decode<OpenReplyBody>(msg.body());
      if (reply.status == 0 &&
          routing_.Find(reply.channel, h.dst_pid, /*backup=*/true) == nullptr) {
        FillFromOpenReply(routing_.Create(reply.channel, h.dst_pid, /*backup=*/true), reply, id_);
      }
    }
  }

  if (h.src_backup_cluster == id_) {
    // Third destination (§5.1): count and discard.
    RoutingEntry* entry = routing_.Find(h.channel, h.src_pid, /*backup=*/true);
    if (entry != nullptr && h.kind != MsgKind::kClose) {
      entry->writes_since_sync++;
      env_.metrics().deliveries_count_only++;
      if (tracer_ != nullptr) {
        tracer_->Record(TraceEventKind::kDeliverCount, id_, h.src_pid.value,
                        h.channel.value, entry->writes_since_sync, 0);
      }
    }
  }

  if (h.kind == MsgKind::kSync) {
    // Beyond the page-server channel delivery above, a sync message updates
    // the backup PCB when this cluster hosts it (§7.8).
    SyncRecord record = Decode<SyncRecord>(msg.body());
    if (record.backup_cluster == id_) {
      ExecEnqueue(kExecSyncApplyUs, [this, record = std::move(record)] {
        ApplySyncAtBackup(record);
      });
    }
  }
}

void Kernel::FillFromOpenReply(RoutingEntry& entry, const OpenReplyBody& reply,
                               ClusterId own_backup) {
  entry.peer_pid = reply.peer_pid;
  entry.peer_primary_cluster = reply.peer_primary_cluster;
  entry.peer_backup_cluster = reply.peer_backup_cluster;
  entry.peer_kind = reply.peer_kind;
  entry.peer_mode = reply.peer_mode;
  entry.own_backup_cluster = own_backup;
  // A reply held over a crash (re-delivered to a restarted opener) carries
  // the peer's pre-crash location. Apply the crashes this kernel has
  // already handled, or the first send walks into a dead cluster and the
  // save leg parks in a queue nothing will ever replay.
  for (ClusterId c = 0; c < num_clusters_; ++c) {
    if (crash_handled_[c]) {
      PatchEntryAfterCrash(entry, c);
    }
  }
}

void Kernel::WakeReaders(const RoutingEntry& entry) {
  // Completing a blocked read pops the message and finishes the syscall;
  // TryCompleteBlocked no-ops when this arrival does not satisfy the wait.
  auto it = procs_.find(entry.owner);
  if (it != procs_.end()) {
    TryCompleteBlocked(*it->second);
  }
}

void Kernel::HandleControl(const MsgView& msg) {
  switch (msg.header.kind) {
    case MsgKind::kChanCreate: {
      ChanCreate c = Decode<ChanCreate>(msg.body());
      // Never clobber queues/counters of an existing entry: replayed forks
      // and duplicate notices re-announce channels that already carry saved
      // traffic. Only refresh the addressing.
      RoutingEntry* existing = routing_.Find(c.channel, c.owner, c.backup_entry);
      RoutingEntry& e = existing != nullptr
                            ? *existing
                            : routing_.Create(c.channel, c.owner, c.backup_entry);
      e.fd = c.fd;
      e.peer_pid = c.peer_pid;
      e.peer_primary_cluster = c.peer_primary_cluster;
      e.peer_backup_cluster = c.peer_backup_cluster;
      e.own_backup_cluster = c.own_backup_cluster;
      e.peer_kind = c.peer_kind;
      e.peer_mode = c.peer_mode;
      e.binding_tag = c.binding_tag;
      break;
    }
    case MsgKind::kBirthNotice:
      HandleBirthNotice(Decode<BirthNotice>(msg.body()));
      break;
    case MsgKind::kExitNotice:
      HandleExitNotice(msg.header.dst_pid);
      break;
    case MsgKind::kCrashNotice:
      HandleCrashNotice(Decode<CrashNoticeBody>(msg.body()).dead);
      break;
    case MsgKind::kBackupCreate:
      HandleBackupCreate(Decode<BackupCreateBody>(msg.body()));
      break;
    case MsgKind::kBackupReady: {
      BackupReadyBody ready = Decode<BackupReadyBody>(msg.body());
      HandleBackupReady(ready.pid, ready.cluster, msg.header.src_pid.origin_cluster());
      break;
    }
    case MsgKind::kServerSync:
      HandleServerSync(msg);
      break;
    case MsgKind::kCheckpoint:
      ApplyCheckpointAtBackup(msg);
      break;
    case MsgKind::kProcCrash: {
      ProcCrashBody crash = Decode<ProcCrashBody>(msg.body());
      HandleProcCrash(crash.pid, crash.at);
      break;
    }
    case MsgKind::kPageReply:
      if (msg.header.dst_primary_cluster == id_) {
        HandlePageReply(Decode<PageReplyBody>(msg.body()));
      }
      if (msg.header.src_backup_cluster == id_) {
        // Count the page server's reply at its backup (suppression on
        // server rollforward).
        RoutingEntry* entry =
            routing_.Find(msg.header.channel, msg.header.src_pid, /*backup=*/true);
        if (entry != nullptr) {
          entry->writes_since_sync++;
        }
      }
      break;
    default:
      ALOG_WARN() << "c" << id_ << ": unhandled control " << MsgKindName(msg.header.kind);
      break;
  }
}

}  // namespace auragen
