// System-call layer (§7.5). Each call either uses cluster-independent data
// or turns into message traffic, so a rolled-forward backup sees identical
// results. Reads are always blocking (§7.5.1); writes return once the
// message is on the outgoing queue; writes that need a server's answer
// (writev/open/gettime) block for the reply.

#include "src/core/kernel.h"

#include <algorithm>

#include "src/base/log.h"
#include "src/kernel/avm_body.h"
#include "src/servers/protocol.h"

namespace auragen {

namespace {
int64_t NegErr(Errc e) { return -static_cast<int64_t>(e); }
}  // namespace

// Parks the process awaiting a reply to a request it just sent. During
// rollforward the reply may already sit in the (saved) queue, so the wait is
// re-checked immediately — blocking unconditionally would deadlock.
void Kernel::BlockForReply(Pcb& pcb, const RoutingEntry& entry, Fd fd, uint64_t max) {
  pcb.state = ProcState::kBlockedRead;
  pcb.blocked_channel = entry.channel;
  pcb.blocked_fd = fd;
  pcb.blocked_max = max;
  pcb.blocked_read_any = false;
  pcb.blocked_side_effects = true;
  TryCompleteBlocked(pcb);
}

RoutingEntry* Kernel::EntryOfFd(Pcb& pcb, Fd fd) {
  auto it = pcb.fds.find(fd);
  if (it == pcb.fds.end()) {
    return nullptr;
  }
  return routing_.Find(it->second.channel, pcb.pid, /*backup=*/false);
}

bool Kernel::EntryReadable(const RoutingEntry& entry) const { return !entry.queue().empty(); }

void Kernel::CompleteAndReady(Pcb& pcb, int64_t rv, Bytes data) {
  SyscallResult res;
  res.rv = rv;
  res.data = std::move(data);
  pcb.body->CompleteSyscall(res);
  pcb.blocked_side_effects = false;
  pcb.blocked_read_any = false;
  MakeReady(pcb);
}

// ---------------------------------------------------------------- send path

void Kernel::SendOnChannel(Pcb& pcb, RoutingEntry& entry, MsgKind kind, Bytes body,
                           bool counted) {
  // §5.4: a recovered process rolls forward past sends its dead primary
  // already performed. The flipped backup entry carried the count.
  if (counted && entry.writes_since_sync > 0) {
    entry.writes_since_sync--;
    env_.metrics().sends_suppressed++;
    if (tracer_ != nullptr) {
      tracer_->Record(TraceEventKind::kSendSuppressed, id_, pcb.pid.value,
                      entry.channel.value, entry.writes_since_sync, 0);
    }
    return;
  }

  Msg msg;
  msg.header.kind = kind;
  msg.header.src_pid = pcb.pid;
  msg.header.dst_pid = entry.peer_pid;
  msg.header.channel = entry.channel;
  msg.header.dst_primary_cluster = entry.peer_primary_cluster;
  msg.header.dst_backup_cluster = entry.peer_backup_cluster;
  msg.header.src_backup_cluster = counted ? entry.own_backup_cluster : kNoCluster;
  msg.body = std::move(body);

  entry.written_since_sync = true;
  entry.writes_total++;
  pcb.writes_total++;
  if (pcb.flush_in_flight && counted && entry.own_backup_cluster != kNoCluster) {
    // This send's count leg reaches the backup before the draining sync
    // record does; tally it so the record preserves the §5.4 budget.
    pcb.flush_window_writes[entry.channel.value]++;
  }
  env_.metrics().messages_sent++;
  env_.metrics().bytes_sent += msg.body.size();
  if (tracer_ != nullptr) {
    tracer_->Record(TraceEventKind::kSend, id_, pcb.pid.value, entry.channel.value,
                    static_cast<uint64_t>(kind), msg.body.size());
  }

  OutgoingItem item;
  item.msg = std::move(msg);
  item.targets = TargetsOf(entry);
  if (entry.unusable) {
    // Peer is a fullback awaiting its replacement backup (§7.10.1): hold
    // until kBackupReady supplies the new address.
    item.held_for = entry.peer_pid;
  }
  outgoing_.push_back(std::move(item));
  PumpTransmit();
}

// ------------------------------------------------------------------- reads

Fd Kernel::PickReadable(const Pcb& pcb, const FdGroup& group) const {
  // The readable index runs oldest head first, so the first entry whose
  // descriptor is in the group, and still bound to that entry's channel, is
  // the group's lowest arrival. A descriptor reaches only the entry that
  // records it: ConsumeMessage CHECKs that an open reply naming an existing
  // entry leaves no second descriptor bound to its channel.
  for (const auto& [seq, e] : routing_.ReadableOf(pcb.pid)) {
    if (!group.Contains(e->fd)) {
      continue;
    }
    auto it = pcb.fds.find(e->fd);
    if (it != pcb.fds.end() && it->second.channel == e->channel) {
      return e->fd;
    }
  }
  return kBadFd;
}

RoutingEntry* Kernel::PickReadableAny(const Pcb& pcb) const {
  const RoutingTable::ReadableIndex& readable = routing_.ReadableOf(pcb.pid);
  return readable.empty() ? nullptr : readable.begin()->second;
}

void Kernel::ConsumeMessage(Pcb& pcb, RoutingEntry& entry, int64_t max, bool read_any) {
  QueuedMsg q = routing_.PopFront(entry);

  pcb.reads_since_sync++;
  pcb.reads_total++;
  entry.reads_since_sync++;
  entry.reads_total++;

  const Msg& msg = q.msg;
  if (msg.header.kind == MsgKind::kOpenReply) {
    // Completion of a blocked open(): materialize the new channel.
    OpenReplyBody reply = Decode<OpenReplyBody>(msg.body);
    if (reply.status != 0) {
      CompleteAndReady(pcb, reply.status);
      return;
    }
    Fd fd = pcb.next_fd++;
    RoutingEntry* existing = routing_.Find(reply.channel, pcb.pid, /*backup=*/false);
    if (existing != nullptr && existing->fd != fd) {
      auto bound = pcb.fds.find(existing->fd);
      AURAGEN_CHECK(bound == pcb.fds.end() || bound->second.channel != reply.channel)
          << "open reply binds ch" << reply.channel.value << "to fd" << fd << "while fd"
          << existing->fd << "still holds it";
    }
    RoutingEntry& ne = existing != nullptr
                           ? *existing
                           : routing_.Create(reply.channel, pcb.pid, /*backup=*/false);
    ne.fd = fd;
    ne.opened_since_sync = true;
    FillFromOpenReply(ne, reply, pcb.backup_cluster);
    pcb.fds[fd] = FdBinding{reply.channel, static_cast<PeerKind>(reply.peer_kind)};
    CompleteAndReady(pcb, fd);
    return;
  }

  Bytes payload = msg.body;
  int64_t rv_override = -1;
  bool has_rv_override = false;
  if (!read_any &&
      (entry.peer_kind == static_cast<uint8_t>(PeerKind::kServerControl) ||
       entry.peer_kind == static_cast<uint8_t>(PeerKind::kServerFile)) &&
      !payload.empty()) {
    // Unwrap server reply framing so user programs see plain data/values:
    // kData / kTtyInput -> payload bytes, kStatus -> rv, kTime64 -> rv.
    ByteReader br(payload);
    switch (Decode<ReqTag>(br)) {
      case ReqTag::kData:
      case ReqTag::kTtyInput:
        payload = Decode<Bytes>(br);
        break;
      case ReqTag::kStatus:
        rv_override = Decode<int32_t>(br);
        has_rv_override = true;
        payload.clear();
        break;
      case ReqTag::kTime64:
        rv_override = static_cast<int64_t>(Decode<uint64_t>(br));
        has_rv_override = true;
        payload.clear();
        break;
      default:
        break;  // raw delivery (signal bodies, app traffic)
    }
  }
  if (max >= 0 && payload.size() > static_cast<size_t>(max)) {
    payload.resize(static_cast<size_t>(max));
  }
  int64_t rv = has_rv_override ? rv_override : static_cast<int64_t>(payload.size());
  if (read_any) {
    rv = static_cast<int64_t>(msg.body.size());
    payload = Encode(ReadAnyResult{msg.header.channel.value, msg.header.src_pid,
                                   entry.binding_tag, msg.header.kind, std::move(q.msg.body)});
  }
  CompleteAndReady(pcb, rv, std::move(payload));
}

void Kernel::ReadOrBlock(Pcb& pcb, Fd fd, uint64_t max) {
  RoutingEntry* entry = EntryOfFd(pcb, fd);
  if (entry == nullptr) {
    CompleteAndReady(pcb, NegErr(Errc::kBadDescriptor));
    return;
  }
  if (EntryReadable(*entry)) {
    ConsumeMessage(pcb, *entry, static_cast<int64_t>(max), /*read_any=*/false);
    return;
  }
  if (entry->closed_by_peer) {
    CompleteAndReady(pcb, 0);  // EOF
    return;
  }
  pcb.state = ProcState::kBlockedRead;
  pcb.blocked_channel = entry->channel;
  pcb.blocked_fd = fd;
  pcb.blocked_max = max;
  pcb.blocked_read_any = false;
}

void Kernel::TryCompleteBlocked(Pcb& pcb) {
  switch (pcb.state) {
    case ProcState::kBlockedRead: {
      if (pcb.blocked_read_any) {
        RoutingEntry* e = PickReadableAny(pcb);
        if (e != nullptr) {
          ConsumeMessage(pcb, *e, static_cast<int64_t>(pcb.blocked_max), /*read_any=*/true);
        }
        return;
      }
      RoutingEntry* e = routing_.Find(pcb.blocked_channel, pcb.pid, /*backup=*/false);
      if (e == nullptr) {
        CompleteAndReady(pcb, NegErr(Errc::kPeerGone));
        return;
      }
      if (EntryReadable(*e)) {
        ConsumeMessage(pcb, *e, static_cast<int64_t>(pcb.blocked_max), /*read_any=*/false);
      } else if (e->closed_by_peer) {
        CompleteAndReady(pcb, pcb.blocked_side_effects ? NegErr(Errc::kPeerGone) : 0);
      }
      return;
    }
    case ProcState::kBlockedWhich: {
      auto git = pcb.groups.find(pcb.blocked_group);
      if (git == pcb.groups.end()) {
        CompleteAndReady(pcb, NegErr(Errc::kInvalid));
        return;
      }
      Fd fd = PickReadable(pcb, git->second);
      if (fd != kBadFd) {
        CompleteAndReady(pcb, fd);
      }
      return;
    }
    default:
      return;
  }
}

// ---------------------------------------------------------------- dispatch

void Kernel::DoSyscall(Pcb& pcb, const SyscallRequest& req) {
  if (static_cast<uint32_t>(req.num) >= kFirstNativeSys) {
    DoNativeSyscall(pcb, req);
    return;
  }
  switch (req.num) {
    case Sys::kOpen:
      SysOpen(pcb, req);
      break;
    case Sys::kClose:
      SysClose(pcb, static_cast<Fd>(req.a));
      break;
    case Sys::kRead:
      SysRead(pcb, req);
      break;
    case Sys::kWrite:
      SysWrite(pcb, req, /*wants_answer=*/false);
      break;
    case Sys::kWritev:
      SysWrite(pcb, req, /*wants_answer=*/true);
      break;
    case Sys::kFork:
      SysFork(pcb);
      break;
    case Sys::kExit:
      SysExit(pcb, static_cast<int32_t>(req.a));
      break;
    case Sys::kGetpid: {
      // Cluster-independent (§7.5.1): derived from the globally unique pid.
      uint32_t rv = (pcb.pid.origin_cluster() << 24) |
                    static_cast<uint32_t>(pcb.pid.value & 0xffffff);
      CompleteAndReady(pcb, rv);
      break;
    }
    case Sys::kGettime:
      SysGettime(pcb);
      break;
    case Sys::kAlarm:
      SysAlarm(pcb, req.a);
      break;
    case Sys::kSigset:
      pcb.sig_handler = static_cast<uint32_t>(req.a);
      CompleteAndReady(pcb, 0);
      break;
    case Sys::kSigret: {
      auto* avm = dynamic_cast<AvmBody*>(pcb.body.get());
      if (avm == nullptr) {
        CompleteAndReady(pcb, NegErr(Errc::kNotSupported));
        break;
      }
      avm->LeaveSignal();
      pcb.in_signal = false;
      MakeReady(pcb);
      break;
    }
    case Sys::kYield:
      CompleteAndReady(pcb, 0);
      break;
    case Sys::kBunch:
      SysBunch(pcb, req);
      break;
    case Sys::kWhich:
      SysWhich(pcb, req);
      break;
    case Sys::kDebugPutc:
      env_.OnDebugPutc(pcb.pid, static_cast<char>(req.a));
      CompleteAndReady(pcb, 0);
      break;
    case Sys::kMark:
      // Workload SLO instrumentation: a = phase, b = request tag. Purely a
      // trace emission — no guest-visible effect, so rollforward replay of
      // a mark is harmless (the analyzer keeps the earliest issue mark).
      if (tracer_ != nullptr) {
        tracer_->Record(TraceEventKind::kRequestMark, id_, pcb.pid.value, 0,
                        req.a, req.b);
      }
      CompleteAndReady(pcb, 0);
      break;
    case Sys::kSyncHint:
      CompleteAndReady(pcb, 0);
      if (env_.config().strategy == FtStrategy::kMessageSystem) {
        ForceSync(pcb, /*signal_forced=*/false);
      } else if (env_.config().strategy == FtStrategy::kCheckpointFull ||
                 env_.config().strategy == FtStrategy::kCheckpointIncremental) {
        ForceCheckpoint(pcb);
      }
      break;
    default:
      CompleteAndReady(pcb, NegErr(Errc::kNotSupported));
      break;
  }
}

void Kernel::SysOpen(Pcb& pcb, const SyscallRequest& req) {
  RoutingEntry* fs = EntryOfFd(pcb, 0);
  if (fs == nullptr) {
    CompleteAndReady(pcb, NegErr(Errc::kNoEntry));
    return;
  }
  OpenRequest open;
  open.cookie = pcb.reads_total + 1;  // deterministic correlation tag
  open.name.assign(req.data.begin(), req.data.end());
  open.opener = pcb.pid;
  open.opener_cluster = id_;
  open.opener_backup = pcb.backup_cluster;
  open.opener_mode = static_cast<uint8_t>(pcb.mode);
  SendOnChannel(pcb, *fs, MsgKind::kUser, Encode(ReqTag::kOpen, open));
  BlockForReply(pcb, *fs, 0);
}

void Kernel::SysClose(Pcb& pcb, Fd fd) {
  auto it = pcb.fds.find(fd);
  if (it == pcb.fds.end()) {
    CompleteAndReady(pcb, NegErr(Errc::kBadDescriptor));
    return;
  }
  RoutingEntry* entry = routing_.Find(it->second.channel, pcb.pid, /*backup=*/false);
  if (entry != nullptr) {
    if (!entry->closed_by_peer) {
      SendOnChannel(pcb, *entry, MsgKind::kClose, {});
    }
    entry->closed_local = true;
  }
  pcb.fds.erase(it);
  CompleteAndReady(pcb, 0);
}

void Kernel::SysRead(Pcb& pcb, const SyscallRequest& req) {
  if (req.a == kAnyChannel) {
    // Native servers: take the oldest message across all owned channels.
    pcb.blocked_max = req.c != 0 ? req.c : ~0ull;
    RoutingEntry* e = PickReadableAny(pcb);
    if (e != nullptr) {
      ConsumeMessage(pcb, *e, static_cast<int64_t>(pcb.blocked_max), /*read_any=*/true);
      return;
    }
    pcb.state = ProcState::kBlockedRead;
    pcb.blocked_read_any = true;
    pcb.blocked_side_effects = false;
    return;
  }

  Fd fd = static_cast<Fd>(req.a);
  auto it = pcb.fds.find(fd);
  if (it == pcb.fds.end()) {
    CompleteAndReady(pcb, NegErr(Errc::kBadDescriptor));
    return;
  }
  if (it->second.peer == PeerKind::kServerFile) {
    // File-channel read: request/reply with the file server (§7.6's servers
    // answer via message, so the same answer is available to the backup).
    RoutingEntry* entry = EntryOfFd(pcb, fd);
    if (entry == nullptr) {
      CompleteAndReady(pcb, NegErr(Errc::kBadDescriptor));
      return;
    }
    SendOnChannel(pcb, *entry, MsgKind::kUser,
                  Encode(ReqTag::kFileRead, req.c));
    BlockForReply(pcb, *entry, fd, req.c);
    return;
  }
  ReadOrBlock(pcb, fd, req.c);
}

void Kernel::SysWrite(Pcb& pcb, const SyscallRequest& req, bool wants_answer) {
  Fd fd = static_cast<Fd>(req.a);
  auto it = pcb.fds.find(fd);
  if (it == pcb.fds.end()) {
    CompleteAndReady(pcb, NegErr(Errc::kBadDescriptor));
    return;
  }
  RoutingEntry* entry = EntryOfFd(pcb, fd);
  if (entry == nullptr || entry->closed_local) {
    CompleteAndReady(pcb, NegErr(Errc::kBadDescriptor));
    return;
  }
  if (entry->closed_by_peer && entry->peer_backup_cluster == kNoCluster &&
      entry->writes_since_sync == 0) {
    // kPeerGone is suppressed while a replay budget remains: a restarted
    // process re-executing a send that succeeded before the crash must see
    // it succeed again (§6 transparency), even if the peer has since closed
    // the channel — the close is in this process's replayed future. The
    // send itself is swallowed by the count check in SendOnChannel.
    CompleteAndReady(pcb, NegErr(Errc::kPeerGone));
    return;
  }

  Bytes payload;
  if (it->second.peer == PeerKind::kServerFile) {
    payload = Encode(ReqTag::kFileWrite, req.data);
  } else if (it->second.peer == PeerKind::kServerControl && fd == 2) {
    payload = Encode(ReqTag::kTtyWrite, req.data);
  } else {
    payload = req.data;
  }
  SendOnChannel(pcb, *entry, MsgKind::kUser, std::move(payload));

  if (wants_answer || it->second.peer == PeerKind::kServerFile) {
    // §7.5.1: writes requiring a server's answer cannot return until the
    // answer arrives.
    BlockForReply(pcb, *entry, fd);
    return;
  }
  CompleteAndReady(pcb, static_cast<int64_t>(req.data.size()));
}

void Kernel::SysBunch(Pcb& pcb, const SyscallRequest& req) {
  std::vector<Fd> fds;
  for (size_t at = 0; at + 4 <= req.data.size(); at += 4) {
    int32_t fd = static_cast<int32_t>(
        static_cast<uint32_t>(req.data[at]) | (static_cast<uint32_t>(req.data[at + 1]) << 8) |
        (static_cast<uint32_t>(req.data[at + 2]) << 16) |
        (static_cast<uint32_t>(req.data[at + 3]) << 24));
    fds.push_back(fd);
  }
  uint32_t group = pcb.next_group++;
  pcb.groups[group] = FdGroup(std::move(fds));
  CompleteAndReady(pcb, group);
}

void Kernel::SysWhich(Pcb& pcb, const SyscallRequest& req) {
  uint32_t group = static_cast<uint32_t>(req.a);
  auto it = pcb.groups.find(group);
  if (it == pcb.groups.end()) {
    CompleteAndReady(pcb, NegErr(Errc::kInvalid));
    return;
  }
  Fd fd = PickReadable(pcb, it->second);
  if (fd != kBadFd) {
    CompleteAndReady(pcb, fd);
    return;
  }
  pcb.state = ProcState::kBlockedWhich;
  pcb.blocked_group = group;
  pcb.blocked_side_effects = false;
}

void Kernel::SysGettime(Pcb& pcb) {
  // §7.5.1: time is the process server's responsibility; request and answer
  // both travel by message so the backup sees the same value.
  RoutingEntry* ps = EntryOfFd(pcb, 1);
  if (ps == nullptr) {
    CompleteAndReady(pcb, NegErr(Errc::kNoEntry));
    return;
  }
  SendOnChannel(pcb, *ps, MsgKind::kUser, Encode(ReqTag::kTime));
  BlockForReply(pcb, *ps, 1);
}

void Kernel::SysAlarm(Pcb& pcb, uint64_t delay_us) {
  RoutingEntry* ps = EntryOfFd(pcb, 1);
  if (ps == nullptr) {
    CompleteAndReady(pcb, NegErr(Errc::kNoEntry));
    return;
  }
  SendOnChannel(pcb, *ps, MsgKind::kUser, Encode(ReqTag::kAlarm, delay_us));
  CompleteAndReady(pcb, 0);
}

// ------------------------------------------------------------ signals

RoutingEntry* Kernel::SignalEntry(Gpid pid, bool backup_entry) {
  auto it = procs_.find(pid);
  if (it == procs_.end() || !it->second->signal_channel.valid()) {
    return nullptr;
  }
  return routing_.Find(it->second->signal_channel, pid, backup_entry);
}

void Kernel::DeliverPendingSignal(Pcb& pcb) {
  if (pcb.in_signal || !pcb.signal_channel.valid()) {
    return;
  }
  RoutingEntry* sig = routing_.Find(pcb.signal_channel, pcb.pid, /*backup=*/false);
  if (sig == nullptr || sig->queue().empty()) {
    return;
  }

  if (pcb.sig_handler == 0) {
    // Ignored: remove from the queue and count as a read (§7.5.2).
    routing_.PopFront(*sig);
    pcb.reads_since_sync++;
    pcb.reads_total++;
    sig->reads_since_sync++;
    return;
  }

  // A process parked in a restartable wait (read/which, no request of ours
  // awaiting its reply) is interrupted: the blocked SYS rewinds, the handler
  // runs, and sigret re-executes the wait — restartable syscalls.
  if (pcb.state == ProcState::kBlockedRead || pcb.state == ProcState::kBlockedWhich) {
    if (pcb.blocked_side_effects) {
      return;  // reply in flight; deliver at the next dispatch boundary
    }
    auto* avm = dynamic_cast<AvmBody*>(pcb.body.get());
    if (avm == nullptr) {
      return;  // native servers take no signals
    }
    avm->AbortBlockedSyscall();
    pcb.state = ProcState::kReady;
    pcb.blocked_read_any = false;
  } else if (pcb.state != ProcState::kReady) {
    return;
  }

  // Non-ignored: sync first (§7.5.2/§8.3 forced sync), then divert. On
  // rollforward the backup lands exactly here: at the sync point with the
  // signal message at the head of its saved signal queue.
  if (env_.config().strategy == FtStrategy::kMessageSystem &&
      pcb.backup_cluster != kNoCluster) {
    ForceSync(pcb, /*signal_forced=*/true);
  }
  QueuedMsg q = routing_.PopFront(*sig);
  pcb.reads_since_sync++;
  pcb.reads_total++;
  sig->reads_since_sync++;

  ReqTag tag{};
  Gpid target;  // redundant here
  uint32_t signum = 0;
  ByteReader r(q.msg.body);
  DecodeInto(r, tag, target, signum);
  if (pcb.body->EnterSignal(pcb.sig_handler, signum)) {
    pcb.in_signal = true;
    if (tracer_ != nullptr) {
      tracer_->Record(TraceEventKind::kSignalDeliver, id_, pcb.pid.value,
                      pcb.signal_channel.value, signum, 0);
    }
  }
}

// ------------------------------------------------------- native syscalls

void Kernel::DoNativeSyscall(Pcb& pcb, const SyscallRequest& req) {
  if (!pcb.is_server) {
    CompleteAndReady(pcb, NegErr(Errc::kNotSupported));
    return;
  }
  switch (static_cast<NativeSys>(req.num)) {
    case NativeSys::kDiskRead: {
      AURAGEN_CHECK(pcb.peripheral) << "disk access from non-peripheral server";
      pcb.state = ProcState::kBlockedDevice;
      Gpid pid = pcb.pid;
      env_.DiskRead(pcb.pid, static_cast<BlockNum>(req.a), [this, pid](Result<Bytes> r) {
        Pcb* p = FindProcess(pid);
        if (p == nullptr || p->state != ProcState::kBlockedDevice) {
          return;
        }
        if (r.ok()) {
          CompleteAndReady(*p, 0, std::move(r).value());
        } else {
          CompleteAndReady(*p, NegErr(r.error()));
        }
      });
      break;
    }
    case NativeSys::kDiskWrite: {
      AURAGEN_CHECK(pcb.peripheral) << "disk access from non-peripheral server";
      pcb.state = ProcState::kBlockedDevice;
      Gpid pid = pcb.pid;
      env_.DiskWrite(pcb.pid, static_cast<BlockNum>(req.a), req.data,
                     [this, pid](Result<void> r) {
                       Pcb* p = FindProcess(pid);
                       if (p == nullptr || p->state != ProcState::kBlockedDevice) {
                         return;
                       }
                       CompleteAndReady(*p, r.ok() ? 0 : NegErr(r.error()));
                     });
      break;
    }
    case NativeSys::kDiskWriteVec: {
      AURAGEN_CHECK(pcb.peripheral) << "disk access from non-peripheral server";
      pcb.state = ProcState::kBlockedDevice;
      Gpid pid = pcb.pid;
      env_.DiskWriteMulti(pcb.pid, Decode<DiskWriteBatch>(req.data),
                          [this, pid](Result<void> res) {
                            Pcb* p = FindProcess(pid);
                            if (p == nullptr || p->state != ProcState::kBlockedDevice) {
                              return;
                            }
                            CompleteAndReady(*p, res.ok() ? 0 : NegErr(res.error()));
                          });
      break;
    }
    case NativeSys::kServerSyncSend: {
      // Explicit peripheral-server sync (§7.9): ship to the backup cluster.
      if (pcb.backup_cluster == kNoCluster) {
        CompleteAndReady(pcb, 0);
        break;
      }
      Msg msg;
      msg.header.kind = MsgKind::kServerSync;
      msg.header.src_pid = pcb.pid;
      msg.header.dst_pid = pcb.pid;  // same logical process, backup instance
      msg.header.dst_primary_cluster = pcb.backup_cluster;
      msg.body = req.data;
      env_.metrics().server_syncs++;
      env_.metrics().server_sync_bytes += req.data.size();
      if (tracer_ != nullptr) {
        tracer_->Record(TraceEventKind::kServerSyncSend, id_, pcb.pid.value, 0, 0,
                        req.data.size());
      }
      EnqueueOutgoing(std::move(msg), MaskOf(pcb.backup_cluster));
      CompleteAndReady(pcb, 0);
      break;
    }
    case NativeSys::kTtyEmit:
      env_.TtyEmit(pcb.pid, req.data);
      CompleteAndReady(pcb, 0);
      break;
    case NativeSys::kSimTime:
      CompleteAndReady(pcb, static_cast<int64_t>(env_.engine().Now()));
      break;
    case NativeSys::kWriteChan: {
      ChannelId ch{req.b};
      RoutingEntry* entry = routing_.Find(ch, pcb.pid, /*backup=*/false);
      if (entry == nullptr) {
        CompleteAndReady(pcb, NegErr(Errc::kNoEntry));
        break;
      }
      MsgKind kind = MsgKind::kUser;
      if (req.a == 1) {
        kind = MsgKind::kOpenReply;
      } else if (req.a == 2) {
        kind = MsgKind::kSignal;
      } else if (req.a == 3) {
        kind = MsgKind::kPageReply;
      }
      Bytes payload = req.data;
      if (kind == MsgKind::kOpenReply) {
        // A server that took over a parked peripheral learned its own backup
        // location at boot, when it had none; replies naming the server as
        // peer must carry the kernel's current view or the opener's entries
        // are born pointing at no backup and close instead of failing over.
        OpenReplyBody reply = Decode<OpenReplyBody>(payload);
        if (reply.status == 0 && reply.peer_pid == pcb.pid) {
          reply.peer_primary_cluster = id_;
          reply.peer_backup_cluster = pcb.backup_cluster;
          payload = Encode(reply);
        }
      }
      // req.c != 0: device-input-driven send; see SendOnChannel on counting.
      SendOnChannel(pcb, *entry, kind, payload, /*counted=*/req.c == 0);
      CompleteAndReady(pcb, static_cast<int64_t>(req.data.size()));
      break;
    }
    case NativeSys::kSetTimer: {
      Gpid pid = pcb.pid;
      uint64_t cookie = req.b;
      env_.engine().Schedule(req.a, [this, pid, cookie] {
        if (!alive_) {
          return;
        }
        InjectLocalMessage(pid, kBindSelfChannel, Encode(ReqTag::kTimerFire, cookie));
      });
      CompleteAndReady(pcb, 0);
      break;
    }
    case NativeSys::kFindChan: {
      uint64_t found = 0;
      for (RoutingEntry* e : routing_.EntriesOf(pcb.pid, /*backup=*/false)) {
        if (e->binding_tag == static_cast<uint32_t>(req.a) &&
            (req.b == 0 || e->peer_pid.value == req.b)) {
          found = e->channel.value;
          break;
        }
      }
      CompleteAndReady(pcb, static_cast<int64_t>(found));
      break;
    }
    case NativeSys::kWhoAmI:
      CompleteAndReady(pcb, 0, Encode(WhoAmIReply{pcb.pid, id_, pcb.backup_cluster}));
      break;
    case NativeSys::kAcceptChan: {
      // A server materializes its own end of a channel it just handed out
      // (file opens, tty sessions), plus the backup entry at its backup
      // cluster. Replayed accepts after server rollforward are idempotent.
      ChanCreate c = Decode<ChanCreate>(req.data);
      RoutingEntry* existing = routing_.Find(c.channel, pcb.pid, /*backup=*/false);
      RoutingEntry& e = existing != nullptr
                            ? *existing
                            : routing_.Create(c.channel, pcb.pid, /*backup=*/false);
      e.peer_pid = c.peer_pid;
      e.peer_primary_cluster = c.peer_primary_cluster;
      e.peer_backup_cluster = c.peer_backup_cluster;
      e.peer_kind = c.peer_kind;
      e.peer_mode = c.peer_mode;
      e.binding_tag = c.binding_tag;
      e.own_backup_cluster = pcb.backup_cluster;
      if (pcb.backup_cluster != kNoCluster) {
        ChanCreate backup = c;
        backup.owner = pcb.pid;
        backup.backup_entry = true;
        backup.own_backup_cluster = pcb.backup_cluster;
        Msg msg;
        msg.header.kind = MsgKind::kChanCreate;
        msg.header.src_pid = kernel_pid_;
        msg.header.dst_pid = pcb.pid;
        msg.body = Encode(backup);
        EnqueueOutgoing(std::move(msg), MaskOf(pcb.backup_cluster));
      }
      CompleteAndReady(pcb, 0);
      break;
    }
    default:
      CompleteAndReady(pcb, NegErr(Errc::kNotSupported));
      break;
  }
}

}  // namespace auragen
