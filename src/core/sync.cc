// Synchronization of a primary with its backup (§5.2, §7.8), demand paging
// against the page server (§7.6, §7.10.2), and the §2 explicit-checkpointing
// baseline.

#include "src/core/kernel.h"

#include <algorithm>

#include "src/base/log.h"
#include "src/kernel/avm_body.h"
#include "src/servers/protocol.h"

namespace auragen {

RoutingEntry* Kernel::KernelPageEntry(uint32_t shard) {
  for (RoutingEntry* e : routing_.EntriesOf(kernel_pid_, /*backup=*/false)) {
    if (e->binding_tag == kBindPageChannel + shard) {
      return e;
    }
  }
  return nullptr;
}

uint32_t Kernel::PageShardOf(Gpid pid) const {
  uint32_t shards = env_.config().page_shards;
  if (shards <= 1) {
    return 0;
  }
  // Keyed by origin cluster, which is burned into the pid: the shard
  // holding a process's account stays the same across takeovers, so a
  // recovering backup demand-faults against the right instance (§7.10.2).
  return pid.origin_cluster() % shards;
}

RoutingEntry* Kernel::KernelPageEntryFor(Gpid pid) {
  return KernelPageEntry(PageShardOf(pid));
}

void Kernel::SendKernelChannel(RoutingEntry& entry, MsgKind kind, Bytes body) {
  Msg msg;
  msg.header.kind = kind;
  msg.header.src_pid = kernel_pid_;
  msg.header.dst_pid = entry.peer_pid;
  msg.header.channel = entry.channel;
  msg.header.dst_primary_cluster = entry.peer_primary_cluster;
  msg.header.dst_backup_cluster = entry.peer_backup_cluster;
  msg.header.src_backup_cluster = kNoCluster;
  msg.body = std::move(body);
  EnqueueOutgoing(std::move(msg), TargetsOf(entry));
}

void Kernel::ShipPage(RoutingEntry& page_entry, Gpid pid, PageNum page, const Bytes& content) {
  Metrics& m = env_.metrics();
  m.sync_pages_shipped++;
  m.sync_bytes_shipped += content.size();
  if (tracer_ != nullptr) {
    tracer_->Record(TraceEventKind::kPageShip, id_, pid.value, 0, page, content.size());
  }
  SendKernelChannel(page_entry, MsgKind::kPageWrite, Encode(PageWriteBody{pid, page, content}));
}

void Kernel::RequestPage(Pcb& pcb, RoutingEntry& page_entry) {
  pcb.page_cookie = next_cookie_++;
  page_waiters_[pcb.page_cookie] = pcb.pid;
  SendKernelChannel(page_entry, MsgKind::kPageRequest,
                    Encode(PageRequestBody{pcb.pid, pcb.blocked_page, id_, pcb.page_cookie}));
}

bool Kernel::CanSyncNow(const Pcb& pcb) const {
  if (pcb.backup_cluster == kNoCluster || pcb.peripheral ||
      pcb.state == ProcState::kExited) {
    return false;
  }
  if (pcb.flush_in_flight) {
    // The previous flush is still draining; syncing again would interleave
    // two increments' pages ahead of the first record. Deferred until the
    // drain acknowledges (CompleteFlushJob re-checks the triggers).
    return false;
  }
  if (!pcb.body->SyncReady()) {
    return false;
  }
  switch (pcb.state) {
    case ProcState::kReady:
    case ProcState::kBlockedWhich:
      return true;
    case ProcState::kBlockedRead:
      // A read we can rewind and re-issue; waits for replies to requests we
      // already sent (open/writev/gettime) are postponed instead — capturing
      // there would make the restored backup resend the request (§5.4 note).
      // Exception: a re-backup capture cannot wait, because the reply may be
      // held by the §7.10.1 freeze that only the re-backup's own broadcast
      // lifts. It proceeds, and CreateReplacementBackup charges the resend
      // to the shipped suppression budget.
      return !pcb.blocked_side_effects || pcb.rebuild_capture;
    default:
      return false;
  }
}

void Kernel::MaybeTriggerSync(Pcb& pcb) {
  if (pcb.dispatched) {
    // Reentrant call: CompleteAndReady -> MakeReady -> TryDispatch already
    // advanced this body to its next syscall. Its own FinishRun will check
    // the triggers at the proper quiescent point.
    return;
  }
  if (pcb.needs_rebackup) {
    // Backup cluster lost mid-slice or mid-reply: crash handling deferred
    // the re-backup to this quiescent point.
    RebuildLostBackup(pcb);
  }
  const SystemConfig& cfg = env_.config();
  bool due = pcb.reads_since_sync >= SyncReadsLimit(pcb) ||
             pcb.exec_us_since_sync >= SyncTimeLimit(pcb);
  if (!due) {
    return;
  }
  switch (cfg.strategy) {
    case FtStrategy::kMessageSystem:
      if (pcb.flush_in_flight) {
        env_.metrics().syncs_deferred_drain++;
        break;
      }
      if (CanSyncNow(pcb)) {
        ForceSync(pcb, /*signal_forced=*/false);
      }
      break;
    case FtStrategy::kCheckpointFull:
    case FtStrategy::kCheckpointIncremental:
      if (pcb.backup_cluster != kNoCluster && pcb.body->SyncReady() && !pcb.peripheral) {
        ForceCheckpoint(pcb);
      }
      break;
    default:
      break;
  }
}

uint32_t Kernel::SyncReadsLimit(const Pcb& pcb) const {
  return pcb.sync_reads_limit != 0 ? pcb.sync_reads_limit
                                   : env_.config().sync_reads_limit;
}

SimTime Kernel::SyncTimeLimit(const Pcb& pcb) const {
  if (env_.config().sync_policy.adaptive && pcb.adaptive_time_limit_us != 0) {
    return pcb.adaptive_time_limit_us;
  }
  return pcb.sync_time_limit_us != 0 ? pcb.sync_time_limit_us
                                     : env_.config().sync_time_limit_us;
}

void Kernel::RetuneSyncTrigger(Pcb& pcb, size_t flushed_pages) {
  const SyncPolicy& policy = env_.config().sync_policy;
  if (!policy.adaptive) {
    return;
  }
  SimTime cur = SyncTimeLimit(pcb);
  SimTime next = cur;
  if (flushed_pages >= policy.adaptive_dirty_high) {
    next = std::max<SimTime>(policy.adaptive_min_time_us, cur / 2);
  } else if (flushed_pages <= policy.adaptive_dirty_low) {
    next = std::min<SimTime>(policy.adaptive_max_time_us, cur * 2);
  }
  if (next == cur) {
    return;
  }
  Metrics& m = env_.metrics();
  if (next < cur) {
    m.sync_adaptive_tighten++;
  } else {
    m.sync_adaptive_loosen++;
  }
  pcb.adaptive_time_limit_us = next;
  if (tracer_ != nullptr) {
    tracer_->Record(TraceEventKind::kSyncAdaptive, id_, pcb.pid.value, 0, next,
                    flushed_pages);
  }
}

void Kernel::ForceSync(Pcb& pcb, bool signal_forced, bool force_synchronous) {
  if (!CanSyncNow(pcb)) {
    return;
  }
  const SystemConfig& cfg = env_.config();
  const SyncPolicy& policy = cfg.sync_policy;
  Metrics& m = env_.metrics();

  // §7.7: a parent's sync forces children that do not yet have backups to
  // sync first, so their page accounts exist before the parent's state
  // (which already references the fork) becomes the recovery point. The
  // drain queue is FIFO, so asynchronous child flushes still complete —
  // pages and records — before the parent's.
  for (auto& [cpid, child] : procs_) {
    if (child->parent == pcb.pid && !child->backup_exists && !child->dispatched &&
        child->backup_cluster != kNoCluster && child.get() != &pcb) {
      if (CanSyncNow(*child)) {
        ForceSync(*child, false, force_synchronous);
      }
    }
  }

  // Part 1 (§7.8): capture the pages to ship — a copy-on-write snapshot of
  // everything dirtied since the last flush (or every resident page under
  // stop-and-copy). The capture advances the dirty generation, so writes
  // from here on belong to the next increment even while these snapshots
  // are still draining.
  RoutingEntry* page_entry = KernelPageEntryFor(pcb.pid);
  bool full = policy.mode == SyncMode::kStopAndCopy;
  std::vector<std::pair<PageNum, Bytes>> pages = pcb.body->CaptureFlushPages(full);
  const size_t flushed_page_count = pages.size();
  AURAGEN_CHECK(pages.empty() || cfg.strategy != FtStrategy::kMessageSystem ||
                page_entry != nullptr)
      << "dirty pages with no page server attached";
  RetuneSyncTrigger(pcb, flushed_page_count);
  bool async = policy.mode == SyncMode::kIncrementalAsync && !force_synchronous &&
               page_entry != nullptr;

  SimTime enqueue_stall = 0;
  if (!async && page_entry != nullptr) {
    // Synchronous flush: the primary stalls for every page enqueue (§8.3).
    for (const auto& [page, content] : pages) {
      ShipPage(*page_entry, pcb.pid, page, content);
      enqueue_stall += kSyncPageEnqueueUs;
    }
  }

  // Part 2: the sync message proper — small, cluster-independent state plus
  // per-channel deltas — sent atomically to the backup cluster, the page
  // server shard, and the shard's backup (§7.8: "either all or none of the
  // destinations get the sync message", which is why the page account can
  // never run ahead of the backup PCB). Under an asynchronous drain the
  // record is *built* now, at the capture point, but enqueued only after
  // the last page of this flush — the same invariant, shifted to drain end.
  SyncRecord record;
  record.pid = pcb.pid;
  record.sync_seq = ++pcb.sync_seq;
  record.first_sync = !pcb.ever_synced;
  record.backup_cluster = pcb.backup_cluster;
  record.primary_cluster = id_;
  record.mode = static_cast<uint8_t>(pcb.mode);
  record.parent = pcb.parent;
  record.family_head = pcb.family_head;
  record.sig_handler = pcb.sig_handler;
  record.exec_us = pcb.exec_us_total;
  record.context = CaptureKernelContext(pcb);

  std::vector<ChannelId> closed;
  for (RoutingEntry* e : routing_.EntriesOf(pcb.pid, /*backup=*/false)) {
    bool changed = e->opened_since_sync || e->closed_local || e->reads_since_sync > 0 ||
                   e->written_since_sync;
    if (!changed) {
      continue;
    }
    SyncChannelRecord rec;
    rec.channel = e->channel;
    rec.fd = e->fd;
    rec.opened_since_sync = e->opened_since_sync;
    rec.closed_since_sync = e->closed_local;
    rec.reads_since_sync = e->reads_since_sync;
    record.channels.push_back(rec);
    e->opened_since_sync = false;
    e->reads_since_sync = 0;
    e->written_since_sync = false;
    if (e->closed_local) {
      closed.push_back(e->channel);
    }
  }
  for (ChannelId ch : closed) {
    routing_.Remove(ch, pcb.pid, /*backup=*/false);
  }

  if (async) {
    // §8.3 overlap: park the snapshots and the finished record on the drain
    // queue; the executive ships them while the primary keeps running.
    FlushJob job;
    job.pid = pcb.pid;
    job.started_at = env_.engine().Now();
    job.pages = std::move(pages);
    job.record = std::move(record);
    flush_queue_.push_back(std::move(job));
    pcb.flush_in_flight = true;
    pcb.flush_window_writes.clear();
    m.sync_flushes_async++;
  } else {
    SendSyncRecord(record, page_entry);
  }

  pcb.reads_since_sync = 0;
  pcb.exec_us_since_sync = 0;
  pcb.ever_synced = true;
  pcb.backup_exists = true;

  SimTime stall = kSyncBuildUs + enqueue_stall;
  m.syncs++;
  m.sync_primary_stall_us += stall;
  m.sync_build_stall_us += kSyncBuildUs;
  m.sync_enqueue_stall_us += enqueue_stall;
  if (tracer_ != nullptr) {
    tracer_->Record(TraceEventKind::kSyncFlushBegin, id_, pcb.pid.value, 0,
                    flushed_page_count, enqueue_stall);
    tracer_->Record(TraceEventKind::kSyncTrigger, id_, pcb.pid.value, 0,
                    pcb.sync_seq, stall);
    if (!async) {
      // Synchronous flush: acknowledged the instant the record is queued.
      tracer_->Record(TraceEventKind::kSyncFlushAck, id_, pcb.pid.value, 0,
                      pcb.sync_seq, 0);
    }
  }
  if (signal_forced) {
    m.forced_signal_syncs++;
  }
  // The stall is work-processor time the primary loses (§8.3).
  m.work_busy_us += stall;
  pcb.exec_us_total += stall;
  pcb.stall_until = env_.engine().Now() + stall;
  if (async) {
    StartFlushDrain();
  }
}

void Kernel::SendSyncRecord(const SyncRecord& record, RoutingEntry* page_entry) {
  Msg msg;
  msg.header.kind = MsgKind::kSync;
  msg.header.src_pid = record.pid;
  ClusterMask targets = MaskOf(record.backup_cluster);
  if (page_entry != nullptr) {
    msg.header.dst_pid = page_entry->peer_pid;
    msg.header.channel = page_entry->channel;
    msg.header.dst_primary_cluster = page_entry->peer_primary_cluster;
    msg.header.dst_backup_cluster = page_entry->peer_backup_cluster;
    targets |= TargetsOf(*page_entry);
  }
  msg.header.src_backup_cluster = kNoCluster;
  msg.body = Encode(record);
  EnqueueOutgoing(std::move(msg), targets);
}

// ------------------------------------------------------ async flush drain

void Kernel::StartFlushDrain() {
  if (flush_draining_ || flush_queue_.empty()) {
    return;
  }
  flush_draining_ = true;
  ScheduleFlushStep();
}

void Kernel::ScheduleFlushStep() {
  const SystemConfig& cfg = env_.config();
  FlushJob& job = flush_queue_.front();
  uint32_t remaining = static_cast<uint32_t>(job.pages.size() - job.next_page);
  uint32_t batch = std::min(cfg.sync_policy.drain_batch_pages, remaining);
  // A record-only step (no pages left) still costs one enqueue slot.
  SimTime cost = std::max<uint32_t>(batch, 1) * kSyncPageEnqueueUs;
  uint64_t epoch = flush_epoch_;
  ExecEnqueue(cost, [this, epoch, batch, cost] { FlushStep(epoch, batch, cost); });
}

void Kernel::FlushStep(uint64_t epoch, uint32_t batch, SimTime cost) {
  if (!alive_ || epoch != flush_epoch_ || flush_queue_.empty()) {
    return;
  }
  env_.metrics().sync_drain_async_us += cost;
  FlushJob& job = flush_queue_.front();
  RoutingEntry* page_entry = KernelPageEntryFor(job.pid);
  for (uint32_t i = 0; i < batch && !job.cancelled; ++i) {
    AURAGEN_CHECK(job.next_page < job.pages.size()) << "flush step overran job";
    const auto& [page, content] = job.pages[job.next_page++];
    if (page_entry != nullptr) {  // else unreachable mid-drain; rebuild re-ships
      ShipPage(*page_entry, job.pid, page, content);
    }
  }
  if (job.cancelled || job.next_page >= job.pages.size()) {
    CompleteFlushJob(job);
    flush_queue_.pop_front();
    if (flush_queue_.empty()) {
      flush_draining_ = false;
      return;
    }
  }
  ScheduleFlushStep();
}

void Kernel::CompleteFlushJob(FlushJob& job) {
  Pcb* pcb = FindProcess(job.pid);
  // The record is only valid against the backup it was built for. If the
  // backup cluster died (or the process did) while the flush drained, the
  // rebuild path re-syncs synchronously from current state; a stale record
  // must not materialize a ghost backup on a restarted cluster.
  bool record_valid = !job.cancelled && pcb != nullptr &&
                      pcb->backup_cluster == job.record.backup_cluster &&
                      !pcb->needs_rebackup;
  if (record_valid) {
    // §5.4: sends made while the flush drained reach the backup before this
    // record. Carry their counts so the backup keeps exactly that much
    // duplicate-suppression budget instead of zeroing it.
    for (const auto& [channel, writes] : pcb->flush_window_writes) {
      job.record.writes_in_flight.emplace_back(channel, writes);
    }
    SendSyncRecord(job.record, KernelPageEntryFor(job.pid));
  }
  SimTime overlap = env_.engine().Now() - job.started_at;
  env_.metrics().sync_flush_overlap_us += overlap;
  if (tracer_ != nullptr) {
    tracer_->Record(TraceEventKind::kSyncFlushAck, id_, job.pid.value, 0,
                    job.record.sync_seq, overlap);
  }
  if (pcb != nullptr) {
    pcb->flush_in_flight = false;
    pcb->flush_window_writes.clear();
    // Triggers deferred during the drain (including a pending re-backup)
    // fire now, at the first quiescent point.
    if (!pcb->dispatched) {
      MaybeTriggerSync(*pcb);
    }
  }
}

void Kernel::CancelFlushJobs(Gpid pid) {
  for (FlushJob& job : flush_queue_) {
    if (job.pid == pid) {
      job.cancelled = true;
    }
  }
}

void Kernel::ResetFlushPipeline() {
  flush_queue_.clear();
  flush_draining_ = false;
  flush_epoch_++;
}

Bytes Kernel::CaptureKernelContext(Pcb& pcb) {
  KernelContext kctx;
  kctx.body_context = pcb.body->CaptureContext();
  kctx.next_fd = pcb.next_fd;
  kctx.next_group = pcb.next_group;
  for (const auto& [gid, fds] : pcb.groups) {
    kctx.groups.emplace_back(gid, fds);
  }
  kctx.fork_seq = pcb.fork_seq;
  kctx.in_signal = pcb.in_signal;
  return Encode(kctx);
}

void Kernel::DropClosedBackupChannel(BackupPcb& b, ChannelId channel, Gpid pid, Fd fd) {
  if (routing_.Find(channel, pid, /*backup=*/true) != nullptr) {
    routing_.Remove(channel, pid, /*backup=*/true);
  }
  // fd == kBadFd marks a channel that never had (or already lost) a
  // descriptor binding; erasing it would be a no-op today but is kept
  // guarded so the two closed-channel paths (sync and checkpoint) cannot
  // diverge again.
  if (fd != kBadFd) {
    b.fds.erase(fd);
  }
}

void Kernel::ApplySyncAtBackup(const SyncRecord& record) {
  auto [it, created] = backups_.try_emplace(record.pid);
  BackupPcb& b = it->second;
  if (!created && b.has_sync && record.sync_seq <= b.sync_seq) {
    // Stale or duplicate record (sync_seq is monotone along every valid
    // application order); applying it would re-trim saved queues.
    ALOG_WARN() << "c" << id_ << ": stale sync record seq " << record.sync_seq
                << " for " << GpidStr(record.pid) << " (have " << b.sync_seq << ")";
    return;
  }
  if (created) {
    b.pid = record.pid;
    b.mode = static_cast<BackupMode>(record.mode);
    b.parent = record.parent;
    b.family_head = record.family_head;
    env_.metrics().backups_created++;
  }
  b.primary_cluster = record.primary_cluster;
  b.has_sync = true;
  b.sync_seq = record.sync_seq;
  b.context = record.context;
  b.sig_handler = record.sig_handler;
  if (tracer_ != nullptr) {
    tracer_->Record(TraceEventKind::kSyncApply, id_, record.pid.value, 0,
                    record.sync_seq, created ? 1 : 0);
  }

  for (const SyncChannelRecord& rec : record.channels) {
    if (rec.closed_since_sync) {
      DropClosedBackupChannel(b, rec.channel, record.pid, rec.fd);
      continue;
    }
    RoutingEntry* entry = routing_.Find(rec.channel, record.pid, /*backup=*/true);
    if (entry == nullptr) {
      // The entry should have been created by a ChanCreate / open reply /
      // birth notice that, per bus FIFO, precedes this sync. Seeing none is
      // a bug in entry fabrication, not a race.
      ALOG_WARN() << "c" << id_ << ": sync for unknown backup entry ch "
                  << rec.channel.value << " " << GpidStr(record.pid);
      continue;
    }
    entry->fd = rec.fd;
    if (rec.fd != kBadFd) {
      b.fds[rec.fd] = rec.channel;
    }
    if (entry->binding_tag == kBindSignalChannel) {
      b.signal_channel = rec.channel;
    }
    // §5.2: reads done by the primary let the backup discard that many
    // saved messages; §7.8 step 4 zeroes the write count.
    AURAGEN_CHECK(entry->queue.size() >= rec.reads_since_sync)
        << "backup queue shorter than primary reads: ch" << rec.channel.value << "have"
        << entry->queue.size() << "need" << rec.reads_since_sync;
    for (uint32_t i = 0; i < rec.reads_since_sync; ++i) {
      entry->queue.pop_front();
      env_.metrics().backup_msgs_trimmed++;
    }
    if (tracer_ != nullptr && rec.reads_since_sync > 0) {
      tracer_->Record(TraceEventKind::kSyncTrim, id_, record.pid.value,
                      rec.channel.value, rec.reads_since_sync, 0);
    }
    entry->writes_since_sync = 0;
  }

  // Async flush: counted sends made between record build and record
  // transmission arrived here ahead of the record (bus FIFO). Restore their
  // exact §5.4 suppression budget — zero would double-deliver them after a
  // rollforward; more would suppress genuinely new sends.
  for (const auto& [channel, writes] : record.writes_in_flight) {
    RoutingEntry* entry =
        routing_.Find(ChannelId{channel}, record.pid, /*backup=*/true);
    if (entry != nullptr) {
      entry->writes_since_sync = writes;
    }
  }
}

// --------------------------------------------------------------- paging

void Kernel::HandlePageFault(Pcb& pcb, PageNum page) {
  if (!pcb.body->NeedsServerPaging()) {
    // Normal-execution fault: fresh zero-fill stack/heap growth (§7.6's
    // demand paging; eviction pressure is not modeled, so nothing else can
    // be non-resident before recovery).
    pcb.body->InstallPage(page, /*known=*/false, {});
    env_.metrics().page_fault_zero_fills++;
    MakeReady(pcb);
    return;
  }
  RoutingEntry* page_entry = KernelPageEntryFor(pcb.pid);
  AURAGEN_CHECK(page_entry != nullptr) << "recovery paging with no page server";
  pcb.state = ProcState::kBlockedPage;
  pcb.blocked_page = page;
  if (tracer_ != nullptr) {
    // b: the cookie RequestPage assigns.
    tracer_->Record(TraceEventKind::kPageFault, id_, pcb.pid.value, 0, page, next_cookie_);
  }
  RequestPage(pcb, *page_entry);
}

void Kernel::HandlePageReply(const PageReplyBody& reply) {
  auto it = page_waiters_.find(reply.cookie);
  if (it == page_waiters_.end()) {
    return;  // stale duplicate (server takeover re-service); idempotent drop
  }
  Gpid pid = it->second;
  page_waiters_.erase(it);
  Pcb* pcb = FindProcess(pid);
  if (pcb == nullptr || pcb->state != ProcState::kBlockedPage ||
      pcb->page_cookie != reply.cookie) {
    return;
  }
  pcb->body->InstallPage(reply.page, reply.known, reply.content);
  env_.metrics().page_faults_served++;
  if (tracer_ != nullptr) {
    tracer_->Record(TraceEventKind::kPageReply, id_, pid.value, 0, reply.page,
                    reply.known ? 1 : 0);
  }
  if (!reply.known) {
    env_.metrics().page_fault_zero_fills++;
  }
  MakeReady(*pcb);
}

void Kernel::ReissuePageRequests() {
  // After crash handling the page server may have moved; re-ask for every
  // outstanding fault (§7.10.2: "page servers must be available to supply
  // pages demanded by user processes' backups").
  for (auto& [pid, pcb] : procs_) {
    if (pcb->state != ProcState::kBlockedPage) {
      continue;
    }
    page_waiters_.erase(pcb->page_cookie);
    if (RoutingEntry* page_entry = KernelPageEntryFor(pid); page_entry != nullptr) {
      RequestPage(*pcb, *page_entry);
    }
  }
}

// --------------------------------------------- §2 checkpointing baseline

void Kernel::ForceCheckpoint(Pcb& pcb) {
  const bool full = env_.config().strategy == FtStrategy::kCheckpointFull;
  Metrics& m = env_.metrics();

  CheckpointBody body;
  body.pid = pcb.pid;
  body.full = full;
  body.context = CaptureKernelContext(pcb);

  // Channel records (fd bindings + queue-trim counts), as in sync.
  for (RoutingEntry* e : routing_.EntriesOf(pcb.pid, /*backup=*/false)) {
    body.channels.push_back({e->channel, e->fd, e->closed_local, e->reads_since_sync});
    e->opened_since_sync = false;
    e->reads_since_sync = 0;
    e->written_since_sync = false;
  }

  // Full: every resident page; incremental: pages dirtied since last
  // checkpoint. Either way the copy is made synchronously — the primary is
  // stalled for the entire serialization, which is exactly the §2 cost the
  // message system avoids.
  std::vector<PageNum> pages;
  if (full) {
    for (PageNum p = 0; p < kAvmNumPages; ++p) {
      auto* avm = dynamic_cast<AvmBody*>(pcb.body.get());
      if (avm != nullptr && avm->memory().Resident(p)) {
        pages.push_back(p);
      }
    }
    if (pages.empty()) {
      pages = pcb.body->DirtyPages();
    }
  } else {
    pages = pcb.body->DirtyPages();
  }
  for (PageNum p : pages) {
    body.pages.emplace_back(p, pcb.body->PageContent(p));
  }
  pcb.body->ClearDirty();

  Msg msg;
  msg.header.kind = MsgKind::kCheckpoint;
  msg.header.src_pid = pcb.pid;
  msg.header.dst_primary_cluster = pcb.backup_cluster;
  msg.body = Encode(body);

  SimTime stall = kSyncBuildUs + kSyncPageEnqueueUs * pages.size() +
                  static_cast<SimTime>(static_cast<double>(msg.body.size()) *
                                       env_.config().topology.bus_of(id_).us_per_byte);
  m.checkpoints++;
  m.checkpoint_bytes += msg.body.size();
  m.checkpoint_stall_us += stall;
  m.work_busy_us += stall;
  pcb.exec_us_total += stall;
  pcb.stall_until = env_.engine().Now() + stall;
  pcb.exec_us_since_sync = 0;
  pcb.reads_since_sync = 0;

  EnqueueOutgoing(std::move(msg), MaskOf(pcb.backup_cluster));
}

void Kernel::ApplyCheckpointAtBackup(const MsgView& msg) {
  CheckpointBody body = Decode<CheckpointBody>(msg.body());
  const Gpid pid = body.pid;
  auto [it, created] = backups_.try_emplace(pid);
  BackupPcb& b = it->second;
  if (created) {
    b.pid = pid;
    env_.metrics().backups_created++;
  }
  b.primary_cluster = msg.header.src_pid.origin_cluster();
  b.has_sync = true;
  b.context = std::move(body.context);

  for (const CheckpointChannelRecord& rec : body.channels) {
    if (rec.closed_since_checkpoint) {
      DropClosedBackupChannel(b, rec.channel, pid, rec.fd);
      continue;
    }
    RoutingEntry* entry = routing_.Find(rec.channel, pid, /*backup=*/true);
    if (entry == nullptr) {
      continue;
    }
    entry->fd = rec.fd;
    if (rec.fd != kBadFd) {
      b.fds[rec.fd] = rec.channel;
    }
    for (uint32_t k = 0; k < rec.reads_since_checkpoint && !entry->queue.empty(); ++k) {
      entry->queue.pop_front();
    }
  }

  if (body.full) {
    b.ckpt_pages.clear();
  }
  for (auto& [page, content] : body.pages) {
    b.ckpt_pages[page] = std::move(content);
  }
}

}  // namespace auragen
