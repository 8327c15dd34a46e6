// Kernel lifecycle and work-processor scheduling. The message-system pieces
// live in delivery.cc / syscalls.cc / sync.cc / lifecycle.cc / crash.cc.

#include "src/core/kernel.h"

#include <utility>

#include "src/base/log.h"
#include "src/kernel/avm_body.h"

namespace auragen {

Kernel::Kernel(MachineEnv& env, ClusterId id)
    : env_(env),
      id_(id),
      num_clusters_(env.config().topology.num_clusters()),
      idle_workers_(kWorkProcessorsPerCluster),
      last_heartbeat_(num_clusters_, 0),
      peer_alive_(num_clusters_, true),
      crash_handled_(num_clusters_, false),
      crash_detect_at_(num_clusters_, 0) {
  kernel_pid_ = Gpid::Make(id_, 1);
}

Kernel::~Kernel() = default;

void Kernel::Start() {
  env_.bus().AttachEndpoint(id_, this);
  // Heartbeat polling (§7.10): periodic liveness broadcast + peer check.
  // Clusters offset their first beat by their id so beats interleave rather
  // than stampede — a real system's clocks would not be aligned either.
  env_.engine().Schedule(kHeartbeatPeriodUs / 4 * (id_ % 4) + 1, [this] { HeartbeatTick(); });
}

void Kernel::HeartbeatTick() {
  if (!alive_) {
    return;
  }
  SimTime now = env_.engine().Now();
  last_heartbeat_[id_] = now;
  ClusterMask others = 0;
  for (ClusterId c = 0; c < num_clusters_; ++c) {
    if (c != id_) {
      others |= MaskOf(c);
    }
  }
  Msg beat;
  beat.header.kind = MsgKind::kHeartbeat;
  beat.header.src_pid = kernel_pid_;
  // Heartbeats bypass the outgoing queue AND win bus arbitration: the
  // low-level bus interface protocol sends them even while crash handling
  // has transmission of regular messages disabled (§7.10.1), and never
  // behind a data backlog — a saturated bus must not read as a dead
  // cluster, or every overload turns into a false takeover.
  env_.bus().Transmit(id_, others, Encode(beat), /*urgent=*/true);
  CheckPeers();
  env_.engine().Schedule(kHeartbeatPeriodUs, [this] { HeartbeatTick(); });
}

void Kernel::CheckPeers() {
  SimTime now = env_.engine().Now();
  if (now < kHeartbeatTimeoutUs) {
    return;  // grace period at boot
  }
  for (ClusterId c = 0; c < num_clusters_; ++c) {
    if (c == id_ || !peer_alive_[c] || crash_handled_[c]) {
      continue;
    }
    if (last_heartbeat_[c] + kHeartbeatTimeoutUs < now) {
      ALOG_INFO() << "c" << id_ << ": detected crash of cluster " << c;
      BroadcastCrashNotice(c);
    }
  }
}

Gpid Kernel::AllocPid() { return Gpid::Make(id_, next_pid_counter_++); }

ChannelId Kernel::AllocChannel() {
  // High 16 bits: allocating cluster + 1 (so the file server's allocator,
  // which uses prefix 0xFFFF, can never collide).
  return ChannelId{((static_cast<uint64_t>(id_) + 1) << 48) | next_channel_counter_++};
}

Gpid Kernel::Spawn(SpawnSpec spec) {
  AURAGEN_CHECK(alive_) << "spawn on crashed cluster";
  auto pcb = std::make_unique<Pcb>();
  Pcb& p = *pcb;
  p.pid = spec.fixed_pid.valid() ? spec.fixed_pid : AllocPid();
  p.mode = spec.mode;
  p.family_head = p.pid;
  p.backup_cluster = spec.backup_cluster;
  p.sync_reads_limit = spec.sync_reads_limit;
  p.sync_time_limit_us = spec.sync_time_limit_us;
  p.peripheral = spec.peripheral;
  p.server_backup = spec.server_backup;
  p.primary_cluster = spec.primary_cluster;

  if (spec.native != nullptr) {
    p.is_server = true;
    p.body = std::make_unique<NativeBody>(std::move(spec.native), spec.native_paged_ft);
  } else {
    p.exe = spec.exe;
    p.body = std::make_unique<AvmBody>(spec.exe);
  }

  if (spec.server_backup) {
    // Active backup of a peripheral server (§7.9): alive, never scheduled
    // until takeover. Its routing entries are the channels' backup entries,
    // created by ChanCreate traffic as the primary's channels come up.
    p.state = ProcState::kParkedBackup;
    p.backup_cluster = kNoCluster;
  } else {
    FabricateSpawnChannels(p, spec);
    if (p.is_server) {
      EnsureSelfEntry(p);
    }
    if (p.backup_cluster != kNoCluster && !p.peripheral &&
        env_.config().strategy == FtStrategy::kMessageSystem) {
      // Heads of families and system servers get their backup PCB at
      // creation (§7.7); forked children defer to first sync; peripheral
      // servers use the active-backup scheme instead (§7.9).
      SendBackupCreate(BackupCreateOf(p), p.backup_cluster, /*ship_kind=*/2);
      p.backup_exists = true;
    }
    p.state = ProcState::kReady;
  }

  Gpid pid = p.pid;
  procs_[pid] = std::move(pcb);
  env_.metrics().processes_spawned++;
  if (tracer_ != nullptr) {
    tracer_->Record(TraceEventKind::kSpawn, id_, pid.value, 0,
                    static_cast<uint64_t>(p.mode), p.is_server ? 1 : 0);
  }
  if (procs_[pid]->state == ProcState::kReady) {
    MakeReady(*procs_[pid]);
  }
  return pid;
}

void Kernel::MakeReady(Pcb& pcb) {
  if (!alive_ || pcb.state == ProcState::kExited) {
    return;
  }
  pcb.state = ProcState::kReady;
  if (!pcb.dispatched) {
    for (Gpid q : ready_) {
      if (q == pcb.pid) {
        TryDispatch();
        return;
      }
    }
    ready_.push_back(pcb.pid);
  }
  TryDispatch();
}

uint64_t Kernel::WorkBudget(const Pcb&) const { return kQuantumWork; }

SimTime Kernel::WorkTime(uint64_t work) const {
  return static_cast<SimTime>(static_cast<double>(work) * kUsPerWorkUnit);
}

void Kernel::TryDispatch() {
  while (idle_workers_ > 0 && !ready_.empty()) {
    Gpid pid = ready_.front();
    ready_.pop_front();
    auto it = procs_.find(pid);
    if (it == procs_.end() || it->second->state != ProcState::kReady) {
      continue;
    }
    Pcb& pcb = *it->second;
    if (pcb.stall_until > env_.engine().Now()) {
      // Still paying for its last sync/checkpoint stall (§8.3): resume when
      // it ends. The worker stays free for other processes meanwhile.
      Gpid stalled = pcb.pid;
      env_.engine().ScheduleAt(pcb.stall_until, [this, stalled] {
        if (!alive_) {
          return;
        }
        if (Pcb* p = FindProcess(stalled); p != nullptr && p->state == ProcState::kReady) {
          MakeReady(*p);
        }
      });
      continue;
    }
    pcb.dispatched = true;
    --idle_workers_;

    // Pending non-ignored signal? Sync, then divert into the handler before
    // the next user instruction (§7.5.2).
    DeliverPendingSignal(pcb);
    if (pcb.state != ProcState::kReady) {
      // Signal machinery blocked the process (cannot happen today, but keep
      // the dispatch loop robust).
      pcb.dispatched = false;
      ++idle_workers_;
      continue;
    }

    if (last_crash_detected_at_ != 0 &&
        last_recovery_first_dispatch_at_ < last_crash_detected_at_) {
      last_recovery_first_dispatch_at_ = env_.engine().Now();
      if (tracer_ != nullptr) {
        tracer_->Record(TraceEventKind::kRecoveryDispatch, id_, pcb.pid.value, 0, 0, 0);
      }
    }

    BodyRun run = pcb.body->Run(WorkBudget(pcb));
    SimTime cost = WorkTime(run.work);
    env_.metrics().work_busy_us += cost;
    pcb.exec_us_total += cost;
    pcb.exec_us_since_sync += cost;
    env_.engine().Schedule(cost, [this, pid, run = std::move(run)]() mutable {
      if (!alive_) {
        return;
      }
      ++idle_workers_;
      auto pit = procs_.find(pid);
      if (pit == procs_.end()) {
        TryDispatch();
        return;
      }
      pit->second->dispatched = false;
      FinishRun(pid, std::move(run));
      TryDispatch();
    });
  }
}

void Kernel::FinishRun(Gpid pid, BodyRun run) {
  auto it = procs_.find(pid);
  if (it == procs_.end()) {
    return;
  }
  Pcb& pcb = *it->second;
  if (pcb.state == ProcState::kExited) {
    return;
  }

  switch (run.kind) {
    case BodyRun::Kind::kBudget:
      MaybeTriggerSync(pcb);
      if (pcb.state == ProcState::kReady) {
        MakeReady(pcb);
      }
      break;
    case BodyRun::Kind::kSyscall: {
      DoSyscall(pcb, run.request);
      // The syscall may have been exit: re-resolve before touching the PCB.
      auto again = procs_.find(pid);
      if (again != procs_.end() && again->second->state != ProcState::kExited) {
        MaybeTriggerSync(*again->second);
      }
      break;
    }
    case BodyRun::Kind::kPageFault:
      HandlePageFault(pcb, run.fault_page);
      break;
    case BodyRun::Kind::kExited:
      DestroyProcess(pcb, run.exit_status);
      break;
    case BodyRun::Kind::kFault:
      ALOG_WARN() << "c" << id_ << " " << GpidStr(pcb.pid)
                  << " program fault: " << run.fault_reason;
      DestroyProcess(pcb, -1);
      break;
  }
}

void Kernel::CrashNow() {
  if (!alive_) {
    return;
  }
  ALOG_INFO() << "c" << id_ << ": CRASH";
  if (tracer_ != nullptr) {
    tracer_->Record(TraceEventKind::kClusterCrash, id_, 0, 0, 0, 0);
  }
  alive_ = false;
  env_.bus().DetachEndpoint(id_);
  // Everything in flight inside this cluster dies with it: queued outgoing
  // messages never reach the bus (the paper's atomicity argument for sync
  // depends on this, §7.8), queued executive work stops, and processes
  // stop running (their scheduled completions check alive_).
  outgoing_.clear();
  exec_queue_.clear();
  ready_.clear();
  ResetFlushPipeline();
}

void Kernel::Restart() {
  AURAGEN_CHECK(!alive_);
  alive_ = true;
  procs_.clear();
  backups_.clear();
  routing_ = RoutingTable();
  ready_.clear();
  outgoing_.clear();
  exec_queue_.clear();
  exec_busy_ = false;
  transmit_enabled_ = true;
  transmit_pumping_ = false;
  pending_crash_handlers_ = 0;
  idle_workers_ = kWorkProcessorsPerCluster;
  next_arrival_seq_ = 1;
  page_waiters_.clear();
  ResetFlushPipeline();
  for (ClusterId c = 0; c < num_clusters_; ++c) {
    last_heartbeat_[c] = env_.engine().Now();
  }
  crash_handled_[id_] = false;
  env_.bus().AttachEndpoint(id_, this);
  if (tracer_ != nullptr) {
    tracer_->Record(TraceEventKind::kClusterRestart, id_, 0, 0, 0, 0);
  }
  env_.engine().Schedule(1, [this] { HeartbeatTick(); });
}

Pcb* Kernel::FindProcess(Gpid pid) {
  auto it = procs_.find(pid);
  return it == procs_.end() ? nullptr : it->second.get();
}

bool Kernel::Quiescent() const {
  return ready_.empty() && outgoing_.empty() && exec_queue_.empty() &&
         flush_queue_.empty();
}

}  // namespace auragen
