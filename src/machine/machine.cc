#include "src/machine/machine.h"

#include <algorithm>
#include <string>
#include <utility>

#include "src/base/log.h"
#include "src/servers/protocol.h"

namespace auragen {

constexpr Gpid Machine::kFsPid;
constexpr Gpid Machine::kPsPid;
constexpr Gpid Machine::kTtyPid;
constexpr Gpid Machine::kPagePid;

namespace {

std::string PlacementError(const char* role, const std::string& what) {
  return std::string(role) + " server: " + what;
}

}  // namespace

std::string ServerPlacement::Validate(const SystemConfig& config) const {
  const Topology& topo = config.topology;
  const uint32_t n = topo.num_clusters();
  const bool ft = config.strategy == FtStrategy::kMessageSystem;
  if (config.page_shards < 1 || config.page_shards > 32) {
    return "page_shards must be in [1, 32], got " + std::to_string(config.page_shards);
  }

  struct Role {
    const char* name;
    const ClusterPair* pair;
  };
  const Role roles[] = {{"file", &file}, {"process", &process}, {"tty", &tty}, {"page", &page}};
  for (const Role& r : roles) {
    if (r.pair->primary >= n) {
      return PlacementError(r.name, "primary cluster " + std::to_string(r.pair->primary) +
                                        " out of range (num_clusters=" + std::to_string(n) +
                                        ")");
    }
    if (!ft) {
      continue;  // backups are never spawned without the message system
    }
    if (r.pair->backup >= n) {
      return PlacementError(r.name, "backup cluster " + std::to_string(r.pair->backup) +
                                        " out of range (num_clusters=" + std::to_string(n) +
                                        ")");
    }
    if (r.pair->backup == r.pair->primary) {
      return PlacementError(r.name, "primary and backup must differ (both " +
                                        std::to_string(r.pair->primary) + ")");
    }
  }

  // Both mirrored disks are built under every strategy, so their ports must
  // be real, distinct clusters under every strategy.
  const std::pair<const char*, const ClusterPair*> disks[] = {{"file disk", &file_disk},
                                                              {"page disk", &page_disk}};
  for (const auto& [name, ports] : disks) {
    if (ports->primary >= n || ports->backup >= n) {
      return "disk port out of range (num_clusters=" + std::to_string(n) + ")";
    }
    if (ports->primary == ports->backup) {
      return std::string(name) + ": both ports reach cluster " + std::to_string(ports->primary) +
             " (a dual-ported disk needs two distinct clusters)";
    }
  }

  // Multi-segment fabric: a primary and its backup must share a segment.
  // Takeover and re-backup traffic may not depend on a switch surviving the
  // fault it is recovering from, and a dual-ported disk cannot span
  // segments at all.
  if (ft && topo.num_segments() > 1) {
    for (const Role& r : roles) {
      if (topo.segment_of(r.pair->primary) != topo.segment_of(r.pair->backup)) {
        return PlacementError(
            r.name, "primary (cluster " + std::to_string(r.pair->primary) +
                        ") and backup (cluster " + std::to_string(r.pair->backup) +
                        ") are in different fabric segments");
      }
    }
    for (const auto& [name, ports] : disks) {
      if (topo.segment_of(ports->primary) != topo.segment_of(ports->backup)) {
        return std::string(name) + ": ports {" + std::to_string(ports->primary) + "," +
               std::to_string(ports->backup) +
               "} span fabric segments (a dual-ported disk is cabled inside one segment)";
      }
    }
  }

  // Page shards rotate within segment (s mod S); a base pair that is
  // congruent modulo some segment's size would fold a shard's primary and
  // backup onto one cluster there. The shards' disks exist under every
  // strategy, their backups only with the message system.
  for (SegmentId s = 0; s < topo.num_segments() && s < config.page_shards; ++s) {
    const uint32_t size = topo.segment_size(s);
    if ((ft && page.primary % size == page.backup % size) ||
        page_disk.primary % size == page_disk.backup % size) {
      return PlacementError(
          "page", "shard rotation folds primary and backup onto one cluster in "
                  "segment " + std::to_string(s) + " (size " + std::to_string(size) +
                  "); pick a page/page_disk pair distinct modulo every segment size");
    }
  }

  if (ft) {
    // §7.9: a peripheral server and its active backup each need a path to the
    // server's disk, i.e. both must sit on one of the disk's two ports.
    auto on_port = [](ClusterId c, const ClusterPair& disk) {
      return c == disk.primary || c == disk.backup;
    };
    auto check_ports = [&](const char* role, const ClusterPair& server,
                           const ClusterPair& disk) -> std::string {
      for (ClusterId c : {server.primary, server.backup}) {
        if (!on_port(c, disk)) {
          return PlacementError(role, "cluster " + std::to_string(c) +
                                          " is not a port of its disk {" +
                                          std::to_string(disk.primary) + "," +
                                          std::to_string(disk.backup) + "} (§7.9)");
        }
      }
      return {};
    };
    if (std::string err = check_ports("file", file, file_disk); !err.empty()) {
      return err;
    }
    if (std::string err = check_ports("page", page, page_disk); !err.empty()) {
      return err;
    }
  }
  return {};
}

std::string MachineOptions::Validate() const {
  if (std::string err = config.sync_policy.Validate(); !err.empty()) {
    return "sync_policy: " + err;
  }
  if (std::string err = config.topology.Validate(); !err.empty()) {
    return "topology: " + err;
  }
  return placement.Validate(config);
}

// ------------------------------------------------------------- ClusterEnv

ClusterEnv::ClusterEnv(Machine& machine, ClusterId cluster)
    : machine_(machine), cluster_(cluster) {}

Engine& ClusterEnv::engine() {
  return machine_.sharded_->shard_core(machine_.plan_.shard_of_cluster(cluster_));
}

Fabric& ClusterEnv::bus() { return *machine_.bus_; }

const SystemConfig& ClusterEnv::config() const { return machine_.options_.config; }

void ClusterEnv::DiskRead(Gpid server, BlockNum block,
                          std::function<void(Result<Bytes>)> done) {
  machine_.DiskOpFrom(
      cluster_, server, {TraceEventKind::kDiskRead, 0, block, 0},
      [block](MirroredDisk& disk, auto reply) { disk.Read(block, std::move(reply)); },
      std::move(done));
}

void ClusterEnv::DiskWrite(Gpid server, BlockNum block, Bytes data,
                           std::function<void(Result<void>)> done) {
  if (server == Machine::kFsPid) {
    metrics_.fileserver_disk_bytes += data.size();
  }
  const Machine::DiskTrace trace{TraceEventKind::kDiskWrite, 0, block, data.size()};
  machine_.DiskOpFrom(cluster_, server, trace,
                      [block, data = std::move(data)](MirroredDisk& disk, auto reply) mutable {
                        disk.Write(block, std::move(data), std::move(reply));
                      },
                      std::move(done));
}

void ClusterEnv::DiskWriteMulti(Gpid server, DiskWriteBatch batch,
                                std::function<void(Result<void>)> done) {
  uint64_t bytes = 0;
  for (const auto& [block, data] : batch) {
    bytes += data.size();
  }
  if (server == Machine::kFsPid) {
    metrics_.fileserver_disk_bytes += bytes;
  }
  // One trace event for the whole transaction; a = first home block,
  // channel = batch size.
  const Machine::DiskTrace trace{TraceEventKind::kDiskWrite, batch.size(),
                                 batch.empty() ? 0 : batch.front().first, bytes};
  machine_.DiskOpFrom(cluster_, server, trace,
                      [batch = std::move(batch)](MirroredDisk& disk, auto reply) mutable {
                        disk.WriteMulti(std::move(batch), std::move(reply));
                      },
                      std::move(done));
}

void ClusterEnv::TtyEmit(Gpid server, const Bytes& data) {
  machine_.TtyEmitFrom(cluster_, server, data);
}

ClusterId ClusterEnv::PlaceNewBackup(ClusterId avoid_a, ClusterId avoid_b) {
  return machine_.PlaceNewBackupFrom(cluster_, avoid_a, avoid_b);
}

std::unique_ptr<NativeProgram> ClusterEnv::MakeServerProgram(Gpid pid) {
  return machine_.MakeServerProgram(pid);
}

void ClusterEnv::OnServerTakeover(Gpid pid, ClusterId new_cluster) {
  machine_.OnServerTakeover(pid, new_cluster);
}

void ClusterEnv::OnProcessExit(Gpid pid, int32_t status) {
  machine_.OnProcessExit(pid, status);
}

void ClusterEnv::OnDebugPutc(Gpid pid, char c) { machine_.OnDebugPutc(pid, c); }

// ---------------------------------------------------------------- Machine

Machine::Machine(MachineOptions options)
    : options_(std::move(options)),
      plan_(MakeShardPlan(options_.config.topology, options_.disk)) {
  const SystemConfig& cfg = options_.config;
  sharded_ = std::make_unique<ShardedEngine>(plan_.EngineOptions());
  if (options_.trace.enabled) {
    tracer_ = std::make_unique<Tracer>(options_.trace);
    tracer_->set_clock([this] { return sharded_->Now(); });
    // Every component records through Tracer::Record as before; the hook
    // reroutes records into the engine's per-shard staging so the digest is
    // folded in deterministic merge order at each window barrier.
    tracer_->set_record_hook([this](TraceEventKind kind, ClusterId cluster, uint64_t gpid,
                                    uint64_t channel, uint64_t a, uint64_t b) {
      sharded_->Trace(kind, cluster, gpid, channel, a, b);
    });
    sharded_->set_tracer(tracer_.get());
    options_.file_server.tracer = tracer_.get();
    options_.page_server.tracer = tracer_.get();
  }
  std::vector<uint32_t> segment_shards(plan_.num_segments);
  for (SegmentId s = 0; s < segment_shards.size(); ++s) {
    segment_shards[s] = plan_.shard_of_segment(s);
  }
  bus_ = std::make_unique<Fabric>(*sharded_, cfg.topology, std::move(segment_shards));
  bus_->set_tracer(tracer_.get());
  const ServerPlacement& place = options_.placement;
  Engine& shared_core = sharded_->shard_core(kSharedShard);
  fs_disk_ = std::make_unique<MirroredDisk>(shared_core, options_.disk,
                                            place.file_disk.primary, place.file_disk.backup);
  const uint32_t shards = std::max<uint32_t>(1, cfg.page_shards);
  for (uint32_t s = 0; s < shards; ++s) {
    const ClusterPair ports = PageShardPlace(place.page_disk, s);
    page_disks_.push_back(
        std::make_unique<MirroredDisk>(shared_core, options_.disk, ports.primary, ports.backup));
  }
  for (ClusterId c = 0; c < plan_.num_clusters; ++c) {
    envs_.push_back(std::make_unique<ClusterEnv>(*this, c));
    kernels_.push_back(std::make_unique<Kernel>(*envs_[c], c));
    kernels_.back()->set_tracer(tracer_.get());
  }
}

Machine::~Machine() = default;

void Machine::Boot() {
  AURAGEN_CHECK(!booted_) << "Boot() called twice";
  if (std::string err = options_.Validate(); !err.empty()) {
    AURAGEN_PANIC("invalid MachineOptions: " + err);
  }
  booted_ = true;
  for (auto& kernel : kernels_) {
    kernel->Start();
  }
  SpawnServers();
  // Let server spawn traffic (channel fabrication, filesystem format)
  // settle before user work arrives.
  Run(20000);
}

ClusterPair Machine::PageShardPlace(const ClusterPair& base, uint32_t s) const {
  const Topology& topo = options_.config.topology;
  const uint32_t num_segments = topo.num_segments();
  const SegmentId seg = s % num_segments;
  const ClusterId first = topo.segment_base(seg);
  const uint32_t size = topo.segment_size(seg);
  const uint32_t turn = s / num_segments;
  return ClusterPair{first + (base.primary + turn) % size,
                     first + (base.backup + turn) % size};
}

void Machine::SpawnServers() {
  const bool ft = options_.config.strategy == FtStrategy::kMessageSystem;
  const ServerPlacement& place = options_.placement;

  fs_addr_ = ServerAddr{kFsPid, place.file.primary, ft ? place.file.backup : kNoCluster};
  ps_addr_ = ServerAddr{kPsPid, place.process.primary, ft ? place.process.backup : kNoCluster};
  tty_addr_ = ServerAddr{kTtyPid, place.tty.primary, ft ? place.tty.backup : kNoCluster};
  for (uint32_t s = 0; s < page_disks_.size(); ++s) {
    // Shard placement rotates with the shard index (and so do the disks,
    // built the same way in the constructor), spreading paging load across
    // segments and clusters while keeping §7.9 satisfied per shard.
    const ClusterPair pair = PageShardPlace(place.page, s);
    page_addrs_.push_back(
        ServerAddr{PageShardPid(s), pair.primary, ft ? pair.backup : kNoCluster});
  }

  server_disks_[kFsPid.value] = fs_disk_.get();
  server_locations_[kFsPid.value] = place.file.primary;
  if (tracer_ != nullptr) {
    fs_disk_->set_tracer(tracer_.get(), kFsPid.value);
    for (uint32_t s = 0; s < page_disks_.size(); ++s) {
      page_disks_[s]->set_tracer(tracer_.get(), PageShardPid(s).value);
    }
  }
  server_locations_[kPsPid.value] = place.process.primary;
  server_locations_[kTtyPid.value] = place.tty.primary;
  for (uint32_t s = 0; s < page_disks_.size(); ++s) {
    server_disks_[PageShardPid(s).value] = page_disks_[s].get();
    server_locations_[PageShardPid(s).value] = page_addrs_[s].primary;
  }

  auto spawn_peripheral = [&](Gpid pid, ClusterId primary, ClusterId backup,
                              auto make_program) {
    SpawnSpec spec;
    spec.native = make_program();
    spec.peripheral = true;
    spec.mode = BackupMode::kHalfback;  // §7.3: peripheral servers
    spec.fixed_pid = pid;
    spec.backup_cluster = ft ? backup : kNoCluster;
    if (pid == kTtyPid) {
      // The tty server routes ^C through the process server (§7.5.2).
      spec.proc_server = ps_addr_;
    }
    kernels_[primary]->Spawn(std::move(spec));
    if (ft && backup != kNoCluster) {
      SpawnSpec bspec;
      bspec.native = make_program();
      bspec.peripheral = true;
      bspec.mode = BackupMode::kHalfback;
      bspec.fixed_pid = pid;
      bspec.server_backup = true;
      bspec.primary_cluster = primary;
      kernels_[backup]->Spawn(std::move(bspec));
    }
  };

  for (uint32_t s = 0; s < page_addrs_.size(); ++s) {
    spawn_peripheral(PageShardPid(s), page_addrs_[s].primary,
                     PageShardPlace(place.page, s).backup,
                     [&] { return std::make_unique<PageServerProgram>(options_.page_server); });
  }
  spawn_peripheral(kFsPid, place.file.primary, place.file.backup, [&] {
    return std::make_unique<FileServerProgram>(options_.file_server);
  });
  spawn_peripheral(kTtyPid, place.tty.primary, place.tty.backup,
                   [&] { return std::make_unique<TtyServerProgram>(options_.tty_server); });

  // The process server is a *system* server (§7.6): standard page-diff sync
  // through the message system, passive backup PCB.
  {
    SpawnSpec spec;
    spec.native = std::make_unique<ProcessServerProgram>();
    spec.native_paged_ft = true;
    spec.mode = BackupMode::kQuarterback;
    spec.fixed_pid = kPsPid;
    spec.backup_cluster = ft ? place.process.backup : kNoCluster;
    // Aggressive sync keeps the PS backup near-current (it is tiny).
    spec.sync_reads_limit = 8;
    kernels_[place.process.primary]->Spawn(std::move(spec));
  }

  // Kernel page channels (§7.6): every kernel talks to every page-server
  // shard; the binding tag encodes the shard index.
  for (auto& kernel : kernels_) {
    for (uint32_t s = 0; s < page_addrs_.size(); ++s) {
      kernel->CreateKernelChannel(page_addrs_[s], kBindPageChannel + s);
    }
  }
}

Gpid Machine::SpawnUserProgram(ClusterId cluster, const Executable& exe,
                               const UserSpawnOptions& opts) {
  AURAGEN_CHECK(booted_) << "SpawnUserProgram before Boot";
  SpawnSpec spec;
  spec.exe = exe;
  spec.mode = opts.mode;
  if (options_.config.strategy == FtStrategy::kNone) {
    spec.backup_cluster = kNoCluster;
  } else if (opts.backup_cluster != kNoCluster) {
    spec.backup_cluster = opts.backup_cluster;
  } else {
    // Default placement: the next *alive* cluster (none alive -> no backup).
    spec.backup_cluster = kNoCluster;
    const uint32_t n = static_cast<uint32_t>(kernels_.size());
    for (uint32_t step = 1; step < n; ++step) {
      ClusterId candidate = (cluster + step) % n;
      if (kernels_[candidate]->alive()) {
        spec.backup_cluster = candidate;
        break;
      }
    }
  }
  spec.sync_reads_limit = opts.sync_reads_limit;
  spec.sync_time_limit_us = opts.sync_time_limit_us;
  spec.file_server = fs_addr_;
  spec.proc_server = ps_addr_;
  if (opts.with_tty) {
    spec.tty_server = tty_addr_;
    spec.tty_line = opts.tty_line;
  }
  Gpid pid = kernels_[cluster]->Spawn(std::move(spec));
  user_pids_.push_back(pid);
  return pid;
}

void Machine::Run(SimTime duration) {
  sharded_->Run(sharded_->Now() + duration);
  // Align idle shard clocks with the global time so direct schedules from
  // the outside (spawns, kernel pokes between runs) base correctly.
  sharded_->SyncShardClocks();
}

bool Machine::RunUntil(const std::function<bool()>& pred, SimTime max_duration) {
  if (pred()) {
    return true;
  }
  sharded_->Run(sharded_->Now() + max_duration, pred);
  sharded_->SyncShardClocks();
  return pred();
}

bool Machine::AllUsersExited() const {
  for (Gpid pid : user_pids_) {
    if (exit_statuses_.count(pid.value) == 0) {
      return false;
    }
  }
  return true;
}

bool Machine::RunUntilAllExited(SimTime max_duration) {
  return RunUntil([this] { return AllUsersExited(); }, max_duration);
}

void Machine::CrashCluster(ClusterId cluster) {
  AURAGEN_CHECK(cluster < kernels_.size());
  kernels_[cluster]->CrashNow();
}

void Machine::CrashClusterAt(SimTime when, ClusterId cluster) {
  sharded_->ScheduleControlAt(when, [this, cluster] { CrashCluster(cluster); });
}

void Machine::FailBusLine(int line) { bus_->FailLine(line); }

void Machine::RestoreBusLine(int line) { bus_->RestoreLine(line); }

void Machine::RestoreCluster(ClusterId cluster) {
  kernels_[cluster]->Restart();
  for (uint32_t s = 0; s < page_addrs_.size(); ++s) {
    kernels_[cluster]->CreateKernelChannel(page_addrs_[s], kBindPageChannel + s);
  }
  // §7.3: halfbacks get new backups when the crashed cluster returns.
  // Every unprotected peripheral server whose disk (if any) reaches the
  // restored cluster re-creates its active backup there. A control event:
  // it reads the server directory and reaches into several kernels.
  sharded_->ScheduleControl(1000, [this, cluster] {
    std::vector<Gpid> peripherals = {kFsPid, kTtyPid};
    for (uint32_t s = 0; s < page_addrs_.size(); ++s) {
      peripherals.push_back(PageShardPid(s));
    }
    for (Gpid pid : peripherals) {
      auto loc = server_locations_.find(pid.value);
      if (loc == server_locations_.end() || !kernels_[loc->second]->alive()) {
        continue;
      }
      Pcb* pcb = kernels_[loc->second]->FindProcess(pid);
      if (pcb == nullptr || pcb->server_backup || pcb->backup_cluster != kNoCluster) {
        continue;
      }
      auto disk = server_disks_.find(pid.value);
      if (disk != server_disks_.end() && !disk->second->AttachedTo(cluster)) {
        continue;  // §7.9: the backup must sit on the other disk port
      }
      kernels_[loc->second]->RecreateServerBackup(pid, cluster);
      auto patch = [&](ServerAddr& addr) {
        if (addr.pid == pid) {
          addr.backup = cluster;
        }
      };
      patch(fs_addr_);
      patch(ps_addr_);
      patch(tty_addr_);
      for (ServerAddr& addr : page_addrs_) {
        patch(addr);
      }
    }
  });
}

void Machine::InjectTtyInput(uint32_t line, const std::string& text, SimTime at) {
  sharded_->ScheduleControlAt(at, [this, line, text] {
    auto it = server_locations_.find(kTtyPid.value);
    if (it == server_locations_.end() || !kernels_[it->second]->alive()) {
      return;  // terminal line dead with its cluster; user must retype
    }
    kernels_[it->second]->InjectLocalMessage(
        kTtyPid, kBindSelfChannel,
        Encode(ReqTag::kDevInput, DevInput{line, Bytes(text.begin(), text.end())}));
  });
}

std::string Machine::TtyOutput(uint32_t line) const {
  auto it = tty_dedup_.find(line);
  if (it == tty_dedup_.end()) {
    return {};
  }
  std::string out;
  for (const auto& [seq, text] : it->second) {
    out += text;
  }
  return out;
}

Metrics Machine::metrics() const {
  Metrics agg;
  for (const auto& env : envs_) {
    agg.Accumulate(env->metrics());
  }
  return agg;
}

SimTime Machine::LocalNow() const {
  ShardId s = sharded_->CurrentShard();
  return s == kNoShard ? sharded_->Now() : sharded_->ShardNow(s);
}

// ------------------------------------------------- ClusterEnv backends

template <typename R, typename Op>
void Machine::DiskOpFrom(ClusterId from, Gpid server, const DiskTrace& trace, Op op,
                         std::function<void(R)> done) {
  const SimTime hop = options_.config.topology.bus_of(from).arbitration_us;
  const ShardId home = plan_.shard_of_cluster(from);
  sharded_->ScheduleOn(
      kSharedShard, hop,
      [this, home, hop, server, trace, op = std::move(op), done = std::move(done)]() mutable {
        auto it = server_disks_.find(server.value);
        AURAGEN_CHECK(it != server_disks_.end()) << "no disk bound to " << GpidStr(server);
        if (tracer_ != nullptr) {
          tracer_->Record(trace.kind, kNoCluster, server.value, trace.channel, trace.a, trace.b);
        }
        op(*it->second, [this, home, hop, done = std::move(done)](R r) mutable {
          sharded_->ScheduleOn(home, hop, [done = std::move(done), r = std::move(r)]() mutable {
            done(std::move(r));
          });
        });
      });
}

void Machine::TtyEmitFrom(ClusterId /*from*/, Gpid server, const Bytes& data) {
  TtyEmitRecord emit = Decode<TtyEmitRecord>(data);
  TtyRecord rec{emit.line, emit.seq, std::string(emit.text.begin(), emit.text.end()), LocalNow()};
  if (tracer_ != nullptr) {
    tracer_->Record(TraceEventKind::kTtyEmit, kNoCluster, server.value, 0, rec.line,
                    rec.seq);
  }
  auto& per_line = tty_dedup_[rec.line];
  if (per_line.count(rec.seq) != 0) {
    ++tty_duplicates_;  // recovery re-emission (§7.9 window); content equal
  } else {
    per_line[rec.seq] = rec.text;
  }
  tty_raw_.push_back(std::move(rec));
}

ClusterId Machine::PlaceNewBackupFrom(ClusterId from, ClusterId avoid_a, ClusterId avoid_b) {
  const Kernel& believer = *kernels_[from];
  for (ClusterId c = 0; c < kernels_.size(); ++c) {
    if (c == avoid_a || c == avoid_b) {
      continue;
    }
    const bool usable = c == from ? believer.alive() : believer.PeerBelievedAlive(c);
    if (usable) {
      return c;
    }
  }
  return kNoCluster;
}

std::unique_ptr<NativeProgram> Machine::MakeServerProgram(Gpid pid) {
  if (pid == kPsPid) {
    return std::make_unique<ProcessServerProgram>();
  }
  for (uint32_t s = 0; s < page_addrs_.size(); ++s) {
    if (pid == PageShardPid(s)) {
      return std::make_unique<PageServerProgram>(options_.page_server);
    }
  }
  if (pid == kFsPid) {
    return std::make_unique<FileServerProgram>(options_.file_server);
  }
  if (pid == kTtyPid) {
    return std::make_unique<TtyServerProgram>(options_.tty_server);
  }
  AURAGEN_PANIC("unknown server pid");
}

void Machine::OnServerTakeover(Gpid pid, ClusterId new_cluster) {
  server_locations_[pid.value] = new_cluster;
  ++server_takeovers_[pid.value];
  auto patch = [&](ServerAddr& addr) {
    if (addr.pid == pid) {
      addr.primary = new_cluster;
      addr.backup = kNoCluster;  // halfback: re-backed when the old cluster returns
    }
  };
  patch(fs_addr_);
  patch(ps_addr_);
  patch(tty_addr_);
  for (ServerAddr& addr : page_addrs_) {
    patch(addr);
  }
}

void Machine::OnProcessExit(Gpid pid, int32_t status) {
  exit_statuses_[pid.value] = status;
}

void Machine::OnDebugPutc(Gpid pid, char c) {
  debug_output_[pid.value].push_back(c);
}

}  // namespace auragen
