// Machine: the whole simulated Auragen 4000 — clusters with kernels, the
// segmented intercluster fabric (per-segment dual buses bridged by switch
// nodes; src/bus/fabric.h), dual-ported mirrored disks, and the operating-
// system server processes (§7.1, §7.6). This is the public entry point of
// the library: construct one, Boot() it, spawn guest programs, drive the
// simulation, crash clusters, and observe transcripts and metrics. The
// machine's shape is MachineOptions::config.topology alone.

#ifndef AURAGEN_SRC_MACHINE_MACHINE_H_
#define AURAGEN_SRC_MACHINE_MACHINE_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/core/env.h"
#include "src/core/kernel.h"
#include "src/disk/disk.h"
#include "src/machine/shard_plan.h"
#include "src/paging/page_server.h"
#include "src/servers/file_server.h"
#include "src/servers/process_server.h"
#include "src/servers/tty_server.h"
#include "src/sim/sharded_engine.h"
#include "src/trace/trace.h"

namespace auragen {

// A primary/backup cluster pair: the placement of one server role, or the
// two ports of a dual-ported disk.
struct ClusterPair {
  ClusterId primary = 0;
  ClusterId backup = 1;
};

// Placement of every operating-system server and disk port. Replaces the
// former eight loose fs_cluster/fs_backup/... fields so a placement can be
// validated as a whole: §7.9 requires peripheral servers (and their active
// backups) to sit on a port of their disk, and a backup must never share a
// cluster with its primary.
struct ServerPlacement {
  ClusterPair file{0, 1};
  ClusterPair process{0, 1};
  ClusterPair tty{0, 1};
  // Page-server shard 0. With SystemConfig::page_shards > 1, shard s is
  // placed by rotating these pairs across the topology: on a single segment
  // shard s lands at ((page.* + s) mod num_clusters); on a multi-segment
  // fabric shard s lands in segment (s mod num_segments), rotated within
  // that segment (Machine::PageShardPlace). The disk ports rotate the same
  // way, which keeps §7.9 holding for every shard whenever it holds for
  // shard 0.
  ClusterPair page{1, 0};
  ClusterPair file_disk{0, 1};  // dual-port attachment of the file-system disk
  ClusterPair page_disk{1, 0};  // dual-port attachment of the paging disk(s)

  // "" when valid; otherwise an actionable diagnostic naming the offending
  // role. Backup and disk-port constraints are enforced only under the
  // message-system strategy — without it, backups are never spawned. On a
  // multi-segment topology a primary and its backup (and a disk's two
  // ports) must additionally share a segment: recovery traffic must not
  // depend on a switch surviving the fault it is recovering from.
  std::string Validate(const SystemConfig& config) const;
};

struct MachineOptions {
  SystemConfig config;
  uint64_t seed = 1;
  DiskConfig disk;

  ServerPlacement placement;

  PageServerOptions page_server;
  FileServerOptions file_server;
  TtyServerOptions tty_server;

  // Event tracing (flight recorder). Disabled by default; when enabled the
  // Machine owns a Tracer and wires it through the engine, bus, kernels, and
  // servers. Write-only observability: enabling it never changes a run.
  TraceOptions trace;

  // "" when valid; Machine::Boot() aborts with this diagnostic otherwise.
  // The topology is checked first, so every shape the Machine constructor
  // would reject is reported here.
  std::string Validate() const;

  // Fluent configuration path. Plain aggregate / field-assignment init keeps
  // working; these just let call sites chain the common knobs:
  //   MachineOptions().WithTopology(Topology::SingleSegment(4))
  //                   .WithSyncMode(SyncMode::kIncrementalAsync)
  MachineOptions& WithSeed(uint64_t s) { seed = s; return *this; }
  MachineOptions& WithTopology(const Topology& t) { config.topology = t; return *this; }
  MachineOptions& WithSyncMode(SyncMode m) { config.sync_policy.mode = m; return *this; }
  MachineOptions& WithAdaptiveSync(bool on = true) {
    config.sync_policy.adaptive = on;
    return *this;
  }
  MachineOptions& WithSyncLimits(uint32_t reads, SimTime time_us) {
    config.sync_reads_limit = reads;
    config.sync_time_limit_us = time_us;
    return *this;
  }
  MachineOptions& WithPageShards(uint32_t n) { config.page_shards = n; return *this; }
  // Deprecated: the machine runs its shards on one thread (DESIGN.md §17).
  // Kept only for callers that still pass 1; any other value is an error.
  MachineOptions& WithEngineThreads(uint32_t n) {
    AURAGEN_CHECK(n == 1) << "in-machine engine threads were removed; got " << n;
    return *this;
  }
  MachineOptions& WithTrace(bool on = true) { trace.enabled = on; return *this; }
};

// One emitted terminal record (kTtyEmit payload plus arrival time).
struct TtyRecord {
  uint32_t line = 0;
  uint64_t seq = 0;
  std::string text;
  SimTime at = 0;
};

class Machine;

// A cluster's private view of the machine (its MachineEnv). Each kernel gets
// its own, carrying the cluster shard's Engine core and a cluster-local
// Metrics object. Machine-level callbacks (exit records, tty transcripts,
// server directory updates) forward to the Machine's cross-cluster maps.
class ClusterEnv : public MachineEnv {
 public:
  ClusterEnv(Machine& machine, ClusterId cluster);

  Engine& engine() override;
  Fabric& bus() override;
  const SystemConfig& config() const override;
  Metrics& metrics() override { return metrics_; }
  void DiskRead(Gpid server, BlockNum block,
                std::function<void(Result<Bytes>)> done) override;
  void DiskWrite(Gpid server, BlockNum block, Bytes data,
                 std::function<void(Result<void>)> done) override;
  void DiskWriteMulti(Gpid server, DiskWriteBatch batch,
                      std::function<void(Result<void>)> done) override;
  void TtyEmit(Gpid server, const Bytes& data) override;
  ClusterId PlaceNewBackup(ClusterId avoid_a, ClusterId avoid_b) override;
  std::unique_ptr<NativeProgram> MakeServerProgram(Gpid pid) override;
  void OnServerTakeover(Gpid pid, ClusterId new_cluster) override;
  void OnProcessExit(Gpid pid, int32_t status) override;
  void OnDebugPutc(Gpid pid, char c) override;

 private:
  Machine& machine_;
  ClusterId cluster_;
  Metrics metrics_;
};

class Machine {
 public:
  explicit Machine(MachineOptions options);
  ~Machine();

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  // Creates the servers and their backups, wires kernel page channels, and
  // lets the machine settle (spawn traffic drains). Call once.
  void Boot();

  struct UserSpawnOptions {
    BackupMode mode = BackupMode::kQuarterback;
    ClusterId backup_cluster = kNoCluster;  // kNoCluster: pick the next cluster
    bool with_tty = false;
    uint32_t tty_line = 0;
    uint32_t sync_reads_limit = 0;  // 0: system default
    SimTime sync_time_limit_us = 0;
  };
  Gpid SpawnUserProgram(ClusterId cluster, const Executable& exe,
                        const UserSpawnOptions& opts);
  Gpid SpawnUserProgram(ClusterId cluster, const Executable& exe) {
    return SpawnUserProgram(cluster, exe, UserSpawnOptions{});
  }

  // --- driving the simulation ---
  // The machine runs on the windowed sharded engine (ShardPlan layout).
  ShardedEngine& sharded_engine() { return *sharded_; }
  const ShardPlan& shard_plan() const { return plan_; }
  SimTime Now() const { return sharded_->Now(); }
  uint64_t dispatched() const { return sharded_->dispatched(); }
  void set_dispatch_limit(uint64_t limit) { sharded_->set_dispatch_limit(limit); }
  bool dispatch_limit_hit() const { return sharded_->dispatch_limit_hit(); }
  void Run(SimTime duration);
  // Runs until `pred` holds or `max_duration` elapses; true if pred held.
  // The predicate is evaluated at window barriers (the deterministic unit of
  // progress), so a run may overshoot by up to the lookahead.
  bool RunUntil(const std::function<bool()>& pred, SimTime max_duration);
  // Runs until every spawned user process has exited (or timeout).
  bool RunUntilAllExited(SimTime max_duration);
  // Drains in-flight traffic (outgoing queues, bus, servers): writes are
  // asynchronous (§7.4.2), so output observed right at a process's exit may
  // still be in flight.
  void Settle(SimTime duration = 500'000) { Run(duration); }

  // Machine-level actions during a run (fault injection, console input)
  // are control events: they fire between windows with every shard clock
  // aligned, so they may touch any cluster. See
  // ShardedEngine::ScheduleControlAt.
  void ScheduleControlAt(SimTime when, Task fn) {
    sharded_->ScheduleControlAt(when, std::move(fn));
  }
  void ScheduleControl(SimTime delay, Task fn) {
    sharded_->ScheduleControl(delay, std::move(fn));
  }

  // --- fault injection ---
  void CrashCluster(ClusterId cluster);
  void CrashClusterAt(SimTime when, ClusterId cluster);
  // Bus line faults (dual-line outage scenarios). Applied to every segment
  // at once (Fabric::FailLine). Safe outside a run or from a control event.
  void FailBusLine(int line);
  void RestoreBusLine(int line);
  // Switch faults (multi-segment topologies): failing segment `s`'s switch
  // isolates it from the rest of the fabric — cross-segment frames hold at
  // the switch and the trunk, FIFO, and drain on restore; nothing is
  // dropped. Safe outside a run or from a control event.
  void FailSwitch(SegmentId segment) { bus_->FailSwitch(segment); }
  void RestoreSwitch(SegmentId segment) { bus_->RestoreSwitch(segment); }
  bool SwitchOk(SegmentId segment) const { return bus_->SwitchOk(segment); }
  // Returns a restored cluster to service. Peripheral servers whose backups
  // died with it re-create them there (§7.3 halfback return-to-service).
  void RestoreCluster(ClusterId cluster);
  bool ClusterAlive(ClusterId cluster) const { return kernels_[cluster]->alive(); }
  // §10 extension: an isolatable hardware fault kills one process; its
  // backup is brought up without a cluster crash.
  void FailProcess(ClusterId cluster, Gpid pid) { kernels_[cluster]->FailProcess(pid); }

  // --- terminal I/O ---
  void InjectTtyInput(uint32_t line, const std::string& text, SimTime at);
  const std::vector<TtyRecord>& tty_raw() const { return tty_raw_; }
  // Exactly-once view: records deduplicated by (line, seq), concatenated.
  std::string TtyOutput(uint32_t line) const;
  uint64_t TtyDuplicates() const { return tty_duplicates_; }
  // How often server `pid`'s backup has taken over (§7.9 failovers).
  uint32_t ServerTakeovers(Gpid pid) const {
    auto it = server_takeovers_.find(pid.value);
    return it == server_takeovers_.end() ? 0 : it->second;
  }

  // --- observation ---
  Kernel& kernel(ClusterId cluster) { return *kernels_[cluster]; }
  // Machine-wide metrics, aggregated across the per-cluster Metrics objects
  // (counters sum; the last_* stamps take the machine-wide max).
  Metrics metrics() const;
  const std::map<uint64_t, int32_t>& exit_statuses() const { return exit_statuses_; }
  bool HasExited(Gpid pid) const { return exit_statuses_.count(pid.value) != 0; }
  int32_t ExitStatus(Gpid pid) const { return exit_statuses_.at(pid.value); }
  const std::string& DebugOutput(Gpid pid) { return debug_output_[pid.value]; }

  ServerAddr file_server_addr() const { return fs_addr_; }
  ServerAddr proc_server_addr() const { return ps_addr_; }
  ServerAddr tty_server_addr() const { return tty_addr_; }
  ServerAddr page_server_addr(uint32_t shard = 0) const { return page_addrs_[shard]; }
  uint32_t page_shard_count() const { return static_cast<uint32_t>(page_addrs_.size()); }
  MirroredDisk& fs_disk() { return *fs_disk_; }
  MirroredDisk& page_disk(uint32_t shard = 0) { return *page_disks_[shard]; }
  // Null unless MachineOptions::trace.enabled was set.
  Tracer* tracer() { return tracer_.get(); }
  Fabric& bus() { return *bus_; }
  const SystemConfig& config() const { return options_.config; }

  // Well-known server pids (cluster 32 is fictitious: these ids can never
  // collide with kernel-allocated pids).
  static constexpr Gpid kFsPid = Gpid::Make(32, 2);
  static constexpr Gpid kPsPid = Gpid::Make(32, 3);
  static constexpr Gpid kTtyPid = Gpid::Make(32, 4);
  // Page-server shard s is pid Make(32, 5 + s); kPagePid is shard 0.
  static constexpr Gpid kPagePid = Gpid::Make(32, 5);
  static constexpr Gpid PageShardPid(uint32_t shard) { return Gpid::Make(32, 5 + shard); }

 private:
  friend class ClusterEnv;

  // Placement of page-server shard s (and, with `backup` pairs swapped in,
  // of its disk ports): segment (s mod S), base pair rotated within the
  // segment by floor(s / S). Reduces to ((pair + s) mod num_clusters) on a
  // single segment — the pre-fabric rotation, bit for bit.
  ClusterPair PageShardPlace(const ClusterPair& base, uint32_t s) const;

  void SpawnServers();
  bool AllUsersExited() const;
  // Current simulated instant from wherever we are called: the executing
  // shard's clock inside a callback, the global clock otherwise.
  SimTime LocalNow() const;

  // --- ClusterEnv backends (called from cluster shards during a run) ---
  // The trace record of one disk operation (server pid filled in by
  // DiskOpFrom).
  struct DiskTrace {
    TraceEventKind kind = TraceEventKind::kDiskRead;
    uint64_t channel = 0;
    uint64_t a = 0;
    uint64_t b = 0;
  };
  // Disk traffic hops to the shared shard (where the disks live), records
  // `trace`, runs `op(disk, reply)` on the server's disk, and posts the
  // completion back to the caller's shard. Each hop carries the calling
  // cluster's bus arbitration time: the §5.1 minimum latency, never below
  // the engine's lookahead, so the cross-shard posts are legal.
  template <typename R, typename Op>
  void DiskOpFrom(ClusterId from, Gpid server, const DiskTrace& trace, Op op,
                  std::function<void(R)> done);
  void TtyEmitFrom(ClusterId from, Gpid server, const Bytes& data);
  // Fullback placement by the *calling kernel's* belief about peer liveness
  // (heartbeats + crash notices): another cluster's ground truth belongs to
  // its own shard — and the paper's kernels only ever saw the bus anyway.
  ClusterId PlaceNewBackupFrom(ClusterId from, ClusterId avoid_a, ClusterId avoid_b);
  std::unique_ptr<NativeProgram> MakeServerProgram(Gpid pid);
  void OnServerTakeover(Gpid pid, ClusterId new_cluster);
  void OnProcessExit(Gpid pid, int32_t status);
  void OnDebugPutc(Gpid pid, char c);

  MachineOptions options_;
  ShardPlan plan_;
  std::unique_ptr<ShardedEngine> sharded_;
  std::unique_ptr<Tracer> tracer_;
  std::unique_ptr<Fabric> bus_;
  std::unique_ptr<MirroredDisk> fs_disk_;
  std::vector<std::unique_ptr<MirroredDisk>> page_disks_;  // one per shard
  std::vector<std::unique_ptr<ClusterEnv>> envs_;          // one per cluster
  std::vector<std::unique_ptr<Kernel>> kernels_;

  ServerAddr fs_addr_;
  ServerAddr ps_addr_;
  ServerAddr tty_addr_;
  std::vector<ServerAddr> page_addrs_;  // one per shard

  std::map<uint64_t, MirroredDisk*> server_disks_;  // pid.value -> disk
  std::map<uint64_t, ClusterId> server_locations_;  // pid.value -> cluster
  std::map<uint64_t, uint32_t> server_takeovers_;   // pid.value -> count

  std::vector<TtyRecord> tty_raw_;
  std::map<uint32_t, std::map<uint64_t, std::string>> tty_dedup_;  // line -> seq -> text
  uint64_t tty_duplicates_ = 0;

  std::map<uint64_t, int32_t> exit_statuses_;
  std::map<uint64_t, std::string> debug_output_;
  std::vector<Gpid> user_pids_;
  bool booted_ = false;
};

}  // namespace auragen

#endif  // AURAGEN_SRC_MACHINE_MACHINE_H_
