// Tests for the incremental copy-on-write sync pipeline and the redesigned
// Machine configuration API: SyncPolicy / ServerPlacement validation, the
// sync-trigger matrix (reads vs time vs adaptive), generation-based dirty
// tracking (a page dirtied during an async drain window must reach the next
// increment, never be lost), per-mode determinism, and sharded page-server
// placement and recovery.

#include <gtest/gtest.h>

#include <string>

#include "src/avm/assembler.h"
#include "src/avm/memory.h"
#include "src/kernel/native_body.h"
#include "src/machine/machine.h"
#include "src/trace/analysis.h"
#include "src/paging/page_server.h"

namespace auragen {
namespace {

// Dirties `pages` consecutive pages starting at 0x4000, `rounds` times, with
// a sync hint after each round, then exits.
Executable PageDirtier(int pages, int rounds) {
  return MustAssemble(R"(
start:
    li r8, 0
outer:
    li r2, 0x4000
    li r4, 0
    li r9, )" + std::to_string(pages) + R"(
inner:
    st r8, r2, 0
    addi r2, r2, 256
    addi r4, r4, 1
    blt r4, r9, inner
    sys synchint
    addi r8, r8, 1
    li r9, )" + std::to_string(rounds) + R"(
    blt r8, r9, outer
    sys exit
)");
}

// Spins forever on pure compute (budget-sliced, so the time-based sync
// trigger gets its quiescent points), dirtying ~nothing.
Executable Spinner() {
  return MustAssemble(R"(
start:
    li r2, 0x4000
    li r3, 1
    st r3, r2, 0
spin:
    addi r4, r4, 1
    jmp spin
)");
}

// ------------------------------------------------------------- validation

TEST(SyncPolicyValidation, RejectsBadPolicies) {
  SyncPolicy p;
  EXPECT_EQ(p.Validate(), "");
  p.drain_batch_pages = 0;
  EXPECT_NE(p.Validate(), "");
  p = SyncPolicy{};
  p.adaptive = true;
  p.adaptive_min_time_us = 0;
  EXPECT_NE(p.Validate(), "");
  p = SyncPolicy{};
  p.adaptive = true;
  p.adaptive_min_time_us = 90000;  // min > max
  EXPECT_NE(p.Validate(), "");
  p = SyncPolicy{};
  p.adaptive = true;
  p.adaptive_dirty_low = 24;
  p.adaptive_dirty_high = 24;  // low must be < high
  EXPECT_NE(p.Validate(), "");
}

TEST(PlacementValidation, AcceptsDefaultsAndRotatedShards) {
  MachineOptions options;
  options.config.topology = Topology::SingleSegment(2);
  EXPECT_EQ(options.Validate(), "");
  options.config.topology = Topology::SingleSegment(4);
  options.config.page_shards = 4;
  EXPECT_EQ(options.Validate(), "");
}

TEST(PlacementValidation, RejectsPrimaryEqualsBackup) {
  MachineOptions options;
  options.config.topology = Topology::SingleSegment(2);
  options.placement.file = ClusterPair{1, 1};
  std::string err = options.Validate();
  EXPECT_NE(err.find("file server"), std::string::npos) << err;
  EXPECT_NE(err.find("must differ"), std::string::npos) << err;
}

TEST(PlacementValidation, RejectsOutOfRangeCluster) {
  MachineOptions options;
  options.config.topology = Topology::SingleSegment(2);
  options.placement.tty = ClusterPair{5, 1};
  std::string err = options.Validate();
  EXPECT_NE(err.find("tty server"), std::string::npos) << err;
  EXPECT_NE(err.find("out of range"), std::string::npos) << err;
}

TEST(PlacementValidation, RejectsServerOffItsDiskPorts) {
  // §7.9: the file server (and its backup) must sit on a port of its disk.
  MachineOptions options;
  options.config.topology = Topology::SingleSegment(4);
  options.placement.file = ClusterPair{2, 3};
  options.placement.file_disk = ClusterPair{0, 1};
  std::string err = options.Validate();
  EXPECT_NE(err.find("§7.9"), std::string::npos) << err;
}

TEST(PlacementValidation, NonFtSkipsBackupConstraints) {
  MachineOptions options;
  options.config.topology = Topology::SingleSegment(2);
  options.config.strategy = FtStrategy::kNone;
  // Backups and disk ports are unused without FT; only primaries must be in
  // range, so a backup sharing its primary's cluster or naming a cluster the
  // machine does not have validates.
  options.placement.file = ClusterPair{0, 0};
  options.placement.page = ClusterPair{1, 7};
  EXPECT_EQ(options.Validate(), "");
  options.config.strategy = FtStrategy::kMessageSystem;
  EXPECT_NE(options.Validate(), "");
}

TEST(PlacementValidation, ChecksDiskPortsUnderEveryStrategy) {
  // Both mirrored disks are built whatever the strategy, so a disk whose
  // ports are equal or out of range is rejected without the message system
  // too, rather than validating and then failing MirroredDisk's CHECK.
  for (FtStrategy strategy : {FtStrategy::kNone, FtStrategy::kMessageSystem,
                              FtStrategy::kCheckpointFull, FtStrategy::kLockstep}) {
    MachineOptions options;
    options.config.topology = Topology::SingleSegment(2);
    options.config.strategy = strategy;
    options.placement.file_disk = ClusterPair{0, 0};
    std::string err = options.Validate();
    EXPECT_NE(err.find("file disk: both ports reach cluster 0"), std::string::npos)
        << FtStrategyName(strategy) << ": " << err;
    options.placement.file_disk = ClusterPair{0, 1};
    options.placement.page_disk = ClusterPair{1, 2};
    err = options.Validate();
    EXPECT_NE(err.find("disk port out of range"), std::string::npos)
        << FtStrategyName(strategy) << ": " << err;
  }
}

TEST(PlacementValidation, RejectsSegmentsOutsideThePaperMachine) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // The topology is checked before the placement, with or without the
  // message system: a shape the Machine constructor rejects is reported by
  // Validate() too, even when the placement alone would pass (no FT, every
  // primary on cluster 0).
  for (uint32_t n : {1u, 33u}) {
    MachineOptions options;
    options.config.topology = Topology::SingleSegment(n);
    options.config.strategy = FtStrategy::kNone;
    options.placement.page = ClusterPair{0, 1};
    const std::string err = options.Validate();
    EXPECT_NE(err.find("2..32"), std::string::npos) << n << " clusters: " << err;
    EXPECT_DEATH(Machine{options}, "2\\.\\.32");
  }
}

TEST(PlacementValidation, BootDiesOnInvalidOptions) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  MachineOptions options;
  options.config.topology = Topology::SingleSegment(2);
  options.placement.page = ClusterPair{0, 0};
  Machine machine(options);
  EXPECT_DEATH(machine.Boot(), "invalid MachineOptions");
}

TEST(PlacementValidation, FluentBuilderComposes) {
  MachineOptions options = MachineOptions()
                               .WithSeed(7)
                               .WithTopology(Topology::SingleSegment(4))
                               .WithSyncMode(SyncMode::kIncrementalAsync)
                               .WithAdaptiveSync()
                               .WithSyncLimits(16, 30000)
                               .WithPageShards(2);
  EXPECT_EQ(options.seed, 7u);
  EXPECT_EQ(options.config.topology.num_clusters(), 4u);
  EXPECT_EQ(options.config.sync_policy.mode, SyncMode::kIncrementalAsync);
  EXPECT_TRUE(options.config.sync_policy.adaptive);
  EXPECT_EQ(options.config.sync_reads_limit, 16u);
  EXPECT_EQ(options.config.sync_time_limit_us, 30000u);
  EXPECT_EQ(options.config.page_shards, 2u);
  EXPECT_EQ(options.Validate(), "");
}

// --------------------------------------------- generation dirty tracking

TEST(GuestMemoryGenerations, WriteDuringFlushWindowIsNotLost) {
  GuestMemory mem;
  mem.MaterializeZero(0x4000 / kAvmPageBytes, false);
  ASSERT_EQ(mem.Write8(0x4000, 1), GuestMemory::Access::kOk);
  EXPECT_TRUE(mem.Dirty(0x4000 / kAvmPageBytes));

  // First increment: captures the dirty page and opens a new generation.
  auto first = mem.CaptureFlushPages(false);
  ASSERT_EQ(first.size(), 1u);
  EXPECT_FALSE(mem.Dirty(0x4000 / kAvmPageBytes));

  // COW semantics: a write landing while the captured copy drains dirties
  // the page in the *new* generation...
  ASSERT_EQ(mem.Write8(0x4000, 2), GuestMemory::Access::kOk);
  EXPECT_TRUE(mem.Dirty(0x4000 / kAvmPageBytes));
  // ...and the drained copy holds the pre-write value.
  EXPECT_EQ(first[0].second[0], 1);

  // Second increment: the re-dirtied page is flushed again, with the new
  // value, and nothing else rides along.
  auto second = mem.CaptureFlushPages(false);
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(second[0].first, 0x4000 / kAvmPageBytes);
  EXPECT_EQ(second[0].second[0], 2);
  EXPECT_FALSE(mem.Dirty(0x4000 / kAvmPageBytes));
}

TEST(GuestMemoryGenerations, FullCaptureShipsEveryResidentPage) {
  GuestMemory mem;
  mem.MaterializeZero(1, false);
  mem.MaterializeZero(2, false);
  ASSERT_EQ(mem.Write8(2 * kAvmPageBytes, 9), GuestMemory::Access::kOk);
  auto full = mem.CaptureFlushPages(true);
  EXPECT_EQ(full.size(), 2u);  // clean page 1 ships too (stop-and-copy)
  auto incr = mem.CaptureFlushPages(false);
  EXPECT_TRUE(incr.empty());
}

// ------------------------------------------------------- trigger matrix

MachineOptions SyncTestOptions(SyncMode mode) {
  MachineOptions options;
  options.config.topology = Topology::SingleSegment(2);
  options.config.sync_policy.mode = mode;
  return options;
}

TEST(SyncTriggerMatrix, ReadsTriggeredSyncs) {
  MachineOptions options = SyncTestOptions(SyncMode::kIncremental);
  options.config.sync_reads_limit = 2;
  options.config.sync_time_limit_us = 60'000'000;
  Machine machine(options);
  machine.Boot();
  uint64_t boot_syncs = machine.metrics().syncs;
  Machine::UserSpawnOptions opts;
  opts.backup_cluster = 1;
  machine.SpawnUserProgram(0, PageDirtier(4, 3), opts);
  machine.Run(5'000'000);
  EXPECT_GT(machine.metrics().syncs, boot_syncs);
}

TEST(SyncTriggerMatrix, TimeTriggeredSyncs) {
  MachineOptions options = SyncTestOptions(SyncMode::kIncremental);
  options.config.sync_reads_limit = 1'000'000;
  options.config.sync_time_limit_us = 500;
  Machine machine(options);
  machine.Boot();
  uint64_t boot_syncs = machine.metrics().syncs;
  Machine::UserSpawnOptions opts;
  opts.backup_cluster = 1;
  machine.SpawnUserProgram(0, Spinner(), opts);
  machine.Run(3'000'000);
  EXPECT_GT(machine.metrics().syncs, boot_syncs);
}

TEST(SyncTriggerMatrix, AdaptiveLoosensForCleanProcesses) {
  // A spinner dirties ~nothing, so every time-triggered flush is tiny and
  // the adaptive trigger doubles its interval up to the bound.
  MachineOptions options = SyncTestOptions(SyncMode::kIncremental);
  options.config.sync_reads_limit = 1'000'000;
  options.config.sync_time_limit_us = 2'000;
  options.config.sync_policy.adaptive = true;
  Machine machine(options);
  machine.Boot();
  Machine::UserSpawnOptions opts;
  opts.backup_cluster = 1;
  machine.SpawnUserProgram(0, Spinner(), opts);
  machine.Run(10'000'000);
  EXPECT_GT(machine.metrics().sync_adaptive_loosen, 0u);
  EXPECT_EQ(machine.metrics().sync_adaptive_tighten, 0u);
}

TEST(SyncTriggerMatrix, AdaptiveTightensForDirtyHeavyProcesses) {
  MachineOptions options = SyncTestOptions(SyncMode::kIncremental);
  options.config.sync_reads_limit = 1'000'000;
  options.config.sync_time_limit_us = 40'000;
  options.config.sync_policy.adaptive = true;
  options.config.sync_policy.adaptive_dirty_high = 8;
  Machine machine(options);
  machine.Boot();
  Machine::UserSpawnOptions opts;
  opts.backup_cluster = 1;
  // No synchint rounds here: 40 dirty pages accumulate until the time
  // trigger fires, beating adaptive_dirty_high.
  machine.SpawnUserProgram(0, MustAssemble(R"(
start:
    li r8, 0
outer:
    li r2, 0x4000
    li r4, 0
    li r9, 40
inner:
    st r8, r2, 0
    addi r2, r2, 256
    addi r4, r4, 1
    blt r4, r9, inner
    addi r8, r8, 1
    jmp outer
)"),
                           opts);
  machine.Run(10'000'000);
  EXPECT_GT(machine.metrics().sync_adaptive_tighten, 0u);
}

// ------------------------------------------------------- async pipeline

TEST(AsyncFlush, DrainsPagesOffTheStallPath) {
  MachineOptions options = SyncTestOptions(SyncMode::kIncrementalAsync);
  Machine machine(options);
  machine.Boot();
  Machine::UserSpawnOptions opts;
  opts.backup_cluster = 1;
  Gpid pid = machine.SpawnUserProgram(0, PageDirtier(24, 4), opts);
  ASSERT_TRUE(machine.RunUntilAllExited(60'000'000));
  machine.Settle();
  EXPECT_EQ(machine.ExitStatus(pid), 0);
  const Metrics& m = machine.metrics();
  EXPECT_GT(m.sync_flushes_async, 0u);
  EXPECT_GT(m.sync_drain_async_us, 0u);
  EXPECT_GT(m.sync_flush_overlap_us, 0u);
  // Async flushes never pay the inline page-enqueue stall.
  EXPECT_EQ(m.sync_enqueue_stall_us, 0u);
  EXPECT_GT(m.sync_build_stall_us, 0u);
}

TEST(AsyncFlush, RedirtiedPageReachesPageServerNextIncrement) {
  MachineOptions options = SyncTestOptions(SyncMode::kIncrementalAsync);
  Machine machine(options);
  machine.Boot();
  Machine::UserSpawnOptions opts;
  opts.backup_cluster = 0;
  // Two rounds: round 1 flushes 0x4000..; round 2 re-dirties the same pages
  // (store value changes) and must flush them again.
  Gpid pid = machine.SpawnUserProgram(1, PageDirtier(6, 2), opts);
  ASSERT_TRUE(machine.RunUntilAllExited(60'000'000));
  machine.Settle();

  Pcb* ps = machine.kernel(machine.page_server_addr().primary).FindProcess(Machine::kPagePid);
  ASSERT_NE(ps, nullptr);
  auto* body = dynamic_cast<NativeBody*>(ps->body.get());
  ASSERT_NE(body, nullptr);
  auto* program = dynamic_cast<PageServerProgram*>(&body->program());
  ASSERT_NE(program, nullptr);
  for (PageNum p = 0x4000 / kAvmPageBytes; p < 0x4000 / kAvmPageBytes + 6; ++p) {
    EXPECT_TRUE(program->PrimaryHasPage(pid, p)) << "page " << p;
    EXPECT_TRUE(program->BackupHasPage(pid, p)) << "page " << p;
  }
}

TEST(AsyncFlush, SurvivesPrimaryCrashMidWorkload) {
  for (SimTime crash_at : {30'000, 60'000, 120'000}) {
    MachineOptions options = SyncTestOptions(SyncMode::kIncrementalAsync);
    options.config.topology = Topology::SingleSegment(3);
    Machine machine(options);
    machine.Boot();
    Machine::UserSpawnOptions opts;
    opts.backup_cluster = 1;
    Gpid pid = machine.SpawnUserProgram(0, PageDirtier(16, 6), opts);
    machine.CrashClusterAt(crash_at, 0);
    ASSERT_TRUE(machine.RunUntilAllExited(120'000'000)) << "crash_at=" << crash_at;
    machine.Settle();
    EXPECT_EQ(machine.ExitStatus(pid), 0) << "crash_at=" << crash_at;
  }
}

// ----------------------------------------------------------- determinism

TraceDigest DigestOfRun(SyncMode mode, uint64_t seed) {
  MachineOptions options = SyncTestOptions(mode);
  options.seed = seed;
  options.trace.enabled = true;
  options.trace.unbounded = false;
  options.trace.ring_capacity = 1024;
  Machine machine(options);
  machine.Boot();
  Machine::UserSpawnOptions opts;
  opts.backup_cluster = 1;
  machine.SpawnUserProgram(0, PageDirtier(12, 3), opts);
  Machine::UserSpawnOptions sopts;
  sopts.backup_cluster = 0;
  machine.SpawnUserProgram(1, PageDirtier(8, 2), sopts);
  machine.RunUntilAllExited(60'000'000);
  machine.Settle();
  return machine.tracer()->digest();
}

TEST(SyncDeterminism, EachModeReplaysBitIdentically) {
  for (SyncMode mode :
       {SyncMode::kStopAndCopy, SyncMode::kIncremental, SyncMode::kIncrementalAsync}) {
    TraceDigest a = DigestOfRun(mode, 42);
    TraceDigest b = DigestOfRun(mode, 42);
    EXPECT_TRUE(a == b) << "mode=" << SyncModeName(mode);
  }
}

TEST(SyncAnalysis, FlushEventsFeedTheStatsHistograms) {
  MachineOptions options = SyncTestOptions(SyncMode::kIncrementalAsync);
  options.trace.enabled = true;
  options.trace.unbounded = true;
  Machine machine(options);
  machine.Boot();
  Machine::UserSpawnOptions opts;
  opts.backup_cluster = 1;
  machine.SpawnUserProgram(0, PageDirtier(16, 4), opts);
  ASSERT_TRUE(machine.RunUntilAllExited(60'000'000));
  machine.Settle();

  TraceAnalysis analysis = AnalyzeTrace(machine.tracer()->Events());
  EXPECT_GT(analysis.sync_stall.count(), 0u);
  EXPECT_GT(analysis.sync_build.count(), 0u);
  EXPECT_GT(analysis.sync_flush_pages.count(), 0u);
  EXPECT_GT(analysis.sync_flush_pages.max_us(), 0u);  // pages, not us
  // Async mode: enqueue stall is zero, drain overlap is not.
  EXPECT_EQ(analysis.sync_page_enqueue.max_us(), 0u);
  EXPECT_GT(analysis.sync_drain_overlap.max_us(), 0u);
  EXPECT_NE(analysis.ToString().find("sync drain overlap"), std::string::npos);
}

// -------------------------------------------------------------- sharding

TEST(PageSharding, ShardsPlaceRotatedAndServePages) {
  MachineOptions options;
  options.config.topology = Topology::SingleSegment(4);
  options.config.page_shards = 3;
  Machine machine(options);
  machine.Boot();
  ASSERT_EQ(machine.page_shard_count(), 3u);
  // Rotation: shard s sits at (1 + s) % 4 with backup (0 + s) % 4.
  EXPECT_EQ(machine.page_server_addr(0).primary, 1u);
  EXPECT_EQ(machine.page_server_addr(1).primary, 2u);
  EXPECT_EQ(machine.page_server_addr(2).primary, 3u);
  EXPECT_EQ(machine.page_server_addr(1).backup, 1u);

  // Processes on different clusters hash to different shards and both
  // complete their paged workloads.
  Machine::UserSpawnOptions opts;
  Gpid a = machine.SpawnUserProgram(0, PageDirtier(10, 2), opts);  // shard 0
  Gpid b = machine.SpawnUserProgram(1, PageDirtier(10, 2), opts);  // shard 1
  Gpid c = machine.SpawnUserProgram(2, PageDirtier(10, 2), opts);  // shard 2
  ASSERT_TRUE(machine.RunUntilAllExited(60'000'000));
  machine.Settle();
  EXPECT_EQ(machine.ExitStatus(a), 0);
  EXPECT_EQ(machine.ExitStatus(b), 0);
  EXPECT_EQ(machine.ExitStatus(c), 0);
}

TEST(PageSharding, ShardPrimaryCrashFailsOverAndRebacksOnRestore) {
  MachineOptions options;
  options.config.topology = Topology::SingleSegment(4);
  options.config.page_shards = 2;
  options.config.sync_policy.mode = SyncMode::kIncrementalAsync;
  Machine machine(options);
  machine.Boot();
  // Shard 0: primary 1, backup 0. Shard 1: primary 2, backup 1.
  ASSERT_EQ(machine.page_server_addr(0).primary, 1u);
  ASSERT_EQ(machine.page_server_addr(1).primary, 2u);

  Machine::UserSpawnOptions opts;
  opts.backup_cluster = 3;
  Gpid pid = machine.SpawnUserProgram(0, PageDirtier(12, 5), opts);  // shard 0
  // Crash shard 0's primary (also shard 1's backup): shard 0 must take over
  // on cluster 0 and keep serving pid's faults and flushes.
  machine.CrashClusterAt(40'000, 1);
  ASSERT_TRUE(machine.RunUntilAllExited(120'000'000));
  machine.Settle();
  EXPECT_EQ(machine.ExitStatus(pid), 0);
  EXPECT_EQ(machine.page_server_addr(0).primary, 0u);
  EXPECT_EQ(machine.page_server_addr(0).backup, kNoCluster);

  // §7.3 halfback return-to-service: the restored cluster hosts new active
  // backups for both displaced shards.
  machine.RestoreCluster(1);
  machine.Run(2'000'000);
  EXPECT_EQ(machine.page_server_addr(0).backup, 1u);
  EXPECT_EQ(machine.page_server_addr(1).backup, 1u);
}

}  // namespace
}  // namespace auragen
