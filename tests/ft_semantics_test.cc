// White-box tests of the fault-tolerance bookkeeping itself: write counts at
// the sender's backup (§5.1/§5.4), queue trimming by sync (§5.2), page
// account copy-on-sync (§7.6/§7.8), the §2 checkpoint baselines, and the
// negative tests showing recovery correctness *depends* on bus atomicity
// (DESIGN.md invariant 5).

#include <gtest/gtest.h>

#include "src/avm/assembler.h"
#include "src/kernel/native_body.h"
#include "src/machine/machine.h"
#include "src/paging/page_server.h"

namespace auragen {
namespace {

MachineOptions TwoClusters() {
  MachineOptions options;
  options.config.topology = Topology::SingleSegment(2);
  return options;
}

// A chatty writer: sends `n` one-byte messages on ch:flood, never reads.
Executable Flooder(int n) {
  return MustAssemble(R"(
start:
    li r1, name
    li r2, 8
    sys open
    mov r10, r0
    li r8, 0
loop:
    mov r1, r10
    li r2, payload
    li r3, 1
    sys write
    addi r8, r8, 1
    li r9, )" + std::to_string(n) + R"(
    blt r8, r9, loop
halt_loop:
    sys yield
    jmp halt_loop
.data
name: .ascii "ch:flood"
payload: .ascii "x"
)");
}

// A sink that reads forever.
Executable Sink() {
  return MustAssemble(R"(
start:
    li r1, name
    li r2, 8
    sys open
    mov r10, r0
loop:
    mov r1, r10
    li r2, buf
    li r3, 4
    sys read
    jmp loop
.data
name: .ascii "ch:flood"
buf: .space 4
)");
}

TEST(FtSemantics, WriteCountsAccumulateAtSendersBackup) {
  MachineOptions options = TwoClusters();
  options.config.sync_time_limit_us = 60'000'000;  // no time-triggered syncs
  options.config.sync_reads_limit = 1'000'000;
  Machine machine(options);
  machine.Boot();
  Machine::UserSpawnOptions wopts;
  wopts.backup_cluster = 1;
  Machine::UserSpawnOptions sopts;
  sopts.backup_cluster = 0;
  sopts.sync_reads_limit = 1'000'000;
  sopts.sync_time_limit_us = 60'000'000;
  Gpid writer = machine.SpawnUserProgram(0, Flooder(5), wopts);
  machine.SpawnUserProgram(1, Sink(), sopts);
  machine.Run(5'000'000);

  // The writer's backup entry for the flood channel counted 5 writes.
  uint32_t counted = 0;
  machine.kernel(1).routing().ForEach([&](RoutingEntry& e) {
    if (e.owner == writer && e.backup_entry) {
      counted += e.writes_since_sync;
    }
  });
  // 5 data messages + the open request on the control channel.
  EXPECT_EQ(counted, 6u);
  EXPECT_EQ(machine.metrics().deliveries_count_only,
            machine.metrics().deliveries_primary);
}

TEST(FtSemantics, SyncTrimsBackupQueuesAndZeroesCounts) {
  MachineOptions options = TwoClusters();
  options.config.sync_reads_limit = 4;  // sync after 4 reads
  Machine machine(options);
  machine.Boot();
  Machine::UserSpawnOptions wopts;
  wopts.backup_cluster = 1;
  Machine::UserSpawnOptions sopts;
  sopts.backup_cluster = 0;
  sopts.sync_reads_limit = 4;
  Gpid sink = machine.SpawnUserProgram(1, Sink(), sopts);
  machine.SpawnUserProgram(0, Flooder(20), wopts);
  machine.Run(8'000'000);

  EXPECT_GT(machine.metrics().backup_msgs_trimmed, 0u);
  // After the sink's latest sync, its backup queue holds only the unread
  // suffix: strictly fewer than the 20 sent.
  size_t saved = 0;
  machine.kernel(0).routing().ForEach([&](RoutingEntry& e) {
    if (e.owner == sink && e.backup_entry) {
      saved += e.queue.size();
    }
  });
  EXPECT_LT(saved, 20u);
}

TEST(FtSemantics, PageAccountsCopyOnSync) {
  Machine machine(TwoClusters());
  machine.Boot();
  // Dirty several pages, hint a sync, then inspect the page server.
  Executable prog = MustAssemble(R"(
start:
    li r2, 0x4000
    li r3, 7
    st r3, r2, 0
    li r2, 0x5000
    st r3, r2, 0
    sys synchint
spin:
    sys yield
    jmp spin
)");
  Machine::UserSpawnOptions opts;
  opts.backup_cluster = 0;
  Gpid pid = machine.SpawnUserProgram(1, prog, opts);
  machine.Run(2'000'000);

  Pcb* ps = machine.kernel(machine.page_server_addr().primary).FindProcess(Machine::kPagePid);
  ASSERT_NE(ps, nullptr);
  auto* body = dynamic_cast<NativeBody*>(ps->body.get());
  ASSERT_NE(body, nullptr);
  auto* program = dynamic_cast<PageServerProgram*>(&body->program());
  ASSERT_NE(program, nullptr);
  // Both touched pages are in both accounts (invariant 4: equal after sync).
  EXPECT_TRUE(program->PrimaryHasPage(pid, 0x4000 / kAvmPageBytes));
  EXPECT_TRUE(program->BackupHasPage(pid, 0x4000 / kAvmPageBytes));
  EXPECT_TRUE(program->BackupHasPage(pid, 0x5000 / kAvmPageBytes));
  // Text page 0 shipped at first sync too.
  EXPECT_TRUE(program->BackupHasPage(pid, 0));
}

TEST(FtSemantics, CheckpointFullBaselineRunsAndStalls) {
  MachineOptions options = TwoClusters();
  options.config.strategy = FtStrategy::kCheckpointFull;
  Machine machine(options);
  machine.Boot();
  Executable prog = MustAssemble(R"(
start:
    li r2, 0
loop:
    addi r2, r2, 1
    li r3, 150000
    blt r2, r3, loop
    exit 0
)");
  Machine::UserSpawnOptions opts;
  opts.backup_cluster = 0;
  machine.SpawnUserProgram(1, prog, opts);
  ASSERT_TRUE(machine.RunUntilAllExited(60'000'000));
  machine.Settle();
  const Metrics& m = machine.metrics();
  EXPECT_GT(m.checkpoints, 0u);
  EXPECT_GT(m.checkpoint_bytes, 0u);
  EXPECT_GT(m.checkpoint_stall_us, 0u);
  EXPECT_EQ(m.syncs, 0u);
}

TEST(FtSemantics, IncrementalCheckpointShipsLessThanFull) {
  auto run = [](FtStrategy strategy) {
    MachineOptions options;
    options.config.topology = Topology::SingleSegment(2);
    options.config.strategy = strategy;
    Machine machine(options);
    machine.Boot();
    // Touch one page repeatedly: incremental checkpoints stay small.
    Executable prog = MustAssemble(R"(
start:
    li r2, 0
loop:
    li r4, 0x8000
    st r2, r4, 0
    addi r2, r2, 1
    li r3, 150000
    blt r2, r3, loop
    exit 0
)");
    Machine::UserSpawnOptions opts;
    opts.backup_cluster = 0;
    machine.SpawnUserProgram(1, prog, opts);
    machine.RunUntilAllExited(90'000'000);
    machine.Settle();
    return machine.metrics().checkpoint_bytes;
  };
  uint64_t full = run(FtStrategy::kCheckpointFull);
  uint64_t incremental = run(FtStrategy::kCheckpointIncremental);
  ASSERT_GT(full, 0u);
  ASSERT_GT(incremental, 0u);
  EXPECT_LT(incremental, full);
}

TEST(FtSemantics, CheckpointRecoveryRestoresState) {
  MachineOptions options = TwoClusters();
  options.config.strategy = FtStrategy::kCheckpointFull;
  options.config.sync_time_limit_us = 8'000;  // checkpoint often
  Machine machine(options);
  machine.Boot();
  Executable prog = MustAssemble(R"(
start:
    li r8, 0
rounds:
    li r9, 0
spin:
    addi r9, r9, 1
    li r10, 6000
    blt r9, r10, spin
    addi r8, r8, 1
    li r10, 10
    blt r8, r10, rounds
    li r11, 0x8000
    ld r2, r11, 0     ; touch data page
    exit 7
)");
  Machine::UserSpawnOptions opts;
  opts.backup_cluster = 0;
  Gpid pid = machine.SpawnUserProgram(1, prog, opts);
  machine.Run(40'000);
  EXPECT_GT(machine.metrics().checkpoints, 0u);
  machine.CrashCluster(1);
  ASSERT_TRUE(machine.RunUntilAllExited(60'000'000));
  machine.Settle();
  EXPECT_EQ(machine.ExitStatus(pid), 7);
}

TEST(FtSemantics, NoFtModeSendsOneWay) {
  MachineOptions options = TwoClusters();
  options.config.strategy = FtStrategy::kNone;
  Machine machine(options);
  machine.Boot();
  Machine::UserSpawnOptions wopts;
  machine.SpawnUserProgram(0, Flooder(10), wopts);
  machine.SpawnUserProgram(1, Sink(), wopts);
  machine.Run(5'000'000);
  const Metrics& m = machine.metrics();
  EXPECT_GT(m.deliveries_primary, 0u);
  EXPECT_EQ(m.deliveries_backup, 0u);
  EXPECT_EQ(m.deliveries_count_only, 0u);
  EXPECT_EQ(m.syncs, 0u);
}

TEST(FtSemantics, SuppressionNeverResendsAfterRecovery) {
  // Invariant 2: total primary deliveries with a crash equals the
  // failure-free count — no message is received twice.
  auto run = [](bool crash) {
    MachineOptions options;
    options.config.topology = Topology::SingleSegment(2);
    Machine machine(options);
    machine.Boot();
    Executable prog = MustAssemble(R"(
start:
    li r8, 0
rounds:
    li r9, 0
spin:
    addi r9, r9, 1
    li r10, 6000
    blt r9, r10, spin
    li r1, 2
    li r2, out
    li r3, 1
    sys write
    addi r8, r8, 1
    li r10, 10
    blt r8, r10, rounds
    exit 0
.data
out: .ascii "z"
)");
    Machine::UserSpawnOptions opts;
    opts.with_tty = true;
    opts.backup_cluster = 0;
    machine.SpawnUserProgram(1, prog, opts);
    if (crash) {
      machine.CrashClusterAt(machine.Now() + 55'000, 1);
    }
    machine.RunUntilAllExited(60'000'000);
    machine.Settle();
    return machine.TtyOutput(0);
  };
  EXPECT_EQ(run(false), run(true));
}

TEST(FtSemantics, BrokenBusAtomicityBreaksRecovery) {
  // Negative test (invariant 5): with all-or-nothing delivery violated, at
  // least one crash point yields divergent output or a stuck recovery.
  bool violated = false;
  for (SimTime crash_at : {30'000u, 45'000u, 60'000u, 75'000u}) {
    MachineOptions options = TwoClusters();
    Machine machine(options);
    machine.Boot();
    machine.bus().InjectAtomicityViolation(AtomicityViolation::kDropPerDestination, 0.25,
                                           991 + crash_at);
    Executable prog = MustAssemble(R"(
start:
    li r8, 0
rounds:
    li r9, 0
spin:
    addi r9, r9, 1
    li r10, 6000
    blt r9, r10, spin
    li r1, 2
    li r2, out
    li r3, 1
    sys write
    addi r8, r8, 1
    li r10, 10
    blt r8, r10, rounds
    exit 0
.data
out: .ascii "q"
)");
    Machine::UserSpawnOptions opts;
    opts.with_tty = true;
    opts.backup_cluster = 0;
    machine.SpawnUserProgram(1, prog, opts);
    machine.CrashClusterAt(machine.Now() + crash_at, 1);
    bool done = machine.RunUntilAllExited(20'000'000);
    machine.Settle();
    if (!done || machine.TtyOutput(0) != "qqqqqqqqqq" || machine.TtyDuplicates() != 0) {
      violated = true;
      break;
    }
  }
  EXPECT_TRUE(violated) << "recovery survived broken atomicity — guarantees not load-bearing?";
}

}  // namespace
}  // namespace auragen
