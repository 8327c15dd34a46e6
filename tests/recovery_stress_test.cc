// Stress tests for awkward recovery interleavings: sequential failures that
// land while earlier recoveries are still in flight, processes blocked on
// server replies when the server's cluster dies, and recovery paging racing
// a page-server takeover.

#include <gtest/gtest.h>

#include "src/avm/assembler.h"
#include "src/machine/machine.h"

namespace auragen {
namespace {

Executable Digits(int rounds, uint32_t spin) {
  return MustAssemble(R"(
start:
    li r8, 0
rounds:
    li r9, 0
spin:
    addi r9, r9, 1
    li r10, )" + std::to_string(spin) + R"(
    blt r9, r10, spin
    li r10, 48
    add r10, r10, r8
    li r11, digit
    stb r10, r11, 0
    li r1, 2
    li r2, digit
    li r3, 1
    sys write
    addi r8, r8, 1
    li r10, )" + std::to_string(rounds) + R"(
    blt r8, r10, rounds
    exit 7
.data
digit: .byte 0
)");
}

TEST(RecoveryStress, GettimeAcrossProcessServerTakeover) {
  // The worker blocks on gettime exactly while the process server's cluster
  // dies; the recovered PS must service the saved request (reply possibly
  // suppressed if already sent) and the worker completes.
  MachineOptions options;
  options.config.topology = Topology::SingleSegment(2);
  Machine machine(options);
  machine.Boot();
  Executable prog = MustAssemble(R"(
start:
    li r8, 0
loop:
    sys gettime
    li r12, 0
    beq r0, r12, bad
    li r9, 0
spin:
    addi r9, r9, 1
    li r10, 3000
    blt r9, r10, spin
    addi r8, r8, 1
    li r10, 12
    blt r8, r10, loop
    exit 6
bad:
    exit 1
)");
  Machine::UserSpawnOptions opts;
  opts.backup_cluster = 0;
  Gpid pid = machine.SpawnUserProgram(1, prog, opts);
  // PS lives in cluster 0; kill it mid-run.
  machine.CrashClusterAt(machine.Now() + 25'000, 0);
  ASSERT_TRUE(machine.RunUntilAllExited(120'000'000));
  machine.Settle();
  EXPECT_EQ(machine.ExitStatus(pid), 6);
}

TEST(RecoveryStress, FileWriteAcrossFileServerTakeover) {
  MachineOptions options;
  options.config.topology = Topology::SingleSegment(2);
  options.file_server.sync_every_ops = 4;
  Machine machine(options);
  machine.Boot();
  Executable prog = MustAssemble(R"(
start:
    li r1, fname
    li r2, 3
    sys open
    mov r10, r0
    li r8, 0
loop:
    mov r1, r10
    li r2, rec
    li r3, 32
    sys write          ; blocks for the server's ack
    li r12, 32
    bne r0, r12, bad
    addi r8, r8, 1
    li r11, 20
    blt r8, r11, loop
    ; read everything back and verify the length via EOF behaviour
    li r1, fname
    li r2, 3
    sys open
    mov r11, r0
    li r7, 0
count:
    mov r1, r11
    li r2, buf
    li r3, 64
    sys read
    li r12, 0
    beq r0, r12, done
    add r7, r7, r0
    jmp count
done:
    li r12, 640        ; 20 * 32 bytes
    bne r7, r12, bad
    exit 3
bad:
    exit 1
.data
fname: .ascii "wal"
rec: .space 32
buf: .space 64
)");
  Machine::UserSpawnOptions opts;
  opts.backup_cluster = 1;
  Gpid pid = machine.SpawnUserProgram(1, prog, opts);
  // The file server (and tty/ps) die mid write stream.
  machine.CrashClusterAt(machine.Now() + 40'000, 0);
  ASSERT_TRUE(machine.RunUntilAllExited(300'000'000));
  machine.Settle();
  EXPECT_EQ(machine.ExitStatus(pid), 3);
}

TEST(RecoveryStress, SecondCrashDuringRollforward) {
  // Fullback worker: cluster 2 dies; while the recovered primary in cluster
  // 1 is still rolling forward, cluster 1 dies too. The replacement backup
  // in cluster 0 must carry it home. (Sequential single failures, §3.1.)
  MachineOptions options;
  options.config.topology = Topology::SingleSegment(3);
  Machine machine(options);
  machine.Boot();
  Machine::UserSpawnOptions opts;
  opts.with_tty = true;
  opts.mode = BackupMode::kFullback;
  opts.backup_cluster = 1;
  Gpid pid = machine.SpawnUserProgram(2, Digits(12, 8000), opts);
  machine.Run(60'000);
  machine.CrashCluster(2);
  // Barely into recovery: the detection alone takes ~12 ms; crash the new
  // primary while it is demand-paging its address space back in.
  machine.Run(14'000);
  machine.CrashCluster(1);
  ASSERT_TRUE(machine.RunUntilAllExited(300'000'000)) << "lost during nested recovery";
  machine.Settle();
  EXPECT_EQ(machine.ExitStatus(pid), 7);
  EXPECT_EQ(machine.TtyOutput(0), "0123456789:;");
  EXPECT_EQ(machine.TtyDuplicates(), 0u);
}

TEST(RecoveryStress, CrashWhilePageServerServesRecovery) {
  // Worker crashes (cluster 1, also the page server's home): the worker's
  // rollforward pages in from the page-server *backup* that took over in
  // cluster 0 — takeover and demand paging interleave.
  MachineOptions options;
  options.config.topology = Topology::SingleSegment(2);
  Machine machine(options);
  machine.Boot();
  Machine::UserSpawnOptions opts;
  opts.with_tty = true;
  opts.backup_cluster = 0;
  Gpid pid = machine.SpawnUserProgram(1, Digits(10, 6000), opts);
  machine.Run(60'000);
  ASSERT_GT(machine.metrics().syncs, 0u);
  machine.CrashCluster(1);
  ASSERT_TRUE(machine.RunUntilAllExited(120'000'000));
  machine.Settle();
  EXPECT_EQ(machine.ExitStatus(pid), 7);
  EXPECT_EQ(machine.TtyOutput(0), "0123456789");
  EXPECT_GT(machine.metrics().page_faults_served, 0u);
}

TEST(RecoveryStress, ManyProcessesRecoverTogether) {
  MachineOptions options;
  options.config.topology = Topology::SingleSegment(3);
  Machine machine(options);
  machine.Boot();
  std::vector<Gpid> pids;
  for (int i = 0; i < 12; ++i) {
    Machine::UserSpawnOptions opts;
    opts.with_tty = true;
    opts.tty_line = static_cast<uint32_t>(i);
    opts.backup_cluster = static_cast<ClusterId>(i % 2);  // 0 or 1
    pids.push_back(machine.SpawnUserProgram(2, Digits(8, 3000 + 500 * i), opts));
  }
  machine.Run(50'000);
  machine.CrashCluster(2);
  ASSERT_TRUE(machine.RunUntilAllExited(600'000'000));
  machine.Settle();
  for (int i = 0; i < 12; ++i) {
    EXPECT_EQ(machine.ExitStatus(pids[i]), 7) << "worker " << i;
    EXPECT_EQ(machine.TtyOutput(static_cast<uint32_t>(i)), "01234567") << "worker " << i;
  }
  EXPECT_EQ(machine.TtyDuplicates(), 0u);
  EXPECT_GE(machine.metrics().takeovers, 12u);
}

}  // namespace
}  // namespace auragen
