// Backup-mode tests (§7.3): fullbacks get a replacement backup before the
// new primary runs (and so survive *sequential* failures); quarterbacks run
// unprotected after one crash; channels to fullbacks freeze until the new
// backup's location is known (§7.10.1).

#include <gtest/gtest.h>

#include "src/avm/assembler.h"
#include "src/machine/machine.h"

namespace auragen {
namespace {

MachineOptions ThreeClusters() {
  MachineOptions options;
  options.config.topology = Topology::SingleSegment(3);
  return options;
}

Executable SlowDigits(int rounds, uint32_t spin) {
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

TEST(Fullback, ReplacementBackupCreatedOnTakeover) {
  Machine machine(ThreeClusters());
  machine.Boot();
  Machine::UserSpawnOptions opts;
  opts.with_tty = true;
  opts.mode = BackupMode::kFullback;
  opts.backup_cluster = 1;
  Gpid pid = machine.SpawnUserProgram(2, SlowDigits(10, 6000), opts);
  machine.Run(60'000);
  uint64_t backups_before = machine.metrics().backups_created;
  machine.CrashCluster(2);
  ASSERT_TRUE(machine.RunUntilAllExited(90'000'000));
  machine.Settle();
  EXPECT_EQ(machine.ExitStatus(pid), 7);
  EXPECT_EQ(machine.TtyOutput(0), "0123456789");
  // A replacement backup materialized in the remaining cluster.
  EXPECT_GT(machine.metrics().backups_created, backups_before);
  // The new primary (cluster 1) has its backup at cluster 0.
  Pcb* p = machine.kernel(1).FindProcess(pid);
  if (p != nullptr) {  // may already have exited
    EXPECT_EQ(p->backup_cluster, 0u);
  }
}

TEST(Fullback, SurvivesTwoSequentialFailures) {
  Machine machine(ThreeClusters());
  machine.Boot();
  Machine::UserSpawnOptions opts;
  opts.with_tty = true;
  opts.mode = BackupMode::kFullback;
  opts.backup_cluster = 1;
  Gpid pid = machine.SpawnUserProgram(2, SlowDigits(12, 9000), opts);

  machine.Run(60'000);
  machine.CrashCluster(2);   // takeover at 1, new backup at 0
  machine.Run(80'000);
  machine.CrashCluster(1);   // second failure: takeover at 0
  ASSERT_TRUE(machine.RunUntilAllExited(120'000'000)) << "did not survive second failure";
  machine.Settle();
  EXPECT_EQ(machine.ExitStatus(pid), 7);
  EXPECT_EQ(machine.TtyOutput(0), "0123456789:;");  // 12 rounds: '0'..';'
  EXPECT_GE(machine.metrics().takeovers, 2u);
}

TEST(Fullback, QuarterbackDiesOnSecondFailure) {
  Machine machine(ThreeClusters());
  machine.Boot();
  Machine::UserSpawnOptions opts;
  opts.mode = BackupMode::kQuarterback;
  opts.backup_cluster = 1;
  Gpid pid = machine.SpawnUserProgram(2, SlowDigits(200, 20000), opts);
  machine.Run(60'000);
  machine.CrashCluster(2);
  machine.Run(80'000);
  // Recovered at cluster 1, running unprotected (§7.3).
  Pcb* p = machine.kernel(1).FindProcess(pid);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->backup_cluster, kNoCluster);
  machine.CrashCluster(1);
  machine.Run(2'000'000);
  // No backup anywhere: the process is gone for good.
  EXPECT_FALSE(machine.HasExited(pid));
  EXPECT_EQ(machine.kernel(0).FindProcess(pid), nullptr);
}

TEST(Fullback, SenderHoldsMessagesUntilBackupReady) {
  // A writer keeps sending to a fullback reader whose cluster crashes; all
  // messages arrive exactly once even though some were held (§7.10.1).
  Machine machine(ThreeClusters());
  machine.Boot();
  Executable writer = MustAssemble(R"(
start:
    li r1, name
    li r2, 5
    sys open
    mov r10, r0
    li r8, 0
loop:
    li r9, 0
pace:
    addi r9, r9, 1
    li r11, 2500
    blt r9, r11, pace
    li r11, buf
    li r12, 65
    add r12, r12, r8
    stb r12, r11, 0
    mov r1, r10
    li r2, buf
    li r3, 1
    sys write
    addi r8, r8, 1
    li r11, 12
    blt r8, r11, loop
    exit 0
.data
name: .ascii "ch:hf"
buf: .byte 0
)");
  Executable reader = MustAssemble(R"(
start:
    li r1, name
    li r2, 5
    sys open
    mov r10, r0
    li r8, 0
loop:
    mov r1, r10
    li r2, buf
    li r3, 1
    sys read
    li r12, 0
    beq r0, r12, done
    li r1, 2
    li r2, buf
    li r3, 1
    sys write
    addi r8, r8, 1
    li r11, 12
    blt r8, r11, loop
done:
    exit 0
.data
name: .ascii "ch:hf"
buf: .space 4
)");
  Machine::UserSpawnOptions wopts;
  wopts.backup_cluster = 1;
  Machine::UserSpawnOptions ropts;
  ropts.with_tty = true;
  ropts.mode = BackupMode::kFullback;
  ropts.backup_cluster = 1;
  machine.SpawnUserProgram(0, writer, wopts);
  Gpid rpid = machine.SpawnUserProgram(2, reader, ropts);
  machine.Run(35'000);
  machine.CrashCluster(2);
  ASSERT_TRUE(machine.RunUntilAllExited(120'000'000));
  machine.Settle();
  EXPECT_EQ(machine.ExitStatus(rpid), 0);
  EXPECT_EQ(machine.TtyOutput(0), "ABCDEFGHIJKL");
}

TEST(Fullback, PlacementAvoidsCrashedAndSelfClusters) {
  MachineOptions options;
  options.config.topology = Topology::SingleSegment(4);
  Machine machine(options);
  machine.Boot();
  Machine::UserSpawnOptions opts;
  opts.mode = BackupMode::kFullback;
  opts.backup_cluster = 3;
  Gpid pid = machine.SpawnUserProgram(2, SlowDigits(100, 30000), opts);
  machine.Run(60'000);
  machine.CrashCluster(2);
  machine.Run(300'000);
  Pcb* p = machine.kernel(3).FindProcess(pid);
  ASSERT_NE(p, nullptr);
  EXPECT_NE(p->backup_cluster, 2u);
  EXPECT_NE(p->backup_cluster, 3u);
  EXPECT_NE(p->backup_cluster, kNoCluster);
}

}  // namespace
}  // namespace auragen
