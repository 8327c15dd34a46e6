// Tests for the §10 future-work extensions: individual-process failure
// recovery, and halfback backup re-creation when a crashed cluster returns
// to service (§7.3).

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

TEST(PartialFailure, SingleProcessFaultRecoversWithoutClusterCrash) {
  MachineOptions options;
  options.config.topology = Topology::SingleSegment(2);
  Machine machine(options);
  machine.Boot();
  Machine::UserSpawnOptions opts;
  opts.with_tty = true;
  opts.backup_cluster = 0;
  Gpid victim = machine.SpawnUserProgram(1, Digits(10, 6000), opts);
  // A bystander in the same cluster keeps running untouched.
  Gpid bystander = machine.SpawnUserProgram(1, Digits(10, 9000), Machine::UserSpawnOptions{
                                                                     .backup_cluster = 0});
  machine.Run(60'000);
  EXPECT_GT(machine.metrics().syncs, 0u);
  machine.FailProcess(1, victim);

  ASSERT_TRUE(machine.RunUntilAllExited(90'000'000));
  machine.Settle();
  EXPECT_TRUE(machine.ClusterAlive(1));  // the cluster never crashed
  EXPECT_EQ(machine.ExitStatus(victim), 7);
  EXPECT_EQ(machine.ExitStatus(bystander), 7);
  EXPECT_EQ(machine.TtyOutput(0), "0123456789");
  EXPECT_EQ(machine.TtyDuplicates(), 0u);
  EXPECT_GE(machine.metrics().takeovers, 1u);
  // The victim now lives in its backup cluster; the bystander stayed put.
  EXPECT_EQ(machine.kernel(1).FindProcess(victim), nullptr);
}

TEST(PartialFailure, VictimWithoutBackupJustDies) {
  MachineOptions options;
  options.config.topology = Topology::SingleSegment(2);
  options.config.strategy = FtStrategy::kNone;
  Machine machine(options);
  machine.Boot();
  Gpid victim = machine.SpawnUserProgram(1, Digits(100, 30000), Machine::UserSpawnOptions{});
  machine.Run(40'000);
  machine.FailProcess(1, victim);
  machine.Run(2'000'000);
  EXPECT_FALSE(machine.HasExited(victim));
  EXPECT_EQ(machine.kernel(1).FindProcess(victim), nullptr);
  EXPECT_EQ(machine.kernel(0).FindProcess(victim), nullptr);
}

TEST(HalfbackRestore, ServersRegainBackupsWhenClusterReturns) {
  MachineOptions options;
  options.config.topology = Topology::SingleSegment(2);
  Machine machine(options);
  machine.Boot();

  // Kill cluster 0: fs/ps/tty take over in cluster 1, unprotected halfbacks.
  machine.CrashCluster(0);
  machine.Run(2'000'000);
  EXPECT_EQ(machine.tty_server_addr().primary, 1u);
  EXPECT_EQ(machine.tty_server_addr().backup, kNoCluster);

  // Cluster 0 returns to service: §7.3 "halfbacks have new backups created
  // only when the cluster in which the original primary ran is returned to
  // service".
  machine.RestoreCluster(0);
  machine.Run(2'000'000);
  EXPECT_EQ(machine.tty_server_addr().backup, 0u);
  EXPECT_EQ(machine.file_server_addr().backup, 0u);
  Pcb* parked = machine.kernel(0).FindProcess(Machine::kTtyPid);
  ASSERT_NE(parked, nullptr);
  EXPECT_TRUE(parked->server_backup);
  EXPECT_EQ(parked->state, ProcState::kParkedBackup);
}

TEST(HalfbackRestore, ReprotectedServerSurvivesSecondFailure) {
  MachineOptions options;
  options.config.topology = Topology::SingleSegment(2);
  Machine machine(options);
  machine.Boot();

  machine.CrashCluster(0);
  machine.Run(2'000'000);
  machine.RestoreCluster(0);
  machine.Run(2'000'000);

  // Now kill cluster 1 — the servers' new home. Their re-created backups in
  // cluster 0 must take over and serve a fresh workload.
  machine.CrashCluster(1);
  machine.Run(2'000'000);
  EXPECT_EQ(machine.tty_server_addr().primary, 0u);

  Machine::UserSpawnOptions opts;
  opts.with_tty = true;
  Gpid pid = machine.SpawnUserProgram(0, Digits(5, 4000), opts);
  ASSERT_TRUE(machine.RunUntilAllExited(90'000'000));
  machine.Settle();
  EXPECT_EQ(machine.ExitStatus(pid), 7);
  EXPECT_EQ(machine.TtyOutput(0), "01234");
}

}  // namespace
}  // namespace auragen
