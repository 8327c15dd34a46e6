// Crash-handling and rollforward-recovery tests (§6, §7.10) — the paper's
// central claim: every process survives a single cluster failure, with
// externally visible output unchanged.

#include <gtest/gtest.h>

#include "src/avm/assembler.h"
#include "src/machine/machine.h"

namespace auragen {
namespace {

MachineOptions TwoClusters() {
  MachineOptions options;
  options.config.topology = Topology::SingleSegment(2);
  return options;
}

// Worker: ten rounds of {spin, print digit to tty}; exits 7.
Executable DigitWorker(uint32_t spin = 6000) {
  std::string src = R"(
start:
    li r8, 0           ; round counter
rounds:
    li r9, 0
spin:
    addi r9, r9, 1
    li r10, )" + std::to_string(spin) + R"(
    blt r9, r10, spin
    li r10, 48
    add r10, r10, r8   ; '0' + round
    li r11, digit
    stb r10, r11, 0
    li r1, 2
    li r2, digit
    li r3, 1
    sys write
    addi r8, r8, 1
    li r10, 10
    blt r8, r10, rounds
    exit 7
.data
digit: .byte 0
)";
  return MustAssemble(src);
}

TEST(Recovery, WorkerSurvivesClusterCrash) {
  Machine machine(TwoClusters());
  machine.Boot();
  Machine::UserSpawnOptions opts;
  opts.with_tty = true;
  // Worker in cluster 1, backup in 0; servers in 0 are unaffected by the
  // crash of cluster 1.
  opts.backup_cluster = 0;
  Gpid pid = machine.SpawnUserProgram(1, DigitWorker(), opts);

  // Let it run long enough to sync at least once, then kill its cluster.
  machine.Run(60'000);
  EXPECT_GT(machine.metrics().syncs, 0u);
  machine.CrashCluster(1);

  ASSERT_TRUE(machine.RunUntilAllExited(60'000'000)) << "worker never finished";
  machine.Settle();
  EXPECT_EQ(machine.ExitStatus(pid), 7);
  EXPECT_EQ(machine.TtyOutput(0), "0123456789");
  // The tty server did not crash, so §5.4 suppression alone must have
  // prevented any duplicate: the raw transcript is clean too.
  EXPECT_EQ(machine.TtyDuplicates(), 0u);
  EXPECT_GE(machine.metrics().takeovers, 1u);
}

TEST(Recovery, OutputIdenticalToFailureFreeRun) {
  std::string no_crash_output;
  {
    Machine machine(TwoClusters());
    machine.Boot();
    Machine::UserSpawnOptions opts;
    opts.with_tty = true;
    opts.backup_cluster = 0;
    machine.SpawnUserProgram(1, DigitWorker(), opts);
    ASSERT_TRUE(machine.RunUntilAllExited(60'000'000));
    machine.Settle();
    no_crash_output = machine.TtyOutput(0);
  }
  {
    Machine machine(TwoClusters());
    machine.Boot();
    Machine::UserSpawnOptions opts;
    opts.with_tty = true;
    opts.backup_cluster = 0;
    machine.SpawnUserProgram(1, DigitWorker(), opts);
    machine.Run(45'000);
    machine.CrashCluster(1);
    ASSERT_TRUE(machine.RunUntilAllExited(60'000'000));
    machine.Settle();
    EXPECT_EQ(machine.TtyOutput(0), no_crash_output);
  }
}

TEST(Recovery, PreFirstSyncCrashRestartsFromImage) {
  MachineOptions options = TwoClusters();
  // Make time-triggered syncs rare so the crash precedes the first one.
  options.config.sync_time_limit_us = 10'000'000;
  Machine machine(options);
  machine.Boot();
  Machine::UserSpawnOptions opts;
  opts.with_tty = true;
  opts.backup_cluster = 0;
  Gpid pid = machine.SpawnUserProgram(1, DigitWorker(2000), opts);
  machine.Run(25'000);  // a few digits out, no sync yet
  EXPECT_EQ(machine.metrics().syncs, 0u);
  machine.CrashCluster(1);
  ASSERT_TRUE(machine.RunUntilAllExited(60'000'000));
  machine.Settle();
  EXPECT_EQ(machine.ExitStatus(pid), 7);
  // Restart-from-image recomputes everything; §5.4 suppression still
  // guarantees single delivery of the already-sent digits.
  EXPECT_EQ(machine.TtyOutput(0), "0123456789");
  EXPECT_EQ(machine.TtyDuplicates(), 0u);
  EXPECT_GT(machine.metrics().sends_suppressed, 0u);
}

TEST(Recovery, ServerClusterCrashMovesServersAndKeepsOutput) {
  Machine machine(TwoClusters());
  machine.Boot();
  Machine::UserSpawnOptions opts;
  opts.with_tty = true;
  opts.backup_cluster = 0;
  // Worker lives in cluster 1; every server primary lives in cluster 0
  // except the page server. Crashing cluster 0 forces fs/ps/tty takeovers.
  Gpid pid = machine.SpawnUserProgram(1, DigitWorker(), opts);
  machine.Run(60'000);
  machine.CrashCluster(0);
  ASSERT_TRUE(machine.RunUntilAllExited(60'000'000)) << "worker stalled after server crash";
  machine.Settle();
  EXPECT_EQ(machine.ExitStatus(pid), 7);
  // The exactly-once view must be intact; raw duplicates are allowed only
  // in the window since the tty server's last explicit sync (§7.9).
  EXPECT_EQ(machine.TtyOutput(0), "0123456789");
  EXPECT_LE(machine.TtyDuplicates(), 8u);
  EXPECT_EQ(machine.proc_server_addr().primary, 1u);
  EXPECT_EQ(machine.tty_server_addr().primary, 1u);
  EXPECT_EQ(machine.file_server_addr().primary, 1u);
}

TEST(Recovery, PingPongPairSurvivesCrash) {
  Machine machine(TwoClusters());
  machine.Boot();
  // Two processes bounce a counter 20 times over a paired channel; the
  // responder prints the final value.
  Executable pinger = MustAssemble(R"(
start:
    li r1, name
    li r2, 7
    sys open
    mov r10, r0
    li r8, 0           ; counter
loop:
    li r11, val
    st r8, r11, 0
    mov r1, r10
    li r2, val
    li r3, 4
    sys write
    mov r1, r10
    li r2, val
    li r3, 4
    sys read
    li r11, val
    ld r8, r11, 0
    li r12, 20
    blt r8, r12, loop
    exit 0
.data
name: .ascii "ch:pp"
val: .word 0
)");
  Executable ponger = MustAssemble(R"(
start:
    li r1, name
    li r2, 7
    sys open
    mov r10, r0
loop:
    mov r1, r10
    li r2, val
    li r3, 4
    sys read
    li r12, 0
    beq r0, r12, done   ; EOF: peer exited
    li r11, val
    ld r8, r11, 0
    addi r8, r8, 1
    li r11, val
    st r8, r11, 0
    mov r1, r10
    li r2, val
    li r3, 4
    sys write
    li r12, 20
    blt r8, r12, loop
done:
    ; print 'A' + (count - 20) == 'A'
    li r11, val
    ld r8, r11, 0
    addi r8, r8, 45
    li r11, out
    stb r8, r11, 0
    li r1, 2
    li r2, out
    li r3, 1
    sys write
    exit 0
.data
name: .ascii "ch:pp"
val: .word 0
out: .byte 0
)");
  Machine::UserSpawnOptions popts;
  popts.with_tty = true;
  popts.backup_cluster = 0;
  Machine::UserSpawnOptions qopts;
  qopts.backup_cluster = 1;
  Gpid ping = machine.SpawnUserProgram(0, pinger, qopts);
  Gpid pong = machine.SpawnUserProgram(1, ponger, popts);

  machine.Run(40'000);
  machine.CrashCluster(1);  // kills the ponger (and the page server primary)
  ASSERT_TRUE(machine.RunUntilAllExited(60'000'000));
  machine.Settle();
  EXPECT_EQ(machine.ExitStatus(ping), 0);
  EXPECT_EQ(machine.ExitStatus(pong), 0);
  EXPECT_EQ(machine.TtyOutput(0), "A");  // 20 + 45 = 'A'
}

TEST(Recovery, DeterministicAcrossSeedsAndCrashPoints) {
  // Property sweep: for several crash instants, the deduped output always
  // equals the failure-free run (DESIGN.md invariant 1).
  std::string expected;
  {
    Machine machine(TwoClusters());
    machine.Boot();
    Machine::UserSpawnOptions opts;
    opts.with_tty = true;
    opts.backup_cluster = 0;
    machine.SpawnUserProgram(1, DigitWorker(), opts);
    ASSERT_TRUE(machine.RunUntilAllExited(60'000'000));
    machine.Settle();
    expected = machine.TtyOutput(0);
  }
  ASSERT_EQ(expected, "0123456789");
  for (SimTime crash_at : {25'000u, 35'000u, 50'000u, 65'000u, 80'000u}) {
    Machine machine(TwoClusters());
    machine.Boot();
    Machine::UserSpawnOptions opts;
    opts.with_tty = true;
    opts.backup_cluster = 0;
    Gpid pid = machine.SpawnUserProgram(1, DigitWorker(), opts);
    machine.CrashClusterAt(machine.Now() + crash_at, 1);
    ASSERT_TRUE(machine.RunUntilAllExited(90'000'000)) << "crash at +" << crash_at;
    machine.Settle();
    EXPECT_EQ(machine.ExitStatus(pid), 7) << "crash at +" << crash_at;
    EXPECT_EQ(machine.TtyOutput(0), expected) << "crash at +" << crash_at;
    EXPECT_EQ(machine.TtyDuplicates(), 0u) << "crash at +" << crash_at;
  }
}

}  // namespace
}  // namespace auragen
