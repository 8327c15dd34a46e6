// Scale tests across the Auragen 4000's configuration range (§7.1: "2 to 32
// clusters"): boots larger machines, spreads communicating work across
// every cluster, and injects a failure far from the servers.

#include <gtest/gtest.h>

#include "src/avm/assembler.h"
#include "src/machine/machine.h"

namespace auragen {
namespace {

Executable Hopper(int index, int hops) {
  // Opens ch:s<i> (reads) and ch:s<i+1> (writes): a token ring segment.
  return MustAssemble(R"(
start:
    li r1, in_name
    li r2, )" + std::to_string(4 + std::to_string(index).size()) + R"(
    sys open
    mov r10, r0
    li r1, out_name
    li r2, )" + std::to_string(4 + std::to_string(index + 1).size()) + R"(
    sys open
    mov r11, r0
    li r8, 0
loop:
    mov r1, r10
    li r2, buf
    li r3, 4
    sys read
    li r13, buf
    ld r2, r13, 0
    addi r2, r2, 1
    st r2, r13, 0
    mov r1, r11
    li r2, buf
    li r3, 4
    sys write
    addi r8, r8, 1
    li r12, )" + std::to_string(hops) + R"(
    blt r8, r12, loop
    exit 0
.data
in_name: .ascii "ch:s)" + std::to_string(index) + R"("
out_name: .ascii "ch:s)" + std::to_string(index + 1) + R"("
buf: .word 0
)");
}

Executable RingHead(int stages, int hops) {
  // Injects a zero token into ch:s0, reads the result from ch:s<stages>,
  // prints it as two decimal digits, repeats `hops` times.
  return MustAssemble(R"(
start:
    li r1, out_name
    li r2, 5
    sys open
    mov r10, r0
    li r1, in_name
    li r2, )" + std::to_string(4 + std::to_string(stages).size()) + R"(
    sys open
    mov r11, r0
    li r8, 0
loop:
    li r13, buf
    li r2, 0
    st r2, r13, 0
    mov r1, r10
    li r2, buf
    li r3, 4
    sys write
    mov r1, r11
    li r2, buf
    li r3, 4
    sys read
    addi r8, r8, 1
    li r12, )" + std::to_string(hops) + R"(
    blt r8, r12, loop
    ; print the final token value (= stages) as 2 digits
    li r13, buf
    ld r2, r13, 0
    li r3, 10
    div r4, r2, r3
    li r5, 48
    add r4, r4, r5
    li r13, out
    stb r4, r13, 0
    li r13, buf
    ld r2, r13, 0
    li r3, 10
    mod r4, r2, r3
    add r4, r4, r5
    li r13, out
    stb r4, r13, 1
    li r1, 2
    li r2, out
    li r3, 2
    sys write
    exit 0
.data
out_name: .ascii "ch:s0"
in_name: .ascii "ch:s)" + std::to_string(stages) + R"("
buf: .word 0
out: .space 4
)");
}

TEST(Scale, SixteenClusterRingWithCrash) {
  MachineOptions options;
  options.config.topology = Topology::SingleSegment(16);
  Machine machine(options);
  machine.Boot();

  const int stages = 14;
  const int hops = 3;
  for (int i = 0; i < stages; ++i) {
    Machine::UserSpawnOptions opts;
    ClusterId home = static_cast<ClusterId>(2 + (i % 14));
    opts.backup_cluster = (home + 1) % 16;
    machine.SpawnUserProgram(home, Hopper(i, hops), opts);
  }
  Machine::UserSpawnOptions head_opts;
  head_opts.with_tty = true;
  head_opts.backup_cluster = 3;
  Gpid head = machine.SpawnUserProgram(2, RingHead(stages, hops), head_opts);

  // Kill a mid-ring cluster once the ring is warm.
  machine.Run(100'000);
  machine.CrashCluster(7);

  ASSERT_TRUE(machine.RunUntilAllExited(3'000'000'000ull)) << "ring stalled";
  machine.Settle();
  EXPECT_EQ(machine.ExitStatus(head), 0);
  EXPECT_EQ(machine.TtyOutput(0), "14");  // token incremented once per stage
  EXPECT_EQ(machine.TtyDuplicates(), 0u);
}

TEST(Scale, ThirtyTwoClustersBootAndRun) {
  MachineOptions options;
  options.config.topology = Topology::SingleSegment(32);
  Machine machine(options);
  machine.Boot();
  std::vector<Gpid> pids;
  Executable job = MustAssemble(R"(
start:
    li r9, 0
spin:
    addi r9, r9, 1
    li r11, 20000
    blt r9, r11, spin
    sys getpid
    exit 0
)");
  for (ClusterId c = 0; c < 32; ++c) {
    Machine::UserSpawnOptions opts;
    opts.backup_cluster = (c + 1) % 32;
    pids.push_back(machine.SpawnUserProgram(c, job, opts));
  }
  ASSERT_TRUE(machine.RunUntilAllExited(3'000'000'000ull));
  machine.Settle();
  for (Gpid pid : pids) {
    EXPECT_EQ(machine.ExitStatus(pid), 0);
  }
}

}  // namespace
}  // namespace auragen
