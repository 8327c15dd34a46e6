// End-to-end smoke tests: boot the machine, run guest programs, observe
// terminal output — no failures injected yet.

#include <gtest/gtest.h>

#include <string>

#include "src/avm/assembler.h"
#include "src/machine/machine.h"

namespace auragen {
namespace {

MachineOptions TwoClusters() {
  MachineOptions options;
  options.config.topology = Topology::SingleSegment(2);
  return options;
}

TEST(MachineSmoke, BootsAndSettles) {
  Machine machine(TwoClusters());
  machine.Boot();
  EXPECT_TRUE(machine.ClusterAlive(0));
  EXPECT_TRUE(machine.ClusterAlive(1));
  // Servers live: fs, tty and ps in cluster 0 (beside the parked page
  // backup), the page server in cluster 1.
  auto live = [&](ClusterId c, Gpid pid) {
    const Pcb* pcb = machine.kernel(c).FindProcess(pid);
    return pcb != nullptr && pcb->state != ProcState::kExited &&
           pcb->state != ProcState::kParkedBackup;
  };
  EXPECT_TRUE(live(0, Machine::kFsPid));
  EXPECT_TRUE(live(0, Machine::kTtyPid));
  EXPECT_TRUE(live(0, Machine::kPsPid));
  EXPECT_TRUE(live(1, Machine::kPagePid));
}

TEST(MachineSmoke, HelloWorldOnTty) {
  Machine machine(TwoClusters());
  machine.Boot();
  Executable exe = MustAssemble(R"(
start:
    li r1, 2          ; tty fd
    li r2, msg
    li r3, 13
    sys write
    exit 0
.data
msg: .ascii "hello, world\n"
)");
  Machine::UserSpawnOptions opts;
  opts.with_tty = true;
  Gpid pid = machine.SpawnUserProgram(0, exe, opts);
  ASSERT_TRUE(machine.RunUntilAllExited(2'000'000)) << "program did not exit";
  machine.Settle();
  EXPECT_EQ(machine.ExitStatus(pid), 0);
  EXPECT_EQ(machine.TtyOutput(0), "hello, world\n");
}

TEST(MachineSmoke, DebugPutcAndArithmetic) {
  Machine machine(TwoClusters());
  machine.Boot();
  // Print '0' + (6*7)%10 via the unsafe debug port.
  Executable exe = MustAssemble(R"(
start:
    li r2, 6
    li r3, 7
    mul r2, r2, r3
    li r3, 10
    mod r2, r2, r3
    li r3, 48
    add r1, r2, r3
    sys putc
    exit 5
)");
  Gpid pid = machine.SpawnUserProgram(1, exe);
  ASSERT_TRUE(machine.RunUntilAllExited(2'000'000));
  machine.Settle();
  EXPECT_EQ(machine.ExitStatus(pid), 5);
  EXPECT_EQ(machine.DebugOutput(pid), "2");
}

Executable SpinThenExit(uint32_t iterations, int status) {
  return MustAssemble(R"(
start:
    li r2, 0
    li r3, )" + std::to_string(iterations) + R"(
loop:
    addi r2, r2, 1
    blt r2, r3, loop
    exit )" + std::to_string(status) + "\n");
}

TEST(MachineSmoke, RunUntilAllExitedWaitsForEveryUser) {
  // The first user spawned exits last, and a user spawned after a completed
  // run must be waited for again.
  Machine machine(TwoClusters());
  machine.Boot();
  Gpid slow = machine.SpawnUserProgram(0, SpinThenExit(20000, 1));
  Gpid fast = machine.SpawnUserProgram(1, SpinThenExit(10, 2));
  ASSERT_TRUE(machine.RunUntil([&] { return machine.HasExited(fast); }, 2'000'000));
  EXPECT_FALSE(machine.HasExited(slow));
  ASSERT_TRUE(machine.RunUntilAllExited(2'000'000));
  EXPECT_EQ(machine.ExitStatus(slow), 1);
  EXPECT_EQ(machine.ExitStatus(fast), 2);

  Gpid late = machine.SpawnUserProgram(1, SpinThenExit(20000, 3));
  EXPECT_FALSE(machine.RunUntilAllExited(10));
  EXPECT_FALSE(machine.HasExited(late));
  ASSERT_TRUE(machine.RunUntilAllExited(2'000'000));
  EXPECT_EQ(machine.ExitStatus(late), 3);
}

TEST(MachineSmoke, GettimeGoesThroughProcessServer) {
  Machine machine(TwoClusters());
  machine.Boot();
  // gettime twice; exit 0 iff t2 >= t1 and t1 > 0.
  Executable exe = MustAssemble(R"(
start:
    sys gettime
    mov r10, r0
    sys gettime
    mov r11, r0
    li r12, 0
    beq r10, r12, bad
    blt r11, r10, bad
    exit 0
bad:
    exit 1
)");
  Gpid pid = machine.SpawnUserProgram(0, exe);
  ASSERT_TRUE(machine.RunUntilAllExited(2'000'000));
  machine.Settle();
  EXPECT_EQ(machine.ExitStatus(pid), 0);
}

TEST(MachineSmoke, UserChannelPairing) {
  Machine machine(TwoClusters());
  machine.Boot();
  // Writer opens ch:pipe and sends one message; reader opens and reads it,
  // then emits it to the tty.
  Executable writer = MustAssemble(R"(
start:
    li r1, name
    li r2, 7
    sys open
    mov r10, r0        ; fd
    li r12, 0
    blt r10, r12, bad
    mov r1, r10
    li r2, payload
    li r3, 5
    sys write
    exit 0
bad:
    exit 1
.data
name: .ascii "ch:pipe"
payload: .ascii "pong!"
)");
  Executable reader = MustAssemble(R"(
start:
    li r1, name
    li r2, 7
    sys open
    mov r10, r0
    li r12, 0
    blt r10, r12, bad
    mov r1, r10
    li r2, buf
    li r3, 64
    sys read
    mov r11, r0        ; length
    li r1, 2
    li r2, buf
    mov r3, r11
    sys write          ; echo to tty
    exit 0
bad:
    exit 2
.data
name: .ascii "ch:pipe"
buf: .space 64
)");
  Machine::UserSpawnOptions reader_opts;
  reader_opts.with_tty = true;
  Gpid wpid = machine.SpawnUserProgram(0, writer);
  Gpid rpid = machine.SpawnUserProgram(1, reader, reader_opts);
  ASSERT_TRUE(machine.RunUntilAllExited(5'000'000));
  machine.Settle();
  EXPECT_EQ(machine.ExitStatus(wpid), 0);
  EXPECT_EQ(machine.ExitStatus(rpid), 0);
  EXPECT_EQ(machine.TtyOutput(0), "pong!");
}

TEST(MachineSmoke, FileWriteThenReadBack) {
  Machine machine(TwoClusters());
  machine.Boot();
  Executable prog = MustAssemble(R"(
start:
    li r1, fname
    li r2, 8
    sys open
    mov r10, r0
    li r12, 0
    blt r10, r12, bad
    mov r1, r10
    li r2, payload
    li r3, 11
    sys write          ; file write blocks for the server's status
    li r12, 11
    bne r0, r12, bad
    ; reopen by a second fd and read back
    li r1, fname
    li r2, 8
    sys open
    mov r11, r0
    mov r1, r11
    li r2, buf
    li r3, 64
    sys read
    li r12, 11
    bne r0, r12, bad
    ; compare first byte
    li r2, buf
    ldb r3, r2, 0
    li r12, 'd'
    bne r3, r12, bad
    li r1, 2
    li r2, buf
    li r3, 11
    sys write
    exit 0
bad:
    exit 1
.data
fname: .ascii "data.log"
payload: .ascii "durable 123"
buf: .space 64
)");
  Machine::UserSpawnOptions opts;
  opts.with_tty = true;
  Gpid pid = machine.SpawnUserProgram(0, prog, opts);
  ASSERT_TRUE(machine.RunUntilAllExited(10'000'000));
  machine.Settle();
  EXPECT_EQ(machine.ExitStatus(pid), 0);
  EXPECT_EQ(machine.TtyOutput(0), "durable 123");
}

TEST(MachineSmoke, SyncsHappenDuringExecution) {
  Machine machine(TwoClusters());
  machine.Boot();
  // A loop that reads nothing but runs long enough to trip the time-based
  // sync trigger (§5.2).
  Executable prog = MustAssemble(R"(
start:
    li r2, 0
    li r3, 200000
loop:
    addi r2, r2, 1
    blt r2, r3, loop
    exit 0
)");
  machine.SpawnUserProgram(0, prog);
  ASSERT_TRUE(machine.RunUntilAllExited(30'000'000));
  machine.Settle();
  EXPECT_GT(machine.metrics().syncs, 0u);
  EXPECT_GT(machine.metrics().sync_pages_shipped, 0u);
}

}  // namespace
}  // namespace auragen
