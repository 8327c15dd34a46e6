// Integration tests for the syscall surface beyond plain read/write: fork
// with birth notices (§7.7), asynchronous signals and alarm (§7.5.2),
// bunch/which (§7.5.1), and terminal input.

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

TEST(Features, ForkParentAndChildBothRun) {
  Machine machine(TwoClusters());
  machine.Boot();
  // Parent forks; child prints "c", parent prints "p"; both exit.
  Executable prog = MustAssemble(R"(
start:
    sys fork
    li r12, 0
    beq r0, r12, child
    li r1, 'p'
    sys putc
    exit 1
child:
    li r1, 'c'
    sys putc
    exit 2
)");
  Gpid parent = machine.SpawnUserProgram(0, prog);
  ASSERT_TRUE(machine.RunUntil(
      [&] { return machine.exit_statuses().size() >= 2; }, 10'000'000));
  machine.Settle();
  EXPECT_EQ(machine.ExitStatus(parent), 1);
  EXPECT_EQ(machine.exit_statuses().size(), 2u);
  // Parent's pid printout 'p', child's 'c' — order free, both present.
  std::string all = machine.DebugOutput(parent);
  int32_t child_status = -1;
  for (const auto& [pid, status] : machine.exit_statuses()) {
    if (pid != parent.value) {
      child_status = status;
      all += machine.DebugOutput(Gpid{pid});
    }
  }
  EXPECT_EQ(child_status, 2);
  EXPECT_NE(all.find('p'), std::string::npos);
  EXPECT_NE(all.find('c'), std::string::npos);
  EXPECT_GE(machine.metrics().birth_notices, 1u);
}

TEST(Features, ForkedChildCanUseChannels) {
  Machine machine(TwoClusters());
  machine.Boot();
  // Parent forks; the child opens ch:x and sends its computation; the
  // parent reads it and emits to the tty.
  Executable prog = MustAssemble(R"(
start:
    sys fork
    li r12, 0
    beq r0, r12, child
    ; parent: open and read
    li r1, name
    li r2, 4
    sys open
    mov r10, r0
    mov r1, r10
    li r2, buf
    li r3, 8
    sys read
    li r1, 2
    li r2, buf
    li r3, 3
    sys write
    exit 0
child:
    li r1, name
    li r2, 4
    sys open
    mov r10, r0
    mov r1, r10
    li r2, msg
    li r3, 3
    sys write
    exit 0
.data
name: .ascii "ch:x"
msg: .ascii "kid"
buf: .space 8
)");
  Machine::UserSpawnOptions opts;
  opts.with_tty = true;
  machine.SpawnUserProgram(0, prog, opts);
  ASSERT_TRUE(machine.RunUntil(
      [&] { return machine.exit_statuses().size() >= 2; }, 20'000'000));
  machine.Settle();
  EXPECT_EQ(machine.TtyOutput(0), "kid");
}

TEST(Features, ForkedFamilySurvivesCrash) {
  Machine machine(TwoClusters());
  machine.Boot();
  // Parent forks a child, prints 'P' each round on its tty; the child spins
  // and exits 2. The family's cluster crashes mid-run; both must complete
  // with the same identities (exactly two exit records — a re-forked child
  // with a fresh pid would add a third).
  Executable prog = MustAssemble(R"(
start:
    sys fork
    li r12, 0
    beq r0, r12, child
    li r8, 0
rounds:
    li r9, 0
spin:
    addi r9, r9, 1
    li r10, 4000
    blt r9, r10, spin
    li r1, 2
    li r2, out
    li r3, 1
    sys write
    addi r8, r8, 1
    li r10, 6
    blt r8, r10, rounds
    exit 1
child:
    li r9, 0
cspin:
    addi r9, r9, 1
    li r10, 30000
    blt r9, r10, cspin
    exit 2
.data
out: .ascii "P"
)");
  Machine::UserSpawnOptions opts;
  opts.with_tty = true;
  opts.backup_cluster = 0;
  Gpid parent = machine.SpawnUserProgram(1, prog, opts);
  machine.Run(50'000);
  machine.CrashCluster(1);
  ASSERT_TRUE(machine.RunUntil(
      [&] { return machine.exit_statuses().size() >= 2; }, 60'000'000));
  machine.Settle();
  EXPECT_EQ(machine.TtyOutput(0), "PPPPPP");
  EXPECT_EQ(machine.TtyDuplicates(), 0u);
  EXPECT_EQ(machine.exit_statuses().size(), 2u);  // same child pid after replay
  EXPECT_EQ(machine.ExitStatus(parent), 1);
  for (const auto& [pid, status] : machine.exit_statuses()) {
    if (pid != parent.value) {
      EXPECT_EQ(status, 2);
    }
  }
}

TEST(Features, AlarmDeliversSignal) {
  Machine machine(TwoClusters());
  machine.Boot();
  // Install a handler, request an alarm, spin until the handler sets a
  // flag, then exit with it.
  Executable prog = MustAssemble(R"(
start:
    li r1, handler
    sys sigset
    li r1, 3000        ; 3ms alarm
    sys alarm
wait:
    li r11, flag
    ld r2, r11, 0
    li r12, 0
    beq r2, r12, wait
    exit 9
handler:
    li r11, flag
    li r2, 1
    st r2, r11, 0
    sys sigret
.data
flag: .word 0
)");
  Gpid pid = machine.SpawnUserProgram(0, prog);
  ASSERT_TRUE(machine.RunUntilAllExited(20'000'000));
  machine.Settle();
  EXPECT_EQ(machine.ExitStatus(pid), 9);
  // §7.5.2/§8.3: delivery of a non-ignored signal forces a sync.
  EXPECT_GE(machine.metrics().forced_signal_syncs, 1u);
}

TEST(Features, IgnoredSignalIsDiscardedAndCounted) {
  Machine machine(TwoClusters());
  machine.Boot();
  // No handler installed: the alarm signal must be dropped; the process
  // just spins a bit and exits normally.
  Executable prog = MustAssemble(R"(
start:
    li r1, 2000
    sys alarm
    li r2, 0
loop:
    addi r2, r2, 1
    li r3, 30000
    blt r2, r3, loop
    exit 4
)");
  Gpid pid = machine.SpawnUserProgram(0, prog);
  ASSERT_TRUE(machine.RunUntilAllExited(20'000'000));
  machine.Settle();
  EXPECT_EQ(machine.ExitStatus(pid), 4);
  EXPECT_EQ(machine.metrics().forced_signal_syncs, 0u);
}

TEST(Features, BunchAndWhichPickLowestArrival) {
  Machine machine(TwoClusters());
  machine.Boot();
  // Two senders write on two channels; the receiver bunches both fds and
  // uses which twice, echoing in arrival order.
  Executable sender_a = MustAssemble(R"(
start:
    li r1, name
    li r2, 4
    sys open
    mov r1, r0
    li r2, msg
    li r3, 1
    sys write
    exit 0
.data
name: .ascii "ch:a"
msg: .ascii "A"
)");
  Executable sender_b = MustAssemble(R"(
start:
    li r8, 0
delay:
    addi r8, r8, 1
    li r9, 3000
    blt r8, r9, delay
    li r1, name
    li r2, 4
    sys open
    mov r1, r0
    li r2, msg
    li r3, 1
    sys write
    exit 0
.data
name: .ascii "ch:b"
msg: .ascii "B"
)");
  Executable receiver = MustAssemble(R"(
start:
    li r1, name_a
    li r2, 4
    sys open
    mov r5, r0
    li r1, name_b
    li r2, 4
    sys open
    mov r6, r0
    ; bunch {fd_a, fd_b}
    li r11, fds
    st r5, r11, 0
    st r6, r11, 4
    li r1, fds
    li r2, 2
    sys bunch
    mov r7, r0        ; group id
    li r8, 0          ; rounds done
again:
    mov r1, r7
    sys which
    mov r1, r0        ; readable fd
    li r2, buf
    li r3, 1
    sys read
    li r1, 2
    li r2, buf
    li r3, 1
    sys write
    addi r8, r8, 1
    li r9, 2
    blt r8, r9, again
    exit 0
.data
name_a: .ascii "ch:a"
name_b: .ascii "ch:b"
fds: .space 8
buf: .space 4
)");
  Machine::UserSpawnOptions ropts;
  ropts.with_tty = true;
  machine.SpawnUserProgram(0, sender_a);
  machine.SpawnUserProgram(0, sender_b);
  machine.SpawnUserProgram(1, receiver, ropts);
  ASSERT_TRUE(machine.RunUntil(
      [&] { return machine.exit_statuses().size() >= 3; }, 30'000'000));
  machine.Settle();
  // Sender A writes immediately, B after a delay: arrival order is "AB".
  EXPECT_EQ(machine.TtyOutput(0), "AB");
}

// Opens `channel` (four bytes, "ch:x"), spins `delay` loop iterations,
// writes the one byte `byte` and exits.
Executable DelayedSender(const std::string& channel, char byte, int delay) {
  return MustAssemble(R"(
start:
    li r1, name
    li r2, 4
    sys open
    mov r5, r0
    li r8, 0
delay:
    addi r8, r8, 1
    li r9, )" + std::to_string(delay) + R"(
    blt r8, r9, delay
    mov r1, r5
    li r2, msg
    li r3, 1
    sys write
    exit 0
.data
name: .ascii ")" + channel + R"("
msg: .ascii ")" + std::string(1, byte) + R"("
)");
}

// Whether `pid`'s primary entries on cluster 1 (descriptors 3 and up)
// include one that satisfies `pred`.
bool AnyUserEntry(Machine& machine, Gpid pid, const std::function<bool(const RoutingEntry&)>& pred) {
  bool found = false;
  machine.kernel(1).routing().ForEach([&](RoutingEntry& e) {
    found = found || (e.owner == pid && !e.backup_entry && e.fd >= 3 && pred(e));
  });
  return found;
}

bool BlockedInWhich(Machine& machine, Gpid pid) {
  const Pcb* p = machine.kernel(1).FindProcess(pid);
  return p != nullptr && p->state == ProcState::kBlockedWhich;
}

TEST(Features, WhichIgnoresOlderMessageOutsideGroup) {
  Machine machine(TwoClusters());
  machine.Boot();
  // Group {b} waits while A's older message sits on a; group {a, b} then
  // proves A's message is the older one by returning a.
  Executable receiver = MustAssemble(R"(
start:
    li r1, name_a
    li r2, 4
    sys open
    mov r5, r0
    li r1, name_b
    li r2, 4
    sys open
    mov r6, r0
    li r11, fds
    st r6, r11, 0
    st r5, r11, 4
    st r6, r11, 8
    li r1, fds
    li r2, 1
    sys bunch         ; {fd_b}
    mov r7, r0
    li r1, fds
    addi r1, r1, 4
    li r2, 2
    sys bunch         ; {fd_a, fd_b}
    mov r10, r0
    mov r1, r7
    sys which
    bne r0, r6, bad1
    mov r1, r10
    sys which
    bne r0, r5, bad2
    exit 0
bad1:
    exit 1
bad2:
    exit 2
.data
name_a: .ascii "ch:a"
name_b: .ascii "ch:b"
fds: .space 12
)");
  machine.SpawnUserProgram(0, DelayedSender("ch:a", 'A', 0));
  machine.SpawnUserProgram(0, DelayedSender("ch:b", 'B', 3000));
  Gpid rpid = machine.SpawnUserProgram(1, receiver);
  ASSERT_TRUE(machine.RunUntilAllExited(30'000'000));
  EXPECT_EQ(machine.ExitStatus(rpid), 0);
}

TEST(Features, WhichSkipsDescriptorClosedAfterBunch) {
  Machine machine(TwoClusters());
  machine.Boot();
  // The receiver learns that a is readable, closes it unread and waits
  // again. a's entry outlives the close until the next sync, A's message
  // still queued, so the second `which` must skip it and return b.
  Executable receiver = MustAssemble(R"(
start:
    li r1, name_a
    li r2, 4
    sys open
    mov r5, r0
    li r1, name_b
    li r2, 4
    sys open
    mov r6, r0
    li r11, fds
    st r5, r11, 0
    st r6, r11, 4
    li r1, fds
    li r2, 2
    sys bunch
    mov r7, r0
    mov r1, r7
    sys which
    bne r0, r5, bad1
    mov r1, r5
    sys close
    mov r1, r7
    sys which
    bne r0, r6, bad2
    exit 0
bad1:
    exit 1
bad2:
    exit 2
.data
name_a: .ascii "ch:a"
name_b: .ascii "ch:b"
fds: .space 8
)");
  Machine::UserSpawnOptions ropts;
  ropts.sync_reads_limit = 1000;  // no sync removes the closed entry early
  ropts.sync_time_limit_us = 60'000'000;
  machine.SpawnUserProgram(0, DelayedSender("ch:a", 'A', 0));
  machine.SpawnUserProgram(0, DelayedSender("ch:b", 'B', 20000));
  Gpid rpid = machine.SpawnUserProgram(1, receiver, ropts);
  ASSERT_TRUE(machine.RunUntil(
      [&] {
        return BlockedInWhich(machine, rpid) &&
               AnyUserEntry(machine, rpid, [](const RoutingEntry& e) {
                 return e.closed_local && !e.queue().empty();
               });
      },
      30'000'000));
  ASSERT_TRUE(machine.RunUntilAllExited(30'000'000));
  EXPECT_EQ(machine.ExitStatus(rpid), 0);
}

TEST(Features, WhichBlockedOnEmptyGroupWakesOnFirstArrival) {
  Machine machine(TwoClusters());
  machine.Boot();
  Executable receiver = MustAssemble(R"(
start:
    li r1, name_a
    li r2, 4
    sys open
    mov r5, r0
    li r1, name_b
    li r2, 4
    sys open
    mov r6, r0
    li r11, fds
    st r5, r11, 0
    st r6, r11, 4
    li r1, fds
    li r2, 2
    sys bunch
    mov r1, r0
    sys which
    bne r0, r6, bad
    exit 0
bad:
    exit 1
.data
name_a: .ascii "ch:a"
name_b: .ascii "ch:b"
fds: .space 8
)");
  machine.SpawnUserProgram(0, DelayedSender("ch:a", 'A', 40000));
  machine.SpawnUserProgram(0, DelayedSender("ch:b", 'B', 20000));
  Gpid rpid = machine.SpawnUserProgram(1, receiver);
  // The wait begins with nothing queued on either descriptor.
  ASSERT_TRUE(machine.RunUntil(
      [&] {
        return BlockedInWhich(machine, rpid) &&
               !AnyUserEntry(machine, rpid,
                             [](const RoutingEntry& e) { return !e.queue().empty(); });
      },
      30'000'000));
  ASSERT_TRUE(machine.RunUntilAllExited(30'000'000));
  EXPECT_EQ(machine.ExitStatus(rpid), 0);
}

TEST(Features, TtyInputReachesReader) {
  Machine machine(TwoClusters());
  machine.Boot();
  Executable prog = MustAssemble(R"(
start:
    li r1, 2
    li r2, buf
    li r3, 16
    sys read           ; await terminal input
    mov r4, r0
    li r1, 2
    li r2, buf
    mov r3, r4
    sys write          ; echo back
    exit 0
.data
buf: .space 16
)");
  Machine::UserSpawnOptions opts;
  opts.with_tty = true;
  Gpid pid = machine.SpawnUserProgram(0, prog, opts);
  machine.Run(30'000);  // give the write binding time to register
  machine.InjectTtyInput(0, "echo-me", machine.Now() + 1000);
  ASSERT_TRUE(machine.RunUntilAllExited(20'000'000));
  machine.Settle();
  EXPECT_EQ(machine.ExitStatus(pid), 0);
  EXPECT_EQ(machine.TtyOutput(0), "echo-me");
}

TEST(Features, CtrlCDeliversSigint) {
  Machine machine(TwoClusters());
  machine.Boot();
  Executable prog = MustAssemble(R"(
start:
    li r1, handler
    sys sigset
    li r1, 2
    li r2, buf
    li r3, 4
    sys write          ; bind the tty line (first output)
wait:
    li r11, flag
    ld r2, r11, 0
    li r12, 0
    beq r2, r12, wait
    exit 3
handler:
    li r11, flag
    li r2, 1
    st r2, r11, 0
    sys sigret
.data
buf: .ascii "hi!\n"
flag: .word 0
)");
  Machine::UserSpawnOptions opts;
  opts.with_tty = true;
  Gpid pid = machine.SpawnUserProgram(1, prog, opts);
  machine.Run(40'000);
  machine.InjectTtyInput(0, "\x03", machine.Now() + 1000);
  ASSERT_TRUE(machine.RunUntilAllExited(30'000'000));
  machine.Settle();
  EXPECT_EQ(machine.ExitStatus(pid), 3);
}

TEST(Features, EofOnPeerExit) {
  Machine machine(TwoClusters());
  machine.Boot();
  // Peer writes one message and exits; reader reads the message, then gets
  // EOF (0) on the next read.
  Executable writer = MustAssemble(R"(
start:
    li r1, name
    li r2, 4
    sys open
    mov r1, r0
    li r2, name
    li r3, 2
    sys write
    exit 0
.data
name: .ascii "ch:e"
)");
  Executable reader = MustAssemble(R"(
start:
    li r1, name
    li r2, 4
    sys open
    mov r10, r0
    mov r1, r10
    li r2, buf
    li r3, 8
    sys read
    li r12, 2
    bne r0, r12, bad    ; first read: 2 bytes
    mov r1, r10
    li r2, buf
    li r3, 8
    sys read
    li r12, 0
    bne r0, r12, bad    ; second read: EOF
    exit 0
bad:
    exit 1
.data
name: .ascii "ch:e"
buf: .space 8
)");
  machine.SpawnUserProgram(0, writer);
  Gpid rpid = machine.SpawnUserProgram(1, reader);
  ASSERT_TRUE(machine.RunUntilAllExited(30'000'000));
  machine.Settle();
  EXPECT_EQ(machine.ExitStatus(rpid), 0);
}

TEST(Features, GetpidIsClusterTagged) {
  Machine machine(TwoClusters());
  machine.Boot();
  Executable prog = MustAssemble(R"(
start:
    sys getpid
    li r2, 24
    shr r1, r0, r2     ; top byte = cluster
    sys exit
)");
  Gpid p0 = machine.SpawnUserProgram(0, prog);
  Gpid p1 = machine.SpawnUserProgram(1, prog);
  ASSERT_TRUE(machine.RunUntilAllExited(5'000'000));
  machine.Settle();
  EXPECT_EQ(machine.ExitStatus(p0), 0);
  EXPECT_EQ(machine.ExitStatus(p1), 1);
}

TEST(Features, DeliveryLatencyAggregatesAccrue) {
  Machine machine(TwoClusters());
  machine.Boot();
  // Cross-cluster writer/reader: every delivered message contributes one
  // bus-accept -> executive-arrival latency sample.
  Executable writer = MustAssemble(R"(
start:
    li r1, name
    li r2, 5
    sys open
    mov r10, r0
    li r8, 0
loop:
    mov r1, r10
    li r2, buf
    li r3, 4
    sys write
    addi r8, r8, 1
    li r12, 8
    blt r8, r12, loop
    exit 0
.data
name: .ascii "ch:dl"
buf: .word 7
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
    li r3, 4
    sys read
    addi r8, r8, 1
    li r12, 8
    blt r8, r12, loop
    exit 0
.data
name: .ascii "ch:dl"
buf: .word 0
)");
  machine.SpawnUserProgram(0, writer);
  machine.SpawnUserProgram(1, reader);
  ASSERT_TRUE(machine.RunUntilAllExited(30'000'000));
  machine.Settle();
  const Metrics& m = machine.metrics();
  EXPECT_GE(m.delivery_latency_samples, 8u);
  EXPECT_GT(m.delivery_latency_us_total, 0u);
  // Each sample crossed the bus, so the mean is at least one transit.
  EXPECT_GE(m.delivery_latency_us_total / m.delivery_latency_samples, 1u);
  // No crash: no rollforward time accrued.
  EXPECT_EQ(m.rollforward_replay_us, 0u);
}

TEST(Features, RollforwardReplayTimeAccruesOnCrash) {
  Machine machine(TwoClusters());
  machine.Boot();
  Executable prog = MustAssemble(R"(
start:
    li r8, 0
rounds:
    li r9, 0
spin:
    addi r9, r9, 1
    li r10, 4000
    blt r9, r10, spin
    addi r8, r8, 1
    li r10, 8
    blt r8, r10, rounds
    exit 3
)");
  Machine::UserSpawnOptions opts;
  opts.backup_cluster = 0;
  Gpid pid = machine.SpawnUserProgram(1, prog, opts);
  machine.Run(50'000);
  ASSERT_EQ(machine.metrics().rollforward_replay_us, 0u);
  machine.CrashCluster(1);
  ASSERT_TRUE(machine.RunUntilAllExited(60'000'000));
  machine.Settle();
  EXPECT_EQ(machine.ExitStatus(pid), 3);
  const Metrics& m = machine.metrics();
  EXPECT_GE(m.takeovers, 1u);
  // Crash handling (backup promotion + server work) takes measurable time.
  EXPECT_GT(m.rollforward_replay_us, 0u);
}

}  // namespace
}  // namespace auragen
