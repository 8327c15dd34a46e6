// Direct test of DESIGN.md invariant 6: a run is a pure function of its
// configuration and seed — two machines given identical inputs produce
// bit-identical transcripts, metrics, and event counts, including through a
// crash and recovery. Every other equivalence test in the suite rests on
// this property.
//
// The check runs through the trace subsystem: each run records a full event
// trace (engine dispatches included) whose FNV digest must match across
// identical-seed runs, and FindFirstDivergence pinpoints the first
// disagreeing event when it does not.

#include <gtest/gtest.h>

#include "src/avm/assembler.h"
#include "src/machine/machine.h"

namespace auragen {
namespace {

struct Observed {
  std::string tty;
  uint64_t messages_sent = 0;
  uint64_t deliveries = 0;
  uint64_t syncs = 0;
  uint64_t takeovers = 0;
  uint64_t suppressed = 0;
  SimTime end_time = 0;
  uint64_t events = 0;
  TraceDigest digest;
  std::vector<TraceEvent> trace;

  friend bool operator==(const Observed& a, const Observed& b) {
    return a.tty == b.tty && a.messages_sent == b.messages_sent &&
           a.deliveries == b.deliveries && a.syncs == b.syncs &&
           a.takeovers == b.takeovers && a.suppressed == b.suppressed &&
           a.end_time == b.end_time && a.events == b.events && a.digest == b.digest;
  }
};

Observed RunOnce(uint64_t seed, bool crash) {
  MachineOptions options;
  options.config.topology = Topology::SingleSegment(3);
  options.seed = seed;
  // Capture everything, engine dispatch firehose included: the digest then
  // covers the complete event-by-event behaviour of the run.
  options.trace.enabled = true;
  options.trace.unbounded = true;
  options.trace.kind_mask = ~uint64_t{0};
  Machine machine(options);
  machine.Boot();

  Executable ping = MustAssemble(R"(
start:
    li r1, name
    li r2, 5
    sys open
    mov r10, r0
    li r8, 0
loop:
    li r11, buf
    st r8, r11, 0
    mov r1, r10
    li r2, buf
    li r3, 4
    sys write
    mov r1, r10
    li r2, buf
    li r3, 4
    sys read
    addi r8, r8, 1
    li r12, 30
    blt r8, r12, loop
    exit 0
.data
name: .ascii "ch:dt"
buf: .word 0
)");
  Executable pong = MustAssemble(R"(
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
    li r11, buf
    ld r2, r11, 0
    li r3, 26
    mod r2, r2, r3
    li r3, 97
    add r2, r2, r3
    li r11, out
    stb r2, r11, 0
    li r1, 2
    li r2, out
    li r3, 1
    sys write
    mov r1, r10
    li r2, buf
    li r3, 4
    sys write
    addi r8, r8, 1
    li r12, 30
    blt r8, r12, loop
    exit 0
.data
name: .ascii "ch:dt"
buf: .word 0
out: .byte 0
)");
  Machine::UserSpawnOptions a;
  a.backup_cluster = 1;
  Machine::UserSpawnOptions b;
  b.backup_cluster = 0;
  b.with_tty = true;
  machine.SpawnUserProgram(0, ping, a);
  machine.SpawnUserProgram(2, pong, b);
  if (crash) {
    machine.CrashClusterAt(machine.Now() + 1'000, 2);
  }
  EXPECT_TRUE(machine.RunUntilAllExited(300'000'000));
  machine.Settle();

  Observed o;
  o.tty = machine.TtyOutput(0);
  o.messages_sent = machine.metrics().messages_sent;
  o.deliveries = machine.metrics().deliveries_primary + machine.metrics().deliveries_backup +
                 machine.metrics().deliveries_count_only;
  o.syncs = machine.metrics().syncs;
  o.takeovers = machine.metrics().takeovers;
  o.suppressed = machine.metrics().sends_suppressed;
  o.end_time = machine.Now();
  o.events = machine.dispatched();
  o.digest = machine.tracer()->digest();
  o.trace = machine.tracer()->Events();
  return o;
}

// On mismatch, fail with the first divergent event rather than a bare hash.
void ExpectSameTrace(const Observed& first, const Observed& second) {
  DivergenceReport report = FindFirstDivergence(first.trace, second.trace);
  EXPECT_FALSE(report.diverged) << report.ToString();
  EXPECT_EQ(first.digest.ToString(), second.digest.ToString());
  EXPECT_TRUE(first == second);
}

TEST(Determinism, IdenticalRunsAreBitIdentical) {
  Observed first = RunOnce(1, false);
  Observed second = RunOnce(1, false);
  ExpectSameTrace(first, second);
  EXPECT_FALSE(first.tty.empty());
  EXPECT_GT(first.digest.count, 0u);
}

TEST(Determinism, HoldsThroughCrashAndRecovery) {
  Observed first = RunOnce(1, true);
  Observed second = RunOnce(1, true);
  ExpectSameTrace(first, second);
  EXPECT_GE(first.takeovers, 1u);
}

TEST(Determinism, CrashedRunMatchesCleanRunExternally) {
  Observed clean = RunOnce(1, false);
  Observed crashed = RunOnce(1, true);
  // Internal traces differ (takeovers, replay), external output must not.
  EXPECT_EQ(clean.tty, crashed.tty);
  EXPECT_NE(clean.events, crashed.events);
  EXPECT_NE(clean.digest, crashed.digest);
}

TEST(Determinism, DivergentRunsAreFlaggedWithContext) {
  // Clean vs crashed run: genuinely different executions. The digests must
  // disagree and the checker must localize the disagreement with context.
  Observed clean = RunOnce(1, false);
  Observed crashed = RunOnce(1, true);
  EXPECT_NE(clean.digest, crashed.digest);
  DivergenceReport report = FindFirstDivergence(clean.trace, crashed.trace);
  EXPECT_TRUE(report.diverged);
  EXPECT_NE(report.description.find("diverge"), std::string::npos);
}

// Negative test for the checker itself: perturb one event of an otherwise
// identical run and the report must name exactly that event.
TEST(Determinism, DivergenceReportPinpointsFirstDifference) {
  Observed first = RunOnce(1, true);
  Observed second = RunOnce(1, true);
  ASSERT_FALSE(FindFirstDivergence(first.trace, second.trace).diverged);

  ASSERT_GT(second.trace.size(), 100u);
  const uint64_t k = second.trace.size() / 2;
  second.trace[k].a ^= 1;  // simulate a mid-run divergence
  DivergenceReport report = FindFirstDivergence(first.trace, second.trace);
  EXPECT_TRUE(report.diverged);
  EXPECT_EQ(report.index, second.trace[k].seq);
  // Context: the report renders both sides of the divergent event.
  EXPECT_NE(report.description.find(FormatTraceEvent(second.trace[k])), std::string::npos);
  EXPECT_NE(report.description.find(FormatTraceEvent(first.trace[k])), std::string::npos);

  // A truncated run is also a divergence, attributed to the first missing seq.
  std::vector<TraceEvent> shorter(first.trace.begin(), first.trace.end() - 1);
  DivergenceReport trunc = FindFirstDivergence(first.trace, shorter);
  EXPECT_TRUE(trunc.diverged);
  EXPECT_EQ(trunc.index, first.trace.back().seq);
}

}  // namespace
}  // namespace auragen
