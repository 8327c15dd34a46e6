// Multi-failure crash-path regression tests: overlapping crash windows,
// crashes landing between a sync's page shipment and its apply, a backup
// cluster dying before its primary (fullback re-protection), a freshly
// chosen replacement-backup cluster dying before peers consume its
// kBackupReady, and a live cluster declared dead. Each scenario failed
// (stall, lost message, or AURAGEN_CHECK fire) at some point during
// development of the fault-injection campaign; the reproducing faultcamp
// seeds are recorded in tests/fault_campaign_test.cc.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/avm/assembler.h"
#include "src/machine/machine.h"

namespace auragen {
namespace {

MachineOptions FourClusters() {
  MachineOptions options;
  options.config.topology = Topology::SingleSegment(4);
  options.config.sync_reads_limit = 4;
  options.trace.enabled = true;
  options.trace.unbounded = true;
  return options;
}

// Paced producer: writes items 1..N on a named channel.
Executable Producer(int items, int pace) {
  return MustAssemble(R"(
start:
    li r1, name
    li r2, 4
    sys open
    mov r10, r0
    li r8, 1
loop:
    li r9, 0
pace:
    addi r9, r9, 1
    li r11, )" + std::to_string(pace) + R"(
    blt r9, r11, pace
    li r11, buf
    st r8, r11, 0
    mov r1, r10
    li r2, buf
    li r3, 4
    sys write
    addi r8, r8, 1
    li r11, )" + std::to_string(items + 1) + R"(
    blt r8, r11, loop
    exit 0
.data
name: .ascii "ch:m"
buf: .word 0
)");
}

// Consumer: reads N items, echoes each as a letter on its tty line.
Executable Consumer(int items) {
  return MustAssemble(R"(
start:
    li r1, name
    li r2, 4
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
    addi r8, r8, 1
    li r11, )" + std::to_string(items) + R"(
    blt r8, r11, loop
    exit 0
.data
name: .ascii "ch:m"
buf: .word 0
out: .byte 0
)");
}

struct PairHandles {
  Gpid producer;
  Gpid consumer;
};

PairHandles SpawnPair(Machine& machine, ClusterId pc, ClusterId pb, ClusterId cc,
                      ClusterId cb, int items, int pace, BackupMode mode) {
  Machine::UserSpawnOptions popts;
  popts.mode = mode;
  popts.backup_cluster = pb;
  Machine::UserSpawnOptions copts;
  copts.mode = mode;
  copts.backup_cluster = cb;
  copts.with_tty = true;
  copts.tty_line = 0;
  PairHandles h;
  h.producer = machine.SpawnUserProgram(pc, Producer(items, pace), popts);
  h.consumer = machine.SpawnUserProgram(cc, Consumer(items), copts);
  return h;
}

std::string ExpectedOutput(int items) {
  std::string want;
  for (int i = 1; i <= items; ++i) {
    want.push_back(static_cast<char>('a' + (i % 26)));
  }
  return want;
}

// First trace event of `kind` for `pid` at or after `after`; 0 if none.
SimTime FirstEventAt(Machine& machine, TraceEventKind kind, Gpid pid, SimTime after) {
  for (const TraceEvent& ev : machine.tracer()->Events()) {
    if (ev.kind == kind && ev.gpid == pid.value && ev.ts >= after) {
      return ev.ts;
    }
  }
  return 0;
}

// Two clusters die within one crash-scan window. Survivors must keep
// transmission disabled until BOTH crash handlers have drained
// (Kernel::pending_crash_handlers_) — releasing after the first would flush
// messages still addressed with routing state naming the second dead
// cluster. The workload's backups sit on the dying clusters so the rebuild
// path runs under the overlapped handling too.
TEST(MultiFailure, TwoClustersCrashWithinOneScanWindow) {
  constexpr int kItems = 9;
  Machine machine(FourClusters());
  machine.Boot();
  PairHandles pair = SpawnPair(machine, /*pc=*/0, /*pb=*/2, /*cc=*/1, /*cb=*/3,
                               kItems, /*pace=*/5000, BackupMode::kFullback);
  machine.CrashClusterAt(machine.Now() + 30'000, 2);
  machine.CrashClusterAt(machine.Now() + 30'001, 3);
  ASSERT_TRUE(machine.RunUntilAllExited(600'000'000));
  machine.Settle();
  EXPECT_EQ(machine.ExitStatus(pair.producer), 0);
  EXPECT_EQ(machine.ExitStatus(pair.consumer), 0);
  EXPECT_EQ(machine.TtyOutput(0), ExpectedOutput(kItems));
  EXPECT_EQ(machine.TtyDuplicates(), 0u);
}

// A crash landing between a sync's page shipment and the backup's apply of
// the sync record: the backup must recover from the *previous* coherent
// sync (page account and context stage together, §7.8 atomicity). The ship
// time is harvested from an identical fault-free run, so the crash lands in
// the window deterministically.
TEST(MultiFailure, CrashBetweenPageShipAndSync) {
  constexpr int kItems = 9;
  SimTime ship_at = 0;
  Gpid probe_consumer;
  {
    Machine reference(FourClusters());
    reference.Boot();
    PairHandles pair = SpawnPair(reference, 0, 2, 1, 3, kItems, 5000,
                                 BackupMode::kFullback);
    probe_consumer = pair.consumer;
    ASSERT_TRUE(reference.RunUntilAllExited(600'000'000));
    ship_at = FirstEventAt(reference, TraceEventKind::kPageShip, pair.consumer, 0);
    ASSERT_NE(ship_at, 0u) << "reference run never synced the consumer";
  }
  Machine machine(FourClusters());
  machine.Boot();
  PairHandles pair = SpawnPair(machine, 0, 2, 1, 3, kItems, 5000,
                               BackupMode::kFullback);
  ASSERT_EQ(pair.consumer.value, probe_consumer.value);
  // +2µs: after the dirty pages and sync record are enqueued at c1, before
  // the backup at c3 applies them (bus latency alone is longer).
  machine.CrashClusterAt(ship_at + 2, 1);
  ASSERT_TRUE(machine.RunUntilAllExited(600'000'000));
  machine.Settle();
  EXPECT_EQ(machine.ExitStatus(pair.producer), 0);
  EXPECT_EQ(machine.ExitStatus(pair.consumer), 0);
  EXPECT_EQ(machine.TtyOutput(0), ExpectedOutput(kItems));
}

// Sequential failures against one fullback process: first its backup
// cluster dies (the kernel must re-establish protection — and peers must
// freeze the channels until the replacement's location is announced), then
// the primary dies. The replacement backup must hold every message the
// primary read after the first crash, or takeover trips the saved-queue
// invariant in ApplySyncAtBackup.
TEST(MultiFailure, BackupClusterDiesThenPrimaryDies) {
  constexpr int kItems = 12;
  // Reference run with only the backup crash: harvest a delivery to the
  // consumer well after re-protection, so the primary crash below lands
  // while the consumer is provably still running.
  SimTime late_read_at = 0;
  {
    Machine reference(FourClusters());
    reference.Boot();
    PairHandles pair = SpawnPair(reference, /*pc=*/0, /*pb=*/1, /*cc=*/2,
                                 /*cb=*/3, kItems, /*pace=*/5000,
                                 BackupMode::kFullback);
    SimTime base = reference.Now();
    reference.CrashClusterAt(base + 30'000, 3);
    ASSERT_TRUE(reference.RunUntilAllExited(600'000'000));
    late_read_at = FirstEventAt(reference, TraceEventKind::kDeliverPrimary,
                                pair.consumer, base + 60'000);
    ASSERT_NE(late_read_at, 0u) << "no delivery after re-protection";
  }
  Machine machine(FourClusters());
  machine.Boot();
  PairHandles pair = SpawnPair(machine, /*pc=*/0, /*pb=*/1, /*cc=*/2, /*cb=*/3,
                               kItems, /*pace=*/5000, BackupMode::kFullback);
  SimTime base = machine.Now();
  machine.CrashClusterAt(base + 30'000, 3);    // consumer's backup dies
  machine.CrashClusterAt(late_read_at + 10, 2);  // then the consumer's primary
  ASSERT_TRUE(machine.RunUntilAllExited(600'000'000));
  machine.Settle();
  // Non-vacuous: the consumer must actually have been taken over (the
  // second crash landed before it finished).
  EXPECT_NE(FirstEventAt(machine, TraceEventKind::kTakeover, pair.consumer, 0), 0u);
  EXPECT_EQ(machine.ExitStatus(pair.producer), 0);
  EXPECT_EQ(machine.ExitStatus(pair.consumer), 0);
  EXPECT_EQ(machine.TtyOutput(0), ExpectedOutput(kItems));
}

// The cluster chosen as a takeover's replacement backup dies right after
// the takeover — around the time peers are consuming kBackupReady and
// releasing writes held for the frozen fullback. The new primary must
// rebuild at yet another cluster and re-announce; held senders must not
// release into the void or stay frozen forever.
TEST(MultiFailure, ReplacementBackupClusterDiesBeforeReadyConsumed) {
  constexpr int kItems = 12;
  // Consumer primary c2, backup c3: crashing c2 moves it to c3, and the
  // replacement backup lands at c0 (lowest live cluster). Crashing c0 next
  // leaves c1 — a server home — alive throughout; killing both homes would
  // be unsurvivable by design, not a recovery bug.
  SimTime takeover_at = 0;
  {
    Machine reference(FourClusters());
    reference.Boot();
    PairHandles pair = SpawnPair(reference, /*pc=*/1, /*pb=*/3, /*cc=*/2,
                                 /*cb=*/3, kItems, 5000, BackupMode::kFullback);
    reference.CrashClusterAt(reference.Now() + 40'000, 2);
    ASSERT_TRUE(reference.RunUntilAllExited(600'000'000));
    takeover_at = FirstEventAt(reference, TraceEventKind::kTakeover, pair.consumer, 0);
    ASSERT_NE(takeover_at, 0u) << "reference run never took over the consumer";
  }
  Machine machine(FourClusters());
  machine.Boot();
  PairHandles pair = SpawnPair(machine, /*pc=*/1, /*pb=*/3, /*cc=*/2,
                               /*cb=*/3, kItems, 5000, BackupMode::kFullback);
  machine.CrashClusterAt(machine.Now() + 40'000, 2);
  // The consumer takes over at c3 and (c2 dead) rebuilds its backup at the
  // lowest free cluster, c0; kill c0 moments after the takeover, while
  // kBackupReady and the held releases are still in flight.
  machine.CrashClusterAt(takeover_at + 30, 0);
  ASSERT_TRUE(machine.RunUntilAllExited(600'000'000));
  machine.Settle();
  EXPECT_EQ(machine.ExitStatus(pair.producer), 0);
  EXPECT_EQ(machine.ExitStatus(pair.consumer), 0);
  EXPECT_EQ(machine.TtyOutput(0), ExpectedOutput(kItems));
}

// A message's save leg arriving after the destination's backup entry
// flipped to primary (takeover already ran) must be delivered to the
// flipped entry, not dropped: both legs ride one bus transmission, so a
// late save leg is a message the dead primary never read. Reproduces the
// process-kill race where the victim's peer sent with stale routing in the
// few microseconds between the kill and its own kProcCrash notice.
TEST(MultiFailure, SaveLegArrivingAfterTakeoverFlipIsDelivered) {
  constexpr int kItems = 9;
  SimTime read_at = 0;
  {
    Machine reference(FourClusters());
    reference.Boot();
    PairHandles pair = SpawnPair(reference, 0, 2, 1, 3, kItems, 5000,
                                 BackupMode::kQuarterback);
    ASSERT_TRUE(reference.RunUntilAllExited(600'000'000));
    // A mid-stream delivery to the consumer: kill it just before the next one.
    read_at = FirstEventAt(reference, TraceEventKind::kDeliverPrimary,
                           pair.consumer, 30'000);
    ASSERT_NE(read_at, 0u);
  }
  Machine machine(FourClusters());
  machine.Boot();
  PairHandles pair = SpawnPair(machine, 0, 2, 1, 3, kItems, 5000,
                               BackupMode::kQuarterback);
  Gpid victim = pair.consumer;
  machine.ScheduleControlAt(read_at + 200, [&machine, victim] {
    machine.FailProcess(1, victim);
  });
  ASSERT_TRUE(machine.RunUntilAllExited(600'000'000));
  machine.Settle();
  EXPECT_EQ(machine.ExitStatus(pair.producer), 0);
  EXPECT_EQ(machine.ExitStatus(pair.consumer), 0);
  EXPECT_EQ(machine.TtyOutput(0), ExpectedOutput(kItems));
}

// Records every frame a cluster receives, then hands it to the kernel.
class FrameLog : public BusEndpoint {
 public:
  struct Arrival {
    ClusterId src = kNoCluster;
    MsgKind kind = MsgKind::kUser;
    ClusterId accused = kNoCluster;  // kCrashNotice only
    SimTime at = 0;
  };

  FrameLog(Machine& machine, ClusterId cluster)
      : machine_(machine), kernel_(machine.kernel(cluster)) {
    machine.bus().AttachEndpoint(cluster, this);
  }

  void OnFrame(const Frame& frame) override {
    MsgView msg = MsgView::Parse(frame.payload);
    Arrival a{frame.src, msg.header.kind, kNoCluster, machine_.Now()};
    if (a.kind == MsgKind::kCrashNotice) {
      a.accused = Decode<CrashNoticeBody>(msg.body()).dead;
    }
    arrivals.push_back(a);
    kernel_.OnFrame(frame);
  }

  std::vector<Arrival> arrivals;

 private:
  Machine& machine_;
  Kernel& kernel_;
};

// A dual-line outage longer than the heartbeat timeout: both clusters of a
// two-cluster machine declare each other dead. The first crash notice the
// bus accepts fences its accused, which keeps running until the notice
// reaches it; nothing the accused sends after the notice — its own notice
// included — may reach the survivor, or the survivor fences itself too and
// the machine is lost. A restart lifts the fence: the restarted cluster's
// first frames reach the survivor.
TEST(MultiFailure, FalselyAccusedClusterIsCutOffAtTheNotice) {
  MachineOptions options;
  options.trace.enabled = true;
  Machine machine(options);
  machine.Boot();
  FrameLog logs[2] = {FrameLog(machine, 0), FrameLog(machine, 1)};
  const SimTime dark = machine.Now() + 5'000;
  machine.ScheduleControlAt(dark, [&machine] {
    machine.FailBusLine(0);
    machine.FailBusLine(1);
  });
  machine.ScheduleControlAt(dark + 20'000, [&machine] {
    machine.RestoreBusLine(0);
    machine.RestoreBusLine(1);
  });
  machine.Run(60'000);

  ClusterId survivor = kNoCluster;
  ClusterId accused = kNoCluster;
  for (const FrameLog& log : logs) {
    for (const FrameLog::Arrival& a : log.arrivals) {
      if (a.kind == MsgKind::kCrashNotice && survivor == kNoCluster) {
        survivor = a.src;
        accused = a.accused;
      }
    }
  }
  ASSERT_NE(survivor, kNoCluster) << "the outage declared no cluster dead";
  ASSERT_NE(accused, survivor);
  EXPECT_TRUE(machine.ClusterAlive(survivor));
  EXPECT_FALSE(machine.ClusterAlive(accused));

  const SimTime restart = machine.Now();
  machine.RestoreCluster(accused);
  machine.Run(20'000);
  EXPECT_TRUE(machine.ClusterAlive(survivor));

  bool noticed = false;
  bool after_restart = false;
  for (const FrameLog::Arrival& a : logs[survivor].arrivals) {
    if (a.at >= restart) {
      after_restart = after_restart || (a.src == accused && a.kind != MsgKind::kHeartbeat);
    } else if (noticed) {
      EXPECT_NE(a.src, accused) << MsgKindName(a.kind) << " from the accused at t=" << a.at
                                << ", after its crash notice";
    }
    noticed = noticed || (a.kind == MsgKind::kCrashNotice && a.accused == accused);
  }
  EXPECT_TRUE(noticed);
  EXPECT_TRUE(after_restart) << "the restarted cluster's frames never reached the survivor";
}

}  // namespace
}  // namespace auragen
