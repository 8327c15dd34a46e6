// Randomized whole-machine property test (DESIGN.md invariant 1 at scale):
// seeded-random fleets of communicating worker pairs with randomized
// placements, paces, and message counts run on 3 clusters; a crash is
// injected at a seeded-random instant in a seeded-random cluster. For every
// seed, all terminal output must equal the failure-free run of the same
// fleet, exactly once and in order.

#include <gtest/gtest.h>

#include <string>

#include "src/avm/assembler.h"
#include "src/base/rng.h"
#include "src/machine/machine.h"

namespace auragen {
namespace {

struct Fleet {
  struct Pair {
    ClusterId producer_cluster;
    ClusterId consumer_cluster;
    int items;
    int pace;
    uint32_t tty_line;
  };
  std::vector<Pair> pairs;
};

Fleet MakeFleet(uint64_t seed) {
  Rng rng(seed);
  Fleet fleet;
  int n = static_cast<int>(rng.Range(2, 4));
  for (int i = 0; i < n; ++i) {
    Fleet::Pair pair;
    pair.producer_cluster = static_cast<ClusterId>(rng.Below(3));
    pair.consumer_cluster = static_cast<ClusterId>(rng.Below(3));
    pair.items = static_cast<int>(rng.Range(6, 14));
    pair.pace = static_cast<int>(rng.Range(1000, 4000));
    pair.tty_line = static_cast<uint32_t>(i);
    fleet.pairs.push_back(pair);
  }
  return fleet;
}

Executable Producer(int index, int items, int pace) {
  return MustAssemble(R"(
start:
    li r1, name
    li r2, 6
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
name: .ascii "ch:r)" + std::to_string(index) + R"("
buf: .word 0
)");
}

// Consumer folds items into a running sum, printing one letter per item
// ('a' + value%26) so output order and content are both checked.
Executable Consumer(int index, int items) {
  return MustAssemble(R"(
start:
    li r1, name
    li r2, 6
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
name: .ascii "ch:r)" + std::to_string(index) + R"("
buf: .word 0
out: .byte 0
)");
}

// Runs the fleet; returns concatenated per-line outputs ("line0|line1|...").
std::string RunFleet(uint64_t seed, bool crash, ClusterId crash_cluster, SimTime crash_at,
                     bool* completed, uint64_t* duplicates) {
  Fleet fleet = MakeFleet(seed);
  MachineOptions options;
  options.config.topology = Topology::SingleSegment(3);
  options.config.sync_reads_limit = 4;
  options.seed = seed;
  Machine machine(options);
  machine.Boot();
  for (size_t i = 0; i < fleet.pairs.size(); ++i) {
    const Fleet::Pair& pair = fleet.pairs[i];
    Machine::UserSpawnOptions popts;
    popts.backup_cluster = (pair.producer_cluster + 1) % 3;
    Machine::UserSpawnOptions copts;
    copts.backup_cluster = (pair.consumer_cluster + 1) % 3;
    copts.with_tty = true;
    copts.tty_line = pair.tty_line;
    machine.SpawnUserProgram(pair.producer_cluster,
                             Producer(static_cast<int>(i), pair.items, pair.pace), popts);
    machine.SpawnUserProgram(pair.consumer_cluster,
                             Consumer(static_cast<int>(i), pair.items), copts);
  }
  if (crash) {
    machine.CrashClusterAt(machine.Now() + crash_at, crash_cluster);
  }
  *completed = machine.RunUntilAllExited(600'000'000);
  machine.Settle();
  *duplicates = machine.TtyDuplicates();
  std::string out;
  for (size_t i = 0; i < fleet.pairs.size(); ++i) {
    out += machine.TtyOutput(static_cast<uint32_t>(i));
    out += '|';
  }
  return out;
}

class RandomCrashSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomCrashSweep, FleetOutputSurvivesRandomCrash) {
  uint64_t seed = GetParam();
  bool completed = false;
  uint64_t dup = 0;
  std::string expected = RunFleet(seed, false, 0, 0, &completed, &dup);
  ASSERT_TRUE(completed) << "failure-free run stalled, seed " << seed;
  ASSERT_EQ(dup, 0u);

  Rng rng(seed * 7919 + 1);
  ClusterId crash_cluster = static_cast<ClusterId>(rng.Below(3));
  SimTime crash_at = rng.Range(15'000, 120'000);

  std::string crashed = RunFleet(seed, true, crash_cluster, crash_at, &completed, &dup);
  ASSERT_TRUE(completed) << "crashed run stalled: seed " << seed << " cluster "
                         << crash_cluster << " at +" << crash_at;
  EXPECT_EQ(crashed, expected) << "seed " << seed << " cluster " << crash_cluster << " at +"
                               << crash_at;
  if (crash_cluster != 0) {  // cluster 0 hosts the tty server (§7.9 window)
    EXPECT_EQ(dup, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomCrashSweep,
                         ::testing::Range<uint64_t>(1, 21));  // 20 seeded scenarios

}  // namespace
}  // namespace auragen
