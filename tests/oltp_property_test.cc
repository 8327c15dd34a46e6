// Property-based sweep in the paper's motivating environment (§3: on-line
// transaction processing): a client streams debits/credits to an account
// manager; a single cluster crash is injected at a parameterized instant in
// either cluster. For EVERY (cluster, instant) pair the externally visible
// result must equal the failure-free run — DESIGN.md invariant 1 explored
// across the crash-point space rather than at hand-picked times.

#include <gtest/gtest.h>

#include <tuple>

#include "src/avm/assembler.h"
#include "src/machine/machine.h"

namespace auragen {
namespace {

// Client: sends 24 transaction messages {amount = i} on ch:bank, paced.
Executable BankClient() {
  return MustAssemble(R"(
start:
    li r1, name
    li r2, 7
    sys open
    mov r10, r0
    li r8, 1
loop:
    li r9, 0
pace:
    addi r9, r9, 1
    li r11, 1500
    blt r9, r11, pace
    li r11, buf
    st r8, r11, 0
    mov r1, r10
    li r2, buf
    li r3, 4
    sys write
    addi r8, r8, 1
    li r11, 25
    blt r8, r11, loop
    exit 0
.data
name: .ascii "ch:bank"
buf: .word 0
)");
}

// Account manager: applies 24 transactions to a balance held in a data
// page, emits a progress mark every 6, then prints the final balance as
// three decimal digits. 1+2+...+24 = 300.
Executable BankServer() {
  return MustAssemble(R"(
start:
    li r1, name
    li r2, 7
    sys open
    mov r10, r0
    li r8, 0           ; txn count
loop:
    mov r1, r10
    li r2, buf
    li r3, 4
    sys read
    li r11, buf
    ld r2, r11, 0
    li r11, balance
    ld r3, r11, 0
    add r3, r3, r2
    st r3, r11, 0
    addi r8, r8, 1
    ; progress mark every 6 txns
    li r11, 6
    mod r12, r8, r11
    li r11, 0
    bne r12, r11, skip
    li r1, 2
    li r2, mark
    li r3, 1
    sys write
skip:
    li r11, 24
    blt r8, r11, loop
    ; print balance as 3 digits
    li r11, balance
    ld r2, r11, 0
    li r3, 100
    div r4, r2, r3     ; hundreds
    li r5, 48
    add r4, r4, r5
    li r11, out
    stb r4, r11, 0
    li r3, 100
    mod r2, r2, r3
    li r3, 10
    div r4, r2, r3
    add r4, r4, r5
    stb r4, r11, 1
    mod r2, r2, r3
    add r4, r2, r5
    stb r4, r11, 2
    li r1, 2
    li r2, out
    li r3, 3
    sys write
    exit 0
.data
name: .ascii "ch:bank"
buf: .word 0
balance: .word 0
mark: .ascii "."
out: .space 4
)");
}

std::string RunBank(ClusterId crash_cluster, SimTime crash_at, bool* completed) {
  MachineOptions options;
  options.config.topology = Topology::SingleSegment(2);
  options.config.sync_reads_limit = 5;  // sync often enough to matter
  Machine machine(options);
  machine.Boot();
  Machine::UserSpawnOptions sopts;
  sopts.with_tty = true;
  sopts.backup_cluster = 0;
  Machine::UserSpawnOptions copts;
  copts.backup_cluster = 1;
  Gpid server = machine.SpawnUserProgram(1, BankServer(), sopts);
  Gpid client = machine.SpawnUserProgram(0, BankClient(), copts);
  (void)server;
  (void)client;
  ClusterId tty_primary_at_crash = machine.tty_server_addr().primary;
  if (crash_at != 0) {
    machine.CrashClusterAt(machine.Now() + crash_at, crash_cluster);
  }
  *completed = machine.RunUntilAllExited(120'000'000);
  machine.Settle();
  if (crash_cluster == tty_primary_at_crash && crash_at != 0) {
    // The tty server itself died: §7.9 allows re-emission of requests
    // serviced since its last explicit sync. Bounded by the sync interval.
    EXPECT_LE(machine.TtyDuplicates(), machine.config().topology.num_clusters() * 8u);
  } else {
    // User-process recovery alone never duplicates device output (§5.4).
    EXPECT_EQ(machine.TtyDuplicates(), 0u);
  }
  return machine.TtyOutput(0);
}

class OltpCrashSweep : public ::testing::TestWithParam<std::tuple<ClusterId, SimTime>> {};

TEST_P(OltpCrashSweep, BalanceAndMarksSurvive) {
  auto [cluster, crash_at] = GetParam();
  bool completed = false;
  std::string out = RunBank(cluster, crash_at, &completed);
  ASSERT_TRUE(completed) << "stuck: crash of c" << cluster << " at +" << crash_at;
  EXPECT_EQ(out, "....300") << "crash of c" << cluster << " at +" << crash_at;
}

INSTANTIATE_TEST_SUITE_P(
    CrashPoints, OltpCrashSweep,
    ::testing::Combine(::testing::Values(0u, 1u),
                       ::testing::Values(0u, 20'000u, 33'000u, 47'000u, 61'000u, 75'000u,
                                         90'000u, 120'000u, 180'000u)),
    [](const ::testing::TestParamInfo<OltpCrashSweep::ParamType>& param_info) {
      return "c" + std::to_string(std::get<0>(param_info.param)) + "_t" +
             std::to_string(std::get<1>(param_info.param));
    });

}  // namespace
}  // namespace auragen
