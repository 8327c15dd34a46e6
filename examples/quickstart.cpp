// Quickstart: boot a two-cluster Auragen 4000, run a guest program that
// prints to its terminal, crash the cluster it runs in mid-flight, and watch
// the backup take over — output intact, no duplicates, no program changes.
//
//   $ ./examples/quickstart
//
// This is the paper's whole pitch in one screen: fault tolerance is
// transparent (§3.3) — the guest below contains no recovery code at all.

#include <cstdio>

#include "src/avm/assembler.h"
#include "src/machine/machine.h"

using namespace auragen;

int main() {
  MachineOptions options;
  options.config.topology = Topology::SingleSegment(2);
  Machine machine(options);
  machine.Boot();

  // An ordinary sequential program: ten rounds of compute-then-print.
  Executable guest = MustAssemble(R"(
start:
    li r8, 0           ; round
rounds:
    li r9, 0
spin:                  ; simulated work
    addi r9, r9, 1
    li r10, 6000
    blt r9, r10, spin
    li r10, 48
    add r10, r10, r8   ; '0' + round
    li r11, digit
    stb r10, r11, 0
    li r1, 2           ; fd 2: the terminal
    li r2, digit
    li r3, 1
    sys write
    addi r8, r8, 1
    li r10, 10
    blt r8, r10, rounds
    exit 0
.data
digit: .byte 0
)");

  Machine::UserSpawnOptions opts;
  opts.with_tty = true;
  opts.backup_cluster = 0;  // inactive backup lives in cluster 0
  Gpid pid = machine.SpawnUserProgram(/*cluster=*/1, guest, opts);

  std::printf("running guest %s in cluster 1 (backup in cluster 0)...\n",
              GpidStr(pid).c_str());
  machine.Run(55'000);  // ~halfway through the ten rounds
  std::printf("  partial terminal output: \"%s\"\n", machine.TtyOutput(0).c_str());

  std::printf("*** crashing cluster 1 ***\n");
  machine.CrashCluster(1);

  bool finished = machine.RunUntilAllExited(60'000'000);
  machine.Settle();

  std::printf("guest finished: %s, exit status %d\n", finished ? "yes" : "NO",
              finished ? machine.ExitStatus(pid) : -1);
  std::printf("terminal output:  \"%s\"\n", machine.TtyOutput(0).c_str());
  std::printf("duplicates seen:  %llu\n",
              static_cast<unsigned long long>(machine.TtyDuplicates()));

  const Metrics& m = machine.metrics();
  std::printf("\nwhat the message system did behind the scenes:\n");
  std::printf("  syncs                 %8llu   (dirty pages shipped: %llu)\n",
              static_cast<unsigned long long>(m.syncs),
              static_cast<unsigned long long>(m.sync_pages_shipped));
  std::printf("  takeovers             %8llu\n",
              static_cast<unsigned long long>(m.takeovers));
  std::printf("  messages replayed     %8llu   (saved queue, §5.2)\n",
              static_cast<unsigned long long>(m.rollforward_msgs_replayed));
  std::printf("  sends suppressed      %8llu   (duplicate suppression, §5.4)\n",
              static_cast<unsigned long long>(m.sends_suppressed));
  std::printf("  pages demand-faulted  %8llu   (page server, §7.10.2)\n",
              static_cast<unsigned long long>(m.page_faults_served));

  bool ok = finished && machine.TtyOutput(0) == "0123456789" && machine.TtyDuplicates() == 0;
  std::printf("\n%s\n", ok ? "OK: output identical to a failure-free run."
                           : "FAILURE: output diverged!");
  return ok ? 0 : 1;
}
