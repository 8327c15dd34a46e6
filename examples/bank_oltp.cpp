// bank_oltp: the paper's motivating workload — on-line transaction
// processing (§3). Two teller processes stream transactions to an account
// manager over paired channels; the account manager keeps balances in its
// address space, logs every transaction to a file on the mirrored disk, and
// reports. A cluster crash is injected mid-stream.
//
// The interesting property: no transaction is lost and none is applied
// twice, even though the crash kills the account manager *and* the page
// server primary. Compare the final balances and the on-disk log length
// with the failure-free run.
//
//   $ ./examples/bank_oltp [crash_time_us]     (0 = no crash; default 70000)

#include <cstdio>
#include <cstdlib>
#include <string>

#include "src/machine/machine.h"
#include "src/workload/guest_programs.h"

using namespace auragen;
using workload::AccountManager;
using workload::Teller;

int main(int argc, char** argv) {
  SimTime crash_at = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 70'000;
  constexpr int kTxnsPerTeller = 16;
  constexpr int kTotal = 2 * kTxnsPerTeller;

  MachineOptions options;
  options.config.topology = Topology::SingleSegment(2);
  options.config.sync_reads_limit = 6;
  Machine machine(options);
  machine.Boot();

  Machine::UserSpawnOptions mgr_opts;
  mgr_opts.with_tty = true;
  mgr_opts.backup_cluster = 0;
  Machine::UserSpawnOptions teller_opts;
  teller_opts.backup_cluster = 1;

  Gpid manager = machine.SpawnUserProgram(1, AccountManager(kTotal), mgr_opts);
  machine.SpawnUserProgram(0, Teller("ch:tla", kTxnsPerTeller, 7, 2000), teller_opts);
  machine.SpawnUserProgram(0, Teller("ch:tlb", kTxnsPerTeller, 5, 2600), teller_opts);

  if (crash_at != 0) {
    std::printf("will crash cluster 1 (account manager + page server) at +%llu us\n",
                static_cast<unsigned long long>(crash_at));
    machine.CrashClusterAt(machine.Now() + crash_at, 1);
  }

  bool done = machine.RunUntilAllExited(300'000'000);
  machine.Settle();

  std::printf("all processes finished: %s\n", done ? "yes" : "NO");
  std::printf("terminal: \"%s\"\n", machine.TtyOutput(0).c_str());
  std::printf("expected: \"....%d\" with %d dots and balance %d\n", 16 * 7 + 16 * 5,
              kTotal / 8, 16 * 7 + 16 * 5);
  std::printf("manager exit status: %d\n", done ? machine.ExitStatus(manager) : -1);

  const Metrics& m = machine.metrics();
  std::printf("\nmessage-system activity: %llu sends, %llu syncs, %llu takeovers, "
              "%llu suppressed resends\n",
              static_cast<unsigned long long>(m.messages_sent),
              static_cast<unsigned long long>(m.syncs),
              static_cast<unsigned long long>(m.takeovers),
              static_cast<unsigned long long>(m.sends_suppressed));

  std::string expected = "....0192";
  bool ok = done && machine.TtyOutput(0) == expected;
  std::printf("%s\n", ok ? "OK: ledger consistent after recovery."
                         : "FAILURE: ledger diverged!");
  return ok ? 0 : 1;
}
