// E5 — §7.7/§8.2: "By deferring the creation of backup processes for as
// long as possible ... we assure that the overhead is limited. In many
// cases, short lived processes will not have to have a backup process or a
// backup page account."
//
// A parent forks a burst of children; children live `spin` instructions and
// exit. With the default (deferred) policy, backups for children that die
// before their first sync are never created; an eager policy (sync
// immediately via a tiny time trigger) pays for every child. Reported:
//   children          processes forked
//   backups_created   backup PCBs actually materialized
//   birth_notices     (cheap) fork announcements — always one per fork
//   shipped_kb        state shipped for backup maintenance
//   sim_ms            completion time

#include <benchmark/benchmark.h>

#include "src/machine/machine.h"
#include "src/workload/guest_programs.h"

namespace auragen::bench {

using namespace auragen::workload;
namespace {

Executable ForkBurst(int children, int child_spin) {
  // Parent forks `children` kids; each kid spins then exits; parent exits.
  return MustAssemble(R"(
start:
    li r7, 0
fork_loop:
    sys fork
    li r12, 0
    beq r0, r12, child
    addi r7, r7, 1
    li r12, )" + std::to_string(children) + R"(
    blt r7, r12, fork_loop
    exit 0
child:
    li r9, 0
spin:
    addi r9, r9, 1
    li r11, )" + std::to_string(child_spin) + R"(
    blt r9, r11, spin
    exit 0
)");
}

void RunBurst(benchmark::State& state, bool eager) {
  const int children = static_cast<int>(state.range(0));
  for (auto _ : state) {
    MachineOptions options;
    options.config.topology = Topology::SingleSegment(2);
    if (eager) {
      options.config.sync_time_limit_us = 200;  // first sync almost at birth
    }
    Machine machine(options);
    machine.Boot();
    SimTime workload_start = machine.Now();
    Machine::UserSpawnOptions w;
    w.backup_cluster = 0;
    machine.SpawnUserProgram(1, ForkBurst(children, 2000), w);
    bool done = machine.RunUntil(
        [&] { return machine.exit_statuses().size() >= static_cast<size_t>(children + 1); },
        3'000'000'000ull);
    SimTime done_at = machine.Now();
    machine.Settle();
    AURAGEN_CHECK(done);

    const Metrics& m = machine.metrics();
    state.counters["children"] = children;
    state.counters["backups_created"] = static_cast<double>(m.backups_created);
    state.counters["birth_notices"] = static_cast<double>(m.birth_notices);
    state.counters["shipped_kb"] =
        static_cast<double>(m.sync_bytes_shipped + m.backup_create_bytes) / 1024.0;
    state.counters["sim_ms"] = static_cast<double>(done_at - workload_start) / 1000.0;
  }
}

void BM_DeferredBackups(benchmark::State& s) { RunBurst(s, /*eager=*/false); }
void BM_EagerBackups(benchmark::State& s) { RunBurst(s, /*eager=*/true); }

BENCHMARK(BM_DeferredBackups)->Arg(4)->Arg(16)->Arg(32)
    ->Iterations(1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_EagerBackups)->Arg(4)->Arg(16)->Arg(32)
    ->Iterations(1)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace auragen::bench

BENCHMARK_MAIN();
