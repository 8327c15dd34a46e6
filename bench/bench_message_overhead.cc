// E1 — §5.1/§8.1: "Although most messages go to three destinations, they
// are transmitted just once across the intercluster bus. ... Processes
// running on the work processors are not affected by the delivery of the
// two backup copies."
//
// Ping-pong pairs exchange messages with fault tolerance on (msgsys) and
// off (none). Reported per configuration:
//   frames_per_msg   bus transmissions per logical message (claim: ~1.0 both)
//   deliv_per_msg    per-destination deliveries per message (claim: 3 vs 1)
//   exec_us_per_msg  executive-processor time per message (rises with FT)
//   work_us_per_msg  work-processor time per message (claim: FT-invariant)
//   sim_ms           simulated completion time

#include <benchmark/benchmark.h>

#include "src/machine/machine.h"
#include "src/workload/guest_programs.h"

namespace auragen::bench {

using namespace auragen::workload;
namespace {

void RunPairs(benchmark::State& state, FtStrategy strategy) {
  const int pairs = static_cast<int>(state.range(0));
  const int rounds = 200;
  for (auto _ : state) {
    MachineOptions options;
    options.config.topology = Topology::SingleSegment(2);
    options.config.strategy = strategy;
    Machine machine(options);
    machine.Boot();
    SimTime workload_start = machine.Now();
    uint64_t bus_frames_before = machine.bus().stats().frames_sent;
    for (int i = 0; i < pairs; ++i) {
      std::string tag = "pp" + std::to_string(i);
      Machine::UserSpawnOptions a;
      a.backup_cluster = 1;
      Machine::UserSpawnOptions b;
      b.backup_cluster = 0;
      machine.SpawnUserProgram(0, Pinger(tag, rounds), a);
      machine.SpawnUserProgram(1, Ponger(tag, rounds), b);
    }
    bool done = machine.RunUntilAllExited(3'000'000'000ull);
    SimTime done_at = machine.Now();
    machine.Settle();
    AURAGEN_CHECK(done) << "ping-pong stalled";

    const Metrics& m = machine.metrics();
    double msgs = static_cast<double>(m.messages_sent);
    uint64_t frames = machine.bus().stats().frames_sent - bus_frames_before;
    double delivered = static_cast<double>(m.deliveries_primary + m.deliveries_backup +
                                           m.deliveries_count_only);
    state.counters["frames_per_msg"] = static_cast<double>(frames) / msgs;
    state.counters["deliv_per_msg"] = delivered / static_cast<double>(m.deliveries_primary);
    state.counters["exec_us_per_msg"] = static_cast<double>(m.exec_busy_us) / msgs;
    state.counters["work_us_per_msg"] = static_cast<double>(m.work_busy_us) / msgs;
    state.counters["sim_ms"] = static_cast<double>(done_at - workload_start) / 1000.0;
    state.counters["msgs"] = msgs;
  }
}

void BM_MsgSys(benchmark::State& state) { RunPairs(state, FtStrategy::kMessageSystem); }
void BM_NoFt(benchmark::State& state) { RunPairs(state, FtStrategy::kNone); }

BENCHMARK(BM_MsgSys)->Arg(1)->Arg(4)->Arg(8)->Iterations(1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_NoFt)->Arg(1)->Arg(4)->Arg(8)->Iterations(1)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace auragen::bench

BENCHMARK_MAIN();
