// E8 — §8.4/§7.10: "Processes unaffected by the crash ... may begin to
// execute before all crash handling has been completed"; crash handling
// scales with routing-table size but unaffected work resumes quickly.
//
// N worker pairs spread over 4 clusters; one cluster is crashed. Each
// surviving cluster detects the crash, dispatches, and finishes its own
// handling; the times below come from those trace events:
//   detect_ms         crash -> first detection (heartbeat timeout, §7.10)
//   first_dispatch_ms first detection -> the first unaffected process back
//                     on a CPU after it
//   handled_ms        first detection -> the last cluster's crash handling
//                     complete (tables patched, backups runnable)
//   takeovers         processes recovered

#include <benchmark/benchmark.h>

#include <algorithm>
#include <optional>

#include "src/machine/machine.h"
#include "src/workload/guest_programs.h"

namespace auragen::bench {

using namespace auragen::workload;
namespace {

void BM_CrashHandlingScale(benchmark::State& state) {
  const int pairs = static_cast<int>(state.range(0));
  for (auto _ : state) {
    MachineOptions options;
    options.config.topology = Topology::SingleSegment(4);
    options.trace.enabled = true;
    options.trace.kind_mask = TraceKindBit(TraceEventKind::kCrashDetect) |
                              TraceKindBit(TraceEventKind::kCrashHandled) |
                              TraceKindBit(TraceEventKind::kRecoveryDispatch);
    Machine machine(options);
    machine.Boot();
    for (int i = 0; i < pairs; ++i) {
      std::string tag = "p" + std::to_string(i);
      ClusterId a = static_cast<ClusterId>(i % 4);
      ClusterId b = static_cast<ClusterId>((i + 2) % 4);
      Machine::UserSpawnOptions ao;
      ao.backup_cluster = (a + 1) % 4;
      Machine::UserSpawnOptions bo;
      bo.backup_cluster = (b + 1) % 4;
      machine.SpawnUserProgram(a, Pinger(tag, 5000), ao);
      machine.SpawnUserProgram(b, Ponger(tag, 5000), bo);
    }
    machine.Run(50'000);
    SimTime crash_time = machine.Now();
    machine.CrashCluster(3);
    machine.Run(3'000'000);

    std::optional<SimTime> detected, first_dispatch;
    SimTime handled = 0;
    for (const TraceEvent& e : machine.tracer()->Events()) {
      if (e.kind == TraceEventKind::kCrashDetect && !detected.has_value()) {
        detected = e.ts;
      } else if (e.kind == TraceEventKind::kRecoveryDispatch && detected.has_value() &&
                 !first_dispatch.has_value()) {
        first_dispatch = e.ts;
      } else if (e.kind == TraceEventKind::kCrashHandled) {
        handled = std::max(handled, e.ts);
      }
    }
    if (!detected.has_value() || !first_dispatch.has_value() || handled < *detected) {
      state.SkipWithError("the crash was not detected, handled and followed by a dispatch");
      break;
    }
    state.counters["detect_ms"] = static_cast<double>(*detected - crash_time) / 1000.0;
    state.counters["first_dispatch_ms"] =
        static_cast<double>(*first_dispatch - *detected) / 1000.0;
    state.counters["handled_ms"] = static_cast<double>(handled - *detected) / 1000.0;
    const Metrics& m = machine.metrics();
    state.counters["takeovers"] = static_cast<double>(m.takeovers);
    state.counters["replayed"] = static_cast<double>(m.rollforward_msgs_replayed);
  }
}

BENCHMARK(BM_CrashHandlingScale)->Arg(2)->Arg(8)->Arg(24)
    ->Iterations(1)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace auragen::bench

BENCHMARK_MAIN();
