// E6 — §5.1/§7.1: the dual intercluster bus provides serialized atomic
// multicast; a frame costs one transmission regardless of destination count,
// and failover to the second line costs a bounded timeout.
//
// Pure bus-level microbenchmarks (no kernels), on one Engine as in the
// machine. Reported:
//   frames_per_sim_s   multicast throughput at a given cluster count
//   us_per_frame       simulated service time per frame
//   deliveries         per-destination deliveries performed
//   failover pass:     added latency when line 0 is down

#include <benchmark/benchmark.h>

#include "src/bus/intercluster_bus.h"
#include "src/sim/engine.h"

namespace auragen::bench {
namespace {

struct NullEndpoint : BusEndpoint {
  uint64_t received = 0;
  void OnFrame(const Frame&) override { ++received; }
};

void BM_MulticastThroughput(benchmark::State& state) {
  const uint32_t clusters = static_cast<uint32_t>(state.range(0));
  const int frames = 2000;
  for (auto _ : state) {
    Engine engine;
    InterclusterBus bus(engine, BusConfig{}, clusters);
    std::vector<NullEndpoint> endpoints(clusters);
    for (ClusterId c = 0; c < clusters; ++c) {
      bus.AttachEndpoint(c, &endpoints[c]);
    }
    ClusterMask all = 0;
    for (ClusterId c = 0; c < clusters; ++c) {
      all |= MaskOf(c);
    }
    for (int i = 0; i < frames; ++i) {
      // Three-destination pattern: primary dst, dst backup, sender backup.
      ClusterMask mask = clusters <= 3 ? all
                                       : (MaskOf(i % clusters) |
                                          MaskOf((i + 1) % clusters) |
                                          MaskOf((i + 2) % clusters));
      bus.Transmit(i % clusters, mask, Bytes(64, 0));
    }
    engine.Run();
    double sim_s = static_cast<double>(engine.Now()) / 1e6;
    state.counters["frames_per_sim_s"] = frames / sim_s;
    state.counters["us_per_frame"] = static_cast<double>(engine.Now()) / frames;
    state.counters["deliveries"] = static_cast<double>(bus.stats().deliveries);
  }
}

void BM_PayloadSizeSweep(benchmark::State& state) {
  const size_t bytes = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    Engine engine;
    InterclusterBus bus(engine, BusConfig{}, 4);
    std::vector<NullEndpoint> endpoints(4);
    for (ClusterId c = 0; c < 4; ++c) {
      bus.AttachEndpoint(c, &endpoints[c]);
    }
    const int frames = 500;
    for (int i = 0; i < frames; ++i) {
      bus.Transmit(0, MaskOf(1) | MaskOf(2) | MaskOf(3), Bytes(bytes, 0));
    }
    engine.Run();
    state.counters["us_per_frame"] = static_cast<double>(engine.Now()) / frames;
    state.counters["mb_per_sim_s"] =
        static_cast<double>(bus.stats().bytes_sent) / static_cast<double>(engine.Now());
  }
}

void BM_LineFailover(benchmark::State& state) {
  const bool fail = state.range(0) != 0;
  for (auto _ : state) {
    Engine engine;
    InterclusterBus bus(engine, BusConfig{}, 2);
    NullEndpoint a;
    NullEndpoint b;
    bus.AttachEndpoint(0, &a);
    bus.AttachEndpoint(1, &b);
    if (fail) {
      bus.FailLine(0);
    }
    const int frames = 200;
    for (int i = 0; i < frames; ++i) {
      bus.Transmit(0, MaskOf(1), Bytes(64, 0));
    }
    engine.Run();
    state.counters["us_per_frame"] = static_cast<double>(engine.Now()) / frames;
    state.counters["failovers"] = static_cast<double>(bus.stats().failovers);
  }
}

BENCHMARK(BM_MulticastThroughput)->Arg(2)->Arg(4)->Arg(8)->Arg(16)->Arg(32)
    ->Iterations(1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_PayloadSizeSweep)->Arg(16)->Arg(256)->Arg(1024)->Arg(4096)
    ->Iterations(1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_LineFailover)->Arg(0)->Arg(1)->Iterations(1)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace auragen::bench

BENCHMARK_MAIN();
