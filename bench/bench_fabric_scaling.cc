// E13 — segmented fabric scaling (DESIGN.md §18): delivery latency and
// per-segment bus utilization of the switched multi-segment fabric versus
// the single shared bus, at 8 -> 256 clusters.
//
//   us_per_delivery    mean simulated send->deliver latency per destination
//   max_seg_busy_frac  the busiest segment bus's transmit-busy fraction of
//                      simulated time; on one segment this is THE bus, the
//                      saturation ceiling the fabric exists to break
//   trunk_forwards     segment-masked copies emitted by the trunk sequencer
//   digest_ok          1 iff the machine's trace digest equals the pinned
//                      reference digest (gated)
//
// The offered load scales with the cluster count while the injection window
// stays fixed, so the single-bus rows saturate as clusters grow and the
// segmented rows show sub-linear per-bus utilization growth: most traffic
// stays on its segment bus and only cross-segment multicasts pay the trunk.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "src/base/rng.h"
#include "src/bus/fabric.h"
#include "src/machine/machine.h"
#include "src/sim/engine.h"
#include "src/workload/kv_service.h"

namespace auragen::bench {
namespace {

constexpr size_t kPayloadBytes = 128;
constexpr SimTime kInjectWindowUs = 100'000;
constexpr int kFramesPerCluster = 64;

// The send time rides in the payload head: unlike Frame::sent_at, which a
// forwarded copy reacquires when it re-enters the destination segment's
// arbitration, the payload is shared immutable end to end.
Bytes StampedPayload(SimTime now) {
  Bytes p(kPayloadBytes, 0);
  for (int i = 0; i < 8; ++i) {
    p[static_cast<size_t>(i)] = static_cast<uint8_t>(now >> (8 * i));
  }
  return p;
}

struct LatencyEndpoint : BusEndpoint {
  Engine* engine = nullptr;
  uint64_t received = 0;
  uint64_t latency_sum_us = 0;
  void OnFrame(const Frame& frame) override {
    SimTime sent = 0;
    for (int i = 0; i < 8; ++i) {
      sent |= static_cast<SimTime>((*frame.payload)[static_cast<size_t>(i)]) << (8 * i);
    }
    ++received;
    latency_sum_us += engine->Now() - sent;
  }
};

// Pure fabric run (no kernels): `clusters * kFramesPerCluster` three-target
// multicasts injected evenly across a fixed window, 3/4 segment-local and
// 1/4 spanning a remote segment — the paper's locality assumption that makes
// segmentation pay. The fabric runs on one Engine, as in the machine.
void BM_FabricDelivery(benchmark::State& state) {
  const uint32_t clusters = static_cast<uint32_t>(state.range(0));
  const uint32_t segments = static_cast<uint32_t>(state.range(1));
  const int frames = static_cast<int>(clusters) * kFramesPerCluster;

  for (auto _ : state) {
    const Topology topo = Topology::Uniform(segments, clusters / segments);
    Engine engine;
    Fabric fabric(engine, topo);
    std::vector<LatencyEndpoint> endpoints(clusters);
    for (ClusterId c = 0; c < clusters; ++c) {
      endpoints[c].engine = &engine;
      fabric.AttachEndpoint(c, &endpoints[c]);
    }

    Rng rng(0x9e3779b9u + clusters * 8 + segments);
    for (int i = 0; i < frames; ++i) {
      const SimTime at =
          1 + (static_cast<SimTime>(i) * kInjectWindowUs) / static_cast<SimTime>(frames);
      const ClusterId src = static_cast<ClusterId>(rng.Below(clusters));
      const SegmentId seg = topo.segment_of(src);
      const ClusterId base = topo.segment_base(seg);
      const uint32_t size = topo.segment_size(seg);
      ClusterMask mask;
      if (segments == 1 || !rng.Chance(0.25)) {
        mask = MaskOf(base + static_cast<ClusterId>(rng.Below(size))) |
               MaskOf(base + static_cast<ClusterId>(rng.Below(size)));
      } else {
        mask = MaskOf(static_cast<ClusterId>(rng.Below(clusters))) |
               MaskOf(static_cast<ClusterId>(rng.Below(clusters)));
      }
      mask |= MaskOf((src + 1) % clusters);  // the sender's-backup leg
      engine.ScheduleAt(at, [&engine, &fabric, src, mask] {
        fabric.Transmit(src, mask, StampedPayload(engine.Now()));
      });
    }
    engine.Run();

    uint64_t deliveries = 0;
    uint64_t latency_sum = 0;
    for (const auto& e : endpoints) {
      deliveries += e.received;
      latency_sum += e.latency_sum_us;
    }
    double max_busy = 0;
    for (SegmentId s = 0; s < fabric.num_segments(); ++s) {
      max_busy = std::max(
          max_busy, static_cast<double>(fabric.segment_stats(s).busy_us));
    }
    state.counters["us_per_delivery"] =
        deliveries == 0 ? 0.0
                        : static_cast<double>(latency_sum) / static_cast<double>(deliveries);
    state.counters["max_seg_busy_frac"] =
        max_busy / static_cast<double>(engine.Now());
    state.counters["trunk_forwards"] = static_cast<double>(fabric.trunk_forwards());
    state.counters["deliveries"] = static_cast<double>(deliveries);
  }
}

// The single-bus baseline exists only up to the paper's 32-cluster machine
// (§7.1) — that ceiling is the point. Past it, only segmented rows exist:
// 64 = 2x32, 128 = 4x32, 256 = 8x32.
BENCHMARK(BM_FabricDelivery)
    ->ArgNames({"clusters", "segments"})
    ->Args({8, 1})
    ->Args({8, 2})
    ->Args({32, 1})
    ->Args({32, 4})
    ->Args({64, 2})
    ->Args({128, 4})
    ->Args({256, 8})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

struct RunResult {
  uint64_t dispatched = 0;
  uint64_t trunk_forwards = 0;
  uint64_t digest_hash = 0;
  uint64_t digest_count = 0;
};

// Full-machine run on a segmented topology: boot, deploy the KV workload,
// run to completion. Digest covers every traced event in dispatch order.
RunResult RunSegmentedMachine(uint32_t segments) {
  constexpr uint32_t kClusters = 16;
  MachineOptions mo;
  mo.WithTopology(Topology::Uniform(segments, kClusters / segments));
  mo.seed = 1;
  mo.trace.enabled = true;
  mo.trace.unbounded = false;
  mo.trace.ring_capacity = 4096;
  Machine machine(mo);
  machine.Boot();
  workload::KvOptions kv;
  kv.sessions = kClusters * 4;
  kv.partitions = kClusters / 2;
  kv.requests_per_session = 8;
  kv.seed = 1;
  workload::KvDeployment d = workload::DeployKv(machine, kv);
  machine.RunUntil([&] { return workload::KvClientsDone(machine, d); },
                   600'000'000);
  RunResult r;
  r.dispatched = machine.dispatched();
  r.trunk_forwards = machine.bus().trunk_forwards();
  r.digest_hash = machine.tracer()->digest().hash;
  r.digest_count = machine.tracer()->digest().count;
  return r;
}

// Reference digests per segment count, re-pinned once when the windowed
// engine was retired (one heap, no lookahead hops). Re-pinning one requires
// a stated reason in CHANGES.md: a changed digest means changed behaviour.
RunResult Pinned(uint32_t segments) {
  switch (segments) {
    case 1:
      return RunResult{15292, 0, 0x2b338f729baab71full, 18309};
    case 2:
      return RunResult{21157, 2289, 0x9c2f8ce34ff9ade5ull, 22820};
    case 4:
      return RunResult{23605, 3358, 0x1e50c5a086300556ull, 24633};
    default:
      AURAGEN_PANIC("no pinned digest for this segment count");
  }
}

// The determinism oracle for the fabric machine: the digest must equal the
// pinned one. A fabric that drifts is broken, not fast.
void BM_FabricMachineDigest(benchmark::State& state) {
  const uint32_t segments = static_cast<uint32_t>(state.range(0));
  const RunResult want = Pinned(segments);

  uint64_t dispatched = 0;
  RunResult got;
  for (auto _ : state) {
    got = RunSegmentedMachine(segments);
    dispatched += got.dispatched;
  }

  const bool digest_ok = got.digest_hash == want.digest_hash &&
                         got.digest_count == want.digest_count &&
                         got.dispatched == want.dispatched &&
                         got.trunk_forwards == want.trunk_forwards;
  if (!digest_ok) {
    state.SkipWithError("fabric machine diverged from the pinned digest");
  }
  state.counters["events_per_s"] =
      benchmark::Counter(static_cast<double>(dispatched), benchmark::Counter::kIsRate);
  state.counters["trunk_forwards"] = static_cast<double>(got.trunk_forwards);
  state.counters["digest_ok"] = digest_ok ? 1 : 0;
}

BENCHMARK(BM_FabricMachineDigest)
    ->ArgName("segments")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace auragen::bench

BENCHMARK_MAIN();
