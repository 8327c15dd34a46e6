// kvload: closed-loop serving-load driver for the KV guest service
// (src/workload). Boots a machine, deploys the partitioned KV service plus
// N client sessions, optionally injects a mid-run cluster crash, and prints
// the SLO report (p50/p99/p999, goodput) built from kRequestMark trace
// events. Exit status 0 iff every session completed with zero verification
// failures — i.e. no acknowledged write was lost.
//
//   kvload --sessions 1000 --partitions 8 --clusters 8
//   kvload --sync-mode incremental-async
//   kvload --crash-at 40000 --crash-cluster 2
//   kvload --strategy none --replicas 2 --crash-at 40000 --crash-cluster 2

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "src/machine/machine.h"
#include "src/trace/trace.h"
#include "src/workload/kv_service.h"
#include "src/workload/slo.h"

namespace {

void Usage() {
  std::fprintf(
      stderr,
      "usage: kvload [options]\n"
      "  --sessions N        client sessions (default 1000)\n"
      "  --partitions P      KV partitions (default 8)\n"
      "  --requests R        requests per session (default 16)\n"
      "  --clusters C        clusters (default 8)\n"
      "  --segments S        fabric segments (default 1 = single bus); C must\n"
      "                      divide into S equal segments\n"
      "  --switch-latency-us L  store-and-forward switch hop (default 4)\n"
      "  --replicas 1|2      1: message-system FT; 2: app-level P/B (default 1)\n"
      "  --strategy S        msgsys | none (default msgsys)\n"
      "  --sync-mode M       stop-and-copy | incremental | incremental-async\n"
      "  --adaptive-sync     adaptive sync trigger\n"
      "  --sync-reads N      reads-since-sync trigger (0 = machine default)\n"
      "  --read-fraction F   read share of shared ops (default 0.7)\n"
      "  --zipf T            shared-key zipf theta, 0 = uniform (default 0.99)\n"
      "  --think N           think-time spin iterations (default 64)\n"
      "  --seed S            workload + machine seed (default 1)\n"
      "  --crash-at US       crash --crash-cluster at +US us (0 = never)\n"
      "  --crash-cluster C   victim cluster (default 2)\n"
      "  --primary-base N    first primary-server cluster (default 0)\n"
      "  --backup-base N     first app-replica cluster (default 1)\n"
      "  --no-spread         pin all primaries (replicas) to their base cluster\n"
      "  --client-clusters L comma-separated client clusters (default: all)\n"
      "  --run-cap-us US     simulated-time cap (default 2000000000)\n"
      "  --trace FILE        save the (mark-masked) trace\n"
      "  --stats             also print tracedump-style histograms\n"
      "  --digest            print the trace digest (determinism check)\n");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace auragen;
  using namespace auragen::workload;

  KvOptions kv;
  uint32_t clusters = 8;
  uint32_t segments = 1;
  SimTime switch_latency_us = 4;
  FtStrategy strategy = FtStrategy::kMessageSystem;
  SyncPolicy sync_policy;
  SimTime crash_at = 0;
  uint32_t crash_cluster = 2;
  SimTime run_cap_us = 2'000'000'000;
  uint32_t sync_reads_limit = 0;  // 0 = machine default
  std::string trace_path;
  bool stats = false;
  bool digest = false;
  bool verbose = false;
  bool full_trace = false;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        Usage();
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--sessions") {
      kv.sessions = static_cast<uint32_t>(std::strtoul(next(), nullptr, 0));
    } else if (arg == "--partitions") {
      kv.partitions = static_cast<uint32_t>(std::strtoul(next(), nullptr, 0));
    } else if (arg == "--requests") {
      kv.requests_per_session = static_cast<uint32_t>(std::strtoul(next(), nullptr, 0));
    } else if (arg == "--clusters") {
      clusters = static_cast<uint32_t>(std::strtoul(next(), nullptr, 0));
    } else if (arg == "--segments") {
      segments = static_cast<uint32_t>(std::strtoul(next(), nullptr, 0));
    } else if (arg == "--switch-latency-us") {
      switch_latency_us = std::strtoull(next(), nullptr, 0);
    } else if (arg == "--replicas") {
      kv.replicas = static_cast<uint32_t>(std::strtoul(next(), nullptr, 0));
    } else if (arg == "--strategy") {
      std::string s = next();
      if (s == "msgsys") {
        strategy = FtStrategy::kMessageSystem;
      } else if (s == "none") {
        strategy = FtStrategy::kNone;
      } else {
        std::fprintf(stderr, "kvload: unknown strategy '%s'\n", s.c_str());
        return 2;
      }
    } else if (arg == "--sync-mode") {
      std::string mode = next();
      if (mode == "stop-and-copy") {
        sync_policy.mode = SyncMode::kStopAndCopy;
      } else if (mode == "incremental") {
        sync_policy.mode = SyncMode::kIncremental;
      } else if (mode == "incremental-async") {
        sync_policy.mode = SyncMode::kIncrementalAsync;
      } else {
        std::fprintf(stderr, "kvload: unknown sync mode '%s'\n", mode.c_str());
        return 2;
      }
    } else if (arg == "--adaptive-sync") {
      sync_policy.adaptive = true;
    } else if (arg == "--sync-reads") {
      sync_reads_limit = static_cast<uint32_t>(std::strtoul(next(), nullptr, 0));
    } else if (arg == "--read-fraction") {
      kv.read_fraction = std::strtod(next(), nullptr);
    } else if (arg == "--zipf") {
      kv.zipf_theta = std::strtod(next(), nullptr);
    } else if (arg == "--think") {
      kv.think_spin = static_cast<uint32_t>(std::strtoul(next(), nullptr, 0));
    } else if (arg == "--seed") {
      kv.seed = std::strtoull(next(), nullptr, 0);
    } else if (arg == "--primary-base") {
      kv.primary_base = static_cast<uint32_t>(std::strtoul(next(), nullptr, 0));
    } else if (arg == "--backup-base") {
      kv.backup_base = static_cast<uint32_t>(std::strtoul(next(), nullptr, 0));
    } else if (arg == "--no-spread") {
      kv.spread_servers = false;
    } else if (arg == "--client-clusters") {
      const char* list = next();
      kv.client_clusters.clear();
      for (const char* p = list; *p != '\0';) {
        char* end = nullptr;
        kv.client_clusters.push_back(
            static_cast<uint32_t>(std::strtoul(p, &end, 0)));
        p = (*end == ',') ? end + 1 : end;
      }
    } else if (arg == "--crash-at") {
      crash_at = std::strtoull(next(), nullptr, 0);
    } else if (arg == "--crash-cluster") {
      crash_cluster = static_cast<uint32_t>(std::strtoul(next(), nullptr, 0));
    } else if (arg == "--run-cap-us") {
      run_cap_us = std::strtoull(next(), nullptr, 0);
    } else if (arg == "--trace") {
      trace_path = next();
    } else if (arg == "--stats") {
      stats = true;
    } else if (arg == "--verbose") {
      verbose = true;
    } else if (arg == "--full-trace") {
      full_trace = true;
    } else if (arg == "--digest") {
      digest = true;
    } else if (arg == "--help" || arg == "-h") {
      Usage();
      return 0;
    } else {
      std::fprintf(stderr, "kvload: unknown argument '%s'\n", arg.c_str());
      Usage();
      return 2;
    }
  }

  MachineOptions options;
  if (segments < 1 || clusters % segments != 0) {
    std::fprintf(stderr, "kvload: --clusters %u does not divide into --segments %u\n",
                 clusters, segments);
    return 2;
  }
  options.WithTopology(Topology::Uniform(segments, clusters / segments)
                           .WithSwitchLatency(switch_latency_us));
  options.config.strategy = strategy;
  options.config.sync_policy = sync_policy;
  if (sync_reads_limit != 0) options.config.sync_reads_limit = sync_reads_limit;
  options.seed = kv.seed;
  options.trace.enabled = true;
  options.trace.unbounded = true;
  // Only the SLO marks and the crash-recovery envelope: full delivery
  // tracing at thousands of sessions costs gigabytes.
  options.trace.kind_mask = TraceKindBit(TraceEventKind::kRequestMark) |
                            TraceKindBit(TraceEventKind::kCrashDetect) |
                            TraceKindBit(TraceEventKind::kCrashHandled) |
                            TraceKindBit(TraceEventKind::kRecoveryDispatch) |
                            TraceKindBit(TraceEventKind::kTakeover);
  if (full_trace) options.trace.kind_mask = ~0ull;
  Machine machine(options);
  machine.Boot();

  KvDeployment d = DeployKv(machine, kv);
  if (crash_at != 0) {
    std::printf("will crash cluster %u at +%llu us\n", crash_cluster,
                static_cast<unsigned long long>(crash_at));
    machine.CrashClusterAt(machine.Now() + crash_at, crash_cluster);
  }

  const bool done = machine.RunUntil(
      [&] { return KvClientsDone(machine, d); }, run_cap_us);
  machine.Settle();

  const std::vector<TraceEvent> events = machine.tracer()->Events();
  SloReport report = BuildSloReport(events, machine, d, done);
  std::printf("kvload: %u sessions x %u requests, %u partitions, %u replicas, "
              "%u clusters/%u segments, strategy=%s, sync=%s%s, seed=%llu\n",
              kv.sessions, kv.requests_per_session, kv.partitions, kv.replicas,
              clusters, segments, FtStrategyName(strategy),
              SyncModeName(sync_policy.mode), sync_policy.adaptive ? "+adaptive" : "",
              static_cast<unsigned long long>(kv.seed));
  std::printf("%s", report.ToString().c_str());
  // A fault-free run should handle no crash; the accused clusters come from
  // the kCrashDetect marks in the trace.
  std::set<uint64_t> accused;
  for (const TraceEvent& e : events) {
    if (e.kind == TraceEventKind::kCrashDetect) {
      accused.insert(e.a);
    }
  }
  std::string accused_list;
  for (uint64_t c : accused) {
    accused_list += (accused_list.empty() ? "" : ",") + std::to_string(c);
  }
  const BusStats bus = machine.bus().stats();
  std::printf("crashes_handled=%llu accused=%s longest_frame=%lluus (%llu bytes)\n",
              static_cast<unsigned long long>(machine.metrics().crashes_handled),
              accused_list.empty() ? "none" : accused_list.c_str(),
              static_cast<unsigned long long>(bus.max_frame_us),
              static_cast<unsigned long long>(bus.max_frame_bytes));
  if (stats) {
    std::printf("%s", AnalyzeTrace(events).ToString().c_str());
  }
  if (verbose) {
    for (uint32_t s = 0; s < kv.sessions; ++s) {
      const Gpid pid = d.clients[s];
      if (!machine.HasExited(pid)) {
        std::printf("  session %u (partition %u, cluster %u): STUCK\n", s,
                    s % kv.partitions, d.client_clusters[s]);
      } else if (machine.ExitStatus(pid) != 0) {
        std::printf("  session %u (partition %u, cluster %u): status %d\n", s,
                    s % kv.partitions, d.client_clusters[s],
                    machine.ExitStatus(pid));
      }
    }
    for (uint32_t p = 0; p < kv.partitions; ++p) {
      const Gpid pid = d.primaries[p];
      std::printf("  primary %u (cluster %u): %s\n", p,
                  d.primary_clusters[p],
                  machine.HasExited(pid)
                      ? (machine.ExitStatus(pid) == 0 ? "exited 0" : "exited nonzero")
                      : "running");
    }
  }
  if (digest) {
    std::printf("digest: %s\n", machine.tracer()->digest().ToString().c_str());
  }
  if (!trace_path.empty()) {
    if (!machine.tracer()->SaveTo(trace_path)) {
      std::fprintf(stderr, "kvload: cannot write %s\n", trace_path.c_str());
      return 1;
    }
    std::printf("trace saved to %s\n", trace_path.c_str());
  }
  return (report.complete && report.mismatches == 0) ? 0 : 1;
}
