// E14 — journaled, cache-backed file server (DESIGN.md §19): what group
// commit buys a write-heavy workload. Per-op commit (sync_every_ops=1)
// pays a full log-append + commit-record + home-migration round per write;
// group commit amortizes the same durability over a batch, and the buffer
// cache keeps re-read blocks off the device entirely.
//
//   ops_per_s        churner writes per simulated second
//   write_p99_us     client-observed p99 write latency (kRequestMark pairs)
//   queue_p99_us     p99 disk-queue wait behind the fs actuator
//   commits          durable commit records over the run
//   blocks_per_commit mean batch size a commit carried
//   speedup          group-commit sim-time speedup over per-op commit
//
// Correctness is load-bearing: every run asserts zero read-back mismatches
// (the churners verify their own writes), and the speedup row AURAGEN_CHECKs
// the >= 2x claim — a journal that lost its batching would abort the bench,
// not just slow it down. Simulated counters are deterministic for the fixed
// seed, so check_bench.py gates write_p99_us (gated_counters) on top of the
// wall-clock gate.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "src/machine/machine.h"
#include "src/trace/analysis.h"
#include "src/workload/guest_programs.h"

namespace auragen::bench {

using namespace auragen::workload;
namespace {

constexpr int kChurners = 3;
constexpr int kRecords = 40;

struct ChurnResult {
  SimTime sim_us = 0;           // workload start -> all exited
  uint64_t writes = 0;          // paired write marks
  SimTime write_p99_us = 0;
  SimTime queue_p99_us = 0;
  uint64_t commits = 0;
  double blocks_per_commit = 0;
};

ChurnResult RunChurn(uint32_t sync_every_ops) {
  MachineOptions options;
  options.config.topology = Topology::SingleSegment(2);
  options.seed = 1;
  options.file_server.sync_every_ops = sync_every_ops;
  options.trace.enabled = true;
  options.trace.unbounded = true;
  options.trace.kind_mask = TraceKindBit(TraceEventKind::kRequestMark) |
                            TraceKindBit(TraceEventKind::kDiskQueueWait) |
                            TraceKindBit(TraceEventKind::kFsLogCommit);
  Machine machine(options);
  machine.Boot();
  SimTime start = machine.Now();
  std::vector<Gpid> pids;
  for (int i = 0; i < kChurners; ++i) {
    Machine::UserSpawnOptions w;
    w.backup_cluster = 1;
    pids.push_back(machine.SpawnUserProgram(
        0, FileChurner("jrnl" + std::to_string(i) + ".dat", kRecords, /*pace=*/2), w));
  }
  bool done = machine.RunUntilAllExited(3'000'000'000ull);
  SimTime done_at = machine.Now();
  machine.Settle();
  AURAGEN_CHECK(done);
  for (Gpid pid : pids) {
    AURAGEN_CHECK(machine.ExitStatus(pid) == 0) << "churner lost an acked write";
  }

  const TraceAnalysis a = AnalyzeTrace(machine.tracer()->Events());
  ChurnResult r;
  r.sim_us = done_at - start;
  r.writes = a.request_write_latency.count();
  r.write_p99_us = a.request_write_latency.p99();
  r.queue_p99_us = a.disk_queue_wait.p99();
  r.commits = a.fs_log_commits;
  r.blocks_per_commit = a.fs_commit_blocks.mean_us();
  return r;
}

void BM_JournalWriteThroughput(benchmark::State& state) {
  const uint32_t every = static_cast<uint32_t>(state.range(0));
  for (auto _ : state) {
    ChurnResult r = RunChurn(every);
    state.counters["ops_per_s"] =
        r.sim_us > 0 ? static_cast<double>(r.writes) * 1e6 / static_cast<double>(r.sim_us)
                     : 0;
    state.counters["write_p99_us"] = static_cast<double>(r.write_p99_us);
    state.counters["queue_p99_us"] = static_cast<double>(r.queue_p99_us);
    state.counters["commits"] = static_cast<double>(r.commits);
    state.counters["blocks_per_commit"] = r.blocks_per_commit;
    state.counters["sim_ms"] = static_cast<double>(r.sim_us) / 1000.0;
  }
}

// The headline claim, asserted: group commit at the default interval is at
// least 2x faster (simulated completion time) than committing every op, on
// the same workload, with zero lost writes on either side.
void BM_JournalGroupCommitSpeedup(benchmark::State& state) {
  for (auto _ : state) {
    ChurnResult per_op = RunChurn(1);
    ChurnResult grouped = RunChurn(16);
    const double speedup =
        static_cast<double>(per_op.sim_us) / static_cast<double>(grouped.sim_us);
    AURAGEN_CHECK(speedup >= 2.0)
        << "group commit speedup collapsed: " << speedup << "x";
    state.counters["speedup"] = speedup;
    state.counters["perop_sim_ms"] = static_cast<double>(per_op.sim_us) / 1000.0;
    state.counters["grouped_sim_ms"] = static_cast<double>(grouped.sim_us) / 1000.0;
  }
}

BENCHMARK(BM_JournalWriteThroughput)->Arg(1)->Arg(4)->Arg(16)
    ->Iterations(1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_JournalGroupCommitSpeedup)->Iterations(1)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace auragen::bench

BENCHMARK_MAIN();
