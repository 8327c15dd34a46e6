// perfbench: the repository benchmark (see NOTES.md for why each workload
// exists and which layer metric should move which end-to-end metric).
//
// Runs one named workload through the library's public API only — Machine,
// DeployKv, KvClientsDone, BuildSloReport, RunCampaign and AnalyzeTrace —
// and times each layer from outside, around those calls. Every iteration's
// output is checked (KV: every session complete with zero verification
// failures; campaign: zero failed scenarios) and failures are counted, not
// fatal. Writes one JSON document per run with every metric, its unit and
// its sample count; a traced run also writes its span file.
//
//   perfbench --workload kv-steady --seed 1 --seconds 30 --trace 0 --out DIR
//   perfbench --selftest
//
// A run cycles through the input sets --seed makes, once each and then for as
// long as --seconds allow, and reports each host time as the mean over input
// sets of the fastest repetition; a KV run_s takes RunUntil chunk by chunk at
// its fastest (KvRunSeconds). Simulated-time metrics and counters
// are deterministic for an input set (every repetition must reproduce them
// exactly) and are reported as their mean over the input sets.
//
// --trace 0 measures the end-to-end metrics with tracing at kvload's minimal
// mask (request marks plus the crash envelope). --trace 1 follows every
// untraced iteration with a traced one of the same input set (full kind mask,
// benchmark-side spans) and reports the per-layer metrics.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/fault/campaign.h"
#include "src/machine/machine.h"
#include "src/trace/analysis.h"
#include "src/trace/trace.h"
#include "src/workload/kv_service.h"
#include "src/workload/slo.h"

namespace {

using namespace auragen;
using namespace auragen::workload;
using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

// Nearest-rank percentile (q in [0,1]).
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(q * static_cast<double>(v.size()) + 0.999999);
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

// Calls fn(0), fn(1), ...: `min_calls` times, then as long as one more
// call at the mean pace so far would end within `seconds`.
template <typename Fn>
void RepeatFor(double seconds, size_t min_calls, Fn&& fn) {
  const Clock::time_point start = Clock::now();
  for (size_t i = 0;; ++i) {
    const double elapsed = Seconds(start, Clock::now());
    if (i >= min_calls && elapsed * (i + 1) / i > seconds) return;
    fn(i);
  }
}

// Host time of a phase: the mean over input sets of each set's fastest
// repetition. Other tenants of a shared host only ever slow an iteration
// down, by up to a half for seconds at a time, so the fastest repetition is
// the steadiest estimate of the program's own cost; the mean over sets evens
// out how much work each set's inputs carry. reps[i] ran input set i % sets.
template <typename T, typename Get>
double Fastest(const std::vector<T>& reps, size_t sets, Get get) {
  std::vector<double> best(sets, std::numeric_limits<double>::infinity());
  for (size_t i = 0; i < reps.size(); ++i) best[i % sets] = std::min(best[i % sets], get(reps[i]));
  double sum = 0;
  for (double b : best) sum += b;
  return sum / static_cast<double>(sets);
}

double Sum(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) sum += x;
  return sum;
}

// ---------------------------------------------------------------------------
// Metrics document.

struct Metric {
  double value = 0.0;
  std::string unit;
  uint64_t samples = 0;
};

struct MetricName {
  const char* name;
  const char* unit;
};

// Every per-layer metric, so a workload that does not exercise a layer still
// reports it (as a zero with zero samples) and every traced document has the
// same key set.
constexpr MetricName kPerLayer[] = {
    {"machine.boot_s", "s"},
    {"workload.deploy_s", "s"},
    {"workload.done_check_s", "s"},
    {"workload.done_check_calls", "count"},
    {"workload.done_check_share", "ratio"},
    {"machine.run_until_s", "s"},
    {"machine.settle_s", "s"},
    {"workload.slo_report_s", "s"},
    {"sim.events", "count"},
    {"sim.shards", "count"},
    {"sim.host_ns_per_event", "ns"},
    {"sim.sim_time_us", "us"},
    {"core.messages_sent", "count"},
    {"core.deliveries_primary", "count"},
    {"core.deliveries_backup", "count"},
    {"core.deliveries_count_only", "count"},
    {"core.delivery_latency_mean_us", "us"},
    {"core.exec_busy_us", "us"},
    {"core.work_busy_us", "us"},
    {"core.syncs", "count"},
    {"core.sync_pages_shipped", "count"},
    {"core.sync_primary_stall_us", "us"},
    {"core.sync_drain_async_us", "us"},
    {"core.backup_msgs_trimmed", "count"},
    {"paging.page_writes", "count"},
    {"paging.page_faults_served", "count"},
    {"disk.page.writes", "count"},
    {"disk.page.busy_us", "us"},
    {"disk.page.queue_wait_us", "us"},
    {"core.crashes_handled", "count"},
    {"core.takeovers", "count"},
    {"core.sends_suppressed", "count"},
    {"core.rollforward_msgs_replayed", "count"},
    {"core.rollforward_replay_us", "us"},
    {"bus.frames_sent", "count"},
    {"bus.deliveries", "count"},
    {"bus.bytes_sent", "bytes"},
    {"bus.busy_frac", "ratio"},
    {"bus.failovers", "count"},
    {"bus.failover_wait_us", "us"},
    {"disk.fs.writes", "count"},
    {"disk.fs.batches", "count"},
    {"disk.fs.busy_us", "us"},
    {"disk.fs.queue_wait_us", "us"},
    {"disk.fs.max_queue_depth", "count"},
    {"servers.server_syncs", "count"},
    {"servers.fs_log_commits", "count"},
    {"fault.scenarios", "count"},
    {"fault.failed", "count"},
    {"fault.scenario_s.p50", "s"},
    {"fault.scenario_s.p95", "s"},
    {"bus.delivery_latency_p99_us", "us"},
    {"core.sync_stall_p99_us", "us"},
    {"core.crash_to_recovered_p99_us", "us"},
    {"disk.queue_wait_p99_us", "us"},
    {"trace.events", "count"},
    {"trace.overhead_s", "s"},
};

// Simulated-time metrics of the KV workloads.
constexpr MetricName kKvSim[] = {
    {"sim_goodput_rps", "req/s"}, {"sim_p50_us", "us"},      {"sim_p99_us", "us"},
    {"sim_p999_us", "us"},        {"sim_read_p99_us", "us"}, {"sim_write_p99_us", "us"},
    {"sim_recovery_us", "us"},
};

class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit,
           uint64_t samples = 1) {
    metrics_[name] = Metric{value, unit, samples};
  }
  // Adds the listed metrics this workload did not set, as zero-sample zeros.
  void FillAbsent(const MetricName* names, size_t n) {
    for (size_t i = 0; i < n; ++i) {
      metrics_.try_emplace(names[i].name, Metric{0.0, names[i].unit, 0});
    }
  }
  // Sets each metric of `reports` (one per input set) to its mean over
  // them; sample counts add up.
  void SetMeanOf(const std::vector<Report>& reports) {
    for (const auto& [name, first] : reports.front().metrics_) {
      Metric mean{0.0, first.unit, 0};
      for (const Report& r : reports) {
        const Metric& m = r.metrics_.at(name);
        mean.value += m.value / static_cast<double>(reports.size());
        mean.samples += m.samples;
      }
      metrics_[name] = mean;
    }
  }
  double value(const std::string& name) const { return metrics_.at(name).value; }
  const std::map<std::string, Metric>& metrics() const { return metrics_; }

 private:
  std::map<std::string, Metric> metrics_;
};

// ---------------------------------------------------------------------------
// Benchmark-side spans: one per public call, kept in memory and written out
// when the run ends.

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  // 0: root
  std::string name;
  double start_s = 0.0;  // since the run started
  double end_s = 0.0;
};

class SpanLog {
 public:
  explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

  uint64_t Begin(const std::string& name, uint64_t parent) {
    Span s;
    s.id = spans_.size() + 1;
    s.parent = parent;
    s.name = name;
    s.start_s = Seconds(origin_, Clock::now());
    spans_.push_back(s);
    return s.id;
  }
  void End(uint64_t id) { spans_[id - 1].end_s = Seconds(origin_, Clock::now()); }

  bool Write(const std::string& path, const std::string& run_id) const {
    std::ofstream out(path);
    out << "{\"run_id\": \"" << JsonEscape(run_id) << "\", \"unit\": \"s\", \"spans\": [\n";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char line[256];
      std::snprintf(line, sizeof(line),
                    "  {\"id\": %" PRIu64 ", \"parent\": %" PRIu64
                    ", \"name\": \"%s\", \"start\": %.9f, \"end\": %.9f}%s\n",
                    s.id, s.parent, JsonEscape(s.name).c_str(), s.start_s, s.end_s,
                    i + 1 < spans_.size() ? "," : "");
      out << line;
    }
    out << "]}\n";
    return static_cast<bool>(out);
  }

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

// Times `fn` into `*seconds`, and records it as a span when `spans` is set.
template <typename Fn>
void Timed(SpanLog* spans, uint64_t parent, const char* name, double* seconds, Fn&& fn) {
  const uint64_t id = spans != nullptr ? spans->Begin(name, parent) : 0;
  const Clock::time_point t0 = Clock::now();
  fn();
  *seconds = Seconds(t0, Clock::now());
  if (spans != nullptr) spans->End(id);
}

// What a run hands back: the report, the correctness tally, and a
// fingerprint of the seed's sim facts and trace digests for the determinism
// self-check.
struct RunResult {
  Report report;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;
  std::vector<std::string> problems;
  std::string fingerprint;
};

// ---------------------------------------------------------------------------
// KV workloads.

struct KvSpec {
  uint32_t clusters = 8;
  uint32_t partitions = 8;
  double read_fraction = 0.70;
  SyncMode sync_mode = SyncMode::kIncremental;
  SimTime crash_after_us = 0;  // after deploy; 0 = fault-free
  ClusterId crash_cluster = 2;
  uint32_t input_sets = 1;  // KvInputSeed(N, i) for i < input_sets
};

// kvload's defaults: 8 clusters on one bus segment, 8 partitions, 70% reads.
// Seeds differ here: some cut ~5% more window barriers and cost ~10% more
// host time, so a run averages two. More sets would leave too few
// repetitions of each for KvRunSeconds to find quiet moments of the host.
constexpr KvSpec kKvSteady{8, 8, 0.70, SyncMode::kIncremental, 0, 2, 2};
// The paper's maximum of 32 clusters on one segment, write-heavy, async sync,
// one cluster crash mid-run. Seeds do the same work to within 0.1%.
constexpr KvSpec kKvWriteFailover{32, 16, 0.20, SyncMode::kIncrementalAsync, 200'000, 2, 1};

constexpr uint32_t kSessions = 1000;
constexpr uint32_t kRequestsPerSession = 16;
// A run completes in ~0.75 s of simulated time; the cap only bounds a stuck
// session, which then counts as failed requests.
constexpr SimTime kKvRunCapUs = 5'000'000;
// RunUntil is timed in chunks of this many done-check calls (window
// barriers), ~0.5 ms of host time each on kv-steady. The simulation is
// deterministic, so every repetition of an input set cuts the same chunks.
constexpr uint64_t kChunkCalls = 64;

// Input set i of --seed N: the ((N * input_sets + i) mod pool)-th seed of
// [1, kKvSeedSpan] that completes. kKvFailingSeeds leave a session stuck
// with a verification failure in fault-free kv-steady at this commit (a
// protocol bug left for a bugfix; NOTES.md); every kv-write-failover seed in
// the span completes.
constexpr uint64_t kKvSeedSpan = 300;
constexpr uint64_t kKvFailingSeeds[] = {42, 58, 84, 120, 156, 172};

uint64_t KvInputSeed(const KvSpec& spec, uint64_t seed, size_t set) {
  const uint64_t pool = kKvSeedSpan - std::size(kKvFailingSeeds);
  uint64_t skip = (seed * spec.input_sets + set) % pool;
  for (uint64_t s = 1;; ++s) {
    if (std::find(std::begin(kKvFailingSeeds), std::end(kKvFailingSeeds), s) !=
        std::end(kKvFailingSeeds)) {
      continue;
    }
    if (skip-- == 0) return s;
  }
}

// kvload's minimal mask: the SLO marks plus the crash-recovery envelope.
constexpr uint64_t kMinimalMask = TraceKindBit(TraceEventKind::kRequestMark) |
                                  TraceKindBit(TraceEventKind::kCrashDetect) |
                                  TraceKindBit(TraceEventKind::kCrashHandled) |
                                  TraceKindBit(TraceEventKind::kRecoveryDispatch) |
                                  TraceKindBit(TraceEventKind::kTakeover);

KvOptions KvWorkloadOptions(const KvSpec& spec, uint64_t seed) {
  KvOptions kv;  // zipf 0.99 shared keys, 64 think-time spins
  kv.sessions = kSessions;
  kv.requests_per_session = kRequestsPerSession;
  kv.partitions = spec.partitions;
  kv.read_fraction = spec.read_fraction;
  kv.seed = seed;
  return kv;
}

MachineOptions KvMachineOptions(const KvSpec& spec, uint64_t seed, bool full_trace) {
  MachineOptions mo;
  mo.WithTopology(Topology::SingleSegment(spec.clusters))
      .WithSyncMode(spec.sync_mode)
      .WithSeed(seed)
      .WithEngineThreads(1)
      .WithTrace(true);
  mo.trace.unbounded = true;
  mo.trace.kind_mask = full_trace ? ~uint64_t{0} : kMinimalMask;
  return mo;
}

// Both drives of a mirrored pair, added to `acc` (queue depth: the deepest).
DiskStats SumDrives(MirroredDisk& disk, DiskStats acc) {
  for (int i = 0; i < 2; ++i) {
    const DiskStats& s = disk.drive(i).stats();
    acc.writes += s.writes;
    acc.batches += s.batches;
    acc.busy_us += s.busy_us;
    acc.queue_wait_us += s.queue_wait_us;
    acc.max_queue_depth = std::max(acc.max_queue_depth, s.max_queue_depth);
  }
  return acc;
}

// The deterministic outcome of one KV iteration: equal across repeats of an
// input set and between traced and untraced runs of it.
struct KvSimFacts {
  SloReport slo;
  SimTime recovery_us = 0;
  uint64_t events = 0;
  SimTime end_us = 0;
  TraceDigest digest;  // over kMinimalMask events only

  bool operator==(const KvSimFacts& o) const {
    return slo.completed == o.slo.completed && slo.mismatches == o.slo.mismatches &&
           slo.complete == o.slo.complete && slo.p50_us == o.slo.p50_us &&
           slo.p99_us == o.slo.p99_us && slo.p999_us == o.slo.p999_us &&
           slo.read_p99_us == o.slo.read_p99_us && slo.write_p99_us == o.slo.write_p99_us &&
           slo.goodput_rps == o.slo.goodput_rps && recovery_us == o.recovery_us &&
           events == o.events && end_us == o.end_us && digest == o.digest;
  }
  std::string Fingerprint() const {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "completed=%" PRIu64 " p50=%" PRIu64 " p99=%" PRIu64 " p999=%" PRIu64
                  " recovery=%" PRIu64 " events=%" PRIu64 " digest=%s",
                  slo.completed, slo.p50_us, slo.p99_us, slo.p999_us, recovery_us, events,
                  digest.ToString().c_str());
    return buf;
  }
};

struct KvIteration {
  uint64_t seed = 0;
  KvSimFacts facts;
  // Host seconds.
  double construct_s = 0, boot_s = 0, deploy_s = 0, run_until_s = 0, settle_s = 0,
         slo_report_s = 0, done_check_s = 0;
  uint64_t done_check_calls = 0;
  // RunUntil's host time cut at every kChunkCalls-th done-check call.
  std::vector<double> chunk_s;
  double setup_s() const { return construct_s + boot_s + deploy_s; }
  uint64_t planned = 0;
  uint64_t failed = 0;  // planned requests never completed + verification failures
  // Layer counters.
  Metrics m;
  BusStats bus;
  DiskStats fs_disk;
  DiskStats page_disk;
  uint32_t shards = 0;
  SimTime run_sim_us = 0;   // simulated time RunUntil covered
  uint64_t run_events = 0;  // events dispatched by RunUntil + Settle
  // Traced iterations only.
  uint64_t trace_events = 0;
  TraceAnalysis analysis;
};

// One construct-boot-deploy-run-report cycle. `spans` is null for untraced
// iterations: those call KvClientsDone bare and record no spans.
KvIteration RunKvIteration(const KvSpec& spec, uint64_t seed, SpanLog* spans) {
  const bool traced = spans != nullptr;
  KvIteration it;
  it.seed = seed;
  const uint64_t root = traced ? spans->Begin("kv.iteration", 0) : 0;

  std::unique_ptr<Machine> machine;
  Timed(spans, root, "machine.construct", &it.construct_s, [&] {
    machine = std::make_unique<Machine>(KvMachineOptions(spec, seed, traced));
  });
  Timed(spans, root, "machine.boot", &it.boot_s, [&] { machine->Boot(); });
  KvDeployment d;
  Timed(spans, root, "workload.deploy", &it.deploy_s,
        [&] { d = DeployKv(*machine, KvWorkloadOptions(spec, seed)); });

  SimTime crash_at = 0;
  if (spec.crash_after_us != 0) {
    crash_at = machine->Now() + spec.crash_after_us;
    machine->CrashClusterAt(crash_at, spec.crash_cluster);
  }

  const SimTime run_start = machine->Now();
  const uint64_t events_start = machine->dispatched();
  bool done = false;
  uint64_t calls = 0;
  Clock::time_point chunk_start;
  auto end_chunk = [&] {
    const Clock::time_point now = Clock::now();
    it.chunk_s.push_back(Seconds(chunk_start, now));
    chunk_start = now;
  };
  if (traced) {
    Clock::duration in_check{};
    auto pred = [&] {
      if (++calls % kChunkCalls == 0) end_chunk();
      const Clock::time_point t0 = Clock::now();
      const bool r = KvClientsDone(*machine, d);
      in_check += Clock::now() - t0;
      return r;
    };
    Timed(spans, root, "machine.run_until", &it.run_until_s, [&] {
      chunk_start = Clock::now();
      done = machine->RunUntil(pred, kKvRunCapUs);
      end_chunk();
    });
    it.done_check_s = std::chrono::duration<double>(in_check).count();
  } else {
    auto pred = [&] {
      if (++calls % kChunkCalls == 0) end_chunk();
      return KvClientsDone(*machine, d);
    };
    Timed(spans, root, "machine.run_until", &it.run_until_s, [&] {
      chunk_start = Clock::now();
      done = machine->RunUntil(pred, kKvRunCapUs);
      end_chunk();
    });
  }
  it.done_check_calls = calls;
  it.run_sim_us = machine->Now() - run_start;
  Timed(spans, root, "machine.settle", &it.settle_s, [&] { machine->Settle(); });
  it.run_events = machine->dispatched() - events_start;

  Timed(spans, root, "workload.slo_report", &it.slo_report_s, [&] {
    it.facts.slo = BuildSloReport(machine->tracer()->Events(), *machine, d, done);
  });

  const SloReport& slo = it.facts.slo;
  it.planned = uint64_t{kSessions} * kRequestsPerSession;
  it.failed = (it.planned - std::min(it.planned, slo.completed)) + slo.mismatches;

  it.m = machine->metrics();
  if (crash_at != 0 && it.m.last_recovery_complete_at > crash_at) {
    it.facts.recovery_us = it.m.last_recovery_complete_at - crash_at;
  }
  it.facts.events = machine->dispatched();
  it.facts.end_us = machine->Now();
  it.bus = machine->bus().stats();
  it.fs_disk = SumDrives(machine->fs_disk(), DiskStats{});
  for (uint32_t s = 0; s < machine->page_shard_count(); ++s) {
    it.page_disk = SumDrives(machine->page_disk(s), it.page_disk);
  }
  it.shards = machine->sharded_engine().num_shards();

  if (!traced) {
    it.facts.digest = machine->tracer()->digest();
    return it;
  }
  // Tracing is write-only: the full trace filtered to the minimal kinds must
  // fold to the digest an untraced run records.
  const std::vector<TraceEvent> events = machine->tracer()->Events();
  for (const TraceEvent& e : events) {
    if ((kMinimalMask & TraceKindBit(e.kind)) != 0) it.facts.digest.Fold(e);
  }
  it.trace_events = events.size();
  double analyze_s = 0;
  Timed(spans, root, "trace.analyze", &analyze_s, [&] { it.analysis = AnalyzeTrace(events); });
  spans->End(root);
  return it;
}

Report KvSimReport(const KvSpec& spec, const KvIteration& it) {
  const SloReport& slo = it.facts.slo;
  Report r;
  auto us = [&](const char* name, uint64_t v) {
    r.Set(name, static_cast<double>(v), "us", slo.completed);
  };
  r.Set("sim_goodput_rps", slo.goodput_rps, "req/s", slo.completed);
  us("sim_p50_us", slo.p50_us);
  us("sim_p99_us", slo.p99_us);
  us("sim_p999_us", slo.p999_us);
  us("sim_read_p99_us", slo.read_p99_us);
  us("sim_write_p99_us", slo.write_p99_us);
  if (spec.crash_after_us != 0) {
    r.Set("sim_recovery_us", static_cast<double>(it.facts.recovery_us), "us");
  }
  return r;
}

// The deterministic per-layer numbers of one traced iteration.
Report KvLayerCounters(const KvIteration& it) {
  Report r;
  const Metrics& m = it.m;
  auto count = [&](const char* name, uint64_t v) { r.Set(name, static_cast<double>(v), "count"); };
  auto us = [&](const char* name, uint64_t v) { r.Set(name, static_cast<double>(v), "us"); };
  auto p99 = [&](const char* name, const LatencyHistogram& h) {
    r.Set(name, static_cast<double>(h.p99()), "us", h.count());
  };
  count("workload.done_check_calls", it.done_check_calls);
  count("sim.events", it.run_events);
  count("sim.shards", it.shards);
  us("sim.sim_time_us", it.run_sim_us);

  count("core.messages_sent", m.messages_sent);
  count("core.deliveries_primary", m.deliveries_primary);
  count("core.deliveries_backup", m.deliveries_backup);
  count("core.deliveries_count_only", m.deliveries_count_only);
  r.Set("core.delivery_latency_mean_us",
        m.delivery_latency_samples == 0
            ? 0.0
            : static_cast<double>(m.delivery_latency_us_total) /
                  static_cast<double>(m.delivery_latency_samples),
        "us", m.delivery_latency_samples);
  us("core.exec_busy_us", m.exec_busy_us);
  us("core.work_busy_us", m.work_busy_us);
  count("core.syncs", m.syncs);
  count("core.sync_pages_shipped", m.sync_pages_shipped);
  us("core.sync_primary_stall_us", m.sync_primary_stall_us);
  us("core.sync_drain_async_us", m.sync_drain_async_us);
  count("core.backup_msgs_trimmed", m.backup_msgs_trimmed);
  count("paging.page_writes", m.page_writes);
  count("paging.page_faults_served", m.page_faults_served);
  count("disk.page.writes", it.page_disk.writes);
  us("disk.page.busy_us", it.page_disk.busy_us);
  us("disk.page.queue_wait_us", it.page_disk.queue_wait_us);
  count("core.crashes_handled", m.crashes_handled);
  count("core.takeovers", m.takeovers);
  count("core.sends_suppressed", m.sends_suppressed);
  count("core.rollforward_msgs_replayed", m.rollforward_msgs_replayed);
  us("core.rollforward_replay_us", m.rollforward_replay_us);
  count("bus.frames_sent", it.bus.frames_sent);
  count("bus.deliveries", it.bus.deliveries);
  r.Set("bus.bytes_sent", static_cast<double>(it.bus.bytes_sent), "bytes");
  r.Set("bus.busy_frac",
        static_cast<double>(it.bus.busy_us) / static_cast<double>(it.facts.end_us), "ratio");
  count("bus.failovers", it.bus.failovers);
  us("bus.failover_wait_us", it.bus.failover_wait_us);
  count("disk.fs.writes", it.fs_disk.writes);
  count("disk.fs.batches", it.fs_disk.batches);
  us("disk.fs.busy_us", it.fs_disk.busy_us);
  us("disk.fs.queue_wait_us", it.fs_disk.queue_wait_us);
  count("disk.fs.max_queue_depth", it.fs_disk.max_queue_depth);
  count("servers.server_syncs", m.server_syncs);
  count("servers.fs_log_commits", it.analysis.fs_log_commits);

  p99("bus.delivery_latency_p99_us", it.analysis.delivery_latency);
  p99("core.sync_stall_p99_us", it.analysis.sync_stall);
  p99("core.crash_to_recovered_p99_us", it.analysis.crash_to_recovered);
  p99("disk.queue_wait_p99_us", it.analysis.disk_queue_wait);
  count("trace.events", it.trace_events);
  return r;
}

// run_s of a KV workload: per input set, each RunUntil chunk at its fastest
// over the set's repetitions, plus the fastest Settle and BuildSloReport;
// then the mean over the sets. The host's slow phases last from milliseconds
// to seconds, so chunk by chunk some repetition met a quiet moment, where a
// whole repetition of over a second rarely does. reps[i] ran input set
// i % sets.
double KvRunSeconds(const std::vector<KvIteration>& reps, size_t sets) {
  double total = 0;
  for (size_t s = 0; s < sets; ++s) {
    std::vector<double> best = reps[s].chunk_s;
    double settle = reps[s].settle_s, report = reps[s].slo_report_s;
    for (size_t i = s + sets; i < reps.size(); i += sets) {
      const KvIteration& it = reps[i];
      for (size_t j = 0; j < std::min(best.size(), it.chunk_s.size()); ++j) {
        best[j] = std::min(best[j], it.chunk_s[j]);
      }
      settle = std::min(settle, it.settle_s);
      report = std::min(report, it.slo_report_s);
    }
    total += Sum(best) + settle + report;
  }
  return total / static_cast<double>(sets);
}

void AddKvHostLayers(const std::vector<KvIteration>& traced, size_t sets, double untraced_run_s,
                     Report* r) {
  const uint64_t n = traced.size();
  auto host = [&](const char* name, auto get) {
    r->Set(name, Fastest(traced, sets, get), "s", n);
  };
  host("machine.boot_s", [](const KvIteration& i) { return i.construct_s + i.boot_s; });
  host("workload.deploy_s", [](const KvIteration& i) { return i.deploy_s; });
  host("workload.done_check_s", [](const KvIteration& i) { return i.done_check_s; });
  host("machine.run_until_s",
       [](const KvIteration& i) { return i.run_until_s - i.done_check_s; });
  host("machine.settle_s", [](const KvIteration& i) { return i.settle_s; });
  host("workload.slo_report_s", [](const KvIteration& i) { return i.slo_report_s; });
  const double run_s = KvRunSeconds(traced, sets);
  r->Set("workload.done_check_share", r->value("workload.done_check_s") / run_s, "ratio", n);
  const double loop_s = r->value("machine.run_until_s") + r->value("machine.settle_s");
  r->Set("sim.host_ns_per_event", 1e9 * loop_s / r->value("sim.events"), "ns", n);
  r->Set("trace.overhead_s", run_s - untraced_run_s, "s", n);
}

RunResult RunKvWorkload(const KvSpec& spec, uint64_t seed, double seconds, bool trace,
                        SpanLog* spans) {
  const size_t sets = spec.input_sets;
  std::vector<KvIteration> plain, traced;
  RepeatFor(seconds, sets, [&](size_t i) {
    const uint64_t input_seed = KvInputSeed(spec, seed, i % sets);
    plain.push_back(RunKvIteration(spec, input_seed, nullptr));
    if (trace) traced.push_back(RunKvIteration(spec, input_seed, spans));
  });

  RunResult res;
  std::vector<Report> sim, counters;
  for (size_t i = 0; i < sets; ++i) {
    const KvIteration& it = plain[i];
    sim.push_back(KvSimReport(spec, it));
    if (trace) counters.push_back(KvLayerCounters(traced[i]));
    res.fingerprint += (i ? "; " : "") + it.facts.Fingerprint();
    if (spec.crash_after_us != 0 && it.facts.recovery_us == 0) {
      res.problems.push_back("seed " + std::to_string(it.seed) +
                             ": the injected crash never completed recovery");
    }
  }
  for (const std::vector<KvIteration>* reps : {&plain, &traced}) {
    for (size_t i = 0; i < reps->size(); ++i) {
      const KvIteration& it = (*reps)[i];
      const std::string tag = "seed " + std::to_string(it.seed) + ": ";
      res.attempted += it.planned;
      res.failed += it.failed;
      if (!it.facts.slo.complete || it.facts.slo.mismatches != 0) {
        res.problems.push_back(tag + "stuck sessions or verification failures");
      }
      if (!(it.facts == plain[i % sets].facts) ||
          it.chunk_s.size() != plain[i % sets].chunk_s.size()) {
        res.problems.push_back(tag + "sim metrics or trace digest differ between repetitions");
      }
    }
  }

  Report& r = res.report;
  const uint64_t n = plain.size();
  const double run_s = KvRunSeconds(plain, sets);
  r.Set("run_s", run_s, "s", n);
  r.Set("setup_s", Fastest(plain, sets, [](const KvIteration& i) { return i.setup_s(); }), "s", n);
  r.Set("peak_rss_mb", PeakRssMb(), "MB");
  r.Set("failed_frac", static_cast<double>(res.failed) / static_cast<double>(res.attempted),
        "ratio", res.attempted);
  r.SetMeanOf(sim);
  if (trace) {
    r.SetMeanOf(counters);
    AddKvHostLayers(traced, sets, run_s, &r);
  }
  return res;
}

// ---------------------------------------------------------------------------
// Campaign workload.

enum class CampaignFamily { kPairs, kFile };
constexpr CampaignFamily kCampaignFamilies[] = {CampaignFamily::kPairs, CampaignFamily::kFile};

// The one place that maps a scenario family onto CampaignOptions.
CampaignOptions CampaignFamilyOptions(CampaignFamily family) {
  CampaignOptions opt;  // 4 clusters, one segment, determinism replay on
  opt.kv_workload = false;
  opt.file_workload = family == CampaignFamily::kFile;
  return opt;
}

const char* FamilyName(CampaignFamily f) {
  return f == CampaignFamily::kPairs ? "campaign.pairs" : "campaign.file";
}

// --seed N runs seeds [first, first + kCampaignBlock) of each family, the
// block chosen by N. Blocks are drawn from [1, kCampaignSeedSpan], where
// every scenario of both families passes (NOTES.md lists failing seeds
// beyond it).
constexpr uint64_t kCampaignBlock = 40;
constexpr uint64_t kCampaignSeedSpan = 800;

uint64_t CampaignFirstSeed(uint64_t seed) {
  return 1 + (seed % (kCampaignSeedSpan / kCampaignBlock)) * kCampaignBlock;
}

struct CampaignIteration {
  double setup_s = 0;
  std::vector<double> scenario_s;  // host seconds per seed: pairs block, then file block
  uint64_t scenarios = 0;
  uint64_t failed = 0;
  uint64_t takeovers = 0;
  uint64_t crashes_handled = 0;
  uint64_t trace_events = 0;  // events the scenarios' own flight recorders folded
  SimTime sim_us = 0;         // simulated time of the faulted runs, summed
  uint64_t digest = 14695981039346656037ull;  // FNV-1a fold of per-scenario digests
  std::map<std::string, uint64_t> by_scenario;
};

void FoldScenario(const ScenarioResult& r, CampaignIteration* it) {
  it->takeovers += r.takeovers;
  it->crashes_handled += r.crashes_handled;
  it->trace_events += r.trace_digest.count;
  it->sim_us += r.trace_digest.last_ts;
  for (uint64_t w : {r.seed, r.trace_digest.hash, r.trace_digest.count, r.trace_digest.last_ts}) {
    it->digest = (it->digest ^ w) * 1099511628211ull;
  }
  if (!r.ok) {
    std::fprintf(stderr, "perfbench: campaign seed %" PRIu64 " FAILED: %s [%s]\n", r.seed,
                 r.failure.c_str(), r.scenario.c_str());
  }
}

// One RunCampaign call per seed of the block, each timed (and, traced, its
// own span): RunCampaign fires on_result only after its whole block has run,
// so a per-block call could not time single seeds.
CampaignIteration RunCampaignIteration(uint64_t first, SpanLog* spans) {
  CampaignIteration it;
  const uint64_t root = spans != nullptr ? spans->Begin("campaign.iteration", 0) : 0;

  // Set-up: the options of both families and the pairs family's fault plans
  // for the block, checked below against the scenarios RunCampaign ran.
  std::vector<CampaignOptions> options;
  std::map<std::string, uint64_t> planned;
  Timed(spans, root, "campaign.prepare", &it.setup_s, [&] {
    for (CampaignFamily f : kCampaignFamilies) options.push_back(CampaignFamilyOptions(f));
    for (uint64_t s = first; s < first + kCampaignBlock; ++s) {
      const std::string plan = MakeScenarioPlan(s, options[0]).Describe();
      planned[plan.substr(0, plan.find(' '))]++;
    }
  });

  auto on_result = [&](const ScenarioResult& r) { FoldScenario(r, &it); };
  for (size_t i = 0; i < options.size(); ++i) {
    for (uint64_t s = first; s < first + kCampaignBlock; ++s) {
      double secs = 0;
      CampaignSummary sum;
      Timed(spans, root, FamilyName(kCampaignFamilies[i]), &secs,
            [&] { sum = RunCampaign(s, 1, options[i], on_result); });
      it.scenario_s.push_back(secs);
      it.scenarios += sum.run;
      it.failed += sum.failed;
      for (const auto& [kind, n] : sum.by_scenario) it.by_scenario[kind] += n;
    }
  }
  for (const auto& [kind, n] : planned) {
    if (it.by_scenario[kind] < n) ++it.failed;
  }
  if (spans != nullptr) spans->End(root);
  return it;
}

// Each seed's fastest RunCampaign call over the repetitions.
std::vector<double> FastestPerSeed(const std::vector<CampaignIteration>& reps) {
  std::vector<double> best = reps.front().scenario_s;
  for (const CampaignIteration& it : reps) {
    for (size_t j = 0; j < best.size(); ++j) best[j] = std::min(best[j], it.scenario_s[j]);
  }
  return best;
}

RunResult RunCampaignWorkload(uint64_t seed, double seconds, bool trace, SpanLog* spans) {
  const uint64_t first_seed = CampaignFirstSeed(seed);
  std::vector<CampaignIteration> plain, traced;
  RepeatFor(seconds, 1, [&](size_t) {
    plain.push_back(RunCampaignIteration(first_seed, nullptr));
    if (trace) traced.push_back(RunCampaignIteration(first_seed, spans));
  });

  RunResult res;
  const CampaignIteration& first = plain.front();
  char fp[96];
  std::snprintf(fp, sizeof(fp), "first_seed=%" PRIu64 " digest=%016" PRIx64 " sim_us=%" PRIu64,
                first_seed, first.digest, first.sim_us);
  res.fingerprint = fp;
  for (const std::vector<CampaignIteration>* reps : {&plain, &traced}) {
    for (const CampaignIteration& it : *reps) {
      res.attempted += it.scenarios;
      res.failed += it.failed;
      if (it.failed != 0) res.problems.push_back("failed scenarios");
      if (it.digest != first.digest) {
        res.problems.push_back("scenario digests differ between repetitions");
      }
    }
  }

  Report& r = res.report;
  const uint64_t n = plain.size();
  // Each seed at its fastest, summed: per-seed calls give a scenario-sized
  // unit of repetition, so every seed meets a quiet moment of the host.
  const double run_s = Sum(FastestPerSeed(plain));
  r.Set("run_s", run_s, "s", n);
  r.Set("setup_s", Fastest(plain, 1, [](const CampaignIteration& i) { return i.setup_s; }), "s", n);
  r.Set("peak_rss_mb", PeakRssMb(), "MB");
  r.Set("failed_frac", static_cast<double>(res.failed) / static_cast<double>(res.attempted),
        "ratio", res.attempted);
  for (const auto& [kind, count] : first.by_scenario) {
    r.Set("campaign.kind." + kind, static_cast<double>(count), "count");
  }
  if (trace) {
    const CampaignIteration& t = traced.front();
    const std::vector<double> scenario_s = FastestPerSeed(traced);
    r.Set("fault.scenarios", static_cast<double>(t.scenarios), "count");
    r.Set("fault.failed", static_cast<double>(t.failed), "count");
    r.Set("core.takeovers", static_cast<double>(t.takeovers), "count");
    r.Set("core.crashes_handled", static_cast<double>(t.crashes_handled), "count");
    r.Set("sim.sim_time_us", static_cast<double>(t.sim_us), "us", t.scenarios);
    r.Set("trace.events", static_cast<double>(t.trace_events), "count");
    r.Set("fault.scenario_s.p50", Percentile(scenario_s, 0.50), "s", scenario_s.size());
    r.Set("fault.scenario_s.p95", Percentile(scenario_s, 0.95), "s", scenario_s.size());
    r.Set("trace.overhead_s", Sum(scenario_s) - run_s, "s", n);
  }
  return res;
}

// ---------------------------------------------------------------------------
// One benchmark run.

bool IsKv(const std::string& w) { return w == "kv-steady" || w == "kv-write-failover"; }
const KvSpec& SpecOf(const std::string& w) {
  return w == "kv-steady" ? kKvSteady : kKvWriteFailover;
}

RunResult RunWorkload(const std::string& workload, uint64_t seed, double seconds, bool trace,
                      SpanLog* spans) {
  RunResult res = IsKv(workload) ? RunKvWorkload(SpecOf(workload), seed, seconds, trace, spans)
                                 : RunCampaignWorkload(seed, seconds, trace, spans);
  if (trace) res.report.FillAbsent(kPerLayer, std::size(kPerLayer));
  res.report.FillAbsent(kKvSim, std::size(kKvSim));
  res.correct = res.problems.empty();
  return res;
}

std::string DocumentJson(const std::string& workload, uint64_t seed, bool trace,
                         const std::string& run_id, const RunResult& res,
                         const std::string& spans_file) {
  auto list = [](const std::vector<std::string>& v) {
    std::string s = "[";
    for (size_t i = 0; i < v.size(); ++i) s += (i ? ", \"" : "\"") + JsonEscape(v[i]) + "\"";
    return s + "]";
  };
  std::ostringstream os;
  os << "{\n  \"workload\": \"" << workload << "\",\n  \"seed\": " << seed
     << ",\n  \"trace\": " << (trace ? 1 : 0) << ",\n  \"run_id\": \"" << JsonEscape(run_id)
     << "\",\n  \"correct\": " << (res.correct ? "true" : "false")
     << ",\n  \"attempted\": " << res.attempted << ",\n  \"failed\": " << res.failed
     << ",\n  \"problems\": " << list(res.problems)
     << ",\n  \"fingerprint\": \"" << JsonEscape(res.fingerprint) << "\",\n  \"spans_file\": \""
     << JsonEscape(spans_file) << "\",\n  \"metrics\": {\n";
  size_t i = 0;
  for (const auto& [name, m] : res.report.metrics()) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    os << "    \"" << name << "\": {\"value\": " << value << ", \"unit\": \"" << m.unit
       << "\", \"samples\": " << m.samples << "}"
       << (++i < res.report.metrics().size() ? ",\n" : "\n");
  }
  os << "  }\n}\n";
  return os.str();
}

bool WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
  return static_cast<bool>(out);
}

// ---------------------------------------------------------------------------
// Self-test, one round per run: failed_frac == 0 on the default seed and a
// held-out seed for every workload; a repeat of the default seed gives
// identical sim metrics and trace digests; and the traced run reproduces the
// untraced one (RunKvWorkload and RunCampaignWorkload report a problem when
// any repetition differs from the first).

int SelfTest() {
  int failures = 0;
  auto expect = [&](bool ok, const std::string& what) {
    std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what.c_str());
    if (!ok) ++failures;
  };
  auto clean = [](const RunResult& r) { return r.correct && r.failed == 0 && r.attempted > 0; };
  for (const char* w : {"kv-steady", "kv-write-failover", "campaign"}) {
    const std::string name = w;
    SpanLog spans(Clock::now());
    const RunResult traced = RunWorkload(name, 1, 0, true, &spans);
    for (const std::string& p : traced.problems) std::printf("  problem: %s\n", p.c_str());
    expect(clean(traced),
           name + " seed 1: failed_frac == 0, traced run matches untraced sim metrics");
    const RunResult again = RunWorkload(name, 1, 0, false, nullptr);
    expect(again.fingerprint == traced.fingerprint,
           name + " seed 1: repeat gives identical sim metrics and trace digests");
    const RunResult held_out = RunWorkload(name, 7, 0, false, nullptr);
    expect(clean(held_out), name + " seed 7 (held out): failed_frac == 0");
  }
  std::printf("perfbench selftest: %d failure(s)\n", failures);
  return failures == 0 ? 0 : 1;
}

void Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload W --seed N --seconds S --trace 0|1 [--out DIR]\n"
               "       perfbench --selftest\n"
               "  W: kv-steady | kv-write-failover | campaign\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 30;
  bool trace = false;
  std::string out_dir = ".";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--selftest") return SelfTest();
    if (i + 1 >= argc) {
      Usage();
      return 2;
    }
    const char* v = argv[++i];
    if (arg == "--workload") {
      workload = v;
    } else if (arg == "--seed") {
      seed = std::strtoull(v, nullptr, 0);
    } else if (arg == "--seconds") {
      seconds = std::strtod(v, nullptr);
    } else if (arg == "--trace") {
      trace = std::strcmp(v, "0") != 0;
    } else if (arg == "--out") {
      out_dir = v;
    } else {
      Usage();
      return 2;
    }
  }
  if (!IsKv(workload) && workload != "campaign") {
    Usage();
    return 2;
  }

  const std::string stem = out_dir + "/" + workload + "-seed" + std::to_string(seed) +
                           (trace ? "-trace1" : "-trace0");
  const std::string run_id =
      workload + "-seed" + std::to_string(seed) + "-" +
      std::to_string(std::chrono::system_clock::now().time_since_epoch().count());
  SpanLog spans(Clock::now());
  const RunResult res = RunWorkload(workload, seed, seconds, trace, trace ? &spans : nullptr);

  const std::string spans_file = trace ? stem + "-spans.json" : "";
  if (trace && !spans.Write(spans_file, run_id)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", spans_file.c_str());
    return 1;
  }
  const std::string doc_file = stem + ".json";
  if (!WriteFile(doc_file, DocumentJson(workload, seed, trace, run_id, res, spans_file))) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", doc_file.c_str());
    return 1;
  }
  std::printf("perfbench: %s seed %" PRIu64 " trace %d: %s, attempted %" PRIu64
              ", failed %" PRIu64 "\n",
              workload.c_str(), seed, trace ? 1 : 0, res.correct ? "correct" : "INCORRECT",
              res.attempted, res.failed);
  for (const std::string& p : res.problems) std::printf("  problem: %s\n", p.c_str());
  for (const auto& [name, m] : res.report.metrics()) {
    std::printf("  %-38s %.6g %s (samples %" PRIu64 ")\n", name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  }
  std::printf("document: %s\n", doc_file.c_str());
  return 0;
}
