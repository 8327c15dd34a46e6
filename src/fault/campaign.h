// Deterministic fault-injection campaign (ROADMAP: crash-path validation at
// scale). Each seed names one complete scenario: a seeded workload of
// producer/consumer pairs spread over the clusters, plus a seeded fault plan
// (fault_plan.h). Every family (pairs, KV, file) follows one protocol and
// supplies only its run, its reference check, its stall message and its
// faulted-run checks. The scenario runs three times:
//
//   1. fault-free reference — must complete; its terminal output and exit
//      statuses are folded into a workload digest;
//   2. faulted run — the plan fires; afterwards every invariant below is
//      checked;
//   3. determinism replay (optional) — the faulted run again; its full
//      machine trace digest must match run 2 exactly.
//
// Every family's reference run must also handle no crash: a cluster
// declared dead without a fault is a false death, named as such instead of
// surfacing as a stall.
//
// Invariants the pairs family checks after the faulted run:
//   * no AURAGEN_CHECK fires (a fired check aborts the campaign process);
//   * the run completes — every workload process exits — without tripping
//     the engine's dispatch limit (livelock guard);
//   * exit statuses and the workload digest equal the fault-free reference:
//     recovery is invisible to the application (§6);
//   * no duplicate terminal records unless the tty server failed over, after
//     a crash or a fence of its home (§7.9's at-least-once window);
//   * all surviving clusters converge: every live kernel is quiescent after
//     the machine settles (no stuck outgoing items, no leaked held_for
//     messages, no runnable work).

#ifndef AURAGEN_SRC_FAULT_CAMPAIGN_H_
#define AURAGEN_SRC_FAULT_CAMPAIGN_H_

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "src/core/config.h"
#include "src/fault/fault_plan.h"
#include "src/trace/trace.h"

namespace auragen {

struct CampaignOptions {
  uint32_t num_clusters = 4;
  // Fabric segments (Topology::Uniform over num_clusters, which must divide
  // evenly). 1 = the pre-fabric single-bus machine, bit-identical to older
  // campaigns; >1 runs every scenario on the segmented fabric and arms the
  // kSegmentPartition scenario.
  uint32_t num_segments = 1;
  SimTime switch_latency_us = 4;
  SimTime run_cap_us = 600'000'000;
  // Dispatched-event ceiling per run; generous (normal runs are a few
  // hundred thousand events) so only a genuine livelock trips it.
  uint64_t dispatch_limit = 100'000'000;
  bool check_determinism = true;
  // Sync pipeline under test: every run of the campaign (reference, faulted,
  // replay) uses the same policy, so digests compare within one mode.
  SyncPolicy sync_policy;
  uint32_t page_shards = 1;
  // Scenario family: false = producer/consumer pairs under seeded fault
  // plans; true = the KV serving workload under seeded cluster crashes
  // (RunKvScenario), with the no-acked-write-lost invariant.
  bool kv_workload = false;
  // Third family: file-append churners against the journaled file server
  // under kCrashMidCommit / kCrashDuringReplay plans (RunFileScenario).
  // Takes precedence over kv_workload when both are set.
  bool file_workload = false;
  // Worker threads running seeds concurrently. Each seed is still simulated
  // by its own deterministic single-machine runs, so every ScenarioResult —
  // including its trace digest — is bit-identical to a threads=1 campaign;
  // only wall clock changes. Results are aggregated and reported in seed
  // order regardless of completion order.
  uint32_t engine_threads = 1;
};

struct ScenarioResult {
  uint64_t seed = 0;
  bool ok = true;
  std::string scenario;  // FaultPlan::Describe()
  std::string failure;   // empty when ok
  uint64_t takeovers = 0;
  uint64_t crashes_handled = 0;
  uint64_t tty_duplicates = 0;
  // The longest single bus transmission of the reference and faulted runs
  // (BusStats::max_frame_us / max_frame_bytes).
  SimTime max_frame_us = 0;
  uint64_t max_frame_bytes = 0;
  // Machine trace digest of the faulted run: the behaviour oracle (a
  // parallel campaign, or another build, must reproduce it seed for seed).
  TraceDigest trace_digest;
};

ScenarioResult RunScenario(uint64_t seed, const CampaignOptions& options);

// KV-serving variant (src/workload): each seed configures a small
// partitioned KV deployment plus a seeded mid-run cluster crash. The
// invariant under test is end-to-end: every session's verified private
// writes survive the crash — a lost acked write surfaces as a nonzero
// client verification count (exit status), a stuck session as an
// incomplete run. Runs reference / faulted / optional determinism replay
// like RunScenario.
ScenarioResult RunKvScenario(uint64_t seed, const CampaignOptions& options);

// Journaled-file-server variant: each seed spawns a few FileChurner guests
// appending sequence records to distinct files (tight group-commit cadence),
// under a kCrashMidCommit plan (even seeds: the file server's home dies at
// 1µs grain over the commit window) or a kCrashDuringReplay plan (odd
// seeds: crash / restore / crash-the-takeover, forcing a second boot-time
// log replay). Invariants: the run completes, every churner's read-back
// verification exits 0 (no acked write lost), exit statuses match the
// fault-free reference (no torn metadata — a corrupt filesystem would stall
// or mis-verify), survivors converge, and the faulted run replays
// bit-identically.
ScenarioResult RunFileScenario(uint64_t seed, const CampaignOptions& options);

struct CampaignSummary {
  uint64_t run = 0;
  uint64_t failed = 0;
  std::map<std::string, uint64_t> by_scenario;  // scenario kind name -> runs
  std::vector<ScenarioResult> failures;
  SimTime max_frame_us = 0;  // the longest transmission of any scenario
  uint64_t max_frame_bytes = 0;
};

// Runs seeds [first_seed, first_seed + count). `on_result` (if set) fires
// once per scenario, pass or fail, in seed order. With one worker it fires
// as each scenario finishes; with a seed pool (engine_threads > 1) it fires
// for the whole block, in seed order, after the last scenario finishes.
CampaignSummary RunCampaign(uint64_t first_seed, uint64_t count,
                            const CampaignOptions& options,
                            const std::function<void(const ScenarioResult&)>& on_result = {});

// Exposed for tests: the seeded workload and plan a scenario will use.
struct CampaignWorkload {
  struct Pair {
    ProcPlacement producer;
    ProcPlacement consumer;
    int items = 0;
    int pace = 0;
    uint32_t tty_line = 0;
  };
  std::vector<Pair> pairs;

  // Spawn-order placements (producer then consumer per pair), matching the
  // victim list handed to InjectFaultPlan.
  std::vector<ProcPlacement> Placements() const;
};

CampaignWorkload MakeCampaignWorkload(uint64_t seed, uint32_t num_clusters);
FaultPlan MakeScenarioPlan(uint64_t seed, const CampaignOptions& options);

}  // namespace auragen

#endif  // AURAGEN_SRC_FAULT_CAMPAIGN_H_
