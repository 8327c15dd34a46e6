// Deterministic fault-injection campaign (src/fault): plan generation is a
// pure function of the seed, generated plans respect the survivability
// constraints the invariant checks rely on, a campaign slice runs green,
// and the specific seeds that exposed real crash-path bugs during
// development stay fixed.

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <vector>

#include "src/fault/campaign.h"
#include "src/fault/fault_plan.h"

namespace auragen {
namespace {

FaultPlanInputs InputsFor(uint64_t seed) {
  CampaignOptions opt;
  FaultPlanInputs in;
  in.num_clusters = opt.num_clusters;
  CampaignWorkload wl = MakeCampaignWorkload(seed, opt.num_clusters);
  in.procs = wl.Placements();
  // Producer and consumer of each pair both appear in the placement list.
  EXPECT_EQ(in.procs.size(), wl.pairs.size() * 2);
  return in;
}

TEST(FaultPlan, GenerationIsDeterministic) {
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    FaultPlan a = MakeFaultPlan(seed, InputsFor(seed));
    FaultPlan b = MakeFaultPlan(seed, InputsFor(seed));
    EXPECT_EQ(a.Describe(), b.Describe()) << "seed " << seed;
    ASSERT_EQ(a.actions.size(), b.actions.size());
    for (size_t i = 0; i < a.actions.size(); ++i) {
      EXPECT_EQ(a.actions[i].at, b.actions[i].at);
      EXPECT_EQ(a.actions[i].cluster, b.actions[i].cluster);
    }
  }
}

TEST(FaultPlan, RespectsSurvivabilityConstraints) {
  for (uint64_t seed = 1; seed <= 500; ++seed) {
    FaultPlanInputs in = InputsFor(seed);
    FaultPlan plan = MakeFaultPlan(seed, in);
    SCOPED_TRACE("seed " + std::to_string(seed) + ": " + plan.Describe());

    // Actions are scheduled in nondecreasing order.
    for (size_t i = 1; i < plan.actions.size(); ++i) {
      EXPECT_LE(plan.actions[i - 1].at, plan.actions[i].at);
    }

    // Replay the plan's crash/restore actions: at no instant are both
    // server-home clusters down, and no concurrently-dead cluster set
    // covers any process's {primary, backup} pair unless the plan runs the
    // workload in fullback mode (which re-protects after the first loss).
    std::vector<bool> dead(in.num_clusters, false);
    for (const FaultAction& action : plan.actions) {
      if (action.kind == FaultKind::kCrashCluster) {
        dead[action.cluster] = true;
      } else if (action.kind == FaultKind::kRestoreCluster) {
        dead[action.cluster] = false;
      } else {
        continue;
      }
      EXPECT_FALSE(dead[in.server_home_a] && dead[in.server_home_b]);
      if (!plan.fullback) {
        for (const ProcPlacement& p : in.procs) {
          EXPECT_FALSE(dead[p.primary] && dead[p.backup])
              << "quarterback pair fully covered: primary c" << p.primary
              << " backup c" << p.backup;
        }
      }
    }

    // Multi-crash scenarios must protect with fullback (replacement
    // backups), otherwise the second hit can be unsurvivable by design.
    int crashes = 0;
    for (const FaultAction& action : plan.actions) {
      crashes += action.kind == FaultKind::kCrashCluster ? 1 : 0;
    }
    if (crashes > 1 && plan.scenario != ScenarioKind::kCrashRestoreCrash &&
        plan.scenario != ScenarioKind::kRestoreRecrash) {
      EXPECT_TRUE(plan.fullback);
    }
  }
}

TEST(FaultCampaign, SliceRunsGreen) {
  CampaignOptions opt;
  opt.check_determinism = false;  // the dedicated seeds below replay-check
  CampaignSummary summary = RunCampaign(1, 20, opt);
  EXPECT_EQ(summary.failed, 0u) << (summary.failures.empty()
                                        ? std::string()
                                        : summary.failures.front().failure);
  EXPECT_EQ(summary.run, 20u);
}

// Seeds that reproduced real bugs, kept as pinned regressions. Each one
// failed (stall, AURAGEN_CHECK fire, or output divergence) on the code as
// of the pre-fix revision of this change:
//
//  - 187, 289: after a fullback's backup cluster died, peers kept sending
//    to the live primary without a save leg while the replacement image was
//    captured at crash-handling time — the new backup's saved queue
//    underflowed the sync trim ("backup queue shorter than primary reads").
//    Fixed by freezing peer channels (entry.unusable + held_for) and
//    deferring the capture until every live peer has certainly frozen.
//  - 399, 78: a takeover's kBackupReady overtook a slower peer's own crash
//    handling; the peer recorded the announced backup, then its patch pass
//    promoted that cluster into the primary slot — the real new primary
//    never saw another message. Fixed by repairing stale primary pointers
//    from the announcement's sender.
//  - 300: a page request addressed to the page server's parked backup
//    arrived before that cluster's own crash handling flipped the parked
//    entries; the request was dropped and the faulting process hung.
//    Fixed by parking such messages in the saved queue (delivery fallback).
//  - 305: a message's save leg arrived after the destination's takeover
//    flipped the backup entry to primary, and was dropped — the consumer
//    saw EOF instead of the final item. Fixed by delivering late save legs
//    to the flipped primary entry.
TEST(FaultCampaign, RegressionSeedsStayFixed) {
  CampaignOptions opt;
  for (uint64_t seed : {78ull, 187ull, 289ull, 300ull, 305ull, 399ull}) {
    ScenarioResult result = RunScenario(seed, opt);
    EXPECT_TRUE(result.ok) << "seed " << seed << " [" << result.scenario
                           << "]: " << result.failure;
  }
}

// KV seeds that stalled because a channel message reached a cluster before
// the routing entry it needed existed, and was dropped. 62 stalls after the
// injected crash; 240 also needs the messages parked under the backup role
// to reach the primary entry created after takeover. Fixed by parking early
// arrivals until their entry is created (DESIGN.md §11).
TEST(FaultCampaign, KvEarlyArrivalSeedsStayFixed) {
  CampaignOptions opt;
  opt.kv_workload = true;
  for (uint64_t seed : {62ull, 240ull}) {
    ScenarioResult result = RunKvScenario(seed, opt);
    EXPECT_TRUE(result.ok) << "seed " << seed << " [" << result.scenario
                           << "]: " << result.failure;
  }
}

// The dual-line bus outage scenario (§7.1 double fault): both lines die
// back-to-back, queued traffic (heartbeats urgent-first) drains after the
// restore, and no peer falsely declares a crash during the dark window. A
// handful of the first seeds that draw this scenario must run green.
TEST(FaultCampaign, BusDualLineOutageScenarioSurvives) {
  CampaignOptions opt;
  int found = 0;
  for (uint64_t seed = 1; seed <= 200 && found < 3; ++seed) {
    FaultPlan plan = MakeScenarioPlan(seed, opt);
    if (plan.scenario != ScenarioKind::kBusDualLineOutage) {
      continue;
    }
    ++found;
    ScenarioResult result = RunScenario(seed, opt);
    EXPECT_TRUE(result.ok) << "seed " << seed << " [" << result.scenario
                           << "]: " << result.failure;
    // The outage must not be mistaken for a cluster failure.
    EXPECT_EQ(result.crashes_handled, 0u) << "seed " << seed;
    EXPECT_EQ(result.takeovers, 0u) << "seed " << seed;
  }
  EXPECT_EQ(found, 3) << "scenario kind never drawn in 200 seeds";
}

// Dual-line outages whose dark window plus a heartbeat period outlasted the
// heartbeat timeout: a peer declared live cluster 0, home of the tty
// server's primary, dead. It fenced itself and the tty server failed over,
// so §7.9's duplicate terminal records are allowed (content and the
// workload digest still checked). They failed "duplicate tty records
// without a tty-server crash" while only a planned crash of the tty
// server's home allowed duplicates.
TEST(FaultCampaign, DualLineFalseDeathAllowsTtyDuplicates) {
  CampaignOptions opt;
  for (uint64_t seed : {5028ull, 6053ull, 6682ull}) {
    ScenarioResult result = RunScenario(seed, opt);
    EXPECT_TRUE(result.ok) << "seed " << seed << " [" << result.scenario
                           << "]: " << result.failure;
    EXPECT_GT(result.crashes_handled, 0u) << "seed " << seed << ": no false death";
    EXPECT_GT(result.tty_duplicates, 0u) << "seed " << seed;
  }
}

// The same false death in seed 5931, where cluster 0 kept sending between
// the bus accepting its crash notice and receiving it: a tty write from
// that window reached the survivors, and the rolled-forward consumer sent
// it again, so the user saw "bcdefghh…". The bus now fences the accused at
// the notice, and the terminal output equals the fault-free reference.
TEST(FaultCampaign, FalselyAccusedClusterWritesNothingAfterItsNotice) {
  CampaignOptions opt;
  ScenarioResult result = RunScenario(5931, opt);
  EXPECT_TRUE(result.ok) << "[" << result.scenario << "]: " << result.failure;
  EXPECT_GT(result.crashes_handled, 0u) << "no false death";
}

// A parallel campaign (seeds spread over a worker pool) must reproduce the
// sequential campaign seed for seed — same outcomes, same trace digests.
TEST(FaultCampaign, ParallelSeedsMatchSequential) {
  CampaignOptions opt;
  opt.check_determinism = false;
  std::vector<ScenarioResult> seq;
  RunCampaign(1, 8, opt, [&](const ScenarioResult& r) { seq.push_back(r); });
  opt.engine_threads = 3;
  std::vector<ScenarioResult> par;
  RunCampaign(1, 8, opt, [&](const ScenarioResult& r) { par.push_back(r); });
  ASSERT_EQ(seq.size(), par.size());
  for (size_t i = 0; i < seq.size(); ++i) {
    EXPECT_EQ(seq[i].seed, par[i].seed) << "results must arrive in seed order";
    EXPECT_EQ(seq[i].ok, par[i].ok) << "seed " << seq[i].seed;
    EXPECT_EQ(seq[i].trace_digest, par[i].trace_digest) << "seed " << seq[i].seed;
    EXPECT_EQ(seq[i].scenario, par[i].scenario) << "seed " << seq[i].seed;
  }
}

// With one worker, on_result reports each scenario as it finishes, not the
// whole block at the end: the second scenario runs between the reports.
TEST(FaultCampaign, OnResultFiresAfterEachScenario) {
  using Clock = std::chrono::steady_clock;
  CampaignOptions opt;
  opt.check_determinism = false;
  std::vector<Clock::time_point> fired;
  const Clock::time_point start = Clock::now();
  RunCampaign(1, 2, opt, [&](const ScenarioResult&) { fired.push_back(Clock::now()); });
  const Clock::duration total = Clock::now() - start;
  ASSERT_EQ(fired.size(), 2u);
  EXPECT_GT((fired[1] - fired[0]) * 10, total)
      << "the first report waited for the second scenario";
}

}  // namespace
}  // namespace auragen
