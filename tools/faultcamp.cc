// faultcamp: deterministic fault-injection campaign runner. Executes N
// seeded crash/kill/restore scenarios against seeded workloads and checks
// the recovery invariants after each (see src/fault/campaign.h). Any
// failing seed is a complete reproduction recipe: `faultcamp --seed X`
// reruns exactly that scenario.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "src/base/log.h"
#include "src/fault/campaign.h"

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: faultcamp [--seeds N] [--start S] [--seed X] [--plan]\n"
               "                 [--workload W] [--clusters C] [--segments S]\n"
               "                 [--switch-latency-us L] [--sync-mode M]\n"
               "                 [--adaptive-sync] [--page-shards P]\n"
               "                 [--engine-threads T] [--cross-check]\n"
               "                 [--no-determinism] [--verbose]\n"
               "\n"
               "  --seeds N          run seeds [start, start+N) (default 200)\n"
               "  --workload W       pairs | kv | file (default pairs); kv runs\n"
               "                     the serving workload under seeded cluster\n"
               "                     crashes and checks no acked write is lost;\n"
               "                     file runs append churners against the\n"
               "                     journaled file server under crash-mid-commit\n"
               "                     and crash-during-replay plans\n"
               "  --start S          first seed (default 1)\n"
               "  --seed X           run exactly one seed, verbosely\n"
               "  --plan             with --seed: print the fault plan and exit\n"
               "  --clusters C       clusters per machine (default 4)\n"
               "  --segments S       fabric segments (default 1 = single bus);\n"
               "                     C must divide into S equal segments; >1 arms\n"
               "                     the segment-partition scenario\n"
               "  --switch-latency-us L  store-and-forward switch hop (default 4)\n"
               "  --sync-mode M      stop-and-copy | incremental | incremental-async\n"
               "                     (default incremental)\n"
               "  --adaptive-sync    adapt the time-based sync trigger to dirty rate\n"
               "  --page-shards P    page-server shards (default 1)\n"
               "  --engine-threads T seeds simulated concurrently (default 1);\n"
               "                     results and digests are identical to T=1\n"
               "  --cross-check      run the campaign one seed at a time AND at\n"
               "                     --engine-threads T, and require every\n"
               "                     seed's outcome + trace digest to match\n"
               "  --no-determinism   skip the replay/trace-digest check (3x -> 2x runs)\n"
               "  --verbose          print every scenario with its trace digest,\n"
               "                     not just failures\n");
}

}  // namespace

int main(int argc, char** argv) {
  using auragen::CampaignOptions;
  using auragen::ScenarioResult;

  if (std::getenv("AURAGEN_LOG_INFO") != nullptr) {
    auragen::Logger::Get().set_level(auragen::LogLevel::kInfo);
  }

  uint64_t seeds = 200;
  uint64_t start = 1;
  bool single = false;
  uint64_t single_seed = 0;
  bool plan_only = false;
  bool verbose = false;
  bool cross_check = false;
  CampaignOptions opt;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        Usage();
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--seeds") {
      seeds = std::strtoull(next(), nullptr, 0);
    } else if (arg == "--start") {
      start = std::strtoull(next(), nullptr, 0);
    } else if (arg == "--seed") {
      single = true;
      single_seed = std::strtoull(next(), nullptr, 0);
    } else if (arg == "--plan") {
      plan_only = true;
    } else if (arg == "--workload") {
      std::string w = next();
      if (w == "pairs") {
        opt.kv_workload = false;
        opt.file_workload = false;
      } else if (w == "kv") {
        opt.kv_workload = true;
        opt.file_workload = false;
      } else if (w == "file") {
        opt.kv_workload = false;
        opt.file_workload = true;
      } else {
        std::fprintf(stderr, "faultcamp: unknown workload '%s'\n", w.c_str());
        Usage();
        return 2;
      }
    } else if (arg == "--clusters") {
      opt.num_clusters = static_cast<uint32_t>(std::strtoul(next(), nullptr, 0));
    } else if (arg == "--segments") {
      opt.num_segments = static_cast<uint32_t>(std::strtoul(next(), nullptr, 0));
    } else if (arg == "--switch-latency-us") {
      opt.switch_latency_us = std::strtoull(next(), nullptr, 0);
    } else if (arg == "--sync-mode") {
      std::string mode = next();
      if (mode == "stop-and-copy") {
        opt.sync_policy.mode = auragen::SyncMode::kStopAndCopy;
      } else if (mode == "incremental") {
        opt.sync_policy.mode = auragen::SyncMode::kIncremental;
      } else if (mode == "incremental-async") {
        opt.sync_policy.mode = auragen::SyncMode::kIncrementalAsync;
      } else {
        std::fprintf(stderr, "faultcamp: unknown sync mode '%s'\n", mode.c_str());
        Usage();
        return 2;
      }
    } else if (arg == "--adaptive-sync") {
      opt.sync_policy.adaptive = true;
    } else if (arg == "--page-shards") {
      opt.page_shards = static_cast<uint32_t>(std::strtoul(next(), nullptr, 0));
    } else if (arg == "--engine-threads") {
      opt.engine_threads = static_cast<uint32_t>(std::strtoul(next(), nullptr, 0));
    } else if (arg == "--cross-check") {
      cross_check = true;
    } else if (arg == "--no-determinism") {
      opt.check_determinism = false;
    } else if (arg == "--verbose") {
      verbose = true;
    } else if (arg == "--help" || arg == "-h") {
      Usage();
      return 0;
    } else {
      std::fprintf(stderr, "faultcamp: unknown argument '%s'\n", arg.c_str());
      Usage();
      return 2;
    }
  }

  if (opt.num_segments < 1 ||
      (opt.num_segments > 1 && opt.num_clusters % opt.num_segments != 0)) {
    std::fprintf(stderr, "faultcamp: --clusters %u does not divide into --segments %u\n",
                 opt.num_clusters, opt.num_segments);
    return 2;
  }

  if (single) {
    if (plan_only) {
      if (opt.kv_workload || opt.file_workload) {
        std::fprintf(stderr, "faultcamp: --plan applies to the pairs workload only\n");
        return 2;
      }
      std::printf("seed %llu: %s\n", static_cast<unsigned long long>(single_seed),
                  auragen::MakeScenarioPlan(single_seed, opt).Describe().c_str());
      return 0;
    }
    ScenarioResult r;
    auragen::RunCampaign(single_seed, 1, opt, [&](const ScenarioResult& one) { r = one; });
    std::printf("seed %llu: %s  [%s]\n", static_cast<unsigned long long>(r.seed),
                r.ok ? "PASS" : "FAIL", r.scenario.c_str());
    std::printf("  takeovers=%llu crashes_handled=%llu tty_dups=%llu digest=%s\n",
                static_cast<unsigned long long>(r.takeovers),
                static_cast<unsigned long long>(r.crashes_handled),
                static_cast<unsigned long long>(r.tty_duplicates),
                r.trace_digest.ToString().c_str());
    if (!r.ok) {
      std::printf("  failure: %s\n", r.failure.c_str());
    }
    return r.ok ? 0 : 1;
  }

  // With --verbose every seed's line carries its faulted-run trace digest,
  // so two builds' campaigns compare from their output alone.
  auto report = [&](const ScenarioResult& r) {
    if (!r.ok) {
      std::printf("seed %llu: FAIL  [%s] digest=%s\n  %s\n",
                  static_cast<unsigned long long>(r.seed), r.scenario.c_str(),
                  r.trace_digest.ToString().c_str(), r.failure.c_str());
    } else if (verbose) {
      std::printf("seed %llu: PASS  [%s] takeovers=%llu digest=%s\n",
                  static_cast<unsigned long long>(r.seed), r.scenario.c_str(),
                  static_cast<unsigned long long>(r.takeovers),
                  r.trace_digest.ToString().c_str());
    }
  };

  if (cross_check) {
    // Mode-equivalence oracle: the same seed range one seed at a time and
    // spread over the seed pool must produce the same per-seed outcomes and
    // trace digests, bit for bit.
    std::vector<ScenarioResult> seq, par;
    CampaignOptions seq_opt = opt;
    seq_opt.engine_threads = 1;
    auto seq_summary = auragen::RunCampaign(
        start, seeds, seq_opt, [&](const ScenarioResult& r) { seq.push_back(r); });
    auto par_summary = auragen::RunCampaign(
        start, seeds, opt, [&](const ScenarioResult& r) { par.push_back(r); });
    uint64_t mismatches = 0;
    for (uint64_t i = 0; i < seeds; ++i) {
      report(par[i]);
      if (seq[i].ok != par[i].ok || seq[i].trace_digest != par[i].trace_digest) {
        ++mismatches;
        std::printf("seed %llu: MODE MISMATCH  seq{ok=%d digest=%s} par{ok=%d digest=%s}\n",
                    static_cast<unsigned long long>(seq[i].seed), seq[i].ok ? 1 : 0,
                    seq[i].trace_digest.ToString().c_str(), par[i].ok ? 1 : 0,
                    par[i].trace_digest.ToString().c_str());
      }
    }
    std::printf("faultcamp: %llu scenarios x2 modes (seed-threads 1 vs %u), "
                "%llu failed, %llu cross-mode mismatches\n",
                static_cast<unsigned long long>(par_summary.run), opt.engine_threads,
                static_cast<unsigned long long>(par_summary.failed),
                static_cast<unsigned long long>(mismatches));
    return (seq_summary.failed == 0 && par_summary.failed == 0 && mismatches == 0) ? 0 : 1;
  }

  auto summary = auragen::RunCampaign(start, seeds, opt, report);

  std::printf("faultcamp: %llu scenarios, %llu failed\n",
              static_cast<unsigned long long>(summary.run),
              static_cast<unsigned long long>(summary.failed));
  for (const auto& [kind, count] : summary.by_scenario) {
    std::printf("  %-26s %llu\n", kind.c_str(), static_cast<unsigned long long>(count));
  }
  return summary.failed == 0 ? 0 : 1;
}
