#include "src/fault/campaign.h"

#include <atomic>
#include <memory>
#include <sstream>
#include <thread>
#include <utility>

#include "src/avm/assembler.h"
#include "src/base/log.h"
#include "src/base/rng.h"
#include "src/machine/machine.h"
#include "src/workload/guest_programs.h"
#include "src/workload/kv_service.h"

namespace auragen {

std::vector<ProcPlacement> CampaignWorkload::Placements() const {
  std::vector<ProcPlacement> out;
  for (const Pair& p : pairs) {
    out.push_back(p.producer);
    out.push_back(p.consumer);
  }
  return out;
}

CampaignWorkload MakeCampaignWorkload(uint64_t seed, uint32_t num_clusters) {
  Rng rng(seed);
  CampaignWorkload wl;
  int n = static_cast<int>(rng.Range(2, 4));
  for (int i = 0; i < n; ++i) {
    CampaignWorkload::Pair pair;
    auto place = [&](ProcPlacement& p) {
      p.primary = static_cast<ClusterId>(rng.Below(num_clusters));
      p.backup =
          static_cast<ClusterId>((p.primary + 1 + rng.Below(num_clusters - 1)) % num_clusters);
    };
    place(pair.producer);
    place(pair.consumer);
    pair.items = static_cast<int>(rng.Range(5, 12));
    pair.pace = static_cast<int>(rng.Range(800, 3200));
    pair.tty_line = static_cast<uint32_t>(i);
    wl.pairs.push_back(pair);
  }
  return wl;
}

FaultPlan MakeScenarioPlan(uint64_t seed, const CampaignOptions& options) {
  CampaignWorkload wl = MakeCampaignWorkload(seed, options.num_clusters);
  FaultPlanInputs inputs;
  inputs.num_clusters = options.num_clusters;
  inputs.num_segments = options.num_segments;
  inputs.procs = wl.Placements();
  return MakeFaultPlan(seed, inputs);
}

namespace {

// Builds and boots one campaign machine from `mo`, which carries the
// family's own cadences. Every family runs on the campaign's fabric shape
// (Uniform(1, n) is the single-bus SingleSegment(n): the switch latency is
// read only with two or more segments), the sync pipeline under test, the
// livelock guard, and a ring-mode flight recorder: whole-run digest for the
// determinism replay at bounded memory, and a tail of events if a scenario
// needs diagnosis.
std::unique_ptr<Machine> BootCampaignMachine(MachineOptions mo, const CampaignOptions& opt,
                                             uint64_t seed) {
  AURAGEN_CHECK(opt.num_segments >= 1 && opt.num_clusters % opt.num_segments == 0)
      << "campaign fabric: " << opt.num_clusters << " clusters do not divide into "
      << opt.num_segments << " equal segments";
  mo.config.topology = Topology::Uniform(opt.num_segments, opt.num_clusters / opt.num_segments)
                           .WithSwitchLatency(opt.switch_latency_us);
  mo.config.sync_policy = opt.sync_policy;
  mo.config.page_shards = opt.page_shards;
  mo.seed = seed;
  mo.trace.enabled = true;
  mo.trace.unbounded = false;
  mo.trace.ring_capacity = 4096;
  auto machine = std::make_unique<Machine>(std::move(mo));
  machine->set_dispatch_limit(opt.dispatch_limit);
  machine->Boot();
  return machine;
}

// Everything the families' checks read off one settled run.
struct RunOutcome {
  bool completed = false;
  bool livelock = false;
  bool converged = false;
  uint64_t takeovers = 0;
  uint64_t crashes_handled = 0;
  TraceDigest trace_digest;
  std::map<uint64_t, int32_t> exit_statuses;
  // Spawned workloads (RunSpawned): terminal records and their digest.
  uint64_t tty_duplicates = 0;
  bool tty_failed_over = false;  // the tty server's backup took over
  uint64_t workload_digest = 0;  // tty lines in use, then exit statuses
  std::string tty_concat;        // those lines joined with '|', for messages
  uint64_t kv_mismatches = 0;
};

// Fills `out` from a settled machine. Survivors converge when every live
// kernel is quiescent: no stuck outgoing items, no leaked held_for
// messages, no runnable work.
void ObserveRunEnd(Machine& machine, const CampaignOptions& opt, RunOutcome& out) {
  out.livelock = machine.dispatch_limit_hit();
  const Metrics m = machine.metrics();
  out.takeovers = m.takeovers;
  out.crashes_handled = m.crashes_handled;
  out.trace_digest = machine.tracer()->digest();
  out.exit_statuses = machine.exit_statuses();
  out.converged = true;
  for (ClusterId c = 0; c < opt.num_clusters; ++c) {
    if (machine.ClusterAlive(c) && !machine.kernel(c).Quiescent()) {
      out.converged = false;
    }
  }
}

// Same worker programs as the randomized crash sweep: a producer streams
// numbered words over a named channel at a seeded pace; the consumer folds
// each into a letter and prints it, so order, content, and count are all
// observable on the terminal.
Executable Producer(int index, int items, int pace) {
  return MustAssemble(R"(
start:
    li r1, name
    li r2, 6
    sys open
    mov r10, r0
    li r8, 1
loop:
    li r9, 0
pace:
    addi r9, r9, 1
    li r11, )" + std::to_string(pace) + R"(
    blt r9, r11, pace
    li r11, buf
    st r8, r11, 0
    mov r1, r10
    li r2, buf
    li r3, 4
    sys write
    addi r8, r8, 1
    li r11, )" + std::to_string(items + 1) + R"(
    blt r8, r11, loop
    exit 0
.data
name: .ascii "ch:f)" + std::to_string(index) + R"("
buf: .word 0
)");
}

Executable Consumer(int index, int items) {
  return MustAssemble(R"(
start:
    li r1, name
    li r2, 6
    sys open
    mov r10, r0
    li r8, 0
loop:
    mov r1, r10
    li r2, buf
    li r3, 4
    sys read
    li r11, buf
    ld r2, r11, 0
    li r3, 26
    mod r2, r2, r3
    li r3, 97
    add r2, r2, r3
    li r11, out
    stb r2, r11, 0
    li r1, 2
    li r2, out
    li r3, 1
    sys write
    addi r8, r8, 1
    li r11, )" + std::to_string(items) + R"(
    blt r8, r11, loop
    exit 0
.data
name: .ascii "ch:f)" + std::to_string(index) + R"("
buf: .word 0
out: .byte 0
)");
}

void FoldBytes(uint64_t& h, const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;  // FNV-1a prime
  }
}

// One process of a spawned workload.
struct CampaignProc {
  ClusterId at = 0;
  Executable exe;
  Machine::UserSpawnOptions opts;
};

// One run of a spawned workload: boot, spawn `procs` in order, fire `plan`
// (none for the fault-free reference), run until every process exits, and
// settle.
RunOutcome RunSpawned(MachineOptions mo, const std::vector<CampaignProc>& procs,
                      const FaultPlan* plan, const CampaignOptions& opt, uint64_t seed) {
  std::unique_ptr<Machine> booted = BootCampaignMachine(std::move(mo), opt, seed);
  Machine& machine = *booted;

  std::vector<Gpid> victims;
  std::vector<ProcPlacement> placements;
  for (const CampaignProc& p : procs) {
    victims.push_back(machine.SpawnUserProgram(p.at, p.exe, p.opts));
    placements.push_back(ProcPlacement{p.at, p.opts.backup_cluster});
  }
  if (plan != nullptr) {
    InjectFaultPlan(machine, *plan, victims, placements);
  }

  RunOutcome out;
  out.completed = machine.RunUntilAllExited(opt.run_cap_us);
  machine.Settle();
  ObserveRunEnd(machine, opt, out);
  out.tty_duplicates = machine.TtyDuplicates();
  out.tty_failed_over = machine.ServerTakeovers(Machine::kTtyPid) != 0;

  uint64_t h = 14695981039346656037ull;  // FNV-1a offset basis
  for (const CampaignProc& p : procs) {
    if (p.opts.with_tty) {
      std::string line = machine.TtyOutput(p.opts.tty_line);
      FoldBytes(h, line.data(), line.size());
      FoldBytes(h, "|", 1);
      out.tty_concat += line;
      out.tty_concat += '|';
    }
  }
  for (const auto& [pid, status] : out.exit_statuses) {
    FoldBytes(h, &pid, sizeof(pid));
    FoldBytes(h, &status, sizeof(status));
  }
  out.workload_digest = h;
  return out;
}

using FailFn = std::function<void(const std::string&)>;

// A family's part in the scenario protocol (campaign.h).
struct Family {
  std::string scenario;
  // One run of the family's workload; `faulted` fires the scenario's faults.
  std::function<RunOutcome(bool faulted)> run;
  // Why a completed reference run cannot serve as the reference, or null.
  std::function<const char*(const RunOutcome& ref)> reference_failure;
  const char* stall = "";  // the faulted run never finished
  // The family's own checks of a finished faulted run.
  std::function<void(const RunOutcome& ref, const RunOutcome& got, const FailFn& fail)> check;
};

// The protocol every family shares: the fault-free reference run, the
// faulted run with the livelock, stall and convergence checks around the
// family's own, and the determinism replay.
ScenarioResult RunProtocol(uint64_t seed, const CampaignOptions& opt, const Family& family) {
  ScenarioResult result;
  result.seed = seed;
  result.scenario = family.scenario;
  const FailFn fail = [&](const std::string& why) {
    result.ok = false;
    if (!result.failure.empty()) {
      result.failure += "; ";
    }
    result.failure += why;
  };

  const RunOutcome ref = family.run(false);
  if (!ref.completed) {
    fail(ref.livelock ? "reference run hit the dispatch limit" : "reference run stalled");
    return result;
  }
  if (const char* why = family.reference_failure(ref); why != nullptr) {
    fail(why);
    return result;
  }

  const RunOutcome got = family.run(true);
  result.takeovers = got.takeovers;
  result.crashes_handled = got.crashes_handled;
  result.tty_duplicates = got.tty_duplicates;
  result.trace_digest = got.trace_digest;
  if (got.livelock) {
    fail("livelock: dispatch limit hit");
  } else if (!got.completed) {
    fail(family.stall);
  } else {
    family.check(ref, got, fail);
    if (!got.converged) {
      fail("a surviving cluster did not converge (kernel not quiescent after settle)");
    }
  }
  if (result.ok && opt.check_determinism && family.run(true).trace_digest != got.trace_digest) {
    fail("faulted run is nondeterministic: replay trace digest differs");
  }
  return result;
}

}  // namespace

ScenarioResult RunScenario(uint64_t seed, const CampaignOptions& opt) {
  CampaignWorkload wl = MakeCampaignWorkload(seed, opt.num_clusters);
  FaultPlan plan = MakeScenarioPlan(seed, opt);
  BackupMode mode = plan.fullback ? BackupMode::kFullback : BackupMode::kQuarterback;
  std::vector<CampaignProc> procs;
  for (size_t i = 0; i < wl.pairs.size(); ++i) {
    const CampaignWorkload::Pair& pair = wl.pairs[i];
    const int index = static_cast<int>(i);
    procs.push_back({pair.producer.primary, Producer(index, pair.items, pair.pace),
                     {.mode = mode, .backup_cluster = pair.producer.backup}});
    procs.push_back({pair.consumer.primary, Consumer(index, pair.items),
                     {.mode = mode,
                      .backup_cluster = pair.consumer.backup,
                      .with_tty = true,
                      .tty_line = pair.tty_line}});
  }
  MachineOptions mo;
  mo.config.sync_reads_limit = 4;  // tight sync cadence: more recovery points

  return RunProtocol(
      seed, opt,
      {.scenario = plan.Describe(),
       .run = [&](bool faulted) {
         return RunSpawned(mo, procs, faulted ? &plan : nullptr, opt, seed);
       },
       .reference_failure = [](const RunOutcome& ref) {
         return ref.tty_duplicates != 0 ? "reference run produced duplicate tty records" : nullptr;
       },
       .stall = "stalled: a workload process never exited",
       .check = [](const RunOutcome& ref, const RunOutcome& got, const FailFn& fail) {
         if (got.exit_statuses != ref.exit_statuses) {
           fail("exit statuses diverge from the fault-free reference");
         }
         if (got.workload_digest != ref.workload_digest) {
           fail("terminal output diverges from the fault-free reference (want \"" +
                ref.tty_concat + "\" got \"" + got.tty_concat + "\")");
         }
         // §7.9's at-least-once window opens whenever the tty server fails
         // over: after a crash of its home, or after its home was declared
         // dead and fenced itself.
         if (got.tty_duplicates != 0 && !got.tty_failed_over) {
           fail("duplicate tty records without a tty-server crash");
         }
       }});
}

namespace {

RunOutcome RunKvWorkload(const workload::KvOptions& kv, uint64_t seed, ClusterId victim,
                         SimTime crash_rel_us, const CampaignOptions& opt) {
  MachineOptions mo;
  mo.config.sync_reads_limit = 8;  // tight cadence: more recovery points
  std::unique_ptr<Machine> booted = BootCampaignMachine(std::move(mo), opt, seed);
  Machine& machine = *booted;

  workload::KvDeployment d = workload::DeployKv(machine, kv);
  if (crash_rel_us != 0) {
    machine.CrashClusterAt(machine.Now() + crash_rel_us, victim);
  }

  RunOutcome out;
  out.completed = machine.RunUntil(
      [&] { return workload::KvClientsDone(machine, d); }, opt.run_cap_us);
  machine.Settle();
  ObserveRunEnd(machine, opt, out);
  out.kv_mismatches = workload::KvMismatchTotal(machine, d);
  return out;
}

}  // namespace

ScenarioResult RunKvScenario(uint64_t seed, const CampaignOptions& opt) {
  Rng rng(seed ^ 0x9e3779b97f4a7c15ull);
  workload::KvOptions kv;
  kv.sessions = static_cast<uint32_t>(rng.Range(8, 25));
  kv.partitions = static_cast<uint32_t>(rng.Range(2, 5));
  kv.requests_per_session = static_cast<uint32_t>(rng.Range(4, 11));
  kv.think_spin = static_cast<uint32_t>(rng.Range(8, 65));
  kv.seed = seed;
  const ClusterId victim = static_cast<ClusterId>(rng.Below(opt.num_clusters));
  // Boot + deploy land around t=20ms; the request window opens ~1-2ms after
  // that and spans several ms at these sizes, so this offset hits anywhere
  // from "channels still opening" to "mid-stream" — both interesting.
  const SimTime crash_rel_us = rng.Range(500, 9000);
  std::ostringstream os;
  os << "kv-cluster-crash sessions=" << kv.sessions << " partitions=" << kv.partitions
     << " requests=" << kv.requests_per_session << " think=" << kv.think_spin
     << " victim=c" << victim << " at=+" << crash_rel_us << "us";

  return RunProtocol(
      seed, opt,
      {.scenario = os.str(),
       .run = [&](bool faulted) {
         return RunKvWorkload(kv, seed, victim, faulted ? crash_rel_us : 0, opt);
       },
       .reference_failure = [](const RunOutcome& ref) {
         return ref.kv_mismatches != 0 ? "reference run had verification mismatches" : nullptr;
       },
       .stall = "stalled: a session never finished",
       .check = [](const RunOutcome&, const RunOutcome& got, const FailFn& fail) {
         if (got.kv_mismatches != 0) {
           fail("acked-write loss: " + std::to_string(got.kv_mismatches) +
                " verification mismatches");
         }
       }});
}

ScenarioResult RunFileScenario(uint64_t seed, const CampaignOptions& opt) {
  // Decorrelated from the generic and KV families.
  Rng rng(seed ^ 0xc6a4a7935bd1e995ull);
  const int n = static_cast<int>(rng.Range(2, 4));
  std::vector<ProcPlacement> placements;
  std::vector<CampaignProc> procs;
  for (int i = 0; i < n; ++i) {
    const int records = static_cast<int>(rng.Range(6, 16));
    const int pace = static_cast<int>(rng.Range(500, 3000));
    ProcPlacement& at = placements.emplace_back();
    at.primary = static_cast<ClusterId>(rng.Below(opt.num_clusters));
    at.backup = static_cast<ClusterId>((at.primary + 1 + rng.Below(opt.num_clusters - 1)) %
                                       opt.num_clusters);
    procs.push_back({at.primary,
                     workload::FileChurner("jrnl" + std::to_string(i) + ".dat", records, pace),
                     {.backup_cluster = at.backup}});
  }

  // Alternate the two journal scenarios so both get half of every campaign;
  // the shapes draw from the same stream as MakeFaultPlan would.
  FaultPlanInputs inputs;
  inputs.num_clusters = opt.num_clusters;
  inputs.num_segments = opt.num_segments;
  inputs.procs = placements;
  FaultPlan plan;
  if (seed % 2 == 0) {
    plan.scenario = ScenarioKind::kCrashMidCommit;
    plan.fullback = rng.Chance(0.5);
    plan.actions = {FaultAction{FaultKind::kCrashCluster, rng.Range(20'000, 200'000),
                                inputs.server_home_a, 0}};
  } else {
    plan.scenario = ScenarioKind::kCrashDuringReplay;
    plan.fullback = true;
    SimTime t = rng.Range(15'000, 80'000);
    SimTime back = t + rng.Range(25'000, 60'000);
    plan.actions = {
        FaultAction{FaultKind::kCrashCluster, t, inputs.server_home_a, 0},
        FaultAction{FaultKind::kRestoreCluster, back, inputs.server_home_a, 0},
        FaultAction{FaultKind::kCrashCluster, back + rng.Range(15'000, 40'000),
                    inputs.server_home_b, 0}};
  }
  for (CampaignProc& p : procs) {
    p.opts.mode = plan.fullback ? BackupMode::kFullback : BackupMode::kQuarterback;
  }
  MachineOptions mo;
  mo.config.sync_reads_limit = 4;
  // Tight group-commit cadence: the crash window is dense with log appends,
  // commit records, checkpoints, and syncs.
  mo.file_server.sync_every_ops = 4;

  return RunProtocol(
      seed, opt,
      {.scenario = plan.Describe() + " churners=" + std::to_string(n),
       .run = [&](bool faulted) {
         return RunSpawned(mo, procs, faulted ? &plan : nullptr, opt, seed);
       },
       .reference_failure = [](const RunOutcome& ref) -> const char* {
         for (const auto& [pid, status] : ref.exit_statuses) {
           if (status != 0) {
             return "reference run had read-back mismatches";
           }
         }
         return nullptr;
       },
       .stall = "stalled: a churner never exited (torn metadata or lost reply)",
       .check = [](const RunOutcome& ref, const RunOutcome& got, const FailFn& fail) {
         uint64_t mismatches = 0;
         for (const auto& [pid, status] : got.exit_statuses) {
           mismatches += static_cast<uint64_t>(status < 0 ? -status : status);
         }
         if (mismatches != 0) {
           fail("acked-write loss: " + std::to_string(mismatches) + " read-back mismatches");
         }
         if (got.exit_statuses != ref.exit_statuses) {
           fail("exit statuses diverge from the fault-free reference");
         }
       }});
}

CampaignSummary RunCampaign(uint64_t first_seed, uint64_t count, const CampaignOptions& opt,
                            const std::function<void(const ScenarioResult&)>& on_result) {
  auto run_one = [&](uint64_t seed) {
    return opt.file_workload ? RunFileScenario(seed, opt)
           : opt.kv_workload ? RunKvScenario(seed, opt)
                             : RunScenario(seed, opt);
  };
  CampaignSummary summary;
  auto record = [&](const ScenarioResult& r) {
    summary.run++;
    // First token of Describe() is the scenario kind.
    summary.by_scenario[r.scenario.substr(0, r.scenario.find(' '))]++;
    if (!r.ok) {
      summary.failed++;
      summary.failures.push_back(r);
    }
    if (on_result) {
      on_result(r);
    }
  };

  uint32_t workers = std::max<uint32_t>(1, opt.engine_threads);
  workers = static_cast<uint32_t>(std::min<uint64_t>(workers, count));
  if (workers <= 1) {
    for (uint64_t i = 0; i < count; ++i) {
      record(run_one(first_seed + i));
    }
    return summary;
  }

  // Seeds are independent deterministic simulations; a shared ticket
  // spreads them over the pool. Each result lands in its own slot, so the
  // aggregation below sees the exact sequential outcome, in seed order.
  std::vector<ScenarioResult> results(count);
  std::atomic<uint64_t> next{0};
  auto pull = [&] {
    uint64_t i;
    while ((i = next.fetch_add(1, std::memory_order_relaxed)) < count) {
      results[i] = run_one(first_seed + i);
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(workers - 1);
  for (uint32_t t = 0; t + 1 < workers; ++t) {
    pool.emplace_back(pull);
  }
  pull();
  for (std::thread& t : pool) {
    t.join();
  }
  for (const ScenarioResult& r : results) {
    record(r);
  }
  return summary;
}

}  // namespace auragen
