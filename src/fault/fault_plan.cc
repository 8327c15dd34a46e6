#include "src/fault/fault_plan.h"

#include <algorithm>
#include <sstream>

#include "src/base/rng.h"
#include "src/machine/machine.h"

namespace auragen {

const char* FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kCrashCluster:
      return "crash";
    case FaultKind::kKillProcess:
      return "kill";
    case FaultKind::kRestoreCluster:
      return "restore";
    case FaultKind::kFailBusLine:
      return "bus-line-fail";
    case FaultKind::kRestoreBusLine:
      return "bus-line-restore";
    case FaultKind::kFailSwitch:
      return "switch-fail";
    case FaultKind::kRestoreSwitch:
      return "switch-restore";
  }
  return "?";
}

const char* ScenarioKindName(ScenarioKind kind) {
  switch (kind) {
    case ScenarioKind::kSingleCrash:
      return "single-crash";
    case ScenarioKind::kProcessKill:
      return "process-kill";
    case ScenarioKind::kCrashNearSync:
      return "crash-near-sync";
    case ScenarioKind::kTightDoubleCrash:
      return "tight-double-crash";
    case ScenarioKind::kCrashDuringRecovery:
      return "crash-during-recovery";
    case ScenarioKind::kReplacementBackupCrash:
      return "replacement-backup-crash";
    case ScenarioKind::kCrashRestoreCrash:
      return "crash-restore-crash";
    case ScenarioKind::kRestoreRecrash:
      return "restore-recrash";
    case ScenarioKind::kBusDualLineOutage:
      return "bus-dual-line-outage";
    case ScenarioKind::kSegmentPartition:
      return "segment-partition";
    case ScenarioKind::kCrashMidCommit:
      return "crash-mid-commit";
    case ScenarioKind::kCrashDuringReplay:
      return "crash-during-replay";
    case ScenarioKind::kNumScenarioKinds:
      break;
  }
  return "?";
}

std::string FaultPlan::Describe() const {
  std::ostringstream os;
  os << ScenarioKindName(scenario) << (fullback ? " [fullback]" : " [quarterback]");
  for (const FaultAction& a : actions) {
    os << " " << FaultKindName(a.kind);
    if (a.kind == FaultKind::kKillProcess) {
      os << " victim#" << a.victim;
    } else if (a.kind == FaultKind::kFailBusLine || a.kind == FaultKind::kRestoreBusLine) {
      os << " line" << a.cluster;
    } else if (a.kind == FaultKind::kFailSwitch || a.kind == FaultKind::kRestoreSwitch) {
      os << " seg" << a.cluster;
    } else {
      os << " c" << a.cluster;
    }
    os << "@" << a.at;
  }
  return os.str();
}

namespace {

// True when clusters `a` and `b` may be dead at the same instant without
// breaking the single-failure guarantee for the servers or any workload
// process (see the header comment).
bool ConcurrentDeathOk(const FaultPlanInputs& in, ClusterId a, ClusterId b) {
  if (a == b) {
    return false;
  }
  if ((a == in.server_home_a && b == in.server_home_b) ||
      (a == in.server_home_b && b == in.server_home_a)) {
    return false;
  }
  for (const ProcPlacement& p : in.procs) {
    if ((p.primary == a && p.backup == b) || (p.primary == b && p.backup == a)) {
      return false;
    }
  }
  return true;
}

// Mirrors MachineEnv::PlaceNewBackup for the moment right after `primary`
// died and its process was taken over at `takeover`: lowest-numbered live
// cluster other than the takeover cluster itself.
ClusterId PredictReplacementBackup(const FaultPlanInputs& in, ClusterId primary,
                                   ClusterId takeover) {
  for (ClusterId c = 0; c < in.num_clusters; ++c) {
    if (c != primary && c != takeover) {
      return c;
    }
  }
  return kNoCluster;
}

FaultAction Crash(ClusterId cluster, SimTime at) {
  return FaultAction{FaultKind::kCrashCluster, at, cluster, 0};
}

FaultAction Restore(ClusterId cluster, SimTime at) {
  return FaultAction{FaultKind::kRestoreCluster, at, cluster, 0};
}

FaultAction BusFail(int line, SimTime at) {
  return FaultAction{FaultKind::kFailBusLine, at, static_cast<ClusterId>(line), 0};
}

FaultAction BusRestore(int line, SimTime at) {
  return FaultAction{FaultKind::kRestoreBusLine, at, static_cast<ClusterId>(line), 0};
}

FaultAction SwitchFail(SegmentId segment, SimTime at) {
  return FaultAction{FaultKind::kFailSwitch, at, static_cast<ClusterId>(segment), 0};
}

FaultAction SwitchRestore(SegmentId segment, SimTime at) {
  return FaultAction{FaultKind::kRestoreSwitch, at, static_cast<ClusterId>(segment), 0};
}

void DegradeToSingleCrash(FaultPlan& plan, Rng& rng, uint32_t num_clusters) {
  plan.scenario = ScenarioKind::kSingleCrash;
  plan.actions = {Crash(static_cast<ClusterId>(rng.Below(num_clusters)),
                        rng.Range(15'000, 120'000))};
}

}  // namespace

FaultPlan MakeFaultPlan(uint64_t seed, const FaultPlanInputs& in) {
  // Decorrelate from the workload generator, which is seeded with the same
  // campaign seed.
  Rng rng(seed * 0x9E3779B97F4A7C15ull + 0xFA017ull);
  FaultPlan plan;
  plan.scenario = static_cast<ScenarioKind>(
      rng.Below(static_cast<uint64_t>(ScenarioKind::kNumScenarioKinds)));

  auto any_cluster = [&] { return static_cast<ClusterId>(rng.Below(in.num_clusters)); };

  switch (plan.scenario) {
    case ScenarioKind::kSingleCrash: {
      plan.fullback = rng.Chance(0.5);
      plan.actions = {Crash(any_cluster(), rng.Range(15'000, 120'000))};
      break;
    }

    case ScenarioKind::kProcessKill: {
      plan.fullback = rng.Chance(0.5);
      if (in.procs.empty()) {
        DegradeToSingleCrash(plan, rng, in.num_clusters);
        break;
      }
      FaultAction a;
      a.kind = FaultKind::kKillProcess;
      a.victim = static_cast<uint32_t>(rng.Below(in.procs.size()));
      a.at = rng.Range(10'000, 120'000);
      plan.actions = {a};
      break;
    }

    case ScenarioKind::kCrashNearSync: {
      // Same shape as kSingleCrash but sampled at 1µs grain over the window
      // where the workload syncs constantly, so over a campaign the instant
      // lands in every phase of §7.8's page-ship / sync-message / staging
      // protocol — including between a page ship and its sync message.
      plan.fullback = rng.Chance(0.5);
      plan.actions = {Crash(any_cluster(), rng.Range(20'000, 200'000))};
      break;
    }

    case ScenarioKind::kTightDoubleCrash:
    case ScenarioKind::kCrashDuringRecovery: {
      plan.fullback = true;
      std::vector<std::pair<ClusterId, ClusterId>> pairs;
      for (ClusterId a = 0; a < in.num_clusters; ++a) {
        for (ClusterId b = 0; b < in.num_clusters; ++b) {
          if (ConcurrentDeathOk(in, a, b)) {
            pairs.emplace_back(a, b);
          }
        }
      }
      if (pairs.empty()) {
        DegradeToSingleCrash(plan, rng, in.num_clusters);
        break;
      }
      auto [first, second] = pairs[rng.Below(pairs.size())];
      SimTime t = rng.Range(20'000, 100'000);
      // Tight: both deaths inside one heartbeat/detection window, so peers
      // see back-to-back crash notices and the second arrives while the
      // first crash's scan is still pending. During-recovery: the second
      // death lands while takeover/rollforward/re-backup for the first is
      // still in flight.
      SimTime delta = plan.scenario == ScenarioKind::kTightDoubleCrash
                          ? rng.Range(1, 3'000)
                          : rng.Range(12'000, 40'000);
      plan.actions = {Crash(first, t), Crash(second, t + delta)};
      break;
    }

    case ScenarioKind::kReplacementBackupCrash: {
      plan.fullback = true;
      std::vector<std::pair<ClusterId, ClusterId>> choices;  // (primary, replacement)
      for (const ProcPlacement& p : in.procs) {
        ClusterId repl = PredictReplacementBackup(in, p.primary, p.backup);
        if (repl != kNoCluster && ConcurrentDeathOk(in, p.primary, repl)) {
          choices.emplace_back(p.primary, repl);
        }
      }
      if (choices.empty()) {
        DegradeToSingleCrash(plan, rng, in.num_clusters);
        break;
      }
      auto [primary, repl] = choices[rng.Below(choices.size())];
      SimTime t = rng.Range(20'000, 90'000);
      // The replacement dies between the takeover that chose it (detection
      // at t+timeout) and shortly after its kBackupReady has propagated —
      // covering both the stale-ready and the lost-fresh-backup windows.
      plan.actions = {Crash(primary, t),
                      Crash(repl, t + 12'000 + rng.Range(2'000, 18'000))};
      break;
    }

    case ScenarioKind::kCrashRestoreCrash: {
      plan.fullback = true;
      ClusterId a = any_cluster();
      ClusterId b = static_cast<ClusterId>((a + 1 + rng.Below(in.num_clusters - 1)) %
                                           in.num_clusters);
      SimTime t = rng.Range(15'000, 80'000);
      SimTime restored = t + rng.Range(60'000, 120'000);
      plan.actions = {Crash(a, t), Restore(a, restored),
                      Crash(b, restored + rng.Range(30'000, 80'000))};
      break;
    }

    case ScenarioKind::kRestoreRecrash: {
      plan.fullback = true;
      ClusterId a = any_cluster();
      SimTime t = rng.Range(15'000, 80'000);
      SimTime restored = t + rng.Range(60'000, 120'000);
      plan.actions = {Crash(a, t), Restore(a, restored),
                      Crash(a, restored + rng.Range(5'000, 25'000))};
      break;
    }

    case ScenarioKind::kBusDualLineOutage: {
      // §7.1's double fault: both lines of the dual bus die back-to-back.
      // Nothing crosses the bus until a restore, so heartbeats queue in the
      // urgent lane and must drain ahead of the data backlog on restore.
      // The dark window plus up to one heartbeat period can exceed the 12ms
      // heartbeat timeout, so a peer may declare a live cluster dead. The
      // bus then fences the accused at the crash notice, the accused fences
      // itself when the notice reaches it, and its processes fail over as
      // after a crash.
      plan.fullback = rng.Chance(0.5);
      SimTime t = rng.Range(20'000, 100'000);
      SimTime d1 = rng.Range(1, 500);        // second line dies mid-window
      // A segmented fabric drains the blackout backlog slower than the
      // single bus: a cross-segment frame transmits on its origin bus, then
      // re-arbitrates at every target segment behind that segment's own
      // backlog (fabric.h), roughly doubling the queued work per bus. The
      // tolerated dark window is therefore shorter on multi-segment
      // topologies — same draw count either way, so single-segment plans
      // are bit-identical to the pre-fabric campaign.
      SimTime outage = rng.Range(500, in.num_segments > 1 ? 4'000 : 8'000);
      int first_back = rng.Chance(0.5) ? 0 : 1;
      plan.actions = {BusFail(0, t), BusFail(1, t + d1),
                      BusRestore(first_back, t + d1 + outage),
                      BusRestore(1 - first_back, t + d1 + outage + rng.Range(0, 20'000))};
      break;
    }

    case ScenarioKind::kSegmentPartition: {
      // A segment's switch dies and returns inside the heartbeat timeout
      // (12ms): the segment is dark to the rest of the fabric, cross-segment
      // frames hold at the switch and the trunk, and the drain on restore
      // must reorder nothing — no peer may declare a false crash, no acked
      // cross-segment write may be lost.
      plan.fullback = rng.Chance(0.5);
      if (in.num_segments < 2) {
        DegradeToSingleCrash(plan, rng, in.num_clusters);
        break;
      }
      SegmentId seg = static_cast<SegmentId>(rng.Below(in.num_segments));
      SimTime t = rng.Range(20'000, 100'000);
      SimTime outage = rng.Range(1'000, 5'500);
      plan.actions = {SwitchFail(seg, t), SwitchRestore(seg, t + outage)};
      break;
    }

    case ScenarioKind::kCrashMidCommit: {
      // Like kCrashNearSync, but aimed at the file server's home so the
      // 1µs-grain instant sweeps the journal commit pipeline (log append →
      // commit record → checkpoint → sync) across a campaign.
      plan.fullback = rng.Chance(0.5);
      plan.actions = {Crash(in.server_home_a, rng.Range(20'000, 200'000))};
      break;
    }

    case ScenarioKind::kCrashDuringReplay: {
      // The file server's home dies (takeover boots the server from the
      // dual-ported disk on the other home, replaying the log if the crash
      // tore a commit), comes back after detection + takeover have run,
      // and then the takeover home dies once the §7.3 re-backup to the
      // restored home is in place — forcing a second boot-from-disk whose
      // replay runs amid the recovery traffic. The two homes are never
      // dead at the same instant, and each failure lands only after the
      // previous one's re-protection (the paper's §6 guarantee).
      plan.fullback = true;
      SimTime t = rng.Range(15'000, 80'000);
      SimTime back = t + rng.Range(25'000, 60'000);
      plan.actions = {Crash(in.server_home_a, t), Restore(in.server_home_a, back),
                      Crash(in.server_home_b, back + rng.Range(15'000, 40'000))};
      break;
    }

    case ScenarioKind::kNumScenarioKinds:
      DegradeToSingleCrash(plan, rng, in.num_clusters);
      break;
  }

  std::stable_sort(plan.actions.begin(), plan.actions.end(),
                   [](const FaultAction& x, const FaultAction& y) { return x.at < y.at; });
  return plan;
}

void InjectFaultPlan(Machine& machine, const FaultPlan& plan,
                     const std::vector<Gpid>& victims,
                     const std::vector<ProcPlacement>& placements) {
  // Action times are relative to injection (Boot() has already advanced the
  // simulated clock). Each action is an ordinary event on the machine's
  // engine, FIFO with every other event at its instant.
  const SimTime base = machine.Now();
  for (size_t i = 0; i < plan.actions.size(); ++i) {
    const FaultAction action = plan.actions[i];
    uint32_t index = static_cast<uint32_t>(i);
    // Resolve kill targets now: the action closures outlive the caller's
    // vectors.
    Gpid victim_pid;
    ClusterId victim_home = kNoCluster;
    if (action.kind == FaultKind::kKillProcess && action.victim < victims.size()) {
      victim_pid = victims[action.victim];
      victim_home = placements[action.victim].primary;
    }
    machine.engine().ScheduleAt(base + action.at, [&machine, action, index, victim_pid,
                                                   victim_home] {
      auto record = [&](ClusterId cluster) {
        if (machine.tracer() != nullptr) {
          machine.tracer()->Record(TraceEventKind::kFaultInject, cluster, 0, 0,
                                   static_cast<uint64_t>(action.kind), index);
        }
      };
      switch (action.kind) {
        case FaultKind::kCrashCluster:
          if (!machine.ClusterAlive(action.cluster)) {
            return;
          }
          record(action.cluster);
          machine.CrashCluster(action.cluster);
          break;
        case FaultKind::kRestoreCluster:
          if (machine.ClusterAlive(action.cluster)) {
            return;
          }
          record(action.cluster);
          machine.RestoreCluster(action.cluster);
          break;
        case FaultKind::kKillProcess: {
          if (victim_home == kNoCluster || !machine.ClusterAlive(victim_home)) {
            return;
          }
          record(victim_home);
          machine.FailProcess(victim_home, victim_pid);
          break;
        }
        case FaultKind::kFailBusLine: {
          const int line = static_cast<int>(action.cluster);
          if (!machine.bus().line_ok(line)) {
            return;
          }
          record(kNoCluster);
          machine.FailBusLine(line);
          break;
        }
        case FaultKind::kRestoreBusLine: {
          const int line = static_cast<int>(action.cluster);
          if (machine.bus().line_ok(line)) {
            return;
          }
          record(kNoCluster);
          machine.RestoreBusLine(line);
          break;
        }
        case FaultKind::kFailSwitch: {
          const SegmentId seg = static_cast<SegmentId>(action.cluster);
          if (machine.bus().num_segments() < 2 || !machine.SwitchOk(seg)) {
            return;
          }
          record(kNoCluster);
          machine.FailSwitch(seg);
          break;
        }
        case FaultKind::kRestoreSwitch: {
          const SegmentId seg = static_cast<SegmentId>(action.cluster);
          if (machine.bus().num_segments() < 2 || machine.SwitchOk(seg)) {
            return;
          }
          record(kNoCluster);
          machine.RestoreSwitch(seg);
          break;
        }
      }
    });
  }
}

}  // namespace auragen
