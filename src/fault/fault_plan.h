// Seeded fault plans: deterministic schedules of cluster crashes, cluster
// restores, and individual-process kills, shaped into the failure scenarios
// §6-§7.10 claims the message system survives. A plan is a pure function of
// (seed, workload placement); the same seed always produces the same
// scenario, the same victims, and the same instants, so a failing campaign
// seed is a complete reproduction recipe.
//
// The generator only emits *survivable* plans: the paper's guarantee is
// single-failure tolerance plus whatever re-protection (fullback replacement
// backups, halfback return-to-service, lost-backup rebuild) restores between
// failures. Concretely:
//   * the two server home clusters are never dead at the same time (their
//     peripheral servers' disks are dual-ported only between them, §7.9);
//   * a tight double crash never covers both the primary and the backup of
//     any workload process;
//   * well-spaced multi-crash scenarios run the workload in fullback mode so
//     protection is re-established before the next failure lands.
// Scenario shapes that cannot be made survivable under the given placements
// degrade to a single crash (the plan says so in Describe()).

#ifndef AURAGEN_SRC_FAULT_FAULT_PLAN_H_
#define AURAGEN_SRC_FAULT_FAULT_PLAN_H_

#include <string>
#include <vector>

#include "src/base/types.h"

namespace auragen {

class Machine;
class Tracer;

enum class FaultKind : uint8_t {
  kCrashCluster = 0,   // fail-stop of a whole processing unit (§7.10)
  kKillProcess = 1,    // §10 extension: isolatable fault kills one process
  kRestoreCluster = 2, // the unit returns to service (§7.3 halfback)
  kFailBusLine = 3,    // one line of the dual bus dies (§7.1); `cluster`
                       // carries the line number (0 or 1)
  kRestoreBusLine = 4, // the line returns to service
  kFailSwitch = 5,     // a fabric segment's switch node dies; `cluster`
                       // carries the segment id (multi-segment topologies)
  kRestoreSwitch = 6,  // the switch returns; held frames drain FIFO
};
const char* FaultKindName(FaultKind kind);

enum class ScenarioKind : uint8_t {
  kSingleCrash = 0,         // one cluster dies at a random instant
  kProcessKill,             // one workload process dies (FailProcess)
  kCrashNearSync,           // fine-grained instant in the sync-dense window
  kTightDoubleCrash,        // two clusters die within one detection window
  kCrashDuringRecovery,     // second cluster dies while the first crash's
                            // handling/rollforward is still in progress
  kReplacementBackupCrash,  // the freshly chosen replacement-backup cluster
                            // of a fullback takeover dies
  kCrashRestoreCrash,       // crash A, restore A, then crash B
  kRestoreRecrash,          // crash A, restore A, crash A again while the
                            // §7.3 re-backup traffic is in flight
  kBusDualLineOutage,       // both bus lines die back-to-back, then come
                            // back; queued traffic (heartbeats first) must
                            // drain, and a cluster falsely declared dead
                            // must fail over like a crashed one
  kSegmentPartition,        // a fabric segment's switch dies and returns
                            // inside the heartbeat timeout: the segment is
                            // isolated, cross-segment frames hold at the
                            // switch and trunk, and on restore they drain
                            // FIFO — no acked write lost, no false crash
                            // declared, remote primaries re-reached.
                            // Degrades to kSingleCrash on one segment.
  kCrashMidCommit,          // the file server's home cluster dies at 1µs
                            // grain over the commit-dense window, so over a
                            // campaign the instant lands in every phase of
                            // the journaled commit: between the log append
                            // and the commit record (torn batch, must be
                            // discarded), between the record and the
                            // checkpoint (committed, must be replayed), and
                            // mid-checkpoint
  kCrashDuringReplay,       // crash the file server's home, restore it,
                            // then crash the takeover home shortly after —
                            // the server boots from disk again while the
                            // previous incarnation's log replay / re-backup
                            // traffic may still be in flight
  kNumScenarioKinds,
};
const char* ScenarioKindName(ScenarioKind kind);

struct FaultAction {
  FaultKind kind = FaultKind::kCrashCluster;
  SimTime at = 0;
  ClusterId cluster = kNoCluster;  // crash / restore target, or bus line 0/1
  uint32_t victim = 0;             // kKillProcess: index into the victim list
};

// Where one workload process runs and is backed up at spawn time.
struct ProcPlacement {
  ClusterId primary = kNoCluster;
  ClusterId backup = kNoCluster;
};

struct FaultPlanInputs {
  uint32_t num_clusters = 4;
  // Fabric segments (Topology::num_segments()). 1 = the pre-fabric machine:
  // switch scenarios degrade and plans are unchanged bit for bit.
  uint32_t num_segments = 1;
  // Home clusters of the system/peripheral servers; at most one of the two
  // may be dead at any instant.
  ClusterId server_home_a = 0;
  ClusterId server_home_b = 1;
  std::vector<ProcPlacement> procs;  // order matches the victim pid list
};

struct FaultPlan {
  ScenarioKind scenario = ScenarioKind::kSingleCrash;
  // Protection mode the scenario requires of the workload: multi-failure
  // shapes need fullback so replacement backups keep processes protected
  // between failures; single-failure shapes draw quarterback or fullback.
  bool fullback = false;
  std::vector<FaultAction> actions;  // sorted by `at`

  std::string Describe() const;
};

// Deterministic in (seed, inputs).
FaultPlan MakeFaultPlan(uint64_t seed, const FaultPlanInputs& inputs);

// Schedules every action of `plan` as machine control events. `victims` and
// `placements` resolve kKillProcess actions (pid and the cluster it was
// spawned on). Actions against already-dead (or, for restore, alive)
// clusters are skipped at fire time. Records kFaultInject trace events when
// the machine has a tracer.
void InjectFaultPlan(Machine& machine, const FaultPlan& plan,
                     const std::vector<Gpid>& victims,
                     const std::vector<ProcPlacement>& placements);

}  // namespace auragen

#endif  // AURAGEN_SRC_FAULT_FAULT_PLAN_H_
