// Serving-workload subsystem tests (src/workload): the partitioned KV guest
// service, its closed-loop clients, and the SLO pipeline built on
// kRequestMark trace events.

#include <gtest/gtest.h>

#include "src/machine/machine.h"
#include "src/trace/analysis.h"
#include "src/workload/kv_service.h"
#include "src/workload/slo.h"

namespace auragen::workload {
namespace {

KvOptions SmallOptions() {
  KvOptions kv;
  kv.sessions = 12;
  kv.partitions = 4;
  kv.requests_per_session = 8;
  kv.think_spin = 16;
  kv.seed = 7;
  return kv;
}

MachineOptions SmallMachine() {
  MachineOptions options;
  options.config.topology = Topology::SingleSegment(4);
  options.seed = 7;
  options.trace.enabled = true;
  options.trace.unbounded = true;
  return options;
}

SloReport RunKv(const MachineOptions& mo, const KvOptions& kv,
                SimTime crash_at = 0, uint32_t crash_cluster = 0) {
  Machine machine(mo);
  machine.Boot();
  KvDeployment d = DeployKv(machine, kv);
  if (crash_at != 0) {
    machine.CrashClusterAt(machine.Now() + crash_at, crash_cluster);
  }
  const bool done = machine.RunUntil(
      [&] { return KvClientsDone(machine, d); }, 500'000'000);
  machine.Settle();
  return BuildSloReport(machine.tracer()->Events(), machine, d, done);
}

// Every session writes its private key first and reads it back last; the
// plan tracks intermediate private ops too. A clean run must therefore
// complete with zero verification mismatches — read-your-own-writes.
TEST(KvWorkload, ReadYourOwnWrites) {
  SloReport r = RunKv(SmallMachine(), SmallOptions());
  EXPECT_TRUE(r.complete);
  EXPECT_EQ(r.mismatches, 0u);
  EXPECT_EQ(r.completed, 12u * 8u);
  EXPECT_EQ(r.retries, 0u);
  EXPECT_GT(r.p50_us, 0u);
  EXPECT_GE(r.p999_us, r.p99_us);
  EXPECT_GE(r.p99_us, r.p50_us);
  EXPECT_GT(r.goodput_rps, 0.0);
}

// Fault-free, kvload's default machine: session 67's first request reaches
// the server's clusters 7 us before the open reply that creates the
// routing entries for its channel. Dropping the early arrival stalled the
// session with one verification mismatch; parked, it reaches the entry.
TEST(KvWorkload, EarlyArrivalBeforeOpenReplyIsDelivered) {
  KvOptions kv;
  kv.sessions = 200;
  kv.seed = 17;
  MachineOptions mo;
  mo.config.topology = Topology::SingleSegment(8);
  mo.seed = kv.seed;
  Machine machine(mo);
  machine.Boot();
  KvDeployment d = DeployKv(machine, kv);
  EXPECT_TRUE(machine.RunUntil([&] { return KvClientsDone(machine, d); }, 2'000'000'000));
  machine.Settle();
  EXPECT_EQ(KvMismatchTotal(machine, d), 0u);
  EXPECT_GT(machine.metrics().early_arrivals_parked, 0u);
}

// The plan is a pure function of (session, options): same seed, same plan;
// different seed, different shared-key traffic.
TEST(KvWorkload, PlanIsDeterministic) {
  KvOptions kv = SmallOptions();
  std::vector<KvRequest> a = PlanSession(5, kv);
  std::vector<KvRequest> b = PlanSession(5, kv);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].op, b[i].op);
    EXPECT_EQ(a[i].key, b[i].key);
    EXPECT_EQ(a[i].value, b[i].value);
  }
  EXPECT_EQ(a.front().op, 2u);    // leading private write
  EXPECT_TRUE(a.front().verify);
  EXPECT_EQ(a.back().op, 1u);     // closing private read-back
  EXPECT_TRUE(a.back().verify);
}

// DeployKv assembles the client source once and writes each session's
// fields into a copy of the image. A head-of-family backup that has not
// synced recovers by re-running that image (§7.7), so every copy must equal
// the full assembly of its own session's source, byte for byte.
TEST(KvWorkload, ClientTemplateMatchesPerSessionAssembly) {
  std::vector<KvOptions> shapes(5);
  shapes[1].replicas = 2;
  shapes[2].think_spin = 0;
  shapes[3].requests_per_session = 2;
  shapes[4].sessions = 10000;  // the widest channel names DeployKv accepts
  shapes[4].partitions = 100;
  for (const KvOptions& kv : shapes) {
    const KvClientTemplate clients(kv);
    for (uint32_t s = 0; s < kv.sessions; ++s) {
      const Executable want = MustAssemble(KvClientSource(s, kv));
      const Executable got = clients.Program(s);
      ASSERT_EQ(got.image, want.image) << "session " << s << " of " << kv.sessions;
      ASSERT_EQ(got.entry, want.entry) << "session " << s << " of " << kv.sessions;
    }
  }
}

// Message-system FT: crash a cluster mid-run. Takeover revives the lost
// primaries and co-crashed clients transparently; no acked write is lost and
// the client-side retry path never fires.
TEST(KvWorkload, TransparentFailoverAfterClusterCrash) {
  // CrashClusterAt offsets from engine().Now(), which is already ~20ms after
  // boot + deploy; +4ms lands mid-stream of the ~[2ms,7ms] request window.
  SloReport r = RunKv(SmallMachine(), SmallOptions(), 4'000, 2);
  EXPECT_TRUE(r.complete);
  EXPECT_EQ(r.mismatches, 0u);
  EXPECT_EQ(r.completed, 12u * 8u);
}

// Application-level primary/backup (replicas = 2, message-system FT off):
// crashing the primaries' cluster kills them for good, so every session must
// take the client-side retry/switchover path to the replica — and still
// verify all its private reads.
TEST(KvWorkload, ClientSwitchoverToReplica) {
  KvOptions kv = SmallOptions();
  kv.replicas = 2;
  kv.spread_servers = false;
  kv.primary_base = 2;
  kv.backup_base = 1;
  kv.client_clusters = {0, 1};
  MachineOptions mo = SmallMachine();
  mo.config.strategy = FtStrategy::kNone;
  SloReport r = RunKv(mo, kv, 4'000, 2);
  EXPECT_TRUE(r.complete);
  EXPECT_EQ(r.mismatches, 0u);
  EXPECT_GT(r.retries, 0u);  // at least one session switched over
}

// Two identical runs must produce bit-identical traces — the SLO numbers
// are reproducible artifacts, not samples.
TEST(KvWorkload, DeterministicTraceDigest) {
  auto digest_of = [&]() {
    MachineOptions mo = SmallMachine();
    Machine machine(mo);
    machine.Boot();
    KvDeployment d = DeployKv(machine, SmallOptions());
    machine.CrashClusterAt(machine.Now() + 4'000, 1);
    machine.RunUntil([&] { return KvClientsDone(machine, d); }, 500'000'000);
    machine.Settle();
    return machine.tracer()->digest().ToString();
  };
  EXPECT_EQ(digest_of(), digest_of());
}

// KvClientsDone advances an exited-prefix cursor instead of rescanning
// every client. Exits are permanent, so at every barrier of a crash run it
// must agree with the full scan, also while clients exit out of session
// order (the prefix then stops short of clients that already exited).
TEST(KvWorkload, DoneCheckCursorMatchesFullScan) {
  Machine machine(SmallMachine());
  machine.Boot();
  KvDeployment d = DeployKv(machine, SmallOptions());
  machine.CrashClusterAt(machine.Now() + 4'000, 2);
  uint64_t barriers = 0;
  uint64_t out_of_order = 0;  // barriers where an exit sits past a live client
  const bool done = machine.RunUntil(
      [&] {
        bool all_exited = true;
        for (Gpid pid : d.clients) {
          if (!machine.HasExited(pid)) {
            all_exited = false;
          } else if (!all_exited) {
            ++out_of_order;
            break;
          }
        }
        const bool cursor_done = KvClientsDone(machine, d);
        EXPECT_EQ(cursor_done, all_exited) << "barrier " << barriers;
        // The cursor is the longest exited prefix, no more and no less.
        for (size_t i = 0; i < d.clients_exited; ++i) {
          EXPECT_TRUE(machine.HasExited(d.clients[i])) << "barrier " << barriers;
        }
        if (d.clients_exited < d.clients.size()) {
          EXPECT_FALSE(machine.HasExited(d.clients[d.clients_exited]))
              << "barrier " << barriers;
        }
        ++barriers;
        return cursor_done;
      },
      500'000'000);
  EXPECT_TRUE(done);
  EXPECT_EQ(d.clients_exited, d.clients.size());
  EXPECT_GT(out_of_order, 0u);
  EXPECT_GT(barriers, 1000u);
}

// The latency pipeline end to end: request marks pair up into the analysis
// histograms, and the histogram percentiles are ordered and bounded.
TEST(KvWorkload, MarksFeedLatencyHistograms) {
  MachineOptions mo = SmallMachine();
  Machine machine(mo);
  machine.Boot();
  KvOptions kv = SmallOptions();
  KvDeployment d = DeployKv(machine, kv);
  machine.RunUntil([&] { return KvClientsDone(machine, d); }, 500'000'000);
  machine.Settle();
  TraceAnalysis a = AnalyzeTrace(machine.tracer()->Events());
  EXPECT_EQ(a.requests_completed, 12u * 8u);
  EXPECT_EQ(a.request_latency.count(), 12u * 8u);
  EXPECT_EQ(a.request_read_latency.count() + a.request_write_latency.count(),
            a.requests_completed);
  EXPECT_LE(a.request_latency.p50(), a.request_latency.p99());
  EXPECT_LE(a.request_latency.p99(), a.request_latency.p999());
  EXPECT_LE(a.request_latency.p999(), a.request_latency.max_us());
  EXPECT_GE(a.request_latency.p50(), a.request_latency.min_us());
  EXPECT_GT(a.RequestGoodputPerSec(), 0.0);
}

}  // namespace
}  // namespace auragen::workload
