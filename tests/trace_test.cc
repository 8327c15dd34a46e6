// Unit tests for the trace subsystem itself: ring-buffer capture, digest
// stability, file round-trip, kind masking, Chrome export shape, and the
// latency analysis pass. Whole-machine trace determinism is covered by
// determinism_test.cc.

#include <gtest/gtest.h>

#include "src/avm/assembler.h"
#include "src/machine/machine.h"
#include "src/trace/analysis.h"
#include "src/trace/chrome_trace.h"
#include "src/trace/trace.h"

namespace auragen {
namespace {

TraceOptions Capture() {
  TraceOptions o;
  o.enabled = true;
  o.unbounded = true;
  o.kind_mask = ~uint64_t{0};
  return o;
}

TEST(Trace, RecordsAndFormats) {
  Tracer t(Capture());
  SimTime now = 0;
  t.set_clock([&now] { return now; });
  now = 42;
  t.Record(TraceEventKind::kSend, 1, Gpid::Make(1, 7).value, 0xbeef, 3, 128);
  auto events = t.Events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].seq, 0u);
  EXPECT_EQ(events[0].ts, 42u);
  EXPECT_EQ(events[0].kind, TraceEventKind::kSend);
  std::string line = FormatTraceEvent(events[0]);
  EXPECT_NE(line.find("send"), std::string::npos);
  EXPECT_NE(line.find("c1"), std::string::npos);
  EXPECT_STREQ(TraceEventKindName(TraceEventKind::kSend), "send");
}

TEST(Trace, KindMaskSuppressesRecording) {
  TraceOptions o = Capture();
  o.kind_mask = TraceKindBit(TraceEventKind::kSend);
  Tracer t(o);
  t.Record(TraceEventKind::kSend, 0, 0, 0, 0, 0);
  t.Record(TraceEventKind::kBusTx, 0, 0, 0, 0, 0);  // masked out
  EXPECT_EQ(t.total_recorded(), 1u);
  EXPECT_FALSE(t.WantsKind(TraceEventKind::kBusTx));
  // The default mask drops only the engine-dispatch firehose.
  Tracer d(Capture());
  EXPECT_TRUE(d.WantsKind(TraceEventKind::kBusTx));
  Tracer def{TraceOptions{}};
  EXPECT_FALSE(def.WantsKind(TraceEventKind::kEngineDispatch));
}

TEST(Trace, RingKeepsTailButDigestCoversWholeRun) {
  TraceOptions ring = Capture();
  ring.unbounded = false;
  ring.ring_capacity = 8;
  Tracer rt(ring);
  Tracer full(Capture());
  for (uint64_t i = 0; i < 100; ++i) {
    rt.Record(TraceEventKind::kSend, 0, i, 0, i, 0);
    full.Record(TraceEventKind::kSend, 0, i, 0, i, 0);
  }
  EXPECT_EQ(rt.total_recorded(), 100u);
  auto tail = rt.Events();
  ASSERT_EQ(tail.size(), 8u);
  EXPECT_EQ(tail.front().seq, 92u);  // oldest surviving
  EXPECT_EQ(tail.back().seq, 99u);
  // The digest saw every event, identical to the unbounded tracer's.
  EXPECT_EQ(rt.digest(), full.digest());
  EXPECT_EQ(full.Events().size(), 100u);
}

TEST(Trace, DigestIsOrderAndFieldSensitive) {
  Tracer a(Capture());
  Tracer b(Capture());
  a.Record(TraceEventKind::kSend, 0, 1, 0, 0, 0);
  a.Record(TraceEventKind::kExit, 0, 2, 0, 0, 0);
  b.Record(TraceEventKind::kExit, 0, 2, 0, 0, 0);
  b.Record(TraceEventKind::kSend, 0, 1, 0, 0, 0);
  EXPECT_NE(a.digest(), b.digest());

  Tracer c(Capture());
  c.Record(TraceEventKind::kSend, 0, 1, 0, 0, 1);  // one field differs
  EXPECT_NE(a.digest().hash, c.digest().hash);
}

TEST(Trace, FileRoundTrip) {
  Tracer t(Capture());
  SimTime now = 0;
  t.set_clock([&now] { return now; });
  for (uint64_t i = 0; i < 20; ++i) {
    now = i * 10;
    t.Record(TraceEventKind::kBusTx, static_cast<ClusterId>(i % 3), i, i * 7, i, i + 1);
  }
  const std::string path = ::testing::TempDir() + "/trace_roundtrip.atrc";
  ASSERT_TRUE(t.SaveTo(path));

  std::vector<TraceEvent> loaded;
  TraceDigest digest;
  ASSERT_TRUE(LoadTrace(path, &loaded, &digest));
  EXPECT_EQ(digest, t.digest());
  ASSERT_EQ(loaded.size(), 20u);
  auto original = t.Events();
  for (size_t i = 0; i < loaded.size(); ++i) {
    EXPECT_EQ(loaded[i], original[i]);
  }
  EXPECT_FALSE(LoadTrace(path + ".missing", &loaded, &digest));
}

TEST(Trace, ChromeExportPairsBusFrames) {
  Tracer t(Capture());
  SimTime now = 0;
  t.set_clock([&now] { return now; });
  now = 100;
  t.Record(TraceEventKind::kBusTx, 0, 0, 0, /*frame=*/7, 64);
  now = 130;
  t.Record(TraceEventKind::kBusRx, 2, 0, 0, /*frame=*/7, 30);
  now = 140;
  t.Record(TraceEventKind::kSend, 1, Gpid::Make(1, 16).value, 0xaa, 0, 4);
  std::string json = ExportChromeTrace(t.Events());
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  // The tx/rx pair becomes one complete slice with the transit as duration.
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\":30"), std::string::npos);
  // The send is an instant event.
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  // Braces/brackets balance (cheap well-formedness check).
  int depth = 0;
  for (char ch : json) {
    if (ch == '{' || ch == '[') depth++;
    if (ch == '}' || ch == ']') depth--;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

TEST(Trace, AnalyzeComputesLatencies) {
  Tracer t(Capture());
  SimTime now = 0;
  t.set_clock([&now] { return now; });
  // Two frames with 25us and 75us transit.
  now = 0;
  t.Record(TraceEventKind::kBusTx, 0, 0, 0, 1, 64);
  now = 25;
  t.Record(TraceEventKind::kBusRx, 1, 0, 0, 1, 25);
  now = 30;
  t.Record(TraceEventKind::kBusTx, 0, 0, 0, 2, 64);
  now = 105;
  t.Record(TraceEventKind::kBusRx, 1, 0, 0, 2, 75);
  // A sync with an 11us stall and a crash handled in 500us.
  t.Record(TraceEventKind::kSyncTrigger, 0, 5, 0, 1, 11);
  now = 1000;
  t.Record(TraceEventKind::kCrashDetect, 0, 0, 0, /*dead=*/2, 0);
  now = 1200;
  t.Record(TraceEventKind::kRecoveryDispatch, 0, 9, 0, 0, 0);
  now = 1500;
  t.Record(TraceEventKind::kCrashHandled, 0, 0, 0, /*dead=*/2, 500);
  TraceAnalysis analysis = AnalyzeTrace(t.Events());
  EXPECT_EQ(analysis.delivery_latency.count(), 2u);
  EXPECT_EQ(analysis.delivery_latency.min_us(), 25u);
  EXPECT_EQ(analysis.delivery_latency.max_us(), 75u);
  EXPECT_EQ(analysis.sync_stall.count(), 1u);
  EXPECT_EQ(analysis.crash_to_dispatch.count(), 1u);
  EXPECT_EQ(analysis.crash_to_dispatch.min_us(), 200u);
  EXPECT_EQ(analysis.crash_to_recovered.count(), 1u);
  EXPECT_EQ(analysis.crash_to_recovered.min_us(), 500u);
  EXPECT_FALSE(analysis.ToString().empty());
}

TEST(Trace, MarksOnlyAnalysisPrintsNoEmptyHistogram) {
  // `kvload --stats` analyses a trace filtered down to request marks: the
  // request histograms have samples and no other histogram may print.
  Tracer t(Capture());
  SimTime now = 0;
  t.set_clock([&now] { return now; });
  const uint64_t client = Gpid::Make(1, 16).value;
  const uint64_t write_tag = (uint64_t{2} << 24) | 1;  // op 2 = write
  now = 100;
  t.Record(TraceEventKind::kRequestMark, 1, client, 0, /*issued=*/1, write_tag);
  now = 340;
  t.Record(TraceEventKind::kRequestMark, 1, client, 0, /*done=*/2, write_tag);
  const std::string s = AnalyzeTrace(t.Events()).ToString();
  EXPECT_EQ(s.find("count=0"), std::string::npos) << s;
  EXPECT_NE(s.find("request latency"), std::string::npos) << s;
  EXPECT_NE(s.find("request write lat"), std::string::npos) << s;
  EXPECT_EQ(s.find("request read lat"), std::string::npos) << s;
  EXPECT_EQ(s.find("delivery latency"), std::string::npos) << s;
  EXPECT_NE(s.find("completed=1"), std::string::npos) << s;
}

TEST(Trace, HistogramBucketsAndStats) {
  LatencyHistogram h;
  h.Add(1);
  h.Add(2);
  h.Add(1000);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.min_us(), 1u);
  EXPECT_EQ(h.max_us(), 1000u);
  EXPECT_EQ(h.total_us(), 1003u);
  EXPECT_DOUBLE_EQ(h.mean_us(), 1003.0 / 3.0);
  std::string s = h.ToString();
  EXPECT_NE(s.find("count=3"), std::string::npos);
  // 1000us lands in the [512,1024) bucket.
  EXPECT_NE(s.find("[512,1024):1"), std::string::npos);
}

// --- delivery-latency metric semantics ---
//
// delivery_latency_samples/_us_total feed the E1 latency analysis; these
// tests pin down what a "sample" is: one per non-heartbeat frame arrival at
// an alive endpoint, measured bus-accept to arrival.

MachineOptions LatencyOptions() {
  MachineOptions options;
  options.config.topology = Topology::SingleSegment(2);
  return options;
}

Executable CrossClusterHello() {
  return MustAssemble(R"(
start:
    li r1, 2          ; tty fd
    li r2, msg
    li r3, 13
    sys write
    exit 0
.data
msg: .ascii "hello, world\n"
)");
}

void RunHello(Machine& machine) {
  Machine::UserSpawnOptions opts;
  opts.with_tty = true;
  opts.backup_cluster = 0;
  // Spawned away from the tty/file servers (cluster 0) so every syscall
  // round-trip crosses the bus.
  machine.SpawnUserProgram(1, CrossClusterHello(), opts);
  ASSERT_TRUE(machine.RunUntilAllExited(5'000'000)) << "program did not exit";
  machine.Settle();
}

TEST(DeliveryLatency, HeartbeatsAreNotSampled) {
  Machine machine(LatencyOptions());
  machine.Boot();
  machine.Settle();
  uint64_t samples0 = machine.metrics().delivery_latency_samples;
  uint64_t frames0 = machine.bus().stats().frames_sent;
  // Idle machine: the only bus traffic is heartbeat polling (§7.10), which
  // the bus interface handles without entering the delivery path.
  machine.Run(2'000'000);
  EXPECT_GT(machine.bus().stats().frames_sent, frames0);
  EXPECT_EQ(machine.metrics().delivery_latency_samples, samples0);
}

TEST(DeliveryLatency, FailoverFramesSampledOnceWithTimeoutIncluded) {
  Machine normal(LatencyOptions());
  normal.Boot();
  uint64_t normal_base = normal.metrics().delivery_latency_samples;
  RunHello(normal);
  uint64_t normal_samples = normal.metrics().delivery_latency_samples - normal_base;
  EXPECT_GT(normal_samples, 0u);

  Machine failed(LatencyOptions());
  failed.Boot();
  failed.bus().FailLine(0);
  uint64_t failed_base = failed.metrics().delivery_latency_samples;
  RunHello(failed);
  uint64_t failed_samples = failed.metrics().delivery_latency_samples - failed_base;

  // A failed-over frame is still one frame: exactly as many samples as the
  // healthy run, never a second count for the retry on line 1.
  EXPECT_EQ(failed_samples, normal_samples);
  // But its latency carries the dead-line timeout, so the mean must rise.
  double normal_mean = static_cast<double>(normal.metrics().delivery_latency_us_total) /
                       static_cast<double>(normal.metrics().delivery_latency_samples);
  double failed_mean = static_cast<double>(failed.metrics().delivery_latency_us_total) /
                       static_cast<double>(failed.metrics().delivery_latency_samples);
  EXPECT_GT(failed_mean, normal_mean);
}

TEST(DeliveryLatency, InterleaveViolationSamplesMatchNormalPath) {
  Machine normal(LatencyOptions());
  normal.Boot();
  uint64_t normal_base = normal.metrics().delivery_latency_samples;
  RunHello(normal);
  uint64_t normal_samples = normal.metrics().delivery_latency_samples - normal_base;

  Machine skewed(LatencyOptions());
  skewed.Boot();
  skewed.bus().InjectAtomicityViolation(AtomicityViolation::kInterleave, 1.0, 13);
  uint64_t skewed_base = skewed.metrics().delivery_latency_samples;
  RunHello(skewed);
  uint64_t skewed_samples = skewed.metrics().delivery_latency_samples - skewed_base;

  // The interleave fault skews per-destination timing but delivers every
  // copy, so the sample count must agree with the normal path.
  EXPECT_EQ(skewed_samples, normal_samples);
}

}  // namespace
}  // namespace auragen
