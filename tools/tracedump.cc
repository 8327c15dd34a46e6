// tracedump: capture and inspect Auragen trace files.
//
//   tracedump --capture FILE [--seed N] [--crash] [--all-kinds] [--ring N]
//       run the built-in crash/recovery ping-pong scenario with tracing on
//       and save the binary trace to FILE
//   tracedump --print FILE [--kind NAME] [--cluster N] [--pid HEX]
//             [--from US] [--to US] [--limit N]
//       print events, one per line, with optional filters
//   tracedump --chrome FILE [--out OUT.json]
//       export to Chrome trace_event JSON (load in chrome://tracing / Perfetto)
//   tracedump --stats FILE
//       per-event-class latency histograms (delivery, sync stall, recovery)
//   tracedump --digest FILE
//       print the run digest
//   tracedump --diff FILE1 FILE2
//       compare two traces; report the first divergent event

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "src/avm/assembler.h"
#include "src/machine/machine.h"
#include "src/trace/analysis.h"
#include "src/trace/chrome_trace.h"
#include "src/trace/trace.h"

namespace auragen {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: tracedump --capture FILE [--seed N] [--crash] [--all-kinds] "
               "[--ring N]\n"
               "       tracedump --print FILE [--kind NAME] [--cluster N] [--pid HEX]\n"
               "                 [--from US] [--to US] [--limit N]\n"
               "       tracedump --chrome FILE [--out OUT.json]\n"
               "       tracedump --stats FILE\n"
               "       tracedump --digest FILE\n"
               "       tracedump --diff FILE1 FILE2\n");
  return 2;
}

// The capture scenario: two user processes ping-pong over a paired channel
// across clusters with tty output; optionally cluster 2 is crashed mid-run
// so the trace shows detection, takeover, rollforward, and backup re-create.
int Capture(const std::string& path, uint64_t seed, bool crash, bool all_kinds,
            size_t ring) {
  MachineOptions options;
  options.config.topology = Topology::SingleSegment(3);
  options.seed = seed;
  options.trace.enabled = true;
  options.trace.unbounded = ring == 0;
  if (ring != 0) {
    options.trace.ring_capacity = ring;
  }
  if (all_kinds) {
    options.trace.kind_mask = ~uint64_t{0};
  }
  Machine machine(options);
  machine.Boot();

  Executable ping = MustAssemble(R"(
start:
    li r1, name
    li r2, 5
    sys open
    mov r10, r0
    li r8, 0
loop:
    li r11, buf
    st r8, r11, 0
    mov r1, r10
    li r2, buf
    li r3, 4
    sys write
    mov r1, r10
    li r2, buf
    li r3, 4
    sys read
    addi r8, r8, 1
    li r12, 30
    blt r8, r12, loop
    exit 0
.data
name: .ascii "ch:td"
buf: .word 0
)");
  Executable pong = MustAssemble(R"(
start:
    li r1, name
    li r2, 5
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
    mov r1, r10
    li r2, buf
    li r3, 4
    sys write
    addi r8, r8, 1
    li r12, 30
    blt r8, r12, loop
    exit 0
.data
name: .ascii "ch:td"
buf: .word 0
out: .byte 0
)");
  Machine::UserSpawnOptions a;
  a.backup_cluster = 1;
  Machine::UserSpawnOptions b;
  b.backup_cluster = 0;
  b.with_tty = true;
  machine.SpawnUserProgram(0, ping, a);
  machine.SpawnUserProgram(2, pong, b);
  if (crash) {
    machine.CrashClusterAt(machine.Now() + 1'000, 2);
  }
  if (!machine.RunUntilAllExited(300'000'000)) {
    std::fprintf(stderr, "tracedump: scenario did not finish\n");
    return 1;
  }
  machine.Settle();

  if (!machine.tracer()->SaveTo(path)) {
    std::fprintf(stderr, "tracedump: cannot write %s\n", path.c_str());
    return 1;
  }
  std::printf("captured %llu events (%zu held) to %s\n",
              static_cast<unsigned long long>(machine.tracer()->total_recorded()),
              machine.tracer()->Events().size(), path.c_str());
  std::printf("digest: %s\n", machine.tracer()->digest().ToString().c_str());
  return 0;
}

bool ParseKindName(const std::string& name, TraceEventKind* out) {
  for (unsigned v = 1; v < static_cast<unsigned>(TraceEventKind::kMaxKind); ++v) {
    TraceEventKind k = static_cast<TraceEventKind>(v);
    if (name == TraceEventKindName(k)) {
      *out = k;
      return true;
    }
  }
  return false;
}

struct Filter {
  bool has_kind = false;
  TraceEventKind kind = TraceEventKind::kSend;
  bool has_cluster = false;
  ClusterId cluster = 0;
  bool has_pid = false;
  uint64_t pid = 0;
  SimTime from = 0;
  SimTime to = UINT64_MAX;
  uint64_t limit = UINT64_MAX;

  bool Match(const TraceEvent& e) const {
    if (has_kind && e.kind != kind) return false;
    if (has_cluster && e.cluster != cluster) return false;
    if (has_pid && e.gpid != pid) return false;
    return e.ts >= from && e.ts <= to;
  }
};

int Print(const std::vector<TraceEvent>& events, const TraceDigest& digest,
          const Filter& filter) {
  uint64_t shown = 0;
  for (const TraceEvent& e : events) {
    if (!filter.Match(e)) {
      continue;
    }
    std::printf("%s\n", FormatTraceEvent(e).c_str());
    if (++shown >= filter.limit) {
      break;
    }
  }
  std::printf("-- %llu of %zu held events shown; run digest %s\n",
              static_cast<unsigned long long>(shown), events.size(),
              digest.ToString().c_str());
  return 0;
}

}  // namespace
}  // namespace auragen

int main(int argc, char** argv) {
  using namespace auragen;
  std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty()) {
    return Usage();
  }
  const std::string mode = args[0];
  auto value_of = [&](const std::string& flag) -> const char* {
    for (size_t i = 1; i + 1 < args.size(); ++i) {
      if (args[i] == flag) {
        return args[i + 1].c_str();
      }
    }
    return nullptr;
  };
  auto has_flag = [&](const std::string& flag) {
    for (size_t i = 1; i < args.size(); ++i) {
      if (args[i] == flag) {
        return true;
      }
    }
    return false;
  };
  if (args.size() < 2) {
    return Usage();
  }
  const std::string path = args[1];

  if (mode == "--capture") {
    uint64_t seed = 1;
    size_t ring = 0;
    if (const char* s = value_of("--seed")) seed = std::strtoull(s, nullptr, 0);
    if (const char* s = value_of("--ring")) ring = std::strtoull(s, nullptr, 0);
    return Capture(path, seed, has_flag("--crash"), has_flag("--all-kinds"), ring);
  }

  if (mode == "--diff") {
    if (args.size() < 3) {
      return Usage();
    }
    std::vector<TraceEvent> ea, eb;
    TraceDigest da, db;
    if (!LoadTrace(path, &ea, &da) || !LoadTrace(args[2], &eb, &db)) {
      std::fprintf(stderr, "tracedump: cannot load traces\n");
      return 1;
    }
    if (da == db) {
      std::printf("digests match: %s\n", da.ToString().c_str());
      return 0;
    }
    DivergenceReport report = FindFirstDivergence(ea, eb);
    std::printf("digest A: %s\ndigest B: %s\n%s\n", da.ToString().c_str(),
                db.ToString().c_str(),
                report.diverged ? report.ToString().c_str()
                                : "held events identical (divergence outside ring?)");
    return 1;
  }

  std::vector<TraceEvent> events;
  TraceDigest digest;
  if (!LoadTrace(path, &events, &digest)) {
    std::fprintf(stderr, "tracedump: cannot load %s\n", path.c_str());
    return 1;
  }

  if (mode == "--print") {
    Filter filter;
    if (const char* s = value_of("--kind")) {
      if (!ParseKindName(s, &filter.kind)) {
        std::fprintf(stderr, "tracedump: unknown kind '%s'\n", s);
        return 2;
      }
      filter.has_kind = true;
    }
    if (const char* s = value_of("--cluster")) {
      filter.has_cluster = true;
      filter.cluster = static_cast<ClusterId>(std::strtoul(s, nullptr, 0));
    }
    if (const char* s = value_of("--pid")) {
      filter.has_pid = true;
      filter.pid = std::strtoull(s, nullptr, 16);
    }
    if (const char* s = value_of("--from")) filter.from = std::strtoull(s, nullptr, 0);
    if (const char* s = value_of("--to")) filter.to = std::strtoull(s, nullptr, 0);
    if (const char* s = value_of("--limit")) filter.limit = std::strtoull(s, nullptr, 0);
    return Print(events, digest, filter);
  }

  if (mode == "--chrome") {
    const char* out = value_of("--out");
    const std::string out_path = out != nullptr ? out : path + ".json";
    if (!WriteChromeTrace(out_path, events)) {
      std::fprintf(stderr, "tracedump: cannot write %s\n", out_path.c_str());
      return 1;
    }
    std::printf("wrote %zu events to %s\n", events.size(), out_path.c_str());
    return 0;
  }

  if (mode == "--stats") {
    std::printf("%s", AnalyzeTrace(events).ToString().c_str());
    std::printf("digest: %s\n", digest.ToString().c_str());
    return 0;
  }

  if (mode == "--digest") {
    std::printf("%s\n", digest.ToString().c_str());
    return 0;
  }

  return Usage();
}
