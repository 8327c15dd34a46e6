// pipeline: a three-stage processing pipeline spread across clusters —
// producer -> transformer -> consumer — connected by paired channels
// (§7.4.1). Demonstrates that a chain of communicating processes survives
// the loss of the *middle* stage's cluster: the transformer rolls forward,
// re-reads its saved inputs, and its duplicate outputs are suppressed, so
// the consumer sees each item exactly once and in order.
//
//   $ ./examples/pipeline [crash_time_us]      (0 = no crash; default 45000)

#include <cstdio>
#include <cstdlib>

#include "src/avm/assembler.h"
#include "src/machine/machine.h"

using namespace auragen;

namespace {

constexpr int kItems = 16;

// Producer: sends 1..16 on ch:raw.
Executable Producer() {
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
    li r11, 1800
    blt r9, r11, pace
    li r11, buf
    st r8, r11, 0
    mov r1, r10
    li r2, buf
    li r3, 4
    sys write
    addi r8, r8, 1
    li r11, 17
    blt r8, r11, loop
    exit 0
.data
name: .ascii "ch:raw"
buf: .word 0
)");
}

// Transformer: reads from ch:raw, squares each value mod 97, forwards on
// ch:cooked. This is the stage whose cluster dies.
Executable Transformer() {
  return MustAssemble(R"(
start:
    li r1, name_in
    li r2, 6
    sys open
    mov r10, r0
    li r1, name_out
    li r2, 9
    sys open
    mov r11, r0
    li r8, 0
loop:
    mov r1, r10
    li r2, buf
    li r3, 4
    sys read
    li r13, buf
    ld r2, r13, 0
    mul r2, r2, r2
    li r3, 97
    mod r2, r2, r3
    st r2, r13, 0
    mov r1, r11
    li r2, buf
    li r3, 4
    sys write
    addi r8, r8, 1
    li r12, 16
    blt r8, r12, loop
    exit 0
.data
name_in: .ascii "ch:raw"
name_out: .ascii "ch:cooked"
buf: .word 0
)");
}

// Consumer: reads 16 values from ch:cooked, prints each as two hex chars.
Executable Consumer() {
  return MustAssemble(R"(
start:
    li r1, name
    li r2, 9
    sys open
    mov r10, r0
    li r8, 0
loop:
    mov r1, r10
    li r2, buf
    li r3, 4
    sys read
    li r13, buf
    ld r2, r13, 0
    ; hex digits
    li r3, 16
    div r4, r2, r3
    call hexchar
    li r13, out
    stb r0, r13, 0
    li r13, buf
    ld r2, r13, 0
    li r3, 16
    mod r4, r2, r3
    call hexchar
    li r13, out
    stb r0, r13, 1
    li r1, 2
    li r2, out
    li r3, 2
    sys write
    addi r8, r8, 1
    li r12, 16
    blt r8, r12, loop
    exit 0
hexchar:               ; r4 in [0,15] -> ascii in r0
    li r5, 10
    blt r4, r5, digit
    addi r0, r4, 87    ; 'a' - 10
    ret
digit:
    addi r0, r4, 48
    ret
.data
name: .ascii "ch:cooked"
buf: .word 0
out: .space 4
)");
}

}  // namespace

int main(int argc, char** argv) {
  SimTime crash_at = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 20'000;

  MachineOptions options;
  options.config.topology = Topology::SingleSegment(3);
  options.config.sync_reads_limit = 4;
  Machine machine(options);
  machine.Boot();

  Machine::UserSpawnOptions prod_opts;
  prod_opts.backup_cluster = 1;
  Machine::UserSpawnOptions xform_opts;
  xform_opts.backup_cluster = 0;
  xform_opts.mode = BackupMode::kFullback;  // gets a replacement backup too
  Machine::UserSpawnOptions cons_opts;
  cons_opts.backup_cluster = 2;
  cons_opts.with_tty = true;

  machine.SpawnUserProgram(0, Producer(), prod_opts);
  machine.SpawnUserProgram(2, Transformer(), xform_opts);
  machine.SpawnUserProgram(1, Consumer(), cons_opts);

  if (crash_at != 0) {
    std::printf("will crash cluster 2 (the transformer stage) at +%llu us\n",
                static_cast<unsigned long long>(crash_at));
    machine.CrashClusterAt(machine.Now() + crash_at, 2);
  }

  bool done = machine.RunUntilAllExited(300'000'000);
  machine.Settle();

  // Reference: i*i mod 97 for i = 1..16, two hex chars each.
  std::string expected;
  for (int i = 1; i <= kItems; ++i) {
    char buf[3];
    std::snprintf(buf, sizeof buf, "%02x", (i * i) % 97);
    expected += buf;
  }

  std::printf("pipeline finished: %s\n", done ? "yes" : "NO");
  std::printf("consumer saw: \"%s\"\n", machine.TtyOutput(0).c_str());
  std::printf("expected:     \"%s\"\n", expected.c_str());
  std::printf("takeovers=%llu suppressed=%llu replayed=%llu\n",
              static_cast<unsigned long long>(machine.metrics().takeovers),
              static_cast<unsigned long long>(machine.metrics().sends_suppressed),
              static_cast<unsigned long long>(machine.metrics().rollforward_msgs_replayed));

  bool ok = done && machine.TtyOutput(0) == expected;
  std::printf("%s\n", ok ? "OK: exactly-once, in-order delivery through the crash."
                         : "FAILURE: stream corrupted!");
  return ok ? 0 : 1;
}
