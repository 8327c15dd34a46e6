// terminal_session: an interactive-style session — a guest shell echoes
// typed lines with a counter prefix and handles ^C via a signal handler
// (§7.5.2) — surviving the crash of the cluster hosting the *tty server*
// itself. Shows the peripheral-server recovery story of §7.9: the active
// backup takes over the terminal line, at most a small re-emission window
// appears in the raw stream, and the deduplicated view is exact.
//
//   $ ./examples/terminal_session

#include <cstdio>

#include "src/avm/assembler.h"
#include "src/machine/machine.h"

using namespace auragen;

int main() {
  MachineOptions options;
  options.config.topology = Topology::SingleSegment(2);
  Machine machine(options);
  machine.Boot();

  // Shell: prints a prompt, then loops: read a line from the terminal, echo
  // it back prefixed by a sequence digit. ^C raises SIGINT; the signal
  // interrupts the blocked read (restartable-syscall semantics) and the
  // handler says goodbye and exits — like a shell trapping SIGINT.
  Executable shell = MustAssemble(R"(
start:
    li r1, handler
    sys sigset
    li r1, 2
    li r2, prompt
    li r3, 2
    sys write
    li r8, 48          ; '0'
loop:
    li r1, 2
    li r2, buf
    li r3, 32
    sys read           ; one input line (interruptible by SIGINT)
    mov r4, r0
    li r12, 0
    beq r4, r12, loop
    li r11, line
    addi r8, r8, 1
    stb r8, r11, 0
    li r1, 2
    li r2, line
    li r3, 2
    sys write          ; "N>"
    li r1, 2
    li r2, buf
    mov r3, r4
    sys write          ; echo
    jmp loop
handler:
    li r1, 2
    li r2, byemsg
    li r3, 3
    sys write
    exit 0
.data
prompt: .ascii "$ "
line: .ascii "?>"
buf: .space 32
byemsg: .ascii "bye"
)");

  Machine::UserSpawnOptions opts;
  opts.with_tty = true;
  opts.backup_cluster = 0;
  machine.SpawnUserProgram(1, shell, opts);

  // Scripted "typing". The tty server lives in cluster 0, which dies
  // between the second and third line.
  SimTime t0 = machine.Now();
  machine.InjectTtyInput(0, "ls\n", t0 + 20'000);
  machine.InjectTtyInput(0, "make\n", t0 + 40'000);
  machine.CrashClusterAt(t0 + 55'000, 0);
  machine.InjectTtyInput(0, "again\n", t0 + 120'000);
  machine.InjectTtyInput(0, "\x03", t0 + 170'000);

  bool done = machine.RunUntilAllExited(120'000'000);
  machine.Settle();

  std::printf("session finished: %s\n", done ? "yes" : "NO");
  std::printf("transcript (deduplicated):\n---\n%s\n---\n", machine.TtyOutput(0).c_str());
  std::printf("raw records: %zu, duplicates from server re-emission: %llu\n",
              machine.tty_raw().size(),
              static_cast<unsigned long long>(machine.TtyDuplicates()));
  std::printf("tty server now primary in cluster %u (was 0)\n",
              machine.tty_server_addr().primary);

  std::string expected = "$ 1>ls\n2>make\n3>again\nbye";
  bool ok = done && machine.TtyOutput(0) == expected;
  std::printf("%s\n", ok ? "OK: session survived the terminal server's crash."
                         : "FAILURE: transcript diverged!");
  return ok ? 0 : 1;
}
