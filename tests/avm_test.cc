// Unit tests for the AVM: memory residency/dirty tracking, interpreter
// semantics, fault behaviour, and the state-capture properties the sync
// protocol depends on.

#include <gtest/gtest.h>

#include "src/avm/assembler.h"
#include "src/avm/cpu.h"
#include "src/avm/memory.h"
#include "src/kernel/avm_body.h"

namespace auragen {
namespace {

// Executes one instruction: a run with a limit of 1.
StepResult Step(CpuContext& ctx, GuestMemory& mem) {
  uint64_t retired = 0;
  return Run(ctx, mem, 1, &retired);
}

TEST(GuestMemory, FaultsOnNonResident) {
  GuestMemory mem;
  uint8_t v = 0;
  EXPECT_EQ(mem.Read8(100, &v), GuestMemory::Access::kFault);
  EXPECT_EQ(mem.fault_page(), 0u);
  mem.MaterializeZero(0, /*dirty=*/false);
  EXPECT_EQ(mem.Read8(100, &v), GuestMemory::Access::kOk);
  EXPECT_EQ(v, 0);
}

TEST(GuestMemory, WriteSetsDirty) {
  GuestMemory mem;
  mem.MaterializeZero(2, false);
  EXPECT_FALSE(mem.Dirty(2));
  EXPECT_EQ(mem.Write32(2 * kAvmPageBytes + 4, 0xdead), GuestMemory::Access::kOk);
  EXPECT_TRUE(mem.Dirty(2));
  EXPECT_EQ(mem.DirtyPages(), (std::vector<PageNum>{2}));
  mem.ClearDirty(2);
  EXPECT_FALSE(mem.Dirty(2));
}

TEST(GuestMemory, CrossPageAccess) {
  GuestMemory mem;
  mem.MaterializeZero(0, false);
  // A 32-bit write straddling pages 0 and 1 faults until page 1 exists.
  uint32_t addr = kAvmPageBytes - 2;
  EXPECT_EQ(mem.Write32(addr, 0x11223344), GuestMemory::Access::kFault);
  EXPECT_EQ(mem.fault_page(), 1u);
  mem.MaterializeZero(1, false);
  EXPECT_EQ(mem.Write32(addr, 0x11223344), GuestMemory::Access::kOk);
  uint32_t v = 0;
  EXPECT_EQ(mem.Read32(addr, &v), GuestMemory::Access::kOk);
  EXPECT_EQ(v, 0x11223344u);
  EXPECT_TRUE(mem.Dirty(0));
  EXPECT_TRUE(mem.Dirty(1));
}

TEST(GuestMemory, OutOfRange) {
  GuestMemory mem;
  uint8_t v;
  EXPECT_EQ(mem.Read8(kAvmMemBytes, &v), GuestMemory::Access::kOutOfRange);
  EXPECT_EQ(mem.Write32(kAvmMemBytes - 2, 1), GuestMemory::Access::kOutOfRange);
}

TEST(GuestMemory, EvictAllDropsEverything) {
  GuestMemory mem;
  mem.InstallPageDirty(3, Bytes(kAvmPageBytes, 7));
  EXPECT_EQ(mem.resident_count(), 1u);
  mem.EvictAll();
  EXPECT_EQ(mem.resident_count(), 0u);
  EXPECT_TRUE(mem.DirtyPages().empty());
  uint8_t v;
  EXPECT_EQ(mem.Read8(3 * kAvmPageBytes, &v), GuestMemory::Access::kFault);
}

TEST(GuestMemory, ExtractInstallRoundTrip) {
  GuestMemory mem;
  Bytes content(kAvmPageBytes);
  for (size_t i = 0; i < content.size(); ++i) {
    content[i] = static_cast<uint8_t>(i);
  }
  mem.InstallPage(9, content);
  EXPECT_FALSE(mem.Dirty(9));
  EXPECT_EQ(mem.ExtractPage(9), content);
}

// --- interpreter ---

CpuContext RunProgram(const std::string& src, GuestMemory* mem_out = nullptr,
                      int max_steps = 100000) {
  Executable exe = MustAssemble(src);
  AvmBody body(exe);
  CpuContext ctx = body.context();
  GuestMemory& mem = body.memory();
  for (int i = 0; i < max_steps; ++i) {
    StepResult r = Step(ctx, mem);
    if (r.kind == StepKind::kHalt) {
      if (mem_out != nullptr) {
        *mem_out = mem;
      }
      return ctx;
    }
    if (r.kind == StepKind::kPageFault) {
      mem.MaterializeZero(r.fault_page, false);
      continue;
    }
    EXPECT_EQ(r.kind, StepKind::kOk) << "unexpected trap at step " << i;
    if (r.kind != StepKind::kOk) {
      break;
    }
  }
  return ctx;
}

TEST(Cpu, Arithmetic) {
  CpuContext ctx = RunProgram(R"(
    li r1, 10
    li r2, 3
    add r3, r1, r2    ; 13
    sub r4, r1, r2    ; 7
    mul r5, r1, r2    ; 30
    div r6, r1, r2    ; 3
    mod r7, r1, r2    ; 1
    halt
)");
  EXPECT_EQ(ctx.regs[3], 13u);
  EXPECT_EQ(ctx.regs[4], 7u);
  EXPECT_EQ(ctx.regs[5], 30u);
  EXPECT_EQ(ctx.regs[6], 3u);
  EXPECT_EQ(ctx.regs[7], 1u);
}

TEST(Cpu, SignedComparisonsAndShifts) {
  CpuContext ctx = RunProgram(R"(
    li r1, -5
    li r2, 3
    slt r3, r1, r2    ; 1 (signed)
    sltu r4, r1, r2   ; 0 (unsigned: 0xfffffffb > 3)
    li r5, 1
    li r6, 4
    shl r7, r5, r6    ; 16
    shr r8, r7, r6    ; 1
    halt
)");
  EXPECT_EQ(ctx.regs[3], 1u);
  EXPECT_EQ(ctx.regs[4], 0u);
  EXPECT_EQ(ctx.regs[7], 16u);
  EXPECT_EQ(ctx.regs[8], 1u);
}

TEST(Cpu, LoadsStoresAndData) {
  GuestMemory mem;
  CpuContext ctx = RunProgram(R"(
start:
    li r1, value
    ld r2, r1, 0
    addi r2, r2, 1
    st r2, r1, 0
    ldb r3, r1, 0
    halt
.data
value: .word 41
)", &mem);
  EXPECT_EQ(ctx.regs[2], 42u);
  EXPECT_EQ(ctx.regs[3], 42u);
}

TEST(Cpu, CallAndReturn) {
  CpuContext ctx = RunProgram(R"(
start:
    li r1, 5
    call double
    mov r4, r0
    halt
double:
    add r0, r1, r1
    ret
)");
  EXPECT_EQ(ctx.regs[4], 10u);
}

TEST(Cpu, PushPop) {
  CpuContext ctx = RunProgram(R"(
start:
    li r1, 111
    li r2, 222
    push r1
    push r2
    pop r3
    pop r4
    halt
)");
  EXPECT_EQ(ctx.regs[3], 222u);
  EXPECT_EQ(ctx.regs[4], 111u);
}

TEST(Cpu, DivideByZeroFaults) {
  Executable exe = MustAssemble(R"(
    li r1, 1
    li r2, 0
    div r3, r1, r2
    halt
)");
  AvmBody body(exe);
  CpuContext ctx = body.context();
  Step(ctx, body.memory());
  Step(ctx, body.memory());
  StepResult r = Step(ctx, body.memory());
  EXPECT_EQ(r.kind, StepKind::kFault);
  EXPECT_STREQ(r.fault_reason, "divide by zero");
}

TEST(Cpu, IllegalOpcodeFaults) {
  GuestMemory mem;
  mem.MaterializeZero(0, false);
  mem.Write8(0, 0xee);  // not a valid opcode
  CpuContext ctx;
  StepResult r = Step(ctx, mem);
  EXPECT_EQ(r.kind, StepKind::kFault);
}

TEST(Cpu, SyscallTrapAdvancesPc) {
  Executable exe = MustAssemble("sys yield\nhalt\n");
  AvmBody body(exe);
  CpuContext ctx = body.context();
  StepResult r = Step(ctx, body.memory());
  EXPECT_EQ(r.kind, StepKind::kSyscall);
  EXPECT_EQ(r.sys_num, static_cast<uint32_t>(Sys::kYield));
  EXPECT_EQ(ctx.pc, kAvmInstrBytes);
}

TEST(Cpu, ContextSerializationRoundTrip) {
  CpuContext ctx;
  for (uint32_t i = 0; i < kAvmNumRegs; ++i) {
    ctx.regs[i] = i * 1000 + 7;
  }
  ctx.pc = 0x1234;
  ByteWriter w;
  EncodeTo(w, ctx);
  ByteReader r(w.bytes());
  CpuContext back = Decode<CpuContext>(r);
  EXPECT_TRUE(ctx == back);
  // Pinned: the register file in order, then pc, each a little-endian u32.
  EXPECT_EQ(Fnv1a(w.bytes()), 10386114563111378129ull);
  EXPECT_EQ(w.size(), 4u * (kAvmNumRegs + 1));
}

TEST(Cpu, PageFaultHasNoSideEffects) {
  // A store to a non-resident page leaves pc and registers untouched.
  Executable exe = MustAssemble(R"(
    li r1, 7
    li r2, 0xC000
    st r1, r2, 0
    halt
)");
  AvmBody body(exe);
  CpuContext ctx = body.context();
  GuestMemory& mem = body.memory();
  Step(ctx, mem);
  Step(ctx, mem);
  uint32_t pc_before = ctx.pc;
  StepResult r = Step(ctx, mem);
  ASSERT_EQ(r.kind, StepKind::kPageFault);
  EXPECT_EQ(ctx.pc, pc_before);
  mem.MaterializeZero(r.fault_page, false);
  EXPECT_EQ(Step(ctx, mem).kind, StepKind::kOk);  // re-executes cleanly
  uint32_t v;
  mem.Read32(0xC000, &v);
  EXPECT_EQ(v, 7u);
}

// --- the run loop against single steps ---

struct RunOutcome {
  StepResult result;
  uint64_t retired = 0;
  CpuContext ctx;
  GuestMemory mem;
};

// Runs one Run call of `limit` and, from the same state, a loop of Step
// calls that stops where Run must: at the first instruction that does not
// retire as kOk, or after `limit` have. The two must agree on everything a
// caller can see. Returns the Run side for case-specific checks.
RunOutcome ExpectRunMatchesSteps(const CpuContext& ctx, const GuestMemory& mem,
                                 uint64_t limit) {
  RunOutcome run{StepResult{}, 0, ctx, mem};
  run.result = Run(run.ctx, run.mem, limit, &run.retired);

  RunOutcome step{StepResult{}, 0, ctx, mem};
  while (step.retired < limit) {
    step.result = Step(step.ctx, step.mem);
    if (step.result.kind != StepKind::kOk) {
      break;
    }
    ++step.retired;
  }

  EXPECT_EQ(run.retired, step.retired);
  EXPECT_EQ(run.result.kind, step.result.kind);
  EXPECT_EQ(run.result.sys_num, step.result.sys_num);
  EXPECT_EQ(run.result.fault_page, step.result.fault_page);
  EXPECT_EQ(run.result.fault_reason == nullptr, step.result.fault_reason == nullptr);
  if (run.result.fault_reason != nullptr && step.result.fault_reason != nullptr) {
    EXPECT_STREQ(run.result.fault_reason, step.result.fault_reason);
  }
  EXPECT_TRUE(run.ctx == step.ctx);
  EXPECT_EQ(run.mem.fault_page(), step.mem.fault_page());
  EXPECT_EQ(run.mem.DirtyPages(), step.mem.DirtyPages());
  for (PageNum p = 0; p < kAvmNumPages; ++p) {
    EXPECT_EQ(run.mem.Resident(p), step.mem.Resident(p)) << "page " << p;
    if (run.mem.Resident(p) && step.mem.Resident(p)) {
      EXPECT_EQ(run.mem.ExtractPage(p), step.mem.ExtractPage(p)) << "page " << p;
    }
  }
  return run;
}

RunOutcome ExpectRunMatchesSteps(const std::string& src, uint64_t limit) {
  AvmBody body(MustAssemble(src));
  return ExpectRunMatchesSteps(body.context(), body.memory(), limit);
}

// A page holding `code` from its first byte; the rest is zero, which
// decodes as nop.
Bytes CodePage(const std::vector<Instr>& code) {
  Bytes page(kAvmPageBytes, 0);
  for (size_t i = 0; i < code.size(); ++i) {
    EncodeInstr(code[i], page.data() + i * kAvmInstrBytes);
  }
  return page;
}

TEST(RunLoop, StoreRewritesTheNextInstruction) {
  // The store patches the immediate of the instruction right after it, on
  // the page being executed; the patched value is what executes.
  RunOutcome run = ExpectRunMatchesSteps(R"(
    li r1, 7
    li r2, target
    st r1, r2, 4
target:
    li r3, 1
    halt
)", 100);
  EXPECT_EQ(run.result.kind, StepKind::kHalt);
  EXPECT_EQ(run.retired, 4u);
  EXPECT_EQ(run.ctx.regs[3], 7u);
}

TEST(RunLoop, RunsOffAResidentPageIntoAMissingOne) {
  Instr addi;
  addi.op = Op::kAddi;
  addi.ra = 1;
  addi.rb = 1;
  addi.imm = 1;
  GuestMemory mem;
  mem.InstallPageDirty(0, CodePage(std::vector<Instr>(kAvmPageBytes / kAvmInstrBytes, addi)));
  CpuContext ctx;
  RunOutcome run = ExpectRunMatchesSteps(ctx, mem, 1000);
  ASSERT_EQ(run.result.kind, StepKind::kPageFault);
  EXPECT_EQ(run.result.fault_page, 1u);
  EXPECT_EQ(run.mem.fault_page(), 1u);
  EXPECT_EQ(run.retired, kAvmPageBytes / kAvmInstrBytes);
  EXPECT_EQ(run.ctx.pc, kAvmPageBytes);  // the new page's first instruction
  EXPECT_EQ(run.ctx.regs[1], kAvmPageBytes / kAvmInstrBytes);

  // Once the page is in, the same loop carries on across the boundary.
  run.mem.InstallPageDirty(1, CodePage({addi, Instr{Op::kHalt, 0, 0, 0, 0}}));
  RunOutcome resumed = ExpectRunMatchesSteps(run.ctx, run.mem, 1000);
  EXPECT_EQ(resumed.result.kind, StepKind::kHalt);
  EXPECT_EQ(resumed.retired, 1u);
  EXPECT_EQ(resumed.ctx.regs[1], kAvmPageBytes / kAvmInstrBytes + 1);
}

TEST(RunLoop, DataFaultsMidRunHaveNoSideEffects) {
  for (const char* access : {"ld r3, r2, 0", "st r1, r2, 0"}) {
    SCOPED_TRACE(access);
    RunOutcome run = ExpectRunMatchesSteps(std::string(R"(
    li r1, 5
    li r3, 9
    li r2, 0xC000
    )") + access + "\n    halt\n", 100);
    ASSERT_EQ(run.result.kind, StepKind::kPageFault);
    EXPECT_EQ(run.result.fault_page, PageOf(0xC000));
    EXPECT_EQ(run.retired, 3u);
    EXPECT_EQ(run.ctx.pc, 3 * kAvmInstrBytes);  // the faulting access
    EXPECT_EQ(run.ctx.regs[3], 9u);
    EXPECT_FALSE(run.mem.Resident(PageOf(0xC000)));
  }
}

TEST(RunLoop, TrapsEndTheRun) {
  struct Case {
    const char* name;
    std::string src;
    StepKind kind;
    const char* reason;
    uint32_t pc;  // after the run
  };
  const Case cases[] = {
      {"unaligned jr", "li r1, 13\njr r1\nhalt\n", StepKind::kFault, "bad pc", 13},
      {"jr past the address space", "li r1, 0xFFFFFFF8\njr r1\nhalt\n", StepKind::kFault,
       "fetch out of range", 0xFFFFFFF8u},
      {"halt", "li r1, 1\nli r1, 2\nhalt\n", StepKind::kHalt, nullptr, 16},
      {"sys", "li r1, 1\nli r1, 2\nsys yield\nhalt\n", StepKind::kSyscall, nullptr, 24},
      {"divide by zero", "li r1, 1\nli r2, 0\ndiv r3, r1, r2\nhalt\n", StepKind::kFault,
       "divide by zero", 16},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    RunOutcome run = ExpectRunMatchesSteps(c.src, 100);
    EXPECT_EQ(run.result.kind, c.kind);
    EXPECT_EQ(run.retired, 2u);
    EXPECT_EQ(run.ctx.pc, c.pc);
    if (c.reason != nullptr) {
      EXPECT_STREQ(run.result.fault_reason, c.reason);
    }
    if (c.kind == StepKind::kSyscall) {
      EXPECT_EQ(run.result.sys_num, static_cast<uint32_t>(Sys::kYield));
    }
  }
}

TEST(RunLoop, BadEncodingsFault) {
  Instr li;
  li.op = Op::kLi;
  li.ra = 2;
  li.imm = 4;
  Instr bad_register = li;
  bad_register.ra = kAvmNumRegs;
  Instr illegal;
  illegal.op = static_cast<Op>(0xee);
  for (const auto& [bad, reason] : {std::pair{bad_register, "bad register"},
                                    std::pair{illegal, "illegal opcode"}}) {
    SCOPED_TRACE(reason);
    GuestMemory mem;
    mem.InstallPageDirty(0, CodePage({li, li, bad}));
    RunOutcome run = ExpectRunMatchesSteps(CpuContext{}, mem, 100);
    EXPECT_EQ(run.result.kind, StepKind::kFault);
    EXPECT_STREQ(run.result.fault_reason, reason);
    EXPECT_EQ(run.retired, 2u);
    EXPECT_EQ(run.ctx.pc, 2 * kAvmInstrBytes);
  }
}

TEST(RunLoop, LimitStopsBeforeTheNextInstruction) {
  const std::string src = "li r1, 1\nli r2, 2\nsys yield\nhalt\n";
  // At 2 the budget runs out just before the SYS, which has not trapped.
  for (uint64_t limit : {0u, 1u, 2u}) {
    SCOPED_TRACE(limit);
    RunOutcome run = ExpectRunMatchesSteps(src, limit);
    EXPECT_EQ(run.result.kind, StepKind::kOk);
    EXPECT_EQ(run.retired, limit);
    EXPECT_EQ(run.ctx.pc, limit * kAvmInstrBytes);
    EXPECT_EQ(run.ctx.regs[2], limit == 2 ? 2u : 0u);
  }
  RunOutcome sys = ExpectRunMatchesSteps(src, 3);
  EXPECT_EQ(sys.result.kind, StepKind::kSyscall);
  EXPECT_EQ(sys.retired, 2u);
}

TEST(AvmBody, WorkForEveryWayARunEnds) {
  struct Case {
    const char* name;
    std::string src;
    BodyRun::Kind kind;
    uint64_t work;
  };
  const Case cases[] = {
      // Five instructions of an endless loop.
      {"budget", "top:\naddi r1, r1, 1\njmp top\n", BodyRun::Kind::kBudget, 5},
      // Two instructions, then the trap's kSyscallWork of 20.
      {"syscall", "li r1, 1\nli r2, 2\nsys yield\n", BodyRun::Kind::kSyscall, 22},
      // The faulting load is not charged.
      {"page fault", "li r1, 1\nli r2, 0xC000\nld r3, r2, 0\n", BodyRun::Kind::kPageFault, 2},
      // HALT and a program fault each cost one more.
      {"exit", "li r1, 3\nhalt\n", BodyRun::Kind::kExited, 2},
      {"fault", "li r1, 1\nli r2, 0\ndiv r3, r1, r2\n", BodyRun::Kind::kFault, 3},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    AvmBody body(MustAssemble(c.src));
    BodyRun run = body.Run(5);
    EXPECT_EQ(run.kind, c.kind);
    EXPECT_EQ(run.work, c.work);
  }
}

TEST(AvmBody, ForkClonesMemoryAndDiffersR0) {
  Executable exe = MustAssemble(R"(
    li r5, 99
    li r2, 0x8000
    st r5, r2, 0
    sys fork
    halt
)");
  AvmBody parent(exe);
  BodyRun run = parent.Run(1000);
  while (run.kind == BodyRun::Kind::kPageFault) {
    parent.InstallPage(run.fault_page, /*known=*/false, {});
    run = parent.Run(1000);
  }
  ASSERT_EQ(run.kind, BodyRun::Kind::kSyscall);
  ASSERT_EQ(run.request.num, Sys::kFork);
  std::unique_ptr<AvmBody> child = parent.CloneForFork(1234);
  EXPECT_EQ(parent.context().regs[0], 1234u);
  EXPECT_EQ(child->context().regs[0], 0u);
  uint32_t v = 0;
  child->memory().Read32(0x8000, &v);
  EXPECT_EQ(v, 99u);
  // Child pages are all dirty so its first sync ships a full account.
  EXPECT_FALSE(child->memory().DirtyPages().empty());
}

TEST(AvmBody, SignalSpillAndReturn) {
  Executable exe = MustAssemble(R"(
    li r1, 5
    li r2, 6
    halt
)");
  AvmBody body(exe);
  BodyRun run = body.Run(1);  // executed li r1,5
  ASSERT_EQ(run.kind, BodyRun::Kind::kBudget);
  CpuContext before = body.context();
  ASSERT_TRUE(body.EnterSignal(0x40, 14));
  EXPECT_EQ(body.context().pc, 0x40u);
  EXPECT_EQ(body.context().regs[1], 14u);
  body.LeaveSignal();
  EXPECT_TRUE(body.context() == before);
}

TEST(AvmBody, CaptureRewindsBlockedSyscall) {
  Executable exe = MustAssemble(R"(
    li r1, 3
    sys read
    halt
)");
  AvmBody body(exe);
  BodyRun run = body.Run(100);
  ASSERT_EQ(run.kind, BodyRun::Kind::kSyscall);
  // Blocked in read: capture rewinds to the SYS instruction.
  Bytes ctx_blob = body.CaptureContext();
  ByteReader r(ctx_blob);
  CpuContext captured = Decode<CpuContext>(r);
  EXPECT_EQ(captured.pc, kAvmInstrBytes);  // the SYS, not past it

  // A restored body re-issues the identical read.
  AvmBody restored(exe);
  restored.RestoreContext(ctx_blob);
  BodyRun again = restored.Run(100);
  ASSERT_EQ(again.kind, BodyRun::Kind::kSyscall);
  EXPECT_EQ(again.request.num, Sys::kRead);
  EXPECT_EQ(again.request.a, 3u);
}

TEST(Disassemble, CoversCommonOps) {
  Instr in;
  in.op = Op::kAddi;
  in.ra = 1;
  in.rb = 2;
  in.imm = 7;
  EXPECT_EQ(Disassemble(in), "addi r1, r2, 7");
  in.op = Op::kSys;
  in.imm = 4;
  EXPECT_EQ(Disassemble(in), "sys 4");
}

}  // namespace
}  // namespace auragen
