// AVM interpreter.
//
// The CPU is deliberately a pure function: Run(context, memory, limit)
// executes instructions until one does not retire as kOk or `limit` have
// retired, and reports what stopped it. All durable state lives in
// CpuContext (the register part of the PCB, §7.7) and GuestMemory (the page
// account, §7.6) — exactly the two things the sync protocol ships. An
// instruction that page-faults has *no* side effects and leaves the PC
// unchanged, so it re-executes cleanly after page-in.

#ifndef AURAGEN_SRC_AVM_CPU_H_
#define AURAGEN_SRC_AVM_CPU_H_

#include <cstdint>
#include <string>

#include "src/base/codec.h"
#include "src/avm/isa.h"
#include "src/avm/memory.h"

namespace auragen {

// Register context. This plus the guest memory is the complete user-mode
// state of a process; both serialize bit-exactly.
struct CpuContext {
  uint32_t regs[kAvmNumRegs] = {};
  uint32_t pc = 0;

  template <class F>
  void Fields(F& f) {
    f(regs, pc);
  }
  friend bool operator==(const CpuContext& a, const CpuContext& b) {
    for (uint32_t i = 0; i < kAvmNumRegs; ++i) {
      if (a.regs[i] != b.regs[i]) {
        return false;
      }
    }
    return a.pc == b.pc;
  }
};

enum class StepKind : uint8_t {
  kOk,         // instruction retired
  kSyscall,    // SYS trap; pc already advanced, kernel writes r0 and resumes
  kPageFault,  // pc unchanged; re-execute after page-in
  kHalt,       // HALT retired; r1 = exit status
  kFault,      // synchronous program error (div0, illegal op, wild access);
               // deterministic, so it recurs identically on rollforward (§7.5.2)
};

struct StepResult {
  StepKind kind = StepKind::kOk;
  uint32_t sys_num = 0;       // valid when kSyscall
  PageNum fault_page = 0;     // valid when kPageFault
  const char* fault_reason = nullptr;  // valid when kFault
};

// Executes instructions until one does not retire as kOk, or until `limit`
// have retired; `*retired` counts the kOk ones. The result describes the
// instruction that stopped the run, or is kOk when the limit was reached
// (at once for a limit of 0). Instructions are fetched straight from the
// current page's bytes, so a store into the text is what executes next.
StepResult Run(CpuContext& ctx, GuestMemory& mem, uint64_t limit, uint64_t* retired);

// Renders an instruction for traces and the disassembler.
std::string Disassemble(const Instr& instr);

}  // namespace auragen

#endif  // AURAGEN_SRC_AVM_CPU_H_
