#include "src/avm/cpu.h"

#include <sstream>

namespace auragen {

namespace {

StepResult PageFault(PageNum page) {
  StepResult r;
  r.kind = StepKind::kPageFault;
  r.fault_page = page;
  return r;
}

StepResult Fault(const char* reason) {
  StepResult r;
  r.kind = StepKind::kFault;
  r.fault_reason = reason;
  return r;
}

}  // namespace

// The interpreter's hot loop starts on a cache line, so that edits elsewhere
// in the binary cannot shift its branch layout: with byte-identical code, a
// start 32 bytes into a line cost the campaign benchmark ~10% host time.
__attribute__((aligned(64))) StepResult Step(CpuContext& ctx, GuestMemory& mem) {
  // Fetch. The PC must be 8-byte aligned; text pages are ordinary pages and
  // can fault like any other (text is demand-paged on recovery, §7.10.2).
  if (ctx.pc % kAvmInstrBytes != 0 || ctx.pc + kAvmInstrBytes > kAvmMemBytes) {
    return Fault("bad pc");
  }
  uint8_t raw[kAvmInstrBytes];
  {
    GuestMemory::Access a = mem.FetchInstr(ctx.pc, raw);
    if (a == GuestMemory::Access::kFault) {
      return PageFault(mem.fault_page());
    }
    if (a == GuestMemory::Access::kOutOfRange) {
      return Fault("fetch out of range");
    }
  }
  Instr in = DecodeInstr(raw);

  auto reg_ok = [](uint8_t r) { return r < kAvmNumRegs; };
  if (!reg_ok(in.ra) || !reg_ok(in.rb) || !reg_ok(in.rc)) {
    return Fault("bad register");
  }
  uint32_t& ra = ctx.regs[in.ra];
  uint32_t rb = ctx.regs[in.rb];
  uint32_t rc = ctx.regs[in.rc];
  uint32_t next_pc = ctx.pc + kAvmInstrBytes;

  switch (in.op) {
    case Op::kNop:
      break;
    case Op::kHalt: {
      StepResult r;
      r.kind = StepKind::kHalt;
      return r;
    }

    case Op::kLi:
      ra = in.imm;
      break;
    case Op::kMov:
      ra = rb;
      break;

    case Op::kLd: {
      uint32_t v = 0;
      GuestMemory::Access a = mem.Read32(rb + in.imm, &v);
      if (a == GuestMemory::Access::kFault) {
        return PageFault(mem.fault_page());
      }
      if (a == GuestMemory::Access::kOutOfRange) {
        return Fault("load out of range");
      }
      ra = v;
      break;
    }
    case Op::kLdb: {
      uint8_t v = 0;
      GuestMemory::Access a = mem.Read8(rb + in.imm, &v);
      if (a == GuestMemory::Access::kFault) {
        return PageFault(mem.fault_page());
      }
      if (a == GuestMemory::Access::kOutOfRange) {
        return Fault("load out of range");
      }
      ra = v;
      break;
    }
    case Op::kSt: {
      GuestMemory::Access a = mem.Write32(rb + in.imm, ra);
      if (a == GuestMemory::Access::kFault) {
        return PageFault(mem.fault_page());
      }
      if (a == GuestMemory::Access::kOutOfRange) {
        return Fault("store out of range");
      }
      break;
    }
    case Op::kStb: {
      GuestMemory::Access a = mem.Write8(rb + in.imm, static_cast<uint8_t>(ra));
      if (a == GuestMemory::Access::kFault) {
        return PageFault(mem.fault_page());
      }
      if (a == GuestMemory::Access::kOutOfRange) {
        return Fault("store out of range");
      }
      break;
    }

    case Op::kAdd: ra = rb + rc; break;
    case Op::kSub: ra = rb - rc; break;
    case Op::kMul: ra = rb * rc; break;
    case Op::kDiv:
      if (rc == 0) {
        return Fault("divide by zero");
      }
      ra = static_cast<uint32_t>(static_cast<int32_t>(rb) / static_cast<int32_t>(rc));
      break;
    case Op::kMod:
      if (rc == 0) {
        return Fault("divide by zero");
      }
      ra = static_cast<uint32_t>(static_cast<int32_t>(rb) % static_cast<int32_t>(rc));
      break;
    case Op::kAnd: ra = rb & rc; break;
    case Op::kOr: ra = rb | rc; break;
    case Op::kXor: ra = rb ^ rc; break;
    case Op::kShl: ra = rb << (rc & 31); break;
    case Op::kShr: ra = rb >> (rc & 31); break;
    case Op::kSlt: ra = static_cast<int32_t>(rb) < static_cast<int32_t>(rc) ? 1 : 0; break;
    case Op::kSltu: ra = rb < rc ? 1 : 0; break;
    case Op::kAddi: ra = rb + in.imm; break;

    case Op::kJmp:
      next_pc = in.imm;
      break;
    case Op::kBeq:
      if (ctx.regs[in.ra] == rb) {
        next_pc = in.imm;
      }
      break;
    case Op::kBne:
      if (ctx.regs[in.ra] != rb) {
        next_pc = in.imm;
      }
      break;
    case Op::kBlt:
      if (static_cast<int32_t>(ctx.regs[in.ra]) < static_cast<int32_t>(rb)) {
        next_pc = in.imm;
      }
      break;
    case Op::kBge:
      if (static_cast<int32_t>(ctx.regs[in.ra]) >= static_cast<int32_t>(rb)) {
        next_pc = in.imm;
      }
      break;
    case Op::kJal:
      ctx.regs[kLrReg] = next_pc;
      next_pc = in.imm;
      break;
    case Op::kJr:
      next_pc = ctx.regs[in.ra];
      break;

    case Op::kSys: {
      // The trap retires: pc moves past SYS so the kernel resumes the
      // process at the next instruction after writing r0.
      ctx.pc = next_pc;
      StepResult r;
      r.kind = StepKind::kSyscall;
      r.sys_num = in.imm;
      return r;
    }

    default:
      return Fault("illegal opcode");
  }

  ctx.pc = next_pc;
  return StepResult{};
}

std::string Disassemble(const Instr& in) {
  std::ostringstream os;
  auto r = [](uint8_t n) { return "r" + std::to_string(n); };
  switch (in.op) {
    case Op::kNop: os << "nop"; break;
    case Op::kHalt: os << "halt"; break;
    case Op::kLi: os << "li " << r(in.ra) << ", " << in.imm; break;
    case Op::kMov: os << "mov " << r(in.ra) << ", " << r(in.rb); break;
    case Op::kLd: os << "ld " << r(in.ra) << ", [" << r(in.rb) << "+" << in.imm << "]"; break;
    case Op::kLdb: os << "ldb " << r(in.ra) << ", [" << r(in.rb) << "+" << in.imm << "]"; break;
    case Op::kSt: os << "st " << r(in.ra) << ", [" << r(in.rb) << "+" << in.imm << "]"; break;
    case Op::kStb: os << "stb " << r(in.ra) << ", [" << r(in.rb) << "+" << in.imm << "]"; break;
    case Op::kAdd: os << "add " << r(in.ra) << ", " << r(in.rb) << ", " << r(in.rc); break;
    case Op::kSub: os << "sub " << r(in.ra) << ", " << r(in.rb) << ", " << r(in.rc); break;
    case Op::kMul: os << "mul " << r(in.ra) << ", " << r(in.rb) << ", " << r(in.rc); break;
    case Op::kDiv: os << "div " << r(in.ra) << ", " << r(in.rb) << ", " << r(in.rc); break;
    case Op::kMod: os << "mod " << r(in.ra) << ", " << r(in.rb) << ", " << r(in.rc); break;
    case Op::kAnd: os << "and " << r(in.ra) << ", " << r(in.rb) << ", " << r(in.rc); break;
    case Op::kOr: os << "or " << r(in.ra) << ", " << r(in.rb) << ", " << r(in.rc); break;
    case Op::kXor: os << "xor " << r(in.ra) << ", " << r(in.rb) << ", " << r(in.rc); break;
    case Op::kShl: os << "shl " << r(in.ra) << ", " << r(in.rb) << ", " << r(in.rc); break;
    case Op::kShr: os << "shr " << r(in.ra) << ", " << r(in.rb) << ", " << r(in.rc); break;
    case Op::kSlt: os << "slt " << r(in.ra) << ", " << r(in.rb) << ", " << r(in.rc); break;
    case Op::kSltu: os << "sltu " << r(in.ra) << ", " << r(in.rb) << ", " << r(in.rc); break;
    case Op::kAddi: os << "addi " << r(in.ra) << ", " << r(in.rb) << ", " << in.imm; break;
    case Op::kJmp: os << "jmp " << in.imm; break;
    case Op::kBeq: os << "beq " << r(in.ra) << ", " << r(in.rb) << ", " << in.imm; break;
    case Op::kBne: os << "bne " << r(in.ra) << ", " << r(in.rb) << ", " << in.imm; break;
    case Op::kBlt: os << "blt " << r(in.ra) << ", " << r(in.rb) << ", " << in.imm; break;
    case Op::kBge: os << "bge " << r(in.ra) << ", " << r(in.rb) << ", " << in.imm; break;
    case Op::kJal: os << "jal " << in.imm; break;
    case Op::kJr: os << "jr " << r(in.ra); break;
    case Op::kSys: os << "sys " << in.imm; break;
    default: os << "ILLEGAL(" << static_cast<int>(in.op) << ")"; break;
  }
  return os.str();
}

}  // namespace auragen
