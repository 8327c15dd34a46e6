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

// True when a data access succeeded; otherwise sets *r to its trap: a page
// fault on a non-resident page, `out_of_range` past the address space.
bool AccessOk(GuestMemory::Access a, const GuestMemory& mem, const char* out_of_range,
              StepResult* r) {
  if (a == GuestMemory::Access::kOk) {
    return true;
  }
  *r = a == GuestMemory::Access::kFault ? PageFault(mem.fault_page()) : Fault(out_of_range);
  return false;
}

// Executes the decoded instruction at ctx.pc. Returns true when it retired
// as kOk (pc advanced); otherwise sets *r to what stopped it.
[[gnu::always_inline]] inline bool Execute(const Instr& in, CpuContext& ctx, GuestMemory& mem,
                                           StepResult* r) {
  auto reg_ok = [](uint8_t n) { return n < kAvmNumRegs; };
  if (!reg_ok(in.ra) || !reg_ok(in.rb) || !reg_ok(in.rc)) {
    *r = Fault("bad register");
    return false;
  }
  uint32_t& ra = ctx.regs[in.ra];
  uint32_t rb = ctx.regs[in.rb];
  uint32_t rc = ctx.regs[in.rc];
  uint32_t next_pc = ctx.pc + kAvmInstrBytes;

  switch (in.op) {
    case Op::kNop:
      break;
    case Op::kHalt:
      r->kind = StepKind::kHalt;
      return false;

    case Op::kLi:
      ra = in.imm;
      break;
    case Op::kMov:
      ra = rb;
      break;

    case Op::kLd: {
      uint32_t v = 0;
      if (!AccessOk(mem.Read32(rb + in.imm, &v), mem, "load out of range", r)) {
        return false;
      }
      ra = v;
      break;
    }
    case Op::kLdb: {
      uint8_t v = 0;
      if (!AccessOk(mem.Read8(rb + in.imm, &v), mem, "load out of range", r)) {
        return false;
      }
      ra = v;
      break;
    }
    case Op::kSt:
      if (!AccessOk(mem.Write32(rb + in.imm, ra), mem, "store out of range", r)) {
        return false;
      }
      break;
    case Op::kStb:
      if (!AccessOk(mem.Write8(rb + in.imm, static_cast<uint8_t>(ra)), mem,
                    "store out of range", r)) {
        return false;
      }
      break;

    case Op::kAdd: ra = rb + rc; break;
    case Op::kSub: ra = rb - rc; break;
    case Op::kMul: ra = rb * rc; break;
    case Op::kDiv:
      if (rc == 0) {
        *r = Fault("divide by zero");
        return false;
      }
      ra = static_cast<uint32_t>(static_cast<int32_t>(rb) / static_cast<int32_t>(rc));
      break;
    case Op::kMod:
      if (rc == 0) {
        *r = Fault("divide by zero");
        return false;
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

    case Op::kSys:
      // The trap retires: pc moves past SYS so the kernel resumes the
      // process at the next instruction after writing r0.
      ctx.pc = next_pc;
      r->kind = StepKind::kSyscall;
      r->sys_num = in.imm;
      return false;

    default:
      *r = Fault("illegal opcode");
      return false;
  }

  ctx.pc = next_pc;
  return true;
}

// An aligned pc masked with kFetchMask is the address of its page; an
// unaligned one keeps a low bit, so it never matches a page's address.
constexpr uint32_t kFetchMask = ~(kAvmPageBytes - 1) | (kAvmInstrBytes - 1);
constexpr uint32_t kNoFetchPage = ~uint32_t{0};

}  // namespace

// The interpreter's hot loop starts on a cache line, so that edits elsewhere
// in the binary cannot shift its branch layout: with byte-identical code, a
// start 32 bytes into a line cost the campaign benchmark ~10% host time.
__attribute__((aligned(64))) StepResult Run(CpuContext& ctx, GuestMemory& mem, uint64_t limit,
                                            uint64_t* retired) {
  // The page the pc is on and its bytes. Nothing inside one call installs,
  // evicts or moves a page (page-in, EvictAll and the pending read copy all
  // happen between calls), so the bytes stay valid until the pc leaves the
  // page, and the page is looked up only then.
  uint32_t fetch_page = kNoFetchPage;
  const uint8_t* page = nullptr;
  StepResult result;  // kOk: `limit` instructions retired
  uint64_t n = 0;
  for (; n < limit; ++n) {
    // Fetch. The PC must be 8-byte aligned; text pages are ordinary pages and
    // can fault like any other (text is demand-paged on recovery, §7.10.2).
    if ((ctx.pc & kFetchMask) != fetch_page) {
      if (ctx.pc % kAvmInstrBytes != 0 || ctx.pc + kAvmInstrBytes > kAvmMemBytes) {
        result = Fault("bad pc");
        break;
      }
      if (!AccessOk(mem.FetchPage(ctx.pc, &page), mem, "fetch out of range", &result)) {
        break;
      }
      fetch_page = ctx.pc & kFetchMask;
    }
    if (!Execute(DecodeInstr(page + ctx.pc % kAvmPageBytes), ctx, mem, &result)) {
      break;
    }
  }
  *retired = n;
  return result;
}

std::string Disassemble(const Instr& in) {
  std::ostringstream os;
  // Appended rather than `"r" + std::to_string(n)`, which GCC 12 at -O3
  // misreports as an overlapping copy (-Wrestrict).
  auto r = [](uint8_t n) {
    std::string reg = "r";
    reg += std::to_string(n);
    return reg;
  };
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
