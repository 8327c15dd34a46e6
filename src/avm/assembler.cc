#include "src/avm/assembler.h"

#include <cctype>
#include <cstdlib>
#include <map>
#include <optional>
#include <sstream>
#include <vector>

#include "src/base/check.h"

namespace auragen {
namespace {

// One operand as parsed: either a register, a literal, or a label reference
// resolved in pass 2.
struct Operand {
  enum class Kind { kReg, kImm, kLabel } kind;
  uint8_t reg = 0;
  uint32_t imm = 0;
  std::string label;
};

struct Line {
  int number = 0;
  std::string label;               // optional "name:" definition
  std::string mnemonic;            // lowercased; empty for label-only lines
  std::vector<Operand> operands;
  std::string str_literal;         // for .ascii/.asciz
  bool has_str = false;
};

bool IsIdentStart(char c) { return std::isalpha(static_cast<unsigned char>(c)) || c == '_' || c == '.'; }
bool IsIdentChar(char c) { return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '.'; }

class Parser {
 public:
  explicit Parser(std::string_view src) : src_(src) {}

  bool Parse(std::vector<Line>* out, std::string* error) {
    std::istringstream stream{std::string(src_)};
    std::string raw;
    int line_no = 0;
    while (std::getline(stream, raw)) {
      ++line_no;
      std::string err;
      if (!ParseLine(raw, line_no, out, &err)) {
        *error = "line " + std::to_string(line_no) + ": " + err;
        return false;
      }
    }
    return true;
  }

 private:
  static std::string StripComment(const std::string& s) {
    std::string out;
    bool in_str = false;
    for (char c : s) {
      if (c == '"') {
        in_str = !in_str;
      }
      if (!in_str && (c == ';' || c == '#')) {
        break;
      }
      out.push_back(c);
    }
    return out;
  }

  bool ParseLine(const std::string& raw, int number, std::vector<Line>* out, std::string* err) {
    std::string s = StripComment(raw);
    size_t pos = 0;
    auto skip_ws = [&] {
      while (pos < s.size() && std::isspace(static_cast<unsigned char>(s[pos]))) {
        ++pos;
      }
    };
    skip_ws();
    if (pos == s.size()) {
      return true;
    }

    Line line;
    line.number = number;

    // Optional label.
    if (IsIdentStart(s[pos]) && s[pos] != '.') {
      size_t start = pos;
      while (pos < s.size() && IsIdentChar(s[pos])) {
        ++pos;
      }
      size_t after = pos;
      skip_ws();
      if (pos < s.size() && s[pos] == ':') {
        line.label = s.substr(start, after - start);
        ++pos;
        skip_ws();
      } else {
        pos = start;  // was a mnemonic, rewind
      }
    }

    if (pos < s.size()) {
      size_t start = pos;
      while (pos < s.size() && IsIdentChar(s[pos])) {
        ++pos;
      }
      line.mnemonic = s.substr(start, pos - start);
      for (char& c : line.mnemonic) {
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
      }
      skip_ws();

      // String literal operand?
      if (pos < s.size() && s[pos] == '"') {
        ++pos;
        std::string lit;
        while (pos < s.size() && s[pos] != '"') {
          char c = s[pos++];
          if (c == '\\' && pos < s.size()) {
            char e = s[pos++];
            switch (e) {
              case 'n': lit.push_back('\n'); break;
              case 't': lit.push_back('\t'); break;
              case '0': lit.push_back('\0'); break;
              case '\\': lit.push_back('\\'); break;
              case '"': lit.push_back('"'); break;
              default: lit.push_back(e); break;
            }
          } else {
            lit.push_back(c);
          }
        }
        if (pos >= s.size()) {
          *err = "unterminated string";
          return false;
        }
        ++pos;
        line.str_literal = lit;
        line.has_str = true;
      } else {
        // Comma-separated operands.
        while (pos < s.size()) {
          skip_ws();
          if (pos >= s.size()) {
            break;
          }
          size_t op_start = pos;
          while (pos < s.size() && s[pos] != ',') {
            ++pos;
          }
          std::string tok = s.substr(op_start, pos - op_start);
          // trim
          while (!tok.empty() && std::isspace(static_cast<unsigned char>(tok.back()))) {
            tok.pop_back();
          }
          size_t lead = 0;
          while (lead < tok.size() && std::isspace(static_cast<unsigned char>(tok[lead]))) {
            ++lead;
          }
          tok = tok.substr(lead);
          if (tok.empty()) {
            *err = "empty operand";
            return false;
          }
          Operand op;
          if (!ParseOperand(tok, &op, err)) {
            return false;
          }
          line.operands.push_back(std::move(op));
          if (pos < s.size() && s[pos] == ',') {
            ++pos;
          }
        }
      }
    }

    out->push_back(std::move(line));
    return true;
  }

  static bool ParseOperand(const std::string& tok, Operand* op, std::string* err) {
    std::string low = tok;
    for (char& c : low) {
      c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    }
    // Register?
    auto as_reg = [&](const std::string& t) -> std::optional<uint8_t> {
      if (t == "sp") {
        return kSpReg;
      }
      if (t == "lr") {
        return kLrReg;
      }
      if (t.size() >= 2 && t[0] == 'r') {
        char* end = nullptr;
        long v = std::strtol(t.c_str() + 1, &end, 10);
        if (end != nullptr && *end == '\0' && v >= 0 && v < static_cast<long>(kAvmNumRegs)) {
          return static_cast<uint8_t>(v);
        }
      }
      return std::nullopt;
    };
    if (auto r = as_reg(low)) {
      op->kind = Operand::Kind::kReg;
      op->reg = *r;
      return true;
    }
    // Char literal?
    if (tok.size() >= 3 && tok.front() == '\'') {
      char c = tok[1];
      if (c == '\\' && tok.size() >= 4) {
        switch (tok[2]) {
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case '0': c = '\0'; break;
          default: c = tok[2]; break;
        }
      }
      op->kind = Operand::Kind::kImm;
      op->imm = static_cast<uint32_t>(c);
      return true;
    }
    // Number?
    if (!tok.empty() && (std::isdigit(static_cast<unsigned char>(tok[0])) || tok[0] == '-' ||
                         tok[0] == '+')) {
      char* end = nullptr;
      long long v = std::strtoll(tok.c_str(), &end, 0);
      if (end == nullptr || *end != '\0') {
        *err = "bad number: " + tok;
        return false;
      }
      op->kind = Operand::Kind::kImm;
      op->imm = static_cast<uint32_t>(v);
      return true;
    }
    // Label reference.
    if (IsIdentStart(tok[0])) {
      op->kind = Operand::Kind::kLabel;
      op->label = tok;
      return true;
    }
    *err = "unparseable operand: " + tok;
    return false;
  }

  std::string_view src_;
};

const std::map<std::string, Sys>& SysNames() {
  static const std::map<std::string, Sys> kMap = {
      {"open", Sys::kOpen},     {"close", Sys::kClose},   {"read", Sys::kRead},
      {"write", Sys::kWrite},   {"fork", Sys::kFork},     {"exit", Sys::kExit},
      {"getpid", Sys::kGetpid}, {"gettime", Sys::kGettime}, {"alarm", Sys::kAlarm},
      {"sigset", Sys::kSigset}, {"sigret", Sys::kSigret}, {"yield", Sys::kYield},
      {"bunch", Sys::kBunch},   {"which", Sys::kWhich},   {"writev", Sys::kWritev},
      {"putc", Sys::kDebugPutc}, {"synchint", Sys::kSyncHint},
      {"mark", Sys::kMark},
  };
  return kMap;
}

// Size in bytes a line will occupy in its section. Pseudo-instructions may
// expand to several instructions.
struct Sizer {
  static std::optional<uint32_t> InstrCount(const std::string& m) {
    static const std::map<std::string, uint32_t> kCounts = {
        {"nop", 1},  {"halt", 1}, {"li", 1},   {"mov", 1},  {"ld", 1},   {"ldb", 1},
        {"st", 1},   {"stb", 1},  {"add", 1},  {"sub", 1},  {"mul", 1},  {"div", 1},
        {"mod", 1},  {"and", 1},  {"or", 1},   {"xor", 1},  {"shl", 1},  {"shr", 1},
        {"slt", 1},  {"sltu", 1}, {"addi", 1}, {"jmp", 1},  {"beq", 1},  {"bne", 1},
        {"blt", 1},  {"bge", 1},  {"jal", 1},  {"jr", 1},   {"sys", 1},
        {"call", 1}, {"ret", 1},  {"push", 2}, {"pop", 2},  {"exit", 2},
    };
    auto it = kCounts.find(m);
    if (it == kCounts.end()) {
      return std::nullopt;
    }
    return it->second;
  }
};

class Assembler {
 public:
  AsmOutput Run(std::string_view source) {
    AsmOutput out;
    std::vector<Line> lines;
    if (!Parser(source).Parse(&lines, &out.error)) {
      return out;
    }

    // Pass 1: lay out sections, record label addresses. Data follows text,
    // 8-aligned.
    uint32_t text_size = 0;
    uint32_t data_size = 0;
    bool in_data = false;
    for (const Line& line : lines) {
      uint32_t& cursor = in_data ? data_size : text_size;
      if (!line.label.empty()) {
        pending_labels_.push_back(line.label);
      }
      if (line.mnemonic.empty()) {
        continue;
      }
      if (line.mnemonic == ".text") {
        in_data = false;
        continue;
      }
      if (line.mnemonic == ".data") {
        in_data = true;
        continue;
      }
      // Bind pending labels to the current cursor of the active section.
      uint32_t size = 0;
      std::string err;
      if (!SizeOf(line, &size, &err)) {
        return Fail(line, err);
      }
      BindLabels(in_data, cursor);
      cursor += size;
    }
    // Labels at end of file bind to the end of the current section.
    BindLabels(in_data, in_data ? data_size : text_size);

    data_base_ = (text_size + 7u) & ~7u;
    for (auto& [name, loc] : label_locs_) {
      labels_[name] = loc.in_data ? data_base_ + loc.offset : loc.offset;
    }

    // Pass 2: emit.
    in_data = false;
    Bytes text;
    Bytes data;
    for (const Line& line : lines) {
      if (line.mnemonic.empty()) {
        continue;
      }
      if (line.mnemonic == ".text") {
        in_data = false;
        continue;
      }
      if (line.mnemonic == ".data") {
        in_data = true;
        continue;
      }
      Bytes& sect = in_data ? data : text;
      std::string err;
      if (!Emit(line, &sect, &err)) {
        return Fail(line, err);
      }
    }

    Executable exe;
    exe.image = std::move(text);
    exe.image.resize(data_base_, 0);
    exe.image.insert(exe.image.end(), data.begin(), data.end());
    if (auto it = labels_.find("start"); it != labels_.end()) {
      exe.entry = it->second;
    } else {
      exe.entry = 0;
    }
    if (exe.image.size() > kStackTop) {
      out.error = "image too large: " + std::to_string(exe.image.size());
      return out;
    }

    out.ok = true;
    out.exe = std::move(exe);
    out.labels = std::move(labels_);
    return out;
  }

 private:
  struct LabelLoc {
    bool in_data;
    uint32_t offset;
  };

  void BindLabels(bool in_data, uint32_t offset) {
    for (const std::string& name : pending_labels_) {
      label_locs_[name] = LabelLoc{in_data, offset};
    }
    pending_labels_.clear();
  }

  static AsmOutput Fail(const Line& line, const std::string& msg) {
    AsmOutput out;
    out.error = "line " + std::to_string(line.number) + ": " + msg;
    return out;
  }

  bool SizeOf(const Line& line, uint32_t* size, std::string* err) {
    const std::string& m = line.mnemonic;
    if (auto count = Sizer::InstrCount(m)) {
      *size = *count * kAvmInstrBytes;
      return true;
    }
    if (m == ".word") {
      *size = static_cast<uint32_t>(line.operands.size()) * 4;
      return true;
    }
    if (m == ".byte") {
      *size = static_cast<uint32_t>(line.operands.size());
      return true;
    }
    if (m == ".ascii" || m == ".asciz") {
      if (!line.has_str) {
        *err = m + " needs a string";
        return false;
      }
      *size = static_cast<uint32_t>(line.str_literal.size()) + (m == ".asciz" ? 1 : 0);
      return true;
    }
    if (m == ".space") {
      if (line.operands.size() != 1 || line.operands[0].kind != Operand::Kind::kImm) {
        *err = ".space needs a literal size";
        return false;
      }
      *size = line.operands[0].imm;
      return true;
    }
    if (m == ".align") {
      *err = ".align unsupported (data starts 8-aligned; nothing else is padded)";
      return false;
    }
    *err = "unknown mnemonic: " + m;
    return false;
  }

  bool ResolveImm(const Operand& op, uint32_t* out, std::string* err) const {
    if (op.kind == Operand::Kind::kImm) {
      *out = op.imm;
      return true;
    }
    if (op.kind == Operand::Kind::kLabel) {
      auto it = labels_.find(op.label);
      if (it == labels_.end()) {
        *err = "undefined label: " + op.label;
        return false;
      }
      *out = it->second;
      return true;
    }
    *err = "expected immediate or label, got register";
    return false;
  }

  bool Emit(const Line& line, Bytes* sect, std::string* err) {
    const std::string& m = line.mnemonic;
    auto push_instr = [&](Instr in) {
      uint8_t raw[kAvmInstrBytes];
      EncodeInstr(in, raw);
      sect->insert(sect->end(), raw, raw + kAvmInstrBytes);
    };
    auto need = [&](size_t n) {
      if (line.operands.size() != n) {
        *err = m + " wants " + std::to_string(n) + " operands, got " +
               std::to_string(line.operands.size());
        return false;
      }
      return true;
    };
    auto reg_of = [&](size_t i, uint8_t* r) {
      if (line.operands[i].kind != Operand::Kind::kReg) {
        *err = m + ": operand " + std::to_string(i + 1) + " must be a register";
        return false;
      }
      *r = line.operands[i].reg;
      return true;
    };
    auto imm_of = [&](size_t i, uint32_t* v) { return ResolveImm(line.operands[i], v, err); };

    // Directives.
    if (m == ".word") {
      for (const Operand& op : line.operands) {
        uint32_t v = 0;
        if (!ResolveImm(op, &v, err)) {
          return false;
        }
        for (int i = 0; i < 4; ++i) {
          sect->push_back(static_cast<uint8_t>(v >> (8 * i)));
        }
      }
      return true;
    }
    if (m == ".byte") {
      for (const Operand& op : line.operands) {
        uint32_t v = 0;
        if (!ResolveImm(op, &v, err)) {
          return false;
        }
        sect->push_back(static_cast<uint8_t>(v));
      }
      return true;
    }
    if (m == ".ascii" || m == ".asciz") {
      for (char c : line.str_literal) {
        sect->push_back(static_cast<uint8_t>(c));
      }
      if (m == ".asciz") {
        sect->push_back(0);
      }
      return true;
    }
    if (m == ".space") {
      sect->insert(sect->end(), line.operands[0].imm, 0);
      return true;
    }

    // Three-register ALU ops.
    static const std::map<std::string, Op> kAlu = {
        {"add", Op::kAdd}, {"sub", Op::kSub}, {"mul", Op::kMul}, {"div", Op::kDiv},
        {"mod", Op::kMod}, {"and", Op::kAnd}, {"or", Op::kOr},   {"xor", Op::kXor},
        {"shl", Op::kShl}, {"shr", Op::kShr}, {"slt", Op::kSlt}, {"sltu", Op::kSltu},
    };
    if (auto it = kAlu.find(m); it != kAlu.end()) {
      if (!need(3)) {
        return false;
      }
      Instr in;
      in.op = it->second;
      if (!reg_of(0, &in.ra) || !reg_of(1, &in.rb) || !reg_of(2, &in.rc)) {
        return false;
      }
      push_instr(in);
      return true;
    }

    // Branches: ra, rb, target.
    static const std::map<std::string, Op> kBranch = {
        {"beq", Op::kBeq}, {"bne", Op::kBne}, {"blt", Op::kBlt}, {"bge", Op::kBge}};
    if (auto it = kBranch.find(m); it != kBranch.end()) {
      if (!need(3)) {
        return false;
      }
      Instr in;
      in.op = it->second;
      if (!reg_of(0, &in.ra) || !reg_of(1, &in.rb) || !imm_of(2, &in.imm)) {
        return false;
      }
      push_instr(in);
      return true;
    }

    if (m == "nop") { push_instr({}); return true; }
    if (m == "halt") { Instr in; in.op = Op::kHalt; push_instr(in); return true; }
    if (m == "li") {
      if (!need(2)) { return false; }
      Instr in; in.op = Op::kLi;
      if (!reg_of(0, &in.ra) || !imm_of(1, &in.imm)) { return false; }
      push_instr(in); return true;
    }
    if (m == "mov") {
      if (!need(2)) { return false; }
      Instr in; in.op = Op::kMov;
      if (!reg_of(0, &in.ra) || !reg_of(1, &in.rb)) { return false; }
      push_instr(in); return true;
    }
    if (m == "addi") {
      if (!need(3)) { return false; }
      Instr in; in.op = Op::kAddi;
      if (!reg_of(0, &in.ra) || !reg_of(1, &in.rb) || !imm_of(2, &in.imm)) { return false; }
      push_instr(in); return true;
    }
    // Loads/stores: ld ra, rb, off  (address = rb + off); off optional.
    static const std::map<std::string, Op> kMem = {
        {"ld", Op::kLd}, {"ldb", Op::kLdb}, {"st", Op::kSt}, {"stb", Op::kStb}};
    if (auto it = kMem.find(m); it != kMem.end()) {
      if (line.operands.size() != 2 && line.operands.size() != 3) {
        *err = m + " wants 2 or 3 operands";
        return false;
      }
      Instr in;
      in.op = it->second;
      if (!reg_of(0, &in.ra) || !reg_of(1, &in.rb)) { return false; }
      if (line.operands.size() == 3 && !imm_of(2, &in.imm)) { return false; }
      push_instr(in);
      return true;
    }
    if (m == "jmp" || m == "jal" || m == "call") {
      if (!need(1)) { return false; }
      Instr in;
      in.op = (m == "jmp") ? Op::kJmp : Op::kJal;
      if (!imm_of(0, &in.imm)) { return false; }
      push_instr(in);
      return true;
    }
    if (m == "jr") {
      if (!need(1)) { return false; }
      Instr in; in.op = Op::kJr;
      if (!reg_of(0, &in.ra)) { return false; }
      push_instr(in); return true;
    }
    if (m == "ret") {
      if (!need(0)) { return false; }
      Instr in; in.op = Op::kJr; in.ra = kLrReg;
      push_instr(in); return true;
    }
    if (m == "push") {
      if (!need(1)) { return false; }
      uint8_t r = 0;
      if (!reg_of(0, &r)) { return false; }
      Instr sub; sub.op = Op::kAddi; sub.ra = kSpReg; sub.rb = kSpReg;
      sub.imm = static_cast<uint32_t>(-4);
      push_instr(sub);
      Instr st; st.op = Op::kSt; st.ra = r; st.rb = kSpReg; st.imm = 0;
      push_instr(st);
      return true;
    }
    if (m == "pop") {
      if (!need(1)) { return false; }
      uint8_t r = 0;
      if (!reg_of(0, &r)) { return false; }
      Instr ld; ld.op = Op::kLd; ld.ra = r; ld.rb = kSpReg; ld.imm = 0;
      push_instr(ld);
      Instr add; add.op = Op::kAddi; add.ra = kSpReg; add.rb = kSpReg; add.imm = 4;
      push_instr(add);
      return true;
    }
    if (m == "exit") {
      if (!need(1)) { return false; }
      uint32_t v = 0;
      if (!imm_of(0, &v)) { return false; }
      Instr li; li.op = Op::kLi; li.ra = 1; li.imm = v;
      push_instr(li);
      Instr sys; sys.op = Op::kSys; sys.imm = static_cast<uint32_t>(Sys::kExit);
      push_instr(sys);
      return true;
    }
    if (m == "sys") {
      if (!need(1)) { return false; }
      Instr in;
      in.op = Op::kSys;
      const Operand& op = line.operands[0];
      if (op.kind == Operand::Kind::kLabel) {
        auto it = SysNames().find(op.label);
        if (it == SysNames().end()) {
          *err = "unknown syscall name: " + op.label;
          return false;
        }
        in.imm = static_cast<uint32_t>(it->second);
      } else if (op.kind == Operand::Kind::kImm) {
        in.imm = op.imm;
      } else {
        *err = "sys wants a number or name";
        return false;
      }
      push_instr(in);
      return true;
    }

    *err = "unknown mnemonic: " + m;
    return false;
  }

  std::vector<std::string> pending_labels_;
  std::map<std::string, LabelLoc> label_locs_;
  std::map<std::string, uint32_t> labels_;
  uint32_t data_base_ = 0;
};

}  // namespace

AsmOutput Assemble(std::string_view source) { return Assembler().Run(source); }

Executable MustAssemble(std::string_view source) {
  AsmOutput out = Assemble(source);
  AURAGEN_CHECK(out.ok) << "assembly failed:" << out.error;
  return std::move(out.exe);
}

}  // namespace auragen
