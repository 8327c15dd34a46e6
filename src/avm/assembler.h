// Two-pass assembler for AVM programs.
//
// Guest programs in examples/ and tests/ are written in this assembly so the
// transparency claim (§3.3) is demonstrable: the same source runs unchanged
// with fault tolerance on or off.
//
// Syntax:
//   ; or # start a comment
//   label:            — defines `label` at the current location
//   .text / .data     — sections; text is emitted first, then data
//   .word v, v, ...   — 32-bit little-endian values (numbers or labels)
//   .byte v, v, ...
//   .ascii "s" / .asciz "s"
//   .space N          — N zero bytes
//   .align            — rejected; data starts at the first 8-byte boundary
//                       after the text, and nothing else is padded
//
// Operands: registers r0..r15 (aliases sp=r14, lr=r15), immediates in
// decimal / 0x hex / 'c' char / label, negative values allowed.
//
// Pseudo-instructions: call <label> (jal), ret (jr lr),
// push <r> / pop <r>, exit <imm> (li r1,imm; halt).
// `sys` accepts a number or a name: open close read write fork exit getpid
// gettime alarm sigset sigret yield bunch which writev putc synchint mark.

#ifndef AURAGEN_SRC_AVM_ASSEMBLER_H_
#define AURAGEN_SRC_AVM_ASSEMBLER_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "src/avm/program.h"

namespace auragen {

struct AsmOutput {
  bool ok = false;
  std::string error;   // "line N: message" when !ok
  Executable exe;
  // Address of every label in `exe.image` (a data label's includes the
  // data base). A caller can write a value at a labelled site of a copy.
  std::map<std::string, uint32_t> labels;
};

AsmOutput Assemble(std::string_view source);

// Convenience for tests/examples: asserts on assembly errors.
Executable MustAssemble(std::string_view source);

}  // namespace auragen

#endif  // AURAGEN_SRC_AVM_ASSEMBLER_H_
