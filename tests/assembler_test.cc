// Unit tests for the two-pass assembler.

#include <gtest/gtest.h>

#include "src/avm/assembler.h"
#include "src/avm/cpu.h"

namespace auragen {
namespace {

Instr DecodeAt(const Executable& exe, uint32_t index) {
  return DecodeInstr(exe.image.data() + index * kAvmInstrBytes);
}

TEST(Assembler, BasicInstructions) {
  AsmOutput out = Assemble("li r1, 42\nmov r2, r1\nhalt\n");
  ASSERT_TRUE(out.ok) << out.error;
  EXPECT_EQ(out.exe.image.size(), 3 * kAvmInstrBytes);
  Instr li = DecodeAt(out.exe, 0);
  EXPECT_EQ(li.op, Op::kLi);
  EXPECT_EQ(li.ra, 1);
  EXPECT_EQ(li.imm, 42u);
  EXPECT_EQ(DecodeAt(out.exe, 1).op, Op::kMov);
  EXPECT_EQ(DecodeAt(out.exe, 2).op, Op::kHalt);
}

TEST(Assembler, LabelsResolveForwardAndBackward) {
  AsmOutput out = Assemble(R"(
start:
    jmp end
mid:
    nop
end:
    jmp mid
)");
  ASSERT_TRUE(out.ok) << out.error;
  EXPECT_EQ(DecodeAt(out.exe, 0).imm, 2 * kAvmInstrBytes);  // end
  EXPECT_EQ(DecodeAt(out.exe, 2).imm, 1 * kAvmInstrBytes);  // mid
}

TEST(Assembler, EntryIsStartLabel) {
  AsmOutput out = Assemble("nop\nstart:\nhalt\n");
  ASSERT_TRUE(out.ok) << out.error;
  EXPECT_EQ(out.exe.entry, kAvmInstrBytes);
}

TEST(Assembler, DataDirectives) {
  AsmOutput out = Assemble(R"(
    li r1, bytes
    halt
.data
words: .word 1, 0x10, -1
bytes: .byte 9, 10
text: .asciz "hi"
gap: .space 4
)");
  ASSERT_TRUE(out.ok) << out.error;
  // Data begins 8-aligned after 2 instructions.
  uint32_t data_base = 16;
  const Bytes& img = out.exe.image;
  ASSERT_GE(img.size(), data_base + 12 + 2 + 3 + 4);
  EXPECT_EQ(img[data_base], 1);
  EXPECT_EQ(img[data_base + 4], 0x10);
  EXPECT_EQ(img[data_base + 8], 0xff);  // -1 little-endian
  EXPECT_EQ(img[data_base + 12], 9);
  EXPECT_EQ(img[data_base + 13], 10);
  EXPECT_EQ(img[data_base + 14], 'h');
  EXPECT_EQ(img[data_base + 16], '\0');
  EXPECT_EQ(DecodeAt(out.exe, 0).imm, data_base + 12);  // bytes label
}

TEST(Assembler, RegistersAndAliases) {
  AsmOutput out = Assemble("mov sp, lr\n");
  ASSERT_TRUE(out.ok) << out.error;
  Instr in = DecodeAt(out.exe, 0);
  EXPECT_EQ(in.ra, kSpReg);
  EXPECT_EQ(in.rb, kLrReg);
}

TEST(Assembler, CharLiteralsAndEscapes) {
  AsmOutput out = Assemble("li r1, 'A'\nli r2, '\\n'\n");
  ASSERT_TRUE(out.ok) << out.error;
  EXPECT_EQ(DecodeAt(out.exe, 0).imm, 'A');
  EXPECT_EQ(DecodeAt(out.exe, 1).imm, '\n');
}

TEST(Assembler, SyscallNames) {
  AsmOutput out = Assemble("sys write\nsys 17\n");
  ASSERT_TRUE(out.ok) << out.error;
  EXPECT_EQ(DecodeAt(out.exe, 0).imm, static_cast<uint32_t>(Sys::kWrite));
  EXPECT_EQ(DecodeAt(out.exe, 1).imm, 17u);
}

TEST(Assembler, CommentsAndBlankLines) {
  AsmOutput out = Assemble(R"(
; full comment
    nop   ; trailing
# hash comment

    halt
)");
  ASSERT_TRUE(out.ok) << out.error;
  EXPECT_EQ(out.exe.image.size(), 2 * kAvmInstrBytes);
}

TEST(Assembler, StringsMayContainCommentChars) {
  AsmOutput out = Assemble(".data\nmsg: .ascii \"a;b#c\"\n");
  ASSERT_TRUE(out.ok) << out.error;
  std::string s(out.exe.image.begin(), out.exe.image.end());
  EXPECT_NE(s.find("a;b#c"), std::string::npos);
}

TEST(Assembler, ErrorsCarryLineNumbers) {
  AsmOutput out = Assemble("nop\nbogus r1\n");
  EXPECT_FALSE(out.ok);
  EXPECT_NE(out.error.find("line 2"), std::string::npos);
  EXPECT_NE(out.error.find("bogus"), std::string::npos);
}

TEST(Assembler, UndefinedLabelFails) {
  AsmOutput out = Assemble("jmp nowhere\n");
  EXPECT_FALSE(out.ok);
  EXPECT_NE(out.error.find("undefined label"), std::string::npos);
}

TEST(Assembler, WrongOperandCountFails) {
  EXPECT_FALSE(Assemble("add r1, r2\n").ok);
  EXPECT_FALSE(Assemble("li r1\n").ok);
  EXPECT_FALSE(Assemble("jr 5\n").ok);
}

TEST(Assembler, PseudoExpansionSizesMatch) {
  // push/pop are 2 instructions; labels after them must account for that.
  AsmOutput out = Assemble(R"(
    push r1
after:
    halt
)");
  ASSERT_TRUE(out.ok) << out.error;
  EXPECT_EQ(out.exe.image.size(), 3 * kAvmInstrBytes);
  // `after` = 2 instructions in.
  AsmOutput ref = Assemble("push r1\nafter:\njmp after\n");
  ASSERT_TRUE(ref.ok);
  EXPECT_EQ(DecodeAt(ref.exe, 2).imm, 2 * kAvmInstrBytes);
}

TEST(Assembler, ExitPseudo) {
  AsmOutput out = Assemble("exit 3\n");
  ASSERT_TRUE(out.ok) << out.error;
  Instr li = DecodeAt(out.exe, 0);
  EXPECT_EQ(li.op, Op::kLi);
  EXPECT_EQ(li.ra, 1);
  EXPECT_EQ(li.imm, 3u);
  EXPECT_EQ(DecodeAt(out.exe, 1).op, Op::kSys);
  EXPECT_EQ(DecodeAt(out.exe, 1).imm, static_cast<uint32_t>(Sys::kExit));
}

TEST(Assembler, RejectsOversizedImages) {
  std::string big = ".data\nblob: .space 70000\n";
  EXPECT_FALSE(Assemble(big).ok);
}

TEST(Executable, PageContentZeroPads) {
  AsmOutput out = Assemble("halt\n");
  ASSERT_TRUE(out.ok);
  Bytes page0 = out.exe.PageContent(0);
  EXPECT_EQ(page0.size(), kAvmPageBytes);
  EXPECT_EQ(page0[0], static_cast<uint8_t>(Op::kHalt));
  EXPECT_EQ(page0[kAvmPageBytes - 1], 0);
  EXPECT_EQ(out.exe.NumPages(), 1u);
}

TEST(Executable, SerializationRoundTrip) {
  Executable exe = MustAssemble("start:\n  li r1, 9\n  halt\n");
  ByteWriter w;
  EncodeTo(w, exe);
  ByteReader r(w.bytes());
  Executable back = Decode<Executable>(r);
  EXPECT_EQ(back.image, exe.image);
  EXPECT_EQ(back.entry, exe.entry);
  // Pinned: {entry u32, image blob}.
  EXPECT_EQ(HexDump(w.bytes(), 64),
            "00 00 00 00 10 00 00 00 10 01 00 00 09 00 00 00 01 00 00 00 00 00 00 00");
}

}  // namespace
}  // namespace auragen
