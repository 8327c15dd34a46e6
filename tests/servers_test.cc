// Unit tests for the server state machines, driven through ProgramHarness
// (no machine, no kernels): the page server's copy-on-sync accounts and
// op-log replay, the file server's shadow-block filesystem and channel
// pairing, the tty server's sequencing and bindings, and the process
// server's time/alarm/signal hub.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "src/paging/page_server.h"
#include "src/servers/file_server.h"
#include "src/servers/process_server.h"
#include "src/servers/tty_server.h"
#include "tests/program_harness.h"

namespace auragen {
namespace {

const Gpid kUser = Gpid::Make(1, 42);
constexpr uint64_t kChan = 0x1000000000007ull;

// ------------------------------------------------------------- page server

Bytes PageWriteMsg(Gpid pid, PageNum page, uint8_t fill) {
  PageWriteBody body;
  body.pid = pid;
  body.page = page;
  body.content = Bytes(kAvmPageBytes, fill);
  return Encode(body);
}

Bytes SyncMsg(Gpid pid) {
  SyncRecord record;
  record.pid = pid;
  record.sync_seq = 1;
  return Encode(record);
}

TEST(PageServer, WriteGoesToPrimaryAccountOnly) {
  PageServerProgram ps(PageServerOptions{});
  ProgramHarness h(ps);
  h.Push(kChan, kUser, kBindPageChannel, MsgKind::kPageWrite, PageWriteMsg(kUser, 3, 0xAA));
  h.Drain();
  EXPECT_TRUE(ps.PrimaryHasPage(kUser, 3));
  EXPECT_FALSE(ps.BackupHasPage(kUser, 3));
  EXPECT_EQ(h.disk_writes, 1u);
}

TEST(PageServer, SyncCopiesAccountSharingBlocks) {
  PageServerProgram ps(PageServerOptions{});
  ProgramHarness h(ps);
  h.Push(kChan, kUser, kBindPageChannel, MsgKind::kPageWrite, PageWriteMsg(kUser, 3, 0xAA));
  h.Push(kChan, kUser, kBindPageChannel, MsgKind::kSync, SyncMsg(kUser));
  h.Drain();
  EXPECT_TRUE(ps.BackupHasPage(kUser, 3));
  // §7.8: "After a sync, only one copy of each page will exist" — one block
  // backs both accounts.
  EXPECT_EQ(ps.blocks_in_use(), 1u);
  // A newer version splits the copies (two blocks), next sync re-merges.
  h.Push(kChan, kUser, kBindPageChannel, MsgKind::kPageWrite, PageWriteMsg(kUser, 3, 0xBB));
  h.Deliver();
  EXPECT_EQ(ps.blocks_in_use(), 2u);
  h.Push(kChan, kUser, kBindPageChannel, MsgKind::kSync, SyncMsg(kUser));
  h.Deliver();
  EXPECT_EQ(ps.blocks_in_use(), 1u);
}

TEST(PageServer, RequestServedFromBackupAccount) {
  PageServerProgram ps(PageServerOptions{});
  ProgramHarness h(ps);
  h.Push(kChan, kUser, kBindPageChannel, MsgKind::kPageWrite, PageWriteMsg(kUser, 5, 0x11));
  h.Push(kChan, kUser, kBindPageChannel, MsgKind::kSync, SyncMsg(kUser));
  // Newer un-synced version must NOT be served to a recovering backup.
  h.Push(kChan, kUser, kBindPageChannel, MsgKind::kPageWrite, PageWriteMsg(kUser, 5, 0x22));
  PageRequestBody req;
  req.pid = kUser;
  req.page = 5;
  req.cookie = 77;
  h.Push(kChan, kUser, kBindPageChannel, MsgKind::kPageRequest, Encode(req));
  h.Drain();
  ASSERT_EQ(h.sent.size(), 1u);
  EXPECT_EQ(h.sent[0].kind, 3u);  // kPageReply
  PageReplyBody reply = Decode<PageReplyBody>(h.sent[0].payload);
  EXPECT_TRUE(reply.known);
  EXPECT_EQ(reply.cookie, 77u);
  ASSERT_FALSE(reply.content.empty());
  EXPECT_EQ(reply.content[0], 0x11);  // last-sync version, not 0x22
}

TEST(PageServer, UnknownPageRepliesZeroFill) {
  PageServerProgram ps(PageServerOptions{});
  ProgramHarness h(ps);
  PageRequestBody req;
  req.pid = kUser;
  req.page = 9;
  req.cookie = 5;
  h.Push(kChan, kUser, kBindPageChannel, MsgKind::kPageRequest, Encode(req));
  h.Drain();
  ASSERT_EQ(h.sent.size(), 1u);
  PageReplyBody reply = Decode<PageReplyBody>(h.sent[0].payload);
  EXPECT_FALSE(reply.known);
}

TEST(PageServer, ServerSyncOpsReplayRebuildsMirror) {
  PageServerOptions options;
  options.sync_every_ops = 3;
  PageServerProgram primary(options);
  ProgramHarness h(primary);
  h.Push(kChan, kUser, kBindPageChannel, MsgKind::kPageWrite, PageWriteMsg(kUser, 1, 1));
  h.Push(kChan, kUser, kBindPageChannel, MsgKind::kPageWrite, PageWriteMsg(kUser, 2, 2));
  h.Push(kChan, kUser, kBindPageChannel, MsgKind::kSync, SyncMsg(kUser));
  h.Drain();
  ASSERT_EQ(h.server_syncs.size(), 1u);

  // Backup applies the op log and mirrors the accounts.
  PageServerProgram backup(options);
  ByteReader r(h.server_syncs[0]);
  Decode<ServerSyncPrefix>(r);  // trim prefix consumed by the kernel
  backup.ApplyServerSync(r);
  EXPECT_TRUE(backup.PrimaryHasPage(kUser, 1));
  EXPECT_TRUE(backup.BackupHasPage(kUser, 2));
  EXPECT_EQ(backup.blocks_in_use(), primary.blocks_in_use());
}

TEST(PageServer, StateSerializationRoundTrip) {
  PageServerProgram ps(PageServerOptions{});
  ProgramHarness h(ps);
  h.Push(kChan, kUser, kBindPageChannel, MsgKind::kPageWrite, PageWriteMsg(kUser, 1, 1));
  h.Push(kChan, kUser, kBindPageChannel, MsgKind::kSync, SyncMsg(kUser));
  h.Drain();
  ByteWriter w;
  ps.SerializeState(w);
  PageServerProgram restored(PageServerOptions{});
  ByteReader r(w.bytes());
  restored.RestoreState(r);
  EXPECT_TRUE(restored.BackupHasPage(kUser, 1));
  ByteWriter w2;
  restored.SerializeState(w2);
  EXPECT_EQ(w.bytes(), w2.bytes());
}

// ------------------------------------------------------------- file server

Bytes OpenMsg(const std::string& name, uint64_t cookie = 1) {
  OpenRequest open;
  open.cookie = cookie;
  open.name = name;
  open.opener = kUser;
  open.opener_cluster = 1;
  open.opener_backup = 0;
  return Encode(ReqTag::kOpen, open);
}

struct FsFixture {
  FileServerProgram fs{FileServerOptions{}};
  ProgramHarness h{fs};
  FsFixture() { h.Drain(); }  // boot: whoami + format

  // Opens `name`, returns the channel id from the reply.
  uint64_t Open(const std::string& name) {
    size_t before = h.sent.size();
    h.Push(kChan, kUser, kBindFsChannel, MsgKind::kUser, OpenMsg(name));
    h.Deliver();
    AURAGEN_CHECK(h.sent.size() == before + 1);
    OpenReplyBody reply = Decode<OpenReplyBody>(h.sent.back().payload);
    AURAGEN_CHECK(reply.status == 0);
    return reply.channel.value;
  }

  void Write(uint64_t chan, const Bytes& data) {
    h.Push(chan, kUser, 0, MsgKind::kUser, Encode(ReqTag::kFileWrite, data));
    h.Deliver();
  }

  Bytes Read(uint64_t chan, uint64_t max) {
    size_t before = h.sent.size();
    h.Push(chan, kUser, 0, MsgKind::kUser, Encode(ReqTag::kFileRead, uint64_t{max}));
    h.Deliver();
    AURAGEN_CHECK(h.sent.size() == before + 1);
    ByteReader r(h.sent.back().payload);
    AURAGEN_CHECK(static_cast<ReqTag>(r.U8()) == ReqTag::kData);
    return r.Blob();
  }
};

TEST(FileServer, FormatsVirginDiskWithSuperblock) {
  FsFixture f;
  EXPECT_GE(f.h.disk_writes, 1u);
  EXPECT_TRUE(f.h.disk.count(1) != 0);  // epoch 1 commits to slot 1
}

TEST(FileServer, OpenCreatesFileAndAcceptsChannel) {
  FsFixture f;
  uint64_t chan = f.Open("alpha.txt");
  EXPECT_NE(chan, 0u);
  EXPECT_TRUE(f.fs.HasFile("alpha.txt"));
  ASSERT_EQ(f.h.accepts.size(), 1u);
  EXPECT_EQ(f.h.accepts[0].channel.value, chan);
  EXPECT_EQ(f.h.accepts[0].peer_pid, kUser);
}

TEST(FileServer, WriteThenReadBack) {
  FsFixture f;
  uint64_t chan = f.Open("data.bin");
  Bytes payload(300, 0x5A);  // spans a block boundary
  f.Write(chan, payload);
  EXPECT_EQ(f.fs.FileSize("data.bin"), 300u);
  uint64_t chan2 = f.Open("data.bin");
  Bytes back = f.Read(chan2, 1024);
  EXPECT_EQ(back, payload);
}

TEST(FileServer, AppendsAccumulateAcrossTailBlocks) {
  FsFixture f;
  uint64_t chan = f.Open("log");
  for (int i = 0; i < 5; ++i) {
    f.Write(chan, Bytes(200, static_cast<uint8_t>('a' + i)));
  }
  EXPECT_EQ(f.fs.FileSize("log"), 1000u);
  uint64_t chan2 = f.Open("log");
  Bytes back = f.Read(chan2, 2000);
  ASSERT_EQ(back.size(), 1000u);
  EXPECT_EQ(back[0], 'a');
  EXPECT_EQ(back[399], 'b');
  EXPECT_EQ(back[999], 'e');
}

TEST(FileServer, SequentialReadsAdvanceOffset) {
  FsFixture f;
  uint64_t chan = f.Open("seq");
  Bytes data;
  for (int i = 0; i < 100; ++i) {
    data.push_back(static_cast<uint8_t>(i));
  }
  f.Write(chan, data);
  uint64_t rchan = f.Open("seq");
  Bytes first = f.Read(rchan, 40);
  Bytes second = f.Read(rchan, 40);
  Bytes third = f.Read(rchan, 40);
  Bytes eof = f.Read(rchan, 40);
  EXPECT_EQ(first.size(), 40u);
  EXPECT_EQ(second[0], 40);
  EXPECT_EQ(third.size(), 20u);
  EXPECT_TRUE(eof.empty());
}

TEST(FileServer, ChannelPairingRepliesToBothOpeners) {
  FsFixture f;
  f.h.Push(kChan, kUser, kBindFsChannel, MsgKind::kUser, OpenMsg("ch:duo", 11));
  f.h.Deliver();
  EXPECT_TRUE(f.h.sent.empty());  // first opener waits
  Gpid other = Gpid::Make(0, 17);
  OpenRequest open;
  open.cookie = 22;
  open.name = "ch:duo";
  open.opener = other;
  open.opener_cluster = 0;
  open.opener_backup = 1;
  f.h.Push(kChan + 1, other, kBindFsChannel, MsgKind::kUser, Encode(ReqTag::kOpen, open));
  f.h.Deliver();
  ASSERT_EQ(f.h.sent.size(), 2u);
  OpenReplyBody to_first = Decode<OpenReplyBody>(f.h.sent[0].payload);
  OpenReplyBody to_second = Decode<OpenReplyBody>(f.h.sent[1].payload);
  EXPECT_EQ(f.h.sent[0].channel, kChan);      // replies on each control channel
  EXPECT_EQ(f.h.sent[1].channel, kChan + 1);
  EXPECT_EQ(to_first.channel, to_second.channel);  // one shared channel
  EXPECT_EQ(to_first.peer_pid, other);
  EXPECT_EQ(to_second.peer_pid, kUser);
  EXPECT_EQ(to_first.request_cookie, 11u);
  EXPECT_EQ(to_second.request_cookie, 22u);
}

TEST(FileServer, ShadowCommitPreservesOldStateUntilSuperblockFlips) {
  FileServerOptions options;
  options.sync_every_ops = 2;
  FileServerProgram fs(options);
  ProgramHarness h(fs);
  h.Drain();
  // Trigger enough ops for a commit.
  h.Push(kChan, kUser, kBindFsChannel, MsgKind::kUser, OpenMsg("f"));
  h.Deliver();
  OpenReplyBody reply = Decode<OpenReplyBody>(h.sent.back().payload);
  h.Push(reply.channel.value, kUser, 0, MsgKind::kUser,
         Encode(ReqTag::kFileWrite, Bytes(10, 7)));
  h.Deliver();
  EXPECT_GE(fs.commits(), 2u);  // format + at least one shadow commit
  ASSERT_GE(h.server_syncs.size(), 1u);

  // A fresh instance booted from the same disk + runtime opaque reads the
  // file back — the §7.9 dual-ported-disk recovery path.
  FileServerProgram recovered(options);
  {
    ByteReader r(h.server_syncs.back());
    Decode<ServerSyncPrefix>(r);
    recovered.ApplyServerSync(r);
  }
  ProgramHarness h2(recovered);
  h2.disk = h.disk;  // the dual-ported disk
  h2.Drain();        // boots from the committed superblock
  EXPECT_TRUE(recovered.HasFile("f"));
  EXPECT_EQ(recovered.FileSize("f"), 10u);
}

// A slot holds a record only if it carries the magic and the whole block
// list. A torn slot 1 that claims to be newer must lose to slot 0, for the
// superblock and for the commit record alike.
TEST(FileServer, BootIgnoresSlotsWithShortBlockLists) {
  FileServerOptions options;
  options.sync_every_ops = 2;
  FileServerProgram fs(options);
  ProgramHarness h(fs);
  h.Drain();  // format: epoch 1 and log sequence 1, both in slot 1
  h.Push(kChan, kUser, kBindFsChannel, MsgKind::kUser, OpenMsg("f"));
  h.Deliver();
  uint64_t chan = Decode<OpenReplyBody>(h.sent.back().payload).channel.value;
  h.Push(chan, kUser, 0, MsgKind::kUser, Encode(ReqTag::kFileWrite, Bytes(10, 7)));
  h.Deliver();  // epoch 2 and sequence 2, both in slot 0
  ASSERT_EQ(fs.commits(), 2u);

  // Superblock slot 1 (block 1) and commit-record slot 1 (block 3) claim
  // epoch and sequence 9 and a hundred blocks, but hold only one.
  const std::vector<BlockNum> hundred(100, 200);
  h.disk[1] = Encode(uint32_t{0x41555246}, uint64_t{9}, uint32_t{0}, hundred);
  h.disk[1].resize(24);
  h.disk[3] = Encode(uint32_t{0x4155524C}, uint64_t{9}, uint64_t{9}, hundred);
  h.disk[3].resize(28);

  FileServerProgram rebooted(options);
  ProgramHarness h2(rebooted);
  h2.disk = h.disk;
  h2.Drain();
  EXPECT_EQ(rebooted.FileSize("f"), 10u);
  EXPECT_EQ(rebooted.log_seq(), 2u);
  EXPECT_TRUE(h2.disk_write_vecs.empty());  // no replay
  EXPECT_EQ(h2.disk, h.disk);
}

// -------------------------------------------------------------- tty server

TEST(TtyServer, BindThenInputForwardsToSession) {
  TtyServerProgram tty(TtyServerOptions{});
  ProgramHarness h(tty);
  h.Push(kChan, kUser, kBindTtyLineBase + 0, MsgKind::kUser, Encode(ReqTag::kTtyBind));
  h.Drain();
  ByteWriter in;
  in.U8(static_cast<uint8_t>(ReqTag::kDevInput));
  in.U32(0);
  in.Blob(Bytes{'h', 'i'});
  h.Push(99, kUser, kBindSelfChannel, MsgKind::kUser, in.Take());
  h.Deliver();
  ASSERT_EQ(h.sent.size(), 1u);
  EXPECT_EQ(h.sent[0].channel, kChan);
  ByteReader r(h.sent[0].payload);
  EXPECT_EQ(static_cast<ReqTag>(r.U8()), ReqTag::kTtyInput);
  EXPECT_EQ(r.Blob(), (Bytes{'h', 'i'}));
}

TEST(TtyServer, OutputsCarryMonotonicSequence) {
  TtyServerProgram tty(TtyServerOptions{});
  ProgramHarness h(tty);
  for (int i = 0; i < 3; ++i) {
    h.Push(kChan, kUser, kBindTtyLineBase + 2, MsgKind::kUser,
           Encode(ReqTag::kTtyWrite, Bytes{static_cast<uint8_t>('0' + i)}));
  }
  h.Drain();
  ASSERT_EQ(h.tty_emits.size(), 3u);
  for (uint64_t i = 0; i < 3; ++i) {
    ByteReader r(h.tty_emits[i]);
    EXPECT_EQ(r.U32(), 2u);      // line
    EXPECT_EQ(r.U64(), i + 1);   // seq
  }
}

TEST(TtyServer, CtrlCRoutesSignalThroughProcServer) {
  TtyServerProgram tty(TtyServerOptions{});
  ProgramHarness h(tty);
  h.find_chan[kBindProcChannel] = 555;
  h.Push(kChan, kUser, kBindTtyLineBase + 0, MsgKind::kUser, Encode(ReqTag::kTtyBind));
  h.Drain();
  ByteWriter in;
  in.U8(static_cast<uint8_t>(ReqTag::kDevInput));
  in.U32(0);
  in.Blob(Bytes{0x03});
  h.Push(99, kUser, kBindSelfChannel, MsgKind::kUser, in.Take());
  h.Deliver();
  ASSERT_EQ(h.sent.size(), 1u);
  EXPECT_EQ(h.sent[0].channel, 555u);
  ByteReader r(h.sent[0].payload);
  EXPECT_EQ(static_cast<ReqTag>(r.U8()), ReqTag::kSignalReq);
  Gpid target;
  target.value = r.U64();
  EXPECT_EQ(target, kUser);
  EXPECT_EQ(r.U32(), kSigInt);
}

TEST(TtyServer, ServerSyncCarriesBindingsAndSeqs) {
  TtyServerOptions options;
  options.sync_every_ops = 1;
  TtyServerProgram tty(options);
  ProgramHarness h(tty);
  h.Push(kChan, kUser, kBindTtyLineBase + 1, MsgKind::kUser,
         Encode(ReqTag::kTtyWrite, Bytes{'x'}));
  h.Drain();
  ASSERT_GE(h.server_syncs.size(), 1u);
  TtyServerProgram backup(options);
  ByteReader r(h.server_syncs.back());
  ServerSyncPrefix prefix = Decode<ServerSyncPrefix>(r);
  backup.ApplyServerSync(r);
  ASSERT_EQ(prefix.serviced.size(), 1u);
  EXPECT_EQ(prefix.serviced.begin()->first, kChan);
  // The mirrored backup continues the sequence where the primary left off.
  ProgramHarness h2(backup);
  h2.Push(kChan, kUser, kBindTtyLineBase + 1, MsgKind::kUser,
          Encode(ReqTag::kTtyWrite, Bytes{'y'}));
  h2.Drain();
  ASSERT_EQ(h2.tty_emits.size(), 1u);
  ByteReader e(h2.tty_emits[0]);
  e.U32();
  EXPECT_EQ(e.U64(), 2u);  // continues after the primary's seq 1
}

// ---------------------------------------------------------- process server

TEST(ProcessServer, TimeRequestRepliesSimTime) {
  ProcessServerProgram ps;
  ProgramHarness h(ps);
  h.now = 123456;
  h.Push(kChan, kUser, kBindProcChannel, MsgKind::kUser, Encode(ReqTag::kTime));
  h.Drain();
  ASSERT_EQ(h.sent.size(), 1u);
  ByteReader r(h.sent[0].payload);
  EXPECT_EQ(static_cast<ReqTag>(r.U8()), ReqTag::kTime64);
  EXPECT_EQ(r.U64(), 123456u);
}

TEST(ProcessServer, AlarmArmsTimerAndFiresSignal) {
  ProcessServerProgram ps;
  ProgramHarness h(ps);
  h.find_chan[kBindSignalChannel] = 777;
  h.Push(kChan, kUser, kBindProcChannel, MsgKind::kUser,
         Encode(ReqTag::kAlarm, uint64_t{5000}));
  h.Drain();
  ASSERT_EQ(h.timers.size(), 1u);
  EXPECT_EQ(h.timers[0].first, 5000u);
  EXPECT_EQ(ps.pending_alarms(), 1u);

  // Timer fires: SIGALRM emitted on the requester's signal channel.
  h.Push(99, Gpid::Make(31, 1), kBindSelfChannel, MsgKind::kUser,
         Encode(ReqTag::kTimerFire, uint64_t{h.timers[0].second}));
  h.Deliver();
  ASSERT_EQ(h.sent.size(), 1u);
  EXPECT_EQ(h.sent[0].channel, 777u);
  EXPECT_EQ(h.sent[0].kind, 2u);  // kSignal
  EXPECT_EQ(ps.pending_alarms(), 0u);
}

TEST(ProcessServer, RestoreRearmsPendingAlarms) {
  ProcessServerProgram ps;
  ProgramHarness h(ps);
  h.now = 10'000;
  h.Push(kChan, kUser, kBindProcChannel, MsgKind::kUser,
         Encode(ReqTag::kAlarm, uint64_t{50'000}));
  h.Drain();

  ByteWriter w;
  ps.SerializeState(w);
  ProcessServerProgram restored;
  ByteReader r(w.bytes());
  restored.RestoreState(r);
  EXPECT_TRUE(restored.WantsRunAfterRestore());
  ProgramHarness h2(restored);
  h2.MarkRestored();
  h2.now = 30'000;  // 20k us elapsed since the alarm was set
  h2.Drain();
  ASSERT_EQ(h2.timers.size(), 1u);
  EXPECT_EQ(h2.timers[0].first, 30'000u);  // deadline 60k - now 30k
}

TEST(ProcessServer, StaleTimerFireIsIgnored) {
  ProcessServerProgram ps;
  ProgramHarness h(ps);
  h.Push(99, kUser, kBindSelfChannel, MsgKind::kUser,
         Encode(ReqTag::kTimerFire, uint64_t{424242}));
  h.Drain();
  EXPECT_TRUE(h.sent.empty());
}

// ------------------------------------------------------- pinned layouts
//
// Expected values are the output of the encoders as they stood before the
// layouts were declared once. Small layouts are pinned as hex; server state
// is pinned by FNV-1a over the bytes a fixed scenario produces.

std::string Hex(ByteView b) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (uint8_t v : b) {
    out.push_back(kDigits[v >> 4]);
    out.push_back(kDigits[v & 0xf]);
  }
  return out;
}

Bytes FromHex(std::string_view hex) {
  Bytes out;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(static_cast<uint8_t>(std::stoi(std::string(hex.substr(i, 2)), nullptr, 16)));
  }
  return out;
}

uint64_t StateHash(const NativeProgram& program) {
  ByteWriter w;
  program.SerializeState(w);
  return Fnv1a(w.bytes());
}

TEST(ServersPinned, OpenRequest) {
  EXPECT_EQ(Hex(OpenMsg("ch:x", 5)),
            "0105000000000000000400000063683a782a000000000001000100000000"
            "00000000");
}

TEST(ServersPinned, PageServerStateAndServerSync) {
  PageServerOptions options;
  options.sync_every_ops = 3;
  PageServerProgram ps(options);
  ProgramHarness h(ps);
  h.Push(kChan, kUser, kBindPageChannel, MsgKind::kPageWrite, PageWriteMsg(kUser, 1, 1));
  h.Push(kChan, kUser, kBindPageChannel, MsgKind::kPageWrite, PageWriteMsg(kUser, 2, 2));
  h.Push(kChan, kUser, kBindPageChannel, MsgKind::kSync, SyncMsg(kUser));
  h.Push(kChan + 1, kUser, kBindPageChannel, MsgKind::kPageWrite, PageWriteMsg(kUser, 2, 3));
  h.Drain();
  ASSERT_EQ(h.server_syncs.size(), 1u);
  EXPECT_EQ(Fnv1a(h.server_syncs[0]), 10002262319078931287ull);
  ByteReader sync(h.server_syncs[0]);
  Decode<ServerSyncPrefix>(sync);
  // The op log: {kWrite, pid, page, block} twice, then {kSync, pid}.
  EXPECT_EQ(Hex(Decode<Bytes>(sync)),
            "012a000000000001000100000008000000012a0000000000010002000000"
            "09000000022a00000000000100");
  EXPECT_EQ(StateHash(ps), 8101027895166833095ull);
  ByteWriter w;
  ps.SerializeState(w);
  PageServerProgram restored(options);
  ByteReader r(w.bytes());
  restored.RestoreState(r);
  EXPECT_EQ(restored.blocks_in_use(), ps.blocks_in_use());
  EXPECT_EQ(StateHash(restored), StateHash(ps));
}

TEST(ServersPinned, ProcessServerState) {
  ProcessServerProgram ps;
  ProgramHarness h(ps);
  h.now = 10'000;
  h.Push(kChan, kUser, kBindProcChannel, MsgKind::kUser,
         Encode(ReqTag::kAlarm, uint64_t{50'000}));
  h.Push(kChan, Gpid::Make(2, 9), kBindProcChannel, MsgKind::kUser,
         Encode(ReqTag::kAlarm, uint64_t{7'000}));
  h.Push(kChan, kUser, kBindProcChannel, MsgKind::kUser, Encode(ReqTag::kTime));
  h.Drain();
  EXPECT_EQ(StateHash(ps), 7691880579990613787ull);
}

TEST(ServersPinned, TtyServerStateEmitAndServerSync) {
  TtyServerOptions options;
  options.sync_every_ops = 3;
  TtyServerProgram tty(options);
  ProgramHarness h(tty);
  h.Push(kChan, kUser, kBindTtyLineBase + 0, MsgKind::kUser, Encode(ReqTag::kTtyBind));
  h.Push(kChan + 1, kUser, kBindTtyLineBase + 1, MsgKind::kUser,
         Encode(ReqTag::kTtyWrite, Bytes{'o', 'k'}));
  h.Push(kChan + 1, kUser, kBindTtyLineBase + 1, MsgKind::kUser,
         Encode(ReqTag::kTtyWrite, Bytes{'!'}));
  h.Push(kChan + 1, kUser, kBindTtyLineBase + 1, MsgKind::kUser,
         Encode(ReqTag::kTtyWrite, Bytes{'?'}));
  h.Drain();
  ASSERT_EQ(h.tty_emits.size(), 3u);
  EXPECT_EQ(Hex(h.tty_emits[0]), "010000000100000000000000020000006f6b");
  ASSERT_EQ(h.server_syncs.size(), 1u);
  EXPECT_EQ(Hex(h.server_syncs[0]),
            "020000000700000000000100010000000800000000000100020000003c00"
            "0000020000000000000007000000000001002a0000000000010000000000"
            "000000000100000008000000000001002a00000000000100020000000000"
            "0000");
  EXPECT_EQ(StateHash(tty), 5918164365335329991ull);
}

TEST(ServersPinned, TtyServerReadsDeviceInput) {
  TtyServerProgram tty(TtyServerOptions{});
  ProgramHarness h(tty);
  h.Push(kChan, kUser, kBindTtyLineBase + 3, MsgKind::kUser, Encode(ReqTag::kTtyBind));
  h.Drain();
  // {kDevInput u8, line u32 = 3, text blob "hi"}.
  h.Push(99, kUser, kBindSelfChannel, MsgKind::kUser, FromHex("5103000000020000006869"));
  h.Deliver();
  ASSERT_EQ(h.sent.size(), 1u);
  EXPECT_EQ(h.sent[0].channel, kChan);
  EXPECT_EQ(Hex(h.sent[0].payload), "21020000006869");
}

TEST(ServersPinned, FileServerRuntimeStateAndServerSync) {
  FileServerOptions options;
  options.sync_every_ops = 3;
  FileServerProgram fs(options);
  ProgramHarness h(fs);
  h.Drain();
  h.Push(kChan, kUser, kBindFsChannel, MsgKind::kUser, OpenMsg("f"));
  h.Deliver();
  OpenReplyBody reply = Decode<OpenReplyBody>(h.sent.back().payload);
  h.Push(reply.channel.value, kUser, 0, MsgKind::kUser,
         Encode(ReqTag::kFileWrite, Bytes(10, 7)));
  h.Push(kChan, kUser, kBindFsChannel, MsgKind::kUser, OpenMsg("ch:duo", 9));
  h.Deliver();
  ASSERT_EQ(h.server_syncs.size(), 2u);  // the format commit, then ours
  EXPECT_EQ(Fnv1a(h.server_syncs[1]), 11242128682437613568ull);
  // The snapshot omits the pending ch:duo open the sync above carries.
  EXPECT_EQ(StateHash(fs), 1657421951531118271ull);
}

// Every block the file server wrote, with its number: the superblocks,
// commit records, metadata image, log region and file data.
uint64_t DiskHash(const std::map<BlockNum, Bytes>& disk) { return Fnv1a(Encode(disk)); }

TEST(ServersPinned, FileServerDiskImage) {
  FileServerOptions options;
  options.sync_every_ops = 2;
  FileServerProgram fs(options);
  ProgramHarness h(fs);
  h.Drain();  // the format commit
  ASSERT_EQ(h.disk_write_vecs.size(), 2u);
  // Log append: the metadata image and the superblock into log blocks 4
  // and 5. Checkpoint: the same images to their homes, block 100 and
  // superblock slot 1.
  EXPECT_EQ(Hex(h.disk_write_vecs[0]),
            "020000000400000014000000000000000000000001000000640000000000"
            "000005000000180000004652554101000000000000001400000001000000"
            "64000000");
  EXPECT_EQ(Hex(h.disk_write_vecs[1]),
            "020000006400000014000000000000000000000001000000640000000000"
            "000001000000180000004652554101000000000000001400000001000000"
            "64000000");
  h.Push(kChan, kUser, kBindFsChannel, MsgKind::kUser, OpenMsg("f"));
  h.Deliver();
  uint64_t chan = Decode<OpenReplyBody>(h.sent.back().payload).channel.value;
  h.Push(chan, kUser, 0, MsgKind::kUser, Encode(ReqTag::kFileWrite, Bytes(700, 7)));
  h.Deliver();  // the second commit
  ASSERT_EQ(fs.commits(), 2u);
  EXPECT_EQ(DiskHash(h.disk), 3185680716567706543ull);

  // A fresh server boots from that disk, finds the file, and commits a
  // write over the metadata it parsed.
  FileServerProgram rebooted(options);
  ProgramHarness h2(rebooted);
  h2.disk = h.disk;
  h2.Drain();
  EXPECT_EQ(rebooted.FileSize("f"), 700u);
  h2.Push(kChan, kUser, kBindFsChannel, MsgKind::kUser, OpenMsg("g"));
  h2.Deliver();
  chan = Decode<OpenReplyBody>(h2.sent.back().payload).channel.value;
  h2.Push(chan, kUser, 0, MsgKind::kUser, Encode(ReqTag::kFileWrite, Bytes(3, 9)));
  h2.Deliver();
  ASSERT_EQ(rebooted.commits(), 1u);
  EXPECT_EQ(DiskHash(h2.disk), 16425495099942969308ull);
}

TEST(ServersPinned, WhoAmIReply) {
  EXPECT_EQ(Hex(Encode(WhoAmIReply{Gpid::Make(31, 99), 2, 3})), "6300000000001f000200000003000000");
}

// A native program that always parks in a read.
class ParkedReader : public NativeProgram {
 public:
  SyscallRequest Next(const SyscallResult& prev, bool first) override {
    (void)prev;
    (void)first;
    SyscallRequest req;
    req.num = Sys::kRead;
    req.a = kAnyChannel;
    req.b = 5;
    req.c = 6;
    req.data = Bytes{0xab, 0xcd};
    return req;
  }
  void SerializeState(ByteWriter& w) const override { EncodeTo(w, state); }
  void RestoreState(ByteReader& r) override { DecodeInto(r, state); }

  uint32_t state = 7;
};

TEST(ServersPinned, NativeBodyContext) {
  NativeBody idle(std::make_unique<ParkedReader>(), /*paged_ft=*/true);
  EXPECT_EQ(Hex(idle.CaptureContext()), "0100000000");

  NativeBody parked(std::make_unique<ParkedReader>(), /*paged_ft=*/true);
  ASSERT_EQ(parked.Run(100).kind, BodyRun::Kind::kSyscall);
  Bytes context = parked.CaptureContext();
  EXPECT_EQ(Hex(context),
            "010000000103000000ffffffffffffffff05000000000000000600000000"
            "00000002000000abcd");

  // Restored from that context and its state chunk, the body re-issues the
  // pending read.
  NativeBody restored(std::make_unique<ParkedReader>(), /*paged_ft=*/true);
  restored.RestoreContext(context);
  restored.EvictAllPages();
  Bytes chunk = Encode(uint32_t{7});
  chunk.resize(kAvmPageBytes, 0);
  restored.InstallPage(0, /*known=*/true, chunk);
  BodyRun run = restored.Run(100);
  ASSERT_EQ(run.kind, BodyRun::Kind::kSyscall);
  EXPECT_EQ(run.request.num, Sys::kRead);
  EXPECT_EQ(run.request.a, kAnyChannel);
  EXPECT_EQ(run.request.b, 5u);
  EXPECT_EQ(run.request.c, 6u);
  EXPECT_EQ(run.request.data, (Bytes{0xab, 0xcd}));
}

}  // namespace
}  // namespace auragen
