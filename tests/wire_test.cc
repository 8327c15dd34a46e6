// Codec round-trip tests for every wire structure. These matter beyond
// serialization hygiene: the simulation's honesty rests on backups using
// only information that actually crossed the bus as bytes.

#include <gtest/gtest.h>

#include <map>

#include "src/avm/assembler.h"
#include "src/core/wire.h"
#include "src/machine/machine.h"

namespace auragen {
namespace {

std::string Hex(ByteView b) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (uint8_t v : b) {
    out.push_back(kDigits[v >> 4]);
    out.push_back(kDigits[v & 0xf]);
  }
  return out;
}

TEST(Wire, MsgHeaderRoundTrip) {
  MsgHeader h;
  h.kind = MsgKind::kSync;
  h.src_pid = Gpid::Make(3, 77);
  h.dst_pid = Gpid::Make(1, 5);
  h.channel = ChannelId{0xabcdef};
  h.dst_primary_cluster = 2;
  h.dst_backup_cluster = kNoCluster;
  h.src_backup_cluster = 7;
  ByteWriter w;
  EncodeTo(w, h);
  ByteReader r(w.bytes());
  MsgHeader back = Decode<MsgHeader>(r);
  EXPECT_EQ(back.kind, h.kind);
  EXPECT_EQ(back.src_pid, h.src_pid);
  EXPECT_EQ(back.dst_pid, h.dst_pid);
  EXPECT_EQ(back.channel, h.channel);
  EXPECT_EQ(back.dst_primary_cluster, 2u);
  EXPECT_EQ(back.dst_backup_cluster, kNoCluster);
  EXPECT_EQ(back.src_backup_cluster, 7u);
}

TEST(Wire, MsgEncodeDecode) {
  Msg msg;
  msg.header.kind = MsgKind::kUser;
  msg.header.src_pid = Gpid::Make(0, 9);
  msg.body = Bytes{1, 2, 3, 4, 5};
  Msg back = Decode<Msg>(Encode(msg));
  EXPECT_EQ(back.header.kind, MsgKind::kUser);
  EXPECT_EQ(back.header.src_pid, msg.header.src_pid);
  EXPECT_EQ(back.body, msg.body);
}

TEST(Wire, SyncRecordRoundTrip) {
  SyncRecord s;
  s.pid = Gpid::Make(2, 13);
  s.sync_seq = 42;
  s.first_sync = true;
  s.context = Bytes{9, 8, 7};
  s.sig_handler = 0x120;
  s.exec_us = 555;
  s.backup_cluster = 1;
  s.primary_cluster = 2;
  s.mode = static_cast<uint8_t>(BackupMode::kFullback);
  s.parent = Gpid::Make(2, 12);
  s.family_head = Gpid::Make(2, 10);
  SyncChannelRecord c1;
  c1.channel = ChannelId{100};
  c1.fd = 3;
  c1.opened_since_sync = true;
  c1.reads_since_sync = 7;
  SyncChannelRecord c2;
  c2.channel = ChannelId{200};
  c2.fd = kBadFd;
  c2.closed_since_sync = true;
  s.channels = {c1, c2};

  SyncRecord back = Decode<SyncRecord>(Encode(s));
  EXPECT_EQ(back.pid, s.pid);
  EXPECT_EQ(back.sync_seq, 42u);
  EXPECT_TRUE(back.first_sync);
  EXPECT_EQ(back.context, s.context);
  EXPECT_EQ(back.sig_handler, 0x120u);
  EXPECT_EQ(back.backup_cluster, 1u);
  EXPECT_EQ(back.mode, s.mode);
  EXPECT_EQ(back.parent, s.parent);
  ASSERT_EQ(back.channels.size(), 2u);
  EXPECT_EQ(back.channels[0].channel, c1.channel);
  EXPECT_EQ(back.channels[0].reads_since_sync, 7u);
  EXPECT_TRUE(back.channels[0].opened_since_sync);
  EXPECT_TRUE(back.channels[1].closed_since_sync);
}

TEST(Wire, KernelContextRoundTrip) {
  KernelContext k;
  k.body_context = Bytes{1, 1, 2, 3, 5};
  k.next_fd = 9;
  k.next_group = 4;
  k.groups = {{1, {0, 2, 5}}, {3, {}}};
  k.fork_seq = 6;
  k.in_signal = true;
  KernelContext back = Decode<KernelContext>(Encode(k));
  EXPECT_EQ(back.body_context, k.body_context);
  EXPECT_EQ(back.next_fd, 9);
  EXPECT_EQ(back.next_group, 4u);
  ASSERT_EQ(back.groups.size(), 2u);
  EXPECT_EQ(back.groups[0].second, (std::vector<int32_t>{0, 2, 5}));
  EXPECT_TRUE(back.groups[1].second.empty());
  EXPECT_EQ(back.fork_seq, 6u);
  EXPECT_TRUE(back.in_signal);
}

TEST(Wire, BirthNoticeRoundTrip) {
  BirthNotice b;
  b.parent = Gpid::Make(1, 2);
  b.child = Gpid::Make(1, 3);
  b.fork_seq = 2;
  b.mode = static_cast<uint8_t>(BackupMode::kQuarterback);
  b.family_head = Gpid::Make(1, 1);
  b.chan_creates = {Bytes{1, 2}, Bytes{3}};
  BirthNotice back = Decode<BirthNotice>(Encode(b));
  EXPECT_EQ(back.parent, b.parent);
  EXPECT_EQ(back.child, b.child);
  EXPECT_EQ(back.fork_seq, 2u);
  EXPECT_EQ(back.family_head, b.family_head);
  ASSERT_EQ(back.chan_creates.size(), 2u);
  EXPECT_EQ(back.chan_creates[1], Bytes{3});
}

TEST(Wire, ChanCreateRoundTrip) {
  ChanCreate c;
  c.channel = ChannelId{0x42};
  c.owner = Gpid::Make(0, 20);
  c.backup_entry = true;
  c.fd = 2;
  c.peer_pid = Gpid::Make(1, 30);
  c.peer_primary_cluster = 1;
  c.peer_backup_cluster = 0;
  c.own_backup_cluster = 3;
  c.peer_kind = 2;
  c.peer_mode = 1;
  c.binding_tag = 0x1004;
  ChanCreate back = Decode<ChanCreate>(Encode(c));
  EXPECT_EQ(back.channel, c.channel);
  EXPECT_TRUE(back.backup_entry);
  EXPECT_EQ(back.fd, 2);
  EXPECT_EQ(back.peer_kind, 2);
  EXPECT_EQ(back.peer_mode, 1);
  EXPECT_EQ(back.binding_tag, 0x1004u);
}

TEST(Wire, OpenReplyRoundTrip) {
  OpenReplyBody o;
  o.request_cookie = 9;
  o.status = -2;
  o.channel = ChannelId{77};
  o.peer_pid = Gpid::Make(2, 2);
  o.peer_primary_cluster = 2;
  o.peer_backup_cluster = kNoCluster;
  o.peer_kind = 1;
  o.peer_mode = 2;
  OpenReplyBody back = Decode<OpenReplyBody>(Encode(o));
  EXPECT_EQ(back.request_cookie, 9u);
  EXPECT_EQ(back.status, -2);
  EXPECT_EQ(back.channel, o.channel);
  EXPECT_EQ(back.peer_backup_cluster, kNoCluster);
}

TEST(Wire, PageBodiesRoundTrip) {
  PageWriteBody w;
  w.pid = Gpid::Make(1, 1);
  w.page = 12;
  w.content = Bytes(256, 0xCC);
  PageWriteBody wb = Decode<PageWriteBody>(Encode(w));
  EXPECT_EQ(wb.page, 12u);
  EXPECT_EQ(wb.content, w.content);

  PageRequestBody q;
  q.pid = Gpid::Make(1, 1);
  q.page = 12;
  q.reply_to = 3;
  q.cookie = 99;
  PageRequestBody qb = Decode<PageRequestBody>(Encode(q));
  EXPECT_EQ(qb.reply_to, 3u);
  EXPECT_EQ(qb.cookie, 99u);

  PageReplyBody p;
  p.pid = q.pid;
  p.page = 12;
  p.cookie = 99;
  p.known = true;
  p.content = Bytes{5};
  PageReplyBody pb = Decode<PageReplyBody>(Encode(p));
  EXPECT_TRUE(pb.known);
  EXPECT_EQ(pb.content, Bytes{5});
}

TEST(Wire, BackupCreateRoundTrip) {
  BackupCreateBody b;
  b.pid = Gpid::Make(0, 50);
  b.mode = BackupMode::kHalfback;
  b.parent = Gpid::Make(0, 49);
  b.family_head = Gpid::Make(0, 48);
  b.primary_cluster = 1;
  b.has_sync = true;
  b.is_server = true;
  b.peripheral = true;
  b.sync_seq = 8;
  b.context = Bytes{1, 2};
  b.sig_handler = 0;
  b.exe = Bytes{};
  b.fds = {{0, 100}, {2, 200}};
  SavedQueueRecord q;
  q.channel = ChannelId{100};
  q.fd = 0;
  q.peer_pid = Gpid::Make(1, 1);
  q.peer_kind = 1;
  q.writes_since_sync = 3;
  q.queued = {Bytes{9}, Bytes{8, 7}};
  b.queues = {q};

  BackupCreateBody back = Decode<BackupCreateBody>(Encode(b));
  EXPECT_EQ(back.pid, b.pid);
  EXPECT_EQ(back.mode, BackupMode::kHalfback);
  EXPECT_TRUE(back.has_sync);
  EXPECT_TRUE(back.is_server);
  EXPECT_TRUE(back.peripheral);
  ASSERT_EQ(back.fds.size(), 2u);
  EXPECT_EQ(back.fds[1].second, 200u);
  ASSERT_EQ(back.queues.size(), 1u);
  EXPECT_EQ(back.queues[0].writes_since_sync, 3u);
  ASSERT_EQ(back.queues[0].queued.size(), 2u);
  EXPECT_EQ(back.queues[0].queued[1], (Bytes{8, 7}));
}

// --- Pinned layouts. Every expected value below is the output of the
// encoders as they stood before the layouts were declared once; a change of
// any field's order or width fails here even when a round trip still
// passes.

MsgHeader PinnedHeader() {
  MsgHeader h;
  h.kind = MsgKind::kSync;
  h.src_pid = Gpid::Make(3, 77);
  h.dst_pid = Gpid::Make(1, 5);
  h.channel = ChannelId{0xabcdef};
  h.dst_primary_cluster = 2;
  h.dst_backup_cluster = kNoCluster;
  h.src_backup_cluster = 7;
  return h;
}

TEST(WirePinned, MsgHeaderAndMsg) {
  ByteWriter w;
  EncodeTo(w, PinnedHeader());
  EXPECT_EQ(Hex(w.bytes()),
            "0a4d000000000003000500000000000100efcdab000000000002000000ffffffff"
            "07000000");
  Msg msg;
  msg.header = PinnedHeader();
  msg.body = Bytes{1, 2, 3};
  EXPECT_EQ(Hex(Encode(msg)),
            "0a4d000000000003000500000000000100efcdab000000000002000000ffffffff"
            "0700000003000000010203");
}

TEST(WirePinned, SyncRecord) {
  SyncRecord s;
  s.pid = Gpid::Make(2, 13);
  s.sync_seq = 42;
  s.first_sync = true;
  s.context = Bytes{9, 8, 7};
  s.sig_handler = 0x120;
  s.exec_us = 555;
  s.backup_cluster = 1;
  s.primary_cluster = 2;
  s.mode = 2;
  s.parent = Gpid::Make(2, 12);
  s.family_head = Gpid::Make(2, 10);
  SyncChannelRecord c;
  c.channel = ChannelId{100};
  c.fd = -1;
  c.opened_since_sync = true;
  c.closed_since_sync = false;
  c.reads_since_sync = 7;
  s.channels = {c};
  s.writes_in_flight = {{100, 3}};
  EXPECT_EQ(Hex(Encode(s)), "0d000000000002002a00000000000000010300000009080720010000"
            "2b020000000000000100000002000000020c000000000002000a000000"
            "00000200010000006400000000000000ffffffff010007000000010000"
            "00640000000000000003000000");
}

TEST(WirePinned, KernelContext) {
  KernelContext k;
  k.body_context = Bytes{1, 1, 2};
  k.next_fd = -9;
  k.next_group = 4;
  k.groups = {{1, {0, 2}}, {3, {}}};
  k.fork_seq = 6;
  k.in_signal = true;
  EXPECT_EQ(Hex(Encode(k)), "03000000010102f7ffffff040000000200000001000000020000000000"
            "0000020000000300000000000000060000000000000001");
}

TEST(WirePinned, BirthNoticeAndChanCreate) {
  ChanCreate c;
  c.channel = ChannelId{0x42};
  c.owner = Gpid::Make(0, 20);
  c.backup_entry = true;
  c.fd = 2;
  c.peer_pid = Gpid::Make(1, 30);
  c.peer_primary_cluster = 1;
  c.peer_backup_cluster = 0;
  c.own_backup_cluster = 3;
  c.peer_kind = 2;
  c.peer_mode = 1;
  c.binding_tag = 0x1004;
  EXPECT_EQ(Hex(Encode(c)), "4200000000000000140000000000000001020000001e000000000001"
            "00010000000000000003000000020104100000");
  BirthNotice b;
  b.parent = Gpid::Make(1, 2);
  b.child = Gpid::Make(1, 3);
  b.fork_seq = 2;
  b.mode = 1;
  b.family_head = Gpid::Make(1, 1);
  b.chan_creates = {Bytes{1, 2}, Bytes{3}};
  EXPECT_EQ(Hex(Encode(b)), "02000000000001000300000000000100020000000000000001010000"
            "0000000100020000000200000001020100000003");
}

TEST(WirePinned, OpenReply) {
  OpenReplyBody o;
  o.request_cookie = 9;
  o.status = -2;
  o.channel = ChannelId{77};
  o.peer_pid = Gpid::Make(2, 2);
  o.peer_primary_cluster = 2;
  o.peer_backup_cluster = kNoCluster;
  o.peer_kind = 1;
  o.peer_mode = 2;
  EXPECT_EQ(Hex(Encode(o)), "0900000000000000feffffff4d0000000000000002000000000002000200"
            "0000ffffffff0102");
}

TEST(WirePinned, PageBodies) {
  PageWriteBody w;
  w.pid = Gpid::Make(1, 1);
  w.page = 12;
  w.content = Bytes{0xcc, 0xdd};
  EXPECT_EQ(Hex(Encode(w)), "01000000000001000c00000002000000ccdd");
  PageRequestBody q;
  q.pid = Gpid::Make(1, 1);
  q.page = 12;
  q.reply_to = 3;
  q.cookie = 99;
  EXPECT_EQ(Hex(Encode(q)), "01000000000001000c000000030000006300000000000000");
  PageReplyBody p;
  p.pid = q.pid;
  p.page = 12;
  p.cookie = 99;
  p.known = true;
  p.content = Bytes{5};
  EXPECT_EQ(Hex(Encode(p)), "01000000000001000c0000006300000000000000010100000005");
}

TEST(WirePinned, BackupCreate) {
  BackupCreateBody b;
  b.pid = Gpid::Make(0, 50);
  b.mode = BackupMode::kHalfback;
  b.parent = Gpid::Make(0, 49);
  b.family_head = Gpid::Make(0, 48);
  b.primary_cluster = 1;
  b.has_sync = true;
  b.is_server = false;
  b.peripheral = true;
  b.sync_seq = 8;
  b.context = Bytes{1, 2};
  b.sig_handler = 0x40;
  b.exe = Bytes{7};
  b.fds = {{-1, 100}, {2, 200}};
  SavedQueueRecord q;
  q.channel = ChannelId{100};
  q.fd = 0;
  q.peer_pid = Gpid::Make(1, 1);
  q.peer_primary_cluster = 1;
  q.peer_backup_cluster = kNoCluster;
  q.peer_kind = 1;
  q.peer_mode = 2;
  q.writes_since_sync = 3;
  q.queued = {Bytes{9}, Bytes{8, 7}};
  b.queues = {q, SavedQueueRecord{}};
  EXPECT_EQ(Hex(Encode(b)), "320000000000000001310000000000000030000000000000000100000001"
            "00010800000000000000020000000102400000000100000007020000"
            "00ffffffff640000000000000002000000c800000000000000020000"
            "00640000000000000000000000010000000000010001000000ffffff"
            "ff0102030000000200000001000000090200000008070000000000000000"
            "ffffffff0000000000000000ffffffffffffffff00000000000000000000");
}

// Bodies built by one kernel and parsed by another, captured off the bus.
// The tap sits in front of one surviving cluster's kernel and records the
// body of every frame that cluster receives, by kind.
class BodyTap : public BusEndpoint {
 public:
  BodyTap(Machine& machine, ClusterId cluster) : kernel_(machine.kernel(cluster)) {
    machine.bus().AttachEndpoint(cluster, this);
  }

  void OnFrame(const Frame& frame) override {
    MsgView msg = MsgView::Parse(frame.payload);
    bodies_[msg.header.kind].push_back(msg.body().ToBytes());
    kernel_.OnFrame(frame);
  }

  // Each body of `kind` in arrival order, as comma-separated hex.
  std::string HexOf(MsgKind kind) const {
    std::string out;
    for (const Bytes& b : BodiesOf(kind)) {
      out += (out.empty() ? "" : ",") + Hex(b);
    }
    return out;
  }

  // FNV-1a over the bodies of `kind`, each prefixed by its size.
  uint64_t HashOf(MsgKind kind) const {
    ByteWriter w;
    for (const Bytes& b : BodiesOf(kind)) {
      w.Blob(b);
    }
    return Fnv1a(w.bytes());
  }

  size_t CountOf(MsgKind kind) const { return BodiesOf(kind).size(); }

 private:
  const std::vector<Bytes>& BodiesOf(MsgKind kind) const {
    static const std::vector<Bytes> kNone;
    auto it = bodies_.find(kind);
    return it == bodies_.end() ? kNone : it->second;
  }

  BusEndpoint& kernel_;
  std::map<MsgKind, std::vector<Bytes>> bodies_;
};

Executable Digits(int rounds, uint32_t spin) {
  return MustAssemble(R"(
start:
    li r8, 0
rounds:
    li r9, 0
spin:
    addi r9, r9, 1
    li r10, )" + std::to_string(spin) + R"(
    blt r9, r10, spin
    li r10, 48
    add r10, r10, r8
    li r11, digit
    stb r10, r11, 0
    li r1, 2
    li r2, digit
    li r3, 1
    sys write
    addi r8, r8, 1
    li r10, )" + std::to_string(rounds) + R"(
    blt r8, r10, rounds
    exit 7
.data
digit: .byte 0
)");
}

TEST(WirePinned, CrashNoticeBackupReadyAndBackupCreateOnTheBus) {
  MachineOptions options;
  options.config.topology = Topology::SingleSegment(3);
  Machine machine(options);
  machine.Boot();
  BodyTap tap(machine, 0);
  Machine::UserSpawnOptions opts;
  opts.with_tty = true;
  opts.mode = BackupMode::kFullback;
  opts.backup_cluster = 1;
  Gpid pid = machine.SpawnUserProgram(2, Digits(10, 6000), opts);
  machine.Run(60'000);
  machine.CrashCluster(2);
  ASSERT_TRUE(machine.RunUntilAllExited(90'000'000));
  machine.Settle();
  EXPECT_EQ(machine.ExitStatus(pid), 7);
  EXPECT_EQ(tap.HexOf(MsgKind::kCrashNotice), "02000000");
  EXPECT_EQ(tap.HexOf(MsgKind::kBackupReady), "100000000000020000000000");
  EXPECT_EQ(tap.CountOf(MsgKind::kBackupCreate), 1u);
  EXPECT_EQ(tap.HashOf(MsgKind::kBackupCreate), 13540311738538821015ull);
}

TEST(WirePinned, ProcCrashOnTheBus) {
  MachineOptions options;
  options.config.topology = Topology::SingleSegment(2);
  Machine machine(options);
  machine.Boot();
  BodyTap tap(machine, 0);
  Machine::UserSpawnOptions opts;
  opts.with_tty = true;
  opts.backup_cluster = 0;
  Gpid victim = machine.SpawnUserProgram(1, Digits(10, 6000), opts);
  machine.Run(60'000);
  machine.FailProcess(1, victim);
  ASSERT_TRUE(machine.RunUntilAllExited(90'000'000));
  machine.Settle();
  EXPECT_EQ(machine.ExitStatus(victim), 7);
  EXPECT_EQ(tap.HexOf(MsgKind::kProcCrash), "100000000000010001000000");
}

// The §2 checkpointing baselines ship kCheckpoint bodies; no message-system
// run carries one.
uint64_t CheckpointTraffic(FtStrategy strategy, size_t* count) {
  MachineOptions options;
  options.config.topology = Topology::SingleSegment(2);
  options.config.strategy = strategy;
  options.config.sync_time_limit_us = 8'000;
  Machine machine(options);
  machine.Boot();
  BodyTap tap(machine, 0);
  Machine::UserSpawnOptions opts;
  opts.backup_cluster = 0;
  Gpid pid = machine.SpawnUserProgram(1, Digits(10, 6000), opts);
  EXPECT_TRUE(machine.RunUntilAllExited(60'000'000));
  machine.Settle();
  EXPECT_EQ(machine.ExitStatus(pid), 7);
  *count = tap.CountOf(MsgKind::kCheckpoint);
  return tap.HashOf(MsgKind::kCheckpoint);
}

TEST(WirePinned, CheckpointBodiesOnTheBus) {
  size_t full_count = 0;
  size_t incremental_count = 0;
  EXPECT_EQ(CheckpointTraffic(FtStrategy::kCheckpointFull, &full_count), 8975239680126848801ull);
  EXPECT_EQ(full_count, 11u);
  EXPECT_EQ(CheckpointTraffic(FtStrategy::kCheckpointIncremental, &incremental_count),
            13962942503435265626ull);
  EXPECT_EQ(incremental_count, 11u);
}

TEST(Wire, KindNamesCoverEveryKind) {
  for (MsgKind kind : {MsgKind::kUser, MsgKind::kOpenReply, MsgKind::kSignal, MsgKind::kClose,
                       MsgKind::kSync, MsgKind::kBirthNotice, MsgKind::kExitNotice,
                       MsgKind::kCrashNotice, MsgKind::kHeartbeat, MsgKind::kBackupCreate,
                       MsgKind::kBackupReady, MsgKind::kChanCreate, MsgKind::kPageWrite,
                       MsgKind::kPageRequest, MsgKind::kPageReply, MsgKind::kServerSync,
                       MsgKind::kCheckpoint, MsgKind::kProcCrash}) {
    EXPECT_STRNE(MsgKindName(kind), "?");
  }
}

}  // namespace
}  // namespace auragen
