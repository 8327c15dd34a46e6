// Journaled file server (DESIGN.md §19): buffer-cache behaviour, group
// commit into the write-ahead log, boot-time replay of committed batches,
// and discard of torn appends. The cache/WAL units are driven through
// ProgramHarness; the end-to-end check runs the churner workload through
// the full fault campaign and compares its trace digests with pinned ones.

#include <gtest/gtest.h>

#include "src/fault/campaign.h"
#include "src/servers/block_cache.h"
#include "src/servers/file_server.h"
#include "tests/program_harness.h"

namespace auragen {
namespace {

const Gpid kUser = Gpid::Make(1, 42);
constexpr uint64_t kChan = 0x1000000000007ull;

// ------------------------------------------------------------- block cache

TEST(BlockCache, HitsAndMissesAreAccounted) {
  BlockCache cache(4);
  EXPECT_EQ(cache.Get(10), nullptr);
  cache.Put(10, Bytes(8, 0xAA), /*dirty=*/false);
  const Bytes* hit = cache.Get(10);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ((*hit)[0], 0xAA);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(BlockCache, EvictsLeastRecentlyUsedCleanBlock) {
  BlockCache cache(3);
  cache.Put(1, Bytes(4, 1), false);
  cache.Put(2, Bytes(4, 2), false);
  cache.Put(3, Bytes(4, 3), false);
  // Touch 1 so 2 is now the coldest.
  EXPECT_NE(cache.Get(1), nullptr);
  cache.Put(4, Bytes(4, 4), false);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.Get(2), nullptr);  // the cold block went
  EXPECT_NE(cache.Get(1), nullptr);
  EXPECT_NE(cache.Get(3), nullptr);
  EXPECT_NE(cache.Get(4), nullptr);
}

TEST(BlockCache, DirtyBlocksArePinnedAgainstEviction) {
  BlockCache cache(3);
  cache.Put(1, Bytes(4, 1), /*dirty=*/true);   // coldest, but pinned
  cache.Put(2, Bytes(4, 2), /*dirty=*/false);
  cache.Put(3, Bytes(4, 3), /*dirty=*/true);
  cache.Put(4, Bytes(4, 4), false);
  // The only clean block (2) was evicted; both dirty blocks survive.
  EXPECT_EQ(cache.Get(2), nullptr);
  EXPECT_NE(cache.Get(1), nullptr);
  EXPECT_NE(cache.Get(3), nullptr);
  EXPECT_EQ(cache.dirty_count(), 2u);
  // MarkClean unpins: block 1 becomes evictable again.
  cache.MarkClean(1);
  EXPECT_EQ(cache.dirty_count(), 1u);
}

TEST(BlockCache, DirtyBlocksEnumerateInAscendingBlockOrder) {
  BlockCache cache(8);
  cache.Put(9, Bytes(4, 9), true);
  cache.Put(3, Bytes(4, 3), true);
  cache.Put(7, Bytes(4, 7), false);
  cache.Put(5, Bytes(4, 5), true);
  DiskWriteBatch batch = cache.DirtyBlocks();
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch[0].first, 3u);
  EXPECT_EQ(batch[1].first, 5u);
  EXPECT_EQ(batch[2].first, 9u);
}

TEST(BlockCacheDeathTest, PanicsWhenEveryBlockIsPinnedDirty) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  BlockCache cache(2);
  cache.Put(1, Bytes(4, 1), true);
  cache.Put(2, Bytes(4, 2), true);
  EXPECT_DEATH(cache.Put(3, Bytes(4, 3), true), "pinned dirty");
}

// ---------------------------------------------------- journal via harness

Bytes OpenMsg(const std::string& name, uint64_t cookie = 1) {
  OpenRequest open;
  open.cookie = cookie;
  open.name = name;
  open.opener = kUser;
  open.opener_cluster = 1;
  open.opener_backup = 0;
  return Encode(ReqTag::kOpen, open);
}

struct JournalFixture {
  FileServerOptions options;
  FileServerProgram fs;
  ProgramHarness h{fs};

  explicit JournalFixture(uint32_t sync_every_ops = 64)
      : options([&] {
          FileServerOptions o;
          o.sync_every_ops = sync_every_ops;
          return o;
        }()),
        fs(options) {
    h.Drain();  // boot: whoami + format commit
  }

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

TEST(FileServerJournal, CachedReadsTouchNoDisk) {
  JournalFixture f;
  uint64_t chan = f.Open("hot");
  f.Write(chan, Bytes(700, 0x42));  // spans two blocks, both now cached
  uint64_t rchan = f.Open("hot");
  uint64_t before = f.h.disk_reads;
  Bytes back = f.Read(rchan, 1024);
  EXPECT_EQ(back.size(), 700u);
  EXPECT_EQ(f.h.disk_reads, before);  // served entirely from the cache
  EXPECT_GE(f.fs.cache().hits(), 2u);
}

TEST(FileServerJournal, ColdReadMissesOnceThenHits) {
  JournalFixture f(2);  // commit promptly so the data reaches the disk
  uint64_t chan = f.Open("cold");
  f.Write(chan, Bytes(700, 0x17));
  ASSERT_GE(f.fs.commits(), 2u);  // format + data commit

  // A fresh instance on the same dual-ported disk boots with a cold cache.
  FileServerProgram recovered(f.options);
  {
    ByteReader r(f.h.server_syncs.back());
    Decode<ServerSyncPrefix>(r);
    recovered.ApplyServerSync(r);
  }
  ProgramHarness h2(recovered);
  h2.disk = f.h.disk;
  h2.Drain();

  // First read faults the blocks in; the second is free.
  auto read = [&](uint64_t rc, uint64_t max) {
    size_t before = h2.sent.size();
    h2.Push(rc, kUser, 0, MsgKind::kUser, Encode(ReqTag::kFileRead, uint64_t{max}));
    h2.Deliver();
    AURAGEN_CHECK(h2.sent.size() == before + 1);
    ByteReader r(h2.sent.back().payload);
    AURAGEN_CHECK(static_cast<ReqTag>(r.U8()) == ReqTag::kData);
    return r.Blob();
  };
  size_t before_open = h2.sent.size();
  h2.Push(kChan + 9, kUser, kBindFsChannel, MsgKind::kUser, OpenMsg("cold", 2));
  h2.Deliver();
  AURAGEN_CHECK(h2.sent.size() == before_open + 1);
  uint64_t rc = Decode<OpenReplyBody>(h2.sent.back().payload).channel.value;

  uint64_t cold_reads = h2.disk_reads;
  Bytes first = read(rc, 1024);
  EXPECT_EQ(first.size(), 700u);
  EXPECT_GT(h2.disk_reads, cold_reads);  // miss path hit the device

  size_t before2 = h2.sent.size();
  h2.Push(kChan + 10, kUser, kBindFsChannel, MsgKind::kUser, OpenMsg("cold", 3));
  h2.Deliver();
  AURAGEN_CHECK(h2.sent.size() == before2 + 1);
  uint64_t rc2 = Decode<OpenReplyBody>(h2.sent.back().payload).channel.value;
  uint64_t warm_reads = h2.disk_reads;
  Bytes second = read(rc2, 1024);
  EXPECT_EQ(second, first);
  EXPECT_EQ(h2.disk_reads, warm_reads);  // now cached
}

TEST(FileServerJournal, GroupCommitBatchesAllDirtyBlocksIntoOneTransaction) {
  JournalFixture f(16);
  uint64_t chan = f.Open("batched");
  // Dirty several distinct data blocks without tripping the op trigger.
  for (int i = 0; i < 6; ++i) {
    f.Write(chan, Bytes(kBlockSize, static_cast<uint8_t>('a' + i)));
  }
  size_t batches_before = f.h.disk_write_vecs.size();
  uint64_t commits_before = f.fs.commits();
  // Land exactly on the trigger: open + 6 writes + 9 tiny writes = 16 ops,
  // so the commit fires on the last op and nothing re-dirties afterwards.
  for (int i = 0; i < 9; ++i) {
    f.Write(chan, Bytes(4, 0x55));
  }
  ASSERT_EQ(f.fs.commits(), commits_before + 1);
  // One commit = exactly two vectored transactions (log append + home
  // migration), however many blocks were dirty.
  EXPECT_EQ(f.h.disk_write_vecs.size(), batches_before + 2);
  EXPECT_EQ(f.fs.cache().dirty_count(), 0u);  // checkpoint cleaned the cache
}

// Builds the crash-just-after-commit-record disk: pre-commit home blocks,
// post-commit log region and commit-record slots. §7.9's recovery contract
// says boot must replay the batch and reproduce the post-commit state.
TEST(FileServerJournal, BootReplaysCommittedButUnmigratedBatch) {
  JournalFixture f(4);
  uint64_t chan = f.Open("replayed");
  f.Write(chan, Bytes(300, 0x77));
  ASSERT_GE(f.fs.commits(), 1u);
  std::map<BlockNum, Bytes> pre = f.h.disk;  // homes as of the last checkpoint
  uint64_t commits_before = f.fs.commits();
  f.Write(chan, Bytes(300, 0x99));  // offset 300: spans into block 2 of the file
  f.Write(chan, Bytes(4, 0x11));
  ASSERT_GT(f.fs.commits(), commits_before);

  // Crash window: the log and the commit record reached the disk, the home
  // migration did not.
  std::map<BlockNum, Bytes> torn = pre;
  torn[FileServerProgram::kCrSlot0] = f.h.disk[FileServerProgram::kCrSlot0];
  torn[FileServerProgram::kCrSlot1] = f.h.disk[FileServerProgram::kCrSlot1];
  for (uint32_t i = 0; i < f.options.log_blocks; ++i) {
    BlockNum b = FileServerProgram::kLogDataStart + i;
    auto it = f.h.disk.find(b);
    if (it != f.h.disk.end()) {
      torn[b] = it->second;
    }
  }

  FileServerProgram recovered(f.options);
  {
    ByteReader r(f.h.server_syncs.back());
    Decode<ServerSyncPrefix>(r);
    recovered.ApplyServerSync(r);
  }
  ProgramHarness h2(recovered);
  h2.disk = torn;
  h2.Drain();
  EXPECT_EQ(recovered.FileSize("replayed"), 604u);
  EXPECT_EQ(recovered.log_seq(), f.fs.log_seq());

  // The replayed homes now match the fully migrated disk, byte for byte.
  for (const auto& [block, image] : f.h.disk) {
    auto it = h2.disk.find(block);
    ASSERT_TRUE(it != h2.disk.end()) << "block " << block << " missing";
    Bytes want = image;
    Bytes got = it->second;
    want.resize(kBlockSize, 0);
    got.resize(kBlockSize, 0);
    EXPECT_EQ(got, want) << "block " << block;
  }
}

// A torn append — log data written, commit record not — must be invisible:
// boot comes up at the last checkpoint and the next commit overwrites it.
TEST(FileServerJournal, BootDiscardsTornAppend) {
  JournalFixture f(2);  // open + write land exactly on the commit trigger
  uint64_t chan = f.Open("stable");
  f.Write(chan, Bytes(200, 0x33));
  ASSERT_GE(f.fs.commits(), 2u);  // format + the data commit
  uint64_t size_at_checkpoint = f.fs.FileSize("stable");
  uint64_t seq_at_checkpoint = f.fs.log_seq();

  // Scribble a torn append into the log region: garbage data blocks, and a
  // corrupt (wrong-magic) record in the slot the next commit would use.
  std::map<BlockNum, Bytes> torn = f.h.disk;
  for (uint32_t i = 0; i < 8; ++i) {
    torn[FileServerProgram::kLogDataStart + i] = Bytes(kBlockSize, 0xDE);
  }
  // The torn record lands in the slot the next commit would use (seq 3 →
  // slot 1; seq 2's valid record sits in slot 0 and must win).
  Bytes bogus(24, 0xDE);  // right length, wrong magic
  torn[FileServerProgram::kCrSlot1] = bogus;

  FileServerProgram recovered(f.options);
  {
    ByteReader r(f.h.server_syncs.back());
    Decode<ServerSyncPrefix>(r);
    recovered.ApplyServerSync(r);
  }
  ProgramHarness h2(recovered);
  h2.disk = torn;
  h2.Drain();
  EXPECT_EQ(recovered.FileSize("stable"), size_at_checkpoint);
  EXPECT_EQ(recovered.log_seq(), seq_at_checkpoint);

  // And the recovered instance keeps working: reads serve the checkpointed
  // bytes untouched by the garbage.
  size_t before = h2.sent.size();
  h2.Push(kChan + 4, kUser, kBindFsChannel, MsgKind::kUser, OpenMsg("stable", 7));
  h2.Deliver();
  AURAGEN_CHECK(h2.sent.size() == before + 1);
  uint64_t rc = Decode<OpenReplyBody>(h2.sent.back().payload).channel.value;
  size_t before2 = h2.sent.size();
  h2.Push(rc, kUser, 0, MsgKind::kUser, Encode(ReqTag::kFileRead, uint64_t{1024}));
  h2.Deliver();
  AURAGEN_CHECK(h2.sent.size() == before2 + 1);
  ByteReader r2(h2.sent.back().payload);
  AURAGEN_CHECK(static_cast<ReqTag>(r2.U8()) == ReqTag::kData);
  Bytes back = r2.Blob();
  ASSERT_EQ(back.size(), 200u);
  EXPECT_EQ(back[0], 0x33);
  EXPECT_EQ(back[199], 0x33);
}

TEST(FileServerJournal, WriteThenRebootMatchesOriginal) {
  JournalFixture f(3);  // open + both writes commit as one batch
  uint64_t chan = f.Open("persist");
  Bytes payload;
  for (int i = 0; i < 1500; ++i) {
    payload.push_back(static_cast<uint8_t>(i * 7));
  }
  f.Write(chan, payload);
  f.Write(chan, Bytes(64, 0xEE));
  ASSERT_GE(f.fs.commits(), 2u);

  FileServerProgram rebooted(f.options);
  {
    ByteReader r(f.h.server_syncs.back());
    Decode<ServerSyncPrefix>(r);
    rebooted.ApplyServerSync(r);
  }
  ProgramHarness h2(rebooted);
  h2.disk = f.h.disk;
  h2.Drain();
  EXPECT_EQ(rebooted.FileSize("persist"), 1564u);

  size_t before = h2.sent.size();
  h2.Push(kChan + 5, kUser, kBindFsChannel, MsgKind::kUser, OpenMsg("persist", 8));
  h2.Deliver();
  AURAGEN_CHECK(h2.sent.size() == before + 1);
  uint64_t rc = Decode<OpenReplyBody>(h2.sent.back().payload).channel.value;
  size_t before2 = h2.sent.size();
  h2.Push(rc, kUser, 0, MsgKind::kUser, Encode(ReqTag::kFileRead, uint64_t{4096}));
  h2.Deliver();
  AURAGEN_CHECK(h2.sent.size() == before2 + 1);
  ByteReader r2(h2.sent.back().payload);
  AURAGEN_CHECK(static_cast<ReqTag>(r2.U8()) == ReqTag::kData);
  Bytes back = r2.Blob();
  Bytes want = payload;
  want.insert(want.end(), 64, 0xEE);
  EXPECT_EQ(back, want);
}

// ---------------------------------------------------------- pinned digests

// Faulted-run digests of the churner workload under seeded fault plans,
// re-pinned once when the windowed engine was retired (disk operations no
// longer hop over the bus). Every build must reproduce them bit for bit;
// re-pinning one requires a stated reason in CHANGES.md.
struct PinnedChurn {
  uint64_t seed;
  uint64_t hash;
  uint64_t count;
  SimTime last_ts;
};
constexpr PinnedChurn kPinnedChurns[] = {
    {3, 0x2668d791afb81e84ull, 3748, 593756},
    {11, 0xa800011be95d9edbull, 2898, 583756},
};

TEST(FileServerJournal, ChurnDigestsMatchPinned) {
  CampaignOptions opt;
  opt.file_workload = true;
  opt.check_determinism = false;
  for (const PinnedChurn& p : kPinnedChurns) {
    ScenarioResult r = RunFileScenario(p.seed, opt);
    EXPECT_TRUE(r.ok) << "seed " << p.seed << ": " << r.failure;
    EXPECT_EQ(r.trace_digest.hash, p.hash) << "seed " << p.seed;
    EXPECT_EQ(r.trace_digest.count, p.count) << "seed " << p.seed;
    EXPECT_EQ(r.trace_digest.last_ts, p.last_ts) << "seed " << p.seed;
  }
}

}  // namespace
}  // namespace auragen
