// Unit tests for the routing table (§7.4.1) and the NativeBody page-diff
// machinery that system servers sync through.

#include <gtest/gtest.h>

#include <iterator>
#include <map>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "src/base/rng.h"
#include "src/core/routing.h"
#include "src/kernel/native_body.h"

namespace auragen {
namespace {

const Gpid kA = Gpid::Make(0, 10);
const Gpid kB = Gpid::Make(1, 11);
const ChannelId kCh1{100};
const ChannelId kCh2{200};

TEST(RoutingTable, PrimaryAndBackupEntriesAreDistinct) {
  RoutingTable table;
  RoutingEntry& primary = table.Create(kCh1, kA, /*backup=*/false);
  RoutingEntry& backup = table.Create(kCh1, kA, /*backup=*/true);
  primary.reads_since_sync = 5;
  backup.writes_since_sync = 3;
  EXPECT_EQ(table.Find(kCh1, kA, false)->reads_since_sync, 5u);
  EXPECT_EQ(table.Find(kCh1, kA, true)->writes_since_sync, 3u);
  EXPECT_EQ(table.size(), 2u);
}

TEST(RoutingTable, BothEndsOfAChannelCanShareACluster) {
  RoutingTable table;
  table.Create(kCh1, kA, false);
  table.Create(kCh1, kB, false);
  EXPECT_NE(table.Find(kCh1, kA, false), table.Find(kCh1, kB, false));
}

TEST(RoutingTable, FindMissReturnsNull) {
  RoutingTable table;
  EXPECT_EQ(table.Find(kCh1, kA, false), nullptr);
  table.Create(kCh1, kA, false);
  EXPECT_EQ(table.Find(kCh2, kA, false), nullptr);
  EXPECT_EQ(table.Find(kCh1, kB, false), nullptr);
  EXPECT_EQ(table.Find(kCh1, kA, true), nullptr);
}

TEST(RoutingTable, EntriesOfFiltersByOwnerAndRole) {
  RoutingTable table;
  table.Create(kCh1, kA, false);
  table.Create(kCh2, kA, false);
  table.Create(kCh1, kB, false);
  table.Create(kCh2, kA, true);
  EXPECT_EQ(table.EntriesOf(kA, false).size(), 2u);
  EXPECT_EQ(table.EntriesOf(kA, true).size(), 1u);
  EXPECT_EQ(table.EntriesOf(kB, false).size(), 1u);
}

TEST(RoutingTable, RemoveAllOfErasesOnlyTheRole) {
  RoutingTable table;
  table.Create(kCh1, kA, false);
  table.Create(kCh2, kA, false);
  table.Create(kCh1, kA, true);
  table.RemoveAllOf(kA, false);
  table.RemoveAllOf(kB, false);  // nothing owned: no-op
  EXPECT_EQ(table.EntriesOf(kA, false).size(), 0u);
  EXPECT_EQ(table.EntriesOf(kA, true).size(), 1u);
  EXPECT_EQ(table.Find(kCh1, kA, false), nullptr);
  EXPECT_EQ(table.Find(kCh2, kA, false), nullptr);
  EXPECT_NE(table.Find(kCh1, kA, true), nullptr);
  EXPECT_EQ(table.size(), 1u);
  // Re-created keys are indexed again.
  table.Create(kCh2, kA, false);
  EXPECT_EQ(table.EntriesOf(kA, false).size(), 1u);
}

TEST(RoutingTable, CreateReplacesStaleEntry) {
  RoutingTable table;
  table.Create(kCh2, kA, false);
  RoutingEntry& e1 = table.Create(kCh1, kA, false);
  e1.reads_since_sync = 9;
  e1.fd = 4;
  e1.closed_by_peer = true;
  table.Push(e1, QueuedMsg{});
  RoutingEntry& e2 = table.Create(kCh1, kA, false);
  EXPECT_EQ(&e2, &e1);  // reset in place: held pointers see the fresh entry
  EXPECT_EQ(table.Find(kCh1, kA, false), &e2);
  EXPECT_TRUE(e2.queue().empty());
  EXPECT_TRUE(table.ReadableOf(kA).empty());  // the reset unindexed it
  EXPECT_EQ(e2.reads_since_sync, 0u);
  EXPECT_EQ(e2.fd, kBadFd);
  EXPECT_FALSE(e2.closed_by_peer);
  EXPECT_EQ(e2.channel, kCh1);
  EXPECT_EQ(e2.owner, kA);
  EXPECT_FALSE(e2.backup_entry);
  EXPECT_EQ(table.size(), 2u);
  EXPECT_EQ(table.EntriesOf(kA, false).size(), 2u);  // still indexed once
}

QueuedMsg Arrival(uint64_t seq, MsgKind kind = MsgKind::kUser) {
  QueuedMsg q;
  q.arrival_seq = seq;
  q.msg.header.kind = kind;
  return q;
}

// Early arrivals (DESIGN.md §11) wait for their entry: its own role's in
// arrival order, a primary entry's merged with those parked under the
// backup role, and a parked close marks the entry closed by its peer.
TEST(RoutingTable, ParkedArrivalsReachTheEntryWhenItIsCreated) {
  RoutingTable table;
  table.Park(kCh1, kA, /*backup=*/true, Arrival(2));
  table.Park(kCh1, kA, /*backup=*/false, Arrival(3));
  table.Park(kCh1, kA, /*backup=*/true, Arrival(5));
  table.Park(kCh2, kA, /*backup=*/true, Arrival(7, MsgKind::kClose));

  RoutingEntry& primary = table.Create(kCh1, kA, /*backup=*/false);
  std::vector<uint64_t> seqs;
  for (const QueuedMsg& q : primary.queue()) {
    seqs.push_back(q.arrival_seq);
  }
  EXPECT_EQ(seqs, (std::vector<uint64_t>{2, 3, 5}));
  EXPECT_TRUE(table.Create(kCh1, kA, /*backup=*/true).queue().empty());  // taken

  RoutingEntry& closed = table.Create(kCh2, kA, /*backup=*/true);
  EXPECT_TRUE(closed.queue().empty());
  EXPECT_TRUE(closed.closed_by_peer);
}

TEST(RoutingTable, DropParkedForgetsOnlyThatOwner) {
  RoutingTable table;
  table.Park(kCh1, kA, /*backup=*/false, Arrival(1));
  table.Park(kCh1, kB, /*backup=*/false, Arrival(2));
  table.DropParked(kA);
  EXPECT_TRUE(table.Create(kCh1, kA, /*backup=*/false).queue().empty());
  EXPECT_EQ(table.Create(kCh1, kB, /*backup=*/false).queue().size(), 1u);
}

TEST(RoutingTable, ForEachVisitsEverything) {
  RoutingTable table;
  table.Create(kCh1, kA, false);
  table.Create(kCh2, kB, true);
  int visited = 0;
  table.ForEach([&](RoutingEntry&) { ++visited; });
  EXPECT_EQ(visited, 2);
}

std::vector<uint64_t> ChannelsOf(const std::vector<RoutingEntry*>& entries) {
  std::vector<uint64_t> out;
  for (const RoutingEntry* e : entries) {
    out.push_back(e->channel.value);
  }
  return out;
}

TEST(RoutingTable, EntriesOfIsInAscendingChannelOrder) {
  // Sync records and takeover walk EntriesOf, so its order reaches the
  // trace digest: it must not depend on creation order.
  RoutingTable table;
  for (uint64_t ch : {500u, 20u, 300u, 7u, 4000u, 60u}) {
    table.Create(ChannelId{ch}, kA, false);
    table.Create(ChannelId{ch + 1}, kB, false);  // interleaved other owner
    table.Create(ChannelId{ch}, kA, true);       // and other role
  }
  EXPECT_EQ(ChannelsOf(table.EntriesOf(kA, false)),
            (std::vector<uint64_t>{7, 20, 60, 300, 500, 4000}));
  EXPECT_EQ(ChannelsOf(table.EntriesOf(kB, false)),
            (std::vector<uint64_t>{8, 21, 61, 301, 501, 4001}));
  for (const RoutingEntry* e : table.EntriesOf(kA, true)) {
    EXPECT_EQ(e->owner, kA);
    EXPECT_TRUE(e->backup_entry);
  }
}

TEST(RoutingTable, PointersSurviveOtherCreatesAndRemoves) {
  // Callers hold RoutingEntry* across unrelated creates and removes.
  RoutingTable table;
  RoutingEntry* created = &table.Create(kCh1, kA, false);
  created->reads_since_sync = 42;
  table.Push(*created, QueuedMsg{7, Msg{}});
  table.Create(kCh2, kA, true);
  RoutingEntry* found = table.Find(kCh2, kA, true);
  for (uint64_t ch = 1000; ch < 3000; ++ch) {  // forces several rehashes
    table.Create(ChannelId{ch}, ch % 2 == 0 ? kA : kB, ch % 3 == 0);
  }
  for (uint64_t ch = 1000; ch < 3000; ch += 3) {
    table.Remove(ChannelId{ch}, ch % 2 == 0 ? kA : kB, ch % 3 == 0);
  }
  table.RemoveAllOf(kB, false);
  EXPECT_EQ(table.Find(kCh1, kA, false), created);
  EXPECT_EQ(table.Find(kCh2, kA, true), found);
  EXPECT_EQ(created->reads_since_sync, 42u);
  ASSERT_EQ(created->queue().size(), 1u);
  EXPECT_EQ(created->queue().front().arrival_seq, 7u);
}

TEST(RoutingTable, RemoveKeepsFindAndEntriesOfConsistent) {
  RoutingTable table;
  for (uint64_t ch = 1; ch <= 5; ++ch) {
    table.Create(ChannelId{ch}, kA, false);
    table.Create(ChannelId{ch}, kA, true);
  }
  table.Remove(ChannelId{3}, kA, false);
  table.Remove(ChannelId{3}, kA, false);  // already gone: no-op
  table.Remove(ChannelId{9}, kB, false);  // never existed: no-op
  EXPECT_EQ(table.Find(ChannelId{3}, kA, false), nullptr);
  EXPECT_NE(table.Find(ChannelId{3}, kA, true), nullptr);
  EXPECT_EQ(ChannelsOf(table.EntriesOf(kA, false)), (std::vector<uint64_t>{1, 2, 4, 5}));
  EXPECT_EQ(table.EntriesOf(kA, true).size(), 5u);
  EXPECT_EQ(table.size(), 9u);
  for (uint64_t ch : {1u, 2u, 4u, 5u}) {
    table.Remove(ChannelId{ch}, kA, false);
  }
  EXPECT_TRUE(table.EntriesOf(kA, false).empty());
  table.Create(ChannelId{3}, kA, false);
  EXPECT_EQ(ChannelsOf(table.EntriesOf(kA, false)), (std::vector<uint64_t>{3}));
}

TEST(RoutingTable, MatchesOrderedMapModelUnderRandomOps) {
  // Differential test against the ordered map the table used to be: the
  // model holds each key's tag (stored in the entry's reads_total) and the
  // address returned when it was created.
  using Key = std::tuple<uint64_t, uint64_t, bool>;  // channel, owner, role
  struct Live {
    uint64_t tag;
    RoutingEntry* addr;
  };
  const Gpid owners[] = {kA, kB, Gpid::Make(2, 12)};
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    RoutingTable table;
    std::map<Key, Live> model;
    uint64_t next_tag = 1;
    for (int op = 0; op < 2000; ++op) {
      const uint64_t ch = 1 + rng.Below(24);
      const Gpid owner = owners[rng.Below(3)];
      const bool backup = rng.Below(2) == 1;
      const Key key{ch, owner.value, backup};
      switch (rng.Below(5)) {
        case 0:
        case 1: {
          RoutingEntry& e = table.Create(ChannelId{ch}, owner, backup);
          e.reads_total = next_tag;
          auto it = model.find(key);
          if (it != model.end()) {
            EXPECT_EQ(&e, it->second.addr) << "seed " << seed << " op " << op;
            it->second.tag = next_tag;
          } else {
            model[key] = Live{next_tag, &e};
          }
          ++next_tag;
          break;
        }
        case 2:
          table.Remove(ChannelId{ch}, owner, backup);
          model.erase(key);
          break;
        case 3:
          if (rng.Below(8) == 0) {
            table.RemoveAllOf(owner, backup);
            for (auto it = model.begin(); it != model.end();) {
              const bool drop = std::get<1>(it->first) == owner.value &&
                                std::get<2>(it->first) == backup;
              it = drop ? model.erase(it) : std::next(it);
            }
          }
          break;
        default: {
          std::vector<std::pair<uint64_t, uint64_t>> want;  // (channel, tag)
          for (const auto& [k, live] : model) {
            if (std::get<1>(k) == owner.value && std::get<2>(k) == backup) {
              want.emplace_back(std::get<0>(k), live.tag);
            }
          }
          std::vector<std::pair<uint64_t, uint64_t>> got;
          for (const RoutingEntry* e : table.EntriesOf(owner, backup)) {
            EXPECT_EQ(e->owner, owner);
            EXPECT_EQ(e->backup_entry, backup);
            got.emplace_back(e->channel.value, e->reads_total);
          }
          EXPECT_EQ(got, want) << "seed " << seed << " op " << op;
          break;
        }
      }
      auto it = model.find(key);
      RoutingEntry* found = table.Find(ChannelId{ch}, owner, backup);
      if (it == model.end()) {
        EXPECT_EQ(found, nullptr) << "seed " << seed << " op " << op;
      } else {
        EXPECT_EQ(found, it->second.addr) << "seed " << seed << " op " << op;
      }
      ASSERT_EQ(table.size(), model.size()) << "seed " << seed << " op " << op;
    }
    // Every surviving entry is still findable at its original address, and
    // ForEach visits exactly the model's keys.
    std::set<Key> visited;
    table.ForEach([&](RoutingEntry& e) {
      visited.insert(Key{e.channel.value, e.owner.value, e.backup_entry});
    });
    EXPECT_EQ(visited.size(), model.size());
    for (const auto& [k, live] : model) {
      EXPECT_EQ(visited.count(k), 1u);
      EXPECT_EQ(table.Find(ChannelId{std::get<0>(k)}, Gpid{std::get<1>(k)}, std::get<2>(k)),
                live.addr);
      EXPECT_EQ(live.addr->reads_total, live.tag);
    }
  }
}

// The reference the readable index replaced: every primary entry of `owner`
// with a non-empty queue, keyed by its head's arrival sequence number.
RoutingTable::ReadableIndex ScanReadable(RoutingTable& table, Gpid owner) {
  RoutingTable::ReadableIndex want;
  for (RoutingEntry* e : table.EntriesOf(owner, /*backup=*/false)) {
    if (!e->queue().empty()) {
      EXPECT_TRUE(want.emplace(e->queue().front().arrival_seq, e).second);
    }
  }
  return want;
}

TEST(RoutingTable, ReadableIndexMatchesScanUnderRandomOps) {
  // Every queue mutation path — creation with parked adoption under both
  // roles, a stale entry's reset, push, pop, remove, remove-all and the
  // takeover promotion — against a brute-force scan after every step.
  // Arrival numbers come from one counter, as in a kernel.
  const Gpid owners[] = {kA, kB, Gpid::Make(2, 12)};
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    RoutingTable table;
    uint64_t next_seq = 1;
    for (int op = 0; op < 2000; ++op) {
      const ChannelId ch{1 + rng.Below(8)};
      const Gpid owner = owners[rng.Below(3)];
      const bool backup = rng.Below(2) == 1;
      RoutingEntry* e = table.Find(ch, owner, backup);
      switch (rng.Below(9)) {
        case 0:
        case 1:
          table.Create(ch, owner, backup);
          break;
        case 2:
          if (e == nullptr) {  // the kernel parks only for a missing entry
            table.Park(ch, owner, backup,
                       Arrival(next_seq++, rng.Below(6) == 0 ? MsgKind::kClose : MsgKind::kUser));
          }
          break;
        case 3:
        case 4:
          if (e != nullptr) {
            table.Push(*e, Arrival(next_seq++));
          }
          break;
        case 5:
          if (e != nullptr && !e->queue().empty()) {
            const uint64_t head = e->queue().front().arrival_seq;
            EXPECT_EQ(table.PopFront(*e).arrival_seq, head);
          }
          break;
        case 6:
          table.Remove(ch, owner, backup);
          break;
        case 7:
          if (rng.Below(8) == 0) {
            table.RemoveAllOf(owner, backup);
          }
          break;
        default:
          if (rng.Below(4) == 0) {
            for (const RoutingEntry* p : table.PromoteBackupEntries(owner)) {
              EXPECT_FALSE(p->backup_entry);
              EXPECT_EQ(table.Find(p->channel, owner, /*backup=*/false), p);
            }
            EXPECT_TRUE(table.EntriesOf(owner, /*backup=*/true).empty());
          }
          break;
      }
      for (const Gpid o : owners) {
        ASSERT_EQ(table.ReadableOf(o), ScanReadable(table, o))
            << "seed " << seed << " op " << op << " owner " << o.value;
      }
    }
  }
}

// ----------------------------- NativeBody page-diff sync (system servers)

class CounterProgram : public NativeProgram {
 public:
  SyscallRequest Next(const SyscallResult&, bool) override {
    ++counter_;
    SyscallRequest req;
    req.num = Sys::kRead;
    req.a = kAnyChannel;
    return req;
  }
  void SerializeState(ByteWriter& w) const override {
    w.U64(counter_);
    w.Blob(blob_);
  }
  void RestoreState(ByteReader& r) override {
    counter_ = r.U64();
    blob_ = r.Blob();
  }
  uint64_t counter_ = 0;
  Bytes blob_;
};

TEST(NativeBodyPaging, DirtyPagesTrackStateChanges) {
  auto program = std::make_unique<CounterProgram>();
  CounterProgram* p = program.get();
  p->counter_ = 7;  // all-zero state would (correctly) ship nothing
  NativeBody body(std::move(program), /*paged_ft=*/true);
  std::vector<PageNum> dirty = body.DirtyPages();
  EXPECT_FALSE(dirty.empty());
  for (PageNum page : dirty) {
    (void)body.PageContent(page);
  }
  body.ClearDirty();
  EXPECT_TRUE(body.DirtyPages().empty());

  // A state change re-dirties exactly the affected chunk(s).
  p->counter_ = 999;
  dirty = body.DirtyPages();
  ASSERT_EQ(dirty.size(), 1u);
  EXPECT_EQ(dirty[0], 0u);
}

TEST(NativeBodyPaging, GrowthAddsChunks) {
  auto program = std::make_unique<CounterProgram>();
  CounterProgram* p = program.get();
  NativeBody body(std::move(program), /*paged_ft=*/true);
  body.DirtyPages();
  body.ClearDirty();
  p->blob_ = Bytes(3 * kAvmPageBytes, 0xEE);
  std::vector<PageNum> dirty = body.DirtyPages();
  EXPECT_GE(dirty.size(), 3u);
}

TEST(NativeBodyPaging, RestoreRebuildsFromInstalledChunks) {
  auto program = std::make_unique<CounterProgram>();
  CounterProgram* p = program.get();
  NativeBody body(std::move(program), /*paged_ft=*/true);
  p->counter_ = 1234;
  p->blob_ = Bytes(100, 0x1);
  std::vector<PageNum> dirty = body.DirtyPages();
  std::vector<Bytes> chunks;
  for (PageNum page : dirty) {
    chunks.push_back(body.PageContent(page));
  }
  body.ClearDirty();
  Bytes context = body.CaptureContext();

  auto program2 = std::make_unique<CounterProgram>();
  CounterProgram* p2 = program2.get();
  NativeBody restored(std::move(program2), /*paged_ft=*/true);
  restored.RestoreContext(context);
  restored.EvictAllPages();
  EXPECT_TRUE(restored.NeedsServerPaging());
  // The first Run faults each chunk in order.
  for (size_t i = 0; i < chunks.size(); ++i) {
    BodyRun run = restored.Run(100);
    ASSERT_EQ(run.kind, BodyRun::Kind::kPageFault);
    EXPECT_EQ(run.fault_page, i);
    restored.InstallPage(run.fault_page, /*known=*/true, chunks[i]);
  }
  BodyRun run = restored.Run(100);
  EXPECT_EQ(run.kind, BodyRun::Kind::kSyscall);
  EXPECT_EQ(p2->counter_, 1235u);  // restored 1234, one Next() since
  EXPECT_EQ(p2->blob_, Bytes(100, 0x1));
}

TEST(NativeBodyPaging, PeripheralBodiesReportNoDirtyPages) {
  NativeBody body(std::make_unique<CounterProgram>(), /*paged_ft=*/false);
  EXPECT_TRUE(body.DirtyPages().empty());
}

}  // namespace
}  // namespace auragen
