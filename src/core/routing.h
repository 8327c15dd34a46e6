// Cluster-local routing table (§7.4.1).
//
// One entry defines one end of a channel for one process. A channel between
// two backed-up processes is four entries across up to four clusters: a
// primary entry at each endpoint's cluster and a backup entry at each
// endpoint's backup cluster. An entry holds everything §7.4.1 lists:
// addressing for the three delivery destinations, the incoming queue, and
// status — plus the two counters the fault-tolerance algorithms live on:
//   reads_since_sync  (primary entries; reported in the next sync message so
//                      the backup can discard that many saved messages, §5.2)
//   writes_since_sync (backup entries; incremented when the sender's-backup
//                      copy arrives, §5.1; decremented during rollforward to
//                      suppress already-sent messages, §5.4)

#ifndef AURAGEN_SRC_CORE_ROUTING_H_
#define AURAGEN_SRC_CORE_ROUTING_H_

#include <cstddef>
#include <cstdint>
#include <list>
#include <map>
#include <unordered_map>
#include <vector>

#include "src/base/types.h"
#include "src/core/wire.h"

namespace auragen {

struct QueuedMsg {
  uint64_t arrival_seq = 0;  // assigned on arrival at this cluster (§7.5.1:
                             // lets `which` behave identically at the backup)
  Msg msg;

  // Queues are kept in arrival order.
  friend bool operator<(const QueuedMsg& a, const QueuedMsg& b) {
    return a.arrival_seq < b.arrival_seq;
  }
};

struct RoutingEntry {
  RoutingEntry() = default;

  ChannelId channel;
  Gpid owner;                 // the local process (or backup) this end serves
  bool backup_entry = false;

  Fd fd = kBadFd;             // owner's descriptor (backup entries learn the
                              // binding from birth notices / sync records)
  Gpid peer_pid;
  ClusterId peer_primary_cluster = kNoCluster;
  ClusterId peer_backup_cluster = kNoCluster;
  ClusterId own_backup_cluster = kNoCluster;  // where the owner's backup entry lives
  uint8_t peer_kind = 0;      // PeerKind: user peer vs server (read semantics)
  uint8_t peer_mode = 0;      // peer's BackupMode (crash patching, §7.10.1)
  uint32_t binding_tag = 0;   // server-side meaning (e.g. tty line number)

  // Incoming messages, head first. Read-only outside the RoutingTable: every
  // push and pop goes through it, and it indexes the owner's readable entries.
  const std::list<QueuedMsg>& queue() const { return queue_; }

  uint32_t reads_since_sync = 0;    // primary entries
  uint32_t writes_since_sync = 0;   // backup entries
  bool written_since_sync = false;  // primary entries: include in sync record
                                    // so the backup zeroes its write count
  bool opened_since_sync = true;    // include in next sync record (§7.8)
  bool closed_local = false;        // owner closed its end
  bool closed_by_peer = false;      // kClose arrived; EOF after queue drains
  bool unusable = false;            // peer is a fullback awaiting a new
                                    // backup (§7.10.1 step 1)
  uint64_t writes_total = 0;        // diagnostics/metrics only
  uint64_t reads_total = 0;

 private:
  friend class RoutingTable;
  // Only the table replaces a whole entry, so no assignment bypasses the
  // readable index. (No move constructor either: a copy leaves the source's
  // queue in place.)
  RoutingEntry& operator=(const RoutingEntry&) = default;
  RoutingEntry& operator=(RoutingEntry&&) = default;

  // A list, not a deque: most entries are idle, and an empty list allocates
  // nothing where libstdc++'s empty deque holds a 544-byte block.
  std::list<QueuedMsg> queue_;
};

// Entries live at stable addresses: a RoutingEntry* stays valid until that
// entry is removed (Remove, RemoveAllOf, or the table being replaced), across
// any number of creates and removes of other keys.
//
// The table also answers §7.5.1's "which channel is readable first": per
// owner, it indexes the primary entries with a non-empty queue by the
// arrival sequence number of each queue's head. Arrival numbers come from
// one per-kernel counter, so no two heads share one (the table CHECKs it).
class RoutingTable {
 public:
  // Head arrival sequence -> entry; begin() is the oldest readable message.
  using ReadableIndex = std::map<uint64_t, RoutingEntry*>;

  RoutingTable() = default;
  RoutingTable(const RoutingTable&) = delete;
  RoutingTable& operator=(const RoutingTable&) = delete;
  RoutingTable(RoutingTable&&) = default;
  RoutingTable& operator=(RoutingTable&&) = default;

  // Creates an entry; a stale entry under the same key is reset in place
  // (same address, fresh fields). Messages parked for the key move into its
  // queue; a primary entry also takes those parked under the backup role.
  RoutingEntry& Create(ChannelId channel, Gpid owner, bool backup_entry);

  // Early-arrival parking (DESIGN.md §11): a channel message that reaches
  // this cluster before its entry exists waits here, arrival sequence
  // number and all, until Create makes the entry. A parked kClose marks the
  // entry closed by its peer.
  void Park(ChannelId channel, Gpid owner, bool backup_entry, QueuedMsg msg);
  // Drops everything parked for `owner`, in either role.
  void DropParked(Gpid owner);

  RoutingEntry* Find(ChannelId channel, Gpid owner, bool backup_entry);
  const RoutingEntry* Find(ChannelId channel, Gpid owner, bool backup_entry) const;

  void Remove(ChannelId channel, Gpid owner, bool backup_entry);

  // The only ways into and out of a queue.
  void Push(RoutingEntry& entry, QueuedMsg msg);
  QueuedMsg PopFront(RoutingEntry& entry);  // the queue must not be empty

  // `owner`'s primary entries with a non-empty queue, oldest head first.
  const ReadableIndex& ReadableOf(Gpid owner) const;

  // Takeover (§7.10.1 step 2): each of `owner`'s backup entries becomes its
  // primary entry, saved queue and counters intact, with the messages parked
  // for the channel merged in by arrival sequence. Returns the new primary
  // entries in ascending channel order.
  std::vector<RoutingEntry*> PromoteBackupEntries(Gpid owner);

  // All entries owned by `owner` (primary or backup per flag), in ascending
  // channel order. Sync records and takeover iterate this order, so it
  // feeds the trace digest.
  std::vector<RoutingEntry*> EntriesOf(Gpid owner, bool backup_entry);

  // Drops every entry owned by `owner` with the given role.
  void RemoveAllOf(Gpid owner, bool backup_entry);

  // Full scan (crash handling walks the whole table, §7.10.1 step 1), in no
  // particular order. `fn` may modify only the entry it is given — it must
  // not create or remove entries, touch another entry, or emit anything
  // (trace records, messages) — so the visit order cannot reach behaviour.
  // The queue is read-only to `fn`, so the readable index stays exact.
  template <typename Fn>
  void ForEach(Fn&& fn) {
    for (auto& [key, entry] : entries_) {
      fn(entry);
    }
  }

  size_t size() const { return entries_.size(); }

 private:
  struct Key {
    ChannelId channel;
    Gpid owner;
    bool backup_entry;
    friend bool operator==(const Key& a, const Key& b) {
      return a.channel == b.channel && a.owner == b.owner &&
             a.backup_entry == b.backup_entry;
    }
  };
  struct KeyHash {
    size_t operator()(const Key& k) const;
  };
  // (owner, role): the channel is left zero.
  static Key OwnerKey(Gpid owner, bool backup_entry) {
    return Key{kNoChannel, owner, backup_entry};
  }

  struct Owned {
    std::vector<RoutingEntry*> entries;  // ascending channel order
    ReadableIndex readable;              // primary role only
  };

  void AdoptParked(RoutingEntry& entry, bool backup_entry);
  // Take a primary entry's head out of, and put it back into, its owner's
  // index around any change to the head of its queue.
  void Unindex(const RoutingEntry& entry);
  void Index(RoutingEntry& entry);
  ReadableIndex& IndexOf(const RoutingEntry& entry);

  std::unordered_map<Key, RoutingEntry, KeyHash> entries_;
  // (owner, role) -> that owner's entries and readable index.
  std::unordered_map<Key, Owned, KeyHash> by_owner_;
  std::unordered_map<Key, std::list<QueuedMsg>, KeyHash> parked_;
};

}  // namespace auragen

#endif  // AURAGEN_SRC_CORE_ROUTING_H_
