#include "src/core/routing.h"

#include <algorithm>

#include "src/base/check.h"

namespace auragen {
namespace {

bool ChannelBefore(const RoutingEntry* e, ChannelId channel) { return e->channel < channel; }

const RoutingTable::ReadableIndex kNothingReadable;

}  // namespace

size_t RoutingTable::KeyHash::operator()(const Key& k) const {
  // splitmix64 finalizer over the three fields.
  uint64_t h = k.channel.value * 0x9e3779b97f4a7c15ull ^ k.owner.value ^
               static_cast<uint64_t>(k.backup_entry);
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
  return static_cast<size_t>(h ^ (h >> 31));
}

RoutingEntry& RoutingTable::Create(ChannelId channel, Gpid owner, bool backup_entry) {
  auto [it, inserted] = entries_.try_emplace(Key{channel, owner, backup_entry});
  RoutingEntry& entry = it->second;
  if (inserted) {
    std::vector<RoutingEntry*>& list = by_owner_[OwnerKey(owner, backup_entry)].entries;
    list.insert(std::lower_bound(list.begin(), list.end(), channel, ChannelBefore), &entry);
  } else {
    Unindex(entry);
    entry = RoutingEntry();
  }
  entry.channel = channel;
  entry.owner = owner;
  entry.backup_entry = backup_entry;
  if (!parked_.empty()) {
    AdoptParked(entry, backup_entry);
    if (!backup_entry) {
      // The cluster was the owner's backup when these arrived and has since
      // taken over; both roles' arrivals interleave by sequence number.
      AdoptParked(entry, /*backup_entry=*/true);
      entry.queue_.sort();
    }
    Index(entry);
  }
  return entry;
}

void RoutingTable::Park(ChannelId channel, Gpid owner, bool backup_entry, QueuedMsg msg) {
  parked_[Key{channel, owner, backup_entry}].push_back(std::move(msg));
}

void RoutingTable::AdoptParked(RoutingEntry& entry, bool backup_entry) {
  auto it = parked_.find(Key{entry.channel, entry.owner, backup_entry});
  if (it == parked_.end()) {
    return;
  }
  for (QueuedMsg& q : it->second) {
    if (q.msg.header.kind == MsgKind::kClose) {
      entry.closed_by_peer = true;
    } else {
      entry.queue_.push_back(std::move(q));
    }
  }
  parked_.erase(it);
}

void RoutingTable::DropParked(Gpid owner) {
  std::erase_if(parked_, [owner](const auto& kv) { return kv.first.owner == owner; });
}

RoutingEntry* RoutingTable::Find(ChannelId channel, Gpid owner, bool backup_entry) {
  auto it = entries_.find(Key{channel, owner, backup_entry});
  return it == entries_.end() ? nullptr : &it->second;
}

const RoutingEntry* RoutingTable::Find(ChannelId channel, Gpid owner, bool backup_entry) const {
  auto it = entries_.find(Key{channel, owner, backup_entry});
  return it == entries_.end() ? nullptr : &it->second;
}

void RoutingTable::Remove(ChannelId channel, Gpid owner, bool backup_entry) {
  auto it = entries_.find(Key{channel, owner, backup_entry});
  if (it == entries_.end()) {
    return;
  }
  Unindex(it->second);
  auto owned = by_owner_.find(OwnerKey(owner, backup_entry));
  std::vector<RoutingEntry*>& list = owned->second.entries;
  list.erase(std::lower_bound(list.begin(), list.end(), channel, ChannelBefore));
  if (list.empty()) {
    by_owner_.erase(owned);
  }
  entries_.erase(it);
}

void RoutingTable::Push(RoutingEntry& entry, QueuedMsg msg) {
  entry.queue_.push_back(std::move(msg));
  if (entry.queue_.size() == 1) {
    Index(entry);
  }
}

QueuedMsg RoutingTable::PopFront(RoutingEntry& entry) {
  AURAGEN_CHECK(!entry.queue_.empty());
  Unindex(entry);
  QueuedMsg head = std::move(entry.queue_.front());
  entry.queue_.pop_front();
  Index(entry);
  return head;
}

const RoutingTable::ReadableIndex& RoutingTable::ReadableOf(Gpid owner) const {
  auto owned = by_owner_.find(OwnerKey(owner, /*backup_entry=*/false));
  return owned == by_owner_.end() ? kNothingReadable : owned->second.readable;
}

std::vector<RoutingEntry*> RoutingTable::PromoteBackupEntries(Gpid owner) {
  std::vector<RoutingEntry*> promoted;
  for (RoutingEntry* saved : EntriesOf(owner, /*backup_entry=*/true)) {
    RoutingEntry& entry = Create(saved->channel, owner, /*backup_entry=*/false);
    Unindex(entry);
    saved->queue_.merge(entry.queue_);  // early arrivals the new entry adopted
    entry = std::move(*saved);
    entry.backup_entry = false;
    Index(entry);
    promoted.push_back(&entry);
  }
  RemoveAllOf(owner, /*backup_entry=*/true);
  return promoted;
}

void RoutingTable::Unindex(const RoutingEntry& entry) {
  if (!entry.backup_entry && !entry.queue_.empty()) {
    IndexOf(entry).erase(entry.queue_.front().arrival_seq);
  }
}

void RoutingTable::Index(RoutingEntry& entry) {
  if (!entry.backup_entry && !entry.queue_.empty()) {
    const uint64_t head = entry.queue_.front().arrival_seq;
    const bool unique = IndexOf(entry).emplace(head, &entry).second;
    AURAGEN_CHECK(unique) << "two queue heads share arrival sequence" << head;
  }
}

RoutingTable::ReadableIndex& RoutingTable::IndexOf(const RoutingEntry& entry) {
  return by_owner_.find(OwnerKey(entry.owner, /*backup_entry=*/false))->second.readable;
}

std::vector<RoutingEntry*> RoutingTable::EntriesOf(Gpid owner, bool backup_entry) {
  auto owned = by_owner_.find(OwnerKey(owner, backup_entry));
  return owned == by_owner_.end() ? std::vector<RoutingEntry*>() : owned->second.entries;
}

void RoutingTable::RemoveAllOf(Gpid owner, bool backup_entry) {
  auto owned = by_owner_.find(OwnerKey(owner, backup_entry));
  if (owned == by_owner_.end()) {
    return;
  }
  for (const RoutingEntry* e : owned->second.entries) {
    entries_.erase(Key{e->channel, owner, backup_entry});
  }
  by_owner_.erase(owned);
}

}  // namespace auragen
