#include "src/core/routing.h"

#include <algorithm>

namespace auragen {
namespace {

bool ChannelBefore(const RoutingEntry* e, ChannelId channel) { return e->channel < channel; }

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
    std::vector<RoutingEntry*>& list = by_owner_[OwnerKey(owner, backup_entry)];
    list.insert(std::lower_bound(list.begin(), list.end(), channel, ChannelBefore), &entry);
  } else {
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
      entry.queue.sort();
    }
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
      entry.queue.push_back(std::move(q));
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
  auto owned = by_owner_.find(OwnerKey(owner, backup_entry));
  std::vector<RoutingEntry*>& list = owned->second;
  list.erase(std::lower_bound(list.begin(), list.end(), channel, ChannelBefore));
  if (list.empty()) {
    by_owner_.erase(owned);
  }
  entries_.erase(it);
}

std::vector<RoutingEntry*> RoutingTable::EntriesOf(Gpid owner, bool backup_entry) {
  auto owned = by_owner_.find(OwnerKey(owner, backup_entry));
  return owned == by_owner_.end() ? std::vector<RoutingEntry*>() : owned->second;
}

void RoutingTable::RemoveAllOf(Gpid owner, bool backup_entry) {
  auto owned = by_owner_.find(OwnerKey(owner, backup_entry));
  if (owned == by_owner_.end()) {
    return;
  }
  for (const RoutingEntry* e : owned->second) {
    entries_.erase(Key{e->channel, owner, backup_entry});
  }
  by_owner_.erase(owned);
}

}  // namespace auragen
