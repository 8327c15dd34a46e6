// Paged guest memory with dirty and residency tracking.
//
// This is the cooperation point between the message system and the paging
// mechanism (§5.2, §7.6): sync ships exactly the pages dirtied since the
// last sync to the page server, and a recovering backup starts with *no*
// resident pages and demand-faults its address space back in (§7.10.2).
//
// Reads/writes return kFault when the page is not resident; the CPU aborts
// the current instruction without side effects so it can be re-executed
// after the kernel resolves the fault (zero-fill for fresh pages, a page
// server round-trip during/after recovery).

#ifndef AURAGEN_SRC_AVM_MEMORY_H_
#define AURAGEN_SRC_AVM_MEMORY_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "src/base/check.h"
#include "src/base/codec.h"
#include "src/base/types.h"
#include "src/avm/isa.h"

namespace auragen {

class GuestMemory {
 public:
  GuestMemory();

  // Access results. kFault sets fault_page().
  enum class Access : uint8_t { kOk, kFault, kOutOfRange };

  Access Read8(uint32_t addr, uint8_t* out);
  Access Read32(uint32_t addr, uint32_t* out);
  Access Write8(uint32_t addr, uint8_t value);
  Access Write32(uint32_t addr, uint32_t value);

  // Sets *page to the bytes of the page holding the instruction word at the
  // aligned `addr`, for the interpreter to fetch from until its pc leaves
  // that page. Alignment guarantees a fetch never crosses a page
  // (kAvmPageBytes is a multiple of kAvmInstrBytes), so a single residency
  // check covers the word. The bytes are the page's own, so stores land in
  // them; the pointer stays valid until the page is installed, zero-filled
  // or evicted, none of which happens while the interpreter runs.
  Access FetchPage(uint32_t addr, const uint8_t** page);

  // Bulk access for kernel copies of syscall buffers. Faults on the first
  // non-resident page touched.
  Access ReadRange(uint32_t addr, uint32_t len, Bytes* out);
  Access WriteRange(uint32_t addr, const Bytes& data);

  PageNum fault_page() const { return fault_page_; }

  // Installs page content, resident + clean (page-in from the page server).
  void InstallPage(PageNum page, const Bytes& content);
  // Installs content, resident + dirty (program load, fork copy): the page
  // must reach the page account at the next sync.
  void InstallPageDirty(PageNum page, const Bytes& content);
  // Marks a page resident, zero-filled, dirty=false on page-in of a page the
  // server never saw (fresh stack/heap). Deterministic across replay.
  void MaterializeZero(PageNum page, bool dirty);

  Bytes ExtractPage(PageNum page) const;

  bool Resident(PageNum page) const { return !pages_[page].empty(); }
  // Dirty = written since the last flush capture (generation newer than the
  // last one flushed).
  bool Dirty(PageNum page) const { return dirty_gen_[page] > flushed_gen_; }
  std::vector<PageNum> DirtyPages() const;
  void ClearDirty(PageNum page) { dirty_gen_[page] = 0; }
  void ClearAllDirty();

  // Copy-on-write flush capture: snapshots every page dirtied since the
  // previous capture (or every resident page when `full`), then advances
  // the dirty generation. Writes landing after the capture stamp the new
  // generation, so they belong to the *next* increment even while the
  // returned snapshots are still draining to the page server.
  std::vector<std::pair<PageNum, Bytes>> CaptureFlushPages(bool full);

  // Drops every page (recovery: the backup begins with an empty resident
  // set, §7.10.2). Content is discarded — it must come back from the page
  // server.
  void EvictAll();

  uint32_t resident_count() const;

 private:
  Access Require(uint32_t addr, uint32_t len);

  // page -> kAvmPageBytes content when resident, empty when not: every
  // writer of a page installs a whole page or clears it.
  std::vector<Bytes> pages_;
  // Per-page dirty generation: the value of write_gen_ at the page's most
  // recent write (0 = never written / explicitly cleaned). A page is dirty
  // when its generation is newer than flushed_gen_, the generation covered
  // by the last flush capture.
  std::vector<uint32_t> dirty_gen_;
  uint32_t write_gen_ = 1;
  uint32_t flushed_gen_ = 0;
  PageNum fault_page_ = 0;
};

inline PageNum PageOf(uint32_t addr) { return addr / kAvmPageBytes; }

// The single-byte/word accessors sit on the interpreter's per-instruction
// path; they are defined inline so the fetch/decode loop pays no call cost.

inline GuestMemory::Access GuestMemory::Require(uint32_t addr, uint32_t len) {
  if (addr + len > kAvmMemBytes || addr + len < addr) {
    return Access::kOutOfRange;
  }
  PageNum first = PageOf(addr);
  PageNum last = PageOf(addr + len - 1);
  for (PageNum p = first; p <= last; ++p) {
    if (pages_[p].empty()) {
      fault_page_ = p;
      return Access::kFault;
    }
  }
  return Access::kOk;
}

inline GuestMemory::Access GuestMemory::Read8(uint32_t addr, uint8_t* out) {
  Access a = Require(addr, 1);
  if (a != Access::kOk) {
    return a;
  }
  *out = pages_[PageOf(addr)][addr % kAvmPageBytes];
  return Access::kOk;
}

inline GuestMemory::Access GuestMemory::Read32(uint32_t addr, uint32_t* out) {
  Access a = Require(addr, 4);
  if (a != Access::kOk) {
    return a;
  }
  uint32_t off = addr % kAvmPageBytes;
  if (off + 4 <= kAvmPageBytes) {
    const uint8_t* b = pages_[PageOf(addr)].data() + off;
    *out = static_cast<uint32_t>(b[0]) | static_cast<uint32_t>(b[1]) << 8 |
           static_cast<uint32_t>(b[2]) << 16 | static_cast<uint32_t>(b[3]) << 24;
    return Access::kOk;
  }
  uint32_t v = 0;
  for (uint32_t i = 0; i < 4; ++i) {
    uint32_t byte_addr = addr + i;
    v |= static_cast<uint32_t>(pages_[PageOf(byte_addr)][byte_addr % kAvmPageBytes]) << (8 * i);
  }
  *out = v;
  return Access::kOk;
}

inline GuestMemory::Access GuestMemory::Write8(uint32_t addr, uint8_t value) {
  Access a = Require(addr, 1);
  if (a != Access::kOk) {
    return a;
  }
  PageNum p = PageOf(addr);
  pages_[p][addr % kAvmPageBytes] = value;
  dirty_gen_[p] = write_gen_;
  return Access::kOk;
}

inline GuestMemory::Access GuestMemory::Write32(uint32_t addr, uint32_t value) {
  Access a = Require(addr, 4);
  if (a != Access::kOk) {
    return a;
  }
  uint32_t off = addr % kAvmPageBytes;
  if (off + 4 <= kAvmPageBytes) {
    PageNum p = PageOf(addr);
    uint8_t* b = pages_[p].data() + off;
    b[0] = static_cast<uint8_t>(value);
    b[1] = static_cast<uint8_t>(value >> 8);
    b[2] = static_cast<uint8_t>(value >> 16);
    b[3] = static_cast<uint8_t>(value >> 24);
    dirty_gen_[p] = write_gen_;
    return Access::kOk;
  }
  for (uint32_t i = 0; i < 4; ++i) {
    uint32_t byte_addr = addr + i;
    PageNum p = PageOf(byte_addr);
    pages_[p][byte_addr % kAvmPageBytes] = static_cast<uint8_t>(value >> (8 * i));
    dirty_gen_[p] = write_gen_;
  }
  return Access::kOk;
}

inline GuestMemory::Access GuestMemory::FetchPage(uint32_t addr, const uint8_t** page) {
  static_assert(kAvmPageBytes % kAvmInstrBytes == 0,
                "aligned fetches must not cross pages");
  Access a = Require(addr, kAvmInstrBytes);
  if (a == Access::kOk) {
    *page = pages_[PageOf(addr)].data();
  }
  return a;
}

}  // namespace auragen

#endif  // AURAGEN_SRC_AVM_MEMORY_H_
