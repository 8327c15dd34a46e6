#include "src/avm/memory.h"

#include <algorithm>
#include <cstring>

namespace auragen {

GuestMemory::GuestMemory()
    : pages_(kAvmNumPages), dirty_gen_(kAvmNumPages, 0) {}

GuestMemory::Access GuestMemory::ReadRange(uint32_t addr, uint32_t len, Bytes* out) {
  Access a = Require(addr, len);
  if (a != Access::kOk) {
    return a;
  }
  out->resize(len);
  uint32_t done = 0;
  while (done < len) {
    uint32_t byte_addr = addr + done;
    uint32_t off = byte_addr % kAvmPageBytes;
    uint32_t chunk = std::min(len - done, kAvmPageBytes - off);
    std::memcpy(out->data() + done, pages_[PageOf(byte_addr)].data() + off, chunk);
    done += chunk;
  }
  return Access::kOk;
}

GuestMemory::Access GuestMemory::WriteRange(uint32_t addr, const Bytes& data) {
  uint32_t len = static_cast<uint32_t>(data.size());
  Access a = Require(addr, len);
  if (a != Access::kOk) {
    return a;
  }
  uint32_t done = 0;
  while (done < len) {
    uint32_t byte_addr = addr + done;
    PageNum p = PageOf(byte_addr);
    uint32_t off = byte_addr % kAvmPageBytes;
    uint32_t chunk = std::min(len - done, kAvmPageBytes - off);
    std::memcpy(pages_[p].data() + off, data.data() + done, chunk);
    dirty_gen_[p] = write_gen_;
    done += chunk;
  }
  return Access::kOk;
}

void GuestMemory::InstallPage(PageNum page, const Bytes& content) {
  AURAGEN_CHECK(page < kAvmNumPages);
  AURAGEN_CHECK(content.size() == kAvmPageBytes) << "bad page size" << content.size();
  pages_[page] = content;
  dirty_gen_[page] = 0;
}

void GuestMemory::InstallPageDirty(PageNum page, const Bytes& content) {
  InstallPage(page, content);
  dirty_gen_[page] = write_gen_;
}

void GuestMemory::MaterializeZero(PageNum page, bool dirty) {
  AURAGEN_CHECK(page < kAvmNumPages);
  pages_[page].assign(kAvmPageBytes, 0);
  dirty_gen_[page] = dirty ? write_gen_ : 0;
}

Bytes GuestMemory::ExtractPage(PageNum page) const {
  AURAGEN_CHECK(page < kAvmNumPages);
  AURAGEN_CHECK(Resident(page)) << "extracting non-resident page" << page;
  return pages_[page];
}

std::vector<PageNum> GuestMemory::DirtyPages() const {
  std::vector<PageNum> out;
  for (PageNum p = 0; p < kAvmNumPages; ++p) {
    if (Dirty(p)) {
      out.push_back(p);
    }
  }
  return out;
}

void GuestMemory::ClearAllDirty() {
  // Commit the current generation as flushed and open a new one, so pages
  // written from here on read as dirty again.
  flushed_gen_ = write_gen_;
  ++write_gen_;
}

std::vector<std::pair<PageNum, Bytes>> GuestMemory::CaptureFlushPages(bool full) {
  std::vector<std::pair<PageNum, Bytes>> out;
  for (PageNum p = 0; p < kAvmNumPages; ++p) {
    if (!Resident(p)) {
      continue;
    }
    if (full || Dirty(p)) {
      out.emplace_back(p, pages_[p]);
    }
  }
  ClearAllDirty();
  return out;
}

void GuestMemory::EvictAll() {
  for (PageNum p = 0; p < kAvmNumPages; ++p) {
    pages_[p].clear();
    pages_[p].shrink_to_fit();
    dirty_gen_[p] = 0;
  }
}

uint32_t GuestMemory::resident_count() const {
  uint32_t n = 0;
  for (PageNum p = 0; p < kAvmNumPages; ++p) {
    n += Resident(p) ? 1u : 0u;
  }
  return n;
}

}  // namespace auragen
