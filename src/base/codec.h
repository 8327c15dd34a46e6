// Byte-level message encoding.
//
// Everything that crosses the intercluster bus — user payloads, sync
// messages, open replies, birth notices, server state — is serialized into a
// flat byte vector with these little-endian writer/reader helpers. Keeping
// messages as plain bytes (instead of passing C++ objects by pointer between
// "clusters") is what keeps the simulation honest: a backup can only use
// information that was actually transmitted.
//
// Ownership model (DESIGN.md §13): encoded buffers are produced once at the
// sender, wrapped in a shared immutable PayloadPtr by the bus, and *viewed*
// (ByteView) everywhere else. Copying bytes is legal only at the point a
// queue takes ownership of a message.

#ifndef AURAGEN_SRC_BASE_CODEC_H_
#define AURAGEN_SRC_BASE_CODEC_H_

#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/base/check.h"

namespace auragen {

using Bytes = std::vector<uint8_t>;

// Non-owning view over a byte range (span-style). Implicitly constructible
// from Bytes so decode helpers accept either; the caller guarantees the
// underlying buffer outlives the view (frame payloads are kept alive by the
// PayloadPtr travelling alongside the view).
class ByteView {
 public:
  constexpr ByteView() = default;
  constexpr ByteView(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  ByteView(const Bytes& b) : data_(b.data()), size_(b.size()) {}  // NOLINT

  const uint8_t* data() const { return data_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  uint8_t operator[](size_t i) const { return data_[i]; }
  const uint8_t* begin() const { return data_; }
  const uint8_t* end() const { return data_ + size_; }

  ByteView subview(size_t off, size_t len) const {
    AURAGEN_CHECK(off + len <= size_) << "subview out of range";
    return ByteView(data_ + off, len);
  }

  // The one explicit copy point: materializes an owned buffer.
  Bytes ToBytes() const { return Bytes(data_, data_ + size_); }

 private:
  const uint8_t* data_ = nullptr;
  size_t size_ = 0;
};

inline bool operator==(ByteView a, ByteView b) {
  return a.size() == b.size() &&
         (a.size() == 0 || std::memcmp(a.data(), b.data(), a.size()) == 0);
}

// Small free-list of byte buffers for the sim hot loop. Encoded payloads are
// allocated, shipped across the bus, and dropped again thousands of times a
// simulated second; recycling the vectors (capacity retained) keeps that
// churn off the allocator. Correctness never depends on the pool — it only
// changes where a buffer's storage comes from, never its contents.
//
// The simulation is single-threaded; the pool is thread-local so parallel
// test shards can never race on it.
class BufferPool {
 public:
  static BufferPool& Get();

  // Returns an empty buffer, reusing a pooled one's capacity if available.
  Bytes Acquire();
  // Donates a buffer's storage back to the pool (contents discarded).
  void Release(Bytes&& buf);

  uint64_t reuses() const { return reuses_; }
  uint64_t releases() const { return releases_; }

 private:
  // Bounded so a burst of giant BackupCreate bodies cannot pin memory.
  static constexpr size_t kMaxFree = 64;
  static constexpr size_t kMaxPooledCapacity = 256 * 1024;

  std::vector<Bytes> free_;
  uint64_t reuses_ = 0;
  uint64_t releases_ = 0;
};

// Shared immutable frame payload: one encode, one buffer, any number of
// readers (bus queue, per-destination deliveries, deferred executive work).
using PayloadPtr = std::shared_ptr<const Bytes>;

// Wraps an encoded buffer for zero-copy fan-out. When the last reference
// drops, the buffer's storage returns to the BufferPool.
PayloadPtr MakePayload(Bytes&& bytes);

// Appends fixed-width little-endian fields and length-prefixed blobs. The
// default-constructed writer draws its buffer from the BufferPool, closing
// the encode -> transmit -> release -> encode recycling loop.
class ByteWriter {
 public:
  ByteWriter() : buf_(BufferPool::Get().Acquire()) {}
  explicit ByteWriter(Bytes initial) : buf_(std::move(initial)) {}

  void U8(uint8_t v) { buf_.push_back(v); }
  void U16(uint16_t v) { AppendLe(v); }
  void U32(uint32_t v) { AppendLe(v); }
  void U64(uint64_t v) { AppendLe(v); }
  void I64(int64_t v) { AppendLe(static_cast<uint64_t>(v)); }
  void I32(int32_t v) { AppendLe(static_cast<uint32_t>(v)); }
  // Any integer at its declared width.
  template <typename T>
  void Int(T v) {
    AppendLe(static_cast<std::make_unsigned_t<T>>(v));
  }

  // Length-prefixed (u32) byte blob.
  void Blob(const uint8_t* data, size_t size) {
    U32(static_cast<uint32_t>(size));
    buf_.insert(buf_.end(), data, data + size);
  }
  void Blob(ByteView b) { Blob(b.data(), b.size()); }
  void Str(std::string_view s) { Blob(reinterpret_cast<const uint8_t*>(s.data()), s.size()); }

  const Bytes& bytes() const { return buf_; }
  Bytes Take() { return std::move(buf_); }
  size_t size() const { return buf_.size(); }

 private:
  template <typename T>
  void AppendLe(T v) {
    for (size_t i = 0; i < sizeof(T); ++i) {
      buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
  }

  Bytes buf_;
};

// Reads fields written by ByteWriter. Out-of-bounds reads are checked: a
// malformed message indicates an implementation bug (the simulated bus never
// corrupts payloads unless fault injection asks it to, and fault-injected
// corruption is detected by checksum before decoding).
class ByteReader {
 public:
  explicit ByteReader(ByteView buf) : data_(buf.data()), size_(buf.size()) {}
  ByteReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  uint8_t U8() { return data_[Advance(1)]; }
  uint16_t U16() { return ReadLe<uint16_t>(); }
  uint32_t U32() { return ReadLe<uint32_t>(); }
  uint64_t U64() { return ReadLe<uint64_t>(); }
  int32_t I32() { return static_cast<int32_t>(ReadLe<uint32_t>()); }
  int64_t I64() { return static_cast<int64_t>(ReadLe<uint64_t>()); }
  template <typename T>
  T Int() {
    return static_cast<T>(ReadLe<std::make_unsigned_t<T>>());
  }

  Bytes Blob() {
    uint32_t n = U32();
    size_t at = Advance(n);
    return Bytes(data_ + at, data_ + at + n);
  }
  // Zero-copy variant: the returned view aliases the reader's buffer.
  ByteView BlobView() {
    uint32_t n = U32();
    size_t at = Advance(n);
    return ByteView(data_ + at, n);
  }
  std::string Str() {
    uint32_t n = U32();
    size_t at = Advance(n);
    return std::string(reinterpret_cast<const char*>(data_ + at), n);
  }

  size_t remaining() const { return size_ - pos_; }
  bool done() const { return pos_ == size_; }
  size_t pos() const { return pos_; }

 private:
  template <typename T>
  T ReadLe() {
    size_t at = Advance(sizeof(T));
    T v = 0;
    for (size_t i = 0; i < sizeof(T); ++i) {
      v = static_cast<T>(v | (static_cast<T>(data_[at + i]) << (8 * i)));
    }
    return v;
  }

  size_t Advance(size_t n) {
    AURAGEN_CHECK(pos_ + n <= size_) << "short message: need" << n << "have" << (size_ - pos_);
    size_t at = pos_;
    pos_ += n;
    return at;
  }

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

// --- Declared-once layouts (DESIGN.md §13) ---
//
// A struct that crosses the bus lists its fields once, in wire order:
//
//   template <class F> void Fields(F& f) { f(pid, page, content); }
//
// FieldWriter and FieldReader derive the writer and the reader from that
// one list, so the two cannot disagree. The width rules:
//   * integers keep their declared width, little-endian;
//   * bool takes one byte, an enum its underlying type's width;
//   * {uint64_t value} ids (Gpid, ChannelId) take eight bytes;
//   * Bytes and std::string are u32-length-prefixed blobs;
//   * std::vector and std::map are a u32 count followed by the elements, a
//     map element being its key then its value; std::pair is first then
//     second; a fixed array is its elements with no count;
//   * AsBlob{x} is a blob holding x's own encoding;
//   * any other struct is written through its own Fields list.

template <typename T>
struct AsBlob {
  T& value;
};
template <typename T>
AsBlob(T&) -> AsBlob<T>;

namespace internal {

template <typename T>
concept U64Id = std::is_class_v<T> && sizeof(T) == sizeof(uint64_t) &&
                requires(T v) { requires std::is_same_v<decltype(v.value), uint64_t>; };

template <typename T>
inline constexpr bool kIsPair = false;
template <typename A, typename B>
inline constexpr bool kIsPair<std::pair<A, B>> = true;

template <typename T>
inline constexpr bool kIsVector = false;
template <typename E, typename A>
inline constexpr bool kIsVector<std::vector<E, A>> = true;

template <typename T>
inline constexpr bool kIsMap = false;
template <typename K, typename V, typename C, typename A>
inline constexpr bool kIsMap<std::map<K, V, C, A>> = true;

template <typename T>
inline constexpr bool kIsAsBlob = false;
template <typename T>
inline constexpr bool kIsAsBlob<AsBlob<T>> = true;

}  // namespace internal

class FieldWriter {
 public:
  explicit FieldWriter(ByteWriter& w) : w_(w) {}

  template <typename... T>
  void operator()(const T&... v) {
    (Put(v), ...);
  }

 private:
  template <typename T>
  void Put(const T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      w_.U8(v ? 1 : 0);
    } else if constexpr (std::is_enum_v<T>) {
      w_.Int(static_cast<std::underlying_type_t<T>>(v));
    } else if constexpr (std::is_integral_v<T>) {
      w_.Int(v);
    } else if constexpr (internal::U64Id<T>) {
      w_.U64(v.value);
    } else if constexpr (std::is_same_v<T, Bytes>) {
      w_.Blob(v);
    } else if constexpr (std::is_same_v<T, std::string>) {
      w_.Str(v);
    } else if constexpr (internal::kIsAsBlob<T>) {
      ByteWriter nested;
      FieldWriter inner(nested);
      inner(v.value);
      w_.Blob(nested.bytes());
    } else if constexpr (std::is_array_v<T>) {
      for (const auto& e : v) {
        Put(e);
      }
    } else if constexpr (internal::kIsPair<T>) {
      Put(v.first);
      Put(v.second);
    } else if constexpr (internal::kIsVector<T> || internal::kIsMap<T>) {
      w_.U32(static_cast<uint32_t>(v.size()));
      for (const auto& e : v) {
        Put(e);
      }
    } else {
      // Fields is one non-const list shared with the reader; the writer
      // only reads through it.
      const_cast<T&>(v).Fields(*this);
    }
  }

  ByteWriter& w_;
};

class FieldReader {
 public:
  explicit FieldReader(ByteReader& r) : r_(r) {}

  // Forwarding references so that AsBlob wrappers can be passed in place;
  // anything else must be an lvalue to read into.
  template <typename... T>
  void operator()(T&&... v) {
    static_assert(((std::is_lvalue_reference_v<T> ||
                    internal::kIsAsBlob<std::remove_cvref_t<T>>) && ...),
                  "FieldReader reads into lvalues");
    (Get(v), ...);
  }

 private:
  template <typename T>
  void Get(T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      v = r_.U8() != 0;
    } else if constexpr (std::is_enum_v<T>) {
      v = static_cast<T>(r_.Int<std::underlying_type_t<T>>());
    } else if constexpr (std::is_integral_v<T>) {
      v = r_.Int<T>();
    } else if constexpr (internal::U64Id<T>) {
      v.value = r_.U64();
    } else if constexpr (std::is_same_v<T, Bytes>) {
      v = r_.Blob();
    } else if constexpr (std::is_same_v<T, std::string>) {
      v = r_.Str();
    } else if constexpr (internal::kIsAsBlob<T>) {
      ByteReader nested(r_.BlobView());
      FieldReader inner(nested);
      inner(v.value);
    } else if constexpr (std::is_array_v<T>) {
      for (auto& e : v) {
        Get(e);
      }
    } else if constexpr (internal::kIsPair<T>) {
      Get(v.first);
      Get(v.second);
    } else if constexpr (internal::kIsVector<T>) {
      v.resize(r_.U32());
      for (auto& e : v) {
        Get(e);
      }
    } else if constexpr (internal::kIsMap<T>) {
      v.clear();
      for (uint32_t n = r_.U32(); n > 0; --n) {
        std::pair<typename T::key_type, typename T::mapped_type> e;
        Get(e);
        v.insert_or_assign(v.end(), std::move(e.first), std::move(e.second));
      }
    } else {
      v.Fields(*this);
    }
  }

  ByteReader& r_;
};

// Appends `v...` to `w`, back to back.
template <typename... T>
void EncodeTo(ByteWriter& w, const T&... v) {
  FieldWriter f(w);
  f(v...);
}

// Encodes `v...` back to back into one buffer drawn from the BufferPool.
template <typename... T>
Bytes Encode(const T&... v) {
  ByteWriter w;
  EncodeTo(w, v...);
  return w.Take();
}

// Reads `v...` from `r`'s position onwards, in order.
template <typename... T>
void DecodeInto(ByteReader& r, T&&... v) {
  FieldReader f(r);
  f(v...);
}

template <typename T>
T Decode(ByteReader& r) {
  T v;
  DecodeInto(r, v);
  return v;
}

// Decodes a T from the front of `bytes`.
template <typename T>
T Decode(ByteView bytes) {
  ByteReader r(bytes);
  return Decode<T>(r);
}

// FNV-1a over a byte range; used by the bus model's corruption detection and
// by tests comparing state snapshots.
uint64_t Fnv1a(const uint8_t* data, size_t size);
inline uint64_t Fnv1a(ByteView b) { return Fnv1a(b.data(), b.size()); }

// Renders bytes as hex for diagnostics (truncated past `max_bytes`).
std::string HexDump(const Bytes& b, size_t max_bytes = 32);

}  // namespace auragen

#endif  // AURAGEN_SRC_BASE_CODEC_H_
