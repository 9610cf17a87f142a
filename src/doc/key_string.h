#ifndef DCG_DOC_KEY_STRING_H_
#define DCG_DOC_KEY_STRING_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <string_view>

#include "doc/value.h"
#include "util/check.h"

namespace dcg::doc {

/// An order-preserving, self-delimiting byte encoding of a Value — the idea
/// behind MongoDB's KeyString. Byte-wise (memcmp) order equals
/// Value::Compare order, and two values encode to the same bytes exactly
/// when they compare equal: int64 3 and double 3.0 share one encoding.
///
/// Layout: one tag byte per value, ordered by the canonical type rank, then
///  * numbers: the tag also carries sign and magnitude class (NaN, huge,
///    integer part of 1-8 bytes, pure fraction, zero); the integer part is
///    stored big-endian and shifted left one bit, the low bit flagging a
///    7-byte binary fraction that follows; negatives store every byte after
///    the tag complemented;
///  * strings: the bytes with 0x00 -> 01 01 and 0x01 -> 01 02, then 0x00;
///  * timestamps: 8 big-endian bytes, sign bit flipped;
///  * arrays: the element encodings, then an end byte lower than any tag;
///  * objects: per field a marker byte, the escaped name and the value's
///    encoding, then the end byte.
/// No encoding is a proper byte prefix of another, so an Array's encoding
/// without its end byte is a byte prefix of exactly the arrays that extend
/// it (see KeyStringBuilder::OpenArray).
///
/// A KeyString stores an encoding in 16 bytes: up to kInlineCapacity bytes
/// inline, zero-padded, with the length in the last byte; longer encodings
/// live on the heap. Every int64 key and every short composite key of
/// small integers fits inline.
///
/// Keys are encoded once, where they are built: KeyStringBuilder spells a
/// composite key straight from its components, and the store, the oplog and
/// the undo log pass the encoding on. A Value converts implicitly (one
/// encode), so code that holds a key as a Value passes it unchanged.
class KeyString {
 public:
  static constexpr size_t kInlineCapacity = 15;

  /// The empty encoding (sorts before every value's encoding).
  KeyString() { std::memset(rep_, 0, sizeof(rep_)); }
  explicit KeyString(std::string_view bytes);
  /// Encodes `v` (as Encode does): a Value converts wherever a key is
  /// expected.
  KeyString(const Value& v);  // NOLINT(google-explicit-constructor)
  KeyString(const KeyString& other) {
    if (other.is_inline()) {
      std::memcpy(rep_, other.rep_, sizeof(rep_));
    } else {
      InitHeap(other.view());
    }
  }
  KeyString(KeyString&& other) noexcept {
    std::memcpy(rep_, other.rep_, sizeof(rep_));
    std::memset(other.rep_, 0, sizeof(other.rep_));
  }
  // Both assignments are inline: B+-tree nodes shift keys with them on
  // every insert, erase and borrow.
  KeyString& operator=(const KeyString& other) {
    if (this != &other) *this = KeyString(other);
    return *this;
  }
  KeyString& operator=(KeyString&& other) noexcept {
    if (this != &other) {
      if (!is_inline()) delete[] heap_data();
      std::memcpy(rep_, other.rep_, sizeof(rep_));
      std::memset(other.rep_, 0, sizeof(other.rep_));
    }
    return *this;
  }
  ~KeyString() {
    if (!is_inline()) delete[] heap_data();
  }

  /// Encodes `v`.
  static KeyString Encode(const Value& v);

  std::string_view view() const {
    return is_inline()
               ? std::string_view(reinterpret_cast<const char*>(rep_),
                                  rep_[kTagByte])
               : std::string_view(heap_data(), heap_size());
  }
  size_t size() const { return is_inline() ? rep_[kTagByte] : heap_size(); }
  bool is_inline() const { return rep_[kTagByte] != kOnHeap; }

  /// The first 8 bytes of the encoding, zero-padded, read big-endian. If
  /// head(a) < head(b) then a < b; equal heads decide nothing. No encoding
  /// starts with 0xff, so every head is below ~0 (B+-tree nodes fill their
  /// unused head slots with ~0).
  uint64_t head() const {
    if (is_inline()) return Word(*this, 0);
    // A heap encoding is longer than kInlineCapacity, so 8 bytes exist.
    return BigEndian(heap_data());
  }

  /// Three-way byte-wise comparison (<0, 0, >0). Two inline encodings
  /// compare as two big-endian words: the zero padding and the trailing
  /// length byte make that exact, including when one is a prefix of the
  /// other.
  static int Compare(const KeyString& a, const KeyString& b) {
    if (a.is_inline() && b.is_inline()) {
      const uint64_t a0 = Word(a, 0), b0 = Word(b, 0);
      if (a0 != b0) return a0 < b0 ? -1 : 1;
      const uint64_t a1 = Word(a, 8), b1 = Word(b, 8);
      return a1 < b1 ? -1 : (a1 > b1 ? 1 : 0);
    }
    return CompareBytes(a.view(), b.view());
  }

  /// Three-way byte-wise comparison of two encodings.
  static int CompareBytes(std::string_view a, std::string_view b) {
    const int c = a.compare(b);
    return c < 0 ? -1 : (c > 0 ? 1 : 0);
  }

  /// Compares `prefix` with the first prefix.size() bytes of `key`: 0 when
  /// `key` starts with `prefix`, otherwise the sign of their first
  /// difference (a key shorter than the prefix that matches it throughout
  /// sorts first).
  static int ComparePrefix(std::string_view prefix, std::string_view key) {
    return CompareBytes(prefix, key.substr(0, prefix.size()));
  }

  friend bool operator==(const KeyString& a, const KeyString& b) {
    return Compare(a, b) == 0;
  }
  friend bool operator<(const KeyString& a, const KeyString& b) {
    return Compare(a, b) < 0;
  }

 private:
  static constexpr size_t kTagByte = 15;
  static constexpr uint8_t kOnHeap = 0xff;

  // Copies `bytes` (longer than kInlineCapacity) into an owned buffer.
  void InitHeap(std::string_view bytes);

  static uint64_t BigEndian(const void* bytes) {
    uint64_t w;
    std::memcpy(&w, bytes, sizeof(w));
    if constexpr (std::endian::native == std::endian::little) {
      w = __builtin_bswap64(w);
    }
    return w;
  }
  static uint64_t Word(const KeyString& k, size_t offset) {
    return BigEndian(k.rep_ + offset);
  }
  const char* heap_data() const {
    const char* p;
    std::memcpy(&p, rep_, sizeof(p));
    return p;
  }
  size_t heap_size() const {
    uint32_t n;
    std::memcpy(&n, rep_ + sizeof(char*), sizeof(n));
    return n;
  }

  // Inline: bytes [0, size) hold the encoding, bytes [size, 15) are zero,
  // byte 15 is the size. On the heap: byte 15 is kOnHeap, bytes 0-7 hold
  // the owned buffer and bytes 8-11 its size.
  alignas(8) uint8_t rep_[16];
};

/// Builds an encoding piece by piece: values, integers, and the brackets of
/// arrays, in a stack buffer that only encodings longer than
/// kStackCapacity leave for the heap. Each scalar, string and bracket makes
/// room for its largest encoding once, then writes its bytes unchecked.
///
/// OpenArray() followed by the encodings of e0..en-1 spells [e0, ..., en-1]
/// without its end byte: a byte prefix of the encoding of every Array whose
/// first n elements equal e0..en-1, and of no other value. Every such
/// encoding sorts at or after the prefix, so index probes seek to it and
/// scan while the prefix matches; Truncate() returns to a prefix so a run
/// of keys that share one (Stock Level's [w, i] probes) encodes it once.
class KeyStringBuilder {
 public:
  static constexpr size_t kStackCapacity = 64;

  KeyStringBuilder() = default;
  KeyStringBuilder(const KeyStringBuilder&) = delete;
  KeyStringBuilder& operator=(const KeyStringBuilder&) = delete;

  /// Appends the encoding of `v`.
  KeyStringBuilder& Append(const Value& v);
  /// Appends the encoding of Value(i), without building the Value.
  KeyStringBuilder& AppendInt(int64_t i);
  /// Appends the tag that opens an Array.
  KeyStringBuilder& OpenArray();
  /// Appends the end byte that closes an Array.
  KeyStringBuilder& CloseArray();

  /// Drops every byte past the first `size` (at most size()).
  void Truncate(size_t size) {
    DCG_CHECK(size <= size_);
    size_ = size;
  }
  size_t size() const { return size_; }
  std::string_view view() const {
    return std::string_view(bytes_.data(), size_);
  }
  /// The bytes written so far, as a KeyString.
  KeyString key() const { return KeyString(view()); }

 private:
  struct Writer;  // the encoders' output: writes into bytes_ (key_string.cc)

  // Makes room for `n` more bytes.
  void Reserve(size_t n) {
    if (n > bytes_.size() - size_) Grow(n);
  }
  void Grow(size_t n);

  char stack_[kStackCapacity];
  std::span<char> bytes_{stack_};  // stack_, or heap_ once it outgrew it
  size_t size_ = 0;
  std::unique_ptr<char[]> heap_;
};

/// Appends the encoding of `v` to `out`: the same bytes as
/// KeyStringBuilder::Append.
void AppendKeyString(const Value& v, std::string* out);

}  // namespace dcg::doc

#endif  // DCG_DOC_KEY_STRING_H_
