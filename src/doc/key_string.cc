#include "doc/key_string.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/check.h"

namespace dcg::doc {
namespace {

// Tag bytes, in canonical type order. kEnd closes arrays and objects and
// sorts below every tag, so a shorter array sorts before its extensions.
constexpr uint8_t kEnd = 0x04;
constexpr uint8_t kField = 0x08;
constexpr uint8_t kNull = 0x10;
constexpr uint8_t kFalse = 0x14;
constexpr uint8_t kTrue = 0x15;
// Numbers, ascending: NaN < -huge (|x| >= 2^63, -inf) < negative integer
// parts of 8..1 bytes < (-1, 0) < zero < (0, 1) < positive integer parts of
// 1..8 bytes < huge (x >= 2^63, +inf).
constexpr uint8_t kNaN = 0x20;
constexpr uint8_t kNegHuge = 0x21;
constexpr uint8_t kNegFraction = 0x2a;  // negative integer part of L bytes:
                                        // kNegFraction - L
constexpr uint8_t kZero = 0x2b;
constexpr uint8_t kPosFraction = 0x2c;  // positive integer part of L bytes:
                                        // kPosFraction + L
constexpr uint8_t kPosHuge = 0x35;
constexpr uint8_t kString = 0x3c;
constexpr uint8_t kTimestamp = 0x44;
constexpr uint8_t kArray = 0x50;
constexpr uint8_t kObject = 0x60;

constexpr double kTwoTo63 = 9223372036854775808.0;  // 2^63
constexpr uint64_t kSignBit = uint64_t{1} << 63;
constexpr int kFractionBytes = 7;  // x >= 1 has at most 52 fraction bits

// The most bytes one number or timestamp encodes to: a tag, an integer
// part of up to 8 bytes and a 7-byte fraction.
constexpr size_t kMaxScalarBytes = 16;

// Appends to a std::string, which makes its own room.
struct StringWriter {
  std::string* out;
  void Reserve(size_t /*n*/) {}
  void push_back(char c) { out->push_back(c); }
};

// The encoders below write to `Out`: StringWriter or
// KeyStringBuilder::Writer. Each value's encoding first reserves its
// largest size (Out::Reserve), so the bytes themselves go out unchecked.
template <typename Out>
void PutByte(uint8_t b, Out* out) {
  out->push_back(static_cast<char>(b));
}

// Writes the low `bytes` bytes of `v` big-endian, complemented for
// negatives so that larger magnitudes sort first.
template <typename Out>
void PutBigEndian(uint64_t v, int bytes, bool complement, Out* out) {
  if (complement) v = ~v;
  for (int i = bytes - 1; i >= 0; --i) {
    PutByte(static_cast<uint8_t>(v >> (8 * i)), out);
  }
}

uint64_t DoubleBits(double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

// |x| >= 2^63 or x in (-1, 1): the bits of |x|, which order like |x|.
template <typename Out>
void PutByBits(uint8_t pos_tag, uint8_t neg_tag, bool negative,
               double magnitude, Out* out) {
  PutByte(negative ? neg_tag : pos_tag, out);
  PutBigEndian(DoubleBits(magnitude), 8, negative, out);
}

// `word` is the integer part shifted left one bit, the low bit set when a
// fraction follows. 2 <= word < 2^64.
template <typename Out>
void PutIntegerPart(bool negative, uint64_t word, Out* out) {
  const int bytes = (std::bit_width(word) + 7) / 8;
  PutByte(static_cast<uint8_t>(negative ? kNegFraction - bytes
                                        : kPosFraction + bytes),
          out);
  PutBigEndian(word, bytes, negative, out);
}

template <typename Out>
void PutInt64(int64_t i, Out* out) {
  if (i == 0) {
    PutByte(kZero, out);
  } else if (i == INT64_MIN) {
    PutByBits(kPosHuge, kNegHuge, /*negative=*/true, kTwoTo63, out);
  } else {
    const bool negative = i < 0;
    const uint64_t magnitude = negative ? 0 - static_cast<uint64_t>(i)
                                        : static_cast<uint64_t>(i);
    PutIntegerPart(negative, magnitude << 1, out);
  }
}

template <typename Out>
void PutDouble(double d, Out* out) {
  if (std::isnan(d)) {
    PutByte(kNaN, out);
    return;
  }
  if (d == 0) {  // +0.0 and -0.0 alike
    PutByte(kZero, out);
    return;
  }
  const bool negative = d < 0;
  const double magnitude = std::fabs(d);
  if (magnitude >= kTwoTo63) {
    PutByBits(kPosHuge, kNegHuge, negative, magnitude, out);
    return;
  }
  if (magnitude < 1) {
    PutByBits(kPosFraction, kNegFraction, negative, magnitude, out);
    return;
  }
  // Integer-valued doubles in range take the int64 encoding exactly.
  const double integer = std::floor(magnitude);
  const double fraction = magnitude - integer;  // exact
  const bool has_fraction = fraction != 0;
  PutIntegerPart(negative,
                 (static_cast<uint64_t>(integer) << 1) | (has_fraction ? 1 : 0),
                 out);
  if (has_fraction) {
    const double scaled = std::ldexp(fraction, 8 * kFractionBytes);
    PutBigEndian(static_cast<uint64_t>(scaled), kFractionBytes, negative, out);
  }
}

// Escapes 0x00 and 0x01 so the 0x00 terminator sorts below every content
// byte: a string sorts before its extensions.
template <typename Out>
void PutEscaped(std::string_view s, Out* out) {
  for (const char c : s) {
    const auto b = static_cast<uint8_t>(c);
    if (b <= 1) {
      PutByte(1, out);
      PutByte(static_cast<uint8_t>(b + 1), out);
    } else {
      out->push_back(c);
    }
  }
  PutByte(0, out);
}

// Room for a string's tag or a field's marker, its escaped bytes (at most
// two per byte) and its terminator.
size_t MaxStringBytes(std::string_view s) { return 2 + 2 * s.size(); }

template <typename Out>
void PutValue(const Value& v, Out* out) {
  switch (v.type()) {
    case Value::Type::kNull:
      out->Reserve(1);
      PutByte(kNull, out);
      return;
    case Value::Type::kBool:
      out->Reserve(1);
      PutByte(v.as_bool() ? kTrue : kFalse, out);
      return;
    case Value::Type::kInt64:
      out->Reserve(kMaxScalarBytes);
      PutInt64(v.as_int64(), out);
      return;
    case Value::Type::kDouble:
      out->Reserve(kMaxScalarBytes);
      PutDouble(v.as_double(), out);
      return;
    case Value::Type::kString:
      out->Reserve(MaxStringBytes(v.as_string()));
      PutByte(kString, out);
      PutEscaped(v.as_string(), out);
      return;
    case Value::Type::kTimestamp:
      out->Reserve(kMaxScalarBytes);
      PutByte(kTimestamp, out);  // sign bit flipped: two's complement order
      PutBigEndian(static_cast<uint64_t>(v.as_timestamp()) ^ kSignBit, 8,
                   /*complement=*/false, out);
      return;
    case Value::Type::kArray:
      out->Reserve(1);
      PutByte(kArray, out);
      for (const Value& item : v.as_array()) PutValue(item, out);
      out->Reserve(1);
      PutByte(kEnd, out);
      return;
    case Value::Type::kObject: {
      const Object& o = v.as_object();
      out->Reserve(1);
      PutByte(kObject, out);
      for (size_t i = 0; i < o.size(); ++i) {
        out->Reserve(MaxStringBytes(o.name(i)));
        PutByte(kField, out);
        PutEscaped(o.name(i), out);
        PutValue(o.value(i), out);
      }
      out->Reserve(1);
      PutByte(kEnd, out);
      return;
    }
  }
}

}  // namespace

KeyString::KeyString(std::string_view bytes) {
  if (bytes.size() > kInlineCapacity) {
    InitHeap(bytes);
    return;
  }
  std::memset(rep_, 0, sizeof(rep_));
  std::memcpy(rep_, bytes.data(), bytes.size());
  rep_[kTagByte] = static_cast<uint8_t>(bytes.size());
}

void KeyString::InitHeap(std::string_view bytes) {
  DCG_CHECK(bytes.size() <= UINT32_MAX);
  std::memset(rep_, 0, sizeof(rep_));
  char* data = new char[bytes.size()];
  std::memcpy(data, bytes.data(), bytes.size());
  const auto size = static_cast<uint32_t>(bytes.size());
  std::memcpy(rep_, &data, sizeof(data));
  std::memcpy(rep_ + sizeof(data), &size, sizeof(size));
  rep_[kTagByte] = kOnHeap;
}

KeyString::KeyString(const Value& v) : KeyString(Encode(v)) {}

KeyString KeyString::Encode(const Value& v) {
  KeyStringBuilder builder;
  builder.Append(v);
  return builder.key();
}

struct KeyStringBuilder::Writer {
  KeyStringBuilder* builder;
  void Reserve(size_t n) { builder->Reserve(n); }
  void push_back(char c) { builder->bytes_[builder->size_++] = c; }
};

KeyStringBuilder& KeyStringBuilder::Append(const Value& v) {
  Writer out{this};
  PutValue(v, &out);
  return *this;
}

KeyStringBuilder& KeyStringBuilder::AppendInt(int64_t i) {
  Writer out{this};
  out.Reserve(kMaxScalarBytes);
  PutInt64(i, &out);
  return *this;
}

KeyStringBuilder& KeyStringBuilder::OpenArray() {
  Writer out{this};
  out.Reserve(1);
  PutByte(kArray, &out);
  return *this;
}

KeyStringBuilder& KeyStringBuilder::CloseArray() {
  Writer out{this};
  out.Reserve(1);
  PutByte(kEnd, &out);
  return *this;
}

void KeyStringBuilder::Grow(size_t n) {
  const size_t capacity = std::max(2 * bytes_.size(), size_ + n);
  std::unique_ptr<char[]> grown(new char[capacity]);
  std::memcpy(grown.get(), bytes_.data(), size_);
  heap_ = std::move(grown);
  bytes_ = std::span<char>(heap_.get(), capacity);
}

void AppendKeyString(const Value& v, std::string* out) {
  StringWriter writer{out};
  PutValue(v, &writer);
}

}  // namespace dcg::doc
