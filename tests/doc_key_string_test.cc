// Property tests for doc::KeyString: byte order equals Value::Compare order
// over a seeded corpus of every value type, an array's encoding without
// its end byte is a byte prefix of exactly the arrays that extend it, and
// KeyStringBuilder writes the bytes AppendKeyString does.

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "doc/key_string.h"
#include "doc/value.h"
#include "sim/random.h"

namespace dcg::doc {
namespace {

int Sign(int c) { return c < 0 ? -1 : (c > 0 ? 1 : 0); }

std::string Bytes(const Value& v) {
  std::string out;
  AppendKeyString(v, &out);
  return out;
}

// Numbers where exact int/double comparison, signed zeros, infinities and
// NaN matter.
std::vector<Value> EdgeNumbers() {
  constexpr int64_t kTwo53 = int64_t{1} << 53;
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<Value> out = {
      Value(int64_t{0}), Value(0.0), Value(-0.0), Value(inf), Value(-inf),
      Value(nan), Value(-nan), Value(kMin), Value(kMax), Value(kMin + 1),
      Value(kMax - 1), Value(9223372036854775808.0),
      Value(-9223372036854775808.0), Value(1.8446744073709552e19),
      Value(std::numeric_limits<double>::max()),
      Value(std::numeric_limits<double>::lowest()),
      Value(std::numeric_limits<double>::min()),
      Value(std::numeric_limits<double>::denorm_min()),
      Value(-std::numeric_limits<double>::denorm_min()), Value(0.5),
      Value(-0.5), Value(0.9999999999999999), Value(-0.9999999999999999),
      Value(1.0000000000000002), Value(-1.0000000000000002)};
  for (const int64_t base : {kTwo53, -kTwo53, int64_t{1}, int64_t{-1},
                             int64_t{255}, int64_t{256}, int64_t{-256},
                             int64_t{1} << 32, int64_t{1} << 62}) {
    for (const int64_t delta : {int64_t{-1}, int64_t{0}, int64_t{1}}) {
      out.emplace_back(base + delta);
      out.emplace_back(static_cast<double>(base + delta));
    }
    out.emplace_back(static_cast<double>(base) + 0.5);
    out.emplace_back(static_cast<double>(base) - 0.25);
  }
  return out;
}

// Strings over an alphabet that stresses the escaping: NUL, 0x01, the
// lowest unescaped byte, letters and 0xff.
std::string RandomString(sim::Rng* rng) {
  static constexpr char kAlphabet[] = {'\0', '\1', '\2', 'a', 'b', '\xff'};
  std::string s;
  const int64_t len = rng->UniformInt(0, 4);
  for (int64_t i = 0; i < len; ++i) {
    s.push_back(kAlphabet[rng->UniformInt(0, sizeof(kAlphabet) - 1)]);
  }
  return s;
}

Value RandomNumber(sim::Rng* rng) {
  static const std::vector<Value> kEdges = EdgeNumbers();
  switch (rng->UniformInt(0, 3)) {
    case 0:
      return kEdges[rng->UniformInt(0, kEdges.size() - 1)];
    case 1:
      return Value(rng->UniformInt(-300, 300));
    case 2:  // small halves and their integer ties
      return Value(static_cast<double>(rng->UniformInt(-600, 600)) / 2);
    default:
      return Value(static_cast<int64_t>(rng->NextU64()));
  }
}

Value RandomValue(sim::Rng* rng, int depth) {
  const int64_t max_type = depth >= 3 ? 5 : 7;
  switch (rng->UniformInt(0, max_type)) {
    case 0:
      return Value();
    case 1:
      return Value(rng->Bernoulli(0.5));
    case 2:
    case 3:
      return RandomNumber(rng);
    case 4:
      return Value(RandomString(rng));
    case 5: {
      const int64_t ticks = rng->UniformInt(-3, 3);
      return Value::Timestamp(rng->Bernoulli(0.5) ? ticks : ticks << 60);
    }
    case 6: {
      Array a;
      const int64_t n = rng->UniformInt(0, 3);
      for (int64_t i = 0; i < n; ++i) a.push_back(RandomValue(rng, depth + 1));
      return Value(std::move(a));
    }
    default: {
      // Names may repeat; an Object keeps both fields, as BSON does.
      std::vector<std::string> names;
      Array values;
      const int64_t n = rng->UniformInt(0, 2);
      for (int64_t i = 0; i < n; ++i) {
        names.push_back(RandomString(rng));
        values.push_back(RandomValue(rng, depth + 1));
      }
      return Value(Object(ShapeRef(std::move(names)), std::move(values)));
    }
  }
}

std::vector<Value> Corpus(uint64_t seed, int n) {
  sim::Rng rng(seed);
  std::vector<Value> corpus = EdgeNumbers();
  for (const char* s : {"", "a", "ab", "b"}) corpus.emplace_back(s);
  corpus.emplace_back(std::string("a\0", 2));
  corpus.emplace_back(std::string("a\0b", 3));
  corpus.emplace_back(std::string("a\1", 2));
  corpus.emplace_back(Value::List({}));
  corpus.emplace_back(Value::List({1}));
  corpus.emplace_back(Value::List({1.0, 2}));
  corpus.emplace_back(Value::List({1, Value()}));
  while (static_cast<int>(corpus.size()) < n) {
    corpus.push_back(RandomValue(&rng, 0));
  }
  return corpus;
}

TEST(KeyStringTest, ByteOrderEqualsValueOrder) {
  const std::vector<Value> corpus = Corpus(/*seed=*/11, 700);
  std::vector<std::string> encoded;
  encoded.reserve(corpus.size());
  for (const Value& v : corpus) encoded.push_back(Bytes(v));
  for (size_t i = 0; i < corpus.size(); ++i) {
    for (size_t j = 0; j < corpus.size(); ++j) {
      const int want = Sign(corpus[i].Compare(corpus[j]));
      ASSERT_EQ(KeyString::CompareBytes(encoded[i], encoded[j]), want)
          << corpus[i].ToJson() << " vs " << corpus[j].ToJson();
      ASSERT_EQ(encoded[i] == encoded[j], want == 0)
          << corpus[i].ToJson() << " vs " << corpus[j].ToJson();
    }
  }
}

TEST(KeyStringTest, WordCompareMatchesByteCompare) {
  const std::vector<Value> corpus = Corpus(/*seed=*/12, 400);
  std::vector<KeyString> keys;
  keys.reserve(corpus.size());
  for (const Value& v : corpus) keys.push_back(KeyString::Encode(v));
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(keys[i].view(), Bytes(corpus[i]));
    EXPECT_EQ(keys[i].is_inline(),
              keys[i].size() <= KeyString::kInlineCapacity);
    for (size_t j = 0; j < keys.size(); ++j) {
      ASSERT_EQ(KeyString::Compare(keys[i], keys[j]),
                KeyString::CompareBytes(keys[i].view(), keys[j].view()))
          << corpus[i].ToJson() << " vs " << corpus[j].ToJson();
    }
  }
}

TEST(KeyStringTest, IntAndDoubleTiesShareOneEncoding) {
  EXPECT_EQ(Bytes(Value(int64_t{3})), Bytes(Value(3.0)));
  EXPECT_EQ(Bytes(Value(int64_t{-3})), Bytes(Value(-3.0)));
  EXPECT_EQ(Bytes(Value(int64_t{0})), Bytes(Value(-0.0)));
  EXPECT_EQ(Bytes(Value(std::numeric_limits<int64_t>::min())),
            Bytes(Value(-9223372036854775808.0)));
  EXPECT_EQ(Bytes(Value::List({1, 2})), Bytes(Value::List({1.0, 2.0})));
  EXPECT_NE(Bytes(Value((int64_t{1} << 53) + 1)),
            Bytes(Value(9007199254740992.0)));
}

TEST(KeyStringTest, WorkloadKeysStayInline) {
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  for (const Value& key :
       {Value(kMax), Value(std::numeric_limits<int64_t>::min()),
        Value::List({10, 100000}), Value::List({10, 10, 3000}),
        Value::List({10, 10, 3000, 15})}) {
    EXPECT_TRUE(KeyString::Encode(key).is_inline()) << key.ToJson();
  }
  EXPECT_FALSE(KeyString::Encode(Value("a long string key")).is_inline());
}

TEST(KeyStringTest, CopyAndMoveKeepTheBytes) {
  for (const Value& v : {Value(int64_t{42}), Value("a long string key")}) {
    const KeyString original = KeyString::Encode(v);
    KeyString copy = original;
    EXPECT_EQ(copy, original);
    KeyString moved = std::move(copy);
    EXPECT_EQ(moved, original);
    KeyString assigned;
    assigned = moved;
    EXPECT_EQ(assigned, original);
    assigned = KeyString::Encode(Value(int64_t{7}));
    EXPECT_EQ(assigned, KeyString::Encode(Value(7.0)));
    EXPECT_LT(KeyString(), original);  // the empty encoding sorts first
  }
}

// A key's head, its first 8 bytes as a word, orders keys wherever it
// differs: head(a) < head(b) implies a < b, and a < b implies
// head(a) <= head(b). The seeded corpus gets keys that stress the head:
// heap-length encodings, embedded 0x00/0x01 bytes (escaped to two bytes)
// and keys that share their first 8 bytes.
TEST(KeyStringTest, HeadOrdersKeysWhereItDiffers) {
  std::vector<Value> corpus = Corpus(/*seed=*/15, 500);
  for (const std::string& s :
       {std::string("abcdefg"), std::string("abcdefgh"),
        std::string("abcdefgh\0", 9), std::string("abcdefgh\1", 9),
        std::string("abcdefghi"), std::string("abcdefghijklmnopq"),
        std::string("abcdefghijklmnopr"), std::string("abc\0\0\0\0\0\0", 9),
        std::string("abc\0\0\0\0\0\0\0zzzzzzzzz", 19),
        std::string("abc\1\0\1\0\1\0\1", 10), std::string("ab\0", 3)}) {
    corpus.emplace_back(s);
  }
  corpus.push_back(Value::List({1, 2, 3, 4, 5, 6, 7, 8}));
  corpus.push_back(Value::List({1, 2, 3, 4, 5, 6, 7, 9}));
  corpus.push_back(Value::List({1, 2, 3, 4}));
  corpus.push_back(Value::List({10, 10, 3000}));
  corpus.push_back(Value::List({10, 10, 3001}));
  corpus.push_back(Value::List({10, 10, 3000, 15}));

  std::vector<KeyString> keys;
  keys.reserve(corpus.size());
  for (const Value& v : corpus) keys.push_back(KeyString::Encode(v));
  size_t heap = 0, low_bytes = 0, shared_head = 0;
  for (size_t i = 0; i < keys.size(); ++i) {
    const uint64_t head = keys[i].head();
    EXPECT_NE(head, ~uint64_t{0}) << corpus[i].ToJson();
    heap += !keys[i].is_inline();
    low_bytes += keys[i].view().find_first_of(std::string_view("\0\1", 2)) !=
                 std::string_view::npos;
    for (size_t j = 0; j < keys.size(); ++j) {
      const int c = KeyString::Compare(keys[i], keys[j]);
      const uint64_t other = keys[j].head();
      shared_head += c != 0 && head == other;
      if (head < other) {
        ASSERT_LT(c, 0) << corpus[i].ToJson() << " vs " << corpus[j].ToJson();
      }
      if (c < 0) {
        ASSERT_LE(head, other)
            << corpus[i].ToJson() << " vs " << corpus[j].ToJson();
      }
    }
  }
  EXPECT_GT(heap, 10u);
  EXPECT_GT(low_bytes, 10u);
  EXPECT_GT(shared_head, 10u);
}

// An array's encoding without its end byte is a byte prefix of exactly the
// arrays whose leading elements equal the prefix components, and it sorts
// at or before each of them.
TEST(KeyStringTest, ArrayPrefixIsBytePrefix) {
  sim::Rng rng(13);
  const std::vector<Value> corpus = Corpus(/*seed=*/14, 300);
  std::vector<Value> arrays;
  for (int i = 0; i < 300; ++i) {
    Array a;
    const int64_t n = rng.UniformInt(0, 4);
    for (int64_t k = 0; k < n; ++k) {
      // Few distinct components, so prefixes are often shared.
      a.push_back(rng.Bernoulli(0.8) ? Value(rng.UniformInt(0, 2))
                                     : corpus[rng.UniformInt(0, 299)]);
    }
    arrays.emplace_back(std::move(a));
  }
  for (const Value& source : arrays) {
    const Array& components = source.as_array();
    for (size_t k = 0; k <= components.size(); ++k) {
      KeyStringBuilder builder;
      builder.OpenArray();
      for (size_t i = 0; i < k; ++i) builder.Append(components[i]);
      const std::string prefix(builder.view());
      for (const Value& other : arrays) {
        const Array& elems = other.as_array();
        bool extends = elems.size() >= k;
        for (size_t i = 0; extends && i < k; ++i) {
          extends = elems[i] == components[i];
        }
        const std::string bytes = Bytes(other);
        ASSERT_EQ(bytes.starts_with(prefix), extends)
            << source.ToJson() << " [:" << k << "] vs " << other.ToJson();
        if (extends) {
          EXPECT_EQ(KeyString::ComparePrefix(prefix, bytes), 0);
        } else {
          // Outside the prefix range, the prefix orders like the truncated
          // array does against the other array.
          Array truncated(components.begin(), components.begin() + k);
          Array head(elems.begin(),
                     elems.begin() + std::min(k, elems.size()));
          EXPECT_EQ(KeyString::ComparePrefix(prefix, bytes),
                    Sign(Value(truncated).Compare(Value(head))))
              << source.ToJson() << " [:" << k << "] vs " << other.ToJson();
        }
      }
      for (const Value& v : corpus) {  // no non-array starts with it
        if (!v.is_array()) {
          ASSERT_FALSE(Bytes(v).starts_with(prefix)) << v.ToJson();
        }
      }
    }
  }
}

// The builder writes AppendKeyString's bytes for every value: whole, element
// by element inside an array it opens and closes, and after truncating back
// to a prefix it reuses. The corpus holds the edge numbers (0, +-1,
// INT64_MIN and INT64_MAX, integral and fractional doubles, -0.0), strings
// with 0x00 and 0x01 bytes, and nested arrays and objects; encodings of 15
// and 16 bytes, on either side of KeyString's inline capacity, and ones past
// the builder's stack buffer are all drawn.
TEST(KeyStringBuilderTest, WritesTheBytesOfAppendKeyString) {
  sim::Rng rng(31);
  std::vector<Value> values = Corpus(/*seed=*/32, 2000);
  for (const size_t len : {13, 14, 40, 200}) {  // 15, 16, 42, 202 bytes
    values.emplace_back(std::string(len, 'k'));
  }
  values.emplace_back(std::string(40, '\0'));  // 82 bytes once escaped
  values.push_back(Value::List({int64_t{1} << 62, int64_t{1} << 62}));
  size_t at_capacity = 0, past_capacity = 0, past_stack = 0;
  for (const Value& v : values) {
    const std::string bytes = Bytes(v);
    at_capacity += bytes.size() == KeyString::kInlineCapacity;
    past_capacity += bytes.size() == KeyString::kInlineCapacity + 1;
    past_stack += bytes.size() > KeyStringBuilder::kStackCapacity;

    KeyStringBuilder whole;
    whole.Append(v);
    ASSERT_EQ(whole.view(), bytes) << v.ToJson();
    const KeyString key = whole.key();
    EXPECT_EQ(key.view(), bytes) << v.ToJson();
    EXPECT_EQ(key.is_inline(), bytes.size() <= KeyString::kInlineCapacity);
    EXPECT_EQ(KeyString(v), key) << v.ToJson();
    if (v.is_int64()) {
      KeyStringBuilder integer;
      integer.AppendInt(v.as_int64());
      EXPECT_EQ(integer.view(), bytes) << v.ToJson();
    }

    // Element by element, behind a prefix that is reused: [p, v] and
    // [p, v, w] both extend the one encoded [p,.
    const Value& p = values[rng.UniformInt(0, values.size() - 1)];
    const Value& w = values[rng.UniformInt(0, values.size() - 1)];
    KeyStringBuilder pair;
    pair.OpenArray().Append(p);
    const size_t prefix = pair.size();
    pair.Append(v).CloseArray();
    ASSERT_EQ(pair.view(), Bytes(Value::List({p, v})))
        << p.ToJson() << ", " << v.ToJson();
    pair.Truncate(prefix);
    ASSERT_EQ(pair.view(), Bytes(Value::List({p})).substr(0, prefix));
    pair.Append(v).Append(w).CloseArray();
    ASSERT_EQ(pair.view(), Bytes(Value::List({p, v, w})))
        << p.ToJson() << ", " << v.ToJson() << ", " << w.ToJson();
    EXPECT_EQ(pair.key(), KeyString(Value::List({p, v, w})));
  }
  EXPECT_GT(at_capacity, 0u);
  EXPECT_GT(past_capacity, 0u);
  EXPECT_GT(past_stack, 0u);
}

// Stock Level's probes: one [w, prefix, then each item's integer bytes.
TEST(KeyStringBuilderTest, ProbesFromOnePrefixMatchEncodedIds) {
  KeyStringBuilder probe;
  probe.OpenArray().AppendInt(7);
  const size_t prefix = probe.size();
  for (const int64_t item : {int64_t{0}, int64_t{1}, int64_t{255},
                             int64_t{256}, int64_t{100000},
                             std::numeric_limits<int64_t>::max(),
                             std::numeric_limits<int64_t>::min()}) {
    probe.Truncate(prefix);
    probe.AppendInt(item).CloseArray();
    EXPECT_EQ(probe.key(), KeyString(Value::List({7, item}))) << item;
  }
}

}  // namespace
}  // namespace dcg::doc
