// Tests for the B+-tree, including randomized property tests against a
// std::map oracle.

#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "doc/key_string.h"
#include "sim/random.h"
#include "store/btree.h"

namespace dcg::store {
namespace {

BTree::Payload Doc(int64_t v) {
  return std::make_shared<const doc::Value>(
      doc::Value::Doc({{"_id", v}, {"v", v}}));
}

TEST(BTreeTest, EmptyTree) {
  BTree tree;
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_TRUE(tree.empty());
  EXPECT_EQ(tree.Find(doc::Value(1)), nullptr);
  EXPECT_FALSE(tree.Begin().Valid());
  EXPECT_FALSE(tree.Erase(doc::Value(1)));
  tree.CheckInvariants();
}

TEST(BTreeTest, InsertAndFind) {
  BTree tree;
  EXPECT_TRUE(tree.Insert(doc::Value(1), Doc(1)));
  EXPECT_TRUE(tree.Insert(doc::Value(2), Doc(2)));
  EXPECT_FALSE(tree.Insert(doc::Value(1), Doc(99)));  // duplicate
  EXPECT_EQ(tree.size(), 2u);
  ASSERT_NE(tree.Find(doc::Value(1)), nullptr);
  EXPECT_EQ(tree.Find(doc::Value(1))->Find("v")->as_int64(), 1);
  EXPECT_EQ(tree.Find(doc::Value(3)), nullptr);
}

TEST(BTreeTest, UpsertReplaces) {
  BTree tree;
  EXPECT_TRUE(tree.Upsert(doc::Value(1), Doc(1)));
  EXPECT_FALSE(tree.Upsert(doc::Value(1), Doc(42)));
  EXPECT_EQ(tree.size(), 1u);
  EXPECT_EQ(tree.Find(doc::Value(1))->Find("v")->as_int64(), 42);
}

TEST(BTreeTest, SplitsGrowHeight) {
  BTree tree;
  for (int64_t i = 0; i < 1000; ++i) {
    tree.Insert(doc::Value(i), Doc(i));
  }
  EXPECT_EQ(tree.size(), 1000u);
  EXPECT_GE(tree.Height(), 3);
  tree.CheckInvariants();
  for (int64_t i = 0; i < 1000; ++i) {
    ASSERT_NE(tree.Find(doc::Value(i)), nullptr) << i;
  }
}

TEST(BTreeTest, IterationIsSorted) {
  BTree tree;
  // Insert in scrambled order.
  for (int64_t i = 0; i < 500; ++i) {
    tree.Insert(doc::Value((i * 7919) % 500), Doc(i));
  }
  int64_t expected = 0;
  for (auto it = tree.Begin(); it.Valid(); it.Next()) {
    EXPECT_EQ(it.key().as_int64(), expected++);
  }
  EXPECT_EQ(expected, 500);
}

TEST(BTreeTest, LowerAndUpperBound) {
  BTree tree;
  for (int64_t i = 0; i < 100; i += 2) {  // even keys 0..98
    tree.Insert(doc::Value(i), Doc(i));
  }
  EXPECT_EQ(tree.LowerBound(doc::Value(10)).key().as_int64(), 10);
  EXPECT_EQ(tree.LowerBound(doc::Value(11)).key().as_int64(), 12);
  EXPECT_EQ(tree.UpperBound(doc::Value(10)).key().as_int64(), 12);
  EXPECT_EQ(tree.UpperBound(doc::Value(11)).key().as_int64(), 12);
  EXPECT_EQ(tree.LowerBound(doc::Value(-5)).key().as_int64(), 0);
  EXPECT_FALSE(tree.LowerBound(doc::Value(99)).Valid());
  EXPECT_FALSE(tree.UpperBound(doc::Value(98)).Valid());
}

TEST(BTreeTest, EraseShrinksToEmpty) {
  BTree tree;
  for (int64_t i = 0; i < 300; ++i) tree.Insert(doc::Value(i), Doc(i));
  for (int64_t i = 0; i < 300; ++i) {
    EXPECT_TRUE(tree.Erase(doc::Value(i))) << i;
    tree.CheckInvariants();
  }
  EXPECT_TRUE(tree.empty());
  EXPECT_EQ(tree.Height(), 1);
}

TEST(BTreeTest, EraseReverseOrder) {
  BTree tree;
  for (int64_t i = 0; i < 300; ++i) tree.Insert(doc::Value(i), Doc(i));
  for (int64_t i = 299; i >= 0; --i) {
    EXPECT_TRUE(tree.Erase(doc::Value(i)));
  }
  tree.CheckInvariants();
  EXPECT_TRUE(tree.empty());
}

TEST(BTreeTest, MixedKeyTypes) {
  BTree tree;
  tree.Insert(doc::Value("alpha"), Doc(1));
  tree.Insert(doc::Value(int64_t{5}), Doc(2));
  tree.Insert(doc::Value::List({1, 2}), Doc(3));
  tree.CheckInvariants();
  // Canonical order: number < string < array.
  auto it = tree.Begin();
  EXPECT_TRUE(it.key().is_int64());
  it.Next();
  EXPECT_TRUE(it.key().is_string());
  it.Next();
  EXPECT_TRUE(it.key().is_array());
}

TEST(BTreeTest, MoveConstructible) {
  BTree tree;
  for (int64_t i = 0; i < 50; ++i) tree.Insert(doc::Value(i), Doc(i));
  BTree moved = std::move(tree);
  EXPECT_EQ(moved.size(), 50u);
  moved.CheckInvariants();
}

// ---------------------------------------------------------------------------
// Property tests: random op sequences vs a std::map oracle.
// Param: (seed, ops, key_space). Small key spaces force heavy
// insert/erase churn; large ones exercise splits more than merges.
// ---------------------------------------------------------------------------

class BTreeOracleTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, int, int64_t>> {};

TEST_P(BTreeOracleTest, MatchesMapOracle) {
  const auto [seed, ops, key_space] = GetParam();
  sim::Rng rng(seed);
  BTree tree;
  std::map<int64_t, int64_t> oracle;

  for (int i = 0; i < ops; ++i) {
    const int64_t key = rng.UniformInt(0, key_space - 1);
    const double action = rng.NextDouble();
    if (action < 0.5) {
      const bool inserted = tree.Insert(doc::Value(key), Doc(key * 10 + 1));
      EXPECT_EQ(inserted, oracle.emplace(key, key * 10 + 1).second);
    } else if (action < 0.65) {
      tree.Upsert(doc::Value(key), Doc(key * 10 + 2));
      oracle[key] = key * 10 + 2;
    } else if (action < 0.95) {
      EXPECT_EQ(tree.Erase(doc::Value(key)), oracle.erase(key) > 0);
    } else {
      // Point lookup.
      auto it = oracle.find(key);
      BTree::Payload p = tree.Find(doc::Value(key));
      if (it == oracle.end()) {
        EXPECT_EQ(p, nullptr);
      } else {
        ASSERT_NE(p, nullptr);
        EXPECT_EQ(p->Find("v")->as_int64(), it->second);
      }
    }
    if (i % 256 == 0) tree.CheckInvariants();
  }
  tree.CheckInvariants();

  // Full iteration equals oracle contents.
  ASSERT_EQ(tree.size(), oracle.size());
  auto it = tree.Begin();
  for (const auto& [key, value] : oracle) {
    ASSERT_TRUE(it.Valid());
    EXPECT_EQ(it.key().as_int64(), key);
    EXPECT_EQ(it.payload()->Find("v")->as_int64(), value);
    it.Next();
  }
  EXPECT_FALSE(it.Valid());

  // LowerBound agrees with the oracle at random probes.
  for (int i = 0; i < 200; ++i) {
    const int64_t probe = rng.UniformInt(-5, key_space + 5);
    auto tree_it = tree.LowerBound(doc::Value(probe));
    auto oracle_it = oracle.lower_bound(probe);
    if (oracle_it == oracle.end()) {
      EXPECT_FALSE(tree_it.Valid());
    } else {
      ASSERT_TRUE(tree_it.Valid());
      EXPECT_EQ(tree_it.key().as_int64(), oracle_it->first);
    }
  }
}

// Orders doc::Values the way the tree must: by Value::Compare.
struct ValueLess {
  bool operator()(const doc::Value& a, const doc::Value& b) const {
    return a.Compare(b) < 0;
  }
};
using ValueOracle = std::map<doc::Value, int64_t, ValueLess>;

// A stock-style [w, i] key, an order-style [w, d, o] key, or a scalar that
// is an int64, an integer-valued double (the same key as that int64) or a
// half. Composite components are sometimes doubles too.
doc::Value RandomMixedKey(sim::Rng* rng, int64_t key_space) {
  auto number = [rng](int64_t v) {
    return rng->Bernoulli(0.2) ? doc::Value(static_cast<double>(v))
                               : doc::Value(v);
  };
  const int64_t w = rng->UniformInt(1, 2);
  switch (rng->UniformInt(0, 3)) {
    case 0: {
      const int64_t item = rng->UniformInt(0, key_space / 2);
      return doc::Value::List({number(w), number(item)});
    }
    case 1: {
      const int64_t d = rng->UniformInt(1, 3);
      const int64_t o = rng->UniformInt(0, key_space / 4);
      return doc::Value::List({number(w), number(d), number(o)});
    }
    case 2:
      return number(rng->UniformInt(-key_space, key_space));
    default: {
      const int64_t whole = rng->UniformInt(-key_space, key_space);
      return doc::Value(static_cast<double>(whole) + 0.5);
    }
  }
}

std::string EncodedPrefix(const doc::Array& components) {
  std::string prefix;
  doc::AppendKeyStringArrayStart(&prefix);
  for (const doc::Value& v : components) doc::AppendKeyString(v, &prefix);
  return prefix;
}

// Compares `prefix` with the first prefix.size() components of `key` (a
// shorter key that matches throughout sorts first): the index-scan end test.
int ComparePrefixComponents(const doc::Array& prefix, const doc::Value& key) {
  if (!key.is_array()) return key.Compare(doc::Value(prefix)) < 0 ? 1 : -1;
  const doc::Array& elems = key.as_array();
  for (size_t i = 0; i < prefix.size(); ++i) {
    if (i == elems.size()) return 1;
    const int c = prefix[i].Compare(elems[i]);
    if (c != 0) return c;
  }
  return 0;
}

TEST_P(BTreeOracleTest, CompositeAndMixedKeysMatchMapOracle) {
  const auto [seed, ops, key_space] = GetParam();
  sim::Rng rng(seed + 100);
  BTree tree;
  ValueOracle oracle;

  for (int i = 0; i < ops; ++i) {
    const doc::Value key = RandomMixedKey(&rng, key_space);
    const double action = rng.NextDouble();
    if (action < 0.5) {
      EXPECT_EQ(tree.Insert(key, Doc(i)), oracle.emplace(key, i).second);
    } else if (action < 0.65) {
      BTree::Payload replaced;
      const auto it = oracle.find(key);
      EXPECT_EQ(tree.Upsert(key, Doc(i), &replaced), it == oracle.end());
      if (it != oracle.end()) {
        ASSERT_NE(replaced, nullptr);
        EXPECT_EQ(replaced->Find("v")->as_int64(), it->second);
      }
      oracle[key] = i;
    } else if (action < 0.95) {
      BTree::Payload erased;
      const auto it = oracle.find(key);
      EXPECT_EQ(tree.Erase(key, &erased), it != oracle.end());
      if (it != oracle.end()) {
        ASSERT_NE(erased, nullptr);
        EXPECT_EQ(erased->Find("v")->as_int64(), it->second);
        oracle.erase(it);
      }
    } else {
      const auto it = oracle.find(key);
      const BTree::Payload p = tree.Find(key);
      if (it == oracle.end()) {
        EXPECT_EQ(p, nullptr);
      } else {
        ASSERT_NE(p, nullptr);
        EXPECT_EQ(p->Find("v")->as_int64(), it->second);
      }
    }
    if (i % 256 == 0) tree.CheckInvariants();
  }
  tree.CheckInvariants();

  ASSERT_EQ(tree.size(), oracle.size());
  auto it = tree.Begin();
  for (const auto& [key, value] : oracle) {
    ASSERT_TRUE(it.Valid());
    EXPECT_EQ(it.key(), key);
    EXPECT_EQ(it.payload()->Find("v")->as_int64(), value);
    it.Next();
  }
  EXPECT_FALSE(it.Valid());

  for (int i = 0; i < 200; ++i) {
    // LowerBound and UpperBound at random probes.
    const doc::Value probe = RandomMixedKey(&rng, key_space + 2);
    const auto lower = oracle.lower_bound(probe);
    const auto tree_lower = tree.LowerBound(probe);
    ASSERT_EQ(tree_lower.Valid(), lower != oracle.end()) << probe.ToJson();
    if (lower != oracle.end()) {
      EXPECT_EQ(tree_lower.key(), lower->first);
    }
    const auto upper = oracle.upper_bound(probe);
    const auto tree_upper = tree.UpperBound(probe);
    ASSERT_EQ(tree_upper.Valid(), upper != oracle.end()) << probe.ToJson();
    if (upper != oracle.end()) {
      EXPECT_EQ(tree_upper.key(), upper->first);
    }

    // Equality over a [w] or [w, d] prefix: LowerBoundPrefix, then scan
    // while the encoding extends the prefix.
    doc::Array pinned = {doc::Value(rng.UniformInt(0, 3))};
    if (rng.Bernoulli(0.5)) pinned.emplace_back(rng.UniformInt(0, 4));
    const std::string prefix = EncodedPrefix(pinned);
    std::vector<doc::Value> want;
    for (auto o = oracle.lower_bound(doc::Value(pinned));
         o != oracle.end() && ComparePrefixComponents(pinned, o->first) == 0;
         ++o) {
      want.push_back(o->first);
    }
    std::vector<doc::Value> got;
    for (auto t = tree.LowerBoundPrefix(prefix);
         t.Valid() && t.encoded_key().view().starts_with(prefix); t.Next()) {
      got.push_back(t.key());
    }
    EXPECT_EQ(got, want) << doc::Value(pinned).ToJson();

    // An index-scan range [low, high] over [w, d, o] prefixes, inclusive at
    // both ends over the length of each prefix.
    const int64_t w = rng.UniformInt(1, 2), d = rng.UniformInt(1, 3);
    const int64_t lo = rng.UniformInt(0, key_space / 4);
    const doc::Array low = {doc::Value(w), doc::Value(d), doc::Value(lo)};
    const doc::Array high = {doc::Value(w),
                             doc::Value(d + rng.UniformInt(0, 1)),
                             doc::Value(lo + rng.UniformInt(0, 8))};
    want.clear();
    for (auto o = oracle.lower_bound(doc::Value(low));
         o != oracle.end() && ComparePrefixComponents(high, o->first) >= 0;
         ++o) {
      want.push_back(o->first);
    }
    got.clear();
    const std::string high_bytes = EncodedPrefix(high);
    for (auto t = tree.LowerBoundPrefix(EncodedPrefix(low)); t.Valid();
         t.Next()) {
      const std::string_view key = t.encoded_key().view();
      if (doc::KeyString::ComparePrefix(high_bytes, key) < 0) break;
      got.push_back(t.key());
    }
    EXPECT_EQ(got, want) << doc::Value(low).ToJson() << " .. "
                         << doc::Value(high).ToJson();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BTreeOracleTest,
    ::testing::Values(std::make_tuple(1, 4000, 64),      // churny, tiny keys
                      std::make_tuple(2, 4000, 256),
                      std::make_tuple(3, 6000, 1024),
                      std::make_tuple(4, 8000, 100'000),  // split-heavy
                      std::make_tuple(5, 2000, 16),       // extreme churn
                      std::make_tuple(6, 10'000, 4096)));

}  // namespace
}  // namespace dcg::store
