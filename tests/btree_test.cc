// Tests for the B+-tree, including randomized property tests against a
// std::map oracle.

#include <algorithm>
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

using doc::KeyString;

BTree::Payload Doc(int64_t v) {
  return doc::DocPtr::Make(doc::Value::Doc({{"_id", v}, {"v", v}}));
}

KeyString Enc(const doc::Value& v) { return KeyString::Encode(v); }

// The "v" field of the payload under the cursor.
int64_t PayloadV(const BTree::Iterator& it) {
  return it.payload()->Find("v")->as_int64();
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
  for (int64_t i = 0; i < 2000; ++i) {
    tree.Insert(doc::Value(i), Doc(i));
  }
  EXPECT_EQ(tree.size(), 2000u);
  EXPECT_GE(tree.Height(), 3);
  tree.CheckInvariants();
  for (int64_t i = 0; i < 2000; ++i) {
    ASSERT_NE(tree.Find(doc::Value(i)), nullptr) << i;
  }
}

// Ascending loads fill every node: a node that overflows on an append
// stays full. 31 full leaves fit under one root; 20 000 keys (625 leaves)
// need one more level, not two.
TEST(BTreeTest, AscendingLoadsFillNodes) {
  BTree tree;
  int64_t k = 0;
  for (; k < 31 * 32; ++k) tree.Insert(doc::Value(k), Doc(k));
  tree.CheckInvariants();
  EXPECT_EQ(tree.Height(), 2);
  for (; k < 20'000; ++k) tree.Insert(doc::Value(k), Doc(k));
  tree.CheckInvariants();
  EXPECT_EQ(tree.Height(), 3);
  EXPECT_EQ(tree.size(), 20'000u);
}

TEST(BTreeTest, IterationIsSorted) {
  BTree tree;
  // Insert in scrambled order.
  for (int64_t i = 0; i < 500; ++i) {
    tree.Insert(doc::Value((i * 7919) % 500), Doc(i));
  }
  int64_t expected = 0;
  for (auto it = tree.Begin(); it.Valid(); it.Next()) {
    EXPECT_EQ(it.encoded_key(), Enc(doc::Value(expected++)));
  }
  EXPECT_EQ(expected, 500);
}

TEST(BTreeTest, LowerAndUpperBound) {
  BTree tree;
  for (int64_t i = 0; i < 100; i += 2) {  // even keys 0..98
    tree.Insert(doc::Value(i), Doc(i));
  }
  EXPECT_EQ(tree.LowerBound(doc::Value(10)).encoded_key(), Enc(10));
  EXPECT_EQ(tree.LowerBound(doc::Value(11)).encoded_key(), Enc(12));
  EXPECT_EQ(tree.UpperBound(doc::Value(10)).encoded_key(), Enc(12));
  EXPECT_EQ(tree.UpperBound(doc::Value(11)).encoded_key(), Enc(12));
  EXPECT_EQ(tree.LowerBound(doc::Value(-5)).encoded_key(), Enc(0));
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
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.encoded_key(), Enc(doc::Value(int64_t{5})));
  EXPECT_EQ(PayloadV(it), 2);
  it.Next();
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.encoded_key(), Enc(doc::Value("alpha")));
  EXPECT_EQ(PayloadV(it), 1);
  it.Next();
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.encoded_key(), Enc(doc::Value::List({1, 2})));
  EXPECT_EQ(PayloadV(it), 3);
  it.Next();
  EXPECT_FALSE(it.Valid());
}

TEST(BTreeTest, MoveConstructible) {
  BTree tree;
  for (int64_t i = 0; i < 50; ++i) tree.Insert(doc::Value(i), Doc(i));
  BTree moved = std::move(tree);
  EXPECT_EQ(moved.size(), 50u);
  moved.CheckInvariants();
}

// ---------------------------------------------------------------------------
// FindSorted: one pass of ascending probes, checked against a std::map
// oracle and against per-key Find.
// ---------------------------------------------------------------------------

// Runs FindSorted over the ascending `keys` and checks each answer against
// `oracle` (key -> the payload's "v") and against a per-key Find.
void ExpectFindSortedMatches(const BTree& tree,
                             const std::map<int64_t, int64_t>& oracle,
                             const std::vector<int64_t>& keys) {
  std::vector<KeyString> probes;
  for (int64_t k : keys) probes.push_back(Enc(doc::Value(k)));
  std::vector<BTree::Payload> got;
  tree.FindSorted(probes, &got);
  ASSERT_EQ(got.size(), keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    const auto it = oracle.find(keys[i]);
    if (it == oracle.end()) {
      EXPECT_EQ(got[i], nullptr) << "key " << keys[i];
      continue;
    }
    ASSERT_NE(got[i], nullptr) << "key " << keys[i];
    EXPECT_EQ(got[i]->Find("v")->as_int64(), it->second) << "key " << keys[i];
    EXPECT_EQ(got[i], tree.Find(doc::Value(keys[i]))) << "key " << keys[i];
  }
}

// `n` ascending draws from [lo, hi], a fifth of them repeating their
// predecessor.
std::vector<int64_t> RandomAscendingKeys(sim::Rng* rng, int n, int64_t lo,
                                         int64_t hi) {
  std::vector<int64_t> keys;
  for (int i = 0; i < n; ++i) {
    keys.push_back(!keys.empty() && rng->Bernoulli(0.2)
                       ? keys.back()
                       : rng->UniformInt(lo, hi));
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

TEST(BTreeFindSortedTest, EmptyTreeFindsNothing) {
  BTree tree;
  ExpectFindSortedMatches(tree, {}, {-1, 1, 1, 5});
  std::vector<BTree::Payload> got = {Doc(7)};
  tree.FindSorted({}, &got);
  EXPECT_TRUE(got.empty());  // `out` is replaced, not appended to
}

TEST(BTreeFindSortedTest, SingleLeafTree) {
  BTree tree;
  std::map<int64_t, int64_t> oracle;
  for (int64_t k = 0; k <= 20; k += 2) {
    tree.Insert(doc::Value(k), Doc(k));
    oracle.emplace(k, k);
  }
  ASSERT_EQ(tree.Height(), 1);
  ExpectFindSortedMatches(tree, oracle,
                          {-3, 0, 0, 1, 2, 2, 11, 19, 20, 20, 25, 25});
}

TEST(BTreeFindSortedTest, ProbesBelowAndAboveEveryKey) {
  BTree tree;
  std::map<int64_t, int64_t> oracle;
  for (int64_t i = 0; i < 1000; ++i) {
    const int64_t k = (i * 7919) % 1000;
    tree.Insert(doc::Value(k), Doc(k));
    oracle.emplace(k, k);
  }
  ASSERT_GE(tree.Height(), 3);
  ExpectFindSortedMatches(tree, oracle, {-20, -10, -1, -1});
  ExpectFindSortedMatches(tree, oracle, {1000, 1000, 1500, 3000});
  ExpectFindSortedMatches(tree, oracle, {-5, 0, 15, 16, 17, 999, 1000});
  ExpectFindSortedMatches(tree, oracle, {-5, 0, 31, 32, 33, 999, 1000});
  // Every key in order: the pass walks the leaf chain end to end.
  std::vector<int64_t> all;
  for (int64_t k = -2; k < 1002; ++k) all.push_back(k);
  ExpectFindSortedMatches(tree, oracle, all);
}

TEST(BTreeFindSortedTest, MatchesOracleAfterEraseDrivenMerges) {
  sim::Rng rng(77);
  BTree tree;
  std::map<int64_t, int64_t> oracle;
  for (int64_t k = 0; k < 3000; ++k) {
    tree.Insert(doc::Value(k), Doc(k * 3));
    oracle.emplace(k, k * 3);
  }
  const int height_before = tree.Height();
  // Erase four fifths in random order: leaves borrow and merge, inner nodes
  // merge and the tree shrinks.
  for (int i = 0; i < 2400; ++i) {
    const int64_t k = rng.UniformInt(0, 2999);
    EXPECT_EQ(tree.Erase(doc::Value(k)), oracle.erase(k) > 0);
  }
  tree.CheckInvariants();
  ASSERT_LT(tree.size(), 3000u);
  EXPECT_LE(tree.Height(), height_before);
  for (int round = 0; round < 50; ++round) {
    const int n = static_cast<int>(rng.UniformInt(1, 200));
    ExpectFindSortedMatches(tree, oracle,
                            RandomAscendingKeys(&rng, n, -10, 3010));
  }
}

TEST(BTreeFindSortedTest, RejectsDescendingProbes) {
  BTree tree;
  tree.Insert(doc::Value(1), Doc(1));
  const std::vector<KeyString> probes = {Enc(2), Enc(1)};
  std::vector<BTree::Payload> got;
  EXPECT_DEATH(tree.FindSorted(probes, &got), "ascend");
}

// ---------------------------------------------------------------------------
// Append splits: the right spine may hold nodes below half occupancy, which
// erases must rebalance like any other. Every op is checked against a
// std::map oracle and the structural invariants.
// ---------------------------------------------------------------------------

// Checks the tree's invariants and that its entries equal `oracle`'s.
void ExpectEntries(const BTree& tree,
                   const std::map<int64_t, int64_t>& oracle) {
  tree.CheckInvariants();
  ASSERT_EQ(tree.size(), oracle.size());
  auto it = tree.Begin();
  for (const auto& [key, value] : oracle) {
    ASSERT_TRUE(it.Valid());
    ASSERT_EQ(it.encoded_key(), Enc(doc::Value(key)));
    ASSERT_EQ(PayloadV(it), value);
    it.Next();
  }
  ASSERT_FALSE(it.Valid());
}

// A tree and its oracle, changed together.
struct OracleTree {
  void Insert(int64_t k) {
    EXPECT_EQ(tree.Insert(doc::Value(k), Doc(k)), oracle.emplace(k, k).second)
        << k;
  }
  void Erase(int64_t k) {
    EXPECT_EQ(tree.Erase(doc::Value(k)), oracle.erase(k) > 0) << k;
  }

  BTree tree;
  std::map<int64_t, int64_t> oracle;
};

TEST(BTreeAppendSplitTest, ErasingTheLoneKeyOfAFreshLeaf) {
  // 33 keys: a full leaf, then a leaf holding the 33rd key alone. 1025 keys
  // put that lone key under a fresh internal node with two children.
  for (const int64_t n : {33, 1025}) {
    OracleTree t;
    for (int64_t k = 0; k < n; ++k) t.Insert(k);
    ASSERT_NO_FATAL_FAILURE(ExpectEntries(t.tree, t.oracle));
    const int height = t.tree.Height();
    t.Erase(n - 1);
    ASSERT_NO_FATAL_FAILURE(ExpectEntries(t.tree, t.oracle));
    EXPECT_EQ(t.tree.Height(), height);
    t.Insert(n - 1);  // an append again
    ASSERT_NO_FATAL_FAILURE(ExpectEntries(t.tree, t.oracle));
    // Drain the whole tree from its right end.
    for (int64_t k = n - 1; k >= 0; --k) {
      t.Erase(k);
      ASSERT_NO_FATAL_FAILURE(ExpectEntries(t.tree, t.oracle)) << k;
    }
    EXPECT_TRUE(t.tree.empty());
    EXPECT_EQ(t.tree.Height(), 1);
  }
}

enum class EraseOrder { kAscending, kDescending, kRandom };

class BTreeAppendStressTest : public ::testing::TestWithParam<EraseOrder> {};

// From an ascending load (height 3, a short right spine), erases every
// loaded key in the given order, mixed with appends past the largest key,
// inserts of random keys between the loaded ones and erases of those, then
// drains the tree. The oracle and the invariants are checked after every
// op.
TEST_P(BTreeAppendStressTest, MatchesOracleAfterEveryOp) {
  sim::Rng rng(static_cast<uint64_t>(GetParam()) + 31);
  OracleTree t;
  // Loaded and appended keys are even; random inserts are odd.
  std::vector<int64_t> loaded;
  for (int64_t k = 0; k < 2 * 1100; k += 2) {
    t.Insert(k);
    loaded.push_back(k);
  }
  ASSERT_EQ(t.tree.Height(), 3);
  ASSERT_NO_FATAL_FAILURE(ExpectEntries(t.tree, t.oracle));
  switch (GetParam()) {
    case EraseOrder::kAscending:
      break;
    case EraseOrder::kDescending:
      std::reverse(loaded.begin(), loaded.end());
      break;
    case EraseOrder::kRandom:
      for (size_t i = loaded.size(); i > 1; --i) {
        std::swap(loaded[i - 1], loaded[rng.UniformInt(0, i - 1)]);
      }
      break;
  }
  int64_t next_append = 2 * 1100;
  for (const int64_t k : loaded) {
    t.Erase(k);
    ASSERT_NO_FATAL_FAILURE(ExpectEntries(t.tree, t.oracle)) << "erase " << k;
    if (rng.Bernoulli(0.6)) {
      t.Insert(next_append);
      next_append += 2;
      ASSERT_NO_FATAL_FAILURE(ExpectEntries(t.tree, t.oracle)) << "append";
    }
    const int64_t odd = 2 * rng.UniformInt(0, next_append / 2) + 1;
    if (rng.Bernoulli(0.25)) {
      t.Insert(odd);
      ASSERT_NO_FATAL_FAILURE(ExpectEntries(t.tree, t.oracle)) << "insert";
    } else if (rng.Bernoulli(0.15)) {
      t.Erase(odd);
      ASSERT_NO_FATAL_FAILURE(ExpectEntries(t.tree, t.oracle)) << "erase";
    }
  }
  std::vector<int64_t> rest;
  for (const auto& [key, value] : t.oracle) rest.push_back(key);
  ASSERT_FALSE(rest.empty());
  for (size_t i = rest.size(); i > 1; --i) {
    std::swap(rest[i - 1], rest[rng.UniformInt(0, i - 1)]);
  }
  for (const int64_t k : rest) {
    t.Erase(k);
    ASSERT_NO_FATAL_FAILURE(ExpectEntries(t.tree, t.oracle)) << "drain " << k;
  }
  EXPECT_TRUE(t.tree.empty());
  EXPECT_EQ(t.tree.Height(), 1);
}

INSTANTIATE_TEST_SUITE_P(Orders, BTreeAppendStressTest,
                         ::testing::Values(EraseOrder::kAscending,
                                           EraseOrder::kDescending,
                                           EraseOrder::kRandom));

// ---------------------------------------------------------------------------
// CopyFrom: a node-for-node clone sharing the payloads.
// ---------------------------------------------------------------------------

std::vector<std::pair<KeyString, BTree::Payload>> Entries(const BTree& tree) {
  std::vector<std::pair<KeyString, BTree::Payload>> entries;
  for (auto it = tree.Begin(); it.Valid(); it.Next()) {
    entries.emplace_back(it.encoded_key(), it.payload());
  }
  return entries;
}

TEST(BTreeCopyTest, CopyEqualsSourceAndSharesPayloads) {
  sim::Rng rng(5);
  BTree source;
  for (int64_t i = 0; i < 2000; ++i) {
    source.Insert(doc::Value((i * 7919) % 2000), Doc(i));
  }
  for (int i = 0; i < 700; ++i) {
    source.Erase(doc::Value(rng.UniformInt(0, 1999)));
  }
  source.CheckInvariants();

  BTree copy;
  copy.Insert(doc::Value(-1), Doc(-1));  // replaced by the copy
  copy.CopyFrom(source);
  copy.CheckInvariants();
  EXPECT_EQ(copy.size(), source.size());
  EXPECT_EQ(copy.Height(), source.Height());
  EXPECT_EQ(copy.Find(doc::Value(-1)), nullptr);
  const auto source_entries = Entries(source);
  const auto copy_entries = Entries(copy);
  ASSERT_EQ(copy_entries.size(), source_entries.size());
  for (size_t i = 0; i < source_entries.size(); ++i) {
    EXPECT_EQ(copy_entries[i].first, source_entries[i].first);
    EXPECT_EQ(copy_entries[i].second.get(), source_entries[i].second.get());
  }

  // Mutating the copy (inserts that split, erases that merge, replaced
  // payloads) leaves the source as it was.
  for (int64_t k = 2000; k < 2500; ++k) copy.Insert(doc::Value(k), Doc(k));
  for (int64_t k = 0; k < 1000; ++k) copy.Erase(doc::Value(k));
  for (int64_t k = 1000; k < 1100; ++k) copy.Upsert(doc::Value(k), Doc(-k));
  copy.CheckInvariants();
  source.CheckInvariants();
  EXPECT_EQ(Entries(source), source_entries);

  // And the other way round.
  const auto copy_after = Entries(copy);
  for (int64_t k = 0; k < 2000; ++k) source.Erase(doc::Value(k));
  source.Insert(doc::Value(5000), Doc(5000));
  source.CheckInvariants();
  copy.CheckInvariants();
  EXPECT_EQ(Entries(copy), copy_after);
}

TEST(BTreeCopyTest, CopyOfEmptyTreeIsEmpty) {
  BTree source;
  BTree copy;
  for (int64_t k = 0; k < 100; ++k) copy.Insert(doc::Value(k), Doc(k));
  copy.CopyFrom(source);
  copy.CheckInvariants();
  EXPECT_TRUE(copy.empty());
  EXPECT_FALSE(copy.Begin().Valid());
  EXPECT_EQ(copy.Height(), 1);
  EXPECT_TRUE(copy.Insert(doc::Value(1), Doc(1)));
  EXPECT_TRUE(source.empty());
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
    EXPECT_EQ(it.encoded_key(), Enc(doc::Value(key)));
    EXPECT_EQ(PayloadV(it), value);
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
      EXPECT_EQ(tree_it.encoded_key(), Enc(doc::Value(oracle_it->first)));
    }
  }

  // FindSorted agrees with the oracle on random ascending probe sets.
  for (int i = 0; i < 20; ++i) {
    const int n = static_cast<int>(rng.UniformInt(1, 64));
    ExpectFindSortedMatches(tree, oracle,
                            RandomAscendingKeys(&rng, n, -5, key_space + 5));
  }

  // Contains (a descent with no payload copy) agrees with Find and the
  // oracle after the churn, on present and absent keys alike.
  for (int i = 0; i < 200; ++i) {
    const int64_t probe = rng.UniformInt(-5, key_space + 5);
    const bool found = tree.Find(doc::Value(probe)) != nullptr;
    EXPECT_EQ(tree.Contains(doc::Value(probe)), found) << "key " << probe;
    EXPECT_EQ(found, oracle.count(probe) > 0) << "key " << probe;
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
  doc::KeyStringBuilder prefix;
  prefix.OpenArray();
  for (const doc::Value& v : components) prefix.Append(v);
  return std::string(prefix.view());
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
    EXPECT_EQ(it.encoded_key(), Enc(key));
    EXPECT_EQ(PayloadV(it), value);
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
      EXPECT_EQ(tree_lower.encoded_key(), Enc(lower->first));
    }
    const auto upper = oracle.upper_bound(probe);
    const auto tree_upper = tree.UpperBound(probe);
    ASSERT_EQ(tree_upper.Valid(), upper != oracle.end()) << probe.ToJson();
    if (upper != oracle.end()) {
      EXPECT_EQ(tree_upper.encoded_key(), Enc(upper->first));
    }

    // Equality over a [w] or [w, d] prefix: LowerBoundPrefix, then scan
    // while the encoding extends the prefix.
    doc::Array pinned = {doc::Value(rng.UniformInt(0, 3))};
    if (rng.Bernoulli(0.5)) pinned.emplace_back(rng.UniformInt(0, 4));
    const std::string prefix = EncodedPrefix(pinned);
    std::vector<KeyString> want;
    for (auto o = oracle.lower_bound(doc::Value(pinned));
         o != oracle.end() && ComparePrefixComponents(pinned, o->first) == 0;
         ++o) {
      want.push_back(Enc(o->first));
    }
    std::vector<KeyString> got;
    for (auto t = tree.LowerBoundPrefix(prefix);
         t.Valid() && t.encoded_key().view().starts_with(prefix); t.Next()) {
      got.push_back(t.encoded_key());
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
      want.push_back(Enc(o->first));
    }
    got.clear();
    const std::string high_bytes = EncodedPrefix(high);
    for (auto t = tree.LowerBoundPrefix(EncodedPrefix(low)); t.Valid();
         t.Next()) {
      const std::string_view key = t.encoded_key().view();
      if (doc::KeyString::ComparePrefix(high_bytes, key) < 0) break;
      got.push_back(t.encoded_key());
    }
    EXPECT_EQ(got, want) << doc::Value(low).ToJson() << " .. "
                         << doc::Value(high).ToJson();
  }

  // FindSorted over ascending mixed keys (int64 3 and double 3.0 are the
  // same key, so such pairs probe twice).
  for (int i = 0; i < 20; ++i) {
    std::vector<doc::Value> keys;
    const int n = static_cast<int>(rng.UniformInt(1, 48));
    for (int j = 0; j < n; ++j) keys.push_back(RandomMixedKey(&rng, key_space));
    std::sort(keys.begin(), keys.end(), ValueLess());
    std::vector<KeyString> probes;
    for (const doc::Value& k : keys) probes.push_back(Enc(k));
    std::vector<BTree::Payload> found;
    tree.FindSorted(probes, &found);
    ASSERT_EQ(found.size(), keys.size());
    for (size_t j = 0; j < keys.size(); ++j) {
      const auto o = oracle.find(keys[j]);
      if (o == oracle.end()) {
        EXPECT_EQ(found[j], nullptr) << keys[j].ToJson();
      } else {
        ASSERT_NE(found[j], nullptr) << keys[j].ToJson();
        EXPECT_EQ(found[j]->Find("v")->as_int64(), o->second);
      }
    }
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
