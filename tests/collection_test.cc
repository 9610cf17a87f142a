// Tests for Collection (primary + secondary indexes, queries) and Database.

#include <algorithm>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "doc/key_string.h"
#include "sim/random.h"
#include "store/collection.h"
#include "store/database.h"

namespace dcg::store {
namespace {

doc::Value User(int64_t id, std::string name, int64_t age) {
  return doc::Value::Doc(
      {{"_id", id}, {"name", std::move(name)}, {"age", age}});
}

TEST(CollectionTest, InsertAndFindById) {
  Collection users("users");
  EXPECT_TRUE(users.Insert(User(1, "alice", 30)));
  EXPECT_TRUE(users.Insert(User(2, "bob", 25)));
  EXPECT_FALSE(users.Insert(User(1, "dup", 99)));
  EXPECT_EQ(users.size(), 2u);
  DocPtr d = users.FindById(doc::Value(1));
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->Find("name")->as_string(), "alice");
  EXPECT_EQ(users.FindById(doc::Value(3)), nullptr);
}

TEST(CollectionTest, UpsertReplacesDocument) {
  Collection users("users");
  users.Upsert(User(1, "alice", 30));
  users.Upsert(User(1, "alicia", 31));
  EXPECT_EQ(users.size(), 1u);
  EXPECT_EQ(users.FindById(doc::Value(1))->Find("name")->as_string(),
            "alicia");
}

TEST(CollectionTest, UpdateIsCopyOnWrite) {
  Collection users("users");
  users.Insert(User(1, "alice", 30));
  DocPtr before = users.FindById(doc::Value(1));
  doc::UpdateSpec spec;
  spec.Inc("age", doc::Value(int64_t{1}));
  ASSERT_TRUE(users.Update(doc::Value(1), spec));
  // The old snapshot is untouched; the new one reflects the update.
  EXPECT_EQ(before->Find("age")->as_int64(), 30);
  EXPECT_EQ(users.FindById(doc::Value(1))->Find("age")->as_int64(), 31);
  EXPECT_FALSE(users.Update(doc::Value(99), spec));
}

TEST(CollectionTest, Remove) {
  Collection users("users");
  users.Insert(User(1, "alice", 30));
  EXPECT_TRUE(users.Remove(doc::Value(1)));
  EXPECT_FALSE(users.Remove(doc::Value(1)));
  EXPECT_EQ(users.size(), 0u);
}

TEST(CollectionTest, FindByIdEqualityUsesPrimaryIndex) {
  Collection users("users");
  for (int64_t i = 0; i < 100; ++i) users.Insert(User(i, "u", i));
  auto results = users.Find(doc::Filter::Eq("_id", doc::Value(42)));
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0]->Find("_id")->as_int64(), 42);
}

TEST(CollectionTest, FindFullScanWithPredicate) {
  Collection users("users");
  for (int64_t i = 0; i < 100; ++i) users.Insert(User(i, "u", i % 10));
  auto results = users.Find(doc::Filter::Eq("age", doc::Value(3)));
  EXPECT_EQ(results.size(), 10u);
  EXPECT_EQ(users.Count(doc::Filter::Gte("age", doc::Value(5))), 50u);
}

TEST(CollectionTest, FindRespectsLimit) {
  Collection users("users");
  for (int64_t i = 0; i < 100; ++i) users.Insert(User(i, "u", 1));
  EXPECT_EQ(users.Find(doc::Filter::True(), 7).size(), 7u);
  EXPECT_EQ(users.Find(doc::Filter::True(), 0).size(), 0u);
}

TEST(CollectionTest, SecondaryIndexServesEqualityQueries) {
  Collection users("users");
  users.CreateIndex("by_age", {"age"});
  for (int64_t i = 0; i < 100; ++i) users.Insert(User(i, "u", i % 10));
  auto results = users.Find(doc::Filter::Eq("age", doc::Value(4)));
  EXPECT_EQ(results.size(), 10u);
  users.CheckInvariants();
}

TEST(CollectionTest, IndexCreatedAfterInsertIndexesExistingDocs) {
  Collection users("users");
  for (int64_t i = 0; i < 50; ++i) users.Insert(User(i, "u", i));
  users.CreateIndex("by_age", {"age"});
  users.CheckInvariants();
  auto results = users.IndexScan("by_age", {doc::Value(10)},
                                 {doc::Value(19)});
  EXPECT_EQ(results.size(), 10u);
}

TEST(CollectionTest, IndexMaintainedAcrossUpdatesAndRemoves) {
  Collection users("users");
  users.CreateIndex("by_age", {"age"});
  for (int64_t i = 0; i < 30; ++i) users.Insert(User(i, "u", 1));
  doc::UpdateSpec to_two;
  to_two.Set("age", doc::Value(int64_t{2}));
  for (int64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(users.Update(doc::Value(i), to_two));
  }
  for (int64_t i = 20; i < 30; ++i) {
    ASSERT_TRUE(users.Remove(doc::Value(i)));
  }
  users.CheckInvariants();
  EXPECT_EQ(users.IndexScan("by_age", {doc::Value(1)}, {doc::Value(1)}).size(),
            10u);
  EXPECT_EQ(users.IndexScan("by_age", {doc::Value(2)}, {doc::Value(2)}).size(),
            10u);
}

// The brute-force answer to IndexScan(prefix, prefix) over an index on
// `paths`: every document whose tuple [path values..., _id] (Null for a
// missing path) starts with `prefix`, in tuple order.
std::vector<DocPtr> BruteForceScan(const Collection& c,
                                   const std::vector<std::string>& paths,
                                   const std::vector<doc::Value>& prefix) {
  std::vector<std::pair<doc::Value, DocPtr>> hits;
  for (const DocPtr& d : c.Find(doc::Filter::True())) {
    doc::Array tuple;
    for (const std::string& path : paths) {
      const doc::Value* v = d->FindPath(path);
      tuple.push_back(v != nullptr ? *v : doc::Value());
    }
    tuple.push_back(*d->Find("_id"));
    bool match = true;
    for (size_t i = 0; i < prefix.size(); ++i) {
      match = match && tuple[i] == prefix[i];
    }
    if (match) hits.emplace_back(doc::Value(std::move(tuple)), d);
  }
  std::sort(hits.begin(), hits.end(), [](const auto& x, const auto& y) {
    return x.first.Compare(y.first) < 0;
  });
  std::vector<DocPtr> out;
  for (auto& hit : hits) out.push_back(std::move(hit.second));
  return out;
}

// Index keys are encoded straight from the documents' fields: an update
// that changes the indexed tuple moves the entry, one that does not keeps
// it (pointing at the new document), a missing path indexes as Null, and
// removes and re-inserts leave no stale entry. After every step the
// invariants hold and each scan equals the brute-force answer.
TEST(CollectionTest, IndexUpkeepOnEncodings) {
  Collection c("c");
  const std::vector<std::string> paths = {"a", "b"};
  c.CreateIndex("by_ab", paths);
  const std::vector<std::vector<doc::Value>> prefixes = {
      {},
      {doc::Value(0)},
      {doc::Value(1)},
      {doc::Value(7)},
      {doc::Value()},
      {doc::Value(), doc::Value(3)},
      {doc::Value(1), doc::Value(10)},
      {doc::Value(0), doc::Value()}};
  auto check = [&](const char* step) {
    SCOPED_TRACE(step);
    c.CheckInvariants();
    for (const auto& prefix : prefixes) {
      EXPECT_EQ(c.IndexScan("by_ab", prefix, prefix),
                BruteForceScan(c, paths, prefix))
          << prefix.size() << " components";
    }
  };
  // Scalar and composite _ids, so the _id component varies in length.
  auto id = [](int64_t i) {
    return i % 2 == 0 ? doc::Value(i) : doc::Value::List({i, i * 1000});
  };
  for (int64_t i = 0; i < 20; ++i) {
    c.Insert(doc::Value::Doc(
        {{"_id", id(i)}, {"a", i % 3}, {"b", (i % 2) * 10}}));
  }
  check("loaded");

  doc::UpdateSpec move;
  move.Set("a", doc::Value(7));
  ASSERT_TRUE(c.Update(id(5), move));
  check("tuple changed");
  ASSERT_EQ(c.IndexScan("by_ab", {doc::Value(7)}, {doc::Value(7)}).size(), 1u);

  doc::UpdateSpec other;
  other.Set("c", doc::Value("unindexed"));
  ASSERT_TRUE(c.Update(id(6), other));
  check("tuple kept");

  c.Insert(doc::Value::Doc({{"_id", id(100)}, {"b", 3}}));  // no "a"
  c.Insert(doc::Value::Doc({{"_id", id(101)}}));           // neither
  check("missing paths");
  EXPECT_EQ(c.IndexScan("by_ab", {doc::Value()}, {doc::Value()}).size(), 2u);

  ASSERT_TRUE(c.Remove(id(5)));
  ASSERT_TRUE(c.Remove(id(100)));
  check("removed");
  EXPECT_TRUE(c.IndexScan("by_ab", {doc::Value(7)}, {doc::Value(7)}).empty());

  ASSERT_TRUE(c.Insert(doc::Value::Doc({{"_id", id(5)}, {"a", 0}, {"b", 0}})));
  ASSERT_TRUE(c.Insert(doc::Value::Doc({{"_id", id(100)}, {"a", 1}})));
  check("re-inserted");
}

TEST(CollectionTest, CompoundIndexPrefixScan) {
  Collection orders("orders");
  orders.CreateIndex("by_wdc", {"w", "d", "c"});
  int64_t id = 0;
  for (int64_t w = 1; w <= 2; ++w) {
    for (int64_t d = 1; d <= 3; ++d) {
      for (int64_t c = 1; c <= 4; ++c) {
        orders.Insert(doc::Value::Doc(
            {{"_id", id++}, {"w", w}, {"d", d}, {"c", c}}));
      }
    }
  }
  // Full-prefix equality.
  auto exact = orders.IndexScan(
      "by_wdc", {doc::Value(1), doc::Value(2), doc::Value(3)},
      {doc::Value(1), doc::Value(2), doc::Value(3)});
  EXPECT_EQ(exact.size(), 1u);
  // Shorter prefix covers all districts' customers.
  auto district = orders.IndexScan("by_wdc", {doc::Value(2), doc::Value(1)},
                                   {doc::Value(2), doc::Value(1)});
  EXPECT_EQ(district.size(), 4u);
  auto warehouse = orders.IndexScan("by_wdc", {doc::Value(2)},
                                    {doc::Value(2)});
  EXPECT_EQ(warehouse.size(), 12u);
}

TEST(CollectionTest, IndexesMissingPathAsNull) {
  Collection c("c");
  c.CreateIndex("by_x", {"x"});
  c.Insert(doc::Value::Doc({{"_id", 1}}));  // no "x"
  c.Insert(doc::Value::Doc({{"_id", 2}, {"x", 5}}));
  c.CheckInvariants();
  auto nulls = c.IndexScan("by_x", {doc::Value()}, {doc::Value()});
  ASSERT_EQ(nulls.size(), 1u);
  EXPECT_EQ(nulls[0]->Find("_id")->as_int64(), 1);
}

TEST(CollectionTest, RangeByIdInclusive) {
  Collection c("c");
  for (int64_t i = 0; i < 50; ++i) c.Insert(User(i, "u", i));
  auto r = c.RangeById(doc::Value(10), doc::Value(19));
  ASSERT_EQ(r.size(), 10u);
  EXPECT_EQ(r.front()->Find("_id")->as_int64(), 10);
  EXPECT_EQ(r.back()->Find("_id")->as_int64(), 19);
  EXPECT_EQ(c.RangeById(doc::Value(100), doc::Value(200)).size(), 0u);
  EXPECT_EQ(c.RangeById(doc::Value(45), doc::Value(500)).size(), 5u);
  EXPECT_EQ(c.RangeById(doc::Value(7), doc::Value(7), 1).size(), 1u);
}

TEST(CollectionTest, RangeByIdWithArrayKeys) {
  Collection c("c");
  for (int64_t w = 1; w <= 2; ++w) {
    for (int64_t o = 1; o <= 10; ++o) {
      c.Insert(doc::Value::Doc(
          {{"_id", doc::Value::List({w, o})}, {"w", w}, {"o", o}}));
    }
  }
  auto r = c.RangeById(doc::Value::List({int64_t{1}, int64_t{3}}),
                       doc::Value::List({int64_t{1}, int64_t{7}}));
  ASSERT_EQ(r.size(), 5u);
  EXPECT_EQ(r.front()->Find("o")->as_int64(), 3);
  EXPECT_EQ(r.back()->Find("o")->as_int64(), 7);
}

TEST(CollectionTest, FindManyByIdMatchesFindById) {
  Collection c("c");
  for (int64_t id = 0; id < 400; id += 3) {
    c.Insert(User(id, "u", id % 50));
  }
  std::vector<doc::Value> ids;
  for (int64_t id : {-4, 0, 0, 1, 3, 4, 6, 6, 150, 151, 396, 399, 400, 900}) {
    ids.emplace_back(id);
  }
  std::vector<doc::KeyString> probes;
  for (const doc::Value& id : ids) {
    probes.push_back(doc::KeyString::Encode(id));
  }
  const std::vector<DocPtr> found = c.FindManyById(probes);
  ASSERT_EQ(found.size(), ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(found[i], c.FindById(ids[i])) << ids[i].ToJson();
  }
  EXPECT_EQ(found.front(), nullptr);  // -4
  EXPECT_EQ(found.back(), nullptr);   // 900
  EXPECT_TRUE(c.FindManyById({}).empty());
}

// Randomized churn keeps primary and secondary indexes consistent.
class CollectionChurnTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CollectionChurnTest, IndexesStayConsistent) {
  sim::Rng rng(GetParam());
  Collection c("churn");
  c.CreateIndex("by_a", {"a"});
  c.CreateIndex("by_ab", {"a", "b"});
  for (int i = 0; i < 3000; ++i) {
    const int64_t id = rng.UniformInt(0, 199);
    const double action = rng.NextDouble();
    if (action < 0.5) {
      c.Upsert(doc::Value::Doc({{"_id", id},
                                {"a", rng.UniformInt(0, 9)},
                                {"b", rng.UniformInt(0, 9)}}));
    } else if (action < 0.8) {
      doc::UpdateSpec spec;
      spec.Set("a", doc::Value(rng.UniformInt(0, 9)));
      c.Update(doc::Value(id), spec);
    } else {
      c.Remove(doc::Value(id));
    }
  }
  c.CheckInvariants();
}

INSTANTIATE_TEST_SUITE_P(Seeds, CollectionChurnTest,
                         ::testing::Values(11, 22, 33, 44));

TEST(DatabaseTest, GetOrCreateAndNames) {
  Database db;
  EXPECT_EQ(db.Get("users"), nullptr);
  Collection& users = db.GetOrCreate("users");
  EXPECT_EQ(&users, &db.GetOrCreate("users"));
  db.GetOrCreate("orders");
  EXPECT_EQ(db.CollectionNames(),
            (std::vector<std::string>{"orders", "users"}));
}

TEST(DatabaseTest, FingerprintDetectsDivergence) {
  Database a, b;
  a.GetOrCreate("t").Insert(User(1, "alice", 30));
  b.GetOrCreate("t").Insert(User(1, "alice", 30));
  EXPECT_EQ(a.Fingerprint(), b.Fingerprint());

  doc::UpdateSpec spec;
  spec.Set("age", doc::Value(int64_t{31}));
  b.Get("t")->Update(doc::Value(1), spec);
  EXPECT_NE(a.Fingerprint(), b.Fingerprint());

  a.Get("t")->Update(doc::Value(1), spec);
  EXPECT_EQ(a.Fingerprint(), b.Fingerprint());
}

TEST(DatabaseTest, FingerprintSensitiveToCollectionName) {
  Database a, b;
  a.GetOrCreate("x").Insert(User(1, "u", 1));
  b.GetOrCreate("y").Insert(User(1, "u", 1));
  EXPECT_NE(a.Fingerprint(), b.Fingerprint());
}

TEST(DatabaseTest, ResetFromClonesIndexesAndIsolatesWrites) {
  Database source;
  Collection& users = source.GetOrCreate("users");
  users.CreateIndex("by_age", {"age"});
  for (int64_t id = 0; id < 300; ++id) {
    users.Insert(User(id, "u", id % 7));
  }
  source.GetOrCreate("other").Insert(User(1, "x", 1));

  Database clone;
  clone.GetOrCreate("stale").Insert(User(9, "gone", 9));  // replaced
  clone.ResetFrom(source);
  EXPECT_EQ(clone.CollectionNames(), source.CollectionNames());
  EXPECT_EQ(clone.Fingerprint(), source.Fingerprint());
  Collection* copy = clone.Get("users");
  ASSERT_NE(copy, nullptr);
  copy->CheckInvariants();
  ASSERT_TRUE(copy->HasIndex("by_age"));

  // Every age bucket lists the same (shared) documents in the same order.
  auto scan = [](const Collection& c, int64_t age) {
    return c.IndexScan("by_age", {doc::Value(age)}, {doc::Value(age)});
  };
  std::vector<std::vector<DocPtr>> source_scans;
  for (int64_t age = 0; age < 7; ++age) {
    source_scans.push_back(scan(users, age));
    EXPECT_EQ(scan(*copy, age), source_scans.back()) << "age " << age;
    EXPECT_FALSE(source_scans.back().empty());
  }

  // Writes to the clone, indexed field included, stay in the clone.
  const uint64_t source_fp = source.Fingerprint();
  doc::UpdateSpec older;
  older.Set("age", doc::Value(int64_t{6}));
  ASSERT_TRUE(copy->Update(doc::Value(0), older));
  ASSERT_TRUE(copy->Remove(doc::Value(1)));
  ASSERT_TRUE(copy->Insert(User(1000, "new", 3)));
  for (int64_t id = 100; id < 200; ++id) copy->Remove(doc::Value(id));
  copy->CheckInvariants();
  users.CheckInvariants();
  EXPECT_EQ(source.Fingerprint(), source_fp);
  EXPECT_EQ(users.size(), 300u);
  EXPECT_EQ(users.FindById(doc::Value(0))->Find("age")->as_int64(), 0);
  EXPECT_NE(users.FindById(doc::Value(1)), nullptr);
  EXPECT_EQ(users.FindById(doc::Value(1000)), nullptr);
  for (int64_t age = 0; age < 7; ++age) {
    EXPECT_EQ(scan(users, age), source_scans[age]) << "age " << age;
  }
  EXPECT_NE(scan(*copy, 6), source_scans[6]);
}

}  // namespace
}  // namespace dcg::store
