// Tests for FindWith (sort/limit/projection) and the CSV exporters.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exp/csv_export.h"
#include "exp/experiment.h"
#include "sim/random.h"
#include "store/collection.h"

namespace dcg {
namespace {

store::Collection MakePeople() {
  store::Collection people("people");
  people.Insert(doc::Value::Doc({{"_id", 1}, {"name", "carol"}, {"age", 41}}));
  people.Insert(doc::Value::Doc({{"_id", 2}, {"name", "alice"}, {"age", 30}}));
  people.Insert(doc::Value::Doc({{"_id", 3}, {"name", "bob"}, {"age", 30}}));
  people.Insert(doc::Value::Doc({{"_id", 4}, {"name", "dave"}}));  // no age
  people.Insert(doc::Value::Doc({{"_id", 5}, {"name", "erin"}, {"age", 22}}));
  return people;
}

TEST(FindWithTest, DefaultsReturnWholeDocsInIdOrder) {
  store::Collection people = MakePeople();
  auto out = people.FindWith(doc::Filter::True(), {});
  ASSERT_EQ(out.size(), 5u);
  EXPECT_EQ(out[0].Find("_id")->as_int64(), 1);
  EXPECT_EQ(out[0].Find("name")->as_string(), "carol");
}

TEST(FindWithTest, SortAscendingMissingFirst) {
  store::Collection people = MakePeople();
  store::FindOptions options;
  options.sort_path = "age";
  auto out = people.FindWith(doc::Filter::True(), options);
  ASSERT_EQ(out.size(), 5u);
  EXPECT_EQ(out[0].Find("name")->as_string(), "dave");  // missing age
  EXPECT_EQ(out[1].Find("name")->as_string(), "erin");  // 22
  EXPECT_EQ(out.back().Find("name")->as_string(), "carol");  // 41
}

TEST(FindWithTest, SortDescendingWithStableTies) {
  store::Collection people = MakePeople();
  store::FindOptions options;
  options.sort_path = "age";
  options.sort_descending = true;
  auto out = people.FindWith(doc::Filter::True(), options);
  EXPECT_EQ(out[0].Find("name")->as_string(), "carol");
  // Tied ages (alice, bob) keep _id order (stable sort).
  EXPECT_EQ(out[1].Find("name")->as_string(), "alice");
  EXPECT_EQ(out[2].Find("name")->as_string(), "bob");
}

TEST(FindWithTest, LimitAppliesAfterSort) {
  store::Collection people = MakePeople();
  store::FindOptions options;
  options.sort_path = "age";
  options.sort_descending = true;
  options.limit = 2;
  auto out = people.FindWith(doc::Filter::True(), options);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].Find("name")->as_string(), "carol");
  EXPECT_EQ(out[1].Find("name")->as_string(), "alice");
}

TEST(FindWithTest, FilterPlusSort) {
  store::Collection people = MakePeople();
  store::FindOptions options;
  options.sort_path = "name";
  auto out =
      people.FindWith(doc::Filter::Gte("age", doc::Value(30)), options);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].Find("name")->as_string(), "alice");
  EXPECT_EQ(out[2].Find("name")->as_string(), "carol");
}

TEST(FindWithTest, ProjectionKeepsIdAndListedFields) {
  store::Collection people = MakePeople();
  store::FindOptions options;
  options.projection = {"name"};
  auto out = people.FindWith(doc::Filter::Eq("_id", doc::Value(2)), options);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_NE(out[0].Find("_id"), nullptr);
  EXPECT_NE(out[0].Find("name"), nullptr);
  EXPECT_EQ(out[0].Find("age"), nullptr);  // projected away
}

TEST(FindWithTest, ProjectionOfMissingFieldOmitsIt) {
  store::Collection people = MakePeople();
  store::FindOptions options;
  options.projection = {"age"};
  auto out = people.FindWith(doc::Filter::Eq("_id", doc::Value(4)), options);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].Find("age"), nullptr);
  EXPECT_NE(out[0].Find("_id"), nullptr);
}

int CountLines(const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) return -1;
  int lines = 0;
  std::string line;
  while (std::getline(in, line)) ++lines;
  return lines;
}

TEST(CsvExportTest, WritesAllThreeFiles) {
  exp::ExperimentConfig config;
  config.seed = 3;
  config.kind = exp::WorkloadKind::kYcsb;
  config.phases = {{0, 10, 0.5}};
  config.duration = sim::Seconds(60);
  exp::Experiment experiment(config);
  experiment.Run();

  const std::string prefix = ::testing::TempDir() + "/dcg_csv";
  ASSERT_TRUE(exp::WritePeriodsCsv(experiment, prefix + "_p.csv"));
  ASSERT_TRUE(exp::WriteStalenessCsv(experiment, prefix + "_s.csv"));
  ASSERT_TRUE(exp::WriteSamplesCsv(experiment, prefix + "_x.csv"));

  // Units comment + header + one row per period (6 x 10 s).
  EXPECT_EQ(CountLines(prefix + "_p.csv"), 8);
  // Units comment + header + ~one row per second.
  EXPECT_GE(CountLines(prefix + "_s.csv"), 56);
  // Units comment + header + one row per probe (5/s).
  EXPECT_GE(CountLines(prefix + "_x.csv"), 201);

  // Units comment then header-fields sanity.
  std::ifstream in(prefix + "_p.csv");
  std::string units;
  std::getline(in, units);
  EXPECT_EQ(units.rfind("# units:", 0), 0u);
  std::string header;
  std::getline(in, header);
  EXPECT_NE(header.find("read_throughput"), std::string::npos);
  EXPECT_NE(header.find("balance_fraction"), std::string::npos);
}

TEST(CsvExportTest, FailsOnUnwritablePath) {
  exp::ExperimentConfig config;
  config.kind = exp::WorkloadKind::kYcsb;
  config.phases = {{0, 2, 0.5}};
  config.duration = sim::Seconds(10);
  exp::Experiment experiment(config);
  experiment.Run();
  EXPECT_FALSE(
      exp::WritePeriodsCsv(experiment, "/nonexistent-dir/out.csv"));
}

TEST(CsvExportTest, FailsOnFullDisk) {
  // /dev/full opens fine and fails every write with ENOSPC: a writer that
  // checks only fopen would report success.
  exp::ExperimentConfig config;
  config.kind = exp::WorkloadKind::kYcsb;
  config.phases = {{0, 2, 0.5}};
  config.duration = sim::Seconds(10);
  exp::Experiment experiment(config);
  experiment.Run();
  const std::string full = "/dev/full";
  EXPECT_FALSE(exp::WritePeriodsCsv(experiment, full));
  EXPECT_FALSE(exp::WriteStalenessCsv(experiment, full));
  EXPECT_FALSE(exp::WriteSamplesCsv(experiment, full));
  EXPECT_FALSE(exp::WriteDecisionsCsv(experiment, full));
  EXPECT_FALSE(exp::WriteShardsCsv(experiment, full));
  EXPECT_FALSE(exp::WriteSloCsv(experiment, full));
}

// --- FindWith top-k equivalence ---------------------------------------------
//
// The top-k fast path (single key extraction + partial_sort over decorated
// entries) must return byte-identical results to the reference semantics:
// a full stable sort on the extracted key followed by truncation to the
// limit. Random documents exercise missing sort paths (Null-first), heavy
// ties, both directions, and every limit regime (0, <n, =n, >n).

doc::Value TopkDoc(int64_t id, sim::Rng& rng) {
  doc::Value d = doc::Value::Doc({{"_id", id}});
  // ~1 in 5 documents misses the sort path entirely; the small value range
  // forces ties, and occasional doubles mix numeric representations.
  if (rng.UniformInt(0, 4) != 0) {
    d.Set("score", doc::Value(rng.UniformInt(0, 9)));
  }
  if (rng.UniformInt(0, 9) == 0) {
    d.Set("score", doc::Value(static_cast<double>(rng.UniformInt(0, 9)) + 0.5));
  }
  return d;
}

// Reference implementation: stable_sort over (possibly missing) keys, then
// truncate — exactly what Collection::FindWith did before the top-k path.
std::vector<int64_t> OracleTopk(const std::vector<doc::Value>& docs,
                                const std::string& path, bool descending,
                                size_t limit) {
  static const doc::Value kNull;
  std::vector<doc::Value> sorted = docs;
  std::stable_sort(sorted.begin(), sorted.end(),
                   [&](const doc::Value& a, const doc::Value& b) {
                     const doc::Value* va = a.FindPath(path);
                     const doc::Value* vb = b.FindPath(path);
                     const int c = (va != nullptr ? *va : kNull)
                                       .Compare(vb != nullptr ? *vb : kNull);
                     return descending ? c > 0 : c < 0;
                   });
  if (sorted.size() > limit) sorted.resize(limit);
  std::vector<int64_t> ids;
  ids.reserve(sorted.size());
  for (const auto& d : sorted) ids.push_back(d.Find("_id")->as_int64());
  return ids;
}

TEST(FindWithTopkTest, MatchesFullSortOracle) {
  sim::Rng rng(1337);
  for (int round = 0; round < 20; ++round) {
    const int n = static_cast<int>(rng.UniformInt(0, 200));
    store::Collection coll("topk");
    std::vector<doc::Value> docs;
    for (int i = 0; i < n; ++i) {
      docs.push_back(TopkDoc(i, rng));
      coll.Insert(docs.back());
    }
    const size_t limits[] = {0,
                             1,
                             3,
                             static_cast<size_t>(n > 0 ? n - 1 : 0),
                             static_cast<size_t>(n),
                             static_cast<size_t>(n) + 7,
                             SIZE_MAX};
    for (const bool descending : {false, true}) {
      for (const size_t limit : limits) {
        store::FindOptions options;
        options.sort_path = "score";
        options.sort_descending = descending;
        options.limit = limit;
        const auto out = coll.FindWith(doc::Filter::True(), options);
        const auto expected = OracleTopk(docs, "score", descending, limit);
        ASSERT_EQ(out.size(), expected.size())
            << "round=" << round << " n=" << n << " desc=" << descending
            << " limit=" << limit;
        for (size_t i = 0; i < out.size(); ++i) {
          ASSERT_EQ(out[i].Find("_id")->as_int64(), expected[i])
              << "round=" << round << " n=" << n << " desc=" << descending
              << " limit=" << limit << " i=" << i;
        }
      }
    }
  }
}

TEST(FindWithTopkTest, TiesKeepIdOrderUnderLimit) {
  store::Collection coll("ties");
  for (int64_t id = 0; id < 50; ++id) {
    coll.Insert(doc::Value::Doc({{"_id", id}, {"score", id % 2}}));
  }
  store::FindOptions options;
  options.sort_path = "score";
  options.limit = 10;
  const auto out = coll.FindWith(doc::Filter::True(), options);
  ASSERT_EQ(out.size(), 10u);
  // score 0 is every even id; ties must surface in _id order.
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].Find("_id")->as_int64(), static_cast<int64_t>(2 * i));
  }
}

TEST(FindWithTopkTest, MissingPathSortsFirstEvenWithLimit) {
  store::Collection coll("missing");
  coll.Insert(doc::Value::Doc({{"_id", 1}, {"score", 5}}));
  coll.Insert(doc::Value::Doc({{"_id", 2}}));
  coll.Insert(doc::Value::Doc({{"_id", 3}, {"score", 1}}));
  coll.Insert(doc::Value::Doc({{"_id", 4}}));
  store::FindOptions options;
  options.sort_path = "score";
  options.limit = 3;
  const auto out = coll.FindWith(doc::Filter::True(), options);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].Find("_id")->as_int64(), 2);  // Null first, id order
  EXPECT_EQ(out[1].Find("_id")->as_int64(), 4);
  EXPECT_EQ(out[2].Find("_id")->as_int64(), 3);
}

}  // namespace
}  // namespace dcg
