// Cross-cutting property tests: algebraic laws that must hold for any
// input — the document value total order, index-accelerated queries vs
// plain predicate evaluation, and histogram merge semantics.

#include <algorithm>
#include <tuple>

#include <gtest/gtest.h>

#include "core/controller.h"
#include "doc/key_string.h"
#include "doc/update.h"
#include "metrics/histogram.h"
#include "sim/random.h"
#include "store/collection.h"

namespace dcg {
namespace {

// Random value generator covering every type, with bounded nesting.
// Strings run from 0 to 40 bytes and often sit at the 14-byte edge of the
// inline string cell.
doc::Value RandomValue(sim::Rng* rng, int depth = 0) {
  const int64_t kind = rng->UniformInt(0, depth >= 3 ? 5 : 7);
  switch (kind) {
    case 0:
      return doc::Value();
    case 1:
      return doc::Value(rng->Bernoulli(0.5));
    case 2:
      return doc::Value(rng->UniformInt(-100, 100));
    case 3:
      return doc::Value(static_cast<double>(rng->UniformInt(-1000, 1000)) /
                        8.0);
    case 4: {
      std::string s;
      const int64_t len = rng->Bernoulli(0.3) ? rng->UniformInt(13, 15)
                                              : rng->UniformInt(0, 40);
      for (int64_t i = 0; i < len; ++i) {
        s.push_back(static_cast<char>('a' + rng->UniformInt(0, 3)));
      }
      return doc::Value(std::move(s));
    }
    case 5:
      return doc::Value::Timestamp(rng->UniformInt(0, 1000));
    case 6: {
      doc::Array a;
      const int64_t len = rng->UniformInt(0, 3);
      for (int64_t i = 0; i < len; ++i) {
        a.push_back(RandomValue(rng, depth + 1));
      }
      return doc::Value(std::move(a));
    }
    default: {
      doc::Object o;
      const int64_t len = rng->UniformInt(0, 3);
      for (int64_t i = 0; i < len; ++i) {
        o.Set(std::string(1, static_cast<char>('a' + i)),
              RandomValue(rng, depth + 1));
      }
      return doc::Value(std::move(o));
    }
  }
}

int Sign(int c) { return c < 0 ? -1 : (c > 0 ? 1 : 0); }

class ValueOrderTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ValueOrderTest, CompareIsATotalOrder) {
  sim::Rng rng(GetParam());
  for (int i = 0; i < 2000; ++i) {
    const doc::Value a = RandomValue(&rng);
    const doc::Value b = RandomValue(&rng);
    const doc::Value c = RandomValue(&rng);

    // Reflexivity & antisymmetry.
    EXPECT_EQ(a.Compare(a), 0);
    EXPECT_EQ(Sign(a.Compare(b)), -Sign(b.Compare(a)));

    // Consistency of operators with Compare.
    EXPECT_EQ(a == b, a.Compare(b) == 0);
    EXPECT_EQ(a < b, a.Compare(b) < 0);

    // Transitivity: sort the triple via Compare; pairwise order must
    // agree along the sorted sequence.
    std::vector<const doc::Value*> sorted = {&a, &b, &c};
    std::sort(sorted.begin(), sorted.end(),
              [](const doc::Value* x, const doc::Value* y) {
                return x->Compare(*y) < 0;
              });
    EXPECT_LE(sorted[0]->Compare(*sorted[1]), 0);
    EXPECT_LE(sorted[1]->Compare(*sorted[2]), 0);
    EXPECT_LE(sorted[0]->Compare(*sorted[2]), 0);
  }
}

// Copies are deep and equal to their source in every output the store
// reads; moves and self-assignment keep the value.
TEST_P(ValueOrderTest, CopiesAndMovesKeepTheValue) {
  sim::Rng rng(GetParam() + 100);
  for (int i = 0; i < 2000; ++i) {
    const doc::Value original = RandomValue(&rng);
    const std::string json = original.ToJson();
    const doc::KeyString key = doc::KeyString::Encode(original);

    doc::Value copy = original;
    EXPECT_EQ(copy.Compare(original), 0) << json;
    EXPECT_EQ(doc::KeyString::Encode(copy), key) << json;
    EXPECT_EQ(copy.ToJson(), json);
    EXPECT_EQ(copy.ApproxSize(), original.ApproxSize()) << json;
    // A copy is deep: growing it leaves the original as it was.
    if (copy.is_array()) copy.as_array().push_back(doc::Value(json));
    if (copy.is_object()) copy.Set("grown", doc::Value(json));
    EXPECT_EQ(original.ToJson(), json);

    copy = original;
    doc::Value moved = std::move(copy);
    EXPECT_EQ(moved.ToJson(), json);
    EXPECT_TRUE(copy.is_null());  // NOLINT(bugprone-use-after-move)
    doc::Value assigned;
    assigned = std::move(moved);
    EXPECT_EQ(assigned.ToJson(), json);

    const doc::Value& alias = assigned;
    assigned = alias;
    EXPECT_EQ(assigned.ToJson(), json);
    doc::Value& same = assigned;
    assigned = std::move(same);
    EXPECT_EQ(assigned.ToJson(), json);
    EXPECT_EQ(doc::KeyString::Encode(assigned), key) << json;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ValueOrderTest,
                         ::testing::Values(1u, 2u, 3u, 4u));

class IndexEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IndexEquivalenceTest, IndexedFindEqualsPredicateScan) {
  // The index fast path of Collection::Find must return exactly the
  // documents a brute-force Matches() scan selects, for arbitrary data
  // and random equality filters.
  sim::Rng rng(GetParam());
  store::Collection with_index("with_index");
  store::Collection without_index("without_index");
  with_index.CreateIndex("by_a", {"a"});
  with_index.CreateIndex("by_ab", {"a", "b"});

  for (int64_t id = 0; id < 500; ++id) {
    doc::Value d = doc::Value::Doc({{"_id", id},
                                    {"a", rng.UniformInt(0, 9)},
                                    {"b", rng.UniformInt(0, 4)}});
    if (rng.Bernoulli(0.1)) d.Erase("a");  // some docs miss the path
    with_index.Insert(d);
    without_index.Insert(d);
  }

  for (int trial = 0; trial < 50; ++trial) {
    doc::Filter filter =
        rng.Bernoulli(0.5)
            ? doc::Filter::Eq("a", doc::Value(rng.UniformInt(0, 10)))
            : doc::Filter::And(
                  {doc::Filter::Eq("a", doc::Value(rng.UniformInt(0, 10))),
                   doc::Filter::Eq("b", doc::Value(rng.UniformInt(0, 5)))});
    auto fast = with_index.Find(filter);
    auto slow = without_index.Find(filter);
    ASSERT_EQ(fast.size(), slow.size()) << filter.ToString();
    // Same document sets (order may differ: index order vs _id order).
    auto key = [](const store::DocPtr& d) {
      return d->Find("_id")->as_int64();
    };
    std::vector<int64_t> fast_ids, slow_ids;
    for (const auto& d : fast) fast_ids.push_back(key(d));
    for (const auto& d : slow) slow_ids.push_back(key(d));
    std::sort(fast_ids.begin(), fast_ids.end());
    std::sort(slow_ids.begin(), slow_ids.end());
    EXPECT_EQ(fast_ids, slow_ids) << filter.ToString();
  }
  with_index.CheckInvariants();
}

INSTANTIATE_TEST_SUITE_P(Seeds, IndexEquivalenceTest,
                         ::testing::Values(10u, 20u, 30u));

TEST(HistogramLawsTest, MergeEqualsCombinedAdds) {
  sim::Rng rng(70);
  metrics::Histogram split_a, split_b, combined;
  for (int i = 0; i < 20'000; ++i) {
    const double v = rng.Exponential(1e5);
    combined.Add(v);
    (i % 2 == 0 ? split_a : split_b).Add(v);
  }
  split_a.Merge(split_b);
  EXPECT_EQ(split_a.count(), combined.count());
  EXPECT_DOUBLE_EQ(split_a.sum(), combined.sum());
  EXPECT_DOUBLE_EQ(split_a.min(), combined.min());
  EXPECT_DOUBLE_EQ(split_a.max(), combined.max());
  for (double p : {25.0, 50.0, 80.0, 99.0}) {
    EXPECT_DOUBLE_EQ(split_a.Percentile(p), combined.Percentile(p)) << p;
  }
}

// --- Balance Fraction controller laws (Algorithm 1 and its proportional
// variant). The Read Balancer guarantees latest_fraction lies within
// [LOWBAL, HIGHBAL] on entry; the controllers must keep it there. ---

core::ControlInputs RandomInputs(sim::Rng* rng) {
  core::ControlInputs inputs;
  inputs.latest_fraction =
      core::kLowBal + rng->NextDouble() * (core::kHighBal - core::kLowBal);
  inputs.ratio = rng->NextDouble() * 4.0;  // spans well past the dead band
  inputs.ratio_valid = rng->Bernoulli(0.8);
  inputs.history_flat = rng->Bernoulli(0.3);
  return inputs;
}

class ControllerLawsTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ControllerLawsTest, OutputStaysWithinBounds) {
  sim::Rng rng(GetParam());
  core::BalancerConfig config;
  core::StepController step;
  core::ProportionalController proportional;
  for (int i = 0; i < 5000; ++i) {
    const core::ControlInputs inputs = RandomInputs(&rng);
    for (core::FractionController* controller :
         {static_cast<core::FractionController*>(&step),
          static_cast<core::FractionController*>(&proportional)}) {
      const double next = controller->NextFraction(inputs, config);
      EXPECT_GE(next, core::kLowBal) << controller->name();
      EXPECT_LE(next, core::kHighBal) << controller->name();
    }
  }
}

TEST_P(ControllerLawsTest, InvalidRatioAlwaysHolds) {
  // An empty latency list gives no evidence; the fraction must not move.
  sim::Rng rng(GetParam());
  core::BalancerConfig config;
  core::StepController step;
  core::ProportionalController proportional;
  for (int i = 0; i < 2000; ++i) {
    core::ControlInputs inputs = RandomInputs(&rng);
    inputs.ratio_valid = false;
    EXPECT_EQ(step.NextFraction(inputs, config), inputs.latest_fraction);
    EXPECT_EQ(proportional.NextFraction(inputs, config),
              inputs.latest_fraction);
  }
}

TEST_P(ControllerLawsTest, StepHoldsInsideDeadBandUnlessProbing) {
  sim::Rng rng(GetParam());
  core::BalancerConfig config;
  core::StepController step;
  for (int i = 0; i < 2000; ++i) {
    core::ControlInputs inputs = RandomInputs(&rng);
    inputs.ratio_valid = true;
    inputs.ratio = config.low_ratio +
                   rng.NextDouble() * (config.high_ratio - config.low_ratio);
    // Not flat: hold exactly.
    inputs.history_flat = false;
    EXPECT_EQ(step.NextFraction(inputs, config), inputs.latest_fraction);
    // Flat but probing disabled (the A2 ablation): still hold.
    inputs.history_flat = true;
    auto no_probe = config;
    no_probe.downward_probe = false;
    EXPECT_EQ(step.NextFraction(inputs, no_probe), inputs.latest_fraction);
  }
}

TEST_P(ControllerLawsTest, StepProbesDownOnlyWhenHistoryFlat) {
  sim::Rng rng(GetParam());
  core::BalancerConfig config;
  core::StepController step;
  for (int i = 0; i < 2000; ++i) {
    core::ControlInputs inputs = RandomInputs(&rng);
    inputs.ratio_valid = true;
    inputs.ratio = config.low_ratio +
                   rng.NextDouble() * (config.high_ratio - config.low_ratio);
    inputs.history_flat = true;
    const double next = step.NextFraction(inputs, config);
    EXPECT_DOUBLE_EQ(
        next, std::max(inputs.latest_fraction - core::kDelta, core::kLowBal));
    if (inputs.latest_fraction > core::kLowBal) {
      EXPECT_LT(next, inputs.latest_fraction);
    }
  }
}

TEST(ControllerLawsTest, StepMovesByExactlyDeltaOutsideDeadBand) {
  core::BalancerConfig config;
  core::StepController step;
  core::ControlInputs inputs;
  inputs.ratio_valid = true;
  inputs.latest_fraction = 0.50;
  inputs.ratio = config.high_ratio + 0.5;  // primary congested
  EXPECT_DOUBLE_EQ(step.NextFraction(inputs, config), 0.50 + core::kDelta);
  inputs.ratio = config.low_ratio - 0.5;  // secondaries congested
  EXPECT_DOUBLE_EQ(step.NextFraction(inputs, config), 0.50 - core::kDelta);
  // Saturation at the rails.
  inputs.latest_fraction = core::kHighBal;
  inputs.ratio = config.high_ratio + 1.0;
  EXPECT_DOUBLE_EQ(step.NextFraction(inputs, config), core::kHighBal);
  inputs.latest_fraction = core::kLowBal;
  inputs.ratio = config.low_ratio - 0.5;
  EXPECT_DOUBLE_EQ(step.NextFraction(inputs, config), core::kLowBal);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ControllerLawsTest,
                         ::testing::Values(80u, 81u, 82u));

TEST(HistogramLawsTest, PercentileIsMonotoneInP) {
  sim::Rng rng(71);
  metrics::Histogram h;
  for (int i = 0; i < 5000; ++i) h.Add(rng.LogNormal(1e4, 1.2));
  double prev = 0;
  for (double p = 0; p <= 100.0; p += 2.5) {
    const double v = h.Percentile(p);
    EXPECT_GE(v, prev) << p;
    prev = v;
  }
}

}  // namespace
}  // namespace dcg
