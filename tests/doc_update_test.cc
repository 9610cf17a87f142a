// Tests for update operators ($set/$inc/$unset/$push/$max/$min).

#include <gtest/gtest.h>

#include "doc/update.h"

namespace dcg::doc {
namespace {

Value BaseDoc() {
  return Value::Doc({{"_id", 1}, {"n", 10}, {"s", "hello"}, {"d", 1.5}});
}

TEST(UpdateTest, SetOverwritesAndCreates) {
  Value d = BaseDoc();
  UpdateSpec spec;
  spec.Set("n", Value(int64_t{99})).Set("new_field", Value("x"));
  ASSERT_TRUE(spec.Apply(&d));
  EXPECT_EQ(d.Find("n")->as_int64(), 99);
  EXPECT_EQ(d.Find("new_field")->as_string(), "x");
}

TEST(UpdateTest, SetNestedPathCreatesIntermediates) {
  Value d = BaseDoc();
  UpdateSpec spec;
  spec.Set("a.b.c", Value(int64_t{5}));
  ASSERT_TRUE(spec.Apply(&d));
  EXPECT_EQ(d.FindPath("a.b.c")->as_int64(), 5);
}

TEST(UpdateTest, IncIntegers) {
  Value d = BaseDoc();
  UpdateSpec spec;
  spec.Inc("n", Value(int64_t{5})).Inc("n", Value(int64_t{-3}));
  ASSERT_TRUE(spec.Apply(&d));
  EXPECT_EQ(d.Find("n")->as_int64(), 12);
  EXPECT_TRUE(d.Find("n")->is_int64());  // stays integral
}

TEST(UpdateTest, IncMixedBecomesDouble) {
  Value d = BaseDoc();
  UpdateSpec spec;
  spec.Inc("n", Value(0.5));
  ASSERT_TRUE(spec.Apply(&d));
  EXPECT_DOUBLE_EQ(d.Find("n")->as_double(), 10.5);
}

TEST(UpdateTest, IncMissingFieldStartsFromValue) {
  Value d = BaseDoc();
  UpdateSpec spec;
  spec.Inc("counter", Value(int64_t{3}));
  ASSERT_TRUE(spec.Apply(&d));
  EXPECT_EQ(d.Find("counter")->as_int64(), 3);
}

TEST(UpdateTest, IncNonNumericFails) {
  Value d = BaseDoc();
  UpdateSpec spec;
  spec.Inc("s", Value(int64_t{1}));
  EXPECT_FALSE(spec.Apply(&d));
}

TEST(UpdateTest, UnsetRemovesField) {
  Value d = BaseDoc();
  UpdateSpec spec;
  spec.Unset("s").Unset("does_not_exist");
  ASSERT_TRUE(spec.Apply(&d));
  EXPECT_EQ(d.Find("s"), nullptr);
}

TEST(UpdateTest, PushAppendsAndCreatesArray) {
  Value d = BaseDoc();
  UpdateSpec spec;
  spec.Push("tags", Value("a")).Push("tags", Value("b"));
  ASSERT_TRUE(spec.Apply(&d));
  const Value* tags = d.Find("tags");
  ASSERT_NE(tags, nullptr);
  ASSERT_EQ(tags->as_array().size(), 2u);
  EXPECT_EQ(tags->as_array()[1].as_string(), "b");
}

TEST(UpdateTest, PushOntoNonArrayFails) {
  Value d = BaseDoc();
  UpdateSpec spec;
  spec.Push("n", Value(int64_t{1}));
  EXPECT_FALSE(spec.Apply(&d));
}

TEST(UpdateTest, MaxMin) {
  Value d = BaseDoc();
  UpdateSpec spec;
  spec.Max("n", Value(int64_t{5}))     // no change: 10 > 5
      .Max("n", Value(int64_t{20}))    // -> 20
      .Min("d", Value(0.5))            // -> 0.5
      .Min("d", Value(2.0))            // no change
      .Max("fresh", Value(int64_t{1}));  // created
  ASSERT_TRUE(spec.Apply(&d));
  EXPECT_EQ(d.Find("n")->as_int64(), 20);
  EXPECT_DOUBLE_EQ(d.Find("d")->as_double(), 0.5);
  EXPECT_EQ(d.Find("fresh")->as_int64(), 1);
}

TEST(UpdateTest, OpsApplyInOrder) {
  Value d = BaseDoc();
  UpdateSpec spec;
  spec.Set("n", Value(int64_t{1})).Inc("n", Value(int64_t{1}));
  ASSERT_TRUE(spec.Apply(&d));
  EXPECT_EQ(d.Find("n")->as_int64(), 2);
}

TEST(UpdateTest, ApplyToNonObjectFails) {
  Value v(int64_t{5});
  UpdateSpec spec;
  spec.Set("a", Value(int64_t{1}));
  EXPECT_FALSE(spec.Apply(&v));
}

TEST(UpdateTest, ReplayDeterminism) {
  // Applying the same spec to equal documents yields equal documents.
  UpdateSpec spec;
  spec.Inc("n", Value(int64_t{5})).Set("s", Value("replayed"));
  Value primary = BaseDoc();
  Value secondary = BaseDoc();
  ASSERT_TRUE(spec.Apply(&primary));
  ASSERT_TRUE(spec.Apply(&secondary));
  EXPECT_EQ(primary, secondary);
  EXPECT_EQ(primary.ToJson(), secondary.ToJson());
}

TEST(UpdateTest, EmptySpecIsNoop) {
  Value d = BaseDoc();
  const Value before = d;
  UpdateSpec spec;
  EXPECT_TRUE(spec.empty());
  ASSERT_TRUE(spec.Apply(&d));
  EXPECT_EQ(d, before);
}

}  // namespace
}  // namespace dcg::doc
