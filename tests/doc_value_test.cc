// Tests for the document value model.

#include <cstdint>
#include <cstdlib>
#include <limits>
#include <new>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "doc/key_string.h"
#include "doc/path.h"
#include "doc/value.h"

namespace {
/// Heap allocations, their bytes, and frees counted while armed (the
/// binary is single-threaded).
bool g_count_allocs = false;
uint64_t g_allocs = 0;
uint64_t g_alloc_bytes = 0;
uint64_t g_frees = 0;
}  // namespace

// Pass-through global allocator that counts calls only while armed, so a
// test can pin the blocks a value owns. Kept out of line so the compiler
// pairs each new with its delete, not with the malloc/free inside.
[[gnu::noinline]] void* operator new(std::size_t size) {
  if (g_count_allocs) {
    ++g_allocs;
    g_alloc_bytes += size;
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept {
  if (g_count_allocs && p != nullptr) ++g_frees;
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  if (g_count_allocs && p != nullptr) ++g_frees;
  std::free(p);
}

namespace dcg::doc {
namespace {

/// Counts the heap blocks, and their bytes, that `fn` allocates.
template <typename Fn>
std::pair<uint64_t, uint64_t> Allocations(Fn&& fn) {
  g_allocs = 0;
  g_alloc_bytes = 0;
  g_frees = 0;
  g_count_allocs = true;
  fn();
  g_count_allocs = false;
  return {g_allocs, g_alloc_bytes};
}

TEST(ValueTest, TypesAreRecognized) {
  EXPECT_TRUE(Value().is_null());
  EXPECT_TRUE(Value(true).is_bool());
  EXPECT_TRUE(Value(int64_t{7}).is_int64());
  EXPECT_TRUE(Value(3.5).is_double());
  EXPECT_TRUE(Value("hi").is_string());
  EXPECT_TRUE(Value::Timestamp(9).is_timestamp());
  EXPECT_TRUE(Value(Array{}).is_array());
  EXPECT_TRUE(Value(Object{}).is_object());
  EXPECT_TRUE(Value(int64_t{1}).is_number());
  EXPECT_TRUE(Value(1.0).is_number());
  EXPECT_FALSE(Value("1").is_number());
}

TEST(ValueTest, Accessors) {
  EXPECT_EQ(Value(true).as_bool(), true);
  EXPECT_EQ(Value(int64_t{42}).as_int64(), 42);
  EXPECT_DOUBLE_EQ(Value(2.25).as_double(), 2.25);
  EXPECT_EQ(Value("abc").as_string(), "abc");
  EXPECT_EQ(Value::Timestamp(123).as_timestamp(), 123);
  EXPECT_DOUBLE_EQ(Value(int64_t{3}).as_number(), 3.0);
  EXPECT_DOUBLE_EQ(Value(0.5).as_number(), 0.5);
}

TEST(ValueTest, IntLiteralBecomesInt64) {
  Value v(5);
  EXPECT_TRUE(v.is_int64());
  EXPECT_EQ(v.as_int64(), 5);
}

TEST(ValueTest, CanonicalTypeOrder) {
  // Null < Bool < Number < String < Timestamp < Array < Object.
  std::vector<Value> ascending = {
      Value(), Value(false), Value(int64_t{5}), Value("a"),
      Value::Timestamp(0), Value(Array{}), Value(Object{})};
  for (size_t i = 0; i + 1 < ascending.size(); ++i) {
    EXPECT_LT(ascending[i], ascending[i + 1]) << i;
    EXPECT_GT(ascending[i + 1], ascending[i]) << i;
  }
}

TEST(ValueTest, NumericComparisonMixesIntAndDouble) {
  EXPECT_EQ(Value(int64_t{2}), Value(2.0));
  EXPECT_LT(Value(int64_t{2}), Value(2.5));
  EXPECT_GT(Value(3.5), Value(int64_t{3}));
}

TEST(ValueTest, NaNEqualsOnlyNaNAndSortsBelowEveryNumber) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(Value(nan), Value(nan));
  EXPECT_EQ(Value(nan), Value(-nan));
  for (const Value& number :
       {Value(-inf), Value(-1.5), Value(0.0), Value(inf), Value(int64_t{0}),
        Value(std::numeric_limits<int64_t>::min())}) {
    EXPECT_LT(Value(nan), number) << number.ToJson();
    EXPECT_GT(number, Value(nan)) << number.ToJson();
  }
  EXPECT_GT(Value(nan), Value(true));  // still a number, above Bool
}

TEST(ValueTest, IntDoubleComparisonIsExact) {
  constexpr int64_t kTwo53 = int64_t{1} << 53;
  const double two53 = 9007199254740992.0;
  // 2^53 + 1 is not a double; a lossy cast would make it equal 2^53.
  EXPECT_GT(Value(kTwo53 + 1), Value(two53));
  EXPECT_LT(Value(two53), Value(kTwo53 + 1));
  EXPECT_EQ(Value(kTwo53), Value(two53));
  EXPECT_LT(Value(kTwo53 - 1), Value(two53));
  EXPECT_LT(Value(-kTwo53 - 1), Value(-two53));
  EXPECT_GT(Value(int64_t{3}), Value(2.999999999999999));
  EXPECT_LT(Value(int64_t{-3}), Value(-2.999999999999999));
  // The int64 range ends: 2^63 is a double but not an int64.
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  EXPECT_LT(Value(kMax), Value(9223372036854775808.0));
  EXPECT_EQ(Value(kMin), Value(-9223372036854775808.0));
  EXPECT_GT(Value(kMin), Value(-std::numeric_limits<double>::infinity()));
  EXPECT_EQ(Value(0.0), Value(-0.0));
  EXPECT_EQ(Value(int64_t{0}), Value(-0.0));
}

TEST(ValueTest, NumericOrderIsTransitive) {
  constexpr int64_t kTwo53 = int64_t{1} << 53;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  // Ascending, with ties.
  const std::vector<Value> numbers = {
      Value(nan), Value(-inf), Value(-9223372036854775808.0),
      Value(std::numeric_limits<int64_t>::min()), Value(-kTwo53 - 1),
      Value(-9007199254740992.0), Value(-kTwo53), Value(-2.5),
      Value(int64_t{-2}), Value(-0.0), Value(int64_t{0}), Value(0.5),
      Value(int64_t{1}), Value(1.0), Value(kTwo53 - 1),
      Value(9007199254740992.0), Value(kTwo53), Value(kTwo53 + 1),
      Value(9007199254740994.0), Value(std::numeric_limits<int64_t>::max()),
      Value(9223372036854775808.0), Value(inf)};
  for (size_t i = 0; i + 1 < numbers.size(); ++i) {
    EXPECT_LE(numbers[i], numbers[i + 1]) << i;
  }
  for (const Value& a : numbers) {
    EXPECT_EQ(a.Compare(a), 0) << a.ToJson();
    for (const Value& b : numbers) {
      EXPECT_EQ(a.Compare(b), -b.Compare(a)) << a.ToJson() << " " << b.ToJson();
      for (const Value& c : numbers) {
        if (a <= b && b <= c) {
          EXPECT_LE(a, c) << a.ToJson() << " " << b.ToJson() << " "
                          << c.ToJson();
        }
        if (a == b && b == c) {
          EXPECT_EQ(a, c);
        }
      }
    }
  }
}

TEST(ValueTest, StringComparison) {
  EXPECT_LT(Value("abc"), Value("abd"));
  EXPECT_LT(Value("ab"), Value("abc"));
  EXPECT_EQ(Value("x"), Value("x"));
}

TEST(ValueTest, ArrayComparisonIsLexicographic) {
  EXPECT_LT(Value::List({1, 2}), Value::List({1, 3}));
  EXPECT_LT(Value::List({1, 2}), Value::List({1, 2, 0}));  // prefix < longer
  EXPECT_EQ(Value::List({1, 2}), Value::List({1, 2}));
  EXPECT_LT(Value::List({1, 99}), Value::List({2}));
}

TEST(ValueTest, ObjectComparisonByFieldThenValue) {
  EXPECT_EQ(Value::Doc({{"a", 1}}), Value::Doc({{"a", 1}}));
  EXPECT_LT(Value::Doc({{"a", 1}}), Value::Doc({{"a", 2}}));
  EXPECT_LT(Value::Doc({{"a", 1}}), Value::Doc({{"b", 1}}));
  EXPECT_LT(Value::Doc({{"a", 1}}), Value::Doc({{"a", 1}, {"b", 1}}));
}

TEST(ValueTest, FindAndSet) {
  Value d = Value::Doc({{"a", 1}, {"b", "x"}});
  ASSERT_NE(d.Find("a"), nullptr);
  EXPECT_EQ(d.Find("a")->as_int64(), 1);
  EXPECT_EQ(d.Find("missing"), nullptr);
  d.Set("a", Value(int64_t{9}));
  EXPECT_EQ(d.Find("a")->as_int64(), 9);
  d.Set("c", Value(true));
  EXPECT_EQ(d.Find("c")->as_bool(), true);
  ASSERT_EQ(d.as_object().size(), 3u);
  EXPECT_EQ(d.as_object().name(2), "c");
}

TEST(ValueTest, FindOnNonObjectReturnsNull) {
  EXPECT_EQ(Value(int64_t{5}).Find("a"), nullptr);
}

TEST(ValueTest, FindPathNested) {
  Value d = Value::Doc(
      {{"a", Value::Doc({{"b", Value::Doc({{"c", 42}})}})}});
  ASSERT_NE(d.FindPath("a.b.c"), nullptr);
  EXPECT_EQ(d.FindPath("a.b.c")->as_int64(), 42);
  EXPECT_EQ(d.FindPath("a.b.missing"), nullptr);
  EXPECT_EQ(d.FindPath("a.x.c"), nullptr);
}

TEST(ValueTest, FindPathIndexesArrays) {
  Value d = Value::Doc({{"items", Value::List({Value::Doc({{"q", 3}}),
                                               Value::Doc({{"q", 5}})})}});
  ASSERT_NE(d.FindPath("items.1.q"), nullptr);
  EXPECT_EQ(d.FindPath("items.1.q")->as_int64(), 5);
  EXPECT_EQ(d.FindPath("items.2.q"), nullptr);   // out of range
  EXPECT_EQ(d.FindPath("items.xx.q"), nullptr);  // non-numeric segment
}

TEST(ValueTest, SetPathCreatesIntermediates) {
  Value d = Value::Doc({});
  d.SetPath("a.b.c", Value(int64_t{1}));
  ASSERT_NE(d.FindPath("a.b.c"), nullptr);
  EXPECT_EQ(d.FindPath("a.b.c")->as_int64(), 1);
  d.SetPath("a.b.c", Value(int64_t{2}));
  EXPECT_EQ(d.FindPath("a.b.c")->as_int64(), 2);
}

TEST(ValueTest, Erase) {
  Value d = Value::Doc({{"a", 1}, {"b", 2}});
  EXPECT_TRUE(d.Erase("a"));
  EXPECT_FALSE(d.Erase("a"));
  EXPECT_EQ(d.Find("a"), nullptr);
  EXPECT_NE(d.Find("b"), nullptr);
}

TEST(ValueTest, ToJson) {
  Value d = Value::Doc({{"i", 3},
                        {"s", "a\"b"},
                        {"b", true},
                        {"n", Value()},
                        {"arr", Value::List({1, 2})},
                        {"ts", Value::Timestamp(5)}});
  EXPECT_EQ(d.ToJson(),
            R"({"i":3,"s":"a\"b","b":true,"n":null,"arr":[1,2],)"
            R"("ts":{"$ts":5}})");
}

TEST(ValueTest, ApproxSizeGrowsWithContent) {
  const Value small = Value::Doc({{"a", 1}});
  const Value big = Value::Doc({{"a", std::string(1000, 'x')}});
  EXPECT_GT(big.ApproxSize(), small.ApproxSize() + 900);
}

TEST(ValueTest, FieldOrderIsPreservedAndSignificant) {
  const Value ab = Value::Doc({{"a", 1}, {"b", 2}});
  const Value ba = Value::Doc({{"b", 2}, {"a", 1}});
  EXPECT_NE(ab, ba);  // BSON-like: field order matters
  EXPECT_EQ(ab.as_object().name(0), "a");
  EXPECT_EQ(ba.as_object().name(0), "b");
}

// A document built from a held shape is indistinguishable from the same
// fields built one by one: every output the store and the goldens read.
TEST(ShapeTest, ShapedDocumentEqualsFieldByFieldDocument) {
  const ShapeRef shape({"_id", "s", "n", "arr", "sub", "ts"});
  const Value shaped = Value::Doc(
      shape, {7, "x", Value(), Value::List({1, 2.5}),
              Value::Doc({{"q", 3}}), Value::Timestamp(9)});
  const Value plain = Value::Doc({{"_id", 7},
                                  {"s", "x"},
                                  {"n", Value()},
                                  {"arr", Value::List({1, 2.5})},
                                  {"sub", Value::Doc({{"q", 3}})},
                                  {"ts", Value::Timestamp(9)}});
  EXPECT_NE(shaped.as_object().shape(), plain.as_object().shape());
  EXPECT_EQ(shaped.Compare(plain), 0);
  EXPECT_EQ(plain.Compare(shaped), 0);
  EXPECT_EQ(shaped.ToJson(), plain.ToJson());
  EXPECT_EQ(KeyString::Encode(shaped), KeyString::Encode(plain));
  EXPECT_EQ(shaped.ApproxSize(), plain.ApproxSize());
  // Same shape, different values: the value decides.
  EXPECT_LT(shaped, Value::Doc(shape, {8, "a", 0, 0, 0, 0}));
}

TEST(ShapeTest, CopiesShareTheShape) {
  const ShapeRef shape({"a", "b"});
  const Value d = Value::Doc(shape, {1, 2});
  const Value copy = d;  // NOLINT(performance-unnecessary-copy-initialization)
  EXPECT_EQ(d.as_object().shape(), shape.get());
  EXPECT_EQ(copy.as_object().shape(), shape.get());
  EXPECT_EQ(Value::Doc(shape, {3, 4}).as_object().shape(), shape.get());
}

TEST(ShapeTest, SetInPlaceKeepsTheShape) {
  const ShapeRef shape({"a", "b"});
  Value d = Value::Doc(shape, {1, 2});
  d.Set("b", 5);
  EXPECT_EQ(d.as_object().shape(), shape.get());
  EXPECT_EQ(d.Find("b")->as_int64(), 5);
}

TEST(ShapeTest, SetOfANewFieldOnACopyLeavesTheOriginal) {
  const Value original = Value::Doc({{"a", 1}, {"b", 2}});
  const Shape* shape = original.as_object().shape();
  Value copy = original;
  copy.Set("c", 3);
  copy.Set("a", 9);
  EXPECT_NE(copy.as_object().shape(), shape);
  EXPECT_EQ(copy.ToJson(), R"({"a":9,"b":2,"c":3})");
  EXPECT_EQ(original.as_object().shape(), shape);
  ASSERT_EQ(original.as_object().size(), 2u);
  EXPECT_EQ(original.as_object().name(0), "a");
  EXPECT_EQ(original.as_object().name(1), "b");
  EXPECT_EQ(original.ToJson(), R"({"a":1,"b":2})");
}

TEST(ShapeTest, EraseOnACopyLeavesTheOriginal) {
  const Value original = Value::Doc({{"a", 1}, {"b", 2}, {"c", 3}});
  const Shape* shape = original.as_object().shape();
  Value copy = original;
  EXPECT_TRUE(copy.Erase("b"));
  EXPECT_EQ(copy.ToJson(), R"({"a":1,"c":3})");
  EXPECT_EQ(original.as_object().shape(), shape);
  ASSERT_EQ(original.as_object().size(), 3u);
  EXPECT_EQ(original.as_object().name(1), "b");
  EXPECT_EQ(original.ToJson(), R"({"a":1,"b":2,"c":3})");
}

TEST(ShapeTest, DocWithTheWrongValueCountAborts) {
  const ShapeRef shape({"a", "b"});
  EXPECT_DEATH(Value::Doc(shape, {1}), "1 values for a shape of 2 names");
  EXPECT_DEATH(Value::Doc(shape, {1, 2, 3}), "3 values for a shape of 2");
  EXPECT_DEATH(Value::Doc(ShapeRef(), {1}), "1 values for a shape of 0");
}

// A TPC-C order as the workload builds it: _id [w, d, o], eight scalars
// and ten order lines, each line an object on a shared shape.
Value TenLineOrder(const ShapeRef& order_shape, const ShapeRef& line_shape) {
  Array lines;
  lines.reserve(10);
  for (int64_t l = 1; l <= 10; ++l) {
    lines.push_back(Value::Doc(line_shape, {l * 7, int64_t{5}, 12.5 * l}));
  }
  Array values;
  values.reserve(order_shape->size());
  values.push_back(Value::List({int64_t{1}, int64_t{2}, int64_t{3001}}));
  values.emplace_back(int64_t{1});
  values.emplace_back(int64_t{2});
  values.emplace_back(int64_t{42});
  values.push_back(Value::Timestamp(9));
  values.emplace_back(int64_t{10});
  values.emplace_back();
  values.emplace_back();
  values.emplace_back(std::move(lines));
  return Value(Object(order_shape, std::move(values)));
}

// One block per object and per array, each a header word plus 16 bytes a
// field: the order's own 9 fields, its _id, its lines array and 10 lines.
TEST(ValueLayoutTest, TenLineOrderIsThirteenExactBlocks) {
  const ShapeRef order_shape(
      {"_id", "o_w_id", "o_d_id", "o_c_id", "o_entry_d", "o_ol_cnt",
       "o_carrier_id", "o_delivery_d", "o_lines"});
  const ShapeRef line_shape({"ol_i_id", "ol_quantity", "ol_amount"});
  Value order;
  const auto [blocks, bytes] =
      Allocations([&] { order = TenLineOrder(order_shape, line_shape); });
  EXPECT_EQ(blocks, 13u);
  EXPECT_EQ(bytes, (8 + 9 * 16) + (8 + 3 * 16) + (8 + 10 * 16) +
                       10 * (8 + 3 * 16));
  EXPECT_EQ(order.FindPath("o_lines.9.ol_i_id")->as_int64(), 70);

  // A copy is deep and allocates what the build did; a move allocates
  // nothing and leaves the source null.
  Value copy;
  EXPECT_EQ(Allocations([&] { copy = order; }),
            std::make_pair(blocks, bytes));
  EXPECT_EQ(copy, order);
  Value moved;
  EXPECT_EQ(Allocations([&] { moved = std::move(copy); }),
            std::make_pair(uint64_t{0}, uint64_t{0}));
  EXPECT_EQ(moved, order);
  EXPECT_TRUE(copy.is_null());  // NOLINT(bugprone-use-after-move)
}

// A TPC-C stock row as the workload loads it: _id [w, i] and four counts.
Value StockDocument(const ShapeRef& stock_shape) {
  return Value::Doc(stock_shape, {Value::List({1, 42}), int64_t{57},
                                  int64_t{0}, int64_t{0}, int64_t{0}});
}

/// Blocks that `fn` allocates and does not free.
template <typename Fn>
int64_t LiveBlocks(Fn&& fn) {
  const uint64_t allocs = Allocations(std::forward<Fn>(fn)).first;
  return static_cast<int64_t>(allocs) - static_cast<int64_t>(g_frees);
}

// The count, the root cell, and the root object's shape and fields share
// one block; only the _id array keeps its own. A shared_ptr made three.
TEST(DocPtrTest, StockDocumentIsTwoBlocks) {
  const ShapeRef stock_shape(
      {"_id", "s_quantity", "s_ytd", "s_order_cnt", "s_remote_cnt"});
  DocPtr d;
  EXPECT_EQ(LiveBlocks([&] { d = DocPtr::Make(StockDocument(stock_shape)); }),
            2);
  // Make allocated the document block and freed the builder's object
  // block: 8 + 16 for the count and root cell, 8 + 5 * 16 for the object.
  Value built = StockDocument(stock_shape);
  DocPtr e;
  EXPECT_EQ(Allocations([&] { e = DocPtr::Make(std::move(built)); }),
            std::make_pair(uint64_t{1}, uint64_t{24 + 8 + 5 * 16}));
  EXPECT_EQ(g_frees, 1u);
  EXPECT_EQ(*e, *d);
  EXPECT_EQ(*d, StockDocument(stock_shape));
  EXPECT_EQ(d->Find("s_quantity")->as_int64(), 57);
  EXPECT_EQ(d->as_object().shape(), stock_shape.get());
}

TEST(DocPtrTest, TenLineOrderIsThirteenBlocks) {
  const ShapeRef order_shape(
      {"_id", "o_w_id", "o_d_id", "o_c_id", "o_entry_d", "o_ol_cnt",
       "o_carrier_id", "o_delivery_d", "o_lines"});
  const ShapeRef line_shape({"ol_i_id", "ol_quantity", "ol_amount"});
  DocPtr d;
  EXPECT_EQ(LiveBlocks([&] {
              d = DocPtr::Make(TenLineOrder(order_shape, line_shape));
            }),
            13);
  EXPECT_EQ(*d, TenLineOrder(order_shape, line_shape));
  EXPECT_EQ(d->FindPath("o_lines.9.ol_i_id")->as_int64(), 70);
}

// Handles share the one document: no copy, move or assignment allocates,
// and every holder reads the same cell.
TEST(DocPtrTest, CopiesMovesAndAssignmentsShareTheDocument) {
  const DocPtr d = DocPtr::Make(Value::Doc({{"_id", 1}, {"v", "x"}}));
  const Value* doc = d.get();
  DocPtr copy, moved, assigned;
  EXPECT_EQ(Allocations([&] {
              DocPtr constructed(d);
              copy = constructed;
              moved = std::move(constructed);
              assigned = d;
              assigned = copy;
            }),
            std::make_pair(uint64_t{0}, uint64_t{0}));
  EXPECT_EQ(g_frees, 0u);
  EXPECT_EQ(copy.get(), doc);
  EXPECT_EQ(moved.get(), doc);
  EXPECT_EQ(assigned.get(), doc);
  EXPECT_EQ(copy, d);
  EXPECT_EQ(d.use_count(), 4);
}

TEST(DocPtrTest, UseCountCountsHolders) {
  DocPtr none;
  EXPECT_EQ(none, nullptr);
  EXPECT_FALSE(none);
  EXPECT_EQ(none.get(), nullptr);
  EXPECT_EQ(none.use_count(), 0);
  DocPtr d = DocPtr::Make(Value::Doc({{"_id", 1}}));
  EXPECT_TRUE(d);
  EXPECT_NE(d, nullptr);
  EXPECT_EQ(d.use_count(), 1);
  {
    const DocPtr a = d, b = d;
    EXPECT_EQ(d.use_count(), 3);
    EXPECT_EQ(a.use_count(), 3);
  }
  EXPECT_EQ(d.use_count(), 1);
  DocPtr other = DocPtr::Make(Value::Doc({{"_id", 1}}));
  EXPECT_NE(other, d);  // equal documents, different handles
  EXPECT_EQ(*other, *d);
  d = nullptr;
  EXPECT_EQ(d, nullptr);
  EXPECT_EQ(other.use_count(), 1);
}

// The last holder frees every block: the document's, the shape's, and the
// nested arrays, objects and strings.
TEST(DocPtrTest, LastReleaseFreesEveryBlock) {
  const ShapeRef line_shape({"ol_i_id", "ol_quantity", "ol_amount"});
  EXPECT_EQ(LiveBlocks([&] {
              const ShapeRef order_shape(
                  {"_id", "o_w_id", "o_d_id", "o_c_id", "o_entry_d",
                   "o_ol_cnt", "o_carrier_id", "o_delivery_d", "o_lines"});
              DocPtr d = DocPtr::Make(TenLineOrder(order_shape, line_shape));
              DocPtr held = d;
              d = nullptr;
              EXPECT_EQ(held.use_count(), 1);
              EXPECT_EQ(held->FindPath("o_lines.0.ol_i_id")->as_int64(), 7);
            }),
            0);
  EXPECT_EQ(LiveBlocks([] {
              Value tags = Value::List({"a", std::string(30, 'b')});
              const DocPtr d = DocPtr::Make(
                  Value::Doc({{"_id", std::string(20, 'k')},
                              {"tags", std::move(tags)},
                              {"empty", Value(Object{})}}));
            }),
            0);
}

// A root that is not an object with fields stays a cell in the block and
// keeps its own blocks.
TEST(DocPtrTest, NonObjectRoots) {
  DocPtr d;
  EXPECT_EQ(Allocations([&] { d = DocPtr::Make(Value(int64_t{5})); }),
            std::make_pair(uint64_t{1}, uint64_t{24}));
  EXPECT_EQ(*d, Value(5));
  const Value list = Value::List({1, std::string(20, 's')});
  // The copy's array and string, and the block; the old block is freed.
  EXPECT_EQ(LiveBlocks([&] { d = DocPtr::Make(list); }), 2);
  EXPECT_EQ(*d, list);
  d = DocPtr::Make(Value(Object{}));
  EXPECT_TRUE(d->is_object());
  EXPECT_EQ(d->as_object().size(), 0u);
  d = DocPtr::Make(Value(std::string(40, 'z')));
  EXPECT_EQ(d->as_string(), std::string(40, 'z'));
  EXPECT_EQ(LiveBlocks([&] { d = nullptr; }), -2);  // the block, the string
}

TEST(ValueLayoutTest, StringsUpToFourteenBytesStayInTheCell) {
  const std::string fourteen(14, 'a'), fifteen(15, 'b');
  ASSERT_EQ(Value::kInlineString, 14u);
  Value v;
  EXPECT_EQ(Allocations([&] { v = Value(fourteen); }).first, 0u);
  EXPECT_EQ(v.as_string(), fourteen);
  EXPECT_EQ(Allocations([&] { v = Value(fifteen); }),
            std::make_pair(uint64_t{1}, uint64_t{15}));
  EXPECT_EQ(v.as_string(), fifteen);
  Value copy;
  EXPECT_EQ(Allocations([&] { copy = v; }).first, 1u);
  EXPECT_EQ(copy.as_string(), fifteen);
  EXPECT_NE(copy.as_string().data(), v.as_string().data());
  EXPECT_EQ(Allocations([&] { copy = Value(std::string_view()); }).first, 0u);
  EXPECT_EQ(copy.as_string(), "");
  // Embedded NULs are bytes like any other.
  const std::string nuls("a\0b\0", 4);
  EXPECT_EQ(Value(nuls).as_string(), nuls);
  EXPECT_EQ(Value(nuls + std::string(20, '\0')).as_string().size(), 24u);
}

TEST(ValueLayoutTest, ScalarsAndEmptyContainersAllocateNothing) {
  bool copies_equal = false;
  const auto [blocks, bytes] = Allocations([&] {
    const Value a(true), b(int64_t{-3}), c(2.5), d = Value::Timestamp(7);
    const Value e{Array{}}, f{Object{}}, g("short");
    const Value copies[] = {a, b, c, d, e, f, g};
    copies_equal = copies[0] == a && copies[3] == d && copies[6] == g;
    Array one;
    one.push_back(Value(1));
  });
  EXPECT_TRUE(copies_equal);
  EXPECT_EQ(blocks, 1u);  // the one push_back
  EXPECT_EQ(bytes, 8u + 16u);
}

// A Value built from an Array trims its spare capacity, so a document
// holds exactly its elements.
TEST(ValueLayoutTest, ValueFromAnArrayIsExactSize) {
  Array a;
  for (int i = 0; i < 5; ++i) a.push_back(Value(i));
  EXPECT_EQ(a.capacity(), 8u);
  const Value v(std::move(a));
  EXPECT_EQ(v.as_array().size(), 5u);
  EXPECT_EQ(v.as_array().capacity(), 5u);
  Array reserved;
  reserved.reserve(4);
  EXPECT_EQ(Value(std::move(reserved)).as_array().capacity(), 0u);
}

// The dirty-byte model reads ApproxSize; its formula is the one from
// before the cell layout, pinned here type by type.
TEST(ValueLayoutTest, ApproxSizeOfEachType) {
  EXPECT_EQ(Value().ApproxSize(), 8u);
  EXPECT_EQ(Value(false).ApproxSize(), 8u);
  EXPECT_EQ(Value(int64_t{1}).ApproxSize(), 16u);
  EXPECT_EQ(Value(1.5).ApproxSize(), 16u);
  EXPECT_EQ(Value::Timestamp(1).ApproxSize(), 16u);
  EXPECT_EQ(Value("abc").ApproxSize(), 24u + 3);
  EXPECT_EQ(Value(std::string(40, 'x')).ApproxSize(), 24u + 40);
  EXPECT_EQ(Value(Array{}).ApproxSize(), 24u);
  EXPECT_EQ(Value::List({1, "ab"}).ApproxSize(), 24u + 16 + (24 + 2));
  EXPECT_EQ(Value(Object{}).ApproxSize(), 24u);
  EXPECT_EQ(Value::Doc({{"a", 1}, {"bc", "x"}}).ApproxSize(),
            24u + (24 + 1 + 16) + (24 + 2 + (24 + 1)));
  EXPECT_EQ(Value::Doc({{"o", Value::Doc({{"n", Value()}})}}).ApproxSize(),
            24u + (24 + 1 + (24 + (24 + 1 + 8))));
}

// Self-assignment, and assignment from inside the value's own subtree,
// keep the value: the source is taken before the target is released.
TEST(ValueLayoutTest, AssignmentFromItselfOrItsSubtree) {
  const Value original = Value::Doc(
      {{"s", std::string(30, 's')}, {"a", Value::List({1, "two", 3.5})}});
  Value v = original;
  const Value& alias = v;
  v = alias;
  EXPECT_EQ(v, original);
  Value& same = v;
  v = std::move(same);
  EXPECT_EQ(v, original);
  v = v.as_object().value(1);  // copy of a child
  EXPECT_EQ(v, Value::List({1, "two", 3.5}));
  v = std::move(v.as_array()[1]);  // move of a child
  EXPECT_EQ(v, Value("two"));
}

// push_back of one of the array's own elements survives the growth that
// moves them.
TEST(ValueLayoutTest, PushBackOfAnOwnElementSurvivesGrowth) {
  const std::string z(20, 'z');
  Array a = {Value(z), Value(2)};
  a.push_back(a[0]);  // grows 2 -> 4 while copying a[0]
  a.push_back(Value(3));
  ASSERT_EQ(a.size(), a.capacity());
  a.push_back(std::move(a[1]));  // grows 4 -> 8 while moving a[1]
  ASSERT_EQ(a.size(), 5u);
  EXPECT_TRUE(a[1].is_null());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(Value(Array(a.begin() + 2, a.end())), Value::List({z, 3, 2}));
}

TEST(ValueTest, TypeNames) {
  EXPECT_EQ(TypeName(Value::Type::kNull), "null");
  EXPECT_EQ(TypeName(Value::Type::kObject), "object");
  EXPECT_EQ(TypeName(Value::Type::kTimestamp), "timestamp");
}

// A one-segment path keeps its segment inline: compiling an update or
// filter field allocates nothing. Longer paths split as they always did.
TEST(PathTest, OneSegmentPathAllocatesNothing) {
  EXPECT_EQ(Allocations([] {
              const Path path("s_quantity");
              EXPECT_EQ(path.segment_count(), 1u);
              EXPECT_EQ(path.segment_name(0), "s_quantity");
              EXPECT_FALSE(path.segment(0).is_index);
            }).first,
            0u);

  const Path dotted("a.0.b");
  ASSERT_EQ(dotted.segment_count(), 3u);
  EXPECT_EQ(dotted.segment_name(0), "a");
  EXPECT_FALSE(dotted.segment(0).is_index);
  EXPECT_EQ(dotted.segment_name(1), "0");
  EXPECT_TRUE(dotted.segment(1).is_index);
  EXPECT_EQ(dotted.segment(1).index, 0u);
  EXPECT_EQ(dotted.segment_name(2), "b");
  EXPECT_FALSE(dotted.segment(2).is_index);

  const Path trailing("a.");  // the empty tail yields no segment
  ASSERT_EQ(trailing.segment_count(), 1u);
  EXPECT_EQ(trailing.segment_name(0), "a");
  EXPECT_EQ(Path("").segment_count(), 0u);
  EXPECT_TRUE(Path("").empty());

  // Copies keep every segment; equality is the dotted string's.
  const Path copy = dotted;
  ASSERT_EQ(copy.segment_count(), 3u);
  EXPECT_EQ(copy.segment_name(2), "b");
  EXPECT_EQ(copy, dotted);
  EXPECT_NE(copy, trailing);
}

}  // namespace
}  // namespace dcg::doc
