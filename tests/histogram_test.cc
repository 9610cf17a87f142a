// Regression tests for Histogram::Percentile at the extremes (p=0 must
// return the minimum, p=100 the maximum — exactly, not a bucket bound)
// and for merge behaviour across buckets, and the lazy bucket array.

#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "metrics/histogram.h"

namespace {
/// Heap allocations counted while armed (the binary is single-threaded).
bool g_count_allocs = false;
uint64_t g_allocs = 0;
}  // namespace

// Pass-through global allocator that counts calls only while armed. Kept
// out of line so the compiler pairs each new with its delete, not with
// the malloc/free inside.
[[gnu::noinline]] void* operator new(std::size_t size) {
  if (g_count_allocs) ++g_allocs;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace dcg::metrics {
namespace {

/// Counts the heap blocks `fn` allocates.
template <typename Fn>
uint64_t Allocations(Fn&& fn) {
  g_allocs = 0;
  g_count_allocs = true;
  fn();
  g_count_allocs = false;
  return g_allocs;
}

// The 704 buckets are allocated by the first Add or non-empty Merge: a
// histogram nothing records into (a YCSB period row's Stock Level latency)
// costs no heap, and answers as an empty one always did.
TEST(HistogramLazyTest, UntouchedHistogramAllocatesNothing) {
  double answers = -1;
  const uint64_t allocs = Allocations([&] {
    Histogram h, other;
    h.Merge(other);  // empty into empty
    h.Clear();
    Histogram copy = h;
    answers = h.Percentile(0) + h.Percentile(50) + h.Percentile(100) +
              copy.Percentile(99) + h.mean() + h.min() + h.max();
  });
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(answers, 0.0);
  EXPECT_EQ(Allocations([] {
              Histogram h;
              h.Add(3.0);
            }),
            1u);
}

TEST(HistogramLazyTest, MergeIntoUntouchedAndClearBehaveAsBefore) {
  Histogram source;
  for (double v : {0.5, 3.0, 40.0, 900.0, 70000.0}) source.Add(v);
  Histogram merged;
  merged.Merge(source);
  EXPECT_EQ(merged.count(), source.count());
  for (double p : {0.0, 20.0, 50.0, 80.0, 99.0, 100.0}) {
    EXPECT_EQ(merged.Percentile(p), source.Percentile(p)) << p;
  }
  merged.Clear();
  EXPECT_EQ(merged.count(), 0u);
  EXPECT_EQ(merged.Percentile(50), 0.0);
  merged.Add(7.0);  // the cleared buckets are zero again
  EXPECT_EQ(merged.Percentile(50), 7.0);
  EXPECT_EQ(merged.Percentile(100), 7.0);
  // An empty merge leaves a used histogram as it was.
  merged.Merge(Histogram());
  EXPECT_EQ(merged.count(), 1u);
}

TEST(HistogramPercentileTest, EmptyReturnsZeroAtExtremes) {
  Histogram h;
  EXPECT_EQ(h.Percentile(0), 0.0);
  EXPECT_EQ(h.Percentile(100), 0.0);
  EXPECT_EQ(h.Percentile(50), 0.0);
}

TEST(HistogramPercentileTest, SingleSampleExactAtExtremes) {
  Histogram h;
  h.Add(42.0);
  // p=0 and p=100 answer from the tracked extrema: exact, no bucket slop.
  EXPECT_DOUBLE_EQ(h.Percentile(0), 42.0);
  EXPECT_DOUBLE_EQ(h.Percentile(100), 42.0);
}

TEST(HistogramPercentileTest, SubUnitSampleNotInflatedByBucketZero) {
  // Regression: every value below 1.0 lands in bucket 0 whose upper bound
  // is 1.0; the old scan returned clamp(1.0, min, max) == max for p=0.
  Histogram h;
  h.Add(0.25);
  h.Add(0.5);
  EXPECT_DOUBLE_EQ(h.Percentile(0), 0.25);
  EXPECT_DOUBLE_EQ(h.Percentile(100), 0.5);
}

TEST(HistogramPercentileTest, MinMaxAcrossManySamples) {
  Histogram h;
  for (double v : {300.0, 7.0, 9000.0, 42.0, 0.1}) h.Add(v);
  EXPECT_DOUBLE_EQ(h.Percentile(0), 0.1);
  EXPECT_DOUBLE_EQ(h.Percentile(100), 9000.0);
  // Out-of-range p clamps to the extremes too.
  EXPECT_DOUBLE_EQ(h.Percentile(-5), 0.1);
  EXPECT_DOUBLE_EQ(h.Percentile(250), 9000.0);
}

TEST(HistogramPercentileTest, MidPercentilesStillWithinExtrema) {
  Histogram h;
  for (int i = 1; i <= 1000; ++i) h.Add(static_cast<double>(i));
  for (double p : {1.0, 25.0, 50.0, 80.0, 99.0}) {
    const double v = h.Percentile(p);
    EXPECT_GE(v, h.min()) << "p=" << p;
    EXPECT_LE(v, h.max()) << "p=" << p;
  }
}

TEST(HistogramMergeTest, CrossBucketMergeMatchesCombinedOracle) {
  // One histogram with sub-unit samples (bucket 0), one with large
  // samples (high buckets); the merge must answer extremes from the
  // combined population and keep count/sum coherent.
  Histogram small;
  small.Add(0.2);
  small.Add(0.8);
  Histogram large;
  large.Add(5000.0);
  large.Add(120.0);

  Histogram merged;
  merged.Merge(small);
  merged.Merge(large);

  Histogram oracle;
  for (double v : {0.2, 0.8, 5000.0, 120.0}) oracle.Add(v);

  EXPECT_EQ(merged.count(), 4u);
  EXPECT_DOUBLE_EQ(merged.min(), 0.2);
  EXPECT_DOUBLE_EQ(merged.max(), 5000.0);
  EXPECT_DOUBLE_EQ(merged.mean(), oracle.mean());
  EXPECT_DOUBLE_EQ(merged.Percentile(0), oracle.Percentile(0));
  EXPECT_DOUBLE_EQ(merged.Percentile(100), oracle.Percentile(100));
  EXPECT_DOUBLE_EQ(merged.Percentile(50), oracle.Percentile(50));
}

TEST(HistogramMergeTest, MergeIntoEmptyPreservesExtremes) {
  Histogram src;
  src.Add(0.4);
  src.Add(77.0);
  Histogram dst;
  dst.Merge(src);
  EXPECT_DOUBLE_EQ(dst.Percentile(0), 0.4);
  EXPECT_DOUBLE_EQ(dst.Percentile(100), 77.0);
}

}  // namespace
}  // namespace dcg::metrics
