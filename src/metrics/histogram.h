#ifndef DCG_METRICS_HISTOGRAM_H_
#define DCG_METRICS_HISTOGRAM_H_

#include <cstdint>
#include <vector>

namespace dcg::metrics {

/// Fixed-footprint log-bucketed histogram (HDR-style, ~2.5 % relative
/// bucket width). Used for latencies (nanoseconds) and staleness samples.
/// Memory is constant regardless of sample count, so experiments can
/// record tens of millions of operations. The buckets are allocated by the
/// first Add or non-empty Merge: a histogram that never records costs no
/// heap.
class Histogram {
 public:
  Histogram() = default;

  /// Records a sample (negative values are clamped to 0).
  void Add(double value);

  uint64_t count() const { return count_; }
  double min() const;
  double max() const;
  double mean() const;
  double sum() const { return sum_; }

  /// Value at percentile `p` in [0, 100] (by bucket upper bound; exact for
  /// min/max, within bucket width otherwise). Returns 0 on empty.
  double Percentile(double p) const;

  void Merge(const Histogram& other);
  void Clear();

 private:
  static constexpr double kGrowth = 1.05;
  static constexpr int kBuckets = 704;  // covers [1, ~8.3e14]

  static int BucketFor(double value);
  static double BucketUpper(int bucket);

  std::vector<uint64_t> buckets_;  // kBuckets counts, or empty until used
  uint64_t count_ = 0;
  double sum_ = 0;
  double min_ = 0;
  double max_ = 0;
};

}  // namespace dcg::metrics

#endif  // DCG_METRICS_HISTOGRAM_H_
