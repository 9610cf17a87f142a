#include "metrics/histogram.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace dcg::metrics {

int Histogram::BucketFor(double value) {
  if (value < 1.0) return 0;
  const int bucket =
      static_cast<int>(std::log(value) / std::log(kGrowth)) + 1;
  return std::min(bucket, kBuckets - 1);
}

double Histogram::BucketUpper(int bucket) {
  if (bucket == 0) return 1.0;
  return std::pow(kGrowth, bucket);
}

void Histogram::Add(double value) {
  if (value < 0) value = 0;
  if (count_ == 0) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  sum_ += value;
  if (buckets_.empty()) buckets_.resize(kBuckets);
  ++buckets_[BucketFor(value)];
}

double Histogram::min() const { return count_ == 0 ? 0 : min_; }
double Histogram::max() const { return count_ == 0 ? 0 : max_; }
double Histogram::mean() const {
  return count_ == 0 ? 0 : sum_ / static_cast<double>(count_);
}

double Histogram::Percentile(double p) const {
  if (count_ == 0) return 0;
  // The extrema are exact; the bucket scan below is not. At p=0 the scan
  // would stop at the first non-empty bucket's *upper* bound (for values
  // below 1.0 that is bucket 0's bound of 1.0, clamped to max_ — wrong
  // side entirely), so answer from the tracked extrema directly.
  if (p <= 0) return min_;
  if (p >= 100) return max_;
  const double target = p / 100.0 * static_cast<double>(count_);
  uint64_t cumulative = 0;
  for (int i = 0; i < kBuckets; ++i) {
    cumulative += buckets_[i];
    if (static_cast<double>(cumulative) >= target) {
      // Clamp the bucket bound by the observed extrema for tight tails.
      return std::clamp(BucketUpper(i), min_, max_);
    }
  }
  return max_;
}

void Histogram::Merge(const Histogram& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  count_ += other.count_;
  sum_ += other.sum_;
  if (buckets_.empty()) buckets_.resize(kBuckets);
  for (int i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
}

void Histogram::Clear() {
  std::fill(buckets_.begin(), buckets_.end(), 0);
  count_ = 0;
  sum_ = 0;
  min_ = 0;
  max_ = 0;
}

}  // namespace dcg::metrics
