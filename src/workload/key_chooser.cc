#include "workload/key_chooser.h"

#include <cmath>

#include "util/check.h"

namespace dcg::workload {

ZipfianGenerator::ZipfianGenerator(int64_t n, double theta)
    : n_(n), theta_(theta) {
  DCG_CHECK(n >= 1);
  DCG_CHECK(theta > 0.0 && theta < 1.0);
  zetan_ = ZetaStatic(n, theta);
  zeta2theta_ = ZetaStatic(2, theta);
  half_pow_theta_ = std::pow(0.5, theta);
  alpha_ = 1.0 / (1.0 - theta);
  eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
         (1.0 - zeta2theta_ / zetan_);
}

double ZipfianGenerator::ZetaStatic(int64_t n, double theta) {
  double sum = 0.0;
  for (int64_t i = 1; i <= n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i), theta);
  }
  return sum;
}

int64_t ZipfianGenerator::Next(sim::Rng* rng) {
  const double u = rng->NextDouble();
  const double uz = u * zetan_;
  if (uz < 1.0) return 0;
  if (uz < 1.0 + half_pow_theta_) return 1;
  const auto result = static_cast<int64_t>(
      static_cast<double>(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
  return result >= n_ ? n_ - 1 : result;
}

int64_t ScrambledZipfianGenerator::Next(sim::Rng* rng) {
  const int64_t rank = inner_.Next(rng);
  // FNV-1a scatter.
  uint64_t h = 0xcbf29ce484222325ULL;
  for (int shift = 0; shift < 64; shift += 8) {
    h ^= (static_cast<uint64_t>(rank) >> shift) & 0xff;
    h *= 0x100000001b3ULL;
  }
  return static_cast<int64_t>(h % static_cast<uint64_t>(n_));
}

int64_t NURand(sim::Rng* rng, int64_t a, int64_t x, int64_t y, int64_t c) {
  const int64_t lhs = rng->UniformInt(0, a);
  const int64_t rhs = rng->UniformInt(x, y);
  return (((lhs | rhs) + c) % (y - x + 1)) + x;
}

}  // namespace dcg::workload
