#ifndef DCG_WORKLOAD_KEY_CHOOSER_H_
#define DCG_WORKLOAD_KEY_CHOOSER_H_

#include <cstdint>

#include "sim/random.h"

namespace dcg::workload {

/// YCSB's Zipfian generator (Gray et al.'s algorithm, as in the YCSB
/// reference implementation): values in [0, n) with frequency ∝ 1/rank^θ.
class ZipfianGenerator {
 public:
  explicit ZipfianGenerator(int64_t n, double theta = 0.99);

  int64_t Next(sim::Rng* rng);

  int64_t n() const { return n_; }
  double theta() const { return theta_; }

 private:
  static double ZetaStatic(int64_t n, double theta);

  int64_t n_;
  double theta_;
  double half_pow_theta_;  // 0.5^theta, the rank-1 band's width over zetan
  double alpha_;
  double zetan_;
  double eta_;
  double zeta2theta_;
};

/// Zipfian with the popular items scattered across the key space (YCSB's
/// "scrambled zipfian"): avoids hot keys being physically adjacent.
class ScrambledZipfianGenerator {
 public:
  explicit ScrambledZipfianGenerator(int64_t n, double theta = 0.99)
      : inner_(n, theta), n_(n) {}

  int64_t Next(sim::Rng* rng);

 private:
  ZipfianGenerator inner_;
  int64_t n_;
};

/// Uniform over [0, n).
class UniformKeyChooser {
 public:
  explicit UniformKeyChooser(int64_t n) : n_(n) {}
  int64_t Next(sim::Rng* rng) { return rng->UniformInt(0, n_ - 1); }

 private:
  int64_t n_;
};

/// TPC-C's NURand non-uniform distribution.
int64_t NURand(sim::Rng* rng, int64_t a, int64_t x, int64_t y, int64_t c);

}  // namespace dcg::workload

#endif  // DCG_WORKLOAD_KEY_CHOOSER_H_
