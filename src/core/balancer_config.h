#ifndef DCG_CORE_BALANCER_CONFIG_H_
#define DCG_CORE_BALANCER_CONFIG_H_

#include <cstdint>
#include <string>

#include "sim/time.h"

namespace dcg::core {

// Algorithm 1's fixed constants (§4.1.2): Balance Fraction ∈ {0} ∪
// [LOWBAL, HIGHBAL], starting at LOWBAL, moved by DELTA per period.

/// DELTA: one-period change in Balance Fraction.
inline constexpr double kDelta = 0.10;
/// LOWBAL: lowest non-zero Balance Fraction (and the initial one, §3.3).
inline constexpr double kLowBal = 0.10;
/// HIGHBAL: highest Balance Fraction.
inline constexpr double kHighBal = 0.90;
/// Length of the RecentBal history.
inline constexpr int kRecentHistory = 4;

/// The parameters of Algorithm 1 ("Algorithm for Read Balancer") that a
/// run varies. Defaults are the values of §4.1.2:
///   * period 10 s, ratio dead band [0.75, 1.30];
///   * a downward probe when the RecentBal history is flat;
///   * StaleBound 10 s.
struct BalancerConfig {
  /// Balance Fraction controller strategy, by registry name
  /// (MakeController): "decongestant" (the paper's Algorithm 1, default),
  /// "proportional", "aoi", or "pid".
  std::string controller = "decongestant";

  /// LOWRATIO: below this latency ratio, decrease the fraction
  /// (secondaries more congested).
  double low_ratio = 0.75;
  /// HIGHRATIO: above this latency ratio, increase the fraction
  /// (primary congested).
  double high_ratio = 1.30;

  /// How often OnPeriodEnd runs.
  sim::Duration period = sim::Seconds(10);
  /// When the whole history is identical, probe downward by DELTA
  /// (disable for the A2 ablation).
  bool downward_probe = true;

  /// StaleBound, in seconds. 0 means the client tolerates no stale reads
  /// (every read goes to the primary — Algorithm 1 line 3).
  int64_t stale_bound_seconds = 10;

  /// When false, the Server-Side Latency estimate skips the − P50(RTT)
  /// subtraction and uses raw client latency (the A1 ablation; §3.3.1
  /// explains why that misroutes under asymmetric AZ RTTs).
  bool subtract_rtt = true;
};

}  // namespace dcg::core

#endif  // DCG_CORE_BALANCER_CONFIG_H_
