#ifndef DCG_CORE_BALANCER_CONFIG_H_
#define DCG_CORE_BALANCER_CONFIG_H_

#include <cstdint>
#include <string>

#include "sim/time.h"

namespace dcg::core {

/// Parameters of Algorithm 1 ("Algorithm for Read Balancer"). Defaults are
/// the values of §4.1.2:
///   * period 10 s, Balance Fraction ∈ {0} ∪ [10 %, 90 %], initial 10 %;
///   * ratio dead band [0.75, 1.30], step DELTA = 10 %;
///   * 4-period history with a downward probe when it is flat;
///   * serverStatus polled once per second, StaleBound 10 s.
struct BalancerConfig {
  /// Balance Fraction controller strategy, by registry name
  /// (MakeController): "decongestant" (the paper's Algorithm 1, default),
  /// "proportional", "cpq", "aoi", or "pid".
  std::string controller = "decongestant";

  /// DELTA: one-period change in Balance Fraction.
  double delta = 0.10;
  /// LOWBAL: lowest non-zero Balance Fraction.
  double low_bal = 0.10;
  /// HIGHBAL: highest Balance Fraction.
  double high_bal = 0.90;
  /// LOWRATIO: below this latency ratio, decrease the fraction
  /// (secondaries more congested).
  double low_ratio = 0.75;
  /// HIGHRATIO: above this latency ratio, increase the fraction
  /// (primary congested).
  double high_ratio = 1.30;

  /// How often OnPeriodEnd runs.
  sim::Duration period = sim::Seconds(10);
  /// Length of the RecentBal history.
  int recent_history = 4;
  /// When the whole history is identical, probe downward by DELTA
  /// (disable for the A2 ablation).
  bool downward_probe = true;

  /// How often the Read Balancer calls serverStatus on the primary.
  sim::Duration server_status_interval = sim::Seconds(1);
  /// How often it pings every node for RTT samples.
  sim::Duration ping_interval = sim::Seconds(1);
  /// RTT samples retained per node for the P50(RTT) estimate.
  int rtt_window = 16;

  /// StaleBound, in seconds. 0 means the client tolerates no stale reads
  /// (every read goes to the primary — Algorithm 1 line 3).
  int64_t stale_bound_seconds = 10;

  /// When false, the Server-Side Latency estimate skips the − P50(RTT)
  /// subtraction and uses raw client latency (the A1 ablation; §3.3.1
  /// explains why that misroutes under asymmetric AZ RTTs).
  bool subtract_rtt = true;

  /// Floor for Server-Side Latency estimates: protects the ratio against
  /// division by ~zero when a node is so idle that client latency is
  /// almost all network time.
  sim::Duration min_server_side_latency = sim::Micros(20);
};

}  // namespace dcg::core

#endif  // DCG_CORE_BALANCER_CONFIG_H_
