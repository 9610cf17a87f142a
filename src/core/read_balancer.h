#ifndef DCG_CORE_READ_BALANCER_H_
#define DCG_CORE_READ_BALANCER_H_

#include <deque>
#include <memory>
#include <functional>
#include <vector>

#include "core/balancer_config.h"
#include "core/controller.h"
#include "core/shared_state.h"
#include "core/staleness_budget.h"
#include "driver/client.h"
#include "obs/decision_log.h"
#include "sim/random.h"

namespace dcg::core {

/// The Read Balancer of Algorithm 1 — the decision-making component of
/// Decongestant. One instance runs on each client system (Figure 1).
///
/// Every second it (a) pings all replica-set nodes to maintain RTT
/// windows, and (b) calls serverStatus on the primary to refresh the
/// conservative staleness estimate, zeroing the Balance Fraction whenever
/// any secondary exceeds the client's StaleBound. Every period (10 s) it
/// drains the shared latency lists, forms the Server-Side Latency
/// estimates
///     Lss = P50(Lclient) − P50(RTT)
/// for primary- and secondary-routed reads, and steps the Balance
/// Fraction by ±DELTA according to their ratio.
///
/// Latency samples arrive through the driver's unified completion path:
/// constructing the balancer installs an op observer on its client, so
/// every successful application read — whatever workload issued it — is
/// recorded once, and control traffic (probe reads flagged
/// record_latency=false) stays out of the estimate.
class ReadBalancer {
 public:
  /// Per-period diagnostics, for experiment time series and tests.
  struct PeriodStats {
    sim::Time at = 0;
    sim::Duration lss_primary = 0;
    sim::Duration lss_secondary = 0;
    double ratio = 0.0;          // Lss,primary / Lss,secondary
    bool ratio_valid = false;    // false when a latency list was empty
    double previous_fraction = 0.0;  // RecentBal.latest() before the update
    double new_fraction = 0.0;   // RecentBal.latest() after the update
    double published_fraction = 0.0;  // what clients see (0 when stale)
    int64_t staleness_estimate_s = 0;
    /// Which controller branch produced new_fraction this period.
    obs::BalanceReason reason = obs::BalanceReason::kNone;
  };

  ReadBalancer(driver::MongoClient* client, SharedState* state,
               BalancerConfig config, sim::Rng rng);

  ReadBalancer(const ReadBalancer&) = delete;
  ReadBalancer& operator=(const ReadBalancer&) = delete;

  /// Starts the ping loop, the serverStatus loop, and the period timer.
  void Start();

  /// Latest staleness estimate (seconds), from the primary's serverStatus.
  int64_t staleness_estimate_seconds() const { return staleness_estimate_; }

  /// True while the Balance Fraction is forced to zero by staleness.
  bool stale_blocked() const { return stale_blocked_; }

  /// The most recent non-zero decision (RecentBal.latest()).
  double recent_fraction() const { return recent_bal_.back(); }

  uint64_t periods_completed() const { return periods_completed_; }
  uint64_t stale_zero_events() const { return stale_zero_events_; }

  /// Times the balancer detected a primary swap (failover) and reset its
  /// latency histories, RecentBal, and staleness inputs. Mixing samples
  /// measured against two different primaries would feed Algorithm 1 a
  /// ratio describing neither.
  uint64_t primary_swaps() const { return primary_swaps_; }

  /// Every fraction decision and staleness-gate transition, in order.
  /// Always on: a decision is a few dozen bytes once per control period,
  /// so a day-long simulated run logs a few thousand entries.
  const obs::DecisionLog& decisions() const { return decisions_; }

  const BalancerConfig& config() const { return config_; }

  /// Observer invoked at the end of every period.
  void SetPeriodCallback(std::function<void(const PeriodStats&)> cb) {
    period_cb_ = std::move(cb);
  }

  /// Median of a sample set (exposed for tests; returns 0 on empty).
  static sim::Duration Median(std::vector<sim::Duration> samples);

  /// Replaces the feedback controller the config named. Call before
  /// Start().
  void SetController(std::unique_ptr<FractionController> controller) {
    controller_ = std::move(controller);
  }
  const FractionController& controller() const { return *controller_; }

  /// Joins a cluster-wide staleness budget as `slot` (sharded mode: one
  /// slot per shard). The balancer then reports its estimate on every
  /// serverStatus tick and gates against the budget's EffectiveBound
  /// instead of its own static stale_bound_seconds. Call before Start();
  /// nullptr restores the standalone gate.
  void SetStalenessBudget(StalenessBudget* budget, int slot) {
    budget_ = budget;
    budget_slot_ = slot;
  }

  /// The bound the gate compares against right now: the shared budget's
  /// effective bound when one is installed, the static config bound
  /// otherwise.
  int64_t effective_stale_bound_seconds() const {
    return budget_ != nullptr ? budget_->EffectiveBound(budget_slot_)
                              : config_.stale_bound_seconds;
  }

 private:
  void PingLoop();
  void ServerStatusLoop();
  void OnServerStatus(const proto::ServerStatusReply& reply);
  void OnPeriodEnd();
  /// Compares the driver's current primary belief against the one the
  /// balancer's histories were measured under; on a swap, resets them.
  void CheckPrimarySwap();
  void OnPrimarySwap();
  /// Publishes the Balance Fraction clients see, applying the staleness
  /// gate of Algorithm 1 (lines 3-7 / 22-27).
  void PublishFraction();
  sim::Duration MedianRttPrimary() const;
  sim::Duration MedianRttSecondaries() const;
  void RecordRtt(int node, sim::Duration rtt);
  /// Records a staleness-gate transition (zero / release) in the
  /// decision log. `reason` is kStaleGateZero or kStaleGateRelease.
  void RecordGateTransition(obs::BalanceReason reason);

  driver::MongoClient* client_;
  SharedState* state_;
  BalancerConfig config_;
  sim::Rng rng_;
  std::unique_ptr<FractionController> controller_;

  std::deque<double> recent_bal_;  // RecentBal, newest at the back
  std::vector<std::deque<sim::Duration>> rtt_samples_;  // per node
  obs::DecisionLog decisions_;
  /// Per-node staleness (whole seconds) from the latest serverStatus;
  /// -1 for the primary and for nodes the reply did not cover.
  std::vector<int64_t> secondary_staleness_s_;
  int64_t staleness_estimate_ = 0;
  bool stale_blocked_ = false;
  uint64_t periods_completed_ = 0;
  uint64_t stale_zero_events_ = 0;
  /// The (primary, term) the current histories were measured under.
  int tracked_primary_ = -1;
  uint64_t tracked_term_ = 0;
  uint64_t primary_swaps_ = 0;
  StalenessBudget* budget_ = nullptr;
  int budget_slot_ = -1;
  std::function<void(const PeriodStats&)> period_cb_;
};

}  // namespace dcg::core

#endif  // DCG_CORE_READ_BALANCER_H_
