#ifndef DCG_CORE_ROUTING_POLICY_H_
#define DCG_CORE_ROUTING_POLICY_H_

#include "core/shared_state.h"
#include "driver/read_preference.h"
#include "sim/random.h"

namespace dcg::core {

/// How an application decides where each read-only transaction goes. The
/// paper evaluates three systems: the two baselines, whose Read Preference
/// is hard-coded at development time (state of practice), and
/// Decongestant, whose client-side protocol (§3.2) flips a coin biased by
/// the current Balance Fraction before each read-only transaction.
/// Latency feedback needs no call here: the Read Balancer harvests it
/// from the driver's op observer.
class RoutingPolicy {
 public:
  /// A baseline: every read uses `fixed`.
  explicit RoutingPolicy(driver::ReadPreference fixed) : fixed_(fixed) {}
  /// Decongestant: secondary with probability state->balance_fraction().
  explicit RoutingPolicy(const SharedState* state) : state_(state) {}

  /// Called before each read-only transaction. A fixed policy draws
  /// nothing from `rng`.
  driver::ReadPreference ChooseReadPreference(sim::Rng* rng) const {
    if (state_ == nullptr) return fixed_;
    return rng->Bernoulli(state_->balance_fraction())
               ? driver::ReadPreference::kSecondary
               : driver::ReadPreference::kPrimary;
  }

  /// The share of reads sent to secondaries: the published Balance
  /// Fraction, or 0 or 1 for a fixed preference.
  double balance_fraction() const {
    if (state_ != nullptr) return state_->balance_fraction();
    return driver::PrefersSecondary(fixed_) ? 1.0 : 0.0;
  }

 private:
  const SharedState* state_ = nullptr;
  driver::ReadPreference fixed_ = driver::ReadPreference::kPrimary;
};

}  // namespace dcg::core

#endif  // DCG_CORE_ROUTING_POLICY_H_
