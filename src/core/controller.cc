#include "core/controller.h"

#include <algorithm>
#include <cmath>

namespace dcg::core {

namespace {

// The rivals' tuning. Each law has one tuning, fixed here; the bake-off
// in EXPERIMENTS.md measures exactly these values.
constexpr double kProportionalGain = 0.25;
constexpr double kProportionalMaxStep = 0.3;
constexpr double kProportionalDrift = 0.02;
// AoI: the age budget is this share of the staleness bound.
constexpr double kAoiBudgetShare = 0.5;
constexpr double kAoiMaxStep = 0.3;
constexpr double kPidKp = 0.3;
constexpr double kPidKi = 0.05;
constexpr double kPidKd = 0.1;
constexpr double kPidMaxStep = 0.25;
constexpr double kPidIntegralLimit = 2.0;

void SetReason(obs::BalanceReason* out, obs::BalanceReason value) {
  if (out != nullptr) *out = value;
}
}  // namespace

double StepController::NextFraction(const ControlInputs& inputs,
                                    const BalancerConfig& config,
                                    obs::BalanceReason* reason) {
  const double latest = inputs.latest_fraction;
  if (!inputs.ratio_valid) {
    // No evidence: hold.
    SetReason(reason, obs::BalanceReason::kNoEvidence);
    return latest;
  }
  if (inputs.ratio > config.high_ratio) {
    // Primary congested: shift reads toward the secondaries.
    SetReason(reason, obs::BalanceReason::kLatencyRatioUp);
    return std::min(latest + kDelta, kHighBal);
  }
  if (inputs.ratio < config.low_ratio) {
    // Secondaries congested: shift reads back to the primary.
    SetReason(reason, obs::BalanceReason::kLatencyRatioDown);
    return std::max(latest - kDelta, kLowBal);
  }
  if (config.downward_probe && inputs.history_flat) {
    // Stable for the whole history: probe downward to favour fresh
    // primary reads when they are free (§3.3).
    SetReason(reason, obs::BalanceReason::kDownwardProbe);
    return std::max(latest - kDelta, kLowBal);
  }
  SetReason(reason, obs::BalanceReason::kHold);
  return latest;
}

double ProportionalController::NextFraction(const ControlInputs& inputs,
                                            const BalancerConfig& config,
                                            obs::BalanceReason* reason) {
  const double latest = inputs.latest_fraction;
  if (!inputs.ratio_valid) {
    SetReason(reason, obs::BalanceReason::kNoEvidence);
    return latest;
  }
  double step;
  if (inputs.ratio >= config.low_ratio && inputs.ratio <= config.high_ratio) {
    // Inside the dead band: drift gently toward the fresh primary.
    step = config.downward_probe ? -kProportionalDrift : 0.0;
    SetReason(reason, config.downward_probe ? obs::BalanceReason::kDownwardProbe
                                            : obs::BalanceReason::kHold);
  } else {
    step = std::clamp(kProportionalGain * (inputs.ratio - 1.0),
                      -kProportionalMaxStep, kProportionalMaxStep);
    SetReason(reason, step > 0.0 ? obs::BalanceReason::kLatencyRatioUp
                                 : obs::BalanceReason::kLatencyRatioDown);
  }
  return std::clamp(latest + step, kLowBal, kHighBal);
}

double AoiController::AgeCap(const ControlInputs& inputs) {
  // Age budget: a share of the staleness bound (whole bound when the
  // client runs unbounded — stale_bound_s == 0 only happens when the
  // gate already forces the published fraction to zero).
  const double bound = static_cast<double>(inputs.stale_bound_s);
  if (bound <= 0) return kHighBal;
  const double budget = kAoiBudgetShare * bound;
  double age_sum = 0;
  int age_count = 0;
  for (int64_t age : inputs.secondary_age_s) {
    if (age < 0) continue;  // primary / unknown
    age_sum += static_cast<double>(age);
    ++age_count;
  }
  if (age_count == 0) return kHighBal;  // no estimates yet
  const double mean_age = age_sum / age_count;
  if (mean_age <= budget / kHighBal) return kHighBal;
  return std::max(budget / mean_age, kLowBal);
}

double AoiController::NextFraction(const ControlInputs& inputs,
                                   const BalancerConfig& config,
                                   obs::BalanceReason* reason) {
  const double latest = inputs.latest_fraction;
  // Underneath the age cap the policy follows Algorithm 1's latency law,
  // so with fresh secondaries it is exactly as aggressive as the paper.
  obs::BalanceReason base_reason = obs::BalanceReason::kNone;
  double base;
  if (!inputs.ratio_valid) {
    base_reason = obs::BalanceReason::kNoEvidence;
    base = latest;
  } else if (inputs.ratio > config.high_ratio) {
    base_reason = obs::BalanceReason::kLatencyRatioUp;
    base = std::min(latest + kDelta, kHighBal);
  } else if (inputs.ratio < config.low_ratio) {
    base_reason = obs::BalanceReason::kLatencyRatioDown;
    base = std::max(latest - kDelta, kLowBal);
  } else if (config.downward_probe && inputs.history_flat) {
    base_reason = obs::BalanceReason::kDownwardProbe;
    base = std::max(latest - kDelta, kLowBal);
  } else {
    base_reason = obs::BalanceReason::kHold;
    base = latest;
  }
  const double cap = AgeCap(inputs);
  if (base <= cap) {
    SetReason(reason, base_reason);
    return base;
  }
  // The age estimates bind: expected served age (fraction · mean age)
  // would overrun the budget, so the fraction descends toward the cap —
  // at most kAoiMaxStep per period to avoid thrashing on a single slow
  // serverStatus sample.
  SetReason(reason, obs::BalanceReason::kAoiCapped);
  return std::clamp(std::max(latest - kAoiMaxStep, cap), kLowBal, kHighBal);
}

double PidController::NextFraction(const ControlInputs& inputs,
                                   const BalancerConfig& config,
                                   obs::BalanceReason* reason) {
  const double latest = inputs.latest_fraction;
  if (!inputs.ratio_valid) {
    // No evidence: hold, and bleed the integral so a long gate-closed
    // stretch does not discharge as a spike when evidence returns.
    integral_ *= 0.5;
    have_last_error_ = false;
    SetReason(reason, obs::BalanceReason::kNoEvidence);
    return latest;
  }
  const double error = inputs.ratio - 1.0;
  const double derivative = have_last_error_ ? error - last_error_ : 0.0;
  const double step =
      std::clamp(kPidKp * error + kPidKi * integral_ + kPidKd * derivative,
                 -kPidMaxStep, kPidMaxStep);
  const double next = std::clamp(latest + step, kLowBal, kHighBal);
  // Anti-windup: integrate only while the output is not pinned at a bound
  // in the direction of the error.
  const bool saturated = (next >= kHighBal && error > 0) ||
                         (next <= kLowBal && error < 0);
  if (!saturated) {
    integral_ = std::clamp(integral_ + error, -kPidIntegralLimit,
                           kPidIntegralLimit);
  }
  last_error_ = error;
  have_last_error_ = true;
  if (inputs.ratio > config.high_ratio) {
    SetReason(reason, obs::BalanceReason::kLatencyRatioUp);
  } else if (inputs.ratio < config.low_ratio) {
    SetReason(reason, obs::BalanceReason::kLatencyRatioDown);
  } else if (std::abs(next - latest) > 1e-9) {
    SetReason(reason, obs::BalanceReason::kPidAdjust);
  } else {
    SetReason(reason, obs::BalanceReason::kHold);
  }
  return next;
}

std::unique_ptr<FractionController> MakeController(std::string_view name) {
  if (IsDefaultController(name)) return std::make_unique<StepController>();
  if (name == "proportional") {
    return std::make_unique<ProportionalController>();
  }
  if (name == "aoi") return std::make_unique<AoiController>();
  if (name == "pid") return std::make_unique<PidController>();
  return nullptr;
}

const std::vector<std::string_view>& RegisteredControllers() {
  static const std::vector<std::string_view> names = {
      "decongestant", "proportional", "aoi", "pid"};
  return names;
}

bool IsDefaultController(std::string_view name) {
  return name == "decongestant";
}

}  // namespace dcg::core
