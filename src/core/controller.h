#ifndef DCG_CORE_CONTROLLER_H_
#define DCG_CORE_CONTROLLER_H_

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "core/balancer_config.h"
#include "obs/decision_log.h"

namespace dcg::core {

/// Per-period inputs to a Balance Fraction controller. The first block is
/// what Algorithm 1 consumes; the rest is what the age-of-information law
/// reads besides. Every field is client-observable — derived from the
/// shared latency lists, the RTT windows, or the serverStatus replies —
/// never from simulator ground truth.
struct ControlInputs {
  /// RecentBal.latest(): the newest non-zero decision.
  double latest_fraction = 0.0;
  /// Lss,primary / Lss,secondary. Meaningless when !ratio_valid.
  double ratio = 1.0;
  /// False when either latency list was empty this period.
  bool ratio_valid = false;
  /// True when the whole RecentBal history equals latest_fraction.
  bool history_flat = false;

  /// Per-node staleness estimates from the latest serverStatus (whole
  /// seconds; -1 for the primary and nodes the reply did not cover) —
  /// the client-observable age-of-information signal.
  std::vector<int64_t> secondary_age_s;
  /// The bound the staleness gate enforces right now (shared-budget aware).
  int64_t stale_bound_s = 0;
};

/// Strategy for turning the period's signals into the next Balance
/// Fraction. The paper's Algorithm 1 is StepController (registered as the
/// "decongestant" policy); the rivals that survived the ten-seed bake-off
/// (EXPERIMENTS.md) are a proportional law, AoI minimisation, and PID on
/// the latency ratio. The staleness gate is NOT part of any
/// controller — the Read Balancer applies it on top, whatever the
/// controller decides, so every policy inherits the paper's bound.
class FractionController {
 public:
  virtual ~FractionController() = default;

  /// Returns the next fraction, within [kLowBal, kHighBal].
  /// When `reason` is non-null the controller writes which of its branches
  /// fired — the Read Balancer's decision log records it so every fraction
  /// move is explainable after the fact, whichever policy produced it.
  virtual double NextFraction(const ControlInputs& inputs,
                              const BalancerConfig& config,
                              obs::BalanceReason* reason = nullptr) = 0;

  virtual std::string_view name() const = 0;
};

/// Algorithm 1's controller: ±DELTA steps outside the dead band, a
/// downward probe when the history has been flat, hold otherwise.
class StepController : public FractionController {
 public:
  double NextFraction(const ControlInputs& inputs, const BalancerConfig& config,
                      obs::BalanceReason* reason = nullptr) override;
  std::string_view name() const override { return "decongestant"; }
};

/// A proportional controller: moves the fraction by gain · (ratio − 1),
/// clamped to at most 0.3 per period, with a small downward drift
/// when the ratio sits inside the dead band (the freshness-seeking role
/// of Algorithm 1's probe). Converges in fewer periods under large
/// imbalances and takes smaller steps near equilibrium.
class ProportionalController : public FractionController {
 public:
  double NextFraction(const ControlInputs& inputs, const BalancerConfig& config,
                      obs::BalanceReason* reason = nullptr) override;
  std::string_view name() const override { return "proportional"; }
};

/// Age-of-information-minimising policy (after Behrouzi-Far et al., "Data
/// Freshness in Leader-Based Replicated Storage"): the expected age of a
/// served read is fraction · mean(secondary age), so the policy computes
/// the largest fraction that keeps that product under an age budget (half
/// the staleness bound) and lets the latency signal move the fraction
/// only underneath that cap. Fresh secondaries behave like Algorithm 1;
/// lagging secondaries pull the fraction down *before* the hard gate at
/// StaleBound would zero it.
class AoiController : public FractionController {
 public:
  double NextFraction(const ControlInputs& inputs, const BalancerConfig& config,
                      obs::BalanceReason* reason = nullptr) override;
  std::string_view name() const override { return "aoi"; }

  /// The fraction cap implied by the current age estimates (exposed for
  /// tests): age_budget / mean(secondary age), clamped to
  /// [kLowBal, kHighBal]; kHighBal when no secondary reports an age.
  static double AgeCap(const ControlInputs& inputs);
};

/// PID controller on the primary/secondary latency ratio, setpoint 1
/// (equal server-side latencies). Stateful: the integral term removes the
/// steady-state offset the pure step/proportional laws leave inside the
/// dead band, and the derivative term damps overshoot on load steps.
/// Anti-windup: the integral freezes while the output is saturated at a
/// bound, and decays while there is no ratio evidence.
class PidController : public FractionController {
 public:
  double NextFraction(const ControlInputs& inputs, const BalancerConfig& config,
                      obs::BalanceReason* reason = nullptr) override;
  std::string_view name() const override { return "pid"; }

  double integral() const { return integral_; }

 private:
  double integral_ = 0.0;
  double last_error_ = 0.0;
  bool have_last_error_ = false;
};

/// Registry of controller strategies, keyed by the name users pass as
/// `--controller=<name>` / BalancerConfig::controller. The paper's
/// Algorithm 1 registers as "decongestant"; rivals as "proportional",
/// "aoi", "pid". Returns nullptr for unknown names — callers own the
/// error message.
std::unique_ptr<FractionController> MakeController(std::string_view name);

/// Registered names, in a stable order — the bake-off and the conformance
/// suite iterate this.
const std::vector<std::string_view>& RegisteredControllers();

/// True when `name` selects the default StepController ("decongestant"):
/// the path that must stay bit-identical to the committed determinism
/// goldens.
bool IsDefaultController(std::string_view name);

}  // namespace dcg::core

#endif  // DCG_CORE_CONTROLLER_H_
