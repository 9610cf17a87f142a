#ifndef DCG_CORE_CONTROLLER_H_
#define DCG_CORE_CONTROLLER_H_

#include <memory>
#include <string_view>
#include <vector>

#include "core/balancer_config.h"
#include "obs/decision_log.h"
#include "sim/time.h"

namespace dcg::core {

/// Per-period inputs to a Balance Fraction controller. The first block is
/// what Algorithm 1 consumes; the rest widens the signal surface so rival
/// policies (SLA feedback, age-of-information, PID) can be dropped in
/// without touching the Read Balancer. Every field is client-observable —
/// derived from the shared latency lists, the RTT windows, or the
/// serverStatus replies — never from simulator ground truth.
struct ControlInputs {
  /// RecentBal.latest(): the newest non-zero decision.
  double latest_fraction = 0.0;
  /// Lss,primary / Lss,secondary. Meaningless when !ratio_valid.
  double ratio = 1.0;
  /// False when either latency list was empty this period.
  bool ratio_valid = false;
  /// True when the whole RecentBal history equals latest_fraction.
  bool history_flat = false;

  /// Server-Side Latency estimates behind `ratio` (valid iff ratio_valid).
  sim::Duration lss_primary = 0;
  sim::Duration lss_secondary = 0;
  /// P50 of all client-observed read latencies this period, both routes
  /// pooled — the quantity an application-level SLA is written against.
  /// 0 when no reads completed.
  sim::Duration p50_read_latency = 0;
  /// Per-node staleness estimates from the latest serverStatus (whole
  /// seconds; -1 for the primary and nodes the reply did not cover) —
  /// the client-observable age-of-information signal.
  std::vector<int64_t> secondary_age_s;
  /// max over secondary_age_s (the balancer's staleness estimate).
  int64_t staleness_estimate_s = 0;
  /// The bound the staleness gate enforces right now (shared-budget aware).
  int64_t stale_bound_s = 0;
};

/// Strategy for turning the period's signals into the next Balance
/// Fraction. The paper's Algorithm 1 is StepController (registered as the
/// default "decongestant" policy); the rivals implement the control laws
/// the ROADMAP names — CPQ-style SLA feedback, AoI minimisation, and PID
/// on the latency ratio. The staleness gate is NOT part of any
/// controller — the Read Balancer applies it on top, whatever the
/// controller decides, so every policy inherits the paper's bound.
class FractionController {
 public:
  virtual ~FractionController() = default;

  /// Returns the next fraction, within [config.low_bal, config.high_bal].
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
  std::string_view name() const override { return "step"; }
};

/// A proportional controller: moves the fraction by gain · (ratio − 1),
/// clamped to at most `max_step` per period, with a small downward drift
/// when the ratio sits inside the dead band (the freshness-seeking role
/// of Algorithm 1's probe). Converges in fewer periods under large
/// imbalances and takes smaller steps near equilibrium.
class ProportionalController : public FractionController {
 public:
  explicit ProportionalController(double gain = 0.25, double max_step = 0.3,
                                  double drift = 0.02)
      : gain_(gain), max_step_(max_step), drift_(drift) {}

  double NextFraction(const ControlInputs& inputs, const BalancerConfig& config,
                      obs::BalanceReason* reason = nullptr) override;
  std::string_view name() const override { return "proportional"; }

 private:
  double gain_;
  double max_step_;
  double drift_;
};

/// Continuous-Partial-Quorums-style router (McKenzie et al.): the per-op
/// Bernoulli choice already lives in RoutingPolicy; this controller
/// supplies its probability from SLA feedback on a read-latency target.
/// When the period's P50 read latency misses the target, the fraction
/// steps toward whichever side the Lss ratio says is faster, scaled by
/// the size of the miss; when the SLA is met with headroom, it drifts
/// toward the fresh primary.
class CpqController : public FractionController {
 public:
  explicit CpqController(sim::Duration sla_target = sim::Millis(3),
                         double gain = 0.5, double max_step = 0.3,
                         double drift = 0.05, double tolerance = 0.05)
      : sla_target_(sla_target),
        gain_(gain),
        max_step_(max_step),
        drift_(drift),
        tolerance_(tolerance) {}

  double NextFraction(const ControlInputs& inputs, const BalancerConfig& config,
                      obs::BalanceReason* reason = nullptr) override;
  std::string_view name() const override { return "cpq"; }

  sim::Duration sla_target() const { return sla_target_; }

 private:
  sim::Duration sla_target_;
  double gain_;
  double max_step_;
  double drift_;
  double tolerance_;
};

/// Age-of-information-minimising policy (after Behrouzi-Far et al., "Data
/// Freshness in Leader-Based Replicated Storage"): the expected age of a
/// served read is fraction · mean(secondary age), so the policy computes
/// the largest fraction that keeps that product under an age budget (a
/// configurable share of the staleness bound) and lets the latency signal
/// move the fraction only underneath that cap. Fresh secondaries behave
/// like Algorithm 1; lagging secondaries pull the fraction down *before*
/// the hard gate at StaleBound would zero it.
class AoiController : public FractionController {
 public:
  explicit AoiController(double budget_share = 0.5, double max_step = 0.3)
      : budget_share_(budget_share), max_step_(max_step) {}

  double NextFraction(const ControlInputs& inputs, const BalancerConfig& config,
                      obs::BalanceReason* reason = nullptr) override;
  std::string_view name() const override { return "aoi"; }

  /// The fraction cap implied by the current age estimates (exposed for
  /// tests): age_budget / mean(secondary age), clamped to
  /// [low_bal, high_bal]; high_bal when no secondary reports an age.
  static double AgeCap(const ControlInputs& inputs,
                       const BalancerConfig& config, double budget_share);

 private:
  double budget_share_;
  double max_step_;
};

/// PID controller on the primary/secondary latency ratio, setpoint 1
/// (equal server-side latencies). Stateful: the integral term removes the
/// steady-state offset the pure step/proportional laws leave inside the
/// dead band, and the derivative term damps overshoot on load steps.
/// Anti-windup: the integral freezes while the output is saturated at a
/// bound, and decays while there is no ratio evidence.
class PidController : public FractionController {
 public:
  explicit PidController(double kp = 0.3, double ki = 0.05, double kd = 0.1,
                         double max_step = 0.25, double integral_limit = 2.0)
      : kp_(kp),
        ki_(ki),
        kd_(kd),
        max_step_(max_step),
        integral_limit_(integral_limit) {}

  double NextFraction(const ControlInputs& inputs, const BalancerConfig& config,
                      obs::BalanceReason* reason = nullptr) override;
  std::string_view name() const override { return "pid"; }

  double integral() const { return integral_; }

 private:
  double kp_;
  double ki_;
  double kd_;
  double max_step_;
  double integral_limit_;
  double integral_ = 0.0;
  double last_error_ = 0.0;
  bool have_last_error_ = false;
};

/// Registry of controller strategies, keyed by the name users pass as
/// `--controller=<name>` / BalancerConfig::controller. The paper's
/// Algorithm 1 registers as "decongestant" (alias "step"); rivals as
/// "proportional", "cpq", "aoi", "pid". Returns nullptr for unknown
/// names — callers own the error message.
std::unique_ptr<FractionController> MakeController(std::string_view name);

/// Canonical registered names (no aliases), in a stable order — the
/// bake-off and the conformance suite iterate this.
const std::vector<std::string_view>& RegisteredControllers();

/// True when `name` selects the same control law as the default
/// StepController ("decongestant" or its legacy alias "step"): the path
/// that must stay bit-identical to the committed determinism goldens.
bool IsDefaultController(std::string_view name);

}  // namespace dcg::core

#endif  // DCG_CORE_CONTROLLER_H_
