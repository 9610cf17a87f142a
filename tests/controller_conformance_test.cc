// Conformance suite for the Balance Fraction controller registry: every
// registered strategy must keep its output inside the paper's fraction
// range, respect the Read Balancer's staleness gate (the gate wraps the
// controller, so this is a whole-balancer test), be deterministic under a
// fixed input sequence, and report a BalanceReason on every tick. Plus
// targeted tests for each rival's control law and the served-age
// (age-of-information) histogram oracle.

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/controller.h"
#include "core/read_balancer.h"
#include "core/shared_state.h"
#include "exp/experiment.h"
#include "metrics/histogram.h"
#include "repl/replica_set.h"
#include "sim/event_loop.h"
#include "sim/random.h"

namespace dcg::core {
namespace {

// A reason value no controller can legitimately emit: proves the callee
// wrote the out-param rather than leaving it untouched.
constexpr auto kReasonSentinel =
    static_cast<obs::BalanceReason>(obs::kBalanceReasonCount);

// Randomized-but-reproducible controller inputs spanning the whole signal
// surface: valid and invalid ratios, empty and populated age vectors,
// fractions at and between the bounds.
ControlInputs RandomInputs(sim::Rng* rng) {
  ControlInputs inputs;
  const auto percent = static_cast<double>(rng->UniformInt(0, 100));
  inputs.latest_fraction = kLowBal + (kHighBal - kLowBal) * percent / 100.0;
  inputs.ratio_valid = rng->Bernoulli(0.8);
  inputs.ratio = inputs.ratio_valid
                     ? static_cast<double>(rng->UniformInt(1, 400)) / 100.0
                     : 1.0;
  inputs.history_flat = rng->Bernoulli(0.3);
  const int64_t secondaries = rng->UniformInt(0, 3);
  for (int64_t i = 0; i < secondaries; ++i) {
    inputs.secondary_age_s.push_back(rng->UniformInt(-1, 30));
  }
  inputs.stale_bound_s = rng->UniformInt(0, 20);
  return inputs;
}

TEST(ControllerRegistryTest, KnownNamesResolveAndUnknownsDoNot) {
  // The laws that survived the ten-seed bake-off (EXPERIMENTS.md), in
  // registry order; each reports its own registered name.
  EXPECT_EQ(RegisteredControllers(),
            (std::vector<std::string_view>{"decongestant", "proportional",
                                           "aoi", "pid"}));
  for (std::string_view name : RegisteredControllers()) {
    auto controller = MakeController(name);
    ASSERT_NE(controller, nullptr) << name;
    EXPECT_EQ(controller->name(), name);
  }
  // Names the bake-off retired, and the old alias of Algorithm 1.
  EXPECT_EQ(MakeController("cpq"), nullptr);
  EXPECT_EQ(MakeController("step"), nullptr);
  EXPECT_EQ(MakeController("bogus"), nullptr);
  EXPECT_EQ(MakeController(""), nullptr);
  EXPECT_TRUE(IsDefaultController("decongestant"));
  EXPECT_FALSE(IsDefaultController("step"));
  EXPECT_FALSE(IsDefaultController("proportional"));
  EXPECT_FALSE(IsDefaultController("aoi"));
  EXPECT_FALSE(IsDefaultController("pid"));
}

TEST(ControllerConformanceTest, FractionStaysWithinBounds) {
  const BalancerConfig config;
  for (std::string_view name : RegisteredControllers()) {
    auto controller = MakeController(name);
    sim::Rng rng(11);
    for (int i = 0; i < 2000; ++i) {
      const ControlInputs inputs = RandomInputs(&rng);
      const double next = controller->NextFraction(inputs, config);
      EXPECT_GE(next, kLowBal - 1e-12)
          << name << " step " << i << " returned " << next;
      EXPECT_LE(next, kHighBal + 1e-12)
          << name << " step " << i << " returned " << next;
    }
  }
}

TEST(ControllerConformanceTest, DeterministicUnderSameInputSequence) {
  const BalancerConfig config;
  for (std::string_view name : RegisteredControllers()) {
    // Two fresh instances, identical input streams: outputs must agree
    // exactly — controllers carry no hidden entropy, only explicit state.
    auto a = MakeController(name);
    auto b = MakeController(name);
    sim::Rng rng_a(23);
    sim::Rng rng_b(23);
    for (int i = 0; i < 500; ++i) {
      const ControlInputs ia = RandomInputs(&rng_a);
      const ControlInputs ib = RandomInputs(&rng_b);
      obs::BalanceReason ra = kReasonSentinel;
      obs::BalanceReason rb = kReasonSentinel;
      const double fa = a->NextFraction(ia, config, &ra);
      const double fb = b->NextFraction(ib, config, &rb);
      ASSERT_DOUBLE_EQ(fa, fb) << name << " step " << i;
      ASSERT_EQ(ra, rb) << name << " step " << i;
    }
  }
}

TEST(ControllerConformanceTest, ReportsReasonEveryTick) {
  const BalancerConfig config;
  for (std::string_view name : RegisteredControllers()) {
    auto controller = MakeController(name);
    sim::Rng rng(37);
    for (int i = 0; i < 500; ++i) {
      obs::BalanceReason reason = kReasonSentinel;
      controller->NextFraction(RandomInputs(&rng), config, &reason);
      ASSERT_NE(reason, kReasonSentinel) << name << " step " << i;
      ASSERT_LT(static_cast<size_t>(reason), obs::kBalanceReasonCount)
          << name << " step " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Stale-gate conformance: the gate lives in the Read Balancer, above the
// controller. With StaleBound 0 the published fraction must pin at 0 no
// matter which strategy is installed or how congested the primary looks.
// ---------------------------------------------------------------------------

class ControllerGateTest : public ::testing::Test {
 protected:
  void Build(BalancerConfig config, std::string_view controller) {
    // Tear down the previous strategy's stack (reverse dependency order)
    // so each registered controller gets a fresh, identical world.
    balancer_.reset();
    state_.reset();
    client_.reset();
    rs_.reset();
    network_.reset();
    loop_ = std::make_unique<sim::EventLoop>();

    config_ = config;
    network_ = std::make_unique<net::Network>(loop_.get(), sim::Rng(1));
    const net::HostId c = network_->AddHost("client");
    repl::ReplicaSetParams params;
    server::ServerParams server_params;
    server_params.service.sigma = 0.0;
    std::vector<net::HostId> hosts;
    for (int i = 0; i < 3; ++i) {
      hosts.push_back(network_->AddHost("n" + std::to_string(i)));
      network_->SetLink(c, hosts[i], sim::Millis(1), 0);
    }
    rs_ = std::make_unique<repl::ReplicaSet>(loop_.get(), sim::Rng(2),
                                             network_.get(), params,
                                             server_params, hosts);
    client_ = std::make_unique<driver::MongoClient>(
        loop_.get(), sim::Rng(3), rs_->command_bus(), c,
        driver::ClientOptions{});
    state_ = std::make_unique<SharedState>(kLowBal);
    balancer_ = std::make_unique<ReadBalancer>(client_.get(), state_.get(),
                                               config, sim::Rng(4));
    auto strategy = MakeController(controller);
    ASSERT_NE(strategy, nullptr);
    balancer_->SetController(std::move(strategy));
  }

  void InjectLatencies(sim::Duration primary, sim::Duration secondary,
                       int per_second = 10) {
    for (int i = 0; i < per_second; ++i) {
      state_->RecordLatency(driver::ReadPreference::kPrimary, primary);
      state_->RecordLatency(driver::ReadPreference::kSecondary, secondary);
    }
    loop_->ScheduleAfter(sim::Seconds(1), [this, primary, secondary,
                                           per_second] {
      InjectLatencies(primary, secondary, per_second);
    });
  }

  void Start() {
    rs_->Start();
    client_->Start();
    balancer_->Start();
  }

  BalancerConfig config_;
  std::unique_ptr<sim::EventLoop> loop_ = std::make_unique<sim::EventLoop>();
  std::unique_ptr<net::Network> network_;
  std::unique_ptr<repl::ReplicaSet> rs_;
  std::unique_ptr<driver::MongoClient> client_;
  std::unique_ptr<SharedState> state_;
  std::unique_ptr<ReadBalancer> balancer_;
};

TEST_F(ControllerGateTest, StaleBoundZeroPinsEveryStrategyToPrimary) {
  for (std::string_view name : RegisteredControllers()) {
    SCOPED_TRACE(std::string(name));
    BalancerConfig config;
    config.stale_bound_seconds = 0;
    Build(config, name);
    Start();
    // Primary heavily congested: every latency-chasing law wants the
    // secondaries, but the gate says no staleness is tolerable.
    InjectLatencies(sim::Millis(50), sim::Millis(5));
    loop_->RunUntil(sim::Seconds(60));
    EXPECT_DOUBLE_EQ(state_->balance_fraction(), 0.0);
    EXPECT_TRUE(balancer_->stale_blocked());
  }
}

TEST_F(ControllerGateTest, EveryStrategyTicksThroughTheDecisionLog) {
  for (std::string_view name : RegisteredControllers()) {
    SCOPED_TRACE(std::string(name));
    Build(BalancerConfig{}, name);
    Start();
    InjectLatencies(sim::Millis(50), sim::Millis(5));
    loop_->RunUntil(sim::Seconds(45));
    const obs::DecisionLog& log = balancer_->decisions();
    EXPECT_GE(log.size(), 4u);
    for (const obs::BalanceDecision& d : log.entries()) {
      EXPECT_LT(static_cast<size_t>(d.reason), obs::kBalanceReasonCount);
      EXPECT_FALSE(obs::ToString(d.reason).empty());
    }
  }
}

// ---------------------------------------------------------------------------
// Control-law spot checks for the rivals.
// ---------------------------------------------------------------------------

ControlInputs ValidRatioInputs(double latest, double ratio) {
  ControlInputs inputs;
  inputs.latest_fraction = latest;
  inputs.ratio = ratio;
  inputs.ratio_valid = true;
  return inputs;
}

TEST(AoiControllerTest, AgeCapMatchesHandComputedOracle) {
  // LOWBAL 0.1, HIGHBAL 0.9, bound 10 s: budget = 0.5 * 10 s = 5 s.
  ControlInputs inputs;
  inputs.stale_bound_s = 10;

  // Fresh secondaries (mean age 3 s): cap = 5/3 -> clamped to HIGHBAL.
  inputs.secondary_age_s = {2, 4};
  EXPECT_DOUBLE_EQ(AoiController::AgeCap(inputs), 0.9);

  // Mean age 10 s: cap = 5/10 = 0.5 exactly.
  inputs.secondary_age_s = {8, 12};
  EXPECT_DOUBLE_EQ(AoiController::AgeCap(inputs), 0.5);

  // Unknown ages (-1 entries are skipped): only the 20 s node counts,
  // cap = 5/20 = 0.25.
  inputs.secondary_age_s = {-1, 20};
  EXPECT_DOUBLE_EQ(AoiController::AgeCap(inputs), 0.25);

  // Very stale (mean 100 s): 5/100 = 0.05 floors at LOWBAL.
  inputs.secondary_age_s = {100};
  EXPECT_DOUBLE_EQ(AoiController::AgeCap(inputs), 0.1);

  // No age evidence at all: no cap.
  inputs.secondary_age_s = {-1, -1};
  EXPECT_DOUBLE_EQ(AoiController::AgeCap(inputs), 0.9);
  inputs.secondary_age_s.clear();
  EXPECT_DOUBLE_EQ(AoiController::AgeCap(inputs), 0.9);

  // Zero bound: the hard gate owns this case; the cap stays out of the way.
  inputs.stale_bound_s = 0;
  inputs.secondary_age_s = {100};
  EXPECT_DOUBLE_EQ(AoiController::AgeCap(inputs), 0.9);
}

TEST(AoiControllerTest, CapOverridesLatencyPressure) {
  const BalancerConfig config;
  AoiController aoi;
  // Congested primary says "go up", but the secondaries are 20 s old on
  // average: cap = 5/20 = 0.25 beats the latency move.
  ControlInputs inputs = ValidRatioInputs(0.8, 3.0);
  inputs.stale_bound_s = 10;
  inputs.secondary_age_s = {20, 20};
  obs::BalanceReason reason = kReasonSentinel;
  const double next = aoi.NextFraction(inputs, config, &reason);
  EXPECT_LT(next, 0.8);
  EXPECT_EQ(reason, obs::BalanceReason::kAoiCapped);

  // Fresh secondaries: behaves like Algorithm 1's up-step.
  inputs.secondary_age_s = {0, 0};
  const double up = aoi.NextFraction(inputs, config, &reason);
  EXPECT_GT(up, 0.8);
  EXPECT_EQ(reason, obs::BalanceReason::kLatencyRatioUp);
}

TEST(PidControllerTest, IntegralDecaysWithoutEvidenceAndStaysBounded) {
  const BalancerConfig config;
  PidController pid;
  // Sustained small positive error with an unsaturated output: the
  // integral accumulates but the windup clamp bounds it.
  for (int i = 0; i < 50; ++i) {
    pid.NextFraction(ValidRatioInputs(0.5, 1.2), config);
  }
  EXPECT_GT(std::abs(pid.integral()), 0.0);
  EXPECT_LE(std::abs(pid.integral()), 2.0 + 1e-9);

  // No evidence: the integral decays toward zero instead of persisting.
  const double before = std::abs(pid.integral());
  ControlInputs invalid;
  invalid.latest_fraction = kHighBal;
  invalid.ratio_valid = false;
  obs::BalanceReason reason = kReasonSentinel;
  const double held = pid.NextFraction(invalid, config, &reason);
  EXPECT_DOUBLE_EQ(held, kHighBal);  // holds the fraction
  EXPECT_EQ(reason, obs::BalanceReason::kNoEvidence);
  EXPECT_LT(std::abs(pid.integral()), before);

  // Pinned at HIGHBAL with the error still positive: anti-windup freezes
  // integration, so the integral never exceeds its clamp.
  for (int i = 0; i < 200; ++i) {
    pid.NextFraction(ValidRatioInputs(kHighBal, 4.0), config);
  }
  EXPECT_LE(std::abs(pid.integral()), 2.0 + 1e-9);
}

TEST(PidControllerTest, MovesWithTheSignOfTheError) {
  const BalancerConfig config;
  PidController pid;
  obs::BalanceReason reason = kReasonSentinel;
  const double up = pid.NextFraction(ValidRatioInputs(0.5, 2.0), config,
                                     &reason);
  EXPECT_GT(up, 0.5);
  EXPECT_EQ(reason, obs::BalanceReason::kLatencyRatioUp);

  PidController fresh;
  const double down = fresh.NextFraction(ValidRatioInputs(0.5, 0.4), config,
                                         &reason);
  EXPECT_LT(down, 0.5);
  EXPECT_EQ(reason, obs::BalanceReason::kLatencyRatioDown);
}

// ---------------------------------------------------------------------------
// Served-age (age-of-information) histogram oracle.
// ---------------------------------------------------------------------------

TEST(ServedAgeHistogramTest, MatchesHandComputedOracle) {
  // The experiment records served ages in milliseconds and exports
  // seconds via a 1/1000 scale; mean and max are exact (sum/count and
  // running max), so a hand-computed oracle holds exactly.
  metrics::Histogram age_ms;
  for (double v : {0.0, 0.0, 250.0, 1000.0, 3750.0}) age_ms.Add(v);
  EXPECT_EQ(age_ms.count(), 5u);
  EXPECT_DOUBLE_EQ(age_ms.sum(), 5000.0);
  EXPECT_DOUBLE_EQ(age_ms.mean(), 1000.0);   // 1.000 s after scaling
  EXPECT_DOUBLE_EQ(age_ms.max(), 3750.0);    // 3.750 s after scaling
  EXPECT_DOUBLE_EQ(age_ms.min(), 0.0);
  // Percentiles are bucketed (5 % growth): P100 lands in the bucket
  // containing the max, never below the true max.
  EXPECT_GE(age_ms.Percentile(100), 3750.0);
  EXPECT_LE(age_ms.Percentile(100), 3750.0 * 1.05);
}

TEST(ServedAgeHistogramTest, PrimaryReadsServeZeroAge) {
  // System = primary-only: every read is served by the primary, so the
  // served-age distribution is identically zero and no bound violations
  // can occur.
  exp::ExperimentConfig config;
  config.system = exp::SystemType::kPrimary;
  config.phases = {{0, 4, 0.9}};
  config.duration = sim::Seconds(40);
  config.warmup = sim::Seconds(5);
  config.run_s_workload = false;
  exp::Experiment experiment(config);
  experiment.Run();
  const exp::Summary summary = experiment.Summarize();
  EXPECT_GT(summary.read_throughput, 0.0);
  EXPECT_DOUBLE_EQ(summary.mean_served_age_s, 0.0);
  EXPECT_DOUBLE_EQ(summary.max_served_age_s, 0.0);
  EXPECT_EQ(summary.bound_violations, 0u);
}

TEST(ServedAgeHistogramTest, SecondaryReadsAccrueAge) {
  exp::ExperimentConfig config;
  config.system = exp::SystemType::kSecondary;
  config.phases = {{0, 4, 0.5}};  // writes keep secondaries behind
  config.duration = sim::Seconds(40);
  config.warmup = sim::Seconds(5);
  config.run_s_workload = false;
  exp::Experiment experiment(config);
  experiment.Run();
  const exp::Summary summary = experiment.Summarize();
  EXPECT_GT(summary.max_served_age_s, 0.0);
  EXPECT_GE(summary.max_served_age_s, summary.mean_served_age_s);
}

}  // namespace
}  // namespace dcg::core
