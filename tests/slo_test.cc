// Unit tests for the freshness SLO engine: sliding-window accounting and
// burn-rate math against hand-computed oracles, the alert state machine's
// edges (hold, cancel, flap-resistant resolve), the compact spec parser,
// the engine's per-op fan-out, and a conformance case running every
// registered balance-fraction controller under the same served-age SLO.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/controller.h"
#include "exp/experiment.h"
#include "obs/slo.h"

namespace dcg::obs {
namespace {

constexpr sim::Duration kPeriod = sim::Seconds(10);

// One custom single-rule spec so every oracle below is hand-checkable.
SloSpec OneRuleSpec(double objective, double bound, BurnRule rule) {
  SloSpec spec;
  spec.name = "test";
  spec.kind = SloKind::kFreshness;
  spec.objective = objective;
  spec.bound = bound;
  spec.rules = {rule};
  return spec;
}

BurnRule Rule(double burn_rate, double long_s, double short_s, double hold_s,
              double resolve_s) {
  BurnRule rule;
  rule.severity = SloSeverity::kPage;
  rule.burn_rate = burn_rate;
  rule.long_window = sim::Seconds(long_s);
  rule.short_window = sim::Seconds(short_s);
  rule.hold = sim::Seconds(hold_s);
  rule.resolve_hold = sim::Seconds(resolve_s);
  return rule;
}

// --- Window accounting oracles. -------------------------------------

TEST(SloTrackerTest, WindowSumsCoverExactlyTheClosedBuckets) {
  // 30 s long window over 10 s buckets = 3 buckets; 10 s short = 1.
  SloTracker tracker(OneRuleSpec(0.99, 1.0, Rule(10, 30, 10, 0, 20)),
                     kPeriod);
  std::vector<SloEvent> events;

  tracker.AddGood(90);
  tracker.AddBad(10);
  tracker.Evaluate(kPeriod, &events);  // bucket A: 90/10
  tracker.AddGood(50);
  tracker.Evaluate(2 * kPeriod, &events);  // bucket B: 50/0
  tracker.AddBad(5);
  tracker.Evaluate(3 * kPeriod, &events);  // bucket C: 0/5

  const SloTracker::WindowStats long_stats =
      tracker.WindowSums(sim::Seconds(30));
  EXPECT_EQ(long_stats.good, 140u);  // 90 + 50 + 0
  EXPECT_EQ(long_stats.bad, 15u);    // 10 + 0 + 5
  const SloTracker::WindowStats short_stats =
      tracker.WindowSums(sim::Seconds(10));
  EXPECT_EQ(short_stats.good, 0u);  // bucket C alone
  EXPECT_EQ(short_stats.bad, 5u);

  // A fourth bucket evicts A from the 3-bucket ring.
  tracker.AddGood(100);
  tracker.Evaluate(4 * kPeriod, &events);
  const SloTracker::WindowStats rolled =
      tracker.WindowSums(sim::Seconds(30));
  EXPECT_EQ(rolled.good, 150u);  // B + C + D
  EXPECT_EQ(rolled.bad, 5u);
}

TEST(SloTrackerTest, BurnRateIsBadFractionOverBudget) {
  // objective 0.99 -> budget 0.01. 95 good / 5 bad -> bad fraction 0.05
  // -> burn 5.0 exactly.
  SloTracker tracker(OneRuleSpec(0.99, 1.0, Rule(10, 10, 10, 0, 20)),
                     kPeriod);
  std::vector<SloEvent> events;
  tracker.AddGood(95);
  tracker.AddBad(5);
  tracker.Evaluate(kPeriod, &events);
  EXPECT_NEAR(tracker.BurnRate(sim::Seconds(10)), 5.0, 1e-9);
  EXPECT_DOUBLE_EQ(tracker.last_sli(), 0.95);
}

TEST(SloTrackerTest, ObserveClassifiesAgainstTheBound) {
  SloTracker tracker(OneRuleSpec(0.5, 2.0, Rule(10, 10, 10, 0, 20)),
                     kPeriod);
  std::vector<SloEvent> events;
  tracker.Observe(1.9);  // good (<= 2.0)
  tracker.Observe(2.0);  // good (boundary is good)
  tracker.Observe(2.1);  // bad
  tracker.Evaluate(kPeriod, &events);
  const SloTracker::WindowStats stats = tracker.WindowSums(sim::Seconds(10));
  EXPECT_EQ(stats.good, 2u);
  EXPECT_EQ(stats.bad, 1u);
}

TEST(SloTrackerTest, EmptyWindowConsumesNoBudget) {
  SloTracker tracker(OneRuleSpec(0.99, 1.0, Rule(10, 30, 10, 0, 20)),
                     kPeriod);
  std::vector<SloEvent> events;
  for (int i = 1; i <= 5; ++i) tracker.Evaluate(i * kPeriod, &events);
  EXPECT_TRUE(events.empty());
  EXPECT_DOUBLE_EQ(tracker.last_sli(), 1.0);
  EXPECT_DOUBLE_EQ(tracker.last_burn(), 0.0);
  EXPECT_EQ(tracker.state(0), AlertState::kInactive);
}

// --- Alert state machine edges. -------------------------------------

TEST(SloTrackerTest, ZeroHoldFiresPendingAndFiringInOneEvaluation) {
  SloTracker tracker(OneRuleSpec(0.99, 1.0, Rule(10, 10, 10, 0, 20)),
                     kPeriod);
  std::vector<SloEvent> events;
  tracker.AddGood(80);
  tracker.AddBad(20);  // burn 20 >= 10 on both (identical) windows
  tracker.Evaluate(kPeriod, &events);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].transition, SloTransition::kPending);
  EXPECT_EQ(events[1].transition, SloTransition::kFiring);
  EXPECT_EQ(events[1].at, kPeriod);
  EXPECT_NEAR(events[1].burn_long, 20.0, 1e-9);
  EXPECT_EQ(tracker.state(0), AlertState::kFiring);
}

TEST(SloTrackerTest, HoldDelaysFiringByOnePeriod) {
  // hold = one period: pending at the first met evaluation, firing at the
  // second consecutive one.
  SloTracker tracker(OneRuleSpec(0.99, 1.0, Rule(10, 30, 10, 10, 20)),
                     kPeriod);
  std::vector<SloEvent> events;
  tracker.AddBad(100);
  tracker.Evaluate(kPeriod, &events);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].transition, SloTransition::kPending);
  EXPECT_EQ(tracker.state(0), AlertState::kPending);

  tracker.AddBad(100);
  tracker.Evaluate(2 * kPeriod, &events);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[1].transition, SloTransition::kFiring);
  EXPECT_EQ(tracker.state(0), AlertState::kFiring);
}

TEST(SloTrackerTest, PendingCancelsWhenTheConditionClears) {
  // Long window = one bucket so the burn signal clears as soon as a good
  // bucket lands.
  SloTracker tracker(OneRuleSpec(0.99, 1.0, Rule(10, 10, 10, 10, 20)),
                     kPeriod);
  std::vector<SloEvent> events;
  tracker.AddBad(100);
  tracker.Evaluate(kPeriod, &events);  // pending
  tracker.AddGood(100);
  tracker.Evaluate(2 * kPeriod, &events);  // condition gone before hold
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[1].transition, SloTransition::kCancelled);
  EXPECT_EQ(tracker.state(0), AlertState::kInactive);
}

TEST(SloTrackerTest, ResolveRequiresTheFullDwellAndResistsFlaps) {
  // resolve_hold = 20 s, measured from the first clear evaluation: a
  // relapse restarts the dwell, and resolution lands on the first
  // evaluation at least 20 s after the dwell began.
  SloTracker tracker(OneRuleSpec(0.99, 1.0, Rule(10, 10, 10, 0, 20)),
                     kPeriod);
  std::vector<SloEvent> events;
  tracker.AddBad(100);
  tracker.Evaluate(kPeriod, &events);  // pending + firing
  ASSERT_EQ(events.size(), 2u);

  tracker.AddGood(100);
  tracker.Evaluate(2 * kPeriod, &events);  // clear; dwell starts at 20 s
  EXPECT_EQ(events.size(), 2u);
  EXPECT_EQ(tracker.state(0), AlertState::kFiring);

  tracker.AddBad(100);
  tracker.Evaluate(3 * kPeriod, &events);  // relapse - dwell restarts,
  EXPECT_EQ(events.size(), 2u);            // no duplicate firing event
  EXPECT_EQ(tracker.state(0), AlertState::kFiring);

  tracker.AddGood(100);
  tracker.Evaluate(4 * kPeriod, &events);  // clear; dwell starts at 40 s
  EXPECT_EQ(events.size(), 2u);
  tracker.AddGood(100);
  tracker.Evaluate(5 * kPeriod, &events);  // 10 s into the dwell
  EXPECT_EQ(events.size(), 2u);
  EXPECT_EQ(tracker.state(0), AlertState::kFiring);
  tracker.AddGood(100);
  tracker.Evaluate(6 * kPeriod, &events);  // 20 s clear - dwell met
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[2].transition, SloTransition::kResolved);
  EXPECT_EQ(events[2].at, 6 * kPeriod);
  EXPECT_EQ(tracker.state(0), AlertState::kInactive);
}

TEST(SloTrackerTest, ShortWindowVetoesAStaleLongWindow) {
  // Long window 30 s still remembers a bad bucket, but the short window
  // (10 s) has drained: the multi-window condition must NOT hold, which is
  // exactly what makes burn alerts stop re-firing after recovery.
  SloTracker tracker(OneRuleSpec(0.99, 1.0, Rule(10, 30, 10, 0, 20)),
                     kPeriod);
  std::vector<SloEvent> events;
  tracker.AddBad(100);
  tracker.Evaluate(kPeriod, &events);  // fires
  ASSERT_EQ(events.size(), 2u);
  const size_t fired = events.size();

  tracker.AddGood(1000);
  tracker.Evaluate(2 * kPeriod, &events);
  // Long window burn: 100 bad / 1100 total / 0.01 budget = 9.09 < 10
  // already, but even with a hotter long window the short window's 0
  // would veto. Either way: no new transitions except the resolve later.
  EXPECT_GT(tracker.BurnRate(sim::Seconds(10)), -1.0);  // well-defined
  EXPECT_EQ(tracker.WindowSums(sim::Seconds(10)).bad, 0u);
  EXPECT_EQ(events.size(), fired);
}

// --- Engine fan-out. -------------------------------------------------

TEST(SloEngineTest, FansObservationsOutByKind) {
  SloEngine engine(kPeriod);
  SloSpec freshness;
  freshness.kind = SloKind::kFreshness;
  freshness.bound = 2.0;
  SloSpec latency;
  latency.kind = SloKind::kLatency;
  latency.bound = 5.0;
  SloSpec success;
  success.kind = SloKind::kSuccess;
  SloTracker& f = engine.AddSlo(freshness);
  SloTracker& l = engine.AddSlo(latency);
  SloTracker& s = engine.AddSlo(success);

  engine.ObserveServedAge(1.0, /*used_secondary=*/true);   // f: good
  engine.ObserveServedAge(9.0, /*used_secondary=*/false);  // primary: ignored
  engine.ObserveReadLatencyMs(4.0);                        // l: good
  engine.ObserveReadLatencyMs(6.0);                        // l: bad
  engine.ObserveOutcome(true);                             // s: good
  engine.ObserveOutcome(false);                            // s: bad
  engine.Evaluate(kPeriod);

  EXPECT_EQ(f.WindowSums(kPeriod).good, 1u);
  EXPECT_EQ(f.WindowSums(kPeriod).bad, 0u);
  EXPECT_EQ(l.WindowSums(kPeriod).good, 1u);
  EXPECT_EQ(l.WindowSums(kPeriod).bad, 1u);
  EXPECT_EQ(s.WindowSums(kPeriod).good, 1u);
  EXPECT_EQ(s.WindowSums(kPeriod).bad, 1u);
  EXPECT_EQ(engine.evaluations(), 1u);
}

TEST(SloEngineTest, ShardedFreshnessUsesTheSampledSourceNotTheOpFeed) {
  SloEngine engine(kPeriod);
  SloSpec freshness;
  freshness.kind = SloKind::kFreshness;
  freshness.bound = 2.0;
  SloTracker& shard0 = engine.AddSlo(freshness, /*shard=*/0);
  double staleness = 1.0;
  shard0.SetSource([&staleness] { return staleness; });

  // Per-op served ages must NOT reach a sharded tracker.
  engine.ObserveServedAge(99.0, /*used_secondary=*/true);
  engine.Evaluate(kPeriod);  // samples source: 1.0 <= 2.0, good
  EXPECT_EQ(shard0.WindowSums(kPeriod).good, 1u);
  EXPECT_EQ(shard0.WindowSums(kPeriod).bad, 0u);

  staleness = 3.0;
  engine.Evaluate(2 * kPeriod);  // samples source: 3.0 > 2.0, bad
  EXPECT_EQ(shard0.WindowSums(kPeriod).bad, 1u);
}

// --- Compact spec parser. --------------------------------------------

TEST(SloParseTest, DefaultBundleDerivesFromTheRunDefaults) {
  SloDefaults defaults;
  defaults.stale_bound_seconds = 7;
  defaults.latency_target_ms = 4.5;
  std::vector<SloSpec> specs;
  std::string error;
  ASSERT_TRUE(ParseSloSpecs("default", defaults, &specs, &error)) << error;
  ASSERT_EQ(specs.size(), 3u);
  EXPECT_EQ(specs[0].kind, SloKind::kFreshness);
  EXPECT_DOUBLE_EQ(specs[0].objective, 0.99);
  EXPECT_DOUBLE_EQ(specs[0].bound, 7.0);
  EXPECT_EQ(specs[1].kind, SloKind::kLatency);
  EXPECT_DOUBLE_EQ(specs[1].objective, 0.80);
  EXPECT_DOUBLE_EQ(specs[1].bound, 4.5);
  EXPECT_EQ(specs[2].kind, SloKind::kSuccess);
  EXPECT_DOUBLE_EQ(specs[2].objective, 0.999);
}

TEST(SloParseTest, CustomSpecOverridesEveryKnob) {
  std::vector<SloSpec> specs;
  std::string error;
  ASSERT_TRUE(ParseSloSpecs(
      "freshness:bound=2:objective=0.95:name=fresh2:page=5:ticket=0:"
      "window=15:short=5:hold=10:resolve=30;success",
      SloDefaults{}, &specs, &error))
      << error;
  ASSERT_EQ(specs.size(), 2u);
  const SloSpec& fresh = specs[0];
  EXPECT_EQ(fresh.name, "fresh2");
  EXPECT_DOUBLE_EQ(fresh.bound, 2.0);
  EXPECT_DOUBLE_EQ(fresh.objective, 0.95);
  ASSERT_EQ(fresh.rules.size(), 1u);  // ticket=0 disabled the ticket rule
  EXPECT_EQ(fresh.rules[0].severity, SloSeverity::kPage);
  EXPECT_DOUBLE_EQ(fresh.rules[0].burn_rate, 5.0);
  EXPECT_EQ(fresh.rules[0].long_window, sim::Seconds(15));
  EXPECT_EQ(fresh.rules[0].short_window, sim::Seconds(5));
  EXPECT_EQ(fresh.rules[0].hold, sim::Seconds(10));
  EXPECT_EQ(fresh.rules[0].resolve_hold, sim::Seconds(30));
  // Bare "success" keeps both default rules.
  EXPECT_EQ(specs[1].rules.size(), 2u);
}

TEST(SloParseTest, TicketRuleScalesOffThePageWindows) {
  std::vector<SloSpec> specs;
  std::string error;
  ASSERT_TRUE(ParseSloSpecs("latency:window=20:short=5:resolve=15",
                            SloDefaults{}, &specs, &error))
      << error;
  ASSERT_EQ(specs[0].rules.size(), 2u);
  const BurnRule& ticket = specs[0].rules[1];
  EXPECT_EQ(ticket.severity, SloSeverity::kTicket);
  EXPECT_EQ(ticket.long_window, sim::Seconds(80));   // 4 x window
  EXPECT_EQ(ticket.short_window, sim::Seconds(20));  // window
  EXPECT_EQ(ticket.resolve_hold, sim::Seconds(30));  // 2 x resolve
}

TEST(SloParseTest, RejectsMalformedSpecs) {
  std::vector<SloSpec> specs;
  std::string error;
  EXPECT_FALSE(ParseSloSpecs("fresh", SloDefaults{}, &specs, &error));
  EXPECT_NE(error.find("unknown slo kind"), std::string::npos);
  EXPECT_FALSE(
      ParseSloSpecs("freshness:bound", SloDefaults{}, &specs, &error));
  EXPECT_FALSE(
      ParseSloSpecs("freshness:bound=x", SloDefaults{}, &specs, &error));
  EXPECT_FALSE(
      ParseSloSpecs("freshness:objective=1.5", SloDefaults{}, &specs,
                    &error));
  EXPECT_FALSE(ParseSloSpecs("freshness:page=0:ticket=0", SloDefaults{},
                             &specs, &error));
  EXPECT_FALSE(ParseSloSpecs("freshness:speed=9", SloDefaults{}, &specs,
                             &error));
  EXPECT_FALSE(ParseSloSpecs(";", SloDefaults{}, &specs, &error));
}

// --- Controller conformance: a healthy run pages nobody. --------------

// Every registered balance-fraction controller (plus the paper's default)
// must keep a healthy 3-node YCSB-B run inside the served-age SLO: the
// engine evaluates throughout and no page-severity alert ever fires.
TEST(SloConformanceTest, NoControllerPagesOnAHealthyRun) {
  std::vector<std::string> controllers = {"decongestant"};
  for (std::string_view name : core::RegisteredControllers()) {
    if (name != "decongestant") controllers.emplace_back(name);
  }
  for (const std::string& controller : controllers) {
    exp::ExperimentConfig config;
    config.seed = 31;
    config.system = exp::SystemType::kDecongestant;
    config.kind = exp::WorkloadKind::kYcsb;
    config.phases = {{0, 12, 0.95}};
    config.duration = sim::Seconds(120);
    config.warmup = sim::Seconds(20);
    config.balancer.controller = controller;
    std::string error;
    ASSERT_TRUE(ParseSloSpecs("freshness", SloDefaults{}, &config.slos,
                              &error))
        << error;
    exp::Experiment experiment(config);
    experiment.Run();
    const SloEngine* engine = experiment.slo_engine();
    ASSERT_NE(engine, nullptr) << controller;
    EXPECT_GE(engine->evaluations(), 10u) << controller;
    for (const SloEvent& e : engine->events()) {
      ADD_FAILURE() << controller << ": unexpected alert transition "
                    << ToString(e.transition) << " for " << e.slo << " at t="
                    << sim::ToSeconds(e.at) << "s";
    }
  }
}

}  // namespace
}  // namespace dcg::obs
