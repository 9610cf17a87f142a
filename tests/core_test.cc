// Tests for Decongestant's core: SharedState, routing policies, the
// ClientStack construction contract, and the Read Balancer's Algorithm 1
// behaviour (driven by injected latencies).

#include <memory>

#include <gtest/gtest.h>

#include "commit_helper.h"
#include "core/client_stack.h"
#include "core/read_balancer.h"
#include "core/routing_policy.h"
#include "core/shared_state.h"
#include "repl/replica_set.h"

namespace dcg::core {
namespace {

TEST(SharedStateTest, RecordsAndDrainsByPreference) {
  SharedState state(0.1);
  state.RecordLatency(driver::ReadPreference::kPrimary, sim::Millis(1));
  state.RecordLatency(driver::ReadPreference::kSecondary, sim::Millis(2));
  state.RecordLatency(driver::ReadPreference::kSecondaryPreferred,
                      sim::Millis(3));
  EXPECT_EQ(state.pending_primary(), 1u);
  EXPECT_EQ(state.pending_secondary(), 2u);
  EXPECT_EQ(state.DrainPrimaryLatencies().size(), 1u);
  EXPECT_EQ(state.DrainSecondaryLatencies().size(), 2u);
  EXPECT_EQ(state.pending_primary(), 0u);
  EXPECT_EQ(state.pending_secondary(), 0u);
}

TEST(RoutingPolicyTest, FixedPoliciesNeverVary) {
  sim::Rng rng(1);
  const RoutingPolicy primary(driver::ReadPreference::kPrimary);
  const RoutingPolicy secondary(driver::ReadPreference::kSecondary);
  sim::Rng reference(1);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(primary.ChooseReadPreference(&rng),
              driver::ReadPreference::kPrimary);
    EXPECT_EQ(secondary.ChooseReadPreference(&rng),
              driver::ReadPreference::kSecondary);
  }
  // A fixed policy draws nothing: the baselines consume no randomness.
  EXPECT_EQ(rng.NextU64(), reference.NextU64());
  EXPECT_EQ(primary.balance_fraction(), 0.0);
  EXPECT_EQ(secondary.balance_fraction(), 1.0);
}

TEST(RoutingPolicyTest, DecongestantFlipsBiasedCoin) {
  SharedState state(0.1);
  const RoutingPolicy policy(&state);
  sim::Rng rng(2);

  state.set_balance_fraction(0.7);
  EXPECT_EQ(policy.balance_fraction(), 0.7);
  int secondary = 0;
  const int n = 20'000;
  for (int i = 0; i < n; ++i) {
    if (policy.ChooseReadPreference(&rng) ==
        driver::ReadPreference::kSecondary) {
      ++secondary;
    }
  }
  EXPECT_NEAR(static_cast<double>(secondary) / n, 0.7, 0.02);

  state.set_balance_fraction(0.0);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(policy.ChooseReadPreference(&rng),
              driver::ReadPreference::kPrimary);
  }
}

// ---------------------------------------------------------------------------
// ClientStack: the one construction path for a client system.
// ---------------------------------------------------------------------------

class ClientStackTest : public ::testing::Test {
 protected:
  ClientStackTest() {
    network_ = std::make_unique<net::Network>(&loop_, sim::Rng(1));
    client_host_ = network_->AddHost("client");
    std::vector<net::HostId> hosts;
    for (int i = 0; i < 3; ++i) {
      hosts.push_back(network_->AddHost("n" + std::to_string(i)));
      network_->SetLink(client_host_, hosts[i], sim::Millis(1), 0);
    }
    rs_ = std::make_unique<repl::ReplicaSet>(
        &loop_, sim::Rng(2), network_.get(), repl::ReplicaSetParams{},
        server::ServerParams{}, hosts);
  }

  std::unique_ptr<ClientStack> MakeStack(sim::Rng* rng, Routing routing) {
    return std::make_unique<ClientStack>(&loop_, rng, rs_->command_bus(),
                                         client_host_, driver::ClientOptions{},
                                         BalancerConfig{}, routing);
  }

  sim::EventLoop loop_;
  std::unique_ptr<net::Network> network_;
  net::HostId client_host_ = 0;
  std::unique_ptr<repl::ReplicaSet> rs_;
};

TEST_F(ClientStackTest, FixedStackForksOnceAndHasNoBalancer) {
  for (driver::ReadPreference pref :
       {driver::ReadPreference::kPrimary, driver::ReadPreference::kSecondary}) {
    sim::Rng rng(7);
    sim::Rng reference(7);
    auto stack = MakeStack(&rng, pref);
    (void)reference.Fork();
    EXPECT_EQ(rng.NextU64(), reference.NextU64());
    EXPECT_EQ(stack->balancer(), nullptr);
    EXPECT_EQ(stack->state(), nullptr);
    // The fraction a fixed stack reports is the one it routes by.
    EXPECT_EQ(stack->balance_fraction(),
              pref == driver::ReadPreference::kSecondary ? 1.0 : 0.0);
  }
}

TEST_F(ClientStackTest, BalancedStackForksClientThenBalancer) {
  sim::Rng rng(7);
  sim::Rng reference(7);
  auto stack = MakeStack(&rng, kBalanced);
  (void)reference.Fork();
  (void)reference.Fork();
  EXPECT_EQ(rng.NextU64(), reference.NextU64());
  ASSERT_NE(stack->balancer(), nullptr);
  ASSERT_NE(stack->state(), nullptr);
  EXPECT_EQ(stack->balancer()->controller().name(), "decongestant");
  EXPECT_DOUBLE_EQ(stack->balance_fraction(), kLowBal);
  stack->state()->set_balance_fraction(0.4);
  EXPECT_DOUBLE_EQ(stack->balance_fraction(), 0.4);
}

TEST_F(ClientStackTest, CompletedReadsLandInTheirPreferenceList) {
  sim::Rng rng(7);
  auto stack = MakeStack(&rng, kBalanced);
  rs_->Start();
  stack->Start();
  loop_.RunUntil(sim::Millis(50));  // topology discovered
  int done = 0;
  auto read = [&](driver::ReadPreference pref, bool record) {
    driver::OpOptions opts;
    opts.record_latency = record;
    stack->client().Read(
        pref, server::OpClass::kPointRead, [](const store::Database&) {},
        [&done](const driver::OpResult& r) {
          EXPECT_TRUE(r.ok);
          ++done;
        },
        opts);
  };
  read(driver::ReadPreference::kPrimary, true);
  read(driver::ReadPreference::kSecondary, true);
  read(driver::ReadPreference::kSecondary, true);
  // Control traffic (record_latency = false) stays out of the lists.
  read(driver::ReadPreference::kPrimary, false);
  read(driver::ReadPreference::kSecondary, false);
  loop_.RunUntil(sim::Millis(200));
  ASSERT_EQ(done, 5);
  EXPECT_EQ(stack->state()->pending_primary(), 1u);
  EXPECT_EQ(stack->state()->pending_secondary(), 2u);
}

TEST(MedianTest, MedianOfSamples) {
  EXPECT_EQ(ReadBalancer::Median({}), 0);
  EXPECT_EQ(ReadBalancer::Median({5}), 5);
  EXPECT_EQ(ReadBalancer::Median({1, 9}), 9);       // upper median
  EXPECT_EQ(ReadBalancer::Median({3, 1, 2}), 2);
  EXPECT_EQ(ReadBalancer::Median({4, 1, 3, 2}), 3);
}

// ---------------------------------------------------------------------------
// Read Balancer behaviour: a real client/replica-set stack with *injected*
// client latencies, so each Algorithm 1 branch can be exercised exactly.
// ---------------------------------------------------------------------------

class ReadBalancerTest : public ::testing::Test {
 protected:
  void Build(BalancerConfig config = {},
             repl::ReplicaSetParams params = {}) {
    config_ = config;
    network_ = std::make_unique<net::Network>(&loop_, sim::Rng(1));
    const net::HostId c = network_->AddHost("client");
    server::ServerParams server_params;
    server_params.service.sigma = 0.0;
    std::vector<net::HostId> hosts;
    for (int i = 0; i <= params.secondaries; ++i) {
      hosts.push_back(network_->AddHost("n" + std::to_string(i)));
      network_->SetLink(c, hosts[i], sim::Millis(1), 0);
    }
    rs_ = std::make_unique<repl::ReplicaSet>(&loop_, sim::Rng(2),
                                             network_.get(), params,
                                             server_params, hosts);
    client_ = std::make_unique<driver::MongoClient>(
        &loop_, sim::Rng(3), rs_->command_bus(), c, driver::ClientOptions{});
    state_ = std::make_unique<SharedState>(kLowBal);
    balancer_ = std::make_unique<ReadBalancer>(client_.get(), state_.get(),
                                               config, sim::Rng(4));
  }

  // Feeds `n` synthetic latencies per period into each shared list.
  void InjectLatencies(sim::Duration primary, sim::Duration secondary,
                       int per_second = 10) {
    for (int i = 0; i < per_second; ++i) {
      state_->RecordLatency(driver::ReadPreference::kPrimary, primary);
      state_->RecordLatency(driver::ReadPreference::kSecondary, secondary);
    }
    loop_.ScheduleAfter(sim::Seconds(1), [this, primary, secondary,
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
  sim::EventLoop loop_;
  std::unique_ptr<net::Network> network_;
  std::unique_ptr<repl::ReplicaSet> rs_;
  std::unique_ptr<driver::MongoClient> client_;
  std::unique_ptr<SharedState> state_;
  std::unique_ptr<ReadBalancer> balancer_;
};

TEST_F(ReadBalancerTest, StartsAtLowBal) {
  Build();
  EXPECT_DOUBLE_EQ(state_->balance_fraction(), 0.10);
}

TEST_F(ReadBalancerTest, CongestedPrimaryRampsFractionUp) {
  Build();
  Start();
  // Primary much slower than secondaries: ratio >> HIGHRATIO.
  InjectLatencies(sim::Millis(50), sim::Millis(5));
  // 8 periods of +10 % from 10 % reaches the 90 % cap.
  loop_.RunUntil(sim::Seconds(85));
  EXPECT_DOUBLE_EQ(state_->balance_fraction(), kHighBal);
  EXPECT_GE(balancer_->periods_completed(), 8u);
}

TEST_F(ReadBalancerTest, CongestedSecondariesRampFractionDown) {
  Build();
  Start();
  state_->set_balance_fraction(0.9);
  // Pre-load history at 0.9 by first ramping up.
  InjectLatencies(sim::Millis(50), sim::Millis(5));
  loop_.RunUntil(sim::Seconds(85));
  ASSERT_DOUBLE_EQ(state_->balance_fraction(), 0.9);

  // Now reverse: secondaries congested -> ratio < LOWRATIO.
  // (Replace the injector by letting both run; the newest samples
  // dominate medians since both inject at the same rate. To keep it
  // clean, inject an overwhelming number of reversed samples.)
  InjectLatencies(sim::Millis(5), sim::Millis(50), 1000);
  loop_.RunUntil(sim::Seconds(175));
  EXPECT_DOUBLE_EQ(state_->balance_fraction(), kLowBal);
}

TEST_F(ReadBalancerTest, BalancedRatioWithFlatHistoryProbesDownward) {
  Build();
  Start();
  // Ratio inside the dead band forever.
  InjectLatencies(sim::Millis(10), sim::Millis(10));
  loop_.RunUntil(sim::Seconds(95));
  // History flattens at LOWBAL and stays: downward probe can't go below.
  EXPECT_DOUBLE_EQ(state_->balance_fraction(), kLowBal);

  // Push the fraction up, then hold the ratio in the dead band: after the
  // history flattens, the balancer probes down by DELTA.
}

TEST_F(ReadBalancerTest, DownwardProbeTriggersAfterFlatHistory) {
  BalancerConfig config;
  Build(config);
  Start();
  InjectLatencies(sim::Millis(50), sim::Millis(5));  // ramp to 90 %
  loop_.RunUntil(sim::Seconds(85));
  ASSERT_DOUBLE_EQ(state_->balance_fraction(), 0.9);

  // Hold in dead band: needs kRecentHistory periods to flatten, then
  // probes down 10 %.
  InjectLatencies(sim::Millis(10), sim::Millis(10), 1000);
  double min_seen = 1.0;
  for (int t = 90; t <= 200; t += 1) {
    loop_.ScheduleAt(sim::Seconds(t), [&] {
      min_seen = std::min(min_seen, state_->balance_fraction());
    });
  }
  loop_.RunUntil(sim::Seconds(200));
  EXPECT_LT(min_seen, 0.9);  // probed below the plateau
}

TEST_F(ReadBalancerTest, DownwardProbeCanBeDisabled) {
  BalancerConfig config;
  config.downward_probe = false;
  Build(config);
  Start();
  InjectLatencies(sim::Millis(50), sim::Millis(5));
  loop_.RunUntil(sim::Seconds(85));
  ASSERT_DOUBLE_EQ(state_->balance_fraction(), 0.9);
  InjectLatencies(sim::Millis(10), sim::Millis(10), 1000);
  double min_seen = 1.0;
  for (int t = 90; t <= 200; ++t) {
    loop_.ScheduleAt(sim::Seconds(t), [&] {
      min_seen = std::min(min_seen, state_->balance_fraction());
    });
  }
  loop_.RunUntil(sim::Seconds(200));
  EXPECT_DOUBLE_EQ(min_seen, 0.9);  // never probed down
}

TEST_F(ReadBalancerTest, EmptyLatencyListsKeepDecision) {
  Build();
  Start();
  loop_.RunUntil(sim::Seconds(45));  // several periods, no reads at all
  EXPECT_DOUBLE_EQ(state_->balance_fraction(), kLowBal);
  EXPECT_GE(balancer_->periods_completed(), 4u);
}

TEST_F(ReadBalancerTest, StaleBoundZeroForcesPrimaryOnly) {
  BalancerConfig config;
  config.stale_bound_seconds = 0;
  Build(config);
  Start();
  InjectLatencies(sim::Millis(50), sim::Millis(5));
  loop_.RunUntil(sim::Seconds(60));
  // Clients tolerate no staleness: fraction pinned at 0 regardless of
  // congestion (Algorithm 1 line 3).
  EXPECT_DOUBLE_EQ(state_->balance_fraction(), 0.0);
  EXPECT_TRUE(balancer_->stale_blocked());
}

TEST_F(ReadBalancerTest, StalenessAboveBoundZeroesFractionAndRecovers) {
  BalancerConfig config;
  config.stale_bound_seconds = 3;
  Build(config);
  Start();
  InjectLatencies(sim::Millis(50), sim::Millis(5));
  loop_.RunUntil(sim::Seconds(55));
  ASSERT_GT(state_->balance_fraction(), 0.3);
  const double before = state_->balance_fraction();

  // Stall replication: block getMore by a long checkpoint while writes
  // continue, so the estimate rises past the bound.
  rs_->primary().server().AddDirtyBytes(2'000'000'000);
  for (int i = 0; i < 2000; ++i) {
    loop_.ScheduleAt(sim::Seconds(56) + sim::Millis(20) * i, [this, i] {
      rs_->CommitWrite(
          rs_->primary_index(), server::OpClass::kInsert,
          [i](repl::TxnContext* ctx) {
            ctx->Insert("t", doc::Value::Doc({{"_id", i}}));
          },
          repl::WriteConcern::kW1, /*retry=*/{}, /*cost_scale=*/1.0,
          test::OnCommitted());
    });
  }
  // The next checkpoint starts at t=60 and blocks replication for 35 s.
  loop_.RunUntil(sim::Seconds(70));
  EXPECT_GT(balancer_->staleness_estimate_seconds(), 3);
  EXPECT_TRUE(balancer_->stale_blocked());
  EXPECT_DOUBLE_EQ(state_->balance_fraction(), 0.0);
  EXPECT_GE(balancer_->stale_zero_events(), 1u);

  // After the flush ends and secondaries catch up, the fraction resumes
  // at RecentBal.latest() (not from scratch).
  loop_.RunUntil(sim::Seconds(110));
  EXPECT_FALSE(balancer_->stale_blocked());
  EXPECT_GE(state_->balance_fraction(), before - 0.4);
  EXPECT_GT(state_->balance_fraction(), 0.0);
}

TEST_F(ReadBalancerTest, FractionAlwaysInValidRange) {
  // Invariant: published fraction is 0 or within [LOWBAL, HIGHBAL].
  Build();
  Start();
  InjectLatencies(sim::Millis(30), sim::Millis(4));
  bool valid = true;
  for (int t = 0; t < 200; ++t) {
    loop_.ScheduleAt(sim::Seconds(1) * t, [&] {
      const double f = state_->balance_fraction();
      if (f != 0.0 && (f < kLowBal - 1e-9 || f > kHighBal + 1e-9)) {
        valid = false;
      }
    });
  }
  loop_.RunUntil(sim::Seconds(200));
  EXPECT_TRUE(valid);
}

TEST_F(ReadBalancerTest, PeriodCallbackReportsStats) {
  Build();
  Start();
  InjectLatencies(sim::Millis(50), sim::Millis(5));
  int callbacks = 0;
  balancer_->SetPeriodCallback([&](const ReadBalancer::PeriodStats& stats) {
    ++callbacks;
    EXPECT_TRUE(stats.ratio_valid);
    EXPECT_GT(stats.ratio, 1.0);
    EXPECT_GE(stats.lss_primary, stats.lss_secondary);
  });
  loop_.RunUntil(sim::Seconds(35));
  EXPECT_EQ(callbacks, 3);
}

TEST_F(ReadBalancerTest, RttSubtractionIsolatesServerTime) {
  // With subtract_rtt enabled, a latency difference that is pure network
  // (client latencies equal to RTT + equal server time) yields a ratio
  // near 1 even when raw latencies differ.
  BalancerConfig config;
  Build(config);
  Start();
  // Primary RTT 1 ms (configured in Build). Pretend server time is 10 ms
  // on both, but secondary clients see higher raw latency because of a
  // (simulated) farther AZ: inject raw latencies accordingly.
  InjectLatencies(sim::Millis(1) + sim::Millis(10),
                  sim::Millis(1) + sim::Millis(10));
  double last_ratio = 0;
  balancer_->SetPeriodCallback([&](const ReadBalancer::PeriodStats& stats) {
    if (stats.ratio_valid) last_ratio = stats.ratio;
  });
  loop_.RunUntil(sim::Seconds(25));
  EXPECT_NEAR(last_ratio, 1.0, 0.15);
}

TEST_F(ReadBalancerTest, PeriodsKeepRunningWithoutAPrimary) {
  // A five-member set whose freshest secondary (node 4) may never
  // campaign: when the primary dies, the winner is one of the throttled,
  // lagging members and must catch up to node 4 before it opens for
  // writes. Until then the driver has adopted the new term with no
  // primary, and the RTT subtraction must keep describing the last
  // concrete one instead of indexing "no primary".
  repl::ReplicaSetParams params;
  params.secondaries = 4;
  params.node_priorities = {1.0, 1.0, 1.0, 1.0, 0.0};
  params.catchup_timeout = sim::Seconds(60);
  params.flow_control_enabled = false;
  Build({}, params);
  Start();
  InjectLatencies(sim::Millis(50), sim::Millis(5));
  for (int node = 1; node <= 3; ++node) rs_->SetApplyThrottle(node, 400.0);
  for (int i = 0; i < 1000; ++i) {
    loop_.ScheduleAt(sim::Millis(20) * i, [this, i] {
      rs_->CommitWrite(
          0, server::OpClass::kInsert,
          [i](repl::TxnContext* ctx) {
            ctx->Insert("t", doc::Value::Doc({{"_id", i}}));
          },
          repl::WriteConcern::kW1, /*retry=*/{}, /*cost_scale=*/1.0,
          test::OnCommitted());
    });
  }
  loop_.ScheduleAt(sim::Seconds(20) + sim::Millis(1),
                   [this] { rs_->KillNode(0); });
  int periods = 0;
  int periods_without_primary = 0;
  balancer_->SetPeriodCallback([&](const ReadBalancer::PeriodStats& stats) {
    ++periods;
    if (client_->primary_index() < 0) {
      ++periods_without_primary;
      EXPECT_TRUE(stats.ratio_valid);
    }
  });
  loop_.RunUntil(sim::Seconds(75));
  EXPECT_EQ(periods, 7);
  EXPECT_GE(periods_without_primary, 2);
  // The winner finished catching up and the driver found it.
  EXPECT_TRUE(rs_->HasWritablePrimary());
  EXPECT_EQ(client_->primary_index(), rs_->primary_index());
}

}  // namespace
}  // namespace dcg::core
