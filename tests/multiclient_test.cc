// Tests for multiple independent client systems (Figure 1's architecture:
// each client system hosts its own Read Balancer; nothing is shared
// between them except the database).

#include <memory>

#include <gtest/gtest.h>

#include "exp/client_system.h"

namespace dcg::exp {
namespace {

class MultiClientTest : public ::testing::Test {
 protected:
  void Build(int n_systems, const workload::YcsbConfig& ycsb_config,
             core::BalancerConfig balancer_config = {}) {
    rng_ = std::make_unique<sim::Rng>(5);
    network_ = std::make_unique<net::Network>(&loop_, rng_->Fork());
    std::vector<net::HostId> node_hosts;
    for (int i = 0; i < 3; ++i) {
      node_hosts.push_back(network_->AddHost("db" + std::to_string(i)));
    }
    std::vector<net::HostId> client_hosts;
    for (int c = 0; c < n_systems; ++c) {
      client_hosts.push_back(network_->AddHost("app" + std::to_string(c)));
      for (int i = 0; i < 3; ++i) {
        network_->SetLink(client_hosts[c], node_hosts[i],
                          sim::Millis(0.4 + 0.6 * i), sim::Micros(40));
      }
    }
    rs_ = std::make_unique<repl::ReplicaSet>(&loop_, rng_->Fork(),
                                             network_.get(),
                                             repl::ReplicaSetParams{},
                                             server::ServerParams{},
                                             node_hosts);
    for (int i = 0; i < 3; ++i) {
      workload::YcsbWorkload::Load(ycsb_config, &rs_->node(i).db());
    }
    rs_->Start();
    for (int c = 0; c < n_systems; ++c) {
      systems_.push_back(std::make_unique<ClientSystem>(
          &loop_, rng_->Fork(), rs_.get(), client_hosts[c],
          driver::ClientOptions{}, balancer_config, ycsb_config));
    }
  }

  sim::EventLoop loop_;
  std::unique_ptr<sim::Rng> rng_;
  std::unique_ptr<net::Network> network_;
  std::unique_ptr<repl::ReplicaSet> rs_;
  std::vector<std::unique_ptr<ClientSystem>> systems_;
};

TEST_F(MultiClientTest, ConfiguredControllerReachesEveryClientSystem) {
  core::BalancerConfig balancer_config;
  balancer_config.controller = "pid";
  Build(2, workload::YcsbConfig::WorkloadB(), balancer_config);
  for (auto& system : systems_) {
    EXPECT_EQ(system->balancer().controller().name(), "pid");
  }
}

TEST_F(MultiClientTest, IndependentBalancersConvergeUnderSharedLoad) {
  Build(3, workload::YcsbConfig::WorkloadB());
  for (auto& system : systems_) system->Start(15);
  loop_.RunUntil(sim::Seconds(200));
  for (auto& system : systems_) {
    EXPECT_GE(system->state().balance_fraction(), 0.5);
    EXPECT_GT(system->reads(), 1000u);
  }
  const double spread =
      std::abs(systems_[0]->state().balance_fraction() -
               systems_[1]->state().balance_fraction()) +
      std::abs(systems_[1]->state().balance_fraction() -
               systems_[2]->state().balance_fraction());
  EXPECT_LE(spread, 0.4);
}

TEST_F(MultiClientTest, EveryAcknowledgedWriteExecutesExactlyOnce) {
  // Every client numbers its ops from 1, so only the session keeps one
  // client's retryable-write record from answering another client's write
  // with the same op id.
  Build(3, workload::YcsbConfig::WorkloadA());
  uint64_t acknowledged = 0;
  for (auto& system : systems_) {
    system->client().AddOpObserver([&acknowledged](const driver::OpResult& r) {
      if (!r.is_read && r.ok && r.committed) ++acknowledged;
    });
    system->Start(15);
  }
  loop_.RunUntil(sim::Seconds(60));
  for (auto& system : systems_) system->pool().SetTarget(0);
  loop_.RunUntil(sim::Seconds(90));
  for (auto& system : systems_) {
    ASSERT_EQ(system->pool().running(), 0);
    ASSERT_EQ(system->client().pending_op_count(), 0u);
  }
  EXPECT_GT(acknowledged, 10'000u);
  EXPECT_EQ(rs_->committed_writes(), acknowledged);
}

TEST_F(MultiClientTest, AsymmetricLoadStillBalances) {
  // One heavy system + one light system: the heavy one dominates the
  // signal, but both see the same congested primary and shift load.
  Build(2, workload::YcsbConfig::WorkloadB());
  systems_[0]->Start(35);
  systems_[1]->Start(5);
  loop_.RunUntil(sim::Seconds(200));
  EXPECT_GE(systems_[0]->state().balance_fraction(), 0.5);
  EXPECT_GE(systems_[1]->state().balance_fraction(), 0.4);
}

TEST_F(MultiClientTest, StalenessGateFiresOnEverySystemIndependently) {
  core::BalancerConfig balancer_config;
  balancer_config.stale_bound_seconds = 3;
  Build(2, workload::YcsbConfig::WorkloadA(), balancer_config);
  for (auto& system : systems_) system->Start(10);
  // Stall replication; both balancers must observe it via their own
  // serverStatus polls and zero their fractions.
  rs_->primary().server().AddDirtyBytes(100'000'000'000ULL);
  loop_.RunUntil(sim::Seconds(75));  // checkpoint at 60 s blocks shipping
  EXPECT_GT(rs_->MaxTrueStaleness(), sim::Seconds(3));
  for (auto& system : systems_) {
    EXPECT_TRUE(system->balancer().stale_blocked());
    EXPECT_DOUBLE_EQ(system->state().balance_fraction(), 0.0);
  }
}

TEST_F(MultiClientTest, SystemsKeepSeparateLatencyLists) {
  Build(2, workload::YcsbConfig::WorkloadB());
  systems_[0]->Start(5);
  // System 1 never starts: its shared lists must stay empty even while
  // system 0 runs — nothing is shared between client systems.
  loop_.RunUntil(sim::Seconds(30));
  EXPECT_GT(systems_[0]->reads(), 100u);
  EXPECT_EQ(systems_[1]->reads(), 0u);
  EXPECT_EQ(systems_[1]->state().pending_primary(), 0u);
  EXPECT_EQ(systems_[1]->state().pending_secondary(), 0u);
}

}  // namespace
}  // namespace dcg::exp
