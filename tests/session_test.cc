// Tests for write concerns, causal sessions (read-your-own-writes via
// afterClusterTime), and the pluggable fraction controllers.

#include <memory>

#include <gtest/gtest.h>

#include "core/controller.h"
#include "driver/session.h"
#include "net/network.h"
#include "repl/replica_set.h"

namespace dcg {
namespace {

class SessionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    repl::ReplicaSetParams params;
    server::ServerParams server_params;
    server_params.service.sigma = 0.0;
    network_ = std::make_unique<net::Network>(&loop_, sim::Rng(1));
    const net::HostId c = network_->AddHost("client");
    std::vector<net::HostId> hosts;
    for (int i = 0; i < 3; ++i) {
      hosts.push_back(network_->AddHost("n" + std::to_string(i)));
      network_->SetLink(c, hosts[i], sim::Millis(1), 0);
    }
    rs_ = std::make_unique<repl::ReplicaSet>(&loop_, sim::Rng(2),
                                             network_.get(), params,
                                             server_params, hosts);
    client_ = std::make_unique<driver::MongoClient>(
        &loop_, sim::Rng(3), rs_->command_bus(), c, driver::ClientOptions{});
    rs_->Start();
  }

  sim::EventLoop loop_;
  std::unique_ptr<net::Network> network_;
  std::unique_ptr<repl::ReplicaSet> rs_;
  std::unique_ptr<driver::MongoClient> client_;
};

TEST_F(SessionTest, MajorityWriteWaitsForReplication) {
  sim::Time w1_done = -1, majority_done = -1;
  client_->Write(
      server::OpClass::kInsert,
      [](repl::TxnContext* ctx) {
        ctx->Insert("t", doc::Value::Doc({{"_id", 1}}));
      },
      [&](const driver::OpResult& r) {
        EXPECT_TRUE(r.committed);
        w1_done = loop_.Now();
      },
      repl::WriteConcern::kW1);
  client_->Write(
      server::OpClass::kInsert,
      [](repl::TxnContext* ctx) {
        ctx->Insert("t", doc::Value::Doc({{"_id", 2}}));
      },
      [&](const driver::OpResult& r) {
        EXPECT_TRUE(r.committed);
        majority_done = loop_.Now();
      },
      repl::WriteConcern::kMajority);
  loop_.RunUntil(sim::Seconds(5));
  ASSERT_GE(w1_done, 0);
  ASSERT_GE(majority_done, 0);
  // Majority ack needs replication + a heartbeat round: clearly later.
  EXPECT_GT(majority_done, w1_done + sim::Millis(50));

  // At ack time a majority had the write: at least one secondary holds it.
  const bool on_1 =
      rs_->node(1).db().Get("t") != nullptr &&
      rs_->node(1).db().Get("t")->FindById(doc::Value(2)) != nullptr;
  const bool on_2 =
      rs_->node(2).db().Get("t") != nullptr &&
      rs_->node(2).db().Get("t")->FindById(doc::Value(2)) != nullptr;
  EXPECT_TRUE(on_1 || on_2);
  EXPECT_EQ(rs_->majority_writes_acked(), 1u);
}

TEST_F(SessionTest, CausalSessionReadsOwnWritesOnSecondary) {
  driver::CausalSession session(client_.get());
  bool saw_own_write = false;
  sim::Time read_done_at = -1;

  session.Write(
      server::OpClass::kInsert,
      [](repl::TxnContext* ctx) {
        ctx->Insert("t", doc::Value::Doc({{"_id", 7}, {"v", 42}}));
      },
      [&](const driver::OpResult& r) {
        EXPECT_TRUE(r.committed);
        EXPECT_GT(r.operation_time.seq, 0u);
        // Immediately read back from a SECONDARY through the session.
        session.Read(
            driver::ReadPreference::kSecondary, server::OpClass::kPointRead,
            [&](const store::Database& db) {
              const store::Collection* t = db.Get("t");
              saw_own_write =
                  t != nullptr && t->FindById(doc::Value(7)) != nullptr;
            },
            [&](const driver::OpResult& rr) {
              read_done_at = loop_.Now();
              EXPECT_TRUE(rr.used_secondary);
            });
      });
  loop_.RunUntil(sim::Seconds(3));
  ASSERT_GE(read_done_at, 0);
  EXPECT_TRUE(saw_own_write);  // never a stale miss through the session
}

TEST_F(SessionTest, PlainReadCanMissOwnWriteButSessionCannot) {
  // Demonstrate the anomaly the session prevents. Replication is stalled
  // (never-ending checkpoint blocks getMore), so a plain secondary read
  // right after a write is guaranteed to miss it, while the session read
  // waits until the write arrives.
  rs_->primary().server().AddDirtyBytes(100'000'000'000ULL);
  loop_.RunUntil(sim::Seconds(61));  // checkpoint started, shipping blocked

  driver::CausalSession session(client_.get());
  bool plain_missed = false;
  bool session_saw = false;
  sim::Time session_read_done = -1;
  session.Write(
      server::OpClass::kInsert,
      [](repl::TxnContext* ctx) {
        ctx->Insert("t", doc::Value::Doc({{"_id", 9}}));
      },
      [&](const driver::OpResult&) {
        client_->Read(
            driver::ReadPreference::kSecondary, server::OpClass::kPointRead,
            [&](const store::Database& db) {
              const store::Collection* t = db.Get("t");
              plain_missed =
                  t == nullptr || t->FindById(doc::Value(9)) == nullptr;
            },
            nullptr);
        session.Read(
            driver::ReadPreference::kSecondary, server::OpClass::kPointRead,
            [&](const store::Database& db) {
              session_saw =
                  db.Get("t")->FindById(doc::Value(9)) != nullptr;
            },
            [&](const driver::OpResult&) { session_read_done = loop_.Now(); });
      });
  loop_.RunUntil(sim::Seconds(70));
  EXPECT_TRUE(plain_missed);
  // The session read was parked until the checkpoint ended (35 s cap)
  // and replication delivered the write; it never returned stale data.
  EXPECT_FALSE(session_saw);  // still parked while shipping is blocked
  EXPECT_EQ(session_read_done, -1);
  loop_.RunUntil(sim::Seconds(100));  // checkpoint ends at ~95 s
  EXPECT_TRUE(session_saw);
  EXPECT_GE(session_read_done, sim::Seconds(70));
}

TEST_F(SessionTest, SessionTokenIsMonotonic) {
  driver::CausalSession session(client_.get());
  std::vector<uint64_t> seqs;
  std::function<void(int)> chain = [&](int remaining) {
    if (remaining == 0) return;
    session.Write(
        server::OpClass::kInsert,
        [remaining](repl::TxnContext* ctx) {
          ctx->Insert("t", doc::Value::Doc({{"_id", remaining}}));
        },
        [&, remaining](const driver::OpResult&) {
          seqs.push_back(session.operation_time().seq);
          chain(remaining - 1);
        });
  };
  chain(10);
  loop_.RunUntil(sim::Seconds(3));
  ASSERT_EQ(seqs.size(), 10u);
  for (size_t i = 1; i < seqs.size(); ++i) EXPECT_GT(seqs[i], seqs[i - 1]);
}

TEST(ControllerTest, StepControllerMatchesAlgorithm1) {
  core::BalancerConfig config;
  core::StepController step;
  core::ControlInputs inputs;
  inputs.latest_fraction = 0.5;
  inputs.ratio_valid = true;

  inputs.ratio = 2.0;  // > HIGHRATIO
  EXPECT_DOUBLE_EQ(step.NextFraction(inputs, config), 0.6);
  inputs.ratio = 0.5;  // < LOWRATIO
  EXPECT_DOUBLE_EQ(step.NextFraction(inputs, config), 0.4);
  inputs.ratio = 1.0;  // dead band, history not flat
  inputs.history_flat = false;
  EXPECT_DOUBLE_EQ(step.NextFraction(inputs, config), 0.5);
  inputs.history_flat = true;  // dead band + flat history -> probe down
  EXPECT_DOUBLE_EQ(step.NextFraction(inputs, config), 0.4);

  // Caps.
  inputs.latest_fraction = 0.9;
  inputs.ratio = 5.0;
  EXPECT_DOUBLE_EQ(step.NextFraction(inputs, config), 0.9);
  inputs.latest_fraction = 0.1;
  inputs.ratio = 0.1;
  EXPECT_DOUBLE_EQ(step.NextFraction(inputs, config), 0.1);

  // No evidence -> hold.
  inputs.ratio_valid = false;
  inputs.latest_fraction = 0.7;
  EXPECT_DOUBLE_EQ(step.NextFraction(inputs, config), 0.7);
}

TEST(ControllerTest, ProportionalControllerScalesWithError) {
  core::BalancerConfig config;
  core::ProportionalController prop(/*gain=*/0.25, /*max_step=*/0.3,
                                    /*drift=*/0.02);
  core::ControlInputs inputs;
  inputs.latest_fraction = 0.5;
  inputs.ratio_valid = true;

  inputs.ratio = 1.8;  // error 0.8 -> step 0.2
  EXPECT_NEAR(prop.NextFraction(inputs, config), 0.7, 1e-9);
  inputs.ratio = 6.0;  // clamped to max_step
  EXPECT_NEAR(prop.NextFraction(inputs, config), 0.8, 1e-9);
  inputs.ratio = 0.2;  // error -0.8 -> step -0.2
  EXPECT_NEAR(prop.NextFraction(inputs, config), 0.3, 1e-9);
  inputs.ratio = 1.0;  // dead band -> drift down
  EXPECT_NEAR(prop.NextFraction(inputs, config), 0.48, 1e-9);
  inputs.ratio_valid = false;
  EXPECT_NEAR(prop.NextFraction(inputs, config), 0.5, 1e-9);
}

}  // namespace
}  // namespace dcg
