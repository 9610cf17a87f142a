// Tests for the client driver: node selection per Read Preference, the
// latency window, maxStalenessSeconds filtering, and end-to-end reads.

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "commit_helper.h"
#include "driver/client.h"
#include "repl/replica_set.h"

namespace dcg::driver {
namespace {

class DriverTest : public ::testing::Test {
 protected:
  void Build(ClientOptions options = {}, int secondaries = 2) {
    network_ = std::make_unique<net::Network>(&loop_, sim::Rng(1));
    client_host_ = network_->AddHost("client");
    repl::ReplicaSetParams params;
    params.secondaries = secondaries;
    server::ServerParams server_params;
    server_params.service.sigma = 0.0;
    std::vector<net::HostId> hosts;
    for (int i = 0; i <= secondaries; ++i) {
      hosts.push_back(network_->AddHost("n" + std::to_string(i)));
    }
    // Client is nearest to node 1; node 0 (primary) is further away.
    network_->SetLink(client_host_, hosts[0], sim::Millis(2), 0);
    for (int i = 1; i <= secondaries; ++i) {
      network_->SetLink(client_host_, hosts[i], sim::Millis(i), 0);
    }
    rs_ = std::make_unique<repl::ReplicaSet>(&loop_, sim::Rng(2),
                                             network_.get(), params,
                                             server_params, hosts);
    client_ = std::make_unique<MongoClient>(&loop_, sim::Rng(3),
                                            rs_->command_bus(), client_host_,
                                            options);
  }

  sim::EventLoop loop_;
  std::unique_ptr<net::Network> network_;
  net::HostId client_host_;
  std::unique_ptr<repl::ReplicaSet> rs_;
  std::unique_ptr<MongoClient> client_;
};

TEST_F(DriverTest, PrimaryPreferenceAlwaysSelectsPrimary) {
  Build();
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(client_->SelectNode(ReadPreference::kPrimary), 0);
    EXPECT_EQ(client_->SelectNode(ReadPreference::kPrimaryPreferred), 0);
  }
}

TEST_F(DriverTest, SecondaryPreferenceSpreadsOverSecondaries) {
  Build();
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 3000; ++i) {
    const int node = client_->SelectNode(ReadPreference::kSecondary);
    ASSERT_GE(node, 1);
    ASSERT_LE(node, 2);
    ++counts[node];
  }
  // Both secondaries are inside the 15 ms window -> roughly uniform.
  EXPECT_GT(counts[1], 1200);
  EXPECT_GT(counts[2], 1200);
}

TEST_F(DriverTest, LatencyWindowExcludesSlowSecondaries) {
  ClientOptions options;
  options.selection_latency_window = sim::Millis(15);
  Build(options);
  // Make secondary 2 much slower than secondary 1 and re-probe.
  network_->SetLink(client_host_, rs_->node(2).host(), sim::Millis(40), 0);
  client_->Start();
  loop_.RunUntil(sim::Seconds(30));  // EWMA converges to the new RTT
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(client_->SelectNode(ReadPreference::kSecondary), 1);
  }
}

TEST_F(DriverTest, NearestPicksLowestRtt) {
  Build();
  client_->Start();
  loop_.RunUntil(sim::Seconds(5));
  // Node 1 has the 1 ms link; primary has 2 ms.
  EXPECT_EQ(client_->SelectNode(ReadPreference::kNearest), 1);
}

// Re-selection for a retry: SelectNode(pref, exclude) avoids the node the
// last attempt went to when an alternative exists. RTT estimates here are
// the seeded link base RTTs (no Start): n0 2 ms, n1 1 ms, n2 2 ms.
TEST_F(DriverTest, ExcludedSecondaryIsAvoidedWhileAnotherIsEligible) {
  Build();
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(client_->SelectNode(ReadPreference::kSecondary, 1), 2);
    EXPECT_EQ(client_->SelectNode(ReadPreference::kSecondaryPreferred, 2), 1);
  }
}

TEST_F(DriverTest, RetryReturnsToTheOnlyEligibleSecondary) {
  Build({}, /*secondaries=*/1);
  // Excluding the one eligible secondary leaves no alternative: the retry
  // goes back to it rather than to the primary.
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(client_->SelectNode(ReadPreference::kSecondary, 1), 1);
    EXPECT_EQ(client_->SelectNode(ReadPreference::kSecondaryPreferred, 1), 1);
  }
  // primaryPreferred with its primary excluded takes the secondary; with
  // the secondary excluded too, it falls back to the live primary.
  EXPECT_EQ(client_->SelectNode(ReadPreference::kPrimaryPreferred, 0), 1);
  EXPECT_EQ(client_->SelectNode(ReadPreference::kPrimaryPreferred, 1), 0);
}

TEST_F(DriverTest, PrimaryPreferredWithPrimaryExcludedPicksASecondary) {
  Build();
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 300; ++i) {
    const int node = client_->SelectNode(ReadPreference::kPrimaryPreferred, 0);
    ASSERT_GE(node, 1);
    ++counts[node];
  }
  EXPECT_GT(counts[1], 0);
  EXPECT_GT(counts[2], 0);
  // kPrimary has no alternative: excluding the primary changes nothing.
  EXPECT_EQ(client_->SelectNode(ReadPreference::kPrimary, 0), 0);
}

TEST_F(DriverTest, NearestWithNearestExcludedPicksTheNextNearest) {
  Build();
  EXPECT_EQ(client_->SelectNode(ReadPreference::kNearest), 1);
  // n0 and n2 tie at 2 ms; the lower index wins, as in plain selection.
  EXPECT_EQ(client_->SelectNode(ReadPreference::kNearest, 1), 0);
  EXPECT_EQ(client_->SelectNode(ReadPreference::kNearest, 0), 1);
}

// PingNode keeps the exactly-one-callback contract over a lossy link:
// every probe resolves once, as a served round trip or as a timeout.
TEST_F(DriverTest, PingNodeExactlyOneCallbackUnderLoss) {
  Build();
  net::Network::LinkFault fault;
  fault.drop_probability = 0.5;
  network_->SetLinkFault(client_host_, rs_->node(1).host(), fault);
  int calls = 0, ok_calls = 0;
  const int probes = 500;
  for (int i = 0; i < probes; ++i) {
    client_->PingNode(1, [&](bool ok, sim::Duration rtt) {
      ++calls;
      if (ok) {
        ++ok_calls;
        EXPECT_GE(rtt, sim::Millis(1));
      } else {
        EXPECT_EQ(rtt, 0);
      }
    });
  }
  loop_.RunAll();
  EXPECT_EQ(calls, probes);
  EXPECT_GT(ok_calls, 0);
  EXPECT_LT(ok_calls, probes);
}

TEST_F(DriverTest, RttEstimatesConvergeToBaseRtt) {
  Build();
  client_->Start();
  loop_.RunUntil(sim::Seconds(20));
  EXPECT_NEAR(static_cast<double>(client_->RttEstimate(0)),
              static_cast<double>(sim::Millis(2)),
              static_cast<double>(sim::Micros(100)));
  EXPECT_NEAR(static_cast<double>(client_->RttEstimate(1)),
              static_cast<double>(sim::Millis(1)),
              static_cast<double>(sim::Micros(100)));
}

TEST_F(DriverTest, ReadRoundTripMeasuresEndToEndLatency) {
  Build();
  bool done = false;
  client_->Read(
      ReadPreference::kPrimary, server::OpClass::kPointRead,
      [](const store::Database&) {},
      [&](const OpResult& r) {
        done = true;
        EXPECT_EQ(r.node, 0);
        EXPECT_FALSE(r.used_secondary);
        // RTT (2 ms) + service (3.5 ms default point read).
        EXPECT_EQ(r.latency, sim::Millis(2) + sim::Millis(3.5));
      });
  loop_.RunAll();
  EXPECT_TRUE(done);
}

TEST_F(DriverTest, SecondaryReadFlagsUsedSecondary) {
  Build();
  bool done = false;
  client_->Read(
      ReadPreference::kSecondary, server::OpClass::kPointRead,
      [](const store::Database&) {},
      [&](const OpResult& r) {
        done = true;
        EXPECT_GE(r.node, 1);
        EXPECT_TRUE(r.used_secondary);
      });
  loop_.RunAll();
  EXPECT_TRUE(done);
}

TEST_F(DriverTest, WriteCommitsOnPrimaryAndReportsLatency) {
  Build();
  bool done = false;
  client_->Write(
      server::OpClass::kInsert,
      [](repl::TxnContext* ctx) {
        ctx->Insert("t", doc::Value::Doc({{"_id", 1}}));
      },
      [&](const OpResult& r) {
        done = true;
        EXPECT_TRUE(r.committed);
        EXPECT_EQ(r.latency, sim::Millis(2) + sim::Millis(5));
      });
  loop_.RunAll();
  EXPECT_TRUE(done);
  EXPECT_EQ(rs_->committed_writes(), 1u);
}

// The per-op record contract: every op — read or write, success or
// failure — ends in one OpResult, and the op observers see exactly the
// record the op's own `done` gets.
class OpResultTest : public DriverTest {
 protected:
  void SetUp() override {
    Build();
    client_->AddOpObserver(
        [this](const OpResult& r) { observed_.push_back(r); });
  }

  MongoClient::Done Capture() {
    return [this](const OpResult& r) { done_.push_back(r); };
  }

  void Insert(int64_t id, OpOptions opts = {}) {
    client_->Write(
        server::OpClass::kInsert,
        [id](repl::TxnContext* ctx) {
          ctx->Insert("t", doc::Value::Doc({{"_id", id}}));
        },
        Capture(), repl::WriteConcern::kW1, opts);
  }

  /// Runs the loop for `span`; every op finished so far handed equal
  /// records to the observer and to its `done`.
  void RunFor(sim::Duration span) {
    loop_.RunUntil(loop_.Now() + span);
    EXPECT_TRUE(observed_ == done_);
  }

  /// Options for an op whose target never answers: the client is not
  /// started, so it keeps believing the blocked primary reachable and the
  /// attempt stays outstanding until the 50 ms deadline.
  OpOptions SilentPrimary() {
    network_->BlockPair(client_host_, rs_->node(0).host());
    OpOptions opts;
    opts.deadline = sim::Millis(50);
    return opts;
  }

  std::vector<OpResult> observed_;
  std::vector<OpResult> done_;
};

TEST_F(OpResultTest, SuccessfulReadNamesItsServingNode) {
  rs_->Start();
  Insert(1);
  RunFor(sim::Seconds(2));  // committed and replicated
  client_->Read(ReadPreference::kSecondary, server::OpClass::kPointRead,
                [](const store::Database&) {}, Capture());
  RunFor(sim::Seconds(1));
  ASSERT_EQ(done_.size(), 2u);
  const OpResult& r = done_[1];
  EXPECT_TRUE(r.is_read);
  EXPECT_TRUE(r.ok);
  EXPECT_FALSE(r.timed_out);
  EXPECT_EQ(r.requested, ReadPreference::kSecondary);
  ASSERT_GE(r.node, 1);
  EXPECT_TRUE(r.used_secondary);
  // The serving secondary had applied the insert when the read ran.
  EXPECT_EQ(r.operation_time, rs_->node(r.node).last_applied());
  EXPECT_EQ(r.operation_time, done_[0].operation_time);
  EXPECT_GT(r.latency, 0);
  EXPECT_EQ(r.retries, 0);
}

TEST_F(OpResultTest, DeadlineFailedReadNamesItsLastTarget) {
  const OpOptions opts = SilentPrimary();
  client_->Read(ReadPreference::kPrimary, server::OpClass::kPointRead,
                [](const store::Database&) {}, Capture(), opts);
  RunFor(sim::Seconds(1));
  ASSERT_EQ(done_.size(), 1u);
  const OpResult& r = done_[0];
  EXPECT_TRUE(r.is_read);
  EXPECT_FALSE(r.ok);
  EXPECT_TRUE(r.timed_out);
  EXPECT_EQ(r.node, 0);
  EXPECT_FALSE(r.used_secondary);
  EXPECT_EQ(r.latency, sim::Millis(50));
}

TEST_F(OpResultTest, CommittedWriteCarriesItsCommitPoint) {
  Insert(1);
  RunFor(sim::Seconds(1));
  ASSERT_EQ(done_.size(), 1u);
  const OpResult& r = done_[0];
  EXPECT_FALSE(r.is_read);
  EXPECT_TRUE(r.ok);
  EXPECT_TRUE(r.committed);
  EXPECT_GT(r.operation_time.seq, 0u);
  EXPECT_EQ(r.operation_time.seq, rs_->oplog().last_seq());
  EXPECT_EQ(r.node, -1);
  EXPECT_FALSE(r.used_secondary);
}

TEST_F(OpResultTest, FailedWriteIsNotCommitted) {
  Insert(1, SilentPrimary());
  RunFor(sim::Seconds(1));
  ASSERT_EQ(done_.size(), 1u);
  const OpResult& r = done_[0];
  EXPECT_FALSE(r.is_read);
  EXPECT_FALSE(r.ok);
  EXPECT_TRUE(r.timed_out);
  EXPECT_FALSE(r.committed);
  EXPECT_EQ(r.node, -1);
  EXPECT_EQ(rs_->committed_writes(), 0u);
}

TEST_F(DriverTest, ServerStatusRoundTrip) {
  Build();
  bool got = false;
  client_->ServerStatus([&](const proto::ServerStatusReply& r) {
    got = true;
    EXPECT_EQ(r.secondary_last_applied.size(), 2u);
  });
  loop_.RunAll();
  EXPECT_TRUE(got);
}

TEST_F(DriverTest, MaxStalenessFiltersStaleSecondaries) {
  ClientOptions options;
  options.max_staleness_seconds = 2;
  Build(options);
  client_->Start();
  rs_->Start();

  // A long getMore stall makes both secondaries stale.
  rs_->primary().server().AddDirtyBytes(1'000'000'000);
  for (int i = 0; i < 400; ++i) {
    loop_.ScheduleAt(sim::Millis(250) * i, [this, i] {
      rs_->CommitWrite(
          rs_->primary_index(), server::OpClass::kInsert,
          [i](repl::TxnContext* ctx) {
            ctx->Insert("t", doc::Value::Doc({{"_id", i}}));
          },
          repl::WriteConcern::kW1, /*op_id=*/0, /*cost_scale=*/1.0,
          test::OnCommitted());
    });
  }
  // Force a checkpoint long enough to block replication.
  loop_.RunUntil(sim::Seconds(70));
  if (rs_->MaxTrueStaleness() > sim::Seconds(3)) {
    // Secondaries are stale beyond the bound: selection falls back to
    // the primary.
    EXPECT_EQ(client_->SelectNode(ReadPreference::kSecondary), 0);
  }
  // After replication catches up, secondaries become eligible again.
  loop_.RunUntil(sim::Seconds(140));
  EXPECT_GE(client_->SelectNode(ReadPreference::kSecondary), 1);
}

TEST_F(DriverTest, EnforcedMongoMinimumStalenessAborts) {
  ClientOptions options;
  options.max_staleness_seconds = 10;  // < 90
  options.enforce_mongodb_min_staleness = true;
  EXPECT_DEATH(Build(options), "maxStalenessSeconds");
}

TEST_F(DriverTest, PrimaryPreferredFallsBackWhenPrimaryDies) {
  Build();
  client_->Start();
  rs_->Start();
  loop_.RunUntil(sim::Seconds(1));
  EXPECT_EQ(client_->SelectNode(ReadPreference::kPrimaryPreferred), 0);
  rs_->KillNode(0);
  // The driver notices the dead primary once its hellos go unanswered —
  // well before the election resolves (5 s timeout). primaryPreferred
  // reads then fall back to a live secondary instead of erroring out.
  loop_.RunUntil(sim::Seconds(3));
  EXPECT_FALSE(client_->NodeReachable(0));
  const int node = client_->SelectNode(ReadPreference::kPrimaryPreferred);
  EXPECT_GE(node, 1);
  EXPECT_TRUE(rs_->IsAlive(node));
  // kPrimary, by contrast, has no server to select.
  EXPECT_EQ(client_->SelectNode(ReadPreference::kPrimary),
            MongoClient::kNoNode);
}

TEST_F(DriverTest, ToStringCoversAllPreferences) {
  EXPECT_EQ(ToString(ReadPreference::kPrimary), "primary");
  EXPECT_EQ(ToString(ReadPreference::kPrimaryPreferred), "primaryPreferred");
  EXPECT_EQ(ToString(ReadPreference::kSecondary), "secondary");
  EXPECT_EQ(ToString(ReadPreference::kSecondaryPreferred),
            "secondaryPreferred");
  EXPECT_EQ(ToString(ReadPreference::kNearest), "nearest");
  EXPECT_TRUE(PrefersSecondary(ReadPreference::kSecondary));
  EXPECT_TRUE(PrefersSecondary(ReadPreference::kSecondaryPreferred));
  EXPECT_FALSE(PrefersSecondary(ReadPreference::kPrimary));
}

}  // namespace
}  // namespace dcg::driver
