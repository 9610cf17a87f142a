// Tests for the client driver: node selection per Read Preference, the
// latency window, maxStalenessSeconds filtering, and end-to-end reads.

#include <memory>
#include <string>
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
  Build();
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
          repl::WriteConcern::kW1, /*retry=*/{}, /*cost_scale=*/1.0,
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

// The op table and the attempt-deadline queue: ops are filed by op id in a
// table that grows (or wraps) around a lingering op, and every sent attempt
// gets one entry in a per-client deadline FIFO served by a single sweep
// event.
class OpBookkeepingTest : public DriverTest {
 protected:
  /// A point read whose completion appends `tag` to `finished_` (and its
  /// record to `results_`).
  void Read(ReadPreference pref, char tag, OpOptions opts = {}) {
    client_->Read(
        pref, server::OpClass::kPointRead, [](const store::Database&) {},
        [this, tag](const OpResult& r) {
          finished_.push_back(tag);
          results_.push_back(r);
          finished_at_.push_back(loop_.Now());
        },
        opts);
  }

  /// Secondary reads that all complete before the loop moves 50 ms on.
  void CompleteSecondaryReads(int n) {
    const size_t before = finished_.size();
    for (int i = 0; i < n; ++i) Read(ReadPreference::kSecondary, '.');
    loop_.RunUntil(loop_.Now() + sim::Millis(50));
    ASSERT_EQ(finished_.size(), before + static_cast<size_t>(n));
  }

  /// Options for an op that fails on its first abandoned attempt.
  static OpOptions NoRetries() {
    OpOptions opts;
    opts.max_retries = 0;
    return opts;
  }

  std::string finished_;
  std::vector<OpResult> results_;
  std::vector<sim::Time> finished_at_;
};

TEST_F(OpBookkeepingTest, PoolClearRetriesOpsInIdOrderAcrossTableGrowth) {
  ClientOptions options;
  options.attempt_timeout = 0;  // only the pool clear may end held ops
  Build(options);
  network_->BlockPair(client_host_, rs_->node(0).host());
  client_->Start();
  // Op ids 1-40 come and go; op 41 (A) then waits on the silent primary
  // while hundreds of newer ops complete around it, so the table's slot
  // for every later id is taken by A once per lap and the table grows.
  CompleteSecondaryReads(40);
  Read(ReadPreference::kPrimary, 'A', NoRetries());
  CompleteSecondaryReads(108);  // ids 42-149
  Read(ReadPreference::kPrimary, 'B', NoRetries());  // id 150
  for (int i = 0; i < 7; ++i) CompleteSecondaryReads(54);  // ids 151-528
  CompleteSecondaryReads(1);                                // id 529
  Read(ReadPreference::kPrimary, 'C', NoRetries());  // id 530
  EXPECT_EQ(client_->pending_op_count(), 3u);
  ASSERT_LT(loop_.Now(), kHelloTimeout);  // primary still believed up
  // The hello loop declares the primary down and clears its pool: the held
  // ops' attempts are abandoned in op-id order, and with no retry budget
  // each fails on the spot.
  loop_.RunUntil(sim::Seconds(3));
  ASSERT_FALSE(client_->NodeReachable(0));
  const std::string held = finished_.substr(finished_.find_first_not_of('.'));
  EXPECT_EQ(held, "ABC");
  for (size_t i = finished_.size() - 3; i < finished_.size(); ++i) {
    EXPECT_FALSE(results_[i].ok);
    EXPECT_EQ(finished_at_[i], finished_at_.back());
  }
  EXPECT_EQ(client_->pending_op_count(), 0u);
}

TEST_F(OpBookkeepingTest, AttemptTimeoutsFireExactlyAtTheirDeadlines) {
  ClientOptions options;
  options.attempt_timeout = sim::Millis(100);
  Build(options);
  // The client never starts its hello loop, so it keeps sending to the
  // silent primary; only attempt timeouts end those ops.
  network_->BlockPair(client_host_, rs_->node(0).host());
  OpOptions one_retry;
  one_retry.max_retries = 1;
  Read(ReadPreference::kPrimary, 'R', one_retry);  // sent at 0
  loop_.RunUntil(sim::Millis(30));
  Read(ReadPreference::kPrimary, 'X', NoRetries());  // two attempts with
  Read(ReadPreference::kPrimary, 'Y', NoRetries());  // one deadline
  // Secondary reads armed between the held attempts complete long before
  // their deadlines; a completed attempt must never fire.
  for (int i = 0; i < 20; ++i) {
    Read(ReadPreference::kSecondary, '.');
    loop_.RunUntil(loop_.Now() + sim::Millis(5));
  }
  loop_.RunAll();
  ASSERT_EQ(finished_.size(), 23u);
  const std::string held = finished_.substr(finished_.find_first_not_of('.'));
  EXPECT_EQ(held.substr(0, 2), "XY");  // same deadline: FIFO order
  // X and Y gave up at exactly send + attempt_timeout.
  const size_t x = finished_.find('X');
  EXPECT_EQ(finished_at_[x], sim::Millis(130));
  EXPECT_EQ(finished_at_[x + 1], sim::Millis(130));
  // R timed out at 100 ms, retried after the 2 ms backoff, and its second
  // attempt gave up at its own deadline: 102 + 100 ms.
  const size_t r = finished_.find('R');
  EXPECT_EQ(finished_at_[r], sim::Millis(202));
  EXPECT_EQ(results_[r].retries, 1);
  for (size_t i = 0; i < results_.size(); ++i) {
    if (finished_[i] != '.') continue;
    EXPECT_TRUE(results_[i].ok);
    EXPECT_EQ(results_[i].retries, 0);
  }
  // The sweep is gone with the last armed attempt: nothing ran after R.
  EXPECT_EQ(loop_.Now(), sim::Millis(202));
  EXPECT_EQ(loop_.PendingEvents(), 0u);
}

TEST_F(OpBookkeepingTest, RunAllEndsAtTheLastCompletion) {
  Build();  // default 10 s attempt timeout, unbatched
  for (int i = 0; i < 4; ++i) Read(ReadPreference::kPrimary, 'p');
  Read(ReadPreference::kSecondary, 's');
  EXPECT_EQ(client_->pending_op_count(), 5u);
  loop_.RunAll();
  ASSERT_EQ(finished_.size(), 5u);
  // Every attempt disarmed on completion, so no sweep event outlives the
  // ops: the loop stops at the last completion, not at a 10 s deadline.
  EXPECT_EQ(loop_.Now(), finished_at_.back());
  EXPECT_LT(loop_.Now(), sim::Millis(50));
  EXPECT_EQ(loop_.PendingEvents(), 0u);
  EXPECT_EQ(client_->pending_op_count(), 0u);
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
