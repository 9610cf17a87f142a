// Tests for fault injection and fail-over: elections, rollback of
// un-replicated writes, w:majority durability across primary crashes,
// node restart/initial sync, and driver behaviour during a fail-over.

#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "commit_helper.h"
#include "driver/client.h"
#include "net/network.h"
#include "repl/replica_set.h"

namespace dcg::repl {
namespace {

// Primary indexes are never assumed constant — every scenario reads the
// currently reported primary and kills/checks relative to it, so the
// tests keep passing whichever member an election promotes.
class FailoverTest : public ::testing::Test {
 protected:
  void Build(ReplicaSetParams params = {}) {
    params.election_timeout = sim::Seconds(3);
    server::ServerParams server_params;
    server_params.service.sigma = 0.0;
    network_ = std::make_unique<net::Network>(&loop_, sim::Rng(1));
    client_host_ = network_->AddHost("client");
    std::vector<net::HostId> hosts;
    for (int i = 0; i < 3; ++i) {
      hosts.push_back(network_->AddHost("n" + std::to_string(i)));
      network_->SetLink(client_host_, hosts[i], sim::Millis(1), 0);
    }
    rs_ = std::make_unique<ReplicaSet>(&loop_, sim::Rng(2), network_.get(),
                                       params, server_params, hosts);
    driver::ClientOptions options;
    client_ = std::make_unique<driver::MongoClient>(
        &loop_, sim::Rng(3), rs_->command_bus(), client_host_, options);
    rs_->Start();
  }

  void WriteDoc(int64_t id, WriteConcern concern = WriteConcern::kW1,
                std::function<void(bool)> done = nullptr) {
    rs_->CommitWrite(
        rs_->primary_index(), server::OpClass::kInsert,
        [id](TxnContext* ctx) {
          ctx->Insert("t", doc::Value::Doc({{"_id", id}, {"v", id}}));
        },
        concern, /*retry=*/{}, /*cost_scale=*/1.0,
        test::OnCommitted(std::move(done)));
  }

  /// A live secondary index, preferring the highest (stays out of the
  /// way of the seed primary at index 0).
  int PickSecondary() const {
    for (int i = rs_->node_count() - 1; i >= 0; --i) {
      if (i != rs_->primary_index() && rs_->IsAlive(i)) return i;
    }
    return -1;
  }

  sim::EventLoop loop_;
  std::unique_ptr<net::Network> network_;
  net::HostId client_host_;
  std::unique_ptr<ReplicaSet> rs_;
  std::unique_ptr<driver::MongoClient> client_;
};

TEST_F(FailoverTest, ElectionPromotesMostUpToDateSecondary) {
  Build();
  for (int64_t i = 0; i < 50; ++i) WriteDoc(i);
  loop_.RunUntil(sim::Seconds(2));
  const int old_primary = rs_->primary_index();
  ASSERT_TRUE(rs_->IsAlive(old_primary));

  rs_->KillNode(old_primary);
  EXPECT_FALSE(rs_->IsAlive(old_primary));
  // Before the election timeout, the old primary is still nominal.
  loop_.RunUntil(sim::Seconds(3));
  EXPECT_EQ(rs_->primary_index(), old_primary);
  // After it, a secondary has taken over and the term advanced. (Raft
  // deadlines add up to 15 % jitter plus vote + catch-up rounds, so give
  // the election a comfortable margin past the base timeout.)
  loop_.RunUntil(sim::Seconds(8));
  EXPECT_NE(rs_->primary_index(), old_primary);
  EXPECT_TRUE(rs_->IsAlive(rs_->primary_index()));
  EXPECT_EQ(rs_->term(), 2u);
  EXPECT_EQ(rs_->elections(), 1u);
  EXPECT_TRUE(rs_->HasWritablePrimary());
}

TEST_F(FailoverTest, WritesContinueAfterFailover) {
  Build();
  for (int64_t i = 0; i < 20; ++i) WriteDoc(i);
  loop_.RunUntil(sim::Seconds(2));
  rs_->KillNode(rs_->primary_index());
  loop_.RunUntil(sim::Seconds(8));

  bool committed = false;
  WriteDoc(1000, WriteConcern::kW1, [&](bool c) { committed = c; });
  loop_.RunUntil(sim::Seconds(9));
  EXPECT_TRUE(committed);
  EXPECT_NE(rs_->primary().db().Get("t")->FindById(doc::Value(1000)),
            nullptr);
  // Replication between the survivors continues.
  loop_.RunUntil(sim::Seconds(11));
  const int other = PickSecondary();
  ASSERT_GE(other, 0);
  EXPECT_EQ(rs_->node(other).db().Fingerprint(),
            rs_->primary().db().Fingerprint());
}

TEST_F(FailoverTest, MajorityAckedWritesSurviveFailover) {
  // The classic durability contract: anything acknowledged at w:majority
  // before the crash exists on the new primary after the election.
  Build();
  std::vector<int64_t> acked;
  for (int64_t i = 0; i < 300; ++i) {
    loop_.ScheduleAt(sim::Millis(20) * i, [this, i, &acked] {
      WriteDoc(i, WriteConcern::kMajority, [i, &acked](bool ok) {
        if (ok) acked.push_back(i);
      });
    });
  }
  loop_.ScheduleAt(sim::Seconds(4),
                   [this] { rs_->KillNode(rs_->primary_index()); });
  loop_.RunUntil(sim::Seconds(14));

  EXPECT_GT(acked.size(), 50u);  // plenty acknowledged before the crash
  const store::Collection* t = rs_->primary().db().Get("t");
  ASSERT_NE(t, nullptr);
  for (int64_t id : acked) {
    EXPECT_NE(t->FindById(doc::Value(id)), nullptr) << "lost w:majority " << id;
  }
}

TEST_F(FailoverTest, RetryOfARolledBackRetryableWriteRunsAgain) {
  // The transaction record is replicated with the write it describes: an
  // election that rolls the write back must drop the record too, or a
  // retry after the lost ack would be answered "committed" from it and
  // the write would be gone from the new primary.
  ReplicaSetParams params;
  params.getmore_block_threshold = sim::Seconds(1);
  Build(params);
  const uint64_t session = rs_->command_bus()->StartSession();
  const server::RetryKey retry{session, /*op_id=*/1, /*answered_below=*/1};
  auto commit = [&](bool* committed) {
    rs_->CommitWrite(
        rs_->primary_index(), server::OpClass::kInsert,
        [](TxnContext* ctx) {
          ctx->Insert("t", doc::Value::Doc({{"_id", 7}, {"v", 7}}));
        },
        WriteConcern::kW1, retry, /*cost_scale=*/1.0,
        test::OnCommitted([committed](bool c) { *committed = c; }));
  };
  // Replication stalls behind a never-ending checkpoint, so the write
  // commits on the primary alone.
  rs_->primary().server().AddDirtyBytes(100'000'000'000ULL);
  loop_.RunUntil(sim::Seconds(61));
  bool first = false;
  commit(&first);
  loop_.RunUntil(sim::Seconds(62));
  ASSERT_TRUE(first);
  ASSERT_EQ(rs_->committed_writes(), 1u);

  const int old_primary = rs_->primary_index();
  rs_->KillNode(old_primary);
  loop_.RunUntil(sim::Seconds(70));
  ASSERT_NE(rs_->primary_index(), old_primary);
  ASSERT_EQ(rs_->primary().db().Get("t"), nullptr);  // rolled back
  EXPECT_EQ(rs_->retry_slot_count(), 0u);

  bool retried = false;
  commit(&retried);
  loop_.RunUntil(sim::Seconds(72));
  EXPECT_TRUE(retried);
  EXPECT_EQ(rs_->committed_writes(), 2u);
  ASSERT_NE(rs_->primary().db().Get("t"), nullptr);
  EXPECT_NE(rs_->primary().db().Get("t")->FindById(doc::Value(7)), nullptr);
}

TEST_F(FailoverTest, UnreplicatedW1WritesRollBack) {
  ReplicaSetParams params;
  // Stall replication so the primary commits w:1 writes the secondaries
  // never see.
  params.getmore_block_threshold = sim::Seconds(1);
  Build(params);
  loop_.RunUntil(sim::Millis(500));
  for (int64_t i = 0; i < 10; ++i) WriteDoc(i);
  loop_.RunUntil(sim::Seconds(2));  // replicated
  const int old_primary = rs_->primary_index();
  const int observer = PickSecondary();
  ASSERT_GE(observer, 0);
  ASSERT_EQ(rs_->node(observer).last_applied().seq, 10u);

  // Block log shipping with an artificial never-ending checkpoint, then
  // commit more w:1 writes that stay primary-only.
  rs_->primary().server().AddDirtyBytes(100'000'000'000ULL);
  loop_.RunUntil(sim::Seconds(61));  // checkpoint started, getMore blocked
  for (int64_t i = 100; i < 110; ++i) WriteDoc(i);
  loop_.RunUntil(sim::Seconds(62));
  ASSERT_EQ(rs_->oplog().last_seq(), 20u);
  ASSERT_EQ(rs_->node(observer).last_applied().seq, 10u);

  rs_->KillNode(old_primary);
  loop_.RunUntil(sim::Seconds(70));
  // The acknowledged-but-unreplicated suffix was rolled back.
  EXPECT_NE(rs_->primary_index(), old_primary);
  EXPECT_EQ(rs_->oplog().last_seq(), 10u);
  EXPECT_EQ(rs_->primary().db().Get("t")->FindById(doc::Value(105)), nullptr);
  EXPECT_NE(rs_->primary().db().Get("t")->FindById(doc::Value(5)), nullptr);

  // New writes take fresh sequence numbers from the truncation point.
  bool committed = false;
  WriteDoc(200, WriteConcern::kW1, [&](bool c) { committed = c; });
  loop_.RunUntil(sim::Seconds(72));
  EXPECT_TRUE(committed);
  EXPECT_EQ(rs_->oplog().last_seq(), 11u);
}

TEST_F(FailoverTest, RestartedNodeInitialSyncsAndConverges) {
  Build();
  for (int64_t i = 0; i < 30; ++i) WriteDoc(i);
  loop_.RunUntil(sim::Seconds(2));
  const int victim = PickSecondary();
  ASSERT_GE(victim, 0);
  rs_->KillNode(victim);
  for (int64_t i = 100; i < 130; ++i) WriteDoc(i);
  loop_.RunUntil(sim::Seconds(4));
  EXPECT_LT(rs_->node(victim).last_applied().seq, 60u);

  rs_->RestartNode(victim);
  EXPECT_TRUE(rs_->IsAlive(victim));
  for (int64_t i = 200; i < 210; ++i) WriteDoc(i);
  loop_.RunUntil(sim::Seconds(8));
  EXPECT_EQ(rs_->node(victim).last_applied().seq, 70u);
  EXPECT_EQ(rs_->node(victim).db().Fingerprint(),
            rs_->primary().db().Fingerprint());
}

TEST_F(FailoverTest, KilledPrimaryCanRejoinAsSecondary) {
  Build();
  for (int64_t i = 0; i < 20; ++i) WriteDoc(i);
  loop_.RunUntil(sim::Seconds(2));
  const int old_primary = rs_->primary_index();
  rs_->KillNode(old_primary);
  loop_.RunUntil(sim::Seconds(8));
  const int new_primary = rs_->primary_index();
  ASSERT_NE(new_primary, old_primary);

  rs_->RestartNode(old_primary);
  for (int64_t i = 100; i < 120; ++i) WriteDoc(i);
  loop_.RunUntil(sim::Seconds(14));
  EXPECT_EQ(rs_->primary_index(), new_primary);  // no spurious election
  EXPECT_EQ(rs_->node(old_primary).db().Fingerprint(),
            rs_->primary().db().Fingerprint());
}

TEST_F(FailoverTest, DriverRetriesThroughFailover) {
  Build();
  client_->Start();
  loop_.RunUntil(sim::Seconds(1));
  rs_->KillNode(rs_->primary_index());

  // A write issued while no primary exists completes after the election.
  bool write_done = false;
  sim::Time write_completed_at = 0;
  client_->Write(
      server::OpClass::kInsert,
      [](TxnContext* ctx) {
        ctx->Insert("t", doc::Value::Doc({{"_id", 1}}));
      },
      [&](const driver::OpResult& r) {
        write_done = true;
        write_completed_at = loop_.Now();
        EXPECT_TRUE(r.committed);
      });

  // Primary-preference reads served by surviving members meanwhile... the
  // kPrimary read also blocks until the election.
  bool read_done = false;
  client_->Read(
      driver::ReadPreference::kSecondary, server::OpClass::kPointRead,
      [](const store::Database&) {},
      [&](const driver::OpResult& r) {
        read_done = true;
        EXPECT_TRUE(rs_->IsAlive(r.node));
      });

  loop_.RunUntil(sim::Seconds(12));
  EXPECT_TRUE(read_done);
  EXPECT_TRUE(write_done);
  EXPECT_GE(write_completed_at, sim::Seconds(4));  // after the election
}

TEST_F(FailoverTest, SelectionSkipsDeadSecondaries) {
  Build();
  client_->Start();
  loop_.RunUntil(sim::Seconds(1));
  const int primary = rs_->primary_index();
  const int first_victim = PickSecondary();
  rs_->KillNode(first_victim);
  const int survivor = PickSecondary();
  ASSERT_GE(survivor, 0);
  ASSERT_NE(survivor, first_victim);
  // The dead secondary stops answering hellos; after the hello timeout
  // the driver marks it unreachable and stops selecting it.
  loop_.RunUntil(sim::Seconds(4));
  for (int i = 0; i < 50; ++i) {
    const int node = client_->SelectNode(driver::ReadPreference::kSecondary);
    EXPECT_EQ(node, survivor);
  }
  rs_->KillNode(survivor);
  loop_.RunUntil(sim::Seconds(7));
  // All secondaries dead: falls back to the primary.
  EXPECT_EQ(client_->SelectNode(driver::ReadPreference::kSecondary), primary);
}

TEST_F(FailoverTest, PendingMajorityWritesFailOnPrimaryCrash) {
  ReplicaSetParams params;
  params.getmore_block_threshold = sim::Seconds(1);
  Build(params);
  // Stall replication so majority acks can't happen.
  rs_->primary().server().AddDirtyBytes(100'000'000'000ULL);
  loop_.RunUntil(sim::Seconds(61));

  int outcomes = 0, failures = 0;
  for (int64_t i = 0; i < 5; ++i) {
    WriteDoc(i, WriteConcern::kMajority, [&](bool ok) {
      ++outcomes;
      if (!ok) ++failures;
    });
  }
  loop_.RunUntil(sim::Seconds(62));
  EXPECT_EQ(outcomes, 0);  // stuck waiting for replication
  rs_->KillNode(rs_->primary_index());
  loop_.RunUntil(sim::Seconds(63));
  EXPECT_EQ(outcomes, 5);  // resolved as uncertain/failed
  EXPECT_EQ(failures, 5);
}

// Randomized fault-injection property: under arbitrary interleavings of
// writes, crashes, elections, and restarts, (a) every write acknowledged
// at w:majority survives on the final primary, and (b) once the cluster
// quiesces, all live replicas converge to identical data.
class FaultInjectionTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FaultInjectionTest, MajorityDurabilityAndConvergence) {
  const uint64_t seed = GetParam();
  sim::EventLoop loop;
  sim::Rng rng(seed);
  net::Network network(&loop, rng.Fork());
  const net::HostId client_host = network.AddHost("client");
  ReplicaSetParams params;
  params.election_timeout = sim::Seconds(2);
  server::ServerParams server_params;
  std::vector<net::HostId> hosts;
  for (int i = 0; i < 3; ++i) {
    hosts.push_back(network.AddHost("n" + std::to_string(i)));
    network.SetLink(client_host, hosts[i], sim::Millis(1), sim::Micros(40));
  }
  ReplicaSet rs(&loop, rng.Fork(), &network, params, server_params, hosts);
  rs.Start();

  // Writers: a mix of w:1 and w:majority inserts throughout the run.
  auto acked_majority = std::make_shared<std::vector<int64_t>>();
  sim::Rng write_rng = rng.Fork();
  for (int64_t i = 0; i < 600; ++i) {
    const bool majority = write_rng.Bernoulli(0.4);
    loop.ScheduleAt(sim::Millis(40) * i, [&rs, i, majority, acked_majority] {
      rs.CommitWrite(
          rs.primary_index(), server::OpClass::kInsert,
          [i](TxnContext* ctx) {
            ctx->Insert("t", doc::Value::Doc({{"_id", i}}));
          },
          majority ? WriteConcern::kMajority : WriteConcern::kW1,
          /*retry=*/{}, /*cost_scale=*/1.0,
          test::OnCommitted(
              majority ? std::function<void(bool)>(
                             [i, acked_majority](bool ok) {
                               if (ok) acked_majority->push_back(i);
                             })
                       : nullptr));
    });
  }

  // Chaos: 4 kill/restart cycles at random times on random nodes, never
  // dropping below 2 live nodes (a majority must stay electable).
  sim::Rng chaos_rng = rng.Fork();
  for (int round = 0; round < 4; ++round) {
    const auto kill_at =
        sim::Seconds(3) + sim::Seconds(5) * round +
        sim::Millis(chaos_rng.UniformInt(0, 1500));
    const int victim = static_cast<int>(chaos_rng.UniformInt(0, 2));
    loop.ScheduleAt(kill_at, [&rs, victim] {
      int live = 0;
      for (int i = 0; i < 3; ++i) live += rs.IsAlive(i) ? 1 : 0;
      if (live == 3) rs.KillNode(victim);
    });
    loop.ScheduleAt(kill_at + sim::Seconds(3) +
                        sim::Millis(chaos_rng.UniformInt(0, 800)),
                    [&rs, victim] {
                      if (!rs.IsAlive(victim) &&
                          rs.IsAlive(rs.primary_index())) {
                        rs.RestartNode(victim);
                      }
                    });
  }

  // Run well past the last write (600 * 40 ms = 24 s) and chaos round,
  // then quiesce.
  loop.RunUntil(sim::Seconds(40));

  ASSERT_TRUE(rs.IsAlive(rs.primary_index()));
  const store::Collection* t = rs.primary().db().Get("t");
  ASSERT_NE(t, nullptr);
  for (int64_t id : *acked_majority) {
    EXPECT_NE(t->FindById(doc::Value(id)), nullptr)
        << "w:majority write " << id << " lost (seed " << seed << ")";
  }
  for (int i = 0; i < 3; ++i) {
    if (!rs.IsAlive(i) || i == rs.primary_index()) continue;
    EXPECT_EQ(rs.node(i).db().Fingerprint(),
              rs.primary().db().Fingerprint())
        << "node " << i << " diverged (seed " << seed << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(Chaos, FaultInjectionTest,
                         ::testing::Values(101, 202, 303, 404, 505, 606));

}  // namespace
}  // namespace dcg::repl
