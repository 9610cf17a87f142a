// Tests for driver-side command batching: size / delay / deadline flush
// triggers, per-node buffer isolation, composition with a constrained
// connection pool, rider retry after an envelope checkout timeout, and
// retryable-write dedup when a batched write's acknowledgement is lost.

#include <functional>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "driver/client.h"
#include "proto/command.h"
#include "repl/replica_set.h"

namespace dcg::driver {
namespace {

class BatchingTest : public ::testing::Test {
 protected:
  void Build(ClientOptions options = {}, int secondaries = 2) {
    options.batching_enabled = true;
    network_ = std::make_unique<net::Network>(&loop_, sim::Rng(1));
    client_host_ = network_->AddHost("client");
    repl::ReplicaSetParams params;
    params.secondaries = secondaries;
    server::ServerParams server_params;
    server_params.service.sigma = 0.0;
    hosts_.clear();
    for (int i = 0; i <= secondaries; ++i) {
      hosts_.push_back(network_->AddHost("n" + std::to_string(i)));
      network_->SetLink(client_host_, hosts_[i], sim::Millis(1), 0);
    }
    rs_ = std::make_unique<repl::ReplicaSet>(&loop_, sim::Rng(2),
                                             network_.get(), params,
                                             server_params, hosts_);
    client_ = std::make_unique<MongoClient>(&loop_, sim::Rng(3),
                                            rs_->command_bus(), client_host_,
                                            options);
  }

  void IssueRead(ReadPreference pref, std::vector<int>* nodes,
                 OpOptions opts = {}) {
    client_->Read(
        pref, server::OpClass::kPointRead, [](const store::Database&) {},
        [nodes](const OpResult& r) {
          EXPECT_TRUE(r.ok);
          nodes->push_back(r.node);
        },
        opts);
  }

  sim::EventLoop loop_;
  std::unique_ptr<net::Network> network_;
  net::HostId client_host_;
  std::vector<net::HostId> hosts_;
  std::unique_ptr<repl::ReplicaSet> rs_;
  std::unique_ptr<MongoClient> client_;
};

TEST_F(BatchingTest, SizeTriggerFlushesWithoutWaitingForDelay) {
  ClientOptions options;
  options.batch_max_ops = 4;
  options.batch_max_delay = sim::Millis(50);  // must never matter here
  Build(options);
  std::vector<int> nodes;
  for (int i = 0; i < 4; ++i) IssueRead(ReadPreference::kPrimary, &nodes);
  // The fourth enqueue filled the batch: it is on the wire already.
  EXPECT_EQ(client_->buffered_op_count(), 0u);
  EXPECT_EQ(client_->op_counters().envelopes_sent, 1u);
  loop_.RunAll();
  ASSERT_EQ(nodes.size(), 4u);
  // All four completed long before the 50 ms delay trigger could fire.
  EXPECT_LT(loop_.Now(), sim::Millis(50));
  EXPECT_EQ(client_->op_counters().ops_batched, 4u);
  EXPECT_EQ(client_->batch_occupancy().max(), 4.0);
  EXPECT_EQ(client_->pending_op_count(), 0u);
}

TEST_F(BatchingTest, DelayTriggerFlushesAPartialBatch) {
  ClientOptions options;
  options.batch_max_ops = 16;
  options.batch_max_delay = sim::Micros(200);
  Build(options);
  std::vector<int> nodes;
  IssueRead(ReadPreference::kPrimary, &nodes);
  IssueRead(ReadPreference::kPrimary, &nodes);
  // Two of sixteen: the batch is parked on the flush timer.
  EXPECT_EQ(client_->buffered_op_count(), 2u);
  EXPECT_EQ(client_->op_counters().envelopes_sent, 0u);
  loop_.RunAll();
  ASSERT_EQ(nodes.size(), 2u);
  EXPECT_EQ(client_->op_counters().envelopes_sent, 1u);
  EXPECT_EQ(client_->op_counters().ops_batched, 2u);
  EXPECT_EQ(client_->buffered_op_count(), 0u);
}

TEST_F(BatchingTest, PartialBatchLatencyIncludesTheFlushDelay) {
  ClientOptions options;
  options.batch_max_ops = 16;
  options.batch_max_delay = sim::Micros(200);
  Build(options);
  sim::Duration latency = 0;
  client_->Read(
      ReadPreference::kPrimary, server::OpClass::kPointRead,
      [](const store::Database&) {},
      [&](const OpResult& r) {
        EXPECT_TRUE(r.ok);
        latency = r.latency;
      });
  loop_.RunAll();
  // A lone op waits the whole flush delay before it touches the wire.
  EXPECT_GE(latency, sim::Micros(200));
}

TEST_F(BatchingTest, BuffersArePerNode) {
  ClientOptions options;
  options.batch_max_ops = 2;
  options.batch_max_delay = sim::Millis(50);
  Build(options, /*secondaries=*/1);  // exactly one secondary: node 1
  std::vector<int> primary_nodes;
  std::vector<int> secondary_nodes;
  // Interleave: same-target ops must coalesce, different targets must
  // not. With batch_max_ops=2 each node's pair flushes on size.
  IssueRead(ReadPreference::kPrimary, &primary_nodes);
  IssueRead(ReadPreference::kSecondary, &secondary_nodes);
  EXPECT_EQ(client_->op_counters().envelopes_sent, 0u);  // both parked
  IssueRead(ReadPreference::kPrimary, &primary_nodes);
  EXPECT_EQ(client_->op_counters().envelopes_sent, 1u);  // node 0 flushed
  IssueRead(ReadPreference::kSecondary, &secondary_nodes);
  EXPECT_EQ(client_->op_counters().envelopes_sent, 2u);  // node 1 flushed
  loop_.RunAll();
  ASSERT_EQ(primary_nodes.size(), 2u);
  ASSERT_EQ(secondary_nodes.size(), 2u);
  EXPECT_EQ(primary_nodes, (std::vector<int>{0, 0}));
  EXPECT_EQ(secondary_nodes, (std::vector<int>{1, 1}));
  EXPECT_EQ(client_->op_counters().ops_batched, 4u);
  EXPECT_EQ(client_->batch_occupancy().max(), 2.0);
}

TEST_F(BatchingTest, ImminentDeadlineForcesAnImmediateFlush) {
  ClientOptions options;
  options.batch_max_ops = 16;
  options.batch_max_delay = sim::Millis(50);
  Build(options);
  OpOptions opts;
  opts.deadline = sim::Millis(8);  // inside the 50 ms flush window
  sim::Time done_at = -1;
  client_->Read(
      ReadPreference::kPrimary, server::OpClass::kPointRead,
      [](const store::Database&) {},
      [&](const OpResult& r) {
        done_at = loop_.Now();
        EXPECT_TRUE(r.ok);
        EXPECT_FALSE(r.timed_out);
      },
      opts);
  // Flushed synchronously: waiting out the 50 ms delay would blow the
  // 8 ms maxTimeMS while the op sat client-side.
  EXPECT_EQ(client_->buffered_op_count(), 0u);
  EXPECT_EQ(client_->op_counters().envelopes_sent, 1u);
  loop_.RunAll();
  ASSERT_GE(done_at, 0);
  EXPECT_LT(done_at, sim::Millis(8));
}

TEST_F(BatchingTest, ComposesWithAConstrainedPool) {
  ClientOptions options;
  options.batch_max_ops = 4;
  options.batch_max_delay = sim::Micros(200);
  options.pool.max_pool_size = 1;
  Build(options);
  std::vector<int> nodes;
  for (int i = 0; i < 10; ++i) IssueRead(ReadPreference::kPrimary, &nodes);
  loop_.RunAll();
  ASSERT_EQ(nodes.size(), 10u);
  // 10 ops through batches of 4: two size flushes + one delay flush, each
  // riding exactly one checkout through the single-connection pool.
  EXPECT_EQ(client_->op_counters().envelopes_sent, 3u);
  EXPECT_EQ(client_->op_counters().ops_batched, 10u);
  EXPECT_EQ(client_->op_counters().checkouts, 3u);
  EXPECT_EQ(client_->node_pool(0).stats().checkouts, 3u);
  EXPECT_LE(client_->node_pool(0).total_connections(), 1);
  EXPECT_EQ(client_->node_pool(0).stale_handouts(), 0u);
  // Every shared connection was settled: nothing leaked.
  EXPECT_EQ(client_->PoolCheckedOut(), 0);
  EXPECT_EQ(client_->PoolQueueDepth(), 0);
  EXPECT_EQ(client_->buffered_op_count(), 0u);
  EXPECT_EQ(client_->pending_op_count(), 0u);
}

TEST_F(BatchingTest, EnvelopeCheckoutTimeoutRetriesEveryRiderExactlyOnce) {
  ClientOptions options;
  options.batch_max_ops = 3;
  options.batch_max_delay = sim::Micros(200);
  options.retry_backoff_base = sim::Millis(2);
  options.pool.max_pool_size = 1;
  options.pool.wait_queue_timeout = sim::Millis(5);
  Build(options);
  // Hold the node-0 pool's only connection so the envelope's shared
  // checkout sits in the wait queue until it times out.
  uint64_t held = 0;
  client_->node_pool(0).CheckOut(
      [&](const pool::ConnectionPool::Checkout& co) {
        ASSERT_TRUE(co.ok);
        held = co.conn_id;
      });
  ASSERT_NE(held, 0u);

  int read_done = 0;
  bool write_done = false;
  for (int i = 0; i < 2; ++i) {
    client_->Read(
        ReadPreference::kPrimary, server::OpClass::kPointRead,
        [](const store::Database&) {},
        [&](const OpResult& r) {
          ++read_done;
          EXPECT_TRUE(r.ok);
          EXPECT_GT(r.retries, 0);
        });
  }
  client_->Write(
      server::OpClass::kInsert,
      [](repl::TxnContext* ctx) {
        ctx->Insert("t", doc::Value::Doc({{"_id", 1}}));
      },
      [&](const OpResult& r) {
        write_done = true;
        EXPECT_TRUE(r.ok);
        EXPECT_TRUE(r.committed);
        EXPECT_GT(r.retries, 0);
      });
  loop_.ScheduleAt(sim::Millis(20),
                   [&] { client_->node_pool(0).CheckIn(held); });
  loop_.RunAll();
  EXPECT_EQ(read_done, 2);
  EXPECT_TRUE(write_done);
  // Each failed shared checkout counts one driver-side timeout however
  // many riders it carried.
  EXPECT_GE(client_->op_counters().checkout_timeouts, 1u);
  // The write went through the batch path and applied exactly once.
  EXPECT_EQ(rs_->committed_writes(), 1u);
  EXPECT_EQ(client_->pending_op_count(), 0u);
  EXPECT_EQ(client_->buffered_op_count(), 0u);
  EXPECT_EQ(client_->PoolCheckedOut(), 0);
}

// The causal token rides every envelope rider: a batched read carrying
// afterClusterTime parks on a secondary that has not yet replicated the
// token's write, and answers with an operationTime at or past it.
TEST_F(BatchingTest, BatchedCausalReadParksOnLaggingSecondary) {
  ClientOptions options;
  options.batch_max_ops = 4;
  Build(options);
  rs_->Start();
  loop_.RunUntil(sim::Seconds(1));
  repl::OpTime token;
  bool lagging = false;
  bool saw_write = false;
  bool done = false;
  client_->Write(
      server::OpClass::kInsert,
      [](repl::TxnContext* ctx) {
        ctx->Insert("t", doc::Value::Doc({{"_id", 7}}));
      },
      [&](const OpResult& w) {
        ASSERT_TRUE(w.committed);
        token = w.operation_time;
        lagging = rs_->node(1).last_applied() < token &&
                  rs_->node(2).last_applied() < token;
        OpOptions opts;
        opts.after_cluster_time = token;
        client_->Read(
            ReadPreference::kSecondary, server::OpClass::kPointRead,
            [&](const store::Database& db) {
              const store::Collection* t = db.Get("t");
              saw_write = t != nullptr && t->FindById(doc::Value(7)) != nullptr;
            },
            [&](const OpResult& r) {
              done = true;
              EXPECT_TRUE(r.ok);
              EXPECT_TRUE(r.used_secondary);
              EXPECT_LE(token, r.operation_time);
            },
            opts);
      });
  loop_.RunUntil(sim::Seconds(5));
  ASSERT_TRUE(lagging) << "both secondaries had the write already";
  ASSERT_TRUE(done);
  EXPECT_TRUE(saw_write);
  EXPECT_GT(client_->op_counters().ops_batched, 1u);
}

// The write concern rides every envelope rider: a batched w:majority
// write is acknowledged only once a majority holds it, clearly after a
// batched w:1 write issued alongside it.
TEST_F(BatchingTest, BatchedMajorityWriteWaitsForMajority) {
  Build();
  rs_->Start();
  loop_.RunUntil(sim::Seconds(1));
  sim::Time w1_done = -1;
  sim::Time majority_done = -1;
  bool majority_held = false;
  client_->Write(
      server::OpClass::kInsert,
      [](repl::TxnContext* ctx) {
        ctx->Insert("t", doc::Value::Doc({{"_id", 1}}));
      },
      [&](const OpResult& r) {
        EXPECT_TRUE(r.committed);
        w1_done = loop_.Now();
      });
  client_->Write(
      server::OpClass::kInsert,
      [](repl::TxnContext* ctx) {
        ctx->Insert("t", doc::Value::Doc({{"_id", 2}}));
      },
      [&](const OpResult& r) {
        EXPECT_TRUE(r.committed);
        majority_done = loop_.Now();
        for (int i = 1; i <= 2; ++i) {
          const store::Collection* t = rs_->node(i).db().Get("t");
          if (t != nullptr && t->FindById(doc::Value(2)) != nullptr) {
            majority_held = true;
          }
        }
      },
      repl::WriteConcern::kMajority);
  loop_.RunUntil(sim::Seconds(5));
  ASSERT_GE(w1_done, 0);
  ASSERT_GE(majority_done, 0);
  // Both rode one envelope; the majority ack still waited for replication.
  EXPECT_EQ(client_->op_counters().envelopes_sent, 1u);
  EXPECT_GT(majority_done, w1_done + sim::Millis(50));
  EXPECT_TRUE(majority_held);
  EXPECT_EQ(rs_->majority_writes_acked(), 1u);
}

TEST_F(BatchingTest, BatchedRetryableWriteIsNotReappliedAcrossLostAck) {
  ClientOptions options;
  options.batch_max_ops = 16;
  options.batch_max_delay = sim::Micros(200);
  options.attempt_timeout = sim::Millis(100);
  options.retry_backoff_base = sim::Millis(2);
  Build(options);
  for (int i = 0; i < 3; ++i) {
    rs_->node(i).db().GetOrCreate("t").Insert(
        doc::Value::Doc({{"_id", 1}, {"v", 0}}));
  }
  // Acks vanish until t = 250 ms: the first envelope's write commits, the
  // client retries blind, and every retry re-batches under the same op id
  // for the server's transaction table to dedup.
  net::Network::LinkFault fault;
  fault.drop_probability = 1.0;
  network_->SetLinkFault(hosts_[0], client_host_, fault);
  loop_.ScheduleAt(sim::Millis(250), [this] {
    network_->ClearLinkFault(hosts_[0], client_host_);
  });

  bool done = false;
  client_->Write(
      server::OpClass::kUpdate,
      [](repl::TxnContext* ctx) {
        doc::UpdateSpec spec;
        spec.Inc("v", doc::Value(int64_t{1}));
        ctx->Update("t", doc::Value(1), spec);
      },
      [&](const OpResult& r) {
        done = true;
        EXPECT_TRUE(r.ok);
        EXPECT_TRUE(r.committed);
        EXPECT_GT(r.retries, 0);
      });
  loop_.RunAll();
  ASSERT_TRUE(done);
  // Several envelopes carried the same logical write; it applied once.
  EXPECT_GT(client_->op_counters().envelopes_sent, 1u);
  EXPECT_EQ(rs_->committed_writes(), 1u);
  EXPECT_EQ(rs_->primary()
                .db()
                .Get("t")
                ->FindById(doc::Value(1))
                ->Find("v")
                ->as_int64(),
            1);
}

}  // namespace
}  // namespace dcg::driver
