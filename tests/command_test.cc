// Tests for the wire-protocol command layer and end-to-end OpContext:
// client-enforced deadlines (maxTimeMS), retries with re-selection on a
// different node, retryable-write dedup across a lost acknowledgement,
// server-checked primary contracts (NotWritablePrimary), and opt-in
// hedged reads.

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "driver/client.h"
#include "proto/command.h"
#include "repl/replica_set.h"

namespace {
/// Heap allocations counted while armed (the binary is single-threaded).
bool g_count_allocs = false;
uint64_t g_allocs = 0;
}  // namespace

// Pass-through global allocator that counts calls only while armed, so a
// test can bound the allocations of one code path whatever the code
// layout or the allocator underneath. Kept out of line so the compiler
// pairs each new with its delete, not with the malloc/free inside.
[[gnu::noinline]] void* operator new(std::size_t size) {
  if (g_count_allocs) ++g_allocs;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace dcg::driver {
namespace {

class CommandTest : public ::testing::Test {
 protected:
  void Build(ClientOptions options = {}, int secondaries = 2) {
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

  sim::EventLoop loop_;
  std::unique_ptr<net::Network> network_;
  net::HostId client_host_;
  std::vector<net::HostId> hosts_;
  std::unique_ptr<repl::ReplicaSet> rs_;
  std::unique_ptr<MongoClient> client_;
};

TEST_F(CommandTest, DeadlineFailsSilentlyLostOpExactlyOnTime) {
  // The primary's link is blocked: the find is silently lost and no
  // server will ever error. Only the client-side deadline can keep the
  // maxTimeMS promise.
  Build();
  network_->BlockPair(client_host_, hosts_[0]);
  OpOptions opts;
  opts.deadline = sim::Millis(500);
  sim::Time done_at = -1;
  client_->Read(
      ReadPreference::kPrimary, server::OpClass::kPointRead,
      [](const store::Database&) {},
      [&](const OpResult& r) {
        done_at = loop_.Now();
        EXPECT_FALSE(r.ok);
        EXPECT_TRUE(r.timed_out);
      },
      opts);
  loop_.RunAll();
  EXPECT_EQ(done_at, sim::Millis(500));
  EXPECT_EQ(client_->op_counters().timed_out, 1u);
  EXPECT_EQ(client_->op_counters().ok, 0u);
}

TEST_F(CommandTest, DeadlineCapsRetriesAndStillFiresOnTime) {
  ClientOptions options;
  options.attempt_timeout = sim::Millis(100);
  options.retry_backoff_base = sim::Millis(2);
  Build(options);
  network_->BlockPair(client_host_, hosts_[0]);
  OpOptions opts;
  opts.deadline = sim::Millis(450);
  sim::Time done_at = -1;
  int retries = -1;
  client_->Read(
      ReadPreference::kPrimary, server::OpClass::kPointRead,
      [](const store::Database&) {},
      [&](const OpResult& r) {
        done_at = loop_.Now();
        retries = r.retries;
        EXPECT_TRUE(r.timed_out);
      },
      opts);
  loop_.RunAll();
  // Several attempts burned (kPrimary has no other node to move to), yet
  // the op failed exactly at its deadline, not at an attempt boundary.
  EXPECT_EQ(done_at, sim::Millis(450));
  EXPECT_GE(retries, 2);
}

TEST_F(CommandTest, RetryBudgetExhaustionFailsWithoutTimeout) {
  ClientOptions options;
  options.attempt_timeout = sim::Millis(50);
  Build(options);
  network_->BlockPair(client_host_, hosts_[0]);
  OpOptions opts;
  opts.max_retries = 2;
  bool done = false;
  client_->Read(
      ReadPreference::kPrimary, server::OpClass::kPointRead,
      [](const store::Database&) {},
      [&](const OpResult& r) {
        done = true;
        EXPECT_FALSE(r.ok);
        EXPECT_FALSE(r.timed_out);  // budget spent, not maxTimeMS
        EXPECT_EQ(r.retries, 2);
      },
      opts);
  loop_.RunAll();
  EXPECT_TRUE(done);
}

TEST_F(CommandTest, SilentLossRetriesOnAnotherSecondary) {
  // Commands toward secondary 1 vanish (one-directional loss): every op
  // that first selects node 1 must time out its attempt and complete via
  // re-selection on node 2 — never by erroring out.
  ClientOptions options;
  options.attempt_timeout = sim::Millis(100);
  Build(options);
  net::Network::LinkFault fault;
  fault.drop_probability = 1.0;
  network_->SetLinkFault(client_host_, hosts_[1], fault);

  int completed = 0, retried = 0;
  std::function<void(int)> issue = [&](int remaining) {
    if (remaining == 0) return;
    client_->Read(
        ReadPreference::kSecondary, server::OpClass::kPointRead,
        [](const store::Database&) {},
        [&, remaining](const OpResult& r) {
          ++completed;
          EXPECT_TRUE(r.ok);
          EXPECT_EQ(r.node, 2);  // node 1 can never answer
          if (r.retries > 0) ++retried;
          issue(remaining - 1);
        });
  };
  issue(40);
  loop_.RunAll();
  EXPECT_EQ(completed, 40);
  // The RNG spread selections over both secondaries, so some ops needed
  // the failover path.
  EXPECT_GT(retried, 0);
  EXPECT_LT(retried, 40);
  EXPECT_EQ(client_->op_counters().retried, static_cast<uint64_t>(retried));
}

TEST_F(CommandTest, RetryableWriteIsNotReappliedAcrossLostAck) {
  ClientOptions options;
  options.attempt_timeout = sim::Millis(100);
  options.retry_backoff_base = sim::Millis(2);
  Build(options);
  // Seed the same doc everywhere (pre-replicated snapshot).
  for (int i = 0; i < 3; ++i) {
    rs_->node(i).db().GetOrCreate("t").Insert(
        doc::Value::Doc({{"_id", 1}, {"v", 0}}));
  }
  // The write command reaches the primary, but every acknowledgement is
  // lost until t = 250 ms: the first attempt commits, the client cannot
  // know, and each retry carries the same op id.
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
  // The transaction table deduplicated the retries: applied exactly once.
  EXPECT_EQ(rs_->committed_writes(), 1u);
  EXPECT_EQ(rs_->primary()
                .db()
                .Get("t")
                ->FindById(doc::Value(1))
                ->Find("v")
                ->as_int64(),
            1);
}

TEST_F(CommandTest, SequentialRetryableWritesKeepOneRecordLive) {
  // Each write carries the client's answered mark; the primary drops the
  // records below it, so a client with one write in flight at a time
  // leaves one record, not one per write.
  Build();
  for (int i = 0; i < 3; ++i) {
    rs_->node(i).db().GetOrCreate("t").Insert(
        doc::Value::Doc({{"_id", 1}, {"v", 0}}));
  }
  int finished = 0;
  size_t most_live = 0;
  std::function<void()> write_next = [&] {
    client_->Write(
        server::OpClass::kUpdate,
        [](repl::TxnContext* ctx) {
          doc::UpdateSpec spec;
          spec.Inc("v", doc::Value(int64_t{1}));
          ctx->Update("t", doc::Value(1), spec);
        },
        [&](const OpResult& r) {
          EXPECT_TRUE(r.committed);
          most_live = std::max(most_live, rs_->retry_slot_count());
          if (++finished < 1000) write_next();
        });
  };
  write_next();
  loop_.RunAll();
  EXPECT_EQ(finished, 1000);
  EXPECT_EQ(rs_->committed_writes(), 1000u);
  EXPECT_EQ(most_live, 1u);
  EXPECT_EQ(rs_->retry_slot_count(), 1u);
  EXPECT_EQ(rs_->retry_slots_below_mark(), 0u);
}

TEST_F(CommandTest, AttemptBelowTheSessionMarkIsAcknowledgedNotReapplied) {
  // MongoDB's TransactionTooOld: once the client has reported an op
  // answered, a late attempt of it (a delayed duplicate) finds no record
  // and must not run the body again.
  Build();
  for (int i = 0; i < 3; ++i) {
    rs_->node(i).db().GetOrCreate("t").Insert(
        doc::Value::Doc({{"_id", 1}, {"v", 0}}));
  }
  const uint64_t session = rs_->command_bus()->StartSession();
  int acknowledged = 0;
  auto send_increment = [&](uint64_t op_id, uint64_t answered_below) {
    proto::Command command;
    command.kind = proto::CommandKind::kWrite;
    command.ctx.session = session;
    command.ctx.op_id = op_id;
    command.ctx.answered_below = answered_below;
    command.op_class = server::OpClass::kUpdate;
    command.txn_body = [](repl::TxnContext* ctx) {
      doc::UpdateSpec spec;
      spec.Inc("v", doc::Value(int64_t{1}));
      ctx->Update("t", doc::Value(1), spec);
    };
    command.reply_to = client_host_;
    command.on_reply = [&](const proto::Reply& reply) {
      EXPECT_EQ(reply.status, proto::ReplyStatus::kOk);
      ++acknowledged;
    };
    rs_->command_bus()->Send(
        client_host_, hosts_[0],
        std::make_unique<proto::Command>(std::move(command)));
    loop_.RunAll();
  };
  send_increment(/*op_id=*/1, /*answered_below=*/1);
  // Op 2 reports op 1 answered: op 1's record goes.
  send_increment(/*op_id=*/2, /*answered_below=*/2);
  EXPECT_EQ(rs_->retry_slot_count(), 1u);
  // A late attempt of op 1 carries the mark it was sent under.
  send_increment(/*op_id=*/1, /*answered_below=*/1);
  EXPECT_EQ(acknowledged, 3);
  EXPECT_EQ(rs_->committed_writes(), 2u);
  EXPECT_EQ(rs_->primary()
                .db()
                .Get("t")
                ->FindById(doc::Value(1))
                ->Find("v")
                ->as_int64(),
            2);
  EXPECT_EQ(rs_->retry_slots_below_mark(), 0u);
}

TEST_F(CommandTest, ServiceRejectsWriteAtSecondaryWithNotPrimary) {
  // The primary contract is server-checked: a write addressed to a
  // secondary is refused with kNotPrimary, and the reply's hello
  // piggyback names the real primary for the driver to adopt.
  Build();
  bool got = false;
  proto::Command command;
  command.kind = proto::CommandKind::kWrite;
  command.ctx.op_id = 4242;
  command.op_class = server::OpClass::kInsert;
  command.txn_body = [](repl::TxnContext* ctx) {
    ctx->Insert("t", doc::Value::Doc({{"_id", 5}}));
  };
  command.reply_to = client_host_;
  command.on_reply = [&](const proto::Reply& reply) {
    got = true;
    EXPECT_EQ(reply.op_id, 4242u);
    EXPECT_EQ(reply.status, proto::ReplyStatus::kNotPrimary);
    EXPECT_FALSE(reply.committed);
    EXPECT_FALSE(reply.from_primary);
    EXPECT_EQ(reply.hello.primary_index, 0);
  };
  rs_->command_bus()->Send(
      client_host_, hosts_[1],
      std::make_unique<proto::Command>(std::move(command)));
  loop_.RunAll();
  EXPECT_TRUE(got);
  EXPECT_EQ(rs_->committed_writes(), 0u);
  EXPECT_EQ(rs_->node(1).db().Get("t"), nullptr);
}

TEST_F(CommandTest, FindWithRequirePrimaryRefusedAtSecondary) {
  Build();
  bool got = false;
  proto::Command command;
  command.kind = proto::CommandKind::kFind;
  command.ctx.op_id = 7;
  command.require_primary = true;
  command.read_body = [](const store::Database&) { FAIL() << "must not run"; };
  command.reply_to = client_host_;
  command.on_reply = [&](const proto::Reply& reply) {
    got = true;
    EXPECT_EQ(reply.status, proto::ReplyStatus::kNotPrimary);
  };
  rs_->command_bus()->Send(
      client_host_, hosts_[2],
      std::make_unique<proto::Command>(std::move(command)));
  loop_.RunAll();
  EXPECT_TRUE(got);
}

TEST_F(CommandTest, HedgedReadWinsWhenTargetIsSlow) {
  ClientOptions options;
  options.hedged_reads = true;
  options.hedge_quantile = 0.5;
  options.hedge_min_delay = sim::Millis(1);
  Build(options);

  // Warm the latency ring with healthy reads.
  int warm = 0;
  for (int i = 0; i < 16; ++i) {
    client_->Read(ReadPreference::kSecondary, server::OpClass::kPointRead,
                  [](const store::Database&) {},
                  [&](const OpResult&) { ++warm; });
  }
  loop_.RunAll();
  ASSERT_EQ(warm, 16);

  // Now node 2 turns into a straggler: +200 ms on every message. Reads
  // that pick it are rescued by a hedge to node 1 long before the
  // straggler answers.
  net::Network::LinkFault slow;
  slow.extra_delay = sim::Millis(200);
  network_->SetLinkFault(client_host_, hosts_[2], slow);
  network_->SetLinkFault(hosts_[2], client_host_, slow);

  int completed = 0, hedge_wins = 0;
  std::function<void(int)> issue = [&](int remaining) {
    if (remaining == 0) return;
    client_->Read(ReadPreference::kSecondary, server::OpClass::kPointRead,
                  [](const store::Database&) {},
                  [&, remaining](const OpResult& r) {
                    ++completed;
                    EXPECT_TRUE(r.ok);
                    if (r.hedge_won) {
                      ++hedge_wins;
                      EXPECT_TRUE(r.hedged);
                      EXPECT_EQ(r.node, 1);
                      // Far faster than the straggler's 400 ms round trip.
                      EXPECT_LT(r.latency, sim::Millis(100));
                    }
                    issue(remaining - 1);
                  });
  };
  issue(30);
  loop_.RunAll();
  EXPECT_EQ(completed, 30);
  EXPECT_GT(hedge_wins, 0);
  EXPECT_EQ(client_->op_counters().hedges_won,
            static_cast<uint64_t>(hedge_wins));
  EXPECT_GE(client_->op_counters().hedges_sent,
            client_->op_counters().hedges_won);
}

// The find spec rides the hedge arm: with a straggling node 2, hedged
// Finds are answered by node 1, and each FindResult is the winning arm's
// own — every node holds a differently tagged copy of the document.
TEST_F(CommandTest, HedgedFindReturnsTheWinningArmsResult) {
  ClientOptions options;
  options.hedged_reads = true;
  options.hedge_quantile = 0.5;
  options.hedge_min_delay = sim::Millis(1);
  Build(options);
  for (int i = 0; i < 3; ++i) {
    rs_->node(i).db().GetOrCreate("t").Insert(
        doc::Value::Doc({{"_id", 1}, {"node", i}}));
  }
  auto spec = std::make_shared<proto::FindSpec>();
  spec->collection = "t";

  net::Network::LinkFault slow;
  slow.extra_delay = sim::Millis(200);
  network_->SetLinkFault(client_host_, hosts_[2], slow);
  network_->SetLinkFault(hosts_[2], client_host_, slow);

  int completed = 0, hedge_wins = 0;
  std::function<void(int)> issue = [&](int remaining) {
    if (remaining == 0) return;
    client_->Find(ReadPreference::kSecondary, server::OpClass::kPointRead,
                  spec, [&, remaining](const OpResult& r) {
                    ++completed;
                    ASSERT_TRUE(r.ok);
                    ASSERT_NE(r.find, nullptr);
                    ASSERT_EQ(r.find->docs.size(), 1u);
                    EXPECT_EQ(r.find->docs[0].Find("node")->as_int64(),
                              r.node);
                    if (r.hedge_won) {
                      ++hedge_wins;
                      EXPECT_EQ(r.node, 1);
                    }
                    issue(remaining - 1);
                  });
  };
  issue(30);
  loop_.RunAll();
  EXPECT_EQ(completed, 30);
  EXPECT_GT(hedge_wins, 0);
}

TEST_F(CommandTest, HedgedReadsCutTailLatency) {
  // Same topology and seeds, one client hedged and one not, with a
  // straggler secondary: hedging must shrink the latency tail.
  auto run = [](bool hedged) {
    sim::EventLoop loop;
    net::Network network(&loop, sim::Rng(1));
    const net::HostId client_host = network.AddHost("client");
    repl::ReplicaSetParams params;
    server::ServerParams server_params;
    server_params.service.sigma = 0.0;
    std::vector<net::HostId> hosts;
    for (int i = 0; i < 3; ++i) {
      hosts.push_back(network.AddHost("n" + std::to_string(i)));
      network.SetLink(client_host, hosts[i], sim::Millis(1), 0);
    }
    repl::ReplicaSet rs(&loop, sim::Rng(2), &network, params, server_params,
                        hosts);
    ClientOptions options;
    options.hedged_reads = hedged;
    options.hedge_quantile = 0.5;
    options.hedge_min_delay = sim::Millis(1);
    MongoClient client(&loop, sim::Rng(3), rs.command_bus(), client_host,
                       options);
    // Node 2 straggles by 80 ms each way.
    net::Network::LinkFault slow;
    slow.extra_delay = sim::Millis(80);
    network.SetLinkFault(client_host, hosts[2], slow);
    network.SetLinkFault(hosts[2], client_host, slow);

    std::vector<sim::Duration> latencies;
    std::function<void(int)> issue = [&](int remaining) {
      if (remaining == 0) return;
      client.Read(ReadPreference::kSecondary, server::OpClass::kPointRead,
                  [](const store::Database&) {},
                  [&, remaining](const OpResult& r) {
                    latencies.push_back(r.latency);
                    issue(remaining - 1);
                  });
    };
    issue(200);
    loop.RunAll();
    std::sort(latencies.begin(), latencies.end());
    return latencies;
  };

  const std::vector<sim::Duration> plain = run(false);
  const std::vector<sim::Duration> with_hedge = run(true);
  ASSERT_EQ(plain.size(), 200u);
  ASSERT_EQ(with_hedge.size(), 200u);
  const sim::Duration plain_p99 = plain[197];
  const sim::Duration hedged_p99 = with_hedge[197];
  // The plain tail carries the full straggler round trip; the hedged
  // tail is rescued well below it.
  EXPECT_GE(plain_p99, sim::Millis(160));
  EXPECT_LT(hedged_p99, plain_p99 / 2);
}

TEST_F(CommandTest, HedgingOffSchedulesNothingAndDrawsNoRandomness) {
  // Two identically-seeded clients — hedging off vs. on — must select the
  // same nodes for the same ops when no hedge ever fires... but hedging
  // *on* changes nothing else either: with healthy symmetric links and a
  // hedge delay above every completion, results are identical.
  Build();
  std::vector<int> nodes;
  std::function<void(int)> issue = [&](int remaining) {
    if (remaining == 0) return;
    client_->Read(ReadPreference::kSecondary, server::OpClass::kPointRead,
                  [](const store::Database&) {},
                  [&, remaining](const OpResult& r) {
                    EXPECT_FALSE(r.hedged);
                    nodes.push_back(r.node);
                    issue(remaining - 1);
                  });
  };
  issue(50);
  loop_.RunAll();
  ASSERT_EQ(nodes.size(), 50u);

  // Rebuild with identical seeds: selection sequence must be identical
  // (the hedged-off path draws no extra randomness).
  Build();
  std::vector<int> nodes_again;
  std::function<void(int)> issue_again = [&](int remaining) {
    if (remaining == 0) return;
    client_->Read(ReadPreference::kSecondary, server::OpClass::kPointRead,
                  [](const store::Database&) {},
                  [&, remaining](const OpResult& r) {
                    nodes_again.push_back(r.node);
                    issue_again(remaining - 1);
                  });
  };
  issue_again(50);
  loop_.RunAll();
  EXPECT_EQ(nodes, nodes_again);
}

TEST_F(CommandTest, PerOpCountersAccumulateOnTheUnifiedPath) {
  ClientOptions options;
  options.attempt_timeout = sim::Millis(100);
  Build(options);
  int observed = 0;
  client_->AddOpObserver([&](const OpResult& stats) {
    ++observed;
    EXPECT_TRUE(stats.ok);
    EXPECT_GT(stats.latency, 0);
  });
  int completed = 0;
  for (int i = 0; i < 5; ++i) {
    client_->Read(ReadPreference::kPrimary, server::OpClass::kPointRead,
                  [](const store::Database&) {},
                  [&](const OpResult&) { ++completed; });
  }
  client_->Write(
      server::OpClass::kInsert,
      [](repl::TxnContext* ctx) {
        ctx->Insert("t", doc::Value::Doc({{"_id", 1}}));
      },
      [&](const OpResult&) { ++completed; });
  loop_.RunAll();
  EXPECT_EQ(completed, 6);
  EXPECT_EQ(observed, 6);  // reads AND writes flow through the observer
  EXPECT_EQ(client_->op_counters().ok, 6u);
  EXPECT_EQ(client_->op_counters().timed_out, 0u);
  EXPECT_EQ(client_->op_counters().retried, 0u);
}

TEST_F(CommandTest, SingletonReadAllocatesOnlyItsCommandAndReply) {
  // A command travels by pointer and every hop's closure (bus message,
  // CPU job, reply message) fits its callback's inline storage, so a read
  // allocates its Command and its Reply and nothing else.
  Build();
  int left = 0;
  std::function<void()> read_next = [&] {
    if (left == 0) return;
    --left;
    client_->Read(ReadPreference::kPrimary, server::OpClass::kPointRead,
                  [](const store::Database&) {},
                  [&](const OpResult&) { read_next(); });
  };
  left = 1000;  // warm-up: slabs, op table, pools and queues reach size
  read_next();
  loop_.RunAll();
  constexpr int kReads = 1000;
  left = kReads;
  g_allocs = 0;
  g_count_allocs = true;
  read_next();
  loop_.RunAll();
  g_count_allocs = false;
  EXPECT_EQ(left, 0);
  EXPECT_EQ(client_->op_counters().ok, 1000u + kReads);
  EXPECT_LE(static_cast<double>(g_allocs) / kReads, 2.0);
}

}  // namespace
}  // namespace dcg::driver
