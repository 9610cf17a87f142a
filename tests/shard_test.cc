// Tests for the sharded-cluster substrate: hash routing, data placement,
// scatter-gather, and per-shard Decongestant balancing — all through the
// bus-routed mongos (shard::Router) and its versioned chunk map.

#include <algorithm>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "shard/sharded_cluster.h"

namespace dcg::shard {
namespace {

class ShardTest : public ::testing::Test {
 protected:
  void Build(ShardedClusterConfig config = {}) {
    network_ = std::make_unique<net::Network>(&loop_, sim::Rng(1));
    client_host_ = network_->AddHost("client");
    cluster_ = std::make_unique<ShardedCluster>(&loop_, sim::Rng(2),
                                                network_.get(), client_host_,
                                                config);
  }

  sim::EventLoop loop_;
  std::unique_ptr<net::Network> network_;
  net::HostId client_host_ = 0;
  std::unique_ptr<ShardedCluster> cluster_;
};

TEST_F(ShardTest, ShardForIsDeterministicAndBalanced) {
  Build();
  int counts[2] = {0, 0};
  for (int64_t id = 0; id < 10'000; ++id) {
    const int s = cluster_->ShardFor(doc::Value(id));
    ASSERT_GE(s, 0);
    ASSERT_LT(s, 2);
    ASSERT_EQ(s, cluster_->ShardFor(doc::Value(id)));  // stable
    ++counts[s];
  }
  EXPECT_NEAR(counts[0], 5000, 500);
  EXPECT_NEAR(counts[1], 5000, 500);
}

TEST_F(ShardTest, InsertsLandOnOwningShardOnly) {
  Build();
  cluster_->Start();
  for (int64_t id = 0; id < 100; ++id) {
    cluster_->InsertDoc("t", doc::Value::Doc({{"_id", id}, {"v", id}}),
                        nullptr);
  }
  loop_.RunUntil(sim::Seconds(3));
  size_t total = 0;
  for (int s = 0; s < 2; ++s) {
    const store::Collection* t = cluster_->shard(s).primary().db().Get("t");
    ASSERT_NE(t, nullptr);
    total += t->size();
    // Every document on this shard is actually owned by it.
    t->ForEach([&](const doc::Value& id, const store::DocPtr&) {
      EXPECT_EQ(cluster_->ShardFor(id), s);
      return true;
    });
    EXPECT_GT(t->size(), 20u);  // roughly balanced
  }
  EXPECT_EQ(total, 100u);
}

TEST_F(ShardTest, RoutedReadFindsDocumentWherever) {
  Build();
  cluster_->Start();
  for (int64_t id = 0; id < 50; ++id) {
    cluster_->InsertDoc("t", doc::Value::Doc({{"_id", id}, {"v", id * 2}}),
                        nullptr);
  }
  loop_.RunUntil(sim::Seconds(3));  // fully replicated

  int found = 0, completed = 0;
  for (int64_t id = 0; id < 50; ++id) {
    auto hit = std::make_shared<bool>(false);
    cluster_->ReadDoc(
        "t", doc::Value(id), server::OpClass::kPointRead,
        [id, hit](const store::Database& db) {
          const store::Collection* t = db.Get("t");
          *hit = t != nullptr && t->FindById(doc::Value(id)) != nullptr;
        },
        [&, hit](const driver::MongoClient::ReadResult&) {
          ++completed;
          if (*hit) ++found;
        });
  }
  loop_.RunUntil(sim::Seconds(4));
  EXPECT_EQ(completed, 50);
  EXPECT_EQ(found, 50);
}

TEST_F(ShardTest, UpdatesRouteAndReplicate) {
  Build();
  cluster_->Start();
  cluster_->InsertDoc("t", doc::Value::Doc({{"_id", 42}, {"v", 0}}), nullptr);
  loop_.RunUntil(sim::Seconds(1));
  doc::UpdateSpec spec;
  spec.Inc("v", doc::Value(int64_t{7}));
  bool committed = false;
  cluster_->UpdateDoc("t", doc::Value(42), spec,
                      [&](const driver::MongoClient::WriteResult& r) {
                        committed = r.committed;
                      });
  loop_.RunUntil(sim::Seconds(3));
  EXPECT_TRUE(committed);
  const int s = cluster_->ShardFor(doc::Value(42));
  // Replicated to the owning shard's secondaries too.
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(cluster_->shard(s)
                  .node(i)
                  .db()
                  .Get("t")
                  ->FindById(doc::Value(42))
                  ->Find("v")
                  ->as_int64(),
              7);
  }
}

TEST_F(ShardTest, ScatterCountSumsAcrossShards) {
  Build();
  cluster_->Start();
  for (int64_t id = 0; id < 200; ++id) {
    cluster_->InsertDoc(
        "t", doc::Value::Doc({{"_id", id}, {"even", id % 2 == 0}}), nullptr);
  }
  loop_.RunUntil(sim::Seconds(3));

  size_t total = 0;
  sim::Duration latency = 0;
  cluster_->ScatterCount("t", doc::Filter::Eq("even", doc::Value(true)),
                         server::OpClass::kPointRead,
                         [&](size_t t, sim::Duration l) {
                           total = t;
                           latency = l;
                         });
  loop_.RunUntil(sim::Seconds(4));
  EXPECT_EQ(total, 100u);
  EXPECT_GT(latency, 0);
}

TEST_F(ShardTest, PerShardBalancersActIndependently) {
  // Congest only shard 0: its balancer ramps toward the cap while shard
  // 1's stays at the floor — the fine-grained, per-shard routing that a
  // single cluster-wide Read Preference cannot express.
  ShardedClusterConfig config;
  Build(config);
  cluster_->Start();

  // Keys owned by each shard, discovered via the router's own hash.
  std::vector<int64_t> shard0_keys, shard1_keys;
  for (int64_t id = 0; id < 2000 &&
                       (shard0_keys.size() < 400 || shard1_keys.size() < 10);
       ++id) {
    if (cluster_->ShardFor(doc::Value(id)) == 0) {
      if (shard0_keys.size() < 400) shard0_keys.push_back(id);
    } else if (shard1_keys.size() < 10) {
      shard1_keys.push_back(id);
    }
  }
  for (int s = 0; s < 2; ++s) {
    for (int i = 0; i < 3; ++i) {
      store::Collection& t = cluster_->shard(s).node(i).db().GetOrCreate("t");
      for (int64_t id : shard0_keys) {
        if (cluster_->ShardFor(doc::Value(id)) == s) {
          t.Insert(doc::Value::Doc({{"_id", id}}));
        }
      }
      for (int64_t id : shard1_keys) {
        if (cluster_->ShardFor(doc::Value(id)) == s) {
          t.Insert(doc::Value::Doc({{"_id", id}}));
        }
      }
    }
  }

  // 40 closed-loop readers hammer shard-0 keys; a single occasional
  // reader touches shard 1.
  auto rng = std::make_shared<sim::Rng>(7);
  std::function<void(int)> hot_reader = [&, rng](int worker) {
    const int64_t key = shard0_keys[static_cast<size_t>(
        rng->UniformInt(0, static_cast<int64_t>(shard0_keys.size()) - 1))];
    cluster_->ReadDoc("t", doc::Value(key), server::OpClass::kPointRead,
                      [](const store::Database&) {},
                      [&, worker](const driver::MongoClient::ReadResult&) {
                        hot_reader(worker);
                      });
  };
  std::function<void()> cold_reader = [&, rng] {
    const int64_t key = shard1_keys[static_cast<size_t>(
        rng->UniformInt(0, static_cast<int64_t>(shard1_keys.size()) - 1))];
    cluster_->ReadDoc("t", doc::Value(key), server::OpClass::kPointRead,
                      [](const store::Database&) {},
                      [&](const driver::MongoClient::ReadResult&) {
                        loop_.ScheduleAfter(sim::Millis(100),
                                            [&] { cold_reader(); });
                      });
  };
  for (int w = 0; w < 40; ++w) hot_reader(w);
  cold_reader();

  loop_.RunUntil(sim::Seconds(150));
  EXPECT_GE(cluster_->shared_state(0).balance_fraction(), 0.5)
      << "congested shard should shift reads to its secondaries";
  EXPECT_LE(cluster_->shared_state(1).balance_fraction(), 0.2)
      << "idle shard should stay near the fresh primary";
}

TEST_F(ShardTest, FixedPreferenceModeUsesNoBalancers) {
  ShardedClusterConfig config;
  config.run_balancers = false;
  config.fixed_pref = driver::ReadPreference::kSecondary;
  Build(config);
  cluster_->Start();
  EXPECT_EQ(cluster_->balancer(0), nullptr);
  cluster_->InsertDoc("t", doc::Value::Doc({{"_id", 1}}), nullptr);
  loop_.RunUntil(sim::Seconds(2));
  bool used_secondary = false;
  cluster_->ReadDoc("t", doc::Value(1), server::OpClass::kPointRead,
                    [](const store::Database&) {},
                    [&](const driver::MongoClient::ReadResult& r) {
                      used_secondary = r.used_secondary;
                    });
  loop_.RunUntil(sim::Seconds(3));
  EXPECT_TRUE(used_secondary);
}

TEST_F(ShardTest, RangedKeyRoutesByChunkRanges) {
  ShardedClusterConfig config;
  config.shard_key.hashed = false;
  config.split_points = {doc::Value(int64_t{100}), doc::Value(int64_t{200}),
                         doc::Value(int64_t{300})};
  Build(config);
  cluster_->Start();
  // 4 chunks round-robin over 2 shards: [min,100) and [200,300) on shard
  // 0, [100,200) and [300,max) on shard 1.
  EXPECT_EQ(cluster_->ShardFor(doc::Value(int64_t{50})), 0);
  EXPECT_EQ(cluster_->ShardFor(doc::Value(int64_t{150})), 1);
  EXPECT_EQ(cluster_->ShardFor(doc::Value(int64_t{250})), 0);
  EXPECT_EQ(cluster_->ShardFor(doc::Value(int64_t{999})), 1);
  for (int64_t id : {50, 150, 250, 999}) {
    cluster_->InsertDoc("t", doc::Value::Doc({{"_id", id}}), nullptr);
  }
  loop_.RunUntil(sim::Seconds(2));
  for (int64_t id : {50, 150, 250, 999}) {
    const int owner = cluster_->ShardFor(doc::Value(id));
    const store::Collection* t =
        cluster_->shard(owner).primary().db().Get("t");
    ASSERT_NE(t, nullptr);
    EXPECT_NE(t->FindById(doc::Value(id)), nullptr) << "id " << id;
    const store::Collection* other =
        cluster_->shard(1 - owner).primary().db().Get("t");
    EXPECT_TRUE(other == nullptr || other->FindById(doc::Value(id)) == nullptr)
        << "id " << id << " leaked onto shard " << (1 - owner);
  }
}

TEST_F(ShardTest, ScatterFindMergesSortOrderAcrossShards) {
  Build();
  cluster_->Start();
  // Distinct rank values (37 is invertible mod 101, ids < 101).
  for (int64_t id = 0; id < 60; ++id) {
    cluster_->InsertDoc(
        "t", doc::Value::Doc({{"_id", id}, {"rank", (id * 37) % 101}}),
        nullptr);
  }
  loop_.RunUntil(sim::Seconds(3));

  // Oracle: the global sort order, computed locally.
  std::vector<std::pair<int64_t, int64_t>> by_rank;  // (rank, id)
  for (int64_t id = 0; id < 60; ++id) by_rank.emplace_back((id * 37) % 101, id);
  std::sort(by_rank.begin(), by_rank.end());

  auto spec = std::make_shared<proto::FindSpec>();
  spec->collection = "t";
  spec->sort_field = "rank";
  spec->limit = 10;
  std::shared_ptr<const proto::FindResult> merged;
  cluster_->ScatterFind(spec, server::OpClass::kPointRead,
                        [&](const driver::MongoClient::ReadResult& r) {
                          ASSERT_TRUE(r.ok);
                          merged = r.find;
                        });
  loop_.RunUntil(sim::Seconds(4));
  ASSERT_NE(merged, nullptr);
  EXPECT_FALSE(merged->partial);
  EXPECT_EQ(merged->shards_answered, 2);
  ASSERT_EQ(merged->docs.size(), 10u);
  for (size_t i = 0; i < merged->docs.size(); ++i) {
    EXPECT_EQ(merged->docs[i].Find("_id")->as_int64(), by_rank[i].second)
        << "merged position " << i;
  }

  // Descending, across every document: the exact reverse order.
  auto desc = std::make_shared<proto::FindSpec>();
  desc->collection = "t";
  desc->sort_field = "rank";
  desc->sort_descending = true;
  std::shared_ptr<const proto::FindResult> merged_desc;
  cluster_->ScatterFind(desc, server::OpClass::kPointRead,
                        [&](const driver::MongoClient::ReadResult& r) {
                          ASSERT_TRUE(r.ok);
                          merged_desc = r.find;
                        });
  loop_.RunUntil(sim::Seconds(5));
  ASSERT_NE(merged_desc, nullptr);
  ASSERT_EQ(merged_desc->docs.size(), 60u);
  for (size_t i = 0; i < 60; ++i) {
    EXPECT_EQ(merged_desc->docs[i].Find("_id")->as_int64(),
              by_rank[59 - i].second);
  }
}

TEST_F(ShardTest, ScatterCountLatencyIsTheSlowestShard) {
  ShardedClusterConfig config;
  config.run_balancers = false;  // deterministic: every sub-op to primary
  Build(config);
  cluster_->Start();
  for (int64_t id = 0; id < 100; ++id) {
    cluster_->InsertDoc("t", doc::Value::Doc({{"_id", id}}), nullptr);
  }
  loop_.RunUntil(sim::Seconds(2));

  sim::Duration fast = 0;
  cluster_->ScatterCount("t", doc::Filter::True(),
                         server::OpClass::kPointRead,
                         [&](size_t, sim::Duration l) { fast = l; });
  loop_.RunUntil(sim::Seconds(3));
  ASSERT_GT(fast, 0);
  ASSERT_LT(fast, sim::Millis(10));

  // Slow down the router→shard-1-primary leg: the merged reply must now
  // wait for the slowest shard, not answer at the fast one.
  net::Network::LinkFault slow;
  slow.extra_delay = sim::Millis(20);
  network_->SetLinkFault(cluster_->router().host(),
                         cluster_->shard(1).primary().host(), slow);
  sim::Duration slowest = 0;
  cluster_->ScatterCount("t", doc::Filter::True(),
                         server::OpClass::kPointRead,
                         [&](size_t total, sim::Duration l) {
                           EXPECT_EQ(total, 100u);
                           slowest = l;
                         });
  loop_.RunUntil(sim::Seconds(4));
  EXPECT_GE(slowest, sim::Millis(20));
  EXPECT_LT(slowest, sim::Millis(20) + fast + sim::Millis(10));
}

TEST_F(ShardTest, PartialResultsWhenAShardMissesTheDeadline) {
  ShardedClusterConfig config;
  config.run_balancers = false;
  Build(config);
  cluster_->Start();
  for (int64_t id = 0; id < 100; ++id) {
    cluster_->InsertDoc("t", doc::Value::Doc({{"_id", id}}), nullptr);
  }
  loop_.RunUntil(sim::Seconds(2));

  // Partition shard 1 away from the router: its sub-find never answers.
  for (net::HostId host : cluster_->shard(1).command_bus()->server_hosts()) {
    network_->BlockPair(cluster_->router().host(), host);
  }

  auto spec = std::make_shared<proto::FindSpec>();
  spec->collection = "t";
  spec->allow_partial = true;
  driver::OpOptions opts;
  opts.deadline = sim::Millis(40);
  std::shared_ptr<const proto::FindResult> result;
  bool ok = false, timed_out = false;
  sim::Duration latency = 0;
  cluster_->ScatterFind(spec, server::OpClass::kPointRead,
                        [&](const driver::MongoClient::ReadResult& r) {
                          ok = r.ok;
                          timed_out = r.timed_out;
                          result = r.find;
                          latency = r.latency;
                        },
                        opts);
  loop_.RunUntil(sim::Seconds(3));
  // The router answered with shard 0's rows just before the deadline —
  // the client saw a success, not a maxTimeMS expiry.
  EXPECT_TRUE(ok);
  EXPECT_FALSE(timed_out);
  EXPECT_LE(latency, sim::Millis(40));
  ASSERT_NE(result, nullptr);
  EXPECT_TRUE(result->partial);
  EXPECT_EQ(result->shards_answered, 1);
  EXPECT_EQ(cluster_->router().partial_replies(), 1u);
  ASSERT_FALSE(result->docs.empty());
  for (const doc::Value& d : result->docs) {
    EXPECT_EQ(cluster_->ShardFor(*d.Find("_id")), 0);
  }
}

TEST_F(ShardTest, StaleConfigRetriesAfterMoveChunkWithoutDuplicateWrites) {
  ShardedClusterConfig config;
  config.run_balancers = false;
  Build(config);
  cluster_->Start();
  for (int64_t id = 0; id < 200; ++id) {
    cluster_->InsertDoc("t", doc::Value::Doc({{"_id", id}, {"v", id}}),
                        nullptr);
  }
  loop_.RunUntil(sim::Seconds(2));

  // A chunk on shard 0 and one of our keys inside it.
  const auto before = cluster_->config_shards().Snapshot();
  int64_t chunk_id = -1, key = -1;
  for (int64_t id = 0; id < 200 && key < 0; ++id) {
    const int64_t c = before->ChunkIdFor(doc::Value(id));
    if (before->chunk(c).shard == 0) {
      chunk_id = c;
      key = id;
    }
  }
  ASSERT_GE(key, 0);

  // Migrate the chunk. The router still holds the old routing table, so
  // the next write to this key is dispatched to shard 0, refused with
  // kStaleConfig *before any body runs*, re-routed after a refresh, and
  // applied exactly once on shard 1.
  cluster_->MoveChunk("t", chunk_id, 1);
  doc::UpdateSpec spec;
  spec.Inc("v", doc::Value(int64_t{7}));
  bool committed = false;
  cluster_->UpdateDoc("t", doc::Value(key), spec,
                      [&](const driver::MongoClient::WriteResult& r) {
                        committed = r.committed;
                      });
  loop_.RunUntil(sim::Seconds(4));
  EXPECT_TRUE(committed);
  EXPECT_GE(cluster_->router().stale_refreshes(), 1u);
  EXPECT_GE(cluster_->config_shards().stale_refusals(), 1u);

  // Applied exactly once, on the new owner only.
  const store::Collection* recipient =
      cluster_->shard(1).primary().db().Get("t");
  ASSERT_NE(recipient, nullptr);
  const store::DocPtr moved = recipient->FindById(doc::Value(key));
  ASSERT_NE(moved, nullptr);
  EXPECT_EQ(moved->Find("v")->as_int64(), key + 7);
  const store::Collection* donor = cluster_->shard(0).primary().db().Get("t");
  ASSERT_NE(donor, nullptr);
  EXPECT_EQ(donor->FindById(doc::Value(key)), nullptr);

  // The refreshed routing table serves point reads for the moved key.
  bool found = false;
  cluster_->ReadDoc("t", doc::Value(key), server::OpClass::kPointRead,
                    [&](const store::Database& db) {
                      const store::Collection* t = db.Get("t");
                      found = t != nullptr &&
                              t->FindById(doc::Value(key)) != nullptr;
                    },
                    nullptr);
  loop_.RunUntil(sim::Seconds(5));
  EXPECT_TRUE(found);
}

TEST_F(ShardTest, ClientRouterShardSpansLinkIntoOneTrace) {
  Build();
  obs::Tracer tracer;
  tracer.Enable();
  cluster_->SetTracer(&tracer);
  cluster_->Start();
  cluster_->InsertDoc("t", doc::Value::Doc({{"_id", 5}}), nullptr);
  loop_.RunUntil(sim::Seconds(2));
  cluster_->ReadDoc("t", doc::Value(5), server::OpClass::kPointRead,
                    [](const store::Database&) {}, nullptr);
  loop_.RunUntil(sim::Seconds(3));

  // The read is the last routed command: take its kRouter span and check
  // both directions of the linkage — the router span hangs off a
  // client-side span of the same trace, and the shard-leg spans hang off
  // the router span.
  const obs::SpanRecord* router_span = nullptr;
  for (const obs::SpanRecord& s : tracer.spans()) {
    if (s.kind == obs::SpanKind::kRouter) router_span = &s;
  }
  ASSERT_NE(router_span, nullptr);
  EXPECT_NE(router_span->trace_id, 0u);
  EXPECT_NE(router_span->parent_span_id, 0u);
  bool client_parent_found = false;
  int spans_under_router = 0;
  for (const obs::SpanRecord& s : tracer.spans()) {
    if (s.span_id == router_span->parent_span_id &&
        s.trace_id == router_span->trace_id &&
        s.kind != obs::SpanKind::kRouter) {
      client_parent_found = true;
    }
    if (s.parent_span_id == router_span->span_id &&
        s.trace_id == router_span->trace_id) {
      ++spans_under_router;
    }
  }
  EXPECT_TRUE(client_parent_found)
      << "router span's parent must be a client-side span of the same trace";
  EXPECT_GT(spans_under_router, 0)
      << "shard-leg spans must parent to the router span";
}

TEST_F(ShardTest, PartitionedShardGatesWhileHealthyShardKeepsItsBudget) {
  // The shared-budget chaos scenario: one of shard 1's secondaries
  // partitions away from the rest of its set, its staleness estimate
  // climbs past the bound, and its balancer gates to zero — reads there
  // fall back to the (fresh) primary. The primary keeps its majority (it
  // still hears the other secondary), so no election interferes. Shard 0,
  // congested and healthy, keeps balancing against a debited-but-positive
  // effective bound. After the partition heals, shard 1 recovers.
  ShardedClusterConfig config;
  config.balancer.stale_bound_seconds = 10;
  Build(config);
  cluster_->Start();

  std::vector<int64_t> shard0_keys, shard1_keys;
  for (int64_t id = 0;
       id < 4000 && (shard0_keys.size() < 400 || shard1_keys.size() < 50);
       ++id) {
    if (cluster_->ShardFor(doc::Value(id)) == 0) {
      if (shard0_keys.size() < 400) shard0_keys.push_back(id);
    } else if (shard1_keys.size() < 50) {
      shard1_keys.push_back(id);
    }
  }
  for (int s = 0; s < 2; ++s) {
    for (int i = 0; i < 3; ++i) {
      store::Collection& t = cluster_->shard(s).node(i).db().GetOrCreate("t");
      const auto& keys = s == 0 ? shard0_keys : shard1_keys;
      for (int64_t id : keys) {
        t.Insert(doc::Value::Doc({{"_id", id}, {"v", int64_t{0}}}));
      }
    }
  }

  // 40 closed-loop readers congest shard 0; shard 1 sees light reads plus
  // a steady writer (the writes make its staleness estimate climb once
  // replication stalls).
  auto rng = std::make_shared<sim::Rng>(11);
  bool shard1_used_secondary_while_gated = false;
  auto gated = std::make_shared<bool>(false);
  std::function<void()> hot_reader = [&, rng] {
    const int64_t key = shard0_keys[static_cast<size_t>(
        rng->UniformInt(0, static_cast<int64_t>(shard0_keys.size()) - 1))];
    cluster_->ReadDoc("t", doc::Value(key), server::OpClass::kPointRead,
                      [](const store::Database&) {},
                      [&](const driver::MongoClient::ReadResult&) {
                        hot_reader();
                      });
  };
  std::function<void()> cold_reader = [&, rng, gated] {
    const int64_t key = shard1_keys[static_cast<size_t>(
        rng->UniformInt(0, static_cast<int64_t>(shard1_keys.size()) - 1))];
    cluster_->ReadDoc(
        "t", doc::Value(key), server::OpClass::kPointRead,
        [](const store::Database&) {},
        [&, gated](const driver::MongoClient::ReadResult& r) {
          if (*gated && r.used_secondary) {
            shard1_used_secondary_while_gated = true;
          }
          loop_.ScheduleAfter(sim::Millis(50), [&] { cold_reader(); });
        });
  };
  std::function<void()> writer = [&, rng] {
    const int64_t key = shard1_keys[static_cast<size_t>(
        rng->UniformInt(0, static_cast<int64_t>(shard1_keys.size()) - 1))];
    doc::UpdateSpec spec;
    spec.Inc("v", doc::Value(int64_t{1}));
    cluster_->UpdateDoc("t", doc::Value(key), spec,
                        [&](const driver::MongoClient::WriteResult&) {
                          loop_.ScheduleAfter(sim::Millis(20),
                                              [&] { writer(); });
                        });
  };
  for (int w = 0; w < 40; ++w) hot_reader();
  cold_reader();
  writer();

  // Let shard 0's balancer ramp, then cut one of shard 1's secondaries
  // off from both of its peers.
  loop_.RunUntil(sim::Seconds(80));
  const double shard0_before = cluster_->shared_state(0).balance_fraction();
  EXPECT_GE(shard0_before, 0.4);
  const auto& hosts1 = cluster_->shard(1).command_bus()->server_hosts();
  const net::HostId isolated = cluster_->shard(1).node(2).host();
  for (net::HostId host : hosts1) {
    if (host != isolated) network_->BlockPair(isolated, host);
  }
  // ~15 s of stalled replication: estimate ≈ 15 s. Over the 10 s bound,
  // under 2×: shard 1 must gate, shard 0's effective bound shrinks but
  // stays positive.
  loop_.RunUntil(sim::Seconds(95));
  *gated = true;
  EXPECT_EQ(cluster_->shared_state(1).balance_fraction(), 0.0)
      << "stale shard must gate to the primary";
  EXPECT_GT(cluster_->budget().EffectiveBound(0), 0);
  EXPECT_LT(cluster_->budget().EffectiveBound(0), 10);
  EXPECT_GE(cluster_->shared_state(0).balance_fraction(), 0.4)
      << "healthy shard keeps balancing within its debited budget";
  loop_.RunUntil(sim::Seconds(100));

  // Heal. Replication catches up, the gate releases, the budget relaxes.
  *gated = false;
  for (net::HostId host : hosts1) {
    if (host != isolated) network_->UnblockPair(isolated, host);
  }
  loop_.RunUntil(sim::Seconds(140));
  EXPECT_FALSE(shard1_used_secondary_while_gated)
      << "no read may touch a stale secondary while the gate is closed";
  EXPECT_EQ(cluster_->shard(1).elections(), 0u)
      << "the primary kept its majority throughout";
  EXPECT_GT(cluster_->shared_state(1).balance_fraction(), 0.0);
  EXPECT_LE(cluster_->budget().WorstEstimate(), 10);
}

}  // namespace
}  // namespace dcg::shard
