// Tests for replication: Oplog, TxnContext, ReplicaSet log shipping,
// staleness estimation, flow control, and convergence properties.

#include <memory>
#include <tuple>

#include <gtest/gtest.h>

#include "commit_helper.h"
#include "driver/client.h"
#include "net/network.h"
#include "repl/oplog.h"
#include "repl/replica_set.h"
#include "repl/txn.h"

namespace dcg::repl {
namespace {

OplogEntry Entry(uint64_t seq, sim::Time wall = 0) {
  OplogEntry e;
  e.optime = {wall, seq};
  e.kind = OpKind::kNoop;
  e.collection = "c";
  return e;
}

TEST(OplogTest, AppendAndRead) {
  Oplog log;
  EXPECT_TRUE(log.empty());
  EXPECT_EQ(log.last_seq(), 0u);
  log.Append(Entry(1));
  log.Append(Entry(2));
  log.Append(Entry(3));
  EXPECT_EQ(log.last_seq(), 3u);

  auto batch = log.ReadAfter(0, 10);
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch[0].optime.seq, 1u);
  EXPECT_EQ(batch[2].optime.seq, 3u);

  batch = log.ReadAfter(2, 10);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].optime.seq, 3u);

  EXPECT_TRUE(log.ReadAfter(3, 10).empty());
  EXPECT_TRUE(log.ReadAfter(99, 10).empty());
}

TEST(OplogTest, ReadRespectsBatchLimit) {
  Oplog log;
  for (uint64_t i = 1; i <= 10; ++i) log.Append(Entry(i));
  auto batch = log.ReadAfter(0, 4);
  ASSERT_EQ(batch.size(), 4u);
  EXPECT_EQ(batch.back().optime.seq, 4u);
}

TEST(OplogTest, CapEvictsOldEntries) {
  Oplog log(5);
  for (uint64_t i = 1; i <= 8; ++i) log.Append(Entry(i));
  EXPECT_EQ(log.size(), 5u);
  EXPECT_EQ(log.first_seq(), 4u);
  auto batch = log.ReadAfter(3, 10);
  ASSERT_EQ(batch.size(), 5u);
  EXPECT_EQ(batch.front().optime.seq, 4u);
}

TEST(OplogTest, ReleaseDropsDocsButKeepsEntries) {
  Oplog log;
  for (uint64_t i = 1; i <= 6; ++i) {
    OplogEntry e = Entry(i);
    e.kind = OpKind::kInsert;
    e.id = doc::Value(static_cast<int64_t>(i));
    e.doc = std::make_shared<const doc::Value>(
        doc::Value::Doc({{"_id", static_cast<int64_t>(i)}}));
    log.Append(std::move(e));
  }
  const auto in_flight = log.ReadAfter(0, 10);
  log.ReleaseDocsThrough(4);
  EXPECT_EQ(log.released_through(), 4u);
  auto batch = log.ReadAfter(0, 10);
  ASSERT_EQ(batch.size(), 6u);
  for (size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(batch[i].doc == nullptr, i < 4) << i;
    EXPECT_EQ(batch[i].id, doc::Value(static_cast<int64_t>(i + 1)));
  }
  // A batch read before the release keeps its documents.
  EXPECT_NE(in_flight[0].doc, nullptr);

  // Releasing is monotonic and bounded by the log's end.
  log.ReleaseDocsThrough(2);
  EXPECT_EQ(log.released_through(), 4u);
  log.ReleaseDocsThrough(99);
  EXPECT_EQ(log.released_through(), 6u);

  // A rollback clamps the watermark: entries appended at the discarded
  // sequence numbers keep their documents.
  log.TruncateAfter(3);
  EXPECT_EQ(log.released_through(), 3u);
  OplogEntry e = Entry(4);
  e.doc = std::make_shared<const doc::Value>(doc::Value::Doc({{"_id", 4}}));
  log.Append(std::move(e));
  EXPECT_NE(log.ReadAfter(3, 1)[0].doc, nullptr);
}

TEST(OplogTest, OpTimeOrdering) {
  EXPECT_LT(OpTime({0, 1}), OpTime({0, 2}));
  EXPECT_LE(OpTime({5, 2}), OpTime({0, 2}));  // ordered by seq only
  EXPECT_EQ(OpTime({1, 3}), OpTime({9, 3}));
}

TEST(TxnTest, InsertUpdateRemoveRecordEntries) {
  store::Database db;
  db.GetOrCreate("t");
  TxnContext ctx(&db);
  ctx.Insert("t", doc::Value::Doc({{"_id", 1}, {"v", 10}}));
  doc::UpdateSpec spec;
  spec.Inc("v", doc::Value(int64_t{5}));
  EXPECT_TRUE(ctx.Update("t", doc::Value(1), spec));
  EXPECT_FALSE(ctx.Update("t", doc::Value(99), spec));
  EXPECT_EQ(ctx.entries().size(), 2u);
  EXPECT_EQ(ctx.entries()[0].kind, OpKind::kInsert);
  EXPECT_EQ(ctx.entries()[1].kind, OpKind::kUpdate);
  // Read-your-own-writes inside the transaction.
  EXPECT_EQ(db.Get("t")->FindById(doc::Value(1))->Find("v")->as_int64(), 15);

  EXPECT_TRUE(ctx.Remove("t", doc::Value(1)));
  EXPECT_FALSE(ctx.Remove("t", doc::Value(1)));
  EXPECT_EQ(ctx.entries().size(), 3u);
  EXPECT_EQ(db.Get("t")->size(), 0u);
}

TEST(TxnTest, AbortRestoresPreImages) {
  store::Database db;
  store::Collection& t = db.GetOrCreate("t");
  t.Insert(doc::Value::Doc({{"_id", 1}, {"v", 10}}));
  t.Insert(doc::Value::Doc({{"_id", 2}, {"v", 20}}));
  const uint64_t before = db.Fingerprint();
  const store::DocPtr one = t.FindById(doc::Value(1));
  const store::DocPtr two = t.FindById(doc::Value(2));

  TxnContext ctx(&db);
  doc::UpdateSpec spec;
  spec.Set("v", doc::Value(int64_t{99}));
  ctx.Update("t", doc::Value(1), spec);
  ctx.Remove("t", doc::Value(2));
  ctx.Insert("t", doc::Value::Doc({{"_id", 3}, {"v", 30}}));
  EXPECT_NE(db.Fingerprint(), before);

  ctx.Abort();
  EXPECT_TRUE(ctx.aborted());
  EXPECT_TRUE(ctx.entries().empty());
  EXPECT_EQ(db.Fingerprint(), before);
  // The captured pre-images themselves are reinstalled, not copies.
  EXPECT_EQ(t.FindById(doc::Value(1)), one);
  EXPECT_EQ(t.FindById(doc::Value(2)), two);
  t.CheckInvariants();
}

TEST(TxnTest, EntriesCarryTheCommittedDocuments) {
  store::Database db;
  store::Collection& t = db.GetOrCreate("t");
  TxnContext ctx(&db);
  ctx.Insert("t", doc::Value::Doc({{"_id", 1}, {"v", 10}}));
  doc::UpdateSpec spec;
  spec.Inc("v", doc::Value(int64_t{5}));
  ASSERT_TRUE(ctx.Update("t", doc::Value(1), spec));
  ASSERT_TRUE(ctx.Remove("t", doc::Value(1)));
  t.Insert(doc::Value::Doc({{"_id", 2}, {"v", 0}}));
  ASSERT_TRUE(ctx.Update("t", doc::Value(2), spec));

  const std::vector<OplogEntry>& e = ctx.entries();
  ASSERT_EQ(e.size(), 4u);
  // Insert and update entries hold the document as committed (the
  // update's post-image); removes carry only the id.
  ASSERT_NE(e[0].doc, nullptr);
  EXPECT_EQ(e[0].doc->Find("v")->as_int64(), 10);
  EXPECT_EQ(e[1].doc->Find("v")->as_int64(), 15);
  EXPECT_EQ(e[2].doc, nullptr);
  EXPECT_EQ(e[3].doc, t.FindById(doc::Value(2)));
  EXPECT_EQ(e[0].approx_bytes, e[0].doc->ApproxSize());
  EXPECT_EQ(e[1].approx_bytes, e[1].doc->ApproxSize());
  EXPECT_EQ(e[2].approx_bytes, 32 + doc::Value(1).ApproxSize());
}

// ---------------------------------------------------------------------------
// ReplicaSet fixture: 1 primary + 2 secondaries over a simulated network.
// ---------------------------------------------------------------------------

class ReplicaSetTest : public ::testing::Test {
 protected:
  void Build(ReplicaSetParams params = {},
             server::ServerParams server_params = {}) {
    server_params.service.sigma = 0.0;  // deterministic timings
    network_ = std::make_unique<net::Network>(&loop_, sim::Rng(1));
    client_host_ = network_->AddHost("client");
    for (int i = 0; i < params.secondaries + 1; ++i) {
      hosts_.push_back(network_->AddHost("node" + std::to_string(i)));
      network_->SetLink(client_host_, hosts_[i], sim::Millis(1), 0);
    }
    for (size_t i = 0; i < hosts_.size(); ++i) {
      for (size_t j = i + 1; j < hosts_.size(); ++j) {
        network_->SetLink(hosts_[i], hosts_[j], sim::Millis(1), 0);
      }
    }
    rs_ = std::make_unique<ReplicaSet>(&loop_, sim::Rng(2), network_.get(),
                                       params, server_params, hosts_);
  }

  /// Cuts node `idx` off from every other member (it stays alive).
  void Isolate(int idx) {
    for (size_t i = 0; i < hosts_.size(); ++i) {
      if (static_cast<int>(i) != idx) {
        network_->BlockPair(hosts_[idx], hosts_[i]);
      }
    }
  }

  void Heal(int idx) {
    for (size_t i = 0; i < hosts_.size(); ++i) {
      if (static_cast<int>(i) != idx) {
        network_->UnblockPair(hosts_[idx], hosts_[i]);
      }
    }
  }

  void UpdateDoc(int64_t id, int64_t inc) {
    rs_->CommitWrite(
        rs_->primary_index(), server::OpClass::kUpdate,
        [id, inc](TxnContext* ctx) {
          doc::UpdateSpec spec;
          spec.Inc("v", doc::Value(inc));
          ctx->Update("t", doc::Value(id), spec);
        },
        WriteConcern::kW1, /*op_id=*/0, /*cost_scale=*/1.0,
        test::OnCommitted());
  }

  void WriteDoc(int64_t id, int64_t v) {
    rs_->CommitWrite(
        rs_->primary_index(), server::OpClass::kInsert,
        [id, v](TxnContext* ctx) {
          ctx->Insert("t", doc::Value::Doc({{"_id", id}, {"v", v}}));
        },
        WriteConcern::kW1, /*op_id=*/0, /*cost_scale=*/1.0,
        test::OnCommitted());
  }

  sim::EventLoop loop_;
  std::unique_ptr<net::Network> network_;
  net::HostId client_host_ = 0;
  std::vector<net::HostId> hosts_;
  std::unique_ptr<ReplicaSet> rs_;
};

TEST_F(ReplicaSetTest, WritesReplicateToAllSecondaries) {
  Build();
  rs_->Start();
  for (int64_t i = 0; i < 50; ++i) WriteDoc(i, i * 2);
  loop_.RunUntil(sim::Seconds(5));

  EXPECT_EQ(rs_->committed_writes(), 50u);
  EXPECT_EQ(rs_->oplog().last_seq(), 50u);
  for (int i = 1; i <= 2; ++i) {
    EXPECT_EQ(rs_->node(i).last_applied().seq, 50u) << i;
    EXPECT_EQ(rs_->node(i).db().Fingerprint(),
              rs_->primary().db().Fingerprint())
        << i;
  }
  EXPECT_EQ(rs_->MaxTrueStaleness(), 0);
}

TEST_F(ReplicaSetTest, ReadsSeeNodeLocalState) {
  Build();
  rs_->Start();
  WriteDoc(1, 42);
  driver::MongoClient client(&loop_, sim::Rng(3), rs_->command_bus(),
                             client_host_, driver::ClientOptions{});
  auto saw_doc = [](bool* saw) {
    return [saw](const store::Database& db) {
      *saw = db.Get("t") != nullptr &&
             db.Get("t")->FindById(doc::Value(1)) != nullptr;
    };
  };
  // Immediately after the write commits (before replication), a secondary
  // read misses while a primary read hits.
  loop_.RunUntil(sim::Millis(10));
  bool primary_saw = false, secondary_saw = true;
  int secondary_node = -1;
  client.Read(driver::ReadPreference::kPrimary, server::OpClass::kPointRead,
              saw_doc(&primary_saw), nullptr);
  client.Read(driver::ReadPreference::kSecondary, server::OpClass::kPointRead,
              saw_doc(&secondary_saw),
              [&](const driver::OpResult& r) { secondary_node = r.node; });
  loop_.RunUntil(sim::Millis(20));
  EXPECT_TRUE(primary_saw);
  EXPECT_FALSE(secondary_saw);
  EXPECT_GT(secondary_node, 0);

  // After replication catches up the secondary sees it too.
  loop_.RunUntil(sim::Seconds(2));
  client.Read(driver::ReadPreference::kSecondary, server::OpClass::kPointRead,
              saw_doc(&secondary_saw), nullptr);
  loop_.RunUntil(sim::Seconds(3));
  EXPECT_TRUE(secondary_saw);
}

TEST_F(ReplicaSetTest, LastAppliedIsMonotonic) {
  Build();
  rs_->Start();
  uint64_t last_seen = 0;
  bool monotonic = true;
  // Sample secondary progress while writes stream in.
  for (int t = 0; t < 100; ++t) {
    loop_.ScheduleAt(sim::Millis(50) * t, [&] {
      const uint64_t seq = rs_->node(1).last_applied().seq;
      if (seq < last_seen) monotonic = false;
      last_seen = seq;
    });
  }
  for (int64_t i = 0; i < 200; ++i) WriteDoc(i, i);
  loop_.RunUntil(sim::Seconds(6));
  EXPECT_TRUE(monotonic);
  EXPECT_EQ(last_seen, 200u);
}

TEST_F(ReplicaSetTest, ServerStatusReportsConservativeStaleness) {
  Build();
  rs_->Start();
  loop_.RunUntil(sim::Seconds(1));
  for (int64_t i = 0; i < 20; ++i) WriteDoc(i, i);

  ReplicaSet::ServerStatusReply reply;
  bool got_reply = false;
  loop_.ScheduleAt(sim::Seconds(1) + sim::Millis(100), [&] {
    rs_->ServerStatus([&](const ReplicaSet::ServerStatusReply& r) {
      reply = r;
      got_reply = true;
    });
  });
  loop_.RunUntil(sim::Seconds(2));
  ASSERT_TRUE(got_reply);
  ASSERT_EQ(reply.secondary_last_applied.size(), 2u);
  // The primary's knowledge of secondary progress lags by heartbeats, so
  // the estimate can only over-state staleness relative to ground truth.
  for (int i = 1; i <= 2; ++i) {
    EXPECT_LE(rs_->node(i).last_applied().seq,
              reply.primary_last_applied.seq);
    EXPECT_GE(reply.secondary_last_applied[i - 1].seq, 0u);
  }
}

TEST_F(ReplicaSetTest, StalenessEstimateNeverBelowTruth) {
  // Property (§2.3): staleness computed from the primary's view is
  // conservative — estimate >= true staleness (up to the 1 s reporting
  // granularity).
  Build();
  rs_->Start();
  bool conservative = true;
  for (int t = 1; t <= 20; ++t) {
    loop_.ScheduleAt(sim::Seconds(1) * t, [&] {
      rs_->ServerStatus([&](const ReplicaSet::ServerStatusReply& r) {
        const int64_t est = ReplicaSet::MaxStalenessSeconds(r);
        const int64_t truth = rs_->MaxTrueStaleness() / sim::kSecond;
        if (est + 1 < truth) conservative = false;  // 1 s slack: in flight
      });
    });
  }
  for (int64_t i = 0; i < 500; ++i) {
    loop_.ScheduleAt(sim::Millis(40) * i, [this, i] { WriteDoc(i, i); });
  }
  loop_.RunUntil(sim::Seconds(21));
  EXPECT_TRUE(conservative);
}

TEST_F(ReplicaSetTest, MaxStalenessSecondsComputation) {
  ReplicaSet::ServerStatusReply reply;
  reply.primary_last_applied = {sim::Seconds(100), 50};
  reply.secondary_last_applied = {{sim::Seconds(97), 40},
                                  {sim::Seconds(92), 30}};
  EXPECT_EQ(ReplicaSet::MaxStalenessSeconds(reply), 8);
  // A caught-up secondary contributes zero even with an old wall time.
  reply.secondary_last_applied = {{sim::Seconds(1), 50},
                                  {sim::Seconds(100), 50}};
  EXPECT_EQ(ReplicaSet::MaxStalenessSeconds(reply), 0);
}

TEST_F(ReplicaSetTest, GetMoreBlockedDuringLongCheckpointCausesSawtooth) {
  ReplicaSetParams params;
  params.getmore_block_threshold = sim::Seconds(3);
  server::ServerParams server_params;
  server_params.checkpoint_interval = sim::Seconds(20);
  server_params.checkpoint_disk_bw = 1e6;
  server_params.checkpoint_max = sim::Seconds(10);
  server_params.write_amplification = 1.0;
  Build(params, server_params);
  rs_->Start();

  // Steady writes; plenty of dirty bytes for a long checkpoint.
  for (int i = 0; i < 1000; ++i) {
    loop_.ScheduleAt(sim::Millis(30) * i, [this, i] { WriteDoc(i, i); });
  }
  loop_.ScheduleAt(sim::Seconds(19), [this] {
    rs_->primary().server().AddDirtyBytes(8'000'000);  // 8 s flush
  });

  sim::Duration peak = 0;
  for (int t = 0; t < 300; ++t) {
    loop_.ScheduleAt(sim::Millis(100) * t, [&] {
      peak = std::max(peak, rs_->MaxTrueStaleness());
    });
  }
  loop_.RunUntil(sim::Seconds(30));
  // Staleness grew to roughly the flush duration while getMore was
  // blocked...
  EXPECT_GT(peak, sim::Seconds(5));
  EXPECT_GT(rs_->getmore_stalls(), 0u);
  // ... and collapsed quickly afterwards.
  loop_.RunUntil(sim::Seconds(34));
  EXPECT_LT(rs_->MaxTrueStaleness(), sim::Seconds(1));
}

TEST_F(ReplicaSetTest, FlowControlThrottlesWritesUnderLag) {
  ReplicaSetParams params;
  params.flow_control_target_lag = sim::Seconds(2);
  params.getmore_block_threshold = sim::Seconds(1);
  server::ServerParams server_params;
  server_params.checkpoint_interval = sim::Seconds(5);
  server_params.checkpoint_disk_bw = 1e6;
  server_params.checkpoint_max = sim::Seconds(20);
  server_params.write_amplification = 1.0;
  Build(params, server_params);
  rs_->Start();
  loop_.ScheduleAt(sim::Seconds(4), [this] {
    rs_->primary().server().AddDirtyBytes(15'000'000);  // 15 s flush
  });
  for (int i = 0; i < 600; ++i) {
    loop_.ScheduleAt(sim::Millis(25) * i, [this, i] { WriteDoc(i, i); });
  }
  loop_.RunUntil(sim::Seconds(15));
  EXPECT_GT(rs_->flow_control_engaged_writes(), 0u);
}

TEST_F(ReplicaSetTest, FlowControlCanBeDisabled) {
  ReplicaSetParams params;
  params.flow_control_enabled = false;
  params.flow_control_target_lag = 0;
  Build(params);
  rs_->Start();
  for (int64_t i = 0; i < 100; ++i) WriteDoc(i, i);
  loop_.RunUntil(sim::Seconds(5));
  EXPECT_EQ(rs_->flow_control_engaged_writes(), 0u);
}

TEST_F(ReplicaSetTest, AbortedTransactionsLeaveNoTrace) {
  Build();
  rs_->Start();
  WriteDoc(1, 10);
  loop_.RunUntil(sim::Seconds(1));
  const uint64_t fp = rs_->primary().db().Fingerprint();
  const uint64_t seq = rs_->oplog().last_seq();

  bool committed = true;
  rs_->CommitWrite(
      rs_->primary_index(), server::OpClass::kUpdate,
      [](TxnContext* ctx) {
        ctx->Insert("t", doc::Value::Doc({{"_id", 99}, {"v", 0}}));
        ctx->Abort();
      },
      WriteConcern::kW1, /*op_id=*/0, /*cost_scale=*/1.0,
      test::OnCommitted([&](bool c) { committed = c; }));
  loop_.RunUntil(sim::Seconds(2));
  EXPECT_FALSE(committed);
  EXPECT_EQ(rs_->primary().db().Fingerprint(), fp);
  EXPECT_EQ(rs_->oplog().last_seq(), seq);
  for (int i = 1; i <= 2; ++i) {
    EXPECT_EQ(rs_->node(i).db().Fingerprint(), fp);
  }
}

// Every document node `idx` holds is the very object the primary holds.
::testing::AssertionResult SharesPrimaryDocs(ReplicaSet& rs, int idx) {
  const store::Database& primary = rs.primary().db();
  const store::Database& db = rs.node(idx).db();
  if (db.Fingerprint() != primary.Fingerprint()) {
    return ::testing::AssertionFailure()
           << "node " << idx << " fingerprint differs from the primary's";
  }
  for (const std::string& name : primary.CollectionNames()) {
    const store::Collection* mine = db.Get(name);
    const store::Collection& theirs = *primary.Get(name);
    if (mine == nullptr || mine->size() != theirs.size()) {
      return ::testing::AssertionFailure()
             << "node " << idx << " collection " << name << " differs";
    }
    std::string unshared;
    theirs.ForEach([&](const doc::Value& id, const store::DocPtr& d) {
      if (mine->FindById(id) != d) unshared = id.ToJson();
      return unshared.empty();
    });
    if (!unshared.empty()) {
      return ::testing::AssertionFailure()
             << "node " << idx << " holds a copy of " << name
             << "._id=" << unshared;
    }
  }
  return ::testing::AssertionSuccess();
}

TEST_F(ReplicaSetTest, SecondariesShareThePrimarysDocuments) {
  Build();
  rs_->Start();
  for (int64_t i = 0; i < 30; ++i) WriteDoc(i, i);
  for (int64_t i = 0; i < 30; i += 3) UpdateDoc(i, 7);
  for (int64_t i = 1; i < 30; i += 5) {
    rs_->CommitWrite(
        rs_->primary_index(), server::OpClass::kUpdate,
        [i](TxnContext* ctx) { ctx->Remove("t", doc::Value(i)); },
        WriteConcern::kW1, /*op_id=*/0, /*cost_scale=*/1.0,
        test::OnCommitted());
  }
  loop_.RunUntil(sim::Seconds(5));

  ASSERT_EQ(rs_->oplog().last_seq(), 46u);
  for (int i = 1; i <= 2; ++i) {
    EXPECT_EQ(rs_->node(i).last_applied().seq, 46u);
    EXPECT_TRUE(SharesPrimaryDocs(*rs_, i));
    rs_->node(i).db().Get("t")->CheckInvariants();
  }
  // Every member has every entry, so the oplog holds no document.
  EXPECT_EQ(rs_->oplog().released_through(), 46u);
  for (const OplogEntry& e : rs_->oplog().ReadAfter(0, 100)) {
    EXPECT_EQ(e.doc, nullptr) << e.optime.seq;
  }
}

TEST_F(ReplicaSetTest, PartitionedSecondaryPinsOplogDocsUntilCaughtUp) {
  Build();
  rs_->Start();
  for (int64_t i = 0; i < 10; ++i) WriteDoc(i, i);
  loop_.RunUntil(sim::Seconds(1));
  ASSERT_EQ(rs_->oplog().released_through(), 10u);

  // Node 2 is cut off but alive: the entries it has not applied keep
  // their documents, however far node 1 gets.
  Isolate(2);
  loop_.RunUntil(sim::Seconds(1) + sim::Millis(100));
  for (int64_t i = 10; i < 30; ++i) WriteDoc(i, i);
  loop_.RunUntil(sim::Seconds(3));
  const uint64_t pinned = rs_->node(2).last_applied().seq;
  ASSERT_LT(pinned, 30u);
  EXPECT_EQ(rs_->node(1).last_applied().seq, 30u);
  EXPECT_EQ(rs_->oplog().released_through(), pinned);
  const std::vector<OplogEntry> unapplied = rs_->oplog().ReadAfter(pinned, 100);
  ASSERT_EQ(unapplied.size(), 30u - pinned);
  for (const OplogEntry& e : unapplied) {
    EXPECT_NE(e.doc, nullptr) << e.optime.seq;
  }

  // After the heal node 2 catches up from the pinned entries, and then
  // nothing is pinned any more.
  Heal(2);
  loop_.RunUntil(sim::Seconds(10));
  EXPECT_EQ(rs_->node(2).last_applied().seq, 30u);
  EXPECT_EQ(rs_->oplog().released_through(), 30u);
  for (const OplogEntry& e : rs_->oplog().ReadAfter(0, 100)) {
    EXPECT_EQ(e.doc, nullptr) << e.optime.seq;
  }
  EXPECT_TRUE(SharesPrimaryDocs(*rs_, 2));
}

TEST_F(ReplicaSetTest, RestartedMemberSharesDocumentsFromInitialSync) {
  Build();
  rs_->Start();
  for (int64_t i = 0; i < 20; ++i) WriteDoc(i, i);
  loop_.RunUntil(sim::Seconds(1));
  rs_->KillNode(2);
  for (int64_t i = 0; i < 20; i += 2) UpdateDoc(i, 1);
  for (int64_t i = 20; i < 30; ++i) WriteDoc(i, i);
  loop_.RunUntil(sim::Seconds(2));
  // With node 2 down, releasing follows the live members only.
  EXPECT_EQ(rs_->oplog().released_through(), rs_->oplog().last_seq());

  // Initial sync clones by sharing the primary's documents...
  rs_->RestartNode(2);
  EXPECT_TRUE(SharesPrimaryDocs(*rs_, 2));
  rs_->node(2).db().Get("t")->CheckInvariants();
  // ... and later writes keep all three members on the same objects.
  for (int64_t i = 1; i < 30; i += 2) UpdateDoc(i, 3);
  loop_.RunUntil(sim::Seconds(5));
  for (int i = 1; i <= 2; ++i) EXPECT_TRUE(SharesPrimaryDocs(*rs_, i));
}

TEST_F(ReplicaSetTest, RollbackResyncConvergesAndSharesDocuments) {
  ReplicaSetParams params;
  params.election_timeout = sim::Seconds(2);
  Build(params);
  rs_->Start();
  for (int64_t i = 0; i < 10; ++i) WriteDoc(i, i);
  loop_.RunUntil(sim::Seconds(1));
  const int old_primary = rs_->primary_index();

  // The isolated primary commits w:1 writes that can never replicate.
  Isolate(old_primary);
  for (int64_t i = 100; i < 110; ++i) WriteDoc(i, i);
  loop_.RunUntil(sim::Seconds(6));
  ASSERT_NE(rs_->primary_index(), old_primary);
  ASSERT_TRUE(rs_->needs_resync(old_primary));
  for (int64_t i = 0; i < 10; ++i) UpdateDoc(i, 2);
  loop_.RunUntil(sim::Seconds(8));

  Heal(old_primary);
  loop_.RunUntil(sim::Seconds(16));
  EXPECT_GE(rs_->rollback_resyncs(), 1u);
  for (int i = 0; i < 3; ++i) {
    if (i == rs_->primary_index()) continue;
    EXPECT_TRUE(SharesPrimaryDocs(*rs_, i));
  }
  EXPECT_EQ(rs_->node(old_primary).db().Get("t")->FindById(doc::Value(105)),
            nullptr);
}

TEST_F(ReplicaSetTest, ReaderKeepsItsSnapshotAcrossLaterUpdates) {
  Build();
  rs_->Start();
  WriteDoc(1, 0);
  loop_.RunUntil(sim::Seconds(1));
  const store::DocPtr held = rs_->node(1).db().Get("t")->FindById(doc::Value(1));
  ASSERT_NE(held, nullptr);
  for (int k = 0; k < 5; ++k) UpdateDoc(1, 1);
  loop_.RunUntil(sim::Seconds(3));

  // Every member moved on to the newest document; the reader's snapshot
  // is unchanged, and it is now the snapshot's only owner.
  const store::DocPtr now = rs_->node(1).db().Get("t")->FindById(doc::Value(1));
  EXPECT_EQ(now->Find("v")->as_int64(), 5);
  EXPECT_EQ(held->Find("v")->as_int64(), 0);
  EXPECT_EQ(now, rs_->primary().db().Get("t")->FindById(doc::Value(1)));
  EXPECT_EQ(held.use_count(), 1);
}

// Schedules `writes` random transactions, `gap` apart: inserts, updates,
// removes, multi-op transactions and aborts over 50 ids.
void ScheduleRandomWrites(sim::EventLoop* loop, ReplicaSet* rs, sim::Rng* rng,
                          int writes, sim::Duration gap) {
  for (int i = 0; i < writes; ++i) {
    const sim::Time at = gap * i;
    const int64_t id = rng->UniformInt(0, 49);
    const double action = rng->NextDouble();
    loop->ScheduleAt(at, [rs, id, action, i] {
      rs->CommitWrite(
          rs->primary_index(), server::OpClass::kUpdate,
          [id, action, i](TxnContext* ctx) {
            const store::Collection* t = ctx->db().Get("t");
            const bool exists =
                t != nullptr && t->FindById(doc::Value(id)) != nullptr;
            if (action < 0.5) {
              if (exists) {
                doc::UpdateSpec spec;
                spec.Inc("v", doc::Value(int64_t{1}))
                    .Set("w", doc::Value(int64_t{i}));
                ctx->Update("t", doc::Value(id), spec);
              } else {
                ctx->Insert("t",
                            doc::Value::Doc({{"_id", id}, {"v", 0}}));
              }
            } else if (action < 0.7) {
              if (exists) ctx->Remove("t", doc::Value(id));
            } else if (action < 0.8) {
              // Multi-op transaction.
              if (exists) {
                doc::UpdateSpec spec;
                spec.Inc("v", doc::Value(int64_t{10}));
                ctx->Update("t", doc::Value(id), spec);
              }
              ctx->Insert("log", doc::Value::Doc({{"_id", i}}));
            } else if (exists) {
              doc::UpdateSpec spec;
              spec.Set("aborted", doc::Value(true));
              ctx->Update("t", doc::Value(id), spec);
              ctx->Abort();
            }
          },
          WriteConcern::kW1, /*op_id=*/0, /*cost_scale=*/1.0,
          test::OnCommitted());
    });
  }
}

// Convergence property: arbitrary randomized write streams (inserts,
// updates, removes, multi-op transactions, aborts) leave all replicas
// byte-identical once the log drains.
class ReplicationConvergenceTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, int>> {};

TEST_P(ReplicationConvergenceTest, AllNodesConverge) {
  const auto [seed, writes] = GetParam();
  sim::EventLoop loop;
  net::Network network(&loop, sim::Rng(seed));
  const net::HostId c = network.AddHost("client");
  std::vector<net::HostId> hosts;
  ReplicaSetParams params;
  params.secondaries = 2;
  server::ServerParams server_params;
  for (int i = 0; i < 3; ++i) {
    hosts.push_back(network.AddHost("n" + std::to_string(i)));
    network.SetLink(c, hosts[i], sim::Millis(1), sim::Micros(50));
  }
  ReplicaSet rs(&loop, sim::Rng(seed + 1), &network, params, server_params,
                hosts);
  rs.Start();

  sim::Rng rng(seed + 2);
  ScheduleRandomWrites(&loop, &rs, &rng, writes, sim::Millis(5));
  loop.RunUntil(sim::Millis(5) * writes + sim::Seconds(10));

  const uint64_t primary_fp = rs.primary().db().Fingerprint();
  for (int i = 1; i <= 2; ++i) {
    EXPECT_EQ(rs.node(i).last_applied().seq, rs.oplog().last_seq());
    EXPECT_EQ(rs.node(i).db().Fingerprint(), primary_fp) << "node " << i;
    EXPECT_TRUE(SharesPrimaryDocs(rs, i));
  }
  EXPECT_EQ(rs.MaxTrueStaleness(), 0);
}

INSTANTIATE_TEST_SUITE_P(Sweep, ReplicationConvergenceTest,
                         ::testing::Values(std::make_tuple(1, 200),
                                           std::make_tuple(2, 500),
                                           std::make_tuple(3, 1000),
                                           std::make_tuple(4, 300)));

// The same random streams while members — the primary included — crash
// and restart. Releasing oplog documents must never reach an entry a live
// member still has to apply (ApplyEntry would abort), and once the faults
// stop every member converges onto the primary's very documents.
class CrashConvergenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CrashConvergenceTest, LiveMembersConvergeAndShareDocuments) {
  const uint64_t seed = GetParam();
  sim::EventLoop loop;
  net::Network network(&loop, sim::Rng(seed));
  std::vector<net::HostId> hosts;
  for (int i = 0; i < 3; ++i) {
    hosts.push_back(network.AddHost("n" + std::to_string(i)));
    for (int j = 0; j < i; ++j) {
      network.SetLink(hosts[j], hosts[i], sim::Millis(1), sim::Micros(50));
    }
  }
  ReplicaSetParams params;
  params.election_timeout = sim::Seconds(2);
  ReplicaSet rs(&loop, sim::Rng(seed + 1), &network, params,
                server::ServerParams{}, hosts);
  rs.Start();

  sim::Rng rng(seed + 2);
  ScheduleRandomWrites(&loop, &rs, &rng, 3000, sim::Millis(10));
  // Every 2.5 s: crash a random member while all three run, otherwise
  // restart the dead one once a writable primary can initial-sync it.
  sim::Rng faults(seed + 3);
  auto restart_dead = [&rs] {
    for (int i = 0; i < rs.node_count(); ++i) {
      if (!rs.IsAlive(i) && rs.HasWritablePrimary()) rs.RestartNode(i);
    }
  };
  int crashes = 0;
  for (int k = 0; k < 10; ++k) {
    loop.ScheduleAt(sim::Seconds(2) + sim::Millis(2500) * k,
                    [&rs, &faults, &crashes, &restart_dead] {
                      bool all_alive = true;
                      for (int i = 0; i < rs.node_count(); ++i) {
                        all_alive = all_alive && rs.IsAlive(i);
                      }
                      if (all_alive) {
                        rs.KillNode(static_cast<int>(faults.UniformInt(0, 2)));
                        ++crashes;
                      } else {
                        restart_dead();
                      }
                    });
  }
  loop.RunUntil(sim::Seconds(30));
  for (int k = 0; k < 20; ++k) {
    restart_dead();
    loop.RunUntil(loop.Now() + sim::Seconds(1));
  }
  loop.RunUntil(loop.Now() + sim::Seconds(10));

  EXPECT_GE(crashes, 3);
  EXPECT_GT(rs.committed_writes(), 1000u);
  ASSERT_TRUE(rs.HasWritablePrimary());
  for (int i = 0; i < rs.node_count(); ++i) {
    ASSERT_TRUE(rs.IsAlive(i)) << "node " << i;
    EXPECT_EQ(rs.node(i).last_applied().seq, rs.oplog().last_seq()) << i;
    if (i != rs.primary_index()) EXPECT_TRUE(SharesPrimaryDocs(rs, i));
    rs.node(i).db().Get("t")->CheckInvariants();
  }
  EXPECT_EQ(rs.oplog().released_through(), rs.oplog().last_seq());
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrashConvergenceTest,
                         ::testing::Values(11u, 12u, 13u, 14u, 15u));

}  // namespace
}  // namespace dcg::repl
