// Tests for the workload generators: key choosers, YCSB, TPC-C, and the
// S workload — each exercised over a real mini-cluster.

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "exp/client_pool.h"
#include "exp/experiment.h"
#include "workload/key_chooser.h"
#include "workload/s_workload.h"
#include "workload/tpcc.h"
#include "workload/ycsb.h"
#include "repl/replica_set.h"

namespace dcg::workload {
namespace {

TEST(ZipfianTest, ValuesInRange) {
  ZipfianGenerator gen(1000);
  sim::Rng rng(1);
  for (int i = 0; i < 10'000; ++i) {
    const int64_t v = gen.Next(&rng);
    ASSERT_GE(v, 0);
    ASSERT_LT(v, 1000);
  }
}

TEST(ZipfianTest, RankZeroIsMostFrequent) {
  ZipfianGenerator gen(1000, 0.99);
  sim::Rng rng(2);
  std::map<int64_t, int> counts;
  for (int i = 0; i < 100'000; ++i) ++counts[gen.Next(&rng)];
  // Rank 0 dominates; roughly counts[0]/counts[1] ~ 2^0.99.
  EXPECT_GT(counts[0], counts[1]);
  EXPECT_GT(counts[1], counts[10]);
  // Head concentration: top item gets several percent of all draws.
  EXPECT_GT(counts[0], 5000);
}

TEST(ScrambledZipfianTest, SpreadsHotKeys) {
  ScrambledZipfianGenerator gen(1000);
  sim::Rng rng(3);
  std::map<int64_t, int> counts;
  for (int i = 0; i < 100'000; ++i) {
    const int64_t v = gen.Next(&rng);
    ASSERT_GE(v, 0);
    ASSERT_LT(v, 1000);
    ++counts[v];
  }
  // The hottest key is no longer key 0, but the skew persists.
  int max_count = 0;
  for (const auto& [k, c] : counts) max_count = std::max(max_count, c);
  EXPECT_GT(max_count, 5000);
}

TEST(UniformChooserTest, RoughlyUniform) {
  UniformKeyChooser gen(10);
  sim::Rng rng(4);
  std::map<int64_t, int> counts;
  for (int i = 0; i < 100'000; ++i) ++counts[gen.Next(&rng)];
  for (const auto& [k, c] : counts) {
    EXPECT_NEAR(c, 10'000, 600) << k;
  }
}

TEST(NURandTest, InRangeAndNonUniform) {
  sim::Rng rng(5);
  for (int i = 0; i < 10'000; ++i) {
    const int64_t v = NURand(&rng, 1023, 1, 3000, 7);
    ASSERT_GE(v, 1);
    ASSERT_LE(v, 3000);
  }
}

// ---------------------------------------------------------------------------
// Mini-cluster fixture shared by the workload tests.
// ---------------------------------------------------------------------------

class WorkloadClusterTest : public ::testing::Test {
 protected:
  void Build() {
    network_ = std::make_unique<net::Network>(&loop_, sim::Rng(1));
    const net::HostId c = network_->AddHost("client");
    repl::ReplicaSetParams params;
    server::ServerParams server_params;
    std::vector<net::HostId> hosts;
    for (int i = 0; i < 3; ++i) {
      hosts.push_back(network_->AddHost("n" + std::to_string(i)));
      network_->SetLink(c, hosts[i], sim::Millis(1), sim::Micros(30));
    }
    rs_ = std::make_unique<repl::ReplicaSet>(&loop_, sim::Rng(2),
                                             network_.get(), params,
                                             server_params, hosts);
    client_ = std::make_unique<driver::MongoClient>(
        &loop_, sim::Rng(3), rs_->command_bus(), c, driver::ClientOptions{});
    state_ = std::make_unique<core::SharedState>(0.5);
    policy_ = std::make_unique<core::RoutingPolicy>(state_.get());
  }

  sim::EventLoop loop_;
  std::unique_ptr<net::Network> network_;
  std::unique_ptr<repl::ReplicaSet> rs_;
  std::unique_ptr<driver::MongoClient> client_;
  std::unique_ptr<core::SharedState> state_;
  std::unique_ptr<core::RoutingPolicy> policy_;
};

TEST_F(WorkloadClusterTest, YcsbLoadIsIdenticalAcrossNodes) {
  Build();
  YcsbConfig config;
  config.record_count = 500;
  for (int i = 0; i < 3; ++i) {
    YcsbWorkload::Load(config, &rs_->node(i).db());
  }
  EXPECT_EQ(rs_->node(0).db().Get("usertable")->size(), 500u);
  EXPECT_EQ(rs_->node(0).db().Fingerprint(), rs_->node(1).db().Fingerprint());
  EXPECT_EQ(rs_->node(0).db().Fingerprint(), rs_->node(2).db().Fingerprint());
}

TEST_F(WorkloadClusterTest, YcsbMixMatchesReadProportion) {
  Build();
  YcsbConfig config = YcsbConfig::WorkloadB();
  config.record_count = 500;
  for (int i = 0; i < 3; ++i) YcsbWorkload::Load(config, &rs_->node(i).db());
  YcsbWorkload ycsb(client_.get(), policy_.get(), config, sim::Rng(9));
  rs_->Start();

  exp::ClientPool pool(&loop_, &ycsb, nullptr);
  pool.SetTarget(20);
  loop_.RunUntil(sim::Seconds(60));
  pool.SetTarget(0);
  loop_.RunUntil(sim::Seconds(62));

  const double total =
      static_cast<double>(ycsb.reads_issued() + ycsb.updates_issued());
  ASSERT_GT(total, 1000);
  EXPECT_NEAR(static_cast<double>(ycsb.reads_issued()) / total, 0.95, 0.02);
  EXPECT_EQ(ycsb.missing_reads(), 0u);
}

TEST_F(WorkloadClusterTest, YcsbUpdatesReplicate) {
  Build();
  YcsbConfig config = YcsbConfig::WorkloadA();
  config.record_count = 200;
  for (int i = 0; i < 3; ++i) YcsbWorkload::Load(config, &rs_->node(i).db());
  YcsbWorkload ycsb(client_.get(), policy_.get(), config, sim::Rng(9));
  rs_->Start();
  exp::ClientPool pool(&loop_, &ycsb, nullptr);
  pool.SetTarget(10);
  loop_.RunUntil(sim::Seconds(30));
  pool.SetTarget(0);
  loop_.RunUntil(sim::Seconds(40));  // drain in-flight ops + replication

  EXPECT_GT(ycsb.updates_issued(), 100u);
  EXPECT_EQ(rs_->node(0).db().Fingerprint(), rs_->node(1).db().Fingerprint());
  EXPECT_EQ(rs_->node(0).db().Fingerprint(), rs_->node(2).db().Fingerprint());
}

TpccConfig SmallTpcc() {
  TpccConfig config;
  config.warehouses = 2;
  config.districts_per_warehouse = 3;
  config.customers_per_district = 30;
  config.items = 100;
  config.initial_orders_per_district = 30;
  config.max_orders_per_district = 60;
  return config;
}

TEST_F(WorkloadClusterTest, TpccLoadBuildsConsistentSchema) {
  Build();
  const TpccConfig config = SmallTpcc();
  for (int i = 0; i < 3; ++i) TpccWorkload::Load(config, &rs_->node(i).db());
  const store::Database& db = rs_->node(0).db();
  EXPECT_EQ(db.Get("warehouse")->size(), 2u);
  EXPECT_EQ(db.Get("district")->size(), 6u);
  EXPECT_EQ(db.Get("customer")->size(), 180u);
  EXPECT_EQ(db.Get("item")->size(), 100u);
  EXPECT_EQ(db.Get("stock")->size(), 200u);
  EXPECT_EQ(db.Get("orders")->size(), 180u);
  // 30 % of initial orders are undelivered.
  EXPECT_EQ(db.Get("new_order")->size(), 6u * 9u);
  EXPECT_TRUE(db.Get("orders")->HasIndex("orders_by_customer"));
  EXPECT_EQ(db.Fingerprint(), rs_->node(1).db().Fingerprint());
  db.Get("orders")->CheckInvariants();
}

// Stock Level's lookup: for every district, the stock documents of the
// items in its 20 most recent orders, fetched in one ascending FindManyById
// pass, are the ones per-id FindById returns. Two absent ids (item 0 and
// one past the last item) bracket each probe set.
TEST(TpccStoreTest, FindManyByIdMatchesFindByIdOnRecentOrderItems) {
  const TpccConfig config;
  store::Database db;
  TpccWorkload::Load(config, &db);
  const store::Collection* districts = db.Get("district");
  const store::Collection* orders = db.Get("orders");
  const store::Collection* stock = db.Get("stock");
  ASSERT_NE(districts, nullptr);
  ASSERT_NE(orders, nullptr);
  ASSERT_NE(stock, nullptr);
  auto id = [](std::initializer_list<int64_t> parts) {
    doc::Array a;
    for (int64_t p : parts) a.emplace_back(p);
    return doc::Value(std::move(a));
  };
  size_t probed = 0;
  for (int64_t w = 1; w <= config.warehouses; ++w) {
    for (int64_t d = 1; d <= config.districts_per_warehouse; ++d) {
      const store::DocPtr district = districts->FindById(id({w, d}));
      ASSERT_NE(district, nullptr);
      const int64_t next_o = district->Find("d_next_o_id")->as_int64();
      std::vector<int64_t> items = {0, config.items + 1};
      for (const store::DocPtr& order : orders->RangeById(
               id({w, d, next_o - config.stock_level_orders}),
               id({w, d, next_o - 1}))) {
        for (const doc::Value& line : order->Find("o_lines")->as_array()) {
          items.push_back(line.Find("ol_i_id")->as_int64());
        }
      }
      std::sort(items.begin(), items.end());
      items.erase(std::unique(items.begin(), items.end()), items.end());
      std::vector<doc::Value> ids;
      for (int64_t i : items) ids.push_back(id({w, i}));
      const std::vector<store::DocPtr> found = stock->FindManyById(ids);
      ASSERT_EQ(found.size(), ids.size());
      EXPECT_EQ(found.front(), nullptr);
      EXPECT_EQ(found.back(), nullptr);
      for (size_t k = 0; k < ids.size(); ++k) {
        EXPECT_EQ(found[k], stock->FindById(ids[k])) << ids[k].ToJson();
      }
      probed += ids.size() - 2;
    }
  }
  // Each district's recent orders name well over a hundred distinct items.
  EXPECT_GT(probed, 100u * config.warehouses * config.districts_per_warehouse);
}

TEST_F(WorkloadClusterTest, TpccMixMatchesTable1) {
  Build();
  const TpccConfig config = SmallTpcc();
  for (int i = 0; i < 3; ++i) TpccWorkload::Load(config, &rs_->node(i).db());
  TpccWorkload tpcc(client_.get(), policy_.get(), config, sim::Rng(9));
  rs_->Start();
  exp::ClientPool pool(&loop_, &tpcc, nullptr);
  pool.SetTarget(40);
  loop_.RunUntil(sim::Seconds(400));
  pool.SetTarget(0);
  loop_.RunUntil(sim::Seconds(405));

  const double total = static_cast<double>(
      tpcc.stock_level_count() + tpcc.new_order_count() +
      tpcc.payment_count() + tpcc.order_status_count() +
      tpcc.delivery_count());
  ASSERT_GT(total, 2000);
  // Table 1, read-write column: 50/4/4/20/22.
  EXPECT_NEAR(tpcc.stock_level_count() / total, 0.50, 0.03);
  EXPECT_NEAR(tpcc.delivery_count() / total, 0.04, 0.015);
  EXPECT_NEAR(tpcc.order_status_count() / total, 0.04, 0.015);
  EXPECT_NEAR(tpcc.payment_count() / total, 0.20, 0.03);
  EXPECT_NEAR(tpcc.new_order_count() / total, 0.22, 0.03);
  // ~1 % of New Orders roll back.
  EXPECT_GT(tpcc.new_order_aborts(), 0u);
}

TEST_F(WorkloadClusterTest, AbortedNewOrderReinstallsTheSameDocuments) {
  Build();
  TpccConfig config = SmallTpcc();
  config.mix = TpccMix{0.0, 0.0, 0.0, 0.0, 1.0};
  config.new_order_abort_rate = 1.0;
  for (int i = 0; i < 3; ++i) TpccWorkload::Load(config, &rs_->node(i).db());
  TpccWorkload tpcc(client_.get(), policy_.get(), config, sim::Rng(11));
  rs_->Start();

  // Every document object the primary holds, by collection and _id.
  auto snapshot = [this] {
    std::map<std::pair<std::string, std::string>, store::DocPtr> docs;
    const store::Database& db = rs_->primary().db();
    for (const std::string& name : db.CollectionNames()) {
      db.Get(name)->ForEach([&](const doc::Value& id, const store::DocPtr& d) {
        docs[{name, id.ToJson()}] = d;
        return true;
      });
    }
    return docs;
  };
  const auto before = snapshot();
  const uint64_t oplog_before = rs_->oplog().last_seq();

  std::optional<OpOutcome> outcome;
  tpcc.Issue(0, [&](const OpOutcome& o) { outcome = o; });
  loop_.RunUntil(sim::Seconds(2));
  ASSERT_TRUE(outcome.has_value());
  EXPECT_TRUE(outcome->ok);
  EXPECT_FALSE(outcome->committed);
  EXPECT_EQ(tpcc.new_order_aborts(), 1u);
  // The rollback put back the very objects the transaction replaced (the
  // district and stock documents it updated), not copies of them.
  EXPECT_EQ(snapshot(), before);
  EXPECT_EQ(rs_->oplog().last_seq(), oplog_before);
}

TEST_F(WorkloadClusterTest, TpccPreservesMoneyInvariants) {
  Build();
  const TpccConfig config = SmallTpcc();
  for (int i = 0; i < 3; ++i) TpccWorkload::Load(config, &rs_->node(i).db());
  TpccWorkload tpcc(client_.get(), policy_.get(), config, sim::Rng(10));
  rs_->Start();
  exp::ClientPool pool(&loop_, &tpcc, nullptr);
  pool.SetTarget(20);
  loop_.RunUntil(sim::Seconds(200));
  pool.SetTarget(0);
  loop_.RunUntil(sim::Seconds(210));

  // Replicas converge.
  EXPECT_EQ(rs_->node(0).db().Fingerprint(), rs_->node(1).db().Fingerprint());
  EXPECT_EQ(rs_->node(0).db().Fingerprint(), rs_->node(2).db().Fingerprint());

  // TPC-C consistency condition 1-ish: for each district,
  // d_next_del_o_id <= d_next_o_id and order counts within the cap.
  const store::Database& db = rs_->node(0).db();
  db.Get("district")->ForEach([&](const doc::Value&,
                                  const store::DocPtr& d) {
    const int64_t next_o = d->Find("d_next_o_id")->as_int64();
    const int64_t next_del = d->Find("d_next_del_o_id")->as_int64();
    const int64_t oldest = d->Find("d_oldest_o_id")->as_int64();
    EXPECT_LE(next_del, next_o);
    EXPECT_LE(next_o - oldest,
              config.max_orders_per_district + 1);
    return true;
  });
  // History grew with payments.
  EXPECT_EQ(db.Get("history")->size(),
            config.warehouses * config.districts_per_warehouse * 3u *
                    0u +  // loaded history is empty
                tpcc.payment_count());
  db.Get("orders")->CheckInvariants();
  db.Get("stock")->CheckInvariants();
}

TEST_F(WorkloadClusterTest, SWorkloadSeesZeroStalenessOnHealthyCluster) {
  Build();
  SWorkloadConfig config;
  for (int i = 0; i < 3; ++i) SWorkload::Load(config, &rs_->node(i).db());
  double max_staleness = 0;
  SWorkload s(client_.get(), [] { return true; }, config, sim::Rng(5),
              [&](double staleness) {
                max_staleness = std::max(max_staleness, staleness);
              });
  rs_->Start();
  s.Start();
  loop_.RunUntil(sim::Seconds(30));
  EXPECT_GT(s.writes_completed(), 100u);
  EXPECT_GT(s.probes_completed(), 50u);
  // Healthy replication: staleness stays well under a second.
  EXPECT_LT(max_staleness, 0.5);
}

TEST_F(WorkloadClusterTest, SWorkloadDetectsStalledSecondary) {
  Build();
  SWorkloadConfig config;
  for (int i = 0; i < 3; ++i) SWorkload::Load(config, &rs_->node(i).db());
  double max_staleness = 0;
  SWorkload s(client_.get(), [] { return true; }, config, sim::Rng(5),
              [&](double staleness) {
                max_staleness = std::max(max_staleness, staleness);
              });
  rs_->Start();
  s.Start();
  // Block replication with a giant checkpoint starting at 60 s.
  rs_->primary().server().AddDirtyBytes(2'000'000'000);
  loop_.RunUntil(sim::Seconds(80));
  EXPECT_GT(max_staleness, 3.0);
}

TEST_F(WorkloadClusterTest, SWorkloadProbesPrimaryWhenSecondariesUnused) {
  Build();
  SWorkloadConfig config;
  for (int i = 0; i < 3; ++i) SWorkload::Load(config, &rs_->node(i).db());
  double max_staleness = 0;
  SWorkload s(client_.get(), [] { return false; }, config, sim::Rng(5),
              [&](double staleness) {
                max_staleness = std::max(max_staleness, staleness);
              });
  rs_->Start();
  s.Start();
  // Replication fully stalled — but the app isn't using secondaries, so
  // the probe pair goes primary/primary and reports no staleness.
  rs_->primary().server().AddDirtyBytes(2'000'000'000);
  loop_.RunUntil(sim::Seconds(80));
  EXPECT_EQ(max_staleness, 0.0);
}

// Every outcome a workload reports is the driver's record for the same op
// plus the workload's label: the client's op observer sees each op's
// OpResult immediately before that op's outcome reaches the experiment.
void ExpectOutcomesEqualDriverRecords(
    exp::ExperimentConfig config, const std::set<std::string_view>& reads,
    const std::set<std::string_view>& writes) {
  exp::Experiment experiment(config);
  std::optional<driver::OpResult> record;
  experiment.client().AddOpObserver(
      [&](const driver::OpResult& r) { record = r; });
  std::set<std::string_view> seen;
  experiment.SetOpObserver([&](const OpOutcome& outcome) {
    ASSERT_TRUE(record.has_value());
    EXPECT_TRUE(static_cast<const driver::OpResult&>(outcome) == *record);
    EXPECT_EQ(outcome.read_only, outcome.is_read);
    EXPECT_EQ((outcome.is_read ? reads : writes).count(outcome.type), 1u)
        << outcome.type;
    seen.insert(outcome.type);
    record.reset();
  });
  experiment.Run();
  std::set<std::string_view> labels = reads;
  labels.insert(writes.begin(), writes.end());
  EXPECT_EQ(seen, labels);
}

exp::ExperimentConfig ShortRun(exp::WorkloadKind kind) {
  exp::ExperimentConfig config;
  config.seed = 5;
  config.system = exp::SystemType::kDecongestant;
  config.kind = kind;
  config.phases = {{0, 10, 0.5}};
  config.duration = sim::Seconds(20);
  config.warmup = sim::Seconds(5);
  config.run_s_workload = false;
  return config;
}

TEST(OutcomeRecordTest, YcsbOutcomesEqualDriverRecords) {
  ExpectOutcomesEqualDriverRecords(ShortRun(exp::WorkloadKind::kYcsb),
                                   {"read"}, {"update"});
}

TEST(OutcomeRecordTest, TpccOutcomesEqualDriverRecords) {
  ExpectOutcomesEqualDriverRecords(ShortRun(exp::WorkloadKind::kTpcc),
                                   {"stock_level", "order_status"},
                                   {"new_order", "payment", "delivery"});
}

TEST(ClientPoolTest, ParksAndResumesClients) {
  // A tiny synthetic workload: completes after 10 ms.
  class FakeWorkload : public Workload {
   public:
    explicit FakeWorkload(sim::EventLoop* loop) : loop_(loop) {}
    void Issue(int, Done done) override {
      ++issued_;
      loop_->ScheduleAfter(sim::Millis(10), [this, done = std::move(done)] {
        done(OpOutcome("noop", driver::OpResult{}));
      });
    }
    std::string_view name() const override { return "fake"; }
    int issued_ = 0;
    sim::EventLoop* loop_;
  };

  sim::EventLoop loop;
  FakeWorkload fake(&loop);
  uint64_t completed = 0;
  exp::ClientPool pool(&loop, &fake, [&](const OpOutcome&) { ++completed; });
  pool.SetTarget(5);
  loop.RunUntil(sim::Seconds(1));
  EXPECT_EQ(pool.running(), 5);
  const uint64_t at_5 = completed;
  EXPECT_NEAR(static_cast<double>(at_5), 500, 10);

  pool.SetTarget(1);
  loop.RunUntil(sim::Seconds(2));
  EXPECT_EQ(pool.running(), 1);
  pool.SetTarget(10);
  loop.RunUntil(sim::Seconds(3));
  EXPECT_EQ(pool.running(), 10);
  EXPECT_EQ(pool.ops_completed(), completed);
}

}  // namespace
}  // namespace dcg::workload
