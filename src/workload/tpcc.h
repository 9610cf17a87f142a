#ifndef DCG_WORKLOAD_TPCC_H_
#define DCG_WORKLOAD_TPCC_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/routing_policy.h"
#include "doc/key_string.h"
#include "doc/value.h"
#include "driver/client.h"
#include "store/database.h"
#include "workload/workload.h"

namespace dcg::workload {

/// Transaction mix, in probabilities that must sum to 1. The paper's
/// read-write TPC-C (Table 1) raises Stock Level — the read-only
/// transaction Decongestant routes — to 50 %.
struct TpccMix {
  double stock_level = 0.50;
  double delivery = 0.04;
  double order_status = 0.04;
  double payment = 0.20;
  double new_order = 0.22;
};

/// TPC-C configuration, scaled down for the simulation (documented in
/// DESIGN.md: smaller per-district populations keep three replicas of the
/// dataset in memory; an archival cap removes the oldest order per
/// district so long runs don't grow without bound).
struct TpccConfig {
  int warehouses = 4;
  int districts_per_warehouse = 10;
  int customers_per_district = 150;
  int items = 2000;
  int initial_orders_per_district = 150;
  /// When a district exceeds this many retained orders, New Order archives
  /// (removes) the oldest one in the same transaction.
  int max_orders_per_district = 400;
  double new_order_abort_rate = 0.01;
  /// Stock Level examines the most recent `stock_level_orders` orders.
  int stock_level_orders = 20;
  TpccMix mix;

  /// The paper's read-write TPC-C (Table 1, right column).
  static TpccConfig ReadWrite() { return TpccConfig{}; }

  /// Classic write-heavy TPC-C (Table 1, left column: 4/4/4/43/45).
  static TpccConfig Standard() {
    TpccConfig c;
    c.mix = TpccMix{0.04, 0.04, 0.04, 0.43, 0.45};
    return c;
  }
};

/// Stock Level's stock lookups for one district, built without a per-item
/// allocation: the recent lines' item ids are marked in a bitmap over
/// [1, items], whose set bits walk the distinct ids in ascending order with
/// no sort, and every stock _id [w, i] is encoded from one [w, 0] array
/// whose item element is overwritten in place.
class StockLevelProbes {
 public:
  explicit StockLevelProbes(const TpccConfig& config);

  /// Reads district (w, d) and its `stock_level_orders` most recent orders
  /// from `db` and returns the encoded stock _ids [w, i], ascending, of the
  /// distinct items i that their lines name: the probes of one
  /// Collection::FindManyById. Empty when the district is absent. Valid
  /// until the next call.
  std::span<const doc::KeyString> Build(const store::Database& db, int w,
                                        int d);

 private:
  int64_t items_;
  int64_t recent_;
  std::vector<uint64_t> marked_;  // bit i: item i is on a recent line
  std::vector<doc::KeyString> probes_;
};

/// The Kamsky-style document adaptation of TPC-C over the replica set:
/// order lines are embedded in the order document, Stock Level and Order
/// Status are read-only transactions routed by the RoutingPolicy, and the
/// three write transactions always execute on the primary.
class TpccWorkload : public Workload {
 public:
  TpccWorkload(driver::MongoClient* client, core::RoutingPolicy* policy,
               TpccConfig config, sim::Rng rng);

  /// Builds the initial dataset in `db` (call per node; fixed seed, so all
  /// replicas start identical).
  static void Load(const TpccConfig& config, store::Database* db);

  void Issue(int client_idx, Done done) override;
  std::string_view name() const override { return "tpcc"; }

  uint64_t stock_level_count() const { return stock_level_count_; }
  uint64_t new_order_count() const { return new_order_count_; }
  uint64_t payment_count() const { return payment_count_; }
  uint64_t order_status_count() const { return order_status_count_; }
  uint64_t delivery_count() const { return delivery_count_; }
  uint64_t new_order_aborts() const { return new_order_aborts_; }

 private:
  void DoStockLevel(Done done);
  void DoNewOrder(Done done);
  void DoPayment(Done done);
  void DoOrderStatus(Done done);
  void DoDelivery(Done done);

  int RandomWarehouse();
  int RandomDistrict();
  int RandomCustomer();
  int64_t RandomItem();

  driver::MongoClient* client_;
  core::RoutingPolicy* policy_;
  TpccConfig config_;
  StockLevelProbes stock_probes_;  // reused by every Stock Level body
  // Shared by the documents New Order and Payment insert.
  doc::ShapeRef order_shape_;
  doc::ShapeRef line_shape_;
  doc::ShapeRef new_order_shape_;
  doc::ShapeRef history_shape_;
  sim::Rng rng_;
  int64_t next_history_id_ = 1'000'000'000;  // disjoint from loaded ids
  uint64_t stock_level_count_ = 0;
  uint64_t new_order_count_ = 0;
  uint64_t payment_count_ = 0;
  uint64_t order_status_count_ = 0;
  uint64_t delivery_count_ = 0;
  uint64_t new_order_aborts_ = 0;
};

}  // namespace dcg::workload

#endif  // DCG_WORKLOAD_TPCC_H_
