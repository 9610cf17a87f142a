#include "workload/tpcc.h"

#include <algorithm>
#include <bit>
#include <memory>
#include <utility>
#include <vector>

#include "doc/update.h"
#include "util/check.h"
#include "workload/key_chooser.h"

namespace dcg::workload {
namespace {

// Stock Level's threshold is drawn uniformly from [lo, hi].
constexpr int64_t kStockLevelThresholdLo = 10;
constexpr int64_t kStockLevelThresholdHi = 20;

// Collection names.
constexpr char kWarehouse[] = "warehouse";
constexpr char kDistrict[] = "district";
constexpr char kCustomer[] = "customer";
constexpr char kItem[] = "item";
constexpr char kStock[] = "stock";
constexpr char kOrders[] = "orders";
constexpr char kNewOrder[] = "new_order";
constexpr char kHistory[] = "history";
constexpr char kOrdersByCustomer[] = "orders_by_customer";

doc::Value DistrictId(int w, int d) {
  return doc::Value::List({int64_t{w}, int64_t{d}});
}
doc::Value CustomerId(int w, int d, int c) {
  return doc::Value::List({int64_t{w}, int64_t{d}, int64_t{c}});
}
doc::Value OrderId(int w, int d, int64_t o) {
  return doc::Value::List({int64_t{w}, int64_t{d}, o});
}
doc::Value StockId(int w, int64_t i) {
  return doc::Value::List({int64_t{w}, i});
}

// The encodings of those ids, spelled from their components: a
// transaction body builds each key once and passes it to every read and
// write of that document.
doc::KeyString DistrictKey(int w, int d) {
  doc::KeyStringBuilder key;
  key.OpenArray().AppendInt(w).AppendInt(d).CloseArray();
  return key.key();
}
doc::KeyString CustomerKey(int w, int d, int c) {
  doc::KeyStringBuilder key;
  key.OpenArray().AppendInt(w).AppendInt(d).AppendInt(c).CloseArray();
  return key.key();
}
doc::KeyString OrderKey(int w, int d, int64_t o) {
  doc::KeyStringBuilder key;
  key.OpenArray().AppendInt(w).AppendInt(d).AppendInt(o).CloseArray();
  return key.key();
}
doc::KeyString StockKey(int w, int64_t i) {
  doc::KeyStringBuilder key;
  key.OpenArray().AppendInt(w).AppendInt(i).CloseArray();
  return key.key();
}

int64_t GetInt(const doc::Value& d, std::string_view field) {
  const doc::Value* v = d.Find(field);
  DCG_CHECK(v != nullptr && v->is_int64());
  return v->as_int64();
}

double GetNumber(const doc::Value& d, std::string_view field) {
  const doc::Value* v = d.Find(field);
  DCG_CHECK(v != nullptr && v->is_number());
  return v->as_number();
}

// Fresh shapes of the documents the transactions insert; Load builds the
// first three too.
doc::ShapeRef OrderShape() {
  return doc::ShapeRef({"_id", "o_w_id", "o_d_id", "o_c_id", "o_entry_d",
                        "o_ol_cnt", "o_carrier_id", "o_delivery_d",
                        "o_lines"});
}
doc::ShapeRef LineShape() {
  return doc::ShapeRef({"ol_i_id", "ol_quantity", "ol_amount"});
}
doc::ShapeRef NewOrderShape() { return doc::ShapeRef({"_id"}); }
doc::ShapeRef HistoryShape() {
  return doc::ShapeRef(
      {"_id", "h_w_id", "h_d_id", "h_c_id", "h_amount", "h_date"});
}

// Builds one order document. `lines` entries: {ol_i_id, ol_quantity,
// ol_amount}; they move into the order, where an initializer list would
// copy every line twice.
doc::Value MakeOrderDoc(const doc::ShapeRef& shape, int w, int d, int64_t o,
                        int c, sim::Time entry, doc::Array lines,
                        bool delivered, int carrier) {
  doc::Array values;
  values.reserve(shape->size());
  values.push_back(OrderId(w, d, o));
  values.emplace_back(int64_t{w});
  values.emplace_back(int64_t{d});
  values.emplace_back(int64_t{c});
  values.push_back(doc::Value::Timestamp(entry));
  values.emplace_back(static_cast<int64_t>(lines.size()));
  values.push_back(delivered ? doc::Value(int64_t{carrier}) : doc::Value());
  values.push_back(delivered ? doc::Value::Timestamp(entry) : doc::Value());
  values.emplace_back(std::move(lines));
  return doc::Value(doc::Object(shape, std::move(values)));
}

doc::Value MakeLine(const doc::ShapeRef& shape, int64_t item, int64_t qty,
                    double amount) {
  return doc::Value::Doc(shape, {item, qty, amount});
}

}  // namespace

StockLevelProbes::StockLevelProbes(const TpccConfig& config)
    : items_(config.items),
      recent_(config.stock_level_orders),
      marked_(static_cast<size_t>(config.items) / 64 + 1) {}

std::span<const doc::KeyString> StockLevelProbes::Build(
    const store::Database& db, int w, int d) {
  probes_.clear();
  const store::Collection* districts = db.Get(kDistrict);
  const store::Collection* orders = db.Get(kOrders);
  if (districts == nullptr || orders == nullptr) return probes_;
  store::DocPtr district = districts->FindById(DistrictKey(w, d));
  if (district == nullptr) return probes_;
  const int64_t next_o = GetInt(*district, "d_next_o_id");
  const int64_t lo = std::max<int64_t>(1, next_o - recent_);
  for (const store::DocPtr& order :
       orders->RangeById(OrderKey(w, d, lo), OrderKey(w, d, next_o - 1))) {
    const doc::Value* lines = order->Find("o_lines");
    if (lines == nullptr) continue;
    for (const doc::Value& line : lines->as_array()) {
      const int64_t item = GetInt(line, "ol_i_id");
      DCG_CHECK_MSG(item >= 1 && item <= items_,
                    "ol_i_id %lld outside [1, %lld]",
                    static_cast<long long>(item),
                    static_cast<long long>(items_));
      marked_[static_cast<size_t>(item) / 64] |= uint64_t{1} << (item % 64);
    }
  }
  // The set bits, lowest first, are the distinct items in ascending order;
  // walking them also clears the bitmap for the next call. Every probe
  // [w, item] extends the one encoded prefix [w,.
  doc::KeyStringBuilder id;
  id.OpenArray().AppendInt(w);
  const size_t prefix = id.size();
  for (size_t word = 0; word < marked_.size(); ++word) {
    for (uint64_t bits = std::exchange(marked_[word], 0); bits != 0;
         bits &= bits - 1) {
      id.Truncate(prefix);
      id.AppendInt(static_cast<int64_t>(word * 64 + std::countr_zero(bits)))
          .CloseArray();
      probes_.push_back(id.key());
    }
  }
  return probes_;
}

TpccWorkload::TpccWorkload(driver::MongoClient* client,
                           core::RoutingPolicy* policy, TpccConfig config,
                           sim::Rng rng)
    : client_(client),
      policy_(policy),
      config_(config),
      stock_probes_(config_),
      order_shape_(OrderShape()),
      line_shape_(LineShape()),
      new_order_shape_(NewOrderShape()),
      history_shape_(HistoryShape()),
      rng_(std::move(rng)) {
  const double total = config_.mix.stock_level + config_.mix.delivery +
                       config_.mix.order_status + config_.mix.payment +
                       config_.mix.new_order;
  DCG_CHECK_MSG(total > 0.999 && total < 1.001, "TPC-C mix must sum to 1");
}

int TpccWorkload::RandomWarehouse() {
  return static_cast<int>(rng_.UniformInt(1, config_.warehouses));
}
int TpccWorkload::RandomDistrict() {
  return static_cast<int>(rng_.UniformInt(1, config_.districts_per_warehouse));
}
int TpccWorkload::RandomCustomer() {
  return static_cast<int>(
      NURand(&rng_, 1023, 1, config_.customers_per_district, 7));
}
int64_t TpccWorkload::RandomItem() {
  return NURand(&rng_, 8191, 1, config_.items, 13);
}

void TpccWorkload::Load(const TpccConfig& config, store::Database* db) {
  sim::Rng rng(0x79cc5eedULL);
  // One shape per collection, shared by every document loaded into it.
  const doc::ShapeRef item_shape({"_id", "i_name", "i_price"});
  const doc::ShapeRef warehouse_shape({"_id", "w_name", "w_tax", "w_ytd"});
  const doc::ShapeRef stock_shape(
      {"_id", "s_quantity", "s_ytd", "s_order_cnt", "s_remote_cnt"});
  const doc::ShapeRef district_shape({"_id", "d_tax", "d_ytd", "d_next_o_id",
                                      "d_next_del_o_id", "d_oldest_o_id"});
  const doc::ShapeRef customer_shape(
      {"_id", "c_last", "c_credit", "c_balance", "c_ytd_payment",
       "c_payment_cnt", "c_delivery_cnt"});
  const doc::ShapeRef order_shape = OrderShape();
  const doc::ShapeRef line_shape = LineShape();
  const doc::ShapeRef new_order_shape = NewOrderShape();

  store::Collection& items = db->GetOrCreate(kItem);
  for (int64_t i = 1; i <= config.items; ++i) {
    items.Upsert(doc::Value::Doc(item_shape,
                                 {i, "item-" + std::to_string(i),
                                  1.0 + rng.NextDouble() * 99.0}));
  }

  store::Collection& warehouses = db->GetOrCreate(kWarehouse);
  store::Collection& districts = db->GetOrCreate(kDistrict);
  store::Collection& customers = db->GetOrCreate(kCustomer);
  store::Collection& stock = db->GetOrCreate(kStock);
  store::Collection& orders = db->GetOrCreate(kOrders);
  store::Collection& new_orders = db->GetOrCreate(kNewOrder);
  db->GetOrCreate(kHistory);

  for (int w = 1; w <= config.warehouses; ++w) {
    warehouses.Upsert(doc::Value::Doc(
        warehouse_shape, {int64_t{w}, "wh-" + std::to_string(w),
                          rng.NextDouble() * 0.2, 300000.0}));
    for (int64_t i = 1; i <= config.items; ++i) {
      stock.Upsert(doc::Value::Doc(
          stock_shape, {StockId(w, i), rng.UniformInt(10, 100), int64_t{0},
                        int64_t{0}, int64_t{0}}));
    }
    for (int d = 1; d <= config.districts_per_warehouse; ++d) {
      const int64_t initial = config.initial_orders_per_district;
      // Oldest ~70 % of the initial orders are delivered; the tail is
      // still pending in new_order, as TPC-C's load spec prescribes.
      const int64_t first_undelivered = initial * 7 / 10 + 1;
      districts.Upsert(doc::Value::Doc(
          district_shape, {DistrictId(w, d), rng.NextDouble() * 0.2, 30000.0,
                           initial + 1, first_undelivered, int64_t{1}}));
      for (int c = 1; c <= config.customers_per_district; ++c) {
        customers.Upsert(doc::Value::Doc(
            customer_shape,
            {CustomerId(w, d, c), "customer-" + std::to_string(c),
             (rng.NextDouble() < 0.1) ? "BC" : "GC", -10.0, 10.0,
             int64_t{1}, int64_t{0}}));
      }
      for (int64_t o = 1; o <= initial; ++o) {
        const int c = static_cast<int>(
            (o - 1) % config.customers_per_district + 1);
        const int64_t ol_cnt = rng.UniformInt(5, 15);
        doc::Array lines;
        lines.reserve(static_cast<size_t>(ol_cnt));
        for (int64_t l = 0; l < ol_cnt; ++l) {
          lines.push_back(MakeLine(line_shape, rng.UniformInt(1, config.items),
                                   rng.UniformInt(1, 10),
                                   1.0 + rng.NextDouble() * 999.0));
        }
        const bool delivered = o < first_undelivered;
        orders.Upsert(MakeOrderDoc(order_shape, w, d, o, c, /*entry=*/0,
                                   std::move(lines), delivered,
                                   static_cast<int>(rng.UniformInt(1, 10))));
        if (!delivered) {
          new_orders.Upsert(
              doc::Value::Doc(new_order_shape, {OrderId(w, d, o)}));
        }
      }
    }
  }
  orders.CreateIndex(kOrdersByCustomer, {"o_w_id", "o_d_id", "o_c_id"});
}

void TpccWorkload::Issue(int /*client_idx*/, Done done) {
  const double u = rng_.NextDouble();
  const TpccMix& mix = config_.mix;
  if (u < mix.stock_level) {
    DoStockLevel(std::move(done));
  } else if (u < mix.stock_level + mix.delivery) {
    DoDelivery(std::move(done));
  } else if (u < mix.stock_level + mix.delivery + mix.order_status) {
    DoOrderStatus(std::move(done));
  } else if (u <
             mix.stock_level + mix.delivery + mix.order_status + mix.payment) {
    DoPayment(std::move(done));
  } else {
    DoNewOrder(std::move(done));
  }
}

// Stock Level (read-only): how many of the items in the district's last 20
// orders have stock below a threshold.
void TpccWorkload::DoStockLevel(Done done) {
  ++stock_level_count_;
  const int w = RandomWarehouse();
  const int d = RandomDistrict();
  const int64_t threshold = rng_.UniformInt(kStockLevelThresholdLo,
                                            kStockLevelThresholdHi);
  const driver::ReadPreference pref = policy_->ChooseReadPreference(&rng_);
  client_->Read(
      pref, server::OpClass::kTpccStockLevel,
      [this, w, d, threshold](const store::Database& db) {
        const store::Collection* stock = db.Get(kStock);
        if (stock == nullptr) return;
        // Ascending stock ids: one pass over the stock tree (an $in).
        int64_t low_stock = 0;
        for (const store::DocPtr& s :
             stock->FindManyById(stock_probes_.Build(db, w, d))) {
          if (s != nullptr && GetInt(*s, "s_quantity") < threshold) {
            ++low_stock;
          }
        }
      },
      [done = std::move(done)](const driver::OpResult& r) {
        done(OpOutcome("stock_level", r));
      });
}

void TpccWorkload::DoNewOrder(Done done) {
  ++new_order_count_;
  const int w = RandomWarehouse();
  const int d = RandomDistrict();
  const int c = RandomCustomer();
  const int64_t ol_cnt = rng_.UniformInt(5, 15);
  struct LineReq {
    int64_t item;
    int64_t qty;
  };
  std::vector<LineReq> reqs;
  reqs.reserve(static_cast<size_t>(ol_cnt));
  for (int64_t l = 0; l < ol_cnt; ++l) {
    reqs.push_back({RandomItem(), rng_.UniformInt(1, 10)});
  }
  const bool abort = rng_.Bernoulli(config_.new_order_abort_rate);

  client_->Write(
      server::OpClass::kTpccNewOrder,
      [this, w, d, c, reqs = std::move(reqs), abort](repl::TxnContext* ctx) {
        const store::Collection* districts = ctx->db().Get(kDistrict);
        const doc::KeyString district_key = DistrictKey(w, d);
        store::DocPtr district = districts->FindById(district_key);
        DCG_CHECK(district != nullptr);
        const int64_t o = GetInt(*district, "d_next_o_id");
        doc::UpdateSpec bump;
        bump.Inc("d_next_o_id", int64_t{1});
        ctx->Update(kDistrict, district_key, bump);

        const store::Collection* items = ctx->db().Get(kItem);
        const store::Collection* stock = ctx->db().Get(kStock);
        doc::Array lines;
        lines.reserve(reqs.size());
        for (const LineReq& req : reqs) {
          store::DocPtr item = items->FindById(doc::Value(req.item));
          DCG_CHECK(item != nullptr);
          const double amount =
              GetNumber(*item, "i_price") * static_cast<double>(req.qty);
          const doc::KeyString stock_key = StockKey(w, req.item);
          store::DocPtr s = stock->FindById(stock_key);
          DCG_CHECK(s != nullptr);
          int64_t new_q = GetInt(*s, "s_quantity") - req.qty;
          if (new_q < 10) new_q += 91;
          doc::UpdateSpec stock_update;
          stock_update.Set("s_quantity", new_q)
              .Inc("s_ytd", req.qty)
              .Inc("s_order_cnt", int64_t{1});
          ctx->Update(kStock, stock_key, stock_update);
          lines.push_back(MakeLine(line_shape_, req.item, req.qty, amount));
        }

        ctx->Insert(kOrders, MakeOrderDoc(order_shape_, w, d, o, c,
                                          client_->loop().Now(),
                                          std::move(lines),
                                          /*delivered=*/false, /*carrier=*/0));
        ctx->Insert(kNewOrder,
                    doc::Value::Doc(new_order_shape_, {OrderId(w, d, o)}));

        // Archival cap: drop the district's oldest order in the same
        // transaction once it holds too many (memory-bounding measure,
        // see DESIGN.md).
        const int64_t oldest = GetInt(*district, "d_oldest_o_id");
        if (o - oldest >= config_.max_orders_per_district) {
          const doc::KeyString oldest_key = OrderKey(w, d, oldest);
          ctx->Remove(kOrders, oldest_key);
          ctx->Remove(kNewOrder, oldest_key);  // may be absent
          doc::UpdateSpec adv;
          adv.Inc("d_oldest_o_id", int64_t{1});
          ctx->Update(kDistrict, district_key, adv);
        }

        if (abort) {
          // TPC-C: 1 % of New Orders hit an unused item id on their last
          // line and roll back.
          ctx->Abort();
        }
      },
      [this, done = std::move(done)](const driver::OpResult& r) {
        if (r.ok && !r.committed) ++new_order_aborts_;
        done(OpOutcome("new_order", r));
      });
}

void TpccWorkload::DoPayment(Done done) {
  ++payment_count_;
  const int w = RandomWarehouse();
  const int d = RandomDistrict();
  const int c = RandomCustomer();
  const double amount = 1.0 + rng_.NextDouble() * 4999.0;
  const int64_t history_id = next_history_id_++;

  client_->Write(
      server::OpClass::kTpccPayment,
      [this, w, d, c, amount, history_id](repl::TxnContext* ctx) {
        doc::UpdateSpec w_up;
        w_up.Inc("w_ytd", amount);
        ctx->Update(kWarehouse, doc::Value(int64_t{w}), w_up);
        doc::UpdateSpec d_up;
        d_up.Inc("d_ytd", amount);
        ctx->Update(kDistrict, DistrictKey(w, d), d_up);
        doc::UpdateSpec c_up;
        c_up.Inc("c_balance", -amount)
            .Inc("c_ytd_payment", amount)
            .Inc("c_payment_cnt", int64_t{1});
        const bool ok = ctx->Update(kCustomer, CustomerKey(w, d, c), c_up);
        DCG_CHECK(ok);
        ctx->Insert(kHistory,
                    doc::Value::Doc(history_shape_,
                                    {history_id, int64_t{w}, int64_t{d},
                                     int64_t{c}, amount,
                                     doc::Value::Timestamp(
                                         client_->loop().Now())}));
      },
      [done = std::move(done)](const driver::OpResult& r) {
        done(OpOutcome("payment", r));
      });
}

// Order Status (read-only): a customer's most recent order and its lines.
void TpccWorkload::DoOrderStatus(Done done) {
  ++order_status_count_;
  const int w = RandomWarehouse();
  const int d = RandomDistrict();
  const int c = RandomCustomer();
  const driver::ReadPreference pref = policy_->ChooseReadPreference(&rng_);
  client_->Read(
      pref, server::OpClass::kTpccOrderStatus,
      [this, w, d, c](const store::Database& db) {
        const store::Collection* customers = db.Get(kCustomer);
        const store::Collection* orders = db.Get(kOrders);
        if (customers == nullptr || orders == nullptr) return;
        store::DocPtr customer = customers->FindById(CustomerKey(w, d, c));
        if (customer == nullptr) return;
        std::vector<doc::Value> prefix = {doc::Value(int64_t{w}),
                                          doc::Value(int64_t{d}),
                                          doc::Value(int64_t{c})};
        std::vector<store::DocPtr> mine =
            orders->IndexScan(kOrdersByCustomer, prefix, prefix);
        if (mine.empty()) return;
        const store::DocPtr& last = mine.back();  // highest order id
        (void)last->Find("o_lines");
      },
      [done = std::move(done)](const driver::OpResult& r) {
        done(OpOutcome("order_status", r));
      });
}

void TpccWorkload::DoDelivery(Done done) {
  ++delivery_count_;
  const int w = RandomWarehouse();
  const int64_t carrier = rng_.UniformInt(1, 10);

  client_->Write(
      server::OpClass::kTpccDelivery,
      [this, w, carrier](repl::TxnContext* ctx) {
        for (int d = 1; d <= config_.districts_per_warehouse; ++d) {
          const store::Collection* districts = ctx->db().Get(kDistrict);
          const doc::KeyString district_key = DistrictKey(w, d);
          store::DocPtr district = districts->FindById(district_key);
          DCG_CHECK(district != nullptr);
          int64_t o = GetInt(*district, "d_next_del_o_id");
          const int64_t next_o = GetInt(*district, "d_next_o_id");
          const store::Collection* new_orders = ctx->db().Get(kNewOrder);
          // Skip archival gaps (bounded walk).
          int walked = 0;
          while (o < next_o && walked < 25 &&
                 !new_orders->ContainsId(OrderKey(w, d, o))) {
            ++o;
            ++walked;
          }
          if (o >= next_o) continue;  // nothing deliverable right now
          const doc::KeyString order_key = OrderKey(w, d, o);
          if (!new_orders->ContainsId(order_key)) continue;

          ctx->Remove(kNewOrder, order_key);
          const store::Collection* orders = ctx->db().Get(kOrders);
          store::DocPtr order = orders->FindById(order_key);
          DCG_CHECK(order != nullptr);
          double total = 0.0;
          for (const doc::Value& line : order->Find("o_lines")->as_array()) {
            total += GetNumber(line, "ol_amount");
          }
          const int64_t o_c_id = GetInt(*order, "o_c_id");

          doc::UpdateSpec order_up;
          order_up.Set("o_carrier_id", carrier)
              .Set("o_delivery_d",
                   doc::Value::Timestamp(client_->loop().Now()));
          ctx->Update(kOrders, order_key, order_up);

          doc::UpdateSpec cust_up;
          cust_up.Inc("c_balance", total).Inc("c_delivery_cnt", int64_t{1});
          const bool ok = ctx->Update(
              kCustomer, CustomerKey(w, d, static_cast<int>(o_c_id)), cust_up);
          DCG_CHECK(ok);

          doc::UpdateSpec dist_up;
          dist_up.Set("d_next_del_o_id", o + 1);
          ctx->Update(kDistrict, district_key, dist_up);
        }
      },
      [done = std::move(done)](const driver::OpResult& r) {
        done(OpOutcome("delivery", r));
      });
}

}  // namespace dcg::workload
