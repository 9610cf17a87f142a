#include "workload/tpcc.h"

#include <memory>
#include <algorithm>
#include <vector>
#include <utility>

#include "doc/update.h"
#include "util/check.h"
#include "workload/key_chooser.h"

namespace dcg::workload {
namespace {

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

// Builds one order document. `lines` entries: {ol_i_id, ol_quantity,
// ol_amount}.
doc::Value MakeOrderDoc(int w, int d, int64_t o, int c, sim::Time entry,
                        const doc::Array& lines, bool delivered,
                        int carrier) {
  doc::Value order = doc::Value::Doc({
      {"_id", OrderId(w, d, o)},
      {"o_w_id", int64_t{w}},
      {"o_d_id", int64_t{d}},
      {"o_c_id", int64_t{c}},
      {"o_entry_d", doc::Value::Timestamp(entry)},
      {"o_ol_cnt", static_cast<int64_t>(lines.size())},
      {"o_carrier_id", delivered ? doc::Value(int64_t{carrier})
                                 : doc::Value()},
      {"o_delivery_d",
       delivered ? doc::Value::Timestamp(entry) : doc::Value()},
      {"o_lines", doc::Value(lines)},
  });
  return order;
}

doc::Value MakeLine(int64_t item, int64_t qty, double amount) {
  return doc::Value::Doc({{"ol_i_id", item},
                          {"ol_quantity", qty},
                          {"ol_amount", amount}});
}

}  // namespace

TpccWorkload::TpccWorkload(driver::MongoClient* client,
                           core::RoutingPolicy* policy, TpccConfig config,
                           sim::Rng rng)
    : client_(client),
      policy_(policy),
      config_(config),
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

  store::Collection& items = db->GetOrCreate(kItem);
  for (int64_t i = 1; i <= config.items; ++i) {
    items.Upsert(doc::Value::Doc(
        {{"_id", i},
         {"i_name", "item-" + std::to_string(i)},
         {"i_price", 1.0 + rng.NextDouble() * 99.0}}));
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
        {{"_id", int64_t{w}},
         {"w_name", "wh-" + std::to_string(w)},
         {"w_tax", rng.NextDouble() * 0.2},
         {"w_ytd", 300000.0}}));
    for (int64_t i = 1; i <= config.items; ++i) {
      stock.Upsert(doc::Value::Doc(
          {{"_id", StockId(w, i)},
           {"s_quantity", rng.UniformInt(10, 100)},
           {"s_ytd", int64_t{0}},
           {"s_order_cnt", int64_t{0}},
           {"s_remote_cnt", int64_t{0}}}));
    }
    for (int d = 1; d <= config.districts_per_warehouse; ++d) {
      const int64_t initial = config.initial_orders_per_district;
      // Oldest ~70 % of the initial orders are delivered; the tail is
      // still pending in new_order, as TPC-C's load spec prescribes.
      const int64_t first_undelivered = initial * 7 / 10 + 1;
      districts.Upsert(doc::Value::Doc(
          {{"_id", DistrictId(w, d)},
           {"d_tax", rng.NextDouble() * 0.2},
           {"d_ytd", 30000.0},
           {"d_next_o_id", initial + 1},
           {"d_next_del_o_id", first_undelivered},
           {"d_oldest_o_id", int64_t{1}}}));
      for (int c = 1; c <= config.customers_per_district; ++c) {
        customers.Upsert(doc::Value::Doc(
            {{"_id", CustomerId(w, d, c)},
             {"c_last", "customer-" + std::to_string(c)},
             {"c_credit", (rng.NextDouble() < 0.1) ? "BC" : "GC"},
             {"c_balance", -10.0},
             {"c_ytd_payment", 10.0},
             {"c_payment_cnt", int64_t{1}},
             {"c_delivery_cnt", int64_t{0}}}));
      }
      for (int64_t o = 1; o <= initial; ++o) {
        const int c = static_cast<int>(
            (o - 1) % config.customers_per_district + 1);
        const int64_t ol_cnt = rng.UniformInt(5, 15);
        doc::Array lines;
        for (int64_t l = 0; l < ol_cnt; ++l) {
          lines.push_back(MakeLine(rng.UniformInt(1, config.items),
                                   rng.UniformInt(1, 10),
                                   1.0 + rng.NextDouble() * 999.0));
        }
        const bool delivered = o < first_undelivered;
        orders.Upsert(MakeOrderDoc(w, d, o, c, /*entry=*/0, lines, delivered,
                                   static_cast<int>(rng.UniformInt(1, 10))));
        if (!delivered) {
          new_orders.Upsert(doc::Value::Doc({{"_id", OrderId(w, d, o)}}));
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
  const int64_t threshold = rng_.UniformInt(config_.stock_level_threshold_lo,
                                            config_.stock_level_threshold_hi);
  const driver::ReadPreference pref = policy_->ChooseReadPreference(&rng_);
  const int recent = config_.stock_level_orders;
  client_->Read(
      pref, server::OpClass::kTpccStockLevel,
      [this, w, d, threshold, recent](const store::Database& db) {
        const store::Collection* districts = db.Get(kDistrict);
        const store::Collection* orders = db.Get(kOrders);
        const store::Collection* stock = db.Get(kStock);
        if (districts == nullptr || orders == nullptr || stock == nullptr) {
          return;
        }
        store::DocPtr district = districts->FindById(DistrictId(w, d));
        if (district == nullptr) return;
        const int64_t next_o = GetInt(*district, "d_next_o_id");
        const int64_t lo = std::max<int64_t>(1, next_o - recent);
        std::vector<int64_t> item_ids;
        for (const store::DocPtr& order :
             orders->RangeById(OrderId(w, d, lo), OrderId(w, d, next_o - 1))) {
          const doc::Value* lines = order->Find("o_lines");
          if (lines == nullptr) continue;
          for (const doc::Value& line : lines->as_array()) {
            item_ids.push_back(GetInt(line, "ol_i_id"));
          }
        }
        std::sort(item_ids.begin(), item_ids.end());
        item_ids.erase(std::unique(item_ids.begin(), item_ids.end()),
                       item_ids.end());
        // Ascending stock ids: one pass over the stock tree (an $in).
        std::vector<doc::Value> stock_ids;
        stock_ids.reserve(item_ids.size());
        for (int64_t i : item_ids) stock_ids.push_back(StockId(w, i));
        int64_t low_stock = 0;
        for (const store::DocPtr& s : stock->FindManyById(stock_ids)) {
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
        store::DocPtr district = districts->FindById(DistrictId(w, d));
        DCG_CHECK(district != nullptr);
        const int64_t o = GetInt(*district, "d_next_o_id");
        doc::UpdateSpec bump;
        bump.Inc("d_next_o_id", int64_t{1});
        ctx->Update(kDistrict, DistrictId(w, d), bump);

        const store::Collection* items = ctx->db().Get(kItem);
        const store::Collection* stock = ctx->db().Get(kStock);
        doc::Array lines;
        for (const LineReq& req : reqs) {
          store::DocPtr item = items->FindById(doc::Value(req.item));
          DCG_CHECK(item != nullptr);
          const double amount =
              GetNumber(*item, "i_price") * static_cast<double>(req.qty);
          store::DocPtr s = stock->FindById(StockId(w, req.item));
          DCG_CHECK(s != nullptr);
          int64_t new_q = GetInt(*s, "s_quantity") - req.qty;
          if (new_q < 10) new_q += 91;
          doc::UpdateSpec stock_update;
          stock_update.Set("s_quantity", new_q)
              .Inc("s_ytd", req.qty)
              .Inc("s_order_cnt", int64_t{1});
          ctx->Update(kStock, StockId(w, req.item), stock_update);
          lines.push_back(MakeLine(req.item, req.qty, amount));
        }

        ctx->Insert(kOrders,
                    MakeOrderDoc(w, d, o, c, client_->loop().Now(), lines,
                                 /*delivered=*/false, /*carrier=*/0));
        ctx->Insert(kNewOrder, doc::Value::Doc({{"_id", OrderId(w, d, o)}}));

        // Archival cap: drop the district's oldest order in the same
        // transaction once it holds too many (memory-bounding measure,
        // see DESIGN.md).
        const int64_t oldest = GetInt(*district, "d_oldest_o_id");
        if (o - oldest >= config_.max_orders_per_district) {
          ctx->Remove(kOrders, OrderId(w, d, oldest));
          ctx->Remove(kNewOrder, OrderId(w, d, oldest));  // may be absent
          doc::UpdateSpec adv;
          adv.Inc("d_oldest_o_id", int64_t{1});
          ctx->Update(kDistrict, DistrictId(w, d), adv);
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
        ctx->Update(kDistrict, DistrictId(w, d), d_up);
        doc::UpdateSpec c_up;
        c_up.Inc("c_balance", -amount)
            .Inc("c_ytd_payment", amount)
            .Inc("c_payment_cnt", int64_t{1});
        const bool ok = ctx->Update(kCustomer, CustomerId(w, d, c), c_up);
        DCG_CHECK(ok);
        ctx->Insert(kHistory, doc::Value::Doc(
                                  {{"_id", history_id},
                                   {"h_w_id", int64_t{w}},
                                   {"h_d_id", int64_t{d}},
                                   {"h_c_id", int64_t{c}},
                                   {"h_amount", amount},
                                   {"h_date", doc::Value::Timestamp(
                                                  client_->loop().Now())}}));
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
        store::DocPtr customer = customers->FindById(CustomerId(w, d, c));
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
          store::DocPtr district = districts->FindById(DistrictId(w, d));
          DCG_CHECK(district != nullptr);
          int64_t o = GetInt(*district, "d_next_del_o_id");
          const int64_t next_o = GetInt(*district, "d_next_o_id");
          const store::Collection* new_orders = ctx->db().Get(kNewOrder);
          // Skip archival gaps (bounded walk).
          int walked = 0;
          while (o < next_o && walked < 25 &&
                 new_orders->FindById(OrderId(w, d, o)) == nullptr) {
            ++o;
            ++walked;
          }
          if (o >= next_o ||
              new_orders->FindById(OrderId(w, d, o)) == nullptr) {
            continue;  // nothing deliverable in this district right now
          }

          ctx->Remove(kNewOrder, OrderId(w, d, o));
          const store::Collection* orders = ctx->db().Get(kOrders);
          store::DocPtr order = orders->FindById(OrderId(w, d, o));
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
          ctx->Update(kOrders, OrderId(w, d, o), order_up);

          doc::UpdateSpec cust_up;
          cust_up.Inc("c_balance", total).Inc("c_delivery_cnt", int64_t{1});
          const bool ok = ctx->Update(
              kCustomer, CustomerId(w, d, static_cast<int>(o_c_id)), cust_up);
          DCG_CHECK(ok);

          doc::UpdateSpec dist_up;
          dist_up.Set("d_next_del_o_id", o + 1);
          ctx->Update(kDistrict, DistrictId(w, d), dist_up);
        }
      },
      [done = std::move(done)](const driver::OpResult& r) {
        done(OpOutcome("delivery", r));
      });
}

}  // namespace dcg::workload
