#include "workload/ycsb.h"

#include <memory>
#include <utility>

#include "util/check.h"

namespace dcg::workload {
namespace {

std::string FieldName(int i) { return "field" + std::to_string(i); }

// Deterministic filler text: content doesn't matter, size does.
std::string FieldValue(sim::Rng* rng, int length) {
  std::string s(static_cast<size_t>(length), 'x');
  for (char& c : s) {
    c = static_cast<char>('a' + rng->UniformInt(0, 25));
  }
  return s;
}

}  // namespace

YcsbWorkload::YcsbWorkload(driver::MongoClient* client,
                           core::RoutingPolicy* policy, YcsbConfig config,
                           sim::Rng rng)
    : client_(client),
      policy_(policy),
      config_(config),
      rng_(std::move(rng)),
      key_chooser_(config.record_count, config.zipfian_theta) {}

void YcsbWorkload::Load(const YcsbConfig& config, store::Database* db,
                        const std::function<bool(int64_t)>& keep) {
  // A fixed seed independent of the experiment seed: every node loads the
  // byte-identical snapshot. The RNG is consumed for every record even
  // when `keep` filters it out, so a shard's kept records carry the same
  // field bytes they would in the unsharded snapshot.
  sim::Rng rng(0x5eed5eedULL);
  store::Collection& table = db->GetOrCreate(config.table);
  for (int64_t key = 0; key < config.record_count; ++key) {
    doc::Object fields;
    fields.reserve(static_cast<size_t>(config.field_count) + 1);
    fields.emplace_back("_id", doc::Value(key));
    for (int f = 0; f < config.field_count; ++f) {
      fields.emplace_back(FieldName(f),
                          doc::Value(FieldValue(&rng, config.field_length)));
    }
    if (keep != nullptr && !keep(key)) continue;
    const bool inserted = table.Insert(doc::Value(std::move(fields)));
    DCG_CHECK(inserted);
  }
}

void YcsbWorkload::Issue(int /*client_idx*/, Done done) {
  if (rng_.Bernoulli(config_.read_proportion)) {
    IssueRead(std::move(done));
  } else {
    IssueUpdate(std::move(done));
  }
}

void YcsbWorkload::IssueRead(Done done) {
  ++reads_issued_;
  const int64_t key = key_chooser_.Next(&rng_);
  const driver::ReadPreference pref = policy_->ChooseReadPreference(&rng_);
  driver::OpOptions opts;
  if (config_.stamp_route) {
    opts.route.collection = config_.table;
    opts.route.has_key = true;
    opts.route.key = doc::Value(key);
  }
  auto found = std::make_shared<bool>(false);
  client_->Read(
      pref, server::OpClass::kPointRead,
      [this, key, found](const store::Database& db) {
        const store::Collection* table = db.Get(config_.table);
        *found = table != nullptr &&
                 table->FindById(doc::Value(key)) != nullptr;
      },
      [this, found, done = std::move(done)](const driver::OpResult& r) {
        // Latency feedback to the balancer flows through the driver's
        // completion path — no per-workload reporting.
        if (r.ok && !*found) ++missing_reads_;
        done(OpOutcome("read", r));
      },
      std::move(opts));
}

void YcsbWorkload::IssueUpdate(Done done) {
  ++updates_issued_;
  const int64_t key = key_chooser_.Next(&rng_);
  const int field = static_cast<int>(
      rng_.UniformInt(0, config_.field_count - 1));
  doc::UpdateSpec spec;
  spec.Set(FieldName(field),
           doc::Value(FieldValue(&rng_, config_.field_length)));
  driver::OpOptions opts;
  if (config_.stamp_route) {
    opts.route.collection = config_.table;
    opts.route.has_key = true;
    opts.route.key = doc::Value(key);
  }
  client_->Write(
      server::OpClass::kUpdate,
      [this, key, spec = std::move(spec)](repl::TxnContext* ctx) {
        const bool ok = ctx->Update(config_.table, doc::Value(key), spec);
        DCG_CHECK_MSG(ok, "YCSB update of missing key");
      },
      [done = std::move(done)](const driver::OpResult& r) {
        done(OpOutcome("update", r));
      },
      repl::WriteConcern::kW1, std::move(opts));
}

}  // namespace dcg::workload
