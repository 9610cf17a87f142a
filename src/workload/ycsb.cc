#include "workload/ycsb.h"

#include <string_view>
#include <utility>
#include <vector>

#include "util/check.h"

namespace dcg::workload {
namespace {

/// Bytes of filler text per YCSB field.
constexpr int kFieldLength = 40;

// Filler text: no metric reads the bytes, only their size, so a value just
// has to stay distinct from the one it replaces. The 16 nibbles of `bits`,
// one letter each, repeat over the field, so distinct bits give distinct
// values. Written on the stack, so the value's block is the one allocation.
doc::Value FieldValue(uint64_t bits) {
  char s[kFieldLength];
  for (int i = 0; i < kFieldLength; ++i) {
    s[i] = static_cast<char>('a' + ((bits >> (4 * (i % 16))) & 0xf));
  }
  return doc::Value(std::string_view(s, kFieldLength));
}

// The loaded bits of one (key, field) slot: SplitMix64's finalizer, a
// bijection, so every slot of the snapshot holds a distinct value.
uint64_t SlotBits(int64_t key, int field) {
  uint64_t z = static_cast<uint64_t>(key) * kYcsbFieldCount +
               static_cast<uint64_t>(field);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

YcsbWorkload::YcsbWorkload(driver::MongoClient* client,
                           core::RoutingPolicy* policy, YcsbConfig config,
                           sim::Rng rng)
    : client_(client),
      policy_(policy),
      config_(config),
      rng_(std::move(rng)),
      key_chooser_(config.record_count, config.zipfian_theta),
      record_shape_(RecordShape()) {}

doc::ShapeRef YcsbWorkload::RecordShape() {
  std::vector<std::string> names;
  names.reserve(kYcsbFieldCount + 1);
  names.emplace_back("_id");
  for (int f = 0; f < kYcsbFieldCount; ++f) {
    names.push_back("field" + std::to_string(f));
  }
  return doc::ShapeRef(std::move(names));
}

void YcsbWorkload::Load(const YcsbConfig& config, store::Database* db,
                        const std::function<bool(int64_t)>& keep) {
  // Field values are a function of (key, field): every node loads the
  // same snapshot, and a shard's kept records equal the unsharded ones.
  store::Collection& table = db->GetOrCreate(config.table);
  const doc::ShapeRef shape = RecordShape();  // shared by every record
  for (int64_t key = 0; key < config.record_count; ++key) {
    if (keep != nullptr && !keep(key)) continue;
    doc::Array values;
    values.reserve(shape->size());
    values.emplace_back(key);
    for (int f = 0; f < kYcsbFieldCount; ++f) {
      values.push_back(FieldValue(SlotBits(key, f)));
    }
    const bool inserted =
        table.Insert(doc::Value(doc::Object(shape, std::move(values))));
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
  client_->Read(
      pref, server::OpClass::kPointRead,
      [this, key](const store::Database& db) {
        // Counted per served attempt: a hedged or retried read whose
        // every serving node has the key counts nothing.
        const store::Collection* table = db.Get(config_.table);
        if (table == nullptr || !table->ContainsId(doc::Value(key))) {
          ++missing_reads_;
        }
      },
      [done = std::move(done)](const driver::OpResult& r) {
        // Latency feedback to the balancer flows through the driver's
        // completion path — no per-workload reporting.
        done(OpOutcome("read", r));
      },
      std::move(opts));
}

void YcsbWorkload::IssueUpdate(Done done) {
  ++updates_issued_;
  const int64_t key = key_chooser_.Next(&rng_);
  const int field = static_cast<int>(rng_.UniformInt(0, kYcsbFieldCount - 1));
  doc::UpdateSpec spec;
  // Slot 0 is "_id"; field f is slot f + 1.
  spec.Set(record_shape_->name(static_cast<size_t>(field) + 1),
           FieldValue(rng_.NextU64()));
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
