#include "workload/s_workload.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "doc/update.h"
#include "util/check.h"

namespace dcg::workload {
namespace {
constexpr int64_t kProbeId = 0;
}  // namespace

SWorkload::SWorkload(driver::MongoClient* client,
                     std::function<bool()> secondary_in_use,
                     SWorkloadConfig config, sim::Rng rng,
                     std::function<void(double)> on_sample)
    : client_(client),
      secondary_in_use_(std::move(secondary_in_use)),
      config_(std::move(config)),
      rng_(std::move(rng)),
      on_sample_(std::move(on_sample)) {}

void SWorkload::Load(const SWorkloadConfig& config, store::Database* db) {
  store::Collection& coll = db->GetOrCreate(config.collection);
  coll.Upsert(doc::Value::Doc(
      {{"_id", kProbeId}, {"ts", doc::Value::Timestamp(0)}}));
}

void SWorkload::Start() {
  WriterLoop();
  ReaderLoop();
}

void SWorkload::WriterLoop() {
  const sim::Time issued_at = client_->loop().Now();
  doc::UpdateSpec spec;
  spec.Set("ts", doc::Value::Timestamp(issued_at));
  client_->Write(
      server::OpClass::kUpdate,
      [this, spec = std::move(spec)](repl::TxnContext* ctx) {
        const bool ok =
            ctx->Update(config_.collection, doc::Value(kProbeId), spec);
        DCG_CHECK(ok);
      },
      [this](const driver::OpResult&) {
        ++writes_completed_;
        // Closed loop with a floor interval: at least as fast as the
        // reader, but it backs off naturally when the primary is slow.
        client_->loop().ScheduleAfter(config_.write_interval,
                                      [this] { WriterLoop(); });
      });
}

void SWorkload::ReaderLoop() {
  struct ProbeState {
    sim::Time primary_ts = -1;
    sim::Time secondary_ts = -1;
    // The timestamps are filled in server-side (by the read bodies), so
    // both may already be set when the *first* completion callback runs;
    // this flag makes sure only one callback finishes the probe.
    bool finished = false;
  };
  auto state = std::make_shared<ProbeState>();

  auto read_ts = [this](const store::Database& db) -> sim::Time {
    const store::Collection* coll = db.Get(config_.collection);
    if (coll == nullptr) return 0;
    store::DocPtr d = coll->FindById(doc::Value(kProbeId));
    if (d == nullptr) return 0;
    const doc::Value* ts = d->Find("ts");
    return ts == nullptr ? 0 : ts->as_timestamp();
  };

  const bool probe_secondary =
      secondary_in_use_ ? secondary_in_use_() : true;
  auto maybe_finish = [this, state, probe_secondary] {
    if (state->finished || state->primary_ts < 0 || state->secondary_ts < 0) {
      return;
    }
    state->finished = true;
    // When both probes went to the primary (application not using
    // secondaries), the value is fresh by definition; comparing the two
    // reads would only measure their scheduling skew.
    const double staleness =
        !probe_secondary
            ? 0.0
            : std::max(0.0,
                       sim::ToSeconds(state->primary_ts -
                                      state->secondary_ts));
    ++probes_completed_;
    max_staleness_seen_ = std::max(max_staleness_seen_, staleness);
    if (on_sample_) on_sample_(staleness);
    client_->loop().ScheduleAfter(config_.probe_interval,
                                  [this] { ReaderLoop(); });
  };

  // Control-plane probes: keep them out of the balancer's latency lists
  // and never hedge them (a hedge could answer from a different node than
  // the one being measured).
  driver::OpOptions probe_opts;
  probe_opts.hedge_eligible = false;
  probe_opts.record_latency = false;
  client_->Read(
      driver::ReadPreference::kPrimary, server::OpClass::kPointRead,
      [state, read_ts](const store::Database& db) {
        state->primary_ts = read_ts(db);
      },
      [maybe_finish](const driver::OpResult&) { maybe_finish(); },
      probe_opts);
  client_->Read(
      probe_secondary ? driver::ReadPreference::kSecondary
                      : driver::ReadPreference::kPrimary,
      server::OpClass::kPointRead,
      [state, read_ts](const store::Database& db) {
        state->secondary_ts = read_ts(db);
      },
      [maybe_finish](const driver::OpResult&) { maybe_finish(); },
      probe_opts);
}

}  // namespace dcg::workload
