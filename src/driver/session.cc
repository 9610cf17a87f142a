#include "driver/session.h"

#include <utility>

namespace dcg::driver {

void CausalSession::Read(ReadPreference pref, server::OpClass op_class,
                         proto::ReadBody body, MongoClient::Done done,
                         OpOptions opts) {
  opts.after_cluster_time = operation_time_;
  client_->Read(
      pref, op_class, std::move(body),
      [this, done = std::move(done)](const OpResult& r) {
        if (r.ok) Advance(r.operation_time);
        if (done) done(r);
      },
      std::move(opts));
}

void CausalSession::Write(server::OpClass op_class, proto::TxnBody body,
                          MongoClient::Done done, repl::WriteConcern concern,
                          OpOptions opts) {
  client_->Write(
      op_class, std::move(body),
      [this, done = std::move(done)](const OpResult& r) {
        if (r.ok) Advance(r.operation_time);
        if (done) done(r);
      },
      concern, opts);
}

}  // namespace dcg::driver
