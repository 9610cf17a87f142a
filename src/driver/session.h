#ifndef DCG_DRIVER_SESSION_H_
#define DCG_DRIVER_SESSION_H_

#include <functional>

#include "driver/client.h"

namespace dcg::driver {

/// A causally consistent client session (MongoDB's causal consistency,
/// which the paper points to in §1 for clients that need
/// read-your-own-writes on top of per-read routing).
///
/// The session tracks the highest operationTime it has seen; every read
/// issued through it carries that time as afterClusterTime, so a
/// secondary serving the read first waits until it has replicated the
/// session's writes. Routing freedom (primary vs secondary) is preserved;
/// only the visibility floor moves.
class CausalSession {
 public:
  explicit CausalSession(MongoClient* client) : client_(client) {}

  CausalSession(const CausalSession&) = delete;
  CausalSession& operator=(const CausalSession&) = delete;

  /// Read with the session's causal token: the serving node blocks until
  /// it has applied everything this session has seen. Retried attempts
  /// re-send the same token, so the causal floor survives re-selection.
  void Read(ReadPreference pref, server::OpClass op_class,
            proto::ReadBody body, MongoClient::Done done,
            OpOptions opts = {});

  /// Write through the session; advances the causal token to the commit
  /// point on acknowledgement.
  void Write(server::OpClass op_class, proto::TxnBody body,
             MongoClient::Done done,
             repl::WriteConcern concern = repl::WriteConcern::kW1,
             OpOptions opts = {});

  /// The highest operationTime observed by this session.
  const repl::OpTime& operation_time() const { return operation_time_; }

 private:
  void Advance(const repl::OpTime& t) {
    if (operation_time_ < t) operation_time_ = t;
  }

  MongoClient* client_;
  repl::OpTime operation_time_;
};

}  // namespace dcg::driver

#endif  // DCG_DRIVER_SESSION_H_
