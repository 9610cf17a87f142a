#ifndef DCG_PROTO_OP_CONTEXT_H_
#define DCG_PROTO_OP_CONTEXT_H_

#include <cstdint>

#include "repl/oplog.h"
#include "sim/time.h"

namespace dcg::proto {

/// Per-operation context threaded end-to-end through the command layer
/// (driver → net → server → repl → core), mirroring what a real driver
/// attaches to every wire command: an id for tracing and retryable-write
/// dedup, a maxTimeMS-style deadline, the causal-session token, and the
/// attempt/hedge bookkeeping the client uses to interpret replies.
struct OpContext {
  /// Unique per logical operation; retries and hedges of the same
  /// operation share it. 0 = unset (internal traffic).
  uint64_t op_id = 0;

  /// Logical session of the issuing client (MongoDB's lsid): op ids are
  /// unique only within it, so the retryable-write table is kept per
  /// session. Handed out by the CommandBus the client dials.
  uint64_t session = 0;

  /// The issuing client's lowest op id not yet finished (its next op id
  /// when none is live). Every op below it has been answered, so no
  /// attempt of it will be retried: the server may forget those ops'
  /// transaction records and refuse their late attempts.
  uint64_t answered_below = 0;

  /// Absolute simulated time by which the client wants an answer; 0 = no
  /// deadline. Enforced client-side (a dropped message is silent — the
  /// server may never see the command), but shipped to the server so it
  /// could shed already-dead work in a future PR.
  sim::Time deadline = 0;

  /// Causal-session token (afterClusterTime): the serving node must have
  /// applied at least this optime before executing a read.
  repl::OpTime after_cluster_time;

  /// 0 for the first attempt, incremented per retry. Tracing only.
  int attempt = 0;

  /// True for the speculative second request of a hedged read.
  bool is_hedge = false;

  /// Pool connection carrying this attempt (echoed in the reply, so the
  /// client can tell which of an op's checked-out connections a reply
  /// actually rode — the one that may be reused). 0 = pool-less traffic
  /// (hello/ping/serverStatus bypass the pool, like monitoring sockets in
  /// real drivers).
  uint64_t conn_id = 0;

  /// Span id of the client-side attempt (or hedge arm) that sent this
  /// command; server-side spans (wire, parking, service) parent under it.
  /// 0 = untraced. The op_id doubles as the trace id unless `trace_id`
  /// overrides it.
  uint64_t parent_span = 0;

  /// Trace the spans of this operation belong to when it is a sub-op of a
  /// larger one (a router fanning a client op to shards keeps the client
  /// op's trace here, so all legs link into one tree). 0 = op_id is the
  /// trace id.
  uint64_t trace_id = 0;

  /// Instant the client put the command on the wire, so the server can
  /// record the request's wire-transit span. 0 = untraced.
  sim::Time sent_at = 0;
};

}  // namespace dcg::proto

#endif  // DCG_PROTO_OP_CONTEXT_H_
