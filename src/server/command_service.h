#ifndef DCG_SERVER_COMMAND_SERVICE_H_
#define DCG_SERVER_COMMAND_SERVICE_H_

#include <cstdint>
#include <functional>

#include "net/network.h"
#include "obs/trace.h"
#include "proto/command.h"
#include "repl/oplog.h"
#include "repl/txn.h"
#include "server/server_node.h"
#include "sim/callback.h"
#include "sim/event_loop.h"

namespace dcg::server {

/// Outcome of a write commit attempt at the replication layer.
struct WriteOutcome {
  /// False: the node lost the primary role (crash, election) before the
  /// transaction body ran — nothing was applied, safe to retry elsewhere.
  bool ok = false;
  /// Valid when ok: whether the transaction committed (false = aborted).
  bool committed = false;
  /// The commit point (primary lastApplied after the transaction).
  repl::OpTime operation_time;
};

/// Identity of a retryable write: the issuing client's session, the op id
/// and the client's answered mark, as the command carried them. The
/// default (op id 0) is not retryable: the body runs on every call and
/// leaves no transaction record.
struct RetryKey {
  uint64_t session = 0;
  uint64_t op_id = 0;
  /// The client's lowest op id not yet finished (OpContext::answered_below).
  uint64_t answered_below = 0;

  bool retryable() const { return op_id != 0; }
};

/// Continuation of a write commit. Move-only, so it may own the command
/// it answers (a CommandPtr) without a shared control block.
using WriteDone = sim::UniqueFunction<void(const WriteOutcome&)>;

/// The replication-layer surface a CommandService dispatches into.
/// Implemented by repl::ReplicaSet; kept narrow so server/ does not
/// depend on replica-set internals.
class CommandBackend {
 public:
  virtual ~CommandBackend() = default;

  virtual bool NodeAlive(int idx) const = 0;
  /// Node `idx`'s own belief about who holds the primary role — term-
  /// scoped (each member answers from its topology coordinator; -1 while
  /// no writable leader is known). It may name a dead node between a
  /// crash and the next election — exactly the window hello exposes.
  virtual int NodeBelievedPrimary(int idx) const = 0;
  /// The election term node `idx` currently believes in. Piggybacked on
  /// every reply so drivers can order topology views.
  virtual uint64_t NodeTerm(int idx) const = 0;
  virtual repl::OpTime NodeLastApplied(int idx) const = 0;
  virtual const store::Database& NodeData(int idx) const = 0;
  virtual ServerNode& NodeServer(int idx) = 0;

  /// Commits a write transaction at node `node` — the member the command
  /// arrived at, which believes itself primary. The commit executes on
  /// that node's CPU and fails (ok=false) if it no longer leads the data
  /// plane at the commit instant, so at most one node can commit per
  /// term. A retryable `retry` enables retryable-write dedup: a re-sent
  /// op id whose first attempt already committed is acknowledged from the
  /// session's transaction record instead of being applied twice, and an
  /// attempt below the session's answered mark is acknowledged without
  /// running. `cost_scale` multiplies the transaction's CPU service
  /// sample — 1.0 for singleton commands, the envelope_op_fraction
  /// discount for members of a batched envelope.
  virtual void CommitWrite(int node, OpClass op_class, proto::TxnBody body,
                           repl::WriteConcern concern, RetryKey retry,
                           double cost_scale, WriteDone done) = 0;

  /// Primary-side replication-progress snapshot (serverStatus payload).
  virtual proto::ServerStatusReply ServerStatusSnapshot() = 0;
};

/// Per-node wire-protocol dispatcher: receives typed proto::Commands off
/// the network, runs them through the node's CPU queue and the local
/// store (or the replication layer, for writes), and ships the typed
/// reply back to the issuing client. This is the mongod command layer of
/// the model — the driver never touches replica-set internals; everything
/// it learns (topology, progress, data) arrives as a Reply.
///
/// Crash semantics match the rest of the repo: a command *arriving* at a
/// dead node is silently dropped (the TCP connection would have reset —
/// the client's attempt timeout notices), but operations already in
/// service when the node dies still complete, and their replies race the
/// failure.
class CommandService {
 public:
  /// Sharding admission check, run when a find/write begins dispatch —
  /// BEFORE any body executes, so a rejected write applies nothing.
  /// Returns false to reject the command with kStaleConfig (the command's
  /// RouteInfo named a chunk/version this shard no longer owns).
  using AdmissionCheck = std::function<bool(const proto::Command&)>;

  CommandService(sim::EventLoop* loop, net::Network* network,
                 CommandBackend* backend, int node_index, net::HostId host);

  CommandService(const CommandService&) = delete;
  CommandService& operator=(const CommandService&) = delete;

  /// Entry point the CommandBus dispatches into at message delivery. The
  /// command is passed by pointer through every later hop (parking, CPU
  /// queue, commit) until its reply is sent.
  void Handle(proto::CommandPtr command);

  /// Entry point for batched envelopes: charges one envelope_base CPU cost
  /// up front, then dispatches each member through Handle with the
  /// envelope_op_fraction discount stamped into its cost_scale. A dead
  /// node drops the whole envelope (one connection reset kills the batch —
  /// every member's client-side deadline notices).
  void HandleEnvelope(proto::Envelope envelope);

  /// Attaches the run's span tracer (nullptr detaches). Server-side spans
  /// — request wire transit, afterClusterTime parking, CPU service — are
  /// recorded under the client attempt span the command named.
  void SetTracer(obs::Tracer* tracer) { tracer_ = tracer; }

  /// Installs the sharding admission check (nullptr removes it). Only
  /// versioned commands (route.shard_version != 0) are ever rejected, so
  /// unrouted/internal traffic is unaffected.
  void SetAdmissionCheck(AdmissionCheck check) {
    admission_check_ = std::move(check);
  }

  int node_index() const { return node_; }
  net::HostId host() const { return host_; }
  uint64_t commands_served() const { return commands_served_; }

 private:
  void HandleFind(proto::CommandPtr command);
  /// Parks a causal read (afterClusterTime) until the local lastApplied
  /// catches up, polling like a real server's read-concern wait.
  /// `parked_at` is the instant the wait began (for the parking span).
  void WaitForClusterTime(proto::CommandPtr command, sim::Time parked_at);
  void ExecuteFind(proto::CommandPtr command);
  void HandleWrite(proto::CommandPtr command);
  void HandleServerStatus(proto::CommandPtr command);

  /// True when this command belongs to a traced client op.
  bool Traced(const proto::OpContext& ctx) const {
    return tracer_ != nullptr && tracer_->enabled() && ctx.parent_span != 0;
  }
  /// Records a server-side interval against the command's trace.
  void RecordSpan(const proto::OpContext& ctx, obs::SpanKind kind,
                  sim::Time start, sim::Time end);

  bool IsPrimaryHere() const;
  proto::HelloReply MakeHello() const;
  /// Fills the envelope (op id, kind, node, hello piggyback) and ships
  /// the reply, by pointer, over the network to the command's reply_to
  /// host. Takes the command's `on_reply`: the command is finished.
  void SendReply(proto::Command& command, proto::Reply reply);

  sim::EventLoop* loop_;
  net::Network* network_;
  CommandBackend* backend_;
  const int node_;
  const net::HostId host_;
  uint64_t commands_served_ = 0;
  obs::Tracer* tracer_ = nullptr;
  AdmissionCheck admission_check_;
};

}  // namespace dcg::server

#endif  // DCG_SERVER_COMMAND_SERVICE_H_
