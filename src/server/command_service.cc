#include "server/command_service.h"

#include <utility>

namespace dcg::server {

namespace {
/// Poll interval for a parked causal read waiting on afterClusterTime —
/// the same cadence the old client-side park loop used.
constexpr sim::Duration kClusterTimePoll = sim::Millis(5);

/// Runs a structured find against one node's data. A missing collection
/// matches nothing (MongoDB finds against a dropped namespace are empty).
std::shared_ptr<const proto::FindResult> ExecuteFindSpec(
    const proto::FindSpec& spec, const store::Database& db) {
  auto result = std::make_shared<proto::FindResult>();
  const store::Collection* coll = db.Get(spec.collection);
  if (coll == nullptr) return result;
  if (spec.count_only) {
    result->count = coll->Count(spec.filter);
    return result;
  }
  store::FindOptions options;
  options.sort_path = spec.sort_field;
  options.sort_descending = spec.sort_descending;
  options.limit = spec.limit;
  result->docs = coll->FindWith(spec.filter, options);
  result->count = result->docs.size();
  return result;
}
}  // namespace

CommandService::CommandService(sim::EventLoop* loop, net::Network* network,
                               CommandBackend* backend, int node_index,
                               net::HostId host)
    : loop_(loop),
      network_(network),
      backend_(backend),
      node_(node_index),
      host_(host) {}

void CommandService::RecordSpan(const proto::OpContext& ctx,
                                obs::SpanKind kind, sim::Time start,
                                sim::Time end) {
  obs::SpanRecord span;
  span.trace_id = ctx.trace_id != 0 ? ctx.trace_id : ctx.op_id;
  span.span_id = tracer_->NewSpanId();
  span.parent_span_id = ctx.parent_span;
  span.kind = kind;
  span.start = start;
  span.end = end;
  span.node = node_;
  span.attempt = ctx.attempt;
  span.is_hedge = ctx.is_hedge;
  tracer_->Record(span);
}

void CommandService::Handle(proto::CommandPtr command) {
  // A dead node is silent: commands arriving after the crash vanish, like
  // connections reset by a downed mongod. Clients notice via timeouts.
  if (!backend_->NodeAlive(node_)) return;
  ++commands_served_;
  // Traced() implies the client stamped sent_at (both happen together in
  // SendAttempt), so a sim-start send at t=0 still gets its wire span.
  if (Traced(command->ctx)) {
    RecordSpan(command->ctx, obs::SpanKind::kWire, command->ctx.sent_at,
               loop_->Now());
  }
  switch (command->kind) {
    case proto::CommandKind::kPing:
    case proto::CommandKind::kHello:
      // Answered off the heartbeat executor — no CPU queueing, so
      // topology monitoring stays responsive on a congested node.
      SendReply(*command, proto::Reply{});
      return;
    case proto::CommandKind::kFind:
    case proto::CommandKind::kWrite:
      // Sharding admission: a versioned command naming a chunk this shard
      // no longer owns is rejected here, before any body runs — a stale
      // write applies nothing, so the router's re-route cannot duplicate.
      if (admission_check_ && !admission_check_(*command)) {
        proto::Reply reply;
        reply.status = proto::ReplyStatus::kStaleConfig;
        SendReply(*command, std::move(reply));
        return;
      }
      if (command->kind == proto::CommandKind::kFind) {
        HandleFind(std::move(command));
      } else {
        HandleWrite(std::move(command));
      }
      return;
    case proto::CommandKind::kServerStatus:
      HandleServerStatus(std::move(command));
      return;
  }
}

void CommandService::HandleEnvelope(proto::Envelope envelope) {
  if (!backend_->NodeAlive(node_)) return;
  if (envelope.commands.empty()) return;
  ServerNode& server = backend_->NodeServer(node_);
  // One base charge for the whole envelope (message framing, dispatch,
  // lock acquisition), then every member goes through the normal Handle
  // switch carrying the amortisation discount. The discount is stamped
  // here — the cost model is server-owned; drivers never see it.
  const double fraction = server.params().service.envelope_op_fraction;
  server.ExecuteWithCost(
      server.params().service.envelope_base,
      [this, envelope = std::move(envelope), fraction]() mutable {
        for (proto::CommandPtr& command : envelope.commands) {
          command->cost_scale = fraction;
          Handle(std::move(command));
        }
      });
}

void CommandService::HandleFind(proto::CommandPtr command) {
  if (command->require_primary && !IsPrimaryHere()) {
    proto::Reply reply;
    reply.status = proto::ReplyStatus::kNotPrimary;
    SendReply(*command, std::move(reply));
    return;
  }
  WaitForClusterTime(std::move(command), loop_->Now());
}

void CommandService::WaitForClusterTime(proto::CommandPtr command,
                                        sim::Time parked_at) {
  // Node died while the read was parked: abandon it silently (the client
  // attempt timeout takes over).
  if (!backend_->NodeAlive(node_)) return;
  if (backend_->NodeLastApplied(node_).seq <
      command->ctx.after_cluster_time.seq) {
    loop_->ScheduleAfter(
        kClusterTimePoll,
        [this, command = std::move(command), parked_at]() mutable {
          WaitForClusterTime(std::move(command), parked_at);
        });
    return;
  }
  // Only an actual wait earns a parking span (most reads pass straight
  // through; a zero-length span per read would be noise).
  if (Traced(command->ctx) && loop_->Now() > parked_at) {
    RecordSpan(command->ctx, obs::SpanKind::kServerParking, parked_at,
               loop_->Now());
  }
  ExecuteFind(std::move(command));
}

void CommandService::ExecuteFind(proto::CommandPtr command) {
  ServerNode& server = backend_->NodeServer(node_);
  const OpClass op_class = command->op_class;
  const double cost_scale = command->cost_scale;
  const sim::Time enqueued_at = loop_->Now();
  server.ExecuteScaled(op_class, cost_scale,
                       [this, command = std::move(command),
                        enqueued_at]() mutable {
    // Ops already in service when a node dies still complete — their
    // replies race the failure, exactly like in-flight responses do.
    std::shared_ptr<const proto::FindResult> find_result;
    if (command->find_spec != nullptr) {
      find_result = ExecuteFindSpec(*command->find_spec,
                                    backend_->NodeData(node_));
    } else {
      command->read_body(backend_->NodeData(node_));
    }
    if (Traced(command->ctx)) {
      // CPU queueing + service, together: the client-observable server
      // time the Balancer's Lss estimate is trying to recover.
      RecordSpan(command->ctx, obs::SpanKind::kServerService, enqueued_at,
                 loop_->Now());
    }
    proto::Reply reply;
    reply.find_result = std::move(find_result);
    reply.operation_time = backend_->NodeLastApplied(node_);
    reply.from_primary = IsPrimaryHere();
    SendReply(*command, std::move(reply));
  });
}

void CommandService::HandleWrite(proto::CommandPtr command) {
  if (!IsPrimaryHere()) {
    proto::Reply reply;
    reply.status = proto::ReplyStatus::kNotPrimary;
    SendReply(*command, std::move(reply));
    return;
  }
  proto::Command& cmd = *command;
  const sim::Time arrived_at = loop_->Now();
  backend_->CommitWrite(
      node_, cmd.op_class, std::move(cmd.txn_body), cmd.concern,
      RetryKey{cmd.ctx.session, cmd.ctx.op_id, cmd.ctx.answered_below},
      cmd.cost_scale,
      [this, command = std::move(command),
       arrived_at](const WriteOutcome& outcome) {
        if (Traced(command->ctx)) {
          // Queue + transaction execution (+ majority wait — the repl
          // layer records that slice separately as commit_wait).
          RecordSpan(command->ctx, obs::SpanKind::kServerService,
                     arrived_at, loop_->Now());
        }
        proto::Reply reply;
        if (!outcome.ok) {
          // The role was lost before the body ran (crash / election) —
          // nothing was applied; tell the client to go find the primary.
          reply.status = proto::ReplyStatus::kNotPrimary;
        } else {
          reply.committed = outcome.committed;
          reply.operation_time = outcome.operation_time;
        }
        reply.from_primary = IsPrimaryHere();
        SendReply(*command, std::move(reply));
      });
}

void CommandService::HandleServerStatus(proto::CommandPtr command) {
  if (!IsPrimaryHere()) {
    proto::Reply reply;
    reply.status = proto::ReplyStatus::kNotPrimary;
    SendReply(*command, std::move(reply));
    return;
  }
  ServerNode& server = backend_->NodeServer(node_);
  server.Execute(OpClass::kServerStatus,
                 [this, command = std::move(command)]() mutable {
                   proto::Reply reply;
                   reply.server_status = backend_->ServerStatusSnapshot();
                   reply.operation_time = backend_->NodeLastApplied(node_);
                   reply.from_primary = IsPrimaryHere();
                   SendReply(*command, std::move(reply));
                 });
}

bool CommandService::IsPrimaryHere() const {
  return backend_->NodeBelievedPrimary(node_) == node_;
}

proto::HelloReply CommandService::MakeHello() const {
  proto::HelloReply hello;
  hello.node_index = node_;
  hello.is_primary = IsPrimaryHere();
  hello.primary_index = backend_->NodeBelievedPrimary(node_);
  hello.term = backend_->NodeTerm(node_);
  hello.last_applied = backend_->NodeLastApplied(node_);
  return hello;
}

void CommandService::SendReply(proto::Command& command,
                               proto::Reply reply) {
  reply.op_id = command.ctx.op_id;
  reply.kind = command.kind;
  reply.node_index = node_;
  reply.is_hedge = command.ctx.is_hedge;
  reply.conn_id = command.ctx.conn_id;
  // Stamped only for traced ops, so the client can record the reply's
  // wire-transit span when it arrives.
  if (Traced(command.ctx)) reply.sent_at = loop_->Now();
  // Every reply piggybacks a hello snapshot, so drivers refresh their
  // topology view from whatever traffic flows (a kNotPrimary reply names
  // the real primary, accelerating failover recovery).
  reply.hello = MakeHello();
  network_->Send(host_, command.reply_to,
                 [on_reply = std::move(command.on_reply),
                  reply = std::make_unique<proto::Reply>(std::move(reply))] {
                   if (on_reply) on_reply(*reply);
                 });
}

}  // namespace dcg::server
