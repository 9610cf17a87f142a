#include "shard/router.h"

#include <utility>

#include "util/check.h"

namespace dcg::shard {

Router::Router(sim::EventLoop* loop, sim::Rng rng, net::Network* network,
               net::HostId host, ConfigShards* config_shards,
               std::vector<proto::CommandBus*> shard_buses,
               RouterConfig config)
    : loop_(loop),
      rng_(std::move(rng)),
      network_(network),
      host_(host),
      config_shards_(config_shards),
      config_(std::move(config)),
      bus_(network),
      cache_(config_shards->Snapshot()) {
  const int shards = static_cast<int>(shard_buses.size());
  DCG_CHECK(shards >= 1);
  // The router IS the service on its own bus: one registered host, so a
  // driver dialing this bus sees a 1-node topology whose "primary" is the
  // router. Registration order defines node index 0.
  bus_.RegisterService(host_,
                       [this](proto::Command c) { Handle(std::move(c)); });
  bus_.RegisterEnvelopeService(
      host_, [this](proto::Envelope e) { HandleEnvelope(std::move(e)); });
  budget_ = std::make_unique<core::StalenessBudget>(
      config_.balancer.stale_bound_seconds, shards);
  routed_to_shard_.assign(static_cast<size_t>(shards), 0);
  for (int s = 0; s < shards; ++s) {
    stacks_.push_back(std::make_unique<core::ClientStack>(
        loop_, &rng_, shard_buses[s], host_, config_.shard_client_options,
        config_.balancer, config_.routing));
    // Every shard balancer gates against the one shared budget: the
    // client-wide StaleBound is a joint constraint, not N private ones.
    if (core::ReadBalancer* balancer = stacks_.back()->balancer()) {
      balancer->SetStalenessBudget(budget_.get(), s);
    }
  }
}

Router::~Router() = default;

void Router::Start() {
  // Every sub-client starts before any balancer: their first probes draw
  // network jitter in this order.
  for (auto& stack : stacks_) stack->client().Start();
  for (auto& stack : stacks_) {
    if (stack->balancer() != nullptr) stack->balancer()->Start();
  }
}

void Router::SetTracer(obs::Tracer* tracer) {
  tracer_ = tracer;
  for (auto& stack : stacks_) stack->client().SetTracer(tracer);
}

void Router::Handle(proto::Command command) {
  ++commands_served_;
  switch (command.kind) {
    case proto::CommandKind::kPing:
    case proto::CommandKind::kHello: {
      RoutedOp op;
      op.cmd = std::move(command);
      op.arrived = loop_->Now();
      Reply(op, proto::Reply{});
      return;
    }
    case proto::CommandKind::kServerStatus: {
      // A mongos has no replication progress of its own; staleness lives
      // with the shards (and, cluster-wide, in the StalenessBudget). An
      // empty snapshot reads as estimate 0.
      RoutedOp op;
      op.cmd = std::move(command);
      op.arrived = loop_->Now();
      proto::Reply reply;
      reply.server_status.generated_at = loop_->Now();
      Reply(op, std::move(reply));
      return;
    }
    case proto::CommandKind::kFind:
    case proto::CommandKind::kWrite: {
      auto op = std::make_shared<RoutedOp>();
      op->cmd = std::move(command);
      op->arrived = loop_->Now();
      if (tracing() && op->cmd.ctx.op_id != 0) {
        op->router_span = tracer_->NewSpanId();
      }
      if (op->cmd.kind == proto::CommandKind::kWrite) {
        DCG_CHECK_MSG(op->cmd.route.has_key,
                      "router write needs a shard-key value in RouteInfo");
        ++routed_writes_;
        DispatchPoint(op);
      } else if (op->cmd.route.has_key) {
        ++routed_reads_;
        DispatchPoint(op);
      } else {
        DCG_CHECK_MSG(op->cmd.find_spec != nullptr,
                      "router cannot scatter an opaque ReadBody — "
                      "ship a FindSpec or a shard-key value");
        ++scatter_finds_;
        ScatterFind(op);
      }
      return;
    }
  }
}

void Router::HandleEnvelope(proto::Envelope envelope) {
  // No CPU model on the router: an envelope just unbundles. The batching
  // amortisation it bought lives on the client→router wire (one message)
  // and in the shards' envelope cost tables when sub-ops re-batch.
  for (proto::Command& command : envelope.commands) {
    Handle(std::move(command));
  }
}

bool Router::MakeSubOptions(const RoutedOp& op,
                            driver::OpOptions* opts) const {
  const proto::OpContext& ctx = op.cmd.ctx;
  if (ctx.deadline == 0) {
    opts->deadline = 0;  // explicitly none (-1 would mean "client default")
  } else {
    // maxTimeMS across the fan-out: sub-ops get exactly the time the
    // client has left, so no shard leg can outlive the client's promise.
    const sim::Duration remaining = ctx.deadline - loop_->Now();
    if (remaining <= 0) return false;
    opts->deadline = remaining;
  }
  opts->trace_id = ctx.trace_id != 0 ? ctx.trace_id : ctx.op_id;
  opts->parent_span = op.router_span;
  return true;
}

driver::ReadPreference Router::ChoosePreference(int shard) {
  return stack(shard).policy().ChooseReadPreference(&rng_);
}

void Router::DispatchPoint(const std::shared_ptr<RoutedOp>& op) {
  ++op->route_attempts;
  DCG_CHECK_MSG(op->route_attempts <= 16,
                "router re-route loop: chunk moves outpace refreshes");
  const proto::Command& cmd = op->cmd;
  const int64_t chunk = cache_->ChunkIdFor(cmd.route.key);
  const int shard = cache_->chunk(chunk).shard;
  driver::OpOptions opts;
  if (!MakeSubOptions(*op, &opts)) return;  // client already past deadline
  opts.route = cmd.route;
  opts.route.chunk_id = chunk;
  opts.route.shard_version = cache_->version();
  ++routed_to_shard_[static_cast<size_t>(shard)];
  auto done = [this, op](const driver::OpResult& result) {
    OnPointResult(op, result);
  };
  if (cmd.kind == proto::CommandKind::kWrite) {
    shard_client(shard).Write(cmd.op_class, cmd.txn_body, done, cmd.concern,
                              opts);
    return;
  }
  // The Read Preference decision is made *per shard* by that shard's own
  // policy — congestion is detected and relieved shard by shard, under
  // the one shared staleness budget.
  const driver::ReadPreference pref = ChoosePreference(shard);
  if (cmd.find_spec != nullptr) {
    shard_client(shard).Find(pref, cmd.op_class, cmd.find_spec, done, opts);
  } else if (cmd.ctx.after_cluster_time.seq > 0) {
    shard_client(shard).ReadAfter(pref, cmd.ctx.after_cluster_time,
                                  cmd.op_class, cmd.read_body, done, opts);
  } else {
    shard_client(shard).Read(pref, cmd.op_class, cmd.read_body, done, opts);
  }
}

void Router::RefreshAndRetry(const std::shared_ptr<RoutedOp>& op) {
  ++stale_refreshes_;
  cache_ = config_shards_->Snapshot();
  DispatchPoint(op);
}

void Router::OnPointResult(const std::shared_ptr<RoutedOp>& op,
                           const driver::OpResult& result) {
  if (result.stale_config) {
    // Admission refused the version before any body ran — nothing was
    // applied, so the post-refresh re-route cannot duplicate a write.
    RefreshAndRetry(op);
    return;
  }
  // Sub-op died on the client deadline: stay silent — the client's own
  // maxTimeMS timer is already speaking for this op.
  if (!result.ok) return;
  proto::Reply reply;
  reply.committed = result.committed;
  reply.operation_time = result.operation_time;
  reply.from_primary = !result.used_secondary;
  reply.find_result = result.find;
  Reply(*op, std::move(reply));
}

void Router::ScatterFind(const std::shared_ptr<RoutedOp>& op) {
  const proto::Command& cmd = op->cmd;
  auto gather = std::make_shared<Gather>();
  gather->op = op;
  gather->parts.resize(stacks_.size());
  driver::OpOptions base;
  if (!MakeSubOptions(*op, &base)) return;
  base.route.collection = cmd.find_spec->collection;
  // Scatter sub-reads go unversioned (shard_version 0): they target every
  // shard by definition, so there is no placement to validate. A chunk
  // moving mid-scatter can double- or zero-count its documents — the same
  // window a real mongos closes with per-shard versions; partial-results
  // semantics already accept weaker answers here.
  if (cmd.ctx.deadline != 0 && cmd.find_spec->allow_partial) {
    const sim::Time fire_at = cmd.ctx.deadline - config_.partial_results_margin;
    if (fire_at > loop_->Now()) {
      gather->partial_timer = loop_->ScheduleAt(fire_at, [this, gather] {
        gather->partial_timer = 0;
        // No shard answered: an empty "partial" would read as a genuinely
        // empty result. Silence lets the client's deadline fail the op.
        if (gather->replied || gather->answered == 0) return;
        FinishScatter(gather, /*partial=*/true);
      });
    }
  }
  for (int s = 0; s < shard_count(); ++s) {
    const driver::ReadPreference pref = ChoosePreference(s);
    shard_client(s).Find(
        pref, cmd.op_class, cmd.find_spec,
        [this, gather, s](const driver::OpResult& result) {
          if (gather->replied) return;  // partial reply already went out
          if (!result.ok || result.find == nullptr) return;
          gather->parts[static_cast<size_t>(s)] = result.find;
          if (++gather->answered == shard_count()) {
            // Every shard answered: the merged reply leaves now, so the
            // client-observed latency is the slowest shard's — mongos
            // scatter-gather semantics.
            FinishScatter(gather, /*partial=*/false);
          }
        },
        base);
  }
}

void Router::FinishScatter(const std::shared_ptr<Gather>& gather,
                           bool partial) {
  gather->replied = true;
  if (gather->partial_timer != 0) {
    loop_->Cancel(gather->partial_timer);
    gather->partial_timer = 0;
  }
  if (partial) ++partial_replies_;
  const proto::FindSpec& spec = *gather->op->cmd.find_spec;
  auto merged = std::make_shared<proto::FindResult>();
  merged->partial = partial;
  merged->shards_answered = gather->answered;
  if (spec.count_only) {
    for (const auto& part : gather->parts) {
      if (part != nullptr) merged->count += part->count;
    }
  } else if (spec.sort_field.empty()) {
    // No sort: concatenate in shard order (deterministic), honoring limit.
    for (const auto& part : gather->parts) {
      if (part == nullptr) continue;
      for (const doc::Value& d : part->docs) {
        if (merged->docs.size() >= spec.limit) break;
        merged->docs.push_back(d);
      }
    }
    merged->count = merged->docs.size();
  } else {
    // K-way merge: each shard returned its matches already ordered by the
    // sort key, so repeatedly taking the best head reconstructs the global
    // order. Ties break toward the lower shard index (deterministic).
    const doc::Path path = spec.sort_field;
    const doc::Value null_key;
    const auto key_of = [&](const doc::Value& d) -> const doc::Value& {
      const doc::Value* k = d.FindPath(path);
      return k != nullptr ? *k : null_key;
    };
    std::vector<size_t> pos(gather->parts.size(), 0);
    while (merged->docs.size() < spec.limit) {
      int best = -1;
      for (int s = 0; s < static_cast<int>(gather->parts.size()); ++s) {
        const auto& part = gather->parts[static_cast<size_t>(s)];
        if (part == nullptr || pos[static_cast<size_t>(s)] >= part->docs.size()) {
          continue;
        }
        if (best < 0) {
          best = s;
          continue;
        }
        const auto& head = part->docs[pos[static_cast<size_t>(s)]];
        const auto& best_head =
            gather->parts[static_cast<size_t>(best)]
                ->docs[pos[static_cast<size_t>(best)]];
        const int cmp = key_of(head).Compare(key_of(best_head));
        if (spec.sort_descending ? cmp > 0 : cmp < 0) best = s;
      }
      if (best < 0) break;
      merged->docs.push_back(
          gather->parts[static_cast<size_t>(best)]
              ->docs[pos[static_cast<size_t>(best)]]);
      ++pos[static_cast<size_t>(best)];
    }
    merged->count = merged->docs.size();
  }
  proto::Reply reply;
  reply.from_primary = true;  // a merged answer has no single serving node
  reply.find_result = std::move(merged);
  Reply(*gather->op, std::move(reply));
}

proto::HelloReply Router::MakeHello() const {
  proto::HelloReply hello;
  hello.node_index = 0;
  hello.is_primary = true;  // the router is always "primary" of its bus
  hello.primary_index = 0;
  hello.term = 1;
  return hello;
}

void Router::Reply(const RoutedOp& op, proto::Reply reply) {
  const proto::Command& cmd = op.cmd;
  reply.op_id = cmd.ctx.op_id;
  reply.kind = cmd.kind;
  reply.node_index = 0;
  reply.is_hedge = cmd.ctx.is_hedge;
  reply.conn_id = cmd.ctx.conn_id;
  if (tracing() && cmd.ctx.op_id != 0) {
    reply.sent_at = loop_->Now();
    if (op.router_span != 0) {
      // The router leg: arrival → merged reply send. Sub-ops parented
      // their spans under this id while it was open; recording happens
      // once, here, like every other span owner.
      obs::SpanRecord span;
      span.trace_id =
          cmd.ctx.trace_id != 0 ? cmd.ctx.trace_id : cmd.ctx.op_id;
      span.span_id = op.router_span;
      span.parent_span_id = cmd.ctx.parent_span;
      span.kind = obs::SpanKind::kRouter;
      span.start = op.arrived;
      span.end = loop_->Now();
      span.attempt = cmd.ctx.attempt;
      span.is_hedge = cmd.ctx.is_hedge;
      tracer_->Record(span);
    }
  }
  // Hello piggyback on every reply, like any CommandService — the driver
  // refreshes its (1-node) topology view from whatever traffic flows.
  reply.hello = MakeHello();
  auto on_reply = cmd.on_reply;
  network_->Send(host_, cmd.reply_to,
                 [on_reply = std::move(on_reply), reply = std::move(reply)] {
                   if (on_reply) on_reply(reply);
                 });
}

}  // namespace dcg::shard
