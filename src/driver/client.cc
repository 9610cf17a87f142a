#include "driver/client.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "util/check.h"

namespace dcg::driver {

namespace {
/// Recent-read-latency window sizing the hedge-delay quantile estimate.
constexpr size_t kLatencyRingCapacity = 64;
}  // namespace

MongoClient::MongoClient(sim::EventLoop* loop, sim::Rng rng,
                         proto::CommandBus* bus, net::HostId client_host,
                         ClientOptions options)
    : loop_(loop),
      rng_(std::move(rng)),
      bus_(bus),
      network_(bus->network()),
      client_host_(client_host),
      options_(options) {
  if (options_.enforce_mongodb_min_staleness &&
      options_.max_staleness_seconds >= 0) {
    DCG_CHECK_MSG(options_.max_staleness_seconds >= 90,
                  "MongoDB requires maxStalenessSeconds >= 90");
  }
  const std::vector<net::HostId>& hosts = bus_->server_hosts();
  DCG_CHECK_MSG(!hosts.empty(), "command bus has no registered servers");
  servers_.resize(hosts.size());
  for (size_t i = 0; i < hosts.size(); ++i) {
    servers_[i].host = hosts[i];
    // Seed RTT estimates from link base RTTs (first handshake).
    servers_[i].rtt_ewma = network_->BaseRtt(client_host_, hosts[i]);
    pools_.push_back(
        std::make_unique<pool::ConnectionPool>(loop_, options_.pool));
  }
  batchers_.resize(hosts.size());
  DCG_CHECK_MSG(options_.batch_max_ops >= 1, "batch_max_ops must be >= 1");
}

size_t MongoClient::buffered_op_count() const {
  size_t n = 0;
  for (const NodeBatcher& b : batchers_) n += b.buffered.size();
  return n;
}

void MongoClient::Start() {
  if (started_) return;
  started_ = true;
  for (ServerDescription& sd : servers_) sd.last_heard = loop_->Now();
  // No-op unless minPoolSize / maxIdleTime are configured, so the default
  // pool adds no events to a run.
  for (auto& pool : pools_) pool->StartMaintenance();
  HelloLoop();
  ProbeLoop();
  if (options_.max_staleness_seconds >= 0) StalenessLoop();
}

pool::ConnectionPool::Stats MongoClient::PoolTotals() const {
  pool::ConnectionPool::Stats totals;
  for (const auto& pool : pools_) {
    const pool::ConnectionPool::Stats& s = pool->stats();
    totals.checkouts += s.checkouts;
    totals.checkout_timeouts += s.checkout_timeouts;
    totals.established += s.established;
    totals.destroyed += s.destroyed;
    totals.clears += s.clears;
    totals.max_queue_depth =
        std::max(totals.max_queue_depth, s.max_queue_depth);
    totals.wait_total += s.wait_total;
  }
  return totals;
}

int MongoClient::PoolQueueDepth() const {
  int depth = 0;
  for (const auto& pool : pools_) depth += pool->queue_depth();
  return depth;
}

int MongoClient::PoolCheckedOut() const {
  int out = 0;
  for (const auto& pool : pools_) out += pool->checked_out();
  return out;
}

void MongoClient::HelloLoop() {
  const sim::Time now = loop_->Now();
  for (int i = 0; i < node_count(); ++i) {
    ServerDescription& sd = servers_[i];
    if (sd.reachable && now - sd.last_heard >= options_.hello_timeout) {
      // Nothing heard for a full timeout: declare the server down and
      // fail its outstanding attempts over (connection-pool clear).
      sd.reachable = false;
      AbortAttemptsOn(i);
    }
    proto::Command cmd;
    cmd.kind = proto::CommandKind::kHello;
    cmd.reply_to = client_host_;
    cmd.on_reply = [this](const proto::Reply& reply) {
      MarkHeard(reply.node_index);
      AdoptTopology(reply.hello);
    };
    bus_->Send(client_host_, sd.host, std::move(cmd));
  }
  loop_->ScheduleAfter(options_.hello_interval, [this] { HelloLoop(); });
}

void MongoClient::ProbeLoop() {
  for (int i = 0; i < node_count(); ++i) {
    PingNode(i, [this, i](bool ok, sim::Duration rtt) {
      if (!ok) return;  // probe lost; reachability is the hello loop's job
      MarkHeard(i);
      const double alpha = options_.rtt_ewma_alpha;
      servers_[i].rtt_ewma = static_cast<sim::Duration>(
          alpha * static_cast<double>(rtt) +
          (1.0 - alpha) * static_cast<double>(servers_[i].rtt_ewma));
    });
  }
  loop_->ScheduleAfter(options_.rtt_probe_interval, [this] { ProbeLoop(); });
}

void MongoClient::StalenessLoop() {
  ServerStatus([this](const proto::ServerStatusReply& reply) {
    for (size_t i = 0; i < reply.secondary_last_applied.size(); ++i) {
      const int node = reply.secondary_nodes[i];
      const repl::OpTime& sec = reply.secondary_last_applied[i];
      if (sec.seq >= reply.primary_last_applied.seq) {
        servers_[node].staleness_s = 0;
      } else {
        servers_[node].staleness_s =
            (reply.primary_last_applied.wall - sec.wall) / sim::kSecond;
      }
    }
  });
  loop_->ScheduleAfter(options_.staleness_refresh_interval,
                       [this] { StalenessLoop(); });
}

std::vector<int> MongoClient::EligibleSecondaries() {
  const int primary = believed_primary_;
  std::vector<int> eligible;
  sim::Duration min_rtt = std::numeric_limits<sim::Duration>::max();
  for (int i = 0; i < node_count(); ++i) {
    if (i == primary || !servers_[i].reachable) continue;
    min_rtt = std::min(min_rtt, servers_[i].rtt_ewma);
  }
  for (int i = 0; i < node_count(); ++i) {
    if (i == primary || !servers_[i].reachable) continue;
    if (servers_[i].rtt_ewma > min_rtt + options_.selection_latency_window) {
      continue;
    }
    if (options_.max_staleness_seconds >= 0 &&
        servers_[i].staleness_s > options_.max_staleness_seconds) {
      continue;
    }
    eligible.push_back(i);
  }
  return eligible;
}

int MongoClient::SelectNode(ReadPreference pref) {
  const int primary = believed_primary_;
  const bool primary_alive = primary >= 0 && servers_[primary].reachable;
  switch (pref) {
    case ReadPreference::kPrimary:
      return primary_alive ? primary : kNoNode;
    case ReadPreference::kPrimaryPreferred: {
      if (primary_alive) return primary;
      std::vector<int> eligible = EligibleSecondaries();
      if (eligible.empty()) return kNoNode;
      return eligible[static_cast<size_t>(
          rng_.UniformInt(0, static_cast<int64_t>(eligible.size()) - 1))];
    }
    case ReadPreference::kSecondary:
    case ReadPreference::kSecondaryPreferred: {
      std::vector<int> eligible = EligibleSecondaries();
      if (eligible.empty()) {
        // kSecondary with no eligible node is an error in MongoDB; like
        // secondaryPreferred we fall back to the primary so workloads keep
        // running (the maxStaleness ablation relies on this).
        return primary_alive ? primary : kNoNode;
      }
      return eligible[static_cast<size_t>(
          rng_.UniformInt(0, static_cast<int64_t>(eligible.size()) - 1))];
    }
    case ReadPreference::kNearest: {
      int best = kNoNode;
      for (int i = 0; i < node_count(); ++i) {
        if (!servers_[i].reachable) continue;
        if (best < 0 || servers_[i].rtt_ewma < servers_[best].rtt_ewma) {
          best = i;
        }
      }
      return best;
    }
  }
  return primary_alive ? primary : kNoNode;
}

int MongoClient::SelectNodeExcluding(ReadPreference pref, int exclude) {
  if (exclude == kNoNode || pref == ReadPreference::kPrimary) {
    // kPrimary has no alternative server — re-selection re-resolves who
    // the primary is, which the topology refresh already moved.
    return SelectNode(pref);
  }
  if (pref == ReadPreference::kNearest) {
    int best = kNoNode;
    for (int i = 0; i < node_count(); ++i) {
      if (i == exclude || !servers_[i].reachable) continue;
      if (best < 0 || servers_[i].rtt_ewma < servers_[best].rtt_ewma) best = i;
    }
    return best != kNoNode ? best : SelectNode(pref);
  }
  const int primary = believed_primary_;
  const bool primary_alive = primary >= 0 && servers_[primary].reachable;
  if (pref == ReadPreference::kPrimaryPreferred && primary_alive &&
      primary != exclude) {
    return primary;
  }
  std::vector<int> eligible = EligibleSecondaries();
  eligible.erase(std::remove(eligible.begin(), eligible.end(), exclude),
                 eligible.end());
  if (!eligible.empty()) {
    return eligible[static_cast<size_t>(
        rng_.UniformInt(0, static_cast<int64_t>(eligible.size()) - 1))];
  }
  // No alternative exists; fall back to the normal rules (possibly the
  // same node — better than failing when it is the only one left).
  return SelectNode(pref);
}

void MongoClient::Read(ReadPreference pref, server::OpClass op_class,
                       proto::ReadBody body, Done done, OpOptions opts) {
  ReadAfter(pref, repl::OpTime{}, op_class, std::move(body), std::move(done),
            opts);
}

void MongoClient::ReadAfter(ReadPreference pref, const repl::OpTime& after,
                            server::OpClass op_class, proto::ReadBody body,
                            Done done, OpOptions opts) {
  PendingOp op;
  op.is_read = true;
  op.pref = pref;
  op.op_class = op_class;
  op.read_body = std::move(body);
  op.after = after;
  op.done = std::move(done);
  BeginOp(std::move(op), opts);
}

void MongoClient::Find(ReadPreference pref, server::OpClass op_class,
                       std::shared_ptr<const proto::FindSpec> spec, Done done,
                       OpOptions opts) {
  PendingOp op;
  op.is_read = true;
  op.pref = pref;
  op.op_class = op_class;
  op.find_spec = std::move(spec);
  op.done = std::move(done);
  BeginOp(std::move(op), opts);
}

void MongoClient::Write(server::OpClass op_class, proto::TxnBody body,
                        Done done, repl::WriteConcern concern,
                        OpOptions opts) {
  PendingOp op;
  op.is_read = false;
  op.pref = ReadPreference::kPrimary;
  op.op_class = op_class;
  op.txn_body = std::move(body);
  op.concern = concern;
  op.done = std::move(done);
  BeginOp(std::move(op), opts);
}

uint64_t MongoClient::BeginOp(PendingOp op, OpOptions opts) {
  const uint64_t op_id = next_op_id_++;
  op.start = loop_->Now();
  if (tracing()) op.op_span = tracer_->NewSpanId();
  op.max_retries =
      opts.max_retries == -2 ? options_.max_retries : opts.max_retries;
  op.hedge_eligible = opts.hedge_eligible;
  op.record_latency = opts.record_latency;
  op.route = std::move(opts.route);
  op.trace_override = opts.trace_id;
  op.parent_span_override = opts.parent_span;
  const sim::Duration deadline =
      opts.deadline < 0 ? options_.default_op_deadline : opts.deadline;
  if (deadline > 0) {
    op.deadline = op.start + deadline;
    op.deadline_timer =
        loop_->ScheduleAfter(deadline, [this, op_id] { OnDeadline(op_id); });
  }
  pending_[op_id] = std::move(op);
  StartAttempt(op_id);
  return op_id;
}

void MongoClient::StartAttempt(uint64_t op_id) {
  auto it = pending_.find(op_id);
  if (it == pending_.end()) return;
  PendingOp& op = it->second;
  op.backoff_timer = 0;
  int node = kNoNode;
  if (op.is_read) {
    node = SelectNodeExcluding(op.pref,
                               op.attempts_sent > 0 ? op.last_target : kNoNode);
  } else if (believed_primary_ >= 0 &&
             servers_[believed_primary_].reachable) {
    node = believed_primary_;
  }
  if (node == kNoNode) {
    // No selectable server right now (fail-over in progress): retry
    // server selection, as real drivers do. Selection waits do not burn
    // the retry budget — nothing was sent.
    op.backoff_timer =
        loop_->ScheduleAfter(options_.selection_retry_interval,
                             [this, op_id] { StartAttempt(op_id); });
    return;
  }
  op.target = node;
  ++op.attempts_sent;
  if (tracing()) {
    op.attempt_span = tracer_->NewSpanId();
    op.attempt_start = loop_->Now();
    op.checkout_start = loop_->Now();
  }
  if (options_.batching_enabled) {
    // The attempt parks in the node's coalescing buffer instead of
    // checking out its own connection; the flush path does both at once
    // for every buffered rider.
    EnqueueInBatch(op_id, node);
    return;
  }
  // Every attempt checks a connection out of the target node's pool
  // before it may touch the wire. With default pool options the checkout
  // completes synchronously (no queueing, no events), so the event
  // sequence matches the pre-pool driver exactly.
  const int attempt = op.attempts_sent;
  pools_[node]->CheckOut(
      [this, op_id, node, attempt](const pool::ConnectionPool::Checkout& co) {
        OnCheckout(op_id, node, attempt, co);
      });
}

void MongoClient::OnCheckout(uint64_t op_id, int node, int attempt,
                             const pool::ConnectionPool::Checkout& co) {
  auto it = pending_.find(op_id);
  if (it == pending_.end() || it->second.target != node ||
      it->second.attempts_sent != attempt) {
    // The op moved on while this checkout sat in the wait queue (completed
    // via a hedge, failed over, hit its deadline): the unused connection
    // goes straight back to the pool.
    if (co.ok) pools_[node]->CheckIn(co.conn_id);
    return;
  }
  PendingOp& op = it->second;
  if (tracing() && op.attempt_span != 0) {
    obs::SpanRecord span;
    span.trace_id = TraceId(op_id, op);
    span.span_id = tracer_->NewSpanId();
    span.parent_span_id = op.attempt_span;
    span.kind = obs::SpanKind::kCheckout;
    span.start = op.checkout_start;
    span.end = loop_->Now();
    span.node = node;
    span.attempt = attempt - 1;
    span.ok = co.ok;
    tracer_->Record(span);
  }
  if (!co.ok) {
    // waitQueueTimeoutMS fired: the pool is saturated. The failed
    // checkout burns one retry, so an exhausted pool cannot spin an op
    // forever — the retry budget / deadline still bound it.
    ++counters_.checkout_timeouts;
    RetryAttempt(op_id);
    return;
  }
  op.conn_id = co.conn_id;
  op.conn_node = node;
  op.checkout_wait += co.wait;
  ++counters_.checkouts;
  counters_.checkout_wait_total += co.wait;
  counters_.checkout_queue_peak = std::max(
      counters_.checkout_queue_peak, pools_[node]->stats().max_queue_depth);
  SendAttempt(op_id);
}

void MongoClient::SendAttempt(uint64_t op_id) {
  auto it = pending_.find(op_id);
  if (it == pending_.end()) return;
  PendingOp& op = it->second;
  const int node = op.target;

  proto::Command cmd;
  cmd.kind = op.is_read ? proto::CommandKind::kFind : proto::CommandKind::kWrite;
  cmd.ctx.op_id = op_id;
  cmd.ctx.deadline = op.deadline;
  cmd.ctx.after_cluster_time = op.after;
  cmd.ctx.attempt = op.attempts_sent - 1;
  cmd.ctx.conn_id = op.conn_id;
  cmd.ctx.checkout_wait = op.checkout_wait;
  cmd.ctx.trace_id = op.trace_override;
  if (tracing()) {
    cmd.ctx.parent_span = op.attempt_span;
    cmd.ctx.sent_at = loop_->Now();
  }
  cmd.op_class = op.op_class;
  cmd.require_primary = !op.is_read || op.pref == ReadPreference::kPrimary;
  cmd.read_body = op.read_body;  // copies: the op outlives any one attempt
  cmd.find_spec = op.find_spec;
  cmd.route = op.route;
  cmd.txn_body = op.txn_body;
  cmd.concern = op.concern;
  cmd.reply_to = client_host_;
  cmd.on_reply = [this, op_id](const proto::Reply& r) { OnReply(op_id, r); };
  bus_->Send(client_host_, servers_[node].host, std::move(cmd));

  if (options_.attempt_timeout > 0) {
    op.attempt_timer = loop_->ScheduleAfter(
        options_.attempt_timeout, [this, op_id] { OnAttemptTimeout(op_id); });
  }
  if (op.is_read && options_.hedged_reads && op.hedge_eligible &&
      op.pref != ReadPreference::kPrimary && op.attempts_sent == 1) {
    op.hedge_timer = loop_->ScheduleAfter(HedgeDelay(),
                                          [this, op_id] { OnHedgeTimer(op_id); });
  }
}

void MongoClient::EnqueueInBatch(uint64_t op_id, int node) {
  PendingOp& op = pending_.find(op_id)->second;
  op.buffered = true;
  NodeBatcher& batcher = batchers_[node];
  if (batcher.buffered.empty()) batcher.first_enqueue = loop_->Now();
  batcher.buffered.push_back(op_id);
  // Size trigger, plus the deadline escape hatch: an op that cannot
  // afford the flush delay forces the buffer out now, so batching never
  // pushes a tight maxTimeMS over its deadline while parked client-side.
  const bool full = static_cast<int>(batcher.buffered.size()) >=
                    options_.batch_max_ops;
  const bool deadline_imminent =
      op.deadline != 0 && op.deadline - loop_->Now() <= options_.batch_max_delay;
  if (full || deadline_imminent) {
    FlushBatch(node);
    return;
  }
  if (batcher.flush_timer == 0) {
    batcher.flush_timer =
        loop_->ScheduleAfter(options_.batch_max_delay, [this, node] {
          batchers_[node].flush_timer = 0;
          FlushBatch(node);
        });
  }
}

void MongoClient::RemoveFromBatch(uint64_t op_id, int node) {
  NodeBatcher& batcher = batchers_[node];
  batcher.buffered.erase(
      std::remove(batcher.buffered.begin(), batcher.buffered.end(), op_id),
      batcher.buffered.end());
  if (batcher.buffered.empty() && batcher.flush_timer != 0) {
    loop_->Cancel(batcher.flush_timer);
    batcher.flush_timer = 0;
    batcher.first_enqueue = 0;
  }
}

void MongoClient::FlushBatch(int node) {
  NodeBatcher& batcher = batchers_[node];
  if (batcher.flush_timer != 0) {
    loop_->Cancel(batcher.flush_timer);
    batcher.flush_timer = 0;
  }
  if (batcher.buffered.empty()) return;
  std::vector<BatchEntry> batch;
  batch.reserve(batcher.buffered.size());
  for (uint64_t id : batcher.buffered) {
    auto it = pending_.find(id);
    if (it == pending_.end()) continue;
    batch.push_back({id, it->second.attempts_sent});
  }
  batcher.buffered.clear();
  const sim::Time flush_start = batcher.first_enqueue;
  batcher.first_enqueue = 0;
  if (batch.empty()) return;
  // One checkout for the whole envelope. While it sits in a constrained
  // pool's wait queue, new attempts keep coalescing into the (now empty)
  // buffer and later flushes queue their own checkouts behind this one.
  pools_[node]->CheckOut(
      [this, node, batch = std::move(batch),
       flush_start](const pool::ConnectionPool::Checkout& co) mutable {
        OnEnvelopeCheckout(node, std::move(batch), flush_start, co);
      });
}

void MongoClient::OnEnvelopeCheckout(int node, std::vector<BatchEntry> batch,
                                     sim::Time flush_start,
                                     const pool::ConnectionPool::Checkout& co) {
  // Drop riders whose op moved on while the checkout queued (completed
  // via a hedge, failed over, hit its deadline) — same supersession rule
  // as the singleton OnCheckout, applied per member.
  std::vector<uint64_t> live;
  live.reserve(batch.size());
  for (const BatchEntry& entry : batch) {
    auto it = pending_.find(entry.op_id);
    if (it == pending_.end()) continue;
    const PendingOp& op = it->second;
    if (!op.buffered || op.target != node ||
        op.attempts_sent != entry.attempt) {
      continue;
    }
    live.push_back(entry.op_id);
  }
  if (!co.ok) {
    // waitQueueTimeoutMS fired on the shared checkout: one pool-timeout
    // event, but every rider burns a retry — an exhausted pool bounds
    // batched ops exactly like unbatched ones.
    ++counters_.checkout_timeouts;
    for (uint64_t id : live) RetryAttempt(id);
    return;
  }
  if (live.empty()) {
    pools_[node]->CheckIn(co.conn_id);
    return;
  }

  const uint64_t envelope_id = next_envelope_id_++;
  InflightEnvelope& env = envelopes_[envelope_id];
  env.node = node;
  env.conn_id = co.conn_id;
  env.outstanding = static_cast<int>(live.size());
  ++counters_.checkouts;
  counters_.checkout_wait_total += co.wait;
  counters_.checkout_queue_peak = std::max(
      counters_.checkout_queue_peak, pools_[node]->stats().max_queue_depth);
  ++counters_.envelopes_sent;
  counters_.ops_batched += live.size();
  batch_occupancy_.Add(static_cast<double>(live.size()));

  proto::Envelope envelope;
  envelope.commands.reserve(live.size());
  for (uint64_t id : live) {
    PendingOp& op = pending_.find(id)->second;
    op.buffered = false;
    op.envelope_id = envelope_id;
    op.checkout_wait += co.wait;
    proto::Command cmd;
    cmd.kind =
        op.is_read ? proto::CommandKind::kFind : proto::CommandKind::kWrite;
    cmd.ctx.op_id = id;
    cmd.ctx.deadline = op.deadline;
    cmd.ctx.after_cluster_time = op.after;
    cmd.ctx.attempt = op.attempts_sent - 1;
    cmd.ctx.conn_id = co.conn_id;
    cmd.ctx.checkout_wait = op.checkout_wait;
    cmd.ctx.trace_id = op.trace_override;
    if (tracing()) {
      cmd.ctx.parent_span = op.attempt_span;
      cmd.ctx.sent_at = loop_->Now();
    }
    cmd.op_class = op.op_class;
    cmd.require_primary = !op.is_read || op.pref == ReadPreference::kPrimary;
    cmd.read_body = op.read_body;
    cmd.find_spec = op.find_spec;
    cmd.route = op.route;
    cmd.txn_body = op.txn_body;
    cmd.concern = op.concern;
    cmd.reply_to = client_host_;
    cmd.on_reply = [this, id](const proto::Reply& r) { OnReply(id, r); };
    envelope.commands.push_back(std::move(cmd));
    // Each rider keeps its own attempt/hedge timers: the envelope shares
    // a connection, not a deadline.
    if (options_.attempt_timeout > 0) {
      op.attempt_timer = loop_->ScheduleAfter(
          options_.attempt_timeout, [this, id] { OnAttemptTimeout(id); });
    }
    if (op.is_read && options_.hedged_reads && op.hedge_eligible &&
        op.pref != ReadPreference::kPrimary && op.attempts_sent == 1) {
      op.hedge_timer = loop_->ScheduleAfter(HedgeDelay(),
                                            [this, id] { OnHedgeTimer(id); });
    }
  }
  if (tracing()) {
    // One envelope span against the first rider's trace: buffer wait +
    // shared checkout, enqueue → wire send. The first survivor may have
    // enqueued after the (since-departed) op that opened the buffer, so
    // clamp the start inside its attempt span.
    const PendingOp& first = pending_.find(live.front())->second;
    if (first.attempt_span != 0) {
      obs::SpanRecord span;
      span.trace_id = TraceId(live.front(), first);
      span.span_id = tracer_->NewSpanId();
      span.parent_span_id = first.attempt_span;
      span.kind = obs::SpanKind::kEnvelope;
      span.start = std::max(flush_start, first.attempt_start);
      span.end = loop_->Now();
      span.node = node;
      span.attempt = static_cast<int>(live.size());  // batch occupancy
      tracer_->Record(span);
    }
  }
  bus_->SendEnvelope(client_host_, servers_[node].host, std::move(envelope));
}

void MongoClient::DetachFromEnvelope(PendingOp* op, uint64_t healthy_conn) {
  if (op->envelope_id == 0) return;
  auto it = envelopes_.find(op->envelope_id);
  op->envelope_id = 0;
  if (it == envelopes_.end()) return;
  InflightEnvelope& env = it->second;
  // A rider that never got its reply on the shared socket (timeout, won
  // via hedge, failed) leaves its state unknown — same rule as the
  // singleton ReleaseOpConnections, but the verdict is collective.
  if (healthy_conn != env.conn_id) env.healthy = false;
  if (--env.outstanding > 0) return;
  if (env.healthy) {
    pools_[env.node]->CheckIn(env.conn_id);
  } else {
    pools_[env.node]->Discard(env.conn_id);
  }
  envelopes_.erase(it);
}

uint64_t MongoClient::EnvelopeConn(const PendingOp& op) const {
  if (op.envelope_id == 0) return 0;
  auto it = envelopes_.find(op.envelope_id);
  return it == envelopes_.end() ? 0 : it->second.conn_id;
}

void MongoClient::OnReply(uint64_t op_id, const proto::Reply& reply) {
  // Every reply is traffic: it proves the server reachable and carries a
  // hello piggyback refreshing the topology view.
  MarkHeard(reply.node_index);
  AdoptTopology(reply.hello);
  auto it = pending_.find(op_id);
  if (it == pending_.end()) return;  // hedge loser / superseded attempt
  PendingOp& op = it->second;
  if (tracing() && reply.conn_id != 0 &&
      (reply.conn_id == op.conn_id || reply.conn_id == op.hedge_conn_id ||
       reply.conn_id == EnvelopeConn(op))) {
    // Reply wire transit, parented under whichever arm the reply rode.
    // Replies from superseded attempts are skipped — their arm's span is
    // already closed. The pool can recycle a conn id to a later attempt,
    // so additionally require the server's send instant to fall inside
    // the current arm (a genuine reply always starts after its arm did).
    const bool rode_hedge =
        reply.conn_id == op.hedge_conn_id && op.hedge_span != 0;
    const uint64_t parent = rode_hedge ? op.hedge_span : op.attempt_span;
    const sim::Time arm_start = rode_hedge ? op.hedge_start : op.attempt_start;
    if (parent != 0 && reply.sent_at >= arm_start) {
      obs::SpanRecord span;
      span.trace_id = TraceId(op_id, op);
      span.span_id = tracer_->NewSpanId();
      span.parent_span_id = parent;
      span.kind = obs::SpanKind::kWire;
      span.start = reply.sent_at;
      span.end = loop_->Now();
      span.node = reply.node_index;
      span.attempt = std::max(0, op.attempts_sent - 1);
      span.is_hedge = reply.is_hedge;
      tracer_->Record(span);
    }
  }
  if (reply.status == proto::ReplyStatus::kNotPrimary) {
    // Only the outstanding attempt's error triggers a retry; errors from
    // already-superseded attempts were handled when they were abandoned.
    if (!reply.is_hedge && reply.node_index == op.target) {
      // The connection answered — the socket is healthy even though the
      // command failed, so it is reusable (unlike a timed-out attempt).
      if (reply.conn_id != 0 && reply.conn_id == op.conn_id) {
        pools_[op.conn_node]->CheckIn(op.conn_id);
        op.conn_id = 0;
        op.conn_node = kNoNode;
      }
      // An enveloped rider's reply rode the shared connection; this
      // rider's verdict on it is healthy.
      DetachFromEnvelope(&op, reply.conn_id);
      RetryAttempt(op_id);
    }
    return;
  }
  if (reply.status == proto::ReplyStatus::kStaleConfig) {
    // The shard rejected our chunk version before running anything.
    // Retrying the same route would fail identically — surface the error
    // so the caller (a router) refreshes its chunk map and re-issues.
    if (!reply.is_hedge && reply.node_index == op.target) {
      if (reply.conn_id != 0 && reply.conn_id == op.conn_id) {
        // The socket answered; it is healthy and reusable.
        pools_[op.conn_node]->CheckIn(op.conn_id);
        op.conn_id = 0;
        op.conn_node = kNoNode;
      }
      DetachFromEnvelope(&op, reply.conn_id);
      FinishOp(op_id, nullptr, /*timed_out=*/false, /*stale_config=*/true);
    }
    return;
  }
  FinishOp(op_id, &reply);
}

void MongoClient::OnAttemptTimeout(uint64_t op_id) {
  auto it = pending_.find(op_id);
  if (it == pending_.end()) return;
  it->second.attempt_timer = 0;
  RetryAttempt(op_id);
}

void MongoClient::OnDeadline(uint64_t op_id) {
  auto it = pending_.find(op_id);
  if (it == pending_.end()) return;
  it->second.deadline_timer = 0;
  FinishOp(op_id, nullptr, /*timed_out=*/true);
}

void MongoClient::OnHedgeTimer(uint64_t op_id) {
  auto it = pending_.find(op_id);
  if (it == pending_.end()) return;
  PendingOp& op = it->second;
  op.hedge_timer = 0;
  // Next-best eligible secondary by RTT, avoiding the outstanding
  // attempt's node. Deterministic — hedging must not perturb the main
  // path's random draw sequence.
  int target = kNoNode;
  for (int i : EligibleSecondaries()) {
    if (i == op.target) continue;
    if (target == kNoNode || servers_[i].rtt_ewma < servers_[target].rtt_ewma) {
      target = i;
    }
  }
  if (target == kNoNode) return;  // nobody to hedge to
  if (tracing()) {
    op.hedge_span = tracer_->NewSpanId();
    op.hedge_start = loop_->Now();
  }
  // Hedges check out of the hedge node's pool like any other attempt.
  const int attempt = op.attempts_sent;
  pools_[target]->CheckOut([this, op_id, target, attempt](
                               const pool::ConnectionPool::Checkout& co) {
    OnHedgeCheckout(op_id, target, attempt, co);
  });
}

void MongoClient::OnHedgeCheckout(uint64_t op_id, int node, int attempt,
                                  const pool::ConnectionPool::Checkout& co) {
  auto it = pending_.find(op_id);
  if (it == pending_.end() || it->second.attempts_sent != attempt ||
      it->second.hedge_conn_id != 0) {
    // Op finished or retried while the checkout queued: hedge abandoned.
    if (co.ok) pools_[node]->CheckIn(co.conn_id);
    return;
  }
  PendingOp& op = it->second;
  if (tracing() && op.hedge_span != 0) {
    obs::SpanRecord span;
    span.trace_id = TraceId(op_id, op);
    span.span_id = tracer_->NewSpanId();
    span.parent_span_id = op.hedge_span;
    span.kind = obs::SpanKind::kCheckout;
    span.start = op.hedge_start;
    span.end = loop_->Now();
    span.node = node;
    span.attempt = attempt - 1;
    span.is_hedge = true;
    span.ok = co.ok;
    tracer_->Record(span);
  }
  if (!co.ok) {
    // Saturated hedge-node pool: skip the hedge rather than burn the
    // main attempt's retry budget on speculative traffic.
    ++counters_.checkout_timeouts;
    if (op.hedge_span != 0) {
      // The arm dies here — close its span so the checkout child above
      // still has a recorded parent.
      obs::SpanRecord span;
      span.trace_id = TraceId(op_id, op);
      span.span_id = op.hedge_span;
      span.parent_span_id = op.op_span;
      span.kind = obs::SpanKind::kHedge;
      span.start = op.hedge_start;
      span.end = loop_->Now();
      span.node = node;
      span.attempt = attempt - 1;
      span.is_hedge = true;
      span.ok = false;
      tracer_->Record(span);
      op.hedge_span = 0;
    }
    return;
  }
  op.hedge_conn_id = co.conn_id;
  op.hedge_node = node;
  op.hedged = true;
  ++counters_.hedges_sent;
  ++counters_.checkouts;
  counters_.checkout_wait_total += co.wait;
  proto::Command cmd;
  cmd.kind = proto::CommandKind::kFind;
  cmd.ctx.op_id = op_id;
  cmd.ctx.deadline = op.deadline;
  cmd.ctx.after_cluster_time = op.after;
  cmd.ctx.attempt = op.attempts_sent - 1;
  cmd.ctx.is_hedge = true;
  cmd.ctx.conn_id = co.conn_id;
  cmd.ctx.checkout_wait = co.wait;
  cmd.ctx.trace_id = op.trace_override;
  if (tracing()) {
    cmd.ctx.parent_span = op.hedge_span;
    cmd.ctx.sent_at = loop_->Now();
  }
  cmd.op_class = op.op_class;
  cmd.read_body = op.read_body;
  cmd.find_spec = op.find_spec;
  cmd.route = op.route;
  cmd.reply_to = client_host_;
  cmd.on_reply = [this, op_id](const proto::Reply& r) { OnReply(op_id, r); };
  bus_->Send(client_host_, servers_[node].host, std::move(cmd));
}

void MongoClient::RetryAttempt(uint64_t op_id) {
  auto it = pending_.find(op_id);
  if (it == pending_.end()) return;
  PendingOp& op = it->second;
  if (op.attempt_timer != 0) {
    loop_->Cancel(op.attempt_timer);
    op.attempt_timer = 0;
  }
  if (op.conn_id != 0) {
    // The abandoned attempt's reply may still arrive after we stop
    // listening — the socket is desynchronised, so destroy it (real
    // drivers close the connection on a command timeout).
    pools_[op.conn_node]->Discard(op.conn_id);
    op.conn_id = 0;
    op.conn_node = kNoNode;
  }
  if (op.buffered) {
    // Never flushed (node died / deadline raced the buffer): leave the
    // batch before retargeting so the envelope cannot ship a stale rider.
    if (op.target != kNoNode) RemoveFromBatch(op_id, op.target);
    op.buffered = false;
  }
  // Abandoning an enveloped attempt taints the shared connection.
  DetachFromEnvelope(&op, /*healthy_conn=*/0);
  if (tracing() && op.attempt_span != 0) {
    // The attempt is abandoned here; the next one opens its own span.
    obs::SpanRecord span;
    span.trace_id = TraceId(op_id, op);
    span.span_id = op.attempt_span;
    span.parent_span_id = op.op_span;
    span.kind = obs::SpanKind::kAttempt;
    span.start = op.attempt_start;
    span.end = loop_->Now();
    span.node = op.target;
    span.attempt = op.attempts_sent - 1;
    span.ok = false;
    tracer_->Record(span);
    op.attempt_span = 0;
  }
  op.last_target = op.target;
  op.target = kNoNode;
  if (op.max_retries >= 0 && op.attempts_sent > op.max_retries) {
    FinishOp(op_id, nullptr);
    return;
  }
  // Bounded exponential backoff; no jitter, so same-seed traces stay
  // bit-identical.
  sim::Duration backoff = options_.retry_backoff_base;
  for (int i = 1; i < op.attempts_sent && backoff < options_.retry_backoff_max;
       ++i) {
    backoff *= 2;
  }
  backoff = std::min(backoff, options_.retry_backoff_max);
  op.backoff_timer =
      loop_->ScheduleAfter(backoff, [this, op_id] { StartAttempt(op_id); });
}

void MongoClient::CloseOpSpans(const PendingOp& op, uint64_t op_id, bool ok,
                               const proto::Reply* reply) {
  if (!tracing() || op.op_span == 0) return;
  const sim::Time now = loop_->Now();
  const bool hedge_won = reply != nullptr && reply->is_hedge;
  const int attempt = std::max(0, op.attempts_sent - 1);
  if (op.attempt_span != 0) {
    obs::SpanRecord span;
    span.trace_id = TraceId(op_id, op);
    span.span_id = op.attempt_span;
    span.parent_span_id = op.op_span;
    span.kind = obs::SpanKind::kAttempt;
    span.start = op.attempt_start;
    span.end = now;
    span.node = op.target;
    span.attempt = attempt;
    span.ok = ok && !hedge_won;
    tracer_->Record(span);
  }
  if (op.hedge_span != 0) {
    obs::SpanRecord span;
    span.trace_id = TraceId(op_id, op);
    span.span_id = op.hedge_span;
    span.parent_span_id = op.op_span;
    span.kind = obs::SpanKind::kHedge;
    span.start = op.hedge_start;
    span.end = now;
    span.node = op.hedge_node;
    span.attempt = attempt;
    span.is_hedge = true;
    span.ok = ok && hedge_won;
    tracer_->Record(span);
  }
  obs::SpanRecord span;
  span.trace_id = TraceId(op_id, op);
  span.span_id = op.op_span;
  span.parent_span_id = op.parent_span_override;
  span.kind = obs::SpanKind::kOp;
  span.start = op.start;
  span.end = now;
  span.node = reply != nullptr ? reply->node_index : op.target;
  span.attempt = attempt;
  span.ok = ok;
  tracer_->Record(span);
}

void MongoClient::FinishOp(uint64_t op_id, const proto::Reply* reply,
                           bool timed_out, bool stale_config) {
  auto it = pending_.find(op_id);
  if (it == pending_.end()) return;
  PendingOp op = std::move(it->second);
  pending_.erase(it);
  const bool ok = reply != nullptr;
  const uint64_t healthy_conn = ok ? reply->conn_id : 0;
  CancelOpTimers(&op);
  CloseOpSpans(op, op_id, ok, reply);
  ReleaseOpConnections(&op, healthy_conn);
  if (op.buffered && op.target != kNoNode) RemoveFromBatch(op_id, op.target);
  DetachFromEnvelope(&op, healthy_conn);

  OpResult r;
  r.is_read = op.is_read;
  r.requested = op.pref;
  r.latency = loop_->Now() - op.start;
  r.ok = ok;
  r.timed_out = timed_out;
  r.stale_config = stale_config;
  r.retries = std::max(0, op.attempts_sent - 1);
  r.hedged = op.hedged;
  r.checkout_wait = op.checkout_wait;
  r.record_latency = op.record_latency;
  if (ok) {
    if (op.is_read) {
      r.node = reply->node_index;
      r.used_secondary = !reply->from_primary;
    }
    r.operation_time = reply->operation_time;
    r.committed = reply->committed;
    r.find = reply->find_result;
    r.hedge_won = reply->is_hedge;
  } else if (op.is_read) {
    r.node = op.target;
  }

  if (ok) ++counters_.ok;
  if (timed_out) ++counters_.timed_out;
  if (stale_config) ++counters_.stale_config;
  if (r.retries > 0) {
    ++counters_.retried;
    counters_.retries_total += static_cast<uint64_t>(r.retries);
  }
  if (r.hedge_won) ++counters_.hedges_won;
  if (ok && op.is_read) RecordReadLatency(r.latency);

  for (const OpObserver& o : observers_) o(r);
  if (op.done) op.done(r);
}

void MongoClient::CancelOpTimers(PendingOp* op) {
  if (op->attempt_timer != 0) {
    loop_->Cancel(op->attempt_timer);
    op->attempt_timer = 0;
  }
  if (op->deadline_timer != 0) {
    loop_->Cancel(op->deadline_timer);
    op->deadline_timer = 0;
  }
  if (op->backoff_timer != 0) {
    loop_->Cancel(op->backoff_timer);
    op->backoff_timer = 0;
  }
  if (op->hedge_timer != 0) {
    loop_->Cancel(op->hedge_timer);
    op->hedge_timer = 0;
  }
}

void MongoClient::ReleaseOpConnections(PendingOp* op, uint64_t healthy_conn) {
  if (op->conn_id != 0) {
    if (op->conn_id == healthy_conn) {
      pools_[op->conn_node]->CheckIn(op->conn_id);
    } else {
      // No reply ever arrived on it (op won via hedge / failed / timed
      // out): the socket state is unknown, so it cannot be reused.
      pools_[op->conn_node]->Discard(op->conn_id);
    }
    op->conn_id = 0;
    op->conn_node = kNoNode;
  }
  if (op->hedge_conn_id != 0) {
    if (op->hedge_conn_id == healthy_conn) {
      pools_[op->hedge_node]->CheckIn(op->hedge_conn_id);
    } else {
      pools_[op->hedge_node]->Discard(op->hedge_conn_id);
    }
    op->hedge_conn_id = 0;
    op->hedge_node = kNoNode;
  }
}

void MongoClient::AbortAttemptsOn(int node) {
  // Driver-spec pool.clear() on server-down: the generation bump ensures
  // no later checkout reuses a socket that was open to the failed server.
  pools_[node]->Clear();
  std::vector<uint64_t> affected;
  for (auto& [op_id, op] : pending_) {
    if (op.hedge_conn_id != 0 && op.hedge_node == node) {
      // Hedge outstanding against the dead node: drop its connection but
      // leave the op alone — the main attempt may still answer.
      pools_[node]->Discard(op.hedge_conn_id);
      op.hedge_conn_id = 0;
      op.hedge_node = kNoNode;
    }
    if (op.target == node) affected.push_back(op_id);
  }
  // RetryAttempt may erase ops (budget spent) and their callbacks may
  // start new ones — mutate only after the scan.
  for (uint64_t op_id : affected) RetryAttempt(op_id);
}

void MongoClient::AdoptTopology(const proto::HelloReply& hello) {
  if (hello.term < believed_term_) return;  // stale view
  // Within the known term, "no primary" (an election in flight somewhere)
  // never displaces a concrete primary belief — only a newer term or a
  // different concrete primary does. This keeps a brief catch-up window
  // from blinding the driver to a primary it can still talk to.
  if (hello.term == believed_term_ &&
      (hello.primary_index < 0 || hello.primary_index == believed_primary_)) {
    return;
  }
  const int old_primary = believed_primary_;
  believed_term_ = hello.term;
  believed_primary_ = hello.primary_index;
  // Primary moved: the old primary's pooled connections are pinned to a
  // deposed mongod — clear them (generation bump) so no checkout hands
  // out a stale connection to a node that will reject the write.
  if (old_primary >= 0 && believed_primary_ >= 0 &&
      believed_primary_ != old_primary) {
    ++stepdown_pool_clears_;
    ClearPool(old_primary);
  }
}

void MongoClient::MarkHeard(int node) {
  if (node < 0 || node >= node_count()) return;
  servers_[node].last_heard = loop_->Now();
  servers_[node].reachable = true;
}

sim::Duration MongoClient::HedgeDelay() const {
  if (read_latency_ring_.empty()) return options_.hedge_min_delay;
  std::vector<sim::Duration> sorted = read_latency_ring_;
  std::sort(sorted.begin(), sorted.end());
  const double q = std::clamp(options_.hedge_quantile, 0.0, 1.0);
  const size_t idx =
      static_cast<size_t>(q * static_cast<double>(sorted.size() - 1));
  return std::max(options_.hedge_min_delay, sorted[idx]);
}

void MongoClient::RecordReadLatency(sim::Duration latency) {
  if (!options_.hedged_reads) return;  // ring only feeds the hedge delay
  if (read_latency_ring_.size() < kLatencyRingCapacity) {
    read_latency_ring_.push_back(latency);
    return;
  }
  read_latency_ring_[read_latency_next_] = latency;
  read_latency_next_ = (read_latency_next_ + 1) % kLatencyRingCapacity;
}

void MongoClient::ServerStatus(
    std::function<void(const proto::ServerStatusReply&)> done) {
  const int primary = believed_primary_;
  if (primary < 0 || !servers_[primary].reachable) {
    loop_->ScheduleAfter(options_.selection_retry_interval,
                         [this, done = std::move(done)]() mutable {
                           ServerStatus(std::move(done));
                         });
    return;
  }
  proto::Command cmd;
  cmd.kind = proto::CommandKind::kServerStatus;
  cmd.op_class = server::OpClass::kServerStatus;
  cmd.require_primary = true;
  cmd.reply_to = client_host_;
  cmd.on_reply = [this, done](const proto::Reply& reply) {
    MarkHeard(reply.node_index);
    AdoptTopology(reply.hello);
    if (reply.status == proto::ReplyStatus::kNotPrimary) {
      // Stale primary view; the piggybacked hello just corrected it.
      loop_->ScheduleAfter(options_.selection_retry_interval,
                           [this, done] { ServerStatus(done); });
      return;
    }
    done(reply.server_status);
  };
  bus_->Send(client_host_, servers_[primary].host, std::move(cmd));
}

void MongoClient::PingNode(int node,
                           std::function<void(bool, sim::Duration)> done) {
  // A wire-protocol ping, not a network-layer one: a crashed mongod's
  // host still carries packets, but its command service answers nothing,
  // so only a served kPing counts as the node being up. The client-side
  // timer keeps the exactly-one-callback contract when the command (or
  // its reply) is silently lost.
  const sim::Time start = loop_->Now();
  auto settled = std::make_shared<bool>(false);
  auto cb =
      std::make_shared<std::function<void(bool, sim::Duration)>>(
          std::move(done));
  const sim::EventId timer =
      loop_->ScheduleAfter(options_.ping_timeout, [settled, cb] {
        if (*settled) return;
        *settled = true;
        (*cb)(false, 0);
      });
  proto::Command cmd;
  cmd.kind = proto::CommandKind::kPing;
  cmd.reply_to = client_host_;
  cmd.on_reply = [this, start, settled, cb, timer](const proto::Reply&) {
    if (*settled) return;
    *settled = true;
    loop_->Cancel(timer);
    (*cb)(true, loop_->Now() - start);
  };
  bus_->Send(client_host_, servers_[node].host, std::move(cmd));
}

}  // namespace dcg::driver
