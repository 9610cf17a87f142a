#include "driver/client.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "util/check.h"

namespace dcg::driver {

namespace {
/// Recent-read-latency window sizing the hedge-delay quantile estimate.
constexpr size_t kLatencyRingCapacity = 64;
/// Secondaries within this much of the fastest secondary's RTT are
/// eligible for selection (MongoDB's 15 ms localThresholdMS, §2.2).
constexpr sim::Duration kSelectionLatencyWindow = sim::Millis(15);
/// How often the driver pings each node to maintain RTT estimates
/// (topology monitoring).
constexpr sim::Duration kRttProbeInterval = sim::Seconds(1);
/// EWMA weight for new RTT samples (driver spec uses 0.2).
constexpr double kRttEwmaAlpha = 0.2;
/// RTT probes that outlive this are abandoned (the node or link is
/// down; reachability is tracked by the hello loop, not by pings).
constexpr sim::Duration kPingTimeout = sim::Seconds(2);
/// How often the driver sends `hello` to every node to maintain its
/// topology view (who is primary, who is reachable).
constexpr sim::Duration kHelloInterval = sim::Millis(500);
/// Poll interval for the staleness cache backing maxStalenessSeconds.
constexpr sim::Duration kStalenessRefreshInterval = sim::Seconds(1);
/// Backoff between server-selection retries when no node is currently
/// selectable (e.g. during a fail-over).
constexpr sim::Duration kSelectionRetryInterval = sim::Millis(200);
}  // namespace

MongoClient::MongoClient(sim::EventLoop* loop, sim::Rng rng,
                         proto::CommandBus* bus, net::HostId client_host,
                         ClientOptions options)
    : loop_(loop),
      rng_(std::move(rng)),
      bus_(bus),
      network_(bus->network()),
      client_host_(client_host),
      options_(options),
      session_(bus->StartSession()) {
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
    if (sd.reachable && now - sd.last_heard >= kHelloTimeout) {
      // Nothing heard for a full timeout: declare the server down and
      // fail its outstanding attempts over (connection-pool clear).
      sd.reachable = false;
      AbortAttemptsOn(i);
    }
    auto cmd = std::make_unique<proto::Command>();
    cmd->kind = proto::CommandKind::kHello;
    cmd->reply_to = client_host_;
    cmd->on_reply = [this](const proto::Reply& reply) {
      MarkHeard(reply.node_index);
      AdoptTopology(reply.hello);
    };
    bus_->Send(client_host_, sd.host, std::move(cmd));
  }
  loop_->ScheduleAfter(kHelloInterval, [this] { HelloLoop(); });
}

void MongoClient::ProbeLoop() {
  for (int i = 0; i < node_count(); ++i) {
    PingNode(i, [this, i](bool ok, sim::Duration rtt) {
      if (!ok) return;  // probe lost; reachability is the hello loop's job
      MarkHeard(i);
      servers_[i].rtt_ewma = static_cast<sim::Duration>(
          kRttEwmaAlpha * static_cast<double>(rtt) +
          (1.0 - kRttEwmaAlpha) * static_cast<double>(servers_[i].rtt_ewma));
    });
  }
  loop_->ScheduleAfter(kRttProbeInterval, [this] { ProbeLoop(); });
}

void MongoClient::StalenessLoop() {
  ServerStatus([this](const proto::ServerStatusReply& reply) {
    for (size_t i = 0; i < reply.secondary_last_applied.size(); ++i) {
      servers_[reply.secondary_nodes[i]].staleness_s =
          proto::SecondaryStalenessSeconds(reply, i);
    }
  });
  loop_->ScheduleAfter(kStalenessRefreshInterval, [this] { StalenessLoop(); });
}

std::vector<int>& MongoClient::EligibleSecondaries() {
  const int primary = believed_primary_;
  std::vector<int>& eligible = eligible_;
  eligible.clear();
  sim::Duration min_rtt = std::numeric_limits<sim::Duration>::max();
  for (int i = 0; i < node_count(); ++i) {
    if (i == primary || !servers_[i].reachable) continue;
    min_rtt = std::min(min_rtt, servers_[i].rtt_ewma);
  }
  for (int i = 0; i < node_count(); ++i) {
    if (i == primary || !servers_[i].reachable) continue;
    if (servers_[i].rtt_ewma > min_rtt + kSelectionLatencyWindow) continue;
    if (options_.max_staleness_seconds >= 0 &&
        servers_[i].staleness_s > options_.max_staleness_seconds) {
      continue;
    }
    eligible.push_back(i);
  }
  return eligible;
}

int MongoClient::SelectNode(ReadPreference pref, int exclude) {
  const int primary = believed_primary_;
  const bool primary_alive = primary >= 0 && servers_[primary].reachable;
  if (pref == ReadPreference::kPrimary) {
    // No alternative server — re-selection re-resolves who the primary
    // is, which the topology refresh already moved.
    return primary_alive ? primary : kNoNode;
  }
  if (pref == ReadPreference::kNearest) {
    int best = kNoNode;
    int nearest = kNoNode;
    for (int i = 0; i < node_count(); ++i) {
      if (!servers_[i].reachable) continue;
      const sim::Duration rtt = servers_[i].rtt_ewma;
      if (nearest < 0 || rtt < servers_[nearest].rtt_ewma) nearest = i;
      if (i != exclude && (best < 0 || rtt < servers_[best].rtt_ewma)) {
        best = i;
      }
    }
    return best != kNoNode ? best : nearest;
  }
  if (pref == ReadPreference::kPrimaryPreferred && primary_alive &&
      primary != exclude) {
    return primary;
  }
  std::vector<int>& candidates = EligibleSecondaries();
  const auto excluded =
      std::find(candidates.begin(), candidates.end(), exclude);
  if (excluded != candidates.end()) {
    // Avoid `exclude` when an alternative exists. When it is the only
    // eligible node left, primaryPreferred takes the live primary; the
    // other modes pick it again (better than failing).
    if (candidates.size() > 1) {
      candidates.erase(excluded);
    } else if (pref == ReadPreference::kPrimaryPreferred && primary_alive) {
      return primary;
    }
  }
  // kSecondary with no eligible node is an error in MongoDB; like
  // secondaryPreferred we fall back to the primary so workloads keep
  // running (the maxStaleness ablation relies on this).
  if (candidates.empty()) return primary_alive ? primary : kNoNode;
  return candidates[static_cast<size_t>(
      rng_.UniformInt(0, static_cast<int64_t>(candidates.size()) - 1))];
}

void MongoClient::Read(ReadPreference pref, server::OpClass op_class,
                       proto::ReadBody body, Done done, OpOptions opts) {
  PendingOp op;
  op.pref = pref;
  op.request.kind = proto::CommandKind::kFind;
  op.request.op_class = op_class;
  op.request.read_body = std::move(body);
  op.done = std::move(done);
  BeginOp(std::move(op), std::move(opts));
}

void MongoClient::Find(ReadPreference pref, server::OpClass op_class,
                       std::shared_ptr<const proto::FindSpec> spec, Done done,
                       OpOptions opts) {
  PendingOp op;
  op.pref = pref;
  op.request.kind = proto::CommandKind::kFind;
  op.request.op_class = op_class;
  op.request.find_spec = std::move(spec);
  op.done = std::move(done);
  BeginOp(std::move(op), std::move(opts));
}

void MongoClient::Write(server::OpClass op_class, proto::TxnBody body,
                        Done done, repl::WriteConcern concern,
                        OpOptions opts) {
  PendingOp op;
  op.pref = ReadPreference::kPrimary;
  op.request.kind = proto::CommandKind::kWrite;
  op.request.op_class = op_class;
  op.request.txn_body = std::move(body);
  op.request.concern = concern;
  op.done = std::move(done);
  BeginOp(std::move(op), std::move(opts));
}

uint64_t MongoClient::BeginOp(PendingOp&& op, OpOptions opts) {
  const uint64_t op_id = next_op_id_++;
  op.start = loop_->Now();
  if (tracing()) op.op_span = tracer_->NewSpanId();
  op.max_retries =
      opts.max_retries == -2 ? options_.max_retries : opts.max_retries;
  op.hedge_eligible = opts.hedge_eligible;
  op.record_latency = opts.record_latency;
  op.parent_span = opts.parent_span;
  proto::Command& request = op.request;
  request.require_primary =
      !op.is_read() || op.pref == ReadPreference::kPrimary;
  request.route = std::move(opts.route);
  request.ctx.after_cluster_time = opts.after_cluster_time;
  request.ctx.trace_id = opts.trace_id;
  request.reply_to = client_host_;
  const sim::Duration deadline =
      opts.deadline < 0 ? options_.default_op_deadline : opts.deadline;
  if (deadline > 0) {
    request.ctx.deadline = op.start + deadline;
    op.deadline_timer =
        loop_->ScheduleAfter(deadline, [this, op_id] { OnDeadline(op_id); });
  }
  ops_.Insert(op_id, std::move(op));
  StartAttempt(op_id);
  return op_id;
}

void MongoClient::StartAttempt(uint64_t op_id) {
  PendingOp* found = ops_.Find(op_id);
  if (found == nullptr) return;
  PendingOp& op = *found;
  op.backoff_timer = 0;
  int node = kNoNode;
  if (op.is_read()) {
    node = SelectNode(op.pref, op.attempts_sent > 0 ? op.last_target : kNoNode);
  } else if (believed_primary_ >= 0 &&
             servers_[believed_primary_].reachable) {
    node = believed_primary_;
  }
  if (node == kNoNode) {
    // No selectable server right now (fail-over in progress): retry
    // server selection, as real drivers do. Selection waits do not burn
    // the retry budget — nothing was sent.
    op.backoff_timer =
        loop_->ScheduleAfter(kSelectionRetryInterval,
                             [this, op_id] { StartAttempt(op_id); });
    return;
  }
  op.main.node = node;
  ++op.attempts_sent;
  if (tracing()) {
    op.main.span = tracer_->NewSpanId();
    op.main.start = loop_->Now();
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
  PendingOp* found = ops_.Find(op_id);
  if (found == nullptr || found->main.node != node ||
      found->attempts_sent != attempt) {
    // The op moved on while this checkout sat in the wait queue (completed
    // via a hedge, failed over, hit its deadline): the unused connection
    // goes straight back to the pool.
    if (co.ok) pools_[node]->CheckIn(co.conn_id);
    return;
  }
  PendingOp& op = *found;
  RecordCheckoutSpan(op_id, op, /*is_hedge=*/false, co.ok);
  if (!co.ok) {
    // waitQueueTimeoutMS fired: the pool is saturated. The failed
    // checkout burns one retry, so an exhausted pool cannot spin an op
    // forever — the retry budget / deadline still bound it.
    ++counters_.checkout_timeouts;
    RetryAttempt(op_id);
    return;
  }
  op.main.conn_id = co.conn_id;
  op.checkout_wait += co.wait;
  ++counters_.checkouts;
  SendAttempt(op_id, &op);
}

void MongoClient::SendAttempt(uint64_t op_id, PendingOp* op) {
  bus_->Send(client_host_, servers_[op->main.node].host,
             MakeCommand(op_id, *op, /*is_hedge=*/false, op->main.conn_id));
  ArmAttemptTimers(op_id, op);
}

proto::CommandPtr MongoClient::MakeCommand(uint64_t op_id,
                                           const PendingOp& op, bool is_hedge,
                                           uint64_t conn_id) {
  // Copies: the op outlives any one arm.
  auto cmd = std::make_unique<proto::Command>(op.request);
  proto::OpContext& ctx = cmd->ctx;
  ctx.op_id = op_id;
  ctx.session = session_;
  ctx.answered_below = answered_below_;
  ctx.attempt = op.attempts_sent - 1;
  ctx.is_hedge = is_hedge;
  ctx.conn_id = conn_id;
  if (tracing()) {
    ctx.parent_span = is_hedge ? op.hedge.span : op.main.span;
    ctx.sent_at = loop_->Now();
  }
  cmd->on_reply = [this, op_id](const proto::Reply& r) { OnReply(op_id, r); };
  return cmd;
}

void MongoClient::ArmAttemptTimers(uint64_t op_id, PendingOp* op) {
  if (options_.attempt_timeout > 0) {
    op->attempt_armed = true;
    ++armed_attempts_;
    TrimAttemptDeadlines();
    attempt_deadlines_.push_back(
        {loop_->Now() + options_.attempt_timeout, op_id, op->attempts_sent});
    if (attempt_sweep_ == 0) ScheduleAttemptSweep();
  }
  if (op->is_read() && options_.hedged_reads && op->hedge_eligible &&
      op->pref != ReadPreference::kPrimary && op->attempts_sent == 1) {
    op->hedge_timer = loop_->ScheduleAfter(
        HedgeDelay(), [this, op_id] { OnHedgeTimer(op_id); });
  }
}

void MongoClient::DisarmAttempt(PendingOp* op) {
  if (!op->attempt_armed) return;
  op->attempt_armed = false;
  if (--armed_attempts_ > 0) return;
  // Nothing armed: every queued entry is dead, and so is the sweep.
  loop_->Cancel(attempt_sweep_);
  attempt_sweep_ = 0;
  attempt_deadlines_.clear();
  deadline_head_ = 0;
}

MongoClient::PendingOp* MongoClient::ArmedOp(const AttemptDeadline& entry) {
  PendingOp* op = ops_.Find(entry.op_id);
  if (op == nullptr || !op->attempt_armed ||
      op->attempts_sent != entry.attempt) {
    return nullptr;
  }
  return op;
}

void MongoClient::TrimAttemptDeadlines() {
  while (deadline_head_ < attempt_deadlines_.size() &&
         ArmedOp(attempt_deadlines_[deadline_head_]) == nullptr) {
    ++deadline_head_;
  }
  // Reclaim the consumed prefix once it is the larger part of the vector:
  // amortised O(1) per entry, and the vector's capacity is reused.
  if (deadline_head_ * 2 >= attempt_deadlines_.size()) {
    attempt_deadlines_.erase(attempt_deadlines_.begin(),
                             attempt_deadlines_.begin() +
                                 static_cast<std::ptrdiff_t>(deadline_head_));
    deadline_head_ = 0;
  }
}

void MongoClient::SweepAttemptDeadlines() {
  // The fired id stays in attempt_sweep_ while the due entries run, so an
  // attempt armed from inside a retry (a done callback issuing a new op)
  // queues behind them instead of scheduling a second sweep.
  const sim::EventId fired = attempt_sweep_;
  const sim::Time now = loop_->Now();
  while (deadline_head_ < attempt_deadlines_.size() &&
         attempt_deadlines_[deadline_head_].at <= now) {
    const AttemptDeadline due = attempt_deadlines_[deadline_head_++];
    if (ArmedOp(due) != nullptr) RetryAttempt(due.op_id);  // disarms first
  }
  // A disarm that emptied the queue also cleared attempt_sweep_ (and an
  // attempt armed after it scheduled a fresh sweep).
  if (attempt_sweep_ == fired) ScheduleAttemptSweep();
}

void MongoClient::ScheduleAttemptSweep() {
  TrimAttemptDeadlines();
  attempt_sweep_ = loop_->ScheduleAt(attempt_deadlines_[deadline_head_].at,
                                     [this] { SweepAttemptDeadlines(); });
}

void MongoClient::EnqueueInBatch(uint64_t op_id, int node) {
  PendingOp& op = *ops_.Find(op_id);
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
      op.request.ctx.deadline != 0 &&
      op.request.ctx.deadline - loop_->Now() <= options_.batch_max_delay;
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
    const PendingOp* op = ops_.Find(id);
    if (op == nullptr) continue;
    batch.push_back({id, op->attempts_sent});
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
    const PendingOp* op = ops_.Find(entry.op_id);
    if (op == nullptr || !op->buffered || op->main.node != node ||
        op->attempts_sent != entry.attempt) {
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
  ++counters_.envelopes_sent;
  counters_.ops_batched += live.size();
  batch_occupancy_.Add(static_cast<double>(live.size()));

  proto::Envelope envelope;
  envelope.commands.reserve(live.size());
  for (uint64_t id : live) {
    PendingOp& op = *ops_.Find(id);
    op.buffered = false;
    op.envelope_id = envelope_id;
    op.checkout_wait += co.wait;
    envelope.commands.push_back(
        MakeCommand(id, op, /*is_hedge=*/false, co.conn_id));
    // Each rider keeps its own attempt/hedge timers: the envelope shares
    // a connection, not a deadline.
    ArmAttemptTimers(id, &op);
  }
  if (tracing()) {
    // One envelope span against the first rider's trace: buffer wait +
    // shared checkout, enqueue → wire send. The first survivor may have
    // enqueued after the (since-departed) op that opened the buffer, so
    // clamp the start inside its attempt span.
    const PendingOp& first = *ops_.Find(live.front());
    if (first.main.span != 0) {
      obs::SpanRecord span;
      span.trace_id = TraceId(live.front(), first);
      span.span_id = tracer_->NewSpanId();
      span.parent_span_id = first.main.span;
      span.kind = obs::SpanKind::kEnvelope;
      span.start = std::max(flush_start, first.main.start);
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
  PendingOp* found = ops_.Find(op_id);
  if (found == nullptr) return;  // hedge loser / superseded attempt
  PendingOp& op = *found;
  if (tracing() && reply.conn_id != 0 &&
      (reply.conn_id == op.main.conn_id || reply.conn_id == op.hedge.conn_id ||
       reply.conn_id == EnvelopeConn(op))) {
    // Reply wire transit, parented under whichever arm the reply rode.
    // Replies from superseded attempts are skipped — their arm's span is
    // already closed. The pool can recycle a conn id to a later attempt,
    // so additionally require the server's send instant to fall inside
    // the current arm (a genuine reply always starts after its arm did).
    const bool rode_hedge =
        reply.conn_id == op.hedge.conn_id && op.hedge.span != 0;
    const Arm& arm = rode_hedge ? op.hedge : op.main;
    if (arm.span != 0 && reply.sent_at >= arm.start) {
      obs::SpanRecord span;
      span.trace_id = TraceId(op_id, op);
      span.span_id = tracer_->NewSpanId();
      span.parent_span_id = arm.span;
      span.kind = obs::SpanKind::kWire;
      span.start = reply.sent_at;
      span.end = loop_->Now();
      span.node = reply.node_index;
      span.attempt = std::max(0, op.attempts_sent - 1);
      span.is_hedge = reply.is_hedge;
      tracer_->Record(span);
    }
  }
  if (reply.status == proto::ReplyStatus::kNotPrimary ||
      reply.status == proto::ReplyStatus::kStaleConfig) {
    // Only the outstanding attempt's error counts; errors from
    // already-superseded attempts were handled when they were abandoned.
    if (reply.is_hedge || reply.node_index != op.main.node) return;
    // The connection answered — the socket is healthy even though the
    // command failed, so it is reusable (unlike a timed-out attempt). An
    // enveloped rider's reply rode the shared connection; this rider's
    // verdict on it is healthy.
    if (reply.conn_id == op.main.conn_id) {
      ReleaseArmConnection(&op.main, reply.conn_id);
    }
    DetachFromEnvelope(&op, reply.conn_id);
    if (reply.status == proto::ReplyStatus::kNotPrimary) {
      RetryAttempt(op_id);
    } else {
      // The shard rejected our chunk version before running anything.
      // Retrying the same route would fail identically — surface the
      // error so the caller (a router) refreshes its chunk map and
      // re-issues.
      FinishOp(op_id, nullptr, /*timed_out=*/false, /*stale_config=*/true);
    }
    return;
  }
  FinishOp(op_id, &reply);
}

void MongoClient::OnDeadline(uint64_t op_id) {
  PendingOp* op = ops_.Find(op_id);
  if (op == nullptr) return;
  op->deadline_timer = 0;
  FinishOp(op_id, nullptr, /*timed_out=*/true);
}

void MongoClient::OnHedgeTimer(uint64_t op_id) {
  PendingOp* found = ops_.Find(op_id);
  if (found == nullptr) return;
  PendingOp& op = *found;
  op.hedge_timer = 0;
  // Next-best eligible secondary by RTT, avoiding the outstanding
  // attempt's node. Deterministic — hedging must not perturb the main
  // path's random draw sequence.
  int target = kNoNode;
  for (int i : EligibleSecondaries()) {
    if (i == op.main.node) continue;
    if (target == kNoNode || servers_[i].rtt_ewma < servers_[target].rtt_ewma) {
      target = i;
    }
  }
  if (target == kNoNode) return;  // nobody to hedge to
  if (tracing()) {
    op.hedge.span = tracer_->NewSpanId();
    op.hedge.start = loop_->Now();
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
  PendingOp* found = ops_.Find(op_id);
  if (found == nullptr || found->attempts_sent != attempt ||
      found->hedge.conn_id != 0) {
    // Op finished or retried while the checkout queued: hedge abandoned.
    if (co.ok) pools_[node]->CheckIn(co.conn_id);
    return;
  }
  PendingOp& op = *found;
  op.hedge.node = node;
  RecordCheckoutSpan(op_id, op, /*is_hedge=*/true, co.ok);
  if (!co.ok) {
    // Saturated hedge-node pool: skip the hedge rather than burn the
    // main attempt's retry budget on speculative traffic. The arm dies
    // here — close its span so the checkout child above still has a
    // recorded parent.
    ++counters_.checkout_timeouts;
    CloseArmSpan(op_id, &op, /*is_hedge=*/true, /*ok=*/false);
    return;
  }
  op.hedge.conn_id = co.conn_id;
  op.hedged = true;
  ++counters_.hedges_sent;
  ++counters_.checkouts;
  bus_->Send(client_host_, servers_[node].host,
             MakeCommand(op_id, op, /*is_hedge=*/true, co.conn_id));
}

void MongoClient::RetryAttempt(uint64_t op_id) {
  PendingOp* found = ops_.Find(op_id);
  if (found == nullptr) return;
  PendingOp& op = *found;
  DisarmAttempt(&op);
  // The abandoned attempt's reply may still arrive after we stop
  // listening — the socket is desynchronised, so destroy it (real
  // drivers close the connection on a command timeout).
  ReleaseArmConnection(&op.main, /*healthy_conn=*/0);
  if (op.buffered) {
    // Never flushed (node died / deadline raced the buffer): leave the
    // batch before retargeting so the envelope cannot ship a stale rider.
    if (op.main.node != kNoNode) RemoveFromBatch(op_id, op.main.node);
    op.buffered = false;
  }
  // Abandoning an enveloped attempt taints the shared connection.
  DetachFromEnvelope(&op, /*healthy_conn=*/0);
  // The attempt is abandoned here; the next one opens its own span.
  CloseArmSpan(op_id, &op, /*is_hedge=*/false, /*ok=*/false);
  op.last_target = op.main.node;
  op.main.node = kNoNode;
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

void MongoClient::RecordCheckoutSpan(uint64_t op_id, const PendingOp& op,
                                     bool is_hedge, bool ok) {
  const Arm& arm = is_hedge ? op.hedge : op.main;
  if (!tracing() || arm.span == 0) return;
  obs::SpanRecord span;
  span.trace_id = TraceId(op_id, op);
  span.span_id = tracer_->NewSpanId();
  span.parent_span_id = arm.span;
  span.kind = obs::SpanKind::kCheckout;
  span.start = arm.start;
  span.end = loop_->Now();
  span.node = arm.node;
  span.attempt = op.attempts_sent - 1;
  span.is_hedge = is_hedge;
  span.ok = ok;
  tracer_->Record(span);
}

void MongoClient::CloseArmSpan(uint64_t op_id, PendingOp* op, bool is_hedge,
                               bool ok) {
  Arm& arm = is_hedge ? op->hedge : op->main;
  if (!tracing() || arm.span == 0) return;
  obs::SpanRecord span;
  span.trace_id = TraceId(op_id, *op);
  span.span_id = arm.span;
  span.parent_span_id = op->op_span;
  span.kind = is_hedge ? obs::SpanKind::kHedge : obs::SpanKind::kAttempt;
  span.start = arm.start;
  span.end = loop_->Now();
  span.node = arm.node;
  span.attempt = std::max(0, op->attempts_sent - 1);
  span.is_hedge = is_hedge;
  span.ok = ok;
  tracer_->Record(span);
  arm.span = 0;
}

void MongoClient::CloseOpSpans(uint64_t op_id, PendingOp* op, bool ok,
                               const proto::Reply* reply) {
  if (!tracing() || op->op_span == 0) return;
  const bool hedge_won = reply != nullptr && reply->is_hedge;
  CloseArmSpan(op_id, op, /*is_hedge=*/false, ok && !hedge_won);
  CloseArmSpan(op_id, op, /*is_hedge=*/true, ok && hedge_won);
  obs::SpanRecord span;
  span.trace_id = TraceId(op_id, *op);
  span.span_id = op->op_span;
  span.parent_span_id = op->parent_span;
  span.kind = obs::SpanKind::kOp;
  span.start = op->start;
  span.end = loop_->Now();
  span.node = reply != nullptr ? reply->node_index : op->main.node;
  span.attempt = std::max(0, op->attempts_sent - 1);
  span.ok = ok;
  tracer_->Record(span);
}

void MongoClient::FinishOp(uint64_t op_id, const proto::Reply* reply,
                           bool timed_out, bool stale_config) {
  if (ops_.Find(op_id) == nullptr) return;
  PendingOp op = ops_.Take(op_id);
  while (answered_below_ < next_op_id_ &&
         ops_.Find(answered_below_) == nullptr) {
    ++answered_below_;
  }
  const bool ok = reply != nullptr;
  const uint64_t healthy_conn = ok ? reply->conn_id : 0;
  CancelOpTimers(&op);
  CloseOpSpans(op_id, &op, ok, reply);
  ReleaseOpConnections(&op, healthy_conn);
  if (op.buffered && op.main.node != kNoNode) {
    RemoveFromBatch(op_id, op.main.node);
  }
  DetachFromEnvelope(&op, healthy_conn);

  OpResult r;
  r.is_read = op.is_read();
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
    if (op.is_read()) {
      r.node = reply->node_index;
      r.used_secondary = !reply->from_primary;
    }
    r.operation_time = reply->operation_time;
    r.committed = reply->committed;
    r.find = reply->find_result;
    r.hedge_won = reply->is_hedge;
  } else if (op.is_read()) {
    r.node = op.main.node;
  }

  if (ok) ++counters_.ok;
  if (timed_out) ++counters_.timed_out;
  if (stale_config) ++counters_.stale_config;
  if (r.retries > 0) {
    ++counters_.retried;
    counters_.retries_total += static_cast<uint64_t>(r.retries);
  }
  if (r.hedge_won) ++counters_.hedges_won;
  if (ok && op.is_read()) RecordReadLatency(r.latency);

  for (const OpObserver& o : observers_) o(r);
  if (op.done) op.done(r);
}

void MongoClient::CancelOpTimers(PendingOp* op) {
  DisarmAttempt(op);
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

void MongoClient::ReleaseArmConnection(Arm* arm, uint64_t healthy_conn) {
  if (arm->conn_id == 0) return;
  if (arm->conn_id == healthy_conn) {
    pools_[arm->node]->CheckIn(arm->conn_id);
  } else {
    pools_[arm->node]->Discard(arm->conn_id);
  }
  arm->conn_id = 0;
}

void MongoClient::ReleaseOpConnections(PendingOp* op, uint64_t healthy_conn) {
  ReleaseArmConnection(&op->main, healthy_conn);
  ReleaseArmConnection(&op->hedge, healthy_conn);
}

void MongoClient::AbortAttemptsOn(int node) {
  // Driver-spec pool.clear() on server-down: the generation bump ensures
  // no later checkout reuses a socket that was open to the failed server.
  pools_[node]->Clear();
  std::vector<uint64_t> affected;
  for (uint64_t op_id : ops_.Ids()) {
    PendingOp* op = ops_.Find(op_id);
    if (op == nullptr) continue;
    if (op->hedge.conn_id != 0 && op->hedge.node == node) {
      // Hedge outstanding against the dead node: drop its connection but
      // leave the op alone — the main attempt may still answer.
      ReleaseArmConnection(&op->hedge, /*healthy_conn=*/0);
      op->hedge.node = kNoNode;
    }
    if (op->main.node == node) affected.push_back(op_id);
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
    loop_->ScheduleAfter(kSelectionRetryInterval,
                         [this, done = std::move(done)]() mutable {
                           ServerStatus(std::move(done));
                         });
    return;
  }
  auto cmd = std::make_unique<proto::Command>();
  cmd->kind = proto::CommandKind::kServerStatus;
  cmd->op_class = server::OpClass::kServerStatus;
  cmd->require_primary = true;
  cmd->reply_to = client_host_;
  cmd->on_reply = [this, done](const proto::Reply& reply) {
    MarkHeard(reply.node_index);
    AdoptTopology(reply.hello);
    if (reply.status == proto::ReplyStatus::kNotPrimary) {
      // Stale primary view; the piggybacked hello just corrected it.
      loop_->ScheduleAfter(kSelectionRetryInterval,
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
  struct Probe {
    std::function<void(bool, sim::Duration)> done;
    sim::Time start = 0;
    sim::EventId timer = 0;
    bool settled = false;
  };
  auto probe = std::make_shared<Probe>();
  probe->done = std::move(done);
  probe->start = loop_->Now();
  probe->timer = loop_->ScheduleAfter(kPingTimeout, [probe] {
    if (probe->settled) return;
    probe->settled = true;
    probe->done(false, 0);
  });
  auto cmd = std::make_unique<proto::Command>();
  cmd->kind = proto::CommandKind::kPing;
  cmd->reply_to = client_host_;
  cmd->on_reply = [this, probe](const proto::Reply&) {
    if (probe->settled) return;
    probe->settled = true;
    loop_->Cancel(probe->timer);
    probe->done(true, loop_->Now() - probe->start);
  };
  bus_->Send(client_host_, servers_[node].host, std::move(cmd));
}

}  // namespace dcg::driver
