#ifndef DCG_DRIVER_CLIENT_H_
#define DCG_DRIVER_CLIENT_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "driver/pool/connection_pool.h"
#include "driver/read_preference.h"
#include "metrics/histogram.h"
#include "metrics/op_counters.h"
#include "net/network.h"
#include "obs/trace.h"
#include "proto/command.h"
#include "sim/event_loop.h"
#include "sim/random.h"

namespace dcg::driver {

/// Driver configuration (mirrors mongocxx/driver-spec behaviour).
struct ClientOptions {
  /// Secondaries within this much of the fastest secondary's RTT are
  /// eligible for selection (MongoDB's 15 ms localThresholdMS, §2.2).
  sim::Duration selection_latency_window = sim::Millis(15);

  /// How often the driver pings each node to maintain RTT estimates
  /// (topology monitoring).
  sim::Duration rtt_probe_interval = sim::Seconds(1);

  /// EWMA weight for new RTT samples (driver spec uses 0.2).
  double rtt_ewma_alpha = 0.2;

  /// RTT probes that outlive this are abandoned (the node or link is
  /// down; reachability is tracked by the hello loop, not by pings).
  sim::Duration ping_timeout = sim::Seconds(2);

  /// How often the driver sends `hello` to every node to maintain its
  /// topology view (who is primary, who is reachable).
  sim::Duration hello_interval = sim::Millis(500);

  /// A node that has not answered any traffic for this long is marked
  /// unreachable; its in-flight attempts are failed over immediately
  /// (connection-pool clear on server-down, per the driver spec).
  sim::Duration hello_timeout = sim::Millis(1500);

  /// Optional maxStalenessSeconds: secondaries whose estimated staleness
  /// exceeds this are excluded from selection. -1 disables the filter.
  /// Real MongoDB requires >= 90 s (§2.2); we accept any value so the
  /// ablation can compare it against Decongestant's finer-grained bound,
  /// and `enforce_mongodb_min_staleness` restores the real constraint.
  int64_t max_staleness_seconds = -1;
  bool enforce_mongodb_min_staleness = false;

  /// Poll interval for the staleness cache backing maxStalenessSeconds.
  sim::Duration staleness_refresh_interval = sim::Seconds(1);

  /// Backoff between server-selection retries when no node is currently
  /// selectable (e.g. during a fail-over).
  sim::Duration selection_retry_interval = sim::Millis(200);

  /// Per-attempt timeout: when a sent command has produced no reply for
  /// this long (silent network loss — the server never errors, it just
  /// never answers), the attempt is abandoned and the op retries on a
  /// freshly selected node. 0 disables (an op can then wedge forever on
  /// a lossy link, like the old driver did).
  sim::Duration attempt_timeout = sim::Seconds(10);

  /// Bounded exponential backoff between retry attempts.
  sim::Duration retry_backoff_base = sim::Millis(2);
  sim::Duration retry_backoff_max = sim::Seconds(1);

  /// Default retry budget per op: -1 = unlimited (ops without a deadline
  /// keep trying, preserving the old driver's never-give-up semantics).
  int max_retries = -1;

  /// Default per-op deadline (maxTimeMS); 0 = none. Ops past their
  /// deadline complete with `timed_out` set. Enforced client-side: a
  /// dropped message is silent, so only the client can keep the promise.
  sim::Duration default_op_deadline = 0;

  /// Opt-in hedged reads: after a delay at the `hedge_quantile` of
  /// recently observed read latencies, a second copy of a non-primary
  /// read is sent to the next-best eligible secondary; the first reply
  /// wins and the loser is discarded client-side. Off by default — when
  /// off, the read path schedules nothing extra and draws no randomness.
  bool hedged_reads = false;
  double hedge_quantile = 0.9;
  sim::Duration hedge_min_delay = sim::Millis(1);

  /// Opt-in driver-side command batching (DESIGN.md § Batching &
  /// amortisation): attempts targeting the same node coalesce into one
  /// proto::Envelope, flushed when `batch_max_ops` accumulate, when
  /// `batch_max_delay` elapses, or immediately when a member's deadline
  /// is within one flush delay. One pooled connection carries the whole
  /// envelope; the server charges one envelope_base plus a discounted
  /// per-op increment (ServiceModel's envelope cost table). Off by
  /// default — when off, the send path schedules no extra events and
  /// draws no randomness, so determinism goldens replay unchanged.
  bool batching_enabled = false;
  int batch_max_ops = 16;
  sim::Duration batch_max_delay = sim::Micros(200);

  /// Per-node connection pool (maxPoolSize, minPoolSize,
  /// waitQueueTimeoutMS, establishment cost, idle reaping). Defaults are
  /// the unconstrained pool — synchronous checkouts, no extra events —
  /// so pre-pool determinism goldens replay unchanged.
  pool::PoolOptions pool;
};

/// Per-operation overrides (passed alongside a Read/Write call).
struct OpOptions {
  /// Relative deadline for this op; -1 = use the client default, 0 =
  /// explicitly none.
  sim::Duration deadline = -1;
  /// Retry budget; -2 = use the client default, -1 = unlimited.
  int max_retries = -2;
  /// False excludes this read from hedging even when the client hedges.
  bool hedge_eligible = true;
  /// False keeps this op's latency out of the balancer's feed (control
  /// traffic such as the S-shaped-curve probe reads).
  bool record_latency = true;
  /// Routing metadata stamped on every attempt's command. Sharded mode:
  /// the application client names collection + shard-key value (bodies
  /// are opaque closures a router cannot inspect); the router stamps the
  /// resolved chunk/version on the sub-ops it fans out. Inert (default
  /// empty) against unsharded buses.
  proto::RouteInfo route;
  /// Trace the op's spans should belong to instead of its own op id, and
  /// the span they parent under — set by a router issuing sub-ops so the
  /// client→router→shard legs link into one tree. 0 = own trace / root.
  uint64_t trace_id = 0;
  uint64_t parent_span = 0;
};

/// One record per finished op — read or write, success or failure. It is
/// built once on the unified completion path and handed to every op
/// observer (the Read Balancer harvests latencies from it) and then to the
/// op's own `done` callback.
struct OpResult {
  bool is_read = true;
  ReadPreference requested = ReadPreference::kPrimary;
  /// Client-observed end-to-end latency, pool checkout wait included.
  sim::Duration latency = 0;
  /// Node that served a read; for a failed read, the target of the attempt
  /// outstanding when it failed (-1 if none). Always -1 for writes.
  int node = -1;
  /// A read served by a secondary (false for writes).
  bool used_secondary = false;
  /// The serving node's lastAppliedOpTime at execution (reads) or the
  /// commit point (writes) — the operationTime causal sessions advance to.
  repl::OpTime operation_time;
  /// False when the op failed (deadline hit, retry budget spent or stale
  /// config); `node` and `operation_time` are then meaningless.
  bool ok = true;
  bool timed_out = false;
  /// The serving shard rejected the op's chunk version (kStaleConfig).
  /// Surfaced instead of retried: routing is the caller's (router's) job —
  /// it must refresh its chunk map and re-issue. A rejected write applied
  /// nothing (admission runs before the body), so re-routing cannot
  /// duplicate it.
  bool stale_config = false;
  /// Writes only: the transaction committed (false = rolled back, or the
  /// op failed).
  bool committed = false;
  /// Structured-find result (Find() only; null otherwise).
  std::shared_ptr<const proto::FindResult> find;
  /// Retry attempts this op needed (0 = first attempt answered).
  int retries = 0;
  /// Whether a hedge was sent, and whether it answered first.
  bool hedged = false;
  bool hedge_won = false;
  /// Time spent waiting for pool checkouts (queueing + connection
  /// establishment) across all attempts; part of `latency`, so a saturated
  /// primary pool inflates the balancer's latency estimate and sheds load.
  sim::Duration checkout_wait = 0;
  /// OpOptions::record_latency: false keeps control traffic out of the
  /// balancer's feed.
  bool record_latency = true;

  bool operator==(const OpResult&) const = default;
};

/// The client-side library every simulated application thread shares. It
/// speaks only the wire protocol: topology comes from hello/serverStatus
/// replies, liveness from reply timeouts, data from find/write commands —
/// never from touching replica-set internals. Per-op it provides node
/// selection per Read Preference, deadlines, retries with bounded
/// backoff and re-selection, opt-in hedged reads, and a unified
/// completion path feeding the Read Balancer's latency samples.
class MongoClient {
 public:
  /// Every op's completion callback; op observers take the same shape.
  using Done = std::function<void(const OpResult&)>;
  using OpObserver = Done;
  /// These exist only because perfbench/runner.cc names them; in-tree code
  /// uses driver::OpResult.
  using ReadResult = OpResult;
  using OpStats = OpResult;

  /// The client dials the replica set through its command bus: the bus's
  /// registered server hosts double as the seed list (connection string),
  /// and everything else is learned from replies.
  MongoClient(sim::EventLoop* loop, sim::Rng rng, proto::CommandBus* bus,
              net::HostId client_host, ClientOptions options);

  MongoClient(const MongoClient&) = delete;
  MongoClient& operator=(const MongoClient&) = delete;

  /// Starts topology monitoring: the hello loop (reachability + primary
  /// discovery), RTT probing, and staleness polling when maxStaleness is
  /// set. Without Start() the client runs off its seed view (node 0
  /// primary, everyone reachable) and never notices failures.
  void Start();

  /// Returned by SelectNode when no server is currently selectable.
  static constexpr int kNoNode = -1;

  /// Picks a node index for a read with the given preference, or kNoNode
  /// when nothing is selectable (fail-over in progress).
  int SelectNode(ReadPreference pref);

  /// Issues a read-only operation/transaction. `body` runs against the
  /// chosen node's data at server-side completion; `done` runs back on the
  /// client with the measured end-to-end latency.
  void Read(ReadPreference pref, server::OpClass op_class,
            proto::ReadBody body, Done done, OpOptions opts = {});

  /// Like Read, but the chosen node defers execution until it has applied
  /// `after` (afterClusterTime) — the causal-consistency read gate.
  void ReadAfter(ReadPreference pref, const repl::OpTime& after,
                 server::OpClass op_class, proto::ReadBody body, Done done,
                 OpOptions opts = {});

  /// Issues a structured find (inspectable, unlike a ReadBody closure —
  /// a router can scatter it across shards and merge partials). The
  /// matched documents arrive in `OpResult::find`; every other per-op
  /// mechanism (deadline, retries, hedging, pools) applies unchanged.
  void Find(ReadPreference pref, server::OpClass op_class,
            std::shared_ptr<const proto::FindSpec> spec, Done done,
            OpOptions opts = {});

  /// Issues a read-write transaction (always to the primary). With
  /// WriteConcern::kMajority the acknowledgement waits for majority
  /// replication. Writes are retryable: every attempt carries the same op
  /// id, and the server's transaction table ensures a retried write is
  /// acknowledged — not re-applied — when the first attempt did commit.
  void Write(server::OpClass op_class, proto::TxnBody body, Done done,
             repl::WriteConcern concern = repl::WriteConcern::kW1,
             OpOptions opts = {});

  /// Issues a serverStatus command to the primary and returns the reply to
  /// the client host (full network round trip + primary CPU service).
  void ServerStatus(std::function<void(const proto::ServerStatusReply&)> done);

  /// Application-level ping to a node; `done(true, rtt)` on a completed
  /// round trip, `done(false, 0)` when the probe timed out.
  void PingNode(int node, std::function<void(bool ok, sim::Duration rtt)> done);

  /// Driver-maintained RTT estimate to a node (EWMA of probe results).
  sim::Duration RttEstimate(int node) const { return servers_[node].rtt_ewma; }

  int node_count() const { return static_cast<int>(servers_.size()); }
  /// The node the driver currently believes holds the primary role.
  int primary_index() const { return believed_primary_; }
  /// The highest election term the driver has seen in any hello payload —
  /// the monotonic clock its topology view is ordered by.
  uint64_t believed_term() const { return believed_term_; }
  /// Times the driver observed a primary change and cleared the deposed
  /// primary's connection pool (driver-spec "pool.clear() on stepdown").
  uint64_t stepdown_pool_clears() const { return stepdown_pool_clears_; }
  /// Whether the driver currently believes the node is reachable.
  bool NodeReachable(int node) const { return servers_[node].reachable; }

  /// Registers an observer on the unified completion path. Multicast:
  /// the Read Balancer harvests latencies and the experiment's metrics
  /// registry feeds per-preference histograms off the same records.
  void AddOpObserver(OpObserver observer) {
    observers_.push_back(std::move(observer));
  }

  /// Attaches the run's span tracer (nullptr detaches). Client-side spans
  /// — op, attempt, pool checkout, hedge arm, reply wire transit — are
  /// recorded here; the op id doubles as the trace id, and every command
  /// ships its attempt span id so server-side spans link causally.
  void SetTracer(obs::Tracer* tracer) { tracer_ = tracer; }

  const metrics::OpCounters& op_counters() const { return counters_; }

  /// Occupancy (commands per envelope) of every envelope flushed so far.
  const metrics::Histogram& batch_occupancy() const {
    return batch_occupancy_;
  }
  /// Logical ops currently in flight, in any state. Tests and the chaos
  /// harness pair this with buffered_op_count() to assert the coalescing
  /// buffers drain — no op is silently parked forever.
  size_t pending_op_count() const { return pending_.size(); }
  /// Ops currently sitting in a coalescing buffer awaiting a flush.
  size_t buffered_op_count() const;

  /// Per-node connection pool (every command attempt checks out of the
  /// target node's pool before it touches the wire).
  pool::ConnectionPool& node_pool(int node) { return *pools_[node]; }
  const pool::ConnectionPool& node_pool(int node) const {
    return *pools_[node];
  }

  /// Clears one node's pool (driver-spec pool.clear(): generation bump,
  /// idle connections dropped, in-flight ones perish at check-in). Called
  /// internally on hello silence; exposed for the pool_clear fault.
  void ClearPool(int node) { pools_[node]->Clear(); }

  /// Pool stats summed across all nodes (checkouts, timeouts, queue
  /// high-water marks) for experiment rows and CLI summaries.
  pool::ConnectionPool::Stats PoolTotals() const;
  /// Current total wait-queue depth across all node pools.
  int PoolQueueDepth() const;
  /// Connections currently checked out across all node pools.
  int PoolCheckedOut() const;

  net::HostId client_host() const { return client_host_; }
  sim::EventLoop& loop() { return *loop_; }

 private:
  /// What the driver knows about one server, learned entirely from
  /// replies (the driver-spec ServerDescription).
  struct ServerDescription {
    net::HostId host = -1;
    bool reachable = true;
    sim::Time last_heard = 0;
    sim::Duration rtt_ewma = 0;
    int64_t staleness_s = 0;
  };

  /// One logical in-flight operation (may span several attempts).
  struct PendingOp {
    bool is_read = true;
    ReadPreference pref = ReadPreference::kPrimary;
    server::OpClass op_class = server::OpClass::kPointRead;
    proto::ReadBody read_body;
    std::shared_ptr<const proto::FindSpec> find_spec;
    proto::RouteInfo route;
    proto::TxnBody txn_body;
    repl::WriteConcern concern = repl::WriteConcern::kW1;
    repl::OpTime after;
    sim::Time start = 0;
    sim::Time deadline = 0;  // absolute; 0 = none
    int max_retries = -1;
    bool hedge_eligible = true;
    bool record_latency = true;
    int attempts_sent = 0;
    int target = kNoNode;       // node of the outstanding attempt
    int last_target = kNoNode;  // excluded on re-selection
    /// Connection of the outstanding attempt (0 = none checked out:
    /// either between attempts or still queued in the pool).
    uint64_t conn_id = 0;
    int conn_node = kNoNode;
    /// True while the attempt sits in its target node's coalescing
    /// buffer awaiting an envelope flush (batching only).
    bool buffered = false;
    /// In-flight envelope carrying the attempt (0 = none / unbatched).
    /// The shared connection is tracked on the envelope, not the op, so
    /// ReleaseOpConnections cannot double-settle it.
    uint64_t envelope_id = 0;
    /// Connection carrying the hedge request, when one is outstanding.
    uint64_t hedge_conn_id = 0;
    int hedge_node = kNoNode;
    /// Accumulated pool checkout wait across every attempt of this op.
    sim::Duration checkout_wait = 0;
    bool hedged = false;
    sim::EventId attempt_timer = 0;
    sim::EventId deadline_timer = 0;
    sim::EventId backoff_timer = 0;
    sim::EventId hedge_timer = 0;
    /// Tracing bookkeeping (all zero when the tracer is off). Span ids
    /// are allocated when the interval opens; the record is written once,
    /// when it closes.
    uint64_t op_span = 0;
    uint64_t attempt_span = 0;
    sim::Time attempt_start = 0;
    sim::Time checkout_start = 0;
    uint64_t hedge_span = 0;
    sim::Time hedge_start = 0;
    /// Trace/parent overrides for router sub-ops (OpOptions::trace_id).
    uint64_t trace_override = 0;
    uint64_t parent_span_override = 0;
    Done done;
  };

  void HelloLoop();
  void ProbeLoop();
  void StalenessLoop();
  std::vector<int> EligibleSecondaries();
  /// Re-selection for retries: avoids `exclude` when an alternative
  /// eligible node exists.
  int SelectNodeExcluding(ReadPreference pref, int exclude);

  uint64_t BeginOp(PendingOp op, OpOptions opts);
  void StartAttempt(uint64_t op_id);
  /// Checkout completion for attempt number `attempt` targeting `node`;
  /// sends the command, or retries on a wait-queue timeout. Returns the
  /// connection unused when the op was superseded while queued.
  void OnCheckout(uint64_t op_id, int node, int attempt,
                  const pool::ConnectionPool::Checkout& co);
  /// Ships the attempt's command over its checked-out connection and arms
  /// the attempt/hedge timers.
  void SendAttempt(uint64_t op_id);
  /// (op id, attempt ordinal) captured at flush time: the attempt may be
  /// superseded while the envelope's shared checkout sits in the pool's
  /// wait queue, and a stale rider must not ship twice.
  struct BatchEntry {
    uint64_t op_id = 0;
    int attempt = 0;
  };
  /// Parks the attempt in `node`'s coalescing buffer (batching on). The
  /// buffer flushes on size (batch_max_ops), delay (batch_max_delay), or
  /// immediately when this op's deadline is within one flush delay.
  void EnqueueInBatch(uint64_t op_id, int node);
  /// Drains `node`'s buffer into one envelope riding one pool checkout.
  void FlushBatch(int node);
  void OnEnvelopeCheckout(int node, std::vector<BatchEntry> batch,
                          sim::Time flush_start,
                          const pool::ConnectionPool::Checkout& co);
  /// Removes a still-buffered op from its node's buffer (the op
  /// completed, failed, or retargeted before the flush).
  void RemoveFromBatch(uint64_t op_id, int node);
  /// Drops the op's claim on its in-flight envelope. The last rider off
  /// settles the shared connection: checked in healthy only when every
  /// rider's winning reply rode it, discarded otherwise.
  void DetachFromEnvelope(PendingOp* op, uint64_t healthy_conn);
  /// Connection carrying the op's in-flight envelope (0 = none).
  uint64_t EnvelopeConn(const PendingOp& op) const;
  void OnHedgeCheckout(uint64_t op_id, int node, int attempt,
                       const pool::ConnectionPool::Checkout& co);
  void OnReply(uint64_t op_id, const proto::Reply& reply);
  void OnAttemptTimeout(uint64_t op_id);
  void OnDeadline(uint64_t op_id);
  void OnHedgeTimer(uint64_t op_id);
  /// Abandons the outstanding attempt and schedules the next one with
  /// bounded exponential backoff (or fails the op: budget spent).
  void RetryAttempt(uint64_t op_id);
  /// Resolves the op — the one place every op ends: tears down its
  /// timers, spans and connections, bumps the outcome counters, builds its
  /// OpResult and hands it to the observers and then to `done`. `reply`
  /// is the winning reply, or null when the op failed.
  void FinishOp(uint64_t op_id, const proto::Reply* reply,
                bool timed_out = false, bool stale_config = false);
  /// Trace id the op's spans belong to (its own op id, unless a router
  /// threaded the enclosing client op's trace through OpOptions).
  uint64_t TraceId(uint64_t op_id, const PendingOp& op) const {
    return op.trace_override != 0 ? op.trace_override : op_id;
  }
  void CancelOpTimers(PendingOp* op);
  /// Returns every connection the op still holds: the winning reply's
  /// connection is checked in healthy, abandoned ones are discarded.
  /// `healthy_conn` names the connection that carried a reply (0 = none).
  void ReleaseOpConnections(PendingOp* op, uint64_t healthy_conn);
  /// Connection-pool clear: fails over every attempt outstanding against
  /// a node that was just declared unreachable.
  void AbortAttemptsOn(int node);
  /// Merges a reply's hello piggyback into the topology view.
  void AdoptTopology(const proto::HelloReply& hello);
  /// One branch per probe site: tracing must be free when off.
  bool tracing() const { return tracer_ != nullptr && tracer_->enabled(); }
  /// Writes the op's attempt / hedge / op spans at completion. `reply` is
  /// null when the op failed (deadline, retry budget).
  void CloseOpSpans(const PendingOp& op, uint64_t op_id, bool ok,
                    const proto::Reply* reply);
  void MarkHeard(int node);
  /// Current hedge delay: the configured quantile of recent read
  /// latencies (floored at hedge_min_delay).
  sim::Duration HedgeDelay() const;
  void RecordReadLatency(sim::Duration latency);

  sim::EventLoop* loop_;
  sim::Rng rng_;
  proto::CommandBus* bus_;
  net::Network* network_;
  net::HostId client_host_;
  ClientOptions options_;

  std::vector<ServerDescription> servers_;
  /// One connection pool per node, indexed like servers_.
  std::vector<std::unique_ptr<pool::ConnectionPool>> pools_;
  int believed_primary_ = 0;
  uint64_t believed_term_ = 0;
  uint64_t stepdown_pool_clears_ = 0;
  bool started_ = false;

  // std::map: deterministic iteration (AbortAttemptsOn scans it).
  std::map<uint64_t, PendingOp> pending_;
  uint64_t next_op_id_ = 1;

  /// Per-node coalescing buffer (batching on; empty and event-free when
  /// batching is off). Indexed like servers_.
  struct NodeBatcher {
    std::vector<uint64_t> buffered;
    sim::EventId flush_timer = 0;
    /// Enqueue instant of the oldest buffered op (envelope span start).
    sim::Time first_enqueue = 0;
  };
  /// One envelope on the wire. Riders detach as they complete / retry /
  /// fail; `outstanding` counts the ones still attached.
  struct InflightEnvelope {
    int node = kNoNode;
    uint64_t conn_id = 0;
    int outstanding = 0;
    bool healthy = true;
  };

  std::vector<NodeBatcher> batchers_;
  // std::map: deterministic iteration, like pending_.
  std::map<uint64_t, InflightEnvelope> envelopes_;
  uint64_t next_envelope_id_ = 1;
  metrics::Histogram batch_occupancy_;

  metrics::OpCounters counters_;
  std::vector<OpObserver> observers_;
  obs::Tracer* tracer_ = nullptr;

  /// Ring of recent completed-read latencies driving the hedge delay.
  std::vector<sim::Duration> read_latency_ring_;
  size_t read_latency_next_ = 0;
};

}  // namespace dcg::driver

#endif  // DCG_DRIVER_CLIENT_H_
