#ifndef DCG_DRIVER_POOL_CONNECTION_POOL_H_
#define DCG_DRIVER_POOL_CONNECTION_POOL_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <utility>

#include "sim/event_loop.h"
#include "sim/time.h"

namespace dcg::driver::pool {

/// Pool knobs, mirroring the MongoDB driver-spec URI options. Defaults
/// are the *unconstrained* pool: unlimited size, free establishment, no
/// background maintenance. With defaults every checkout completes
/// synchronously, schedules no events and draws no randomness, so runs
/// recorded before the pool layer existed replay bit-identically (the
/// determinism goldens depend on this).
struct PoolOptions {
  /// Per-node cap on concurrent connections (maxPoolSize). 0 = unlimited:
  /// a checkout never queues.
  int max_pool_size = 0;

  /// Connections kept warm per node (minPoolSize): the maintenance loop
  /// re-establishes up to this many in the background, so the first ops
  /// after a pool clear do not all pay the establishment cost serially.
  int min_pool_size = 0;

  /// How long a checkout may sit in the wait queue before failing
  /// (waitQueueTimeoutMS). 0 = wait forever.
  sim::Duration wait_queue_timeout = 0;

  /// Simulated cost of establishing one connection (TCP + TLS + auth
  /// handshake), paid in sim-time by the checkout that triggers it. After
  /// a pool clear, this is the re-establishment cost the paper's client
  /// stack would observe as a latency spike.
  sim::Duration establish_cost = 0;

  /// Idle connections unused for longer than this are reaped down to
  /// min_pool_size (maxIdleTimeMS). 0 = never reap.
  sim::Duration max_idle_time = 0;

  /// Cadence of the background maintenance loop (reaping + min-pool
  /// top-up). Only scheduled when max_idle_time or min_pool_size is set.
  sim::Duration maintenance_interval = sim::Seconds(1);
};

/// A per-node client-side connection pool with checkout queueing —
/// the subsystem between MongoClient and the CommandBus. Every command
/// attempt checks a connection out, and every reply/timeout returns it
/// through the driver's unified completion path (MongoClient::FinishOp).
///
/// State machine of one connection:
///
///   (establishing) --establish_cost elapses--> idle
///   idle --CheckOut--> checked-out
///   checked-out --CheckIn (healthy reply)--> idle | destroyed (stale gen)
///   checked-out --Discard (timeout/abort)--> destroyed
///   idle --Clear / reap / stale-at-checkout--> destroyed
///
/// Generations: `Clear()` bumps the pool generation. Idle connections are
/// destroyed immediately; checked-out ones finish their in-flight command
/// but are destroyed at check-in instead of being reused. A connection is
/// only ever handed out with `generation == pool generation` — the
/// invariant the chaos harness asserts (`stale_handouts() == 0`).
///
/// Fairness: the wait queue is strictly FIFO. A freed or newly
/// established connection always goes to the longest-waiting checkout.
/// Wait-queue timeouts fire exactly at enqueue time + wait_queue_timeout.
///
/// Deterministic by construction: no RNG, and no events scheduled unless
/// an establishment, a wait-queue timeout, or background maintenance is
/// actually in play.
class ConnectionPool {
 public:
  /// Result of one checkout request.
  struct Checkout {
    /// False: the wait queue timed out before a connection freed up.
    bool ok = false;
    /// Pool-unique connection id (0 when !ok). Pass back to CheckIn or
    /// Discard exactly once.
    uint64_t conn_id = 0;
    /// Pool generation the connection was established under.
    uint64_t generation = 0;
    /// Time spent waiting: queueing plus any establishment this checkout
    /// paid for. 0 for a synchronous hit on an idle connection.
    sim::Duration wait = 0;
  };
  using CheckoutCallback = std::function<void(const Checkout&)>;

  /// Lifetime totals, for metrics::OpCounters, experiment rows and tests.
  struct Stats {
    uint64_t checkouts = 0;          // successful checkouts delivered
    uint64_t checkout_timeouts = 0;  // wait-queue timeouts
    uint64_t established = 0;        // connections ever created
    uint64_t destroyed = 0;          // stale, discarded, cleared or reaped
    uint64_t clears = 0;             // Clear() calls
    uint64_t max_queue_depth = 0;    // high-water mark of the wait queue
    sim::Duration wait_total = 0;    // sum of Checkout::wait
  };

  ConnectionPool(sim::EventLoop* loop, PoolOptions options);

  ConnectionPool(const ConnectionPool&) = delete;
  ConnectionPool& operator=(const ConnectionPool&) = delete;

  /// Requests a connection. The callback fires synchronously when an idle
  /// connection (or free capacity with zero establishment cost) is
  /// available, otherwise later — after establishment, after a checked-out
  /// connection returns, or with ok=false at the wait-queue deadline.
  void CheckOut(CheckoutCallback done);

  /// Returns a healthy connection (the attempt got a reply). Stale-
  /// generation connections are destroyed instead of being reused.
  void CheckIn(uint64_t conn_id);

  /// Returns a perished connection (attempt timeout, node declared down):
  /// it is destroyed, never reused — real drivers close the socket, since
  /// a late reply would desynchronise the wire.
  void Discard(uint64_t conn_id);

  /// Connection-pool clear (driver-spec pool.clear()): bumps the
  /// generation, destroys idle connections now and in-flight ones at
  /// check-in. Queued checkouts stay queued and are served by freshly
  /// established connections — paying establish_cost — as capacity frees.
  void Clear();

  /// Starts background maintenance (min-pool top-up + idle reaping) when
  /// configured. Without it the pool is purely demand-driven.
  void StartMaintenance();

  uint64_t generation() const { return generation_; }
  int checked_out() const { return checked_out_; }
  int idle() const { return static_cast<int>(idle_.size()); }
  /// Checkouts currently queued (excludes those paying establishment).
  int queue_depth() const { return static_cast<int>(wait_queue_.size()); }
  /// Live connections: idle + checked out + establishing.
  int total_connections() const { return total_; }

  const Stats& stats() const { return stats_; }

  /// Connections handed out with a stale generation — the generation
  /// invariant says this is always 0; the chaos harness asserts it.
  uint64_t stale_handouts() const { return stale_handouts_; }

  const PoolOptions& options() const { return options_; }

 private:
  struct Connection {
    uint64_t generation = 0;
    bool checked_out = false;
  };
  struct Waiter {
    CheckoutCallback done;
    sim::Time enqueued_at = 0;
    sim::EventId timeout_timer = 0;
  };

  bool AtCapacity() const {
    return options_.max_pool_size > 0 && total_ >= options_.max_pool_size;
  }
  /// Hands `conn_id` to `done`, stamping wait/stats. The handout site —
  /// the generation invariant is checked here.
  void Deliver(CheckoutCallback done, uint64_t conn_id, sim::Duration wait);
  /// Begins establishing one connection for `waiter` (nullptr = a warm
  /// min-pool connection with no one waiting on it).
  void Establish(std::unique_ptr<Waiter> waiter);
  void FinishEstablish(std::unique_ptr<Waiter> waiter, uint64_t generation);
  void DestroyConnection(uint64_t conn_id);
  /// A connection or capacity slot just freed: serve the FIFO wait queue.
  void ServeQueue();
  void MaintenanceLoop();

  sim::EventLoop* loop_;
  PoolOptions options_;

  uint64_t generation_ = 0;
  uint64_t next_conn_id_ = 1;
  int total_ = 0;        // idle + checked out + establishing
  int checked_out_ = 0;
  std::map<uint64_t, Connection> connections_;
  /// Idle connections, most-recently-used at the back (LIFO reuse keeps
  /// hot connections hot; reaping scans from the front, the coldest end).
  std::deque<std::pair<uint64_t, sim::Time>> idle_;  // (conn, idle since)
  std::deque<std::unique_ptr<Waiter>> wait_queue_;   // FIFO

  Stats stats_;
  uint64_t stale_handouts_ = 0;
  bool maintenance_running_ = false;
};

}  // namespace dcg::driver::pool

#endif  // DCG_DRIVER_POOL_CONNECTION_POOL_H_
