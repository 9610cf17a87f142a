// Connection-pool tests: capacity enforcement, FIFO checkout fairness,
// waitQueueTimeoutMS firing exactly at its deadline, generation
// invalidation across Clear(), min-pool warmup / idle reaping, and a
// same-seed determinism check with a constrained pool enabled end-to-end.

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "driver/pool/connection_pool.h"
#include "exp/experiment.h"
#include "sim/event_loop.h"
#include "sim/time.h"

namespace dcg::driver::pool {
namespace {

/// Synchronously collected checkout results for assertion convenience.
struct Collected {
  std::vector<ConnectionPool::Checkout> results;
  ConnectionPool::CheckoutCallback Cb() {
    return [this](const ConnectionPool::Checkout& co) {
      results.push_back(co);
    };
  }
};

TEST(ConnectionPoolTest, DefaultPoolIsSynchronousAndEventFree) {
  sim::EventLoop loop;
  ConnectionPool pool(&loop, PoolOptions{});
  Collected got;
  pool.CheckOut(got.Cb());
  pool.CheckOut(got.Cb());
  // Both delivered inline — unlimited capacity, zero establishment cost.
  ASSERT_EQ(got.results.size(), 2u);
  EXPECT_TRUE(got.results[0].ok);
  EXPECT_TRUE(got.results[1].ok);
  EXPECT_EQ(got.results[0].wait, 0);
  EXPECT_EQ(got.results[1].wait, 0);
  // The determinism contract: the default pool schedules nothing.
  EXPECT_EQ(loop.PendingEvents(), 0u);
  pool.CheckIn(got.results[0].conn_id);
  pool.CheckIn(got.results[1].conn_id);
  EXPECT_EQ(loop.PendingEvents(), 0u);
  // LIFO reuse: the most recently returned connection goes out first.
  pool.CheckOut(got.Cb());
  ASSERT_EQ(got.results.size(), 3u);
  EXPECT_EQ(got.results[2].conn_id, got.results[1].conn_id);
}

TEST(ConnectionPoolTest, MaxPoolSizeCapsConcurrentCheckouts) {
  sim::EventLoop loop;
  PoolOptions options;
  options.max_pool_size = 2;
  ConnectionPool pool(&loop, options);
  Collected got;
  pool.CheckOut(got.Cb());
  pool.CheckOut(got.Cb());
  pool.CheckOut(got.Cb());  // over capacity: must queue
  ASSERT_EQ(got.results.size(), 2u);
  EXPECT_EQ(pool.checked_out(), 2);
  EXPECT_EQ(pool.total_connections(), 2);
  EXPECT_EQ(pool.queue_depth(), 1);

  // A check-in hands the freed connection straight to the waiter.
  pool.CheckIn(got.results[0].conn_id);
  ASSERT_EQ(got.results.size(), 3u);
  EXPECT_TRUE(got.results[2].ok);
  EXPECT_EQ(got.results[2].conn_id, got.results[0].conn_id);
  EXPECT_EQ(pool.queue_depth(), 0);
  EXPECT_EQ(pool.total_connections(), 2);  // never exceeded the cap
}

TEST(ConnectionPoolTest, WaitQueueIsFifo) {
  sim::EventLoop loop;
  PoolOptions options;
  options.max_pool_size = 1;
  ConnectionPool pool(&loop, options);
  Collected holder;
  pool.CheckOut(holder.Cb());
  ASSERT_EQ(holder.results.size(), 1u);

  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    pool.CheckOut([&pool, &order, i](const ConnectionPool::Checkout& co) {
      ASSERT_TRUE(co.ok);
      order.push_back(i);
      pool.CheckIn(co.conn_id);  // cascade: each waiter serves the next
    });
  }
  EXPECT_EQ(pool.queue_depth(), 5);
  pool.CheckIn(holder.results[0].conn_id);
  // Strict FIFO: the longest-waiting checkout is always served first.
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(pool.stats().max_queue_depth, 5u);
}

TEST(ConnectionPoolTest, WaitQueueTimeoutFiresExactlyAtDeadline) {
  sim::EventLoop loop;
  PoolOptions options;
  options.max_pool_size = 1;
  options.wait_queue_timeout = sim::Millis(5);
  ConnectionPool pool(&loop, options);
  Collected holder;
  pool.CheckOut(holder.Cb());

  loop.ScheduleAfter(sim::Millis(3), [&] {
    // Enqueued at t=3ms: the timeout must fire at exactly t=8ms.
    pool.CheckOut([&](const ConnectionPool::Checkout& co) {
      EXPECT_FALSE(co.ok);
      EXPECT_EQ(co.conn_id, 0u);
      EXPECT_EQ(loop.Now(), sim::Millis(8));
    });
  });
  loop.RunAll();
  EXPECT_EQ(pool.queue_depth(), 0);
  EXPECT_EQ(pool.stats().checkout_timeouts, 1u);
  // The holder's connection was never affected.
  EXPECT_EQ(pool.checked_out(), 1);
}

TEST(ConnectionPoolTest, CheckInJustBeforeDeadlineBeatsTheTimeout) {
  sim::EventLoop loop;
  PoolOptions options;
  options.max_pool_size = 1;
  options.wait_queue_timeout = sim::Millis(5);
  ConnectionPool pool(&loop, options);
  Collected holder;
  pool.CheckOut(holder.Cb());

  Collected waiter;
  pool.CheckOut(waiter.Cb());
  loop.ScheduleAfter(sim::Millis(5) - 1, [&] {
    pool.CheckIn(holder.results[0].conn_id);
  });
  loop.RunAll();
  ASSERT_EQ(waiter.results.size(), 1u);
  EXPECT_TRUE(waiter.results[0].ok);
  EXPECT_EQ(waiter.results[0].wait, sim::Millis(5) - 1);
  EXPECT_EQ(pool.stats().checkout_timeouts, 0u);
}

TEST(ConnectionPoolTest, ClearInvalidatesByGeneration) {
  sim::EventLoop loop;
  ConnectionPool pool(&loop, PoolOptions{});
  Collected got;
  pool.CheckOut(got.Cb());  // will stay checked out across the clear
  pool.CheckOut(got.Cb());
  pool.CheckIn(got.results[1].conn_id);  // idle at clear time
  ASSERT_EQ(pool.idle(), 1);

  pool.Clear();
  EXPECT_EQ(pool.generation(), 1u);
  // Idle connections die immediately; the checked-out one survives until
  // check-in, then is destroyed instead of being reused.
  EXPECT_EQ(pool.idle(), 0);
  EXPECT_EQ(pool.total_connections(), 1);
  pool.CheckIn(got.results[0].conn_id);
  EXPECT_EQ(pool.total_connections(), 0);

  // Post-clear checkouts get fresh connections under the new generation.
  pool.CheckOut(got.Cb());
  ASSERT_EQ(got.results.size(), 3u);
  EXPECT_TRUE(got.results[2].ok);
  EXPECT_EQ(got.results[2].generation, 1u);
  EXPECT_NE(got.results[2].conn_id, got.results[0].conn_id);
  EXPECT_NE(got.results[2].conn_id, got.results[1].conn_id);
  // The invariant the chaos harness asserts: never a stale handout.
  EXPECT_EQ(pool.stale_handouts(), 0u);
  EXPECT_EQ(pool.stats().clears, 1u);
}

// Connections live in a table indexed by conn id. Ids are never reused, so
// a destroyed connection's slot stays dead across clears and a late
// return of it is caught, like a return of an id the pool never issued.
TEST(ConnectionPoolTest, ConnIdsAreNeverReusedAfterClear) {
  sim::EventLoop loop;
  ConnectionPool pool(&loop, PoolOptions{});
  Collected got;
  for (int i = 0; i < 3; ++i) pool.CheckOut(got.Cb());
  pool.CheckIn(got.results[0].conn_id);
  pool.Discard(got.results[1].conn_id);
  pool.Clear();  // destroys the idle one; the third perishes at check-in
  pool.CheckIn(got.results[2].conn_id);
  EXPECT_EQ(pool.total_connections(), 0);
  uint64_t highest = 0;
  for (const ConnectionPool::Checkout& co : got.results) {
    highest = std::max(highest, co.conn_id);
  }
  for (int i = 0; i < 3; ++i) pool.CheckOut(got.Cb());
  ASSERT_EQ(got.results.size(), 6u);
  for (size_t i = 3; i < 6; ++i) {
    EXPECT_GT(got.results[i].conn_id, highest);
    EXPECT_EQ(got.results[i].generation, 1u);
  }
}

TEST(ConnectionPoolDeathTest, ReturningADeadOrUnknownConnectionAborts) {
  sim::EventLoop loop;
  ConnectionPool pool(&loop, PoolOptions{});
  Collected got;
  pool.CheckOut(got.Cb());
  pool.CheckOut(got.Cb());
  const uint64_t discarded = got.results[0].conn_id;
  const uint64_t cleared = got.results[1].conn_id;
  pool.Discard(discarded);
  pool.CheckIn(cleared);
  pool.Clear();  // destroys the idle connection
  for (uint64_t conn : {discarded, cleared}) {
    EXPECT_DEATH(pool.CheckIn(conn), "check-in of a connection not checked");
    EXPECT_DEATH(pool.Discard(conn), "discard of a connection not checked");
  }
  // Never issued: id 0, and ids past the last one handed out.
  for (uint64_t conn : {uint64_t{0}, cleared + 1, cleared + 1000}) {
    EXPECT_DEATH(pool.CheckIn(conn), "check-in of a connection not checked");
    EXPECT_DEATH(pool.Discard(conn), "discard of a connection not checked");
  }
  // An idle connection is not checked out either.
  pool.CheckOut(got.Cb());
  pool.CheckIn(got.results[2].conn_id);
  EXPECT_DEATH(pool.CheckIn(got.results[2].conn_id), "not checked out");
}

TEST(ConnectionPoolTest, ClearDuringEstablishmentRetriesUnderNewGeneration) {
  sim::EventLoop loop;
  PoolOptions options;
  options.max_pool_size = 1;
  options.establish_cost = sim::Millis(2);
  ConnectionPool pool(&loop, options);
  Collected got;
  pool.CheckOut(got.Cb());  // establishment completes at t=2ms
  loop.ScheduleAfter(sim::Millis(1), [&] { pool.Clear(); });
  loop.RunAll();
  // The handshake that was in flight across the clear is thrown away and
  // repeated under the new generation: delivery at t=4ms, not t=2ms.
  ASSERT_EQ(got.results.size(), 1u);
  EXPECT_TRUE(got.results[0].ok);
  EXPECT_EQ(got.results[0].generation, 1u);
  EXPECT_EQ(got.results[0].wait, sim::Millis(4));
  EXPECT_EQ(loop.Now(), sim::Millis(4));
  EXPECT_EQ(pool.stale_handouts(), 0u);
}

TEST(ConnectionPoolTest, EstablishmentCostIsPaidByTheTriggeringCheckout) {
  sim::EventLoop loop;
  PoolOptions options;
  options.establish_cost = sim::Millis(3);
  ConnectionPool pool(&loop, options);
  Collected got;
  pool.CheckOut(got.Cb());
  EXPECT_TRUE(got.results.empty());  // asynchronous now
  loop.RunAll();
  ASSERT_EQ(got.results.size(), 1u);
  EXPECT_EQ(got.results[0].wait, sim::Millis(3));
  // A second checkout after check-in reuses the warm connection for free.
  pool.CheckIn(got.results[0].conn_id);
  pool.CheckOut(got.Cb());
  ASSERT_EQ(got.results.size(), 2u);
  EXPECT_EQ(got.results[1].wait, 0);
}

TEST(ConnectionPoolTest, MaintenanceWarmsMinPoolAndReapsIdle) {
  sim::EventLoop loop;
  PoolOptions options;
  options.min_pool_size = 2;
  options.establish_cost = sim::Millis(1);
  options.max_idle_time = sim::Seconds(5);
  options.maintenance_interval = sim::Seconds(1);
  ConnectionPool pool(&loop, options);
  pool.StartMaintenance();
  loop.RunUntil(sim::Seconds(2));
  // Warmed up to minPoolSize without any demand.
  EXPECT_EQ(pool.total_connections(), 2);
  EXPECT_EQ(pool.idle(), 2);

  // A demand burst grows the pool past the floor...
  Collected got;
  for (int i = 0; i < 4; ++i) pool.CheckOut(got.Cb());
  loop.RunUntil(sim::Seconds(3));
  ASSERT_EQ(got.results.size(), 4u);
  for (const auto& co : got.results) pool.CheckIn(co.conn_id);
  EXPECT_EQ(pool.total_connections(), 4);

  // ...and idle reaping shrinks it back to minPoolSize once the extras
  // sit unused past maxIdleTime.
  loop.RunUntil(sim::Seconds(20));
  EXPECT_EQ(pool.total_connections(), 2);
  EXPECT_EQ(pool.idle(), 2);
}

/// Compact deterministic fingerprint of an experiment run with a
/// constrained pool: period rows + driver/pool counters.
std::string PooledRunTrace(uint64_t seed) {
  exp::ExperimentConfig config;
  config.seed = seed;
  config.system = exp::SystemType::kDecongestant;
  config.kind = exp::WorkloadKind::kYcsb;
  config.phases = {{0, 40, 0.95}};
  config.duration = sim::Seconds(60);
  config.warmup = sim::Seconds(20);
  config.run_s_workload = false;
  config.client_options.pool.max_pool_size = 4;
  config.client_options.pool.establish_cost = sim::Millis(1);
  config.client_options.pool.wait_queue_timeout = sim::Millis(200);
  config.client_options.pool.min_pool_size = 1;
  config.client_options.pool.max_idle_time = sim::Seconds(5);
  exp::Experiment experiment(config);
  experiment.Run();

  const obs::MetricsRegistry& registry = experiment.metrics_registry();
  const std::vector<double> timeouts =
      registry.PerPeriod("pool_checkout_timeouts");
  const std::vector<double> wait_ms = registry.PerPeriod("pool_checkout_wait");
  const std::vector<double> queue = registry.PerPeriod("pool_queue_depth");
  std::string trace;
  char line[192];
  for (size_t i = 0; i < experiment.rows().size(); ++i) {
    const exp::PeriodRow& row = experiment.rows()[i];
    std::snprintf(line, sizeof(line),
                  "t=%.0f reads=%llu sec=%llu writes=%llu poolto=%.0f "
                  "wait=%.3f q=%.0f\n",
                  sim::ToSeconds(row.start),
                  static_cast<unsigned long long>(row.reads),
                  static_cast<unsigned long long>(row.reads_secondary),
                  static_cast<unsigned long long>(row.writes), timeouts[i],
                  wait_ms[i], queue[i]);
    trace += line;
  }
  const ConnectionPool::Stats totals = experiment.client().PoolTotals();
  std::snprintf(line, sizeof(line),
                "pool co=%llu to=%llu est=%llu destroyed=%llu peakq=%llu "
                "wait_ms=%.3f\n",
                static_cast<unsigned long long>(totals.checkouts),
                static_cast<unsigned long long>(totals.checkout_timeouts),
                static_cast<unsigned long long>(totals.established),
                static_cast<unsigned long long>(totals.destroyed),
                static_cast<unsigned long long>(totals.max_queue_depth),
                sim::ToMillis(totals.wait_total));
  trace += line;
  return trace;
}

TEST(ConnectionPoolTest, PooledRunsAreDeterministic) {
  // Same seed, constrained pool (queueing, establishment costs, reaping
  // all active): two runs must be bit-identical — the pool draws no
  // randomness and schedules deterministically.
  const std::string first = PooledRunTrace(99);
  const std::string second = PooledRunTrace(99);
  EXPECT_EQ(first, second);
  // And the run actually exercised the pool.
  EXPECT_NE(first.find("pool co="), std::string::npos);
}

TEST(ConnectionPoolTest, SaturatedPoolShowsUpInClientLatency) {
  // One connection per node with real establishment cost and many
  // closed-loop clients: checkout wait must surface in the experiment's
  // pool columns and in per-op checkout_wait (it is client-observed
  // latency — what the Read Balancer's estimate ingests).
  exp::ExperimentConfig config;
  config.seed = 7;
  config.system = exp::SystemType::kPrimary;  // all load on one node
  config.kind = exp::WorkloadKind::kYcsb;
  config.phases = {{0, 30, 0.95}};
  config.duration = sim::Seconds(40);
  config.warmup = sim::Seconds(10);
  config.run_s_workload = false;
  config.client_options.pool.max_pool_size = 2;
  exp::Experiment experiment(config);
  sim::Duration max_wait = 0;
  experiment.SetOpObserver([&](const workload::OpOutcome& outcome) {
    max_wait = std::max(max_wait, outcome.checkout_wait);
    if (outcome.ok) {
      EXPECT_LE(outcome.checkout_wait, outcome.latency);
    }
  });
  experiment.Run();
  EXPECT_GT(max_wait, 0);
  const ConnectionPool::Stats totals = experiment.client().PoolTotals();
  EXPECT_GT(totals.wait_total, 0);
  EXPECT_GT(totals.max_queue_depth, 0u);
  // 30 clients through 2 connections: the pool never grew past the cap.
  for (int i = 0; i < experiment.client().node_count(); ++i) {
    EXPECT_LE(experiment.client().node_pool(i).total_connections(), 2);
    EXPECT_EQ(experiment.client().node_pool(i).stale_handouts(), 0u);
  }
}

}  // namespace
}  // namespace dcg::driver::pool
