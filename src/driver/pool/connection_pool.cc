#include "driver/pool/connection_pool.h"

#include <algorithm>
#include <utility>

#include "util/check.h"

namespace dcg::driver::pool {

ConnectionPool::ConnectionPool(sim::EventLoop* loop, PoolOptions options)
    : loop_(loop), options_(options) {
  DCG_CHECK_MSG(options_.max_pool_size >= 0, "negative maxPoolSize");
  DCG_CHECK_MSG(options_.min_pool_size >= 0, "negative minPoolSize");
  DCG_CHECK_MSG(options_.max_pool_size == 0 ||
                    options_.min_pool_size <= options_.max_pool_size,
                "minPoolSize exceeds maxPoolSize");
}

ConnectionPool::Connection& ConnectionPool::CheckedOutConnection(
    uint64_t conn_id, const char* what) {
  DCG_CHECK_MSG(
      conn_id < connections_.size() && connections_[conn_id].checked_out,
      what);
  return connections_[conn_id];
}

uint64_t ConnectionPool::NewConnection(uint64_t generation) {
  const uint64_t conn_id = connections_.size();
  connections_.push_back(Connection{generation, /*checked_out=*/false});
  ++stats_.established;
  return conn_id;
}

ConnectionPool::Checkout ConnectionPool::Handout(uint64_t conn_id,
                                                 sim::Duration wait) {
  Connection& conn = connections_[conn_id];
  // The generation invariant: a connection is never handed out across a
  // clear. Stale connections are destroyed at checkout/check-in/establish
  // completion, so this counter staying 0 is the proof the chaos harness
  // asserts.
  if (conn.generation != generation_) ++stale_handouts_;
  conn.checked_out = true;
  ++checked_out_;
  ++stats_.checkouts;
  stats_.wait_total += wait;
  Checkout result;
  result.ok = true;
  result.conn_id = conn_id;
  result.generation = conn.generation;
  result.wait = wait;
  return result;
}

void ConnectionPool::Deliver(std::unique_ptr<Waiter> waiter,
                             uint64_t conn_id) {
  if (waiter->timeout_timer != 0) loop_->Cancel(waiter->timeout_timer);
  waiter->done(Handout(conn_id, loop_->Now() - waiter->enqueued_at));
}

std::optional<ConnectionPool::Checkout> ConnectionPool::TryCheckOutNow() {
  // LIFO reuse of idle connections; stale ones (pre-clear) die here.
  while (!idle_.empty()) {
    const uint64_t conn_id = idle_.back().first;
    idle_.pop_back();
    if (connections_[conn_id].generation != generation_) {
      DestroyConnection();
      continue;
    }
    return Handout(conn_id, 0);
  }
  if (AtCapacity() || options_.establish_cost != 0) return std::nullopt;
  ++total_;  // free establishment completes on the spot
  return Handout(NewConnection(generation_), 0);
}

void ConnectionPool::Wait(CheckoutCallback done) {
  auto waiter = std::make_unique<Waiter>();
  waiter->done = std::move(done);
  waiter->enqueued_at = loop_->Now();
  if (!AtCapacity()) {
    Establish(std::move(waiter));
    return;
  }
  // Pool exhausted: join the FIFO wait queue. The timeout fires exactly
  // at enqueue + wait_queue_timeout (waitQueueTimeoutMS semantics).
  if (options_.wait_queue_timeout > 0) {
    Waiter* raw = waiter.get();
    waiter->timeout_timer =
        loop_->ScheduleAfter(options_.wait_queue_timeout, [this, raw] {
          for (auto it = wait_queue_.begin(); it != wait_queue_.end(); ++it) {
            if (it->get() != raw) continue;
            std::unique_ptr<Waiter> timed_out = std::move(*it);
            wait_queue_.erase(it);
            ++stats_.checkout_timeouts;
            timed_out->done(Checkout{});  // ok = false
            return;
          }
        });
  }
  wait_queue_.push_back(std::move(waiter));
  stats_.max_queue_depth =
      std::max(stats_.max_queue_depth,
               static_cast<uint64_t>(wait_queue_.size()));
}

void ConnectionPool::Establish(std::unique_ptr<Waiter> waiter) {
  ++total_;  // establishing connections count toward maxPoolSize
  const uint64_t gen = generation_;
  if (options_.establish_cost == 0) {
    FinishEstablish(std::move(waiter), gen);
    return;
  }
  // shared_ptr: std::function requires copyable callables.
  auto shared = std::make_shared<std::unique_ptr<Waiter>>(std::move(waiter));
  loop_->ScheduleAfter(options_.establish_cost, [this, shared, gen] {
    FinishEstablish(std::move(*shared), gen);
  });
}

void ConnectionPool::FinishEstablish(std::unique_ptr<Waiter> waiter,
                                     uint64_t generation) {
  if (generation != generation_) {
    // The pool was cleared while the handshake was in flight: the socket
    // may lead to a dead server, so the connection is closed on arrival
    // (driver-spec behaviour). A waiting checkout starts over under the
    // new generation, paying the establishment cost again.
    DestroyConnection();
    if (waiter != nullptr) Establish(std::move(waiter));
    return;
  }
  const uint64_t conn_id = NewConnection(generation);
  if (waiter != nullptr) {
    Deliver(std::move(waiter), conn_id);
    return;
  }
  // Warm min-pool connection — idle unless someone is already queued.
  if (!wait_queue_.empty()) {
    std::unique_ptr<Waiter> next = std::move(wait_queue_.front());
    wait_queue_.pop_front();
    Deliver(std::move(next), conn_id);
    return;
  }
  idle_.emplace_back(conn_id, loop_->Now());
}

void ConnectionPool::CheckIn(uint64_t conn_id) {
  Connection& conn = CheckedOutConnection(
      conn_id, "check-in of a connection not checked out");
  conn.checked_out = false;
  --checked_out_;
  if (conn.generation != generation_) {
    // Perished by a clear while in flight: destroy instead of reuse.
    DestroyConnection();
    ServeQueue();  // the freed capacity slot can establish a fresh one
    return;
  }
  if (!wait_queue_.empty()) {
    std::unique_ptr<Waiter> next = std::move(wait_queue_.front());
    wait_queue_.pop_front();
    Deliver(std::move(next), conn_id);
    return;
  }
  idle_.emplace_back(conn_id, loop_->Now());
}

void ConnectionPool::Discard(uint64_t conn_id) {
  CheckedOutConnection(conn_id, "discard of a connection not checked out")
      .checked_out = false;
  --checked_out_;
  DestroyConnection();
  ServeQueue();
}

void ConnectionPool::Clear() {
  ++generation_;
  ++stats_.clears;
  while (!idle_.empty()) {
    DestroyConnection();
    idle_.pop_back();
  }
  // Checked-out connections perish at check-in. Queued checkouts survive
  // the clear and are served by fresh establishment as capacity frees —
  // starting now, with the capacity the idle connections just released.
  ServeQueue();
}

void ConnectionPool::DestroyConnection() {
  --total_;
  ++stats_.destroyed;
}

void ConnectionPool::ServeQueue() {
  while (!wait_queue_.empty()) {
    if (!idle_.empty()) {
      const uint64_t conn_id = idle_.back().first;
      idle_.pop_back();
      if (connections_[conn_id].generation != generation_) {
        DestroyConnection();
        continue;
      }
      std::unique_ptr<Waiter> next = std::move(wait_queue_.front());
      wait_queue_.pop_front();
      Deliver(std::move(next), conn_id);
      continue;
    }
    if (AtCapacity()) return;
    std::unique_ptr<Waiter> next = std::move(wait_queue_.front());
    wait_queue_.pop_front();
    if (next->timeout_timer != 0) loop_->Cancel(next->timeout_timer);
    Establish(std::move(next));
  }
}

void ConnectionPool::StartMaintenance() {
  if (maintenance_running_) return;
  if (options_.max_idle_time == 0 && options_.min_pool_size == 0) return;
  maintenance_running_ = true;
  MaintenanceLoop();
}

void ConnectionPool::MaintenanceLoop() {
  // Reap connections idle past maxIdleTime, coldest first, but never
  // below the minPoolSize floor.
  if (options_.max_idle_time > 0) {
    const sim::Time now = loop_->Now();
    while (!idle_.empty() && total_ > options_.min_pool_size &&
           now - idle_.front().second >= options_.max_idle_time) {
      DestroyConnection();
      idle_.pop_front();
    }
  }
  // Top the pool back up to minPoolSize (after reaping, clears, drops).
  while (total_ < options_.min_pool_size && !AtCapacity()) {
    Establish(nullptr);
  }
  loop_->ScheduleAfter(options_.maintenance_interval,
                       [this] { MaintenanceLoop(); });
}

}  // namespace dcg::driver::pool
