#ifndef DCG_CORE_CLIENT_STACK_H_
#define DCG_CORE_CLIENT_STACK_H_

#include <memory>
#include <optional>

#include "core/balancer_config.h"
#include "core/read_balancer.h"
#include "core/routing_policy.h"
#include "core/shared_state.h"
#include "driver/client.h"
#include "driver/read_preference.h"
#include "net/network.h"
#include "proto/command.h"
#include "sim/event_loop.h"
#include "sim/random.h"

namespace dcg::core {

/// How a client system routes its reads: a Read Preference hard-coded at
/// development time (the §4.1.3 baselines), or Decongestant's Balance
/// Fraction (kBalanced).
using Routing = std::optional<driver::ReadPreference>;
inline constexpr Routing kBalanced = std::nullopt;

/// One *client system* of the paper's Figure 1: a driver, and — when the
/// routing is balanced — the shared Balance Fraction with its two latency
/// lists plus the Read Balancer that drives it. A fixed stack is the same
/// driver with a hard-coded Read Preference and nothing else. Every client
/// system in the repo (the experiment's, each shard's inside the router,
/// and each of several independent ones) is built here.
///
/// Determinism contract: the constructor forks `parent` once for the
/// client and then once more for the balancer — the second fork only for
/// a balanced stack — and draws nothing else from it. Callers rely on
/// this order to keep seeded runs identical.
class ClientStack {
 public:
  ClientStack(sim::EventLoop* loop, sim::Rng* parent, proto::CommandBus* bus,
              net::HostId host, driver::ClientOptions client_options,
              BalancerConfig balancer_config, Routing routing);

  ClientStack(const ClientStack&) = delete;
  ClientStack& operator=(const ClientStack&) = delete;

  /// Starts the driver's topology monitoring, then the Read Balancer.
  void Start();

  driver::MongoClient& client() { return *client_; }
  /// The routing decision workloads ask before each read.
  RoutingPolicy& policy() { return policy_; }
  /// Null for a fixed stack.
  ReadBalancer* balancer() { return balancer_.get(); }
  const ReadBalancer* balancer() const { return balancer_.get(); }
  /// Null for a fixed stack.
  SharedState* state() { return state_.get(); }

  /// The share of reads this stack sends to secondaries: the published
  /// Balance Fraction when balanced, 0 or 1 for a fixed preference.
  double balance_fraction() const { return policy_.balance_fraction(); }

 private:
  std::unique_ptr<driver::MongoClient> client_;
  std::unique_ptr<SharedState> state_;
  RoutingPolicy policy_;
  std::unique_ptr<ReadBalancer> balancer_;
};

}  // namespace dcg::core

#endif  // DCG_CORE_CLIENT_STACK_H_
