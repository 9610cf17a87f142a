#include "exp/client_system.h"

#include <utility>

namespace dcg::exp {

ClientSystem::ClientSystem(sim::EventLoop* loop, sim::Rng rng,
                           repl::ReplicaSet* rs, net::HostId host,
                           driver::ClientOptions client_options,
                           core::BalancerConfig balancer_config,
                           workload::YcsbConfig ycsb_config)
    // The driver speaks only the command bus; it learns topology from
    // hello replies rather than touching the replica set.
    : stack_(loop, &rng, rs->command_bus(), host, std::move(client_options),
             std::move(balancer_config), core::kBalanced) {
  ycsb_ = std::make_unique<workload::YcsbWorkload>(
      &stack_.client(), &stack_.policy(), ycsb_config, rng.Fork());
  pool_ = std::make_unique<ClientPool>(
      loop, ycsb_.get(), [this](const workload::OpOutcome& outcome) {
        if (!outcome.read_only) return;
        ++reads_;
        if (outcome.used_secondary) ++secondary_reads_;
      });
}

void ClientSystem::Start(int clients) {
  stack_.Start();
  pool_->SetTarget(clients);
}

}  // namespace dcg::exp
