#include "core/client_stack.h"

#include <utility>

namespace dcg::core {

ClientStack::ClientStack(sim::EventLoop* loop, sim::Rng* parent,
                         proto::CommandBus* bus, net::HostId host,
                         driver::ClientOptions client_options,
                         BalancerConfig balancer_config, Routing routing)
    : client_(std::make_unique<driver::MongoClient>(
          loop, parent->Fork(), bus, host, std::move(client_options))),
      state_(routing.has_value()
                 ? nullptr
                 : std::make_unique<SharedState>(balancer_config.low_bal)),
      policy_(routing.has_value() ? RoutingPolicy(*routing)
                                  : RoutingPolicy(state_.get())) {
  if (state_ != nullptr) {
    balancer_ = std::make_unique<ReadBalancer>(
        client_.get(), state_.get(), std::move(balancer_config),
        parent->Fork());
  }
}

void ClientStack::Start() {
  client_->Start();
  if (balancer_ != nullptr) balancer_->Start();
}

}  // namespace dcg::core
