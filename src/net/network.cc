#include "net/network.h"

#include <algorithm>

#include "util/check.h"

namespace dcg::net {

HostId Network::AddHost(std::string name) {
  host_names_.push_back(std::move(name));
  return static_cast<HostId>(host_names_.size()) - 1;
}

void Network::SetLink(HostId a, HostId b, sim::Duration base_rtt,
                      sim::Duration jitter_mean) {
  const auto key = std::minmax(a, b);
  links_[{key.first, key.second}] = Link{base_rtt, jitter_mean};
}

const Network::Link& Network::GetLink(HostId a, HostId b) const {
  const auto key = std::minmax(a, b);
  auto it = links_.find({key.first, key.second});
  return it == links_.end() ? default_link_ : it->second;
}

const Network::LinkFault* Network::GetFault(HostId from, HostId to) const {
  auto it = faults_.find({from, to});
  return it == faults_.end() ? nullptr : &it->second;
}

void Network::SetLinkFault(HostId from, HostId to, const LinkFault& fault) {
  DCG_CHECK(fault.delay_multiplier >= 0.0);
  DCG_CHECK(fault.drop_probability >= 0.0 && fault.drop_probability <= 1.0);
  faults_[{from, to}] = fault;
}

void Network::ClearLinkFault(HostId from, HostId to) {
  faults_.erase({from, to});
}

void Network::BlockPair(HostId a, HostId b) {
  const auto key = std::minmax(a, b);
  ++pair_blocks_[{key.first, key.second}];
}

void Network::UnblockPair(HostId a, HostId b) {
  const auto key = std::minmax(a, b);
  auto it = pair_blocks_.find({key.first, key.second});
  DCG_CHECK_MSG(it != pair_blocks_.end(), "unblocking a pair never blocked");
  if (--it->second == 0) pair_blocks_.erase(it);
}

bool Network::Reachable(HostId a, HostId b) const {
  const auto key = std::minmax(a, b);
  return pair_blocks_.find({key.first, key.second}) == pair_blocks_.end();
}

bool Network::ShouldDrop(HostId a, HostId b) {
  if (a == b) return false;  // loopback never fails
  if (!Reachable(a, b)) return true;
  const LinkFault* fault = GetFault(a, b);
  if (fault != nullptr && fault->drop_probability > 0.0) {
    return rng_.Bernoulli(fault->drop_probability);
  }
  return false;
}

sim::Duration Network::BaseRtt(HostId a, HostId b) const {
  return GetLink(a, b).base_rtt;
}

sim::Duration Network::SampleOneWay(HostId a, HostId b) {
  if (a == b) return 0;  // loopback
  const Link& link = GetLink(a, b);
  const double jitter =
      rng_.Exponential(static_cast<double>(link.jitter_mean));
  sim::Duration delay =
      link.base_rtt / 2 + static_cast<sim::Duration>(jitter);
  if (const LinkFault* fault = GetFault(a, b)) {
    delay = static_cast<sim::Duration>(static_cast<double>(delay) *
                                       fault->delay_multiplier) +
            fault->extra_delay;
  }
  return delay;
}

void Network::Send(HostId from, HostId to, sim::Callback fn) {
  if (ShouldDrop(from, to)) {
    ++messages_dropped_;
    return;
  }
  ++messages_delivered_;
  loop_->ScheduleAfter(SampleOneWay(from, to), std::move(fn));
}

void Network::Ping(HostId from, HostId to,
                   std::function<void(sim::Duration)> done) {
  if (ShouldDrop(from, to) || ShouldDrop(to, from)) {
    ++messages_dropped_;
    return;
  }
  ++messages_delivered_;
  const sim::Duration rtt = SampleOneWay(from, to) + SampleOneWay(to, from);
  loop_->ScheduleAfter(rtt, [rtt, done = std::move(done)] { done(rtt); });
}

}  // namespace dcg::net
