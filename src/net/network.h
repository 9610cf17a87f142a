#ifndef DCG_NET_NETWORK_H_
#define DCG_NET_NETWORK_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "sim/callback.h"
#include "sim/event_loop.h"
#include "sim/random.h"
#include "sim/time.h"

namespace dcg::net {

/// Identifies a host on the simulated network (client host or DB node).
using HostId = int;

/// Point-to-point network model with per-pair round-trip latencies.
///
/// The paper's testbed spreads the replica set across three AWS
/// availability zones; the RTT between the client host and each node
/// differs by under 2 ms, yet §3.3.1 shows this is enough to distort raw
/// client latencies for ~1 ms YCSB reads — which is exactly why the Read
/// Balancer subtracts P50(RTT). We model each directed message as
/// base_rtt/2 plus exponential jitter.
///
/// Fault hooks (driven by fault::FaultInjector): each *directed* pair can
/// carry a LinkFault (extra delay, delay multiplier, drop probability),
/// and pairs can be blocked outright to model partitions. Dropped
/// messages are lost silently, exactly like a real network — protocols
/// above (replication pull chains, heartbeats) must tolerate the loss.
class Network {
 public:
  Network(sim::EventLoop* loop, sim::Rng rng)
      : loop_(loop), rng_(std::move(rng)) {}

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Registers a host. Returns its id.
  HostId AddHost(std::string name);

  const std::string& HostName(HostId h) const { return host_names_.at(h); }
  int host_count() const { return static_cast<int>(host_names_.size()); }

  /// Sets the symmetric base RTT and mean jitter for a host pair.
  void SetLink(HostId a, HostId b, sim::Duration base_rtt,
               sim::Duration jitter_mean);

  /// Base RTT configured for a pair (excludes jitter).
  sim::Duration BaseRtt(HostId a, HostId b) const;

  /// Samples a one-way delay for a message from `a` to `b`.
  sim::Duration SampleOneWay(HostId a, HostId b);

  /// Delivers `fn` at the destination after a sampled one-way delay, or
  /// drops the message (never delivering `fn`) when the directed link is
  /// blocked or its fault's drop probability fires.
  void Send(HostId from, HostId to, sim::Callback fn);

  /// Simulates an application-level ping: calls `done(rtt)` after a full
  /// round trip (two sampled one-way delays). If either direction drops,
  /// `done` never fires — callers must not depend on it for liveness.
  void Ping(HostId from, HostId to,
            std::function<void(sim::Duration rtt)> done);

  // --- fault hooks ---

  /// Degradation of one *directed* link (a → b message path).
  struct LinkFault {
    /// Added to every sampled one-way delay (a latency spike / WAN
    /// reroute).
    sim::Duration extra_delay = 0;
    /// Multiplies the healthy (base/2 + jitter) delay; >= 0.
    double delay_multiplier = 1.0;
    /// Probability that a message on this link is silently lost.
    double drop_probability = 0.0;
  };

  /// Installs (overwrites) the fault on the directed pair `from` → `to`.
  void SetLinkFault(HostId from, HostId to, const LinkFault& fault);
  /// Removes any fault on the directed pair.
  void ClearLinkFault(HostId from, HostId to);

  /// Blocks all traffic between `a` and `b` (both directions). Blocks are
  /// counted, so overlapping partitions compose: the pair is reachable
  /// again only when every block has been lifted.
  void BlockPair(HostId a, HostId b);
  void UnblockPair(HostId a, HostId b);
  /// False while any block is outstanding on the pair.
  bool Reachable(HostId a, HostId b) const;

  /// Would a message from `a` to `b` be dropped right now? Consumes a
  /// random draw when the link has a drop probability.
  bool ShouldDrop(HostId a, HostId b);

  uint64_t messages_delivered() const { return messages_delivered_; }
  uint64_t messages_dropped() const { return messages_dropped_; }

 private:
  struct Link {
    sim::Duration base_rtt = sim::Millis(0.5);
    sim::Duration jitter_mean = sim::Micros(30);
  };

  const Link& GetLink(HostId a, HostId b) const;
  const LinkFault* GetFault(HostId from, HostId to) const;

  sim::EventLoop* loop_;
  sim::Rng rng_;
  std::vector<std::string> host_names_;
  std::map<std::pair<HostId, HostId>, Link> links_;
  Link default_link_;
  std::map<std::pair<HostId, HostId>, LinkFault> faults_;   // directed
  std::map<std::pair<HostId, HostId>, int> pair_blocks_;    // undirected
  uint64_t messages_delivered_ = 0;
  uint64_t messages_dropped_ = 0;
};

}  // namespace dcg::net

#endif  // DCG_NET_NETWORK_H_
