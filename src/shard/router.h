#ifndef DCG_SHARD_ROUTER_H_
#define DCG_SHARD_ROUTER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/client_stack.h"
#include "core/staleness_budget.h"
#include "driver/client.h"
#include "net/network.h"
#include "obs/trace.h"
#include "proto/command.h"
#include "shard/chunk_map.h"
#include "sim/event_loop.h"
#include "sim/random.h"

namespace dcg::shard {

/// allowPartialResults: a scatter find with a deadline answers this far
/// *before* it with whatever shards have replied, so the partial reply
/// still beats the client's maxTimeMS across the return wire.
inline constexpr sim::Duration kPartialResultsMargin = sim::Millis(2);

/// Router knobs (everything below the client→router wire).
struct RouterConfig {
  /// Driver options for the per-shard sub-clients the router fans out
  /// through (pools, retries, batching — the full driver stack applies to
  /// the router→shard leg too).
  driver::ClientOptions shard_client_options;
  core::BalancerConfig balancer;
  /// Balanced: every shard gets its own Read Balancer joined to one
  /// shared StalenessBudget. Fixed: every sub-read uses that preference.
  core::Routing routing = core::kBalanced;
};

/// The mongos role as a first-class proto::CommandService peer: the
/// router owns its own CommandBus, registers itself at a router host, and
/// answers the full command vocabulary — so a stock driver::MongoClient
/// dials it exactly like a 1-node replica set (hello says "primary"),
/// and every client-side mechanism (maxTimeMS, retry budgets, pools,
/// hedging, envelopes, spans) applies unchanged to the client→router leg.
///
/// Inside, each routed command fans out through per-shard MongoClients:
///   - point ops (route.has_key) resolve shard ownership against a cached
///     ChunkMap snapshot, stamp chunk + version on the sub-op, and — on a
///     kStaleConfig refusal — refresh from ConfigShards and re-route
///     (MongoDB's lazy routing-table refresh);
///   - structured finds without a key scatter to every shard and merge by
///     sort key, answering at the slowest shard (or earlier, partial,
///     when the spec allows it and the deadline looms);
///   - each shard's Read Preference is decided by that shard's own
///     policy/balancer, and all balancers share one StalenessBudget, so
///     the single client-wide StaleBound holds across the whole cluster.
///
/// The router itself has no CPU model (a mongos is I/O-bound routing, not
/// query execution); its cost is the extra wire hop plus the sub-op legs.
class Router {
 public:
  Router(sim::EventLoop* loop, sim::Rng rng, net::Network* network,
         net::HostId host, ConfigShards* config_shards,
         std::vector<proto::CommandBus*> shard_buses, RouterConfig config);
  ~Router();

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// The bus top-level clients dial. Its single registered host (the
  /// router) is the whole seed list — the cluster looks like one node.
  proto::CommandBus* bus() { return &bus_; }

  net::HostId host() const { return host_; }

  /// Starts the per-shard sub-clients and balancers. The shards' replica
  /// sets start separately (ShardedCluster owns them).
  void Start();

  /// Attaches the run's tracer: the router records one kRouter span per
  /// routed command (arrival → merged reply send), and threads the client
  /// op's trace id + that span into every sub-op, so client→router→shard
  /// legs link into one tree. Forwarded to the sub-clients too.
  void SetTracer(obs::Tracer* tracer);

  int shard_count() const { return static_cast<int>(stacks_.size()); }
  /// Shard `s`'s client system: sub-client, routing policy, balancer.
  core::ClientStack& stack(int s) { return *stacks_[s]; }
  driver::MongoClient& shard_client(int s) { return stacks_[s]->client(); }
  double balance_fraction(int s) const {
    return stacks_[s]->balance_fraction();
  }
  /// Null for a fixed routing.
  core::ReadBalancer* balancer(int s) { return stacks_[s]->balancer(); }
  /// The shared staleness budget every shard balancer reports into.
  core::StalenessBudget& budget() { return *budget_; }

  /// Routing table snapshot the router currently resolves against (may
  /// trail ConfigShards until a kStaleConfig forces a refresh).
  const ChunkMap& routing_table() const { return *cache_; }

  uint64_t commands_served() const { return commands_served_; }
  uint64_t routed_reads() const { return routed_reads_; }
  uint64_t routed_writes() const { return routed_writes_; }
  uint64_t scatter_finds() const { return scatter_finds_; }
  /// Times a kStaleConfig refusal made the router refresh its snapshot
  /// and re-route the op.
  uint64_t stale_refreshes() const { return stale_refreshes_; }
  /// Scatter finds answered without every shard (allowPartialResults).
  uint64_t partial_replies() const { return partial_replies_; }
  /// Point ops dispatched to each shard (routing balance, for tests and
  /// per-shard summaries).
  uint64_t routed_to_shard(int s) const { return routed_to_shard_[s]; }

 private:
  /// One client command in flight through the router, alive until the
  /// merged reply is sent (or the client's deadline makes silence the
  /// right answer).
  struct RoutedOp {
    proto::CommandPtr cmd;
    sim::Time arrived = 0;
    uint64_t router_span = 0;
    /// Routing attempts consumed (first dispatch + stale re-routes).
    int route_attempts = 0;
  };

  /// Scatter-gather rendezvous for one find fanned to every shard.
  struct Gather {
    std::shared_ptr<RoutedOp> op;
    std::vector<std::shared_ptr<const proto::FindResult>> parts;
    int answered = 0;
    bool replied = false;
    sim::EventId partial_timer = 0;
  };

  void Handle(proto::CommandPtr command);
  void HandleEnvelope(proto::Envelope envelope);
  /// Single-shard dispatch for keyed ops; re-entered after a stale-config
  /// refresh with the same RoutedOp (same router span, same client op).
  void DispatchPoint(const std::shared_ptr<RoutedOp>& op);
  /// Completion of a point sub-op, read or write: re-routes on a stale
  /// chunk version, otherwise relays the shard's answer to the client.
  void OnPointResult(const std::shared_ptr<RoutedOp>& op,
                     const driver::OpResult& result);
  /// Refreshes the cached routing table from ConfigShards and re-routes.
  void RefreshAndRetry(const std::shared_ptr<RoutedOp>& op);
  void ScatterFind(const std::shared_ptr<RoutedOp>& op);
  void FinishScatter(const std::shared_ptr<Gather>& gather, bool partial);
  /// Sub-op options shared by every dispatch: remaining client deadline,
  /// trace threading. False when the client's deadline already passed —
  /// the op is dead, silence lets the client's own timer speak.
  bool MakeSubOptions(const RoutedOp& op, driver::OpOptions* opts) const;
  driver::ReadPreference ChoosePreference(int shard);
  /// Sends the reply wire message back to the issuing client, with the
  /// router's hello piggybacked like any CommandService, and closes the
  /// op's kRouter span. Takes the command's `on_reply`: an op replies once.
  void Reply(RoutedOp& op, proto::Reply reply);
  proto::HelloReply MakeHello() const;
  bool tracing() const { return tracer_ != nullptr && tracer_->enabled(); }

  sim::EventLoop* loop_;
  sim::Rng rng_;
  net::Network* network_;
  net::HostId host_;
  ConfigShards* config_shards_;
  RouterConfig config_;
  proto::CommandBus bus_;
  std::shared_ptr<const ChunkMap> cache_;
  obs::Tracer* tracer_ = nullptr;

  std::vector<std::unique_ptr<core::ClientStack>> stacks_;
  std::unique_ptr<core::StalenessBudget> budget_;

  uint64_t commands_served_ = 0;
  uint64_t routed_reads_ = 0;
  uint64_t routed_writes_ = 0;
  uint64_t scatter_finds_ = 0;
  uint64_t stale_refreshes_ = 0;
  uint64_t partial_replies_ = 0;
  std::vector<uint64_t> routed_to_shard_;
};

}  // namespace dcg::shard

#endif  // DCG_SHARD_ROUTER_H_
