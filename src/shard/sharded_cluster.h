#ifndef DCG_SHARD_SHARDED_CLUSTER_H_
#define DCG_SHARD_SHARDED_CLUSTER_H_

#include <memory>
#include <string>
#include <vector>

#include "core/client_stack.h"
#include "core/staleness_budget.h"
#include "driver/client.h"
#include "net/network.h"
#include "obs/trace.h"
#include "repl/replica_set.h"
#include "shard/chunk_map.h"
#include "shard/router.h"

namespace dcg::shard {

/// Configuration of a sharded deployment: N shards, each a replica set
/// with the usual knobs, fronted by a bus-routed mongos (shard::Router)
/// with a versioned chunk map and one shared staleness budget.
struct ShardedClusterConfig {
  int shards = 2;
  /// How documents place onto shards: hashed _id by default. Set
  /// shard_key.hashed = false and provide `split_points` for range
  /// sharding (locality-preserving — the hot-shard scenario).
  ShardKeyPattern shard_key;
  /// Hashed pattern: chunks pre-split per shard (MongoDB's initial
  /// chunks). More chunks = finer-grained MoveChunk rebalancing.
  int chunks_per_shard = 4;
  /// Ranged pattern: strictly ascending split points cutting the key
  /// line into split_points.size() + 1 chunks, round-robin across shards.
  std::vector<doc::Value> split_points;
  repl::ReplicaSetParams repl;
  server::ServerParams server;
  /// Driver options for BOTH legs: the application's client→router
  /// connection and the router's per-shard sub-clients.
  driver::ClientOptions client_options;
  core::BalancerConfig balancer;
  /// Balanced: every shard gets its own Read Balancer (joined to the
  /// shared StalenessBudget) and sub-reads flip that shard's biased coin.
  /// Fixed: every sub-read uses that preference.
  core::Routing routing = core::kBalanced;
  /// Router-to-node base RTTs within each shard (primary first) — the
  /// mongos sits near the data, like a co-located mongos tier.
  std::vector<sim::Duration> client_node_rtt = {
      sim::Millis(0.4), sim::Millis(1.2), sim::Millis(1.6)};
  /// Application-client-to-router base RTT (the extra hop sharding buys).
  sim::Duration client_router_rtt = sim::Millis(0.3);
  sim::Duration inter_node_rtt = sim::Millis(1.0);
  sim::Duration rtt_jitter = sim::Micros(40);
  /// allowPartialResults margin (see RouterConfig).
  sim::Duration partial_results_margin = sim::Millis(2);
};

/// A MongoDB-style sharded cluster (§2.1), assembled from first-class
/// parts: N replica-set shards, a ConfigShards routing authority, a
/// shard::Router registered on its own CommandBus at a mongos host, and
/// one top-level driver::MongoClient that dials the router exactly like a
/// 1-node replica set. Every shard's CommandServices carry an admission
/// check against the authoritative chunk assignment, so stale-routed
/// commands bounce with kStaleConfig before any body runs and the router
/// refreshes + re-routes — MongoDB's lazy routing-table protocol.
///
/// This is the "techniques apply to sharded clusters" claim of the paper,
/// made concrete: congestion is detected and relieved shard by shard by
/// per-shard Read Balancers, while the shared StalenessBudget keeps the
/// *client-wide* worst served staleness under the single StaleBound.
class ShardedCluster {
 public:
  ShardedCluster(sim::EventLoop* loop, sim::Rng rng, net::Network* network,
                 net::HostId client_host, ShardedClusterConfig config);
  ~ShardedCluster();

  ShardedCluster(const ShardedCluster&) = delete;
  ShardedCluster& operator=(const ShardedCluster&) = delete;

  /// Starts every shard's replication, the router (sub-clients +
  /// balancers), and the top-level client's topology monitoring.
  void Start();

  int shard_count() const { return static_cast<int>(shards_.size()); }

  /// The shard currently owning documents with this shard-key value
  /// (resolved against the authoritative table, not the router's cache).
  int ShardFor(const doc::Value& key) const;

  repl::ReplicaSet& shard(int i) { return *shards_[i]; }
  /// The router's per-shard sub-client (the balancer's latency feed).
  driver::MongoClient& client(int i) { return router_->shard_client(i); }
  /// Shard `i`'s published Balance Fraction (0 or 1 for a fixed routing).
  double balance_fraction(int i) const { return router_->balance_fraction(i); }
  /// Null for a fixed routing.
  core::ReadBalancer* balancer(int i) { return router_->balancer(i); }

  /// The mongos. Tests reach routing counters and the budget through it.
  Router& router() { return *router_; }
  /// The application's driver connection to the router.
  driver::MongoClient& top_client() { return *top_client_; }
  /// The routing-table authority (versions, admission refusals).
  ConfigShards& config_shards() { return *config_shards_; }
  /// The shared client-wide staleness budget.
  core::StalenessBudget& budget() { return router_->budget(); }

  /// Attaches the run's span tracer everywhere: shard services, the
  /// router (kRouter spans + sub-clients), and the top-level client.
  void SetTracer(obs::Tracer* tracer);

  /// Routed point read: the client stamps collection + key, the router
  /// resolves the owning shard and asks that shard's policy for a Read
  /// Preference; the shard's balancer sees the latency through its
  /// sub-client's op observer.
  void ReadDoc(const std::string& collection, const doc::Value& id,
               server::OpClass op_class, proto::ReadBody body,
               driver::MongoClient::Done done);

  /// Routed insert (single-shard write transaction).
  void InsertDoc(const std::string& collection, doc::Value document,
                 driver::MongoClient::Done done);

  /// Routed update by _id.
  void UpdateDoc(const std::string& collection, const doc::Value& id,
                 const doc::UpdateSpec& spec, driver::MongoClient::Done done);

  /// Scatter-gather count: the router fans a count-only FindSpec to every
  /// shard (each via its own policy-chosen node) and sums the results.
  /// `done(total, latency)` fires when the slowest shard answers.
  void ScatterCount(const std::string& collection, const doc::Filter& filter,
                    server::OpClass op_class,
                    std::function<void(size_t total, sim::Duration latency)>
                        done);

  /// Scatter-gather find through the router: per-shard sub-queries merged
  /// by sort key; partial results when the spec allows and the deadline
  /// looms. Full OpResult surface (latency, find payload, timed_out).
  void ScatterFind(std::shared_ptr<const proto::FindSpec> spec,
                   server::OpClass op_class, driver::MongoClient::Done done,
                   driver::OpOptions opts = {});

  /// Chunk migration, modeled as the balancer's atomic critical section:
  /// reassigns the chunk in ConfigShards (version bump — routers holding
  /// the old version start bouncing with kStaleConfig) and moves the
  /// chunk's documents of `collection` from every donor node to every
  /// recipient node instantaneously, bypassing replication. Commands
  /// already admitted and queued on the donor race the move, exactly like
  /// ops racing a real migration's commit.
  void MoveChunk(const std::string& collection, int64_t chunk_id,
                 int to_shard);

 private:
  sim::EventLoop* loop_;
  sim::Rng rng_;
  ShardedClusterConfig config_;
  std::vector<std::unique_ptr<repl::ReplicaSet>> shards_;
  std::unique_ptr<ConfigShards> config_shards_;
  std::unique_ptr<Router> router_;
  std::unique_ptr<driver::MongoClient> top_client_;
};

}  // namespace dcg::shard

#endif  // DCG_SHARD_SHARDED_CLUSTER_H_
