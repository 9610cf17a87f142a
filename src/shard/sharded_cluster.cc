#include "shard/sharded_cluster.h"

#include <utility>

#include "util/check.h"

namespace dcg::shard {

ShardedCluster::ShardedCluster(sim::EventLoop* loop, sim::Rng rng,
                               net::Network* network,
                               net::HostId client_host,
                               ShardedClusterConfig config)
    : loop_(loop), rng_(std::move(rng)), config_(std::move(config)) {
  DCG_CHECK(config_.shards >= 1);
  const int nodes = config_.repl.secondaries + 1;
  DCG_CHECK(static_cast<int>(config_.client_node_rtt.size()) >= nodes);
  // The mongos tier: one router host between the application client and
  // the shards. The client dials only the router; the router's per-shard
  // sub-clients dial the shard nodes.
  const net::HostId router_host = network->AddHost("mongos");
  network->SetLink(client_host, router_host, kClientRouterRtt, kRttJitter);
  std::vector<proto::CommandBus*> buses;
  for (int s = 0; s < config_.shards; ++s) {
    std::vector<net::HostId> hosts;
    for (int i = 0; i < nodes; ++i) {
      hosts.push_back(network->AddHost("shard" + std::to_string(s) + "-node" +
                                       std::to_string(i)));
      network->SetLink(router_host, hosts[i], config_.client_node_rtt[i],
                       kRttJitter);
    }
    for (int i = 0; i < nodes; ++i) {
      for (int j = i + 1; j < nodes; ++j) {
        network->SetLink(hosts[i], hosts[j], kInterNodeRtt, kRttJitter);
      }
    }
    shards_.push_back(std::make_unique<repl::ReplicaSet>(
        loop_, rng_.Fork(), network, config_.repl, config_.server, hosts));
    buses.push_back(shards_.back()->command_bus());
  }
  ChunkMap initial =
      config_.shard_key.hashed
          ? ChunkMap::Hashed(config_.shard_key, config_.shards, kChunksPerShard)
          : ChunkMap::Ranged(config_.shard_key, config_.split_points,
                             config_.shards);
  config_shards_ = std::make_unique<ConfigShards>(std::move(initial));
  // Every shard validates versioned commands against the authoritative
  // assignment — before any body runs, so stale-routed writes apply
  // nothing and a post-refresh re-route cannot duplicate them.
  for (int s = 0; s < config_.shards; ++s) {
    shards_[s]->SetAdmissionCheck(
        [authority = config_shards_.get(), s](const proto::Command& command) {
          return authority->Admit(command.route, s);
        });
  }
  RouterConfig router_config;
  router_config.shard_client_options = config_.client_options;
  router_config.balancer = config_.balancer;
  router_config.routing = config_.routing;
  router_ = std::make_unique<Router>(loop_, rng_.Fork(), network, router_host,
                                     config_shards_.get(), std::move(buses),
                                     std::move(router_config));
  // The application's driver: a stock MongoClient whose whole topology is
  // the router. Read Preference at this leg is kPrimary (the router is
  // always "primary"); the real routing decision happens per shard.
  top_client_ = std::make_unique<driver::MongoClient>(
      loop_, rng_.Fork(), router_->bus(), client_host, config_.client_options);
}

ShardedCluster::~ShardedCluster() = default;

void ShardedCluster::Start() {
  for (auto& shard : shards_) shard->Start();
  router_->Start();
  top_client_->Start();
}

void ShardedCluster::SetTracer(obs::Tracer* tracer) {
  for (auto& shard : shards_) shard->SetTracer(tracer);
  router_->SetTracer(tracer);
  top_client_->SetTracer(tracer);
}

int ShardedCluster::ShardFor(const doc::Value& key) const {
  return config_shards_->Snapshot()->ShardFor(key);
}

void ShardedCluster::ReadDoc(const std::string& collection,
                             const doc::Value& id, server::OpClass op_class,
                             proto::ReadBody body,
                             driver::MongoClient::Done done) {
  driver::OpOptions opts;
  opts.route.collection = collection;
  opts.route.has_key = true;
  opts.route.key = id;
  top_client_->Read(driver::ReadPreference::kPrimary, op_class,
                    std::move(body), std::move(done), std::move(opts));
}

void ShardedCluster::InsertDoc(const std::string& collection,
                               doc::Value document,
                               driver::MongoClient::Done done) {
  const doc::Value* id = document.Find("_id");
  DCG_CHECK(id != nullptr);
  const doc::Value* key = document.FindPath(config_.shard_key.field);
  driver::OpOptions opts;
  opts.route.collection = collection;
  opts.route.has_key = true;
  opts.route.key = key != nullptr ? *key : *id;
  top_client_->Write(
      server::OpClass::kInsert,
      [collection, document = std::move(document)](repl::TxnContext* ctx) {
        ctx->Insert(collection, document);
      },
      std::move(done), repl::WriteConcern::kW1, std::move(opts));
}

void ShardedCluster::UpdateDoc(const std::string& collection,
                               const doc::Value& id,
                               const doc::UpdateSpec& spec,
                               driver::MongoClient::Done done) {
  driver::OpOptions opts;
  opts.route.collection = collection;
  opts.route.has_key = true;
  opts.route.key = id;
  top_client_->Write(
      server::OpClass::kUpdate,
      [collection, id, spec](repl::TxnContext* ctx) {
        const bool ok = ctx->Update(collection, id, spec);
        DCG_CHECK_MSG(ok, "sharded update of missing document");
      },
      std::move(done), repl::WriteConcern::kW1, std::move(opts));
}

void ShardedCluster::ScatterCount(
    const std::string& collection, const doc::Filter& filter,
    server::OpClass op_class,
    std::function<void(size_t, sim::Duration)> done) {
  auto spec = std::make_shared<proto::FindSpec>();
  spec->collection = collection;
  spec->filter = filter;
  spec->count_only = true;
  top_client_->Find(
      driver::ReadPreference::kPrimary, op_class, std::move(spec),
      [done = std::move(done)](const driver::OpResult& result) {
        if (!done) return;
        done(result.find != nullptr ? result.find->count : 0, result.latency);
      });
}

void ShardedCluster::ScatterFind(std::shared_ptr<const proto::FindSpec> spec,
                                 server::OpClass op_class,
                                 driver::MongoClient::Done done,
                                 driver::OpOptions opts) {
  top_client_->Find(driver::ReadPreference::kPrimary, op_class,
                    std::move(spec), std::move(done), std::move(opts));
}

void ShardedCluster::MoveChunk(const std::string& collection,
                               int64_t chunk_id, int to_shard) {
  const auto before = config_shards_->Snapshot();
  const int from_shard = before->chunk(chunk_id).shard;
  // Metadata first: the version bump makes every router holding the old
  // snapshot bounce (kStaleConfig) until it refreshes, closing the window
  // where a re-routed write could land on the donor.
  config_shards_->MoveChunk(chunk_id, to_shard);
  // Then the documents, instantaneously and replication-free on every
  // node of both shards — the migration's committed end state. (A real
  // balancer streams then commits; ops racing the critical section behave
  // the same either way: admitted-and-queued donor ops still run there.)
  std::vector<store::DocPtr> moving;
  repl::ReplicaSet& donor = *shards_[from_shard];
  const store::Database& donor_db = donor.node(donor.primary_index()).db();
  const store::Collection* donor_coll = donor_db.Get(collection);
  if (donor_coll != nullptr) {
    donor_coll->ForEach([&](const doc::Value& id, const store::DocPtr& d) {
      const doc::Value* key = d->FindPath(config_.shard_key.field);
      const doc::Value key_value = key != nullptr ? *key : id;
      if (before->ChunkIdFor(key_value) == chunk_id) {
        moving.push_back(d);
      }
      return true;
    });
  }
  repl::ReplicaSet& recipient = *shards_[to_shard];
  for (int n = 0; n < recipient.node_count(); ++n) {
    store::Collection& dest = recipient.node(n).db().GetOrCreate(collection);
    for (const store::DocPtr& d : moving) dest.Put(*d->Find("_id"), d);
  }
  for (int n = 0; n < donor.node_count(); ++n) {
    store::Collection* source = donor.node(n).db().Get(collection);
    if (source == nullptr) continue;
    for (const store::DocPtr& d : moving) source->Remove(*d->Find("_id"));
  }
}

}  // namespace dcg::shard
