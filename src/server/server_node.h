#ifndef DCG_SERVER_SERVER_NODE_H_
#define DCG_SERVER_SERVER_NODE_H_

#include <cstdint>
#include <string>

#include "net/network.h"
#include "server/cpu_queue.h"
#include "server/service_model.h"
#include "sim/callback.h"
#include "sim/event_loop.h"
#include "sim/random.h"
#include "store/database.h"

namespace dcg::server {

/// Knobs of a single database node (one replica-set member).
struct ServerParams {
  ServiceModel service;

  // Checkpoint / disk model (§4.5): dirty data accumulates with writes;
  // every `checkpoint_interval` the node flushes it at
  // `checkpoint_disk_bw` bytes/sec. While flushing, all service times are
  // multiplied by `checkpoint_slowdown`, and if the flush is long enough
  // (heavy write workloads) the replica set additionally blocks oplog
  // reads — see ReplicaSetParams::getmore_block_threshold.
  sim::Duration checkpoint_interval = sim::Seconds(60);
  double checkpoint_disk_bw = 20.0e6;  // bytes/sec
  sim::Duration checkpoint_max = sim::Seconds(35);
  double checkpoint_slowdown = 2.5;
  // Multiplier from logical document bytes to dirty bytes (page-level
  // write amplification).
  double write_amplification = 4.0;
};

/// One simulated machine: CPUs + disk/checkpoint state + the local
/// document database replica.
class ServerNode {
 public:
  ServerNode(sim::EventLoop* loop, sim::Rng rng, ServerParams params,
             net::HostId host, std::string name);

  ServerNode(const ServerNode&) = delete;
  ServerNode& operator=(const ServerNode&) = delete;

  /// Begins the periodic checkpoint cycle.
  void Start();

  const std::string& name() const { return name_; }
  net::HostId host() const { return host_; }
  store::Database& db() { return db_; }
  const store::Database& db() const { return db_; }
  CpuQueue& cpu() { return cpu_; }
  const ServerParams& params() const { return params_; }

  /// Queues one operation of class `c`; `done` fires when its CPU service
  /// completes. The sampled service time is stretched while a checkpoint
  /// is running.
  void Execute(OpClass c, sim::Callback done);

  /// Like Execute, with the sampled service time multiplied by
  /// `multiplier` (used by replication flow control to throttle writes).
  void ExecuteScaled(OpClass c, double multiplier, sim::Callback done);

  /// Queues work with an explicit pre-scaled service time (used for
  /// batched oplog application, where cost is per entry). Not counted in
  /// per-class op stats.
  void ExecuteWithCost(sim::Duration base_service, sim::Callback done);

  /// Samples a service time for `c` from this node's service model.
  sim::Duration SampleService(OpClass c);

  /// Records logical bytes written; amplified into dirty bytes for the
  /// next checkpoint.
  void AddDirtyBytes(uint64_t logical_bytes);

  /// Fault hook: multiplies every service time on this node (a degraded
  /// machine — noisy neighbour, thermal throttling, GC pauses). 1.0 is
  /// healthy. Composes with the checkpoint slowdown.
  void set_fault_slowdown(double factor) { fault_slowdown_ = factor; }
  double fault_slowdown() const { return fault_slowdown_; }

  bool checkpointing() const;
  /// End time of the in-progress checkpoint (valid while checkpointing()).
  sim::Time checkpoint_end() const { return checkpoint_end_; }
  /// Planned duration of the in-progress checkpoint.
  sim::Duration checkpoint_duration() const { return checkpoint_duration_; }

  uint64_t ops_executed(OpClass c) const {
    return ops_executed_[static_cast<int>(c)];
  }
  uint64_t dirty_bytes() const { return dirty_bytes_; }
  uint64_t checkpoints_completed() const { return checkpoints_completed_; }

 private:
  void RunCheckpointCycle();

  sim::EventLoop* loop_;
  sim::Rng rng_;
  ServerParams params_;
  net::HostId host_;
  std::string name_;
  store::Database db_;
  CpuQueue cpu_;

  double fault_slowdown_ = 1.0;
  uint64_t dirty_bytes_ = 0;
  sim::Time checkpoint_end_ = -1;
  sim::Duration checkpoint_duration_ = 0;
  uint64_t checkpoints_completed_ = 0;
  uint64_t ops_executed_[static_cast<int>(OpClass::kCount)] = {};
};

}  // namespace dcg::server

#endif  // DCG_SERVER_SERVER_NODE_H_
