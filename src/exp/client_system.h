#ifndef DCG_EXP_CLIENT_SYSTEM_H_
#define DCG_EXP_CLIENT_SYSTEM_H_

#include <memory>

#include "core/client_stack.h"
#include "driver/client.h"
#include "exp/client_pool.h"
#include "repl/replica_set.h"
#include "workload/ycsb.h"

namespace dcg::exp {

/// One independent *client system* as drawn in the paper's Figure 1 — the
/// architecture explicitly allows several of them, each hosting its own
/// Read Balancer that sees only its own clients' latencies and its own
/// pings. Nothing is shared between client systems except the database:
/// this is the paper's decentralisation claim ("it uses only client
/// observations"), and `bench_ext_multiclient` checks that independent
/// balancers still converge to compatible Balance Fractions.
class ClientSystem {
 public:
  ClientSystem(sim::EventLoop* loop, sim::Rng rng, repl::ReplicaSet* rs,
               net::HostId host, driver::ClientOptions client_options,
               core::BalancerConfig balancer_config,
               workload::YcsbConfig ycsb_config);

  ClientSystem(const ClientSystem&) = delete;
  ClientSystem& operator=(const ClientSystem&) = delete;

  /// Starts the driver, the Read Balancer, and `clients` closed-loop
  /// application workers.
  void Start(int clients);

  driver::MongoClient& client() { return stack_.client(); }
  core::SharedState& state() { return *stack_.state(); }
  core::ReadBalancer& balancer() { return *stack_.balancer(); }
  workload::YcsbWorkload& ycsb() { return *ycsb_; }
  ClientPool& pool() { return *pool_; }

  uint64_t reads() const { return reads_; }
  uint64_t secondary_reads() const { return secondary_reads_; }
  double SecondaryPercent() const {
    return reads_ == 0 ? 0.0
                       : 100.0 * static_cast<double>(secondary_reads_) /
                             static_cast<double>(reads_);
  }

 private:
  core::ClientStack stack_;
  std::unique_ptr<workload::YcsbWorkload> ycsb_;
  std::unique_ptr<ClientPool> pool_;
  uint64_t reads_ = 0;
  uint64_t secondary_reads_ = 0;
};

}  // namespace dcg::exp

#endif  // DCG_EXP_CLIENT_SYSTEM_H_
