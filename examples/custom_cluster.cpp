// Low-level API example: wiring the whole stack by hand — event loop,
// network topology, replica set, one client system (driver, shared state,
// Read Balancer), and an application loop — without the Experiment
// harness. This is the surface a downstream user integrating Decongestant
// into their own simulation (or adapting it to a real driver) would touch.
// Exits 1 when the replicas' data differ after replication drains; ctest
// runs it as `example_custom_cluster`.
//
//   ./build/examples/custom_cluster

#include <cstdio>
#include <memory>

#include "core/client_stack.h"
#include "net/network.h"
#include "repl/replica_set.h"

int main() {
  using namespace dcg;

  sim::EventLoop loop;
  sim::Rng rng(2026);

  // --- Topology: a client host and three DB nodes in distinct AZs. ---
  net::Network network(&loop, rng.Fork());
  const net::HostId app = network.AddHost("app-server");
  const net::HostId n0 = network.AddHost("db-az-a");
  const net::HostId n1 = network.AddHost("db-az-b");
  const net::HostId n2 = network.AddHost("db-az-c");
  network.SetLink(app, n0, sim::Millis(0.4), sim::Micros(40));
  network.SetLink(app, n1, sim::Millis(1.1), sim::Micros(40));
  network.SetLink(app, n2, sim::Millis(1.5), sim::Micros(40));
  for (auto [a, b] : {std::pair{n0, n1}, {n0, n2}, {n1, n2}}) {
    network.SetLink(a, b, sim::Millis(1.0), sim::Micros(40));
  }

  // --- Replica set: primary on n0, secondaries on n1/n2. ---
  repl::ReplicaSetParams repl_params;
  server::ServerParams node_params;  // 8 cores, default service model
  repl::ReplicaSet rs(&loop, rng.Fork(), &network, repl_params, node_params,
                      {n0, n1, n2});

  // Seed some data on every node (pre-replicated snapshot).
  for (int i = 0; i < 3; ++i) {
    store::Collection& users = rs.node(i).db().GetOrCreate("users");
    for (int64_t id = 0; id < 1000; ++id) {
      users.Insert(doc::Value::Doc({{"_id", id}, {"clicks", 0}}));
    }
  }

  // --- Client system: driver + Decongestant. ---
  // The driver talks to the replica set purely through its command bus
  // (typed find/insert/hello messages over the network) and learns the
  // topology from hello replies — it never touches ReplicaSet internals.
  // A balanced stack also owns the shared Balance Fraction, the routing
  // policy, and the Read Balancer.
  core::BalancerConfig balancer_config;
  balancer_config.stale_bound_seconds = 5;
  core::ClientStack stack(&loop, &rng, rs.command_bus(), app,
                          driver::ClientOptions{}, balancer_config,
                          core::kBalanced);
  driver::MongoClient& client = stack.client();

  stack.balancer()->SetPeriodCallback(
      [](const core::ReadBalancer::PeriodStats& s) {
        std::printf("[balancer] t=%4.0fs ratio=%5.2f -> fraction %.2f%s\n",
                    sim::ToSeconds(s.at), s.ratio, s.published_fraction,
                    s.published_fraction == 0 ? " (stale-blocked)" : "");
      });

  rs.Start();
  stack.Start();

  // --- The application: 30 closed-loop workers, 90 % reads. ---
  struct Stats {
    uint64_t reads = 0, secondary_reads = 0, writes = 0;
  };
  auto stats = std::make_shared<Stats>();
  auto worker_rng = std::make_shared<sim::Rng>(rng.Fork());
  auto stopped = std::make_shared<bool>(false);

  std::function<void(int)> run_worker = [&](int id) {
    if (*stopped) return;
    if (worker_rng->Bernoulli(0.9)) {
      const driver::ReadPreference pref =
          stack.policy().ChooseReadPreference(worker_rng.get());
      const int64_t key = worker_rng->UniformInt(0, 999);
      client.Read(
          pref, server::OpClass::kPointRead,
          [key](const store::Database& db) {
            (void)db.Get("users")->FindById(doc::Value(key));
          },
          [&, id](const driver::OpResult& r) {
            // Latency feedback reaches the balancer through the driver's
            // unified completion path — no manual reporting needed.
            ++stats->reads;
            if (r.used_secondary) ++stats->secondary_reads;
            run_worker(id);
          });
    } else {
      const int64_t key = worker_rng->UniformInt(0, 999);
      client.Write(
          server::OpClass::kUpdate,
          [key](repl::TxnContext* txn) {
            doc::UpdateSpec spec;
            spec.Inc("clicks", doc::Value(int64_t{1}));
            txn->Update("users", doc::Value(key), spec);
          },
          [&, id](const driver::OpResult&) {
            ++stats->writes;
            run_worker(id);
          });
    }
  };
  for (int id = 0; id < 30; ++id) run_worker(id);

  loop.ScheduleAt(sim::Seconds(120), [stopped] { *stopped = true; });
  loop.RunUntil(sim::Seconds(120));

  std::printf("\nafter 120 simulated seconds:\n");
  std::printf("  reads: %llu (%.1f%% on secondaries), writes: %llu\n",
              static_cast<unsigned long long>(stats->reads),
              100.0 * static_cast<double>(stats->secondary_reads) /
                  static_cast<double>(stats->reads),
              static_cast<unsigned long long>(stats->writes));
  std::printf("  replication: oplog seq %llu, max true staleness %.3f s\n",
              static_cast<unsigned long long>(rs.oplog().last_seq()),
              sim::ToSeconds(rs.MaxTrueStaleness()));
  // Let replication drain, then compare fingerprints.
  loop.RunUntil(sim::Seconds(125));
  const bool identical =
      rs.node(0).db().Fingerprint() == rs.node(1).db().Fingerprint() &&
      rs.node(0).db().Fingerprint() == rs.node(2).db().Fingerprint();
  std::printf("  primary and secondary data identical after drain: %s\n",
              identical ? "yes" : "no");
  return identical ? 0 : 1;
}
