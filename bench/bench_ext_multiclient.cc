// Extension bench: decentralisation (Figure 1 shows multiple client
// systems, each with its own Read Balancer; §1 claims "our approach is
// decentralised ... it uses only client observations"). Three independent
// client systems, sharing nothing but the replica set, each run their own
// balancer over their own third of the YCSB-B load. The claim under test:
// uncoordinated balancers converge to compatible Balance Fractions and
// their combined performance matches a single centralised balancer
// driving the same total load.

#include <memory>

#include "bench_common.h"
#include "exp/client_system.h"

namespace {

dcg::repl::ReplicaSet* BuildCluster(
    dcg::sim::EventLoop* loop, dcg::sim::Rng* rng, dcg::net::Network* network,
    std::vector<dcg::net::HostId>* client_hosts, int n_client_hosts,
    std::unique_ptr<dcg::repl::ReplicaSet>* out) {
  using namespace dcg;
  std::vector<net::HostId> node_hosts;
  for (int i = 0; i < 3; ++i) {
    node_hosts.push_back(network->AddHost("db" + std::to_string(i)));
  }
  const sim::Duration rtts[3] = {sim::Millis(0.4), sim::Millis(1.2),
                                 sim::Millis(1.6)};
  for (int c = 0; c < n_client_hosts; ++c) {
    client_hosts->push_back(network->AddHost("app" + std::to_string(c)));
    for (int i = 0; i < 3; ++i) {
      network->SetLink(client_hosts->back(), node_hosts[i], rtts[i],
                       sim::Micros(40));
    }
  }
  for (int i = 0; i < 3; ++i) {
    for (int j = i + 1; j < 3; ++j) {
      network->SetLink(node_hosts[i], node_hosts[j], sim::Millis(1),
                       sim::Micros(40));
    }
  }
  *out = std::make_unique<repl::ReplicaSet>(loop, rng->Fork(), network,
                                            repl::ReplicaSetParams{},
                                            server::ServerParams{},
                                            node_hosts);
  return out->get();
}

}  // namespace

int main() {
  using namespace dcg;
  using namespace dcg::bench;

  Banner("Extension: decentralisation",
         "3 independent client systems vs 1 centralised balancer (YCSB-B)");

  const workload::YcsbConfig ycsb_config = workload::YcsbConfig::WorkloadB();
  constexpr int kTotalClients = 45;
  constexpr sim::Duration kDuration = sim::Seconds(300);

  // --- Run A: three client systems, 15 app clients each. ---
  double fractions[3];
  double combined_reads_per_sec = 0;
  {
    sim::EventLoop loop;
    sim::Rng rng(70);
    net::Network network(&loop, rng.Fork());
    std::vector<net::HostId> hosts;
    std::unique_ptr<repl::ReplicaSet> rs;
    BuildCluster(&loop, &rng, &network, &hosts, 3, &rs);
    for (int i = 0; i < 3; ++i) {
      workload::YcsbWorkload::Load(ycsb_config, &rs->node(i).db());
    }
    rs->Start();

    std::vector<std::unique_ptr<exp::ClientSystem>> systems;
    for (int c = 0; c < 3; ++c) {
      systems.push_back(std::make_unique<exp::ClientSystem>(
          &loop, rng.Fork(), rs.get(), hosts[c], driver::ClientOptions{},
          core::BalancerConfig{}, ycsb_config));
      systems.back()->Start(kTotalClients / 3);
    }
    loop.RunUntil(kDuration);

    uint64_t reads = 0;
    for (int c = 0; c < 3; ++c) {
      fractions[c] = systems[c]->state().balance_fraction();
      reads += systems[c]->reads();
      std::printf(
          "client system %d: fraction %.2f, %.1f%% of its reads on "
          "secondaries\n",
          c, fractions[c], systems[c]->SecondaryPercent());
    }
    combined_reads_per_sec =
        static_cast<double>(reads) / sim::ToSeconds(kDuration);
  }

  // --- Run B: one centralised client system with all 45 app clients. ---
  double central_fraction = 0;
  double central_reads_per_sec = 0;
  {
    sim::EventLoop loop;
    sim::Rng rng(71);
    net::Network network(&loop, rng.Fork());
    std::vector<net::HostId> hosts;
    std::unique_ptr<repl::ReplicaSet> rs;
    BuildCluster(&loop, &rng, &network, &hosts, 1, &rs);
    for (int i = 0; i < 3; ++i) {
      workload::YcsbWorkload::Load(ycsb_config, &rs->node(i).db());
    }
    rs->Start();
    exp::ClientSystem system(&loop, rng.Fork(), rs.get(), hosts[0],
                             driver::ClientOptions{}, core::BalancerConfig{},
                             ycsb_config);
    system.Start(kTotalClients);
    loop.RunUntil(kDuration);
    central_fraction = system.state().balance_fraction();
    central_reads_per_sec =
        static_cast<double>(system.reads()) / sim::ToSeconds(kDuration);
  }

  std::printf(
      "\ncombined (3 balancers): %.0f reads/s | centralised (1 balancer): "
      "%.0f reads/s, fraction %.2f\n",
      combined_reads_per_sec, central_reads_per_sec, central_fraction);

  const double spread =
      std::max({fractions[0], fractions[1], fractions[2]}) -
      std::min({fractions[0], fractions[1], fractions[2]});
  ShapeCheck(
      "independent balancers converge to compatible fractions (spread <= "
      "0.2)",
      spread <= 0.2);
  ShapeCheck("every system lands near the shared-load equilibrium (>= 0.5)",
             fractions[0] >= 0.5 && fractions[1] >= 0.5 &&
                 fractions[2] >= 0.5);
  ShapeCheck(
      "combined throughput of uncoordinated balancers matches the "
      "centralised one (within 10%)",
      combined_reads_per_sec >= 0.9 * central_reads_per_sec &&
          combined_reads_per_sec <= 1.1 * central_reads_per_sec);
  return 0;
}
