// Extension bench: Decongestant through a primary fail-over (the paper
// notes fail-overs are rare and leaves them out of scope; the substrate
// supports them, so we drill one). The primary is killed mid-run; the
// survivors run a Raft-style election (pre-vote, real vote, catch-up)
// and the driver learns the new primary from hello. Writes stall until
// the election, reads keep flowing to the survivors, and the Read
// Balancer re-balances around the new 2-node reality: at the swap it
// discards its latency histories and RecentBal — they describe the dead
// primary — and restarts the Algorithm 1 climb from LOWBAL. The decision
// log names the reset (primary_swap_reset) with the term it happened in.
// The old primary then rejoins and load spreads again.

#include "bench_common.h"

int main() {
  using namespace dcg;
  using namespace dcg::bench;

  Banner("Extension: fail-over drill",
         "kill the primary at t=200 s, restart it at t=400 s (YCSB-B)");

  exp::ExperimentConfig config;
  config.seed = 66;
  config.system = exp::SystemType::kDecongestant;
  config.kind = exp::WorkloadKind::kYcsb;
  config.phases = {{0, 30, 0.95}};
  config.duration = sim::Seconds(600);
  config.warmup = sim::Seconds(100);
  config.run_s_workload = false;  // the S probe pair is not failover-aware

  // The drill as a scripted fault timeline — the same schedule is
  // expressible on the CLI as --faults="crash@200:node=0;restart@400:node=0".
  {
    fault::FaultEvent crash;
    crash.type = fault::FaultType::kCrash;
    crash.start = sim::Seconds(200);
    crash.nodes = {0};
    fault::FaultEvent restart;
    restart.type = fault::FaultType::kRestart;
    restart.start = sim::Seconds(400);
    restart.nodes = {0};
    config.faults.Add(crash).Add(restart);
  }

  exp::Experiment experiment(config);
  auto& rs = experiment.replica_set();
  experiment.Run();
  // Quiesce: stop the clients and let replication drain before comparing
  // replica contents.
  experiment.pool().SetTarget(0);
  experiment.loop().RunUntil(sim::Seconds(605));

  PrintSeries(experiment, /*tpcc=*/false);

  // Read throughput and Balance Fraction trajectory around the swap, from
  // the period rows.
  double before = 0, during = 0, after = 0;
  int n_before = 0, n_during = 0, n_after = 0;
  double frac_before = 0, frac_floor = 1.0, frac_recovered = 0;
  int n_frac_before = 0, n_recovered = 0;
  for (const auto& row : experiment.rows()) {
    const double t = sim::ToSeconds(row.start);
    if (t >= 100 && t < 200) {
      before += row.ReadThroughput();
      ++n_before;
    } else if (t >= 230 && t < 400) {
      during += row.ReadThroughput();
      ++n_during;
    } else if (t >= 500) {
      after += row.ReadThroughput();
      ++n_after;
    }
    if (t >= 150 && t < 200) {
      frac_before += row.balance_fraction;
      ++n_frac_before;
    } else if (t >= 200 && t < 260) {
      frac_floor = std::min(frac_floor, row.balance_fraction);
    } else if (t >= 300 && t < 400) {
      frac_recovered += row.balance_fraction;
      ++n_recovered;
    }
  }
  before /= n_before;
  during /= n_during;
  after /= n_after;
  frac_before /= n_frac_before;
  frac_recovered /= n_recovered;

  const obs::DecisionLog* decisions = experiment.balancer_decisions();
  const obs::BalanceDecision* swap_reset = nullptr;
  for (const obs::BalanceDecision& d : decisions->entries()) {
    if (d.reason == obs::BalanceReason::kPrimarySwapReset) {
      swap_reset = &d;
      break;
    }
  }
  const bool converged =
      rs.node(0).db().Fingerprint() == rs.node(1).db().Fingerprint() &&
      rs.node(1).db().Fingerprint() == rs.node(2).db().Fingerprint();

  std::printf("\nread throughput: before %.0f/s, after failover (2 nodes) "
              "%.0f/s, after rejoin %.0f/s\n",
              before, during, after);
  std::printf("balance fraction: steady %.2f, post-election floor %.2f, "
              "re-climbed %.2f\n",
              frac_before, frac_floor, frac_recovered);
  std::printf("elections: %llu, new primary: node %d, balancer swaps: %llu, "
              "driver pool clears: %llu, all nodes converged: %s\n",
              static_cast<unsigned long long>(rs.elections()),
              rs.primary_index(),
              static_cast<unsigned long long>(
                  experiment.balancer()->primary_swaps()),
              static_cast<unsigned long long>(
                  experiment.client().stepdown_pool_clears()),
              converged ? "yes" : "no");
  if (swap_reset != nullptr) {
    std::printf("swap decision: t=%.1f s reason=%s term=%llu %.2f -> %.2f\n",
                sim::ToSeconds(swap_reset->at),
                std::string(obs::ToString(swap_reset->reason)).c_str(),
                static_cast<unsigned long long>(swap_reset->term),
                swap_reset->from_fraction, swap_reset->to_fraction);
  }

  ShapeCheck("exactly one election took place", rs.elections() == 1);
  ShapeCheck("the cluster keeps serving reads on 2 nodes (>= 50% of "
             "3-node throughput)",
             during >= 0.5 * before);
  ShapeCheck("throughput recovers after the old primary rejoins (>= 90%)",
             after >= 0.9 * before);
  ShapeCheck("all replicas converge to identical data", converged);
  ShapeCheck("the balancer logged a primary_swap_reset decision",
             swap_reset != nullptr);
  ShapeCheck("the reset names the post-election term (> 1)",
             swap_reset != nullptr && swap_reset->term > 1);
  ShapeCheck("the driver cleared the deposed primary's pool",
             experiment.client().stepdown_pool_clears() >= 1);
  ShapeCheck("the fraction re-climbed after the swap (>= steady - 0.15)",
             frac_recovered >= frac_before - 0.15);
  ShapeCheck("steady fraction was meaningfully above the floor",
             frac_before > 0.2);
  return 0;
}
