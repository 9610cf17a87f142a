// Extension bench: connection-pool exhaustion at the primary (out of the
// paper's scope — real drivers cap connections per node, the paper's
// clients never hit that cap). With maxPoolSize=2 per node, 40 closed-loop
// clients saturate the primary's pool: ops queue for a connection before
// they ever reach the wire, so client-observed latency inflates while the
// server itself is fine. The driver's RTT probes bypass the pool, so the
// Read Balancer's server-side estimate Lss = P50(Lclient) − P50(RTT)
// attributes the whole checkout queue to the primary — and sheds reads to
// the secondaries, whose pools have headroom. A primary-only baseline with
// the same pool has nowhere to shed and eats the queueing delay.

#include "bench_common.h"

namespace {

dcg::exp::ExperimentConfig PoolConfig(dcg::exp::SystemType system) {
  using namespace dcg;
  exp::ExperimentConfig config;
  config.seed = 77;
  config.system = system;
  config.kind = exp::WorkloadKind::kYcsb;
  config.phases = {{0, 40, 0.95}};
  config.duration = sim::Seconds(300);
  config.warmup = sim::Seconds(100);
  config.run_s_workload = false;
  config.client_options.pool.max_pool_size = 2;
  config.client_options.pool.establish_cost = sim::Millis(1);
  // No wait-queue timeout: ops wait as long as it takes, so exhaustion
  // shows up purely as latency, never as failed operations.
  config.client_options.pool.wait_queue_timeout = 0;
  return config;
}

/// Mean steady-state read p80, throughput, and balance fraction.
struct Tail {
  double p80_ms = 0;
  double reads_per_sec = 0;
  double fraction = 0;
  double secondary_percent = 0;
  double checkout_wait_ms = 0;  // summed over tail periods
};

Tail TailStats(const dcg::exp::Experiment& experiment, double from_s) {
  Tail tail;
  int n = 0;
  const std::vector<double> checkout_wait_ms =
      experiment.metrics_registry().PerPeriod("pool_checkout_wait");
  for (size_t i = 0; i < experiment.rows().size(); ++i) {
    const auto& row = experiment.rows()[i];
    if (dcg::sim::ToSeconds(row.start) < from_s) continue;
    tail.p80_ms += row.P80ReadLatencyMs();
    tail.reads_per_sec += row.ReadThroughput();
    tail.fraction += row.balance_fraction;
    tail.secondary_percent += row.SecondaryPercent();
    tail.checkout_wait_ms += checkout_wait_ms[i];
    ++n;
  }
  if (n > 0) {
    tail.p80_ms /= n;
    tail.reads_per_sec /= n;
    tail.fraction /= n;
    tail.secondary_percent /= n;
  }
  return tail;
}

}  // namespace

int main() {
  using namespace dcg;
  using namespace dcg::bench;

  Banner("Extension: pool exhaustion",
         "maxPoolSize=2 per node, 40 clients (YCSB-B): checkout queueing "
         "at the primary vs Decongestant shedding to secondaries");

  // --- Baseline: primary-only reads through the starved pool ---------------
  Note("\n[primary-only, maxPoolSize=2]");
  auto primary_config = PoolConfig(exp::SystemType::kPrimary);
  exp::Experiment primary_run(primary_config);
  primary_run.Run();
  const Tail primary_tail = TailStats(primary_run, 120);
  const auto primary_pool = primary_run.client().PoolTotals();
  const int leader = primary_run.replica_set().primary_index();
  const double probe_rtt_ms =
      sim::ToMillis(primary_run.client().RttEstimate(leader));
  std::printf("  steady-state %.0f reads/s, p80 %.2f ms, probe RTT to "
              "primary %.2f ms\n",
              primary_tail.reads_per_sec, primary_tail.p80_ms, probe_rtt_ms);
  std::printf("  pool: %llu checkouts, peak queue %llu, %.0f ms total wait\n",
              static_cast<unsigned long long>(primary_pool.checkouts),
              static_cast<unsigned long long>(primary_pool.max_queue_depth),
              sim::ToMillis(primary_pool.wait_total));

  // --- Decongestant: same pool, Read Balancer free to shed -----------------
  Note("\n[decongestant, maxPoolSize=2]");
  auto dcg_config = PoolConfig(exp::SystemType::kDecongestant);
  exp::Experiment dcg_run(dcg_config);
  dcg_run.Run();
  PrintSeries(dcg_run, /*tpcc=*/false);
  const Tail dcg_tail = TailStats(dcg_run, 120);
  const auto dcg_pool = dcg_run.client().PoolTotals();
  std::printf("\n  steady-state %.0f reads/s, p80 %.2f ms, fraction %.2f, "
              "%.1f%% on secondaries\n",
              dcg_tail.reads_per_sec, dcg_tail.p80_ms, dcg_tail.fraction,
              dcg_tail.secondary_percent);
  std::printf("  pool: %llu checkouts, peak queue %llu, %.0f ms total wait\n",
              static_cast<unsigned long long>(dcg_pool.checkouts),
              static_cast<unsigned long long>(dcg_pool.max_queue_depth),
              sim::ToMillis(dcg_pool.wait_total));

  ShapeCheck("the starved primary pool queues checkouts (nonzero wait, "
             "queue depth > clients/2)",
             primary_pool.wait_total > 0 &&
                 primary_pool.max_queue_depth > 20);
  ShapeCheck("RTT probes bypass the pool: probe RTT stays an order of "
             "magnitude below client-observed p80",
             probe_rtt_ms * 10 < primary_tail.p80_ms);
  ShapeCheck("the Read Balancer sheds the queue to secondaries "
             "(steady-state fraction >= 0.3, secondary share >= 20%)",
             dcg_tail.fraction >= 0.3 &&
                 dcg_tail.secondary_percent >= 20);
  // Closed-loop clients self-limit, so exhaustion caps *throughput* more
  // than it moves p80: the primary-only run serves 40 clients through 2
  // usable connections, Decongestant through 6 (all three pools).
  ShapeCheck("shedding relieves exhaustion: Decongestant serves >= 2x the "
             "primary-only read throughput at lower p80",
             dcg_tail.reads_per_sec >= 2 * primary_tail.reads_per_sec &&
                 dcg_tail.p80_ms < primary_tail.p80_ms);
  ShapeCheck("per-period CSV pool columns are populated "
             "(checkout wait recorded in the tail)",
             primary_tail.checkout_wait_ms > 0);
  return 0;
}
