// Freshness-requirement example: a TPC-C-like application tells
// Decongestant its staleness budget (3 seconds here — far below
// MongoDB's maxStalenessSeconds minimum of 90). The run prints what the
// monitoring S workload actually observed, proving the promise held even
// though the raw replication lag repeatedly blew past the budget.
//
//   ./build/examples/staleness_bound

#include <algorithm>
#include <cstdio>

#include "exp/experiment.h"

int main() {
  using namespace dcg;

  constexpr int64_t kBudgetSeconds = 3;

  exp::ExperimentConfig config;
  config.seed = 77;
  config.system = exp::SystemType::kDecongestant;
  config.kind = exp::WorkloadKind::kTpcc;
  config.phases = {{.at = 0, .clients = 40, .ycsb_read_proportion = 0.5}};
  config.duration = sim::Seconds(360);
  config.warmup = sim::Seconds(60);
  config.balancer.stale_bound_seconds = kBudgetSeconds;
  // The TPC-C disk profile: a slow checkpoint disk makes replication
  // stall periodically — the hostile regime for a tight freshness budget.
  config.server.checkpoint_disk_bw = exp::kTpccCheckpointDiskBw;

  std::printf("read-write TPC-C, 40 clients, staleness budget %lld s...\n",
              static_cast<long long>(kBudgetSeconds));

  exp::Experiment experiment(config);
  experiment.Run();

  // Per-10s digest: raw replication lag vs what clients saw.
  std::printf("\n%8s %14s %16s %10s\n", "time", "raw max lag(s)",
              "client-seen(s)", "fraction");
  size_t s_idx = 0;
  double worst_seen = 0, worst_raw = 0;
  for (const auto& row : experiment.rows()) {
    double raw = 0;
    for (const auto& point : experiment.staleness_series()) {
      if (point.at >= row.start && point.at < row.end) {
        raw = std::max(raw, point.true_max_s);
      }
    }
    double seen = 0;
    while (s_idx < experiment.s_samples().size() &&
           experiment.s_samples()[s_idx].first < row.end) {
      seen = std::max(seen, experiment.s_samples()[s_idx].second);
      ++s_idx;
    }
    worst_seen = std::max(worst_seen, seen);
    worst_raw = std::max(worst_raw, raw);
    std::printf("%8s %14.1f %16.2f %10.2f\n",
                sim::FormatTime(row.start).c_str(), raw, seen,
                row.balance_fraction);
  }

  std::printf(
      "\nworst raw replication lag: %.1f s — worst staleness any client "
      "observed: %.2f s\n",
      worst_raw, worst_seen);
  std::printf(
      "gate fired %llu times; the budget held within the 1 s reporting "
      "granularity: %s\n",
      static_cast<unsigned long long>(
          experiment.balancer()->stale_zero_events()),
      worst_seen <= static_cast<double>(kBudgetSeconds) + 1.5 ? "yes" : "NO");
  return 0;
}
