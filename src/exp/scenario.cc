#include "exp/scenario.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <limits>
#include <memory>
#include <span>
#include <utility>

#include "core/controller.h"
#include "exp/client_system.h"
#include "shard/sharded_cluster.h"
#include "util/check.h"

namespace dcg::exp {
namespace {

// --- building blocks ------------------------------------------------------

int ScaledClients(int paper_clients) {
  return std::max(2, paper_clients / 4);
}

// The system under test and both baselines, in the two orders the
// figures print them.
constexpr SystemType kDcgFirst[] = {
    SystemType::kDecongestant, SystemType::kPrimary, SystemType::kSecondary};
constexpr SystemType kDcgLast[] = {SystemType::kPrimary, SystemType::kSecondary,
                                   SystemType::kDecongestant};
constexpr double kRunEnd = std::numeric_limits<double>::infinity();

ExperimentConfig Ycsb(uint64_t seed, std::vector<Phase> phases,
                      double duration_s, double warmup_s) {
  ExperimentConfig config;
  config.seed = seed;
  config.phases = std::move(phases);
  config.duration = sim::Seconds(duration_s);
  config.warmup = sim::Seconds(warmup_s);
  return config;
}

/// Read-write TPC-C on the TPC-C disk profile.
ExperimentConfig Tpcc(uint64_t seed, std::vector<Phase> phases,
                      double duration_s, double warmup_s) {
  ExperimentConfig config = Ycsb(seed, std::move(phases), duration_s, warmup_s);
  config.kind = WorkloadKind::kTpcc;
  config.server.checkpoint_disk_bw = kTpccCheckpointDiskBw;
  return config;
}

ExperimentConfig With(ExperimentConfig config,
                      const std::function<void(ExperimentConfig&)>& edit) {
  edit(config);
  return config;
}

/// The fault timeline `spec`, in sim_cli's --faults grammar.
fault::FaultSchedule Faults(const char* spec) {
  fault::FaultSchedule schedule;
  std::string error;
  const bool parsed = fault::ParseFaultSpec(spec, &schedule, &error);
  DCG_CHECK(parsed);
  return schedule;
}

void PrintSeries(const Experiment& experiment, bool tpcc) {
  std::printf("%8s %12s %10s %8s %10s %7s\n", "time(s)",
              tpcc ? "SL txn/s" : "reads/s", "p80(ms)", "sec(%)", "fraction",
              "est(s)");
  for (const PeriodRow& row : experiment.rows()) {
    const double secs = sim::ToSeconds(row.end - row.start);
    const double throughput =
        tpcc ? (secs > 0 ? static_cast<double>(row.stock_level) / secs : 0)
             : row.ReadThroughput();
    const double p80 = tpcc ? row.stock_level_latency.Percentile(80) /
                                  static_cast<double>(sim::kMillisecond)
                            : row.P80ReadLatencyMs();
    std::printf("%8.0f %12.0f %10.2f %8.1f %10.2f %7lld\n",
                sim::ToSeconds(row.start), throughput, p80,
                row.SecondaryPercent(), row.balance_fraction,
                static_cast<long long>(row.est_staleness_max_s));
  }
}

/// Runs `base` once per system (Decongestant, Primary, Secondary), prints
/// each run's series and hands the finished run to `inspect`.
void RunSystems(const ExperimentConfig& base,
                const std::function<void(int, Experiment&)>& inspect) {
  for (int i = 0; i < 3; ++i) {
    ExperimentConfig config = base;
    config.system = kDcgFirst[i];
    Experiment experiment(config);
    experiment.Run();
    std::printf("\n--- system: %s ---\n", ToString(kDcgFirst[i]).data());
    PrintSeries(experiment, base.kind == WorkloadKind::kTpcc);
    inspect(i, experiment);
  }
}

/// One run of `base` per system and paper client count (systems outer),
/// at the scaled count: grid[system][count].
std::vector<std::vector<Summary>> Sweep(const ExperimentConfig& base,
                                        std::span<const SystemType> systems,
                                        std::span<const int> paper_counts) {
  std::vector<std::vector<Summary>> grid(systems.size());
  for (size_t s = 0; s < systems.size(); ++s) {
    for (int paper_clients : paper_counts) {
      ExperimentConfig config = base;
      config.system = systems[s];
      config.phases[0].clients = ScaledClients(paper_clients);
      Experiment experiment(config);
      experiment.Run();
      grid[s].push_back(experiment.Summarize());
    }
  }
  return grid;
}

/// Read and Stock Level throughput and P80 latency over the periods that
/// start in [from, to).
Summary Window(const Experiment& experiment, sim::Time from, sim::Time to) {
  metrics::Histogram read_latency, stock_level_latency;
  uint64_t reads = 0, stock_level = 0;
  sim::Duration secs = 0;
  for (const PeriodRow& row : experiment.rows()) {
    if (row.start < from || row.start >= to) continue;
    reads += row.reads;
    stock_level += row.stock_level;
    secs += row.end - row.start;
    read_latency.Merge(row.read_latency);
    stock_level_latency.Merge(row.stock_level_latency);
  }
  const double ms = static_cast<double>(sim::kMillisecond);
  Summary summary;
  summary.read_throughput = static_cast<double>(reads) / sim::ToSeconds(secs);
  summary.p80_read_latency_ms = read_latency.Percentile(80) / ms;
  summary.stock_level_throughput =
      static_cast<double>(stock_level) / sim::ToSeconds(secs);
  summary.p80_stock_level_latency_ms = stock_level_latency.Percentile(80) / ms;
  return summary;
}

/// Mean of `value(row)` over the periods that start in [from_s, to_s).
double RowMean(const Experiment& experiment, double from_s, double to_s,
               const std::function<double(const PeriodRow&)>& value) {
  double sum = 0;
  int n = 0;
  for (const PeriodRow& row : experiment.rows()) {
    const double t = sim::ToSeconds(row.start);
    if (t < from_s || t >= to_s) continue;
    sum += value(row);
    ++n;
  }
  return n > 0 ? sum / n : 0;
}

/// Mean absolute period-to-period move of the Balance Fraction over the
/// periods that start at or after `from_s`.
double Volatility(const Experiment& experiment, double from_s) {
  double delta_sum = 0;
  int n = 0;
  double prev = -1;
  for (const PeriodRow& row : experiment.rows()) {
    if (sim::ToSeconds(row.start) < from_s) continue;
    if (prev >= 0) {
      delta_sum += std::abs(row.balance_fraction - prev);
      ++n;
    }
    prev = row.balance_fraction;
  }
  return delta_sum / n;
}

/// Sets `*reached` to the time of the first balancer period whose
/// published fraction is at least `threshold` (-1 until then).
void WatchReach(Experiment& experiment, double threshold, double* reached) {
  *reached = -1;
  experiment.balancer()->SetPeriodCallback(
      [=](const core::ReadBalancer::PeriodStats& stats) {
        if (*reached < 0 && stats.published_fraction >= threshold) {
          *reached = sim::ToSeconds(stats.at);
        }
      });
}

/// For each staleness-series point, the largest S-workload sample taken
/// since the previous point (0 when none).
std::vector<double> ObservedPerPoint(const Experiment& experiment) {
  const auto& samples = experiment.s_samples();
  std::vector<double> observed;
  size_t i = 0;
  for (const StalenessPoint& point : experiment.staleness_series()) {
    double seen = 0;
    for (; i < samples.size() && samples[i].first <= point.at; ++i) {
      seen = std::max(seen, samples[i].second);
    }
    observed.push_back(seen);
  }
  return observed;
}

// --- Table 1 and Figures 2-11 --------------------------------------------

void RunTable1(const Scenario& self, Claims& claims) {
  struct MixRow {
    const char* name;
    double standard;
    double read_write;
  };
  constexpr MixRow kTable1[] = {
      {"Stock Level", 0.04, 0.50},  {"Delivery", 0.04, 0.04},
      {"Order Status", 0.04, 0.04}, {"Payment", 0.43, 0.20},
      {"New Order", 0.45, 0.22},
  };
  bool all_ok = true;
  for (int variant = 0; variant < 2; ++variant) {
    ExperimentConfig config = *self.config;
    config.tpcc = variant == 0 ? workload::TpccConfig::Standard()
                               : workload::TpccConfig::ReadWrite();
    Experiment experiment(config);
    experiment.Run();

    const workload::TpccWorkload& tpcc = *experiment.tpcc();
    const double total =
        static_cast<double>(tpcc.stock_level_count() + tpcc.delivery_count() +
                            tpcc.order_status_count() + tpcc.payment_count() +
                            tpcc.new_order_count());
    const double measured[] = {
        tpcc.stock_level_count() / total,  tpcc.delivery_count() / total,
        tpcc.order_status_count() / total, tpcc.payment_count() / total,
        tpcc.new_order_count() / total,
    };
    std::printf("\n[%s TPC-C] (%d transactions)\n",
                variant == 0 ? "standard" : "read-write",
                static_cast<int>(total));
    std::printf("%-14s %10s %10s\n", "transaction", "target%", "measured%");
    for (int i = 0; i < 5; ++i) {
      const double target =
          variant == 0 ? kTable1[i].standard : kTable1[i].read_write;
      std::printf("%-14s %9.0f%% %9.1f%%\n", kTable1[i].name, target * 100,
                  measured[i] * 100);
      if (std::abs(measured[i] - target) > 0.02) all_ok = false;
    }
  }
  claims.Claim("measured mixes match Table 1 within sampling error (±2 pp)",
               all_ok);
}

void RunFig2(const Scenario& self, Claims& claims) {
  std::printf("paper clients: 180 (sim: %d), S workload attached\n",
              ScaledClients(180));
  Summary phase2[3];
  double ramp_fraction_end = 0;
  double steady_fraction_b = 0;
  RunSystems(*self.config, [&](int i, Experiment& experiment) {
    phase2[i] = experiment.Summarize();
    if (i > 0) return;
    for (const PeriodRow& row : experiment.rows()) {
      if (row.start == sim::Seconds(200)) {
        ramp_fraction_end = row.balance_fraction;
      }
      if (row.start == sim::Seconds(880)) {
        steady_fraction_b = row.balance_fraction;
      }
    }
  });

  std::printf("\npost-switch (YCSB-B) summaries:\n");
  std::printf("%-14s %10s %10s %8s\n", "system", "reads/s", "p80(ms)",
              "sec(%)");
  for (int i = 0; i < 3; ++i) {
    std::printf("%-14s %10.0f %10.2f %8.1f\n", ToString(kDcgFirst[i]).data(),
                phase2[i].read_throughput, phase2[i].p80_read_latency_ms,
                phase2[i].secondary_percent);
  }

  claims.Claim("warm-up ramps the Balance Fraction to the 90 % cap on YCSB-A",
               ramp_fraction_end >= 0.89);
  claims.Claim(
      "after the switch to YCSB-B the fraction settles near 70 % "
      "(primary takes writes + ~1/3 of reads)",
      steady_fraction_b >= 0.55 && steady_fraction_b <= 0.85);
  claims.Claim("Decongestant read throughput beats both baselines on YCSB-B",
               phase2[0].read_throughput > phase2[1].read_throughput &&
                   phase2[0].read_throughput > phase2[2].read_throughput);
  claims.Claim(
      "Decongestant P80 latency no worse than both baselines",
      phase2[0].p80_read_latency_ms <= phase2[1].p80_read_latency_ms + 0.5 &&
          phase2[0].p80_read_latency_ms <= phase2[2].p80_read_latency_ms + 0.5);
}

void RunFig3(const Scenario& self, Claims& claims) {
  std::printf("paper clients: 180 -> 20 (sim: %d -> %d)\n", ScaledClients(180),
              ScaledClients(20));
  std::printf(
      "note: the post-drop descent is probe-driven (one DELTA step per "
      "flat 4-period history,\n\"every fifth period\" per the paper), so "
      "the run extends past the paper's 600 s to show the full descent.\n");
  double fraction_peak = 0, fraction_end = 1;
  Summary high_load[3];
  RunSystems(*self.config, [&](int i, Experiment& experiment) {
    high_load[i] = Window(experiment, sim::Seconds(100), sim::Seconds(230));
    if (i > 0) return;
    for (const PeriodRow& row : experiment.rows()) {
      if (row.start >= sim::Seconds(100) && row.start < sim::Seconds(230)) {
        fraction_peak = std::max(fraction_peak, row.balance_fraction);
      }
    }
    fraction_end = experiment.rows().back().balance_fraction;
  });

  std::printf("\nhigh-load phase (100-230 s) summaries:\n");
  std::printf("%-14s %10s %10s\n", "system", "reads/s", "p80(ms)");
  for (int i = 0; i < 3; ++i) {
    std::printf("%-14s %10.0f %10.2f\n", ToString(kDcgFirst[i]).data(),
                high_load[i].read_throughput, high_load[i].p80_read_latency_ms);
  }

  claims.Claim("under YCSB-B load the fraction reaches an optimised plateau",
               fraction_peak >= 0.6);
  claims.Claim("Decongestant beats both baselines during the high-load phase",
               high_load[0].read_throughput > high_load[1].read_throughput &&
                   high_load[0].read_throughput > high_load[2].read_throughput);
  claims.Claim(
      "after the drop the fraction descends to the 10 % floor (keeps "
      "probing the secondaries)",
      fraction_end <= 0.2);
}

void RunFig4(const Scenario& self, Claims& claims) {
  std::printf("paper clients: 20/200/20 (sim: %d/%d/%d), stale bound 10 s\n",
              ScaledClients(20), ScaledClients(200), ScaledClients(20));
  double burst_secondary_pct = 0;
  double post_secondary_pct = 100;
  uint64_t stale_zero_events = 0;
  Summary burst[3];
  RunSystems(*self.config, [&](int i, Experiment& experiment) {
    // Burst-phase summary (minutes 6-10, past the ramp).
    burst[i] = Window(experiment, sim::kMinute * 6, sim::kMinute * 10);
    if (i > 0) return;
    double late_pct_sum = 0;
    int late_pct_n = 0;
    for (const PeriodRow& row : experiment.rows()) {
      if (row.start >= sim::kMinute * 6 && row.start < sim::kMinute * 10) {
        burst_secondary_pct =
            std::max(burst_secondary_pct, row.SecondaryPercent());
      }
      if (row.start >= sim::kMinute * 13 && row.reads > 0) {
        late_pct_sum += row.SecondaryPercent();
        ++late_pct_n;
      }
    }
    if (late_pct_n > 0) post_secondary_pct = late_pct_sum / late_pct_n;
    stale_zero_events = experiment.balancer()->stale_zero_events();
  });

  std::printf("\nburst-phase (min 6-10) Stock Level summaries:\n");
  std::printf("%-14s %12s %10s\n", "system", "SL txn/s", "p80(ms)");
  for (int i = 0; i < 3; ++i) {
    std::printf("%-14s %12.0f %10.2f\n", ToString(kDcgFirst[i]).data(),
                burst[i].stock_level_throughput,
                burst[i].p80_stock_level_latency_ms);
  }
  std::printf("\nDecongestant staleness-triggered zero events: %llu\n",
              static_cast<unsigned long long>(stale_zero_events));

  claims.Claim(
      "during the burst Decongestant pushes Stock Level reads to the "
      "secondaries",
      burst_secondary_pct >= 50.0);
  claims.Claim(
      "burst performance is close to (or better than) the Secondary "
      "baseline",
      burst[0].stock_level_throughput >=
          0.85 * burst[2].stock_level_throughput);
  claims.Claim(
      "staleness exceeding the 10 s bound triggered primary-only episodes "
      "(the pink lines of Fig. 4)",
      stale_zero_events > 0);
  claims.Claim(
      "after the burst most Stock Levels return to the now-uncongested "
      "primary",
      post_secondary_pct <= 40.0);
}

void RunFig5(const Scenario& self, Claims& claims) {
  constexpr int kCounts[] = {10, 25, 50, 75, 100, 120, 150, 175, 200};
  const auto grid = Sweep(*self.config, kDcgFirst, kCounts);
  for (int s = 0; s < 3; ++s) {
    std::printf("\n[%s]\n", ToString(kDcgFirst[s]).data());
    std::printf("%8s %8s %12s %10s %8s %10s\n", "clients", "(sim)", "reads/s",
                "p80(ms)", "sec(%)", "p80stale(s)");
    for (size_t c = 0; c < std::size(kCounts); ++c) {
      const Summary& p = grid[s][c];
      std::printf("%8d %8d %12.0f %10.2f %8.1f %10.2f\n", kCounts[c],
                  ScaledClients(kCounts[c]), p.read_throughput,
                  p.p80_read_latency_ms, p.secondary_percent,
                  p.p80_staleness_s);
    }
  }

  // Shape claims at the saturated end (200 paper clients).
  const Summary& dcg_hi = grid[0].back();
  const Summary& pri_hi = grid[1].back();
  const Summary& sec_hi = grid[2].back();
  claims.Claim(
      "at high load Decongestant throughput is ~30% above the Secondary "
      "baseline (>= +15%)",
      dcg_hi.read_throughput >= 1.15 * sec_hi.read_throughput);
  claims.Claim(
      "at high load Decongestant throughput is ~2.5x the Primary baseline "
      "(>= 2x)",
      dcg_hi.read_throughput >= 2.0 * pri_hi.read_throughput);
  claims.Claim("at high load Decongestant P80 latency is the lowest",
               dcg_hi.p80_read_latency_ms <= pri_hi.p80_read_latency_ms &&
                   dcg_hi.p80_read_latency_ms <= sec_hi.p80_read_latency_ms);
  claims.Claim(
      "secondary share grows with load: low at the light end, ~70% at "
      "the saturated end",
      grid[0].front().secondary_percent <= 50.0 &&
          dcg_hi.secondary_percent >= 55.0 && dcg_hi.secondary_percent <= 85.0);
}

/// Figures 6 and 7: Primary, Secondary and Decongestant at 20, 100 and
/// 180 paper clients, one row per run. grid[system][count].
std::vector<std::vector<Summary>> RunTradeoff(const ExperimentConfig& base) {
  constexpr int kCounts[] = {20, 100, 180};
  const bool tpcc = base.kind == WorkloadKind::kTpcc;
  std::printf("%-14s %8s %8s %12s %10s %12s %10s\n", "system", "clients",
              "(sim)", tpcc ? "SL txn/s" : "reads/s", "p80(ms)", "p80stale(s)",
              "maxstale(s)");
  const auto grid = Sweep(base, kDcgLast, kCounts);
  for (int s = 0; s < 3; ++s) {
    for (int c = 0; c < 3; ++c) {
      const Summary& p = grid[s][c];
      std::printf("%-14s %8d %8d %12.0f %10.2f %12.2f %10.2f\n",
                  ToString(kDcgLast[s]).data(), kCounts[c],
                  ScaledClients(kCounts[c]),
                  tpcc ? p.stock_level_throughput : p.read_throughput,
                  tpcc ? p.p80_stock_level_latency_ms : p.p80_read_latency_ms,
                  p.p80_staleness_s, p.max_staleness_s);
    }
  }
  return grid;
}

void RunFig6(const Scenario& self, Claims& claims) {
  const auto grid = RunTradeoff(*self.config);
  // At heavy load (180 clients): Primary fresh-but-slow, Secondary
  // fast-but-stale(r), Decongestant fast AND fresh-bounded.
  const Summary& pri = grid[0][2];
  const Summary& sec = grid[1][2];
  const Summary& dcg = grid[2][2];
  claims.Claim("heavy load: Decongestant throughput > Primary baseline",
               dcg.read_throughput > 1.3 * pri.read_throughput);
  claims.Claim(
      "heavy load: Decongestant staleness bounded by the client limit "
      "(P80 well under 10 s)",
      dcg.p80_staleness_s < 10.0);
  claims.Claim(
      "heavy load: Secondary baseline sees at least as much staleness as "
      "Decongestant",
      sec.max_staleness_s >= dcg.max_staleness_s - 0.5);
  claims.Claim("light load (20 clients): the three systems are close",
               grid[2][0].read_throughput < 1.4 * grid[0][0].read_throughput);
}

void RunFig7(const Scenario& self, Claims& claims) {
  const auto grid = RunTradeoff(*self.config);
  const Summary& pri = grid[0][2];
  const Summary& sec = grid[1][2];
  const Summary& dcg = grid[2][2];
  claims.Claim(
      "heavy load: Decongestant Stock Level throughput well above the "
      "Primary baseline",
      dcg.stock_level_throughput > 1.2 * pri.stock_level_throughput);
  claims.Claim(
      "heavy load: Decongestant P80 Stock Level latency below the Primary "
      "baseline",
      dcg.p80_stock_level_latency_ms < pri.p80_stock_level_latency_ms);
  claims.Claim(
      "heavy load: Decongestant bounds staleness while the Secondary "
      "baseline does not (max staleness ordering)",
      dcg.max_staleness_s <= sec.max_staleness_s + 0.5);
  claims.Claim(
      "Decongestant client-observed staleness respects the 10 s bound "
      "(within reporting granularity)",
      dcg.max_staleness_s <= 12.0);
}

void RunFig8(const Scenario& self, Claims& claims) {
  std::printf("workload: YCSB-A + S, paper clients 100 (sim %d)\n",
              ScaledClients(100));
  Experiment experiment(*self.config);
  experiment.Run();

  // A per-second series: the estimate and the max observed S-workload
  // staleness within that second.
  std::printf("\n%8s %12s %14s\n", "time(s)", "estimate(s)", "observed(s)");
  const std::vector<double> observed = ObservedPerPoint(experiment);
  int compared = 0, conservative = 0;
  double max_estimate = 0, max_observed = 0;
  double prev_estimate = 0;
  for (size_t i = 0; i < observed.size(); ++i) {
    const StalenessPoint& point = experiment.staleness_series()[i];
    if (point.at % (5 * sim::kSecond) == 0 || observed[i] >= 1.0 ||
        point.estimate_s >= 1.0) {
      std::printf("%8.0f %12.0f %14.2f\n", sim::ToSeconds(point.at),
                  point.estimate_s, observed[i]);
    }
    if (observed[i] >= 1.0) {
      // The estimate is refreshed at 1 Hz; a sample inside the second is
      // covered by either this point's or the previous point's estimate.
      ++compared;
      if (std::max(point.estimate_s, prev_estimate) + 1.5 >= observed[i]) {
        ++conservative;
      }
    }
    prev_estimate = point.estimate_s;
    max_estimate = std::max(max_estimate, point.estimate_s);
    max_observed = std::max(max_observed, observed[i]);
  }

  std::printf("\nmax estimate: %.0f s, max observed: %.2f s\n", max_estimate,
              max_observed);
  claims.Claim("the workload produces visible staleness episodes",
               max_observed >= 1.0);
  claims.Claim(
      "the estimate is conservative: (almost) never below what clients "
      "observed",
      compared == 0 || static_cast<double>(conservative) / compared >= 0.9);
  claims.Claim("the estimate tracks the observed staleness (same order)",
               max_estimate >= max_observed - 1.5 &&
                   max_estimate <= max_observed + 15.0);
}

void RunFig9(const Scenario& self, Claims& claims) {
  std::printf("paper clients: 60 (sim %d)\n", ScaledClients(60));
  Experiment experiment(*self.config);
  experiment.Run();

  std::printf("\n%8s %14s %14s\n", "time(s)", "raw max lag(s)",
              "client-seen(s)");
  const std::vector<double> seen = ObservedPerPoint(experiment);
  double max_raw = 0, max_seen = 0;
  int sawtooth_rises = 0;
  double prev_raw = 0;
  for (size_t i = 0; i < seen.size(); ++i) {
    const StalenessPoint& point = experiment.staleness_series()[i];
    if (point.at % (5 * sim::kSecond) == 0 || point.true_max_s >= 5.0) {
      std::printf("%8.0f %14.2f %14.2f\n", sim::ToSeconds(point.at),
                  point.true_max_s, seen[i]);
    }
    if (point.true_max_s > prev_raw + 0.5) ++sawtooth_rises;
    prev_raw = point.true_max_s;
    if (sim::ToSeconds(point.at) >= 60) {
      max_raw = std::max(max_raw, point.true_max_s);
      max_seen = std::max(max_seen, seen[i]);
    }
  }

  const uint64_t zero_events = experiment.balancer()->stale_zero_events();
  std::printf("\nmax raw secondary staleness: %.1f s\n", max_raw);
  std::printf("max client-observed staleness: %.1f s\n", max_seen);
  std::printf("staleness-triggered zero events: %llu\n",
              static_cast<unsigned long long>(zero_events));
  claims.Claim("raw secondary staleness periodically exceeds the 10 s bound",
               max_raw > 10.0);
  claims.Claim(
      "client-observed staleness stays within the bound (+ granularity)",
      max_seen <= 11.5);
  claims.Claim("the gate actually fired (reads redirected to the primary)",
               zero_events > 0);
  claims.Claim("staleness follows a sawtooth (multiple rise episodes)",
               sawtooth_rises >= 3);
}

void RunFig10(const Scenario& self, Claims& claims) {
  std::printf("paper clients: 200 (sim %d)\n", ScaledClients(200));
  Experiment experiment(*self.config);
  experiment.Run();

  std::printf("\n%10s %14s\n", "time(s)", "client-seen(s)");
  int over_bound = 0, over_bound_plus1 = 0, total = 0;
  double max_seen = 0;
  for (const auto& [at, staleness] : experiment.s_samples()) {
    if (sim::ToSeconds(at) < 60) continue;
    ++total;
    if (staleness > 3.0) ++over_bound;
    if (staleness > 4.5) ++over_bound_plus1;
    max_seen = std::max(max_seen, staleness);
    if (staleness >= 1.0) {
      std::printf("%10.0f %14.2f\n", sim::ToSeconds(at), staleness);
    }
  }

  std::printf("\nsamples: %d, above 3 s: %d, above 4.5 s: %d, max: %.2f s\n",
              total, over_bound, over_bound_plus1, max_seen);
  claims.Claim(
      "client-observed staleness is mostly bounded at 3 s (a few bound+1 "
      "points allowed, as in the paper)",
      total > 0 && static_cast<double>(over_bound) / total < 0.05 &&
          over_bound_plus1 == 0);
  claims.Claim("the gate fired repeatedly under the tight bound",
               experiment.balancer()->stale_zero_events() >= 1);
}

void RunFig11(const Scenario& self, Claims& claims) {
  constexpr int kCounts[] = {50, 75, 100, 125, 150, 175, 200};
  std::printf("%8s %8s %16s %16s %8s\n", "clients", "(sim)", "with S (txn/s)",
              "without S (txn/s)", "delta%");
  double worst_delta = 0;
  for (int paper_clients : kCounts) {
    double throughput[2];
    for (int s = 0; s < 2; ++s) {
      ExperimentConfig config = *self.config;
      config.phases[0].clients = ScaledClients(paper_clients);
      config.run_s_workload = s == 0;
      Experiment experiment(config);
      experiment.Run();
      throughput[s] = experiment.Summarize().stock_level_throughput;
    }
    const double delta =
        100.0 * (throughput[0] - throughput[1]) / throughput[1];
    worst_delta = std::max(worst_delta, std::abs(delta));
    std::printf("%8d %8d %16.1f %16.1f %+7.1f\n", paper_clients,
                ScaledClients(paper_clients), throughput[0], throughput[1],
                delta);
  }
  claims.Claim(
      "attaching the S workload changes Stock Level throughput by only a "
      "few percent at every client count",
      worst_delta < 8.0);
}

// --- ablations -------------------------------------------------------------

void RunAblRttSubtraction(const Scenario& self, Claims& claims) {
  std::printf(
      "client co-located with the primary: RTT 0.3 ms to the primary, "
      "2.6/3.0 ms to the secondaries.\nworkload: moderate YCSB-B, where "
      "server-side times on primary vs secondaries are comparable.\n");
  double avg_fraction[2] = {0, 0};
  double avg_ratio[2] = {0, 0};
  for (int variant = 0; variant < 2; ++variant) {
    ExperimentConfig config = *self.config;
    config.balancer.subtract_rtt = variant == 0;
    Experiment experiment(config);
    double ratio_sum = 0;
    int ratio_n = 0;
    experiment.balancer()->SetPeriodCallback(
        [&](const core::ReadBalancer::PeriodStats& stats) {
          if (stats.ratio_valid) {
            ratio_sum += stats.ratio;
            ++ratio_n;
          }
        });
    experiment.Run();
    avg_fraction[variant] =
        RowMean(experiment, 100, kRunEnd, &PeriodRow::balance_fraction);
    avg_ratio[variant] = ratio_n > 0 ? ratio_sum / ratio_n : 0;
    std::printf("%-24s avg fraction %.3f, avg latency ratio %.3f\n",
                variant == 0 ? "[with subtraction]" : "[without subtraction]",
                avg_fraction[variant], avg_ratio[variant]);
  }

  std::printf(
      "\nWithout the subtraction, the secondaries' extra ~2.5 ms of RTT "
      "reads as server congestion:\nthe ratio is biased low, pinning the "
      "fraction at the floor even when sharing would be free;\nwith the "
      "subtraction the ratio hovers near the true server-side balance.\n");
  claims.Claim("raw latencies bias the ratio lower than the RTT-corrected one",
               avg_ratio[1] < avg_ratio[0] - 0.1);
  claims.Claim("the RTT-corrected ratio is near 1 at balanced light load",
               avg_ratio[0] > 0.7 && avg_ratio[0] < 1.4);
}

void RunAblDownwardProbe(const Scenario& self, Claims& claims) {
  std::printf(
      "workload: YCSB-B burst (45 clients) for 300 s, then light load "
      "(3 clients) for 500 s.\n");
  double late_fraction[2] = {0, 0};
  for (int variant = 0; variant < 2; ++variant) {
    ExperimentConfig config = *self.config;
    config.balancer.downward_probe = variant == 0;
    Experiment experiment(config);
    experiment.Run();
    late_fraction[variant] =
        RowMean(experiment, 650, kRunEnd, &PeriodRow::balance_fraction);
    std::printf(
        "%-18s settled fraction %.2f, secondary reads %.1f%%\n",
        variant == 0 ? "[probe enabled]" : "[probe disabled]",
        late_fraction[variant],
        RowMean(experiment, 650, kRunEnd, &PeriodRow::SecondaryPercent));
  }
  claims.Claim(
      "with the probe, the fraction returns to the 10% floor after the "
      "load drop",
      late_fraction[0] <= 0.2);
  claims.Claim(
      "without the probe, the fraction stays stuck high (stale-read "
      "exposure for no gain)",
      late_fraction[1] >= late_fraction[0] + 0.3);
}

void RunAblDeadband(const Scenario& self, Claims& claims) {
  struct Band {
    const char* name;
    double low, high;
  };
  constexpr Band kBands[] = {
      {"none (1.0/1.0)", 1.0, 1.0 + 1e-9},
      {"narrow (0.95/1.05)", 0.95, 1.05},
      {"paper (0.75/1.30)", 0.75, 1.30},
      {"wide (0.4/2.5)", 0.4, 2.5},
  };
  std::printf("%-20s %12s %14s %10s\n", "band", "reads/s", "volatility",
              "sec(%)");
  double throughput[4], sec_pct[4];
  for (int b = 0; b < 4; ++b) {
    ExperimentConfig config = *self.config;
    config.balancer.low_ratio = kBands[b].low;
    config.balancer.high_ratio = kBands[b].high;
    Experiment experiment(config);
    experiment.Run();
    const Summary summary = experiment.Summarize();
    throughput[b] = summary.read_throughput;
    sec_pct[b] = summary.secondary_percent;
    std::printf("%-20s %12.0f %14.3f %10.1f\n", kBands[b].name,
                summary.read_throughput, Volatility(experiment, 200),
                sec_pct[b]);
  }
  claims.Claim(
      "without a dead band the fraction rails at the cap (~90% secondary "
      "reads at light load)",
      sec_pct[0] >= 80.0 && sec_pct[1] >= 80.0);
  claims.Claim(
      "the paper's band keeps light-load reads mostly on the fresh "
      "primary",
      sec_pct[2] <= 40.0);
  claims.Claim(
      "the paper's band does not sacrifice throughput for that freshness",
      throughput[2] >= 0.95 * std::max(throughput[0], throughput[1]));
}

void RunAblPeriod(const Scenario& self, Claims& claims) {
  constexpr double kPeriods[] = {2, 5, 10, 30};
  std::printf("%10s %16s %14s %12s\n", "period(s)", "t(frac>=0.6)(s)",
              "volatility", "reads/s");
  double reaction[4];
  for (int i = 0; i < 4; ++i) {
    ExperimentConfig config = *self.config;
    config.balancer.period = sim::Seconds(kPeriods[i]);
    Experiment experiment(config);
    WatchReach(experiment, 0.6, &reaction[i]);
    experiment.Run();
    std::printf("%10.0f %16.0f %14.3f %12.0f\n", kPeriods[i], reaction[i],
                Volatility(experiment, 300),
                experiment.Summarize().read_throughput);
  }
  claims.Claim("shorter periods reach the target fraction sooner",
               reaction[0] > 0 && reaction[0] < reaction[3]);
  claims.Claim(
      "every period length eventually shifts load to secondaries",
      reaction[0] > 0 && reaction[1] > 0 && reaction[2] > 0 && reaction[3] > 0);
}

void RunAblMaxStaleness(const Scenario& self, Claims& claims) {
  struct Variant {
    const char* name;
    SystemType system;
    int64_t driver_max_staleness;  // -1: off
  };
  constexpr Variant kVariants[] = {
      {"maxStaleness=90", SystemType::kSecondary, 90},
      {"decongestant(10s)", SystemType::kDecongestant, -1},
      {"secondary(unbounded)", SystemType::kSecondary, -1},
  };
  std::printf("%-22s %12s %12s %12s\n", "client", "SL txn/s", "p80stale(s)",
              "maxstale(s)");
  double max_stale[3], sl[3];
  for (int v = 0; v < 3; ++v) {
    ExperimentConfig config = *self.config;
    config.system = kVariants[v].system;
    config.client_options.max_staleness_seconds =
        kVariants[v].driver_max_staleness;
    Experiment experiment(config);
    experiment.Run();
    const Summary summary = experiment.Summarize();
    sl[v] = summary.stock_level_throughput;
    max_stale[v] = summary.max_staleness_s;
    std::printf("%-22s %12.0f %12.2f %12.2f\n", kVariants[v].name, sl[v],
                summary.p80_staleness_s, max_stale[v]);
  }

  std::printf(
      "\nThe checkpoint-driven lag here peaks in the tens of seconds: far "
      "below 90, so the MongoDB knob never\nintervenes and behaves like "
      "the unbounded baseline, while Decongestant enforces its 10 s "
      "promise.\n");
  claims.Claim(
      "with maxStaleness=90 clients still observe the full checkpoint lag "
      "(knob too coarse)",
      max_stale[0] > 12.0);
  claims.Claim("Decongestant holds the 10 s promise (+ granularity)",
               max_stale[1] <= 12.0);
  claims.Claim(
      "Decongestant's throughput stays in the same league as the "
      "unbounded secondary client",
      sl[1] >= 0.7 * sl[2]);
}

/// Every registered Balance Fraction strategy races on the same
/// congestion step; a newly registered controller joins the race without
/// touching this table.
void RunAblController(const Scenario& self, Claims& claims) {
  const std::vector<std::string_view>& names = core::RegisteredControllers();
  std::vector<double> reach_time(names.size(), -1);
  std::vector<double> throughput(names.size(), 0);
  size_t baseline = 0;
  for (size_t v = 0; v < names.size(); ++v) {
    if (core::IsDefaultController(names[v])) baseline = v;
    ExperimentConfig config = *self.config;
    config.balancer.controller = std::string(names[v]);
    Experiment experiment(config);
    WatchReach(experiment, 0.65, &reach_time[v]);
    experiment.Run();
    const Summary summary = experiment.Summarize();
    throughput[v] = summary.read_throughput;
    std::printf(
        "%-13s fraction>=0.65 at t=%4.0f s, steady reads/s %6.0f, "
        "mean served age %.3f s\n",
        std::string(names[v]).c_str(), reach_time[v], throughput[v],
        summary.mean_served_age_s);
  }

  bool all_converge = true;
  bool throughput_close = true;
  for (size_t v = 0; v < names.size(); ++v) {
    // The CPQ policy chases its SLA, not the latency ratio: under a
    // congested primary it still sheds, but convergence to a specific
    // fraction is not part of its contract. Everyone else must get there.
    if (names[v] != "cpq" && reach_time[v] < 0) all_converge = false;
    if (throughput[v] < 0.75 * throughput[baseline]) throughput_close = false;
  }
  claims.Claim("every ratio-driven controller converges to the equilibrium",
               all_converge);
  claims.Claim("no rival collapses throughput (within 25% of the paper's law)",
               throughput_close);
  const size_t prop =
      std::find(names.begin(), names.end(), "proportional") - names.begin();
  claims.Claim(
      "the proportional controller converges at least as fast as the "
      "step controller",
      reach_time[prop] > 0 && reach_time[prop] <= reach_time[baseline]);
}

// --- extensions ------------------------------------------------------------

/// The primary is killed mid-run; the survivors elect a new one, the
/// Read Balancer resets its histories at the swap (logged as
/// primary_swap_reset) and re-climbs, and the old primary rejoins.
void RunExtFailoverDrill(const Scenario& self, Claims& claims) {
  Experiment experiment(*self.config);
  repl::ReplicaSet& rs = experiment.replica_set();
  experiment.Run();
  // Quiesce: stop the clients and let replication drain before comparing
  // replica contents.
  experiment.pool().SetTarget(0);
  experiment.loop().RunUntil(sim::Seconds(605));

  PrintSeries(experiment, /*tpcc=*/false);

  const double before =
      RowMean(experiment, 100, 200, &PeriodRow::ReadThroughput);
  const double during =
      RowMean(experiment, 230, 400, &PeriodRow::ReadThroughput);
  const double after =
      RowMean(experiment, 500, kRunEnd, &PeriodRow::ReadThroughput);
  const double frac_before =
      RowMean(experiment, 150, 200, &PeriodRow::balance_fraction);
  const double frac_recovered =
      RowMean(experiment, 300, 400, &PeriodRow::balance_fraction);
  double frac_floor = 1.0;
  for (const PeriodRow& row : experiment.rows()) {
    const double t = sim::ToSeconds(row.start);
    if (t >= 200 && t < 260) {
      frac_floor = std::min(frac_floor, row.balance_fraction);
    }
  }

  const auto& decisions = experiment.balancer_decisions()->entries();
  const auto swap_it = std::find_if(
      decisions.begin(), decisions.end(), [](const obs::BalanceDecision& d) {
        return d.reason == obs::BalanceReason::kPrimarySwapReset;
      });
  const obs::BalanceDecision* swap_reset =
      swap_it == decisions.end() ? nullptr : &*swap_it;
  const bool converged =
      rs.node(0).db().Fingerprint() == rs.node(1).db().Fingerprint() &&
      rs.node(1).db().Fingerprint() == rs.node(2).db().Fingerprint();
  const uint64_t pool_clears = experiment.client().stepdown_pool_clears();

  std::printf(
      "\nread throughput: before %.0f/s, after failover (2 nodes) "
      "%.0f/s, after rejoin %.0f/s\n",
      before, during, after);
  std::printf(
      "balance fraction: steady %.2f, post-election floor %.2f, "
      "re-climbed %.2f\n",
      frac_before, frac_floor, frac_recovered);
  std::printf(
      "elections: %llu, new primary: node %d, balancer swaps: %llu, "
      "driver pool clears: %llu, all nodes converged: %s\n",
      static_cast<unsigned long long>(rs.elections()), rs.primary_index(),
      static_cast<unsigned long long>(experiment.balancer()->primary_swaps()),
      static_cast<unsigned long long>(pool_clears), converged ? "yes" : "no");
  if (swap_reset != nullptr) {
    std::printf("swap decision: t=%.1f s reason=%s term=%llu %.2f -> %.2f\n",
                sim::ToSeconds(swap_reset->at),
                std::string(obs::ToString(swap_reset->reason)).c_str(),
                static_cast<unsigned long long>(swap_reset->term),
                swap_reset->from_fraction, swap_reset->to_fraction);
  }

  claims.Claim("exactly one election took place", rs.elections() == 1);
  claims.Claim(
      "the cluster keeps serving reads on 2 nodes (>= 50% of "
      "3-node throughput)",
      during >= 0.5 * before);
  claims.Claim("throughput recovers after the old primary rejoins (>= 90%)",
               after >= 0.9 * before);
  claims.Claim("all replicas converge to identical data", converged);
  claims.Claim("the balancer logged a primary_swap_reset decision",
               swap_reset != nullptr);
  claims.Claim("the reset names the post-election term (> 1)",
               swap_reset != nullptr && swap_reset->term > 1);
  claims.Claim("the driver cleared the deposed primary's pool",
               pool_clears >= 1);
  claims.Claim("the fraction re-climbed after the swap (>= steady - 0.15)",
               frac_recovered >= frac_before - 0.15);
  claims.Claim("steady fraction was meaningfully above the floor",
               frac_before > 0.2);
}

struct ClientSystemResult {
  double fraction = 0;
  double secondary_percent = 0;
  uint64_t reads = 0;
};

constexpr sim::Duration kMulticlientRun = sim::Seconds(300);

/// `systems` independent client systems with `clients` app clients each,
/// sharing one replica set and nothing else, for 300 s of YCSB-B.
std::vector<ClientSystemResult> RunClientSystems(uint64_t seed, int systems,
                                                 int clients) {
  const workload::YcsbConfig ycsb_config = workload::YcsbConfig::WorkloadB();
  sim::EventLoop loop;
  sim::Rng rng(seed);
  net::Network network(&loop, rng.Fork());
  std::vector<net::HostId> node_hosts, client_hosts;
  for (int i = 0; i < 3; ++i) {
    node_hosts.push_back(network.AddHost("db" + std::to_string(i)));
  }
  const sim::Duration rtts[3] = {sim::Millis(0.4), sim::Millis(1.2),
                                 sim::Millis(1.6)};
  for (int c = 0; c < systems; ++c) {
    client_hosts.push_back(network.AddHost("app" + std::to_string(c)));
    for (int i = 0; i < 3; ++i) {
      network.SetLink(client_hosts.back(), node_hosts[i], rtts[i],
                      sim::Micros(40));
    }
  }
  for (int i = 0; i < 3; ++i) {
    for (int j = i + 1; j < 3; ++j) {
      network.SetLink(node_hosts[i], node_hosts[j], sim::Millis(1),
                      sim::Micros(40));
    }
  }
  repl::ReplicaSet rs(&loop, rng.Fork(), &network, repl::ReplicaSetParams{},
                      server::ServerParams{}, node_hosts);
  for (int i = 0; i < 3; ++i) {
    workload::YcsbWorkload::Load(ycsb_config, &rs.node(i).db());
  }
  rs.Start();

  std::vector<std::unique_ptr<ClientSystem>> stacks;
  for (int c = 0; c < systems; ++c) {
    stacks.push_back(std::make_unique<ClientSystem>(
        &loop, rng.Fork(), &rs, client_hosts[c], driver::ClientOptions{},
        core::BalancerConfig{}, ycsb_config));
    stacks.back()->Start(clients);
  }
  loop.RunUntil(kMulticlientRun);

  std::vector<ClientSystemResult> results;
  for (const auto& stack : stacks) {
    results.push_back({stack->state().balance_fraction(),
                       stack->SecondaryPercent(), stack->reads()});
  }
  return results;
}

/// Decentralisation (Figure 1, §1): three client systems, each with its
/// own balancer over a third of the load, against one centralised
/// balancer driving all of it.
void RunExtMulticlient(const Scenario&, Claims& claims) {
  const double run_s = sim::ToSeconds(kMulticlientRun);
  const std::vector<ClientSystemResult> split = RunClientSystems(70, 3, 15);
  uint64_t reads = 0;
  for (int c = 0; c < 3; ++c) {
    reads += split[c].reads;
    std::printf(
        "client system %d: fraction %.2f, %.1f%% of its reads on "
        "secondaries\n",
        c, split[c].fraction, split[c].secondary_percent);
  }
  const double combined_reads_per_sec = static_cast<double>(reads) / run_s;
  const ClientSystemResult central = RunClientSystems(71, 1, 45)[0];
  const double central_reads_per_sec =
      static_cast<double>(central.reads) / run_s;

  std::printf(
      "\ncombined (3 balancers): %.0f reads/s | centralised (1 balancer): "
      "%.0f reads/s, fraction %.2f\n",
      combined_reads_per_sec, central_reads_per_sec, central.fraction);

  const auto [lo, hi] =
      std::minmax({split[0].fraction, split[1].fraction, split[2].fraction});
  claims.Claim(
      "independent balancers converge to compatible fractions (spread <= "
      "0.2)",
      hi - lo <= 0.2);
  claims.Claim("every system lands near the shared-load equilibrium (>= 0.5)",
               lo >= 0.5);
  claims.Claim(
      "combined throughput of uncoordinated balancers matches the "
      "centralised one (within 10%)",
      combined_reads_per_sec >= 0.9 * central_reads_per_sec &&
          combined_reads_per_sec <= 1.1 * central_reads_per_sec);
}

struct ShardedRun {
  uint64_t reads = 0;
  uint64_t secondary_reads[2] = {0, 0};
  uint64_t reads_per_shard[2] = {0, 0};
  double fraction[2] = {0, 0};
  uint64_t routed_reads = 0;
  int64_t worst_staleness_estimate = 0;

  double SecondaryPercent(int s) const {
    return reads_per_shard[s] == 0
               ? 0.0
               : 100.0 * static_cast<double>(secondary_reads[s]) /
                     static_cast<double>(reads_per_shard[s]);
  }
};

/// Two shards, 40 closed-loop point readers for 200 s: 95 % of reads hit
/// shard 0's keys, 5 % shard 1's.
ShardedRun RunSkewedShards(core::Routing routing) {
  sim::EventLoop loop;
  sim::Rng rng(99);
  net::Network network(&loop, rng.Fork());
  const net::HostId client_host = network.AddHost("client");

  shard::ShardedClusterConfig config;
  config.routing = routing;
  shard::ShardedCluster cluster(&loop, rng.Fork(), &network, client_host,
                                config);

  // 4000 documents, loaded pre-replicated on every node of their shard.
  std::vector<std::vector<int64_t>> keys(2);
  for (int64_t id = 0; id < 4000; ++id) {
    keys[static_cast<size_t>(cluster.ShardFor(doc::Value(id)))].push_back(id);
  }
  const doc::ShapeRef shape({"_id", "v"});
  for (int s = 0; s < 2; ++s) {
    for (int i = 0; i < 3; ++i) {
      store::Collection& t = cluster.shard(s).node(i).db().GetOrCreate("t");
      for (int64_t id : keys[static_cast<size_t>(s)]) {
        t.Insert(doc::Value::Doc(shape, {id, id}));
      }
    }
  }
  cluster.Start();

  ShardedRun result;
  sim::Rng worker_rng = rng.Fork();
  std::function<void()> read_one = [&] {
    const auto& pool = worker_rng.Bernoulli(0.95) ? keys[0] : keys[1];
    const int64_t key = pool[static_cast<size_t>(
        worker_rng.UniformInt(0, static_cast<int64_t>(pool.size()) - 1))];
    const int s = cluster.ShardFor(doc::Value(key));
    cluster.ReadDoc(
        "t", doc::Value(key), server::OpClass::kPointRead,
        [](const store::Database&) {},
        [&, s](const driver::OpResult& r) {
          ++result.reads;
          ++result.reads_per_shard[s];
          if (r.used_secondary) ++result.secondary_reads[s];
          read_one();
        });
  };
  for (int w = 0; w < 40; ++w) read_one();

  loop.RunUntil(sim::Seconds(200));
  for (int s = 0; s < 2; ++s) result.fraction[s] = cluster.balance_fraction(s);
  result.routed_reads = cluster.router().routed_reads();
  result.worst_staleness_estimate = cluster.budget().WorstEstimate();
  return result;
}

/// §2.1: a per-shard Read Balancer relieves only the congested shard,
/// which no single hard-coded Read Preference can express.
void RunExtSharded(const Scenario&, Claims& claims) {
  const ShardedRun dcg = RunSkewedShards(core::kBalanced);
  const ShardedRun primary = RunSkewedShards(driver::ReadPreference::kPrimary);
  const ShardedRun secondary =
      RunSkewedShards(driver::ReadPreference::kSecondary);

  std::printf("%-22s %10s %16s %16s\n", "system", "reads", "sec% shard0",
              "sec% shard1");
  const std::pair<const char*, const ShardedRun*> rows[] = {
      {"decongestant/shard", &dcg},
      {"primary (fixed)", &primary},
      {"secondary (fixed)", &secondary}};
  for (const auto& [name, run] : rows) {
    std::printf("%-22s %10llu %15.1f%% %15.1f%%\n", name,
                static_cast<unsigned long long>(run->reads),
                run->SecondaryPercent(0), run->SecondaryPercent(1));
  }
  std::printf("\nfinal balance fractions: shard0 %.2f, shard1 %.2f\n",
              dcg.fraction[0], dcg.fraction[1]);
  std::printf(
      "router-dispatched point reads: %llu; worst shard staleness "
      "estimate: %llds (client-wide bound 10s)\n",
      static_cast<unsigned long long>(dcg.routed_reads),
      static_cast<long long>(dcg.worst_staleness_estimate));

  claims.Claim("every read went through the mongos router",
               dcg.routed_reads >= dcg.reads);
  claims.Claim(
      "the worst shard stays within the shared client-wide staleness bound",
      dcg.worst_staleness_estimate <= 10);
  claims.Claim(
      "the hot shard's balancer shifts most of its reads to secondaries",
      dcg.SecondaryPercent(0) >= 50.0);
  claims.Claim("the idle shard keeps reading mostly from its fresh primary",
               dcg.SecondaryPercent(1) <= 35.0);
  claims.Claim(
      "per-shard Decongestant outperforms the hard-coded primary setting",
      dcg.reads > 1.2 * primary.reads);
  claims.Claim("and is at least competitive with all-secondary on this skew",
               dcg.reads >= 0.9 * secondary.reads);
}

/// With maxPoolSize=2 per node, 40 clients queue for the primary's
/// connections before they reach the wire. The RTT probes bypass the
/// pool, so the server-side estimate Lss = P50(Lclient) − P50(RTT) charges
/// the checkout queue to the primary and the balancer sheds reads to the
/// secondaries; a primary-only client has nowhere to shed.
void RunExtPoolExhaustion(const Scenario& self, Claims& claims) {
  struct Tail {
    double p80_ms, reads_per_sec, fraction, secondary_percent;
    double checkout_wait_ms = 0;  // summed over the tail periods
  };
  // Steady-state means over the periods from 120 s on.
  const auto tail_of = [](const Experiment& experiment) {
    Tail tail{RowMean(experiment, 120, kRunEnd, &PeriodRow::P80ReadLatencyMs),
              RowMean(experiment, 120, kRunEnd, &PeriodRow::ReadThroughput),
              RowMean(experiment, 120, kRunEnd, &PeriodRow::balance_fraction),
              RowMean(experiment, 120, kRunEnd, &PeriodRow::SecondaryPercent)};
    const std::vector<double> wait =
        experiment.metrics_registry().PerPeriod("pool_checkout_wait");
    for (size_t i = 0; i < experiment.rows().size(); ++i) {
      if (sim::ToSeconds(experiment.rows()[i].start) >= 120) {
        tail.checkout_wait_ms += wait[i];
      }
    }
    return tail;
  };
  const auto print_pool = [](const auto& pool) {
    std::printf(
        "  pool: %llu checkouts, peak queue %llu, %.0f ms total "
        "wait\n",
        static_cast<unsigned long long>(pool.checkouts),
        static_cast<unsigned long long>(pool.max_queue_depth),
        sim::ToMillis(pool.wait_total));
  };

  std::printf("\n[primary-only, maxPoolSize=2]\n");
  ExperimentConfig primary_config = *self.config;
  primary_config.system = SystemType::kPrimary;
  Experiment primary_run(primary_config);
  primary_run.Run();
  const Tail primary_tail = tail_of(primary_run);
  const auto primary_pool = primary_run.client().PoolTotals();
  const int leader = primary_run.replica_set().primary_index();
  const double probe_rtt_ms =
      sim::ToMillis(primary_run.client().RttEstimate(leader));
  std::printf(
      "  steady-state %.0f reads/s, p80 %.2f ms, probe RTT to "
      "primary %.2f ms\n",
      primary_tail.reads_per_sec, primary_tail.p80_ms, probe_rtt_ms);
  print_pool(primary_pool);

  std::printf("\n[decongestant, maxPoolSize=2]\n");
  Experiment dcg_run(*self.config);
  dcg_run.Run();
  PrintSeries(dcg_run, /*tpcc=*/false);
  const Tail dcg_tail = tail_of(dcg_run);
  std::printf(
      "\n  steady-state %.0f reads/s, p80 %.2f ms, fraction %.2f, "
      "%.1f%% on secondaries\n",
      dcg_tail.reads_per_sec, dcg_tail.p80_ms, dcg_tail.fraction,
      dcg_tail.secondary_percent);
  print_pool(dcg_run.client().PoolTotals());

  claims.Claim(
      "the starved primary pool queues checkouts (nonzero wait, "
      "queue depth > clients/2)",
      primary_pool.wait_total > 0 && primary_pool.max_queue_depth > 20);
  claims.Claim(
      "RTT probes bypass the pool: probe RTT stays an order of "
      "magnitude below client-observed p80",
      probe_rtt_ms * 10 < primary_tail.p80_ms);
  claims.Claim(
      "the Read Balancer sheds the queue to secondaries "
      "(steady-state fraction >= 0.3, secondary share >= 20%)",
      dcg_tail.fraction >= 0.3 && dcg_tail.secondary_percent >= 20);
  // Closed-loop clients self-limit, so exhaustion caps *throughput* more
  // than it moves p80: the primary-only run serves 40 clients through 2
  // usable connections, Decongestant through 6 (all three pools).
  claims.Claim(
      "shedding relieves exhaustion: Decongestant serves >= 2x the "
      "primary-only read throughput at lower p80",
      dcg_tail.reads_per_sec >= 2 * primary_tail.reads_per_sec &&
          dcg_tail.p80_ms < primary_tail.p80_ms);
  claims.Claim(
      "per-period CSV pool columns are populated "
      "(checkout wait recorded in the tail)",
      primary_tail.checkout_wait_ms > 0);
}

// --- CI checks ---------------------------------------------------------------

/// The Fig. 5 ceiling at a saturating client count: the same seed with
/// driver-side batching off, then on.
void RunCiBatching(const Scenario& self, Claims& claims) {
  double throughput[2];
  uint64_t envelopes = 0;
  for (int on = 0; on < 2; ++on) {
    ExperimentConfig config = *self.config;
    if (on == 1) {
      config.client_options.batching_enabled = true;
      config.client_options.batch_max_ops = 16;
      config.client_options.batch_max_delay = sim::Micros(200);
    }
    Experiment experiment(config);
    experiment.Run();
    throughput[on] = experiment.Summarize().read_throughput;
    if (on == 1) envelopes = experiment.client().op_counters().envelopes_sent;
  }
  std::printf(
      "read txn/s: batching off %.0f, on %.0f (%.2fx); %llu envelopes sent\n",
      throughput[0], throughput[1], throughput[1] / throughput[0],
      static_cast<unsigned long long>(envelopes));
  claims.Claim("batching raises the read ceiling at 150 clients",
               throughput[1] > throughput[0]);
  claims.Claim("the batched run sent envelopes", envelopes > 0);
}

/// Every optional attempt path of the driver at once: hedge arms,
/// envelope riders, a two-connection pool whose checkouts queue and time
/// out, and attempt timeouts on a lossy client link, with the span tracer
/// on.
void RunCiDriverPaths(const Scenario& self, Claims& claims) {
  Experiment experiment(*self.config);
  experiment.Run();
  const metrics::OpCounters& ops = experiment.client().op_counters();
  const uint64_t pool_timeouts =
      experiment.client().PoolTotals().checkout_timeouts;
  const obs::Tracer& tracer = experiment.tracer();
  const obs::SpanTreeCheck tree = obs::CheckSpanTree(tracer.spans());
  std::printf(
      "ops: %llu ok, %llu retried, %llu hedges sent, %llu envelopes, %llu "
      "pool checkout timeouts\n",
      static_cast<unsigned long long>(ops.ok),
      static_cast<unsigned long long>(ops.retried),
      static_cast<unsigned long long>(ops.hedges_sent),
      static_cast<unsigned long long>(ops.envelopes_sent),
      static_cast<unsigned long long>(pool_timeouts));
  std::printf("trace: %zu spans, %llu dropped, %llu finished ops, %llu "
              "spans of ops in flight, %llu span-tree violations %s\n",
              tracer.spans().size(),
              static_cast<unsigned long long>(tracer.dropped()),
              static_cast<unsigned long long>(tree.finished_ops),
              static_cast<unsigned long long>(tree.unchecked),
              static_cast<unsigned long long>(tree.violations),
              tree.first_violation.c_str());
  claims.Claim("the tracer dropped no span", tracer.dropped() == 0);
  claims.Claim("hedge arms were sent", ops.hedges_sent > 0);
  claims.Claim("ops were retried", ops.retried > 0);
  claims.Claim("pool checkouts timed out in the wait queue",
               pool_timeouts > 0);
  claims.Claim("envelopes were sent", ops.envelopes_sent > 0);
  claims.Claim("the trace holds finished ops", tree.finished_ops > 0);
  claims.Claim("every span of a finished op nests under its parent",
               tree.violations == 0);
}

/// Crashes, restarts and elections under client load: a crash of the
/// primary whose election leaves the driver in a newer term with no
/// primary across a balancer period end, then eight random chaos
/// timelines of 120 s.
void RunCiElection(const Scenario& self, Claims& claims) {
  std::vector<ExperimentConfig> runs = {*self.config};
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    ExperimentConfig config = *self.config;
    config.seed = seed;
    config.duration = sim::Seconds(120);
    config.faults = fault::MakeRandomSchedule(seed, config.duration,
                                              config.repl.secondaries + 1);
    runs.push_back(std::move(config));
  }
  std::printf("%6s %10s %10s %10s\n", "seed", "end(s)", "reads", "elections");
  bool all_reach_horizon = true;
  bool all_read = true;
  uint64_t scripted_elections = 0;
  for (size_t i = 0; i < runs.size(); ++i) {
    const ExperimentConfig& config = runs[i];
    Experiment experiment(config);
    experiment.Run();
    const sim::Time end =
        experiment.rows().empty() ? 0 : experiment.rows().back().end;
    const uint64_t reads = experiment.Summarize().total_reads;
    std::printf("%6llu %10.0f %10llu %10llu\n",
                static_cast<unsigned long long>(config.seed),
                sim::ToSeconds(end), static_cast<unsigned long long>(reads),
                static_cast<unsigned long long>(
                    experiment.replica_set().elections()));
    all_reach_horizon = all_reach_horizon && end == config.duration;
    all_read = all_read && reads > 0;
    if (i == 0) scripted_elections = experiment.replica_set().elections();
  }
  claims.Claim("every run reaches its horizon", all_reach_horizon);
  claims.Claim("every run completes reads after the warm-up", all_read);
  // Reads keep flowing from the secondaries without a primary, so only
  // the election count shows that the crash was recovered from.
  claims.Claim("the scripted crash of the primary elects a new one",
               scripted_elections >= 1);
}

/// Two hashed shards behind the mongos router: the driver-facing
/// workload routes through shard::Router, splits roughly evenly across
/// the shards, and keeps every shard's effective staleness bound at the
/// full client-wide budget.
void RunCiSharded(const Scenario& self, Claims& claims) {
  Experiment experiment(*self.config);
  experiment.Run();
  shard::ShardedCluster& cluster = *experiment.sharded_cluster();
  const shard::Router& router = cluster.router();
  const uint64_t routed = router.routed_reads() + router.routed_writes();
  bool even = true;
  bool full_budget = true;
  for (int s = 0; s < cluster.shard_count(); ++s) {
    const double share = 100.0 *
                         static_cast<double>(router.routed_to_shard(s)) /
                         static_cast<double>(std::max<uint64_t>(1, routed));
    const int64_t bound = cluster.budget().EffectiveBound(s);
    std::printf("shard %d: %llu ops (%.1f%%), effective bound %llds\n", s,
                static_cast<unsigned long long>(router.routed_to_shard(s)),
                share, static_cast<long long>(bound));
    even = even && share > 30.0 && share < 70.0;
    full_budget = full_budget && cluster.balancer(s) != nullptr &&
                  bound == self.config->balancer.stale_bound_seconds;
  }
  // The per-shard series behind <csv-prefix>_shards.csv: one sample per
  // report period for each shard.
  std::vector<std::string> covered;
  for (const auto& series : experiment.metrics_registry().scalars()) {
    if (series.name == "routed_to_shard" &&
        series.samples.size() == experiment.rows().size()) {
      covered.push_back(series.labels.at(0).second);
    }
  }
  std::printf("%llu ops routed; per-shard series for %zu shards\n",
              static_cast<unsigned long long>(routed), covered.size());
  claims.Claim("the router routed ops", routed > 0);
  claims.Claim("each shard takes 30-70 % of the routed ops",
               cluster.shard_count() == 2 && even);
  claims.Claim("every shard keeps the full 10 s staleness budget",
               full_budget);
  claims.Claim("the per-shard series covers shards 0 and 1",
               !experiment.rows().empty() &&
                   covered == std::vector<std::string>{"0", "1"});
}

/// Every registered Balance Fraction law on the paper's three dynamic
/// scenarios at full duration, with the default SLO bundle on: prints
/// one markdown table per scenario, then fig9's freshness alerts.
void RunBakeoff(const Scenario&, Claims& claims) {
  const std::vector<std::string_view>& names = core::RegisteredControllers();
  bool all_decided = true;
  bool fractions_in_range = true;
  std::string alert_rows;
  const auto seconds = [](double t) {
    char col[16] = "—";
    if (t >= 0) std::snprintf(col, sizeof(col), "%.0f", t);
    return std::string(col);
  };
  for (const char* figure : {"fig2", "fig3", "fig9"}) {
    const ExperimentConfig base = *FindScenario(figure)->config;
    std::printf(
        "\n### %s\n\n| controller | read txn/s | P80 latency (ms) | "
        "secondary %% | mean served age (s) | max served age (s) | bound "
        "violations |\n|---|---|---|---|---|---|---|\n",
        figure);
    for (std::string_view name : names) {
      ExperimentConfig config = base;
      config.balancer.controller = std::string(name);
      obs::SloDefaults defaults;
      defaults.stale_bound_seconds = config.balancer.stale_bound_seconds;
      std::string error;
      const bool parsed =
          obs::ParseSloSpecs("default", defaults, &config.slos, &error);
      DCG_CHECK(parsed);
      Experiment experiment(config);
      experiment.Run();

      const Summary summary = experiment.Summarize();
      std::printf("| %s | %.0f | %.2f | %.1f | %.3f | %.3f | %llu |\n",
                  std::string(name).c_str(), summary.read_throughput,
                  summary.p80_read_latency_ms, summary.secondary_percent,
                  summary.mean_served_age_s, summary.max_served_age_s,
                  static_cast<unsigned long long>(summary.bound_violations));
      const auto& decisions = experiment.balancer_decisions()->entries();
      all_decided = all_decided && !decisions.empty();
      const double final_fraction =
          decisions.empty() ? 0 : decisions.back().published_fraction;
      fractions_in_range = fractions_in_range && final_fraction >= 0 &&
                           final_fraction <= config.balancer.high_bal + 1e-9;

      if (figure != std::string_view("fig9")) continue;
      // Only the freshness objective: the default latency ticket fires on
      // every TPC-C run (its P80 is ~30x the YCSB-derived SLA target).
      int pages = 0, tickets = 0;
      double first_fire = -1, last_resolve = -1;
      for (const obs::SloEvent& e : experiment.slo_engine()->events()) {
        if (e.slo != "freshness") continue;
        if (e.transition == obs::SloTransition::kFiring) {
          ++(e.severity == obs::SloSeverity::kPage ? pages : tickets);
          if (first_fire < 0) first_fire = sim::ToSeconds(e.at);
        } else if (e.transition == obs::SloTransition::kResolved) {
          last_resolve = sim::ToSeconds(e.at);
        }
      }
      char row[160];
      std::snprintf(row, sizeof(row), "| %s | %d | %d | %s | %s |\n",
                    std::string(name).c_str(), pages, tickets,
                    seconds(first_fire).c_str(), seconds(last_resolve).c_str());
      alert_rows += row;
    }
  }
  std::printf(
      "\n### fig9 freshness alerts (--slo=default)\n\n| controller | pages | "
      "tickets | first fire (s) | last resolve (s) |\n|---|---|---|---|---|\n"
      "%s",
      alert_rows.c_str());
  claims.Claim("every law emitted balancer decisions in every scenario",
               all_decided);
  claims.Claim("every law's final published fraction lies in [0, HIGHBAL]",
               fractions_in_range);
}

}  // namespace

void Claims::Claim(std::string_view text, bool ok) {
  std::printf("SHAPE CHECK [%s]: %.*s\n", ok ? "PASS" : "FAIL",
              static_cast<int>(text.size()), text.data());
  if (!ok) failed_.emplace_back(text);
}

std::vector<Scenario> Scenarios() {
  const int c180 = ScaledClients(180), c20 = ScaledClients(20);
  return {
      {"table1", "Table 1",
       "TPC-C mix: standard vs read-write variant (measured)",
       With(Tpcc(52, {{0, 20, 0.5}}, 300, 100),
            [](ExperimentConfig& c) {
              c.system = SystemType::kPrimary;
              c.run_s_workload = false;
              c.server = {};  // the mix needs no checkpoint stalls
            }),
       RunTable1},
      {"fig2", "Figure 2",
       "dynamic YCSB: A (50% reads) -> B (95% reads) @ 620 s",
       // Summarize the post-switch phase.
       Ycsb(42, {{0, c180, 0.5}, {sim::Seconds(620), c180, 0.95}}, 900, 660),
       RunFig2},
      {"fig3", "Figure 3",
       "YCSB-B 180 clients -> YCSB-A 20 clients @ 230 s (load drop)",
       Ycsb(43, {{0, c180, 0.95}, {sim::Seconds(230), c20, 0.5}}, 700, 100),
       RunFig3},
      {"fig4", "Figure 4", "read-write TPC-C client burst: 20 -> 200 -> 20",
       Tpcc(44,
            {{0, c20, 0.5},
             {sim::kMinute * 5, ScaledClients(200), 0.5},
             {sim::kMinute * 10, c20, 0.5}},
            900, 300),
       RunFig4},
      {"fig5", "Figure 5", "YCSB-B (95% reads) client-count sweep, 3 systems",
       Ycsb(45, {{0, ScaledClients(200), 0.95}}, 260, 100), RunFig5},
      {"fig6", "Figure 6", "YCSB-A throughput/latency vs staleness trade-off",
       Ycsb(46, {{0, c180, 0.5}}, 280, 100), RunFig6},
      {"fig7", "Figure 7",
       "read-write TPC-C Stock Level trade-off vs staleness",
       Tpcc(47, {{0, c180, 0.5}}, 280, 100), RunFig7},
      {"fig8", "Figure 8",
       "Decongestant staleness estimate vs client-observed staleness",
       With(Ycsb(48, {{0, ScaledClients(100), 0.5}}, 500, 100),
            [](ExperimentConfig& c) {
              // Large bound: this experiment studies the estimate, not
              // the gate.
              c.balancer.stale_bound_seconds = 60;
            }),
       RunFig8},
      {"fig9", "Figure 9",
       "bounding staleness: TPC-C, 60 clients, bound = 10 s",
       Tpcc(49, {{0, ScaledClients(60), 0.5}}, 400, 60), RunFig9},
      {"fig10", "Figure 10",
       "bounding staleness: TPC-C, 200 clients, bound = 3 s",
       With(Tpcc(50, {{0, ScaledClients(200), 0.5}}, 400, 60),
            [](ExperimentConfig& c) { c.balancer.stale_bound_seconds = 3; }),
       RunFig10},
      {"fig11", "Figure 11",
       "Stock Level throughput with vs without the attached S workload",
       With(Tpcc(51, {{0, ScaledClients(200), 0.5}}, 220, 100),
            [](ExperimentConfig& c) { c.system = SystemType::kPrimary; }),
       RunFig11},
      {"abl_rtt_subtraction", "Ablation A1",
       "Server-Side Latency: subtract P50(RTT) or not",
       With(Ycsb(60, {{0, 20, 0.95}}, 400, 100),
            [](ExperimentConfig& c) {
              c.client_node_rtt = {sim::Millis(0.3), sim::Millis(2.6),
                                   sim::Millis(3.0)};
            }),
       RunAblRttSubtraction},
      {"abl_downward_probe", "Ablation A2",
       "downward probing on flat history: on vs off",
       Ycsb(61, {{0, 45, 0.95}, {sim::Seconds(300), 3, 0.5}}, 800, 100),
       RunAblDownwardProbe},
      {"abl_deadband", "Ablation A3",
       "dead-band width sweep under steady YCSB-B load",
       With(Ycsb(62, {{0, 12, 0.95}}, 600, 200),
            [](ExperimentConfig& c) {
              // No downward probe: its deliberate periodic -DELTA step
              // would mask the band's own (noise-driven) movement.
              c.balancer.downward_probe = false;
            }),
       RunAblDeadband},
      {"abl_period", "Ablation A4",
       "control period sweep: reaction time vs stability",
       Ycsb(63, {{0, 45, 0.95}}, 600, 300), RunAblPeriod},
      {"abl_maxstaleness", "Ablation: maxStalenessSeconds",
       "MongoDB's >=90 s knob vs Decongestant's fine-grained bound",
       Tpcc(64, {{0, ScaledClients(120), 0.5}}, 400, 60), RunAblMaxStaleness},
      {"abl_controller", "Extension: controllers",
       "Algorithm 1 step law vs the registered rivals",
       Ycsb(65, {{0, 45, 0.95}}, 400, 150), RunAblController},
      {"ext_failover_drill", "Extension: fail-over drill",
       "kill the primary at t=200 s, restart it at t=400 s (YCSB-B)",
       With(Ycsb(66, {{0, 30, 0.95}}, 600, 100),
            [](ExperimentConfig& c) {
              // The S probe pair is not failover-aware.
              c.run_s_workload = false;
              c.faults = Faults("crash@200:node=0;restart@400:node=0");
            }),
       RunExtFailoverDrill},
      {"ext_multiclient", "Extension: decentralisation",
       "3 independent client systems vs 1 centralised balancer (YCSB-B)",
       std::nullopt, RunExtMulticlient},
      {"ext_sharded", "Extension: sharded cluster",
       "per-shard Decongestant under skewed load (95% on shard 0)",
       std::nullopt, RunExtSharded},
      {"ext_pool_exhaustion", "Extension: pool exhaustion",
       "maxPoolSize=2 per node, 40 clients (YCSB-B): checkout queueing at "
       "the primary vs Decongestant shedding to secondaries",
       With(Ycsb(77, {{0, 40, 0.95}}, 300, 100),
            [](ExperimentConfig& c) {
              c.run_s_workload = false;
              c.client_options.pool.max_pool_size = 2;
              c.client_options.pool.establish_cost = sim::Millis(1);
              // No wait-queue timeout: exhaustion shows up purely as
              // latency, never as failed operations.
              c.client_options.pool.wait_queue_timeout = 0;
            }),
       RunExtPoolExhaustion},
      // The behavioural checks CI runs, each at the configuration and
      // seed of the sim_cli command it replays.
      {"ci_batching", "CI check: batching",
       "YCSB-B, 150 clients: driver-side batching off, then on (16 ops / "
       "200 us)",
       Ycsb(7, {{0, 150, 0.95}}, 60, 20), RunCiBatching},
      {"ci_driver_paths", "CI check: driver paths",
       "hedged secondary reads, a 2-connection pool with a 20 ms wait "
       "queue, 8-op batching and a lossy client link, traced",
       With(Ycsb(7, {{0, 30, 0.95}}, 30, 10),
            [](ExperimentConfig& c) {
              c.system = SystemType::kSecondary;
              c.client_options.hedged_reads = true;
              c.client_options.pool.max_pool_size = 2;
              c.client_options.pool.wait_queue_timeout = sim::Millis(20);
              c.client_options.batching_enabled = true;
              c.client_options.batch_max_ops = 8;
              c.client_options.batch_max_delay = sim::Micros(200);
              c.faults = Faults("loss@10-20:node=1:p=0.3:client=1");
              c.trace = true;
            }),
       RunCiDriverPaths},
      {"ci_election", "CI check: elections",
       "YCSB-B, 30 clients: crash and restart the primary, then 8 random "
       "chaos timelines",
       With(Ycsb(23, {{0, 30, 0.95}}, 80, 10),
            [](ExperimentConfig& c) {
              c.faults = Faults("crash@30:node=0;restart@50:node=0");
            }),
       RunCiElection},
      {"ci_sharded", "CI check: sharded cluster",
       "YCSB-B, 40 clients, 2 hashed shards behind the mongos router",
       With(Ycsb(7, {{0, 40, 0.95}}, 60, 20),
            [](ExperimentConfig& c) { c.shards = 2; }),
       RunCiSharded},
      {"bakeoff", "Extension: controller bake-off",
       "fig2, fig3 and fig9 at full duration for every registered law, "
       "default SLO bundle",
       std::nullopt, RunBakeoff},
  };
}

std::optional<Scenario> FindScenario(std::string_view name) {
  for (Scenario& scenario : Scenarios()) {
    if (scenario.name == name) return std::move(scenario);
  }
  return std::nullopt;
}

std::vector<std::string> RunScenario(const Scenario& scenario) {
  std::printf(
      "\n================================================================\n");
  std::printf("%s — %s\n", scenario.id.c_str(), scenario.title.c_str());
  std::printf(
      "================================================================\n");
  Claims claims;
  scenario.run(scenario, claims);
  return claims.failed();
}

ExperimentConfig Rescale(const ExperimentConfig& base, sim::Duration duration,
                         int clients) {
  ExperimentConfig config = base;
  const double duration_s = sim::ToSeconds(duration);
  const double base_s = sim::ToSeconds(base.duration);
  config.duration = duration;
  config.warmup =
      sim::Seconds(duration_s * (sim::ToSeconds(base.warmup) / base_s));
  for (size_t i = 0; i < config.phases.size(); ++i) {
    Phase& phase = config.phases[i];
    phase.at = sim::Seconds(duration_s * (sim::ToSeconds(phase.at) / base_s));
    if (clients <= 0) continue;
    phase.clients =
        i == 0 ? clients
               : std::max(1, clients * phase.clients / base.phases[0].clients);
  }
  return config;
}

}  // namespace dcg::exp
