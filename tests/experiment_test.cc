// Integration tests: the full experiment harness reproduces the paper's
// headline claims end-to-end (adaptation, outperforming both baselines,
// bounded staleness, baseline sanity).

#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "exp/csv_export.h"
#include "exp/experiment.h"
#include "exp/scenario.h"

namespace dcg::exp {
namespace {

ExperimentConfig YcsbBase(SystemType system, int clients,
                          double read_proportion) {
  ExperimentConfig config;
  config.seed = 17;
  config.system = system;
  config.kind = WorkloadKind::kYcsb;
  config.phases = {{0, clients, read_proportion}};
  config.duration = sim::Seconds(220);
  config.warmup = sim::Seconds(100);
  return config;
}

TEST(ExperimentTest, DecongestantRampsUpUnderYcsbA) {
  ExperimentConfig config = YcsbBase(SystemType::kDecongestant, 150, 0.5);
  Experiment experiment(config);
  experiment.Run();
  // After the warm-up, the fraction has climbed toward the 90 % cap and
  // most reads actually go to secondaries (Figure 2's first phase).
  const Summary summary = experiment.Summarize();
  EXPECT_GT(summary.secondary_percent, 70.0);
  EXPECT_GT(summary.read_throughput, 0.0);
  // Fraction stays within {0} ∪ [0.1, 0.9] in every period.
  for (const PeriodRow& row : experiment.rows()) {
    const double f = row.balance_fraction;
    EXPECT_TRUE(f == 0.0 || (f >= 0.1 - 1e-9 && f <= 0.9 + 1e-9)) << f;
  }
}

TEST(ExperimentTest, DecongestantBeatsBothBaselinesOnYcsbB) {
  // The paper's Figure 5 claim: at high client counts on YCSB-B,
  // Decongestant's throughput exceeds Secondary by ~30 % and Primary by
  // ~2.5x, and its P80 latency is no worse.
  Summary results[3];
  const SystemType systems[] = {SystemType::kDecongestant,
                                SystemType::kPrimary,
                                SystemType::kSecondary};
  for (int i = 0; i < 3; ++i) {
    ExperimentConfig config = YcsbBase(systems[i], 180, 0.95);
    Experiment experiment(config);
    experiment.Run();
    results[i] = experiment.Summarize();
  }
  const Summary& dcg = results[0];
  const Summary& primary = results[1];
  const Summary& secondary = results[2];

  EXPECT_GT(dcg.read_throughput, 1.15 * secondary.read_throughput);
  EXPECT_GT(dcg.read_throughput, 2.0 * primary.read_throughput);
  EXPECT_LT(dcg.p80_read_latency_ms, primary.p80_read_latency_ms);
  EXPECT_LE(dcg.p80_read_latency_ms, secondary.p80_read_latency_ms);
  // Equilibrium secondary share near 70 % (3 equal nodes, 5 % writes).
  EXPECT_NEAR(dcg.secondary_percent, 70.0, 12.0);
}

TEST(ExperimentTest, BaselinesRouteWhereHardCoded) {
  // A hard-coded preference is a fixed Balance Fraction — 0 for Primary,
  // 1 for Secondary — and every row reports the fraction it routed by.
  const std::pair<SystemType, double> cases[] = {
      {SystemType::kPrimary, 0.0}, {SystemType::kSecondary, 1.0}};
  for (const auto& [system, fraction] : cases) {
    ExperimentConfig config = YcsbBase(system, 40, 0.95);
    config.duration = sim::Seconds(150);
    Experiment experiment(config);
    experiment.Run();
    EXPECT_EQ(experiment.Summarize().secondary_percent, 100.0 * fraction);
    EXPECT_EQ(experiment.balancer(), nullptr);
    EXPECT_EQ(experiment.balance_fraction(), fraction);
    ASSERT_FALSE(experiment.rows().empty());
    for (const PeriodRow& row : experiment.rows()) {
      EXPECT_EQ(row.balance_fraction, fraction) << ToString(system);
    }
  }
}

TEST(ExperimentTest, ConfiguredControllerReachesEveryBalancer) {
  ExperimentConfig config = YcsbBase(SystemType::kDecongestant, 15, 0.95);
  config.balancer.controller = "pid";
  {
    Experiment experiment(config);
    ASSERT_NE(experiment.balancer(), nullptr);
    EXPECT_EQ(experiment.balancer()->controller().name(), "pid");
  }
  config.shards = 2;
  Experiment sharded(config);
  ASSERT_EQ(sharded.sharded_cluster()->shard_count(), 2);
  for (int s = 0; s < 2; ++s) {
    ASSERT_NE(sharded.sharded_cluster()->balancer(s), nullptr);
    EXPECT_EQ(sharded.sharded_cluster()->balancer(s)->controller().name(),
              "pid");
  }
}

TEST(ExperimentTest, AdaptsDownwardWhenLoadDrops) {
  // Figure 3: YCSB-B with 180 clients, dropping to YCSB-A with 20
  // clients: the fraction falls back to the 10 % floor.
  // Client counts are scaled to the simulated cluster's capacity (see
  // DESIGN.md §5): the drop goes to a handful of clients, i.e. truly
  // light load. The descent is probe-driven (one DELTA per flat history,
  // "every fifth period" per §4.2), so it takes several minutes.
  ExperimentConfig config = YcsbBase(SystemType::kDecongestant, 180, 0.95);
  config.phases.push_back({sim::Seconds(230), 4, 0.5});
  config.duration = sim::Seconds(650);
  Experiment experiment(config);
  experiment.Run();

  double fraction_before = 0, fraction_after = 1;
  for (const PeriodRow& row : experiment.rows()) {
    if (row.start == sim::Seconds(210)) fraction_before = row.balance_fraction;
    if (row.start == sim::Seconds(630)) fraction_after = row.balance_fraction;
  }
  EXPECT_GE(fraction_before, 0.5);
  EXPECT_LE(fraction_after, 0.2);
}

TEST(ExperimentTest, ClientObservedStalenessRespectsBound) {
  // §4.5: raw secondary lag may exceed the bound, but what Decongestant's
  // clients *observe* (the S workload) stays within it.
  ExperimentConfig config;
  config.seed = 23;
  config.system = SystemType::kDecongestant;
  config.kind = WorkloadKind::kTpcc;
  config.phases = {{0, 60, 0.5}};
  config.duration = sim::Seconds(300);
  config.warmup = sim::Seconds(60);
  config.balancer.stale_bound_seconds = 10;
  // Slow checkpoint disk so flushes exceed the getMore block threshold
  // (the Figure 9 regime).
  config.server.checkpoint_disk_bw = 3.0e6;
  Experiment experiment(config);
  experiment.Run();

  double max_observed = 0;
  for (const auto& [at, staleness] : experiment.s_samples()) {
    max_observed = std::max(max_observed, staleness);
  }
  // The raw secondary lag spiked past the bound at least once...
  double max_true = 0;
  for (const StalenessPoint& p : experiment.staleness_series()) {
    max_true = std::max(max_true, p.true_max_s);
  }
  EXPECT_GT(max_true, 10.0);
  // ... but clients never saw (much) more than the bound. The protection
  // is bound + reporting granularity + reaction latency: the paper's own
  // Figure 10 run shows points at bound + 1 s for the same reason.
  EXPECT_LE(max_observed, 12.0);
}

TEST(ExperimentTest, EstimateIsConservativeVsClientObserved) {
  // Figure 8: the serverStatus-based estimate tracks, and sits above,
  // client-observed staleness.
  ExperimentConfig config;
  config.seed = 29;
  config.system = SystemType::kDecongestant;
  config.kind = WorkloadKind::kYcsb;
  config.phases = {{0, 100, 0.5}};
  config.duration = sim::Seconds(300);
  Experiment experiment(config);
  experiment.Run();

  // Compare each S sample against the estimate at the nearest second.
  int violations = 0, compared = 0;
  for (const auto& [at, observed] : experiment.s_samples()) {
    if (observed < 1.0) continue;  // below estimate granularity
    const size_t idx = static_cast<size_t>(at / sim::kSecond);
    if (idx >= experiment.staleness_series().size()) continue;
    const StalenessPoint& p = experiment.staleness_series()[idx];
    if (p.estimate_s < 0) continue;
    ++compared;
    // Allow 2 s slack: reporting granularity + estimate refresh lag.
    if (observed > p.estimate_s + 2.0) ++violations;
  }
  if (compared > 0) {
    EXPECT_LE(static_cast<double>(violations) / compared, 0.1);
  }
}

TEST(ExperimentTest, StaleBoundZeroNeverUsesSecondaries) {
  ExperimentConfig config = YcsbBase(SystemType::kDecongestant, 100, 0.5);
  config.duration = sim::Seconds(150);
  config.balancer.stale_bound_seconds = 0;
  Experiment experiment(config);
  experiment.Run();
  EXPECT_EQ(experiment.Summarize().secondary_percent, 0.0);
  for (const auto& [at, staleness] : experiment.s_samples()) {
    EXPECT_EQ(staleness, 0.0);
  }
}

TEST(ExperimentTest, DeterministicForSeed) {
  ExperimentConfig config = YcsbBase(SystemType::kDecongestant, 60, 0.5);
  config.duration = sim::Seconds(120);
  Experiment a(config);
  a.Run();
  Experiment b(config);
  b.Run();
  ASSERT_EQ(a.rows().size(), b.rows().size());
  for (size_t i = 0; i < a.rows().size(); ++i) {
    EXPECT_EQ(a.rows()[i].reads, b.rows()[i].reads) << i;
    EXPECT_EQ(a.rows()[i].reads_secondary, b.rows()[i].reads_secondary);
    EXPECT_DOUBLE_EQ(a.rows()[i].balance_fraction,
                     b.rows()[i].balance_fraction);
  }
  EXPECT_EQ(a.replica_set().primary().db().Fingerprint(),
            b.replica_set().primary().db().Fingerprint());
}

TEST(ExperimentTest, SeedChangesResults) {
  ExperimentConfig config = YcsbBase(SystemType::kDecongestant, 60, 0.5);
  config.duration = sim::Seconds(120);
  Experiment a(config);
  a.Run();
  config.seed = 18;
  Experiment b(config);
  b.Run();
  uint64_t reads_a = 0, reads_b = 0;
  for (const auto& row : a.rows()) reads_a += row.reads;
  for (const auto& row : b.rows()) reads_b += row.reads;
  EXPECT_NE(reads_a, reads_b);
}

TEST(ExperimentTest, PeriodRowsCoverTheRun) {
  ExperimentConfig config = YcsbBase(SystemType::kPrimary, 20, 0.95);
  config.duration = sim::Seconds(100);
  Experiment experiment(config);
  experiment.Run();
  ASSERT_EQ(experiment.rows().size(), 10u);
  for (size_t i = 0; i < experiment.rows().size(); ++i) {
    EXPECT_EQ(experiment.rows()[i].start,
              static_cast<sim::Time>(sim::Seconds(10) * i));
    EXPECT_EQ(experiment.rows()[i].end - experiment.rows()[i].start,
              sim::Seconds(10));
    EXPECT_GT(experiment.rows()[i].reads, 0u);
  }
}

/// The periods CSV as column name -> values, after checking that every
/// registry scalar series is exactly one column and no name repeats.
std::map<std::string, std::vector<double>> ReadPeriodsCsv(
    const Experiment& experiment, const std::string& path) {
  EXPECT_TRUE(WritePeriodsCsv(experiment, path));
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line.rfind("# units:", 0), 0u);
  std::vector<std::string> names;
  std::getline(in, line);
  std::istringstream header(line);
  for (std::string name; std::getline(header, name, ',');) {
    names.push_back(name);
  }
  std::map<std::string, std::vector<double>> columns;
  for (const std::string& name : names) {
    EXPECT_TRUE(columns.emplace(name, std::vector<double>{}).second)
        << "duplicate column " << name;
  }
  const auto& scalars = experiment.metrics_registry().scalars();
  // 12 paper columns, then one per registry scalar series.
  EXPECT_EQ(names.size(), 12 + scalars.size());
  for (size_t i = 0; i < scalars.size() && 12 + i < names.size(); ++i) {
    std::string name = scalars[i].name;
    if (!scalars[i].labels.empty()) {
      name += "{" + obs::CsvLabels(scalars[i].labels) + "}";
    }
    EXPECT_EQ(names[12 + i], name);
  }
  while (std::getline(in, line)) {
    std::istringstream row(line);
    std::string cell;
    for (size_t i = 0; i < names.size() && std::getline(row, cell, ','); ++i) {
      columns[names[i]].push_back(std::stod(cell));
    }
  }
  for (const std::string& name : names) {
    EXPECT_EQ(columns[name].size(), experiment.rows().size()) << name;
  }
  return columns;
}

double Sum(const std::vector<double>& values) {
  double sum = 0;
  for (double v : values) sum += v;
  return sum;
}

TEST(ExperimentTest, PeriodsCsvCarriesEveryRegistrySeries) {
  ExperimentConfig config = YcsbBase(SystemType::kDecongestant, 10, 0.95);
  config.duration = sim::Seconds(60);
  config.warmup = sim::Seconds(20);
  Experiment single(config);
  single.Run();
  auto columns =
      ReadPeriodsCsv(single, ::testing::TempDir() + "/dcg_periods_rs.csv");
  EXPECT_EQ(Sum(columns["ops_ok"]),
            static_cast<double>(single.client().op_counters().ok));
  EXPECT_GT(Sum(columns["balancer_decisions"]), 0);

  config.shards = 2;
  Experiment sharded(config);
  sharded.Run();
  columns =
      ReadPeriodsCsv(sharded, ::testing::TempDir() + "/dcg_periods_sh.csv");
  EXPECT_EQ(Sum(columns["ops_ok"]),
            static_cast<double>(sharded.client().op_counters().ok));
  EXPECT_EQ(columns.count("balance_fraction"), 1u);
  for (int s = 0; s < 2; ++s) {
    const std::string shard = "shard=" + std::to_string(s);
    const double routed = static_cast<double>(
        sharded.sharded_cluster()->router().routed_to_shard(s));
    EXPECT_GT(routed, 0);
    EXPECT_EQ(Sum(columns["routed_to_shard{" + shard + "}"]), routed);
    EXPECT_EQ(Sum(sharded.metrics_registry().PerPeriod(
                  "routed_to_shard", {{"shard", std::to_string(s)}})),
              routed);
  }
}

/// The last registry sample of every `served_read_age_count` series, keyed
/// by its labels ("node=1", "pref=secondary", ...).
std::map<std::string, double> ServedAgeCounts(const Experiment& experiment,
                                              const std::string& path) {
  EXPECT_TRUE(experiment.metrics_registry().WriteCsv(path));
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);  // units comment
  std::getline(in, line);  // header
  std::map<std::string, double> counts;
  while (std::getline(in, line)) {
    std::vector<std::string> cells;
    std::istringstream row(line);
    for (std::string cell; std::getline(row, cell, ',');) {
      cells.push_back(cell);
    }
    // time_s,name,type,unit,labels,value; samples are in time order.
    if (cells.size() == 6 && cells[1] == "served_read_age_count") {
      counts[cells[4]] = std::stod(cells[5]);
    }
  }
  return counts;
}

TEST(ExperimentTest, ServedAgeIsRecordedOncePerRead) {
  ExperimentConfig config = YcsbBase(SystemType::kDecongestant, 10, 0.95);
  // 10 report periods, inside the freshness SLO's longest (120 s) window,
  // so its closed buckets hold every observation of the run.
  config.duration = sim::Seconds(100);
  config.warmup = sim::Seconds(20);
  std::string error;
  ASSERT_TRUE(obs::ParseSloSpecs("default", {}, &config.slos, &error));
  Experiment experiment(config);
  experiment.Run();
  ASSERT_EQ(experiment.rows().size(), 10u);
  ASSERT_EQ(experiment.replica_set().primary_index(), 0);

  double rows = 0;
  for (const PeriodRow& row : experiment.rows()) {
    rows += static_cast<double>(row.served_age.count());
  }
  const std::string path = ::testing::TempDir() + "/dcg_served_age.csv";
  const auto counts = ServedAgeCounts(experiment, path);
  double prefs = 0;
  double nodes = 0;
  double secondaries = 0;
  for (const auto& [labels, count] : counts) {
    if (labels.rfind("pref=", 0) == 0) prefs += count;
    if (labels.rfind("node=", 0) == 0) nodes += count;
    if (labels == "node=1" || labels == "node=2") secondaries += count;
  }
  EXPECT_GT(rows, 0);
  EXPECT_GT(secondaries, 0);
  EXPECT_EQ(prefs, rows);
  EXPECT_EQ(nodes, rows);

  // The SLO engine observes the age of secondary-served reads only.
  uint64_t observed = 0;
  int freshness = 0;
  for (const auto& tracker : experiment.slo_engine()->trackers()) {
    if (tracker->spec().kind != obs::SloKind::kFreshness) continue;
    ++freshness;
    const auto sums = tracker->WindowSums(sim::Seconds(120));
    observed += sums.good + sums.bad;
  }
  ASSERT_EQ(freshness, 1);
  EXPECT_EQ(static_cast<double>(observed), secondaries);
}

TEST(ExperimentTest, SWorkloadCausesLittleInterference) {
  // Figure 11: running the S workload alongside the benchmark barely
  // moves throughput.
  ExperimentConfig with_s = YcsbBase(SystemType::kPrimary, 60, 0.95);
  with_s.duration = sim::Seconds(200);
  Experiment a(with_s);
  a.Run();

  ExperimentConfig without_s = with_s;
  without_s.run_s_workload = false;
  Experiment b(without_s);
  b.Run();

  const double t_with = a.Summarize().read_throughput;
  const double t_without = b.Summarize().read_throughput;
  EXPECT_NEAR(t_with / t_without, 1.0, 0.05);
}

TEST(ScenarioTest, NamesAreUniqueAndLookupReturnsThePaperRun) {
  std::set<std::string> names;
  for (const Scenario& scenario : Scenarios()) {
    EXPECT_TRUE(names.insert(scenario.name).second) << scenario.name;
  }
  EXPECT_EQ(names.size(), 26u);
  EXPECT_FALSE(FindScenario("fig12").has_value());
  // The CI checks replay through sim_cli --scenario; the bake-off runs
  // other entries' configurations.
  for (const char* name :
       {"ci_batching", "ci_driver_paths", "ci_election", "ci_sharded"}) {
    EXPECT_TRUE(FindScenario(name)->config.has_value()) << name;
  }
  EXPECT_FALSE(FindScenario("bakeoff")->config.has_value());

  const std::optional<Scenario> fig2 = FindScenario("fig2");
  ASSERT_TRUE(fig2.has_value() && fig2->config.has_value());
  const ExperimentConfig& config = *fig2->config;
  EXPECT_EQ(config.seed, 42u);
  EXPECT_EQ(config.duration, sim::Seconds(900));
  ASSERT_EQ(config.phases.size(), 2u);
  EXPECT_EQ(config.phases[1].at, sim::Seconds(620));
  EXPECT_EQ(config.phases[0].clients, 45);
  EXPECT_EQ(config.phases[1].clients, 45);
}

TEST(ScenarioTest, RescaleKeepsTheShareOfEachSwitch) {
  // Each switch and the warmup keep their share of the run, computed in
  // the order sim_cli's --duration scaling always used, so short runs
  // keep their exact instants.
  const ExperimentConfig fig2 =
      Rescale(*FindScenario("fig2")->config, sim::Seconds(240), -1);
  EXPECT_EQ(fig2.duration, sim::Seconds(240));
  EXPECT_EQ(fig2.phases[1].at, sim::Seconds(240 * (620.0 / 900)));
  EXPECT_EQ(fig2.warmup, sim::Seconds(240 * (660.0 / 900)));
  EXPECT_EQ(fig2.phases[1].clients, 45);

  const ExperimentConfig fig3 =
      Rescale(*FindScenario("fig3")->config, sim::Seconds(700), 20);
  EXPECT_EQ(fig3.phases[0].clients, 20);
  EXPECT_EQ(fig3.phases[1].clients, 2);  // 20 * 5 / 45
  EXPECT_EQ(fig3.phases[1].at, sim::Seconds(700 * (230.0 / 700)));
  EXPECT_EQ(fig3.warmup, sim::Seconds(700 * (100.0 / 700)));
}

TEST(ScenarioTest, FailedClaimIsReported) {
  // The path that sets paper_claims' exit status, without a simulation.
  const auto body = [](const Scenario&, Claims& claims) {
    claims.Claim("holds", true);
    claims.Claim("never holds", false);
  };
  const Scenario scenario{"failing", "Test", "one claim holds, one does not",
                          std::nullopt, body};
  const std::vector<std::string> failed = RunScenario(scenario);
  ASSERT_GT(failed.size(), 0u);
  EXPECT_EQ(failed, std::vector<std::string>{"never holds"});
}

}  // namespace
}  // namespace dcg::exp
