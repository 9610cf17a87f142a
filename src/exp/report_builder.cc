#include "exp/report_builder.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/decision_log.h"
#include "obs/slo.h"

namespace dcg::exp {
namespace {

std::string Format(const char* fmt, double v) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), fmt, v);
  return buffer;
}

double RowMid(const PeriodRow& row) {
  return sim::ToSeconds(row.start + (row.end - row.start) / 2);
}

/// Folds the ordered SLO event log into per-(slo, severity, shard) lanes
/// of [pending-or-firing start, resolved end] bands. A band still open at
/// the end of the run closes at the last event's lane-visible horizon
/// (`run_end`).
std::vector<obs::ReportLane> BuildAlertLanes(const obs::SloEngine* engine,
                                             double run_end) {
  std::vector<obs::ReportLane> lanes;
  if (engine == nullptr) return lanes;
  struct Open {
    double at = 0;
    bool firing = false;
  };
  // Lane per (slo, shard); band per severity inside it.
  std::map<std::string, size_t> lane_index;
  std::map<std::string, Open> open;
  auto lane_for = [&](const obs::SloEvent& e) -> obs::ReportLane& {
    std::string name(e.slo);
    if (e.shard >= 0) name += " shard " + std::to_string(e.shard);
    auto [it, inserted] = lane_index.try_emplace(name, lanes.size());
    if (inserted) {
      lanes.emplace_back();
      lanes.back().name = name;
    }
    return lanes[it->second];
  };
  auto key = [](const obs::SloEvent& e) {
    return std::string(e.slo) + "|" + std::string(obs::ToString(e.severity)) +
           "|" + std::to_string(e.shard);
  };
  for (const obs::SloEvent& e : engine->events()) {
    const double t = sim::ToSeconds(e.at);
    switch (e.transition) {
      case obs::SloTransition::kPending:
        open[key(e)] = {t, false};
        break;
      case obs::SloTransition::kFiring:
        open[key(e)].firing = true;
        break;
      case obs::SloTransition::kCancelled:
      case obs::SloTransition::kResolved: {
        auto it = open.find(key(e));
        if (it == open.end()) break;
        obs::ReportBand band;
        band.t0 = it->second.at;
        band.t1 = t;
        band.severity = it->second.firing
                            ? std::string(obs::ToString(e.severity))
                            : "pending";
        band.label = std::string(e.slo) + " " +
                     std::string(obs::ToString(e.severity)) +
                     (it->second.firing ? " fired" : " pending (cancelled)");
        lane_for(e).bands.push_back(std::move(band));
        open.erase(it);
        break;
      }
    }
  }
  // Still-open alerts extend to the end of the run.
  for (const obs::SloEvent& e : engine->events()) {
    auto it = open.find(key(e));
    if (it == open.end()) continue;
    obs::ReportBand band;
    band.t0 = it->second.at;
    band.t1 = run_end;
    band.severity = it->second.firing
                        ? std::string(obs::ToString(e.severity))
                        : "pending";
    band.label = std::string(e.slo) + " " +
                 std::string(obs::ToString(e.severity)) + " (open at end)";
    lane_for(e).bands.push_back(std::move(band));
    open.erase(it);
  }
  return lanes;
}

}  // namespace

obs::ReportData BuildReportData(const Experiment& experiment) {
  obs::ReportData data;
  const ExperimentConfig& config = experiment.config();
  const Summary summary = experiment.Summarize();

  data.title = "Decongestant run \xc2\xb7 " +
               std::string(ToString(config.system)) + " \xc2\xb7 seed " +
               std::to_string(config.seed);
  data.subtitle =
      "controller " + config.balancer.controller + " \xc2\xb7 " +
      (config.kind == WorkloadKind::kYcsb ? "YCSB" : "TPC-C") +
      (experiment.sharded()
           ? " \xc2\xb7 " + std::to_string(config.shards) + " shards"
           : "") +
      " \xc2\xb7 " + Format("%.0f", sim::ToSeconds(config.duration)) +
      " s simulated \xc2\xb7 stale bound " +
      std::to_string(config.balancer.stale_bound_seconds) + " s";

  data.stats.push_back(
      {"Reads/s", Format("%.0f", summary.read_throughput)});
  data.stats.push_back(
      {"P80 read latency", Format("%.2f ms", summary.p80_read_latency_ms)});
  data.stats.push_back(
      {"Secondary share", Format("%.1f %%", summary.secondary_percent)});
  data.stats.push_back(
      {"P80 staleness", Format("%.2f s", summary.p80_staleness_s)});
  data.stats.push_back(
      {"Bound violations",
       std::to_string(summary.bound_violations)});
  const obs::SloEngine* engine = experiment.slo_engine();
  if (engine != nullptr) {
    size_t fired = 0;
    for (const obs::SloEvent& e : engine->events()) {
      if (e.transition == obs::SloTransition::kFiring) ++fired;
    }
    data.stats.push_back({"Alerts fired", std::to_string(fired)});
  }

  const auto& rows = experiment.rows();
  const double run_end = sim::ToSeconds(config.duration);

  // Panel: read throughput + secondary share of it.
  {
    obs::ReportPanel panel;
    panel.title = "Read throughput";
    panel.unit = "ops/s";
    obs::ReportSeries all{"all reads", {}};
    obs::ReportSeries secondary{"secondary-served", {}};
    for (const PeriodRow& row : rows) {
      const double t = RowMid(row);
      const double seconds = sim::ToSeconds(row.end - row.start);
      all.points.push_back({t, row.ReadThroughput()});
      secondary.points.push_back(
          {t, seconds > 0
                  ? static_cast<double>(row.reads_secondary) / seconds
                  : 0});
    }
    panel.series.push_back(std::move(all));
    panel.series.push_back(std::move(secondary));
    data.panels.push_back(std::move(panel));
  }

  // Panel: read latency P80.
  {
    obs::ReportPanel panel;
    panel.title = "Read latency P80";
    panel.unit = "ms";
    obs::ReportSeries p80{"p80", {}};
    for (const PeriodRow& row : rows) {
      p80.points.push_back({RowMid(row), row.P80ReadLatencyMs()});
    }
    panel.series.push_back(std::move(p80));
    data.panels.push_back(std::move(panel));
  }

  // Panel: balance fraction — per shard in sharded mode.
  {
    obs::ReportPanel panel;
    panel.title = "Balance fraction";
    panel.unit = "fraction";
    if (experiment.sharded()) {
      const size_t shards = static_cast<size_t>(config.shards);
      for (size_t s = 0; s < shards; ++s) {
        obs::ReportSeries series{"shard " + std::to_string(s), {}};
        for (const PeriodRow& row : rows) {
          if (s < row.shard_balance_fraction.size()) {
            series.points.push_back(
                {RowMid(row), row.shard_balance_fraction[s]});
          }
        }
        panel.series.push_back(std::move(series));
      }
    } else {
      obs::ReportSeries series{"published", {}};
      for (const PeriodRow& row : rows) {
        series.points.push_back({RowMid(row), row.balance_fraction});
      }
      panel.series.push_back(std::move(series));
    }
    data.panels.push_back(std::move(panel));
  }

  // Panel: staleness estimate vs ground truth (1 Hz series).
  {
    obs::ReportPanel panel;
    panel.title = "Staleness";
    panel.unit = "seconds";
    obs::ReportSeries estimate{"estimate", {}};
    obs::ReportSeries truth{"true max", {}};
    for (const StalenessPoint& p : experiment.staleness_series()) {
      const double t = sim::ToSeconds(p.at);
      if (p.estimate_s >= 0) estimate.points.push_back({t, p.estimate_s});
      truth.points.push_back({t, p.true_max_s});
    }
    if (!estimate.points.empty()) {
      panel.series.push_back(std::move(estimate));
    }
    panel.series.push_back(std::move(truth));
    data.panels.push_back(std::move(panel));
  }

  // Panel: served read age (single replica set only — behind a router the
  // serving node is invisible).
  if (!experiment.sharded()) {
    obs::ReportPanel panel;
    panel.title = "Served read age";
    panel.unit = "seconds";
    obs::ReportSeries mean{"mean", {}};
    obs::ReportSeries max{"max", {}};
    for (const PeriodRow& row : rows) {
      const double t = RowMid(row);
      mean.points.push_back(
          {t, row.served_age.count() > 0 ? row.served_age.mean() / 1000.0
                                         : 0});
      max.points.push_back({t, row.served_age.max() / 1000.0});
    }
    panel.series.push_back(std::move(mean));
    panel.series.push_back(std::move(max));
    data.panels.push_back(std::move(panel));
  }

  // Panel: per-shard routed reads (sharded only).
  if (experiment.sharded()) {
    obs::ReportPanel panel;
    panel.title = "Reads routed per shard";
    panel.unit = "ops/period";
    const size_t shards = static_cast<size_t>(config.shards);
    for (size_t s = 0; s < shards; ++s) {
      obs::ReportSeries series{"shard " + std::to_string(s), {}};
      for (const PeriodRow& row : rows) {
        if (s < row.shard_reads.size()) {
          series.points.push_back(
              {RowMid(row), static_cast<double>(row.shard_reads[s])});
        }
      }
      panel.series.push_back(std::move(series));
    }
    data.panels.push_back(std::move(panel));
  }

  // Panel: SLO burn rate (only with an engine).
  if (engine != nullptr) {
    obs::ReportPanel panel;
    panel.title = "SLO max burn rate";
    panel.unit = "x budget";
    obs::ReportSeries burn{"max burn", {}};
    for (const PeriodRow& row : rows) {
      burn.points.push_back({RowMid(row), row.slo_max_burn});
    }
    panel.series.push_back(std::move(burn));
    data.panels.push_back(std::move(panel));
  }

  data.alert_lanes = BuildAlertLanes(engine, run_end);

  // Decision-reason annotations: every balancer decision, capped so a
  // long run doesn't smear the strip solid (cap keeps first-in-period).
  const obs::DecisionLog* decisions = experiment.balancer_decisions();
  if (decisions != nullptr) {
    constexpr size_t kMaxMarkers = 400;
    const auto& entries = decisions->entries();
    const size_t stride = entries.size() / kMaxMarkers + 1;
    for (size_t i = 0; i < entries.size(); i += stride) {
      const obs::BalanceDecision& d = entries[i];
      obs::ReportMarker marker;
      marker.t = sim::ToSeconds(d.at);
      marker.label = std::string(obs::ToString(d.reason)) + " " +
                     Format("%.2f", d.from_fraction) + " \xe2\x86\x92 " +
                     Format("%.2f", d.to_fraction);
      data.markers.push_back(std::move(marker));
    }
  }

  return data;
}

}  // namespace dcg::exp
