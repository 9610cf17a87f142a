#include "exp/csv_export.h"

#include <cstdarg>
#include <cstdio>
#include <string>
#include <vector>

#include "util/check.h"

namespace dcg::exp {
namespace {

class CsvFile {
 public:
  explicit CsvFile(const std::string& path)
      : file_(std::fopen(path.c_str(), "w")) {}
  ~CsvFile() { Close(); }
  bool ok() const { return file_ != nullptr; }
  void Line(const char* fmt, ...) __attribute__((format(printf, 2, 3))) {
    va_list args;
    va_start(args, fmt);
    std::vfprintf(file_, fmt, args);
    va_end(args);
    std::fputc('\n', file_);
  }
  /// Flushes and closes the file; false if any write failed (e.g. a full
  /// disk) or it was never opened.
  bool Close() {
    if (file_ == nullptr) return false;
    const bool written = std::fflush(file_) == 0 && std::ferror(file_) == 0;
    const bool closed = std::fclose(file_) == 0;
    file_ = nullptr;
    return written && closed;
  }

 private:
  std::FILE* file_;
};

}  // namespace

bool WritePeriodsCsv(const Experiment& experiment, const std::string& path) {
  const obs::MetricsRegistry& registry = experiment.metrics_registry();
  const std::vector<PeriodRow>& rows = experiment.rows();
  DCG_CHECK(registry.samples_taken() == rows.size());
  CsvFile csv(path);
  if (!csv.ok()) return false;
  // The paper's columns from PeriodRow, then one column per registry
  // scalar series in registration order.
  std::string units =
      "# units: start_s=seconds reads=count reads_secondary=count "
      "writes=count read_throughput=ops/s p80_latency_ms=ms "
      "secondary_pct=percent est_staleness_s=seconds stock_level=count "
      "stock_level_p80_ms=ms served_age_mean_s=seconds "
      "served_age_max_s=seconds";
  std::string header =
      "start_s,reads,reads_secondary,writes,read_throughput,"
      "p80_latency_ms,secondary_pct,est_staleness_s,stock_level,"
      "stock_level_p80_ms,served_age_mean_s,served_age_max_s";
  std::vector<std::vector<double>> columns;
  for (const obs::MetricsRegistry::ScalarSeries& series : registry.scalars()) {
    std::string name = series.name;
    if (!series.labels.empty()) {
      name += "{" + obs::CsvLabels(series.labels) + "}";
    }
    units += " " + name + "=" + series.unit;
    header += "," + name;
    columns.push_back(registry.PerPeriod(series.name, series.labels));
  }
  csv.Line("%s", units.c_str());
  csv.Line("%s", header.c_str());
  for (size_t i = 0; i < rows.size(); ++i) {
    const PeriodRow& row = rows[i];
    std::string registry_cells;
    for (const std::vector<double>& column : columns) {
      char cell[32];
      std::snprintf(cell, sizeof(cell), ",%.9g", column[i]);
      registry_cells += cell;
    }
    csv.Line("%.1f,%llu,%llu,%llu,%.2f,%.3f,%.2f,%lld,%llu,%.3f,%.4f,%.4f%s",
             sim::ToSeconds(row.start),
             static_cast<unsigned long long>(row.reads),
             static_cast<unsigned long long>(row.reads_secondary),
             static_cast<unsigned long long>(row.writes),
             row.ReadThroughput(), row.P80ReadLatencyMs(),
             row.SecondaryPercent(),
             static_cast<long long>(row.est_staleness_max_s),
             static_cast<unsigned long long>(row.stock_level),
             row.stock_level_latency.Percentile(80) /
                 static_cast<double>(sim::kMillisecond),
             row.served_age.count() > 0 ? row.served_age.mean() / 1000.0 : 0.0,
             row.served_age.max() / 1000.0, registry_cells.c_str());
  }
  return csv.Close();
}

bool WriteSloCsv(const Experiment& experiment, const std::string& path) {
  CsvFile csv(path);
  if (!csv.ok()) return false;
  csv.Line(
      "# units: time_s=seconds slo=name shard=index(-1=cluster) "
      "severity=enum transition=enum burn_long=ratio burn_short=ratio "
      "sli=fraction good=count bad=count");
  csv.Line("time_s,slo,shard,severity,transition,burn_long,burn_short,sli,"
           "good,bad");
  const obs::SloEngine* engine = experiment.slo_engine();
  if (engine == nullptr) return csv.Close();
  for (const obs::SloEvent& e : engine->events()) {
    csv.Line("%.1f,%s,%d,%s,%s,%.4f,%.4f,%.6f,%llu,%llu",
             sim::ToSeconds(e.at), e.slo.c_str(), e.shard,
             std::string(obs::ToString(e.severity)).c_str(),
             std::string(obs::ToString(e.transition)).c_str(), e.burn_long,
             e.burn_short, e.sli, static_cast<unsigned long long>(e.good),
             static_cast<unsigned long long>(e.bad));
  }
  return csv.Close();
}

bool WriteStalenessCsv(const Experiment& experiment, const std::string& path) {
  CsvFile csv(path);
  if (!csv.ok()) return false;
  csv.Line(
      "# units: time_s=seconds estimate_s=seconds true_max_s=seconds");
  csv.Line("time_s,estimate_s,true_max_s");
  for (const StalenessPoint& p : experiment.staleness_series()) {
    csv.Line("%.1f,%.1f,%.3f", sim::ToSeconds(p.at), p.estimate_s,
             p.true_max_s);
  }
  return csv.Close();
}

bool WriteSamplesCsv(const Experiment& experiment, const std::string& path) {
  CsvFile csv(path);
  if (!csv.ok()) return false;
  csv.Line("# units: time_s=seconds observed_staleness_s=seconds");
  csv.Line("time_s,observed_staleness_s");
  for (const auto& [at, staleness] : experiment.s_samples()) {
    csv.Line("%.3f,%.3f", sim::ToSeconds(at), staleness);
  }
  return csv.Close();
}

bool WriteDecisionsCsv(const Experiment& experiment, const std::string& path) {
  const obs::DecisionLog* log = experiment.balancer_decisions();
  CsvFile csv(path);
  if (!csv.ok()) return false;
  csv.Line(
      "# units: time_s=seconds from_fraction=fraction to_fraction=fraction "
      "published_fraction=fraction reason=enum term=count ratio=ratio "
      "ratio_valid=bool lss_primary_ms=ms lss_secondary_ms=ms "
      "history_flat=bool est_staleness_s=seconds stale_bound_s=seconds "
      "secondary_staleness_s=seconds(|-joined,-1=unknown)");
  csv.Line(
      "time_s,from_fraction,to_fraction,published_fraction,reason,term,ratio,"
      "ratio_valid,lss_primary_ms,lss_secondary_ms,history_flat,"
      "est_staleness_s,stale_bound_s,secondary_staleness_s");
  if (log == nullptr) return csv.Close();
  for (const obs::BalanceDecision& d : log->entries()) {
    std::string per_node;
    for (size_t i = 0; i < d.secondary_staleness_s.size(); ++i) {
      if (i > 0) per_node += '|';
      per_node += std::to_string(d.secondary_staleness_s[i]);
    }
    csv.Line("%.1f,%.2f,%.2f,%.2f,%s,%llu,%.3f,%d,%.3f,%.3f,%d,%lld,%lld,%s",
             sim::ToSeconds(d.at), d.from_fraction, d.to_fraction,
             d.published_fraction,
             std::string(obs::ToString(d.reason)).c_str(),
             static_cast<unsigned long long>(d.term), d.ratio,
             d.ratio_valid ? 1 : 0, sim::ToMillis(d.lss_primary),
             sim::ToMillis(d.lss_secondary), d.history_flat ? 1 : 0,
             static_cast<long long>(d.staleness_estimate_s),
             static_cast<long long>(d.stale_bound_s), per_node.c_str());
  }
  return csv.Close();
}

bool WriteShardsCsv(const Experiment& experiment, const std::string& path) {
  CsvFile csv(path);
  if (!csv.ok()) return false;
  csv.Line(
      "# units: start_s=seconds shard=index reads_routed=count "
      "balance_fraction=fraction");
  csv.Line("start_s,shard,reads_routed,balance_fraction");
  if (!experiment.sharded()) return csv.Close();
  const obs::MetricsRegistry& registry = experiment.metrics_registry();
  std::vector<std::vector<double>> routed;
  std::vector<std::vector<double>> fraction;
  for (int s = 0; s < experiment.config().shards; ++s) {
    const std::vector<obs::Label> shard = {{"shard", std::to_string(s)}};
    routed.push_back(registry.PerPeriod("routed_to_shard", shard));
    fraction.push_back(registry.PerPeriod("balance_fraction", shard));
  }
  const std::vector<PeriodRow>& rows = experiment.rows();
  for (size_t i = 0; i < rows.size(); ++i) {
    for (size_t s = 0; s < routed.size(); ++s) {
      csv.Line("%.1f,%zu,%llu,%.2f", sim::ToSeconds(rows[i].start), s,
               static_cast<unsigned long long>(routed[s][i]),
               fraction[s][i]);
    }
  }
  return csv.Close();
}

}  // namespace dcg::exp
