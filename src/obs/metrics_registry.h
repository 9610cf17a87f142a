#ifndef DCG_OBS_METRICS_REGISTRY_H_
#define DCG_OBS_METRICS_REGISTRY_H_

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "metrics/histogram.h"
#include "sim/time.h"

namespace dcg::obs {

/// One "key=value" label on a series (e.g. node=2, pref=secondary).
using Label = std::pair<std::string, std::string>;

/// Renders labels the way the long-format CSV does: pipe-separated
/// key=value pairs ("" for none).
std::string CsvLabels(const std::vector<Label>& labels);

/// Unifies the run's counters, gauges, and metrics::Histograms into named,
/// labeled series. Sources are callbacks over live state — registering a
/// metric costs nothing per operation; the registry only touches sources
/// when Sample() runs (once per control period). Exported as JSON next to
/// the CSVs.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Monotone cumulative value (sampled as-is; consumers diff).
  void RegisterCounter(std::string name, std::string unit,
                       std::vector<Label> labels,
                       std::function<double()> source) {
    scalars_.push_back({std::move(name), "counter", std::move(unit),
                        std::move(labels), std::move(source), {}});
  }

  /// Point-in-time value.
  void RegisterGauge(std::string name, std::string unit,
                     std::vector<Label> labels,
                     std::function<double()> source) {
    scalars_.push_back({std::move(name), "gauge", std::move(unit),
                        std::move(labels), std::move(source), {}});
  }

  /// Distribution: each Sample() snapshots count/mean/p50/p80/p99/max of
  /// the live histogram (cumulative over the run). `scale` converts the
  /// histogram's native unit into `unit` (e.g. 1/1e6 for ns → ms).
  void RegisterHistogram(std::string name, std::string unit,
                         std::vector<Label> labels,
                         const metrics::Histogram* histogram,
                         double scale = 1.0) {
    histograms_.push_back({std::move(name), std::move(unit),
                           std::move(labels), histogram, scale, {}});
  }

  /// Samples every registered series at time `now` (call once per control
  /// period).
  void Sample(sim::Time now);

  size_t series_count() const { return scalars_.size() + histograms_.size(); }
  size_t samples_taken() const { return samples_taken_; }

  /// One value per Sample() of the scalar series `name` with exactly
  /// `labels`: a counter as the difference between consecutive samples
  /// (the first minus 0), a gauge as sampled. The series must exist.
  std::vector<double> PerPeriod(const std::string& name,
                                const std::vector<Label>& labels = {}) const;

  struct ScalarSeries {
    std::string name;
    const char* type;  // "counter" | "gauge"
    std::string unit;
    std::vector<Label> labels;
    std::function<double()> source;
    std::vector<std::pair<sim::Time, double>> samples;
  };

  /// Every counter and gauge, in registration order.
  const std::vector<ScalarSeries>& scalars() const { return scalars_; }

  /// Writes all series with their samples as JSON. Returns false on I/O
  /// failure.
  bool WriteJson(const std::string& path) const;

  /// Writes all series in the OpenMetrics text exposition format
  /// (one `# TYPE`/`# UNIT`/`# HELP` block per metric family, label
  /// escaping per spec, `# EOF` terminator). Counters gain the `_total`
  /// sample suffix; histograms are exported as summaries with quantile
  /// labels plus `_count`/`_sum`. Family names carry the unit as a
  /// suffix, as the spec requires. Timestamps are sim seconds.
  bool WriteOpenMetrics(const std::string& path) const;

  /// Writes all samples as one long-format CSV (time, name, labels,
  /// value) with the standard units comment line, so sweeps can diff
  /// series without a JSON parser. Histogram snapshots expand into
  /// `<name>_count/_mean/_p50/_p80/_p99/_max` rows.
  bool WriteCsv(const std::string& path) const;

 private:
  struct HistogramSample {
    sim::Time at = 0;
    uint64_t count = 0;
    double mean = 0, p50 = 0, p80 = 0, p99 = 0, max = 0;
  };

  struct HistogramSeries {
    std::string name;
    std::string unit;
    std::vector<Label> labels;
    const metrics::Histogram* histogram;
    double scale;
    std::vector<HistogramSample> samples;
  };

  std::vector<ScalarSeries> scalars_;
  std::vector<HistogramSeries> histograms_;
  size_t samples_taken_ = 0;
};

}  // namespace dcg::obs

#endif  // DCG_OBS_METRICS_REGISTRY_H_
