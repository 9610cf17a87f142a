#include "obs/metrics_registry.h"

#include <cctype>
#include <cstdio>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "util/check.h"

namespace dcg::obs {

namespace {

void WriteLabels(std::FILE* f, const std::vector<Label>& labels) {
  std::fputs("{", f);
  for (size_t i = 0; i < labels.size(); ++i) {
    std::fprintf(f, "%s\"%s\":\"%s\"", i == 0 ? "" : ",",
                 labels[i].first.c_str(), labels[i].second.c_str());
  }
  std::fputs("}", f);
}

}  // namespace

void MetricsRegistry::Sample(sim::Time now) {
  for (ScalarSeries& series : scalars_) {
    series.samples.emplace_back(now, series.source());
  }
  for (HistogramSeries& series : histograms_) {
    const metrics::Histogram& h = *series.histogram;
    HistogramSample sample;
    sample.at = now;
    sample.count = h.count();
    sample.mean = h.mean() * series.scale;
    sample.p50 = h.Percentile(50) * series.scale;
    sample.p80 = h.Percentile(80) * series.scale;
    sample.p99 = h.Percentile(99) * series.scale;
    sample.max = h.max() * series.scale;
    series.samples.push_back(sample);
  }
  ++samples_taken_;
}

std::vector<double> MetricsRegistry::PerPeriod(
    const std::string& name, const std::vector<Label>& labels) const {
  for (const ScalarSeries& series : scalars_) {
    if (series.name != name || series.labels != labels) continue;
    const bool counter = std::string_view(series.type) == "counter";
    std::vector<double> values;
    values.reserve(series.samples.size());
    double previous = 0;
    for (const auto& [at, value] : series.samples) {
      values.push_back(counter ? value - previous : value);
      previous = value;
    }
    return values;
  }
  DCG_CHECK_MSG(false, "no scalar series named %s{%s}", name.c_str(),
                CsvLabels(labels).c_str());
  return {};
}

bool MetricsRegistry::WriteJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"series\":[", f);
  bool first = true;
  for (const ScalarSeries& series : scalars_) {
    std::fprintf(f, "%s\n{\"name\":\"%s\",\"type\":\"%s\",\"unit\":\"%s\","
                 "\"labels\":",
                 first ? "" : ",", series.name.c_str(), series.type,
                 series.unit.c_str());
    first = false;
    WriteLabels(f, series.labels);
    // Samples as [time_s, value] pairs.
    std::fputs(",\"samples\":[", f);
    for (size_t i = 0; i < series.samples.size(); ++i) {
      std::fprintf(f, "%s[%.1f,%.6g]", i == 0 ? "" : ",",
                   sim::ToSeconds(series.samples[i].first),
                   series.samples[i].second);
    }
    std::fputs("]}", f);
  }
  for (const HistogramSeries& series : histograms_) {
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"type\":\"histogram\",\"unit\":\"%s\","
                 "\"labels\":",
                 first ? "" : ",", series.name.c_str(), series.unit.c_str());
    first = false;
    WriteLabels(f, series.labels);
    std::fputs(",\"samples\":[", f);
    for (size_t i = 0; i < series.samples.size(); ++i) {
      const HistogramSample& s = series.samples[i];
      std::fprintf(f,
                   "%s{\"t\":%.1f,\"count\":%llu,\"mean\":%.6g,\"p50\":%.6g,"
                   "\"p80\":%.6g,\"p99\":%.6g,\"max\":%.6g}",
                   i == 0 ? "" : ",", sim::ToSeconds(s.at),
                   static_cast<unsigned long long>(s.count), s.mean, s.p50,
                   s.p80, s.p99, s.max);
    }
    std::fputs("]}", f);
  }
  std::fputs("\n]}\n", f);
  const bool ok = std::fflush(f) == 0;
  std::fclose(f);
  return ok;
}

namespace {

// OpenMetrics metric names are [a-zA-Z_:][a-zA-Z0-9_:]*.
std::string SanitizeMetricName(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (char c : name) {
    const bool ok = std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
                    c == ':';
    out.push_back(ok ? c : '_');
  }
  if (out.empty() ||
      (!std::isalpha(static_cast<unsigned char>(out[0])) && out[0] != '_' &&
       out[0] != ':')) {
    out.insert(out.begin(), '_');
  }
  return out;
}

// Units become part of the family name, so they follow the same alphabet;
// "ops/s" style rates read as "ops_per_s".
std::string SanitizeUnit(const std::string& unit) {
  std::string out;
  out.reserve(unit.size());
  for (char c : unit) {
    if (c == '/') {
      out += "_per_";
    } else if (std::isalnum(static_cast<unsigned char>(c))) {
      out.push_back(
          static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
    } else {
      out.push_back('_');
    }
  }
  return out;
}

// The spec requires the family name to end with its unit.
std::string FamilyName(const std::string& name, const std::string& unit) {
  std::string family = SanitizeMetricName(name);
  if (unit.empty()) return family;
  const std::string suffix = "_" + unit;
  if (family.size() >= suffix.size() &&
      family.compare(family.size() - suffix.size(), suffix.size(), suffix) ==
          0) {
    return family;
  }
  return family + suffix;
}

// Label-value escaping per the OpenMetrics ABNF: backslash, double quote,
// and line feed.
std::string EscapeLabelValue(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out.push_back(c);
    }
  }
  return out;
}

// HELP text escapes backslash and line feed only.
std::string EscapeHelp(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out.push_back(c);
    }
  }
  return out;
}

// Renders `{k="v",...}` with `extra` appended (already escaped); returns
// "" for an empty label set so unlabeled samples stay bare.
std::string RenderLabelSet(const std::vector<Label>& labels,
                           const std::string& extra = std::string()) {
  std::string out;
  for (const Label& label : labels) {
    out += out.empty() ? "{" : ",";
    out += SanitizeMetricName(label.first) + "=\"" +
           EscapeLabelValue(label.second) + "\"";
  }
  if (!extra.empty()) {
    out += out.empty() ? "{" : ",";
    out += extra;
  }
  if (!out.empty()) out += "}";
  return out;
}

}  // namespace

std::string CsvLabels(const std::vector<Label>& labels) {
  std::string out;
  for (const Label& label : labels) {
    if (!out.empty()) out += "|";
    out += label.first + "=" + label.second;
  }
  return out;
}

bool MetricsRegistry::WriteOpenMetrics(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;

  // Group series into metric families: every labeled series with the same
  // name shares one # TYPE/# UNIT/# HELP block.
  struct ScalarFamily {
    const char* type;
    std::string unit;
    std::vector<const ScalarSeries*> series;
  };
  std::vector<std::string> scalar_order;
  std::map<std::string, ScalarFamily> scalar_families;
  for (const ScalarSeries& series : scalars_) {
    const std::string family = FamilyName(series.name, SanitizeUnit(series.unit));
    auto [it, inserted] = scalar_families.try_emplace(family);
    if (inserted) {
      scalar_order.push_back(family);
      it->second.type = series.type;
      it->second.unit = SanitizeUnit(series.unit);
    }
    it->second.series.push_back(&series);
  }
  for (const std::string& family : scalar_order) {
    const ScalarFamily& group = scalar_families.at(family);
    const bool counter = std::string(group.type) == "counter";
    std::fprintf(f, "# TYPE %s %s\n", family.c_str(),
                 counter ? "counter" : "gauge");
    if (!group.unit.empty()) {
      std::fprintf(f, "# UNIT %s %s\n", family.c_str(), group.unit.c_str());
    }
    std::fprintf(f, "# HELP %s %s\n", family.c_str(),
                 EscapeHelp("Sampled " + std::string(group.type) +
                            " series from the run's metrics registry.")
                     .c_str());
    for (const ScalarSeries* series : group.series) {
      const std::string labels = RenderLabelSet(series->labels);
      const std::string sample_name = counter ? family + "_total" : family;
      for (const auto& [at, value] : series->samples) {
        std::fprintf(f, "%s%s %.9g %.3f\n", sample_name.c_str(),
                     labels.c_str(), value, sim::ToSeconds(at));
      }
    }
  }

  struct HistogramFamily {
    std::string unit;
    std::vector<const HistogramSeries*> series;
  };
  std::vector<std::string> histogram_order;
  std::map<std::string, HistogramFamily> histogram_families;
  for (const HistogramSeries& series : histograms_) {
    const std::string family = FamilyName(series.name, SanitizeUnit(series.unit));
    auto [it, inserted] = histogram_families.try_emplace(family);
    if (inserted) {
      histogram_order.push_back(family);
      it->second.unit = SanitizeUnit(series.unit);
    }
    it->second.series.push_back(&series);
  }
  for (const std::string& family : histogram_order) {
    const HistogramFamily& group = histogram_families.at(family);
    std::fprintf(f, "# TYPE %s summary\n", family.c_str());
    if (!group.unit.empty()) {
      std::fprintf(f, "# UNIT %s %s\n", family.c_str(), group.unit.c_str());
    }
    std::fprintf(
        f, "# HELP %s %s\n", family.c_str(),
        EscapeHelp(
            "Cumulative distribution snapshots from the run's metrics "
            "registry.")
            .c_str());
    for (const HistogramSeries* series : group.series) {
      for (const HistogramSample& s : series->samples) {
        const double t = sim::ToSeconds(s.at);
        const auto quantile = [&](const char* q, double value) {
          std::fprintf(f, "%s%s %.9g %.3f\n", family.c_str(),
                       RenderLabelSet(series->labels,
                                      "quantile=\"" + std::string(q) + "\"")
                           .c_str(),
                       value, t);
        };
        quantile("0.5", s.p50);
        quantile("0.8", s.p80);
        quantile("0.99", s.p99);
        quantile("1", s.max);
        const std::string labels = RenderLabelSet(series->labels);
        std::fprintf(f, "%s_count%s %llu %.3f\n", family.c_str(),
                     labels.c_str(), static_cast<unsigned long long>(s.count),
                     t);
        std::fprintf(f, "%s_sum%s %.9g %.3f\n", family.c_str(), labels.c_str(),
                     s.mean * static_cast<double>(s.count), t);
      }
    }
  }

  std::fputs("# EOF\n", f);
  const bool ok = std::fflush(f) == 0;
  std::fclose(f);
  return ok;
}

bool MetricsRegistry::WriteCsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs(
      "# units: time_s=seconds, value=per-series `unit` column; labels are "
      "pipe-separated key=value pairs\n",
      f);
  std::fputs("time_s,name,type,unit,labels,value\n", f);
  for (const ScalarSeries& series : scalars_) {
    const std::string labels = CsvLabels(series.labels);
    for (const auto& [at, value] : series.samples) {
      std::fprintf(f, "%.1f,%s,%s,%s,%s,%.9g\n", sim::ToSeconds(at),
                   series.name.c_str(), series.type, series.unit.c_str(),
                   labels.c_str(), value);
    }
  }
  for (const HistogramSeries& series : histograms_) {
    const std::string labels = CsvLabels(series.labels);
    for (const HistogramSample& s : series.samples) {
      const double t = sim::ToSeconds(s.at);
      const auto row = [&](const char* stat, double value) {
        std::fprintf(f, "%.1f,%s_%s,histogram,%s,%s,%.9g\n", t,
                     series.name.c_str(), stat, series.unit.c_str(),
                     labels.c_str(), value);
      };
      row("count", static_cast<double>(s.count));
      row("mean", s.mean);
      row("p50", s.p50);
      row("p80", s.p80);
      row("p99", s.p99);
      row("max", s.max);
    }
  }
  const bool ok = std::fflush(f) == 0;
  std::fclose(f);
  return ok;
}

}  // namespace dcg::obs
