// Tests for the observability layer: span tracer mechanics, Chrome-trace
// export, the metrics registry, balancer decision reasons, and the
// end-to-end span decomposition of reads and majority writes.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/controller.h"
#include "driver/client.h"
#include "metrics/histogram.h"
#include "net/network.h"
#include "obs/decision_log.h"
#include "obs/metrics_registry.h"
#include "obs/report.h"
#include "obs/slo.h"
#include "obs/trace.h"
#include "repl/replica_set.h"

namespace dcg {
namespace {

obs::SpanRecord MakeSpan(uint64_t trace, uint64_t id, uint64_t parent,
                         obs::SpanKind kind, sim::Time start, sim::Time end) {
  obs::SpanRecord span;
  span.trace_id = trace;
  span.span_id = id;
  span.parent_span_id = parent;
  span.kind = kind;
  span.start = start;
  span.end = end;
  return span;
}

std::string ReadFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  EXPECT_NE(f, nullptr);
  std::string content;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) content.append(buf, n);
  std::fclose(f);
  return content;
}

TEST(TracerTest, DisabledTracerRecordsNothing) {
  obs::Tracer tracer;
  EXPECT_FALSE(tracer.enabled());
  tracer.Record(MakeSpan(1, 1, 0, obs::SpanKind::kOp, 0, 10));
  EXPECT_TRUE(tracer.spans().empty());
  EXPECT_EQ(tracer.dropped(), 0u);
}

TEST(TracerTest, CapCountsDroppedInsteadOfSilentTruncation) {
  obs::Tracer tracer;
  tracer.Enable(/*max_spans=*/3);
  for (uint64_t i = 1; i <= 5; ++i) {
    tracer.Record(MakeSpan(1, i, 0, obs::SpanKind::kOp, 0, 10));
  }
  EXPECT_EQ(tracer.spans().size(), 3u);
  EXPECT_EQ(tracer.dropped(), 2u);
}

TEST(TracerTest, ClearKeepsEnabledStateAndIdCounter) {
  obs::Tracer tracer;
  tracer.Enable(16);
  const uint64_t first = tracer.NewSpanId();
  tracer.Record(MakeSpan(1, first, 0, obs::SpanKind::kOp, 0, 10));
  tracer.Clear();
  EXPECT_TRUE(tracer.enabled());
  EXPECT_TRUE(tracer.spans().empty());
  EXPECT_EQ(tracer.dropped(), 0u);
  // Ids keep advancing across Clear so spans never collide between runs.
  EXPECT_GT(tracer.NewSpanId(), first);
}

TEST(TracerTest, ChromeTraceExportIsWellFormed) {
  obs::Tracer tracer;
  tracer.Enable(16);
  tracer.Record(MakeSpan(7, 1, 0, obs::SpanKind::kOp, sim::Millis(1),
                         sim::Millis(5)));
  tracer.Record(MakeSpan(7, 2, 1, obs::SpanKind::kAttempt, sim::Millis(1),
                         sim::Millis(5)));
  const std::string path = "obs_test_trace.json";
  ASSERT_TRUE(obs::WriteChromeTrace(tracer, nullptr, path));
  const std::string json = ReadFile(path);
  std::remove(path.c_str());
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"op\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"attempt\""), std::string::npos);
  // Timestamps are microseconds: 1 ms → 1000 µs.
  EXPECT_NE(json.find("\"ts\":1000.000"), std::string::npos);
  // One row per trace id, and each span names itself and its parent.
  EXPECT_NE(json.find("\"tid\":7"), std::string::npos);
  EXPECT_NE(json.find("\"span\":2,\"parent\":1"), std::string::npos);
  EXPECT_EQ(json.back(), '\n');
}

TEST(TracerTest, SpanTreeCheckFindsBrokenParentsAndCountsOpenOps) {
  std::vector<obs::SpanRecord> spans = {
      MakeSpan(7, 1, 0, obs::SpanKind::kOp, sim::Millis(1), sim::Millis(5)),
      MakeSpan(7, 2, 1, obs::SpanKind::kAttempt, sim::Millis(1),
               sim::Millis(5)),
      MakeSpan(7, 3, 2, obs::SpanKind::kWire, sim::Millis(2), sim::Millis(3)),
      // Trace 8 recorded no op span: its wire span is left unchecked.
      MakeSpan(8, 4, 99, obs::SpanKind::kWire, sim::Millis(2),
               sim::Millis(3)),
  };
  obs::SpanTreeCheck check = obs::CheckSpanTree(spans);
  EXPECT_EQ(check.finished_ops, 1u);
  EXPECT_EQ(check.violations, 0u);
  EXPECT_EQ(check.unchecked, 1u);
  EXPECT_TRUE(check.first_violation.empty());

  // A wire span of the finished op whose parent was never recorded.
  spans.push_back(MakeSpan(7, 5, 42, obs::SpanKind::kWire, sim::Millis(2),
                           sim::Millis(3)));
  check = obs::CheckSpanTree(spans);
  EXPECT_EQ(check.violations, 1u);
  EXPECT_NE(check.first_violation.find("span 5 (wire, trace 7)"),
            std::string::npos);
}

TEST(DecisionLogTest, ReasonNamesAreDistinctAndStable) {
  EXPECT_EQ(obs::ToString(obs::BalanceReason::kLatencyRatioUp),
            "latency_ratio_up");
  EXPECT_EQ(obs::ToString(obs::BalanceReason::kStaleGateZero),
            "stale_gate_zero");
  // All eight names are distinct (the CSV and CLI key on them).
  std::vector<std::string> names;
  for (int r = 0; r < 8; ++r) {
    names.emplace_back(
        obs::ToString(static_cast<obs::BalanceReason>(r)));
  }
  for (size_t i = 0; i < names.size(); ++i) {
    for (size_t j = i + 1; j < names.size(); ++j) {
      EXPECT_NE(names[i], names[j]);
    }
  }
}

TEST(ControllerReasonTest, StepControllerReportsBranch) {
  core::StepController controller;
  core::BalancerConfig config;
  core::ControlInputs inputs;
  inputs.latest_fraction = 0.5;
  obs::BalanceReason reason = obs::BalanceReason::kNone;

  inputs.ratio_valid = false;
  controller.NextFraction(inputs, config, &reason);
  EXPECT_EQ(reason, obs::BalanceReason::kNoEvidence);

  inputs.ratio_valid = true;
  inputs.ratio = config.high_ratio + 0.5;
  EXPECT_DOUBLE_EQ(controller.NextFraction(inputs, config, &reason), 0.6);
  EXPECT_EQ(reason, obs::BalanceReason::kLatencyRatioUp);

  inputs.ratio = config.low_ratio - 0.25;
  EXPECT_DOUBLE_EQ(controller.NextFraction(inputs, config, &reason), 0.4);
  EXPECT_EQ(reason, obs::BalanceReason::kLatencyRatioDown);

  inputs.ratio = 1.0;  // dead band
  inputs.history_flat = true;
  EXPECT_DOUBLE_EQ(controller.NextFraction(inputs, config, &reason), 0.4);
  EXPECT_EQ(reason, obs::BalanceReason::kDownwardProbe);

  inputs.history_flat = false;
  EXPECT_DOUBLE_EQ(controller.NextFraction(inputs, config, &reason), 0.5);
  EXPECT_EQ(reason, obs::BalanceReason::kHold);

  // A null reason out-param stays legal (every existing call site).
  EXPECT_DOUBLE_EQ(controller.NextFraction(inputs, config), 0.5);
}

TEST(ControllerReasonTest, ProportionalControllerReportsBranch) {
  core::ProportionalController controller;
  core::BalancerConfig config;
  core::ControlInputs inputs;
  inputs.latest_fraction = 0.5;
  inputs.ratio_valid = true;
  obs::BalanceReason reason = obs::BalanceReason::kNone;

  inputs.ratio = 2.0;
  controller.NextFraction(inputs, config, &reason);
  EXPECT_EQ(reason, obs::BalanceReason::kLatencyRatioUp);

  inputs.ratio = 0.3;
  controller.NextFraction(inputs, config, &reason);
  EXPECT_EQ(reason, obs::BalanceReason::kLatencyRatioDown);

  inputs.ratio = 1.0;  // dead band: drift plays the probe's role
  controller.NextFraction(inputs, config, &reason);
  EXPECT_EQ(reason, obs::BalanceReason::kDownwardProbe);

  core::BalancerConfig no_probe = config;
  no_probe.downward_probe = false;
  controller.NextFraction(inputs, no_probe, &reason);
  EXPECT_EQ(reason, obs::BalanceReason::kHold);
}

TEST(MetricsRegistryTest, SamplesScalarsAndHistograms) {
  obs::MetricsRegistry registry;
  double gauge_value = 1.5;
  uint64_t counter_value = 4;
  uint64_t other_node_value = 100;
  metrics::Histogram latency;
  registry.RegisterGauge("fraction", "fraction", {},
                         [&] { return gauge_value; });
  registry.RegisterCounter("ops", "ops", {{"node", "2"}},
                           [&] { return double(counter_value); });
  registry.RegisterCounter("ops", "ops", {{"node", "3"}},
                           [&] { return double(other_node_value); });
  registry.RegisterHistogram("latency", "ms", {{"pref", "primary"}},
                             &latency, 1.0);
  EXPECT_EQ(registry.series_count(), 4u);

  registry.Sample(sim::Seconds(1));
  gauge_value = 2.5;
  counter_value = 10;
  latency.Add(4.0);
  latency.Add(8.0);
  registry.Sample(sim::Seconds(2));
  counter_value = 13;
  registry.Sample(sim::Seconds(3));
  EXPECT_EQ(registry.samples_taken(), 3u);

  // Per-period values: a gauge as sampled, a counter diffed against the
  // previous sample (the first against 0), and labels select the series.
  EXPECT_EQ(registry.PerPeriod("fraction"),
            (std::vector<double>{1.5, 2.5, 2.5}));
  EXPECT_EQ(registry.PerPeriod("ops", {{"node", "2"}}),
            (std::vector<double>{4, 6, 3}));
  EXPECT_EQ(registry.PerPeriod("ops", {{"node", "3"}}),
            (std::vector<double>{100, 0, 0}));

  const std::string path = "obs_test_metrics.json";
  ASSERT_TRUE(registry.WriteJson(path));
  const std::string json = ReadFile(path);
  std::remove(path.c_str());
  EXPECT_NE(json.find("\"name\":\"fraction\""), std::string::npos);
  EXPECT_NE(json.find("\"type\":\"gauge\""), std::string::npos);
  EXPECT_NE(json.find("\"type\":\"counter\""), std::string::npos);
  EXPECT_NE(json.find("\"type\":\"histogram\""), std::string::npos);
  EXPECT_NE(json.find("\"node\":\"2\""), std::string::npos);
  EXPECT_NE(json.find("\"pref\":\"primary\""), std::string::npos);
  EXPECT_NE(json.find("2.5"), std::string::npos);
}

TEST(MetricsRegistryTest, OpenMetricsExportIsWellFormed) {
  obs::MetricsRegistry registry;
  double fraction = 0.4;
  uint64_t ops = 7;
  metrics::Histogram latency;
  registry.RegisterGauge("balance fraction", "fraction", {},
                         [&] { return fraction; });
  // A label value exercising every escape: backslash, quote, newline.
  registry.RegisterCounter("ops", "ops", {{"node", "a\\b\"c\nd"}},
                           [&] { return double(ops); });
  registry.RegisterHistogram("read latency", "ms", {{"pref", "secondary"}},
                             &latency, 1.0);
  latency.Add(4.0);
  latency.Add(8.0);
  registry.Sample(sim::Seconds(10));

  const std::string path = "obs_test_metrics.om";
  ASSERT_TRUE(registry.WriteOpenMetrics(path));
  const std::string text = ReadFile(path);
  std::remove(path.c_str());

  // Metric names sanitized with the unit suffix deduplicated ("balance
  // fraction" + unit "fraction" stays balance_fraction), families
  // typed/united/helped, counter samples suffixed _total, label escapes
  // applied, EOF terminator last.
  EXPECT_NE(text.find("# TYPE balance_fraction gauge"), std::string::npos);
  EXPECT_NE(text.find("# UNIT balance_fraction fraction"),
            std::string::npos);
  EXPECT_NE(text.find("# HELP balance_fraction"), std::string::npos);
  EXPECT_NE(text.find("balance_fraction 0.4 10.000"), std::string::npos);
  EXPECT_NE(text.find("# TYPE ops_ops counter"), std::string::npos);
  EXPECT_NE(text.find("ops_ops_total{node=\"a\\\\b\\\"c\\nd\"} 7"),
            std::string::npos);
  // Histograms export as summaries with quantile samples + count + sum.
  EXPECT_NE(text.find("# TYPE read_latency_ms summary"), std::string::npos);
  EXPECT_NE(text.find("quantile=\"0.8\""), std::string::npos);
  EXPECT_NE(text.find("read_latency_ms_count{pref=\"secondary\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("read_latency_ms_sum"), std::string::npos);
  const size_t eof = text.rfind("# EOF\n");
  ASSERT_NE(eof, std::string::npos);
  EXPECT_EQ(eof + 6, text.size());  // nothing after the terminator
}

TEST(MetricsRegistryTest, CsvExportIsLongFormat) {
  obs::MetricsRegistry registry;
  double fraction = 0.4;
  metrics::Histogram latency;
  registry.RegisterGauge("fraction", "fraction", {{"shard", "1"}},
                         [&] { return fraction; });
  registry.RegisterHistogram("latency", "ms", {}, &latency, 1.0);
  latency.Add(4.0);
  registry.Sample(sim::Seconds(10));
  fraction = 0.6;
  registry.Sample(sim::Seconds(20));

  const std::string path = "obs_test_metrics.csv";
  ASSERT_TRUE(registry.WriteCsv(path));
  const std::string csv = ReadFile(path);
  std::remove(path.c_str());

  EXPECT_EQ(csv.rfind("# units:", 0), 0u);  // units comment line first
  EXPECT_NE(csv.find("time_s,name,type,unit,labels,value"),
            std::string::npos);
  EXPECT_NE(csv.find("10.0,fraction,gauge,fraction,shard=1,0.4"),
            std::string::npos);
  EXPECT_NE(csv.find("20.0,fraction,gauge,fraction,shard=1,0.6"),
            std::string::npos);
  EXPECT_NE(csv.find("latency_count"), std::string::npos);
  EXPECT_NE(csv.find("latency_p80"), std::string::npos);
}

TEST(HtmlReportTest, RendersSelfContainedDashboard) {
  obs::ReportData data;
  data.title = "test run";
  data.subtitle = "controller x";
  data.stats.push_back({"Reads/s", "1234"});
  obs::ReportPanel panel;
  panel.title = "Read throughput";
  panel.unit = "ops/s";
  obs::ReportSeries all{"all reads", {{0, 10}, {10, 20}, {20, 15}}};
  obs::ReportSeries secondary{"secondary", {{0, 5}, {10, 12}, {20, 9}}};
  panel.series.push_back(all);
  panel.series.push_back(secondary);
  data.panels.push_back(panel);
  obs::ReportLane lane;
  lane.name = "freshness";
  lane.bands.push_back({5, 12, "page", "freshness page fired"});
  data.alert_lanes.push_back(lane);
  data.markers.push_back({8, "gate 0.40 -> 0.00"});

  const std::string path = "obs_test_report.html";
  ASSERT_TRUE(obs::WriteHtmlReport(data, path));
  const std::string html = ReadFile(path);
  std::remove(path.c_str());

  // Self-contained: no scripts, no external fetches.
  EXPECT_EQ(html.find("<script"), std::string::npos);
  EXPECT_EQ(html.find("http://"), std::string::npos);
  EXPECT_EQ(html.find("https://"), std::string::npos);
  // Title, stat tile, panel with an SVG polyline per series, a legend
  // (two series), the alert band, and dark-mode CSS are all present.
  EXPECT_NE(html.find("test run"), std::string::npos);
  EXPECT_NE(html.find("1234"), std::string::npos);
  EXPECT_NE(html.find("Read throughput"), std::string::npos);
  EXPECT_NE(html.find("<svg"), std::string::npos);
  EXPECT_NE(html.find("polyline"), std::string::npos);
  EXPECT_NE(html.find("all reads"), std::string::npos);
  EXPECT_NE(html.find("freshness page fired"), std::string::npos);
  EXPECT_NE(html.find("prefers-color-scheme: dark"), std::string::npos);
}

TEST(ChromeTraceTest, SloEventsBecomeInstantMarkers) {
  obs::Tracer tracer;
  std::vector<obs::SloEvent> events;
  obs::SloEvent event;
  event.at = sim::Seconds(42);
  event.slo = "freshness";
  event.severity = obs::SloSeverity::kPage;
  event.transition = obs::SloTransition::kFiring;
  event.burn_long = 12.5;
  events.push_back(event);

  const std::string path = "obs_test_slo_trace.json";
  ASSERT_TRUE(obs::WriteChromeTrace(tracer, nullptr, &events, path));
  const std::string json = ReadFile(path);
  std::remove(path.c_str());
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"slo\""), std::string::npos);
  EXPECT_NE(json.find("slo freshness firing (page)"), std::string::npos);
}

/// Full-stack rig with the tracer attached, mirroring how Experiment
/// wires it (always attached, enabled on demand).
class ObsE2eTest : public ::testing::Test {
 protected:
  void SetUp() override {
    repl::ReplicaSetParams params;
    server::ServerParams server_params;
    server_params.service.sigma = 0.0;
    network_ = std::make_unique<net::Network>(&loop_, sim::Rng(1));
    const net::HostId c = network_->AddHost("client");
    std::vector<net::HostId> hosts;
    for (int i = 0; i < 3; ++i) {
      hosts.push_back(network_->AddHost("n" + std::to_string(i)));
      network_->SetLink(c, hosts[i], sim::Millis(1), 0);
    }
    rs_ = std::make_unique<repl::ReplicaSet>(&loop_, sim::Rng(2),
                                             network_.get(), params,
                                             server_params, hosts);
    client_ = std::make_unique<driver::MongoClient>(
        &loop_, sim::Rng(3), rs_->command_bus(), c, driver::ClientOptions{});
    rs_->SetTracer(&tracer_);
    client_->SetTracer(&tracer_);
    rs_->Start();
  }

  size_t CountKind(obs::SpanKind kind) const {
    size_t n = 0;
    for (const obs::SpanRecord& s : tracer_.spans()) n += s.kind == kind;
    return n;
  }

  sim::EventLoop loop_;
  obs::Tracer tracer_;
  std::unique_ptr<net::Network> network_;
  std::unique_ptr<repl::ReplicaSet> rs_;
  std::unique_ptr<driver::MongoClient> client_;
};

TEST_F(ObsE2eTest, ReadDecomposesIntoNestedSpans) {
  tracer_.Enable(1024);
  bool done = false;
  client_->Read(
      driver::ReadPreference::kPrimary, server::OpClass::kPointRead,
      [](const store::Database&) {},
      [&](const driver::OpResult& r) {
        EXPECT_TRUE(r.ok);
        done = true;
      });
  loop_.RunUntil(sim::Seconds(2));
  ASSERT_TRUE(done);

  ASSERT_EQ(CountKind(obs::SpanKind::kOp), 1u);
  EXPECT_EQ(CountKind(obs::SpanKind::kAttempt), 1u);
  EXPECT_EQ(CountKind(obs::SpanKind::kCheckout), 1u);
  EXPECT_EQ(CountKind(obs::SpanKind::kWire), 2u);  // request + reply
  EXPECT_EQ(CountKind(obs::SpanKind::kServerService), 1u);

  const obs::SpanRecord* op = nullptr;
  const obs::SpanRecord* attempt = nullptr;
  for (const obs::SpanRecord& s : tracer_.spans()) {
    if (s.kind == obs::SpanKind::kOp) op = &s;
    if (s.kind == obs::SpanKind::kAttempt) attempt = &s;
  }
  ASSERT_NE(op, nullptr);
  ASSERT_NE(attempt, nullptr);
  EXPECT_EQ(op->parent_span_id, 0u);
  EXPECT_EQ(attempt->parent_span_id, op->span_id);
  for (const obs::SpanRecord& s : tracer_.spans()) {
    EXPECT_EQ(s.trace_id, op->trace_id);
    EXPECT_GE(s.start, op->start);
    if (s.kind == obs::SpanKind::kCheckout) {
      EXPECT_EQ(s.parent_span_id, attempt->span_id);
      EXPECT_LE(s.end, attempt->end);
    }
    if (s.kind == obs::SpanKind::kWire ||
        s.kind == obs::SpanKind::kServerService) {
      EXPECT_EQ(s.parent_span_id, attempt->span_id);
    }
  }
}

TEST_F(ObsE2eTest, MajorityWriteRecordsCommitWaitSpan) {
  tracer_.Enable(1024);
  bool done = false;
  client_->Write(
      server::OpClass::kInsert,
      [](repl::TxnContext* ctx) {
        ctx->Insert("t", doc::Value::Doc({{"_id", 1}}));
      },
      [&](const driver::OpResult& r) {
        EXPECT_TRUE(r.committed);
        done = true;
      },
      repl::WriteConcern::kMajority);
  loop_.RunUntil(sim::Seconds(5));
  ASSERT_TRUE(done);

  ASSERT_EQ(CountKind(obs::SpanKind::kCommitWait), 1u);
  const obs::SpanRecord* op = nullptr;
  const obs::SpanRecord* commit = nullptr;
  for (const obs::SpanRecord& s : tracer_.spans()) {
    if (s.kind == obs::SpanKind::kOp) op = &s;
    if (s.kind == obs::SpanKind::kCommitWait) commit = &s;
  }
  ASSERT_NE(op, nullptr);
  ASSERT_NE(commit, nullptr);
  // The repl layer records the replication slice against the same trace.
  EXPECT_EQ(commit->trace_id, op->trace_id);
  EXPECT_GT(commit->end, commit->start);
  EXPECT_LE(commit->end, op->end);
}

TEST_F(ObsE2eTest, AttachedButDisabledTracerStaysEmpty) {
  // The Experiment attaches the tracer unconditionally; when not enabled
  // the run must record nothing (this is the bench's trace_overhead_off
  // configuration, and what keeps determinism goldens bit-identical).
  bool done = false;
  client_->Read(
      driver::ReadPreference::kNearest, server::OpClass::kPointRead,
      [](const store::Database&) {},
      [&](const driver::OpResult& r) {
        EXPECT_TRUE(r.ok);
        done = true;
      });
  loop_.RunUntil(sim::Seconds(2));
  ASSERT_TRUE(done);
  EXPECT_TRUE(tracer_.spans().empty());
  EXPECT_EQ(tracer_.dropped(), 0u);
}

}  // namespace
}  // namespace dcg
