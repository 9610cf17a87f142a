#ifndef DCG_EXP_EXPERIMENT_H_
#define DCG_EXP_EXPERIMENT_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/client_stack.h"
#include "driver/client.h"
#include "exp/client_pool.h"
#include "fault/fault_injector.h"
#include "metrics/histogram.h"
#include "net/network.h"
#include "obs/metrics_registry.h"
#include "obs/slo.h"
#include "obs/trace.h"
#include "repl/replica_set.h"
#include "shard/sharded_cluster.h"
#include "sim/event_loop.h"
#include "workload/s_workload.h"
#include "workload/tpcc.h"
#include "workload/workload.h"
#include "workload/ycsb.h"

namespace dcg::exp {

/// Which system routes the read-only transactions (§4.1.3).
enum class SystemType {
  kDecongestant,
  kPrimary,    // baseline: Read Preference hard-coded to primary
  kSecondary,  // baseline: hard-coded to secondary
};

std::string_view ToString(SystemType type);

enum class WorkloadKind { kYcsb, kTpcc };

/// One workload phase. The first phase applies at t=0; later phases change
/// the client count and/or the YCSB mix at their start time (the dynamic
/// workloads of §4.2).
struct Phase {
  sim::Duration at = 0;
  int clients = 0;
  double ycsb_read_proportion = 0.5;  // ignored for TPC-C
};

/// Length of one report period: rows, registry samples and SLO
/// evaluations all close on this cadence.
inline constexpr sim::Duration kReportPeriod = sim::Seconds(10);

/// Full experiment description: cluster, system under test, workload
/// schedule, and measurement settings.
struct ExperimentConfig {
  uint64_t seed = 42;
  SystemType system = SystemType::kDecongestant;

  WorkloadKind kind = WorkloadKind::kYcsb;
  workload::YcsbConfig ycsb;
  workload::TpccConfig tpcc;
  std::vector<Phase> phases;  // at least one, first with at == 0

  sim::Duration duration = sim::Seconds(300);
  /// Excluded from Summarize() (the paper excludes the first 100 s).
  sim::Duration warmup = sim::Seconds(100);

  /// Every Read Balancer the run builds (one per shard in sharded mode)
  /// uses these parameters, controller included; the fixed-preference
  /// baselines build none.
  core::BalancerConfig balancer;
  repl::ReplicaSetParams repl;
  server::ServerParams server;
  driver::ClientOptions client_options;

  /// Sharded mode: shards >= 2 swaps the single replica set for a
  /// shard::ShardedCluster — N replica-set shards behind a bus-routed
  /// mongos, per-shard Read Balancers joined to one client-wide
  /// StalenessBudget (stale_bound_seconds applies cluster-wide). The
  /// default (1) keeps the classic single-replica-set path untouched.
  /// Sharded runs support YCSB only and no fault schedule.
  int shards = 1;
  shard::ShardKeyPattern shard_key;
  /// Ranged shard key only: strictly ascending chunk split points.
  std::vector<doc::Value> split_points;

  bool run_s_workload = true;

  /// Fault timeline injected into the run (empty = healthy run). Events
  /// target replica-set node indexes; see fault::ParseFaultSpec for the
  /// sim_cli string form.
  fault::FaultSchedule faults;

  /// Service-level objectives evaluated once per report period (sim_cli
  /// --slo, obs::ParseSloSpecs). Empty (the default) builds no engine at
  /// all — the golden path runs the exact same event sequence. With specs
  /// present the engine is fed from the unified op-completion path and
  /// evaluated inside the existing period-close event, so it still
  /// schedules nothing of its own. Freshness objectives become per-shard
  /// trackers over the shard staleness signal when shards >= 2.
  std::vector<obs::SloSpec> slos;

  /// Enables per-op span tracing (sim_cli --trace-out). The tracer is
  /// always *attached* to the stack — off by default, so the disabled-path
  /// overhead is exactly what bench_baseline's trace_overhead_off measures.
  bool trace = false;
  size_t trace_max_spans = obs::Tracer::kDefaultMaxSpans;

  /// Client-to-node base RTTs (availability-zone layout: the client host
  /// shares AZ-a with node 0).
  std::vector<sim::Duration> client_node_rtt = {
      sim::Millis(0.4), sim::Millis(1.2), sim::Millis(1.6)};
};

/// The TPC-C disk profile: checkpoint flush bandwidth in bytes/s (a tenth
/// of ServerParams' default). The paper's TPC-C runs saturate EBS during
/// checkpoints (§4.5), which is what produces the >15 s flushes that
/// stall getMore and grow staleness past the bound.
inline constexpr double kTpccCheckpointDiskBw = 2.0e6;

/// Per-report-period measurements — one row per 10 s, matching the time
/// series the paper's figures plot. Every other per-period signal lives
/// in the metrics registry (MetricsRegistry::PerPeriod), sampled in the
/// same period-close event.
struct PeriodRow {
  sim::Time start = 0;
  sim::Time end = 0;
  uint64_t reads = 0;             // read-only transactions completed
  uint64_t reads_secondary = 0;   // ... of which served by a secondary
  uint64_t writes = 0;
  metrics::Histogram read_latency;  // ns, all read-only txns
  uint64_t stock_level = 0;         // TPC-C only
  metrics::Histogram stock_level_latency;  // ns
  metrics::Histogram s_staleness;   // seconds, S-workload samples
  int64_t est_staleness_max_s = 0;  // max serverStatus estimate in period
  // Published fraction at period end; 0 / 1 for the Primary / Secondary
  // baselines, which route every read one way.
  double balance_fraction = 0.0;
  // Served-read age of information: for every completed read, the true
  // staleness of the serving node when the read finished (0 for the
  // primary). Stored in milliseconds for sub-second resolution;
  // single-replica-set runs only (empty in sharded mode, where the
  // serving node sits behind the router).
  metrics::Histogram served_age;

  double ReadThroughput() const;
  double SecondaryPercent() const;
  double P80ReadLatencyMs() const;
};

/// A point on a staleness time series (Figures 8-10).
struct StalenessPoint {
  sim::Time at = 0;
  double estimate_s = -1;  // serverStatus-based estimate (-1: none taken)
  double true_max_s = 0;   // simulator ground truth
};

/// Whole-run aggregates over [warmup, duration) (the paper's single-point
/// experiments, Figures 5-7 and 11).
struct Summary {
  double read_throughput = 0;    // read-only txns / s
  double p80_read_latency_ms = 0;
  double secondary_percent = 0;
  double p80_staleness_s = 0;    // S-workload P80
  double max_staleness_s = 0;    // S-workload max
  double stock_level_throughput = 0;
  double p80_stock_level_latency_ms = 0;
  double write_throughput = 0;
  uint64_t total_reads = 0;
  uint64_t total_writes = 0;
  /// Age-of-information aggregates over the served-read age histograms
  /// (seconds; 0 when no ages were recorded — e.g. sharded mode).
  double mean_served_age_s = 0;
  double max_served_age_s = 0;
  /// S-workload samples (after warmup) that exceeded the staleness bound
  /// — what the paper promises stays at ~0 for Decongestant. 0 when the
  /// bound is disabled.
  uint64_t bound_violations = 0;
};

/// Builds the full stack — event loop, network, replica set, client system
/// (core::ClientStack: driver, routing policy, + Read Balancer for
/// Decongestant), workload, client pool, S workload — runs it, and
/// collects the paper's measurements.
class Experiment {
 public:
  explicit Experiment(ExperimentConfig config);
  ~Experiment();

  Experiment(const Experiment&) = delete;
  Experiment& operator=(const Experiment&) = delete;

  /// Runs the configured duration of simulated time.
  void Run();

  const std::vector<PeriodRow>& rows() const { return rows_; }
  const std::vector<StalenessPoint>& staleness_series() const {
    return staleness_series_;
  }
  /// Individual S-workload samples (time, staleness seconds).
  const std::vector<std::pair<sim::Time, double>>& s_samples() const {
    return s_samples_;
  }

  Summary Summarize() const;

  /// Registers an extra per-operation observer, called (after internal
  /// accounting) for every completed workload op. The chaos harness uses
  /// this to check per-read freshness invariants in-line.
  void SetOpObserver(std::function<void(const workload::OpOutcome&)> observer) {
    op_observer_ = std::move(observer);
  }

  // Introspection for tests and benches.
  sim::EventLoop& loop() { return loop_; }
  net::Network& network() { return *network_; }
  repl::ReplicaSet& replica_set() { return *rs_; }
  /// The client whose op counters / pool / RTTs the run reports: the
  /// plain driver in single-replica-set mode, the client→router driver in
  /// sharded mode.
  driver::MongoClient& client() {
    return cluster_ != nullptr ? cluster_->top_client() : stack_->client();
  }
  /// True when config.shards >= 2 built a sharded cluster.
  bool sharded() const { return cluster_ != nullptr; }
  /// The sharded stack (null in single-replica-set mode).
  shard::ShardedCluster* sharded_cluster() { return cluster_.get(); }
  const shard::ShardedCluster* sharded_cluster() const {
    return cluster_.get();
  }
  /// The single-replica-set Read Balancer; null for the fixed-preference
  /// baselines and in sharded mode (see sharded_cluster()->balancer(s)).
  core::ReadBalancer* balancer() {
    return stack_ != nullptr ? stack_->balancer() : nullptr;
  }
  const core::ReadBalancer* balancer() const {
    return stack_ != nullptr ? stack_->balancer() : nullptr;
  }
  /// The published Balance Fraction: 0 or 1 for the fixed-preference
  /// baselines, the max across shards in sharded mode.
  double balance_fraction() const;
  workload::YcsbWorkload* ycsb() { return ycsb_; }
  workload::TpccWorkload* tpcc() { return tpcc_; }
  fault::FaultInjector& fault_injector() { return *injector_; }
  ClientPool& pool() { return *pool_; }
  const ExperimentConfig& config() const { return config_; }

  /// The run's span tracer — attached to driver + replica set whether or
  /// not config.trace enabled it. Export with obs::WriteChromeTrace.
  const obs::Tracer& tracer() const { return tracer_; }
  obs::Tracer& tracer() { return tracer_; }
  /// Unified metric series, sampled once per report period.
  const obs::MetricsRegistry& metrics_registry() const { return registry_; }
  /// Balancer decision log; null for the fixed-preference baselines.
  const obs::DecisionLog* balancer_decisions() const {
    return balancer() == nullptr ? nullptr : &balancer()->decisions();
  }
  /// SLO engine; null unless config.slos requested objectives.
  const obs::SloEngine* slo_engine() const { return slo_.get(); }

 private:
  void OnOp(const workload::OpOutcome& outcome);
  void ClosePeriod();
  void SampleStaleness();
  /// Ground truth: the worst replica set's true staleness.
  sim::Duration MaxTrueStaleness() const;
  void RegisterMetrics();

  ExperimentConfig config_;
  sim::EventLoop loop_;
  std::unique_ptr<net::Network> network_;
  std::unique_ptr<repl::ReplicaSet> rs_;
  /// The client system of a single-replica-set run.
  std::unique_ptr<core::ClientStack> stack_;
  /// Sharded mode only; rs_ and stack_ stay null when this is set.
  std::unique_ptr<shard::ShardedCluster> cluster_;
  /// Every client system the run routes reads through: stack_, or the
  /// router's per-shard stacks.
  std::vector<core::ClientStack*> stacks_;
  /// Sharded mode: the client→router leg always reads the router, which
  /// hello reports as primary.
  core::RoutingPolicy router_leg_policy_{driver::ReadPreference::kPrimary};
  std::unique_ptr<workload::Workload> workload_;
  workload::YcsbWorkload* ycsb_ = nullptr;
  workload::TpccWorkload* tpcc_ = nullptr;
  /// One S workload per client system, each probing through that stack's
  /// client (samples merge into the one client-wide series).
  std::vector<std::unique_ptr<workload::SWorkload>> s_workloads_;
  std::unique_ptr<fault::FaultInjector> injector_;
  std::unique_ptr<ClientPool> pool_;
  std::function<void(const workload::OpOutcome&)> op_observer_;

  obs::Tracer tracer_;
  obs::MetricsRegistry registry_;
  /// Built only when config.slos is non-empty; fed from OnOp, advanced in
  /// ClosePeriod.
  std::unique_ptr<obs::SloEngine> slo_;
  /// Cumulative read latency per requested Read Preference, fed from
  /// OnOp; registered as histogram series.
  metrics::Histogram pref_read_latency_[5];
  /// Cumulative served-read age (ms) per requested Read Preference and
  /// per serving node, fed from OnOp (single replica-set mode only).
  /// Sized once in the constructor — registered histogram series hold
  /// pointers into the vector.
  metrics::Histogram pref_served_age_[5];
  std::vector<metrics::Histogram> node_served_age_;

  std::vector<PeriodRow> rows_;
  PeriodRow current_;
  std::vector<StalenessPoint> staleness_series_;
  std::vector<std::pair<sim::Time, double>> s_samples_;
};

}  // namespace dcg::exp

#endif  // DCG_EXP_EXPERIMENT_H_
