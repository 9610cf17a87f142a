#include "exp/experiment.h"

#include <algorithm>
#include <functional>
#include <utility>

#include "util/check.h"

namespace dcg::exp {

std::string_view ToString(SystemType type) {
  switch (type) {
    case SystemType::kDecongestant:
      return "decongestant";
    case SystemType::kPrimary:
      return "primary";
    case SystemType::kSecondary:
      return "secondary";
  }
  return "unknown";
}

namespace {

/// The §4.1.3 baselines hard-code their Read Preference; Decongestant
/// routes by the Balance Fraction.
core::Routing RoutingFor(SystemType system) {
  switch (system) {
    case SystemType::kPrimary:
      return driver::ReadPreference::kPrimary;
    case SystemType::kSecondary:
      return driver::ReadPreference::kSecondary;
    case SystemType::kDecongestant:
      break;
  }
  return core::kBalanced;
}

}  // namespace

double PeriodRow::ReadThroughput() const {
  const double seconds = sim::ToSeconds(end - start);
  return seconds <= 0 ? 0 : static_cast<double>(reads) / seconds;
}

double PeriodRow::SecondaryPercent() const {
  return reads == 0 ? 0
                    : 100.0 * static_cast<double>(reads_secondary) /
                          static_cast<double>(reads);
}

double PeriodRow::P80ReadLatencyMs() const {
  return read_latency.Percentile(80) / static_cast<double>(sim::kMillisecond);
}

Experiment::Experiment(ExperimentConfig config)
    : config_(std::move(config)), rng_(config_.seed) {
  DCG_CHECK_MSG(!config_.phases.empty(), "need at least one phase");
  DCG_CHECK_MSG(config_.phases.front().at == 0, "first phase must start at 0");

  // --- Topology: client host, then either one replica set or a sharded
  // cluster (router + N replica-set shards) behind it. ---
  network_ = std::make_unique<net::Network>(&loop_, rng_.Fork());
  const net::HostId client_host = network_->AddHost("client-host");
  if (config_.shards >= 2) {
    DCG_CHECK_MSG(config_.kind == WorkloadKind::kYcsb,
                  "sharded mode supports the YCSB workload only");
    DCG_CHECK_MSG(config_.faults.empty(),
                  "fault schedules target the single-replica-set topology");
    shard::ShardedClusterConfig cluster_config;
    cluster_config.shards = config_.shards;
    cluster_config.shard_key = config_.shard_key;
    cluster_config.chunks_per_shard = config_.chunks_per_shard;
    cluster_config.split_points = config_.split_points;
    cluster_config.repl = config_.repl;
    cluster_config.server = config_.server;
    cluster_config.client_options = config_.client_options;
    cluster_config.balancer = config_.balancer;
    cluster_config.routing = RoutingFor(config_.system);
    cluster_config.client_node_rtt = config_.client_node_rtt;
    cluster_config.client_router_rtt = config_.client_router_rtt;
    cluster_config.inter_node_rtt = config_.inter_node_rtt;
    cluster_config.rtt_jitter = config_.rtt_jitter;
    cluster_ = std::make_unique<shard::ShardedCluster>(
        &loop_, rng_.Fork(), network_.get(), client_host, cluster_config);
    cluster_->SetTracer(&tracer_);
    last_shard_reads_.assign(static_cast<size_t>(config_.shards), 0);
    for (int s = 0; s < cluster_->shard_count(); ++s) {
      stacks_.push_back(&cluster_->router().stack(s));
    }
  } else {
    std::vector<net::HostId> node_hosts;
    const int nodes = config_.repl.secondaries + 1;
    DCG_CHECK(static_cast<int>(config_.client_node_rtt.size()) >= nodes);
    for (int i = 0; i < nodes; ++i) {
      node_hosts.push_back(network_->AddHost("db-node-" + std::to_string(i)));
      network_->SetLink(client_host, node_hosts[i],
                        config_.client_node_rtt[i], config_.rtt_jitter);
    }
    for (int i = 0; i < nodes; ++i) {
      for (int j = i + 1; j < nodes; ++j) {
        network_->SetLink(node_hosts[i], node_hosts[j],
                          config_.inter_node_rtt, config_.rtt_jitter);
      }
    }

    // --- Replica set and the client system under test. ---
    rs_ = std::make_unique<repl::ReplicaSet>(&loop_, rng_.Fork(),
                                             network_.get(), config_.repl,
                                             config_.server, node_hosts);
    stack_ = std::make_unique<core::ClientStack>(
        &loop_, &rng_, rs_->command_bus(), client_host,
        config_.client_options, config_.balancer, RoutingFor(config_.system));
    stacks_.push_back(stack_.get());

    // The tracer is attached unconditionally (so its disabled cost is what
    // production runs pay) and enabled only on request.
    rs_->SetTracer(&tracer_);
    stack_->client().SetTracer(&tracer_);
  }
  if (config_.trace) tracer_.Enable(config_.trace_max_spans);

  // --- Pre-replicated data: each replica set loads the snapshot once and
  // its other members clone it, sharing the immutable documents; in
  // sharded mode each shard loads only the records it owns (the union
  // across shards is the unsharded snapshot). ---
  auto load_replica_set = [this](repl::ReplicaSet* rs,
                                 const std::function<bool(int64_t)>& keep) {
    store::Database* db = &rs->node(0).db();
    if (config_.kind == WorkloadKind::kYcsb) {
      workload::YcsbWorkload::Load(config_.ycsb, db, keep);
    } else {
      workload::TpccWorkload::Load(config_.tpcc, db);
    }
    if (config_.run_s_workload) {
      workload::SWorkload::Load(config_.s_config, db);
    }
    for (int i = 1; i < rs->node_count(); ++i) rs->node(i).db().ResetFrom(*db);
  };
  if (sharded()) {
    for (int s = 0; s < cluster_->shard_count(); ++s) {
      load_replica_set(&cluster_->shard(s), [this, s](int64_t key) {
        return cluster_->ShardFor(doc::Value(key)) == s;
      });
    }
  } else {
    load_replica_set(rs_.get(), nullptr);
  }

  // --- Workload objects. In sharded mode the routing decision lives
  // inside the router (per-shard stacks, shared budget). ---
  driver::MongoClient* workload_client = &client();
  core::RoutingPolicy* policy =
      sharded() ? &router_leg_policy_ : &stack_->policy();
  if (config_.kind == WorkloadKind::kYcsb) {
    auto ycsb_config = config_.ycsb;
    ycsb_config.read_proportion = config_.phases.front().ycsb_read_proportion;
    ycsb_config.stamp_route = sharded();
    auto ycsb = std::make_unique<workload::YcsbWorkload>(
        workload_client, policy, ycsb_config, rng_.Fork());
    ycsb_ = ycsb.get();
    workload_ = std::move(ycsb);
  } else {
    auto tpcc = std::make_unique<workload::TpccWorkload>(
        workload_client, policy, config_.tpcc, rng_.Fork());
    tpcc_ = tpcc.get();
    workload_ = std::move(tpcc);
  }

  if (!sharded()) {
    injector_ = std::make_unique<fault::FaultInjector>(&loop_, network_.get(),
                                                       rs_.get(), client_host);
    // pool_clear faults reach the driver through this hook — the injector
    // itself never sees client internals.
    injector_->SetPoolClearHook(
        [this](int node) { stack_->client().ClearPool(node); });
  }

  pool_ = std::make_unique<ClientPool>(
      &loop_, workload_.get(),
      [this](const workload::OpOutcome& o) { OnOp(o); });

  if (config_.run_s_workload) {
    // All probe samples — one S workload per shard in sharded mode — feed
    // the same series: the client-wide staleness distribution the shared
    // budget is supposed to bound.
    auto on_sample = [this](double staleness_s) {
      // Stored in milliseconds for sub-second histogram resolution.
      current_.s_staleness.Add(staleness_s * 1000.0);
      s_samples_.emplace_back(loop_.Now(), staleness_s);
    };
    for (core::ClientStack* stack : stacks_) {
      s_workloads_.push_back(std::make_unique<workload::SWorkload>(
          &stack->client(),
          [stack] { return stack->balance_fraction() > 0.0; },
          config_.s_config, rng_.Fork(), on_sample));
    }
  }

  // Per-Read-Preference latency and served-age histograms, off the same
  // completion path the Read Balancer harvests (observers are multicast).
  // The age of a served read is the serving node's true staleness when
  // the read completed — 0 for the primary — i.e. the age-of-information
  // the client actually consumed, per preference and per node.
  if (!sharded()) {
    node_served_age_.resize(static_cast<size_t>(client().node_count()));
  }
  workload_client->AddOpObserver([this](const driver::OpResult& stats) {
    if (!stats.is_read || !stats.ok || !stats.record_latency) return;
    pref_read_latency_[static_cast<size_t>(stats.requested)].Add(
        static_cast<double>(stats.latency));
    if (sharded()) return;  // serving node is behind the router
    const int primary = rs_->primary_index();
    if (stats.node < 0 || primary < 0) return;  // election in flight
    const double age_ms =
        stats.node == primary
            ? 0.0
            : sim::ToMillis(rs_->TrueStaleness(stats.node));
    current_.served_age.Add(age_ms);
    pref_served_age_[static_cast<size_t>(stats.requested)].Add(age_ms);
    node_served_age_[static_cast<size_t>(stats.node)].Add(age_ms);
  });

  // --- SLO engine (only when objectives were requested — the golden path
  // never builds one). Cluster-wide objectives consume the per-op stream
  // in OnOp; sharded freshness instead watches each shard's staleness
  // signal, because the serving node hides behind the router. ---
  if (!config_.slos.empty()) {
    slo_ = std::make_unique<obs::SloEngine>(config_.report_period);
    for (const obs::SloSpec& spec : config_.slos) {
      if (spec.kind == obs::SloKind::kFreshness && sharded()) {
        for (int s = 0; s < cluster_->shard_count(); ++s) {
          obs::SloTracker& tracker = slo_->AddSlo(spec, s);
          if (cluster_->balancer(s) != nullptr) {
            tracker.SetSource([this, s] {
              return static_cast<double>(
                  cluster_->balancer(s)->staleness_estimate_seconds());
            });
          } else {
            tracker.SetSource([this, s] {
              return sim::ToSeconds(cluster_->shard(s).MaxTrueStaleness());
            });
          }
        }
      } else {
        slo_->AddSlo(spec);
      }
    }
  }
  RegisterMetrics();
  if (slo_ != nullptr) slo_->RegisterMetrics(&registry_);
}

Experiment::~Experiment() = default;

sim::Duration Experiment::MaxTrueStaleness() const {
  if (!sharded()) return rs_->MaxTrueStaleness();
  sim::Duration worst = 0;
  for (int s = 0; s < cluster_->shard_count(); ++s) {
    worst = std::max(worst, cluster_->shard(s).MaxTrueStaleness());
  }
  return worst;
}

double Experiment::balance_fraction() const {
  double max_fraction = 0.0;
  for (const core::ClientStack* stack : stacks_) {
    max_fraction = std::max(max_fraction, stack->balance_fraction());
  }
  return max_fraction;
}

void Experiment::RegisterMetrics() {
  // Control-plane gauges.
  if (sharded()) {
    // Per-shard control plane, plus cluster-wide rollups and the router's
    // own routing counters.
    for (int s = 0; s < cluster_->shard_count(); ++s) {
      const std::string shard = std::to_string(s);
      registry_.RegisterGauge(
          "balance_fraction", "fraction", {{"shard", shard}},
          [this, s] { return cluster_->balance_fraction(s); });
      registry_.RegisterGauge(
          "true_staleness_max", "seconds", {{"shard", shard}}, [this, s] {
            return sim::ToSeconds(cluster_->shard(s).MaxTrueStaleness());
          });
      if (cluster_->balancer(s) != nullptr) {
        registry_.RegisterGauge(
            "staleness_estimate", "seconds", {{"shard", shard}}, [this, s] {
              return static_cast<double>(
                  cluster_->balancer(s)->staleness_estimate_seconds());
            });
        registry_.RegisterGauge(
            "effective_stale_bound", "seconds", {{"shard", shard}},
            [this, s] {
              return static_cast<double>(
                  cluster_->budget().EffectiveBound(s));
            });
      }
      registry_.RegisterCounter(
          "routed_to_shard", "ops", {{"shard", shard}}, [this, s] {
            return static_cast<double>(cluster_->router().routed_to_shard(s));
          });
    }
    registry_.RegisterGauge("true_staleness_max", "seconds", {}, [this] {
      return sim::ToSeconds(MaxTrueStaleness());
    });
    registry_.RegisterCounter("router_stale_refreshes", "ops", {}, [this] {
      return static_cast<double>(cluster_->router().stale_refreshes());
    });
    registry_.RegisterCounter("router_scatter_finds", "ops", {}, [this] {
      return static_cast<double>(cluster_->router().scatter_finds());
    });
  } else {
    registry_.RegisterGauge("balance_fraction", "fraction", {},
                            [this] { return balance_fraction(); });
    registry_.RegisterGauge("true_staleness_max", "seconds", {}, [this] {
      return sim::ToSeconds(MaxTrueStaleness());
    });
  }
  if (balancer() != nullptr) {
    registry_.RegisterGauge("staleness_estimate", "seconds", {}, [this] {
      return static_cast<double>(balancer()->staleness_estimate_seconds());
    });
  }

  // Per-op outcome counters (cumulative; consumers diff across samples).
  const metrics::OpCounters& counters = client().op_counters();
  registry_.RegisterCounter("ops_ok", "ops", {},
                            [&counters] { return double(counters.ok); });
  registry_.RegisterCounter("ops_timed_out", "ops", {}, [&counters] {
    return double(counters.timed_out);
  });
  registry_.RegisterCounter("ops_retried", "ops", {}, [&counters] {
    return double(counters.retried);
  });
  registry_.RegisterCounter("retries_total", "attempts", {}, [&counters] {
    return double(counters.retries_total);
  });
  registry_.RegisterCounter("hedges_sent", "ops", {}, [&counters] {
    return double(counters.hedges_sent);
  });
  registry_.RegisterCounter("hedges_won", "ops", {}, [&counters] {
    return double(counters.hedges_won);
  });
  registry_.RegisterCounter("pool_checkouts", "checkouts", {}, [&counters] {
    return double(counters.checkouts);
  });
  registry_.RegisterCounter("pool_checkout_timeouts", "checkouts", {},
                            [&counters] {
                              return double(counters.checkout_timeouts);
                            });
  registry_.RegisterGauge("pool_queue_depth", "checkouts", {},
                          [this] { return double(client().PoolQueueDepth()); });
  registry_.RegisterCounter("envelopes_sent", "envelopes", {}, [&counters] {
    return double(counters.envelopes_sent);
  });
  registry_.RegisterCounter("ops_batched", "ops", {}, [&counters] {
    return double(counters.ops_batched);
  });
  registry_.RegisterHistogram("batch_occupancy", "ops", {},
                              &client().batch_occupancy(), 1.0);

  // Per-node RTT estimates, as the driver's server selection sees them
  // (in sharded mode the topology is one node: the router).
  for (int node = 0; node < client().node_count(); ++node) {
    registry_.RegisterGauge(
        "rtt_ewma", "ms", {{"node", std::to_string(node)}},
        [this, node] { return sim::ToMillis(client().RttEstimate(node)); });
  }

  // Read latency distribution per requested Read Preference (ns → ms).
  for (size_t pref = 0; pref < 5; ++pref) {
    registry_.RegisterHistogram(
        "read_latency", "ms",
        {{"pref",
          std::string(ToString(static_cast<driver::ReadPreference>(pref)))}},
        &pref_read_latency_[pref], 1.0 / sim::kMillisecond);
  }

  // Served-read age of information (histograms record ms; exported in
  // seconds): what age of data each preference / each node actually
  // handed to clients. Single-replica-set mode only — behind a router
  // the client cannot name the serving node.
  if (!sharded()) {
    for (size_t pref = 0; pref < 5; ++pref) {
      registry_.RegisterHistogram(
          "served_read_age", "seconds",
          {{"pref",
            std::string(ToString(static_cast<driver::ReadPreference>(pref)))}},
          &pref_served_age_[pref], 1.0 / 1000.0);
    }
    for (size_t node = 0; node < node_served_age_.size(); ++node) {
      registry_.RegisterHistogram("served_read_age", "seconds",
                                  {{"node", std::to_string(node)}},
                                  &node_served_age_[node], 1.0 / 1000.0);
    }
  }
}

void Experiment::OnOp(const workload::OpOutcome& outcome) {
  if (slo_ != nullptr) {
    slo_->ObserveOutcome(outcome.ok);
    if (outcome.ok && outcome.read_only) {
      slo_->ObserveReadLatencyMs(sim::ToMillis(outcome.latency));
      if (!sharded() && outcome.node >= 0) {
        const int primary = rs_->primary_index();
        if (primary >= 0) {
          const double age_s =
              outcome.node == primary
                  ? 0.0
                  : sim::ToSeconds(rs_->TrueStaleness(outcome.node));
          slo_->ObserveServedAge(age_s, outcome.used_secondary);
        }
      }
    }
  }
  if (outcome.ok) {
    ++current_.ops_ok;
  } else if (outcome.timed_out) {
    ++current_.ops_timed_out;
  }
  if (outcome.retries > 0) ++current_.ops_retried;
  if (outcome.hedge_won) ++current_.hedges_won;
  if (!outcome.ok) {
    // A failed op has no latency or serving node worth recording; the
    // throughput columns count only completed operations.
    if (op_observer_) op_observer_(outcome);
    return;
  }
  if (outcome.read_only) {
    ++current_.reads;
    if (outcome.used_secondary) ++current_.reads_secondary;
    current_.read_latency.Add(static_cast<double>(outcome.latency));
    if (outcome.type == "stock_level") {
      ++current_.stock_level;
      current_.stock_level_latency.Add(static_cast<double>(outcome.latency));
    }
  } else {
    ++current_.writes;
  }
  if (op_observer_) op_observer_(outcome);
}

void Experiment::SampleStaleness() {
  // Client-wide staleness is the worst replica set — in sharded mode the
  // quantity the shared StalenessBudget promises stays under the single
  // StaleBound.
  StalenessPoint point;
  point.at = loop_.Now();
  point.true_max_s = sim::ToSeconds(MaxTrueStaleness());
  int64_t est_worst = -1;
  for (const core::ClientStack* stack : stacks_) {
    if (stack->balancer() != nullptr) {
      est_worst =
          std::max(est_worst, stack->balancer()->staleness_estimate_seconds());
    }
  }
  if (est_worst >= 0) {
    point.estimate_s = static_cast<double>(est_worst);
    current_.est_staleness_max_s =
        std::max(current_.est_staleness_max_s, est_worst);
  }
  staleness_series_.push_back(point);
  loop_.ScheduleAfter(sim::Seconds(1), [this] { SampleStaleness(); });
}

void Experiment::ClosePeriod() {
  current_.end = loop_.Now();
  current_.balance_fraction = balance_fraction();
  if (sharded()) {
    for (int s = 0; s < cluster_->shard_count(); ++s) {
      current_.shard_balance_fraction.push_back(cluster_->balance_fraction(s));
      const uint64_t routed = cluster_->router().routed_to_shard(s);
      current_.shard_reads.push_back(routed -
                                     last_shard_reads_[static_cast<size_t>(s)]);
      last_shard_reads_[static_cast<size_t>(s)] = routed;
    }
  }
  const driver::pool::ConnectionPool::Stats pool_now = client().PoolTotals();
  current_.pool_checkout_timeouts =
      pool_now.checkout_timeouts - last_pool_totals_.checkout_timeouts;
  current_.pool_checkout_wait_ms =
      sim::ToMillis(pool_now.wait_total - last_pool_totals_.wait_total);
  current_.pool_queue_depth = client().PoolQueueDepth();
  last_pool_totals_ = pool_now;
  const metrics::OpCounters& ops_now = client().op_counters();
  current_.envelopes_sent =
      ops_now.envelopes_sent - last_op_counters_.envelopes_sent;
  current_.ops_batched = ops_now.ops_batched - last_op_counters_.ops_batched;
  last_op_counters_ = ops_now;
  if (balancer() != nullptr) {
    // Fold this period's balancer decisions into the row: control ticks
    // win over gate transitions (a gate event carries no fraction move).
    const auto& entries = balancer()->decisions().entries();
    bool tick_seen = false;
    for (; decision_cursor_ < entries.size(); ++decision_cursor_) {
      const obs::BalanceDecision& d = entries[decision_cursor_];
      const bool gate = d.reason == obs::BalanceReason::kStaleGateZero ||
                        d.reason == obs::BalanceReason::kStaleGateRelease;
      if (gate && tick_seen) continue;
      tick_seen = tick_seen || !gate;
      current_.balance_decided = true;
      current_.balance_from = d.from_fraction;
      current_.balance_to = d.to_fraction;
      current_.balance_reason = d.reason;
    }
  }
  if (slo_ != nullptr) {
    // Evaluate before the registry samples, so slo_sli/slo_burn gauges
    // reflect this period.
    slo_->Evaluate(loop_.Now());
    current_.slo_firing = slo_->firing_count();
    current_.slo_pending = slo_->pending_count();
    current_.slo_max_burn = slo_->max_burn();
    current_.slo_events = slo_->events().size() - slo_event_cursor_;
    slo_event_cursor_ = slo_->events().size();
  }
  registry_.Sample(loop_.Now());
  rows_.push_back(std::move(current_));
  current_ = PeriodRow{};
  current_.start = loop_.Now();
  loop_.ScheduleAfter(config_.report_period, [this] { ClosePeriod(); });
}

void Experiment::Run() {
  if (sharded()) {
    cluster_->Start();
  } else {
    rs_->Start();
    stack_->Start();
  }
  for (auto& s_workload : s_workloads_) s_workload->Start();
  if (!config_.faults.empty()) injector_->Arm(config_.faults);

  // Phase schedule.
  pool_->SetTarget(config_.phases.front().clients);
  for (size_t i = 1; i < config_.phases.size(); ++i) {
    const Phase phase = config_.phases[i];
    loop_.ScheduleAt(phase.at, [this, phase] {
      pool_->SetTarget(phase.clients);
      if (ycsb_ != nullptr) {
        ycsb_->set_read_proportion(phase.ycsb_read_proportion);
      }
    });
  }

  current_.start = loop_.Now();
  loop_.ScheduleAfter(config_.report_period, [this] { ClosePeriod(); });
  loop_.ScheduleAfter(sim::Seconds(1), [this] { SampleStaleness(); });

  loop_.RunUntil(config_.duration);
}

Summary Experiment::Summarize() const {
  Summary summary;
  metrics::Histogram read_latency;
  metrics::Histogram sl_latency;
  metrics::Histogram staleness;
  metrics::Histogram served_age;
  sim::Duration measured = 0;
  uint64_t stock_level = 0;
  for (const PeriodRow& row : rows_) {
    if (row.start < config_.warmup) continue;
    measured += row.end - row.start;
    summary.total_reads += row.reads;
    summary.total_writes += row.writes;
    stock_level += row.stock_level;
    read_latency.Merge(row.read_latency);
    sl_latency.Merge(row.stock_level_latency);
    staleness.Merge(row.s_staleness);
    served_age.Merge(row.served_age);
  }
  uint64_t secondary_reads = 0;
  for (const PeriodRow& row : rows_) {
    if (row.start < config_.warmup) continue;
    secondary_reads += row.reads_secondary;
  }
  const double seconds = sim::ToSeconds(measured);
  if (seconds > 0) {
    summary.read_throughput = static_cast<double>(summary.total_reads) / seconds;
    summary.write_throughput =
        static_cast<double>(summary.total_writes) / seconds;
    summary.stock_level_throughput =
        static_cast<double>(stock_level) / seconds;
  }
  if (summary.total_reads > 0) {
    summary.secondary_percent = 100.0 *
                                static_cast<double>(secondary_reads) /
                                static_cast<double>(summary.total_reads);
  }
  summary.p80_read_latency_ms =
      read_latency.Percentile(80) / static_cast<double>(sim::kMillisecond);
  summary.p80_stock_level_latency_ms =
      sl_latency.Percentile(80) / static_cast<double>(sim::kMillisecond);
  summary.p80_staleness_s = staleness.Percentile(80) / 1000.0;
  summary.max_staleness_s = staleness.max() / 1000.0;
  if (served_age.count() > 0) {
    summary.mean_served_age_s = served_age.mean() / 1000.0;
    summary.max_served_age_s = served_age.max() / 1000.0;
  }
  if (config_.balancer.stale_bound_seconds > 0) {
    const double bound_s =
        static_cast<double>(config_.balancer.stale_bound_seconds);
    for (const auto& [at, staleness_s] : s_samples_) {
      if (at < config_.warmup) continue;
      if (staleness_s > bound_s) ++summary.bound_violations;
    }
  }
  return summary;
}

}  // namespace dcg::exp
