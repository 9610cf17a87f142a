// Command-line experiment runner: compose your own run without writing
// C++. Prints the paper-style per-period series and a summary; optionally
// exports CSVs for plotting.
//
// Usage:
//   sim_cli [--workload=ycsb-a|ycsb-b|tpcc] [--system=decongestant|
//           primary|secondary] [--scenario=NAME] [--clients=N]
//           [--duration=SECONDS] [--warmup=SECONDS] [--seed=N]
//           [--stale-bound=SECONDS]
//           [--controller=decongestant|proportional|aoi|pid]
//           [--no-s-workload]
//           [--faults=SPEC] [--chaos-seed=N]
//           [--hedged-reads] [--op-deadline=MS] [--max-pool-size=N]
//           [--wait-queue-timeout=MS] [--batch-max-ops=N]
//           [--batch-max-delay-us=US] [--csv-prefix=PATH] [--quiet]
//           [--trace-out=PATH] [--trace-max-spans=N] [--metrics-out=PATH]
//           [--metrics-format=json|openmetrics] [--slo=SPEC]
//           [--report-out=PATH]
//           [--explain-balancer] [--shards=N] [--shard-key=hashed|ranged]
//
// --scenario loads the base run of a scenario (exp/scenario.h, the table
//   `paper_claims --scenario=NAME` runs) so a figure or a CI check can be
//   replayed and varied by name: workload, system, controller, phase
//   schedule, seed, duration and knobs. Any entry with a base run works,
//   e.g.
//     fig2  YCSB-A -> YCSB-B read-ratio jump (45 clients, switch at 69 %
//           of the run, summary over the post-switch phase)
//     fig3  load drop: YCSB-B 45 clients -> YCSB-A 5 clients at 33 %
//     fig9  TPC-C with StaleBound 10 s (checkpoint-stall sawtooth)
//     ci_driver_paths  hedging, a starved pool, batching and a lossy
//           link on the secondary system (the CI check's run)
//   Later flags override the scenario's values; phase-switch and warmup
//   times scale with the final --duration, and later phases' client
//   counts keep their ratio to --clients, so short CI runs keep the shape.
// --duration must cover at least one 10 s report period and --warmup must
//   be non-negative and end before --duration, both checked after
//   --scenario rescaling; anything else is a usage error (exit 2).
// --controller picks the Balance Fraction strategy (the controller
//   bake-off): "decongestant" is the paper's Algorithm 1 step law
//   (default), "proportional" its §6 sketch, "aoi" the
//   age-of-information-capped law, "pid" a PID on the latency ratio.
//   Every strategy ticks through the same decision log, so
//   --explain-balancer explains all of them.
//
// --faults takes a semicolon-separated fault timeline (times in seconds):
//   type@start[-end][:key=value]*   with type one of latency | loss |
//   partition | crash | restart | throttle | skew | slowdown, and keys
//   nodes=1+2, x=FLOAT, p=FLOAT, ms=FLOAT, in=1, client=1 (see
//   fault_injector.h).
// --chaos-seed generates a random fault timeline over the run instead.
// --hedged-reads mirrors eligible secondary reads to a second node after
//   a P90 delay; --op-deadline gives every operation a client-enforced
//   deadline in milliseconds (maxTimeMS).
// --max-pool-size caps the per-node connection pool (0 = unlimited, the
//   default — checkouts never queue); --wait-queue-timeout bounds how long
//   a checkout may wait for a free connection, in milliseconds (0 = wait
//   forever). A constrained pool surfaces checkout queueing in client
//   latency, which the Read Balancer then sheds to secondaries.
// --batch-max-ops enables driver-side command batching: same-node
//   attempts coalesce into one envelope of up to N commands, flushed
//   after --batch-max-delay-us microseconds (default 200) if the batch
//   does not fill first. The server charges one envelope base cost plus
//   a discounted per-op increment, raising the throughput ceiling at
//   high client counts (Fig. 5). Off unless --batch-max-ops is given.
// --trace-out enables per-op span tracing and writes a Chrome trace-event
//   JSON (load it at https://ui.perfetto.dev) decomposing every op into
//   checkout / wire / server / parking / commit-wait spans;
//   --trace-max-spans caps the buffer (default 1M spans).
// --metrics-out writes every registered metric series (counters, gauges,
//   latency histograms per Read Preference), sampled once per report
//   period. --metrics-format picks the encoding: "json" (default) or
//   "openmetrics" (the Prometheus ecosystem text exposition, with
//   # TYPE/# UNIT/# HELP lines and an # EOF terminator).
// --slo evaluates service-level objectives once per report period, with
//   SRE-style multi-window burn-rate alerting (page + ticket severities,
//   pending -> firing -> resolved). SPEC is "default" (freshness: served
//   age <= stale bound for 99 % of secondary reads; latency: read p80 <=
//   3 ms; success: 99.9 % of ops complete) or
//   semicolon-separated objectives:
//     kind[:key=value]*  with kind freshness | latency | success and keys
//     objective=F bound=X name=S page=RATE ticket=RATE window=S short=S
//     hold=S resolve=S   (page/ticket=0 disables that severity).
//   Alert transitions print after the summary, land in
//   <csv-prefix>_slo.csv and appear as instant markers in --trace-out;
//   the engine's slo_* metric series become <csv-prefix>_periods.csv
//   columns like every other registry series. With --shards>=2 the
//   freshness objective is tracked per shard over the shard's staleness
//   signal. Without --slo no engine is built and goldens are untouched.
// --report-out renders a self-contained HTML dashboard (inline SVG, no
//   scripts or external assets): throughput / latency / fraction /
//   staleness / served-age time series, per-shard panels, alert timeline
//   lanes, and balancer decision annotations.
// --shards=N (N >= 2) runs the YCSB workload against a sharded cluster:
//   N replica-set shards behind a bus-routed mongos, each shard with its
//   own Read Balancer joined to one shared client-wide staleness budget
//   (--stale-bound applies cluster-wide). Adds a per-shard summary block
//   and, with --csv-prefix, a <prefix>_shards.csv time series.
//   Incompatible with TPC-C and fault injection.
// --shard-key picks document placement: hashed _id (default, uniform) or
//   ranged (contiguous id ranges round-robin across shards — the
//   locality-skew scenario).
// --explain-balancer prints the Balancer decision log: every fraction
//   move with its Algorithm 1 inputs and reason. The decision log also
//   lands in <csv-prefix>_decisions.csv with --csv-prefix.
//
// Examples:
//   sim_cli --workload=ycsb-b --clients=45 --duration=300
//   sim_cli --workload=tpcc --system=secondary --stale-bound=3
//   sim_cli --workload=ycsb-b --faults=crash@150:node=0 --csv-prefix=/tmp/run
//   sim_cli --faults="partition@120-180:nodes=1+2;throttle@220-260:node=2:x=25"
//   sim_cli --workload=ycsb-b --chaos-seed=7
//   sim_cli --workload=ycsb-b --system=secondary --hedged-reads
//           --op-deadline=500
//   sim_cli --workload=ycsb-b --clients=150 --batch-max-ops=16
//           --batch-max-delay-us=200

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/controller.h"
#include "exp/csv_export.h"
#include "exp/experiment.h"
#include "exp/report_builder.h"
#include "exp/scenario.h"
#include "fault/fault_injector.h"
#include "obs/decision_log.h"
#include "obs/report.h"
#include "obs/slo.h"
#include "obs/trace.h"
#include "shard/sharded_cluster.h"

namespace {

bool ParseFlag(const char* arg, const char* name, std::string* value) {
  const std::string prefix = std::string("--") + name + "=";
  if (std::strncmp(arg, prefix.c_str(), prefix.size()) != 0) return false;
  *value = arg + prefix.size();
  return true;
}

[[noreturn]] void Usage(const char* what) {
  std::fprintf(stderr, "sim_cli: %s (see the header comment for usage)\n",
               what);
  std::exit(2);
}

/// The --workload value naming a scenario's base workload.
const char* WorkloadFlag(const dcg::exp::ExperimentConfig& config) {
  if (config.kind == dcg::exp::WorkloadKind::kTpcc) return "tpcc";
  return config.phases[0].ycsb_read_proportion >= 0.95 ? "ycsb-b" : "ycsb-a";
}

/// The decision a period's balancer column shows, from the period's
/// slice [begin, end) of the decision log: its last control tick, or its
/// last staleness-gate transition when no tick fell inside it (a gate
/// event carries no fraction move). Null for an empty slice.
const dcg::obs::BalanceDecision* PeriodDecision(
    const std::vector<dcg::obs::BalanceDecision>& entries, size_t begin,
    size_t end) {
  const dcg::obs::BalanceDecision* shown = nullptr;
  bool tick_seen = false;
  for (size_t i = begin; i < end; ++i) {
    const dcg::obs::BalanceDecision& d = entries[i];
    const bool gate = d.reason == dcg::obs::BalanceReason::kStaleGateZero ||
                      d.reason == dcg::obs::BalanceReason::kStaleGateRelease;
    if (gate && tick_seen) continue;
    tick_seen = tick_seen || !gate;
    shown = &d;
  }
  return shown;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dcg;

  exp::ExperimentConfig config;
  config.phases = {{0, 30, 0.5}};
  config.duration = sim::Seconds(300);
  config.warmup = sim::Seconds(100);

  std::string workload = "ycsb-a";
  std::string system = "decongestant";
  std::string controller = "decongestant";
  std::string shard_key = "hashed";

  // A scenario's base run applies first; every later flag overrides it.
  std::optional<exp::Scenario> scenario;
  bool warmup_given = false;
  int clients_given = -1;
  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (!ParseFlag(argv[i], "scenario", &value)) continue;
    scenario = exp::FindScenario(value);
    if (!scenario || !scenario->config) {
      Usage(
          "unknown --scenario (a paper_claims scenario with one base run, "
          "e.g. fig2 | fig3 | fig9)");
    }
    config = *scenario->config;
    workload = WorkloadFlag(config);
    system = exp::ToString(config.system);
    controller = config.balancer.controller;
  }
  std::string csv_prefix;
  std::string fault_spec;
  std::string trace_out;
  std::string metrics_out;
  std::string metrics_format = "json";
  std::string slo_spec;
  std::string report_out;
  uint64_t chaos_seed = 0;
  bool chaos = false;
  bool quiet = false;
  bool explain_balancer = false;

  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (ParseFlag(argv[i], "workload", &value)) {
      workload = value;
    } else if (ParseFlag(argv[i], "system", &value)) {
      system = value;
    } else if (ParseFlag(argv[i], "scenario", &value)) {
      // Applied in the pre-pass above.
    } else if (ParseFlag(argv[i], "clients", &value)) {
      clients_given = std::atoi(value.c_str());
      if (clients_given < 0) Usage("--clients needs a non-negative count");
      config.phases[0].clients = clients_given;
    } else if (ParseFlag(argv[i], "duration", &value)) {
      config.duration = sim::Seconds(std::atof(value.c_str()));
    } else if (ParseFlag(argv[i], "warmup", &value)) {
      config.warmup = sim::Seconds(std::atof(value.c_str()));
      warmup_given = true;
    } else if (ParseFlag(argv[i], "seed", &value)) {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (ParseFlag(argv[i], "stale-bound", &value)) {
      config.balancer.stale_bound_seconds = std::atoll(value.c_str());
    } else if (ParseFlag(argv[i], "controller", &value)) {
      controller = value;
    } else if (ParseFlag(argv[i], "csv-prefix", &value)) {
      csv_prefix = value;
    } else if (ParseFlag(argv[i], "faults", &value)) {
      fault_spec = value;
    } else if (ParseFlag(argv[i], "chaos-seed", &value)) {
      chaos_seed = std::strtoull(value.c_str(), nullptr, 10);
      chaos = true;
    } else if (ParseFlag(argv[i], "op-deadline", &value)) {
      config.client_options.default_op_deadline =
          sim::Millis(std::atof(value.c_str()));
    } else if (ParseFlag(argv[i], "max-pool-size", &value)) {
      config.client_options.pool.max_pool_size = std::atoi(value.c_str());
      if (config.client_options.pool.max_pool_size < 0) {
        Usage("--max-pool-size needs a non-negative size");
      }
    } else if (ParseFlag(argv[i], "wait-queue-timeout", &value)) {
      config.client_options.pool.wait_queue_timeout =
          sim::Millis(std::atof(value.c_str()));
    } else if (ParseFlag(argv[i], "batch-max-ops", &value)) {
      const int ops = std::atoi(value.c_str());
      if (ops < 1) Usage("--batch-max-ops needs a positive count");
      config.client_options.batching_enabled = true;
      config.client_options.batch_max_ops = ops;
    } else if (ParseFlag(argv[i], "batch-max-delay-us", &value)) {
      const double us = std::atof(value.c_str());
      if (us < 0) Usage("--batch-max-delay-us needs a non-negative delay");
      config.client_options.batch_max_delay = sim::Micros(us);
    } else if (ParseFlag(argv[i], "trace-out", &value)) {
      if (value.empty()) Usage("--trace-out needs a path");
      trace_out = value;
      config.trace = true;
    } else if (ParseFlag(argv[i], "trace-max-spans", &value)) {
      config.trace_max_spans = std::strtoull(value.c_str(), nullptr, 10);
      if (config.trace_max_spans == 0) {
        Usage("--trace-max-spans needs a positive count");
      }
    } else if (ParseFlag(argv[i], "metrics-out", &value)) {
      if (value.empty()) Usage("--metrics-out needs a path");
      metrics_out = value;
    } else if (ParseFlag(argv[i], "metrics-format", &value)) {
      if (value != "json" && value != "openmetrics") {
        Usage("unknown --metrics-format (json | openmetrics)");
      }
      metrics_format = value;
    } else if (ParseFlag(argv[i], "slo", &value)) {
      if (value.empty()) Usage("--slo needs a spec (try --slo=default)");
      slo_spec = value;
    } else if (ParseFlag(argv[i], "report-out", &value)) {
      if (value.empty()) Usage("--report-out needs a path");
      report_out = value;
    } else if (ParseFlag(argv[i], "shards", &value)) {
      config.shards = std::atoi(value.c_str());
      if (config.shards < 1) Usage("--shards needs a positive count");
    } else if (ParseFlag(argv[i], "shard-key", &value)) {
      shard_key = value;
    } else if (std::strcmp(argv[i], "--explain-balancer") == 0) {
      explain_balancer = true;
    } else if (std::strcmp(argv[i], "--hedged-reads") == 0) {
      config.client_options.hedged_reads = true;
    } else if (std::strcmp(argv[i], "--no-s-workload") == 0) {
      config.run_s_workload = false;
    } else if (std::strcmp(argv[i], "--quiet") == 0) {
      quiet = true;
    } else {
      Usage(argv[i]);
    }
  }

  if (workload == "ycsb-a") {
    config.kind = exp::WorkloadKind::kYcsb;
    config.phases[0].ycsb_read_proportion = 0.5;
  } else if (workload == "ycsb-b") {
    config.kind = exp::WorkloadKind::kYcsb;
    config.phases[0].ycsb_read_proportion = 0.95;
  } else if (workload == "tpcc") {
    config.kind = exp::WorkloadKind::kTpcc;
    config.server.checkpoint_disk_bw = exp::kTpccCheckpointDiskBw;
  } else {
    Usage("unknown --workload");
  }

  if (scenario) {
    // Stretch the scenario's shape to the *final* duration and clients.
    const exp::ExperimentConfig shaped =
        exp::Rescale(*scenario->config, config.duration, clients_given);
    config.phases = shaped.phases;
    if (!warmup_given) config.warmup = shaped.warmup;
  }
  // A run shorter than one report period prints no period and an all-zero
  // summary.
  if (config.duration <= 0 || config.duration < exp::kReportPeriod) {
    Usage("--duration must cover at least one report period (10 s)");
  }
  // A warm-up that reaches the end leaves the summary window empty.
  if (config.warmup < 0 || config.warmup >= config.duration) {
    Usage("--warmup must be non-negative and end before --duration");
  }

  if (system == "decongestant") {
    config.system = exp::SystemType::kDecongestant;
  } else if (system == "primary") {
    config.system = exp::SystemType::kPrimary;
  } else if (system == "secondary") {
    config.system = exp::SystemType::kSecondary;
  } else {
    Usage("unknown --system");
  }

  if (!fault_spec.empty()) {
    std::string error;
    if (!fault::ParseFaultSpec(fault_spec, &config.faults, &error)) {
      Usage(error.c_str());
    }
    for (const auto& event : config.faults.events) {
      for (int node : event.nodes) {
        if (node < 0 || node > config.repl.secondaries) {
          Usage("--faults node index out of range for this cluster");
        }
      }
    }
  }
  if (chaos) {
    const int nodes = config.repl.secondaries + 1;
    config.faults = fault::MakeRandomSchedule(chaos_seed, config.duration,
                                              nodes);
  }

  if (config.shards >= 2) {
    if (config.kind != exp::WorkloadKind::kYcsb) {
      Usage("--shards supports the YCSB workloads only");
    }
    if (!config.faults.empty()) {
      Usage("--shards is incompatible with fault injection");
    }
    if (shard_key == "hashed") {
      config.shard_key.hashed = true;
    } else if (shard_key == "ranged") {
      // Contiguous id ranges, sliced evenly over the YCSB key space into
      // shards * kChunksPerShard chunks (round-robin across shards).
      config.shard_key.hashed = false;
      const int chunks = config.shards * shard::kChunksPerShard;
      for (int i = 1; i < chunks; ++i) {
        config.split_points.emplace_back(config.ycsb.record_count * i /
                                         chunks);
      }
    } else {
      Usage("unknown --shard-key (hashed | ranged)");
    }
  }

  if (!slo_spec.empty()) {
    // Defaults for the "default" bundle and unset bounds: the balancer's
    // staleness bound and the 3 ms read-latency target.
    obs::SloDefaults defaults;
    defaults.stale_bound_seconds = config.balancer.stale_bound_seconds;
    std::string error;
    if (!obs::ParseSloSpecs(slo_spec, defaults, &config.slos, &error)) {
      Usage(error.c_str());
    }
  }

  if (core::MakeController(controller) == nullptr) {
    std::string known;
    for (std::string_view name : core::RegisteredControllers()) {
      if (!known.empty()) known += " | ";
      known += name;
    }
    std::fprintf(stderr, "sim_cli: unknown --controller (%s)\n",
                 known.c_str());
    return 2;
  }
  config.balancer.controller = controller;

  exp::Experiment experiment(config);

  std::printf(
      "workload=%s system=%s controller=%s clients=%d duration=%.0fs "
      "seed=%llu\n",
      workload.c_str(), system.c_str(), controller.c_str(),
      config.phases[0].clients, sim::ToSeconds(config.duration),
      static_cast<unsigned long long>(config.seed));
  experiment.Run();

  const bool tpcc = config.kind == exp::WorkloadKind::kTpcc;
  if (!quiet) {
    std::printf("\n%8s %12s %10s %8s %10s %7s  %s\n", "time(s)",
                tpcc ? "SL txn/s" : "reads/s", "p80(ms)", "sec(%)",
                "fraction", "est(s)", "balancer");
    // Each period's slice of the balancer decision log ends where that
    // period's cumulative balancer_decisions sample does.
    const obs::DecisionLog* decisions = experiment.balancer_decisions();
    std::vector<double> decided;
    if (decisions != nullptr) {
      decided = experiment.metrics_registry().PerPeriod("balancer_decisions");
    }
    size_t first_decision = 0;
    for (size_t i = 0; i < experiment.rows().size(); ++i) {
      const exp::PeriodRow& row = experiment.rows()[i];
      const double throughput =
          tpcc ? static_cast<double>(row.stock_level) /
                     sim::ToSeconds(row.end - row.start)
               : row.ReadThroughput();
      // One-line balancer summary: "0.40→0.50 latency_ratio_up", or "-"
      // when no decision fell inside the period.
      char balancer_col[64] = "-";
      if (decisions != nullptr) {
        const size_t end = first_decision + static_cast<size_t>(decided[i]);
        if (const obs::BalanceDecision* d = PeriodDecision(
                decisions->entries(), first_decision, end)) {
          std::snprintf(balancer_col, sizeof(balancer_col), "%.2f→%.2f %s",
                        d->from_fraction, d->to_fraction,
                        std::string(obs::ToString(d->reason)).c_str());
        }
        first_decision = end;
      }
      std::printf("%8.0f %12.0f %10.2f %8.1f %10.2f %7lld  %s\n",
                  sim::ToSeconds(row.start), throughput,
                  row.P80ReadLatencyMs(), row.SecondaryPercent(),
                  row.balance_fraction,
                  static_cast<long long>(row.est_staleness_max_s),
                  balancer_col);
    }
  }

  if (!config.faults.empty() && !quiet) {
    std::printf("\nfault log (%llu applied, %llu healed):\n",
                static_cast<unsigned long long>(
                    experiment.fault_injector().events_applied()),
                static_cast<unsigned long long>(
                    experiment.fault_injector().events_healed()));
    for (const std::string& line : experiment.fault_injector().log()) {
      std::printf("  %s\n", line.c_str());
    }
  }

  const exp::Summary summary = experiment.Summarize();
  std::printf(
      "\nsummary: %.2f read txn/s, P80 %.2f ms, %.1f%% on secondaries, "
      "P80 staleness %.2f s (max %.2f s)\n",
      summary.read_throughput, summary.p80_read_latency_ms,
      summary.secondary_percent, summary.p80_staleness_s,
      summary.max_staleness_s);
  if (!experiment.sharded()) {
    std::printf(
        "served age: mean %.3f s, max %.3f s, bound violations %llu\n",
        summary.mean_served_age_s, summary.max_served_age_s,
        static_cast<unsigned long long>(summary.bound_violations));
  }

  if (experiment.sharded()) {
    shard::ShardedCluster* cluster = experiment.sharded_cluster();
    const shard::Router& router = cluster->router();
    std::printf(
        "\nshards: %d (%s, %lld chunks), %llu point ops routed, "
        "%llu scatter finds, %llu stale refreshes\n",
        cluster->shard_count(), shard_key.c_str(),
        static_cast<long long>(router.routing_table().chunk_count()),
        static_cast<unsigned long long>(router.routed_reads() +
                                        router.routed_writes()),
        static_cast<unsigned long long>(router.scatter_finds()),
        static_cast<unsigned long long>(router.stale_refreshes()));
    const uint64_t total_routed =
        std::max<uint64_t>(1, router.routed_reads() + router.routed_writes());
    for (int s = 0; s < cluster->shard_count(); ++s) {
      char bound_col[48] = "";
      if (cluster->balancer(s) != nullptr) {
        std::snprintf(bound_col, sizeof(bound_col),
                      ", effective bound %llds",
                      static_cast<long long>(
                          cluster->budget().EffectiveBound(s)));
      }
      std::printf(
          "  shard %d: %d chunks, %llu ops (%.1f%%), fraction %.2f, "
          "true staleness %.2fs%s\n",
          s, router.routing_table().ChunksOwnedBy(s),
          static_cast<unsigned long long>(router.routed_to_shard(s)),
          100.0 * static_cast<double>(router.routed_to_shard(s)) /
              static_cast<double>(total_routed),
          cluster->balance_fraction(s),
          sim::ToSeconds(cluster->shard(s).MaxTrueStaleness()),
          bound_col);
    }
  }

  const metrics::OpCounters& ops = experiment.client().op_counters();
  std::printf(
      "ops: %llu ok, %llu timed out, %llu retried (%llu retries), "
      "%llu hedges sent, %llu hedges won\n",
      static_cast<unsigned long long>(ops.ok),
      static_cast<unsigned long long>(ops.timed_out),
      static_cast<unsigned long long>(ops.retried),
      static_cast<unsigned long long>(ops.retries_total),
      static_cast<unsigned long long>(ops.hedges_sent),
      static_cast<unsigned long long>(ops.hedges_won));

  if (config.client_options.batching_enabled) {
    const metrics::Histogram& occ = experiment.client().batch_occupancy();
    std::printf(
        "batching: %llu envelopes, %llu ops batched, occupancy "
        "mean %.2f / p50 %.0f / max %.0f of %d\n",
        static_cast<unsigned long long>(ops.envelopes_sent),
        static_cast<unsigned long long>(ops.ops_batched),
        occ.count() > 0 ? occ.mean() : 0.0, occ.Percentile(50), occ.max(),
        config.client_options.batch_max_ops);
  }

  if (config.client_options.pool.max_pool_size > 0) {
    const auto pool = experiment.client().PoolTotals();
    std::printf(
        "pool: %llu checkouts, %llu timed out, %llu established, "
        "%llu destroyed, %llu clears, peak queue %llu, "
        "%.1f ms total wait\n",
        static_cast<unsigned long long>(pool.checkouts),
        static_cast<unsigned long long>(pool.checkout_timeouts),
        static_cast<unsigned long long>(pool.established),
        static_cast<unsigned long long>(pool.destroyed),
        static_cast<unsigned long long>(pool.clears),
        static_cast<unsigned long long>(pool.max_queue_depth),
        sim::ToMillis(pool.wait_total));
  }

  if (const obs::SloEngine* engine = experiment.slo_engine();
      engine != nullptr) {
    std::printf("\nslo: %llu objectives, %llu evaluations, %d firing, "
                "%llu alert events\n",
                static_cast<unsigned long long>(engine->trackers().size()),
                static_cast<unsigned long long>(engine->evaluations()),
                engine->firing_count(),
                static_cast<unsigned long long>(engine->events().size()));
    for (const auto& tracker : engine->trackers()) {
      char shard_col[24] = "";
      if (tracker->shard() >= 0) {
        std::snprintf(shard_col, sizeof(shard_col), " shard=%d",
                      tracker->shard());
      }
      std::printf("  %s%s: sli=%.4f burn=%.2f",
                  std::string(tracker->spec().display_name()).c_str(),
                  shard_col, tracker->last_sli(), tracker->last_burn());
      for (size_t r = 0; r < tracker->rule_count(); ++r) {
        std::printf(" %s=%s",
                    std::string(obs::ToString(tracker->rule(r).severity))
                        .c_str(),
                    std::string(obs::ToString(tracker->state(r))).c_str());
      }
      std::printf("\n");
    }
    for (const obs::SloEvent& e : engine->events()) {
      char shard_col[24] = "";
      if (e.shard >= 0) {
        std::snprintf(shard_col, sizeof(shard_col), " shard=%d", e.shard);
      }
      std::printf(
          "  alert t=%6.0fs %s%s %s %s burn=%.2f/%.2f sli=%.4f\n",
          sim::ToSeconds(e.at), e.slo.c_str(), shard_col,
          std::string(obs::ToString(e.severity)).c_str(),
          std::string(obs::ToString(e.transition)).c_str(), e.burn_long,
          e.burn_short, e.sli);
    }
  }

  if (explain_balancer) {
    const obs::DecisionLog* log = experiment.balancer_decisions();
    if (log == nullptr) {
      std::printf("\nbalancer decisions: none (system=%s has no balancer)\n",
                  system.c_str());
    } else {
      uint64_t reason_counts[obs::kBalanceReasonCount] = {};
      std::printf("\nbalancer decisions (%llu):\n",
                  static_cast<unsigned long long>(log->size()));
      for (const obs::BalanceDecision& d : log->entries()) {
        ++reason_counts[static_cast<size_t>(d.reason)];
        std::printf(
            "  t=%6.0fs fraction %.2f→%.2f (published %.2f) "
            "reason=%s ratio=%.3f%s lss=%.2f/%.2fms est=%llds bound=%llds\n",
            sim::ToSeconds(d.at), d.from_fraction, d.to_fraction,
            d.published_fraction, std::string(obs::ToString(d.reason)).c_str(),
            d.ratio, d.ratio_valid ? "" : " (invalid)",
            sim::ToMillis(d.lss_primary), sim::ToMillis(d.lss_secondary),
            static_cast<long long>(d.staleness_estimate_s),
            static_cast<long long>(d.stale_bound_s));
      }
      std::printf("  by reason:");
      for (size_t r = 0; r < obs::kBalanceReasonCount; ++r) {
        if (reason_counts[r] == 0) continue;
        std::printf(" %s=%llu",
                    std::string(
                        obs::ToString(static_cast<obs::BalanceReason>(r)))
                        .c_str(),
                    static_cast<unsigned long long>(reason_counts[r]));
      }
      std::printf("\n");
    }
  }

  if (!trace_out.empty()) {
    const obs::Tracer& tracer = experiment.tracer();
    const obs::SloEngine* engine = experiment.slo_engine();
    const bool ok = obs::WriteChromeTrace(
        tracer, experiment.balancer_decisions(),
        engine != nullptr ? &engine->events() : nullptr, trace_out);
    std::printf("trace export to %s: %s (%llu spans, %llu dropped)\n",
                trace_out.c_str(), ok ? "ok" : "FAILED",
                static_cast<unsigned long long>(tracer.spans().size()),
                static_cast<unsigned long long>(tracer.dropped()));
    if (!ok) return 1;
  }

  if (!metrics_out.empty()) {
    const bool ok =
        metrics_format == "openmetrics"
            ? experiment.metrics_registry().WriteOpenMetrics(metrics_out)
            : experiment.metrics_registry().WriteJson(metrics_out);
    std::printf("metrics export to %s (%s): %s (%llu series, %llu samples)\n",
                metrics_out.c_str(), metrics_format.c_str(),
                ok ? "ok" : "FAILED",
                static_cast<unsigned long long>(
                    experiment.metrics_registry().series_count()),
                static_cast<unsigned long long>(
                    experiment.metrics_registry().samples_taken()));
    if (!ok) return 1;
  }

  if (!csv_prefix.empty()) {
    bool ok =
        exp::WritePeriodsCsv(experiment, csv_prefix + "_periods.csv") &&
        exp::WriteStalenessCsv(experiment, csv_prefix + "_staleness.csv") &&
        exp::WriteSamplesCsv(experiment, csv_prefix + "_samples.csv") &&
        exp::WriteDecisionsCsv(experiment, csv_prefix + "_decisions.csv") &&
        experiment.metrics_registry().WriteCsv(csv_prefix + "_metrics.csv");
    if (experiment.sharded()) {
      ok = ok && exp::WriteShardsCsv(experiment, csv_prefix + "_shards.csv");
    }
    if (experiment.slo_engine() != nullptr) {
      ok = ok && exp::WriteSloCsv(experiment, csv_prefix + "_slo.csv");
    }
    std::printf("csv export to %s_*.csv: %s\n", csv_prefix.c_str(),
                ok ? "ok" : "FAILED");
    if (!ok) return 1;
  }

  if (!report_out.empty()) {
    const obs::ReportData report = exp::BuildReportData(experiment);
    const bool ok = obs::WriteHtmlReport(report, report_out);
    std::printf("report export to %s: %s (%llu panels, %llu alert lanes)\n",
                report_out.c_str(), ok ? "ok" : "FAILED",
                static_cast<unsigned long long>(report.panels.size()),
                static_cast<unsigned long long>(report.alert_lanes.size()));
    if (!ok) return 1;
  }
  return 0;
}
