#ifndef DCG_TESTS_CHAOS_HARNESS_H_
#define DCG_TESTS_CHAOS_HARNESS_H_

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "exp/csv_export.h"
#include "exp/experiment.h"
#include "fault/fault_injector.h"
#include "obs/slo.h"

namespace dcg::chaos {

/// One chaos run: a YCSB-B Decongestant experiment with a fault schedule
/// applied, plus in-line invariant checkers.
struct ChaosOptions {
  uint64_t seed = 42;
  fault::FaultSchedule schedule;
  sim::Duration duration = sim::Seconds(240);
  int clients = 12;
  double read_proportion = 0.95;
  int64_t stale_bound_seconds = 10;

  /// Driver knobs for the run (deadlines, attempt timeouts, hedging) —
  /// chaos schedules that drop commands mid-flight pair these with the
  /// retry/deadline invariants.
  driver::ClientOptions client_options;

  /// Replication knobs for the run (election timeout, priorities, ...).
  repl::ReplicaSetParams repl;

  /// When non-empty, the run's Balancer decision log is written here as
  /// CSV (CI's test step points this at its artifact dir so a failing
  /// run ships the decisions that led up to it).
  std::string decisions_csv_path;

  /// Slack added to StaleBound for the per-read freshness invariant. The
  /// estimate pipeline lags truth by up to one serverStatus poll (1 s) +
  /// one heartbeat (0.5 s) + the whole-second flooring (1 s) + in-flight
  /// reads; 3 s covers the sum.
  sim::Duration freshness_grace = sim::Seconds(3);

  /// When true, the run must end with the Balance Fraction back above zero
  /// (cluster healed and rebalanced). Disable for schedules that end in a
  /// degraded state.
  bool expect_recovery = true;

  /// When true, assert that the fraction reaches 0 within one control
  /// period of ground-truth staleness first exceeding StaleBound. Enable
  /// for schedules that provably stall every secondary (full partition).
  bool expect_zero_within_period = false;

  /// When non-empty, a compact SLO spec (obs::ParseSloSpecs grammar, e.g.
  /// "freshness" or "default") evaluated once per report period during the
  /// run. The report then carries the alert-event log summary (first page
  /// fire time, resolution, counts) and the deterministic trace gains one
  /// line per alert transition. Empty (the default) builds no engine, so
  /// existing schedule goldens are untouched.
  std::string slo_spec;

  /// When true, enable span tracing for the run and check invariant 8:
  /// the span tree is well-formed (checkout ⊆ attempt/hedge ⊆ op, all
  /// spans of an op share its trace id, retry/hedge arms parent under the
  /// op span). Pair with a short duration — every op records ~6 spans.
  bool trace = false;
  size_t trace_max_spans = obs::Tracer::kDefaultMaxSpans;
};

struct ChaosReport {
  std::vector<std::string> violations;
  /// Deterministic run fingerprint: period rows + fault log + counters.
  /// Identical seeds/schedules must produce identical traces.
  std::string trace;

  uint64_t secondary_reads = 0;
  uint64_t total_reads = 0;
  /// Per-op outcome counts over every workload op, counted in the op
  /// observer (ok / deadline-failed / needed a retry / answered by the
  /// hedge).
  uint64_t ops_ok = 0;
  uint64_t ops_timed_out = 0;
  uint64_t ops_retried = 0;
  uint64_t hedges_won = 0;
  sim::Duration worst_secondary_staleness = 0;
  double final_fraction = 0.0;
  uint64_t pull_restarts = 0;
  uint64_t elections = 0;
  uint64_t stepdowns = 0;
  uint64_t rollback_resyncs = 0;
  uint64_t balancer_primary_swaps = 0;
  uint64_t stepdown_pool_clears = 0;
  /// Sim time the event loop had reached when the run returned: a run
  /// that reaches its horizon ends at or past `ChaosOptions::duration`.
  sim::Time ended_at = 0;
  /// Envelope totals for the run — zero unless the schedule enables
  /// driver-side batching; chaos tests use them to prove invariant 10
  /// ran against a non-vacuous batched workload.
  uint64_t envelopes_sent = 0;
  uint64_t ops_batched = 0;
  /// Driver totals for the optional attempt paths: hedge arms sent and
  /// pool checkouts that timed out in the wait queue.
  uint64_t hedges_sent = 0;
  uint64_t checkout_timeouts = 0;
  /// Spans invariant 8 checked (trace on only): envelope spans, and
  /// checkout spans that queued (ended after they started).
  uint64_t envelope_spans = 0;
  uint64_t queued_checkout_spans = 0;
  /// SLO alert-event summary (all zero/-1 unless options.slo_spec set).
  uint64_t slo_event_count = 0;
  uint64_t slo_pages_fired = 0;
  uint64_t slo_tickets_fired = 0;
  /// Sim time of the first page-severity kFiring transition, -1 if none.
  sim::Time first_page_fire = -1;
  /// Sim time of the last page-severity kResolved transition, -1 if none.
  sim::Time last_page_resolve = -1;
  /// Sim time of the first secondary read served staler than the
  /// freshness SLO's bound (StaleBound when no spec is set; ground truth,
  /// before grace), -1 if none — the instant a freshness SLO first has
  /// something to alert on. Note the balancer's estimate is conservative,
  /// so the gate can close before truth ever crosses StaleBound itself;
  /// alert-conformance schedules pair a tight SLO bound with the looser
  /// safety valve.
  sim::Time first_overbound_read = -1;

  bool ok() const { return violations.empty(); }
  std::string ViolationText() const {
    std::string all;
    for (const std::string& v : violations) all += v + "\n";
    return all;
  }
};

/// Runs one chaos experiment and checks the invariants:
///   1. Freshness: no secondary-served read returns data staler than
///      StaleBound + grace (measured against the primary's lastApplied at
///      read completion — simulator ground truth, not the estimate).
///   2. Safety valve: whenever the balancer's own staleness estimate
///      exceeds StaleBound, the published Balance Fraction is exactly 0
///      (PublishFraction is synchronous with the serverStatus reply).
///   3. Reaction time (opt-in): fraction hits 0 within one control period
///      of ground truth first exceeding StaleBound.
///   4. Recovery (opt-in): fraction is back above 0 by the end of the run,
///      after every fault healed.
///   5. Drain: after stopping the clients, every in-flight operation
///      completes and (with all nodes alive) replicas converge to
///      identical fingerprints — no stuck callbacks anywhere.
///   6. Pool generation: no command ever rides a connection checked out
///      under an older pool generation than the current one (no post-clear
///      command on a pre-clear socket), on any node's pool.
///   7. Pool drain: after quiesce, every pool's wait queue is empty and
///      every connection is returned — a cleared/saturated pool recovers
///      in bounded time instead of leaking checkouts.
///   8. Span tree (opt-in via `trace`): every recorded span belongs to
///      an op that recorded its op span and nests inside its parent
///      (client-closed spans fully; server-side spans may outlive an
///      abandoned attempt, so only their starts are ordered),
///      shares its parent's trace id, and hangs off the right kind of
///      parent (checkout/envelope/wire/server under an attempt or hedge
///      arm, attempt/hedge arms under the op span).
///   9. Election safety: at every sample instant no two alive members are
///      writable primaries of the same term; no election completes
///      between two samples that both saw fewer than a majority of
///      members alive (a minority cannot win a vote); and over the whole
///      run each term has at most one member that became writable and at
///      most one member that committed writes (the ReplicaSet's per-term
///      ledgers — a deposed primary's queued writes observing the term
///      change at commit time is what keeps the commit ledger clean).
///  10. Batch integrity: after quiesce no operation is still sitting in a
///      driver-side coalescing buffer and none is pending at all — a
///      partition or pool clear that hit a buffered envelope must have
///      retried or failed every rider, never silently dropped one.
inline ChaosReport RunChaos(const ChaosOptions& options) {
  ChaosReport report;
  auto violation = [&report](const std::string& v) {
    report.violations.push_back(v);
  };

  exp::ExperimentConfig config;
  config.seed = options.seed;
  config.system = exp::SystemType::kDecongestant;
  config.kind = exp::WorkloadKind::kYcsb;
  config.phases = {{0, options.clients, options.read_proportion}};
  config.duration = options.duration;
  config.warmup = sim::Seconds(20);
  config.run_s_workload = false;  // the probe pair is not failover-aware
  config.balancer.stale_bound_seconds = options.stale_bound_seconds;
  config.client_options = options.client_options;
  config.repl = options.repl;
  config.faults = options.schedule;
  config.trace = options.trace;
  config.trace_max_spans = options.trace_max_spans;
  if (!options.slo_spec.empty()) {
    obs::SloDefaults defaults;
    defaults.stale_bound_seconds = options.stale_bound_seconds;
    std::string error;
    if (!obs::ParseSloSpecs(options.slo_spec, defaults, &config.slos,
                            &error)) {
      violation("slo: bad spec: " + error);
      return report;
    }
  }

  exp::Experiment experiment(config);
  auto& rs = experiment.replica_set();
  auto& loop = experiment.loop();

  const sim::Duration bound = sim::Seconds(
      static_cast<double>(options.stale_bound_seconds));
  const sim::Duration freshness_limit = bound + options.freshness_grace;
  sim::Duration overbound_threshold = bound;
  for (const obs::SloSpec& slo : config.slos) {
    if (slo.kind == obs::SloKind::kFreshness) {
      overbound_threshold =
          std::min(overbound_threshold, sim::Seconds(slo.bound));
    }
  }

  // --- Invariant 1: per-read ground-truth freshness. ---
  uint64_t freshness_violations = 0;
  experiment.SetOpObserver([&](const workload::OpOutcome& outcome) {
    if (outcome.ok) {
      ++report.ops_ok;
    } else if (outcome.timed_out) {
      ++report.ops_timed_out;
    }
    if (outcome.retries > 0) ++report.ops_retried;
    if (outcome.hedge_won) ++report.hedges_won;
    // Failed ops (deadline exceeded / retries exhausted) carry no
    // meaningful operation_time or node — skip the freshness check.
    if (!outcome.ok) return;
    if (!outcome.read_only || !outcome.used_secondary) return;
    ++report.secondary_reads;
    const repl::OpTime primary_applied = rs.primary().last_applied();
    const sim::Duration staleness =
        std::max<sim::Duration>(0,
                                primary_applied.wall -
                                    outcome.operation_time.wall);
    report.worst_secondary_staleness =
        std::max(report.worst_secondary_staleness, staleness);
    if (staleness > overbound_threshold && report.first_overbound_read < 0) {
      report.first_overbound_read = loop.Now();
    }
    if (staleness > freshness_limit && freshness_violations++ == 0) {
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "freshness: read at t=%.3fs served %.3fs-stale data "
                    "(limit %.3fs)",
                    sim::ToSeconds(loop.Now()), sim::ToSeconds(staleness),
                    sim::ToSeconds(freshness_limit));
      violation(buf);
    }
  });

  // --- Invariants 2 & 3: sampled estimate/fraction coupling. ---
  sim::Time truth_over_bound_at = -1;
  sim::Time fraction_zero_at = -1;
  uint64_t estimate_gate_violations = 0;
  uint64_t writable_primary_violations = 0;
  uint64_t minority_election_violations = 0;
  bool prev_sample_minority = false;
  uint64_t prev_sample_elections = 0;
  std::function<void()> sample = [&] {
    const double fraction = experiment.balance_fraction();
    const int64_t estimate =
        experiment.balancer()->staleness_estimate_seconds();
    if (estimate > options.stale_bound_seconds && fraction != 0.0 &&
        estimate_gate_violations++ == 0) {
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "gate: estimate %llds > bound %llds but fraction %.2f "
                    "at t=%.3fs",
                    static_cast<long long>(estimate),
                    static_cast<long long>(options.stale_bound_seconds),
                    fraction, sim::ToSeconds(loop.Now()));
      violation(buf);
    }
    if (truth_over_bound_at < 0 && rs.MaxTrueStaleness() > bound) {
      truth_over_bound_at = loop.Now();
    }
    if (truth_over_bound_at >= 0 && fraction_zero_at < 0 && fraction == 0.0) {
      fraction_zero_at = loop.Now();
    }
    // Invariant 9: never two concurrently writable primaries *in the
    // same term*. (A deposed primary legitimately stays writable in its
    // old term until it notices the majority moved on — Raft's guarantee
    // is per-term, enforced by the commit guard.)
    for (int i = 0; i < rs.node_count(); ++i) {
      if (!rs.IsAlive(i) || !rs.coordinator(i).writable()) continue;
      for (int j = i + 1; j < rs.node_count(); ++j) {
        if (!rs.IsAlive(j) || !rs.coordinator(j).writable()) continue;
        if (rs.coordinator(i).term() == rs.coordinator(j).term() &&
            writable_primary_violations++ == 0) {
          char buf[140];
          std::snprintf(buf, sizeof(buf),
                        "election: nodes %d and %d both writable in "
                        "term %llu at t=%.3fs",
                        i, j,
                        static_cast<unsigned long long>(
                            rs.coordinator(i).term()),
                        sim::ToSeconds(loop.Now()));
          violation(buf);
        }
      }
    }
    // Invariant 9: a minority of live members never completes an
    // election.
    int alive = 0;
    for (int i = 0; i < rs.node_count(); ++i) alive += rs.IsAlive(i) ? 1 : 0;
    const bool minority = 2 * alive <= rs.node_count();
    if (minority && prev_sample_minority &&
        rs.elections() > prev_sample_elections &&
        minority_election_violations++ == 0) {
      char buf[140];
      std::snprintf(buf, sizeof(buf),
                    "election: completed with %d of %d members alive at "
                    "t=%.3fs",
                    alive, rs.node_count(), sim::ToSeconds(loop.Now()));
      violation(buf);
    }
    prev_sample_minority = minority;
    prev_sample_elections = rs.elections();
    loop.ScheduleAfter(sim::Millis(250), sample);
  };
  loop.ScheduleAfter(sim::Millis(250), sample);

  experiment.Run();

  // --- Invariant 3: reaction within one control period. ---
  if (options.expect_zero_within_period) {
    if (truth_over_bound_at < 0) {
      violation("reaction: schedule never drove true staleness over "
                "StaleBound (test schedule too weak)");
    } else if (fraction_zero_at < 0) {
      violation("reaction: fraction never reached 0 after staleness "
                "exceeded StaleBound");
    } else if (fraction_zero_at - truth_over_bound_at >
               config.balancer.period) {
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "reaction: fraction took %.3fs to reach 0 (> one "
                    "%.0fs control period)",
                    sim::ToSeconds(fraction_zero_at - truth_over_bound_at),
                    sim::ToSeconds(config.balancer.period));
      violation(buf);
    }
  }

  // --- Invariant 4: recovery after heal. ---
  report.final_fraction = experiment.balance_fraction();
  if (options.expect_recovery && report.final_fraction <= 0.0) {
    violation("recovery: balance fraction still 0 at end of run");
  }

  // --- Invariant 5: quiesce and drain. ---
  experiment.pool().SetTarget(0);
  loop.RunUntil(options.duration + sim::Seconds(30));
  if (experiment.pool().running() != 0) {
    char buf[96];
    std::snprintf(buf, sizeof(buf),
                  "drain: %d client slots still in flight after quiesce",
                  experiment.pool().running());
    violation(buf);
  }
  // --- Invariant 6: pool generation (no stale-generation handouts). ---
  for (int i = 0; i < rs.node_count(); ++i) {
    const uint64_t stale = experiment.client().node_pool(i).stale_handouts();
    if (stale != 0) {
      violation("pool: node " + std::to_string(i) + " handed out " +
                std::to_string(stale) + " stale-generation connections");
    }
  }
  // --- Invariant 7: pools fully drained after quiesce. ---
  if (experiment.client().PoolQueueDepth() != 0) {
    violation("pool: " + std::to_string(experiment.client().PoolQueueDepth()) +
              " checkouts still queued after quiesce");
  }
  if (experiment.client().PoolCheckedOut() != 0) {
    violation("pool: " +
              std::to_string(experiment.client().PoolCheckedOut()) +
              " connections still checked out after quiesce");
  }
  // --- Invariant 8: span tree well-formedness (opt-in via trace). ---
  if (options.trace) {
    const obs::Tracer& tracer = experiment.tracer();
    if (tracer.dropped() != 0) {
      violation("trace: " + std::to_string(tracer.dropped()) +
                " spans dropped (raise trace_max_spans)");
    }
    for (const obs::SpanRecord& s : tracer.spans()) {
      if (s.kind == obs::SpanKind::kEnvelope) ++report.envelope_spans;
      if (s.kind == obs::SpanKind::kCheckout && s.end > s.start) {
        ++report.queued_checkout_spans;
      }
    }
    const obs::SpanTreeCheck tree = obs::CheckSpanTree(tracer.spans());
    if (tree.violations != 0) violation("trace: " + tree.first_violation);
    // Every op has finished after the quiesce, so a span outside a
    // finished op belongs to an op that never recorded its op span.
    if (tree.unchecked != 0) {
      violation("trace: " + std::to_string(tree.unchecked) +
                " spans belong to no finished op");
    }
  }

  // --- Invariant 9: per-term election-safety ledgers. ---
  for (const auto& [term, members] : rs.writable_by_term()) {
    if (members.size() > 1) {
      violation("election: term " + std::to_string(term) + " saw " +
                std::to_string(members.size()) + " writable primaries");
    }
  }
  for (const auto& [term, members] : rs.commits_by_term()) {
    if (members.size() > 1) {
      violation("election: term " + std::to_string(term) + " saw " +
                std::to_string(members.size()) + " committing members");
    }
  }

  // --- Invariant 10: no op silently dropped from a buffered envelope. ---
  if (experiment.client().buffered_op_count() != 0) {
    violation("batch: " +
              std::to_string(experiment.client().buffered_op_count()) +
              " ops still sitting in coalescing buffers after quiesce");
  }
  if (experiment.client().pending_op_count() != 0) {
    violation("batch: " +
              std::to_string(experiment.client().pending_op_count()) +
              " ops still pending after quiesce (dropped completion)");
  }

  bool all_alive = true;
  for (int i = 0; i < rs.node_count(); ++i) all_alive &= rs.IsAlive(i);
  if (all_alive) {
    const uint64_t primary_fp = rs.primary().db().Fingerprint();
    for (int i = 0; i < rs.node_count(); ++i) {
      if (rs.node(i).db().Fingerprint() != primary_fp) {
        violation("drain: node " + std::to_string(i) +
                  " diverged from the primary after quiesce");
      }
    }
  }

  // --- Deterministic trace. ---
  std::string trace;
  char line[256];
  for (const auto& row : experiment.rows()) {
    std::snprintf(line, sizeof(line),
                  "t=%.0f reads=%llu sec=%llu writes=%llu frac=%.4f "
                  "est=%lld\n",
                  sim::ToSeconds(row.start),
                  static_cast<unsigned long long>(row.reads),
                  static_cast<unsigned long long>(row.reads_secondary),
                  static_cast<unsigned long long>(row.writes),
                  row.balance_fraction,
                  static_cast<long long>(row.est_staleness_max_s));
    trace += line;
    report.total_reads += row.reads;
  }
  std::snprintf(line, sizeof(line),
                "workload ok=%llu to=%llu retry=%llu hw=%llu\n",
                static_cast<unsigned long long>(report.ops_ok),
                static_cast<unsigned long long>(report.ops_timed_out),
                static_cast<unsigned long long>(report.ops_retried),
                static_cast<unsigned long long>(report.hedges_won));
  trace += line;
  for (const std::string& entry : experiment.fault_injector().log()) {
    trace += entry + "\n";
  }
  if (const obs::SloEngine* engine = experiment.slo_engine();
      engine != nullptr) {
    for (const obs::SloEvent& e : engine->events()) {
      ++report.slo_event_count;
      if (e.transition == obs::SloTransition::kFiring) {
        if (e.severity == obs::SloSeverity::kPage) {
          ++report.slo_pages_fired;
          if (report.first_page_fire < 0) report.first_page_fire = e.at;
        } else {
          ++report.slo_tickets_fired;
        }
      }
      if (e.transition == obs::SloTransition::kResolved &&
          e.severity == obs::SloSeverity::kPage) {
        report.last_page_resolve = e.at;
      }
      std::snprintf(line, sizeof(line),
                    "slo t=%.0f %s%s %s %s burn=%.2f/%.2f sli=%.4f\n",
                    sim::ToSeconds(e.at), e.slo.c_str(),
                    e.shard >= 0 ? (" shard" + std::to_string(e.shard)).c_str()
                                 : "",
                    std::string(obs::ToString(e.severity)).c_str(),
                    std::string(obs::ToString(e.transition)).c_str(),
                    e.burn_long, e.burn_short, e.sli);
      trace += line;
    }
  }
  std::snprintf(line, sizeof(line),
                "commits=%llu elections=%llu stepdowns=%llu resyncs=%llu "
                "pull_restarts=%llu delivered=%llu dropped=%llu\n",
                static_cast<unsigned long long>(rs.committed_writes()),
                static_cast<unsigned long long>(rs.elections()),
                static_cast<unsigned long long>(rs.stepdowns()),
                static_cast<unsigned long long>(rs.rollback_resyncs()),
                static_cast<unsigned long long>(rs.pull_restarts()),
                static_cast<unsigned long long>(
                    experiment.network().messages_delivered()),
                static_cast<unsigned long long>(
                    experiment.network().messages_dropped()));
  trace += line;
  const metrics::OpCounters& ops = experiment.client().op_counters();
  std::snprintf(line, sizeof(line),
                "driver ok=%llu to=%llu retries=%llu hedges=%llu/%llu "
                "env=%llu batched=%llu\n",
                static_cast<unsigned long long>(ops.ok),
                static_cast<unsigned long long>(ops.timed_out),
                static_cast<unsigned long long>(ops.retries_total),
                static_cast<unsigned long long>(ops.hedges_won),
                static_cast<unsigned long long>(ops.hedges_sent),
                static_cast<unsigned long long>(ops.envelopes_sent),
                static_cast<unsigned long long>(ops.ops_batched));
  trace += line;
  report.envelopes_sent = ops.envelopes_sent;
  report.ops_batched = ops.ops_batched;
  report.hedges_sent = ops.hedges_sent;
  report.checkout_timeouts = ops.checkout_timeouts;
  const driver::pool::ConnectionPool::Stats pool_totals =
      experiment.client().PoolTotals();
  std::snprintf(line, sizeof(line),
                "pool co=%llu to=%llu est=%llu destroyed=%llu clears=%llu "
                "peakq=%llu wait_ms=%.3f\n",
                static_cast<unsigned long long>(pool_totals.checkouts),
                static_cast<unsigned long long>(pool_totals.checkout_timeouts),
                static_cast<unsigned long long>(pool_totals.established),
                static_cast<unsigned long long>(pool_totals.destroyed),
                static_cast<unsigned long long>(pool_totals.clears),
                static_cast<unsigned long long>(pool_totals.max_queue_depth),
                sim::ToMillis(pool_totals.wait_total));
  trace += line;
  for (int i = 0; i < rs.node_count(); ++i) {
    std::snprintf(line, sizeof(line), "node%d fp=%llx alive=%d\n", i,
                  static_cast<unsigned long long>(
                      rs.node(i).db().Fingerprint()),
                  rs.IsAlive(i) ? 1 : 0);
    trace += line;
  }
  report.trace = std::move(trace);
  report.ended_at = loop.Now();
  report.pull_restarts = rs.pull_restarts();
  report.elections = rs.elections();
  report.stepdowns = rs.stepdowns();
  report.rollback_resyncs = rs.rollback_resyncs();
  report.balancer_primary_swaps = experiment.balancer()->primary_swaps();
  report.stepdown_pool_clears = experiment.client().stepdown_pool_clears();
  if (!options.decisions_csv_path.empty()) {
    exp::WriteDecisionsCsv(experiment, options.decisions_csv_path);
  }
  return report;
}

}  // namespace dcg::chaos

#endif  // DCG_TESTS_CHAOS_HARNESS_H_
