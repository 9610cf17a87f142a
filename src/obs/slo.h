#ifndef DCG_OBS_SLO_H_
#define DCG_OBS_SLO_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "sim/time.h"

namespace dcg::obs {

/// What a service-level objective is written against. Every kind reduces
/// to sliding-window good/bad event accounting; only the event source and
/// the good-classifier differ:
///   * freshness  one event per *secondary-served* read; good when the
///                served age (the serving node's staleness at completion)
///                is within `bound` seconds. In sharded mode the per-op
///                serving node is hidden behind the router, so the
///                experiment attaches a per-shard staleness source instead
///                (one event per evaluation, good when the sampled value
///                is within bound).
///   * latency    one event per completed read; good when the client
///                latency is within `bound` milliseconds. "p80 <= target"
///                is expressed as objective 0.80 over this stream.
///   * success    one event per operation; good when the driver completed
///                it (no deadline exceeded / retries exhausted).
enum class SloKind : uint8_t { kFreshness, kLatency, kSuccess };

std::string_view ToString(SloKind kind);

/// Alerting severities, SRE-style: a page demands a human now, a ticket
/// can wait for working hours.
enum class SloSeverity : uint8_t { kPage, kTicket };

std::string_view ToString(SloSeverity severity);

/// Alert life cycle per burn rule. Transitions are recorded as SloEvents:
///   inactive --condition--> pending --held for `hold`--> firing
///   pending  --condition clears------> inactive   (kCancelled)
///   firing   --clear for `resolve_hold`--> inactive (kResolved)
enum class AlertState : uint8_t { kInactive, kPending, kFiring };

std::string_view ToString(AlertState state);

enum class SloTransition : uint8_t { kPending, kFiring, kCancelled, kResolved };

std::string_view ToString(SloTransition transition);

/// One multi-window burn-rate alerting rule (the SRE workbook shape): the
/// alert condition is "burn rate >= `burn_rate` over BOTH the long and the
/// short window". The long window supplies significance, the short window
/// both fast firing and fast clearing — after recovery the short window
/// drains first, so a healed SLO stops alerting long before the long
/// window forgets the incident.
struct BurnRule {
  SloSeverity severity = SloSeverity::kPage;
  /// Threshold on budget consumption speed: bad_fraction / error_budget.
  double burn_rate = 10.0;
  sim::Duration long_window = sim::Seconds(30);
  sim::Duration short_window = sim::Seconds(10);
  /// How long the condition must persist before pending becomes firing
  /// (0 = fire on the first evaluation that meets both windows).
  sim::Duration hold = 0;
  /// How long the condition must stay clear before firing resolves —
  /// the flap-resistance dwell.
  sim::Duration resolve_hold = sim::Seconds(20);
};

/// The default page + ticket rule pair, scaled to simulation runs (whose
/// whole lifetime is minutes, not the SRE workbook's 30-day windows): the
/// page reacts to fast burn within one control period of significance,
/// the ticket to sustained slow burn.
std::vector<BurnRule> DefaultBurnRules();

/// One declarative objective: "`objective` of events over any window must
/// be good". The error budget is 1 - objective; burn rates are measured
/// against it.
struct SloSpec {
  /// Display name; defaults to ToString(kind) when empty.
  std::string name;
  SloKind kind = SloKind::kFreshness;
  /// Required good fraction, e.g. 0.99 ("99% of secondary reads fresh").
  double objective = 0.99;
  /// Good/bad classifier threshold in the kind's native unit: seconds of
  /// served age for freshness, milliseconds for latency; unused for
  /// success.
  double bound = 0;
  /// Alerting rules; empty means DefaultBurnRules().
  std::vector<BurnRule> rules;

  std::string_view display_name() const {
    return name.empty() ? ToString(kind) : std::string_view(name);
  }
};

/// Inputs the compact-spec parser needs to derive the `default` bundle.
struct SloDefaults {
  /// The run's StaleBound (seconds) — the freshness objective's bound.
  int64_t stale_bound_seconds = 10;
  /// The read-latency SLA target (milliseconds) — the latency objective's
  /// bound.
  double latency_target_ms = 3.0;
};

/// Parses the compact `--slo=` spec string shared by sim_cli, the chaos
/// harness and the bakeoff scenario. Grammar (semicolon-separated
/// objectives):
///   spec    := "default" | objective (";" objective)*
///   objective := kind (":" key "=" value)*
///   kind    := "freshness" | "latency" | "success"
///   keys    := objective (good fraction, e.g. 0.99)
///            | bound     (seconds for freshness, ms for latency)
///            | name      (display name)
///            | page / ticket (burn-rate threshold; 0 disables the rule)
///            | window / short (page windows, seconds; the ticket rule
///              scales: long = 4 x window, short = window)
///            | hold / resolve (state-machine dwells, seconds)
/// "default" expands to the bundle derived from `defaults`:
///   freshness: served age <= stale_bound for 99% of secondary reads
///   latency:   read latency <= latency target for 80% of reads (p80)
///   success:   99.9% of operations complete
/// Returns false with `*error` set on malformed input.
bool ParseSloSpecs(const std::string& spec, const SloDefaults& defaults,
                   std::vector<SloSpec>* out, std::string* error);

/// One alert state-machine transition — the DecisionLog-style record that
/// lands in the event log, the Chrome trace (instant marker), and the
/// chaos trace.
struct SloEvent {
  sim::Time at = 0;
  /// SloSpec::display_name() of the objective.
  std::string slo;
  /// Shard index the tracker watches (-1 = cluster-wide).
  int shard = -1;
  SloSeverity severity = SloSeverity::kPage;
  SloTransition transition = SloTransition::kPending;
  /// Burn rates over the rule's windows at transition time.
  double burn_long = 0;
  double burn_short = 0;
  /// Good fraction over the rule's long window (1 when no events fell in
  /// the window — an empty window consumes no budget).
  double sli = 1.0;
  /// Long-window event counts behind `sli`.
  uint64_t good = 0;
  uint64_t bad = 0;
};

/// Sliding-window good/bad accounting plus the alert state machines for
/// one SloSpec. Buckets are one evaluation period wide; windows are
/// integral bucket counts (ceil(window / period)), so the math is exact
/// and replayable. All state advances only in Evaluate() — deterministic
/// in sim time, no events scheduled.
class SloTracker {
 public:
  SloTracker(SloSpec spec, sim::Duration eval_period, int shard = -1);

  /// Classifies one raw observation against the spec bound (good when
  /// value <= bound) — freshness and latency streams use this.
  void Observe(double value) {
    if (value <= spec_.bound) {
      ++current_good_;
    } else {
      ++current_bad_;
    }
  }
  void AddGood(uint64_t n = 1) { current_good_ += n; }
  void AddBad(uint64_t n = 1) { current_bad_ += n; }

  /// Attaches a sampled source: each Evaluate() observes source() once
  /// instead of relying on the per-op feed (sharded freshness watches the
  /// shard's staleness signal this way).
  void SetSource(std::function<double()> source) {
    source_ = std::move(source);
  }

  /// Closes the current bucket and runs every rule's state machine at
  /// `now`, appending any transitions to `events`.
  void Evaluate(sim::Time now, std::vector<SloEvent>* events);

  /// Good/bad sums over the last `window` of *closed* buckets.
  struct WindowStats {
    uint64_t good = 0;
    uint64_t bad = 0;
    double bad_fraction() const {
      const uint64_t total = good + bad;
      return total == 0 ? 0.0 : static_cast<double>(bad) /
                                    static_cast<double>(total);
    }
  };
  WindowStats WindowSums(sim::Duration window) const;

  /// bad_fraction over `window` divided by the error budget (1-objective).
  double BurnRate(sim::Duration window) const;

  const SloSpec& spec() const { return spec_; }
  int shard() const { return shard_; }
  size_t rule_count() const { return rule_states_.size(); }
  AlertState state(size_t rule) const { return rule_states_[rule].state; }
  const BurnRule& rule(size_t rule) const { return spec_.rules[rule]; }
  /// Worst long-window burn rate across rules at the last evaluation.
  double last_burn() const { return last_burn_; }
  /// Good fraction over the longest rule window at the last evaluation.
  double last_sli() const { return last_sli_; }
  uint64_t evaluations() const { return evaluations_; }

 private:
  struct Bucket {
    uint64_t good = 0;
    uint64_t bad = 0;
  };
  struct RuleState {
    AlertState state = AlertState::kInactive;
    sim::Time pending_since = 0;
    /// First evaluation instant at which the condition was observed clear
    /// while firing (-1 = condition currently met).
    sim::Time clear_since = -1;
  };

  SloSpec spec_;
  sim::Duration eval_period_;
  int shard_;
  std::function<double()> source_;

  /// Ring of closed buckets, newest last; sized to the longest window.
  std::vector<Bucket> ring_;
  size_t ring_capacity_ = 0;
  uint64_t current_good_ = 0;
  uint64_t current_bad_ = 0;
  std::vector<RuleState> rule_states_;
  double last_burn_ = 0;
  double last_sli_ = 1.0;
  uint64_t evaluations_ = 0;
};

class MetricsRegistry;

/// The run's SLO evaluation engine: owns one tracker per (spec, shard),
/// fans per-op observations out to the trackers that consume them, and
/// appends every alert transition to one ordered event log. Fed from the
/// driver's unified completion path; evaluated once per control period from
/// the period-close hook — never schedules events of its own, so an
/// SLO-enabled run replays the exact event sequence of a plain one.
class SloEngine {
 public:
  explicit SloEngine(sim::Duration eval_period) : eval_period_(eval_period) {}
  SloEngine(const SloEngine&) = delete;
  SloEngine& operator=(const SloEngine&) = delete;

  /// Adds a tracker for `spec` (shard -1 = cluster-wide). Returns it so
  /// callers can attach a sampled source.
  SloTracker& AddSlo(SloSpec spec, int shard = -1);

  /// Per-op feeds (each dispatches to every matching tracker).
  void ObserveServedAge(double age_s, bool used_secondary);
  void ObserveReadLatencyMs(double latency_ms);
  void ObserveOutcome(bool ok);

  /// Evaluates every tracker at `now` (call once per control period).
  void Evaluate(sim::Time now);

  /// Registers slo_sli / slo_burn gauges (per tracker), the firing and
  /// pending alert counts, the worst burn rate and the cumulative alert
  /// transition count with the run's metrics registry.
  void RegisterMetrics(MetricsRegistry* registry) const;

  const std::vector<SloEvent>& events() const { return events_; }
  const std::vector<std::unique_ptr<SloTracker>>& trackers() const {
    return trackers_;
  }
  uint64_t evaluations() const { return evaluations_; }

  /// Alert counts across all trackers at the last evaluation.
  int firing_count() const;
  int pending_count() const;
  /// Worst long-window burn rate across trackers at the last evaluation.
  double max_burn() const;

 private:
  sim::Duration eval_period_;
  std::vector<std::unique_ptr<SloTracker>> trackers_;
  std::vector<SloEvent> events_;
  uint64_t evaluations_ = 0;
};

}  // namespace dcg::obs

#endif  // DCG_OBS_SLO_H_
