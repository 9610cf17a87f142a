#include "obs/slo.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "obs/metrics_registry.h"

namespace dcg::obs {
namespace {

// Floor for the error budget so burn rates stay finite when the objective
// is 1.0 ("no bad event ever"): any bad event then reads as a huge burn.
constexpr double kMinBudget = 1e-9;

// Buckets a window spans, rounded up so a window always covers at least
// the periods it names.
size_t WindowBuckets(sim::Duration window, sim::Duration period) {
  if (period <= 0) return 1;
  const sim::Duration buckets = (window + period - 1) / period;
  return static_cast<size_t>(std::max<sim::Duration>(1, buckets));
}

}  // namespace

std::string_view ToString(SloKind kind) {
  switch (kind) {
    case SloKind::kFreshness:
      return "freshness";
    case SloKind::kLatency:
      return "latency";
    case SloKind::kSuccess:
      return "success";
  }
  return "unknown";
}

std::string_view ToString(SloSeverity severity) {
  switch (severity) {
    case SloSeverity::kPage:
      return "page";
    case SloSeverity::kTicket:
      return "ticket";
  }
  return "unknown";
}

std::string_view ToString(AlertState state) {
  switch (state) {
    case AlertState::kInactive:
      return "inactive";
    case AlertState::kPending:
      return "pending";
    case AlertState::kFiring:
      return "firing";
  }
  return "unknown";
}

std::string_view ToString(SloTransition transition) {
  switch (transition) {
    case SloTransition::kPending:
      return "pending";
    case SloTransition::kFiring:
      return "firing";
    case SloTransition::kCancelled:
      return "cancelled";
    case SloTransition::kResolved:
      return "resolved";
  }
  return "unknown";
}

std::vector<BurnRule> DefaultBurnRules() {
  std::vector<BurnRule> rules;
  BurnRule page;
  page.severity = SloSeverity::kPage;
  page.burn_rate = 10.0;
  page.long_window = sim::Seconds(30);
  page.short_window = sim::Seconds(10);
  page.hold = 0;
  page.resolve_hold = sim::Seconds(20);
  rules.push_back(page);
  BurnRule ticket;
  ticket.severity = SloSeverity::kTicket;
  ticket.burn_rate = 2.0;
  ticket.long_window = sim::Seconds(120);
  ticket.short_window = sim::Seconds(30);
  ticket.hold = sim::Seconds(10);
  ticket.resolve_hold = sim::Seconds(40);
  rules.push_back(ticket);
  return rules;
}

SloTracker::SloTracker(SloSpec spec, sim::Duration eval_period, int shard)
    : spec_(std::move(spec)), eval_period_(eval_period), shard_(shard) {
  if (spec_.rules.empty()) spec_.rules = DefaultBurnRules();
  for (const BurnRule& rule : spec_.rules) {
    ring_capacity_ = std::max(
        ring_capacity_, WindowBuckets(rule.long_window, eval_period_));
  }
  ring_.reserve(ring_capacity_);
  rule_states_.resize(spec_.rules.size());
}

SloTracker::WindowStats SloTracker::WindowSums(sim::Duration window) const {
  WindowStats stats;
  const size_t want = WindowBuckets(window, eval_period_);
  const size_t have = std::min(want, ring_.size());
  for (size_t i = 0; i < have; ++i) {
    const Bucket& bucket = ring_[ring_.size() - 1 - i];
    stats.good += bucket.good;
    stats.bad += bucket.bad;
  }
  return stats;
}

double SloTracker::BurnRate(sim::Duration window) const {
  const double budget = std::max(1.0 - spec_.objective, kMinBudget);
  return WindowSums(window).bad_fraction() / budget;
}

void SloTracker::Evaluate(sim::Time now, std::vector<SloEvent>* events) {
  if (source_) Observe(source_());
  // Close the current bucket into the ring (newest last).
  Bucket closed;
  closed.good = current_good_;
  closed.bad = current_bad_;
  current_good_ = 0;
  current_bad_ = 0;
  if (ring_.size() == ring_capacity_ && !ring_.empty()) {
    ring_.erase(ring_.begin());
  }
  ring_.push_back(closed);
  ++evaluations_;

  last_burn_ = 0;
  sim::Duration longest = 0;
  for (size_t i = 0; i < spec_.rules.size(); ++i) {
    const BurnRule& rule = spec_.rules[i];
    RuleState& rs = rule_states_[i];
    const WindowStats long_stats = WindowSums(rule.long_window);
    const double burn_long = BurnRate(rule.long_window);
    const double burn_short = BurnRate(rule.short_window);
    const bool condition =
        burn_long >= rule.burn_rate && burn_short >= rule.burn_rate;
    last_burn_ = std::max(last_burn_, burn_long);
    if (rule.long_window > longest) {
      longest = rule.long_window;
      const uint64_t total = long_stats.good + long_stats.bad;
      last_sli_ = total == 0 ? 1.0
                             : static_cast<double>(long_stats.good) /
                                   static_cast<double>(total);
    }

    auto emit = [&](SloTransition transition) {
      if (events == nullptr) return;
      SloEvent event;
      event.at = now;
      event.slo = std::string(spec_.display_name());
      event.shard = shard_;
      event.severity = rule.severity;
      event.transition = transition;
      event.burn_long = burn_long;
      event.burn_short = burn_short;
      const uint64_t total = long_stats.good + long_stats.bad;
      event.sli = total == 0 ? 1.0
                             : static_cast<double>(long_stats.good) /
                                   static_cast<double>(total);
      event.good = long_stats.good;
      event.bad = long_stats.bad;
      events->push_back(std::move(event));
    };

    switch (rs.state) {
      case AlertState::kInactive:
        if (condition) {
          rs.pending_since = now;
          rs.clear_since = -1;
          if (rule.hold <= 0) {
            rs.state = AlertState::kFiring;
            emit(SloTransition::kPending);
            emit(SloTransition::kFiring);
          } else {
            rs.state = AlertState::kPending;
            emit(SloTransition::kPending);
          }
        }
        break;
      case AlertState::kPending:
        if (!condition) {
          rs.state = AlertState::kInactive;
          emit(SloTransition::kCancelled);
        } else if (now - rs.pending_since >= rule.hold) {
          rs.state = AlertState::kFiring;
          emit(SloTransition::kFiring);
        }
        break;
      case AlertState::kFiring:
        if (condition) {
          rs.clear_since = -1;
        } else {
          if (rs.clear_since < 0) rs.clear_since = now;
          if (now - rs.clear_since >= rule.resolve_hold) {
            rs.state = AlertState::kInactive;
            emit(SloTransition::kResolved);
          }
        }
        break;
    }
  }
}

SloTracker& SloEngine::AddSlo(SloSpec spec, int shard) {
  trackers_.push_back(
      std::make_unique<SloTracker>(std::move(spec), eval_period_, shard));
  return *trackers_.back();
}

void SloEngine::ObserveServedAge(double age_s, bool used_secondary) {
  if (!used_secondary) return;
  for (auto& tracker : trackers_) {
    if (tracker->spec().kind == SloKind::kFreshness && tracker->shard() < 0) {
      tracker->Observe(age_s);
    }
  }
}

void SloEngine::ObserveReadLatencyMs(double latency_ms) {
  for (auto& tracker : trackers_) {
    if (tracker->spec().kind == SloKind::kLatency) {
      tracker->Observe(latency_ms);
    }
  }
}

void SloEngine::ObserveOutcome(bool ok) {
  for (auto& tracker : trackers_) {
    if (tracker->spec().kind == SloKind::kSuccess) {
      if (ok) {
        tracker->AddGood();
      } else {
        tracker->AddBad();
      }
    }
  }
}

void SloEngine::Evaluate(sim::Time now) {
  for (auto& tracker : trackers_) {
    tracker->Evaluate(now, &events_);
  }
  ++evaluations_;
}

void SloEngine::RegisterMetrics(MetricsRegistry* registry) const {
  if (registry == nullptr) return;
  for (const auto& tracker : trackers_) {
    std::vector<Label> labels;
    labels.push_back({"slo", std::string(tracker->spec().display_name())});
    if (tracker->shard() >= 0) {
      labels.push_back({"shard", std::to_string(tracker->shard())});
    }
    const SloTracker* raw = tracker.get();
    registry->RegisterGauge("slo_sli", "fraction", labels,
                            [raw] { return raw->last_sli(); });
    registry->RegisterGauge("slo_burn", "ratio", labels,
                            [raw] { return raw->last_burn(); });
  }
  registry->RegisterGauge("slo_alerts_firing", "alerts", {},
                          [this] { return static_cast<double>(firing_count()); });
  registry->RegisterGauge("slo_alerts_pending", "alerts", {}, [this] {
    return static_cast<double>(pending_count());
  });
  registry->RegisterGauge("slo_max_burn", "ratio", {},
                          [this] { return max_burn(); });
  registry->RegisterCounter("slo_alert_events", "events", {}, [this] {
    return static_cast<double>(events_.size());
  });
}

int SloEngine::firing_count() const {
  int firing = 0;
  for (const auto& tracker : trackers_) {
    for (size_t i = 0; i < tracker->rule_count(); ++i) {
      if (tracker->state(i) == AlertState::kFiring) ++firing;
    }
  }
  return firing;
}

int SloEngine::pending_count() const {
  int pending = 0;
  for (const auto& tracker : trackers_) {
    for (size_t i = 0; i < tracker->rule_count(); ++i) {
      if (tracker->state(i) == AlertState::kPending) ++pending;
    }
  }
  return pending;
}

double SloEngine::max_burn() const {
  double burn = 0;
  for (const auto& tracker : trackers_) {
    burn = std::max(burn, tracker->last_burn());
  }
  return burn;
}

namespace {

// Splits `text` on `sep`, dropping empty pieces.
std::vector<std::string> Split(const std::string& text, char sep) {
  std::vector<std::string> pieces;
  size_t start = 0;
  while (start <= text.size()) {
    size_t end = text.find(sep, start);
    if (end == std::string::npos) end = text.size();
    if (end > start) pieces.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  return pieces;
}

bool ParseDouble(const std::string& text, double* out) {
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0' || !std::isfinite(value)) {
    return false;
  }
  *out = value;
  return true;
}

void AppendDefaultBundle(const SloDefaults& defaults,
                         std::vector<SloSpec>* out) {
  SloSpec freshness;
  freshness.kind = SloKind::kFreshness;
  freshness.objective = 0.99;
  freshness.bound = static_cast<double>(defaults.stale_bound_seconds);
  out->push_back(std::move(freshness));
  SloSpec latency;
  latency.kind = SloKind::kLatency;
  latency.objective = 0.80;
  latency.bound = defaults.latency_target_ms;
  out->push_back(std::move(latency));
  SloSpec success;
  success.kind = SloKind::kSuccess;
  success.objective = 0.999;
  out->push_back(std::move(success));
}

}  // namespace

bool ParseSloSpecs(const std::string& spec, const SloDefaults& defaults,
                   std::vector<SloSpec>* out, std::string* error) {
  out->clear();
  if (spec.empty()) return true;
  if (spec == "default") {
    AppendDefaultBundle(defaults, out);
    return true;
  }
  for (const std::string& entry : Split(spec, ';')) {
    const std::vector<std::string> parts = Split(entry, ':');
    if (parts.empty()) continue;
    SloSpec parsed;
    if (parts[0] == "freshness") {
      parsed.kind = SloKind::kFreshness;
      parsed.objective = 0.99;
      parsed.bound = static_cast<double>(defaults.stale_bound_seconds);
    } else if (parts[0] == "latency") {
      parsed.kind = SloKind::kLatency;
      parsed.objective = 0.80;
      parsed.bound = defaults.latency_target_ms;
    } else if (parts[0] == "success") {
      parsed.kind = SloKind::kSuccess;
      parsed.objective = 0.999;
    } else {
      if (error != nullptr) {
        *error = "unknown slo kind '" + parts[0] +
                 "' (want freshness|latency|success)";
      }
      return false;
    }
    std::vector<BurnRule> rules = DefaultBurnRules();
    double page_rate = rules[0].burn_rate;
    double ticket_rate = rules[1].burn_rate;
    double window_s = sim::ToSeconds(rules[0].long_window);
    double short_s = sim::ToSeconds(rules[0].short_window);
    double hold_s = sim::ToSeconds(rules[0].hold);
    double resolve_s = sim::ToSeconds(rules[0].resolve_hold);
    for (size_t i = 1; i < parts.size(); ++i) {
      const size_t eq = parts[i].find('=');
      if (eq == std::string::npos) {
        if (error != nullptr) {
          *error = "malformed slo option '" + parts[i] + "' (want key=value)";
        }
        return false;
      }
      const std::string key = parts[i].substr(0, eq);
      const std::string value = parts[i].substr(eq + 1);
      if (key == "name") {
        parsed.name = value;
        continue;
      }
      double number = 0;
      if (!ParseDouble(value, &number)) {
        if (error != nullptr) {
          *error = "bad numeric value for slo option '" + key + "': '" +
                   value + "'";
        }
        return false;
      }
      if (key == "objective") {
        if (number <= 0 || number > 1) {
          if (error != nullptr) {
            *error = "slo objective must be in (0, 1], got " + value;
          }
          return false;
        }
        parsed.objective = number;
      } else if (key == "bound") {
        parsed.bound = number;
      } else if (key == "page") {
        page_rate = number;
      } else if (key == "ticket") {
        ticket_rate = number;
      } else if (key == "window") {
        window_s = number;
      } else if (key == "short") {
        short_s = number;
      } else if (key == "hold") {
        hold_s = number;
      } else if (key == "resolve") {
        resolve_s = number;
      } else {
        if (error != nullptr) *error = "unknown slo option '" + key + "'";
        return false;
      }
    }
    rules.clear();
    if (page_rate > 0) {
      BurnRule page;
      page.severity = SloSeverity::kPage;
      page.burn_rate = page_rate;
      page.long_window = sim::Seconds(window_s);
      page.short_window = sim::Seconds(short_s);
      page.hold = sim::Seconds(hold_s);
      page.resolve_hold = sim::Seconds(resolve_s);
      rules.push_back(page);
    }
    if (ticket_rate > 0) {
      // The ticket rule scales off the page windows: slower burn over a
      // longer horizon, with more dwell on both edges.
      BurnRule ticket;
      ticket.severity = SloSeverity::kTicket;
      ticket.burn_rate = ticket_rate;
      ticket.long_window = sim::Seconds(4 * window_s);
      ticket.short_window = sim::Seconds(window_s);
      ticket.hold = sim::Seconds(hold_s + 10);
      ticket.resolve_hold = sim::Seconds(2 * resolve_s);
      rules.push_back(ticket);
    }
    if (rules.empty()) {
      if (error != nullptr) {
        *error = "slo '" + std::string(parsed.display_name()) +
                 "' disables both page and ticket rules";
      }
      return false;
    }
    parsed.rules = std::move(rules);
    out->push_back(std::move(parsed));
  }
  if (out->empty()) {
    if (error != nullptr) *error = "empty slo spec '" + spec + "'";
    return false;
  }
  return true;
}

}  // namespace dcg::obs
