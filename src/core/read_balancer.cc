#include "core/read_balancer.h"

#include <algorithm>
#include <utility>

#include "util/check.h"

namespace dcg::core {

ReadBalancer::ReadBalancer(driver::MongoClient* client, SharedState* state,
                           BalancerConfig config, sim::Rng rng)
    : client_(client),
      state_(state),
      config_(config),
      rng_(std::move(rng)),
      controller_(MakeController(config_.controller)) {
  DCG_CHECK_MSG(controller_ != nullptr, "unknown controller strategy");
  DCG_CHECK(config_.recent_history >= 1);
  DCG_CHECK(config_.low_bal > 0.0 && config_.high_bal <= 1.0);
  DCG_CHECK(config_.low_ratio < config_.high_ratio);
  // RecentBal starts as LOWBAL everywhere; the published fraction starts
  // at LOWBAL too (§3.3: initial Balance Fraction is 10 %).
  recent_bal_.assign(config_.recent_history, config_.low_bal);
  rtt_samples_.resize(client_->node_count());
  secondary_staleness_s_.assign(static_cast<size_t>(client_->node_count()),
                                -1);
  state_->set_balance_fraction(config_.stale_bound_seconds == 0
                                   ? 0.0
                                   : config_.low_bal);
  tracked_primary_ = client_->primary_index();
  tracked_term_ = client_->believed_term();
  // Harvest latencies from the driver's unified completion path: one
  // record per successful application read, regardless of which workload
  // issued it. Probe/control reads opt out via record_latency.
  client_->AddOpObserver([this](const driver::OpResult& stats) {
    if (!stats.is_read || !stats.ok || !stats.record_latency) return;
    state_->RecordLatency(stats.requested, stats.latency);
  });
}

void ReadBalancer::Start() {
  PingLoop();
  ServerStatusLoop();
  client_->loop().ScheduleAfter(config_.period, [this] { OnPeriodEnd(); });
}

sim::Duration ReadBalancer::Median(std::vector<sim::Duration> samples) {
  if (samples.empty()) return 0;
  const size_t mid = samples.size() / 2;
  std::nth_element(samples.begin(), samples.begin() + mid, samples.end());
  return samples[mid];
}

void ReadBalancer::RecordRtt(int node, sim::Duration rtt) {
  auto& window = rtt_samples_[node];
  window.push_back(rtt);
  while (window.size() > static_cast<size_t>(config_.rtt_window)) {
    window.pop_front();
  }
}

void ReadBalancer::CheckPrimarySwap() {
  const int primary = client_->primary_index();
  const uint64_t term = client_->believed_term();
  // "No primary" (an election in flight) is not a swap — the histories
  // still describe the last concrete primary until a new one appears.
  if (primary < 0) return;
  if (primary == tracked_primary_ && term >= tracked_term_) {
    tracked_term_ = term;
    return;
  }
  const bool swapped = tracked_primary_ >= 0 && primary != tracked_primary_;
  tracked_primary_ = primary;
  tracked_term_ = term;
  // Same node re-elected in a newer term: its latency character did not
  // change, so the histories stay.
  if (swapped) OnPrimarySwap();
}

void ReadBalancer::OnPrimarySwap() {
  ++primary_swaps_;
  // Latency samples, RecentBal, and the staleness estimate all describe
  // the deposed primary's topology. Feeding them forward would compare
  // the new primary's Lss against the old one's — discard everything and
  // restart from the floor fraction, exactly like a cold start.
  state_->DrainPrimaryLatencies();
  state_->DrainSecondaryLatencies();
  const double before = recent_bal_.back();
  recent_bal_.assign(static_cast<size_t>(config_.recent_history),
                     config_.low_bal);
  staleness_estimate_ = 0;
  if (budget_ != nullptr) budget_->Report(budget_slot_, 0);
  std::fill(secondary_staleness_s_.begin(), secondary_staleness_s_.end(), -1);
  // Re-apply the gate inline (estimate is reset, so only a zero effective
  // bound — disabled, or another shard eating the whole shared budget —
  // stays blocked) without emitting a spurious gate-transition entry; the
  // swap reset below is the record.
  stale_blocked_ = effective_stale_bound_seconds() == 0;
  state_->set_balance_fraction(stale_blocked_ ? 0.0 : config_.low_bal);

  obs::BalanceDecision decision;
  decision.at = client_->loop().Now();
  decision.from_fraction = before;
  decision.to_fraction = recent_bal_.back();
  decision.published_fraction = state_->balance_fraction();
  decision.reason = obs::BalanceReason::kPrimarySwapReset;
  decision.term = tracked_term_;
  decision.stale_bound_s = effective_stale_bound_seconds();
  decision.secondary_staleness_s = secondary_staleness_s_;
  decisions_.Record(std::move(decision));
}

void ReadBalancer::PingLoop() {
  CheckPrimarySwap();
  const int nodes = client_->node_count();
  for (int i = 0; i < nodes; ++i) {
    // Timed-out probes contribute no sample: a partitioned node's RTT
    // window empties instead of freezing at its last healthy value.
    client_->PingNode(i, [this, i](bool ok, sim::Duration rtt) {
      if (ok) RecordRtt(i, rtt);
    });
  }
  client_->loop().ScheduleAfter(config_.ping_interval, [this] { PingLoop(); });
}

void ReadBalancer::ServerStatusLoop() {
  client_->ServerStatus(
      [this](const proto::ServerStatusReply& r) { OnServerStatus(r); });
  client_->loop().ScheduleAfter(config_.server_status_interval,
                                [this] { ServerStatusLoop(); });
}

// Algorithm 1, Rcv-ServerStatus.
void ReadBalancer::OnServerStatus(const proto::ServerStatusReply& reply) {
  CheckPrimarySwap();
  staleness_estimate_ = proto::MaxStalenessSeconds(reply);
  // Sharded mode: publish this shard's estimate into the shared budget so
  // sibling balancers tighten while we are the laggard (and vice versa).
  if (budget_ != nullptr) budget_->Report(budget_slot_, staleness_estimate_);
  // Per-secondary breakdown for the decision log: which replica is the
  // one holding the estimate up. Same arithmetic as MaxStalenessSeconds.
  std::fill(secondary_staleness_s_.begin(), secondary_staleness_s_.end(), -1);
  for (size_t i = 0; i < reply.secondary_nodes.size(); ++i) {
    const auto node = static_cast<size_t>(reply.secondary_nodes[i]);
    if (node >= secondary_staleness_s_.size()) continue;
    const repl::OpTime& sec = reply.secondary_last_applied[i];
    const sim::Duration gap =
        sec.seq >= reply.primary_last_applied.seq
            ? 0
            : reply.primary_last_applied.wall - sec.wall;
    secondary_staleness_s_[node] = gap / sim::kSecond;
  }
  PublishFraction();
}

void ReadBalancer::RecordGateTransition(obs::BalanceReason reason) {
  obs::BalanceDecision decision;
  decision.at = client_->loop().Now();
  decision.from_fraction = recent_bal_.back();
  decision.to_fraction = recent_bal_.back();
  decision.published_fraction = state_->balance_fraction();
  decision.reason = reason;
  decision.term = client_->believed_term();
  decision.staleness_estimate_s = staleness_estimate_;
  decision.stale_bound_s = effective_stale_bound_seconds();
  decision.secondary_staleness_s = secondary_staleness_s_;
  decisions_.Record(std::move(decision));
}

void ReadBalancer::PublishFraction() {
  // Standalone: the static StaleBound. Sharded: the shared budget's
  // effective bound, which shrinks while a sibling shard overshoots.
  const int64_t bound = effective_stale_bound_seconds();
  const bool blocked = bound == 0 || staleness_estimate_ > bound;
  const bool was_blocked = stale_blocked_;
  if (blocked && !was_blocked) ++stale_zero_events_;
  stale_blocked_ = blocked;
  state_->set_balance_fraction(blocked ? 0.0 : recent_bal_.back());
  // Log gate transitions only (not every refresh): the interesting events
  // are "fraction forced to zero" and "fraction restored".
  if (blocked != was_blocked) {
    RecordGateTransition(blocked ? obs::BalanceReason::kStaleGateZero
                                 : obs::BalanceReason::kStaleGateRelease);
  }
}

sim::Duration ReadBalancer::MedianRttPrimary() const {
  const auto& window =
      rtt_samples_[static_cast<size_t>(client_->primary_index())];
  return Median({window.begin(), window.end()});
}

sim::Duration ReadBalancer::MedianRttSecondaries() const {
  const auto primary = static_cast<size_t>(client_->primary_index());
  std::vector<sim::Duration> all;
  for (size_t i = 0; i < rtt_samples_.size(); ++i) {
    if (i == primary) continue;
    all.insert(all.end(), rtt_samples_[i].begin(), rtt_samples_[i].end());
  }
  return Median(std::move(all));
}

// Algorithm 1, OnPeriodEnd.
void ReadBalancer::OnPeriodEnd() {
  CheckPrimarySwap();
  std::vector<sim::Duration> primary_lat = state_->DrainPrimaryLatencies();
  std::vector<sim::Duration> secondary_lat = state_->DrainSecondaryLatencies();

  PeriodStats stats;
  stats.at = client_->loop().Now();

  const double latest = recent_bal_.back();
  ControlInputs inputs;
  inputs.latest_fraction = latest;
  inputs.history_flat =
      std::all_of(recent_bal_.begin(), recent_bal_.end(),
                  [latest](double b) { return b == latest; });
  // Signals beyond Algorithm 1's ratio, for the rival strategies: the
  // pooled client-observed P50 (SLA feedback), the per-node staleness
  // estimates (age of information), and the gate's current bound.
  if (!primary_lat.empty() || !secondary_lat.empty()) {
    std::vector<sim::Duration> pooled;
    pooled.reserve(primary_lat.size() + secondary_lat.size());
    pooled.insert(pooled.end(), primary_lat.begin(), primary_lat.end());
    pooled.insert(pooled.end(), secondary_lat.begin(), secondary_lat.end());
    inputs.p50_read_latency = Median(std::move(pooled));
  }
  inputs.secondary_age_s = secondary_staleness_s_;
  inputs.staleness_estimate_s = staleness_estimate_;
  inputs.stale_bound_s = effective_stale_bound_seconds();

  if (!primary_lat.empty() && !secondary_lat.empty()) {
    sim::Duration lss_primary = Median(std::move(primary_lat));
    sim::Duration lss_secondary = Median(std::move(secondary_lat));
    if (config_.subtract_rtt) {
      lss_primary -= MedianRttPrimary();
      lss_secondary -= MedianRttSecondaries();
    }
    lss_primary = std::max(lss_primary, config_.min_server_side_latency);
    lss_secondary = std::max(lss_secondary, config_.min_server_side_latency);
    inputs.ratio = static_cast<double>(lss_primary) /
                   static_cast<double>(lss_secondary);
    inputs.ratio_valid = true;
    inputs.lss_primary = lss_primary;
    inputs.lss_secondary = lss_secondary;
    stats.lss_primary = lss_primary;
    stats.lss_secondary = lss_secondary;
    stats.ratio = inputs.ratio;
    stats.ratio_valid = true;
  }
  // With an empty latency list there is no ratio evidence this period;
  // the controller holds the previous decision (this happens while the
  // staleness gate has zeroed the fraction, or under very light read
  // load).
  obs::BalanceReason reason = obs::BalanceReason::kNone;
  const double new_bal = controller_->NextFraction(inputs, config_, &reason);

  recent_bal_.pop_front();
  recent_bal_.push_back(new_bal);
  PublishFraction();

  ++periods_completed_;
  stats.previous_fraction = latest;
  stats.new_fraction = new_bal;
  stats.published_fraction = state_->balance_fraction();
  stats.staleness_estimate_s = staleness_estimate_;
  stats.reason = reason;

  obs::BalanceDecision decision;
  decision.at = stats.at;
  decision.from_fraction = latest;
  decision.to_fraction = new_bal;
  decision.published_fraction = stats.published_fraction;
  decision.reason = reason;
  decision.term = client_->believed_term();
  decision.ratio = stats.ratio;
  decision.ratio_valid = stats.ratio_valid;
  decision.lss_primary = stats.lss_primary;
  decision.lss_secondary = stats.lss_secondary;
  decision.history_flat = inputs.history_flat;
  decision.staleness_estimate_s = staleness_estimate_;
  decision.stale_bound_s = effective_stale_bound_seconds();
  decision.secondary_staleness_s = secondary_staleness_s_;
  decisions_.Record(std::move(decision));

  if (period_cb_) period_cb_(stats);

  client_->loop().ScheduleAfter(config_.period, [this] { OnPeriodEnd(); });
}

}  // namespace dcg::core
