#ifndef DCG_OBS_DECISION_LOG_H_
#define DCG_OBS_DECISION_LOG_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "sim/time.h"

namespace dcg::obs {

/// Why a Balance Fraction decision came out the way it did — one value
/// per Algorithm 1 branch, plus the staleness-gate transitions the
/// balancer applies on top of the controller.
enum class BalanceReason : uint8_t {
  kNone = 0,
  /// Ratio above HIGHRATIO: primary congested, fraction stepped up.
  kLatencyRatioUp,
  /// Ratio below LOWRATIO: secondaries congested, fraction stepped down.
  kLatencyRatioDown,
  /// Ratio inside the dead band with non-flat history: hold.
  kHold,
  /// Flat history inside the dead band: §3.3 downward freshness probe.
  kDownwardProbe,
  /// A latency list was empty this period: no ratio evidence, hold.
  kNoEvidence,
  /// Staleness estimate crossed StaleBound: published fraction forced to
  /// zero (Algorithm 1 lines 3-7).
  kStaleGateZero,
  /// Staleness estimate dropped back within StaleBound: the controller's
  /// fraction is published again.
  kStaleGateRelease,
  /// The driver observed a primary swap (new term / new primary index):
  /// latency histories and staleness inputs described the *old* primary,
  /// so the balancer reset them and restarted from the floor fraction.
  kPrimarySwapReset,
  /// AoI policy: per-secondary age estimates capped the fraction below
  /// what the latency signal alone would have chosen.
  kAoiCapped,
  /// PID policy: the integral/derivative terms moved the fraction while
  /// the raw ratio sat inside the dead band.
  kPidAdjust,
};

/// Number of BalanceReason values (for reason-indexed count arrays).
inline constexpr size_t kBalanceReasonCount =
    static_cast<size_t>(BalanceReason::kPidAdjust) + 1;

std::string_view ToString(BalanceReason reason);

/// One Balancer decision: every input Algorithm 1 looked at, and what it
/// decided. Period ticks record one of these; staleness-gate transitions
/// (which happen on the 1 s serverStatus cadence, between ticks) record
/// one too, so *every* change of the published fraction has an entry.
struct BalanceDecision {
  sim::Time at = 0;
  /// RecentBal.latest() before / after the decision.
  double from_fraction = 0.0;
  double to_fraction = 0.0;
  /// What clients actually see after the staleness gate.
  double published_fraction = 0.0;
  BalanceReason reason = BalanceReason::kNone;
  /// Election term the driver believed at decision time (0 before any
  /// hello carried one) — lets failover analyses line decisions up
  /// against the primary swap that motivated them.
  uint64_t term = 0;

  // --- controller inputs ---
  double ratio = 0.0;  // Lss,primary / Lss,secondary
  bool ratio_valid = false;
  sim::Duration lss_primary = 0;
  sim::Duration lss_secondary = 0;
  bool history_flat = false;

  // --- staleness inputs ---
  int64_t staleness_estimate_s = 0;
  int64_t stale_bound_s = 0;
  /// Estimated staleness per node at decision time (-1 = unknown or the
  /// primary itself), from the latest serverStatus snapshot.
  std::vector<int64_t> secondary_staleness_s;
};

/// Append-only record of Balancer decisions. Always on — one entry per
/// 10 s control tick plus rare gate transitions is noise-free — and
/// deterministic (fed purely from sim state).
class DecisionLog {
 public:
  DecisionLog() = default;
  DecisionLog(const DecisionLog&) = delete;
  DecisionLog& operator=(const DecisionLog&) = delete;

  void Record(BalanceDecision decision) {
    entries_.push_back(std::move(decision));
  }

  const std::vector<BalanceDecision>& entries() const { return entries_; }
  size_t size() const { return entries_.size(); }

 private:
  std::vector<BalanceDecision> entries_;
};

}  // namespace dcg::obs

#endif  // DCG_OBS_DECISION_LOG_H_
