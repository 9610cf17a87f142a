#include "obs/decision_log.h"

namespace dcg::obs {

std::string_view ToString(BalanceReason reason) {
  switch (reason) {
    case BalanceReason::kNone:
      return "none";
    case BalanceReason::kLatencyRatioUp:
      return "latency_ratio_up";
    case BalanceReason::kLatencyRatioDown:
      return "latency_ratio_down";
    case BalanceReason::kHold:
      return "hold";
    case BalanceReason::kDownwardProbe:
      return "downward_probe";
    case BalanceReason::kNoEvidence:
      return "no_evidence";
    case BalanceReason::kStaleGateZero:
      return "stale_gate_zero";
    case BalanceReason::kStaleGateRelease:
      return "stale_gate_release";
    case BalanceReason::kPrimarySwapReset:
      return "primary_swap_reset";
    case BalanceReason::kAoiCapped:
      return "aoi_capped";
    case BalanceReason::kPidAdjust:
      return "pid_adjust";
  }
  return "unknown";
}

}  // namespace dcg::obs
