#ifndef DCG_EXP_CSV_EXPORT_H_
#define DCG_EXP_CSV_EXPORT_H_

#include <string>

#include "exp/experiment.h"

namespace dcg::exp {

/// Writes the per-period time series (one row per report period): the
/// paper's PeriodRow columns (throughput, P80 latency, secondary share,
/// staleness estimate, Stock Level, served-read age), then one column per
/// metrics-registry counter or gauge in registration order, named
/// `name` or `name{k=v|k=v}`, with values from MetricsRegistry::PerPeriod.
/// Histograms stay in the registry's JSON and long CSV. Every writer here
/// returns false on any I/O failure, a full disk included.
bool WritePeriodsCsv(const Experiment& experiment, const std::string& path);

/// Writes the per-second staleness series (estimate + ground truth).
bool WriteStalenessCsv(const Experiment& experiment, const std::string& path);

/// Writes the individual S-workload staleness samples.
bool WriteSamplesCsv(const Experiment& experiment, const std::string& path);

/// Writes the Balancer decision log — one row per control tick or
/// staleness-gate transition, with every Algorithm 1 input and the reason
/// for the move. Header-only for the fixed-preference baselines.
bool WriteDecisionsCsv(const Experiment& experiment, const std::string& path);

/// Sharded runs: one row per (report period, shard) with the shard's
/// published balance fraction and the point ops the router dispatched to
/// it that period (the registry's balance_fraction{shard} and
/// routed_to_shard{shard} series). Header-only for single-replica-set
/// runs.
bool WriteShardsCsv(const Experiment& experiment, const std::string& path);

/// Writes the SLO alert transition log — one row per state-machine edge
/// (pending/firing/cancelled/resolved) with the burn rates and window
/// counts behind it. Header-only when the run had no --slo objectives.
bool WriteSloCsv(const Experiment& experiment, const std::string& path);

}  // namespace dcg::exp

#endif  // DCG_EXP_CSV_EXPORT_H_
