#ifndef DCG_METRICS_OP_COUNTERS_H_
#define DCG_METRICS_OP_COUNTERS_H_

#include <cstdint>

namespace dcg::metrics {

/// Per-operation outcome counters maintained by the driver's unified
/// completion path (one increment site for every read/write, however it
/// ended). Exported per period through the experiment CSVs and summarized
/// by sim_cli.
struct OpCounters {
  /// Operations that completed successfully (committed, for writes).
  uint64_t ok = 0;
  /// Operations that hit their client-side deadline before any reply.
  uint64_t timed_out = 0;
  /// Operations a shard rejected for carrying a stale chunk version
  /// (kStaleConfig) — each one costs its router a refresh + re-route.
  uint64_t stale_config = 0;
  /// Operations that needed at least one retry (counted once per op).
  uint64_t retried = 0;
  /// Total retry attempts across all operations.
  uint64_t retries_total = 0;
  /// Speculative second requests sent for hedged reads.
  uint64_t hedges_sent = 0;
  /// Hedged reads where the hedge replied before the primary attempt.
  uint64_t hedges_won = 0;
  /// Connection-pool checkouts delivered to command attempts.
  uint64_t checkouts = 0;
  /// Checkouts that sat in a pool's wait queue past waitQueueTimeoutMS
  /// (each burns one retry on the owning op).
  uint64_t checkout_timeouts = 0;
  /// Envelopes (coalesced command batches) the driver put on the wire.
  uint64_t envelopes_sent = 0;
  /// Command attempts that rode an envelope (sum of envelope occupancies;
  /// ops_batched / envelopes_sent = mean batch occupancy).
  uint64_t ops_batched = 0;
};

}  // namespace dcg::metrics

#endif  // DCG_METRICS_OP_COUNTERS_H_
