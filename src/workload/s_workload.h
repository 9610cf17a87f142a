#ifndef DCG_WORKLOAD_S_WORKLOAD_H_
#define DCG_WORKLOAD_S_WORKLOAD_H_

#include <functional>

#include "driver/client.h"
#include "store/database.h"

namespace dcg::workload {

/// The staleness-monitoring S workload (§4.1.5): a writer that keeps
/// writing the current (simulated) timestamp into a dedicated document,
/// and a reader that periodically issues a *pair* of reads — one with
/// Read Preference Primary, one with Secondary — and reports the
/// staleness of the secondary's value as the difference between the two
/// returned timestamps.
///
/// When the application is not using secondaries at all (the supplied
/// `secondary_in_use` callback returns false), the second probe read also
/// goes to the primary, so no fake staleness is reported — the refinement
/// §4.1.5 introduces over the authors' earlier send-time-based method.
class SWorkload {
 public:
  /// `on_sample(staleness_seconds)` fires once per completed probe pair.
  SWorkload(driver::MongoClient* client,
            std::function<bool()> secondary_in_use,
            std::function<void(double)> on_sample);

  /// Seeds the probe document; call on every node's database before the
  /// run (same pre-replicated-snapshot convention as the main workloads).
  static void Load(store::Database* db);

  /// Starts the writer and reader loops.
  void Start();

  uint64_t writes_completed() const { return writes_completed_; }
  uint64_t probes_completed() const { return probes_completed_; }
  double max_staleness_seen() const { return max_staleness_seen_; }

 private:
  void WriterLoop();
  void ReaderLoop();

  driver::MongoClient* client_;
  std::function<bool()> secondary_in_use_;
  std::function<void(double)> on_sample_;
  uint64_t writes_completed_ = 0;
  uint64_t probes_completed_ = 0;
  double max_staleness_seen_ = 0.0;
};

}  // namespace dcg::workload

#endif  // DCG_WORKLOAD_S_WORKLOAD_H_
