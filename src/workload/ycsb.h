#ifndef DCG_WORKLOAD_YCSB_H_
#define DCG_WORKLOAD_YCSB_H_

#include <functional>
#include <string>

#include "core/routing_policy.h"
#include "doc/value.h"
#include "driver/client.h"
#include "store/database.h"
#include "workload/key_chooser.h"
#include "workload/workload.h"

namespace dcg::workload {

/// YCSB configuration. The paper uses YCSB-A (50 % reads / 50 % updates)
/// and YCSB-B (95 % reads / 5 % updates), both with zipfian key choice.
/// Fields per YCSB record besides "_id".
inline constexpr int kYcsbFieldCount = 5;

struct YcsbConfig {
  int64_t record_count = 20'000;
  double read_proportion = 0.5;  // A = 0.5, B = 0.95
  double zipfian_theta = 0.99;
  std::string table = "usertable";
  /// Sharded runs: stamp collection + shard key (the record id) on every
  /// op so a shard::Router can resolve the owning shard. Inert against a
  /// plain replica set (the unsharded server ignores routing info).
  bool stamp_route = false;

  static YcsbConfig WorkloadA() {
    YcsbConfig c;
    c.read_proportion = 0.5;
    return c;
  }
  static YcsbConfig WorkloadB() {
    YcsbConfig c;
    c.read_proportion = 0.95;
    return c;
  }
};

/// YCSB over the replica set: point reads routed by the RoutingPolicy,
/// single-field updates always to the primary.
class YcsbWorkload : public Workload {
 public:
  YcsbWorkload(driver::MongoClient* client, core::RoutingPolicy* policy,
               YcsbConfig config, sim::Rng rng);

  /// Populates `db` with the record set. Call once per replica node before
  /// the run — the experiment starts from an already-replicated snapshot,
  /// like restoring all nodes from the same backup. `keep` filters the
  /// record ids loaded (sharded runs load each node with only the records
  /// its shard owns) before any value is built. A field's value depends
  /// only on its (key, field) slot and is distinct from every other
  /// slot's, so the union across shards equals the unsharded snapshot.
  static void Load(const YcsbConfig& config, store::Database* db,
                   const std::function<bool(int64_t)>& keep = nullptr);

  /// Switches the read/write mix mid-run (the Figure 2/3 phase changes).
  void set_read_proportion(double p) { config_.read_proportion = p; }
  double read_proportion() const { return config_.read_proportion; }

  void Issue(int client_idx, Done done) override;
  std::string_view name() const override { return "ycsb"; }

  uint64_t reads_issued() const { return reads_issued_; }
  uint64_t updates_issued() const { return updates_issued_; }
  /// Served read attempts that found no document (should stay 0 —
  /// asserts data integrity across routing and replication).
  uint64_t missing_reads() const { return missing_reads_; }

 private:
  /// A fresh record shape: "_id", then "field0" ..
  /// "field<kYcsbFieldCount-1>". Load's records share one; the workload
  /// keeps its own for the field names its updates set.
  static doc::ShapeRef RecordShape();

  void IssueRead(Done done);
  void IssueUpdate(Done done);

  driver::MongoClient* client_;
  core::RoutingPolicy* policy_;
  YcsbConfig config_;
  sim::Rng rng_;
  ScrambledZipfianGenerator key_chooser_;
  doc::ShapeRef record_shape_;  // the names IssueUpdate sets
  uint64_t reads_issued_ = 0;
  uint64_t updates_issued_ = 0;
  uint64_t missing_reads_ = 0;
};

}  // namespace dcg::workload

#endif  // DCG_WORKLOAD_YCSB_H_
