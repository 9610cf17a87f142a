#ifndef DCG_WORKLOAD_WORKLOAD_H_
#define DCG_WORKLOAD_WORKLOAD_H_

#include <functional>
#include <string_view>

#include "driver/client.h"

namespace dcg::workload {

/// The result of one application operation/transaction, as the experiment
/// recorder sees it: the driver's per-op record plus the workload's label.
struct OpOutcome : driver::OpResult {
  OpOutcome(std::string_view type, const driver::OpResult& result)
      : driver::OpResult(result), type(type), read_only(result.is_read) {}

  /// Stable label: "read", "update", "stock_level", "new_order", ...
  std::string_view type;
  /// True for read-only transactions — the ones Decongestant routes. The
  /// same as `is_read`; perfbench/runner.cc reads it under this name.
  bool read_only = false;
};

/// A closed-loop workload generator: `Issue` starts one operation for a
/// client slot and reports its outcome when it completes. The ClientPool
/// drives N concurrent slots against it.
class Workload {
 public:
  virtual ~Workload() = default;

  using Done = std::function<void(const OpOutcome&)>;
  virtual void Issue(int client_idx, Done done) = 0;

  virtual std::string_view name() const = 0;
};

}  // namespace dcg::workload

#endif  // DCG_WORKLOAD_WORKLOAD_H_
