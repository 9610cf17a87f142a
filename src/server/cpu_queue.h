#ifndef DCG_SERVER_CPU_QUEUE_H_
#define DCG_SERVER_CPU_QUEUE_H_

#include <cstdint>
#include <deque>
#include <vector>

#include "sim/callback.h"
#include "sim/event_loop.h"
#include "sim/time.h"

namespace dcg::server {

/// A c-server FIFO queue modelling a node's CPUs.
///
/// Jobs carry a pre-sampled service time. When a core is free the job runs
/// immediately; otherwise it waits in arrival order. Queueing delay under
/// load is the congestion signal the whole paper is about: a saturated
/// primary inflates the *server-side* component of read latency, which the
/// Read Balancer detects by subtracting network RTT from client-observed
/// latency.
class CpuQueue {
 public:
  CpuQueue(sim::EventLoop* loop, int cores);

  CpuQueue(const CpuQueue&) = delete;
  CpuQueue& operator=(const CpuQueue&) = delete;

  /// Enqueues a job; `done` runs when its service completes.
  void Submit(sim::Duration service_time, sim::Callback done);

  int cores() const { return cores_; }
  int busy_cores() const { return busy_; }
  size_t queue_length() const { return waiting_.size(); }

  /// Cumulative busy core-time, for utilization accounting.
  sim::Duration total_busy_time() const { return total_busy_time_; }

  /// Mean utilization in [0, 1] over the window since the last call to
  /// ResetUtilizationWindow().
  double WindowUtilization() const;
  void ResetUtilizationWindow();

 private:
  struct Job {
    sim::Duration service_time;
    sim::Callback done;
  };

  void StartJob(sim::Duration service_time, sim::Callback&& done);
  /// Completion event of the job running in `slot`: frees the core and
  /// starts the next waiting job on it, then runs the finished job's
  /// callback.
  void FinishJob(uint32_t slot);

  sim::EventLoop* loop_;
  int cores_;
  int busy_ = 0;
  std::deque<Job> waiting_;
  /// Callbacks of the running jobs, one slot per busy core, recycled
  /// through `free_slots_`: the completion event captures only the slot
  /// index.
  std::vector<sim::Callback> running_;
  std::vector<uint32_t> free_slots_;
  sim::Duration total_busy_time_ = 0;
  sim::Time window_start_ = 0;
  sim::Duration window_busy_start_ = 0;
};

}  // namespace dcg::server

#endif  // DCG_SERVER_CPU_QUEUE_H_
