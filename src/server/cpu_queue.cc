#include "server/cpu_queue.h"

#include <utility>

#include "util/check.h"

namespace dcg::server {

CpuQueue::CpuQueue(sim::EventLoop* loop, int cores)
    : loop_(loop), cores_(cores) {
  DCG_CHECK(cores >= 1);
}

void CpuQueue::Submit(sim::Duration service_time, sim::Callback done) {
  if (service_time < 0) service_time = 0;
  if (busy_ < cores_) {
    StartJob(service_time, std::move(done));
  } else {
    waiting_.push_back(Job{service_time, std::move(done)});
  }
}

void CpuQueue::StartJob(sim::Duration service_time, sim::Callback&& done) {
  ++busy_;
  total_busy_time_ += service_time;
  uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<uint32_t>(running_.size());
    running_.push_back(std::move(done));
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    running_[slot] = std::move(done);
  }
  loop_->ScheduleAfter(service_time, [this, slot] { FinishJob(slot); });
}

void CpuQueue::FinishJob(uint32_t slot) {
  // Take the callback out first: the next job may start in this very slot.
  sim::Callback done = std::move(running_[slot]);
  free_slots_.push_back(slot);
  --busy_;
  if (!waiting_.empty()) {
    Job& next = waiting_.front();
    StartJob(next.service_time, std::move(next.done));
    waiting_.pop_front();
  }
  done();
}

double CpuQueue::WindowUtilization() const {
  const sim::Duration window = loop_->Now() - window_start_;
  if (window <= 0) return 0.0;
  const auto busy = static_cast<double>(total_busy_time_ -
                                        window_busy_start_);
  return busy / (static_cast<double>(window) * cores_);
}

void CpuQueue::ResetUtilizationWindow() {
  window_start_ = loop_->Now();
  window_busy_start_ = total_busy_time_;
}

}  // namespace dcg::server
