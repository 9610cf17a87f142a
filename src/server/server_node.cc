#include "server/server_node.h"

#include <algorithm>
#include <utility>

#include "util/check.h"

namespace dcg::server {

namespace {
constexpr int kCores = 8;  // mirrors the r4.2xlarge's 8 vCPUs
}  // namespace

ServerNode::ServerNode(sim::EventLoop* loop, sim::Rng rng, ServerParams params,
                       net::HostId host, std::string name)
    : loop_(loop),
      rng_(std::move(rng)),
      params_(params),
      host_(host),
      name_(std::move(name)),
      cpu_(loop, kCores) {}

void ServerNode::Start() {
  loop_->ScheduleAfter(params_.checkpoint_interval,
                       [this] { RunCheckpointCycle(); });
}

bool ServerNode::checkpointing() const {
  return checkpoint_end_ > loop_->Now();
}

void ServerNode::Execute(OpClass c, sim::Callback done) {
  ExecuteScaled(c, 1.0, std::move(done));
}

void ServerNode::ExecuteScaled(OpClass c, double multiplier,
                               sim::Callback done) {
  ops_executed_[static_cast<int>(c)]++;
  const auto service = static_cast<sim::Duration>(
      static_cast<double>(SampleService(c)) * multiplier);
  ExecuteWithCost(service, std::move(done));
}

sim::Duration ServerNode::SampleService(OpClass c) {
  return params_.service.Sample(c, &rng_);
}

void ServerNode::ExecuteWithCost(sim::Duration base_service,
                                 sim::Callback done) {
  sim::Duration service = base_service;
  if (checkpointing()) {
    service = static_cast<sim::Duration>(static_cast<double>(service) *
                                         params_.checkpoint_slowdown);
  }
  if (fault_slowdown_ != 1.0) {
    service = static_cast<sim::Duration>(static_cast<double>(service) *
                                         fault_slowdown_);
  }
  cpu_.Submit(service, std::move(done));
}

void ServerNode::AddDirtyBytes(uint64_t logical_bytes) {
  dirty_bytes_ += static_cast<uint64_t>(static_cast<double>(logical_bytes) *
                                        params_.write_amplification);
}

void ServerNode::RunCheckpointCycle() {
  if (dirty_bytes_ > 0) {
    const double seconds =
        static_cast<double>(dirty_bytes_) / params_.checkpoint_disk_bw;
    checkpoint_duration_ =
        std::min(sim::Seconds(seconds), params_.checkpoint_max);
    checkpoint_end_ = loop_->Now() + checkpoint_duration_;
    dirty_bytes_ = 0;
    loop_->ScheduleAt(checkpoint_end_, [this] { ++checkpoints_completed_; });
  }
  loop_->ScheduleAfter(params_.checkpoint_interval,
                       [this] { RunCheckpointCycle(); });
}

}  // namespace dcg::server
