#include "repl/replica_set.h"


#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>

#include "util/check.h"

namespace dcg::repl {

ReplicaSet::ReplicaSet(sim::EventLoop* loop, sim::Rng rng,
                       net::Network* network, ReplicaSetParams params,
                       server::ServerParams node_params,
                       std::vector<net::HostId> hosts)
    : loop_(loop),
      rng_(std::move(rng)),
      network_(network),
      params_(params),
      oplog_(params.oplog_capacity),
      bus_(network) {
  DCG_CHECK(params_.secondaries >= 1);
  DCG_CHECK(static_cast<int>(hosts.size()) == params_.secondaries + 1);
  for (int i = 0; i <= params_.secondaries; ++i) {
    const std::string name =
        i == 0 ? "primary" : "secondary-" + std::to_string(i);
    nodes_.push_back(std::make_unique<ReplicaNode>(loop_, rng_.Fork(),
                                                   node_params, hosts[i],
                                                   name));
  }
  // Each node fronts its replication state with a wire-protocol command
  // service; registration order defines the driver-visible node indexing.
  for (int i = 0; i <= params_.secondaries; ++i) {
    services_.push_back(std::make_unique<server::CommandService>(
        loop_, network_, this, i, hosts[i]));
    server::CommandService* service = services_.back().get();
    bus_.RegisterService(hosts[i], [service](proto::Command command) {
      service->Handle(std::move(command));
    });
    bus_.RegisterEnvelopeService(hosts[i],
                                 [service](proto::Envelope envelope) {
                                   service->HandleEnvelope(
                                       std::move(envelope));
                                 });
  }
  known_last_applied_.resize(nodes_.size());
  alive_.assign(nodes_.size(), true);
  pulling_.assign(nodes_.size(), false);
  heartbeating_.assign(nodes_.size(), false);
  pull_epoch_.assign(nodes_.size(), 0);
  pull_deadline_.assign(nodes_.size(), 0);
  apply_throttle_.assign(nodes_.size(), 1.0);
  report_skew_.assign(nodes_.size(), 0);
  election_timer_epoch_.assign(nodes_.size(), 0);
  election_timer_armed_.assign(nodes_.size(), false);
  takeover_epoch_.assign(nodes_.size(), 0);
  needs_resync_.assign(nodes_.size(), false);
  // The seed topology is writable from t=0: node 0 leads term 1.
  RecordWritable(term_, primary_index_);
  // Coordinator RNG streams fork after the per-node forks above.
  TopologyConfig tc;
  tc.node_count = node_count();
  tc.election_timeout = params_.election_timeout;
  tc.timeout_jitter_fraction = params_.election_jitter_fraction;
  tc.heartbeat_interval = params_.heartbeat_interval;
  tc.priority_takeover_delay = params_.priority_takeover_delay;
  tc.priority_takeover_gap = params_.priority_takeover_gap;
  tc.priorities = params_.node_priorities;
  for (int i = 0; i < node_count(); ++i) {
    coords_.push_back(std::make_unique<TopologyCoordinator>(
        i, tc, rng_.Fork(), /*initial_leader=*/primary_index_, loop_->Now()));
  }
  for (int i = 0; i < node_count(); ++i) SyncNodeView(i);
}

void ReplicaSet::SyncNodeView(int idx) {
  node(idx).set_role_view(coords_[idx]->role(), coords_[idx]->term());
}

void ReplicaSet::RecordWritable(uint64_t term, int node) {
  std::vector<int>& writers = writable_by_term_[term];
  if (std::find(writers.begin(), writers.end(), node) == writers.end()) {
    writers.push_back(node);
  }
}

void ReplicaSet::RecordCommit(uint64_t term, int node) {
  std::vector<int>& writers = commits_by_term_[term];
  if (std::find(writers.begin(), writers.end(), node) == writers.end()) {
    writers.push_back(node);
  }
}

uint64_t ReplicaSet::stepdowns() const {
  uint64_t total = 0;
  for (const auto& coord : coords_) total += coord->stepdowns();
  return total;
}

void ReplicaSet::SetApplyThrottle(int idx, double factor) {
  DCG_CHECK(idx >= 0 && idx < node_count());
  DCG_CHECK(factor > 0.0);
  apply_throttle_[idx] = factor;
}

void ReplicaSet::SetReportSkew(int idx, sim::Duration skew) {
  DCG_CHECK(idx >= 0 && idx < node_count());
  report_skew_[idx] = skew;
}

void ReplicaSet::ArmPullDeadline(int idx, sim::Duration extra) {
  pull_deadline_[idx] = loop_->Now() + extra + params_.pull_retry_timeout;
}

void ReplicaSet::RetirePull(int idx) {
  ++pull_epoch_[idx];
  pulling_[idx] = false;
}

void ReplicaSet::Start() {
  for (auto& node : nodes_) node->server().Start();
  for (int i = 0; i < node_count(); ++i) {
    if (IsActiveSecondary(i)) StartPull(i);
  }
  for (int i = 0; i < node_count(); ++i) {
    if (!alive_[i]) continue;
    if (!heartbeating_[i]) {
      heartbeating_[i] = true;
      RaftHeartbeatLoop(i);
    }
    ArmElectionTimer(i);
  }
}

void ReplicaSet::StartPull(int idx) {
  if (!pulling_[idx]) {
    pulling_[idx] = true;
    ArmPullDeadline(idx);
    SendGetMore(idx, pull_epoch_[idx]);
  }
}

void ReplicaSet::KillNode(int idx) {
  DCG_CHECK(idx >= 0 && idx < node_count());
  if (!alive_[idx]) return;
  alive_[idx] = false;
  RetirePull(idx);
  // Retire the member's election-check and takeover chains; survivors'
  // own randomized timeouts notice the silence and campaign.
  ++election_timer_epoch_[idx];
  election_timer_armed_[idx] = false;
  ++takeover_epoch_[idx];
  // Acknowledgements in flight are lost with the primary; their outcome
  // is uncertain to the client.
  if (idx == primary_index_) FailMajorityWaiters();
}

void ReplicaSet::RestartNode(int idx) {
  DCG_CHECK(idx >= 0 && idx < node_count());
  DCG_CHECK_MSG(!alive_[idx], "node is already running");
  DCG_CHECK_MSG(alive_[primary_index_], "no primary to initial-sync from");
  // Initial sync: clone the current primary's data wholesale, then join
  // the oplog stream from the primary's current position.
  node(idx).db().ResetFrom(primary().db());
  node(idx).ResetForResync(primary().last_applied());
  known_last_applied_[idx] = primary().last_applied();
  alive_[idx] = true;
  needs_resync_[idx] = false;  // the clone is consistent by construction
  coords_[idx]->Rejoin(loop_->Now());
  SyncNodeView(idx);
  if (!heartbeating_[idx]) {
    heartbeating_[idx] = true;
    RaftHeartbeatLoop(idx);
  }
  ArmElectionTimer(idx);
  StartPull(idx);
}

void ReplicaSet::CommitInternal(
    int node_idx, server::OpClass op_class, proto::TxnBody body,
    uint64_t op_id, double cost_scale,
    std::function<void(const server::WriteOutcome&)> done,
    WriteConcern concern) {
  double throttle = 1.0;
  if (params_.flow_control_enabled &&
      KnownMaxLag() > params_.flow_control_target_lag) {
    throttle = params_.flow_control_throttle;
    ++flow_control_engaged_writes_;
  }
  // Envelope amortisation composes with flow control: the throttle
  // stretches whatever the (possibly discounted) service sample is.
  throttle *= cost_scale;
  // The write queues on the CPU of the member it arrived at (the one
  // that believed itself primary); at the commit instant that member
  // must still lead the data plane — same term, same primary index — or
  // nothing is applied. A deposed primary that still accepts a write
  // therefore executes it and fails it, never committing into a history
  // it no longer owns: at most one member commits per term.
  const int expected_primary = node_idx;
  const uint64_t expected_term = term_;
  nodes_[node_idx]->server().ExecuteScaled(
      op_class, throttle,
      [this, body = std::move(body), done = std::move(done), concern, op_id,
       expected_primary, expected_term] {
        // The node lost the primary role (or crashed) while the operation
        // was queued: the write never commits (and is safe to retry).
        if (!alive_[expected_primary] || term_ != expected_term ||
            primary_index_ != expected_primary) {
          if (done) done(server::WriteOutcome{});
          return;
        }
        ReplicaNode& leader = *nodes_[expected_primary];
        TxnContext ctx(&leader.db());
        body(&ctx);
        if (ctx.aborted()) {
          server::WriteOutcome outcome;
          outcome.ok = true;
          outcome.committed = false;
          outcome.operation_time = leader.last_applied();
          // Aborts are deterministic outcomes of the body; record them so
          // a retry is acknowledged identically instead of re-running.
          if (op_id != 0) {
            retry_records_[op_id] = {false, outcome.operation_time};
          }
          if (done) done(outcome);
          return;
        }
        uint64_t commit_seq = leader.last_applied().seq;
        for (OplogEntry& entry : ctx.entries()) {
          entry.optime = OpTime{loop_->Now(), next_seq_++};
          commit_seq = entry.optime.seq;
          leader.server().AddDirtyBytes(entry.approx_bytes);
          leader.AdvanceLastApplied(entry.optime);
          oplog_.Append(std::move(entry));
        }
        ++committed_writes_;
        RecordCommit(expected_term, expected_primary);
        server::WriteOutcome outcome;
        outcome.ok = true;
        outcome.committed = true;
        outcome.operation_time = leader.last_applied();
        // The transaction record is written at the commit instant — not at
        // ack time — so a retry after a lost w:majority ack replies from
        // the record iff the commit itself survived (election purge).
        if (op_id != 0) {
          retry_records_[op_id] = {true, outcome.operation_time};
        }
        if (concern == WriteConcern::kMajority && done) {
          // Acknowledge once a majority of nodes are known to have
          // applied the commit point. The wait from the commit instant to
          // the ack is the write's replication slice — recorded as a
          // commit_wait span when the op is traced.
          const sim::Time commit_at = loop_->Now();
          const bool traced =
              tracer_ != nullptr && tracer_->enabled() && op_id != 0;
          majority_waiters_.push_back(
              {commit_seq,
               [this, done = std::move(done), outcome, commit_at, traced,
                op_id](bool ok) {
                 if (traced) {
                   obs::SpanRecord span;
                   span.trace_id = op_id;
                   span.span_id = tracer_->NewSpanId();
                   span.kind = obs::SpanKind::kCommitWait;
                   span.start = commit_at;
                   span.end = loop_->Now();
                   span.node = primary_index_;
                   span.ok = ok;
                   tracer_->Record(span);
                 }
                 if (ok) {
                   ++majority_writes_acked_;
                   done(outcome);
                 } else {
                   // Primary crashed before the ack: uncertain outcome,
                   // surfaced like an infrastructure failure.
                   done(server::WriteOutcome{});
                 }
               }});
          CheckMajorityWaiters();
          return;
        }
        if (done) done(outcome);
      });
}

void ReplicaSet::CommitWrite(
    int node, server::OpClass op_class, proto::TxnBody body,
    WriteConcern concern, uint64_t op_id, double cost_scale,
    std::function<void(const server::WriteOutcome&)> done) {
  if (op_id != 0) {
    if (auto it = retry_records_.find(op_id); it != retry_records_.end()) {
      // Retryable write replay: acknowledge from the transaction record
      // without executing the body a second time.
      server::WriteOutcome outcome;
      outcome.ok = true;
      outcome.committed = it->second.committed;
      outcome.operation_time = it->second.operation_time;
      done(outcome);
      return;
    }
    if (auto it = retry_waiters_.find(op_id); it != retry_waiters_.end()) {
      // The first attempt is still in the CPU queue (a retry raced a slow
      // — not lost — original): attach to its outcome.
      it->second.push_back(std::move(done));
      return;
    }
    retry_waiters_[op_id];  // mark in progress
    CommitInternal(
        node, op_class, std::move(body), op_id, cost_scale,
        [this, op_id,
         done = std::move(done)](const server::WriteOutcome& outcome) {
          std::vector<std::function<void(const server::WriteOutcome&)>>
              waiters = std::move(retry_waiters_[op_id]);
          retry_waiters_.erase(op_id);
          done(outcome);
          for (auto& waiter : waiters) waiter(outcome);
        },
        concern);
    return;
  }
  CommitInternal(node, op_class, std::move(body), /*op_id=*/0, cost_scale,
                 std::move(done), concern);
}

proto::ServerStatusReply ReplicaSet::ServerStatusSnapshot() {
  ServerStatusReply reply;
  reply.primary_last_applied = primary().last_applied();
  for (int i = 0; i < node_count(); ++i) {
    if (i == primary_index_ || !alive_[i]) continue;
    reply.secondary_last_applied.push_back(known_last_applied_[i]);
    reply.secondary_nodes.push_back(i);
  }
  reply.generated_at = loop_->Now();
  return reply;
}

void ReplicaSet::ServerStatus(
    std::function<void(const ServerStatusReply&)> done) {
  primary().server().Execute(server::OpClass::kServerStatus,
                             [this, done = std::move(done)] {
                               done(ServerStatusSnapshot());
                             });
}

int64_t ReplicaSet::MaxStalenessSeconds(const ServerStatusReply& reply) {
  return proto::MaxStalenessSeconds(reply);
}

sim::Duration ReplicaSet::TrueStaleness(int secondary_idx) const {
  DCG_CHECK(secondary_idx >= 0 && secondary_idx < node_count());
  DCG_CHECK(secondary_idx != primary_index_);
  const OpTime& p = primary().last_applied();
  const OpTime& s = node(secondary_idx).last_applied();
  if (s.seq >= p.seq) return 0;
  return p.wall - s.wall;
}

sim::Duration ReplicaSet::MaxTrueStaleness() const {
  sim::Duration max_lag = 0;
  for (int i = 0; i < node_count(); ++i) {
    if (i == primary_index_ || !alive_[i]) continue;
    max_lag = std::max(max_lag, TrueStaleness(i));
  }
  return max_lag;
}

sim::Duration ReplicaSet::KnownMaxLag() const {
  const OpTime& p = primary().last_applied();
  sim::Duration max_lag = 0;
  for (int i = 0; i < node_count(); ++i) {
    if (i == primary_index_ || !alive_[i]) continue;
    const OpTime& sec = known_last_applied_[i];
    if (sec.seq >= p.seq) continue;
    max_lag = std::max(max_lag, p.wall - sec.wall);
  }
  return max_lag;
}

int ReplicaSet::KnownReplicationCount(uint64_t seq) const {
  int count = primary().last_applied().seq >= seq ? 1 : 0;
  for (int i = 0; i < node_count(); ++i) {
    if (i == primary_index_ || !alive_[i]) continue;
    if (known_last_applied_[i].seq >= seq) ++count;
  }
  return count;
}

namespace {
// Extra pull-deadline slack while a getMore sits in the primary's CPU
// queue: a congested primary legitimately delays the batch for many
// seconds (the paper's Figure 9 mechanism), which must not look like a
// lost message to the watchdog.
constexpr sim::Duration kPullQueueGrace = sim::Seconds(30);
}  // namespace

void ReplicaSet::SendGetMore(int secondary_idx, uint64_t epoch) {
  if (epoch != pull_epoch_[secondary_idx]) return;  // superseded chain
  if (!IsActiveSecondary(secondary_idx)) {
    pulling_[secondary_idx] = false;  // loop retires
    return;
  }
  if (needs_resync_[secondary_idx]) {
    // An election rolled back entries this member already applied; it
    // must re-clone before it can pull again (rollback via refetch).
    ResyncStep(secondary_idx, epoch);
    return;
  }
  ArmPullDeadline(secondary_idx);  // covers the request's network hop
  network_->Send(node(secondary_idx).host(), primary().host(),
                 [this, secondary_idx, epoch] {
                   HandleGetMoreAtPrimary(secondary_idx, epoch);
                 });
}

void ReplicaSet::HandleGetMoreAtPrimary(int secondary_idx, uint64_t epoch) {
  if (epoch != pull_epoch_[secondary_idx]) return;
  if (!IsActiveSecondary(secondary_idx)) {
    pulling_[secondary_idx] = false;
    return;
  }
  if (!alive_[primary_index_]) {
    // No primary to pull from: retry after the idle interval; the
    // election will install a new sync source.
    ArmPullDeadline(secondary_idx, params_.getmore_idle_poll);
    loop_->ScheduleAfter(params_.getmore_idle_poll,
                         [this, secondary_idx, epoch] {
                           SendGetMore(secondary_idx, epoch);
                         });
    return;
  }
  server::ServerNode& p = primary().server();
  // §4.5: a long checkpoint flush saturates the disk and the primary stops
  // answering oplog getMores until it completes; secondaries then catch up
  // in one large batch.
  if (p.checkpointing()) {
    if (p.checkpoint_duration() > params_.getmore_block_threshold) {
      ++getmore_stalls_;
      ArmPullDeadline(secondary_idx, p.checkpoint_end() - loop_->Now());
      loop_->ScheduleAt(p.checkpoint_end() + sim::Millis(1),
                        [this, secondary_idx, epoch] {
                          HandleGetMoreAtPrimary(secondary_idx, epoch);
                        });
      return;
    }
    if (params_.getmore_soft_delay > 0) {
      // Short checkpoint: the flush is competing for the disk, so oplog
      // reads are slow but not stopped. Defer once, then serve.
      const sim::Duration defer = std::min(
          params_.getmore_soft_delay, p.checkpoint_end() - loop_->Now());
      ArmPullDeadline(secondary_idx, defer);
      loop_->ScheduleAfter(defer, [this, secondary_idx, epoch] {
        ServeGetMore(secondary_idx, epoch);
      });
      return;
    }
  }
  ServeGetMore(secondary_idx, epoch);
}

void ReplicaSet::ServeGetMore(int secondary_idx, uint64_t epoch) {
  if (epoch != pull_epoch_[secondary_idx]) return;
  if (!IsActiveSecondary(secondary_idx)) {
    pulling_[secondary_idx] = false;
    return;
  }
  if (!alive_[primary_index_]) {
    ArmPullDeadline(secondary_idx, params_.getmore_idle_poll);
    loop_->ScheduleAfter(params_.getmore_idle_poll,
                         [this, secondary_idx, epoch] {
                           SendGetMore(secondary_idx, epoch);
                         });
    return;
  }
  ArmPullDeadline(secondary_idx, kPullQueueGrace);
  primary().server().Execute(
      server::OpClass::kGetMore, [this, secondary_idx, epoch] {
        if (epoch != pull_epoch_[secondary_idx]) return;
        std::vector<OplogEntry> batch =
            oplog_.ReadAfter(node(secondary_idx).last_applied().seq,
                             params_.getmore_max_batch);
        // The request survived; only the reply hop remains at risk.
        ArmPullDeadline(secondary_idx);
        network_->Send(
            primary().host(), node(secondary_idx).host(),
            [this, secondary_idx, epoch, batch = std::move(batch)]() mutable {
              HandleBatchAtSecondary(secondary_idx, std::move(batch), epoch);
            });
      });
}

void ReplicaSet::HandleBatchAtSecondary(int secondary_idx,
                                        std::vector<OplogEntry> batch,
                                        uint64_t epoch) {
  if (epoch != pull_epoch_[secondary_idx]) return;
  if (!IsActiveSecondary(secondary_idx)) {
    pulling_[secondary_idx] = false;
    return;
  }
  if (batch.empty()) {
    ArmPullDeadline(secondary_idx, params_.getmore_idle_poll);
    loop_->ScheduleAfter(params_.getmore_idle_poll,
                         [this, secondary_idx, epoch] {
                           SendGetMore(secondary_idx, epoch);
                         });
    return;
  }
  ReplicaNode& sec = node(secondary_idx);
  // Application cost scales with batch size; one lognormal factor models
  // run-to-run variance without sampling per entry. The apply-throttle
  // fault stretches it further.
  const sim::Duration per_entry =
      sec.server().SampleService(server::OpClass::kOplogApply);
  const auto cost = static_cast<sim::Duration>(
      static_cast<double>(per_entry) * static_cast<double>(batch.size()) *
      apply_throttle_[secondary_idx]);
  ArmPullDeadline(secondary_idx, cost + kPullQueueGrace);
  sec.server().ExecuteWithCost(
      cost, [this, secondary_idx, epoch, batch = std::move(batch)] {
        if (epoch != pull_epoch_[secondary_idx]) return;
        if (!IsActiveSecondary(secondary_idx)) {
          pulling_[secondary_idx] = false;
          return;
        }
        ReplicaNode& s = node(secondary_idx);
        for (const OplogEntry& entry : batch) s.ApplyEntry(entry);
        ReleaseAppliedDocs();
        // More data may already be waiting: pull again immediately.
        SendGetMore(secondary_idx, epoch);
      });
}

void ReplicaSet::ReleaseAppliedDocs() {
  uint64_t min_applied = UINT64_MAX;
  for (int i = 0; i < node_count(); ++i) {
    if (alive_[i]) {
      min_applied = std::min(min_applied, node(i).last_applied().seq);
    }
  }
  if (min_applied != UINT64_MAX) oplog_.ReleaseDocsThrough(min_applied);
}

void ReplicaSet::CheckMajorityWaiters() {
  const int majority = node_count() / 2 + 1;
  for (size_t i = 0; i < majority_waiters_.size();) {
    if (KnownReplicationCount(majority_waiters_[i].seq) >= majority) {
      std::function<void(bool)> ack = std::move(majority_waiters_[i].ack);
      majority_waiters_.erase(majority_waiters_.begin() +
                              static_cast<ptrdiff_t>(i));
      ack(true);
    } else {
      ++i;
    }
  }
}

void ReplicaSet::FailMajorityWaiters() {
  std::vector<MajorityWaiter> failed = std::move(majority_waiters_);
  majority_waiters_.clear();
  for (MajorityWaiter& waiter : failed) waiter.ack(false);
}

// --- elections -----------------------------------------------------------

void ReplicaSet::ResyncStep(int idx, uint64_t epoch) {
  if (epoch != pull_epoch_[idx]) return;
  if (!IsActiveSecondary(idx)) {
    pulling_[idx] = false;
    return;
  }
  if (!alive_[primary_index_]) {
    // Nothing consistent to clone from yet; poll until an election
    // installs a live leader.
    ArmPullDeadline(idx, params_.getmore_idle_poll);
    loop_->ScheduleAfter(params_.getmore_idle_poll, [this, idx, epoch] {
      SendGetMore(idx, epoch);
    });
    return;
  }
  ArmPullDeadline(idx);
  network_->Send(node(idx).host(), primary().host(), [this, idx, epoch] {
    if (epoch != pull_epoch_[idx] || !IsActiveSecondary(idx)) return;
    if (!alive_[primary_index_]) {
      ArmPullDeadline(idx, params_.getmore_idle_poll);
      loop_->ScheduleAfter(params_.getmore_idle_poll, [this, idx, epoch] {
        SendGetMore(idx, epoch);
      });
      return;
    }
    ArmPullDeadline(idx);
    network_->Send(primary().host(), node(idx).host(), [this, idx, epoch] {
      if (epoch != pull_epoch_[idx] || !IsActiveSecondary(idx)) return;
      if (!needs_resync_[idx]) {
        SendGetMore(idx, epoch);
        return;
      }
      // Rollback via refetch: drop the diverged history, clone the
      // current primary wholesale, rejoin the stream from its position.
      node(idx).db().ResetFrom(primary().db());
      node(idx).ResetForResync(primary().last_applied());
      known_last_applied_[idx] = primary().last_applied();
      needs_resync_[idx] = false;
      ++rollback_resyncs_;
      ArmPullDeadline(idx);
      SendGetMore(idx, epoch);
    });
  });
}

void ReplicaSet::ArmElectionTimer(int idx) {
  if (election_timer_armed_[idx]) return;
  election_timer_armed_[idx] = true;
  ScheduleElectionCheck(idx, ++election_timer_epoch_[idx]);
}

void ReplicaSet::ScheduleElectionCheck(int idx, uint64_t epoch) {
  // One chain per live member: fire at the coordinator's deadline (the
  // deadline usually moves forward before the event fires — leader
  // contact re-arms it — in which case the firing is a cheap no-op that
  // reschedules at the new deadline).
  const sim::Time at =
      std::max(coords_[idx]->election_deadline(), loop_->Now() + 1);
  loop_->ScheduleAt(at, [this, idx, epoch] {
    if (epoch != election_timer_epoch_[idx]) return;
    if (!alive_[idx]) {
      election_timer_armed_[idx] = false;
      return;
    }
    if (loop_->Now() >= coords_[idx]->election_deadline()) {
      ApplyAction(idx, coords_[idx]->OnElectionTimeout(loop_->Now()));
    }
    ScheduleElectionCheck(idx, epoch);
  });
}

void ReplicaSet::ApplyAction(int idx, const TopologyAction& action) {
  SyncNodeView(idx);
  if (action.stepped_down) {
    // A member that stopped believing itself primary resumes consuming
    // the stream if it is, in data-plane terms, an active secondary
    // whose pull was parked (e.g. a deposed catch-up winner).
    if (IsActiveSecondary(idx) && !pulling_[idx]) StartPull(idx);
  }
  if (action.start_dry_run || action.start_election) {
    BroadcastVoteRequests(idx);
  }
  if (action.won_election) BeginStepUp(idx);
  if (action.takeover_at >= 0) ScheduleTakeoverCheck(idx, action.takeover_at);
}

void ReplicaSet::BroadcastVoteRequests(int idx) {
  const VoteRequest req =
      coords_[idx]->CampaignRequest(node(idx).last_applied());
  for (int j = 0; j < node_count(); ++j) {
    if (j == idx) continue;
    network_->Send(node(idx).host(), node(j).host(), [this, j, req] {
      if (!alive_[j]) return;  // dead voters are silent
      const MemberRole role_before = coords_[j]->role();
      const VoteResponse resp =
          coords_[j]->OnVoteRequest(req, node(j).last_applied(), loop_->Now());
      SyncNodeView(j);
      // A real vote carrying a higher term can depose the voter itself
      // (a leader granting a takeover vote steps down right here).
      if (role_before == MemberRole::kPrimary &&
          coords_[j]->role() != role_before && IsActiveSecondary(j) &&
          !pulling_[j]) {
        StartPull(j);
      }
      network_->Send(node(j).host(), node(req.candidate).host(),
                     [this, resp] {
                       const int cand = resp.candidate;
                       if (cand < 0 || !alive_[cand]) return;
                       ApplyAction(
                           cand, coords_[cand]->OnVoteResponse(
                                     resp, loop_->Now()));
                     });
    });
  }
}

void ReplicaSet::ScheduleTakeoverCheck(int idx, sim::Time at) {
  const uint64_t epoch = takeover_epoch_[idx];
  loop_->ScheduleAt(std::max(at, loop_->Now() + 1), [this, idx, epoch] {
    if (epoch != takeover_epoch_[idx] || !alive_[idx]) return;
    ApplyAction(idx, coords_[idx]->OnPriorityTakeoverCheck(
                         node(idx).last_applied(), loop_->Now()));
  });
}

void ReplicaSet::RaftHeartbeatLoop(int idx) {
  if (!alive_[idx]) {
    heartbeating_[idx] = false;  // loop retires; RestartNode re-arms
    return;
  }
  // Pull watchdog: a pull chain with no progress past its deadline lost a
  // message on the network — restart it under a new epoch so stragglers
  // of the old chain retire harmlessly.
  if (IsActiveSecondary(idx) && pulling_[idx] &&
      loop_->Now() > pull_deadline_[idx]) {
    ++pull_restarts_;
    ++pull_epoch_[idx];
    SendGetMore(idx, pull_epoch_[idx]);
  }
  HeartbeatView hb;
  hb.from = idx;
  hb.term = coords_[idx]->term();
  hb.leader = coords_[idx]->leader_for_hello();
  hb.last_applied = node(idx).last_applied();
  if (const sim::Duration skew = report_skew_[idx]; skew != 0) {
    // A skewed clock distorts the wall component of the *report* only.
    hb.last_applied.wall = std::max<sim::Time>(0, hb.last_applied.wall + skew);
  }
  for (int j = 0; j < node_count(); ++j) {
    if (j == idx) continue;
    network_->Send(node(idx).host(), node(j).host(),
                   [this, j, hb] { HandleRaftHeartbeat(j, hb); });
  }
  loop_->ScheduleAfter(params_.heartbeat_interval,
                       [this, idx] { RaftHeartbeatLoop(idx); });
}

void ReplicaSet::HandleRaftHeartbeat(int to, const HeartbeatView& hb) {
  if (!alive_[to]) return;
  // The data-plane leader's progress knowledge (flow control, w:majority
  // acks) rides the same heartbeats the election layer uses.
  if (to == primary_index_ && hb.from != primary_index_ &&
      IsActiveSecondary(hb.from)) {
    OpTime& known = known_last_applied_[hb.from];
    if (known < hb.last_applied) known = hb.last_applied;
    CheckMajorityWaiters();
  }
  ApplyAction(to,
              coords_[to]->OnHeartbeat(hb, node(to).last_applied(),
                                       loop_->Now()));
}

void ReplicaSet::BeginStepUp(int winner) {
  const uint64_t new_term = coords_[winner]->term();
  // A later election already moved the data plane past this win; the
  // stale winner will hear the higher term and step down on its own.
  if (new_term <= term_) return;
  // The winner stops pulling; catch-up applies the remaining entries on
  // its CPU without racing the secondary-era chain.
  RetirePull(winner);
  const uint64_t epoch = ++catchup_epoch_;
  // Catch-up target: the freshest position among members the winner
  // heard recently, bounded by what the oplog actually holds. Entries
  // beyond it (on unreachable members, or committed by the old leader
  // during catch-up) roll back when the new term opens.
  uint64_t target = node(winner).last_applied().seq;
  target = std::max(target, coords_[winner]->FreshestPeerSeq(
                                loop_->Now(), params_.election_timeout));
  target = std::min(target, oplog_.last_seq());
  CatchUpStep(winner, new_term, target,
              loop_->Now() + params_.catchup_timeout, epoch);
}

void ReplicaSet::CatchUpStep(int winner, uint64_t new_term, uint64_t target,
                             sim::Time deadline, uint64_t epoch) {
  if (epoch != catchup_epoch_) return;  // superseded by a newer win
  if (!alive_[winner] || coords_[winner]->role() != MemberRole::kPrimary ||
      coords_[winner]->term() != new_term) {
    // Deposed (or crashed) mid catch-up: the data plane never swapped,
    // so there is nothing to undo. ApplyAction restarts its pull when
    // the stepdown lands; a crash leaves it to RestartNode.
    return;
  }
  if (node(winner).last_applied().seq >= target || loop_->Now() >= deadline) {
    FinishStepUp(winner, new_term);
    return;
  }
  std::vector<OplogEntry> batch = oplog_.ReadAfter(
      node(winner).last_applied().seq, params_.getmore_max_batch);
  if (batch.empty()) {
    FinishStepUp(winner, new_term);
    return;
  }
  const sim::Duration per_entry =
      node(winner).server().SampleService(server::OpClass::kOplogApply);
  const auto cost = static_cast<sim::Duration>(
      static_cast<double>(per_entry) * static_cast<double>(batch.size()) *
      apply_throttle_[winner]);
  node(winner).server().ExecuteWithCost(
      cost, [this, winner, new_term, target, deadline, epoch,
             batch = std::move(batch)] {
        if (epoch != catchup_epoch_) return;
        if (!alive_[winner] ||
            coords_[winner]->role() != MemberRole::kPrimary ||
            coords_[winner]->term() != new_term) {
          return;
        }
        ReplicaNode& w = node(winner);
        for (const OplogEntry& entry : batch) {
          if (entry.optime.seq != w.last_applied().seq + 1) break;
          w.ApplyEntry(entry);
        }
        ReleaseAppliedDocs();
        CatchUpStep(winner, new_term, target, deadline, epoch);
      });
}

void ReplicaSet::FinishStepUp(int winner, uint64_t new_term) {
  if (new_term <= term_) return;  // a later leader already took over
  // The old leader's outstanding w:majority acks die with its term.
  FailMajorityWaiters();
  const uint64_t survived_seq = node(winner).last_applied().seq;
  // Members whose applied history extends past the survivor point hold
  // entries this rollback removes: they must re-clone before pulling.
  for (int i = 0; i < node_count(); ++i) {
    if (i == winner) continue;
    if (node(i).last_applied().seq > survived_seq) needs_resync_[i] = true;
  }
  oplog_.TruncateAfter(survived_seq);
  next_seq_ = survived_seq + 1;
  // The retryable-write transaction table is replicated with the data it
  // describes: records for writes rolled back here vanish with them, so a
  // client retry re-executes the write instead of trusting a stale ack.
  for (auto it = retry_records_.begin(); it != retry_records_.end();) {
    if (it->second.committed && it->second.operation_time.seq > survived_seq) {
      it = retry_records_.erase(it);
    } else {
      ++it;
    }
  }
  primary_index_ = winner;
  term_ = new_term;
  ++elections_;
  coords_[winner]->CompleteStepUp(loop_->Now());
  RecordWritable(new_term, winner);
  for (int i = 0; i < node_count(); ++i) {
    if (IsActiveSecondary(i)) {
      // Retire every pre-election pull chain (including batches already
      // in flight from the old leader: applying them after the
      // truncation would silently diverge) and restart against the new
      // leader under a fresh epoch.
      RetirePull(i);
      StartPull(i);
    }
    SyncNodeView(i);
  }
}

}  // namespace dcg::repl
