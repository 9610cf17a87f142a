#include "repl/replica_set.h"

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>

#include "util/check.h"

namespace dcg::repl {

namespace {
/// Max oplog entries returned per getMore.
constexpr size_t kGetMoreMaxBatch = 5000;
/// How long a fully caught-up secondary waits before polling again
/// (models the awaitData tailable-cursor timeout).
constexpr sim::Duration kGetMoreIdlePoll = sim::Millis(50);
/// Flow control (§4.5): while engaged, write service times are stretched
/// by this factor.
constexpr double kFlowControlThrottle = 3.0;
/// During checkpoints shorter than getmore_block_threshold, getMore
/// responses are merely deferred by this much (the disk is busy but not
/// saturated) — producing the mild, bounded staleness YCSB-A exhibits
/// rather than a full stall.
constexpr sim::Duration kGetMoreSoftDelay = sim::Millis(1500);
constexpr size_t kOplogCapacity = 2'000'000;
/// Pull-chain watchdog: when a getMore request or its reply batch is
/// lost on the network (packet loss, partition), the secondary notices
/// no pull progress for this long past the expected next step and
/// restarts the chain — the sync-source retry real MongoDB drives off
/// its heartbeats. Without faults the deadline never expires.
constexpr sim::Duration kPullRetryTimeout = sim::Seconds(2);
/// How often each member heartbeats its peers; secondaries report their
/// lastAppliedOpTime to the primary this way. This lag is why the
/// primary's view of secondary progress — and hence Decongestant's
/// staleness estimate — is conservative (§2.3).
constexpr sim::Duration kHeartbeatInterval = sim::Millis(500);
}  // namespace

ReplicaSet::ReplicaSet(sim::EventLoop* loop, sim::Rng rng,
                       net::Network* network, ReplicaSetParams params,
                       server::ServerParams node_params,
                       std::vector<net::HostId> hosts)
    : loop_(loop),
      rng_(std::move(rng)),
      network_(network),
      params_(params),
      oplog_(kOplogCapacity),
      bus_(network) {
  DCG_CHECK(params_.secondaries >= 1);
  DCG_CHECK(static_cast<int>(hosts.size()) == params_.secondaries + 1);
  members_.resize(hosts.size());
  for (int i = 0; i < node_count(); ++i) {
    const std::string name =
        i == 0 ? "primary" : "secondary-" + std::to_string(i);
    members_[i].node = std::make_unique<ReplicaNode>(loop_, rng_.Fork(),
                                                     node_params, hosts[i],
                                                     name);
  }
  // Each node fronts its replication state with a wire-protocol command
  // service; registration order defines the driver-visible node indexing.
  for (int i = 0; i < node_count(); ++i) {
    members_[i].service = std::make_unique<server::CommandService>(
        loop_, network_, this, i, hosts[i]);
    server::CommandService* service = members_[i].service.get();
    bus_.RegisterService(hosts[i], [service](proto::CommandPtr command) {
      service->Handle(std::move(command));
    });
    bus_.RegisterEnvelopeService(hosts[i],
                                 [service](proto::Envelope envelope) {
                                   service->HandleEnvelope(
                                       std::move(envelope));
                                 });
  }
  // The seed topology is writable from t=0: node 0 leads term 1.
  RecordByTerm(&writable_by_term_, term_, primary_index_);
  // Coordinator RNG streams fork after the per-node forks above.
  TopologyConfig tc;
  tc.node_count = node_count();
  tc.election_timeout = params_.election_timeout;
  tc.priority_takeover_gap = params_.priority_takeover_gap;
  tc.priorities = params_.node_priorities;
  for (int i = 0; i < node_count(); ++i) {
    members_[i].coord = std::make_unique<TopologyCoordinator>(
        i, tc, rng_.Fork(), /*initial_leader=*/primary_index_, loop_->Now());
  }
}

void ReplicaSet::RecordByTerm(std::map<uint64_t, std::vector<int>>* ledger,
                              uint64_t term, int node) {
  std::vector<int>& writers = (*ledger)[term];
  if (std::find(writers.begin(), writers.end(), node) == writers.end()) {
    writers.push_back(node);
  }
}

uint64_t ReplicaSet::stepdowns() const {
  uint64_t total = 0;
  for (const Member& m : members_) total += m.coord->stepdowns();
  return total;
}

void ReplicaSet::SetApplyThrottle(int idx, double factor) {
  DCG_CHECK(idx >= 0 && idx < node_count());
  DCG_CHECK(factor > 0.0);
  members_[idx].apply_throttle = factor;
}

void ReplicaSet::SetReportSkew(int idx, sim::Duration skew) {
  DCG_CHECK(idx >= 0 && idx < node_count());
  members_[idx].report_skew = skew;
}

void ReplicaSet::ArmPullDeadline(int idx, sim::Duration extra) {
  members_[idx].pull.deadline = loop_->Now() + extra + kPullRetryTimeout;
}

void ReplicaSet::RetirePull(int idx) {
  ++members_[idx].pull.epoch;
  members_[idx].pull.running = false;
}

bool ReplicaSet::PullRetired(int idx, uint64_t epoch) {
  Member::Pull& pull = members_[idx].pull;
  if (epoch != pull.epoch) return true;  // superseded chain
  if (IsActiveSecondary(idx)) return false;
  pull.running = false;  // the chain ends here
  return true;
}

void ReplicaSet::PollAgainLater(int idx, uint64_t epoch) {
  ArmPullDeadline(idx, kGetMoreIdlePoll);
  loop_->ScheduleAfter(kGetMoreIdlePoll,
                       [this, idx, epoch] { SendGetMore(idx, epoch); });
}

sim::Duration ReplicaSet::ApplyCost(int idx, size_t entries) {
  const sim::Duration per_entry =
      node(idx).server().SampleService(server::OpClass::kOplogApply);
  return static_cast<sim::Duration>(static_cast<double>(per_entry) *
                                    static_cast<double>(entries) *
                                    members_[idx].apply_throttle);
}

void ReplicaSet::CloneFromPrimary(int idx) {
  node(idx).db().ResetFrom(primary().db());
  node(idx).ResetForResync(primary().last_applied());
  members_[idx].known_last_applied = primary().last_applied();
  members_[idx].needs_resync = false;
  TrimApplied();
}

void ReplicaSet::Start() {
  for (Member& m : members_) m.node->server().Start();
  for (int i = 0; i < node_count(); ++i) {
    if (IsActiveSecondary(i)) StartPull(i);
  }
  for (int i = 0; i < node_count(); ++i) {
    if (IsAlive(i)) StartMemberChains(i);
  }
}

void ReplicaSet::StartPull(int idx) {
  Member::Pull& pull = members_[idx].pull;
  if (!pull.running) {
    pull.running = true;
    ArmPullDeadline(idx);
    SendGetMore(idx, pull.epoch);
  }
}

void ReplicaSet::KillNode(int idx) {
  DCG_CHECK(idx >= 0 && idx < node_count());
  Member& m = members_[idx];
  if (!m.alive) return;
  m.alive = false;
  RetirePull(idx);
  // Retire the member's election-check and takeover chains; survivors'
  // own randomized timeouts notice the silence and campaign.
  ++m.incarnation;
  // Acknowledgements in flight are lost with the primary; their outcome
  // is uncertain to the client.
  if (idx == primary_index_) FailMajorityWaiters();
  // The dead member no longer holds the trim point back.
  TrimApplied();
}

void ReplicaSet::RestartNode(int idx) {
  DCG_CHECK(idx >= 0 && idx < node_count());
  DCG_CHECK_MSG(!IsAlive(idx), "node is already running");
  DCG_CHECK_MSG(IsAlive(primary_index_), "no primary to initial-sync from");
  // Initial sync: clone the current primary's data wholesale, then join
  // the oplog stream from the primary's current position.
  CloneFromPrimary(idx);
  members_[idx].alive = true;
  members_[idx].coord->Rejoin(loop_->Now());
  StartMemberChains(idx);
  StartPull(idx);
}

void ReplicaSet::CommitInternal(
    int node_idx, server::OpClass op_class, proto::TxnBody body,
    server::RetryKey retry, double cost_scale, server::WriteDone done,
    WriteConcern concern) {
  double throttle = 1.0;
  if (params_.flow_control_enabled &&
      KnownMaxLag() > params_.flow_control_target_lag) {
    throttle = kFlowControlThrottle;
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
  node(node_idx).server().ExecuteScaled(
      op_class, throttle,
      [this, body = std::move(body), done = std::move(done), concern, retry,
       expected_primary, expected_term]() mutable {
        // The node lost the primary role (or crashed) while the operation
        // was queued: the write never commits (and is safe to retry).
        if (!IsAlive(expected_primary) || term_ != expected_term ||
            primary_index_ != expected_primary) {
          FinishWrite(retry, server::WriteOutcome{}, done);
          return;
        }
        ReplicaNode& leader = node(expected_primary);
        TxnContext ctx(&leader.db());
        body(&ctx);
        if (ctx.aborted()) {
          server::WriteOutcome outcome;
          outcome.ok = true;
          outcome.committed = false;
          outcome.operation_time = leader.last_applied();
          // Aborts are deterministic outcomes of the body; record them so
          // a retry is acknowledged identically instead of re-running.
          if (retry.retryable()) RecordOutcome(retry, outcome);
          FinishWrite(retry, outcome, done);
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
        RecordByTerm(&commits_by_term_, expected_term, expected_primary);
        server::WriteOutcome outcome;
        outcome.ok = true;
        outcome.committed = true;
        outcome.operation_time = leader.last_applied();
        // The transaction record is written at the commit instant — not at
        // ack time — so a retry after a lost w:majority ack replies from
        // the record iff the commit itself survived (election purge).
        if (retry.retryable()) RecordOutcome(retry, outcome);
        if (concern == WriteConcern::kMajority &&
            (done || retry.retryable())) {
          // Acknowledge once a majority of nodes are known to have
          // applied the commit point. The wait from the commit instant to
          // the ack is the write's replication slice — recorded as a
          // commit_wait span when the op is traced.
          const sim::Time commit_at = loop_->Now();
          const bool traced =
              tracer_ != nullptr && tracer_->enabled() && retry.op_id != 0;
          majority_waiters_.push_back(
              {commit_seq,
               [this, done = std::move(done), outcome, commit_at, traced,
                retry](bool ok) mutable {
                 if (traced) {
                   obs::SpanRecord span;
                   span.trace_id = retry.op_id;
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
                   FinishWrite(retry, outcome, done);
                 } else {
                   // Primary crashed before the ack: uncertain outcome,
                   // surfaced like an infrastructure failure.
                   FinishWrite(retry, server::WriteOutcome{}, done);
                 }
               }});
          CheckMajorityWaiters();
          return;
        }
        FinishWrite(retry, outcome, done);
      });
}

void ReplicaSet::CommitWrite(
    int node_idx, server::OpClass op_class, proto::TxnBody body,
    WriteConcern concern, server::RetryKey retry, double cost_scale,
    server::WriteDone done) {
  if (retry.retryable()) {
    RetrySession& session = RaiseMark(retry);
    auto it = FindSlot(&session, retry.op_id);
    if (it != session.slots.end() && it->op_id == retry.op_id) {
      if (it->recorded) {
        // Retryable write replay: acknowledge from the transaction record
        // without executing the body a second time.
        server::WriteOutcome outcome;
        outcome.ok = true;
        outcome.committed = it->committed;
        outcome.operation_time = it->operation_time;
        done(outcome);
      } else {
        // The first attempt is still in the CPU queue (a retry raced a
        // slow — not lost — original): attach to its outcome.
        it->parked.push_back(std::move(done));
      }
      return;
    }
    if (retry.op_id < session.answered_below) {
      // MongoDB's TransactionTooOld: the client has already finished this
      // op, so this is a late attempt (a delayed duplicate of one it got
      // an answer for) and its reply will be discarded. Running the body
      // would apply the write a second time.
      server::WriteOutcome outcome;
      outcome.ok = true;
      outcome.operation_time = node(node_idx).last_applied();
      done(outcome);
      return;
    }
    RetrySlot slot;
    slot.op_id = retry.op_id;
    session.slots.insert(it, std::move(slot));
  }
  CommitInternal(node_idx, op_class, std::move(body), retry, cost_scale,
                 std::move(done), concern);
}

void ReplicaSet::FinishWrite(const server::RetryKey& retry,
                             const server::WriteOutcome& outcome,
                             server::WriteDone& done) {
  if (retry.retryable()) {
    FinishRetryable(retry, outcome, done);
  } else if (done) {
    done(outcome);
  }
}

ReplicaSet::RetrySession& ReplicaSet::RaiseMark(
    const server::RetryKey& retry) {
  DCG_CHECK_MSG(retry.session <= bus_.sessions_started(),
                "write from a session this set's bus never started");
  if (retry.session >= retry_sessions_.size()) {
    retry_sessions_.resize(retry.session + 1);
  }
  RetrySession& session = retry_sessions_[retry.session];
  if (retry.answered_below > session.answered_below) {
    session.answered_below = retry.answered_below;
    // Slots below the mark go unless their first attempt is still
    // running; FinishRetryable drops those when it completes.
    const auto below = FindSlot(&session, session.answered_below);
    session.slots.erase(
        std::remove_if(session.slots.begin(), below,
                       [](const RetrySlot& slot) { return !slot.running; }),
        below);
  }
  return session;
}

std::vector<ReplicaSet::RetrySlot>::iterator ReplicaSet::FindSlot(
    RetrySession* session, uint64_t op_id) {
  return std::lower_bound(
      session->slots.begin(), session->slots.end(), op_id,
      [](const RetrySlot& slot, uint64_t id) { return slot.op_id < id; });
}

ReplicaSet::RetrySlot& ReplicaSet::SlotOf(const server::RetryKey& retry) {
  RetrySession& session = retry_sessions_[retry.session];
  const auto it = FindSlot(&session, retry.op_id);
  DCG_CHECK_MSG(it != session.slots.end() && it->op_id == retry.op_id,
                "retryable write lost its slot while running");
  return *it;
}

void ReplicaSet::RecordOutcome(const server::RetryKey& retry,
                               const server::WriteOutcome& outcome) {
  RetrySlot& slot = SlotOf(retry);
  slot.recorded = true;
  slot.committed = outcome.committed;
  slot.operation_time = outcome.operation_time;
}

void ReplicaSet::FinishRetryable(const server::RetryKey& retry,
                                 const server::WriteOutcome& outcome,
                                 server::WriteDone& done) {
  RetrySlot& slot = SlotOf(retry);
  std::vector<server::WriteDone> parked = std::move(slot.parked);
  slot.running = false;
  // Without a record (the role was lost before the body ran, or an
  // election rolled the commit back) a retry must run the body again; a
  // slot below the mark will never be asked for again.
  if (!slot.recorded ||
      slot.op_id < retry_sessions_[retry.session].answered_below) {
    std::vector<RetrySlot>& slots = retry_sessions_[retry.session].slots;
    slots.erase(slots.begin() + (&slot - slots.data()));
  }
  done(outcome);
  for (auto& waiter : parked) waiter(outcome);
}

size_t ReplicaSet::retry_slot_count() const {
  size_t n = 0;
  for (const RetrySession& session : retry_sessions_) {
    n += session.slots.size();
  }
  return n;
}

size_t ReplicaSet::retry_slots_below_mark() const {
  size_t n = 0;
  for (const RetrySession& session : retry_sessions_) {
    for (const RetrySlot& slot : session.slots) {
      if (slot.op_id < session.answered_below) ++n;
    }
  }
  return n;
}

proto::ServerStatusReply ReplicaSet::ServerStatusSnapshot() {
  proto::ServerStatusReply reply;
  reply.primary_last_applied = primary().last_applied();
  for (int i = 0; i < node_count(); ++i) {
    if (!IsActiveSecondary(i)) continue;
    reply.secondary_last_applied.push_back(members_[i].known_last_applied);
    reply.secondary_nodes.push_back(i);
  }
  reply.generated_at = loop_->Now();
  return reply;
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
    if (!IsActiveSecondary(i)) continue;
    max_lag = std::max(max_lag, TrueStaleness(i));
  }
  return max_lag;
}

sim::Duration ReplicaSet::KnownMaxLag() const {
  const OpTime& p = primary().last_applied();
  sim::Duration max_lag = 0;
  for (int i = 0; i < node_count(); ++i) {
    if (!IsActiveSecondary(i)) continue;
    const OpTime& sec = members_[i].known_last_applied;
    if (sec.seq >= p.seq) continue;
    max_lag = std::max(max_lag, p.wall - sec.wall);
  }
  return max_lag;
}

int ReplicaSet::KnownReplicationCount(uint64_t seq) const {
  int count = primary().last_applied().seq >= seq ? 1 : 0;
  for (int i = 0; i < node_count(); ++i) {
    if (!IsActiveSecondary(i)) continue;
    if (members_[i].known_last_applied.seq >= seq) ++count;
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
  if (PullRetired(secondary_idx, epoch)) return;
  if (members_[secondary_idx].needs_resync) {
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
  if (PullRetired(secondary_idx, epoch)) return;
  if (!IsAlive(primary_index_)) {
    // No primary to pull from: retry after the idle interval; the
    // election will install a new sync source.
    PollAgainLater(secondary_idx, epoch);
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
    // Short checkpoint: the flush is competing for the disk, so oplog
    // reads are slow but not stopped. Defer once, then serve.
    const sim::Duration defer = std::min(
        kGetMoreSoftDelay, p.checkpoint_end() - loop_->Now());
    ArmPullDeadline(secondary_idx, defer);
    loop_->ScheduleAfter(defer, [this, secondary_idx, epoch] {
      ServeGetMore(secondary_idx, epoch);
    });
    return;
  }
  ServeGetMore(secondary_idx, epoch);
}

void ReplicaSet::ServeGetMore(int secondary_idx, uint64_t epoch) {
  if (PullRetired(secondary_idx, epoch)) return;
  if (!IsAlive(primary_index_)) {
    PollAgainLater(secondary_idx, epoch);
    return;
  }
  ArmPullDeadline(secondary_idx, kPullQueueGrace);
  primary().server().Execute(
      server::OpClass::kGetMore, [this, secondary_idx, epoch] {
        if (epoch != members_[secondary_idx].pull.epoch) return;
        std::vector<OplogEntry> batch =
            oplog_.ReadAfter(node(secondary_idx).last_applied().seq,
                             kGetMoreMaxBatch);
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
  if (PullRetired(secondary_idx, epoch)) return;
  if (batch.empty()) {
    PollAgainLater(secondary_idx, epoch);
    return;
  }
  const sim::Duration cost = ApplyCost(secondary_idx, batch.size());
  ArmPullDeadline(secondary_idx, cost + kPullQueueGrace);
  node(secondary_idx).server().ExecuteWithCost(
      cost, [this, secondary_idx, epoch, batch = std::move(batch)] {
        if (PullRetired(secondary_idx, epoch)) return;
        ReplicaNode& s = node(secondary_idx);
        for (const OplogEntry& entry : batch) s.ApplyEntry(entry);
        TrimApplied();
        // More data may already be waiting: pull again immediately.
        SendGetMore(secondary_idx, epoch);
      });
}

void ReplicaSet::TrimApplied() {
  uint64_t min_applied = UINT64_MAX;
  for (int i = 0; i < node_count(); ++i) {
    if (IsAlive(i)) {
      min_applied = std::min(min_applied, node(i).last_applied().seq);
    }
  }
  if (min_applied != UINT64_MAX) oplog_.TrimThrough(min_applied);
}

void ReplicaSet::CheckMajorityWaiters() {
  const int majority = node_count() / 2 + 1;
  for (size_t i = 0; i < majority_waiters_.size();) {
    if (KnownReplicationCount(majority_waiters_[i].seq) >= majority) {
      sim::UniqueFunction<void(bool)> ack =
          std::move(majority_waiters_[i].ack);
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
  if (PullRetired(idx, epoch)) return;
  if (!IsAlive(primary_index_)) {
    // Nothing consistent to clone from yet; poll until an election
    // installs a live leader.
    PollAgainLater(idx, epoch);
    return;
  }
  ArmPullDeadline(idx);
  network_->Send(node(idx).host(), primary().host(), [this, idx, epoch] {
    if (PullRetired(idx, epoch)) return;
    if (!IsAlive(primary_index_)) {
      PollAgainLater(idx, epoch);
      return;
    }
    ArmPullDeadline(idx);
    network_->Send(primary().host(), node(idx).host(), [this, idx, epoch] {
      if (PullRetired(idx, epoch)) return;
      if (members_[idx].needs_resync) {
        // Rollback via refetch: drop the diverged history, clone the
        // current primary wholesale, rejoin the stream from its position.
        CloneFromPrimary(idx);
        ++rollback_resyncs_;
        ArmPullDeadline(idx);
      }
      SendGetMore(idx, epoch);
    });
  });
}

void ReplicaSet::StartMemberChains(int idx) {
  Member& m = members_[idx];
  if (!m.heartbeating) {
    m.heartbeating = true;
    RaftHeartbeatLoop(idx);
  }
  ScheduleElectionCheck(idx, m.incarnation);
}

void ReplicaSet::ScheduleElectionCheck(int idx, uint64_t incarnation) {
  // One chain per live member: fire at the coordinator's deadline (the
  // deadline usually moves forward before the event fires — leader
  // contact re-arms it — in which case the firing is a cheap no-op that
  // reschedules at the new deadline).
  const sim::Time at =
      std::max(coordinator(idx).election_deadline(), loop_->Now() + 1);
  loop_->ScheduleAt(at, [this, idx, incarnation] {
    if (incarnation != members_[idx].incarnation) return;
    TopologyCoordinator& coord = *members_[idx].coord;
    if (loop_->Now() >= coord.election_deadline()) {
      ApplyAction(idx, coord.OnElectionTimeout(loop_->Now()));
    }
    ScheduleElectionCheck(idx, incarnation);
  });
}

void ReplicaSet::ApplyAction(int idx, const TopologyAction& action) {
  if (action.stepped_down) {
    // A member that stopped believing itself primary resumes consuming
    // the stream if it is, in data-plane terms, an active secondary
    // whose pull was parked (e.g. a deposed catch-up winner).
    if (IsActiveSecondary(idx)) StartPull(idx);
  }
  if (action.start_dry_run || action.start_election) {
    BroadcastVoteRequests(idx);
  }
  if (action.won_election) BeginStepUp(idx);
  if (action.takeover_at >= 0) ScheduleTakeoverCheck(idx, action.takeover_at);
}

void ReplicaSet::BroadcastVoteRequests(int idx) {
  const VoteRequest req =
      members_[idx].coord->CampaignRequest(node(idx).last_applied());
  for (int j = 0; j < node_count(); ++j) {
    if (j == idx) continue;
    network_->Send(node(idx).host(), node(j).host(), [this, j, req] {
      if (!IsAlive(j)) return;  // dead voters are silent
      TopologyCoordinator& voter = *members_[j].coord;
      const MemberRole role_before = voter.role();
      const VoteResponse resp =
          voter.OnVoteRequest(req, node(j).last_applied(), loop_->Now());
      // A real vote carrying a higher term can depose the voter itself
      // (a leader granting a takeover vote steps down right here).
      if (role_before == MemberRole::kPrimary &&
          voter.role() != role_before && IsActiveSecondary(j)) {
        StartPull(j);
      }
      network_->Send(node(j).host(), node(req.candidate).host(),
                     [this, resp] {
                       const int cand = resp.candidate;
                       if (cand < 0 || !IsAlive(cand)) return;
                       ApplyAction(cand, members_[cand].coord->OnVoteResponse(
                                             resp, loop_->Now()));
                     });
    });
  }
}

void ReplicaSet::ScheduleTakeoverCheck(int idx, sim::Time at) {
  const uint64_t incarnation = members_[idx].incarnation;
  loop_->ScheduleAt(std::max(at, loop_->Now() + 1), [this, idx, incarnation] {
    if (incarnation != members_[idx].incarnation) return;
    ApplyAction(idx, members_[idx].coord->OnPriorityTakeoverCheck(
                         node(idx).last_applied(), loop_->Now()));
  });
}

void ReplicaSet::RaftHeartbeatLoop(int idx) {
  Member& m = members_[idx];
  if (!m.alive) {
    m.heartbeating = false;  // loop retires; RestartNode re-arms
    return;
  }
  // Pull watchdog: a pull chain with no progress past its deadline lost a
  // message on the network — restart it under a new epoch so stragglers
  // of the old chain retire harmlessly.
  if (IsActiveSecondary(idx) && m.pull.running &&
      loop_->Now() > m.pull.deadline) {
    ++pull_restarts_;
    SendGetMore(idx, ++m.pull.epoch);
  }
  HeartbeatView hb;
  hb.from = idx;
  hb.term = m.coord->term();
  hb.leader = m.coord->leader_for_hello();
  hb.last_applied = m.node->last_applied();
  if (m.report_skew != 0) {
    // A skewed clock distorts the wall component of the *report* only.
    hb.last_applied.wall =
        std::max<sim::Time>(0, hb.last_applied.wall + m.report_skew);
  }
  for (int j = 0; j < node_count(); ++j) {
    if (j == idx) continue;
    network_->Send(node(idx).host(), node(j).host(),
                   [this, j, hb] { HandleRaftHeartbeat(j, hb); });
  }
  loop_->ScheduleAfter(kHeartbeatInterval,
                       [this, idx] { RaftHeartbeatLoop(idx); });
}

void ReplicaSet::HandleRaftHeartbeat(int to, const HeartbeatView& hb) {
  if (!IsAlive(to)) return;
  // The data-plane leader's progress knowledge (flow control, w:majority
  // acks) rides the same heartbeats the election layer uses.
  if (to == primary_index_ && IsActiveSecondary(hb.from)) {
    OpTime& known = members_[hb.from].known_last_applied;
    if (known < hb.last_applied) known = hb.last_applied;
    CheckMajorityWaiters();
  }
  ApplyAction(to, members_[to].coord->OnHeartbeat(hb, node(to).last_applied(),
                                                  loop_->Now()));
}

void ReplicaSet::BeginStepUp(int winner) {
  const uint64_t new_term = members_[winner].coord->term();
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
  target = std::max(target, members_[winner].coord->FreshestPeerSeq(
                                loop_->Now(), params_.election_timeout));
  target = std::min(target, oplog_.last_seq());
  CatchUpStep(winner, new_term, target,
              loop_->Now() + params_.catchup_timeout, epoch);
}

bool ReplicaSet::CatchUpCurrent(int winner, uint64_t new_term,
                                uint64_t epoch) const {
  const TopologyCoordinator& coord = coordinator(winner);
  return epoch == catchup_epoch_ && IsAlive(winner) &&
         coord.role() == MemberRole::kPrimary && coord.term() == new_term;
}

void ReplicaSet::CatchUpStep(int winner, uint64_t new_term, uint64_t target,
                             sim::Time deadline, uint64_t epoch) {
  if (!CatchUpCurrent(winner, new_term, epoch)) return;
  ReplicaNode& w = node(winner);
  if (w.last_applied().seq >= target || loop_->Now() >= deadline) {
    FinishStepUp(winner, new_term);
    return;
  }
  std::vector<OplogEntry> batch =
      oplog_.ReadAfter(w.last_applied().seq, kGetMoreMaxBatch);
  if (batch.empty()) {
    FinishStepUp(winner, new_term);
    return;
  }
  const sim::Duration cost = ApplyCost(winner, batch.size());
  w.server().ExecuteWithCost(
      cost, [this, winner, new_term, target, deadline, epoch,
       batch = std::move(batch)] {
        if (!CatchUpCurrent(winner, new_term, epoch)) return;
        ReplicaNode& w = node(winner);
        for (const OplogEntry& entry : batch) {
          if (entry.optime.seq != w.last_applied().seq + 1) break;
          w.ApplyEntry(entry);
        }
        TrimApplied();
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
    if (i != winner && node(i).last_applied().seq > survived_seq) {
      members_[i].needs_resync = true;
    }
  }
  oplog_.TruncateAfter(survived_seq);
  next_seq_ = survived_seq + 1;
  // The retryable-write transaction table is replicated with the data it
  // describes: records for writes rolled back here vanish with them, so a
  // client retry re-executes the write instead of trusting a stale ack. A
  // slot whose first attempt is still running keeps its parked attempts.
  for (RetrySession& session : retry_sessions_) {
    for (RetrySlot& slot : session.slots) {
      if (slot.recorded && slot.committed &&
          slot.operation_time.seq > survived_seq) {
        slot.recorded = false;
      }
    }
    std::erase_if(session.slots, [](const RetrySlot& slot) {
      return !slot.recorded && !slot.running;
    });
  }
  primary_index_ = winner;
  term_ = new_term;
  ++elections_;
  members_[winner].coord->CompleteStepUp(loop_->Now());
  RecordByTerm(&writable_by_term_, new_term, winner);
  for (int i = 0; i < node_count(); ++i) {
    if (IsActiveSecondary(i)) {
      // Retire every pre-election pull chain (including batches already
      // in flight from the old leader: applying them after the
      // truncation would silently diverge) and restart against the new
      // leader under a fresh epoch.
      RetirePull(i);
      StartPull(i);
    }
  }
}

}  // namespace dcg::repl
