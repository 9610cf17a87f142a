#ifndef DCG_REPL_REPLICA_SET_H_
#define DCG_REPL_REPLICA_SET_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "net/network.h"
#include "obs/trace.h"
#include "proto/command.h"
#include "repl/oplog.h"
#include "repl/replica_node.h"
#include "repl/topology_coordinator.h"
#include "repl/txn.h"
#include "server/command_service.h"
#include "server/server_node.h"
#include "sim/event_loop.h"
#include "sim/random.h"

namespace dcg::repl {

/// Replication knobs (defaults mirror the MongoDB 4.2 behaviour the paper
/// describes, scaled to the simulation).
struct ReplicaSetParams {
  int secondaries = 2;

  /// Flow control (§4.5): when the max lag known to the primary exceeds
  /// the target, write service times are stretched by a fixed throttle
  /// factor.
  bool flow_control_enabled = true;
  sim::Duration flow_control_target_lag = sim::Seconds(5);

  /// A checkpoint whose flush is expected to take longer than this stalls
  /// getMore service entirely until it finishes — the mechanism behind the
  /// sawtooth staleness of Figure 9 ("the primary gets around to servicing
  /// the getMore and sends a large batch"). Shorter checkpoints only
  /// defer getMore responses.
  sim::Duration getmore_block_threshold = sim::Seconds(15);

  /// Base election timeout: a member that hears no leader for this long
  /// (plus its randomized jitter) campaigns. Every member runs a
  /// Raft-style TopologyCoordinator — pre-vote freshness checks, real
  /// vote rounds, stepdown on higher terms, post-win catch-up — so the
  /// fail-over gap is this timeout plus the vote and catch-up rounds.
  sim::Duration election_timeout = sim::Seconds(5);

  /// Hard bound on the post-win catch-up phase: a new leader opens for
  /// writes once it reaches the freshest recently-heard peer optime or
  /// this much time passes, whichever is first.
  sim::Duration catchup_timeout = sim::Seconds(2);

  /// How caught-up a priority-takeover candidate must be (see
  /// TopologyConfig).
  sim::Duration priority_takeover_gap = sim::Seconds(2);

  /// Election priority per node index (empty = all 1.0; 0 = never
  /// campaigns).
  std::vector<double> node_priorities;
};

/// A primary plus N secondaries wired through the simulated network —
/// the MongoDB replica set substrate.
///
/// Clients reach the set exclusively through its wire-protocol command
/// layer: each node runs a server::CommandService registered on the set's
/// proto::CommandBus, and ReplicaSet implements the CommandBackend those
/// services dispatch into. Server-side it models CPU queueing, commit +
/// oplog append on the primary, batched log-shipping to secondaries,
/// heartbeats, serverStatus, retryable-write dedup, and flow control.
class ReplicaSet : public server::CommandBackend {
 public:
  ReplicaSet(sim::EventLoop* loop, sim::Rng rng, net::Network* network,
             ReplicaSetParams params, server::ServerParams node_params,
             std::vector<net::HostId> hosts /* primary first */);

  ReplicaSet(const ReplicaSet&) = delete;
  ReplicaSet& operator=(const ReplicaSet&) = delete;

  /// Starts checkpoint cycles, pull loops, and heartbeats.
  void Start();

  /// The wire-protocol bus clients use to reach this set's nodes. Node
  /// hosts are registered in node-index order, so `bus->server_hosts()`
  /// doubles as the driver's seed list (connection string).
  proto::CommandBus* command_bus() { return &bus_; }

  /// Attaches the run's span tracer to every node's command service and
  /// to the replication layer (w:majority commit-wait spans). nullptr
  /// detaches.
  void SetTracer(obs::Tracer* tracer) {
    tracer_ = tracer;
    for (Member& m : members_) m.service->SetTracer(tracer);
  }

  /// Installs a sharding admission check on every node's command service
  /// (stale chunk-version rejection — see CommandService::AdmissionCheck).
  void SetAdmissionCheck(server::CommandService::AdmissionCheck check) {
    for (Member& m : members_) m.service->SetAdmissionCheck(check);
  }

  // --- server::CommandBackend (dispatched into by CommandServices) ---

  bool NodeAlive(int idx) const override { return members_[idx].alive; }
  /// Per-node topology belief: each member answers from its own
  /// coordinator (so a deposed primary keeps claiming the role until it
  /// hears the new term — exactly the stale-view window the driver's term
  /// adoption exists for).
  int NodeBelievedPrimary(int idx) const override {
    return coordinator(idx).leader_for_hello();
  }
  uint64_t NodeTerm(int idx) const override { return coordinator(idx).term(); }
  OpTime NodeLastApplied(int idx) const override {
    return node(idx).last_applied();
  }
  const store::Database& NodeData(int idx) const override {
    return node(idx).db();
  }
  server::ServerNode& NodeServer(int idx) override {
    return node(idx).server();
  }
  void CommitWrite(int node, server::OpClass op_class, proto::TxnBody body,
                   WriteConcern concern, server::RetryKey retry,
                   double cost_scale, server::WriteDone done) override;
  proto::ServerStatusReply ServerStatusSnapshot() override;

  int node_count() const { return static_cast<int>(members_.size()); }
  int secondary_count() const { return node_count() - 1; }
  /// Node 0 starts as the primary; fail-overs can move the role.
  ReplicaNode& node(int idx) { return *members_[idx].node; }
  const ReplicaNode& node(int idx) const { return *members_[idx].node; }
  ReplicaNode& primary() { return node(primary_index_); }
  const ReplicaNode& primary() const { return node(primary_index_); }
  int primary_index() const { return primary_index_; }

  // --- fault injection & fail-over ---

  bool IsAlive(int idx) const { return members_[idx].alive; }

  /// Crashes a node. Killing the primary fails outstanding w:majority
  /// acknowledgements as "uncertain"; the survivors' election timers
  /// notice the silence and, if a majority is still alive, elect a new
  /// primary. The winner catches up, then the oplog is truncated to its
  /// last applied optime (w:1 writes beyond it are lost — MongoDB
  /// rollback semantics). With no majority alive, nobody can win a vote
  /// and the set stays without a writable primary.
  ///
  /// Crash granularity: operations already *in service* on the node when
  /// it dies still complete (their responses race the failure — clients
  /// may see them, as with a real crash); writes still *queued* observe
  /// the term change at commit time and fail. New operations are kept
  /// away by the driver's liveness checks.
  void KillNode(int idx);

  /// Restarts a crashed node: it initial-syncs (clones) from the current
  /// primary and rejoins as a secondary. The primary must be alive.
  void RestartNode(int idx);

  /// Election epoch (increments on every successful election).
  uint64_t term() const { return term_; }
  uint64_t elections() const { return elections_; }

  // --- election surface ---

  /// One member's election state machine — the only source of its role.
  const TopologyCoordinator& coordinator(int idx) const {
    return *members_[idx].coord;
  }

  /// True when the member currently leading the data plane is alive and
  /// has completed step-up — i.e. a write sent to the right node would
  /// commit.
  bool HasWritablePrimary() const {
    return IsAlive(primary_index_) && coordinator(primary_index_).writable();
  }

  /// Times a primary stepped down (higher term seen, or majority
  /// heartbeat contact lost) without crashing.
  uint64_t stepdowns() const;

  /// Times a diverged member (applied entries an election rolled back)
  /// re-cloned from the current primary before rejoining the stream.
  uint64_t rollback_resyncs() const { return rollback_resyncs_; }
  bool needs_resync(int idx) const { return members_[idx].needs_resync; }

  /// Election-safety ledgers for the test battery: which member(s)
  /// became writable in each term, and which member(s) actually
  /// committed writes in each term. Both must have at most one entry
  /// per term — the at-most-one-writable-primary-per-term invariant.
  const std::map<uint64_t, std::vector<int>>& writable_by_term() const {
    return writable_by_term_;
  }
  const std::map<uint64_t, std::vector<int>>& commits_by_term() const {
    return commits_by_term_;
  }

  /// Multiplies the cost of applying oplog batches on node `idx` — the
  /// replication-apply throttle fault (a slow apply thread / IO-starved
  /// secondary). 1.0 restores healthy speed.
  void SetApplyThrottle(int idx, double factor);

  /// Skews the lastAppliedOpTime wall clock node `idx` *reports* in
  /// heartbeats; local replication state is untouched. Negative skew makes
  /// the node look staler to the primary (a conservative error); positive
  /// skew makes it look fresher than it is — exactly the distortion a
  /// skewed server clock inflicts on the §2.3 staleness estimate.
  void SetReportSkew(int idx, sim::Duration skew);

  /// Times the pull watchdog restarted a secondary's oplog pull chain.
  uint64_t pull_restarts() const { return pull_restarts_; }

  /// Ground-truth staleness of one secondary right now (not what a client
  /// could observe — used by tests and experiment plots).
  sim::Duration TrueStaleness(int secondary_idx) const;
  sim::Duration MaxTrueStaleness() const;

  const Oplog& oplog() const { return oplog_; }
  uint64_t committed_writes() const { return committed_writes_; }
  uint64_t flow_control_engaged_writes() const {
    return flow_control_engaged_writes_;
  }
  uint64_t getmore_stalls() const { return getmore_stalls_; }

  /// True max lag as *known by the primary* (flow control's signal).
  sim::Duration KnownMaxLag() const;

  /// Number of nodes (primary included, via heartbeat knowledge for
  /// secondaries) known to have applied sequence `seq`.
  int KnownReplicationCount(uint64_t seq) const;

  uint64_t majority_writes_acked() const { return majority_writes_acked_; }

  /// Live retryable-write slots, over all sessions. A client that has
  /// finished all but its last write leaves at most one slot.
  size_t retry_slot_count() const;
  /// Slots below their session's answered mark. Only a write still
  /// executing keeps one, so none remain once every write has completed.
  size_t retry_slots_below_mark() const;

 private:
  /// Everything the set keeps for one member. The member owns its data
  /// node, its election state machine and its wire-protocol front end;
  /// the rest is the set's per-member bookkeeping. Event chains carry the
  /// counter they were started under and retire when it moved on.
  struct Member {
    std::unique_ptr<ReplicaNode> node;
    std::unique_ptr<TopologyCoordinator> coord;
    std::unique_ptr<server::CommandService> service;
    bool alive = true;
    /// This member's progress as last heard by the primary via heartbeats
    /// (unused while the member is the primary itself).
    OpTime known_last_applied;
    /// The oplog pull chain, at most one per member. `running` keeps
    /// elections and restarts from spawning a duplicate; `epoch` retires
    /// a superseded chain (watchdog restart, kill, step-up); `deadline`
    /// is when the heartbeat watchdog restarts a chain that made no step.
    struct Pull {
      bool running = false;
      uint64_t epoch = 0;
      sim::Time deadline = 0;
    } pull;
    /// One heartbeat loop at a time; it retires itself once the member is
    /// dead, so a restart inside one interval keeps the old loop.
    bool heartbeating = false;
    /// Bumped by KillNode: the election-check and takeover-check chains
    /// scheduled before a kill retire at their next firing.
    uint64_t incarnation = 0;
    /// Fault knobs (see SetApplyThrottle / SetReportSkew).
    double apply_throttle = 1.0;
    sim::Duration report_skew = 0;
    /// This member's applied history extends past an election's rollback
    /// point; it must re-clone before pulling again.
    bool needs_resync = false;
  };

  /// One retryable write's slot in its session's transaction table. It
  /// is `running` until the first attempt's completion has run; attempts
  /// arriving meanwhile park in `parked` and get that attempt's outcome.
  /// Once `recorded` (at the commit instant) later attempts are answered
  /// from the record at once.
  struct RetrySlot {
    uint64_t op_id = 0;
    bool running = true;
    bool recorded = false;
    bool committed = false;
    OpTime operation_time;
    std::vector<server::WriteDone> parked;
  };
  /// One client session's transaction table (MongoDB keeps one record per
  /// logical session). Slots are sorted by op id; none below
  /// `answered_below` outlives its first attempt's completion, since the
  /// client will never retry those ops.
  struct RetrySession {
    uint64_t answered_below = 0;
    std::vector<RetrySlot> slots;
  };

  /// Implementation behind CommitWrite: runs the transaction on node
  /// `node`'s CPU (flow control applied) — the member that believes itself
  /// primary — commits or aborts at completion iff that member still leads
  /// the data plane at the commit instant, and — when `retry` is
  /// retryable — records the outcome in its slot at the commit instant
  /// (the record is logically replicated with the write, so an election
  /// that rolls the write back also drops the record).
  void CommitInternal(int node, server::OpClass op_class, proto::TxnBody body,
                      server::RetryKey retry, double cost_scale,
                      server::WriteDone done, WriteConcern concern);
  /// The session `retry` names, its mark raised to the command's and the
  /// finished slots below the mark dropped.
  RetrySession& RaiseMark(const server::RetryKey& retry);
  /// First slot of `session` whose op id is not below `op_id`.
  static std::vector<RetrySlot>::iterator FindSlot(RetrySession* session,
                                                   uint64_t op_id);
  /// The live slot of `retry`, which must exist.
  RetrySlot& SlotOf(const server::RetryKey& retry);
  /// Records a retryable write's outcome at its commit (or abort) instant.
  void RecordOutcome(const server::RetryKey& retry,
                     const server::WriteOutcome& outcome);
  /// A write's completion: FinishRetryable for a retryable one (it holds
  /// a slot), else `done` (when set).
  void FinishWrite(const server::RetryKey& retry,
                   const server::WriteOutcome& outcome,
                   server::WriteDone& done);
  /// The first attempt's completion: answers it and every parked
  /// duplicate, and drops the slot unless it holds a record a retry may
  /// still need.
  void FinishRetryable(const server::RetryKey& retry,
                       const server::WriteOutcome& outcome,
                       server::WriteDone& done);
  /// Resolves w:majority waiters whose sequence has reached a majority.
  void CheckMajorityWaiters();
  /// Fails all outstanding w:majority waiters (primary crash: outcome
  /// uncertain to the client).
  void FailMajorityWaiters();
  /// True when node `idx` should pull the oplog from the primary.
  bool IsActiveSecondary(int idx) const {
    return IsAlive(idx) && idx != primary_index_;
  }
  /// Starts node `idx`'s oplog pull chain unless one is already running.
  void StartPull(int idx);
  /// True when a pull-chain step started under `epoch` must retire: a
  /// newer chain superseded it, or the node stopped being an active
  /// secondary (then the chain ends and may be started again).
  bool PullRetired(int idx, uint64_t epoch);
  // Pull-chain steps carry the epoch they were started under and check
  // PullRetired first.
  void SendGetMore(int secondary_idx, uint64_t epoch);
  void HandleGetMoreAtPrimary(int secondary_idx, uint64_t epoch);
  void ServeGetMore(int secondary_idx, uint64_t epoch);
  void HandleBatchAtSecondary(int secondary_idx, std::vector<OplogEntry> batch,
                              uint64_t epoch);
  /// Nothing to pull right now (caught up, or no live primary): keeps the
  /// chain covered and asks again after kGetMoreIdlePoll.
  void PollAgainLater(int idx, uint64_t epoch);
  /// Declares the pull chain healthy until now + extra + kPullRetryTimeout.
  void ArmPullDeadline(int idx, sim::Duration extra = 0);
  /// Kills node `idx`'s pull chain outright (all in-flight continuations
  /// retire via the epoch bump).
  void RetirePull(int idx);
  /// CPU cost of applying `entries` oplog entries on node `idx`: one
  /// lognormal per-entry sample scaled by the batch size (run-to-run
  /// variance without a draw per entry), stretched by the apply throttle.
  sim::Duration ApplyCost(int idx, size_t entries);
  /// Initial sync: node `idx` clones the current primary's data and joins
  /// the stream from the primary's position, consistent by construction,
  /// then trims what the clone no longer needs.
  void CloneFromPrimary(int idx);
  /// Trims the oplog through the lowest last-applied optime among live
  /// members, partitioned ones included, whenever that minimum may have
  /// risen: a member applied a batch, died, or cloned the primary. Dead
  /// members never read the oplog again: RestartNode clones them. Every
  /// live member's last-applied optime stays at or above the trim point,
  /// since a member only moves back by cloning the primary, which is live.
  void TrimApplied();

  // --- election machinery ---

  /// Rollback via refetch: a diverged member re-clones the current
  /// primary (one network round trip) before rejoining the pull stream.
  void ResyncStep(int idx, uint64_t epoch);
  /// Starts a live member's heartbeat loop (unless its previous one is
  /// still winding down) and its election-check chain.
  void StartMemberChains(int idx);
  /// One election-check chain per live member: fires at the coordinator's
  /// deadline, feeds it OnElectionTimeout, reschedules.
  void ScheduleElectionCheck(int idx, uint64_t incarnation);
  /// Executes whatever a coordinator transition asks of the data plane.
  void ApplyAction(int idx, const TopologyAction& action);
  void BroadcastVoteRequests(int idx);
  void ScheduleTakeoverCheck(int idx, sim::Time at);
  /// All-to-all liveness/term/progress heartbeats, one loop per live
  /// member. They carry the secondaries' progress reports to the primary
  /// and double as the pull watchdog.
  void RaftHeartbeatLoop(int idx);
  void HandleRaftHeartbeat(int to, const HeartbeatView& hb);
  /// Election won: the winner catches up to the freshest recently-heard
  /// peer optime before the data plane swaps to it (MongoDB's post-win
  /// catchup phase), then FinishStepUp truncates rolled-back history,
  /// moves primary_index_/term_, and opens the new term for writes.
  void BeginStepUp(int winner);
  /// True while the catch-up chain `epoch` is the newest and its winner is
  /// still alive and leading `new_term`. A deposed (or crashed) winner's
  /// data plane never swapped, so there is nothing to undo: ApplyAction
  /// restarts its pull when the stepdown lands; a crash leaves it to
  /// RestartNode.
  bool CatchUpCurrent(int winner, uint64_t new_term, uint64_t epoch) const;
  void CatchUpStep(int winner, uint64_t new_term, uint64_t target,
                   sim::Time deadline, uint64_t epoch);
  void FinishStepUp(int winner, uint64_t new_term);
  /// Adds `node` to the term's entry of an election-safety ledger.
  static void RecordByTerm(std::map<uint64_t, std::vector<int>>* ledger,
                           uint64_t term, int node);

  sim::EventLoop* loop_;
  sim::Rng rng_;
  net::Network* network_;
  obs::Tracer* tracer_ = nullptr;
  ReplicaSetParams params_;
  /// One record per member, in node-index order.
  std::vector<Member> members_;
  Oplog oplog_;
  uint64_t next_seq_ = 1;
  uint64_t pull_restarts_ = 0;
  int primary_index_ = 0;
  uint64_t term_ = 1;
  uint64_t elections_ = 0;

  // --- election state ---

  /// Supersedes stale catch-up chains when a newer election wins.
  uint64_t catchup_epoch_ = 0;
  uint64_t rollback_resyncs_ = 0;
  std::map<uint64_t, std::vector<int>> writable_by_term_;
  std::map<uint64_t, std::vector<int>> commits_by_term_;
  uint64_t committed_writes_ = 0;
  uint64_t flow_control_engaged_writes_ = 0;
  uint64_t getmore_stalls_ = 0;
  uint64_t majority_writes_acked_ = 0;

  struct MajorityWaiter {
    uint64_t seq;
    sim::UniqueFunction<void(bool)> ack;
  };
  std::vector<MajorityWaiter> majority_waiters_;

  // --- wire-protocol command layer ---

  proto::CommandBus bus_;

  /// Retryable-write transaction table, indexed by session id (ids come
  /// from `bus_`, so they are dense). Modeled as perfectly replicated
  /// alongside the data it describes: records for writes rolled back by
  /// an election are purged with them.
  std::vector<RetrySession> retry_sessions_;
};

}  // namespace dcg::repl

#endif  // DCG_REPL_REPLICA_SET_H_
