#ifndef DCG_REPL_REPLICA_SET_H_
#define DCG_REPL_REPLICA_SET_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <unordered_map>
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

  /// Max oplog entries returned per getMore.
  size_t getmore_max_batch = 5000;

  /// How long a fully caught-up secondary waits before polling again
  /// (models the awaitData tailable-cursor timeout).
  sim::Duration getmore_idle_poll = sim::Millis(50);

  /// How often secondaries report their lastAppliedOpTime to the primary.
  /// This lag is why the primary's view of secondary progress — and hence
  /// Decongestant's staleness estimate — is conservative (§2.3).
  sim::Duration heartbeat_interval = sim::Millis(500);

  /// Flow control (§4.5): when the max lag known to the primary exceeds
  /// the target, write service times are stretched by the throttle factor.
  bool flow_control_enabled = true;
  sim::Duration flow_control_target_lag = sim::Seconds(5);
  double flow_control_throttle = 3.0;

  /// A checkpoint whose flush is expected to take longer than this stalls
  /// getMore service entirely until it finishes — the mechanism behind the
  /// sawtooth staleness of Figure 9 ("the primary gets around to servicing
  /// the getMore and sends a large batch").
  sim::Duration getmore_block_threshold = sim::Seconds(15);

  /// During shorter checkpoints, getMore responses are merely deferred by
  /// this much (the disk is busy but not saturated) — producing the mild,
  /// bounded staleness YCSB-A exhibits rather than a full stall.
  sim::Duration getmore_soft_delay = sim::Millis(1500);

  size_t oplog_capacity = 2'000'000;

  /// Base election timeout: a member that hears no leader for this long
  /// (plus its randomized jitter) campaigns. Every member runs a
  /// Raft-style TopologyCoordinator — pre-vote freshness checks, real
  /// vote rounds, stepdown on higher terms, post-win catch-up — so the
  /// fail-over gap is this timeout plus the vote and catch-up rounds.
  sim::Duration election_timeout = sim::Seconds(5);

  /// Uniform jitter added to each election deadline, as a fraction of
  /// election_timeout (de-synchronizes would-be candidates).
  double election_jitter_fraction = 0.15;

  /// Hard bound on the post-win catch-up phase: a new leader opens for
  /// writes once it reaches the freshest recently-heard peer optime or
  /// this much time passes, whichever is first.
  sim::Duration catchup_timeout = sim::Seconds(2);

  /// Delay between spotting a lower-priority leader and attempting the
  /// priority takeover, and how caught-up the taker must be (see
  /// TopologyConfig).
  sim::Duration priority_takeover_delay = sim::Seconds(1);
  sim::Duration priority_takeover_gap = sim::Seconds(2);

  /// Election priority per node index (empty = all 1.0; 0 = never
  /// campaigns).
  std::vector<double> node_priorities;

  /// Pull-chain watchdog: when a getMore request or its reply batch is
  /// lost on the network (packet loss, partition), the secondary notices
  /// no pull progress for this long past the expected next step and
  /// restarts the chain — the sync-source retry real MongoDB drives off
  /// its heartbeats. Without faults the deadline never expires.
  sim::Duration pull_retry_timeout = sim::Seconds(2);
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
    for (auto& service : services_) service->SetTracer(tracer);
  }

  /// Installs a sharding admission check on every node's command service
  /// (stale chunk-version rejection — see CommandService::AdmissionCheck).
  void SetAdmissionCheck(server::CommandService::AdmissionCheck check) {
    for (auto& service : services_) service->SetAdmissionCheck(check);
  }

  // --- server::CommandBackend (dispatched into by CommandServices) ---

  bool NodeAlive(int idx) const override { return alive_[idx]; }
  /// Per-node topology belief: each member answers from its own
  /// coordinator (so a deposed primary keeps claiming the role until it
  /// hears the new term — exactly the stale-view window the driver's term
  /// adoption exists for).
  int NodeBelievedPrimary(int idx) const override {
    return coords_[idx]->leader_for_hello();
  }
  uint64_t NodeTerm(int idx) const override { return coords_[idx]->term(); }
  OpTime NodeLastApplied(int idx) const override {
    return nodes_[idx]->last_applied();
  }
  const store::Database& NodeData(int idx) const override {
    return nodes_[idx]->db();
  }
  server::ServerNode& NodeServer(int idx) override {
    return nodes_[idx]->server();
  }
  void CommitWrite(int node, server::OpClass op_class, proto::TxnBody body,
                   WriteConcern concern, uint64_t op_id, double cost_scale,
                   std::function<void(const server::WriteOutcome&)> done)
      override;
  proto::ServerStatusReply ServerStatusSnapshot() override;

  int node_count() const { return static_cast<int>(nodes_.size()); }
  int secondary_count() const { return node_count() - 1; }
  /// Node 0 starts as the primary; fail-overs can move the role.
  ReplicaNode& node(int idx) { return *nodes_[idx]; }
  const ReplicaNode& node(int idx) const { return *nodes_[idx]; }
  ReplicaNode& primary() { return *nodes_[primary_index_]; }
  const ReplicaNode& primary() const { return *nodes_[primary_index_]; }
  int primary_index() const { return primary_index_; }

  // --- fault injection & fail-over ---

  bool IsAlive(int idx) const { return alive_[idx]; }

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

  /// One member's election state machine.
  const TopologyCoordinator& coordinator(int idx) const {
    return *coords_[idx];
  }

  /// True when the member currently leading the data plane is alive and
  /// has completed step-up — i.e. a write sent to the right node would
  /// commit.
  bool HasWritablePrimary() const {
    return alive_[primary_index_] && coords_[primary_index_]->writable();
  }

  /// Times a primary stepped down (higher term seen, or majority
  /// heartbeat contact lost) without crashing.
  uint64_t stepdowns() const;

  /// Times a diverged member (applied entries an election rolled back)
  /// re-cloned from the current primary before rejoining the stream.
  uint64_t rollback_resyncs() const { return rollback_resyncs_; }
  bool needs_resync(int idx) const { return needs_resync_[idx]; }

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
  double apply_throttle(int idx) const { return apply_throttle_[idx]; }

  /// Skews the lastAppliedOpTime wall clock node `idx` *reports* in
  /// heartbeats; local replication state is untouched. Negative skew makes
  /// the node look staler to the primary (a conservative error); positive
  /// skew makes it look fresher than it is — exactly the distortion a
  /// skewed server clock inflicts on the §2.3 staleness estimate.
  void SetReportSkew(int idx, sim::Duration skew);
  sim::Duration report_skew(int idx) const { return report_skew_[idx]; }

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

 private:
  /// Implementation behind CommitWrite: runs the transaction on node
  /// `node`'s CPU (flow control applied) — the member that believes itself
  /// primary — commits or aborts at completion iff that member still leads
  /// the data plane at the commit instant, and — when `op_id != 0` —
  /// records the outcome in the retryable-write transaction table at the
  /// commit instant (the record is logically replicated with the write, so
  /// an election that rolls the write back also drops the record).
  void CommitInternal(int node, server::OpClass op_class, proto::TxnBody body,
                      uint64_t op_id, double cost_scale,
                      std::function<void(const server::WriteOutcome&)> done,
                      WriteConcern concern);
  /// Resolves w:majority waiters whose sequence has reached a majority.
  void CheckMajorityWaiters();
  /// Fails all outstanding w:majority waiters (primary crash: outcome
  /// uncertain to the client).
  void FailMajorityWaiters();
  /// True when node `idx` should pull the oplog from the primary.
  bool IsActiveSecondary(int idx) const {
    return alive_[idx] && idx != primary_index_;
  }
  /// Starts node `idx`'s oplog pull chain unless one is already running.
  void StartPull(int idx);
  // Pull-chain steps carry the epoch they were started under; a step whose
  // epoch no longer matches pull_epoch_[idx] belongs to a superseded chain
  // (watchdog restart, node kill) and retires without acting.
  void SendGetMore(int secondary_idx, uint64_t epoch);
  void HandleGetMoreAtPrimary(int secondary_idx, uint64_t epoch);
  void ServeGetMore(int secondary_idx, uint64_t epoch);
  void HandleBatchAtSecondary(int secondary_idx, std::vector<OplogEntry> batch,
                              uint64_t epoch);
  /// Declares the pull chain healthy until now + extra + pull_retry_timeout.
  void ArmPullDeadline(int idx, sim::Duration extra = 0);
  /// Kills node `idx`'s pull chain outright (all in-flight continuations
  /// retire via the epoch bump).
  void RetirePull(int idx);
  /// After a member applied a batch: releases the oplog's document
  /// references up to the lowest last-applied optime among live members,
  /// partitioned ones included. Dead members never read the oplog again:
  /// RestartNode clones them. Every live member's last-applied optime
  /// stays at or above the release point, since a member only moves back
  /// by cloning the primary, which is live.
  void ReleaseAppliedDocs();

  // --- election machinery ---

  /// Rollback via refetch: a diverged member re-clones the current
  /// primary (one network round trip) before rejoining the pull stream.
  void ResyncStep(int idx, uint64_t epoch);
  /// Keeps one election-check event chain per live member: fires at the
  /// coordinator's deadline, feeds it OnElectionTimeout, reschedules.
  void ArmElectionTimer(int idx);
  void ScheduleElectionCheck(int idx, uint64_t epoch);
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
  void CatchUpStep(int winner, uint64_t new_term, uint64_t target,
                   sim::Time deadline, uint64_t epoch);
  void FinishStepUp(int winner, uint64_t new_term);
  /// Mirrors the coordinator's role/term into the node's read-only role
  /// view.
  void SyncNodeView(int idx);
  void RecordWritable(uint64_t term, int node);
  void RecordCommit(uint64_t term, int node);

  sim::EventLoop* loop_;
  sim::Rng rng_;
  net::Network* network_;
  obs::Tracer* tracer_ = nullptr;
  ReplicaSetParams params_;
  std::vector<std::unique_ptr<ReplicaNode>> nodes_;
  Oplog oplog_;
  uint64_t next_seq_ = 1;
  /// known_last_applied_[idx] = node idx's progress as last heard by the
  /// primary via heartbeats (the primary's own slot is unused).
  std::vector<OpTime> known_last_applied_;
  std::vector<bool> alive_;
  // One pull chain / heartbeat chain per node at a time; the flags retire
  // a pull chain when its node stops being an active secondary (a
  // heartbeat chain when its node dies) and prevent elections and
  // restarts from spawning duplicates.
  std::vector<bool> pulling_;
  std::vector<bool> heartbeating_;
  // Watchdog state: the live chain's epoch, and the deadline by which it
  // must have made another step before the heartbeat loop restarts it.
  std::vector<uint64_t> pull_epoch_;
  std::vector<sim::Time> pull_deadline_;
  // Fault-injection knobs (see SetApplyThrottle / SetReportSkew).
  std::vector<double> apply_throttle_;
  std::vector<sim::Duration> report_skew_;
  uint64_t pull_restarts_ = 0;
  int primary_index_ = 0;
  uint64_t term_ = 1;
  uint64_t elections_ = 0;

  // --- election state ---

  /// One election state machine per member.
  std::vector<std::unique_ptr<TopologyCoordinator>> coords_;
  /// Election-check chains: one per live member, epoch-retired on kill.
  std::vector<uint64_t> election_timer_epoch_;
  std::vector<bool> election_timer_armed_;
  std::vector<uint64_t> takeover_epoch_;
  /// Members whose applied history extends past an election's rollback
  /// point; they must re-clone before pulling again.
  std::vector<bool> needs_resync_;
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
    std::function<void(bool)> ack;
  };
  std::vector<MajorityWaiter> majority_waiters_;

  // --- wire-protocol command layer ---

  proto::CommandBus bus_;
  std::vector<std::unique_ptr<server::CommandService>> services_;

  /// Retryable-write transaction table, keyed by op id. Modeled as
  /// perfectly replicated alongside the data it describes: records for
  /// writes rolled back by an election are purged with them.
  struct RetryRecord {
    bool committed = false;
    OpTime operation_time;
  };
  std::unordered_map<uint64_t, RetryRecord> retry_records_;
  /// Attempts that arrived while the same op id was still committing
  /// (e.g. a client retry racing a slow first attempt) park here and are
  /// acknowledged with the original's outcome instead of re-executing.
  std::unordered_map<
      uint64_t, std::vector<std::function<void(const server::WriteOutcome&)>>>
      retry_waiters_;
};

}  // namespace dcg::repl

#endif  // DCG_REPL_REPLICA_SET_H_
