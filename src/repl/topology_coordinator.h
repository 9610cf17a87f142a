#ifndef DCG_REPL_TOPOLOGY_COORDINATOR_H_
#define DCG_REPL_TOPOLOGY_COORDINATOR_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "repl/oplog.h"
#include "sim/random.h"
#include "sim/time.h"

namespace dcg::repl {

/// Role a member believes it holds. Roles are term-scoped: a node is
/// "primary in term T", never just "primary" — seeing a higher term
/// demotes it immediately.
enum class MemberRole : uint8_t {
  kSecondary = 0,
  kCandidate = 1,
  kPrimary = 2,
};

std::string_view ToString(MemberRole role);

/// Why the coordinator's last transition happened — surfaced in tests,
/// logs, and the election battery's assertions.
enum class TopologyEvent : uint8_t {
  kNone = 0,
  /// Election timeout expired with no leader contact: dry-run started.
  kElectionTimeout,
  /// A higher-priority member is taking over from a live leader.
  kPriorityTakeover,
  /// Saw a higher term (heartbeat or vote traffic): stepped down.
  kStepDownHigherTerm,
  /// A primary lost majority heartbeat contact: stepped down.
  kStepDownNoMajority,
  /// Won a real election: step-up (catch-up) begins.
  kWonElection,
};

std::string_view ToString(TopologyEvent event);

/// Uniform jitter added to each election deadline, as a fraction of
/// election_timeout (de-synchronizes would-be candidates).
inline constexpr double kElectionJitterFraction = 0.15;

/// A secondary that spots a lower-priority leader waits this long
/// (re-checking that the situation persists) before taking over.
inline constexpr sim::Duration kPriorityTakeoverDelay = sim::Seconds(1);

/// Per-member election configuration.
struct TopologyConfig {
  int node_count = 3;
  /// Base election timeout; the effective deadline adds a uniform random
  /// jitter in [0, kElectionJitterFraction * election_timeout] per reset,
  /// de-synchronizing candidates (MongoDB's electionTimeoutOffset).
  sim::Duration election_timeout = sim::Seconds(5);
  /// How caught-up a takeover candidate must be: within this much wall
  /// time of the leader's last reported optime (or at/above its seq).
  sim::Duration priority_takeover_gap = sim::Seconds(2);
  /// Election priority per node index; empty = all 1.0. A node with
  /// priority 0 never campaigns (MongoDB's priority:0 members).
  std::vector<double> priorities;
};

/// A (pre-)vote solicitation broadcast by a campaigning member.
struct VoteRequest {
  int candidate = -1;
  /// Proposed term (dry run) or the candidate's adopted term (real).
  uint64_t term = 0;
  /// Dry-run rounds probe electability without disturbing terms; only a
  /// real election bumps the candidate's own term.
  bool dry_run = true;
  /// Candidate's oplog position: voters refuse candidates whose oplog is
  /// older than their own (the Raft / MongoDB freshness rule).
  OpTime last_applied;
};

/// A member's answer to a VoteRequest.
struct VoteResponse {
  int voter = -1;
  int candidate = -1;
  uint64_t term = 0;  // the campaign term this answers
  bool dry_run = true;
  bool granted = false;
  /// The voter's own term after processing — a denial carrying a higher
  /// term is itself a step-down signal for the candidate.
  uint64_t voter_term = 0;
  /// Static human-readable grant/denial reason (for tests and logs).
  std::string_view reason;
};

/// One member's heartbeat as seen by a peer: term + leader view +
/// replication progress, the payload MongoDB piggybacks on replSetHeartbeat.
struct HeartbeatView {
  int from = -1;
  uint64_t term = 0;
  /// Sender's leader belief; a sender claims leadership (leader == from)
  /// only while it is a writable primary.
  int leader = -1;
  OpTime last_applied;
};

/// What the surrounding replica set must do after feeding the coordinator
/// an input. At most one of the campaign flags is set per call.
struct TopologyAction {
  bool start_dry_run = false;   // broadcast dry-run vote requests
  bool start_election = false;  // broadcast real vote requests
  bool won_election = false;    // begin step-up (catch-up, then writable)
  bool stepped_down = false;    // primary/candidate reverted to secondary
  TopologyEvent event = TopologyEvent::kNone;
  /// >= 0: schedule a priority-takeover check at this instant.
  sim::Time takeover_at = -1;

  bool any() const {
    return start_dry_run || start_election || won_election || stepped_down ||
           takeover_at >= 0;
  }
};

/// One member's Raft-style election state machine — the brain behind
/// elections, modelled on mongod's repl::TopologyCoordinator. It is pure
/// state: no event loop, no network. The owning ReplicaSet feeds it
/// timeouts, heartbeats, and vote traffic, and executes the returned
/// TopologyActions (broadcasting requests, scheduling checks, starting
/// the data-plane step-up). That split keeps the vote rules directly
/// unit-testable with hand-rolled inputs.
///
/// Rules implemented, each exercised by tests/election_test.cc:
///  - randomized election deadlines (base timeout + uniform jitter);
///  - dry-run (pre-vote) rounds that never disturb terms, denied while
///    the voter still hears a live leader;
///  - freshness: no vote, dry or real, for a candidate whose oplog is
///    older than the voter's;
///  - a single real vote per term, granting resets the voter's timer;
///  - term propagation: any message carrying a higher term demotes
///    primaries and candidates to secondary on the spot;
///  - a primary that loses majority heartbeat contact steps down;
///  - priority takeover: a caught-up higher-priority secondary campaigns
///    against a live lower-priority leader (real election, no dry run);
///  - step-up completes (writable) only after the data-plane catch-up —
///    won_election marks the start, CompleteStepUp() the end.
class TopologyCoordinator {
 public:
  /// `initial_leader` seeds the steady topology (node 0 is the seed
  /// primary and starts writable in term 1, matching the driver's seed
  /// view); pass -1 for a cold start with no leader.
  TopologyCoordinator(int self, TopologyConfig config, sim::Rng rng,
                      int initial_leader, sim::Time now);

  TopologyCoordinator(const TopologyCoordinator&) = delete;
  TopologyCoordinator& operator=(const TopologyCoordinator&) = delete;

  int self() const { return self_; }
  MemberRole role() const { return role_; }
  uint64_t term() const { return term_; }
  /// Current leader belief (-1 unknown). A freshly elected leader points
  /// at itself here even while catching up.
  int leader() const { return leader_; }
  /// Leader belief suitable for hello replies: a leader mid-catch-up is
  /// not yet writable, so the cluster reports "no primary" (-1) rather
  /// than flapping between the old and new leader.
  int leader_for_hello() const {
    return (leader_ == self_ && !writable_) ? -1 : leader_;
  }
  /// True once step-up completed: the member accepts writes in its term.
  bool writable() const { return role_ == MemberRole::kPrimary && writable_; }
  sim::Time election_deadline() const { return election_deadline_; }
  TopologyEvent last_event() const { return last_event_; }
  uint64_t dry_runs_started() const { return dry_runs_started_; }
  uint64_t elections_started() const { return elections_started_; }
  /// Times this member stepped down *from the primary role* (crashes
  /// don't count — only higher terms and lost majority contact).
  uint64_t stepdowns() const { return stepdowns_; }
  double priority() const { return PriorityOf(self_); }

  /// Re-arms the election deadline at now + timeout + U[0, jitter].
  void ResetElectionDeadline(sim::Time now);

  /// The election timer fired. Returns none when the deadline has moved
  /// (leader contact re-armed it); otherwise starts a dry run (follower),
  /// retries a stuck campaign (candidate), or runs the primary's
  /// majority-contact check.
  TopologyAction OnElectionTimeout(sim::Time now);

  /// A peer's heartbeat arrived. `my_last_applied` is this member's own
  /// oplog position (owned by ReplicaNode, not the coordinator).
  TopologyAction OnHeartbeat(const HeartbeatView& hb,
                             const OpTime& my_last_applied, sim::Time now);

  /// A campaigning peer asks for this member's vote.
  VoteResponse OnVoteRequest(const VoteRequest& req,
                             const OpTime& my_last_applied, sim::Time now);

  /// A voter answered this member's campaign.
  TopologyAction OnVoteResponse(const VoteResponse& resp, sim::Time now);

  /// The deferred priority-takeover check fired: campaign for real iff
  /// the leader is still lower-priority and this member is caught up.
  TopologyAction OnPriorityTakeoverCheck(const OpTime& my_last_applied,
                                         sim::Time now);

  /// Data-plane catch-up finished: the new primary opens for writes.
  void CompleteStepUp(sim::Time now);

  /// A restarted member rejoins as a secondary, keeping its persisted
  /// term (Raft's durable currentTerm) but no leader belief.
  void Rejoin(sim::Time now);

  /// The request the owner should broadcast for the active campaign.
  VoteRequest CampaignRequest(const OpTime& my_last_applied) const;

  /// Freshest oplog seq among peers heard within `window` — the
  /// step-up catch-up target (unreachable members' extra entries roll
  /// back instead of being waited for).
  uint64_t FreshestPeerSeq(sim::Time now, sim::Duration window) const;

 private:
  double PriorityOf(int node) const;
  int Majority() const { return config_.node_count / 2 + 1; }
  /// Demotes to secondary (no-op bookkeeping if already one).
  void StepDown(TopologyEvent why, sim::Time now);
  void AbandonCampaign();
  /// Starts the real election round: adopts the campaign term and votes
  /// for itself.
  TopologyAction StartRealElection(TopologyEvent why, sim::Time now);
  int VotesReceived() const;

  const int self_;
  const TopologyConfig config_;
  sim::Rng rng_;

  MemberRole role_ = MemberRole::kSecondary;
  uint64_t term_ = 1;
  int leader_ = -1;
  bool writable_ = false;
  sim::Time election_deadline_ = 0;
  TopologyEvent last_event_ = TopologyEvent::kNone;

  /// The single real vote this member cast in voted_term_ (Raft's
  /// votedFor; -1 = none yet).
  uint64_t voted_term_ = 0;
  int voted_for_ = -1;

  /// Active campaign bookkeeping (valid while campaigning_).
  bool campaigning_ = false;
  bool campaign_dry_run_ = true;
  uint64_t campaign_term_ = 0;
  std::vector<bool> campaign_votes_;

  /// Peer liveness + progress, from heartbeat/vote traffic.
  std::vector<sim::Time> peer_heard_;
  std::vector<OpTime> peer_last_applied_;
  /// The leader's progress as of its latest direct heartbeat (takeover
  /// caught-up check input).
  OpTime leader_last_applied_;
  bool takeover_pending_ = false;

  uint64_t dry_runs_started_ = 0;
  uint64_t elections_started_ = 0;
  uint64_t stepdowns_ = 0;
};

}  // namespace dcg::repl

#endif  // DCG_REPL_TOPOLOGY_COORDINATOR_H_
