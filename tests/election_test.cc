// The failover test battery for Raft-style elections (Algorithm 1's
// operating environment when the primary moves).
//
// Three layers:
//   1. TopologyCoordinator state-machine unit cases: randomized timeout
//      bounds, pre-vote liveness and freshness rules, one-vote-per-term,
//      term propagation, no-majority stepdown, priority takeover,
//      step-up gating.
//   2. ReplicaSet integration: partitions, stepdowns, rollback-resync,
//      and the per-term election-safety ledgers.
//   3. A 100-seed property suite: seeded-random partition schedules must
//      never produce two writable primaries in one term, and must
//      re-elect a writable leader within 10 election timeouts of healing.
//
// Plus the client-facing failover story: the chaos harness drives a
// primary crash under the full Decongestant stack and checks that the
// Read Balancer resets on the swap and the driver clears the deposed
// primary's connection pool (stale_handouts stays 0).

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "chaos_harness.h"
#include "commit_helper.h"
#include "fault/fault_injector.h"
#include "net/network.h"
#include "repl/replica_set.h"
#include "repl/topology_coordinator.h"

namespace dcg::repl {
namespace {

// ---------------------------------------------------------------------
// Layer 1: coordinator state-machine unit cases.
// ---------------------------------------------------------------------

TopologyConfig UnitConfig() {
  TopologyConfig config;
  config.node_count = 3;
  config.election_timeout = sim::Seconds(5);
  return config;
}

OpTime At(uint64_t seq) {
  OpTime t;
  t.seq = seq;
  t.wall = static_cast<sim::Time>(seq) * sim::Millis(10);
  return t;
}

/// A follower that has not heard any leader (cold start, no takeover
/// noise): node `self` of 3, term 1.
TopologyCoordinator Follower(int self, uint64_t rng_seed = 7) {
  return TopologyCoordinator(self, UnitConfig(), sim::Rng(rng_seed),
                             /*initial_leader=*/-1, /*now=*/0);
}

TEST(TopologyCoordinatorTest, DeadlineJitterStaysWithinConfiguredBounds) {
  TopologyCoordinator c = Follower(1);
  const TopologyConfig config = UnitConfig();
  const sim::Duration max_jitter = static_cast<sim::Duration>(
      kElectionJitterFraction * static_cast<double>(config.election_timeout));
  std::set<sim::Duration> distinct;
  for (int i = 0; i < 200; ++i) {
    const sim::Time now = sim::Seconds(i);
    c.ResetElectionDeadline(now);
    const sim::Duration delay = c.election_deadline() - now;
    ASSERT_GE(delay, config.election_timeout);
    ASSERT_LE(delay, config.election_timeout + max_jitter);
    distinct.insert(delay);
  }
  // Randomized, not constant: many draws must produce many delays.
  EXPECT_GT(distinct.size(), 20u);
}

TEST(TopologyCoordinatorTest, TimeoutBeforeDeadlineIsANoOp) {
  TopologyCoordinator c = Follower(1);
  const TopologyAction action =
      c.OnElectionTimeout(c.election_deadline() - sim::Millis(1));
  EXPECT_FALSE(action.any());
  EXPECT_EQ(c.role(), MemberRole::kSecondary);
  EXPECT_EQ(c.dry_runs_started(), 0u);
}

TEST(TopologyCoordinatorTest, TimeoutStartsDryRunWithoutDisturbingTerm) {
  TopologyCoordinator c = Follower(1);
  const TopologyAction action = c.OnElectionTimeout(c.election_deadline());
  EXPECT_TRUE(action.start_dry_run);
  EXPECT_FALSE(action.start_election);
  EXPECT_EQ(action.event, TopologyEvent::kElectionTimeout);
  EXPECT_EQ(c.term(), 1u) << "pre-vote must not bump the term";
  EXPECT_EQ(c.dry_runs_started(), 1u);
  // The proposed (not adopted) term rides the campaign request.
  EXPECT_EQ(c.CampaignRequest(At(5)).term, 2u);
  EXPECT_TRUE(c.CampaignRequest(At(5)).dry_run);
}

TEST(TopologyCoordinatorTest, DryRunDeniedWhileVoterHearsLiveLeader) {
  TopologyCoordinator voter = Follower(1);
  // Node 0 announces itself leader; the voter adopts it.
  HeartbeatView hb;
  hb.from = 0;
  hb.term = 1;
  hb.leader = 0;
  hb.last_applied = At(10);
  voter.OnHeartbeat(hb, At(10), sim::Seconds(1));
  ASSERT_EQ(voter.leader(), 0);

  VoteRequest req;
  req.candidate = 2;
  req.term = 2;
  req.dry_run = true;
  req.last_applied = At(10);
  // Leader heard 1 s ago (< election timeout): refuse to help disrupt it.
  const VoteResponse denied =
      voter.OnVoteRequest(req, At(10), sim::Seconds(2));
  EXPECT_FALSE(denied.granted);
  EXPECT_EQ(denied.reason, "leader is healthy");
  // Once the leader has been silent past the timeout, the same request
  // is granted.
  const VoteResponse granted =
      voter.OnVoteRequest(req, At(10), sim::Seconds(7));
  EXPECT_TRUE(granted.granted);
  EXPECT_EQ(voter.term(), 1u) << "dry-run grant must not touch the term";
}

TEST(TopologyCoordinatorTest, VoteRefusedWhenCandidateOplogOlderThanVoters) {
  TopologyCoordinator voter = Follower(1);
  VoteRequest req;
  req.candidate = 2;
  req.term = 2;
  req.last_applied = At(5);
  for (const bool dry : {true, false}) {
    req.dry_run = dry;
    const VoteResponse resp =
        voter.OnVoteRequest(req, /*my_last_applied=*/At(6), sim::Seconds(9));
    EXPECT_FALSE(resp.granted) << (dry ? "dry" : "real");
    EXPECT_EQ(resp.reason, "candidate oplog older than voter's");
  }
  // Equal positions are electable.
  req.dry_run = false;
  EXPECT_TRUE(voter.OnVoteRequest(req, At(5), sim::Seconds(9)).granted);
}

TEST(TopologyCoordinatorTest, OnlyOneRealVotePerTerm) {
  TopologyCoordinator voter = Follower(1);
  VoteRequest first;
  first.candidate = 0;
  first.term = 2;
  first.dry_run = false;
  first.last_applied = At(10);
  EXPECT_TRUE(voter.OnVoteRequest(first, At(10), sim::Seconds(6)).granted);

  VoteRequest second = first;
  second.candidate = 2;
  const VoteResponse resp =
      voter.OnVoteRequest(second, At(10), sim::Seconds(6));
  EXPECT_FALSE(resp.granted);
  EXPECT_EQ(resp.reason, "already voted this term");
  // The original candidate asking again (lost response) is re-granted.
  EXPECT_TRUE(voter.OnVoteRequest(first, At(10), sim::Seconds(6)).granted);
}

TEST(TopologyCoordinatorTest, GrantingARealVoteResetsTheVoterDeadline) {
  TopologyCoordinator voter = Follower(1);
  const sim::Time before = voter.election_deadline();
  VoteRequest req;
  req.candidate = 0;
  req.term = 2;
  req.dry_run = false;
  req.last_applied = At(10);
  const sim::Time now = before - sim::Millis(1);  // just before expiry
  ASSERT_TRUE(voter.OnVoteRequest(req, At(0), now).granted);
  EXPECT_GE(voter.election_deadline(), now + UnitConfig().election_timeout)
      << "granting must defer the voter's own candidacy";
}

TEST(TopologyCoordinatorTest, DryRunMajorityEscalatesToRealElection) {
  TopologyCoordinator c = Follower(1);
  ASSERT_TRUE(c.OnElectionTimeout(c.election_deadline()).start_dry_run);
  VoteResponse grant;
  grant.voter = 0;
  grant.candidate = 1;
  grant.term = 2;
  grant.dry_run = true;
  grant.granted = true;
  grant.voter_term = 1;
  const TopologyAction action = c.OnVoteResponse(grant, sim::Seconds(6));
  // Self + one grant = majority of 3: the real election starts and only
  // now does the term move.
  EXPECT_TRUE(action.start_election);
  EXPECT_EQ(c.term(), 2u);
  EXPECT_EQ(c.role(), MemberRole::kCandidate);
  EXPECT_EQ(c.elections_started(), 1u);
  EXPECT_FALSE(c.CampaignRequest(At(0)).dry_run);
}

TEST(TopologyCoordinatorTest, RealMajorityWinsButIsNotWritableUntilStepUp) {
  TopologyCoordinator c = Follower(1);
  ASSERT_TRUE(c.OnElectionTimeout(c.election_deadline()).start_dry_run);
  VoteResponse grant;
  grant.voter = 0;
  grant.candidate = 1;
  grant.term = 2;
  grant.dry_run = true;
  grant.granted = true;
  grant.voter_term = 1;
  ASSERT_TRUE(c.OnVoteResponse(grant, sim::Seconds(6)).start_election);
  grant.dry_run = false;
  const TopologyAction won = c.OnVoteResponse(grant, sim::Seconds(6));
  EXPECT_TRUE(won.won_election);
  EXPECT_EQ(won.event, TopologyEvent::kWonElection);
  EXPECT_EQ(c.role(), MemberRole::kPrimary);
  EXPECT_FALSE(c.writable()) << "catch-up gates writability";
  EXPECT_EQ(c.leader_for_hello(), -1)
      << "a leader mid-catch-up reports no primary";
  c.CompleteStepUp(sim::Seconds(6));
  EXPECT_TRUE(c.writable());
  EXPECT_EQ(c.leader_for_hello(), 1);
}

TEST(TopologyCoordinatorTest, StrayVoteResponsesAreIgnored) {
  TopologyCoordinator c = Follower(1);
  ASSERT_TRUE(c.OnElectionTimeout(c.election_deadline()).start_dry_run);
  VoteResponse stray;
  stray.voter = 0;
  stray.candidate = 1;
  stray.term = 99;  // not this campaign's term
  stray.dry_run = true;
  stray.granted = true;
  stray.voter_term = 1;
  EXPECT_FALSE(c.OnVoteResponse(stray, sim::Seconds(6)).any());
  stray.term = 2;
  stray.dry_run = false;  // wrong round kind
  EXPECT_FALSE(c.OnVoteResponse(stray, sim::Seconds(6)).any());
  EXPECT_EQ(c.role(), MemberRole::kSecondary);
}

TEST(TopologyCoordinatorTest, HigherTermHeartbeatStepsPrimaryDown) {
  TopologyCoordinator leader(0, UnitConfig(), sim::Rng(7),
                             /*initial_leader=*/0, 0);
  ASSERT_TRUE(leader.writable());
  HeartbeatView hb;
  hb.from = 2;
  hb.term = 5;
  hb.leader = 2;
  hb.last_applied = At(50);
  const TopologyAction action = leader.OnHeartbeat(hb, At(40), sim::Seconds(3));
  EXPECT_TRUE(action.stepped_down);
  EXPECT_EQ(leader.role(), MemberRole::kSecondary);
  EXPECT_EQ(leader.term(), 5u);
  EXPECT_EQ(leader.leader(), 2);
  EXPECT_EQ(leader.stepdowns(), 1u);
  EXPECT_EQ(leader.last_event(), TopologyEvent::kStepDownHigherTerm);
}

TEST(TopologyCoordinatorTest, PrimaryWithoutMajorityContactStepsDown) {
  TopologyCoordinator leader(0, UnitConfig(), sim::Rng(7),
                             /*initial_leader=*/0, 0);
  // Hear both peers early, then silence: the first timeout check still
  // sees them inside the window; the next one does not.
  HeartbeatView hb;
  hb.term = 1;
  hb.leader = 0;
  for (int peer : {1, 2}) {
    hb.from = peer;
    leader.OnHeartbeat(hb, At(0), sim::Seconds(1));
  }
  const sim::Time first = leader.election_deadline();
  EXPECT_FALSE(leader.OnElectionTimeout(first).stepped_down);
  EXPECT_EQ(leader.role(), MemberRole::kPrimary);

  const sim::Time second = leader.election_deadline();
  const TopologyAction action = leader.OnElectionTimeout(second);
  EXPECT_TRUE(action.stepped_down);
  EXPECT_EQ(action.event, TopologyEvent::kStepDownNoMajority);
  EXPECT_EQ(leader.role(), MemberRole::kSecondary);
  EXPECT_FALSE(leader.writable());
}

TEST(TopologyCoordinatorTest, PriorityTakeoverSchedulesAndSkipsDryRun) {
  TopologyConfig config = UnitConfig();
  config.priorities = {1.0, 2.0, 1.0};  // node 1 outranks the leader
  TopologyCoordinator c(1, config, sim::Rng(7), /*initial_leader=*/-1, 0);
  HeartbeatView hb;
  hb.from = 0;
  hb.term = 1;
  hb.leader = 0;
  hb.last_applied = At(10);
  const TopologyAction seen = c.OnHeartbeat(hb, At(10), sim::Seconds(1));
  ASSERT_GE(seen.takeover_at, 0) << "takeover check must be scheduled";
  EXPECT_EQ(seen.takeover_at,
            sim::Seconds(1) + kPriorityTakeoverDelay);
  // Caught up (same seq): the check campaigns for real, no dry run.
  const TopologyAction takeover =
      c.OnPriorityTakeoverCheck(At(10), seen.takeover_at);
  EXPECT_TRUE(takeover.start_election);
  EXPECT_EQ(takeover.event, TopologyEvent::kPriorityTakeover);
  EXPECT_EQ(c.term(), 2u);
  EXPECT_EQ(c.dry_runs_started(), 0u);
}

TEST(TopologyCoordinatorTest, TakeoverDeferredUntilCaughtUp) {
  TopologyConfig config = UnitConfig();
  config.priorities = {1.0, 2.0, 1.0};
  config.priority_takeover_gap = sim::Seconds(2);
  TopologyCoordinator c(1, config, sim::Rng(7), /*initial_leader=*/-1, 0);
  HeartbeatView hb;
  hb.from = 0;
  hb.term = 1;
  hb.leader = 0;
  hb.last_applied.seq = 1000;
  hb.last_applied.wall = sim::Seconds(100);
  const TopologyAction seen = c.OnHeartbeat(hb, At(10), sim::Seconds(1));
  ASSERT_GE(seen.takeover_at, 0);
  // 90+ seconds of wall gap and behind on seq: not caught up, no action.
  OpTime behind;
  behind.seq = 10;
  behind.wall = sim::Seconds(5);
  EXPECT_FALSE(c.OnPriorityTakeoverCheck(behind, seen.takeover_at).any());
  EXPECT_EQ(c.term(), 1u);
  // Within the wall gap: caught up enough, takeover proceeds.
  OpTime close;
  close.seq = 990;
  close.wall = sim::Seconds(99);
  EXPECT_TRUE(
      c.OnPriorityTakeoverCheck(close, seen.takeover_at).start_election);
}

TEST(TopologyCoordinatorTest, PriorityZeroMemberNeverCampaigns) {
  TopologyConfig config = UnitConfig();
  config.priorities = {1.0, 0.0, 1.0};
  TopologyCoordinator c(1, config, sim::Rng(7), /*initial_leader=*/-1, 0);
  for (int i = 0; i < 5; ++i) {
    EXPECT_FALSE(c.OnElectionTimeout(c.election_deadline()).any());
  }
  EXPECT_EQ(c.dry_runs_started(), 0u);
  EXPECT_EQ(c.role(), MemberRole::kSecondary);
}

TEST(TopologyCoordinatorTest, FutureTermDenialAbandonsCampaign) {
  TopologyCoordinator c = Follower(1);
  ASSERT_TRUE(c.OnElectionTimeout(c.election_deadline()).start_dry_run);
  VoteResponse denial;
  denial.voter = 0;
  denial.candidate = 1;
  denial.term = 2;
  denial.dry_run = true;
  denial.granted = false;
  denial.voter_term = 7;  // the cluster moved on long ago
  EXPECT_FALSE(c.OnVoteResponse(denial, sim::Seconds(6)).any());
  EXPECT_EQ(c.term(), 7u);
  EXPECT_EQ(c.role(), MemberRole::kSecondary);
  // The abandoned campaign's late grants change nothing.
  VoteResponse grant;
  grant.voter = 2;
  grant.candidate = 1;
  grant.term = 2;
  grant.dry_run = true;
  grant.granted = true;
  grant.voter_term = 1;
  EXPECT_FALSE(c.OnVoteResponse(grant, sim::Seconds(6)).any());
}

TEST(TopologyCoordinatorTest, RejoinKeepsPersistedTermAndClearsLeader) {
  TopologyCoordinator c = Follower(1);
  HeartbeatView hb;
  hb.from = 0;
  hb.term = 9;
  hb.leader = 0;
  hb.last_applied = At(10);
  c.OnHeartbeat(hb, At(10), sim::Seconds(1));
  ASSERT_EQ(c.term(), 9u);
  c.Rejoin(sim::Seconds(30));
  EXPECT_EQ(c.term(), 9u) << "currentTerm is durable across restarts";
  EXPECT_EQ(c.leader(), -1);
  EXPECT_EQ(c.role(), MemberRole::kSecondary);
  EXPECT_EQ(c.FreshestPeerSeq(sim::Seconds(30), sim::Seconds(60)), 0u)
      << "peer liveness is not durable";
}

// ---------------------------------------------------------------------
// Layer 2: ReplicaSet integration under partitions.
// ---------------------------------------------------------------------

class RaftSetTest : public ::testing::Test {
 protected:
  void Build(ReplicaSetParams params = {}, uint64_t seed = 2) {
    params.election_timeout = sim::Seconds(2);
    server::ServerParams server_params;
    server_params.service.sigma = 0.0;
    network_ = std::make_unique<net::Network>(&loop_, sim::Rng(1));
    for (int i = 0; i < 3; ++i) {
      hosts_.push_back(network_->AddHost("n" + std::to_string(i)));
    }
    rs_ = std::make_unique<ReplicaSet>(&loop_, sim::Rng(seed), network_.get(),
                                       params, server_params, hosts_);
    rs_->Start();
  }

  void WriteDoc(int64_t id, WriteConcern concern = WriteConcern::kW1,
                std::function<void(bool)> done = nullptr) {
    rs_->CommitWrite(
        rs_->primary_index(), server::OpClass::kInsert,
        [id](TxnContext* ctx) {
          ctx->Insert("t", doc::Value::Doc({{"_id", id}, {"v", id}}));
        },
        concern, /*retry=*/{}, /*cost_scale=*/1.0,
        test::OnCommitted(std::move(done)));
  }

  void Isolate(int node) {
    for (int i = 0; i < 3; ++i) {
      if (i != node) network_->BlockPair(hosts_[node], hosts_[i]);
    }
  }

  void Heal(int node) {
    for (int i = 0; i < 3; ++i) {
      if (i != node) network_->UnblockPair(hosts_[node], hosts_[i]);
    }
  }

  sim::EventLoop loop_;
  std::unique_ptr<net::Network> network_;
  std::vector<net::HostId> hosts_;
  std::unique_ptr<ReplicaSet> rs_;
};

TEST_F(RaftSetTest, PartitionedPrimaryStepsDownAndMajorityElects) {
  Build();
  for (int64_t i = 0; i < 20; ++i) WriteDoc(i);
  loop_.RunUntil(sim::Seconds(1));
  const int old_primary = rs_->primary_index();

  Isolate(old_primary);
  // The majority side elects a new leader within ~timeout + jitter.
  loop_.RunUntil(sim::Seconds(5));
  EXPECT_NE(rs_->primary_index(), old_primary);
  EXPECT_TRUE(rs_->HasWritablePrimary());
  EXPECT_GE(rs_->term(), 2u);
  // The isolated old primary notices it lost majority contact and steps
  // down on its own (bounded stale-primary window), still in its term.
  loop_.RunUntil(sim::Seconds(8));
  EXPECT_EQ(rs_->coordinator(old_primary).role(), MemberRole::kSecondary);
  EXPECT_GE(rs_->stepdowns(), 1u);

  // Heal: the deposed primary adopts the new term from heartbeats.
  Heal(old_primary);
  loop_.RunUntil(sim::Seconds(12));
  EXPECT_EQ(rs_->coordinator(old_primary).term(), rs_->term());
  EXPECT_EQ(rs_->coordinator(old_primary).leader(), rs_->primary_index());
}

TEST_F(RaftSetTest, DivergedOldPrimaryRollsBackViaResync) {
  Build();
  for (int64_t i = 0; i < 10; ++i) WriteDoc(i);
  loop_.RunUntil(sim::Seconds(1));
  const int old_primary = rs_->primary_index();
  const uint64_t replicated = rs_->oplog().last_seq();

  Isolate(old_primary);
  // w:1 writes keep committing on the isolated primary (the data plane
  // has not swapped yet) — they can never replicate and must roll back.
  int diverged_acks = 0;
  for (int64_t i = 100; i < 110; ++i) {
    WriteDoc(i, WriteConcern::kW1, [&](bool ok) { diverged_acks += ok; });
  }
  loop_.RunUntil(sim::Seconds(1) + sim::Millis(200));
  EXPECT_GT(diverged_acks, 0) << "test needs divergence to roll back";
  EXPECT_GT(rs_->node(old_primary).last_applied().seq, replicated);

  // The majority elects; FinishStepUp truncates the oplog back to the
  // survivors' position and marks the old primary for resync.
  loop_.RunUntil(sim::Seconds(6));
  ASSERT_NE(rs_->primary_index(), old_primary);
  EXPECT_EQ(rs_->oplog().last_seq(), replicated);
  EXPECT_TRUE(rs_->needs_resync(old_primary));

  // New-term writes proceed on the majority side.
  bool committed = false;
  WriteDoc(500, WriteConcern::kMajority, [&](bool ok) { committed = ok; });
  loop_.RunUntil(sim::Seconds(8));
  EXPECT_TRUE(committed);

  // Heal: rollback via refetch — the diverged member re-clones and
  // converges, losing its unreplicated suffix.
  Heal(old_primary);
  loop_.RunUntil(sim::Seconds(16));
  EXPECT_FALSE(rs_->needs_resync(old_primary));
  EXPECT_GE(rs_->rollback_resyncs(), 1u);
  EXPECT_EQ(rs_->node(old_primary).db().Fingerprint(),
            rs_->primary().db().Fingerprint());
  EXPECT_EQ(rs_->node(old_primary).db().Get("t")->FindById(doc::Value(105)),
            nullptr)
      << "rolled-back write must vanish from the deposed primary";
}

TEST_F(RaftSetTest, LedgersShowAtMostOneWritablePrimaryPerTerm) {
  Build();
  for (int64_t i = 0; i < 10; ++i) WriteDoc(i);
  loop_.RunUntil(sim::Seconds(1));
  // Two failover cycles: partition the current primary, let the
  // majority elect, heal, repeat.
  for (int round = 0; round < 2; ++round) {
    const int victim = rs_->primary_index();
    const sim::Time base = loop_.Now();
    Isolate(victim);
    loop_.RunUntil(base + sim::Seconds(6));
    Heal(victim);
    loop_.RunUntil(base + sim::Seconds(10));
    for (int64_t i = 0; i < 5; ++i) {
      WriteDoc(1000 + 100 * round + i);
    }
    loop_.RunUntil(base + sim::Seconds(11));
  }
  EXPECT_GE(rs_->term(), 3u);
  for (const auto& [term, members] : rs_->writable_by_term()) {
    EXPECT_LE(members.size(), 1u) << "term " << term;
  }
  for (const auto& [term, members] : rs_->commits_by_term()) {
    EXPECT_LE(members.size(), 1u) << "term " << term;
  }
  // Every data-plane term that opened for writes is on the ledger.
  EXPECT_TRUE(rs_->writable_by_term().count(rs_->term()));
}

TEST_F(RaftSetTest, PriorityTakeoverMovesLeadershipWithoutACrash) {
  ReplicaSetParams params;
  params.node_priorities = {1.0, 1.0, 3.0};  // node 2 should lead
  Build(params);
  for (int64_t i = 0; i < 10; ++i) WriteDoc(i);
  // Node 2 spots the lower-priority leader via heartbeats, waits the
  // takeover delay, campaigns (no dry run), and wins; the old leader
  // grants the higher-term vote and steps down.
  loop_.RunUntil(sim::Seconds(8));
  EXPECT_EQ(rs_->primary_index(), 2);
  EXPECT_TRUE(rs_->HasWritablePrimary());
  EXPECT_EQ(rs_->coordinator(2).last_event(), TopologyEvent::kWonElection);
  EXPECT_GE(rs_->stepdowns(), 1u);
  // Leadership is stable afterwards: no election ping-pong.
  const uint64_t settled_term = rs_->term();
  loop_.RunUntil(sim::Seconds(20));
  EXPECT_EQ(rs_->term(), settled_term);
  EXPECT_EQ(rs_->primary_index(), 2);
  // Writes land on the taker.
  bool committed = false;
  WriteDoc(999, WriteConcern::kMajority, [&](bool ok) { committed = ok; });
  loop_.RunUntil(sim::Seconds(21));
  EXPECT_TRUE(committed);
}

// ---------------------------------------------------------------------
// Layer 3: 100-seed partition-schedule property suite.
// ---------------------------------------------------------------------

class ElectionPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ElectionPropertyTest, SafetyAndBoundedUnavailability) {
  const uint64_t seed = GetParam();
  sim::EventLoop loop;
  sim::Rng rng(seed);
  net::Network network(&loop, rng.Fork());
  ReplicaSetParams params;
  params.election_timeout = sim::Seconds(2);
  server::ServerParams server_params;
  std::vector<net::HostId> hosts;
  for (int i = 0; i < 3; ++i) {
    hosts.push_back(network.AddHost("n" + std::to_string(i)));
  }
  ReplicaSet rs(&loop, rng.Fork(), &network, params, server_params, hosts);
  rs.Start();

  // Background writes throughout the run (acks don't matter here; they
  // create the divergence/rollback/resync traffic elections must survive).
  for (int64_t i = 0; i < 400; ++i) {
    loop.ScheduleAt(sim::Millis(50) * i, [&rs, i] {
      rs.CommitWrite(
          rs.primary_index(), server::OpClass::kInsert,
          [i](TxnContext* ctx) {
            ctx->Insert("t", doc::Value::Doc({{"_id", i}}));
          },
          WriteConcern::kW1, /*retry=*/{}, /*cost_scale=*/1.0,
          test::OnCommitted());
    });
  }

  // Seeded-random partition schedule: 3 sequential rounds, each
  // isolating one random node for a random 2.5-6 s window.
  sim::Rng chaos = rng.Fork();
  sim::Time last_heal = 0;
  for (int round = 0; round < 3; ++round) {
    const int victim = static_cast<int>(chaos.UniformInt(0, 2));
    const sim::Time start =
        sim::Seconds(2) + sim::Seconds(7) * round +
        sim::Millis(chaos.UniformInt(0, 1000));
    const sim::Time end =
        start + sim::Millis(2500) + sim::Millis(chaos.UniformInt(0, 3500));
    loop.ScheduleAt(start, [&network, &hosts, victim] {
      for (int i = 0; i < 3; ++i) {
        if (i != victim) network.BlockPair(hosts[victim], hosts[i]);
      }
    });
    loop.ScheduleAt(end, [&network, &hosts, victim] {
      for (int i = 0; i < 3; ++i) {
        if (i != victim) network.UnblockPair(hosts[victim], hosts[i]);
      }
    });
    last_heal = end;
  }

  // Safety sampler: no two alive members writable in the same term, at
  // any instant (Raft's election-safety property, observed live; the
  // per-term ledgers re-check it over the whole history below).
  uint64_t same_term_writable_violations = 0;
  std::function<void()> sample = [&] {
    for (int i = 0; i < 3; ++i) {
      if (!rs.IsAlive(i) || !rs.coordinator(i).writable()) continue;
      for (int j = i + 1; j < 3; ++j) {
        if (!rs.IsAlive(j) || !rs.coordinator(j).writable()) continue;
        if (rs.coordinator(i).term() == rs.coordinator(j).term()) {
          ++same_term_writable_violations;
        }
      }
    }
    loop.ScheduleAfter(sim::Millis(100), sample);
  };
  loop.ScheduleAfter(sim::Millis(100), sample);

  // Availability: a writable leader must re-emerge within 10 election
  // timeouts of the final heal.
  const sim::Duration unavailability_bound = 10 * params.election_timeout;
  sim::Time writable_after_heal = -1;
  std::function<void()> probe = [&] {
    if (writable_after_heal < 0 && loop.Now() >= last_heal &&
        rs.HasWritablePrimary()) {
      writable_after_heal = loop.Now();
    }
    loop.ScheduleAfter(sim::Millis(100), probe);
  };
  loop.ScheduleAfter(sim::Millis(100), probe);

  loop.RunUntil(last_heal + unavailability_bound);

  EXPECT_EQ(same_term_writable_violations, 0u) << "seed " << seed;
  for (const auto& [term, members] : rs.writable_by_term()) {
    EXPECT_LE(members.size(), 1u)
        << "term " << term << " (seed " << seed << ")";
  }
  for (const auto& [term, members] : rs.commits_by_term()) {
    EXPECT_LE(members.size(), 1u)
        << "term " << term << " (seed " << seed << ")";
  }
  ASSERT_GE(writable_after_heal, 0)
      << "no writable primary within 10 election timeouts of heal "
      << "(seed " << seed << ")";
  EXPECT_LE(writable_after_heal - last_heal, unavailability_bound)
      << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(HundredSeeds, ElectionPropertyTest,
                         ::testing::Range<uint64_t>(1, 101));

// ---------------------------------------------------------------------
// Client-facing failover: balancer reset + pool clear, via the chaos
// harness under the full Decongestant stack.
// ---------------------------------------------------------------------

TEST(ElectionChaosTest, BalancerResetsAndPoolsClearOnFailover) {
  chaos::ChaosOptions options;
  options.seed = 7;
  options.duration = sim::Seconds(180);
  options.repl.election_timeout = sim::Seconds(3);
  std::string error;
  // Crash the seed primary mid-run; restart it later as a secondary.
  ASSERT_TRUE(fault::ParseFaultSpec("crash@60:node=0;restart@110:node=0",
                                    &options.schedule, &error))
      << error;
  const char* artifacts = std::getenv("DCG_ELECTION_ARTIFACTS");
  if (artifacts != nullptr) {
    options.decisions_csv_path =
        std::string(artifacts) + "/election_chaos_decisions.csv";
  }
  const chaos::ChaosReport report = chaos::RunChaos(options);
  EXPECT_TRUE(report.ok()) << report.ViolationText();
  // The election happened and the client stack noticed it.
  EXPECT_GE(report.elections, 1u);
  EXPECT_GE(report.balancer_primary_swaps, 1u)
      << "balancer never reset on the primary swap";
  EXPECT_GE(report.stepdown_pool_clears, 1u)
      << "driver never cleared the deposed primary's pool";
  // kPoolClear-on-stepdown must leave no stale handouts (also enforced
  // as harness invariant 6, listed here as the satellite's headline).
  EXPECT_NE(report.trace.find("clears="), std::string::npos);
}

TEST(ElectionChaosTest, RaftChaosRunsAreDeterministic) {
  chaos::ChaosOptions options;
  options.seed = 11;
  options.duration = sim::Seconds(120);
  std::string error;
  ASSERT_TRUE(fault::ParseFaultSpec("crash@50:node=0;restart@90:node=0",
                                    &options.schedule, &error))
      << error;
  const chaos::ChaosReport first = chaos::RunChaos(options);
  const chaos::ChaosReport second = chaos::RunChaos(options);
  EXPECT_TRUE(first.ok()) << first.ViolationText();
  EXPECT_EQ(first.trace, second.trace)
      << "raft elections must be deterministic per seed";
}

}  // namespace
}  // namespace dcg::repl
