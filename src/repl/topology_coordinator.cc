#include "repl/topology_coordinator.h"

#include <algorithm>

#include "util/check.h"

namespace dcg::repl {

std::string_view ToString(MemberRole role) {
  switch (role) {
    case MemberRole::kSecondary:
      return "secondary";
    case MemberRole::kCandidate:
      return "candidate";
    case MemberRole::kPrimary:
      return "primary";
  }
  return "unknown";
}

std::string_view ToString(TopologyEvent event) {
  switch (event) {
    case TopologyEvent::kNone:
      return "none";
    case TopologyEvent::kElectionTimeout:
      return "election_timeout";
    case TopologyEvent::kPriorityTakeover:
      return "priority_takeover";
    case TopologyEvent::kStepDownHigherTerm:
      return "stepdown_higher_term";
    case TopologyEvent::kStepDownNoMajority:
      return "stepdown_no_majority";
    case TopologyEvent::kWonElection:
      return "won_election";
  }
  return "unknown";
}

TopologyCoordinator::TopologyCoordinator(int self, TopologyConfig config,
                                         sim::Rng rng, int initial_leader,
                                         sim::Time now)
    : self_(self), config_(std::move(config)), rng_(std::move(rng)) {
  DCG_CHECK(config_.node_count >= 2);
  DCG_CHECK(self_ >= 0 && self_ < config_.node_count);
  campaign_votes_.assign(static_cast<size_t>(config_.node_count), false);
  peer_heard_.assign(static_cast<size_t>(config_.node_count), -1);
  peer_last_applied_.assign(static_cast<size_t>(config_.node_count), OpTime{});
  leader_ = initial_leader;
  if (initial_leader == self_) {
    // The seed primary starts already stepped up (term 1, writable) —
    // exactly the steady state the legacy model begins in.
    role_ = MemberRole::kPrimary;
    writable_ = true;
  }
  ResetElectionDeadline(now);
}

double TopologyCoordinator::PriorityOf(int node) const {
  if (node < 0 ||
      node >= static_cast<int>(config_.priorities.size())) {
    return 1.0;
  }
  return config_.priorities[static_cast<size_t>(node)];
}

void TopologyCoordinator::ResetElectionDeadline(sim::Time now) {
  const auto jitter_max = static_cast<sim::Duration>(
      kElectionJitterFraction * static_cast<double>(config_.election_timeout));
  const sim::Duration jitter =
      jitter_max > 0 ? rng_.UniformInt(0, jitter_max) : 0;
  election_deadline_ = now + config_.election_timeout + jitter;
}

void TopologyCoordinator::StepDown(TopologyEvent why, sim::Time now) {
  if (role_ == MemberRole::kPrimary) ++stepdowns_;
  role_ = MemberRole::kSecondary;
  writable_ = false;
  AbandonCampaign();
  last_event_ = why;
  ResetElectionDeadline(now);
}

void TopologyCoordinator::AbandonCampaign() {
  campaigning_ = false;
  std::fill(campaign_votes_.begin(), campaign_votes_.end(), false);
}

int TopologyCoordinator::VotesReceived() const {
  return static_cast<int>(std::count(campaign_votes_.begin(),
                                     campaign_votes_.end(), true));
}

TopologyAction TopologyCoordinator::OnElectionTimeout(sim::Time now) {
  TopologyAction action;
  if (now < election_deadline_) return action;  // re-armed since scheduling
  if (role_ == MemberRole::kPrimary) {
    // A primary partitioned from the majority cannot still be the
    // cluster's leader; stepping down bounds how long it keeps believing
    // (and telling clients) otherwise.
    int heard = 1;  // self
    for (int i = 0; i < config_.node_count; ++i) {
      if (i == self_ || peer_heard_[static_cast<size_t>(i)] < 0) continue;
      if (now - peer_heard_[static_cast<size_t>(i)] <=
          config_.election_timeout) {
        ++heard;
      }
    }
    if (heard < Majority()) {
      StepDown(TopologyEvent::kStepDownNoMajority, now);
      action.stepped_down = true;
      action.event = TopologyEvent::kStepDownNoMajority;
      return action;
    }
    ResetElectionDeadline(now);
    return action;
  }
  // Priority-0 members never campaign; their timer just keeps watch.
  if (PriorityOf(self_) <= 0.0) {
    ResetElectionDeadline(now);
    return action;
  }
  // Follower (or a candidate whose campaign stalled — split vote, lost
  // requests): open a dry-run round for term + 1. Terms are only
  // disturbed if a majority finds this member electable.
  role_ = MemberRole::kSecondary;
  AbandonCampaign();
  campaigning_ = true;
  campaign_dry_run_ = true;
  campaign_term_ = term_ + 1;
  campaign_votes_[static_cast<size_t>(self_)] = true;
  ++dry_runs_started_;
  last_event_ = TopologyEvent::kElectionTimeout;
  ResetElectionDeadline(now);  // fresh jitter paces the retry
  action.start_dry_run = true;
  action.event = TopologyEvent::kElectionTimeout;
  return action;
}

TopologyAction TopologyCoordinator::OnHeartbeat(const HeartbeatView& hb,
                                                const OpTime& my_last_applied,
                                                sim::Time now) {
  (void)my_last_applied;
  TopologyAction action;
  if (hb.from < 0 || hb.from >= config_.node_count || hb.from == self_) {
    return action;
  }
  peer_heard_[static_cast<size_t>(hb.from)] = now;
  OpTime& known = peer_last_applied_[static_cast<size_t>(hb.from)];
  if (known < hb.last_applied) known = hb.last_applied;

  if (hb.term > term_) {
    term_ = hb.term;
    leader_ = -1;
    const bool was_leaderish = role_ != MemberRole::kSecondary;
    StepDown(TopologyEvent::kStepDownHigherTerm, now);
    if (was_leaderish) {
      action.stepped_down = true;
      action.event = TopologyEvent::kStepDownHigherTerm;
    }
  }
  if (hb.leader == hb.from && hb.term >= term_ && hb.from != self_) {
    // Direct contact from a live leader: adopt it and defer elections.
    leader_ = hb.from;
    leader_last_applied_ = hb.last_applied;
    if (role_ == MemberRole::kCandidate) {
      StepDown(TopologyEvent::kNone, now);
      action.stepped_down = true;
    }
    if (role_ == MemberRole::kSecondary) {
      AbandonCampaign();
      ResetElectionDeadline(now);
      if (!takeover_pending_ && PriorityOf(self_) > PriorityOf(hb.from)) {
        // A higher-priority member should lead. Wait a beat (the leader
        // may be about to yield anyway), then take over for real.
        takeover_pending_ = true;
        action.takeover_at = now + kPriorityTakeoverDelay;
      }
    }
  }
  return action;
}

VoteResponse TopologyCoordinator::OnVoteRequest(const VoteRequest& req,
                                                const OpTime& my_last_applied,
                                                sim::Time now) {
  VoteResponse resp;
  resp.voter = self_;
  resp.candidate = req.candidate;
  resp.term = req.term;
  resp.dry_run = req.dry_run;
  resp.voter_term = term_;
  if (req.term < term_) {
    resp.reason = "stale term";
    return resp;
  }
  if (!req.dry_run && req.term > term_) {
    // Real vote traffic carries durable terms: adopt it, demoting any
    // leader/candidate role held under the older term.
    term_ = req.term;
    leader_ = -1;
    StepDown(TopologyEvent::kStepDownHigherTerm, now);
    resp.voter_term = term_;
  }
  if (req.last_applied.seq < my_last_applied.seq) {
    // Freshness rule: electing this candidate would roll back entries
    // this voter already holds.
    resp.reason = "candidate oplog older than voter's";
    return resp;
  }
  if (req.dry_run) {
    if (leader_ >= 0 && leader_ != req.candidate &&
        peer_heard_[static_cast<size_t>(leader_)] >= 0 &&
        now - peer_heard_[static_cast<size_t>(leader_)] <=
            config_.election_timeout) {
      // Pre-vote liveness check: don't help disrupt a healthy leader.
      resp.reason = "leader is healthy";
      return resp;
    }
    resp.granted = true;
    resp.reason = "dry-run ok";
    return resp;
  }
  if (voted_term_ == req.term && voted_for_ >= 0 &&
      voted_for_ != req.candidate) {
    resp.reason = "already voted this term";
    return resp;
  }
  voted_term_ = req.term;
  voted_for_ = req.candidate;
  leader_ = -1;  // whoever wins this term will announce itself
  // Granting a real vote defers this member's own candidacy (Raft).
  ResetElectionDeadline(now);
  resp.granted = true;
  resp.reason = "vote granted";
  return resp;
}

TopologyAction TopologyCoordinator::StartRealElection(TopologyEvent why,
                                                      sim::Time now) {
  TopologyAction action;
  role_ = MemberRole::kCandidate;
  campaigning_ = true;
  campaign_dry_run_ = false;
  term_ = campaign_term_;
  voted_term_ = campaign_term_;
  voted_for_ = self_;
  leader_ = -1;
  std::fill(campaign_votes_.begin(), campaign_votes_.end(), false);
  campaign_votes_[static_cast<size_t>(self_)] = true;
  ++elections_started_;
  last_event_ = why;
  ResetElectionDeadline(now);
  action.start_election = true;
  action.event = why;
  return action;
}

TopologyAction TopologyCoordinator::OnVoteResponse(const VoteResponse& resp,
                                                   sim::Time now) {
  TopologyAction action;
  if (resp.voter_term > term_) {
    // A denial from the future: someone is already past this campaign.
    term_ = resp.voter_term;
    leader_ = -1;
    const bool was_leaderish = role_ != MemberRole::kSecondary;
    StepDown(TopologyEvent::kStepDownHigherTerm, now);
    if (was_leaderish) {
      action.stepped_down = true;
      action.event = TopologyEvent::kStepDownHigherTerm;
    }
    return action;
  }
  if (!campaigning_ || resp.candidate != self_ ||
      resp.term != campaign_term_ || resp.dry_run != campaign_dry_run_) {
    return action;  // stray response from a superseded round
  }
  if (resp.voter >= 0 && resp.voter < config_.node_count) {
    peer_heard_[static_cast<size_t>(resp.voter)] = now;
  }
  if (!resp.granted) return action;
  campaign_votes_[static_cast<size_t>(resp.voter)] = true;
  if (VotesReceived() < Majority()) return action;
  if (campaign_dry_run_) {
    // A majority finds us electable: now run the real, term-bumping
    // election for the proposed term.
    return StartRealElection(TopologyEvent::kElectionTimeout, now);
  }
  // Real majority: this member is the primary of campaign_term_. It
  // stays non-writable until the data-plane catch-up completes.
  campaigning_ = false;
  role_ = MemberRole::kPrimary;
  writable_ = false;
  leader_ = self_;
  last_event_ = TopologyEvent::kWonElection;
  ResetElectionDeadline(now);
  action.won_election = true;
  action.event = TopologyEvent::kWonElection;
  return action;
}

TopologyAction TopologyCoordinator::OnPriorityTakeoverCheck(
    const OpTime& my_last_applied, sim::Time now) {
  TopologyAction action;
  takeover_pending_ = false;
  if (role_ != MemberRole::kSecondary || campaigning_) return action;
  if (leader_ < 0 || leader_ == self_) return action;
  if (PriorityOf(self_) <= PriorityOf(leader_)) return action;
  const bool caught_up =
      my_last_applied.seq >= leader_last_applied_.seq ||
      leader_last_applied_.wall - my_last_applied.wall <=
          config_.priority_takeover_gap;
  if (!caught_up) return action;  // the next leader heartbeat re-arms
  // Takeover elections skip the dry run: the point is to displace a
  // live, healthy leader, which pre-vote liveness would veto.
  campaign_term_ = term_ + 1;
  return StartRealElection(TopologyEvent::kPriorityTakeover, now);
}

void TopologyCoordinator::CompleteStepUp(sim::Time now) {
  DCG_CHECK(role_ == MemberRole::kPrimary);
  writable_ = true;
  leader_ = self_;
  ResetElectionDeadline(now);
}

void TopologyCoordinator::Rejoin(sim::Time now) {
  role_ = MemberRole::kSecondary;
  writable_ = false;
  leader_ = -1;
  takeover_pending_ = false;
  AbandonCampaign();
  std::fill(peer_heard_.begin(), peer_heard_.end(), -1);
  ResetElectionDeadline(now);
}

VoteRequest TopologyCoordinator::CampaignRequest(
    const OpTime& my_last_applied) const {
  DCG_CHECK(campaigning_);
  VoteRequest req;
  req.candidate = self_;
  req.term = campaign_term_;
  req.dry_run = campaign_dry_run_;
  req.last_applied = my_last_applied;
  return req;
}

uint64_t TopologyCoordinator::FreshestPeerSeq(sim::Time now,
                                              sim::Duration window) const {
  uint64_t best = 0;
  for (int i = 0; i < config_.node_count; ++i) {
    if (i == self_) continue;
    const sim::Time heard = peer_heard_[static_cast<size_t>(i)];
    if (heard < 0 || now - heard > window) continue;
    best = std::max(best, peer_last_applied_[static_cast<size_t>(i)].seq);
  }
  return best;
}

}  // namespace dcg::repl
