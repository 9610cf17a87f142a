// Deterministic chaos tests: scripted and seeded-random fault schedules
// run against the full Decongestant stack, with the freshness / reaction /
// recovery / drain invariants checked by tests/chaos_harness.h.

#include <functional>

#include <gtest/gtest.h>

#include "chaos_harness.h"
#include "driver/session.h"

namespace dcg {
namespace {

using chaos::ChaosOptions;
using chaos::ChaosReport;
using chaos::RunChaos;
using fault::FaultEvent;
using fault::FaultSchedule;
using fault::FaultType;

FaultEvent Event(FaultType type, double start_s, double end_s,
                 std::vector<int> nodes) {
  FaultEvent event;
  event.type = type;
  event.start = sim::Seconds(start_s);
  event.end = end_s < 0 ? -1 : sim::Seconds(end_s);
  event.nodes = std::move(nodes);
  return event;
}

// Schedule 1 — the headline scenario: both secondaries partitioned away
// from the primary for 60 s. Their data freezes while the primary keeps
// committing, so true staleness climbs 1 s/s past StaleBound; the
// balancer must zero the fraction within one control period, never serve
// a read staler than bound + grace, and rebalance after the heal.
TEST(ChaosTest, FullSecondaryPartitionForcesFractionToZero) {
  ChaosOptions options;
  options.seed = 1001;
  options.schedule.Add(
      Event(FaultType::kPartition, 80, 140, {1, 2}));
  options.expect_zero_within_period = true;
  const ChaosReport report = RunChaos(options);
  EXPECT_TRUE(report.ok()) << report.ViolationText();
  EXPECT_GT(report.secondary_reads, 0u);
  // The partition really happened: the watchdog restarted pull chains.
  EXPECT_GT(report.pull_restarts, 0u);
}

// Schedule 2 — crash the primary mid-run, let the survivors elect, then
// restart the old primary (it rejoins via initial sync). Reads must keep
// flowing and the cluster must fully converge after the drill.
TEST(ChaosTest, PrimaryCrashElectionAndRejoin) {
  ChaosOptions options;
  options.seed = 1002;
  options.schedule.Add(Event(FaultType::kCrash, 80, -1, {0}))
      .Add(Event(FaultType::kRestart, 140, -1, {0}));
  const ChaosReport report = RunChaos(options);
  EXPECT_TRUE(report.ok()) << report.ViolationText();
  EXPECT_EQ(report.elections, 1u);
  EXPECT_GT(report.secondary_reads, 0u);
}

// Schedule 2b — whole-cluster outages: every member goes down (all at
// once, or the secondaries first and the then-lone primary 5 s later),
// and the scheduled restart has no primary to initial-sync from, so the
// injector skips it. A cluster with no
// electable majority is unavailable, not a crash: the run must reach its
// horizon, no election may complete while a minority is alive (harness
// invariant 9), and the per-term ledgers must hold. Deadlined ops fail
// instead of hanging, so the drain invariants still apply.
class WholeClusterOutageTest : public ::testing::TestWithParam<const char*> {};

TEST_P(WholeClusterOutageTest, RunFinishesWithoutElecting) {
  ChaosOptions options;
  options.seed = 1008;
  options.duration = sim::Seconds(90);
  options.clients = 10;
  options.expect_recovery = false;
  options.client_options.default_op_deadline = sim::Seconds(5);
  std::string error;
  ASSERT_TRUE(fault::ParseFaultSpec(GetParam(), &options.schedule, &error))
      << error;
  const ChaosReport report = RunChaos(options);
  EXPECT_TRUE(report.ok()) << report.ViolationText();
  EXPECT_GE(report.ended_at, options.duration);
  EXPECT_NE(report.trace.find("skip restart"), std::string::npos)
      << report.trace;
  EXPECT_EQ(report.elections, 0u);
  EXPECT_GT(report.ops_timed_out, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Schedules, WholeClusterOutageTest,
    ::testing::Values("crash@50:nodes=0+1+2;restart@60:nodes=0",
                      "crash@50:nodes=1+2;crash@55:nodes=0;"
                      "restart@60:nodes=1"));

// Schedule 3 — replication-apply throttle: the network is perfect but one
// secondary's apply thread runs 40x slow, so it lags past StaleBound.
// The estimate (max over secondaries) must gate the fraction to 0, and
// the node must catch back up after the heal.
TEST(ChaosTest, ApplyThrottleLagGatesAndRecovers) {
  ChaosOptions options;
  options.seed = 1003;
  {
    FaultEvent event = Event(FaultType::kApplyThrottle, 80, 150, {1, 2});
    event.value = 40.0;
    options.schedule.Add(event);
  }
  const ChaosReport report = RunChaos(options);
  EXPECT_TRUE(report.ok()) << report.ViolationText();
  EXPECT_GT(report.worst_secondary_staleness, 0);
}

// Schedule 4 — latency spike on every link of the primary (client links
// included): replication and routing slow down but nothing is lost. The
// balancer's RTT handling must cope; all invariants hold.
TEST(ChaosTest, PrimaryLatencySpike) {
  ChaosOptions options;
  options.seed = 1004;
  {
    FaultEvent event = Event(FaultType::kLatencySpike, 80, 150, {0});
    event.value = 3.0;
    event.delay = sim::Millis(10);
    options.schedule.Add(event);
  }
  const ChaosReport report = RunChaos(options);
  EXPECT_TRUE(report.ok()) << report.ViolationText();
  EXPECT_GT(report.secondary_reads, 0u);
}

// Schedule 5 — asymmetric packet loss into one secondary: getMore
// batches and heartbeats are dropped at 30%, exercising the pull-chain
// watchdog. Freshness must hold (lost heartbeats only make the estimate
// more conservative).
TEST(ChaosTest, AsymmetricPacketLossExercisesWatchdog) {
  ChaosOptions options;
  options.seed = 1005;
  {
    FaultEvent event = Event(FaultType::kPacketLoss, 80, 150, {1});
    event.value = 0.30;
    event.inbound_only = true;
    options.schedule.Add(event);
  }
  const ChaosReport report = RunChaos(options);
  EXPECT_TRUE(report.ok()) << report.ViolationText();
  EXPECT_GT(report.pull_restarts, 0u);
}

// Schedule 6 — the client itself is partitioned from one secondary for
// 60 s (frontend VLAN cut). Ops in flight toward that node are silently
// lost; they must complete anyway — via the command layer's attempt
// failover onto the other secondary — with zero timed-out ops, because
// no deadline was set and retries are unlimited.
TEST(ChaosTest, ClientPartitionDuringReadsRetriesOnAnotherNode) {
  ChaosOptions options;
  options.seed = 1006;
  {
    FaultEvent event = Event(FaultType::kPartition, 80, 140, {1});
    event.include_client = true;
    options.schedule.Add(event);
  }
  const ChaosReport report = RunChaos(options);
  EXPECT_TRUE(report.ok()) << report.ViolationText();
  EXPECT_GT(report.secondary_reads, 0u);
  // The partition stranded in-flight commands: the only way those ops
  // completed is the retry path onto a different node.
  EXPECT_GT(report.ops_retried, 0u);
  EXPECT_EQ(report.ops_timed_out, 0u);
}

// Schedule 7 — deadlined ops under near-total client-link loss: with
// maxTimeMS set, an op whose commands keep vanishing must fail within
// its deadline plus (at most) one control period — never hang, never
// fail late.
TEST(ChaosTest, DeadlinedOpsFailWithinDeadlinePlusOnePeriod) {
  exp::ExperimentConfig config;
  config.seed = 2001;
  config.system = exp::SystemType::kDecongestant;
  config.kind = exp::WorkloadKind::kYcsb;
  config.phases = {{0, 12, 0.95}};
  config.duration = sim::Seconds(160);
  config.warmup = sim::Seconds(20);
  config.run_s_workload = false;
  config.client_options.default_op_deadline = sim::Seconds(2);
  config.client_options.attempt_timeout = sim::Millis(400);
  exp::Experiment experiment(config);

  // Drop 97% of everything between the client host and every node for
  // 40 s mid-run, both directions — commands and replies vanish alike.
  auto& loop = experiment.loop();
  auto& network = experiment.network();
  auto& rs = experiment.replica_set();
  const net::HostId client_host = experiment.client().client_host();
  loop.ScheduleAt(sim::Seconds(60), [&] {
    net::Network::LinkFault fault;
    fault.drop_probability = 0.97;
    for (int i = 0; i < rs.node_count(); ++i) {
      network.SetLinkFault(client_host, rs.node(i).host(), fault);
      network.SetLinkFault(rs.node(i).host(), client_host, fault);
    }
  });
  loop.ScheduleAt(sim::Seconds(100), [&] {
    for (int i = 0; i < rs.node_count(); ++i) {
      network.ClearLinkFault(client_host, rs.node(i).host());
      network.ClearLinkFault(rs.node(i).host(), client_host);
    }
  });

  uint64_t failed = 0;
  sim::Duration worst_failure_latency = 0;
  experiment.SetOpObserver([&](const workload::OpOutcome& outcome) {
    if (outcome.ok) return;
    ++failed;
    EXPECT_TRUE(outcome.timed_out);  // the only failure mode configured
    worst_failure_latency = std::max(worst_failure_latency, outcome.latency);
  });
  experiment.Run();

  EXPECT_GT(failed, 0u);  // the loss window really bit
  EXPECT_LE(worst_failure_latency,
            config.client_options.default_op_deadline +
                config.balancer.period);
  // And the cluster recovered: the final period completed ops again.
  ASSERT_FALSE(experiment.rows().empty());
  // Every completed op counts as exactly one read or one write.
  EXPECT_GT(experiment.rows().back().reads + experiment.rows().back().writes,
            0u);
}

// Schedule 8 — causal sessions under a lossy link: retried session reads
// must never violate the afterClusterTime token. Every read-your-own-
// write must hold even when the read's first attempt was dropped and the
// retry landed on a different secondary.
TEST(ChaosTest, RetriesNeverViolateCausalSessionToken) {
  sim::EventLoop loop;
  net::Network network(&loop, sim::Rng(1));
  const net::HostId client_host = network.AddHost("client");
  repl::ReplicaSetParams params;
  server::ServerParams server_params;
  server_params.service.sigma = 0.0;
  std::vector<net::HostId> hosts;
  for (int i = 0; i < 3; ++i) {
    hosts.push_back(network.AddHost("n" + std::to_string(i)));
    network.SetLink(client_host, hosts[i], sim::Millis(1), 0);
  }
  repl::ReplicaSet rs(&loop, sim::Rng(2), &network, params, server_params,
                      hosts);
  driver::ClientOptions options;
  options.attempt_timeout = sim::Millis(300);
  options.retry_backoff_base = sim::Millis(1);
  driver::MongoClient client(&loop, sim::Rng(3), rs.command_bus(),
                             client_host, options);
  rs.Start();

  // 50% loss on both secondary links (both directions) for most of the
  // run: session reads keep being dropped mid-flight and retried.
  loop.ScheduleAt(sim::Seconds(2), [&] {
    net::Network::LinkFault fault;
    fault.drop_probability = 0.5;
    for (int i = 1; i < 3; ++i) {
      network.SetLinkFault(client_host, hosts[i], fault);
      network.SetLinkFault(hosts[i], client_host, fault);
    }
  });
  loop.ScheduleAt(sim::Seconds(40), [&] {
    for (int i = 1; i < 3; ++i) {
      network.ClearLinkFault(client_host, hosts[i]);
      network.ClearLinkFault(hosts[i], client_host);
    }
  });

  driver::CausalSession session(&client);
  int cycles_done = 0, saw_own_write = 0;
  std::function<void(int)> cycle = [&](int i) {
    if (i == 60) return;
    session.Write(
        server::OpClass::kInsert,
        [i](repl::TxnContext* ctx) {
          ctx->Insert("t", doc::Value::Doc({{"_id", i}}));
        },
        [&, i](const driver::OpResult& w) {
          ASSERT_TRUE(w.committed);
          auto hit = std::make_shared<bool>(false);
          session.Read(
              driver::ReadPreference::kSecondary,
              server::OpClass::kPointRead,
              [i, hit](const store::Database& db) {
                const store::Collection* t = db.Get("t");
                *hit = t != nullptr &&
                       t->FindById(doc::Value(i)) != nullptr;
              },
              [&, hit, i](const driver::OpResult& r) {
                ASSERT_TRUE(r.ok);
                EXPECT_TRUE(r.used_secondary);
                ++cycles_done;
                if (*hit) ++saw_own_write;
                cycle(i + 1);
              });
        });
  };
  cycle(0);
  loop.RunUntil(sim::Seconds(120));
  EXPECT_EQ(cycles_done, 60);
  // The causal token held on every cycle — including the retried ones.
  EXPECT_EQ(saw_own_write, 60);
  EXPECT_GT(client.op_counters().retries_total, 0u);
}

// Client-side faults must not break same-seed bit-identical traces: the
// retry/backoff/hedge machinery draws only from the client's own seeded
// RNG stream.
TEST(ChaosTest, ClientFaultTracesAreDeterministic) {
  ChaosOptions options;
  options.seed = 1007;
  {
    FaultEvent partition = Event(FaultType::kPartition, 80, 120, {1});
    partition.include_client = true;
    options.schedule.Add(partition);
  }
  {
    FaultEvent loss = Event(FaultType::kPacketLoss, 90, 130, {2});
    loss.value = 0.4;
    loss.include_client = true;
    options.schedule.Add(loss);
  }
  const ChaosReport first = RunChaos(options);
  const ChaosReport second = RunChaos(options);
  EXPECT_TRUE(first.ok()) << first.ViolationText();
  EXPECT_GT(first.ops_retried, 0u);
  ASSERT_FALSE(first.trace.empty());
  EXPECT_EQ(first.trace, second.trace);
}

// Schedule 9 — combined seeded-random timelines: a handful of mixed
// faults (latency, loss, partition, throttle, negative skew, slowdown,
// plus a crash/restart cycle) per seed. Every invariant must hold for
// every seed.
class RandomChaosTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomChaosTest, InvariantsHoldUnderRandomSchedule) {
  ChaosOptions options;
  options.seed = GetParam();
  options.schedule =
      fault::MakeRandomSchedule(GetParam(), options.duration, 3);
  ASSERT_FALSE(options.schedule.empty());
  const ChaosReport report = RunChaos(options);
  EXPECT_TRUE(report.ok()) << report.ViolationText();
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomChaosTest,
                         ::testing::Values(7u, 21u, 99u));

// Determinism: the same seed and schedule must produce a bit-identical
// trace — period rows, fault log, message counters, and database
// fingerprints all included.
TEST(ChaosTest, IdenticalSeedsProduceIdenticalTraces) {
  ChaosOptions options;
  options.seed = 77;
  options.schedule = fault::MakeRandomSchedule(77, options.duration, 3);
  const ChaosReport first = RunChaos(options);
  const ChaosReport second = RunChaos(options);
  EXPECT_TRUE(first.ok()) << first.ViolationText();
  ASSERT_FALSE(first.trace.empty());
  EXPECT_EQ(first.trace, second.trace);
}

// Schedule 10 — repeated pool_clear storms against a constrained pool
// while commands are in flight. The generation invariant (no post-clear
// command rides a pre-clear connection) and bounded drain after the last
// clear are the chaos-harness pool invariants; this schedule is designed
// to hit the clear-while-establishing and clear-while-checked-out races.
TEST(ChaosTest, PoolClearStormKeepsGenerationInvariant) {
  ChaosOptions options;
  options.seed = 1010;
  options.client_options.pool.max_pool_size = 4;
  options.client_options.pool.establish_cost = sim::Millis(2);
  options.client_options.pool.wait_queue_timeout = sim::Millis(500);
  // Clears land on every node, in bursts, including back-to-back ones.
  for (double at : {60.0, 60.5, 90.0, 120.0, 150.0, 150.1}) {
    options.schedule.Add(Event(FaultType::kPoolClear, at, -1, {0, 1, 2}));
  }
  const ChaosReport first = RunChaos(options);
  EXPECT_TRUE(first.ok()) << first.ViolationText();
  EXPECT_GT(first.secondary_reads, 0u);
  // The clears really happened and forced re-establishment.
  EXPECT_NE(first.trace.find("apply pool_clear"), std::string::npos);
  EXPECT_NE(first.trace.find("clears=18"), std::string::npos);
  // Same-seed pool chaos is bit-identical, like every other fault type.
  const ChaosReport second = RunChaos(options);
  EXPECT_EQ(first.trace, second.trace);
}

// Schedule 11 — pool clear combined with a node partition: the hello
// watchdog clears the pool again on silence, ops retry across nodes, and
// every connection must still drain cleanly after the heal.
TEST(ChaosTest, PoolClearDuringPartitionStillDrains) {
  ChaosOptions options;
  options.seed = 1011;
  options.client_options.pool.max_pool_size = 3;
  options.client_options.pool.establish_cost = sim::Millis(1);
  options.client_options.pool.wait_queue_timeout = sim::Millis(300);
  {
    FaultEvent partition = Event(FaultType::kPartition, 80, 130, {1});
    partition.include_client = true;
    options.schedule.Add(partition);
  }
  options.schedule.Add(Event(FaultType::kPoolClear, 100, -1, {0, 2}));
  const ChaosReport report = RunChaos(options);
  EXPECT_TRUE(report.ok()) << report.ViolationText();
  EXPECT_GT(report.ops_retried, 0u);
}

// Schedule 12 — command batching under a partition plus pool-clear storm:
// envelopes in flight lose their shared connection, buffered riders see
// their node partitioned away, and the watchdog clears pools under them.
// Invariant 10 (no op silently dropped from a buffered envelope) plus the
// drain invariants must hold, and the run must be genuinely batched.
TEST(ChaosTest, BatchedEnvelopesSurvivePartitionAndPoolClears) {
  ChaosOptions options;
  options.seed = 1012;
  options.client_options.batching_enabled = true;
  options.client_options.batch_max_ops = 8;
  options.client_options.batch_max_delay = sim::Micros(200);
  options.client_options.pool.max_pool_size = 3;
  options.client_options.pool.establish_cost = sim::Millis(1);
  options.client_options.pool.wait_queue_timeout = sim::Millis(300);
  {
    FaultEvent partition = Event(FaultType::kPartition, 80, 130, {1});
    partition.include_client = true;
    options.schedule.Add(partition);
  }
  for (double at : {100.0, 100.5, 160.0}) {
    options.schedule.Add(Event(FaultType::kPoolClear, at, -1, {0, 1, 2}));
  }
  const ChaosReport first = RunChaos(options);
  EXPECT_TRUE(first.ok()) << first.ViolationText();
  // Non-vacuous: the workload really rode envelopes, and the faults
  // really forced retries through the batch path.
  EXPECT_GT(first.envelopes_sent, 0u);
  EXPECT_GT(first.ops_batched, 0u);
  EXPECT_GT(first.ops_retried, 0u);
  // Batched chaos replays bit-identically like every other schedule.
  const ChaosReport second = RunChaos(options);
  EXPECT_EQ(first.trace, second.trace);
}

// Span-tree invariant under faults: run with tracing on, hedged reads,
// tight attempt timeouts, and a mid-run latency spike on the primary so
// the trace contains retry and hedge arms — then let invariant 8 check
// that every span nests under the right parent and shares its op's trace
// id (see chaos_harness.h).
TEST(ChaosTest, TracedRunKeepsSpanTreeWellFormed) {
  ChaosOptions options;
  options.seed = 1013;
  options.duration = sim::Seconds(60);
  options.clients = 8;
  options.trace = true;
  options.client_options.hedged_reads = true;
  options.client_options.attempt_timeout = sim::Millis(400);
  {
    FaultEvent event = Event(FaultType::kLatencySpike, 25, 45, {0});
    event.value = 3.0;
    event.delay = sim::Millis(10);
    options.schedule.Add(event);
  }
  const ChaosReport report = RunChaos(options);
  EXPECT_TRUE(report.ok()) << report.ViolationText();
  EXPECT_GT(report.total_reads, 0u);
}

// Span-tree invariant on every optional attempt path at once: batched
// envelope riders, hedge arms, a constrained pool whose checkouts queue and
// time out, and pool clears under lossy client traffic. Invariant 8 then
// covers the envelope spans and the queued checkout spans the unbatched,
// unconstrained traced run above never records.
TEST(ChaosTest, TracedBatchedHedgedConstrainedPoolRunKeepsSpanTree) {
  ChaosOptions options;
  options.seed = 1014;
  options.duration = sim::Seconds(60);
  options.clients = 8;
  options.trace = true;
  options.client_options.hedged_reads = true;
  options.client_options.attempt_timeout = sim::Millis(400);
  options.client_options.batching_enabled = true;
  options.client_options.batch_max_ops = 8;
  options.client_options.pool.max_pool_size = 2;
  options.client_options.pool.establish_cost = sim::Millis(1);
  options.client_options.pool.wait_queue_timeout = sim::Millis(20);
  {
    FaultEvent loss = Event(FaultType::kPacketLoss, 20, 40, {1});
    loss.value = 0.3;
    loss.include_client = true;
    options.schedule.Add(loss);
  }
  for (double at : {30.0, 45.0}) {
    options.schedule.Add(Event(FaultType::kPoolClear, at, -1, {0, 1, 2}));
  }
  const ChaosReport report = RunChaos(options);
  EXPECT_TRUE(report.ok()) << report.ViolationText();
  // Non-vacuous: every path the invariant is meant to cover ran.
  EXPECT_GT(report.envelopes_sent, 0u);
  EXPECT_GT(report.hedges_sent, 0u);
  EXPECT_GT(report.checkout_timeouts, 0u);
  EXPECT_GT(report.ops_retried, 0u);
  EXPECT_GT(report.envelope_spans, 0u);
  EXPECT_GT(report.queued_checkout_spans, 0u);
}

// Alert conformance, firing side: rerun the headline secondary-partition
// staleness schedule with a freshness SLO attached. Replication freezes
// at t=80 s while the primary keeps committing, so served ages climb
// 1 s/s; the window between ages crossing the SLO bound and the safety
// gate zeroing the fraction is exactly when secondaries serve over-bound
// reads — the page alert must fire within two evaluation windows of the
// first such read, and must resolve once the symptom stops (gate closed,
// cluster healed).
TEST(ChaosTest, FreshnessPageFiresUnderStalenessFaultAndResolves) {
  ChaosOptions options;
  options.seed = 1001;
  options.schedule.Add(Event(FaultType::kPartition, 80, 140, {1, 2}));
  options.expect_zero_within_period = true;
  // The SLO bound (2 s) sits well inside the safety valve (StaleBound
  // 10 s): the balancer's conservative estimate closes the gate before
  // truth crosses 10 s, but ages in (2 s, gate-close) are served for
  // several seconds — the alertable symptom. One-period (10 s) windows
  // give the burn signal bucket granularity: the transition bucket is
  // mostly bad against a 1% budget, far over the page rate of 5.
  options.slo_spec =
      "freshness:bound=2:objective=0.99:page=5:ticket=0:window=10:short=10:"
      "resolve=20";
  const ChaosReport report = RunChaos(options);
  EXPECT_TRUE(report.ok()) << report.ViolationText();
  ASSERT_GE(report.first_overbound_read, 0) << "schedule too weak";
  ASSERT_GE(report.first_page_fire, 0)
      << "freshness page never fired under a staleness fault";
  // Two evaluation windows (2 x 10 s), plus the partial period the first
  // over-bound read lands in.
  EXPECT_LE(report.first_page_fire,
            report.first_overbound_read + sim::Seconds(30));
  EXPECT_GE(report.last_page_resolve, report.first_page_fire)
      << "freshness page never resolved after recovery";
  EXPECT_EQ(report.slo_tickets_fired, 0u);  // ticket severity disabled
}

// Alert conformance, quiet side: the same SLO on a fault-free run must
// never leave inactive — a healthy run fires zero alerts of any severity.
TEST(ChaosTest, FaultFreeRunFiresNoAlerts) {
  ChaosOptions options;
  options.seed = 1003;
  options.slo_spec = "freshness;success";
  const ChaosReport report = RunChaos(options);
  EXPECT_TRUE(report.ok()) << report.ViolationText();
  EXPECT_GT(report.secondary_reads, 0u);
  EXPECT_EQ(report.slo_event_count, 0u) << report.trace;
}

// SLO-enabled runs stay deterministic: identical seeds and specs produce
// identical traces, including the alert-event lines.
TEST(ChaosTest, SloTracesAreDeterministic) {
  auto make = [] {
    ChaosOptions options;
    options.seed = 1001;
    options.schedule.Add(Event(FaultType::kPartition, 80, 140, {1, 2}));
    options.slo_spec = "freshness:bound=2:window=10:short=10";
    return options;
  };
  const ChaosReport a = RunChaos(make());
  const ChaosReport b = RunChaos(make());
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_NE(a.trace.find("slo t="), std::string::npos)
      << "default bundle produced no alert lines under a staleness fault";
}

// Different seeds must not produce the same trace (the trace actually
// carries run-specific content).
TEST(ChaosTest, DifferentSeedsDiverge) {
  ChaosOptions a;
  a.seed = 5;
  ChaosOptions b;
  b.seed = 6;
  EXPECT_NE(RunChaos(a).trace, RunChaos(b).trace);
}

}  // namespace
}  // namespace dcg
