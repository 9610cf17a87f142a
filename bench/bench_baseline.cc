// Perf-baseline runner for the simulation substrate.
//
// Runs a fixed set of deterministic workloads over the hot components
// (event loop, B+-tree, filter matcher, update applier, collection query
// paths, and one full simulated second of a loaded cluster) and reports
// items/sec for each. Two modes:
//
//   bench_baseline --out BENCH_core.json        # record a baseline
//   bench_baseline --compare BENCH_core.json    # re-run and fail (exit 1)
//                                               # on regression beyond the
//                                               # noise threshold
//
// The committed BENCH_core.json is the repo's perf trajectory: CI re-runs
// this binary and compares against it, so a change that slows the
// substrate down beyond --threshold (a *ratio*, e.g. 0.5 = "half as fast")
// fails the build. Thresholds are deliberately loose because absolute
// numbers move between machines; the gate catches collapses, not noise.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "doc/filter.h"
#include "doc/update.h"
#include "doc/value.h"
#include "driver/client.h"
#include "driver/pool/connection_pool.h"
#include "exp/experiment.h"
#include "net/network.h"
#include "obs/slo.h"
#include "obs/trace.h"
#include "repl/replica_set.h"
#include "sim/event_loop.h"
#include "sim/random.h"
#include "store/btree.h"
#include "store/collection.h"

namespace dcg {
namespace {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct BenchResult {
  std::string name;
  double items_per_sec = 0;
  uint64_t items = 0;
  double seconds = 0;
};

// Runs `body` (which returns the number of items it processed) repeatedly
// until at least `min_time` seconds of measured work have accumulated.
// One untimed call warms caches first.
template <typename Body>
BenchResult Measure(const std::string& name, double min_time, Body&& body) {
  body();  // warmup
  BenchResult r;
  r.name = name;
  const double start = NowSeconds();
  double elapsed = 0;
  do {
    r.items += body();
    elapsed = NowSeconds() - start;
  } while (elapsed < min_time);
  r.seconds = elapsed;
  r.items_per_sec = static_cast<double>(r.items) / elapsed;
  return r;
}

// --- Workload setup helpers -------------------------------------------------

store::BTree::Payload MakeDoc(int64_t i) {
  return std::make_shared<const doc::Value>(
      doc::Value::Doc({{"_id", i}, {"v", i * 3}, {"s", "payload"}}));
}

std::unique_ptr<store::Collection> MakeScoredCollection(int n) {
  auto coll = std::make_unique<store::Collection>("bench");
  sim::Rng rng(7);
  for (int i = 0; i < n; ++i) {
    coll->Insert(doc::Value::Doc({{"_id", i},
                                  {"age", rng.UniformInt(0, 99)},
                                  {"score", rng.UniformInt(0, 999999)},
                                  {"w", i % 10},
                                  {"d", (i / 10) % 10}}));
  }
  return coll;
}

// --- Benchmarks -------------------------------------------------------------

uint64_t EventLoopScheduleRun() {
  sim::EventLoop loop;
  uint64_t fired = 0;
  for (int i = 0; i < 10000; ++i) {
    loop.ScheduleAt(sim::Micros(i * 37 % 1000), [&fired] { ++fired; });
  }
  loop.RunAll();
  return fired;
}

uint64_t EventLoopChurn() {
  // Timer-heavy pattern: a window of pending timeouts that are constantly
  // cancelled and rescheduled (what heartbeats, retries and watchdogs do).
  constexpr int kWindow = 1024;
  constexpr int kCycles = 65536;
  sim::EventLoop loop;
  uint64_t fired = 0;
  std::vector<sim::EventId> ids(kWindow);
  for (int i = 0; i < kWindow; ++i) {
    ids[i] = loop.ScheduleAt(sim::Seconds(1000) + i, [&fired] { ++fired; });
  }
  for (int i = 0; i < kCycles; ++i) {
    const int slot = i % kWindow;
    loop.Cancel(ids[slot]);
    ids[slot] =
        loop.ScheduleAt(sim::Seconds(1000) + kWindow + i, [&fired] { ++fired; });
  }
  loop.RunAll();
  if (fired != kWindow) std::abort();  // accounting must survive the churn
  return kCycles;
}

uint64_t BTreeInsert10k() {
  constexpr int64_t n = 10000;
  store::BTree tree;
  for (int64_t i = 0; i < n; ++i) {
    tree.Insert(doc::Value((i * 7919) % n), MakeDoc(i));
  }
  return tree.size();
}

uint64_t BTreePointLookup(const store::BTree& tree, sim::Rng& rng, int64_t n) {
  uint64_t found = 0;
  for (int i = 0; i < 1000; ++i) {
    if (tree.Find(doc::Value(rng.UniformInt(0, n - 1))) != nullptr) ++found;
  }
  if (found != 1000) std::abort();
  return 1000;
}

// Stock-table shape: [w, i] composite keys, 2 warehouses x 4 000 items.
constexpr int64_t kCompositeWarehouses = 2;
constexpr int64_t kCompositeItems = 4000;

uint64_t BTreeCompositeLookup(const store::BTree& tree, sim::Rng& rng) {
  uint64_t found = 0;
  for (int i = 0; i < 1000; ++i) {
    const doc::Value key =
        doc::Value::List({rng.UniformInt(1, kCompositeWarehouses),
                          rng.UniformInt(1, kCompositeItems)});
    if (tree.Find(key) != nullptr) ++found;
  }
  if (found != 1000) std::abort();
  return 1000;
}

uint64_t FilterMatchNested(const doc::Filter& filter, const doc::Value& d) {
  uint64_t matched = 0;
  for (int i = 0; i < 10000; ++i) {
    if (filter.Matches(d)) ++matched;
  }
  if (matched != 10000) std::abort();
  return matched;
}

uint64_t UpdateApplyDotted(const doc::UpdateSpec& spec, doc::Value* target) {
  for (int i = 0; i < 1000; ++i) {
    if (!spec.Apply(target)) std::abort();
  }
  return 1000;
}

// A minimal client + 3-node replica set wired through the command bus,
// for measuring the per-op cost of the wire-protocol command layer
// itself (dispatch, reply routing, retry/hedge state machines). The
// client is deliberately not Start()ed: no hello/probe loops means the
// event loop drains between batches, and ops run off the seed topology.
struct CommandRig {
  sim::EventLoop loop;
  net::HostId client_host = 0;
  std::vector<net::HostId> hosts;
  std::unique_ptr<net::Network> network;
  std::unique_ptr<repl::ReplicaSet> rs;
  std::unique_ptr<driver::MongoClient> client;

  explicit CommandRig(driver::ClientOptions options,
                      sim::Duration link_jitter = 0) {
    network = std::make_unique<net::Network>(&loop, sim::Rng(11));
    client_host = network->AddHost("client");
    for (int i = 0; i < 3; ++i) {
      hosts.push_back(network->AddHost("n" + std::to_string(i)));
      network->SetLink(client_host, hosts[i], sim::Millis(1), link_jitter);
    }
    repl::ReplicaSetParams params;
    server::ServerParams server_params;
    server_params.service.sigma = 0.0;
    rs = std::make_unique<repl::ReplicaSet>(&loop, sim::Rng(12),
                                            network.get(), params,
                                            server_params, hosts);
    client = std::make_unique<driver::MongoClient>(
        &loop, sim::Rng(13), rs->command_bus(), client_host, options);
  }

  // One closed loop of `n` point reads; returns after the loop drains.
  uint64_t RunReads(int n, driver::ReadPreference pref) {
    return RunReadsConcurrent(n, 1, pref);
  }

  // `n` point reads with up to `fanout` outstanding at once — `fanout`
  // closed loops sharing one client, so a size-capped connection pool
  // sees sustained checkout contention.
  uint64_t RunReadsConcurrent(int n, int fanout, driver::ReadPreference pref) {
    int issued = 0, completed = 0;
    std::function<void()> issue = [&] {
      if (issued == n) return;
      ++issued;
      client->Read(pref, server::OpClass::kPointRead,
                   [](const store::Database&) {},
                   [&](const driver::OpResult& r) {
                     if (!r.ok) std::abort();
                     ++completed;
                     issue();
                   });
    };
    for (int i = 0; i < fanout && i < n; ++i) issue();
    loop.RunAll();
    if (completed != n) std::abort();
    return static_cast<uint64_t>(n);
  }

  // `n` single-document inserts with up to `fanout` outstanding at once.
  // With batching enabled, concurrent writes to the primary coalesce and
  // the replication stream applies them as amortised batches.
  uint64_t RunWritesConcurrent(int n, int fanout) {
    int issued = 0, completed = 0;
    std::function<void()> issue = [&] {
      if (issued == n) return;
      const int64_t id = next_write_id++;
      ++issued;
      client->Write(server::OpClass::kInsert,
                    [id](repl::TxnContext* ctx) {
                      ctx->Insert("bench", doc::Value::Doc({{"_id", id}}));
                    },
                    [&](const driver::OpResult& r) {
                      if (!r.ok) std::abort();
                      ++completed;
                      issue();
                    });
    };
    for (int i = 0; i < fanout && i < n; ++i) issue();
    loop.RunAll();
    if (completed != n) std::abort();
    return static_cast<uint64_t>(n);
  }

  int64_t next_write_id = 1;
};

}  // namespace

int BenchMain(int argc, char** argv) {
  std::string out_path;
  std::string compare_path;
  std::string summary_path;
  double threshold = 0.85;
  double min_time = 1.0;
  bool allow_debug = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--out") {
      out_path = next();
    } else if (arg == "--compare") {
      compare_path = next();
    } else if (arg == "--summary") {
      summary_path = next();
    } else if (arg == "--threshold") {
      threshold = std::stod(next());
    } else if (arg == "--min-time") {
      min_time = std::stod(next());
    } else if (arg == "--allow-debug") {
      allow_debug = true;
    } else {
      std::fprintf(stderr,
                   "usage: bench_baseline [--out FILE] [--compare FILE]\n"
                   "                      [--summary FILE] [--threshold R]\n"
                   "                      [--min-time S] [--allow-debug]\n");
      return 2;
    }
  }

#ifndef NDEBUG
  if (!allow_debug) {
    std::fprintf(stderr,
                 "bench_baseline: refusing to record/compare numbers from a "
                 "non-optimized build (pass --allow-debug to override)\n");
    return 2;
  }
#endif

  // --- Run every benchmark --------------------------------------------------
  std::vector<BenchResult> results;
  auto run = [&](const std::string& name, auto&& body) {
    BenchResult r = Measure(name, min_time, body);
    std::printf("%-28s %14.0f items/s   (%llu items in %.2fs)\n", name.c_str(),
                r.items_per_sec, static_cast<unsigned long long>(r.items),
                r.seconds);
    std::fflush(stdout);
    results.push_back(std::move(r));
  };

  run("event_loop_schedule_run", [] { return EventLoopScheduleRun(); });
  run("event_loop_churn", [] { return EventLoopChurn(); });
  run("btree_insert_10k", [] { return BTreeInsert10k(); });

  {
    constexpr int64_t n = 100000;
    auto tree = std::make_shared<store::BTree>();
    for (int64_t i = 0; i < n; ++i) tree->Insert(doc::Value(i), MakeDoc(i));
    auto rng = std::make_shared<sim::Rng>(1);
    run("btree_point_lookup",
        [tree, rng] { return BTreePointLookup(*tree, *rng, n); });
  }

  {
    const doc::Filter filter = doc::Filter::And(
        {doc::Filter::Gte("age", doc::Value(18)),
         doc::Filter::Eq("addr.city", doc::Value("sydney"))});
    const doc::Value d = doc::Value::Doc(
        {{"_id", 1},
         {"age", 30},
         {"addr", doc::Value::Doc({{"city", "sydney"}})}});
    run("filter_match_nested",
        [&filter, &d] { return FilterMatchNested(filter, d); });
  }

  {
    auto spec = std::make_shared<doc::UpdateSpec>();
    spec->Inc("a.b.c", doc::Value(1)).Set("top", doc::Value("x"));
    auto target = std::make_shared<doc::Value>(doc::Value::Doc(
        {{"_id", 1},
         {"top", "y"},
         {"a", doc::Value::Doc({{"b", doc::Value::Doc({{"c", 0}})}})}}));
    run("update_apply_dotted",
        [spec, target] { return UpdateApplyDotted(*spec, target.get()); });
  }

  {
    std::shared_ptr<store::Collection> coll = MakeScoredCollection(10000);
    run("collection_count", [coll] {
      const size_t c = coll->Count(doc::Filter::Gte("age", doc::Value(50)));
      if (c == 0) std::abort();
      return 10000;  // documents scanned
    });
    run("find_with_topk", [coll] {
      store::FindOptions options;
      options.sort_path = "score";
      options.sort_descending = true;
      options.limit = 10;
      auto out = coll->FindWith(doc::Filter::True(), options);
      if (out.size() != 10) std::abort();
      return 10000;  // documents considered
    });
    coll->CreateIndex("by_wd", {"w", "d"});
    run("index_equality_find", [coll] {
      uint64_t docs = 0;
      for (int i = 0; i < 100; ++i) {
        auto out = coll->Find(doc::Filter::And(
            {doc::Filter::Eq("w", doc::Value(i % 10)),
             doc::Filter::Eq("d", doc::Value((i / 10) % 10))}));
        docs += out.size();
      }
      if (docs != 10000) std::abort();
      return docs;
    });
  }

  {
    // After the collection rows: the documents this tree frees would
    // otherwise scatter the collection's documents across the heap and
    // slow its scans.
    auto tree = std::make_shared<store::BTree>();
    int64_t id = 0;
    for (int64_t w = 1; w <= kCompositeWarehouses; ++w) {
      for (int64_t i = 1; i <= kCompositeItems; ++i) {
        tree->Insert(doc::Value::List({w, i}), MakeDoc(id++));
      }
    }
    auto rng = std::make_shared<sim::Rng>(2);
    run("btree_point_lookup_composite",
        [tree, rng] { return BTreeCompositeLookup(*tree, *rng); });
  }

  {
    // Command-layer round trip: the full typed find path — selection,
    // OpContext stamping, bus send, CommandService dispatch, reply
    // routing, latency accounting — with nothing going wrong.
    auto rig = std::make_shared<CommandRig>(driver::ClientOptions{});
    run("command_round_trip", [rig] {
      return rig->RunReads(1000, driver::ReadPreference::kPrimary);
    });
  }

  {
    // Tracing overhead pair, measured as interleaved best-of-3 rounds.
    //
    // "off" is the command_round_trip loop with a tracer attached the way
    // Experiment always attaches one and left disabled — the gap to
    // command_round_trip is every probe site's `enabled` branch (the
    // "≤2% when off" claim). "on" records the full span tree per read
    // (op, attempt, checkout, two wire legs, server service), cleared per
    // batch so memory stays bounded while the record cost is paid.
    //
    // The original bench built one rig per side and measured each once,
    // back-to-back — and the recorded baseline shipped with "off" slower
    // than "on". Two rigs never hold allocator and code-layout state
    // equal, and sequential measurement adds machine drift (frequency
    // ramp, background load) on top. So: ONE rig, ONE tracer toggled
    // between rounds, interleaved best-of-3 per side, and the invariant
    // off >= on asserted here instead of being left to the cross-machine
    // regression gate.
    auto rig = std::make_shared<CommandRig>(driver::ClientOptions{});
    auto tracer = std::make_shared<obs::Tracer>();
    rig->rs->SetTracer(tracer.get());
    rig->client->SetTracer(tracer.get());
    auto off_body = [rig, tracer] {
      const uint64_t n =
          rig->RunReads(1000, driver::ReadPreference::kPrimary);
      if (!tracer->spans().empty()) std::abort();  // disabled records 0
      return n;
    };
    auto on_body = [rig, tracer] {
      const uint64_t n =
          rig->RunReads(1000, driver::ReadPreference::kPrimary);
      if (tracer->spans().size() < 1000) std::abort();  // spans must flow
      tracer->Clear();
      return n;
    };
    BenchResult off, on;
    for (int round = 0; round < 3; ++round) {
      tracer->Disable();
      tracer->Clear();
      const BenchResult o = Measure("trace_overhead_off", min_time, off_body);
      if (o.items_per_sec > off.items_per_sec) off = o;
      tracer->Enable();
      const BenchResult e = Measure("trace_overhead_on", min_time, on_body);
      if (e.items_per_sec > on.items_per_sec) on = e;
    }
    if (off.items_per_sec < on.items_per_sec) {
      std::fprintf(stderr,
                   "bench_baseline: trace_overhead inverted — off %.0f < "
                   "on %.0f items/s after interleaved best-of-3\n",
                   off.items_per_sec, on.items_per_sec);
      return 1;
    }
    for (const BenchResult& r : {off, on}) {
      std::printf("%-28s %14.0f items/s   (%llu items in %.2fs, best of 3)\n",
                  r.name.c_str(), r.items_per_sec,
                  static_cast<unsigned long long>(r.items), r.seconds);
      std::fflush(stdout);
      results.push_back(r);
    }
  }

  {
    // SLO evaluation on the hot path: the command_round_trip loop with a
    // three-objective engine (the --slo=default bundle) fed one
    // freshness + latency + success observation per read and evaluated
    // once per 1000-read batch — the same cadence Experiment uses (one
    // Evaluate per report period, thousands of ops in between). Gated
    // within noise of command_round_trip: the observe path is two integer
    // bumps and the evaluation is O(rules x window buckets).
    auto rig = std::make_shared<CommandRig>(driver::ClientOptions{});
    auto engine = std::make_shared<obs::SloEngine>(sim::Seconds(10));
    std::vector<obs::SloSpec> specs;
    std::string slo_error;
    if (!obs::ParseSloSpecs("default", obs::SloDefaults{}, &specs,
                            &slo_error)) {
      std::abort();
    }
    for (const obs::SloSpec& spec : specs) engine->AddSlo(spec);
    auto eval_now = std::make_shared<sim::Time>(0);
    run("slo_eval", [rig, engine, eval_now] {
      const uint64_t n =
          rig->RunReads(1000, driver::ReadPreference::kPrimary);
      for (uint64_t i = 0; i < n; ++i) {
        engine->ObserveOutcome(true);
        engine->ObserveReadLatencyMs(2.0);
        engine->ObserveServedAge(0.5, /*used_secondary=*/(i & 1) != 0);
      }
      *eval_now += sim::Seconds(10);
      engine->Evaluate(*eval_now);
      if (engine->firing_count() != 0) std::abort();  // healthy feed
      return n;
    });
  }

  {
    // Retry storm: 40% loss in each direction on the client<->primary
    // link, so most ops burn attempt timeouts and backoff retries before
    // completing. Measures the retry state machine under duress.
    driver::ClientOptions options;
    options.attempt_timeout = sim::Millis(20);
    options.retry_backoff_base = sim::Millis(1);
    options.retry_backoff_max = sim::Millis(8);
    auto rig = std::make_shared<CommandRig>(options);
    net::Network::LinkFault fault;
    fault.drop_probability = 0.4;
    rig->network->SetLinkFault(rig->client_host, rig->hosts[0], fault);
    rig->network->SetLinkFault(rig->hosts[0], rig->client_host, fault);
    run("command_retry_storm", [rig] {
      const uint64_t n = rig->RunReads(300, driver::ReadPreference::kPrimary);
      if (rig->client->op_counters().retries_total == 0) std::abort();
      return n;
    });
  }

  {
    // Hedged reads: jittered links give secondary reads a latency tail;
    // the tail ops fire a hedge to the next-best secondary. Measures the
    // hedge timer + duplicate-reply suppression path.
    driver::ClientOptions options;
    options.hedged_reads = true;
    options.hedge_quantile = 0.7;
    options.hedge_min_delay = sim::Micros(500);
    auto rig = std::make_shared<CommandRig>(options, sim::Millis(3));
    run("command_hedged_read", [rig] {
      const uint64_t n =
          rig->RunReads(500, driver::ReadPreference::kSecondary);
      if (rig->client->op_counters().hedges_sent == 0) std::abort();
      return n;
    });
  }

  {
    // Pool checkout fast path: a size-capped pool with all connections
    // warm, driven by a single closed loop — every checkout is satisfied
    // synchronously from the idle list, every check-in returns LIFO.
    // Measures the bookkeeping a healthy pooled op pays per round trip.
    auto loop = std::make_shared<sim::EventLoop>();
    driver::pool::PoolOptions options;
    options.max_pool_size = 8;
    auto pool = std::make_shared<driver::pool::ConnectionPool>(loop.get(),
                                                               options);
    run("pool_checkout", [loop, pool] {
      for (int i = 0; i < 10000; ++i) {
        uint64_t conn = 0;
        pool->CheckOut(
            [&conn](const driver::pool::ConnectionPool::Checkout& co) {
              if (!co.ok) std::abort();
              conn = co.conn_id;
            });
        if (conn == 0) std::abort();  // warm pool must deliver synchronously
        pool->CheckIn(conn);
      }
      loop->RunAll();
      return 10000;
    });
  }

  {
    // Pool starvation: 64 concurrent closed loops over a pool of ONE
    // connection per node — every op queues behind the rest, exercising
    // the FIFO wait queue and the serve-on-check-in handoff under
    // sustained contention.
    driver::ClientOptions options;
    options.pool.max_pool_size = 1;
    auto rig = std::make_shared<CommandRig>(options);
    run("pool_starvation", [rig] {
      const uint64_t n =
          rig->RunReadsConcurrent(400, 64, driver::ReadPreference::kPrimary);
      if (rig->client->PoolTotals().max_queue_depth == 0) std::abort();
      return n;
    });
  }

  {
    // Envelope flush path: 16 concurrent closed loops with batch_max_ops
    // 16, so full envelopes form back-to-back. Measures the coalescing
    // buffer, flush trigger, shared checkout, per-rider dispatch and
    // envelope settle bookkeeping per batched op.
    driver::ClientOptions options;
    options.batching_enabled = true;
    options.batch_max_ops = 16;
    options.batch_max_delay = sim::Micros(200);
    auto rig = std::make_shared<CommandRig>(options);
    run("envelope_flush", [rig] {
      const uint64_t n =
          rig->RunReadsConcurrent(1000, 16, driver::ReadPreference::kPrimary);
      if (rig->client->op_counters().envelopes_sent == 0) std::abort();
      return n;
    });
  }

  {
    // Batched write throughput: concurrent inserts coalescing into
    // envelopes, committed through the primary and applied downstream as
    // amortised oplog batches — the write-side half of the Fig. 5
    // ceiling-raise claim.
    driver::ClientOptions options;
    options.batching_enabled = true;
    options.batch_max_ops = 16;
    options.batch_max_delay = sim::Micros(200);
    auto rig = std::make_shared<CommandRig>(options);
    run("batched_write_throughput", [rig] {
      const uint64_t n = rig->RunWritesConcurrent(500, 32);
      if (rig->client->op_counters().ops_batched == 0) std::abort();
      return n;
    });
  }

  {
    // One simulated second of a loaded 3-node cluster under Decongestant —
    // the end-to-end cost that bounds how fast every paper figure runs.
    // items = simulator events executed.
    exp::ExperimentConfig config;
    config.seed = 99;
    config.kind = exp::WorkloadKind::kYcsb;
    config.phases = {{0, 40, 0.95}};
    config.duration = sim::Seconds(1);
    auto experiment = std::make_shared<exp::Experiment>(config);
    experiment->Run();  // prime: loads data, starts client loops
    auto horizon = std::make_shared<sim::Time>(sim::Seconds(1));
    run("sim_second_ycsb", [experiment, horizon] {
      *horizon += sim::Seconds(1);
      return experiment->loop().RunUntil(*horizon);
    });
  }

  {
    // Same loaded second but on a 2-shard cluster behind the mongos
    // router: every op pays the client→router hop, chunk resolution,
    // admission stamping, and the per-shard sub-client dispatch. The gap
    // to sim_second_ycsb is the price of the routing tier.
    exp::ExperimentConfig config;
    config.seed = 99;
    config.kind = exp::WorkloadKind::kYcsb;
    config.phases = {{0, 40, 0.95}};
    config.duration = sim::Seconds(1);
    config.shards = 2;
    auto experiment = std::make_shared<exp::Experiment>(config);
    experiment->Run();  // prime: loads data, starts router + client loops
    auto horizon = std::make_shared<sim::Time>(sim::Seconds(1));
    run("sim_second_sharded", [experiment, horizon] {
      *horizon += sim::Seconds(1);
      return experiment->loop().RunUntil(*horizon);
    });
  }

  // --- Write the baseline file ---------------------------------------------
  if (!out_path.empty()) {
    std::ostringstream json;
    char datebuf[64] = "unknown";
    const std::time_t now = std::time(nullptr);
    std::tm tm_utc{};
    if (gmtime_r(&now, &tm_utc) != nullptr) {
      std::strftime(datebuf, sizeof(datebuf), "%Y-%m-%dT%H:%M:%SZ", &tm_utc);
    }
    json << "{\n";
    json << "  \"schema\": 1,\n";
    json << "  \"date_utc\": \"" << datebuf << "\",\n";
#ifdef DCG_BUILD_TYPE
    json << "  \"build_type\": \"" << DCG_BUILD_TYPE << "\",\n";
#endif
    json << "  \"compiler\": \"" << __VERSION__ << "\",\n";
    json << "  \"min_time_s\": " << min_time << ",\n";
    json << "  \"benchmarks\": [\n";
    for (size_t i = 0; i < results.size(); ++i) {
      const BenchResult& r = results[i];
      json << "    {\"name\": \"" << r.name << "\", \"items_per_sec\": "
           << static_cast<uint64_t>(r.items_per_sec) << "}"
           << (i + 1 < results.size() ? ",\n" : "\n");
    }
    json << "  ]\n}\n";
    std::ofstream f(out_path);
    f << json.str();
    if (!f) {
      std::fprintf(stderr, "failed to write %s\n", out_path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", out_path.c_str());
  }

  // --- Compare against a committed baseline --------------------------------
  if (!compare_path.empty()) {
    std::ifstream f(compare_path);
    if (!f) {
      std::fprintf(stderr, "cannot open baseline %s\n", compare_path.c_str());
      return 1;
    }
    std::stringstream buf;
    buf << f.rdbuf();
    const std::string text = buf.str();

    // Minimal parse of this tool's own output format: pairs of
    // "name": "<bench>" ... "items_per_sec": <number>. The committed file
    // may carry extra fields (e.g. pre_change_items_per_sec); they are
    // ignored because the exact quoted keys below are matched.
    struct CompareRow {
      std::string name;
      double baseline = 0;
      double current = 0;
      double ratio = 0;
      bool pass = false;
      bool missing = false;  // in the baseline but not in this run
    };
    std::vector<CompareRow> rows;
    std::vector<std::string> offenders;
    int compared = 0;
    size_t pos = 0;
    while ((pos = text.find("\"name\": \"", pos)) != std::string::npos) {
      pos += std::strlen("\"name\": \"");
      const size_t name_end = text.find('"', pos);
      if (name_end == std::string::npos) break;
      const std::string name = text.substr(pos, name_end - pos);
      size_t vpos = text.find("\"items_per_sec\": ", name_end);
      if (vpos == std::string::npos) break;
      vpos += std::strlen("\"items_per_sec\": ");
      const double baseline = std::strtod(text.c_str() + vpos, nullptr);
      pos = vpos;

      const auto it = std::find_if(
          results.begin(), results.end(),
          [&name](const BenchResult& r) { return r.name == name; });
      if (it == results.end()) {
        std::fprintf(stderr, "FAIL %-28s missing from this run\n",
                     name.c_str());
        rows.push_back({name, baseline, 0, 0, false, true});
        offenders.push_back(name);
        continue;
      }
      if (baseline <= 0) continue;
      const double ratio = it->items_per_sec / baseline;
      ++compared;
      const bool pass = ratio >= threshold;
      std::printf("%s %-28s %.2fx of baseline (%.0f vs %.0f items/s)\n",
                  pass ? "ok  " : "FAIL", name.c_str(), ratio,
                  it->items_per_sec, baseline);
      rows.push_back({name, baseline, it->items_per_sec, ratio, pass, false});
      if (!pass) offenders.push_back(name);
    }

    // Markdown report for CI step summaries ($GITHUB_STEP_SUMMARY):
    // the full comparison table plus an explicit offender list, so a
    // red bench job names its regressions without log spelunking.
    if (!summary_path.empty()) {
      std::ofstream s(summary_path, std::ios::app);
      s << "### bench_baseline vs `" << compare_path << "` (threshold "
        << threshold << ")\n\n";
      s << "| benchmark | baseline items/s | current items/s | ratio | "
           "status |\n";
      s << "|---|---:|---:|---:|---|\n";
      char line[256];
      for (const CompareRow& row : rows) {
        if (row.missing) {
          std::snprintf(line, sizeof(line),
                        "| `%s` | %.0f | — | — | :x: missing |\n",
                        row.name.c_str(), row.baseline);
        } else {
          std::snprintf(line, sizeof(line),
                        "| `%s` | %.0f | %.0f | %.2fx | %s |\n",
                        row.name.c_str(), row.baseline, row.current,
                        row.ratio, row.pass ? ":white_check_mark:" : ":x:");
        }
        s << line;
      }
      if (offenders.empty()) {
        s << "\nAll " << compared << " benchmarks within threshold.\n";
      } else {
        s << "\n**Regressed:** ";
        for (size_t i = 0; i < offenders.size(); ++i) {
          s << (i ? ", " : "") << "`" << offenders[i] << "`";
        }
        s << "\n";
      }
      if (!s) {
        std::fprintf(stderr, "failed to write %s\n", summary_path.c_str());
        return 1;
      }
    }

    if (compared == 0) {
      std::fprintf(stderr, "no benchmarks found in %s\n", compare_path.c_str());
      return 1;
    }
    if (!offenders.empty()) {
      std::ostringstream who;
      for (size_t i = 0; i < offenders.size(); ++i) {
        who << (i ? ", " : "") << offenders[i];
      }
      std::fprintf(stderr,
                   "bench_baseline: regression beyond threshold %.2f in: %s\n",
                   threshold, who.str().c_str());
      return 1;
    }
    std::printf("all %d benchmarks within threshold %.2f\n", compared,
                threshold);
  }
  return 0;
}

}  // namespace dcg

int main(int argc, char** argv) { return dcg::BenchMain(argc, argv); }
