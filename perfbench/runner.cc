// perfbench_runner: one repetition of one benchmark workload, in this
// process, printed as one JSON object on stdout. perfbench/run.py drives it
// (one process per repetition) and aggregates repetitions into the
// benchmark's metrics.
//
// Usage:
//   perfbench_runner run      <workload> <seed>   untraced timed run
//   perfbench_runner trace    <workload> <seed>   traced run + unit costs
//   perfbench_runner selftest <workload> <seed>   sliced run == plain Run()
//
// Everything is measured from outside libdecongestant, through public APIs
// only: the stack is started with Experiment::Run() on a zero-length
// horizon and then driven with loop().RunUntil() in one-simulated-second
// slices, which yields wall time and events fired per slice. Op outcomes
// arrive through Experiment::SetOpObserver, served-read ages through the
// drivers' op observers, and layer counters are read at the end.
//
// Two kinds of numbers come out, and the JSON keeps them apart:
//   "host": the simulator's own cost in wall-clock time, raw (noisy on a
//           shared host) and calibrated against a reference timed beside
//           every slice (see Reference);
//   "sim":  the simulated system's results in simulated time (bit-exact
//           for a given seed — a pure simulator speed-up must leave them,
//           and the op-stream fingerprint, unchanged).

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <new>
#include <string>
#include <unordered_map>
#include <vector>

#include "driver/pool/connection_pool.h"
#include "exp/experiment.h"
#include "net/network.h"
#include "obs/trace.h"
#include "sim/event_loop.h"
#include "store/database.h"
#include "workload/key_chooser.h"
#include "workload/tpcc.h"
#include "workload/ycsb.h"

// --- Allocation counting --------------------------------------------------
//
// Global operator new/delete, defined in this binary only: every heap
// allocation the simulator makes is counted exactly (the program is single
// threaded, so plain counters suffice).

namespace {
uint64_t g_allocs = 0;
uint64_t g_alloc_bytes = 0;

void* CountedAlloc(std::size_t n) {
  ++g_allocs;
  g_alloc_bytes += n;
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* CountedAlignedAlloc(std::size_t n, std::align_val_t align) {
  ++g_allocs;
  g_alloc_bytes += n;
  const std::size_t a = static_cast<std::size_t>(align);
  void* p = std::aligned_alloc(a, (n + a - 1) / a * a);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t n) { return CountedAlloc(n); }
void* operator new[](std::size_t n) { return CountedAlloc(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  return CountedAlignedAlloc(n, a);
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return CountedAlignedAlloc(n, a);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

using namespace dcg;
using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Calibration: the host is shared, and its speed for this kind of code
/// swings by a third within seconds as neighbours come and go. A fixed
/// piece of reference work, timed beside every slice on the same thread,
/// samples that speed: a binary heap of 2048 keys popped and pushed with
/// data-dependent keys, the event queue's access pattern in miniature
/// (branchy, cache-resident, no allocation). It is compiled here, so it is
/// the same on both sides of any comparison. Dividing a slice's wall time
/// by the reference's time beside it removes the host's swings; times
/// the reference's nominal time, the result reads as wall time on an
/// undisturbed host.
class Reference {
 public:
  /// Reference time on an undisturbed host: the fast-quartile reading on
  /// the 4-core x86-64 machine (Xeon, KVM guest) this benchmark was tuned
  /// on.
  static constexpr double kNominalNs = 360e3;

  Reference() : heap_(2048) {
    uint64_t x = 0x9e3779b97f4a7c15ULL;
    for (uint64_t& v : heap_) v = Next(&x);
    std::make_heap(heap_.begin(), heap_.end());
  }

  /// Runs the fixed work once; returns its wall time in ns.
  double RunNs() {
    const Clock::time_point start = Clock::now();
    uint64_t x = 0x2545f4914f6cdd1dULL;
    for (int i = 0; i < 18000; ++i) {
      std::pop_heap(heap_.begin(), heap_.end());
      heap_.back() = Next(&x);
      std::push_heap(heap_.begin(), heap_.end());
    }
    g_sink_ = heap_.front();
    return std::chrono::duration<double, std::nano>(Clock::now() - start)
        .count();
  }

 private:
  static uint64_t Next(uint64_t* x) {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    return *x;
  }
  static inline volatile uint64_t g_sink_ = 0;
  std::vector<uint64_t> heap_;
};

double Median(std::vector<double> v) {
  std::nth_element(v.begin(), v.begin() + static_cast<long>(v.size() / 2),
                   v.end());
  return v[v.size() / 2];
}

/// Peak resident set of this process, in MB.
double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// --- Workloads --------------------------------------------------------------

/// One workload: the experiment configuration plus the simulated horizon.
/// Every phase/fault time is a fraction of the horizon, so the self-test
/// can replay the same shape at a shorter horizon.
struct Workload {
  exp::ExperimentConfig config;
  sim::Time horizon = 0;
  /// Freshness bound the over-bound share is judged against.
  sim::Duration stale_bound = 0;
};

bool MakeWorkload(const std::string& name, uint64_t seed, double horizon_s,
                  Workload* out) {
  exp::ExperimentConfig c;
  c.seed = seed;
  c.system = exp::SystemType::kDecongestant;
  c.kind = exp::WorkloadKind::kYcsb;
  const auto at = [horizon_s](double fraction) {
    return sim::Seconds(horizon_s * fraction);
  };
  if (name == "ycsb_shift") {
    // sim_cli --scenario=fig2 shape: YCSB-A -> YCSB-B halfway.
    c.phases = {{0, 45, 0.5}, {at(0.5), 45, 0.95}};
    c.warmup = at(0.25);
  } else if (name == "tpcc_bound") {
    // sim_cli --scenario=fig9 shape: read-write TPC-C, StaleBound 10 s,
    // the slow checkpoint disk that stalls getMore.
    c.kind = exp::WorkloadKind::kTpcc;
    c.phases = {{0, 15, 0.5}};
    c.balancer.stale_bound_seconds = 10;
    c.server.checkpoint_disk_bw = 2.0e6;
    c.warmup = at(0.1);
  } else if (name == "ycsb_sharded") {
    // 2-shard hashed YCSB-B through the bus-routed mongos.
    c.phases = {{0, 45, 0.95}};
    c.shards = 2;
    c.shard_key.hashed = true;
    c.warmup = at(0.2);
  } else if (name == "ycsb_failover") {
    // YCSB-B with a primary crash at 1/3 and its restart at 55 %.
    c.phases = {{0, 45, 0.95}};
    fault::FaultEvent crash;
    crash.type = fault::FaultType::kCrash;
    crash.start = at(1.0 / 3.0);
    crash.nodes = {0};
    fault::FaultEvent restart;
    restart.type = fault::FaultType::kRestart;
    restart.start = at(0.55);
    restart.nodes = {0};
    c.faults.Add(crash).Add(restart);
    c.warmup = at(0.2);
  } else {
    return false;
  }
  c.duration = sim::Seconds(horizon_s);
  out->horizon = c.duration;
  out->stale_bound = sim::Seconds(
      static_cast<double>(c.balancer.stale_bound_seconds));
  out->config = std::move(c);
  return true;
}

/// Simulated horizon of a timed repetition, per workload: sized so one
/// repetition costs a few wall seconds while its simulated results are
/// steady from seed to seed.
double DefaultHorizonSeconds(const std::string& name) {
  if (name == "ycsb_shift") return 100;
  if (name == "tpcc_bound") return 90;
  if (name == "ycsb_sharded") return 45;
  return 100;  // ycsb_failover
}

// --- Recording ----------------------------------------------------------

/// Order-sensitive 64-bit hash of the op-outcome stream.
struct Fingerprint {
  uint64_t h = 0xcbf29ce484222325ULL;
  void Mix(uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    h *= 0x100000001b3ULL;
  }
  void Mix(std::string_view s) {
    for (unsigned char ch : s) Mix(static_cast<uint64_t>(ch));
  }
};

/// Everything the op observers collect during one run.
struct Recorder {
  sim::Time warmup = 0;
  sim::Duration stale_bound = 0;
  uint64_t ops = 0;     // completed workload ops, whole run
  uint64_t failed = 0;  // ... that timed out or gave up
  uint64_t retries = 0;
  uint64_t measured_ops = 0;  // completed after warm-up
  uint64_t measured_failed = 0;
  uint64_t secondary_reads = 0;
  std::vector<sim::Duration> read_latency;   // ok reads after warm-up
  std::vector<sim::Duration> write_latency;  // ok writes after warm-up
  std::vector<sim::Duration> served_age;  // reads after warm-up
  uint64_t over_bound_reads = 0;
  Fingerprint fingerprint;

  void OnOutcome(sim::Time now, const workload::OpOutcome& o) {
    ++ops;
    if (!o.ok) ++failed;
    retries += static_cast<uint64_t>(o.retries);
    fingerprint.Mix(o.type);
    fingerprint.Mix(static_cast<uint64_t>(o.latency));
    fingerprint.Mix(static_cast<uint64_t>(static_cast<int64_t>(o.node)));
    fingerprint.Mix(o.ok ? 1 : 0);
    if (now < warmup) return;
    ++measured_ops;
    if (!o.ok) {
      ++measured_failed;
      return;
    }
    if (o.read_only) {
      read_latency.push_back(o.latency);
      if (o.used_secondary) ++secondary_reads;
    } else {
      write_latency.push_back(o.latency);
    }
  }

  /// Served-read age: the true staleness of the node that served a read
  /// when it completed (0 for the primary).
  void OnServedRead(sim::Time now, const repl::ReplicaSet& rs, int node) {
    if (now < warmup || node < 0) return;
    const sim::Duration age =
        node == rs.primary_index() ? 0 : rs.TrueStaleness(node);
    served_age.push_back(age);
    if (age > stale_bound) ++over_bound_reads;
  }
};

/// Exact percentile (nearest rank) of a sample set, in ms.
double PercentileMs(std::vector<sim::Duration> samples, double p) {
  if (samples.empty()) return 0;
  size_t rank =
      static_cast<size_t>(p / 100.0 * static_cast<double>(samples.size()));
  rank = std::min(rank, samples.size() - 1);
  std::nth_element(samples.begin(), samples.begin() + static_cast<long>(rank),
                   samples.end());
  return sim::ToMillis(samples[rank]);
}

/// Simulated span accounting for the traced run: per-kind total and self
/// time (a span's duration minus its children's), drained after every
/// slice so the tracer's buffer never fills.
struct SpanLedger {
  static constexpr int kKinds = static_cast<int>(obs::SpanKind::kRouter) + 1;
  double total_ns[kKinds] = {};
  double self_ns[kKinds] = {};
  uint64_t count[kKinds] = {};
  /// Child time already seen for parents that have not closed yet.
  std::unordered_map<uint64_t, sim::Duration> covered;

  void Drain(obs::Tracer* tracer) {
    for (const obs::SpanRecord& span : tracer->spans()) {
      const int k = static_cast<int>(span.kind);
      const sim::Duration duration = span.end - span.start;
      sim::Duration self = duration;
      auto it = covered.find(span.span_id);
      if (it != covered.end()) {
        self -= it->second;
        covered.erase(it);
      }
      total_ns[k] += static_cast<double>(duration);
      self_ns[k] += static_cast<double>(self);
      ++count[k];
      if (span.parent_span_id != 0) covered[span.parent_span_id] += duration;
    }
    tracer->Clear();
  }
  double MeanMs(obs::SpanKind kind) const {
    const int k = static_cast<int>(kind);
    return count[k] == 0 ? 0
                         : total_ns[k] / 1e6 / static_cast<double>(count[k]);
  }
};

// --- JSON output ------------------------------------------------------------

class JsonObject {
 public:
  void Num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    Raw(key, buf);
  }
  void Int(const std::string& key, uint64_t v) {
    Raw(key, std::to_string(v));
  }
  void Bool(const std::string& key, bool v) { Raw(key, v ? "true" : "false"); }
  void Str(const std::string& key, const std::string& v) {
    Raw(key, "\"" + v + "\"");
  }
  void Obj(const std::string& key, const JsonObject& v) { Raw(key, v.Text()); }
  std::string Text() const { return "{" + body_ + "}"; }

 private:
  void Raw(const std::string& key, const std::string& v) {
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + key + "\": " + v;
  }
  std::string body_;
};

// --- One run -------------------------------------------------------------

struct RunResult {
  double setup_wall_s = 0;
  double setup_s = 0;  // setup_wall_s, calibrated

  double loop_wall_s = 0;
  /// loop_wall_s calibrated: every slice's wall time scaled by the nominal
  /// over the mean of the reference timings just before and after it.
  double calibrated_loop_s = 0;
  std::vector<double> reference_ns;  // one after setup, one per slice
  uint64_t events = 0;
  size_t pending_events_max = 0;
  size_t driver_pending_max = 0;
  uint64_t allocs = 0;
  uint64_t alloc_bytes = 0;
  uint64_t issued = 0;
  uint64_t in_flight = 0;
  Recorder rec;
  exp::Summary summary;
  SpanLedger spans;
  uint64_t dropped_spans = 0;
  JsonObject counters;  // layer counters read at the end
  JsonObject checks;
  bool ok = true;
};

void Check(RunResult* r, const std::string& name, bool pass) {
  r->checks.Bool(name, pass);
  if (!pass) {
    std::fprintf(stderr, "perfbench: correctness check failed: %s\n",
                 name.c_str());
    r->ok = false;
  }
}

/// Driver-side served-age hooks: the workload client in single-replica-set
/// mode, every router→shard sub-client in sharded mode (the router hides
/// the serving node from the application client, not from its own legs).
void HookServedAge(exp::Experiment* e, Recorder* rec) {
  auto hook = [e, rec](driver::MongoClient* client, repl::ReplicaSet* rs) {
    client->AddOpObserver(
        [e, rec, rs](const driver::MongoClient::OpStats& stats) {
          if (!stats.is_read || !stats.ok || !stats.record_latency) return;
          rec->OnServedRead(e->loop().Now(), *rs, stats.node);
        });
  };
  if (e->sharded()) {
    shard::ShardedCluster* cluster = e->sharded_cluster();
    for (int s = 0; s < cluster->shard_count(); ++s) {
      hook(&cluster->client(s), &cluster->shard(s));
    }
  } else {
    hook(&e->client(), &e->replica_set());
  }
}

/// All replica sets of the run (one, or one per shard).
std::vector<repl::ReplicaSet*> ReplicaSets(exp::Experiment* e) {
  std::vector<repl::ReplicaSet*> sets;
  if (e->sharded()) {
    for (int s = 0; s < e->sharded_cluster()->shard_count(); ++s) {
      sets.push_back(&e->sharded_cluster()->shard(s));
    }
  } else {
    sets.push_back(&e->replica_set());
  }
  return sets;
}

std::vector<driver::MongoClient*> Drivers(exp::Experiment* e) {
  std::vector<driver::MongoClient*> clients = {&e->client()};
  if (e->sharded()) {
    for (int s = 0; s < e->sharded_cluster()->shard_count(); ++s) {
      clients.push_back(&e->sharded_cluster()->client(s));
    }
  }
  return clients;
}

std::vector<core::ReadBalancer*> Balancers(exp::Experiment* e) {
  std::vector<core::ReadBalancer*> balancers;
  if (e->sharded()) {
    for (int s = 0; s < e->sharded_cluster()->shard_count(); ++s) {
      if (e->sharded_cluster()->balancer(s) != nullptr) {
        balancers.push_back(e->sharded_cluster()->balancer(s));
      }
    }
  } else if (e->balancer() != nullptr) {
    balancers.push_back(e->balancer());
  }
  return balancers;
}

uint64_t OpsIssued(exp::Experiment* e) {
  if (e->ycsb() != nullptr) {
    return e->ycsb()->reads_issued() + e->ycsb()->updates_issued();
  }
  const workload::TpccWorkload* t = e->tpcc();
  return t->stock_level_count() + t->new_order_count() + t->payment_count() +
         t->order_status_count() + t->delivery_count();
}

void ReadCounters(exp::Experiment* e, RunResult* r) {
  JsonObject& c = r->counters;
  c.Int("net_messages",
        e->network().messages_delivered() + e->network().messages_dropped());
  uint64_t client_cmds = 0, applied = 0, oplog_entries = 0, getmore_stalls = 0,
           elections = 0, committed_writes = 0;
  double busy_ms = 0;
  for (repl::ReplicaSet* rs : ReplicaSets(e)) {
    oplog_entries += rs->oplog().size();
    getmore_stalls += rs->getmore_stalls();
    elections += rs->elections();
    committed_writes += rs->committed_writes();
    for (int i = 0; i < rs->node_count(); ++i) {
      server::ServerNode& node = rs->node(i).server();
      applied += rs->node(i).entries_applied();
      // Application commands: everything but replication and monitoring.
      for (int k = 0; k < static_cast<int>(server::OpClass::kCount); ++k) {
        const auto op_class = static_cast<server::OpClass>(k);
        if (op_class != server::OpClass::kGetMore &&
            op_class != server::OpClass::kOplogApply &&
            op_class != server::OpClass::kServerStatus) {
          client_cmds += node.ops_executed(op_class);
        }
      }
      busy_ms += sim::ToMillis(node.cpu().total_busy_time());
    }
  }
  c.Int("client_cmds", client_cmds);
  c.Num("server_busy_ms", busy_ms);
  c.Int("repl_applied", applied);
  c.Int("repl_committed_writes", committed_writes);
  c.Int("repl_oplog_entries", oplog_entries);
  c.Int("repl_getmore_stalls", getmore_stalls);
  c.Int("repl_elections", elections);

  uint64_t checkouts = 0, pool_clears = 0, stale_handouts = 0,
           stepdown_clears = 0;
  double checkout_wait_ms = 0;
  for (driver::MongoClient* client : Drivers(e)) {
    const auto totals = client->PoolTotals();
    checkouts += totals.checkouts;
    pool_clears += totals.clears;
    checkout_wait_ms += sim::ToMillis(totals.wait_total);
    stepdown_clears += client->stepdown_pool_clears();
    for (int n = 0; n < client->node_count(); ++n) {
      stale_handouts += client->node_pool(n).stale_handouts();
    }
  }
  c.Int("driver_checkouts", checkouts);
  c.Num("driver_checkout_wait_ms", checkout_wait_ms);
  c.Int("driver_pool_clears", pool_clears + stepdown_clears);
  Check(r, "pool_stale_handouts_zero", stale_handouts == 0);

  uint64_t fraction_moves = 0, gate_events = 0;
  for (core::ReadBalancer* b : Balancers(e)) {
    for (const obs::BalanceDecision& d : b->decisions().entries()) {
      const bool gate = d.reason == obs::BalanceReason::kStaleGateZero ||
                        d.reason == obs::BalanceReason::kStaleGateRelease;
      if (gate) {
        ++gate_events;
      } else if (d.from_fraction != d.to_fraction) {
        ++fraction_moves;
      }
    }
  }
  c.Int("core_fraction_moves", fraction_moves);
  c.Int("core_gate_events", gate_events);

  uint64_t router_cmds = 0, stale_refreshes = 0;
  if (e->sharded()) {
    router_cmds = e->sharded_cluster()->router().commands_served();
    stale_refreshes = e->sharded_cluster()->router().stale_refreshes();
  }
  c.Int("shard_router_cmds", router_cmds);
  c.Int("shard_stale_refreshes", stale_refreshes);
  c.Int("workload_point_reads",
        e->ycsb() != nullptr ? e->ycsb()->reads_issued() : 0);
  c.Int("fault_events_applied",
        e->sharded() ? 0 : e->fault_injector().events_applied());
}

RunResult RunWorkload(const Workload& w, bool traced) {
  RunResult r;
  Reference reference;
  std::vector<double> reference_at_setup;
  for (int i = 0; i < 5; ++i) reference_at_setup.push_back(reference.RunNs());
  const Clock::time_point setup_start = Clock::now();
  exp::ExperimentConfig config = w.config;
  config.duration = 0;  // Run() only starts the stack; slices do the rest
  auto e = std::make_unique<exp::Experiment>(config);
  r.rec.warmup = w.config.warmup;
  r.rec.stale_bound = w.stale_bound;
  r.rec.read_latency.reserve(1 << 20);
  r.rec.write_latency.reserve(1 << 18);
  r.rec.served_age.reserve(1 << 20);
  Recorder* rec = &r.rec;
  exp::Experiment* ep = e.get();
  e->SetOpObserver([rec, ep](const workload::OpOutcome& o) {
    rec->OnOutcome(ep->loop().Now(), o);
  });
  HookServedAge(ep, rec);
  if (traced) e->tracer().Enable(obs::Tracer::kDefaultMaxSpans);
  e->Run();
  r.setup_wall_s = SecondsSince(setup_start);
  // A single sample is too noisy for one interval: calibrate set-up by the
  // median of five reference runs on each side of it.
  for (int i = 0; i < 5; ++i) reference_at_setup.push_back(reference.RunNs());
  r.setup_s = r.setup_wall_s * Reference::kNominalNs /
              Median(reference_at_setup);
  r.reference_ns.push_back(reference_at_setup.back());

  const uint64_t allocs0 = g_allocs;
  const uint64_t bytes0 = g_alloc_bytes;
  for (sim::Time t = sim::kSecond; t <= w.horizon; t += sim::kSecond) {
    const Clock::time_point slice_start = Clock::now();
    r.events += e->loop().RunUntil(t);
    const double slice_s = SecondsSince(slice_start);
    r.loop_wall_s += slice_s;
    r.reference_ns.push_back(reference.RunNs());
    const double beside_ns =
        (r.reference_ns.end()[-2] + r.reference_ns.back()) / 2;
    r.calibrated_loop_s += slice_s * Reference::kNominalNs / beside_ns;
    r.pending_events_max =
        std::max(r.pending_events_max, e->loop().PendingEvents());
    size_t pending_ops = 0;
    for (driver::MongoClient* client : Drivers(ep)) {
      pending_ops += client->pending_op_count();
    }
    r.driver_pending_max = std::max(r.driver_pending_max, pending_ops);
    if (traced) {
      r.dropped_spans += e->tracer().dropped();
      r.spans.Drain(&e->tracer());
    }
  }
  r.allocs = g_allocs - allocs0;
  r.alloc_bytes = g_alloc_bytes - bytes0;

  r.summary = e->Summarize();
  r.issued = OpsIssued(ep);
  r.in_flight = static_cast<uint64_t>(e->pool().running());
  Check(&r, "ops_completed_plus_in_flight_eq_issued",
        r.rec.ops + r.in_flight == r.issued);
  if (e->ycsb() != nullptr) {
    Check(&r, "ycsb_missing_reads_zero", e->ycsb()->missing_reads() == 0);
  }
  Check(&r, "ops_completed", r.rec.measured_ops > 0);
  ReadCounters(ep, &r);
  return r;
}

JsonObject SimMetrics(const Workload& w, const RunResult& r) {
  const double window_s = sim::ToSeconds(w.horizon - w.config.warmup);
  const Recorder& rec = r.rec;
  JsonObject m;
  m.Num("read_tput_per_s",
        static_cast<double>(rec.read_latency.size()) / window_s);
  m.Num("read_p50_ms", PercentileMs(rec.read_latency, 50));
  m.Num("read_p80_ms", PercentileMs(rec.read_latency, 80));
  m.Num("read_p99_ms", PercentileMs(rec.read_latency, 99));
  m.Num("write_tput_per_s",
        static_cast<double>(rec.write_latency.size()) / window_s);
  m.Num("write_p99_ms", PercentileMs(rec.write_latency, 99));
  double age_sum = 0;
  for (sim::Duration age : rec.served_age) age_sum += sim::ToMillis(age);
  const double aged = static_cast<double>(rec.served_age.size());
  m.Num("served_age_mean_ms", aged == 0 ? 0 : age_sum / aged);
  m.Num("served_age_p99_ms", PercentileMs(rec.served_age, 99));
  m.Num("over_bound_read_share",
        aged == 0 ? 0 : static_cast<double>(rec.over_bound_reads) / aged);
  m.Num("failed_op_share",
        rec.measured_ops == 0 ? 0
                              : static_cast<double>(rec.measured_failed) /
                                    static_cast<double>(rec.measured_ops));
  m.Num("secondary_read_share",
        rec.read_latency.empty()
            ? 0
            : static_cast<double>(rec.secondary_reads) /
                  static_cast<double>(rec.read_latency.size()));
  return m;
}

JsonObject HostMetrics(const Workload& w, const RunResult& r) {
  JsonObject h;
  h.Num("setup_s", r.setup_s);
  h.Num("setup_wall_s", r.setup_wall_s);
  h.Num("loop_wall_s", r.loop_wall_s);
  const double ops = static_cast<double>(std::max<uint64_t>(1, r.rec.ops));
  h.Num("wall_us_per_op", r.loop_wall_s * 1e6 / ops);
  h.Num("sim_s_per_wall_s", sim::ToSeconds(w.horizon) / r.loop_wall_s);
  h.Num("calibrated_us_per_op", r.calibrated_loop_s * 1e6 / ops);
  h.Num("reference_ns", Median(r.reference_ns));
  h.Num("peak_rss_mb", PeakRssMb());
  return h;
}

JsonObject BaseJson(const std::string& name, uint64_t seed, const Workload& w,
                    const RunResult& r) {
  JsonObject out;
  out.Str("workload", name);
  out.Int("seed", seed);
  out.Num("horizon_s", sim::ToSeconds(w.horizon));
  out.Int("ops", r.rec.ops);
  out.Int("failed", r.rec.failed);
  out.Int("retries", r.rec.retries);
  out.Int("issued", r.issued);
  out.Int("events", r.events);
  out.Int("pending_events_max", r.pending_events_max);
  out.Int("driver_pending_max", r.driver_pending_max);
  out.Int("allocs", r.allocs);
  out.Int("alloc_bytes", r.alloc_bytes);
  char fp[32];
  std::snprintf(fp, sizeof(fp), "%016" PRIx64, r.rec.fingerprint.h);
  out.Str("fingerprint", fp);
  out.Bool("ok", r.ok);
  out.Obj("checks", r.checks);
  out.Obj("host", HostMetrics(w, r));
  out.Obj("sim", SimMetrics(w, r));
  out.Obj("counters", r.counters);
  return out;
}

// --- Unit costs (traced mode) ----------------------------------------------
//
// Direct calls into each layer's public functions, timed from here, on the
// workload's own key types and collection sizes. perfbench/run.py's ledger
// multiplies them by the per-op counts of an untraced run.

volatile uint64_t g_sink = 0;

/// Best of several timing rounds, in ns per call.
template <typename Fn>
double TimeNs(uint64_t calls, Fn&& fn) {
  double best = 1e300;
  for (int round = 0; round < 5; ++round) {
    const Clock::time_point start = Clock::now();
    fn(calls);
    const double ns =
        std::chrono::duration<double, std::nano>(Clock::now() - start).count();
    best = std::min(best, ns / static_cast<double>(calls));
  }
  return best;
}

/// Far-future placeholder events, so a unit-cost loop runs against a heap
/// as deep as the workload's.
void FillBacklog(sim::EventLoop* loop, size_t backlog) {
  for (size_t i = 0; i < backlog; ++i) {
    loop->ScheduleAt(sim::Seconds(1e9) + static_cast<sim::Time>(i), [] {});
  }
}

/// One scheduled-and-fired event: a chain in which every event schedules
/// its successor, with `backlog` other events pending.
double EventNs(size_t backlog) {
  sim::EventLoop loop;
  FillBacklog(&loop, backlog);
  return TimeNs(200000, [&](uint64_t n) {
    uint64_t left = n;
    std::function<void()> step = [&] {
      if (--left > 0) {
        loop.ScheduleAfter(static_cast<sim::Duration>(left % 7), step);
      }
    };
    loop.ScheduleAfter(0, step);
    loop.RunUntil(loop.Now() + sim::Seconds(1e4));
    g_sink = left;
  });
}

/// One network message, Send plus its delivery event: a chain in which
/// every delivery sends the next message.
double SendNs(size_t backlog) {
  sim::EventLoop loop;
  FillBacklog(&loop, backlog);
  net::Network network(&loop, sim::Rng(7));
  const net::HostId a = network.AddHost("a");
  const net::HostId b = network.AddHost("b");
  network.SetLink(a, b, sim::Millis(1), sim::Micros(40));
  return TimeNs(200000, [&](uint64_t n) {
    uint64_t left = n;
    std::function<void()> deliver = [&] {
      if (--left > 0) network.Send(a, b, deliver);
    };
    network.Send(a, b, deliver);
    loop.RunUntil(loop.Now() + sim::Seconds(1e4));
    g_sink = left;
  });
}

/// One pool checkout + check-in (the driver's per-attempt pool step).
double CheckoutNs() {
  sim::EventLoop loop;
  driver::pool::ConnectionPool pool(&loop, driver::pool::PoolOptions{});
  return TimeNs(500000, [&](uint64_t n) {
    for (uint64_t i = 0; i < n; ++i) {
      uint64_t conn = 0;
      pool.CheckOut([&conn](const driver::pool::ConnectionPool::Checkout& co) {
        conn = co.conn_id;
      });
      pool.CheckIn(conn);
    }
  });
}

/// One client command round trip — driver op bookkeeping, pool checkout,
/// command dispatch, CPU queue, reply — against a 3-node replica set with
/// an empty read body, net of the events and messages it fires (the
/// ledger costs those through sim.event_ns and net.send_ns).
double CommandNs(double event_ns, double send_ns) {
  sim::EventLoop loop;
  net::Network network(&loop, sim::Rng(11));
  const net::HostId client_host = network.AddHost("client");
  std::vector<net::HostId> hosts;
  for (int i = 0; i < 3; ++i) {
    hosts.push_back(network.AddHost("node" + std::to_string(i)));
    network.SetLink(client_host, hosts.back(), sim::Millis(1), sim::Micros(40));
  }
  repl::ReplicaSet rs(&loop, sim::Rng(12), &network, repl::ReplicaSetParams{},
                      server::ServerParams{}, hosts);
  // Not started: no replication or monitoring traffic, only the commands.
  driver::MongoClient client(&loop, sim::Rng(13), rs.command_bus(),
                             client_host, driver::ClientOptions{});
  uint64_t events = 0;
  uint64_t messages = 0;
  uint64_t commands = 0;
  const double ns = TimeNs(20000, [&](uint64_t n) {
    uint64_t left = n;
    std::function<void()> issue = [&] {
      if (left == 0) return;
      --left;
      client.Read(driver::ReadPreference::kPrimary,
                  server::OpClass::kPointRead, [](const store::Database&) {},
                  [&](const driver::MongoClient::ReadResult&) { issue(); });
    };
    const uint64_t messages0 = network.messages_delivered();
    issue();
    events += loop.RunAll();
    messages += network.messages_delivered() - messages0;
    commands += n;
  });
  const double c = static_cast<double>(commands);
  return ns - static_cast<double>(events) / c * event_ns -
         static_cast<double>(messages) / c * send_ns;
}

struct StoreCosts {
  double point_find_ns = 0;
  double range_scan_ns = 0;
  double update_ns = 0;
  double compare_ns = 0;
  double load_s = 0;
};

/// Store/doc unit costs on one node's worth of the workload's data.
StoreCosts MeasureStore(const Workload& w) {
  StoreCosts costs;
  store::Database db;
  const Clock::time_point load_start = Clock::now();
  std::string table;
  std::vector<doc::Value> keys;  // lookup keys, workload distribution
  std::vector<std::pair<doc::Value, doc::Value>> ranges;  // 20-doc ranges
  sim::Rng rng(w.config.seed);
  if (w.config.kind == exp::WorkloadKind::kYcsb) {
    workload::YcsbWorkload::Load(w.config.ycsb, &db);
    costs.load_s = SecondsSince(load_start);
    table = w.config.ycsb.table;
    const int64_t records = w.config.ycsb.record_count;
    workload::ScrambledZipfianGenerator chooser(records,
                                                w.config.ycsb.zipfian_theta);
    for (int i = 0; i < 4096; ++i) {
      const int64_t k = chooser.Next(&rng);
      keys.emplace_back(k);
      const int64_t lo = std::min<int64_t>(k, records - 20);
      ranges.emplace_back(doc::Value(lo), doc::Value(lo + 19));
    }
  } else {
    // TPC-C: stock lookups by [w, i] and order-range scans by [w, d, o],
    // the access pattern of Stock Level, the routed read transaction.
    const workload::TpccConfig& t = w.config.tpcc;
    workload::TpccWorkload::Load(t, &db);
    costs.load_s = SecondsSince(load_start);
    table = "stock";
    for (int i = 0; i < 4096; ++i) {
      const int64_t wh = rng.UniformInt(1, t.warehouses);
      const int64_t item = rng.UniformInt(1, t.items);
      keys.emplace_back(doc::Value::List({wh, item}));
      const int64_t d = rng.UniformInt(1, t.districts_per_warehouse);
      const int64_t hi = rng.UniformInt(t.stock_level_orders,
                                        t.initial_orders_per_district);
      ranges.emplace_back(
          doc::Value::List({wh, d, hi - t.stock_level_orders + 1}),
          doc::Value::List({wh, d, hi}));
    }
  }
  store::Collection* coll = db.Get(table);
  store::Collection* range_coll =
      w.config.kind == exp::WorkloadKind::kYcsb ? coll : db.Get("orders");
  if (coll == nullptr || range_coll == nullptr || coll->size() == 0) {
    std::fprintf(stderr, "perfbench: workload collections missing\n");
    std::exit(1);
  }
  const size_t mask = keys.size() - 1;
  costs.point_find_ns = TimeNs(200000, [&](uint64_t n) {
    uint64_t found = 0;
    for (uint64_t i = 0; i < n; ++i) {
      found += coll->FindById(keys[i & mask]) != nullptr;
    }
    g_sink = found;
  });
  costs.range_scan_ns = TimeNs(20000, [&](uint64_t n) {
    uint64_t docs = 0;
    for (uint64_t i = 0; i < n; ++i) {
      const auto& [lo, hi] = ranges[i & mask];
      docs += range_coll->RangeById(lo, hi).size();
    }
    g_sink = docs;
  });
  costs.compare_ns = TimeNs(2000000, [&](uint64_t n) {
    int64_t sum = 0;
    for (uint64_t i = 0; i < n; ++i) {
      sum += keys[i & mask].Compare(keys[(i * 7 + 1) & mask]);
    }
    g_sink = static_cast<uint64_t>(sum);
  });
  // One single-field $set by _id: what a YCSB update costs the primary and
  // what every oplog apply costs a secondary.
  doc::UpdateSpec spec;
  spec.Set("field0", doc::Value(std::string(40, 'u')));
  costs.update_ns = TimeNs(50000, [&](uint64_t n) {
    uint64_t updated = 0;
    for (uint64_t i = 0; i < n; ++i) {
      updated += coll->Update(keys[i & mask], spec);
    }
    g_sink = updated;
  });
  return costs;
}

int RunMode(const std::string& name, uint64_t seed, bool traced) {
  Workload w;
  MakeWorkload(name, seed, DefaultHorizonSeconds(name), &w);
  RunResult r = RunWorkload(w, traced);
  JsonObject out = BaseJson(name, seed, w, r);
  if (traced) {
    JsonObject t;
    for (int k = 0; k < SpanLedger::kKinds; ++k) {
      const auto kind = static_cast<obs::SpanKind>(k);
      t.Num("span." + std::string(obs::ToString(kind)) + "_self_ms_per_op",
            r.spans.self_ns[k] / 1e6 /
                static_cast<double>(std::max<uint64_t>(1, r.rec.ops)));
    }
    t.Num("server.service_ms_mean",
          r.spans.MeanMs(obs::SpanKind::kServerService));
    t.Num("repl.commit_wait_ms_mean",
          r.spans.MeanMs(obs::SpanKind::kCommitWait));
    t.Num("shard.router_ms_mean", r.spans.MeanMs(obs::SpanKind::kRouter));
    t.Int("trace.dropped_spans", r.dropped_spans);
    // Unit costs, after the run so they do not disturb its measurements,
    // calibrated like the loop (by reference runs on either side of them)
    // so that the ledger compares like with like.
    Reference reference;
    std::vector<double> reference_ns;
    for (int i = 0; i < 5; ++i) reference_ns.push_back(reference.RunNs());
    const double event_ns = EventNs(r.pending_events_max);
    const double send_ns = SendNs(r.pending_events_max);
    const double checkout_ns = CheckoutNs();
    const double cmd_ns = CommandNs(event_ns, send_ns);
    const StoreCosts s = MeasureStore(w);
    for (int i = 0; i < 5; ++i) reference_ns.push_back(reference.RunNs());
    const double scale = Reference::kNominalNs / Median(reference_ns);
    t.Num("sim.event_ns", event_ns * scale);
    t.Num("net.send_ns", send_ns * scale);
    t.Num("driver.checkout_ns", checkout_ns * scale);
    t.Num("server.cmd_ns", cmd_ns * scale);
    t.Num("store.point_find_ns", s.point_find_ns * scale);
    t.Num("store.range_scan_ns", s.range_scan_ns * scale);
    t.Num("store.update_ns", s.update_ns * scale);
    t.Num("doc.compare_ns", s.compare_ns * scale);
    t.Num("store.load_s", s.load_s * scale);
    out.Obj("traced", t);
  }
  std::printf("%s\n", out.Text().c_str());
  return r.ok ? 0 : 1;
}

/// A run sliced as the benchmark slices it must reproduce a plain
/// Experiment::Run() over the same horizon: same Summary, same op stream.
int SelfTest(const std::string& name, uint64_t seed) {
  Workload w;
  MakeWorkload(name, seed, 40, &w);
  RunResult sliced = RunWorkload(w, false);

  Recorder plain_rec;
  plain_rec.warmup = w.config.warmup;
  plain_rec.stale_bound = w.stale_bound;
  exp::Experiment plain(w.config);
  plain.SetOpObserver([&](const workload::OpOutcome& o) {
    plain_rec.OnOutcome(plain.loop().Now(), o);
  });
  HookServedAge(&plain, &plain_rec);
  plain.Run();
  const exp::Summary a = sliced.summary;
  const exp::Summary b = plain.Summarize();
  const bool summary_equal =
      a.read_throughput == b.read_throughput &&
      a.p80_read_latency_ms == b.p80_read_latency_ms &&
      a.secondary_percent == b.secondary_percent &&
      a.p80_staleness_s == b.p80_staleness_s &&
      a.max_staleness_s == b.max_staleness_s &&
      a.write_throughput == b.write_throughput &&
      a.total_reads == b.total_reads && a.total_writes == b.total_writes &&
      a.mean_served_age_s == b.mean_served_age_s &&
      a.bound_violations == b.bound_violations;
  const bool fingerprint_equal =
      sliced.rec.fingerprint.h == plain_rec.fingerprint.h &&
      sliced.rec.ops == plain_rec.ops &&
      sliced.rec.served_age == plain_rec.served_age;
  JsonObject out;
  out.Str("workload", name);
  out.Bool("summary_equal", summary_equal);
  out.Bool("fingerprint_equal", fingerprint_equal);
  out.Bool("checks_ok", sliced.ok);
  out.Int("ops", sliced.rec.ops);
  std::printf("%s\n", out.Text().c_str());
  return summary_equal && fingerprint_equal && sliced.ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 4) {
    std::fprintf(stderr,
                 "usage: perfbench_runner run|trace|selftest <workload> "
                 "<seed>\n");
    return 2;
  }
  const std::string mode = argv[1];
  const std::string name = argv[2];
  const uint64_t seed = std::strtoull(argv[3], nullptr, 10);
  Workload probe;
  if (!MakeWorkload(name, seed, 1, &probe)) {
    std::fprintf(stderr, "perfbench_runner: unknown workload %s\n",
                 name.c_str());
    return 2;
  }
  if (mode == "run") return RunMode(name, seed, false);
  if (mode == "trace") return RunMode(name, seed, true);
  if (mode == "selftest") return SelfTest(name, seed);
  std::fprintf(stderr, "perfbench_runner: unknown mode %s\n", mode.c_str());
  return 2;
}
