#ifndef DCG_OBS_TRACE_H_
#define DCG_OBS_TRACE_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sim/time.h"

namespace dcg::obs {

/// What a span measures. One op decomposes causally:
///   op
///   ├─ attempt (per retry)
///   │   ├─ checkout        pool wait (queueing + establishment)
///   │   ├─ wire            command transit client → server
///   │   ├─ server_parking  afterClusterTime wait on the serving node
///   │   ├─ server_service  CPU queue + service on the serving node
///   │   └─ wire (reply)    reply transit server → client
///   ├─ hedge (speculative second arm, same children as an attempt)
///   └─ commit_wait         w:majority replication ack (writes)
/// With command batching on, an attempt that rides an envelope gains an
///   envelope          coalescing buffer wait + shared pool checkout
/// child covering enqueue → wire send (recorded once per envelope,
/// against the first member's trace).
/// In sharded mode a client op additionally traverses the mongos:
///   router            arrival at shard::Router → merged reply send; the
///                     per-shard sub-ops' own op/attempt spans parent
///                     under it (same trace id), so client→router→shard
///                     legs read as one linked tree.
enum class SpanKind : uint8_t {
  kOp,
  kAttempt,
  kCheckout,
  kWire,
  kServerService,
  kServerParking,
  kHedge,
  kCommitWait,
  kEnvelope,
  kRouter,
};

std::string_view ToString(SpanKind kind);

/// One closed interval of simulated time attributed to a trace. Spans are
/// recorded exactly once, at their end instant, by whichever layer owns
/// the interval — a fixed-size POD so tracing costs one vector append.
struct SpanRecord {
  /// The op id of the operation this span belongs to (trace id).
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  /// Enclosing span (0 = root: the op span itself, or commit_wait which
  /// the repl layer records against the trace directly).
  uint64_t parent_span_id = 0;
  SpanKind kind = SpanKind::kOp;
  sim::Time start = 0;
  sim::Time end = 0;
  /// Replica-set node index the interval ran against (-1 = client-side).
  int node = -1;
  /// Attempt ordinal (0 = first attempt) the span belongs to.
  int attempt = 0;
  bool is_hedge = false;
  bool ok = true;
};

/// Collects SpanRecords for one run. Fully off by default: a disabled
/// tracer records nothing, schedules nothing, and costs one branch per
/// probe site. Span ids come from a plain counter — sim state, never the
/// wall clock or RNG — so enabling tracing cannot perturb a seeded run,
/// and disabled runs replay their determinism goldens bit-identically.
class Tracer {
 public:
  /// Default span cap (~56 MB of records): big enough for minutes of
  /// simulated traffic, small enough not to eat the machine. Spans past
  /// the cap are dropped and counted — never silently.
  static constexpr size_t kDefaultMaxSpans = 1u << 20;

  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void Enable(size_t max_spans = kDefaultMaxSpans) {
    enabled_ = true;
    max_spans_ = max_spans;
    spans_.reserve(std::min(max_spans, size_t{1} << 16));
  }

  /// Stops recording again (keeps the id counter, cap, and any recorded
  /// spans) — benches toggle one tracer on and off to measure the probe
  /// sites' disabled-branch cost against the recording cost on the same
  /// rig, where allocator and code-layout state are held equal.
  void Disable() { enabled_ = false; }

  bool enabled() const { return enabled_; }

  /// Fresh span id (deterministic: a counter, monotone per tracer).
  uint64_t NewSpanId() { return ++next_span_id_; }

  /// Appends one span. No-op when disabled; counted as dropped past the
  /// cap so a truncated trace is visible, not misleading.
  void Record(const SpanRecord& span) {
    if (!enabled_) return;
    if (spans_.size() >= max_spans_) {
      ++dropped_;
      return;
    }
    spans_.push_back(span);
  }

  const std::vector<SpanRecord>& spans() const { return spans_; }
  uint64_t dropped() const { return dropped_; }

  /// Drops recorded spans (keeps enabled state and the id counter, so
  /// span ids stay unique across a run — benches clear per iteration).
  void Clear() {
    spans_.clear();
    dropped_ = 0;
  }

 private:
  bool enabled_ = false;
  size_t max_spans_ = kDefaultMaxSpans;
  uint64_t next_span_id_ = 0;
  uint64_t dropped_ = 0;
  std::vector<SpanRecord> spans_;
};

/// What CheckSpanTree found.
struct SpanTreeCheck {
  /// Traces that recorded their op span: ops that finished.
  uint64_t finished_ops = 0;
  /// Spans of finished ops that break the tree.
  uint64_t violations = 0;
  /// Spans whose trace holds no op span, left unchecked: the spans of
  /// ops still in flight, or of an op that finished without recording
  /// its op span.
  uint64_t unchecked = 0;
  /// The first violation, e.g. "span 7 (wire, trace 3) references a
  /// parent span that was never recorded"; empty when there is none.
  std::string first_violation;
};

/// Checks the span tree of every finished op: each non-root span ends
/// no earlier than it starts, its parent was recorded in the same trace,
/// it hangs off the right kind of parent (attempt/hedge arms under the
/// op span; checkout, envelope, wire and server spans under an arm) and
/// starts no earlier than that parent. Client-closed spans (checkout,
/// envelope, attempt, hedge) also end within it; server-side spans of an
/// abandoned arm may outlive the arm. Spans of ops still in flight are
/// skipped and counted in `unchecked`: their open arms have not been
/// recorded yet. Once every op has finished, `unchecked` must be 0.
SpanTreeCheck CheckSpanTree(const std::vector<SpanRecord>& spans);

class DecisionLog;
struct SloEvent;

/// Writes the recorded spans as Chrome trace-event JSON ("ph":"X"
/// complete events, microsecond timestamps), loadable in Perfetto or
/// chrome://tracing. Each trace id renders as its own thread row, so one
/// op's spans nest visually: checkout ⊆ attempt ⊆ op. When `decisions`
/// is non-null, every Balancer decision appears as a global instant
/// event, aligning fraction moves with the op traffic around them.
/// Returns false on I/O failure.
bool WriteChromeTrace(const Tracer& tracer, const DecisionLog* decisions,
                      const std::string& path);

/// Same, plus SLO alert transitions as global instant events (category
/// "slo"), so pages/resolves line up against the op traffic and fraction
/// moves that caused them.
bool WriteChromeTrace(const Tracer& tracer, const DecisionLog* decisions,
                      const std::vector<SloEvent>* slo_events,
                      const std::string& path);

}  // namespace dcg::obs

#endif  // DCG_OBS_TRACE_H_
