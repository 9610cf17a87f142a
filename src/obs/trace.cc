#include "obs/trace.h"

#include <cstdio>
#include <unordered_map>
#include <unordered_set>

#include "obs/decision_log.h"
#include "obs/slo.h"

namespace dcg::obs {

std::string_view ToString(SpanKind kind) {
  switch (kind) {
    case SpanKind::kOp:
      return "op";
    case SpanKind::kAttempt:
      return "attempt";
    case SpanKind::kCheckout:
      return "checkout";
    case SpanKind::kWire:
      return "wire";
    case SpanKind::kServerService:
      return "server_service";
    case SpanKind::kServerParking:
      return "server_parking";
    case SpanKind::kHedge:
      return "hedge";
    case SpanKind::kCommitWait:
      return "commit_wait";
    case SpanKind::kEnvelope:
      return "envelope";
    case SpanKind::kRouter:
      return "router";
  }
  return "unknown";
}

namespace {

/// Category shown in the trace UI: which layer recorded the interval.
std::string_view Category(SpanKind kind) {
  switch (kind) {
    case SpanKind::kWire:
      return "net";
    case SpanKind::kServerService:
    case SpanKind::kServerParking:
      return "server";
    case SpanKind::kCommitWait:
      return "repl";
    case SpanKind::kRouter:
      return "shard";
    default:
      return "driver";
  }
}

}  // namespace

SpanTreeCheck CheckSpanTree(const std::vector<SpanRecord>& spans) {
  std::unordered_map<uint64_t, const SpanRecord*> by_id;
  std::unordered_set<uint64_t> finished;
  by_id.reserve(spans.size());
  for (const SpanRecord& s : spans) {
    by_id[s.span_id] = &s;
    if (s.kind == SpanKind::kOp) finished.insert(s.trace_id);
  }
  SpanTreeCheck check;
  check.finished_ops = finished.size();
  const auto violation = [&](const SpanRecord& s, const char* what) {
    if (check.violations++ > 0) return;
    char buf[160];
    std::snprintf(buf, sizeof(buf), "span %llu (%s, trace %llu) %s",
                  static_cast<unsigned long long>(s.span_id),
                  std::string(ToString(s.kind)).c_str(),
                  static_cast<unsigned long long>(s.trace_id), what);
    check.first_violation = buf;
  };
  for (const SpanRecord& s : spans) {
    if (!finished.contains(s.trace_id)) {
      ++check.unchecked;
      continue;
    }
    if (s.end < s.start) violation(s, "ends before it starts");
    // Roots: the op span and the repl layer's commit_wait slice.
    if (s.parent_span_id == 0) continue;
    const auto it = by_id.find(s.parent_span_id);
    if (it == by_id.end()) {
      violation(s, "references a parent span that was never recorded");
      continue;
    }
    const SpanRecord& parent = *it->second;
    if (parent.trace_id != s.trace_id) {
      violation(s, "parent belongs to another trace");
      continue;
    }
    switch (s.kind) {
      case SpanKind::kAttempt:
      case SpanKind::kHedge:
        if (parent.kind != SpanKind::kOp) {
          violation(s, "arm does not parent under the op span");
        }
        break;
      case SpanKind::kCheckout:
      case SpanKind::kEnvelope:
      case SpanKind::kWire:
      case SpanKind::kServerService:
      case SpanKind::kServerParking:
        if (parent.kind != SpanKind::kAttempt &&
            parent.kind != SpanKind::kHedge) {
          violation(s, "does not parent under an attempt/hedge arm");
        }
        break;
      default:
        break;
    }
    if (s.start < parent.start) violation(s, "starts before its parent");
    const bool client_closed =
        s.kind == SpanKind::kCheckout || s.kind == SpanKind::kEnvelope ||
        s.kind == SpanKind::kAttempt || s.kind == SpanKind::kHedge;
    if (client_closed && s.end > parent.end) {
      violation(s, "ends after its parent");
    }
  }
  return check;
}

bool WriteChromeTrace(const Tracer& tracer, const DecisionLog* decisions,
                      const std::string& path) {
  return WriteChromeTrace(tracer, decisions, nullptr, path);
}

bool WriteChromeTrace(const Tracer& tracer, const DecisionLog* decisions,
                      const std::vector<SloEvent>* slo_events,
                      const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  // One synthetic process, one thread per trace id: Perfetto then renders
  // each op as its own row with the spans nested by time containment.
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", f);
  std::fputs(
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
      "\"args\":{\"name\":\"decongestant ops\"}}",
      f);
  for (const SpanRecord& s : tracer.spans()) {
    std::fprintf(
        f,
        ",\n{\"name\":\"%.*s\",\"cat\":\"%.*s\",\"ph\":\"X\","
        "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%llu,"
        "\"args\":{\"span\":%llu,\"parent\":%llu,\"node\":%d,"
        "\"attempt\":%d,\"hedge\":%d,\"ok\":%d}}",
        static_cast<int>(ToString(s.kind).size()), ToString(s.kind).data(),
        static_cast<int>(Category(s.kind).size()), Category(s.kind).data(),
        sim::ToMicros(s.start), sim::ToMicros(s.end - s.start),
        static_cast<unsigned long long>(s.trace_id),
        static_cast<unsigned long long>(s.span_id),
        static_cast<unsigned long long>(s.parent_span_id), s.node, s.attempt,
        s.is_hedge ? 1 : 0, s.ok ? 1 : 0);
  }
  if (decisions != nullptr) {
    for (const BalanceDecision& d : decisions->entries()) {
      std::fprintf(
          f,
          ",\n{\"name\":\"balancer %.2f\\u2192%.2f %.*s\","
          "\"cat\":\"balancer\",\"ph\":\"i\",\"s\":\"g\",\"ts\":%.3f,"
          "\"pid\":1,\"args\":{\"ratio\":%.4f,\"ratio_valid\":%d,"
          "\"published\":%.2f,\"staleness_s\":%lld,\"stale_bound_s\":%lld}}",
          d.from_fraction, d.to_fraction,
          static_cast<int>(ToString(d.reason).size()),
          ToString(d.reason).data(), sim::ToMicros(d.at), d.ratio,
          d.ratio_valid ? 1 : 0, d.published_fraction,
          static_cast<long long>(d.staleness_estimate_s),
          static_cast<long long>(d.stale_bound_s));
    }
  }
  if (slo_events != nullptr) {
    for (const SloEvent& e : *slo_events) {
      std::fprintf(
          f,
          ",\n{\"name\":\"slo %.*s %.*s (%.*s)\",\"cat\":\"slo\","
          "\"ph\":\"i\",\"s\":\"g\",\"ts\":%.3f,\"pid\":1,"
          "\"args\":{\"shard\":%d,\"burn_long\":%.4f,\"burn_short\":%.4f,"
          "\"sli\":%.6f,\"good\":%llu,\"bad\":%llu}}",
          static_cast<int>(e.slo.size()), e.slo.data(),
          static_cast<int>(ToString(e.transition).size()),
          ToString(e.transition).data(),
          static_cast<int>(ToString(e.severity).size()),
          ToString(e.severity).data(), sim::ToMicros(e.at), e.shard,
          e.burn_long, e.burn_short, e.sli,
          static_cast<unsigned long long>(e.good),
          static_cast<unsigned long long>(e.bad));
    }
  }
  std::fputs("\n]}\n", f);
  const bool ok = std::fflush(f) == 0;
  std::fclose(f);
  return ok;
}

}  // namespace dcg::obs
