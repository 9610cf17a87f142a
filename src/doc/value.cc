#include "doc/value.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace dcg::doc {
namespace {

// Splits "a.b.c" at the first dot. Returns {head, rest}; rest is empty for
// the final segment.
std::pair<std::string_view, std::string_view> SplitPath(std::string_view p) {
  const size_t dot = p.find('.');
  if (dot == std::string_view::npos) return {p, {}};
  return {p.substr(0, dot), p.substr(dot + 1)};
}

bool ParseIndex(std::string_view s, size_t* out) {
  size_t v = 0;
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc() || ptr != s.data() + s.size()) return false;
  *out = v;
  return true;
}

void AppendJsonString(const std::string& s, std::string* out) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      default:
        out->push_back(c);
    }
  }
  out->push_back('"');
}

void AppendJson(const Value& v, std::string* out);

void AppendJsonObject(const Object& o, std::string* out) {
  out->push_back('{');
  bool first = true;
  for (const auto& [k, val] : o) {
    if (!first) out->push_back(',');
    first = false;
    AppendJsonString(k, out);
    out->push_back(':');
    AppendJson(val, out);
  }
  out->push_back('}');
}

void AppendJson(const Value& v, std::string* out) {
  switch (v.type()) {
    case Value::Type::kNull:
      *out += "null";
      break;
    case Value::Type::kBool:
      *out += v.as_bool() ? "true" : "false";
      break;
    case Value::Type::kInt64:
      *out += std::to_string(v.as_int64());
      break;
    case Value::Type::kDouble: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.12g", v.as_double());
      *out += buf;
      break;
    }
    case Value::Type::kString:
      AppendJsonString(v.as_string(), out);
      break;
    case Value::Type::kTimestamp:
      *out += "{\"$ts\":" + std::to_string(v.as_timestamp()) + "}";
      break;
    case Value::Type::kArray: {
      out->push_back('[');
      bool first = true;
      for (const auto& item : v.as_array()) {
        if (!first) out->push_back(',');
        first = false;
        AppendJson(item, out);
      }
      out->push_back(']');
      break;
    }
    case Value::Type::kObject:
      AppendJsonObject(v.as_object(), out);
      break;
  }
}

// NaN equals only NaN and sorts below every other number, as in MongoDB;
// -0.0 equals 0.0.
int CompareDoubles(double a, double b) {
  const bool a_nan = std::isnan(a), b_nan = std::isnan(b);
  if (a_nan || b_nan) return a_nan == b_nan ? 0 : (a_nan ? -1 : 1);
  return a < b ? -1 : (a > b ? 1 : 0);
}

// Exact: no lossy cast of `i` to double, so 2^53 + 1 > 2^53 as a double.
int CompareIntDouble(int64_t i, double d) {
  constexpr double kTwoTo63 = 9223372036854775808.0;  // 2^63
  if (std::isnan(d)) return 1;
  if (d >= kTwoTo63) return -1;
  if (d < -kTwoTo63) return 1;
  const double floor = std::floor(d);  // in [-2^63, 2^63): exact as int64
  const auto whole = static_cast<int64_t>(floor);
  if (i != whole) return i < whole ? -1 : 1;
  return floor < d ? -1 : 0;
}

}  // namespace

Value Value::Timestamp(int64_t ns) {
  Value v;
  v.v_ = Ts{ns};
  return v;
}

Value Value::Doc(std::initializer_list<std::pair<std::string, Value>> f) {
  Object o;
  o.reserve(f.size());
  for (const auto& kv : f) o.push_back(kv);
  return Value(std::move(o));
}

Value Value::List(std::initializer_list<Value> items) {
  return Value(Array(items));
}

Value::Type Value::type() const {
  return static_cast<Type>(v_.index());
}

double Value::as_number() const {
  if (is_int64()) return static_cast<double>(as_int64());
  return as_double();
}

const Value* Value::Find(std::string_view field) const {
  if (!is_object()) return nullptr;
  for (const auto& [k, v] : as_object()) {
    if (k == field) return &v;
  }
  return nullptr;
}

Value* Value::Find(std::string_view field) {
  if (!is_object()) return nullptr;
  for (auto& [k, v] : as_object()) {
    if (k == field) return &v;
  }
  return nullptr;
}

const Value* Value::FindPath(std::string_view path) const {
  const Value* cur = this;
  while (!path.empty() && cur != nullptr) {
    auto [head, rest] = SplitPath(path);
    if (cur->is_array()) {
      size_t idx;
      if (!ParseIndex(head, &idx) || idx >= cur->as_array().size()) {
        return nullptr;
      }
      cur = &cur->as_array()[idx];
    } else {
      cur = cur->Find(head);
    }
    path = rest;
  }
  return cur;
}

const Value* Value::FindPath(const Path& path) const {
  const Value* cur = this;
  const size_t n = path.segment_count();
  for (size_t i = 0; i < n && cur != nullptr; ++i) {
    const Path::Segment& seg = path.segment(i);
    if (cur->is_array()) {
      if (!seg.is_index || seg.index >= cur->as_array().size()) return nullptr;
      cur = &cur->as_array()[seg.index];
    } else {
      cur = cur->Find(path.segment_name(i));
    }
  }
  return cur;
}

void Value::Set(std::string_view field, Value v) {
  Value* existing = Find(field);
  if (existing != nullptr) {
    *existing = std::move(v);
    return;
  }
  as_object().emplace_back(std::string(field), std::move(v));
}

void Value::SetPath(std::string_view path, Value v) {
  auto [head, rest] = SplitPath(path);
  if (rest.empty()) {
    Set(head, std::move(v));
    return;
  }
  Value* child = Find(head);
  if (child == nullptr) {
    Set(head, Value(Object{}));
    child = Find(head);
  }
  child->SetPath(rest, std::move(v));
}

bool Value::Erase(std::string_view field) {
  if (!is_object()) return false;
  Object& o = as_object();
  for (auto it = o.begin(); it != o.end(); ++it) {
    if (it->first == field) {
      o.erase(it);
      return true;
    }
  }
  return false;
}

int Value::Compare(const Value& other) const {
  // Numbers (Int64/Double) share a rank and compare numerically; all other
  // types compare by rank first.
  auto rank = [](Type t) {
    switch (t) {
      case Type::kNull:
        return 0;
      case Type::kBool:
        return 1;
      case Type::kInt64:
      case Type::kDouble:
        return 2;
      case Type::kString:
        return 3;
      case Type::kTimestamp:
        return 4;
      case Type::kArray:
        return 5;
      case Type::kObject:
        return 6;
    }
    return 7;
  };
  const int ra = rank(type()), rb = rank(other.type());
  if (ra != rb) return ra < rb ? -1 : 1;
  switch (type()) {
    case Type::kNull:
      return 0;
    case Type::kBool: {
      const int a = as_bool() ? 1 : 0, b = other.as_bool() ? 1 : 0;
      return a - b;
    }
    case Type::kInt64:
      if (other.is_int64()) {
        const int64_t a = as_int64(), b = other.as_int64();
        return a < b ? -1 : (a > b ? 1 : 0);
      }
      return CompareIntDouble(as_int64(), other.as_double());
    case Type::kDouble:
      if (other.is_int64()) {
        return -CompareIntDouble(other.as_int64(), as_double());
      }
      return CompareDoubles(as_double(), other.as_double());
    case Type::kString: {
      const int c = as_string().compare(other.as_string());
      return c < 0 ? -1 : (c > 0 ? 1 : 0);
    }
    case Type::kTimestamp: {
      const int64_t a = as_timestamp(), b = other.as_timestamp();
      return a < b ? -1 : (a > b ? 1 : 0);
    }
    case Type::kArray: {
      const Array& a = as_array();
      const Array& b = other.as_array();
      const size_t n = std::min(a.size(), b.size());
      for (size_t i = 0; i < n; ++i) {
        const int c = a[i].Compare(b[i]);
        if (c != 0) return c;
      }
      return a.size() < b.size() ? -1 : (a.size() > b.size() ? 1 : 0);
    }
    case Type::kObject: {
      const Object& a = as_object();
      const Object& b = other.as_object();
      const size_t n = std::min(a.size(), b.size());
      for (size_t i = 0; i < n; ++i) {
        const int kc = a[i].first.compare(b[i].first);
        if (kc != 0) return kc < 0 ? -1 : 1;
        const int vc = a[i].second.Compare(b[i].second);
        if (vc != 0) return vc;
      }
      return a.size() < b.size() ? -1 : (a.size() > b.size() ? 1 : 0);
    }
  }
  return 0;
}

std::string Value::ToJson() const {
  std::string out;
  AppendJson(*this, &out);
  return out;
}

size_t Value::ApproxSize() const {
  switch (type()) {
    case Type::kNull:
    case Type::kBool:
      return 8;
    case Type::kInt64:
    case Type::kDouble:
    case Type::kTimestamp:
      return 16;
    case Type::kString:
      return 24 + as_string().size();
    case Type::kArray: {
      size_t total = 24;
      for (const auto& v : as_array()) total += v.ApproxSize();
      return total;
    }
    case Type::kObject: {
      size_t total = 24;
      for (const auto& [k, v] : as_object()) total += 24 + k.size() + v.ApproxSize();
      return total;
    }
  }
  return 8;
}

std::string_view TypeName(Value::Type t) {
  switch (t) {
    case Value::Type::kNull:
      return "null";
    case Value::Type::kBool:
      return "bool";
    case Value::Type::kInt64:
      return "int64";
    case Value::Type::kDouble:
      return "double";
    case Value::Type::kString:
      return "string";
    case Value::Type::kTimestamp:
      return "timestamp";
    case Value::Type::kArray:
      return "array";
    case Value::Type::kObject:
      return "object";
  }
  return "unknown";
}

}  // namespace dcg::doc
