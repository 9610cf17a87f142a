#include "doc/value.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>

#include "util/check.h"

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
  for (size_t i = 0; i < o.size(); ++i) {
    if (i != 0) out->push_back(',');
    AppendJsonString(o.name(i), out);
    out->push_back(':');
    AppendJson(o.value(i), out);
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

Object::Object(ShapeRef shape, std::vector<Value> values)
    : shape_(std::move(shape)), values_(std::move(values)) {
  const size_t names = shape_.get() == nullptr ? 0 : shape_->size();
  DCG_CHECK_MSG(values_.size() == names, "%zu values for a shape of %zu names",
                values_.size(), names);
}

void Object::Set(std::string_view field, Value v) {
  if (Value* existing = Find(field); existing != nullptr) {
    *existing = std::move(v);
    return;
  }
  std::vector<std::string> names;
  names.reserve(size() + 1);
  for (size_t i = 0; i < size(); ++i) names.push_back(name(i));
  names.emplace_back(field);
  shape_ = ShapeRef(std::move(names));
  values_.push_back(std::move(v));
}

bool Object::Erase(std::string_view field) {
  if (shape_.get() == nullptr) return false;
  const size_t slot = shape_->Find(field);
  if (slot == Shape::npos) return false;
  std::vector<std::string> names;
  names.reserve(size() - 1);
  for (size_t i = 0; i < size(); ++i) {
    if (i != slot) names.push_back(name(i));
  }
  shape_ = ShapeRef(std::move(names));
  values_.erase(values_.begin() + static_cast<std::ptrdiff_t>(slot));
  return true;
}

Value Value::Timestamp(int64_t ns) {
  Value v;
  v.v_ = Ts{ns};
  return v;
}

Value Value::Doc(std::initializer_list<std::pair<std::string, Value>> f) {
  std::vector<std::string> names;
  std::vector<Value> values;
  names.reserve(f.size());
  values.reserve(f.size());
  for (const auto& [name, value] : f) {
    names.push_back(name);
    values.push_back(value);
  }
  return Value(Object(ShapeRef(std::move(names)), std::move(values)));
}

Value Value::Doc(const ShapeRef& shape, std::initializer_list<Value> values) {
  return Value(Object(shape, std::vector<Value>(values)));
}

Value Value::List(std::initializer_list<Value> items) {
  return Value(Array(items));
}

double Value::as_number() const {
  if (is_int64()) return static_cast<double>(as_int64());
  return as_double();
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
  as_object().Set(field, std::move(v));
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
  return is_object() && as_object().Erase(field);
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
        const int kc = a.name(i).compare(b.name(i));
        if (kc != 0) return kc < 0 ? -1 : 1;
        const int vc = a.value(i).Compare(b.value(i));
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
      const Object& o = as_object();
      size_t total = 24;
      for (size_t i = 0; i < o.size(); ++i) {
        total += 24 + o.name(i).size() + o.value(i).ApproxSize();
      }
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
