#include "doc/value.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "doc/json.h"
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

Array::Array(const Array& o) {
  if (o.empty()) return;
  Reallocate(o.size());
  for (const Value& v : o) new (Elements(b_) + b_->size++) Value(v);
}

void Array::Reallocate(size_t capacity) {
  DCG_CHECK_MSG(capacity <= UINT32_MAX, "array of %zu elements", capacity);
  auto* b = static_cast<Header*>(
      ::operator new(sizeof(Header) + capacity * sizeof(Value)));
  b->size = static_cast<uint32_t>(size());
  b->capacity = static_cast<uint32_t>(capacity);
  if (b_ != nullptr) {
    // A Value relocates by its bytes (see the class comment).
    std::memcpy(static_cast<void*>(Elements(b)), Elements(b_),
                b_->size * sizeof(Value));
    ::operator delete(b_);
  }
  b_ = b;
}

void Array::ShrinkToFit() {
  if (size() == capacity()) return;
  if (empty()) {
    ::operator delete(std::exchange(b_, nullptr));
    return;
  }
  Reallocate(size());
}

void Array::Free() {
  Value* elems = Elements(b_);
  for (uint32_t i = 0; i < b_->size; ++i) elems[i].~Value();
  ::operator delete(b_);
}

Object::Header* Object::Allocate(size_t n) {
  return static_cast<Header*>(
      ::operator new(sizeof(Header) + n * sizeof(Value)));
}

Object::Object(ShapeRef shape, Array values) {
  const size_t names = shape.get() == nullptr ? 0 : shape->size();
  DCG_CHECK_MSG(values.size() == names, "%zu values for a shape of %zu names",
                values.size(), names);
  if (shape.get() == nullptr) return;  // the empty object has no block
  if (values.b_ == nullptr || values.capacity() != names) {
    values.Reallocate(names);
  }
  // The array's 8-byte header becomes the ShapeRef; the values stay.
  b_ = new (std::exchange(values.b_, nullptr)) Header{std::move(shape)};
}

Object::Object(const Object& o) {
  if (o.b_ == nullptr) return;
  const size_t n = o.size();
  Header* b = Allocate(n);
  new (b) Header{o.b_->shape};
  for (size_t i = 0; i < n; ++i) new (Values(b) + i) Value(o.value(i));
  b_ = b;
}

void Object::Free() {
  const size_t n = size();
  for (size_t i = 0; i < n; ++i) Values(b_)[i].~Value();
  b_->~Header();
  ::operator delete(b_);
}

void Object::Set(std::string_view field, Value v) {
  if (Value* existing = Find(field); existing != nullptr) {
    *existing = std::move(v);
    return;
  }
  const size_t n = size();
  std::vector<std::string> names;
  names.reserve(n + 1);
  for (size_t i = 0; i < n; ++i) names.push_back(name(i));
  names.emplace_back(field);
  Header* b = Allocate(n + 1);
  if (n != 0) {
    std::memcpy(static_cast<void*>(Values(b)), Values(b_), n * sizeof(Value));
  }
  new (Values(b) + n) Value(std::move(v));
  new (b) Header{ShapeRef(std::move(names))};
  if (b_ != nullptr) {  // its values now live in `b`
    b_->~Header();
    ::operator delete(b_);
  }
  b_ = b;
}

bool Object::Erase(std::string_view field) {
  if (b_ == nullptr) return false;
  const size_t slot = b_->shape->Find(field);
  if (slot == Shape::npos) return false;
  const size_t n = size();
  std::vector<std::string> names;
  names.reserve(n - 1);
  for (size_t i = 0; i < n; ++i) {
    if (i != slot) names.push_back(name(i));
  }
  Header* b = Allocate(n - 1);
  Value* from = Values(b_);
  from[slot].~Value();
  std::memcpy(static_cast<void*>(Values(b)), from, slot * sizeof(Value));
  std::memcpy(static_cast<void*>(Values(b) + slot), from + slot + 1,
              (n - 1 - slot) * sizeof(Value));
  new (b) Header{ShapeRef(std::move(names))};
  b_->~Header();
  ::operator delete(b_);
  b_ = b;
  return true;
}

void Value::InitString(std::string_view s) {
  if (s.size() <= kInlineString) {
    Init(kStringTag);
    // An empty view's data() may be null, which memcpy must not get.
    if (!s.empty()) std::memcpy(rep_, s.data(), s.size());
    rep_[kLengthByte] = static_cast<uint8_t>(s.size());
    return;
  }
  DCG_CHECK_MSG(s.size() <= UINT32_MAX, "string of %zu bytes", s.size());
  char* chars = static_cast<char*>(::operator new(s.size()));
  std::memcpy(chars, s.data(), s.size());
  Init(kHeapStringTag, chars);
  const auto size = static_cast<uint32_t>(s.size());
  std::memcpy(rep_ + sizeof(char*), &size, sizeof(size));
}

Value::Value(Array a) {
  a.ShrinkToFit();
  Init(kArrayTag);
  new (rep_) Array(std::move(a));
}

void Value::CopyBlock(const Value& o) {
  switch (o.tag()) {
    case kArrayTag:
      Init(kArrayTag);
      new (rep_) Array(o.array());
      return;
    case kObjectTag:
      Init(kObjectTag);
      new (rep_) Object(o.object());
      return;
    default:
      InitString(o.string_bytes());
  }
}

void Value::ReleaseBlock() {
  switch (tag()) {
    case kArrayTag:
      array().~Array();
      return;
    case kObjectTag:
      object().~Object();
      return;
    default:
      ::operator delete(const_cast<char*>(Load<const char*>(0)));
  }
}

void Value::WrongType(Type want) const {
  const std::string_view held = TypeName(type()), wanted = TypeName(want);
  std::fprintf(stderr, "doc::Value holds %.*s, not %.*s\n",
               static_cast<int>(held.size()), held.data(),
               static_cast<int>(wanted.size()), wanted.data());
  std::abort();
}

Value Value::Doc(std::initializer_list<std::pair<std::string, Value>> f) {
  std::vector<std::string> names;
  Array values;
  names.reserve(f.size());
  values.reserve(f.size());
  for (const auto& [name, value] : f) {
    names.push_back(name);
    values.push_back(value);
  }
  return Value(Object(ShapeRef(std::move(names)), std::move(values)));
}

Value Value::Doc(const ShapeRef& shape, std::initializer_list<Value> values) {
  return Value(Object(shape, Array(values)));
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
      if (!ParseIndex(head, &idx) || idx >= cur->array().size()) {
        return nullptr;
      }
      cur = &cur->array()[idx];
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
      if (!seg.is_index || seg.index >= cur->array().size()) return nullptr;
      cur = &cur->array()[seg.index];
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
  return is_object() && object().Erase(field);
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
  // Both types are known from here on: read the cells unchecked.
  switch (type()) {
    case Type::kNull:
      return 0;
    case Type::kBool:
      return rep_[0] - other.rep_[0];
    case Type::kInt64:
      if (other.is_int64()) {
        const auto a = Load<int64_t>(0), b = other.Load<int64_t>(0);
        return a < b ? -1 : (a > b ? 1 : 0);
      }
      return CompareIntDouble(Load<int64_t>(0), other.Load<double>(0));
    case Type::kDouble:
      if (other.is_int64()) {
        return -CompareIntDouble(other.Load<int64_t>(0), Load<double>(0));
      }
      return CompareDoubles(Load<double>(0), other.Load<double>(0));
    case Type::kString: {
      const int c = string_bytes().compare(other.string_bytes());
      return c < 0 ? -1 : (c > 0 ? 1 : 0);
    }
    case Type::kTimestamp: {
      const auto a = Load<int64_t>(0), b = other.Load<int64_t>(0);
      return a < b ? -1 : (a > b ? 1 : 0);
    }
    case Type::kArray: {
      const Array& a = array();
      const Array& b = other.array();
      const size_t n = std::min(a.size(), b.size());
      for (size_t i = 0; i < n; ++i) {
        const int c = a[i].Compare(b[i]);
        if (c != 0) return c;
      }
      return a.size() < b.size() ? -1 : (a.size() > b.size() ? 1 : 0);
    }
    case Type::kObject: {
      const Object& a = object();
      const Object& b = other.object();
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
  struct Appender {
    void Put(char c) { out.push_back(c); }
    void Put(std::string_view s) { out.append(s); }
    std::string out;
  } sink;
  WriteJson(*this, &sink);
  return std::move(sink.out);
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

DocPtr DocPtr::Make(Value v) {
  DocPtr out;
  if (!v.is_object() || v.object().b_ == nullptr) {
    out.b_ = new (::operator new(sizeof(Block))) Block{1, std::move(v)};
    return out;
  }
  Object& o = v.object();
  const size_t n = o.size();
  void* mem = ::operator new(sizeof(Block) + sizeof(Object::Header) +
                             n * sizeof(Value));
  Object::Header* h = Embedded(static_cast<Block*>(mem));
  new (h) Object::Header{std::move(o.b_->shape)};
  std::memcpy(static_cast<void*>(Object::Values(h)), Object::Values(o.b_),
              n * sizeof(Value));
  o.b_->~Header();
  ::operator delete(std::exchange(o.b_, h));
  out.b_ = new (mem) Block{1, std::move(v)};
  return out;
}

void DocPtr::Release(Block* b) {
  Object::Header* h = Embedded(b);
  if (b->root.tag() == Value::kObjectTag && b->root.object().b_ == h) {
    // The fields live in this block: destroy them and the shape, but not
    // the root cell, which would free the header as a block of its own.
    const size_t n = h->shape->size();
    for (size_t i = 0; i < n; ++i) Object::Values(h)[i].~Value();
    h->~Header();
  } else {
    b->root.~Value();
  }
  ::operator delete(b);
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
