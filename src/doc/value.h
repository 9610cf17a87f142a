#ifndef DCG_DOC_VALUE_H_
#define DCG_DOC_VALUE_H_

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "doc/path.h"

namespace dcg::doc {

class Value;

/// The ordered field names of an object: its shape. A Shape is immutable,
/// and the documents a builder makes from one ShapeRef share it, so a field
/// name is stored once per shape instead of once per document.
class Shape {
 public:
  static constexpr size_t npos = static_cast<size_t>(-1);

  explicit Shape(std::vector<std::string> names) : names_(std::move(names)) {}
  Shape(const Shape&) = delete;
  Shape& operator=(const Shape&) = delete;

  size_t size() const { return names_.size(); }
  const std::string& name(size_t i) const { return names_[i]; }

  /// Slot of the first field named `field`, or npos. Linear, which is
  /// faster than hashing for the few fields OLTP documents have.
  size_t Find(std::string_view field) const {
    for (size_t i = 0; i < names_.size(); ++i) {
      if (names_[i] == field) return i;
    }
    return npos;
  }

 private:
  friend class ShapeRef;
  uint32_t refs_ = 0;
  std::vector<std::string> names_;
};

/// An intrusively refcounted pointer to an immutable Shape: 8 bytes, where
/// a std::shared_ptr would take 16 and grow every Value to 48. The count is
/// not atomic because a document, and so its shape, never leaves the
/// Experiment that built it, and an Experiment runs on one thread.
class ShapeRef {
 public:
  ShapeRef() = default;
  /// Builds a fresh shape, e.g. ShapeRef({"_id", "name"}).
  explicit ShapeRef(std::vector<std::string> names)
      : p_(new Shape(std::move(names))) {
    p_->refs_ = 1;
  }
  ShapeRef(const ShapeRef& o) noexcept : p_(o.p_) {
    if (p_ != nullptr) ++p_->refs_;
  }
  ShapeRef(ShapeRef&& o) noexcept : p_(std::exchange(o.p_, nullptr)) {}
  ShapeRef& operator=(ShapeRef o) noexcept {
    std::swap(p_, o.p_);
    return *this;
  }
  ~ShapeRef() {
    if (p_ != nullptr && --p_->refs_ == 0) delete p_;
  }

  /// Null for the empty object's default shape.
  const Shape* get() const { return p_; }
  const Shape* operator->() const { return p_; }

 private:
  Shape* p_ = nullptr;
};

/// An ordered field -> value map, like a BSON document: a shared Shape for
/// the names plus one value per name. Field order is insertion order.
/// Copies share the shape; Set on an existing field assigns in place, while
/// Set on a new field and Erase give only this object a new shape.
class Object {
 public:
  /// The empty object (no shape allocated).
  Object() = default;
  /// DCG_CHECKs that `values` holds one value per name of `shape`.
  Object(ShapeRef shape, std::vector<Value> values);

  size_t size() const { return values_.size(); }
  const std::string& name(size_t i) const { return shape_->name(i); }
  const Value& value(size_t i) const;
  Value& value(size_t i);
  /// The shared shape; null for an object that never had a field.
  const Shape* shape() const { return shape_.get(); }

  /// The value of the first field named `field`, or nullptr.
  const Value* Find(std::string_view field) const;
  Value* Find(std::string_view field);
  /// Assigns an existing field in place, or appends a new one.
  void Set(std::string_view field, Value v);
  /// Removes a field. Returns true if it existed.
  bool Erase(std::string_view field);

 private:
  ShapeRef shape_;
  std::vector<Value> values_;
};

static_assert(sizeof(Object) <= 32, "Object must keep Value at 40 bytes");

/// An array of values.
using Array = std::vector<Value>;

/// The scalar/document value model of the store ("mongolite").
///
/// Supported types, in canonical sort order:
///   Null < Bool < Number (Int64 and Double compare numerically and
///        exactly; NaN equals only NaN and sorts below every other number)
///        < String < Timestamp < Array < Object
///
/// The order is total, and doc::KeyString encodes it as bytes.
///
/// Timestamp is distinct from Int64 so replication optimes and S-workload
/// probe payloads are self-describing; it holds nanoseconds of simulated
/// time.
class Value {
 public:
  enum class Type {
    kNull = 0,
    kBool,
    kInt64,
    kDouble,
    kString,
    kTimestamp,
    kArray,
    kObject,
  };

  /// Constructs Null.
  Value() : v_(std::monostate{}) {}
  Value(bool b) : v_(b) {}                    // NOLINT(google-explicit-*)
  Value(int i) : v_(static_cast<int64_t>(i)) {}   // NOLINT
  Value(int64_t i) : v_(i) {}                 // NOLINT
  Value(double d) : v_(d) {}                  // NOLINT
  Value(const char* s) : v_(std::string(s)) {}    // NOLINT
  Value(std::string s) : v_(std::move(s)) {}  // NOLINT
  Value(Array a) : v_(std::move(a)) {}        // NOLINT
  Value(Object o) : v_(std::move(o)) {}       // NOLINT

  /// Builds a Timestamp value (nanoseconds of simulated time).
  static Value Timestamp(int64_t ns);

  /// Builds an Object with a fresh shape from an initializer list of
  /// fields, e.g.
  ///   Value::Doc({{"_id", 7}, {"name", "x"}})
  static Value Doc(std::initializer_list<std::pair<std::string, Value>> f);

  /// Builds an Object that shares `shape`, one value per name in order:
  ///   Value::Doc(item_shape, {7, "x"})
  /// DCG_CHECKs the value count. Hot builders hold their shapes so the
  /// documents they make share them.
  static Value Doc(const ShapeRef& shape, std::initializer_list<Value> values);

  /// Builds an Array.
  static Value List(std::initializer_list<Value> items);

  Type type() const { return static_cast<Type>(v_.index()); }

  bool is_null() const { return type() == Type::kNull; }
  bool is_bool() const { return type() == Type::kBool; }
  bool is_int64() const { return type() == Type::kInt64; }
  bool is_double() const { return type() == Type::kDouble; }
  bool is_number() const { return is_int64() || is_double(); }
  bool is_string() const { return type() == Type::kString; }
  bool is_timestamp() const { return type() == Type::kTimestamp; }
  bool is_array() const { return type() == Type::kArray; }
  bool is_object() const { return type() == Type::kObject; }

  // Accessors. Calling the wrong accessor for the held type is a programming
  // error and throws std::bad_variant_access.
  bool as_bool() const { return std::get<bool>(v_); }
  int64_t as_int64() const { return std::get<int64_t>(v_); }
  double as_double() const { return std::get<double>(v_); }
  /// Numeric value as double regardless of Int64/Double representation.
  double as_number() const;
  const std::string& as_string() const { return std::get<std::string>(v_); }
  int64_t as_timestamp() const { return std::get<Ts>(v_).ns; }
  const Array& as_array() const { return std::get<Array>(v_); }
  Array& as_array() { return std::get<Array>(v_); }
  const Object& as_object() const { return std::get<Object>(v_); }
  Object& as_object() { return std::get<Object>(v_); }

  /// Looks up a direct field of an Object value. Returns nullptr when the
  /// value is not an object or the field is absent.
  const Value* Find(std::string_view field) const {
    const Object* o = std::get_if<Object>(&v_);
    return o == nullptr ? nullptr : o->Find(field);
  }
  Value* Find(std::string_view field) {
    Object* o = std::get_if<Object>(&v_);
    return o == nullptr ? nullptr : o->Find(field);
  }

  /// Looks up a dotted path ("a.b.c"); also indexes into arrays when a path
  /// segment is a decimal number. Returns nullptr when absent.
  const Value* FindPath(std::string_view path) const;

  /// Same lookup over a pre-compiled path — no per-call tokenization. The
  /// hot query paths (filters, sorts, index maintenance) use this overload.
  const Value* FindPath(const Path& path) const;

  /// Exact-match overloads so string literals and std::string arguments stay
  /// unambiguous between the string_view and Path overloads (each is one
  /// implicit conversion away from both).
  const Value* FindPath(const char* path) const {
    return FindPath(std::string_view(path));
  }
  const Value* FindPath(const std::string& path) const {
    return FindPath(std::string_view(path));
  }

  /// Sets a direct field on an Object value (appends or overwrites).
  /// Requires the value to be an Object.
  void Set(std::string_view field, Value v);

  /// Sets a dotted path, creating intermediate objects as needed.
  /// Requires the value (and every existing intermediate) to be an Object.
  void SetPath(std::string_view path, Value v);

  /// Removes a direct field. Returns true if it existed.
  bool Erase(std::string_view field);

  /// Canonical total-order comparison (see class comment).
  /// Returns <0, 0, >0.
  int Compare(const Value& other) const;

  bool operator==(const Value& o) const { return Compare(o) == 0; }
  bool operator!=(const Value& o) const { return Compare(o) != 0; }
  bool operator<(const Value& o) const { return Compare(o) < 0; }
  bool operator<=(const Value& o) const { return Compare(o) <= 0; }
  bool operator>(const Value& o) const { return Compare(o) > 0; }
  bool operator>=(const Value& o) const { return Compare(o) >= 0; }

  /// Renders as compact JSON-ish text (timestamps as {"$ts": n}).
  std::string ToJson() const;

  /// Approximate in-memory footprint in bytes, for the dirty-data
  /// bookkeeping of the disk model.
  size_t ApproxSize() const;

 private:
  struct Ts {
    int64_t ns;
  };
  using Repr = std::variant<std::monostate, bool, int64_t, double, std::string,
                            Ts, Array, Object>;

  Repr v_;
};

static_assert(sizeof(Value) == 40, "Value is 40 bytes: keep Object at 32");

inline const Value& Object::value(size_t i) const { return values_[i]; }
inline Value& Object::value(size_t i) { return values_[i]; }

inline const Value* Object::Find(std::string_view field) const {
  if (shape_.get() == nullptr) return nullptr;
  const size_t slot = shape_->Find(field);
  return slot == Shape::npos ? nullptr : &values_[slot];
}

inline Value* Object::Find(std::string_view field) {
  return const_cast<Value*>(std::as_const(*this).Find(field));
}

/// Name of a value type, for error messages and debugging.
std::string_view TypeName(Value::Type t);

}  // namespace dcg::doc

#endif  // DCG_DOC_VALUE_H_
