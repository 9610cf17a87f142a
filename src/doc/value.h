#ifndef DCG_DOC_VALUE_H_
#define DCG_DOC_VALUE_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <iterator>
#include <new>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "doc/path.h"

namespace dcg::doc {

class DocPtr;
class Value;

/// The ordered field names of an object: its shape. A Shape is immutable,
/// and the documents a builder makes from one ShapeRef share it, so a field
/// name is stored once per shape instead of once per document.
class Shape {
 public:
  static constexpr size_t npos = static_cast<size_t>(-1);

  explicit Shape(std::vector<std::string> names)
      : size_(static_cast<uint32_t>(names.size())), names_(std::move(names)) {}
  Shape(const Shape&) = delete;
  Shape& operator=(const Shape&) = delete;

  size_t size() const { return size_; }
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
  uint32_t size_;  // names_.size(): Object::size() reads only this word
  std::vector<std::string> names_;
};

/// An intrusively refcounted pointer to an immutable Shape: 8 bytes, where
/// a std::shared_ptr would take 16. The count is not atomic because a
/// document, and so its shape, never leaves the Experiment that built it,
/// and an Experiment runs on one thread.
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

/// An array of values: an 8-byte handle to one block, a header (size and
/// capacity) followed by the elements, or null while empty and unreserved.
/// It keeps the part of std::vector's interface its callers use. Copies are
/// deep and exact-size; growth doubles the capacity, as std::vector does,
/// and a Value built from an Array trims the block to its size.
class Array {
 public:
  Array() = default;
  Array(std::initializer_list<Value> items);
  template <std::input_iterator It>
  Array(It first, It last);
  Array(const Array& o);
  Array(Array&& o) noexcept : b_(std::exchange(o.b_, nullptr)) {}
  Array& operator=(Array o) noexcept {
    std::swap(b_, o.b_);
    return *this;
  }
  ~Array() {
    if (b_ != nullptr) Free();
  }

  size_t size() const { return b_ == nullptr ? 0 : b_->size; }
  size_t capacity() const { return b_ == nullptr ? 0 : b_->capacity; }
  bool empty() const { return size() == 0; }

  Value* data() { return b_ == nullptr ? nullptr : Elements(b_); }
  const Value* data() const { return b_ == nullptr ? nullptr : Elements(b_); }
  Value* begin() { return data(); }
  Value* end();
  const Value* begin() const { return data(); }
  const Value* end() const;
  Value& operator[](size_t i);
  const Value& operator[](size_t i) const;
  Value& back();
  const Value& back() const;

  void reserve(size_t n) {
    if (n > capacity()) Reallocate(n);
  }
  void push_back(const Value& v);
  void push_back(Value&& v);
  template <typename... Args>
  Value& emplace_back(Args&&... args);

 private:
  friend class Object;
  friend class Value;

  // The block's first 8 bytes; the elements follow. Object blocks have an
  // 8-byte header too, so an Object takes over an Array's block in place.
  struct Header {
    uint32_t size;
    uint32_t capacity;
  };
  static Value* Elements(Header* b) { return reinterpret_cast<Value*>(b + 1); }
  static const Value* Elements(const Header* b) {
    return reinterpret_cast<const Value*>(b + 1);
  }

  // Moves the elements into a fresh block of `capacity` slots (at least
  // size()); a block exists afterwards even when `capacity` is 0.
  void Reallocate(size_t capacity);
  // Trims the block to size(); drops it when empty.
  void ShrinkToFit();
  void Free();

  Header* b_ = nullptr;
};

static_assert(sizeof(Array) == 8, "an Array is one pointer");

/// An ordered field -> value map, like a BSON document: an 8-byte handle to
/// one block that holds the ShapeRef (the names) followed by one value per
/// name. Field order is insertion order. Copies share the shape; Set on an
/// existing field assigns in place, while Set on a new field and Erase
/// give only this object a new shape and a new block.
class Object {
 public:
  /// The empty object (no shape, no block).
  Object() = default;
  /// DCG_CHECKs that `values` holds one value per name of `shape`. Takes
  /// over the array's block, trimming it to size if it has spare slots.
  Object(ShapeRef shape, Array values);
  Object(const Object& o);
  Object(Object&& o) noexcept : b_(std::exchange(o.b_, nullptr)) {}
  Object& operator=(Object o) noexcept {
    std::swap(b_, o.b_);
    return *this;
  }
  ~Object() {
    if (b_ != nullptr) Free();
  }

  size_t size() const { return b_ == nullptr ? 0 : b_->shape->size(); }
  const std::string& name(size_t i) const { return b_->shape->name(i); }
  const Value& value(size_t i) const;
  Value& value(size_t i);
  /// The shared shape; null for an object that never had a field.
  const Shape* shape() const {
    return b_ == nullptr ? nullptr : b_->shape.get();
  }

  /// The value of the first field named `field`, or nullptr.
  const Value* Find(std::string_view field) const;
  Value* Find(std::string_view field);
  /// Assigns an existing field in place, or appends a new one.
  void Set(std::string_view field, Value v);
  /// Removes a field. Returns true if it existed.
  bool Erase(std::string_view field);

 private:
  friend class DocPtr;

  // The block's first 8 bytes; size() values follow.
  struct Header {
    ShapeRef shape;
  };
  static_assert(sizeof(Header) == sizeof(Array::Header));
  static Value* Values(Header* b) { return reinterpret_cast<Value*>(b + 1); }
  static const Value* Values(const Header* b) {
    return reinterpret_cast<const Value*>(b + 1);
  }
  // Allocates an uninitialised block of `n` values; the caller constructs
  // the header and the values.
  static Header* Allocate(size_t n);
  void Free();

  Header* b_ = nullptr;
};

static_assert(sizeof(Object) == 8, "an Object is one pointer");

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
///
/// A Value is a 16-byte cell: byte 15 is its tag; null, bool, int64, double
/// and timestamp sit in bytes 0-7; a string of up to kInlineString bytes
/// sits in bytes 0-13 with its length in byte 14, and a longer one in one
/// heap block of exactly its bytes, pointed to by bytes 0-7 with its length
/// in bytes 8-11; an Array or an Object is its 8-byte handle in bytes 0-7.
/// Every owned block is reached through one pointer and nothing points
/// into a cell, so a move copies the 16 bytes and nulls the source.
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

  /// Longest string kept inside the cell.
  static constexpr size_t kInlineString = 14;

  /// Constructs Null.
  Value() noexcept { Init(kNullTag); }
  Value(bool b) noexcept { Init(kBoolTag, uint8_t{b}); }       // NOLINT
  Value(int i) noexcept : Value(static_cast<int64_t>(i)) {}    // NOLINT
  Value(int64_t i) noexcept { Init(kInt64Tag, i); }            // NOLINT
  Value(double d) noexcept { Init(kDoubleTag, d); }            // NOLINT
  Value(const char* s) : Value(std::string_view(s)) {}         // NOLINT
  Value(const std::string& s) : Value(std::string_view(s)) {}  // NOLINT
  Value(std::string_view s) { InitString(s); }                 // NOLINT
  Value(Array a);                                              // NOLINT
  Value(Object o) noexcept {                                   // NOLINT
    Init(kObjectTag);
    new (rep_) Object(std::move(o));
  }

  Value(const Value& o) {
    if (o.owns_block()) {
      CopyBlock(o);
    } else {
      std::memcpy(rep_, o.rep_, sizeof(rep_));
    }
  }
  Value(Value&& o) noexcept {
    std::memcpy(rep_, o.rep_, sizeof(rep_));
    o.rep_[kTagByte] = kNullTag;
  }
  Value& operator=(const Value& o) {
    if (this != &o) *this = Value(o);
    return *this;
  }
  // Takes the source's bytes before releasing this value's blocks, so
  // moving a value out of its own subtree, or onto itself, is safe.
  Value& operator=(Value&& o) noexcept {
    alignas(8) uint8_t taken[sizeof(rep_)];
    std::memcpy(taken, o.rep_, sizeof(rep_));
    o.rep_[kTagByte] = kNullTag;
    if (owns_block()) ReleaseBlock();
    std::memcpy(rep_, taken, sizeof(rep_));
    return *this;
  }
  ~Value() {
    if (owns_block()) ReleaseBlock();
  }

  /// Builds a Timestamp value (nanoseconds of simulated time).
  static Value Timestamp(int64_t ns) {
    Value v;
    v.Init(kTimestampTag, ns);
    return v;
  }

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

  Type type() const { return static_cast<Type>(tag() & kTypeMask); }

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
  // error and aborts, naming both types.
  bool as_bool() const {
    Expect(Type::kBool);
    return rep_[0] != 0;
  }
  int64_t as_int64() const {
    Expect(Type::kInt64);
    return Load<int64_t>(0);
  }
  double as_double() const {
    Expect(Type::kDouble);
    return Load<double>(0);
  }
  /// Numeric value as double regardless of Int64/Double representation.
  double as_number() const;
  /// The string's bytes, valid while this value holds them.
  std::string_view as_string() const {
    Expect(Type::kString);
    return string_bytes();
  }
  int64_t as_timestamp() const {
    Expect(Type::kTimestamp);
    return Load<int64_t>(0);
  }
  const Array& as_array() const {
    Expect(Type::kArray);
    return array();
  }
  Array& as_array() {
    Expect(Type::kArray);
    return array();
  }
  const Object& as_object() const {
    Expect(Type::kObject);
    return object();
  }
  Object& as_object() {
    Expect(Type::kObject);
    return object();
  }

  /// Looks up a direct field of an Object value. Returns nullptr when the
  /// value is not an object or the field is absent.
  const Value* Find(std::string_view field) const {
    return is_object() ? object().Find(field) : nullptr;
  }
  Value* Find(std::string_view field) {
    return is_object() ? object().Find(field) : nullptr;
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

  /// Renders as compact JSON-ish text (timestamps as {"$ts": n}); see
  /// doc/json.h for the writer.
  std::string ToJson() const;

  /// Approximate in-memory footprint in bytes, for the dirty-data
  /// bookkeeping of the disk model. The formula predates the 16-byte cell
  /// and is kept as it is: the disk model's dirty bytes, and so the
  /// simulated checkpoint stalls, are calibrated against it.
  size_t ApproxSize() const;

 private:
  friend class DocPtr;

  static constexpr size_t kLengthByte = 14;  // inline string length
  static constexpr size_t kTagByte = 15;
  static constexpr uint8_t kTypeMask = 0x7;
  // Tags. The low three bits are the Type; a heap string sets bit 3. Tags
  // from kArrayTag up own a block.
  static constexpr uint8_t kNullTag = 0;
  static constexpr uint8_t kBoolTag = 1;
  static constexpr uint8_t kInt64Tag = 2;
  static constexpr uint8_t kDoubleTag = 3;
  static constexpr uint8_t kStringTag = 4;
  static constexpr uint8_t kTimestampTag = 5;
  static constexpr uint8_t kArrayTag = 6;
  static constexpr uint8_t kObjectTag = 7;
  static constexpr uint8_t kHeapStringTag = kStringTag | 0x8;

  uint8_t tag() const { return rep_[kTagByte]; }
  bool owns_block() const { return tag() >= kArrayTag; }

  // Zeroes the cell and sets its tag.
  void Init(uint8_t tag) {
    std::memset(rep_, 0, sizeof(rep_));
    rep_[kTagByte] = tag;
  }
  template <typename T>
  void Init(uint8_t tag, T payload) {
    Init(tag);
    std::memcpy(rep_, &payload, sizeof(payload));
  }
  template <typename T>
  T Load(size_t offset) const {
    T out;
    std::memcpy(&out, rep_ + offset, sizeof(out));
    return out;
  }

  void Expect(Type want) const {
    if (type() != want) [[unlikely]] WrongType(want);
  }
  [[noreturn]] void WrongType(Type want) const;

  // Unchecked views; the tag has been tested.
  std::string_view string_bytes() const {
    if (tag() == kStringTag) {
      return {reinterpret_cast<const char*>(rep_), rep_[kLengthByte]};
    }
    return {Load<const char*>(0), Load<uint32_t>(sizeof(char*))};
  }
  const Array& array() const {
    return *std::launder(reinterpret_cast<const Array*>(rep_));
  }
  Array& array() { return *std::launder(reinterpret_cast<Array*>(rep_)); }
  const Object& object() const {
    return *std::launder(reinterpret_cast<const Object*>(rep_));
  }
  Object& object() { return *std::launder(reinterpret_cast<Object*>(rep_)); }

  // Sets a string: inline up to kInlineString bytes, else one exact block.
  void InitString(std::string_view s);
  // Deep-copies the block of `o` (a heap string, an array or an object).
  void CopyBlock(const Value& o);
  // Frees this value's block; leaves the cell to be overwritten.
  void ReleaseBlock();

  alignas(8) uint8_t rep_[16];
};

static_assert(sizeof(Value) == 16, "a Value is a 16-byte cell");

inline Value* Array::end() { return data() + size(); }
inline const Value* Array::end() const { return data() + size(); }
inline Value& Array::operator[](size_t i) { return Elements(b_)[i]; }
inline const Value& Array::operator[](size_t i) const {
  return Elements(b_)[i];
}
inline Value& Array::back() { return Elements(b_)[b_->size - 1]; }
inline const Value& Array::back() const { return Elements(b_)[b_->size - 1]; }

inline Array::Array(std::initializer_list<Value> items) {
  if (items.size() == 0) return;
  Reallocate(items.size());
  for (const Value& v : items) new (Elements(b_) + b_->size++) Value(v);
}

template <std::input_iterator It>
Array::Array(It first, It last) {
  if constexpr (std::forward_iterator<It>) {
    reserve(static_cast<size_t>(std::distance(first, last)));
  }
  for (; first != last; ++first) push_back(*first);
}

inline void Array::push_back(const Value& v) {
  if (size() == capacity()) {
    Value copy(v);  // `v` may be one of the elements the growth moves
    push_back(std::move(copy));
    return;
  }
  new (Elements(b_) + b_->size++) Value(v);
}

inline void Array::push_back(Value&& v) {
  if (size() == capacity()) {
    Value taken(std::move(v));  // as above
    Reallocate(size() == 0 ? 1 : 2 * size());
    new (Elements(b_) + b_->size++) Value(std::move(taken));
    return;
  }
  new (Elements(b_) + b_->size++) Value(std::move(v));
}

template <typename... Args>
Value& Array::emplace_back(Args&&... args) {
  push_back(Value(std::forward<Args>(args)...));
  return back();
}

inline const Value& Object::value(size_t i) const { return Values(b_)[i]; }
inline Value& Object::value(size_t i) { return Values(b_)[i]; }

inline const Value* Object::Find(std::string_view field) const {
  if (b_ == nullptr) return nullptr;
  const size_t slot = b_->shape->Find(field);
  return slot == Shape::npos ? nullptr : &Values(b_)[slot];
}

inline Value* Object::Find(std::string_view field) {
  return const_cast<Value*>(std::as_const(*this).Find(field));
}

/// A shared immutable document, as a store keeps each version: an 8-byte
/// handle to one block that holds a count, the root cell and, when the root
/// is an object with fields, that object's header and fields. So reading a
/// stored document starts with one miss, on the block, where a
/// std::shared_ptr<const Value> took two (its count's block, then the
/// object's). Nested arrays, objects and heap strings keep their own
/// blocks. The count is not atomic, as ShapeRef's is not: a document never
/// leaves the Experiment that built it, and an Experiment runs on one
/// thread.
class DocPtr {
 public:
  DocPtr() = default;
  DocPtr(std::nullptr_t) noexcept {}  // NOLINT(google-explicit-constructor)
  /// Takes `v` into a fresh block. A root object's shape and fields move
  /// into the block (a field relocates by its bytes, as Value's comment
  /// says), and the object's own block is freed.
  static DocPtr Make(Value v);

  DocPtr(const DocPtr& o) noexcept : b_(o.b_) {
    if (b_ != nullptr) ++b_->refs;
  }
  DocPtr(DocPtr&& o) noexcept : b_(std::exchange(o.b_, nullptr)) {}
  DocPtr& operator=(DocPtr o) noexcept {
    std::swap(b_, o.b_);
    return *this;
  }
  ~DocPtr() {
    if (b_ != nullptr && --b_->refs == 0) Release(b_);
  }

  /// The document, or null.
  const Value* get() const { return b_ == nullptr ? nullptr : &b_->root; }
  const Value& operator*() const { return b_->root; }
  const Value* operator->() const { return &b_->root; }
  explicit operator bool() const { return b_ != nullptr; }
  /// The handles that hold the document; 0 for null. A `long`, as
  /// std::shared_ptr's is.
  long use_count() const {  // NOLINT(google-runtime-int)
    return b_ == nullptr ? 0 : static_cast<long>(b_->refs);  // NOLINT
  }

  friend bool operator==(const DocPtr& a, const DocPtr& b) {
    return a.b_ == b.b_;
  }
  friend bool operator==(const DocPtr& a, std::nullptr_t) {
    return a.b_ == nullptr;
  }

 private:
  // The block's first 24 bytes. A root object's header follows, then its
  // fields, and the root cell's handle points at that header.
  struct Block {
    uint64_t refs;
    Value root;
  };
  static_assert(sizeof(Block) == 24);
  static Object::Header* Embedded(Block* b) {
    return reinterpret_cast<Object::Header*>(b + 1);
  }
  // Destroys the document and frees its block; the count is 0.
  static void Release(Block* b);

  Block* b_ = nullptr;
};

static_assert(sizeof(DocPtr) == 8, "a DocPtr is one pointer");

/// Name of a value type, for error messages and debugging.
std::string_view TypeName(Value::Type t);

}  // namespace dcg::doc

#endif  // DCG_DOC_VALUE_H_
