#include "doc/update.h"

#include <utility>

namespace dcg::doc {
namespace {

// Returns the final path segment and navigates `*parent` to the enclosing
// object, creating intermediates. Returns false on type conflicts.
bool ResolveParent(Value* root, const Path& path, Value** parent,
                   std::string_view* leaf) {
  const size_t n = path.segment_count();
  if (n == 0) {
    *parent = root;
    *leaf = std::string_view();
    return root->is_object();
  }
  Value* cur = root;
  for (size_t i = 0; i + 1 < n; ++i) {
    if (!cur->is_object()) return false;
    const std::string_view head = path.segment_name(i);
    Value* child = cur->Find(head);
    if (child == nullptr) {
      cur->Set(head, Value(Object{}));
      child = cur->Find(head);
    }
    cur = child;
  }
  *parent = cur;
  *leaf = path.segment_name(n - 1);
  return cur->is_object();
}

bool ApplyOne(const UpdateOp& op, Value* target) {
  Value* parent = nullptr;
  std::string_view leaf;
  if (!ResolveParent(target, op.path, &parent, &leaf)) return false;
  switch (op.kind) {
    case UpdateOp::Kind::kSet:
      parent->Set(leaf, op.value);
      return true;
    case UpdateOp::Kind::kInc: {
      if (!op.value.is_number()) return false;
      Value* cur = parent->Find(leaf);
      if (cur == nullptr) {
        parent->Set(leaf, op.value);
        return true;
      }
      if (!cur->is_number()) return false;
      if (cur->is_int64() && op.value.is_int64()) {
        *cur = Value(cur->as_int64() + op.value.as_int64());
      } else {
        *cur = Value(cur->as_number() + op.value.as_number());
      }
      return true;
    }
    case UpdateOp::Kind::kUnset:
      parent->Erase(leaf);
      return true;
    case UpdateOp::Kind::kPush: {
      Value* cur = parent->Find(leaf);
      if (cur == nullptr) {
        parent->Set(leaf, Value(Array{op.value}));
        return true;
      }
      if (!cur->is_array()) return false;
      cur->as_array().push_back(op.value);
      return true;
    }
    case UpdateOp::Kind::kMax: {
      Value* cur = parent->Find(leaf);
      if (cur == nullptr || *cur < op.value) parent->Set(leaf, op.value);
      return true;
    }
    case UpdateOp::Kind::kMin: {
      Value* cur = parent->Find(leaf);
      if (cur == nullptr || *cur > op.value) parent->Set(leaf, op.value);
      return true;
    }
  }
  return false;
}

}  // namespace

UpdateSpec& UpdateSpec::Set(Path path, Value v) {
  ops_.push_back({UpdateOp::Kind::kSet, std::move(path), std::move(v)});
  return *this;
}
UpdateSpec& UpdateSpec::Inc(Path path, Value v) {
  ops_.push_back({UpdateOp::Kind::kInc, std::move(path), std::move(v)});
  return *this;
}
UpdateSpec& UpdateSpec::Unset(Path path) {
  ops_.push_back({UpdateOp::Kind::kUnset, std::move(path), Value()});
  return *this;
}
UpdateSpec& UpdateSpec::Push(Path path, Value v) {
  ops_.push_back({UpdateOp::Kind::kPush, std::move(path), std::move(v)});
  return *this;
}
UpdateSpec& UpdateSpec::Max(Path path, Value v) {
  ops_.push_back({UpdateOp::Kind::kMax, std::move(path), std::move(v)});
  return *this;
}
UpdateSpec& UpdateSpec::Min(Path path, Value v) {
  ops_.push_back({UpdateOp::Kind::kMin, std::move(path), std::move(v)});
  return *this;
}

bool UpdateSpec::Apply(Value* target) const {
  if (!target->is_object()) return false;
  for (const auto& op : ops_) {
    if (!ApplyOne(op, target)) return false;
  }
  return true;
}

}  // namespace dcg::doc
