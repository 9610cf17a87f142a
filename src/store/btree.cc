#include "store/btree.h"

#include <algorithm>
#include <iterator>
#include <utility>

#include "util/check.h"

namespace dcg::store {

using doc::KeyString;

namespace {
// Fanout: a node's 16 encoded keys span four cache lines.
constexpr size_t kMaxLeafKeys = 16;
constexpr size_t kMinLeafKeys = kMaxLeafKeys / 2;
constexpr size_t kMaxChildren = 16;
constexpr size_t kMinChildren = kMaxChildren / 2;
}  // namespace

struct BTree::Node {
  // Room for one entry past the maximum (a node splits after the insert
  // that overfills it), so a node's vectors do not reallocate as it fills.
  explicit Node(bool is_leaf) : leaf(is_leaf) {
    if (leaf) {
      keys.reserve(kMaxLeafKeys + 1);
      key_values.reserve(kMaxLeafKeys + 1);
      payloads.reserve(kMaxLeafKeys + 1);
    } else {
      keys.reserve(kMaxChildren);
      children.reserve(kMaxChildren + 1);
    }
  }

  bool leaf;
  // Leaf: the keys' encodings. Internal: separators, keys.size() + 1
  // children.
  std::vector<KeyString> keys;
  std::vector<Key> key_values;  // leaf only, parallel to keys
  std::vector<Payload> payloads;  // leaf only, parallel to keys
  std::vector<std::unique_ptr<Node>> children;  // internal only
  Node* next = nullptr;  // leaf chain
  Node* prev = nullptr;
};

namespace {

// Index of the first key >= `probe`.
size_t LowerIndex(const std::vector<KeyString>& keys, const KeyString& probe) {
  size_t lo = 0, hi = keys.size();
  while (lo < hi) {
    const size_t mid = (lo + hi) / 2;
    if (KeyString::Compare(keys[mid], probe) < 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

// Index of the first key > `probe`: the child of an internal node whose
// range holds `probe`.
size_t UpperIndex(const std::vector<KeyString>& keys, const KeyString& probe) {
  size_t lo = 0, hi = keys.size();
  while (lo < hi) {
    const size_t mid = (lo + hi) / 2;
    if (KeyString::Compare(probe, keys[mid]) < 0) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

// The leaf whose range holds `probe`; `NodeT` is Node or const Node.
template <typename NodeT>
NodeT* DescendToLeaf(NodeT* node, const KeyString& probe) {
  while (!node->leaf) {
    node = node->children[UpperIndex(node->keys, probe)].get();
  }
  return node;
}

// Moves the elements [from, end) of `src` to the back of `dst`.
template <typename T>
void MoveTail(std::vector<T>* src, size_t from, std::vector<T>* dst) {
  dst->insert(dst->end(), std::make_move_iterator(src->begin() + from),
              std::make_move_iterator(src->end()));
  src->resize(from);
}

}  // namespace

struct BTree::InsertResult {
  enum class Outcome { kNew, kReplaced, kNoop };

  explicit InsertResult(Outcome o) : outcome(o) {}

  Outcome outcome;
  bool split = false;
  KeyString sep;                 // valid when split
  std::unique_ptr<Node> right;   // valid when split
};

BTree::BTree() : root_(std::make_unique<Node>(/*is_leaf=*/true)) {}
BTree::~BTree() = default;
BTree::BTree(BTree&&) noexcept = default;
BTree& BTree::operator=(BTree&&) noexcept = default;

BTree::InsertResult BTree::InsertRec(Node* node, KeyString& encoded, Key& key,
                                     Payload payload, Payload* replaced) {
  if (node->leaf) {
    const size_t pos = LowerIndex(node->keys, encoded);
    if (pos < node->keys.size() && node->keys[pos] == encoded) {
      if (replaced == nullptr) {
        return InsertResult(InsertResult::Outcome::kNoop);
      }
      *replaced = std::exchange(node->payloads[pos], std::move(payload));
      return InsertResult(InsertResult::Outcome::kReplaced);
    }
    node->keys.insert(node->keys.begin() + pos, std::move(encoded));
    node->key_values.insert(node->key_values.begin() + pos, std::move(key));
    node->payloads.insert(node->payloads.begin() + pos, std::move(payload));
    InsertResult result{InsertResult::Outcome::kNew};
    if (node->keys.size() > kMaxLeafKeys) {
      auto right = std::make_unique<Node>(/*is_leaf=*/true);
      const size_t mid = node->keys.size() / 2;
      MoveTail(&node->keys, mid, &right->keys);
      MoveTail(&node->key_values, mid, &right->key_values);
      MoveTail(&node->payloads, mid, &right->payloads);
      right->next = node->next;
      right->prev = node;
      if (node->next != nullptr) node->next->prev = right.get();
      node->next = right.get();
      result.split = true;
      result.sep = right->keys.front();
      result.right = std::move(right);
    }
    return result;
  }

  const size_t idx = UpperIndex(node->keys, encoded);
  InsertResult child_result = InsertRec(node->children[idx].get(), encoded,
                                        key, std::move(payload), replaced);
  InsertResult result{child_result.outcome};
  if (child_result.split) {
    node->keys.insert(node->keys.begin() + idx, std::move(child_result.sep));
    node->children.insert(node->children.begin() + idx + 1,
                          std::move(child_result.right));
    if (node->children.size() > kMaxChildren) {
      const size_t mid = node->keys.size() / 2;  // key promoted upward
      auto right = std::make_unique<Node>(/*is_leaf=*/false);
      result.sep = std::move(node->keys[mid]);
      MoveTail(&node->keys, mid + 1, &right->keys);
      node->keys.resize(mid);
      MoveTail(&node->children, mid + 1, &right->children);
      result.split = true;
      result.right = std::move(right);
    }
  }
  return result;
}

bool BTree::InsertImpl(Key key, Payload payload, Payload* replaced) {
  KeyString encoded = KeyString::Encode(key);
  InsertResult r =
      InsertRec(root_.get(), encoded, key, std::move(payload), replaced);
  if (r.split) {
    auto new_root = std::make_unique<Node>(/*is_leaf=*/false);
    new_root->keys.push_back(std::move(r.sep));
    new_root->children.push_back(std::move(root_));
    new_root->children.push_back(std::move(r.right));
    root_ = std::move(new_root);
  }
  if (r.outcome == InsertResult::Outcome::kNew) {
    ++size_;
    return true;
  }
  return false;
}

bool BTree::Upsert(Key key, Payload payload, Payload* replaced) {
  Payload discarded;
  return InsertImpl(std::move(key), std::move(payload),
                    replaced != nullptr ? replaced : &discarded);
}

bool BTree::Insert(Key key, Payload payload) {
  return InsertImpl(std::move(key), std::move(payload), /*replaced=*/nullptr);
}

BTree::Payload BTree::Find(const Key& key) const {
  const KeyString encoded = KeyString::Encode(key);
  const Node* leaf = DescendToLeaf(root_.get(), encoded);
  const size_t pos = LowerIndex(leaf->keys, encoded);
  if (pos < leaf->keys.size() && leaf->keys[pos] == encoded) {
    return leaf->payloads[pos];
  }
  return nullptr;
}

BTree::Payload* BTree::FindSlot(const Key& key) {
  const KeyString encoded = KeyString::Encode(key);
  Node* leaf = DescendToLeaf(root_.get(), encoded);
  const size_t pos = LowerIndex(leaf->keys, encoded);
  if (pos < leaf->keys.size() && leaf->keys[pos] == encoded) {
    return &leaf->payloads[pos];
  }
  return nullptr;
}

void BTree::FixUnderflow(Node* parent, size_t child_idx) {
  Node* child = parent->children[child_idx].get();
  auto has_spare = [](const Node* n) {
    return n->leaf ? n->keys.size() > kMinLeafKeys
                   : n->children.size() > kMinChildren;
  };
  // Moves the last leaf entry of `from` to the front of `to`, or the first
  // entry of `from` to the back of `to`.
  auto borrow_back = [](Node* from, Node* to) {
    to->keys.insert(to->keys.begin(), std::move(from->keys.back()));
    to->key_values.insert(to->key_values.begin(),
                          std::move(from->key_values.back()));
    to->payloads.insert(to->payloads.begin(), std::move(from->payloads.back()));
    from->keys.pop_back();
    from->key_values.pop_back();
    from->payloads.pop_back();
  };
  auto borrow_front = [](Node* from, Node* to) {
    to->keys.push_back(std::move(from->keys.front()));
    to->key_values.push_back(std::move(from->key_values.front()));
    to->payloads.push_back(std::move(from->payloads.front()));
    from->keys.erase(from->keys.begin());
    from->key_values.erase(from->key_values.begin());
    from->payloads.erase(from->payloads.begin());
  };

  if (child_idx > 0) {
    Node* left = parent->children[child_idx - 1].get();
    if (has_spare(left)) {
      if (child->leaf) {
        borrow_back(left, child);
        parent->keys[child_idx - 1] = child->keys.front();
      } else {
        child->keys.insert(child->keys.begin(),
                           std::move(parent->keys[child_idx - 1]));
        parent->keys[child_idx - 1] = std::move(left->keys.back());
        left->keys.pop_back();
        child->children.insert(child->children.begin(),
                               std::move(left->children.back()));
        left->children.pop_back();
      }
      return;
    }
  }
  if (child_idx + 1 < parent->children.size()) {
    Node* right = parent->children[child_idx + 1].get();
    if (has_spare(right)) {
      if (child->leaf) {
        borrow_front(right, child);
        parent->keys[child_idx] = right->keys.front();
      } else {
        child->keys.push_back(std::move(parent->keys[child_idx]));
        parent->keys[child_idx] = std::move(right->keys.front());
        right->keys.erase(right->keys.begin());
        child->children.push_back(std::move(right->children.front()));
        right->children.erase(right->children.begin());
      }
      return;
    }
  }

  // Merge with a sibling. `li` is the left member of the merged pair.
  const size_t li =
      (child_idx + 1 < parent->children.size()) ? child_idx : child_idx - 1;
  Node* l = parent->children[li].get();
  Node* r = parent->children[li + 1].get();
  if (l->leaf) {
    MoveTail(&r->keys, 0, &l->keys);
    MoveTail(&r->key_values, 0, &l->key_values);
    MoveTail(&r->payloads, 0, &l->payloads);
    l->next = r->next;
    if (r->next != nullptr) r->next->prev = l;
  } else {
    l->keys.push_back(std::move(parent->keys[li]));
    MoveTail(&r->keys, 0, &l->keys);
    MoveTail(&r->children, 0, &l->children);
  }
  parent->keys.erase(parent->keys.begin() + li);
  parent->children.erase(parent->children.begin() + li + 1);
}

bool BTree::EraseRec(Node* node, const KeyString& encoded, Payload* erased) {
  if (node->leaf) {
    const size_t pos = LowerIndex(node->keys, encoded);
    if (pos >= node->keys.size() || !(node->keys[pos] == encoded)) {
      return false;
    }
    if (erased != nullptr) *erased = std::move(node->payloads[pos]);
    node->keys.erase(node->keys.begin() + pos);
    node->key_values.erase(node->key_values.begin() + pos);
    node->payloads.erase(node->payloads.begin() + pos);
    return true;
  }
  const size_t idx = UpperIndex(node->keys, encoded);
  Node* child = node->children[idx].get();
  if (!EraseRec(child, encoded, erased)) return false;
  const bool underfull = child->leaf ? child->keys.size() < kMinLeafKeys
                                     : child->children.size() < kMinChildren;
  if (underfull) FixUnderflow(node, idx);
  return true;
}

bool BTree::Erase(const Key& key, Payload* erased) {
  if (!EraseRec(root_.get(), KeyString::Encode(key), erased)) return false;
  --size_;
  if (!root_->leaf && root_->children.size() == 1) {
    root_ = std::move(root_->children[0]);
  }
  return true;
}

const BTree::Key& BTree::Iterator::key() const {
  return leaf_->key_values[pos_];
}

const KeyString& BTree::Iterator::encoded_key() const {
  return leaf_->keys[pos_];
}

const BTree::Payload& BTree::Iterator::payload() const {
  return leaf_->payloads[pos_];
}

void BTree::Iterator::Next() {
  DCG_CHECK(Valid());
  ++pos_;
  while (leaf_ != nullptr && pos_ >= leaf_->keys.size()) {
    leaf_ = leaf_->next;
    pos_ = 0;
  }
}

BTree::Iterator BTree::Begin() const {
  const Node* node = root_.get();
  while (!node->leaf) node = node->children.front().get();
  // Leaves other than a root leaf are never empty (min occupancy), but an
  // empty tree has an empty root leaf.
  if (node->keys.empty()) return Iterator(nullptr, 0);
  return Iterator(node, 0);
}

BTree::Iterator BTree::LowerBoundEncoded(const KeyString& encoded) const {
  const Node* leaf = DescendToLeaf<const Node>(root_.get(), encoded);
  Iterator it(leaf, LowerIndex(leaf->keys, encoded));
  if (it.pos_ >= leaf->keys.size()) {
    it.leaf_ = leaf->next;
    it.pos_ = 0;
    while (it.leaf_ != nullptr && it.leaf_->keys.empty()) {
      it.leaf_ = it.leaf_->next;
    }
  }
  return it;
}

BTree::Iterator BTree::LowerBound(const Key& key) const {
  return LowerBoundEncoded(KeyString::Encode(key));
}

BTree::Iterator BTree::LowerBoundPrefix(std::string_view prefix) const {
  return LowerBoundEncoded(KeyString(prefix));
}

BTree::Iterator BTree::UpperBound(const Key& key) const {
  const KeyString encoded = KeyString::Encode(key);
  Iterator it = LowerBoundEncoded(encoded);
  if (it.Valid() && it.encoded_key() == encoded) it.Next();
  return it;
}

int BTree::Height() const {
  int h = 1;
  const Node* node = root_.get();
  while (!node->leaf) {
    node = node->children.front().get();
    ++h;
  }
  return h;
}

struct BTree::CheckState {
  size_t count = 0;
  int leaf_depth = -1;
  const Node* prev_leaf = nullptr;
};

// Recursive structural check. `lo`/`hi` bound the encodings permitted in
// this subtree; nullptr means unbounded.
void BTree::CheckNode(const Node* node, const KeyString* lo,
                      const KeyString* hi, int depth, bool is_root,
                      CheckState* state) {
  // Keys sorted strictly ascending and within bounds.
  for (size_t i = 0; i < node->keys.size(); ++i) {
    if (i > 0) DCG_CHECK(node->keys[i - 1] < node->keys[i]);
    if (lo != nullptr) DCG_CHECK(!(node->keys[i] < *lo));
    if (hi != nullptr) DCG_CHECK(node->keys[i] < *hi);
  }
  if (node->leaf) {
    DCG_CHECK(node->key_values.size() == node->keys.size());
    DCG_CHECK(node->payloads.size() == node->keys.size());
    DCG_CHECK(node->children.empty());
    for (size_t i = 0; i < node->keys.size(); ++i) {
      // The stored encoding is the key's, and byte order is value order.
      DCG_CHECK(node->keys[i] == KeyString::Encode(node->key_values[i]));
      if (i > 0) DCG_CHECK(node->key_values[i - 1] < node->key_values[i]);
    }
    if (!is_root) DCG_CHECK(node->keys.size() >= kMinLeafKeys);
    DCG_CHECK(node->keys.size() <= kMaxLeafKeys);
    if (state->leaf_depth < 0) {
      state->leaf_depth = depth;
    } else {
      DCG_CHECK(state->leaf_depth == depth);
    }
    // Leaf chain stitches leaves left-to-right.
    DCG_CHECK(node->prev == state->prev_leaf);
    if (state->prev_leaf != nullptr) {
      DCG_CHECK(state->prev_leaf->next == node);
    }
    state->prev_leaf = node;
    state->count += node->keys.size();
    return;
  }
  DCG_CHECK(node->key_values.empty() && node->payloads.empty());
  DCG_CHECK(node->children.size() == node->keys.size() + 1);
  if (!is_root) DCG_CHECK(node->children.size() >= kMinChildren);
  DCG_CHECK(node->children.size() <= kMaxChildren);
  for (size_t i = 0; i < node->children.size(); ++i) {
    const KeyString* child_lo = (i == 0) ? lo : &node->keys[i - 1];
    const KeyString* child_hi = (i == node->keys.size()) ? hi : &node->keys[i];
    CheckNode(node->children[i].get(), child_lo, child_hi, depth + 1,
              /*is_root=*/false, state);
  }
}

void BTree::CheckInvariants() const {
  CheckState state;
  CheckNode(root_.get(), nullptr, nullptr, 0, /*is_root=*/true, &state);
  DCG_CHECK(state.count == size_);
  if (state.prev_leaf != nullptr) DCG_CHECK(state.prev_leaf->next == nullptr);
}

}  // namespace dcg::store
