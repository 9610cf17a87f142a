#include "store/btree.h"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "util/check.h"

namespace dcg::store {

using doc::KeyString;

namespace {
// Fanout: 32 keys per leaf, 32 children per internal node. A search counts
// all 32 head words of a node whatever its size, so a full node costs no
// more to search than a sparse one; 64 slots measured slower than 32.
constexpr size_t kMaxLeafKeys = 32;
constexpr size_t kMinLeafKeys = kMaxLeafKeys / 2;
constexpr size_t kMaxChildren = 32;
constexpr size_t kMinChildren = kMaxChildren / 2;
// A node splits after the insert that overfills it, so every array has
// room for one entry past the maximum.
constexpr size_t kKeySlots = kMaxLeafKeys + 1;
static_assert(kMaxChildren <= kKeySlots);
// The head word of every slot past a node's last key: above every
// encoding's head, so a search counts no empty slot below its probe.
constexpr uint64_t kNoHead = ~uint64_t{0};
}  // namespace

// Every array slot past a node's `size` entries (`size + 1` children) is
// empty: an empty encoding, a kNoHead head, a null payload or child. The
// moves below leave their sources empty, so a vacated slot holds no
// reference.
struct BTree::Node {
  explicit Node(bool is_leaf) : leaf(is_leaf) {
    std::fill(std::begin(heads), std::end(heads), kNoHead);
  }

  Leaf* AsLeaf();
  const Leaf* AsLeaf() const;
  Inner* AsInner();
  const Inner* AsInner() const;

  const bool leaf;
  uint16_t size = 0;  // keys in use
  // heads[i] == keys[i].head(): searches count these words and compare
  // whole encodings only where a head ties the probe's.
  uint64_t heads[kKeySlots];
  // Leaf: the keys' encodings. Internal: separators.
  KeyString keys[kKeySlots];
};

struct BTree::Leaf : Node {
  Leaf() : Node(/*is_leaf=*/true) {}
  Payload payloads[kKeySlots];  // parallel to keys
  Leaf* next = nullptr;  // leaf chain
  Leaf* prev = nullptr;
};

struct BTree::Inner : Node {
  Inner() : Node(/*is_leaf=*/false) {}
  NodePtr children[kMaxChildren + 1];  // size + 1 in use
};

BTree::Leaf* BTree::Node::AsLeaf() { return static_cast<Leaf*>(this); }
const BTree::Leaf* BTree::Node::AsLeaf() const {
  return static_cast<const Leaf*>(this);
}
BTree::Inner* BTree::Node::AsInner() { return static_cast<Inner*>(this); }
const BTree::Inner* BTree::Node::AsInner() const {
  return static_cast<const Inner*>(this);
}

void BTree::NodeDeleter::operator()(Node* node) const {
  if (node->leaf) {
    delete node->AsLeaf();
  } else {
    delete node->AsInner();
  }
}

namespace {

// The keys of `node` whose head ties `head`, the probe's: [first, last).
// Keys before them sort below the probe and keys after them above it. The
// count runs over all kMaxLeafKeys slots without a branch; a node being
// searched holds at most that many keys.
template <typename NodeT>
std::pair<size_t, size_t> HeadTies(const NodeT* node, uint64_t head) {
  size_t below = 0;
  // Unrolled, each slot costs a load and a compare-and-carry add.
#pragma GCC unroll 32
  for (size_t i = 0; i < kMaxLeafKeys; ++i) below += node->heads[i] < head;
  // The keys tying the probe's head follow; one load each. Numbers and
  // small composite keys tie only on equal keys, so the run is short.
  size_t last = below;
  while (last < node->size && node->heads[last] == head) ++last;
  return {below, last};
}

// Index of the first key of `node` >= `probe`, whose head is `head`.
template <typename NodeT>
size_t LowerIndex(const NodeT* node, const KeyString& probe, uint64_t head) {
  auto [lo, hi] = HeadTies(node, head);
  while (lo < hi) {
    const size_t mid = (lo + hi) / 2;
    if (KeyString::Compare(node->keys[mid], probe) < 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

// Index of the first key > `probe`: the child of an internal node whose
// range holds `probe`.
template <typename NodeT>
size_t UpperIndex(const NodeT* node, const KeyString& probe, uint64_t head) {
  auto [lo, hi] = HeadTies(node, head);
  while (lo < hi) {
    const size_t mid = (lo + hi) / 2;
    if (KeyString::Compare(probe, node->keys[mid]) < 0) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

// Whether key `i` of `node` sorts below `probe`, whose head is `head`: the
// heads decide unless they tie, sparing a load of the key.
template <typename NodeT>
bool KeyBelow(const NodeT* node, size_t i, const KeyString& probe,
              uint64_t head) {
  return node->heads[i] != head ? node->heads[i] < head
                                : node->keys[i] < probe;
}

// The leaf whose range holds `probe`; `NodeT` is Node or const Node.
template <typename NodeT>
auto DescendToLeaf(NodeT* node, const KeyString& probe, uint64_t head) {
  while (!node->leaf) {
    node = node->AsInner()->children[UpperIndex(node, probe, head)].get();
  }
  return node->AsLeaf();
}

// Shifts a[pos, n) one slot right and stores `value` at a[pos].
template <typename T>
void InsertAt(T* a, size_t n, size_t pos, T value) {
  std::move_backward(a + pos, a + n, a + n + 1);
  a[pos] = std::move(value);
}

// Removes and returns a[pos], shifting a[pos + 1, n) left.
template <typename T>
T EraseAt(T* a, size_t n, size_t pos) {
  T erased = std::move(a[pos]);
  std::move(a + pos + 1, a + n, a + pos);
  return erased;
}

// The helpers below move a node's keys and heads in lockstep; `n` is the
// node's key count before the change.

// Stores `key` at slot `pos`, shifting keys [pos, n) one slot right.
template <typename NodeT>
void InsertKey(NodeT* node, size_t n, size_t pos, KeyString key) {
  InsertAt(node->heads, n, pos, key.head());
  InsertAt(node->keys, n, pos, std::move(key));
}

// Removes and returns key `pos`, shifting keys (pos, n) one slot left.
template <typename NodeT>
KeyString EraseKey(NodeT* node, size_t n, size_t pos) {
  EraseAt(node->heads, n, pos);
  node->heads[n - 1] = kNoHead;
  return EraseAt(node->keys, n, pos);
}

// Replaces key `pos`, or fills the empty slot `pos`.
template <typename NodeT>
void SetKey(NodeT* node, size_t pos, KeyString key) {
  node->heads[pos] = key.head();
  node->keys[pos] = std::move(key);
}

// Moves keys [from, to) of `src` into `dst` from slot `at` on, emptying
// their source slots.
template <typename NodeT>
void MoveKeys(NodeT* src, size_t from, size_t to, NodeT* dst, size_t at) {
  std::copy(src->heads + from, src->heads + to, dst->heads + at);
  std::fill(src->heads + from, src->heads + to, kNoHead);
  std::move(src->keys + from, src->keys + to, dst->keys + at);
}

}  // namespace

struct BTree::InsertResult {
  enum class Outcome { kNew, kReplaced, kNoop };

  explicit InsertResult(Outcome o) : outcome(o) {}

  Outcome outcome;
  bool split = false;
  KeyString sep;   // valid when split
  NodePtr right;   // valid when split
};

BTree::BTree() : root_(new Leaf) {}
BTree::~BTree() = default;
BTree::BTree(BTree&&) noexcept = default;
BTree& BTree::operator=(BTree&&) noexcept = default;

// A node that overflows splits in half, except on an append: when the new
// entry lands past the last one of a node on the right spine, the node
// stays full and the new right node starts with as little as it can hold.
// A leaf starts with the new key alone; an internal node with its last two
// children, so that the new node's children have a sibling to borrow from
// or merge with. Ascending loads thus fill every node but the spine's.
BTree::InsertResult BTree::InsertRec(Node* node, KeyString& encoded,
                                     uint64_t head, Payload& payload,
                                     Payload* replaced, bool on_spine) {
  if (node->leaf) {
    Leaf* leaf = node->AsLeaf();
    const size_t pos = LowerIndex(leaf, encoded, head);
    if (pos < leaf->size && leaf->keys[pos] == encoded) {
      if (replaced == nullptr) {
        return InsertResult(InsertResult::Outcome::kNoop);
      }
      *replaced = std::exchange(leaf->payloads[pos], std::move(payload));
      return InsertResult(InsertResult::Outcome::kReplaced);
    }
    InsertKey(leaf, leaf->size, pos, std::move(encoded));
    InsertAt(leaf->payloads, leaf->size, pos, std::move(payload));
    ++leaf->size;
    InsertResult result{InsertResult::Outcome::kNew};
    if (leaf->size > kMaxLeafKeys) {
      const size_t mid =
          on_spine && pos == kMaxLeafKeys ? kMaxLeafKeys : leaf->size / 2;
      auto* right = new Leaf;
      result.right.reset(right);
      MoveKeys(leaf, mid, leaf->size, right, 0);
      std::move(leaf->payloads + mid, leaf->payloads + leaf->size,
                right->payloads);
      right->size = static_cast<uint16_t>(leaf->size - mid);
      leaf->size = static_cast<uint16_t>(mid);
      right->next = leaf->next;
      right->prev = leaf;
      if (leaf->next != nullptr) leaf->next->prev = right;
      leaf->next = right;
      result.split = true;
      result.sep = right->keys[0];
    }
    return result;
  }

  Inner* inner = node->AsInner();
  const size_t idx = UpperIndex(inner, encoded, head);
  InsertResult child_result =
      InsertRec(inner->children[idx].get(), encoded, head, payload, replaced,
                on_spine && idx == inner->size);
  InsertResult result{child_result.outcome};
  if (child_result.split) {
    InsertKey(inner, inner->size, idx, std::move(child_result.sep));
    InsertAt(inner->children, inner->size + 1, idx + 1,
             std::move(child_result.right));
    ++inner->size;
    if (inner->size + 1u > kMaxChildren) {
      // Key `mid` moves up; an append leaves the new node two children.
      const size_t mid = on_spine && idx + 1u == inner->size
                             ? inner->size - 2u
                             : inner->size / 2u;
      auto* right = new Inner;
      result.right.reset(right);
      MoveKeys(inner, mid + 1, inner->size, right, 0);
      result.sep = EraseKey(inner, mid + 1, mid);
      std::move(inner->children + mid + 1, inner->children + inner->size + 1,
                right->children);
      right->size = static_cast<uint16_t>(inner->size - mid - 1);
      inner->size = static_cast<uint16_t>(mid);
      result.split = true;
    }
  }
  return result;
}

bool BTree::InsertImpl(Key key, Payload payload, Payload* replaced) {
  const uint64_t head = key.head();
  InsertResult r = InsertRec(root_.get(), key, head, payload, replaced,
                             /*on_spine=*/true);
  if (r.split) {
    auto* new_root = new Inner;
    SetKey(new_root, 0, std::move(r.sep));
    new_root->children[0] = std::move(root_);
    new_root->children[1] = std::move(r.right);
    new_root->size = 1;
    root_.reset(new_root);
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

const BTree::Payload* BTree::Lookup(const Key& key) const {
  const uint64_t head = key.head();
  const Leaf* leaf = DescendToLeaf<const Node>(root_.get(), key, head);
  const size_t pos = LowerIndex(leaf, key, head);
  if (pos < leaf->size && leaf->keys[pos] == key) {
    return &leaf->payloads[pos];
  }
  return nullptr;
}

BTree::Payload BTree::Find(const Key& key) const {
  const Payload* slot = Lookup(key);
  return slot != nullptr ? *slot : nullptr;
}

void BTree::FindSorted(std::span<const KeyString> probes,
                       std::vector<Payload>* out) const {
  out->clear();
  out->reserve(probes.size());
  const Leaf* leaf = nullptr;
  for (size_t i = 0; i < probes.size(); ++i) {
    const KeyString& probe = probes[i];
    DCG_CHECK_MSG(i == 0 || !(probe < probes[i - 1]),
                  "FindSorted probes must ascend");
    if (size_ == 0) {
      out->push_back(nullptr);
      continue;
    }
    const uint64_t head = probe.head();
    // A probe no greater than the current leaf's last key belongs to that
    // leaf: the leaf's range already held an earlier, smaller probe.
    // Likewise for the next leaf when the probe is past this one.
    if (leaf == nullptr || KeyBelow(leaf, leaf->size - 1u, probe, head)) {
      const Leaf* next = leaf != nullptr ? leaf->next : nullptr;
      if (next != nullptr && !KeyBelow(next, next->size - 1u, probe, head)) {
        leaf = next;
      } else {
        leaf = DescendToLeaf<const Node>(root_.get(), probe, head);
      }
    }
    const size_t pos = LowerIndex(leaf, probe, head);
    out->push_back(pos < leaf->size && leaf->keys[pos] == probe
                       ? leaf->payloads[pos]
                       : nullptr);
  }
}

BTree::Payload* BTree::FindSlot(const Key& key) {
  // The tree is not const here, so neither is the slot Lookup found.
  return const_cast<Payload*>(Lookup(key));
}

void BTree::FixUnderflow(Inner* parent, size_t child_idx) {
  // Every internal node keeps two children, so the child has a sibling.
  DCG_CHECK(parent->size >= 1);
  Node* child = parent->children[child_idx].get();
  auto has_spare = [](const Node* n) {
    return n->leaf ? n->size > kMinLeafKeys : n->size + 1u > kMinChildren;
  };

  if (child_idx > 0) {
    Node* left = parent->children[child_idx - 1].get();
    if (has_spare(left)) {
      // Rotate the left sibling's last entry into the child's front.
      if (child->leaf) {
        Leaf* from = left->AsLeaf();
        Leaf* to = child->AsLeaf();
        InsertKey(to, to->size, 0, EraseKey(from, from->size, from->size - 1));
        InsertAt(to->payloads, to->size, 0,
                 std::move(from->payloads[from->size - 1]));
        SetKey(parent, child_idx - 1, to->keys[0]);
      } else {
        Inner* from = left->AsInner();
        Inner* to = child->AsInner();
        InsertKey(to, to->size, 0, std::move(parent->keys[child_idx - 1]));
        InsertAt(to->children, to->size + 1u, 0,
                 std::move(from->children[from->size]));
        SetKey(parent, child_idx - 1,
               EraseKey(from, from->size, from->size - 1));
      }
      --left->size;
      ++child->size;
      return;
    }
  }
  if (child_idx < parent->size) {
    Node* right = parent->children[child_idx + 1].get();
    if (has_spare(right)) {
      // Rotate the right sibling's first entry onto the child's back.
      if (child->leaf) {
        Leaf* from = right->AsLeaf();
        Leaf* to = child->AsLeaf();
        SetKey(to, to->size, EraseKey(from, from->size, 0));
        to->payloads[to->size] = EraseAt(from->payloads, from->size, 0);
        SetKey(parent, child_idx, from->keys[0]);
      } else {
        Inner* from = right->AsInner();
        Inner* to = child->AsInner();
        SetKey(to, to->size, std::move(parent->keys[child_idx]));
        SetKey(parent, child_idx, EraseKey(from, from->size, 0));
        to->children[to->size + 1] =
            EraseAt(from->children, from->size + 1u, 0);
      }
      --right->size;
      ++child->size;
      return;
    }
  }

  // Merge with a sibling. `li` is the left member of the merged pair.
  const size_t li = child_idx < parent->size ? child_idx : child_idx - 1;
  Node* l = parent->children[li].get();
  Node* r = parent->children[li + 1].get();
  if (l->leaf) {
    Leaf* ll = l->AsLeaf();
    Leaf* rl = r->AsLeaf();
    MoveKeys(rl, 0, rl->size, ll, ll->size);
    std::move(rl->payloads, rl->payloads + rl->size, ll->payloads + ll->size);
    ll->size = static_cast<uint16_t>(ll->size + rl->size);
    ll->next = rl->next;
    if (rl->next != nullptr) rl->next->prev = ll;
  } else {
    Inner* li_node = l->AsInner();
    Inner* ri_node = r->AsInner();
    SetKey(li_node, li_node->size, std::move(parent->keys[li]));
    MoveKeys(ri_node, 0, ri_node->size, li_node, li_node->size + 1u);
    std::move(ri_node->children, ri_node->children + ri_node->size + 1,
              li_node->children + li_node->size + 1);
    li_node->size = static_cast<uint16_t>(li_node->size + ri_node->size + 1);
  }
  r->size = 0;
  EraseKey(parent, parent->size, li);
  EraseAt(parent->children, parent->size + 1u, li + 1);  // frees `r`
  --parent->size;
}

// A node below its minimum occupancy is fixed after every erase, the right
// spine's included: a spine node left with few entries by an append split
// borrows from its left sibling or merges into it. So no leaf but an
// empty tree's root is ever empty.
bool BTree::EraseRec(Node* node, const KeyString& encoded, uint64_t head,
                     Payload* erased) {
  if (node->leaf) {
    Leaf* leaf = node->AsLeaf();
    const size_t pos = LowerIndex(leaf, encoded, head);
    if (pos >= leaf->size || !(leaf->keys[pos] == encoded)) {
      return false;
    }
    EraseKey(leaf, leaf->size, pos);
    Payload payload = EraseAt(leaf->payloads, leaf->size, pos);
    if (erased != nullptr) *erased = std::move(payload);
    --leaf->size;
    return true;
  }
  Inner* inner = node->AsInner();
  const size_t idx = UpperIndex(inner, encoded, head);
  Node* child = inner->children[idx].get();
  if (!EraseRec(child, encoded, head, erased)) return false;
  const bool underfull = child->leaf ? child->size < kMinLeafKeys
                                     : child->size + 1u < kMinChildren;
  if (underfull) FixUnderflow(inner, idx);
  return true;
}

bool BTree::Erase(const Key& key, Payload* erased) {
  if (!EraseRec(root_.get(), key, key.head(), erased)) return false;
  --size_;
  if (!root_->leaf && root_->size == 0) {
    NodePtr only_child = std::move(root_->AsInner()->children[0]);
    root_ = std::move(only_child);
  }
  return true;
}

BTree::NodePtr BTree::CloneNode(const Node* node, Leaf** prev_leaf) {
  NodePtr owner;
  if (node->leaf) {
    const Leaf* source = node->AsLeaf();
    auto* copy = new Leaf;
    owner.reset(copy);
    std::copy(source->payloads, source->payloads + source->size,
              copy->payloads);
    copy->prev = *prev_leaf;
    if (*prev_leaf != nullptr) (*prev_leaf)->next = copy;
    *prev_leaf = copy;
  } else {
    const Inner* source = node->AsInner();
    auto* copy = new Inner;
    owner.reset(copy);
    for (size_t i = 0; i <= source->size; ++i) {
      copy->children[i] = CloneNode(source->children[i].get(), prev_leaf);
    }
  }
  std::copy(std::begin(node->heads), std::end(node->heads), owner->heads);
  std::copy(node->keys, node->keys + node->size, owner->keys);
  owner->size = node->size;
  return owner;
}

void BTree::CopyFrom(const BTree& source) {
  Leaf* prev_leaf = nullptr;
  root_ = CloneNode(source.root_.get(), &prev_leaf);
  size_ = source.size_;
}

const KeyString& BTree::Iterator::encoded_key() const {
  return leaf_->keys[pos_];
}

const BTree::Payload& BTree::Iterator::payload() const {
  return leaf_->payloads[pos_];
}

void BTree::Iterator::Next() {
  DCG_CHECK(Valid());
  // No leaf in a nonempty tree is empty.
  if (++pos_ == leaf_->size) {
    leaf_ = leaf_->next;
    pos_ = 0;
  }
}

BTree::Iterator BTree::Begin() const {
  const Node* node = root_.get();
  while (!node->leaf) node = node->AsInner()->children[0].get();
  // Only an empty tree's root leaf is empty.
  if (node->size == 0) return Iterator(nullptr, 0);
  return Iterator(node->AsLeaf(), 0);
}

BTree::Iterator BTree::LowerBound(const Key& key) const {
  const uint64_t head = key.head();
  const Leaf* leaf = DescendToLeaf<const Node>(root_.get(), key, head);
  Iterator it(leaf, LowerIndex(leaf, key, head));
  if (it.pos_ == leaf->size) {
    // Past this leaf's last key: the next leaf's first, if any.
    it.leaf_ = leaf->next;
    it.pos_ = 0;
  }
  return it;
}

BTree::Iterator BTree::LowerBoundPrefix(std::string_view prefix) const {
  return LowerBound(KeyString(prefix));
}

BTree::Iterator BTree::UpperBound(const Key& key) const {
  Iterator it = LowerBound(key);
  if (it.Valid() && it.encoded_key() == key) it.Next();
  return it;
}

int BTree::Height() const {
  int h = 1;
  const Node* node = root_.get();
  while (!node->leaf) {
    node = node->AsInner()->children[0].get();
    ++h;
  }
  return h;
}

struct BTree::CheckState {
  size_t count = 0;
  int leaf_depth = -1;
  const Leaf* prev_leaf = nullptr;
};

// Recursive structural check. `lo`/`hi` bound the encodings permitted in
// this subtree; nullptr means unbounded. `on_spine` marks the root and its
// last child, that child's last child and so on down to the last leaf.
void BTree::CheckNode(const Node* node, const KeyString* lo,
                      const KeyString* hi, int depth, bool on_spine,
                      CheckState* state) {
  const bool is_root = depth == 0;
  // Keys sorted strictly ascending and within bounds, each beside its
  // head; slots past the last key empty, with the empty slots' head.
  for (size_t i = 0; i < node->size; ++i) {
    if (i > 0) DCG_CHECK(node->keys[i - 1] < node->keys[i]);
    if (lo != nullptr) DCG_CHECK(!(node->keys[i] < *lo));
    if (hi != nullptr) DCG_CHECK(node->keys[i] < *hi);
    DCG_CHECK(node->heads[i] == node->keys[i].head());
  }
  for (size_t i = node->size; i < kKeySlots; ++i) {
    DCG_CHECK(node->keys[i].size() == 0);
    DCG_CHECK(node->heads[i] == kNoHead);
  }
  // Occupancy: every node off the right spine is at least half full. A
  // spine node may hold less (an append split leaves it so), but a leaf
  // holds a key unless it is an empty tree's root and an internal node
  // has two children.
  if (node->leaf) {
    const Leaf* leaf = node->AsLeaf();
    for (size_t i = leaf->size; i < kKeySlots; ++i) {
      DCG_CHECK(leaf->payloads[i] == nullptr);
    }
    const size_t min_keys = is_root ? 0 : on_spine ? 1 : kMinLeafKeys;
    DCG_CHECK(leaf->size >= min_keys);
    DCG_CHECK(leaf->size <= kMaxLeafKeys);
    if (state->leaf_depth < 0) {
      state->leaf_depth = depth;
    } else {
      DCG_CHECK(state->leaf_depth == depth);
    }
    // Leaf chain stitches leaves left-to-right.
    DCG_CHECK(leaf->prev == state->prev_leaf);
    if (state->prev_leaf != nullptr) {
      DCG_CHECK(state->prev_leaf->next == leaf);
    }
    state->prev_leaf = leaf;
    state->count += leaf->size;
    return;
  }
  const Inner* inner = node->AsInner();
  const size_t children = inner->size + 1u;
  DCG_CHECK(children >= (on_spine ? 2 : kMinChildren));
  DCG_CHECK(children <= kMaxChildren);
  for (size_t i = 0; i <= kMaxChildren; ++i) {
    DCG_CHECK((inner->children[i] != nullptr) == (i < children));
  }
  for (size_t i = 0; i < children; ++i) {
    const KeyString* child_lo = (i == 0) ? lo : &inner->keys[i - 1];
    const KeyString* child_hi = (i == inner->size) ? hi : &inner->keys[i];
    CheckNode(inner->children[i].get(), child_lo, child_hi, depth + 1,
              on_spine && i == inner->size, state);
  }
}

void BTree::CheckInvariants() const {
  CheckState state;
  CheckNode(root_.get(), nullptr, nullptr, 0, /*on_spine=*/true, &state);
  DCG_CHECK(state.count == size_);
  if (state.prev_leaf != nullptr) DCG_CHECK(state.prev_leaf->next == nullptr);
}

}  // namespace dcg::store
