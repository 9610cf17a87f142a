#ifndef DCG_STORE_BTREE_H_
#define DCG_STORE_BTREE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "doc/key_string.h"
#include "doc/value.h"

namespace dcg::store {

/// In-memory B+-tree mapping the doc::KeyString encodings of document
/// values (keys) to shared immutable documents. This is the ordered index
/// structure behind every collection and secondary index in mongolite.
///
/// Design notes:
///  * The tree stores and searches encodings only: every operation takes
///    its key encoded (a doc::Value converts implicitly, encoding once).
///    The key values themselves are not kept; a caller that needs one reads
///    it from the payload document (a collection's "_id").
///  * Nodes hold up to 32 keys (leaves) or 32 children (internal nodes).
///    Each node is one allocation: fixed-capacity arrays of head words, of
///    encodings, then of payloads (leaves) or children, so a descent
///    touches one node per level.
///  * Beside each encoding a node keeps its head (KeyString::head(), the
///    first 8 bytes as a word; ~0 past the last key). A node search counts
///    the heads below the probe's over all 32 slots without a branch and
///    compares whole encodings only among keys whose head ties the probe's.
///  * An overflowing node splits in half, except on an append past the last
///    key of the right spine (the root, its last child, and so on down to
///    the last leaf): then the node stays full and the new right node takes
///    the new key alone (a leaf) or the last two children (an internal
///    node), as SQLite's balance_quick does. Ascending loads fill every
///    node; only spine nodes may be less than half full.
///  * Payloads are doc::DocPtr, one 8-byte handle per stored document:
///    reads hand out a stable snapshot of the document; updates install a
///    fresh copy (copy-on-write), so a reader holding a document is never
///    affected by later writes.
///  * Leaves are doubly linked for ordered range scans (TPC-C Stock Level
///    walks order lines via such scans) and for FindSorted, which serves a
///    run of ascending probes without returning to the root while they stay
///    on the current leaf or the next.
///  * Deletion rebalances via borrow/merge: every node off the right spine
///    stays at least half full, no leaf but an empty tree's root is empty
///    and every internal node keeps at least two children.
///  * CopyFrom clones the structure node for node and shares the payloads.
class BTree {
 public:
  using Key = doc::KeyString;
  using Payload = doc::DocPtr;

  BTree();
  ~BTree();

  BTree(const BTree&) = delete;
  BTree& operator=(const BTree&) = delete;
  BTree(BTree&&) noexcept;
  BTree& operator=(BTree&&) noexcept;

  /// Inserts or replaces. Returns true if the key was newly inserted,
  /// false if an existing payload was replaced; that payload is moved to
  /// `replaced` when given. Both inserting operations take the key by
  /// value: a new entry keeps it, so a caller's temporary moves in.
  bool Upsert(Key key, Payload payload, Payload* replaced = nullptr);

  /// Inserts only if absent. Returns false (no change) when present.
  bool Insert(Key key, Payload payload);

  /// Returns the payload for `key`, or nullptr.
  Payload Find(const Key& key) const;

  /// Looks up ascending encodings (equal neighbours allowed; CHECKed) in one
  /// pass: `out` receives, per probe in order, its payload or nullptr. A
  /// probe that lies on the current leaf or the next one is served there;
  /// only the others descend from the root.
  void FindSorted(std::span<const doc::KeyString> probes,
                  std::vector<Payload>* out) const;

  /// The stored payload slot for `key`, or nullptr when absent: a caller
  /// swaps the payload in place with a single descent. Valid until the
  /// next mutation of the tree.
  Payload* FindSlot(const Key& key);

  /// Removes `key`. Returns true if it was present; its payload is moved to
  /// `erased` when given.
  bool Erase(const Key& key, Payload* erased = nullptr);

  /// Whether `key` is present: Find's descent, without copying the
  /// payload (no reference-count traffic on the document).
  bool Contains(const Key& key) const { return Lookup(key) != nullptr; }

  /// Replaces this tree's contents with a node-for-node copy of `source`:
  /// the same shape and encodings, sharing its payloads.
  void CopyFrom(const BTree& source);

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

 private:
  struct Node;
  struct Leaf;
  struct Inner;
  struct NodeDeleter {
    void operator()(Node* node) const;
  };
  using NodePtr = std::unique_ptr<Node, NodeDeleter>;

 public:
  /// Forward cursor over (encoded key, payload) pairs in key order.
  /// Invalidated by any mutation of the tree.
  class Iterator {
   public:
    bool Valid() const { return leaf_ != nullptr; }
    /// The key's KeyString encoding.
    const doc::KeyString& encoded_key() const;
    const Payload& payload() const;
    void Next();

   private:
    friend class BTree;
    Iterator(const Leaf* leaf, size_t pos) : leaf_(leaf), pos_(pos) {}
    const Leaf* leaf_;
    size_t pos_;
  };

  /// Cursor positioned at the smallest key.
  Iterator Begin() const;

  /// Cursor positioned at the first key >= `key`.
  Iterator LowerBound(const Key& key) const;

  /// Cursor positioned at the first key whose encoding is >= the bytes
  /// `prefix`. For an encoded composite prefix
  /// (doc::KeyStringBuilder::OpenArray plus the pinned components) that is
  /// the first tuple extending the prefix, if any: the matching tuples
  /// follow while encoded_key() starts with `prefix`.
  Iterator LowerBoundPrefix(std::string_view prefix) const;

  /// Cursor positioned at the first key > `key`.
  Iterator UpperBound(const Key& key) const;

  /// Validates structural invariants (ordering, each key's head, occupancy
  /// with the right spine's exemption, uniform depth, leaf chain
  /// consistency, size, and every slot past a node's last entry empty).
  /// Aborts via assert-style check failure on violation; used heavily by
  /// the property tests.
  void CheckInvariants() const;

  /// Height of the tree (1 for a lone root leaf).
  int Height() const;

 private:
  // Implementation helpers (definitions in btree.cc).
  struct InsertResult;
  // The one point descent behind Find, Contains and FindSlot: the stored
  // payload slot for `key`, or nullptr.
  const Payload* Lookup(const Key& key) const;
  struct CheckState;
  // `replaced` null forbids replacing (Insert); otherwise it receives the
  // replaced payload. A new entry takes `key` and `payload` by move.
  bool InsertImpl(Key key, Payload payload, Payload* replaced);
  // `head` is encoded.head(); `on_spine` whether `node` is on the right
  // spine, where an append splits off a nearly empty right node.
  InsertResult InsertRec(Node* node, doc::KeyString& encoded, uint64_t head,
                         Payload& payload, Payload* replaced, bool on_spine);
  bool EraseRec(Node* node, const doc::KeyString& encoded, uint64_t head,
                Payload* erased);
  void FixUnderflow(Inner* parent, size_t child_idx);
  static NodePtr CloneNode(const Node* node, Leaf** prev_leaf);
  static void CheckNode(const Node* node, const doc::KeyString* lo,
                        const doc::KeyString* hi, int depth, bool on_spine,
                        CheckState* state);

  NodePtr root_;
  size_t size_ = 0;
};

}  // namespace dcg::store

#endif  // DCG_STORE_BTREE_H_
