#ifndef DCG_STORE_BTREE_H_
#define DCG_STORE_BTREE_H_

#include <cstddef>
#include <memory>
#include <string_view>
#include <vector>

#include "doc/key_string.h"
#include "doc/value.h"

namespace dcg::store {

/// In-memory B+-tree mapping document values (keys) to shared immutable
/// documents. This is the ordered index structure behind every collection
/// and secondary index in mongolite.
///
/// Design notes:
///  * The tree searches on doc::KeyString encodings only: every operation
///    encodes its probe once, then binary-searches nodes by byte compare.
///    Internal nodes hold encoded separators alone; leaves keep each key's
///    encoding beside the key as given, which Iterator::key() returns.
///  * Payloads are `shared_ptr<const doc::Value>`: reads hand out a stable
///    snapshot of the document; updates install a fresh copy (copy-on-write),
///    so a reader holding a document is never affected by later writes.
///  * Leaves are doubly linked for ordered range scans (TPC-C Stock Level
///    walks order lines via such scans).
///  * Deletion rebalances via borrow/merge, keeping every non-root node at
///    least half full.
class BTree {
 public:
  using Key = doc::Value;
  using Payload = std::shared_ptr<const doc::Value>;

  BTree();
  ~BTree();

  BTree(const BTree&) = delete;
  BTree& operator=(const BTree&) = delete;
  BTree(BTree&&) noexcept;
  BTree& operator=(BTree&&) noexcept;

  /// Inserts or replaces. Returns true if the key was newly inserted,
  /// false if an existing payload was replaced; that payload is moved to
  /// `replaced` when given. A new key is moved into the leaf.
  bool Upsert(Key key, Payload payload, Payload* replaced = nullptr);

  /// Inserts only if absent. Returns false (no change) when present.
  bool Insert(Key key, Payload payload);

  /// Returns the payload for `key`, or nullptr.
  Payload Find(const Key& key) const;

  /// The stored payload slot for `key`, or nullptr when absent: a caller
  /// swaps the payload in place with a single descent. Valid until the
  /// next mutation of the tree.
  Payload* FindSlot(const Key& key);

  /// Removes `key`. Returns true if it was present; its payload is moved to
  /// `erased` when given.
  bool Erase(const Key& key, Payload* erased = nullptr);

  bool Contains(const Key& key) const { return Find(key) != nullptr; }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

 private:
  struct Node;

 public:

  /// Forward cursor over (key, payload) pairs in key order. Invalidated by
  /// any mutation of the tree.
  class Iterator {
   public:
    bool Valid() const { return leaf_ != nullptr; }
    const Key& key() const;
    /// The key's KeyString encoding.
    const doc::KeyString& encoded_key() const;
    const Payload& payload() const;
    void Next();

   private:
    friend class BTree;
    Iterator(const Node* leaf, size_t pos) : leaf_(leaf), pos_(pos) {}
    const Node* leaf_;
    size_t pos_;
  };

  /// Cursor positioned at the smallest key.
  Iterator Begin() const;

  /// Cursor positioned at the first key >= `key`.
  Iterator LowerBound(const Key& key) const;

  /// Cursor positioned at the first key whose encoding is >= the bytes
  /// `prefix`. For an encoded composite prefix
  /// (doc::AppendKeyStringArrayStart plus the pinned components) that is
  /// the first tuple extending the prefix, if any: the matching tuples
  /// follow while encoded_key() starts with `prefix`.
  Iterator LowerBoundPrefix(std::string_view prefix) const;

  /// Cursor positioned at the first key > `key`.
  Iterator UpperBound(const Key& key) const;

  /// Validates structural invariants (ordering, occupancy, uniform depth,
  /// leaf chain consistency, size, and every stored encoding equal to its
  /// key's encoding). Aborts via assert-style check failure on violation;
  /// used heavily by the property tests.
  void CheckInvariants() const;

  /// Height of the tree (1 for a lone root leaf).
  int Height() const;

 private:
  // Implementation helpers (definitions in btree.cc).
  struct InsertResult;
  struct CheckState;
  // `replaced` null forbids replacing (Insert); otherwise it receives the
  // replaced payload. A new entry takes `encoded` and `key` by move.
  bool InsertImpl(Key key, Payload payload, Payload* replaced);
  InsertResult InsertRec(Node* node, doc::KeyString& encoded, Key& key,
                         Payload payload, Payload* replaced);
  bool EraseRec(Node* node, const doc::KeyString& encoded, Payload* erased);
  void FixUnderflow(Node* parent, size_t child_idx);
  Iterator LowerBoundEncoded(const doc::KeyString& encoded) const;
  static void CheckNode(const Node* node, const doc::KeyString* lo,
                        const doc::KeyString* hi, int depth, bool is_root,
                        CheckState* state);

  std::unique_ptr<Node> root_;
  size_t size_ = 0;
};

}  // namespace dcg::store

#endif  // DCG_STORE_BTREE_H_
