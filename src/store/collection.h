#ifndef DCG_STORE_COLLECTION_H_
#define DCG_STORE_COLLECTION_H_

#include <functional>
#include <utility>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "doc/filter.h"
#include "doc/key_string.h"
#include "doc/path.h"
#include "doc/update.h"
#include "doc/value.h"
#include "store/btree.h"

namespace dcg::store {

/// A shared immutable document snapshot, as handed out by reads.
using DocPtr = doc::DocPtr;

/// Options for FindWith: ordering, limit, and field projection (the
/// find() modifiers the TPC-C adaptation and ad-hoc queries use).
struct FindOptions {
  /// Dotted path to order results by (documents missing the path sort
  /// first, as Null). Empty: _id order. Compiled once at assignment, so
  /// sorting never re-tokenizes it per comparison; plain strings convert
  /// implicitly.
  doc::Path sort_path;
  bool sort_descending = false;
  /// Applied after sorting.
  size_t limit = SIZE_MAX;
  /// Fields to keep in the returned copies ("_id" is always kept).
  /// Empty: return whole documents.
  std::vector<std::string> projection;
};

/// A named document collection: a primary B+-tree keyed by the required
/// "_id" field, plus optional secondary indexes over dotted field paths.
///
/// Every operation by _id takes the id encoded, as a doc::KeyString: a
/// caller that reuses one key (a TPC-C body, the oplog, a secondary apply)
/// encodes it once, and one that holds a doc::Value passes it unchanged
/// (it converts, encoding once).
///
/// Writes are copy-on-write: Update clones the stored document, applies the
/// UpdateSpec, and swaps the pointer, so concurrent readers (in simulated
/// time) keep consistent snapshots. Stored documents are never mutated, so
/// several collections (the members of a replica set) can share them.
class Collection {
 public:
  explicit Collection(std::string name);

  Collection(const Collection&) = delete;
  Collection& operator=(const Collection&) = delete;
  Collection(Collection&&) noexcept = default;
  Collection& operator=(Collection&&) noexcept = default;

  const std::string& name() const { return name_; }
  size_t size() const { return primary_.size(); }

  /// Inserts a document (must be an Object with an "_id" field).
  /// Returns false when a document with the same _id already exists;
  /// otherwise the stored document goes to `inserted` when given.
  bool Insert(doc::Value document, DocPtr* inserted = nullptr);

  /// Inserts or fully replaces by _id.
  void Upsert(doc::Value document);

  /// Installs an existing immutable document under `id` (the encoding of
  /// its "_id"), inserting or replacing, with one descent of the primary
  /// tree: the object is shared, not copied, so replicas and the oplog can
  /// all hold the document the primary committed. Returns true when `id`
  /// was new; otherwise the replaced document goes to `replaced` when
  /// given.
  bool Put(const doc::KeyString& id, const DocPtr& document,
           DocPtr* replaced = nullptr);

  /// Point lookup by _id. Returns nullptr when absent.
  DocPtr FindById(const doc::KeyString& id) const { return primary_.Find(id); }

  /// Whether a document with this _id exists; no document reference is
  /// taken.
  bool ContainsId(const doc::KeyString& id) const {
    return primary_.Contains(id);
  }

  /// Point lookups of ascending _ids, given as their doc::KeyString
  /// encodings (equal neighbours allowed), in one pass over the primary
  /// tree, like MongoDB serving an `$in` with one index cursor: per id in
  /// order, its document or nullptr.
  std::vector<DocPtr> FindManyById(std::span<const doc::KeyString> ids) const;

  /// Applies an update spec to the document with the given _id, with one
  /// descent of the primary tree. Returns false when the document does not
  /// exist. Otherwise the document as it was before and after the update
  /// goes to `pre_image` and `post_image` when given.
  bool Update(const doc::KeyString& id, const doc::UpdateSpec& spec,
              DocPtr* pre_image = nullptr, DocPtr* post_image = nullptr);

  /// Removes by _id. Returns true if it existed; the removed document goes
  /// to `removed` when given.
  bool Remove(const doc::KeyString& id, DocPtr* removed = nullptr);

  /// Declares a secondary index over the given dotted paths. Existing
  /// documents are indexed immediately. Documents missing an indexed path
  /// are indexed under Null for that component (MongoDB-like).
  void CreateIndex(std::string index_name, std::vector<std::string> paths);

  bool HasIndex(const std::string& index_name) const;

  /// Returns matching documents in _id order, up to `limit`.
  /// Uses the primary key or a secondary index when the filter pins them
  /// with equality; otherwise scans.
  std::vector<DocPtr> Find(const doc::Filter& filter,
                           size_t limit = SIZE_MAX) const;

  /// Number of matching documents, counted in place (no result
  /// materialization).
  size_t Count(const doc::Filter& filter) const;

  /// Find with sort/limit/projection. Returns document *copies* (projected
  /// when requested), since projection materializes new values.
  std::vector<doc::Value> FindWith(const doc::Filter& filter,
                                   const FindOptions& options) const;

  /// Range scan over the primary key: documents with low <= _id <= high,
  /// in _id order, up to `limit`.
  std::vector<DocPtr> RangeById(const doc::KeyString& low,
                                const doc::KeyString& high,
                                size_t limit = SIZE_MAX) const;

  /// Range scan over a secondary index: documents whose indexed tuple is
  /// lexicographically within [low_prefix, high_prefix] (inclusive, compared
  /// over the length of each given prefix). Results are in index order.
  std::vector<DocPtr> IndexScan(const std::string& index_name,
                                const std::vector<doc::Value>& low_prefix,
                                const std::vector<doc::Value>& high_prefix,
                                size_t limit = SIZE_MAX) const;

  /// Visits every document in _id order; stop early by returning false.
  void ForEach(const std::function<bool(const doc::Value& id,
                                        const DocPtr& document)>& fn) const;

  /// Replaces this collection's documents and secondary indexes with
  /// `source`'s: every tree is cloned node for node and the immutable
  /// documents are shared, not copied. The name stays.
  void CopyFrom(const Collection& source);

  /// Validates primary and secondary index invariants (every document
  /// reachable through each index exactly once, and vice versa).
  void CheckInvariants() const;

 private:
  struct Index {
    std::string name;
    std::vector<doc::Path> paths;  // compiled at CreateIndex
    BTree tree;  // key: Array[path values..., _id]; payload: document
  };

  /// Appends the encoding of `document`'s entry in `index`, the Array
  /// [path values..., _id], straight from the document's fields.
  static void AppendIndexKey(const Index& index, const doc::Value& document,
                             doc::KeyStringBuilder* out);

  /// Enumerates matching documents in the same order Find returns them,
  /// choosing the primary key or a secondary index when the filter pins
  /// them with equality. `visit` returns false to stop early. Find and
  /// Count share this enumerator (Count never materializes results).
  template <typename Visit>
  void VisitMatches(const doc::Filter& filter, Visit&& visit) const;

  /// Installs `d` under `id` in the primary tree and maintains the
  /// indexes: Put without the check that `id` encodes d's _id, for callers
  /// that took `id` from d.
  bool Install(doc::KeyString id, const DocPtr& d, DocPtr* replaced);

  /// Index maintenance after `d` was installed in the primary tree in place
  /// of `old` (nullptr: d's _id was new). Every write path ends here.
  void OnInstalled(const DocPtr& old, const DocPtr& d);

  void IndexDocument(Index* index, const DocPtr& d);
  void UnindexDocument(Index* index, const doc::Value& document);

  std::string name_;
  BTree primary_;
  std::vector<std::unique_ptr<Index>> indexes_;
};

}  // namespace dcg::store

#endif  // DCG_STORE_COLLECTION_H_
