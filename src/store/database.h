#ifndef DCG_STORE_DATABASE_H_
#define DCG_STORE_DATABASE_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "store/collection.h"

namespace dcg::store {

/// A node-local set of named collections — the data a single replica holds.
///
/// Each ReplicaNode owns one Database; replication installs the documents
/// the primary committed into the secondaries' Databases, so after the log
/// drains all Databases in a replica set are equal and share their
/// documents (asserted by the convergence property tests via Fingerprint()).
class Database {
 public:
  Database() = default;

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  /// Returns the collection, creating it if needed.
  Collection& GetOrCreate(const std::string& name);

  /// Returns the collection or nullptr.
  Collection* Get(const std::string& name);
  const Collection* Get(const std::string& name) const;

  /// Names of all collections, sorted.
  std::vector<std::string> CollectionNames() const;

  /// Replaces this database's entire contents (collections, documents,
  /// and secondary indexes) with those of `source` — the data path of a
  /// MongoDB initial sync, used when a node rejoins after a crash. The
  /// trees are cloned node for node (Collection::CopyFrom); the immutable
  /// documents are shared, not copied.
  void ResetFrom(const Database& source);

  /// Order-insensitive structural fingerprint of all data (collection
  /// names, document ids, and document contents). Two databases hold the
  /// same logical data iff their fingerprints are equal (up to hash
  /// collisions); used to assert replication convergence cheaply.
  uint64_t Fingerprint() const;

 private:
  std::map<std::string, std::unique_ptr<Collection>> collections_;
};

}  // namespace dcg::store

#endif  // DCG_STORE_DATABASE_H_
