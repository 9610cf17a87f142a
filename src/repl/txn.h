#ifndef DCG_REPL_TXN_H_
#define DCG_REPL_TXN_H_

#include <string>
#include <vector>

#include "doc/key_string.h"
#include "doc/update.h"
#include "doc/value.h"
#include "repl/oplog.h"
#include "store/database.h"

namespace dcg::repl {

/// Durability requirement for a write (MongoDB write concern).
enum class WriteConcern {
  kW1,        // acknowledged once committed on the primary (default)
  kMajority,  // acknowledged once a majority of nodes have applied it
};

/// Write-transaction context handed to transaction bodies executing on the
/// primary.
///
/// Because a transaction body runs inside a single simulation event, it is
/// trivially atomic and isolated; writes apply to the primary's database
/// immediately (so the body reads its own writes, as TPC-C Delivery needs)
/// while being recorded for the oplog. `Abort()` rolls every write back by
/// reinstalling the captured pre-images (the very document objects the
/// writes replaced) and suppresses the oplog entries — used by TPC-C New
/// Order's 1 % programmed rollback.
class TxnContext {
 public:
  explicit TxnContext(store::Database* db) : db_(db) {}

  TxnContext(const TxnContext&) = delete;
  TxnContext& operator=(const TxnContext&) = delete;

  /// Read access to the primary's current data (including this
  /// transaction's own writes).
  const store::Database& db() const { return *db_; }

  /// Inserts a new document. CHECK-fails on duplicate _id (workload bug).
  void Insert(const std::string& collection, doc::Value document);

  /// Applies an update spec to the document whose _id encodes to `id`.
  /// Returns false when the document is missing.
  bool Update(const std::string& collection, const doc::KeyString& id,
              const doc::UpdateSpec& spec);

  /// Removes a document. Returns true if it existed.
  bool Remove(const std::string& collection, const doc::KeyString& id);

  /// Rolls back every write of this transaction and marks it aborted.
  void Abort();

  bool aborted() const { return aborted_; }

  /// The recorded logical operations, in order (optimes unset — the
  /// replica set assigns them at commit).
  std::vector<OplogEntry>& entries() { return entries_; }

 private:
  struct Undo {
    std::string collection;
    doc::KeyString key;
    store::DocPtr pre_image;  // nullptr => document did not exist
  };

  store::Database* db_;
  std::vector<OplogEntry> entries_;
  std::vector<Undo> undo_;
  bool aborted_ = false;
};

}  // namespace dcg::repl

#endif  // DCG_REPL_TXN_H_
