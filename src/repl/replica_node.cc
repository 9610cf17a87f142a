#include "repl/replica_node.h"

#include "util/check.h"

namespace dcg::repl {

void ReplicaNode::ApplyEntry(const OplogEntry& entry) {
  DCG_CHECK_MSG(last_applied_.seq + 1 == entry.optime.seq,
                "out-of-order oplog application on %s", name().c_str());
  store::Collection& coll = db().GetOrCreate(entry.collection);
  switch (entry.kind) {
    case OpKind::kInsert:
    case OpKind::kUpdate: {
      DCG_CHECK_MSG(entry.doc != nullptr,
                    "oplog entry %llu reached %s without its document",
                    static_cast<unsigned long long>(entry.optime.seq),
                    name().c_str());
      // Both install the primary's committed document. Idempotent replay
      // semantics: an insert overwrites any stale copy, while an update
      // must replace a document this member already holds.
      const bool is_new = coll.Put(entry.key, entry.doc);
      DCG_CHECK_MSG(entry.kind == OpKind::kInsert || !is_new,
                    "replayed update of missing doc in %s",
                    entry.collection.c_str());
      break;
    }
    case OpKind::kRemove:
      coll.Remove(entry.key);
      break;
    case OpKind::kNoop:
      break;
  }
  last_applied_ = entry.optime;
  ++entries_applied_;
  server_.AddDirtyBytes(entry.approx_bytes);
}

void ReplicaNode::AdvanceLastApplied(const OpTime& optime) {
  DCG_CHECK(last_applied_.seq + 1 == optime.seq);
  last_applied_ = optime;
  ++entries_applied_;
}

}  // namespace dcg::repl
