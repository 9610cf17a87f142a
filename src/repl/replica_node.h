#ifndef DCG_REPL_REPLICA_NODE_H_
#define DCG_REPL_REPLICA_NODE_H_

#include <memory>
#include <string>

#include "repl/oplog.h"
#include "server/server_node.h"

namespace dcg::repl {

/// One member of a replica set: a ServerNode (CPU/disk/data) plus
/// replication bookkeeping (lastAppliedOpTime, §2.3).
class ReplicaNode {
 public:
  ReplicaNode(sim::EventLoop* loop, sim::Rng rng, server::ServerParams params,
              net::HostId host, std::string name)
      : server_(loop, std::move(rng), params, host, std::move(name)) {}

  ReplicaNode(const ReplicaNode&) = delete;
  ReplicaNode& operator=(const ReplicaNode&) = delete;

  server::ServerNode& server() { return server_; }
  const server::ServerNode& server() const { return server_; }
  store::Database& db() { return server_.db(); }
  const store::Database& db() const { return server_.db(); }
  net::HostId host() const { return server_.host(); }
  const std::string& name() const { return server_.name(); }

  /// The optime of the newest operation applied to this node's data.
  const OpTime& last_applied() const { return last_applied_; }

  /// Applies one oplog entry's data change to the local database and
  /// advances last_applied. Inserts and updates install the entry's shared
  /// document, so applying the same entries in order yields identical
  /// databases, holding the same document objects, on every node.
  void ApplyEntry(const OplogEntry& entry);

  /// Advances last_applied without replaying data — used on the primary,
  /// whose transactions mutate the database directly at commit time.
  void AdvanceLastApplied(const OpTime& optime);

  /// Resets replication state after an initial sync: the node's data was
  /// just cloned from a member whose last applied optime is `synced_to`.
  void ResetForResync(const OpTime& synced_to) {
    last_applied_ = synced_to;
  }

  uint64_t entries_applied() const { return entries_applied_; }

 private:
  server::ServerNode server_;
  OpTime last_applied_;
  uint64_t entries_applied_ = 0;
};

}  // namespace dcg::repl

#endif  // DCG_REPL_REPLICA_NODE_H_
