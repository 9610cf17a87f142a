#ifndef DCG_REPL_REPLICA_NODE_H_
#define DCG_REPL_REPLICA_NODE_H_

#include <memory>
#include <string>

#include "repl/oplog.h"
#include "repl/topology_coordinator.h"
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

  /// The member's current role, scoped to the term it was assumed in.
  /// Mirrored from the replica set's topology state (the coordinator in
  /// raft-election mode, the global primary index otherwise) every time a
  /// transition lands at this node — a read-only view for tests and logs.
  MemberRole role() const { return role_; }
  uint64_t role_term() const { return role_term_; }
  void set_role_view(MemberRole role, uint64_t term) {
    role_ = role;
    role_term_ = term;
  }

 private:
  server::ServerNode server_;
  OpTime last_applied_;
  uint64_t entries_applied_ = 0;
  MemberRole role_ = MemberRole::kSecondary;
  uint64_t role_term_ = 1;
};

}  // namespace dcg::repl

#endif  // DCG_REPL_REPLICA_NODE_H_
