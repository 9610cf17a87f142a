#ifndef DCG_PROTO_COMMAND_H_
#define DCG_PROTO_COMMAND_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "doc/filter.h"
#include "doc/value.h"
#include "net/network.h"
#include "proto/op_context.h"
#include "repl/oplog.h"
#include "repl/txn.h"
#include "server/service_model.h"
#include "sim/time.h"

namespace dcg::proto {

/// Runs at a read's server-side completion against the serving node's data.
using ReadBody = std::function<void(const store::Database&)>;
/// Runs atomically at a write transaction's commit instant on the primary.
using TxnBody = std::function<void(repl::TxnContext*)>;

/// The command vocabulary of the wire protocol — what a driver actually
/// sends to a mongod (§2.2): CRUD, liveness/topology handshakes, and the
/// diagnostic command Decongestant polls.
enum class CommandKind {
  kFind,          // read-only operation (body runs against node data)
  kWrite,         // read-write transaction (primary only)
  kPing,          // application-level liveness/RTT probe
  kServerStatus,  // replication-progress snapshot (primary only)
  kHello,         // topology discovery heartbeat (any node)
};

std::string_view ToString(CommandKind kind);

/// Server-side verdict carried in a reply.
enum class ReplyStatus {
  kOk,
  /// The command required a primary but the serving node is not one —
  /// the driver must re-discover topology and retry elsewhere.
  kNotPrimary,
  /// The command carried a shard/chunk version older than what the
  /// serving shard knows (MongoDB's StaleConfig). Rejected before any
  /// body ran — a router must refresh its routing table and re-route.
  kStaleConfig,
};

/// Mongos-style routing metadata a command carries alongside its opaque
/// body. The client stamps collection + shard-key value (bodies are
/// closures the router cannot inspect); the router adds the chunk it
/// resolved and the routing-table version it resolved against, which the
/// shard checks at admission. Empty collection = unrouted traffic.
struct RouteInfo {
  std::string collection;
  /// True when `key` holds the op's shard-key value (point ops). False =
  /// untargeted (scatter reads, internal traffic).
  bool has_key = false;
  doc::Value key;
  /// Chunk the router resolved `key` to (-1 = unrouted/scatter).
  int64_t chunk_id = -1;
  /// Routing-table version the router resolved against (0 = unversioned:
  /// the shard admits without a staleness check).
  uint64_t shard_version = 0;
};

/// A structured (inspectable) find: unlike the opaque ReadBody closures,
/// a router can split this across shards and merge the partial results.
/// Mirrors the find-command fields mongos itself forwards: filter, sort,
/// limit, and the allowPartialResults escape hatch.
struct FindSpec {
  std::string collection;
  doc::Filter filter = doc::Filter::True();
  /// Sort path ("" = no sort: _id order). Merge uses doc::Value's
  /// canonical total order on this field.
  std::string sort_field;
  bool sort_descending = false;
  size_t limit = std::numeric_limits<size_t>::max();
  /// Return only the match count, not the documents.
  bool count_only = false;
  /// allowPartialResults: a router may answer with the shards that made
  /// the deadline instead of failing the whole op.
  bool allow_partial = false;
};

/// Result of a structured find, whether from one shard or merged by a
/// router across shards.
struct FindResult {
  std::vector<doc::Value> docs;
  size_t count = 0;
  /// True when a router omitted at least one shard (allow_partial path).
  bool partial = false;
  /// Shards that contributed (1 for a single-node execution).
  int shards_answered = 1;
};

/// What the primary's serverStatus reports about replication progress.
/// (Moved here from ReplicaSet: it is a wire-protocol payload now.)
struct ServerStatusReply {
  repl::OpTime primary_last_applied;
  /// Per live secondary, as known to the primary via heartbeats (lagged);
  /// `secondary_nodes` holds the matching node indexes.
  std::vector<repl::OpTime> secondary_last_applied;
  std::vector<int> secondary_nodes;
  sim::Time generated_at = 0;
};

/// The staleness of §2.3 for the reply's i-th secondary: primary
/// lastApplied wall − secondary lastApplied wall in whole seconds (MongoDB's
/// reporting granularity), or 0 when the secondary has applied the
/// primary's last entry. Unclamped: a skewed secondary clock can make it
/// negative.
int64_t SecondaryStalenessSeconds(const ServerStatusReply& reply, size_t i);

/// The staleness estimate of §2.3: the max of SecondaryStalenessSeconds
/// over the reply's secondaries, floored at 0.
int64_t MaxStalenessSeconds(const ServerStatusReply& reply);

/// Topology heartbeat payload (MongoDB's `hello`): who the serving node
/// is, who it believes the primary is, and under which election term.
struct HelloReply {
  int node_index = -1;
  bool is_primary = false;
  int primary_index = -1;
  uint64_t term = 0;
  repl::OpTime last_applied;
};

/// Typed reply to a Command. Routed back to the issuing client via the
/// `on_reply` continuation the command carried.
struct Reply {
  uint64_t op_id = 0;
  CommandKind kind = CommandKind::kPing;
  ReplyStatus status = ReplyStatus::kOk;
  /// kWrite: true when the transaction committed (false = aborted).
  bool committed = false;
  /// Serving node's lastAppliedOpTime at execution (kFind) or the commit
  /// point (kWrite) — MongoDB's operationTime.
  int node_index = -1;
  repl::OpTime operation_time;
  /// Whether the serving node held the primary role at completion.
  bool from_primary = false;
  /// Copied from the request's OpContext, so the client can tell which
  /// arm of a hedged read answered first.
  bool is_hedge = false;
  /// Copied from the request's OpContext: the pool connection the attempt
  /// rode, so the client checks the right one back in.
  uint64_t conn_id = 0;
  /// Instant the server put this reply on the wire (0 = untraced), so the
  /// client can record the reply's wire-transit span on arrival.
  sim::Time sent_at = 0;
  ServerStatusReply server_status;  // kServerStatus only
  HelloReply hello;                 // kHello only
  /// kFind with a FindSpec payload: the documents/count that matched.
  /// Shared (immutable once built) so fan-in merging never copies twice.
  std::shared_ptr<const FindResult> find_result;
};

/// One typed wire command. In a real driver this is a BSON message; here
/// the payload is the operation body itself, but the envelope — kind,
/// OpContext, reply address — is what the protocol layer dispatches on.
/// Built once per attempt on the heap and passed by CommandPtr through
/// every hop (bus, CPU queue, parking, commit), so no hop moves it.
struct Command {
  CommandKind kind = CommandKind::kPing;
  OpContext ctx;
  server::OpClass op_class = server::OpClass::kPointRead;
  /// kFind: fail with kNotPrimary unless the serving node is the primary
  /// (Read Preference primary is a *server-checked* contract).
  bool require_primary = false;
  ReadBody read_body;  // kFind (opaque; exactly one of read_body/find_spec)
  /// kFind, structured: the server executes the spec against its data and
  /// replies with a FindResult; a router can scatter it across shards.
  std::shared_ptr<const FindSpec> find_spec;
  /// Routing metadata (sharded mode); inert on unsharded buses.
  RouteInfo route;
  TxnBody txn_body;  // kWrite
  repl::WriteConcern concern = repl::WriteConcern::kW1;  // kWrite
  /// Service-cost multiplier applied server-side to this command's CPU
  /// sample. 1.0 for singleton commands; members of an Envelope carry the
  /// ServiceModel's envelope_op_fraction (the amortisation discount).
  double cost_scale = 1.0;
  /// Where the reply is delivered (the issuing client's host).
  net::HostId reply_to = -1;
  /// Client-side continuation invoked when the reply message arrives.
  /// Carried in the command (a connection, in effect) so several clients
  /// can share one host without a reply-demux registry.
  std::function<void(const Reply&)> on_reply;
};

/// How a Command travels: one heap object per attempt, owned by whichever
/// hop holds it now.
using CommandPtr = std::unique_ptr<Command>;

/// A batch of same-target commands shipped as ONE network message (the
/// wire analogue of a driver bulk op / OP_MSG with multiple sections).
/// The whole envelope shares one fate on the wire — dropped together,
/// delivered together — and rides one pooled connection end to end. Each
/// member keeps its own OpContext (op id, deadline, reply continuation);
/// the server charges one envelope base cost plus a discounted per-op
/// increment (ServiceModel envelope cost table).
struct Envelope {
  std::vector<CommandPtr> commands;
};

/// The wire between drivers and per-node CommandServices: commands travel
/// as net::Network messages (so faults drop and delay them like any other
/// traffic), and the bus dispatches each one to the service registered at
/// the destination host. Replies travel back the same way via `on_reply`.
class CommandBus {
 public:
  explicit CommandBus(net::Network* network) : network_(network) {}

  CommandBus(const CommandBus&) = delete;
  CommandBus& operator=(const CommandBus&) = delete;

  using Handler = std::function<void(CommandPtr)>;
  using EnvelopeHandler = std::function<void(Envelope)>;

  /// Registers the service handling commands addressed to `host`.
  /// Registration order defines the node indexing drivers use.
  void RegisterService(net::HostId host, Handler handler);

  /// Registers the envelope (batched command) handler for `host`. Optional
  /// and separate from RegisterService so node ordering is unaffected;
  /// SendEnvelope to a host without one is a programming error.
  void RegisterEnvelopeService(net::HostId host, EnvelopeHandler handler);

  /// Node hosts in registration (= replica-set node index) order. This is
  /// the topology seed a driver starts from, like a connection string.
  const std::vector<net::HostId>& server_hosts() const {
    return server_hosts_;
  }

  net::Network* network() { return network_; }

  /// A fresh logical session id for a client dialling this bus (1, 2, …).
  /// Per bus, not per host: two clients may share a host.
  uint64_t StartSession() { return ++sessions_started_; }
  uint64_t sessions_started() const { return sessions_started_; }

  /// Ships `command` from the client host to a server host. Silently lost
  /// when the network drops it — callers enforce deadlines client-side.
  /// Only the pointer travels: the wire message is {bus, host, pointer}.
  void Send(net::HostId from, net::HostId to, CommandPtr command);

  /// Ships a whole envelope as one network message: one send, one
  /// delivery, one drop decision for every member command. Callers
  /// enforce per-member deadlines client-side, exactly as with Send.
  void SendEnvelope(net::HostId from, net::HostId to, Envelope envelope);

 private:
  net::Network* network_;
  std::vector<net::HostId> server_hosts_;
  /// Indexed by host id (Network::AddHost hands out dense ids); an empty
  /// handler marks a host with no service.
  std::vector<Handler> handlers_;
  std::vector<EnvelopeHandler> envelope_handlers_;
  uint64_t sessions_started_ = 0;
};

}  // namespace dcg::proto

#endif  // DCG_PROTO_COMMAND_H_
