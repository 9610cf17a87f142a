#ifndef DCG_SHARD_CHUNK_MAP_H_
#define DCG_SHARD_CHUNK_MAP_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "doc/value.h"
#include "proto/command.h"

namespace dcg::shard {

/// How documents map to shards: which field carries the shard key, and
/// whether placement follows the key's hash (uniform spread, the default)
/// or its value order (range sharding — locality-preserving, so a
/// monotonically increasing key concentrates load on one chunk, exactly
/// the hot-shard scenario the shared staleness budget is tested under).
struct ShardKeyPattern {
  std::string field = "_id";
  bool hashed = true;
};

/// One contiguous slice of the key space, owned by exactly one shard.
/// Chunk ranges are fixed at map construction; only ownership moves
/// (MoveChunk), which is what bumps the routing-table version.
struct Chunk {
  int64_t id = 0;
  int shard = 0;
  /// Hashed pattern: the chunk covers hashes in [hash_lo, hash_hi]
  /// (inclusive — the top chunk must reach UINT64_MAX).
  uint64_t hash_lo = 0;
  uint64_t hash_hi = 0;
  /// Ranged pattern: keys in [lower, upper); the first chunk has no lower
  /// bound and the last no upper bound.
  bool has_lower = false;
  bool has_upper = false;
  doc::Value lower;
  doc::Value upper;
};

/// The routing table a mongos resolves against: an immutable partition of
/// the shard-key space into chunks, a mutable chunk → shard assignment,
/// and a version that increments on every assignment change. Copyable so
/// ConfigShards can hand out cheap immutable snapshots; a router caching
/// a snapshot learns it is stale only when a shard refuses the version it
/// stamped (kStaleConfig) — MongoDB's lazy routing-table refresh.
class ChunkMap {
 public:
  /// The key hash routing uses for hashed patterns: FNV-1a over the
  /// value's ToJson text, streamed through doc::WriteJson, then a
  /// full-avalanche mix — stable across runs, so hashed placement is
  /// deterministic.
  static uint64_t HashKey(const doc::Value& key);

  /// Hashed pre-split (MongoDB's initial chunks for a hashed key): the
  /// 64-bit hash space divided into shards × chunks_per_shard equal
  /// slices, each shard owning one contiguous block of slices.
  static ChunkMap Hashed(ShardKeyPattern pattern, int shards,
                         int chunks_per_shard);

  /// Ranged split: `split_points` (strictly ascending in doc::Value's
  /// canonical order) cut the key line into split_points.size() + 1
  /// chunks, assigned round-robin across shards.
  static ChunkMap Ranged(ShardKeyPattern pattern,
                         std::vector<doc::Value> split_points, int shards);

  const ShardKeyPattern& pattern() const { return pattern_; }
  uint64_t version() const { return version_; }
  int shard_count() const { return shards_; }
  int chunk_count() const { return static_cast<int>(chunks_.size()); }
  const Chunk& chunk(int64_t id) const {
    return chunks_[static_cast<size_t>(id)];
  }
  const std::vector<Chunk>& chunks() const { return chunks_; }

  /// The chunk covering this shard-key value. Total: every key maps to
  /// exactly one chunk under either pattern.
  int64_t ChunkIdFor(const doc::Value& key) const;
  int ShardFor(const doc::Value& key) const {
    return chunk(ChunkIdFor(key)).shard;
  }

  /// Documents owned by `shard` under this map (chunk count, for balance
  /// summaries).
  int ChunksOwnedBy(int shard) const;

  /// Reassigns a chunk and bumps the version. Routers still holding the
  /// old version get kStaleConfig from every shard until they refresh.
  void MoveChunk(int64_t chunk_id, int to_shard);

 private:
  ShardKeyPattern pattern_;
  int shards_ = 1;
  uint64_t version_ = 1;
  std::vector<Chunk> chunks_;
  /// Ranged pattern: chunks_[i] covers [splits_[i-1], splits_[i]).
  std::vector<doc::Value> splits_;
};

/// The config-server role, collapsed to its essence: the single authority
/// for the routing table. Routers cache Snapshot()s and refresh on
/// kStaleConfig; shards validate every versioned command against the
/// authoritative assignment via Admit — *before* any body runs, so a
/// stale-routed write applies nothing and a post-refresh re-route cannot
/// duplicate it.
class ConfigShards {
 public:
  explicit ConfigShards(ChunkMap initial)
      : current_(std::make_shared<const ChunkMap>(std::move(initial))) {}

  ConfigShards(const ConfigShards&) = delete;
  ConfigShards& operator=(const ConfigShards&) = delete;

  /// The current routing table, immutable. Cheap: shared ownership of the
  /// same snapshot until the next MoveChunk replaces it.
  std::shared_ptr<const ChunkMap> Snapshot() const { return current_; }

  uint64_t version() const { return current_->version(); }

  /// Reassigns a chunk (metadata only — ShardedCluster::MoveChunk pairs
  /// this with the document migration).
  void MoveChunk(int64_t chunk_id, int to_shard);

  /// Admission verdict for a command arriving at `shard`: unversioned
  /// traffic (shard_version == 0 — scatter sub-reads, per-shard probes,
  /// internal ops) always passes; versioned traffic passes only when the
  /// stamped version is current *and* the named chunk is owned by the
  /// serving shard.
  bool Admit(const proto::RouteInfo& route, int shard);

  /// Commands refused for a stale version or a moved chunk.
  uint64_t stale_refusals() const { return stale_refusals_; }

 private:
  std::shared_ptr<const ChunkMap> current_;
  uint64_t stale_refusals_ = 0;
};

}  // namespace dcg::shard

#endif  // DCG_SHARD_CHUNK_MAP_H_
