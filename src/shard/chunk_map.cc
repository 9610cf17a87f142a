#include "shard/chunk_map.h"

#include <algorithm>
#include <string_view>
#include <utility>

#include "doc/json.h"
#include "util/check.h"

namespace dcg::shard {

uint64_t ChunkMap::HashKey(const doc::Value& key) {
  // FNV-1a over the key's JSON text, streamed: no string is built.
  struct Fnv {
    void Put(char c) {
      h ^= static_cast<unsigned char>(c);
      h *= 0x100000001b3ULL;
    }
    void Put(std::string_view s) {
      for (const char c : s) Put(c);
    }
    uint64_t h = 0xcbf29ce484222325ULL;
  } fnv;
  doc::WriteJson(key, &fnv);
  uint64_t h = fnv.h;
  // Chunk ranges slice the *high* bits of the hash line, and raw FNV-1a
  // barely stirs them for short keys (the final byte only reaches ~40
  // bits up) — finalize with a full-avalanche mix so consecutive ids
  // spread evenly across chunks.
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return h;
}

ChunkMap ChunkMap::Hashed(ShardKeyPattern pattern, int shards,
                          int chunks_per_shard) {
  DCG_CHECK(pattern.hashed);
  DCG_CHECK(shards >= 1);
  DCG_CHECK(chunks_per_shard >= 1);
  ChunkMap map;
  map.pattern_ = std::move(pattern);
  map.shards_ = shards;
  const int total = shards * chunks_per_shard;
  // Equal slices of the 64-bit hash line via 128-bit arithmetic, so the
  // boundaries are exact for any chunk count (no truncated division).
  const auto boundary = [total](int i) -> uint64_t {
    return static_cast<uint64_t>(
        (static_cast<unsigned __int128>(i) << 64) /
        static_cast<unsigned __int128>(total));
  };
  for (int i = 0; i < total; ++i) {
    Chunk c;
    c.id = i;
    c.shard = i / chunks_per_shard;  // contiguous block per shard
    c.hash_lo = boundary(i);
    c.hash_hi = i + 1 == total ? UINT64_MAX : boundary(i + 1) - 1;
    map.chunks_.push_back(std::move(c));
  }
  return map;
}

ChunkMap ChunkMap::Ranged(ShardKeyPattern pattern,
                          std::vector<doc::Value> split_points, int shards) {
  DCG_CHECK(!pattern.hashed);
  DCG_CHECK(shards >= 1);
  for (size_t i = 1; i < split_points.size(); ++i) {
    DCG_CHECK_MSG(split_points[i - 1] < split_points[i],
                  "ranged split points must be strictly ascending");
  }
  ChunkMap map;
  map.pattern_ = std::move(pattern);
  map.shards_ = shards;
  const int total = static_cast<int>(split_points.size()) + 1;
  for (int i = 0; i < total; ++i) {
    Chunk c;
    c.id = i;
    c.shard = i % shards;  // round-robin: adjacent ranges on distinct shards
    if (i > 0) {
      c.has_lower = true;
      c.lower = split_points[static_cast<size_t>(i - 1)];
    }
    if (i + 1 < total) {
      c.has_upper = true;
      c.upper = split_points[static_cast<size_t>(i)];
    }
    map.chunks_.push_back(std::move(c));
  }
  map.splits_ = std::move(split_points);
  return map;
}

int64_t ChunkMap::ChunkIdFor(const doc::Value& key) const {
  if (pattern_.hashed) {
    const uint64_t h = HashKey(key);
    // Inverse of the exact-boundary slicing: chunk index = h * total / 2^64.
    const auto total = static_cast<unsigned __int128>(chunks_.size());
    auto idx = static_cast<int64_t>(
        (static_cast<unsigned __int128>(h) * total) >> 64);
    // Boundary rounding can land one off; nudge into the covering range.
    while (h < chunks_[static_cast<size_t>(idx)].hash_lo) --idx;
    while (h > chunks_[static_cast<size_t>(idx)].hash_hi) ++idx;
    return idx;
  }
  // First split point strictly greater than the key: the key lives in the
  // chunk just below it.
  const auto it = std::upper_bound(splits_.begin(), splits_.end(), key);
  return static_cast<int64_t>(it - splits_.begin());
}

int ChunkMap::ChunksOwnedBy(int shard) const {
  int owned = 0;
  for (const Chunk& c : chunks_) {
    if (c.shard == shard) ++owned;
  }
  return owned;
}

void ChunkMap::MoveChunk(int64_t chunk_id, int to_shard) {
  DCG_CHECK(chunk_id >= 0 && chunk_id < chunk_count());
  DCG_CHECK(to_shard >= 0 && to_shard < shards_);
  Chunk& c = chunks_[static_cast<size_t>(chunk_id)];
  DCG_CHECK_MSG(c.shard != to_shard, "chunk already lives on that shard");
  c.shard = to_shard;
  ++version_;
}

void ConfigShards::MoveChunk(int64_t chunk_id, int to_shard) {
  auto next = std::make_shared<ChunkMap>(*current_);
  next->MoveChunk(chunk_id, to_shard);
  current_ = std::move(next);
}

bool ConfigShards::Admit(const proto::RouteInfo& route, int shard) {
  if (route.shard_version == 0) return true;
  const bool current = route.shard_version == current_->version();
  const bool owned =
      route.chunk_id >= 0 && route.chunk_id < current_->chunk_count() &&
      current_->chunk(route.chunk_id).shard == shard;
  if (current && owned) return true;
  ++stale_refusals_;
  return false;
}

}  // namespace dcg::shard
