// Unit tests for the versioned chunk map (hashed + ranged key spaces),
// the ConfigShards routing authority with its admission protocol, and the
// shared client-wide StalenessBudget.

#include <set>

#include <gtest/gtest.h>

#include "core/staleness_budget.h"
#include "shard/chunk_map.h"

namespace dcg::shard {
namespace {

TEST(ChunkMapTest, HashedChunksTileTheWholeHashLine) {
  const ChunkMap map = ChunkMap::Hashed(ShardKeyPattern{}, 3, 4);
  ASSERT_EQ(map.chunk_count(), 12);
  EXPECT_EQ(map.chunk(0).hash_lo, 0u);
  EXPECT_EQ(map.chunk(11).hash_hi, UINT64_MAX);
  for (int64_t i = 1; i < map.chunk_count(); ++i) {
    EXPECT_EQ(map.chunk(i).hash_lo, map.chunk(i - 1).hash_hi + 1)
        << "gap or overlap between chunks " << i - 1 << " and " << i;
  }
}

TEST(ChunkMapTest, HashedAssignsContiguousBlocksPerShard) {
  const ChunkMap map = ChunkMap::Hashed(ShardKeyPattern{}, 2, 4);
  for (int64_t c = 0; c < map.chunk_count(); ++c) {
    EXPECT_EQ(map.chunk(c).shard, c < 4 ? 0 : 1);
  }
}

TEST(ChunkMapTest, ChunkIdForAgreesWithChunkRanges) {
  const ChunkMap map = ChunkMap::Hashed(ShardKeyPattern{}, 2, 8);
  for (int64_t id = 0; id < 5000; ++id) {
    const doc::Value key(id);
    const int64_t c = map.ChunkIdFor(key);
    const uint64_t h = ChunkMap::HashKey(key);
    ASSERT_GE(c, 0);
    ASSERT_LT(c, map.chunk_count());
    EXPECT_GE(h, map.chunk(c).hash_lo);
    EXPECT_LE(h, map.chunk(c).hash_hi);
  }
}

// HashKey streams the key's JSON text into FNV-1a: the same hash as
// FNV-1a plus the finalizing mix over the ToJson string.
TEST(ChunkMapTest, HashKeyIsFnvAndMixOverToJson) {
  const auto reference = [](const doc::Value& key) {
    uint64_t h = 0xcbf29ce484222325ULL;
    for (const char c : key.ToJson()) {
      h ^= static_cast<unsigned char>(c);
      h *= 0x100000001b3ULL;
    }
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    h *= 0xc4ceb9fe1a85ec53ULL;
    h ^= h >> 33;
    return h;
  };
  const doc::Value keys[] = {
      doc::Value(int64_t{0}),
      doc::Value(int64_t{-9223372036854775807LL - 1}),
      doc::Value(int64_t{123456789}),
      doc::Value("user\"quoted\\back\nline"),
      doc::Value(std::string(40, 'k')),
      doc::Value::List({int64_t{1}, int64_t{2}, "three", 4.5}),
      doc::Value(0.1),
      doc::Value(-2.5e300),
      doc::Value::Timestamp(77),
      doc::Value::Doc({{"a\"b", doc::Value()}, {"t", true}}),
  };
  for (const doc::Value& key : keys) {
    EXPECT_EQ(ChunkMap::HashKey(key), reference(key)) << key.ToJson();
  }
  // Pinned: every hashed run's placement depends on these bits.
  EXPECT_EQ(ChunkMap::HashKey(doc::Value(int64_t{42})), 0x810b196a56ee3cecULL);
  EXPECT_EQ(ChunkMap::HashKey(doc::Value::List({1, 2})), 0xba98488ca303d84bULL);
}

TEST(ChunkMapTest, HashedSpreadsConsecutiveIdsAcrossShards) {
  // The finalized hash must mix the *high* bits (the chunk ranges slice
  // them): 100 consecutive ids should land near 50/50 on two shards.
  const ChunkMap map = ChunkMap::Hashed(ShardKeyPattern{}, 2, 4);
  int counts[2] = {0, 0};
  for (int64_t id = 0; id < 100; ++id) {
    ++counts[map.ShardFor(doc::Value(id))];
  }
  EXPECT_GT(counts[0], 25);
  EXPECT_GT(counts[1], 25);
}

TEST(ChunkMapTest, RangedRoutesByUpperBoundOnSplits) {
  ShardKeyPattern pattern;
  pattern.hashed = false;
  const ChunkMap map = ChunkMap::Ranged(
      pattern,
      {doc::Value(int64_t{100}), doc::Value(int64_t{200}),
       doc::Value(int64_t{300})},
      2);
  ASSERT_EQ(map.chunk_count(), 4);
  // Round-robin placement: chunk i on shard i % 2.
  EXPECT_EQ(map.ChunkIdFor(doc::Value(int64_t{50})), 0);
  // Splits are lower-inclusive: key == split lands in the higher chunk.
  EXPECT_EQ(map.ChunkIdFor(doc::Value(int64_t{100})), 1);
  EXPECT_EQ(map.ChunkIdFor(doc::Value(int64_t{150})), 1);
  EXPECT_EQ(map.ChunkIdFor(doc::Value(int64_t{250})), 2);
  EXPECT_EQ(map.ChunkIdFor(doc::Value(int64_t{999})), 3);
  EXPECT_EQ(map.ShardFor(doc::Value(int64_t{50})), 0);
  EXPECT_EQ(map.ShardFor(doc::Value(int64_t{150})), 1);
  EXPECT_EQ(map.ShardFor(doc::Value(int64_t{250})), 0);
  EXPECT_EQ(map.ShardFor(doc::Value(int64_t{999})), 1);
}

TEST(ChunkMapTest, MoveChunkBumpsVersionAndReassigns) {
  ChunkMap map = ChunkMap::Hashed(ShardKeyPattern{}, 2, 2);
  EXPECT_EQ(map.version(), 1u);
  EXPECT_EQ(map.ChunksOwnedBy(0), 2);
  map.MoveChunk(0, 1);
  EXPECT_EQ(map.version(), 2u);
  EXPECT_EQ(map.ChunksOwnedBy(0), 1);
  EXPECT_EQ(map.ChunksOwnedBy(1), 3);
  EXPECT_EQ(map.chunk(0).shard, 1);
}

TEST(ConfigShardsTest, AdmitRefusesStaleVersionAndWrongOwner) {
  ConfigShards authority(ChunkMap::Hashed(ShardKeyPattern{}, 2, 2));
  proto::RouteInfo route;
  route.chunk_id = 0;
  route.shard_version = authority.Snapshot()->version();
  // Current version + correct owner: admitted.
  EXPECT_TRUE(authority.Admit(route, 0));
  EXPECT_EQ(authority.stale_refusals(), 0u);
  // Wrong shard for the chunk: refused.
  EXPECT_FALSE(authority.Admit(route, 1));
  EXPECT_EQ(authority.stale_refusals(), 1u);
  // After a move the old version is refused everywhere...
  authority.MoveChunk(0, 1);
  EXPECT_FALSE(authority.Admit(route, 0));
  EXPECT_FALSE(authority.Admit(route, 1));
  // ...and the refreshed version admits only the new owner.
  route.shard_version = authority.Snapshot()->version();
  EXPECT_TRUE(authority.Admit(route, 1));
  EXPECT_FALSE(authority.Admit(route, 0));
}

TEST(ConfigShardsTest, UnversionedCommandsAlwaysAdmitted) {
  ConfigShards authority(ChunkMap::Hashed(ShardKeyPattern{}, 2, 2));
  proto::RouteInfo route;  // shard_version == 0: scatter sub-op
  EXPECT_TRUE(authority.Admit(route, 0));
  EXPECT_TRUE(authority.Admit(route, 1));
  EXPECT_EQ(authority.stale_refusals(), 0u);
}

TEST(ConfigShardsTest, SnapshotsAreImmutableCopyOnWrite) {
  ConfigShards authority(ChunkMap::Hashed(ShardKeyPattern{}, 2, 2));
  const auto before = authority.Snapshot();
  authority.MoveChunk(0, 1);
  const auto after = authority.Snapshot();
  EXPECT_EQ(before->version() + 1, after->version());
  EXPECT_EQ(before->chunk(0).shard, 0);  // old snapshot untouched
  EXPECT_EQ(after->chunk(0).shard, 1);
}

TEST(StalenessBudgetTest, FullBoundWhileEveryShardWithin) {
  core::StalenessBudget budget(10, 3);
  budget.Report(0, 4);
  budget.Report(1, 10);
  budget.Report(2, 0);
  EXPECT_EQ(budget.WorstEstimate(), 10);
  // Nobody overshoots: everyone keeps the paper's per-set bound.
  for (int s = 0; s < 3; ++s) EXPECT_EQ(budget.EffectiveBound(s), 10);
}

TEST(StalenessBudgetTest, PeerOvershootDebitsEveryOtherShard) {
  core::StalenessBudget budget(10, 3);
  budget.Report(0, 14);  // 4 s over
  EXPECT_EQ(budget.EffectiveBound(1), 6);
  EXPECT_EQ(budget.EffectiveBound(2), 6);
  // The overshooting shard itself still gates against the full bound
  // (its own estimate, 14 > 10, already gates it).
  EXPECT_EQ(budget.EffectiveBound(0), 10);
  // Overshoot past 2B zeroes everyone else.
  budget.Report(0, 25);
  EXPECT_EQ(budget.EffectiveBound(1), 0);
  EXPECT_EQ(budget.EffectiveBound(2), 0);
}

TEST(StalenessBudgetTest, ZeroBoundAlwaysGates) {
  core::StalenessBudget budget(0, 2);
  EXPECT_EQ(budget.EffectiveBound(0), 0);
  budget.Report(1, 0);
  EXPECT_EQ(budget.EffectiveBound(0), 0);
}

}  // namespace
}  // namespace dcg::shard
