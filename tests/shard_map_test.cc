#include "server/shard_map.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "api/catalog_partition.h"
#include "api/video_database.h"
#include "common/serialization.h"
#include "test_util.h"

namespace hmmm {
namespace {

using ::hmmm::testing::SmallSoccerCatalog;
using ::hmmm::testing::TempPath;

/// A well-formed two-shard map over 4 videos / 6 shots, with the global
/// shot ids of shard 1 interleaved below shard 0's — the catalog allows
/// interleaved global ids across videos, and the map must too.
ShardMap TwoShardMap() {
  ShardMap map;
  map.total_videos = 4;
  map.total_shots = 6;
  ShardMapEntry a;
  a.endpoint = "127.0.0.1:9001";
  a.video_begin = 0;
  a.video_end = 2;
  a.shot_to_global = {0, 3, 4};
  ShardMapEntry b;
  b.endpoint = "127.0.0.1:9002";
  b.video_begin = 2;
  b.video_end = 4;
  b.shot_to_global = {5, 1, 2};
  map.shards = {a, b};
  return map;
}

TEST(ShardMapTest, ValidMapPasses) {
  EXPECT_TRUE(ValidateShardMap(TwoShardMap()).ok());
}

TEST(ShardMapTest, RejectsEmptyMap) {
  ShardMap map;
  EXPECT_FALSE(ValidateShardMap(map).ok());
}

TEST(ShardMapTest, RejectsRangeNotStartingAtZero) {
  ShardMap map = TwoShardMap();
  map.shards[0].video_begin = 1;
  EXPECT_FALSE(ValidateShardMap(map).ok());
}

TEST(ShardMapTest, RejectsGapBetweenRanges) {
  ShardMap map = TwoShardMap();
  map.shards[1].video_begin = 3;
  map.shards[1].video_end = 5;
  map.total_videos = 5;
  EXPECT_FALSE(ValidateShardMap(map).ok());
}

TEST(ShardMapTest, RejectsOverlappingRanges) {
  ShardMap map = TwoShardMap();
  map.shards[1].video_begin = 1;
  EXPECT_FALSE(ValidateShardMap(map).ok());
}

TEST(ShardMapTest, RejectsEmptyRange) {
  ShardMap map = TwoShardMap();
  map.shards[0].video_end = 0;
  EXPECT_FALSE(ValidateShardMap(map).ok());
}

TEST(ShardMapTest, RejectsUncoveredVideos) {
  ShardMap map = TwoShardMap();
  map.total_videos = 5;
  EXPECT_FALSE(ValidateShardMap(map).ok());
}

TEST(ShardMapTest, RejectsShotOwnedTwice) {
  ShardMap map = TwoShardMap();
  map.shards[1].shot_to_global[0] = 0;  // already owned by shard 0
  EXPECT_FALSE(ValidateShardMap(map).ok());
}

TEST(ShardMapTest, RejectsUnownedShot) {
  ShardMap map = TwoShardMap();
  map.total_shots = 7;  // shot 6 exists but nobody owns it
  EXPECT_FALSE(ValidateShardMap(map).ok());
}

TEST(ShardMapTest, RejectsOutOfRangeShot) {
  ShardMap map = TwoShardMap();
  map.shards[1].shot_to_global[0] = 6;
  EXPECT_FALSE(ValidateShardMap(map).ok());
}

TEST(ShardMapTest, SerializeRoundTrips) {
  const ShardMap map = TwoShardMap();
  const std::string blob = SerializeShardMap(map);
  StatusOr<ShardMap> restored = DeserializeShardMap(blob);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->total_videos, map.total_videos);
  EXPECT_EQ(restored->total_shots, map.total_shots);
  ASSERT_EQ(restored->shards.size(), map.shards.size());
  for (size_t s = 0; s < map.shards.size(); ++s) {
    EXPECT_EQ(restored->shards[s].endpoint, map.shards[s].endpoint);
    EXPECT_EQ(restored->shards[s].video_begin, map.shards[s].video_begin);
    EXPECT_EQ(restored->shards[s].video_end, map.shards[s].video_end);
    EXPECT_EQ(restored->shards[s].shot_to_global,
              map.shards[s].shot_to_global);
  }
}

TEST(ShardMapTest, V2RoundTripsReplicasAndEpoch) {
  ShardMap map = TwoShardMap();
  map.epoch = 42;
  map.shards[0].replica_endpoints = {"127.0.0.1:9101", "127.0.0.1:9201"};
  map.shards[1].replica_endpoints = {"127.0.0.1:9102"};
  const std::string blob = SerializeShardMap(map);
  StatusOr<ShardMap> restored = DeserializeShardMap(blob);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->epoch, 42u);
  ASSERT_EQ(restored->shards.size(), 2u);
  EXPECT_EQ(restored->shards[0].replica_endpoints,
            map.shards[0].replica_endpoints);
  EXPECT_EQ(restored->shards[1].replica_endpoints,
            map.shards[1].replica_endpoints);
  EXPECT_EQ(restored->shards[0].all_endpoints(),
            (std::vector<std::string>{"127.0.0.1:9001", "127.0.0.1:9101",
                                      "127.0.0.1:9201"}));
}

TEST(ShardMapTest, WritesTheV2LayoutByteForByte) {
  ShardMap map = TwoShardMap();
  map.epoch = 42;
  map.shards[0].replica_endpoints = {"127.0.0.1:9101"};
  BinaryWriter w;
  w.WriteInt64(4);
  w.WriteInt64(6);
  w.WriteVarint(42);
  w.WriteVarint(2);
  for (const ShardMapEntry& entry : map.shards) {
    w.WriteString(entry.endpoint);
    w.WriteVarint(entry.replica_endpoints.size());
    for (const std::string& replica : entry.replica_endpoints) {
      w.WriteString(replica);
    }
    w.WriteInt32(entry.video_begin);
    w.WriteInt32(entry.video_end);
    w.WriteInt32Vector(entry.shot_to_global);
  }
  EXPECT_EQ(SerializeShardMap(map),
            WrapChecksummed(kShardMapMagic, 2, w.buffer()));
}

TEST(ShardMapTest, V1BlobIsRefusedAsDataLoss) {
  // The replica-less v1 layout: totals, shard count, then per shard
  // endpoint + range + shots. Well formed and checksummed, but not the
  // one format this build reads.
  const ShardMap map = TwoShardMap();
  BinaryWriter w;
  w.WriteInt64(map.total_videos);
  w.WriteInt64(map.total_shots);
  w.WriteVarint(map.shards.size());
  for (const ShardMapEntry& entry : map.shards) {
    w.WriteString(entry.endpoint);
    w.WriteInt32(entry.video_begin);
    w.WriteInt32(entry.video_end);
    w.WriteInt32Vector(entry.shot_to_global);
  }
  const StatusOr<ShardMap> restored =
      DeserializeShardMap(WrapChecksummed(kShardMapMagic, 1, w.buffer()));
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kDataLoss);
}

TEST(ShardMapTest, V2BlobRejectsCorruptionInTheReplicaSection) {
  ShardMap map = TwoShardMap();
  map.epoch = 7;
  map.shards[0].replica_endpoints = {"127.0.0.1:9101"};
  std::string blob = SerializeShardMap(map);
  // Flip a byte near the end, where the v2 additions live.
  blob[blob.size() - 5] ^= 0x10;
  EXPECT_FALSE(DeserializeShardMap(blob).ok());
}

TEST(ShardMapTest, DeserializeRejectsCorruption) {
  std::string blob = SerializeShardMap(TwoShardMap());
  blob[blob.size() / 2] ^= 0x40;
  EXPECT_FALSE(DeserializeShardMap(blob).ok());
}

TEST(ShardMapTest, DeserializeRejectsTruncation) {
  const std::string blob = SerializeShardMap(TwoShardMap());
  EXPECT_FALSE(DeserializeShardMap(
                   std::string_view(blob).substr(0, blob.size() - 3))
                   .ok());
}

TEST(ShardMapTest, FileRoundTrip) {
  const ShardMap map = TwoShardMap();
  const std::string path = TempPath("shard_map_test.map");
  ASSERT_TRUE(SaveShardMap(map, path).ok());
  StatusOr<ShardMap> restored = LoadShardMap(path);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->shards.size(), 2u);
  EXPECT_EQ(restored->shards[1].shot_to_global, map.shards[1].shot_to_global);
}

TEST(ShardMapTest, FromPartitionCoversCatalog) {
  StatusOr<VideoDatabase> db = VideoDatabase::Create(SmallSoccerCatalog());
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  StatusOr<std::vector<CatalogShard>> shards =
      PartitionForServing(db->catalog(), db->model(), 2);
  ASSERT_TRUE(shards.ok()) << shards.status().ToString();
  const ShardMap map = ShardMapFromPartition(*shards, db->catalog());
  EXPECT_TRUE(ValidateShardMap(map).ok());
  EXPECT_EQ(map.total_videos, 2);
  EXPECT_EQ(static_cast<size_t>(map.total_shots),
            db->catalog().num_shots());
  ASSERT_EQ(map.shards.size(), 2u);
  EXPECT_TRUE(map.shards[0].endpoint.empty());
  EXPECT_EQ(map.shards[0].video_begin, 0);
  EXPECT_EQ(map.shards[0].video_end, 1);
  EXPECT_EQ(map.shards[1].video_begin, 1);
  EXPECT_EQ(map.shards[1].video_end, 2);
}

}  // namespace
}  // namespace hmmm
