#ifndef HMMM_SERVER_SHARD_MAP_H_
#define HMMM_SERVER_SHARD_MAP_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "api/catalog_partition.h"
#include "common/status.h"
#include "storage/catalog.h"

namespace hmmm {

/// File-format magic for serialized shard maps (sibling of kCatalogMagic
/// / kModelMagic in storage/model_io.h).
inline constexpr uint32_t kShardMapMagic = 0x484D4D53;  // "SMMH"
/// The one shard-map format: a map-wide epoch (monotone reload fencing)
/// and, per entry, endpoint + replica endpoints + range + shot mapping.
/// Blobs stamped with any other version (the replica-less v1 layout
/// included) are refused with kDataLoss.
inline constexpr uint32_t kShardMapVersion = 2;

/// One shard's entry in the serving map: which contiguous global video
/// range it owns, how its slice-local ShotIds map back to global ones,
/// and (optionally) where it is reachable. Endpoints are deployment
/// config, not partition output — hmmm_shardctl writes maps with empty
/// endpoints and hmmm_coordd fills them from its --shard flags.
struct ShardMapEntry {
  std::string endpoint;  // primary "host:port", may be empty until deployment
  /// Additional replicas serving the same slice (identical catalog +
  /// model), tried in order after the primary. Failover between them is
  /// ranking-transparent: any replica returns byte-identical slices.
  std::vector<std::string> replica_endpoints;
  VideoId video_begin = 0;
  VideoId video_end = 0;  // global range [video_begin, video_end)
  /// Slice ShotId -> global ShotId, dense over the shard's catalog.
  std::vector<ShotId> shot_to_global;

  int num_videos() const { return video_end - video_begin; }
  /// Primary followed by replicas, in deterministic failover order.
  std::vector<std::string> all_endpoints() const {
    std::vector<std::string> all;
    all.reserve(1 + replica_endpoints.size());
    all.push_back(endpoint);
    all.insert(all.end(), replica_endpoints.begin(), replica_endpoints.end());
    return all;
  }
};

/// The catalog partition of one serving deployment: contiguous,
/// non-overlapping video ranges covering [0, total_videos), with every
/// global shot owned by exactly one shard.
struct ShardMap {
  int64_t total_videos = 0;
  int64_t total_shots = 0;
  /// Monotone map generation. A live coordinator only accepts a reload
  /// whose epoch is strictly greater than the one it is serving.
  uint64_t epoch = 0;
  std::vector<ShardMapEntry> shards;
};

/// Structural validation: at least one shard, ranges contiguous from 0
/// and covering total_videos, every shot id in range and owned exactly
/// once across the map.
Status ValidateShardMap(const ShardMap& map);

/// Builds the serving map for a PartitionForServing result (endpoints
/// left empty).
ShardMap ShardMapFromPartition(const std::vector<CatalogShard>& shards,
                               const VideoCatalog& catalog);

/// Checksummed binary round-trip (WrapChecksummed envelope, same
/// corruption guarantees as the catalog/model codecs). Deserialize
/// validates before returning.
std::string SerializeShardMap(const ShardMap& map);
StatusOr<ShardMap> DeserializeShardMap(std::string_view data);
Status SaveShardMap(const ShardMap& map, const std::string& path);
StatusOr<ShardMap> LoadShardMap(const std::string& path);

}  // namespace hmmm

#endif  // HMMM_SERVER_SHARD_MAP_H_
