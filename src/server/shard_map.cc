#include "server/shard_map.h"

#include "common/serialization.h"
#include "common/strings.h"

namespace hmmm {

Status ValidateShardMap(const ShardMap& map) {
  if (map.shards.empty()) {
    return Status::InvalidArgument("shard map has no shards");
  }
  if (map.total_videos < 0 || map.total_shots < 0) {
    return Status::InvalidArgument("shard map totals negative");
  }
  VideoId next_video = 0;
  std::vector<bool> shot_owned(static_cast<size_t>(map.total_shots), false);
  for (size_t s = 0; s < map.shards.size(); ++s) {
    const ShardMapEntry& entry = map.shards[s];
    if (entry.video_begin != next_video || entry.video_end < entry.video_begin) {
      return Status::InvalidArgument(
          StrFormat("shard %zu range [%d, %d) not contiguous from %d", s,
                    entry.video_begin, entry.video_end, next_video));
    }
    next_video = entry.video_end;
    for (const ShotId shot : entry.shot_to_global) {
      if (shot < 0 || shot >= map.total_shots) {
        return Status::InvalidArgument(
            StrFormat("shard %zu maps shot %d outside [0, %lld)", s, shot,
                      static_cast<long long>(map.total_shots)));
      }
      if (shot_owned[static_cast<size_t>(shot)]) {
        return Status::InvalidArgument(
            StrFormat("shot %d owned by more than one shard", shot));
      }
      shot_owned[static_cast<size_t>(shot)] = true;
    }
  }
  if (next_video != map.total_videos) {
    return Status::InvalidArgument(
        StrFormat("shard ranges cover %d of %lld videos", next_video,
                  static_cast<long long>(map.total_videos)));
  }
  for (size_t shot = 0; shot < shot_owned.size(); ++shot) {
    if (!shot_owned[shot]) {
      return Status::InvalidArgument(
          StrFormat("shot %zu owned by no shard", shot));
    }
  }
  return Status::OK();
}

ShardMap ShardMapFromPartition(const std::vector<CatalogShard>& shards,
                               const VideoCatalog& catalog) {
  ShardMap map;
  map.total_videos = static_cast<int64_t>(catalog.num_videos());
  map.total_shots = static_cast<int64_t>(catalog.num_shots());
  map.shards.reserve(shards.size());
  for (const CatalogShard& shard : shards) {
    ShardMapEntry entry;
    entry.video_begin = shard.video_begin;
    entry.video_end = shard.video_end;
    entry.shot_to_global = shard.shot_to_global;
    map.shards.push_back(std::move(entry));
  }
  return map;
}

std::string SerializeShardMap(const ShardMap& map) {
  BinaryWriter w;
  w.WriteInt64(map.total_videos);
  w.WriteInt64(map.total_shots);
  w.WriteVarint(map.epoch);
  w.WriteVarint(map.shards.size());
  for (const ShardMapEntry& entry : map.shards) {
    w.WriteString(entry.endpoint);
    w.WriteVarint(entry.replica_endpoints.size());
    for (const std::string& replica : entry.replica_endpoints) {
      w.WriteString(replica);
    }
    w.WriteInt32(entry.video_begin);
    w.WriteInt32(entry.video_end);
    w.WriteInt32Vector(std::vector<int32_t>(entry.shot_to_global.begin(),
                                            entry.shot_to_global.end()));
  }
  return WrapChecksummed(kShardMapMagic, kShardMapVersion, w.buffer());
}

StatusOr<ShardMap> DeserializeShardMap(std::string_view data) {
  uint32_t version = 0;
  HMMM_ASSIGN_OR_RETURN(std::string payload,
                        UnwrapChecksummed(kShardMapMagic, data, &version));
  if (version != kShardMapVersion) {
    return Status::DataLoss(
        StrFormat("unsupported shard map version %u (this build reads %u)",
                  version, kShardMapVersion));
  }
  BinaryReader r(payload);
  ShardMap map;
  HMMM_ASSIGN_OR_RETURN(map.total_videos, r.ReadInt64());
  HMMM_ASSIGN_OR_RETURN(map.total_shots, r.ReadInt64());
  HMMM_ASSIGN_OR_RETURN(map.epoch, r.ReadVarint());
  HMMM_ASSIGN_OR_RETURN(const uint64_t num_shards, r.ReadVarint());
  for (uint64_t i = 0; i < num_shards; ++i) {
    ShardMapEntry entry;
    HMMM_ASSIGN_OR_RETURN(entry.endpoint, r.ReadString());
    HMMM_ASSIGN_OR_RETURN(const uint64_t num_replicas, r.ReadVarint());
    if (num_replicas > payload.size()) {
      return Status::DataLoss("shard map replica count implausible");
    }
    entry.replica_endpoints.reserve(num_replicas);
    for (uint64_t k = 0; k < num_replicas; ++k) {
      HMMM_ASSIGN_OR_RETURN(std::string replica, r.ReadString());
      entry.replica_endpoints.push_back(std::move(replica));
    }
    HMMM_ASSIGN_OR_RETURN(entry.video_begin, r.ReadInt32());
    HMMM_ASSIGN_OR_RETURN(entry.video_end, r.ReadInt32());
    HMMM_ASSIGN_OR_RETURN(auto shots, r.ReadInt32Vector());
    entry.shot_to_global.assign(shots.begin(), shots.end());
    map.shards.push_back(std::move(entry));
  }
  if (!r.AtEnd()) return Status::DataLoss("trailing bytes in shard map blob");
  HMMM_RETURN_IF_ERROR(ValidateShardMap(map));
  return map;
}

Status SaveShardMap(const ShardMap& map, const std::string& path) {
  return WriteFile(path, SerializeShardMap(map));
}

StatusOr<ShardMap> LoadShardMap(const std::string& path) {
  HMMM_ASSIGN_OR_RETURN(std::string data, ReadFileToString(path));
  return DeserializeShardMap(data);
}

}  // namespace hmmm
