// hmmm_coordd: sharded scatter-gather front end. Loads a shards.map
// written by hmmm_shardctl, binds each map entry to one or more running
// hmmm_serverd replicas, and serves the ordinary wire protocol — clients
// cannot tell it from a single-process hmmm_serverd over the merged
// archive (rankings are byte-identical while any replica of every range
// is up; a range with every replica dead degrades results instead of
// failing queries).
//
//   hmmm_coordd --shard-map /tmp/dep/shards.map
//       --shard 127.0.0.1:9001,127.0.0.1:9101
//       --shard 127.0.0.1:9002,127.0.0.1:9102 --port 8787
//
// --shard flags are positional: the i-th flag lists shard i's replica
// endpoints, comma-separated, primary first. When none are given the
// endpoints already recorded in the map are used. Prints
// `LISTENING port=<port>` once it accepts traffic; SIGINT / SIGTERM
// drain gracefully. SIGHUP re-reads --shard-map and hot-swaps the
// routing table without dropping in-flight queries (prints
// `RELOADED epoch=<n>`); a map file whose epoch is not newer than the
// live one is bumped to live+1 — the operator's SIGHUP is the fence.

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "coordinator/coordinator_service.h"
#include "server/shard_map.h"

namespace {

volatile std::sig_atomic_t g_stop_requested = 0;
volatile std::sig_atomic_t g_reload_requested = 0;

void HandleStopSignal(int /*signal*/) { g_stop_requested = 1; }
void HandleReloadSignal(int /*signal*/) { g_reload_requested = 1; }

struct CoorddFlags {
  std::string shard_map_path;
  std::vector<std::string> shard_endpoints;  // comma-separated replicas
  std::string host = "127.0.0.1";
  int port = 8787;
  int workers = 2;
  int fanout_threads = 0;
  int merge_reserve_ms = 5;
  int io_slack_ms = 100;
  int max_results = 20;
  int connect_timeout_ms = 500;
  int io_timeout_ms = 30000;
  double trace_sample_rate = 0.0;
  double slow_query_threshold_ms = 250.0;
  int slow_query_capacity = 128;
  int health_probe_interval_ms = 500;
  int health_probe_timeout_ms = 250;
  int breaker_failure_threshold = 3;
  int breaker_cooldown_ms = 1000;
  int hedge_delay_ms = -1;
  int hedge_min_delay_ms = 10;
};

void PrintUsage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s (--shard-map PATH | --snapshot-dir DIR)\n"
      "          [--shard HOST:PORT[,HOST:PORT...]]...\n"
      "          [--host ADDR] [--port N] [--workers N] [--fanout-threads N]\n"
      "          [--merge-reserve-ms N] [--io-slack-ms N] [--max-results N]\n"
      "          [--connect-timeout-ms N] [--io-timeout-ms N]\n"
      "          [--trace-sample-rate F] [--slow-query-threshold-ms F]\n"
      "          [--slow-query-capacity N]\n"
      "          [--health-probe-interval-ms N] [--health-probe-timeout-ms N]\n"
      "          [--breaker-failure-threshold N] [--breaker-cooldown-ms N]\n"
      "          [--hedge-delay-ms N] [--hedge-min-delay-ms N]\n",
      argv0);
}

bool ParseFlags(int argc, char** argv, CoorddFlags* flags) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* value = nullptr;
    if (arg == "--shard-map" && (value = next()) != nullptr) {
      flags->shard_map_path = value;
    } else if (arg == "--snapshot-dir" && (value = next()) != nullptr) {
      // Sugar for a shardctl-partitioned snapshot directory: the shard
      // map lives next to the per-shard .hmms slices.
      flags->shard_map_path = std::string(value) + "/shards.map";
    } else if (arg == "--shard" && (value = next()) != nullptr) {
      flags->shard_endpoints.push_back(value);
    } else if (arg == "--host" && (value = next()) != nullptr) {
      flags->host = value;
    } else if (arg == "--port" && (value = next()) != nullptr) {
      flags->port = std::atoi(value);
    } else if (arg == "--workers" && (value = next()) != nullptr) {
      flags->workers = std::atoi(value);
    } else if (arg == "--fanout-threads" && (value = next()) != nullptr) {
      flags->fanout_threads = std::atoi(value);
    } else if (arg == "--merge-reserve-ms" && (value = next()) != nullptr) {
      flags->merge_reserve_ms = std::atoi(value);
    } else if (arg == "--io-slack-ms" && (value = next()) != nullptr) {
      flags->io_slack_ms = std::atoi(value);
    } else if (arg == "--max-results" && (value = next()) != nullptr) {
      flags->max_results = std::atoi(value);
    } else if (arg == "--connect-timeout-ms" && (value = next()) != nullptr) {
      flags->connect_timeout_ms = std::atoi(value);
    } else if (arg == "--io-timeout-ms" && (value = next()) != nullptr) {
      flags->io_timeout_ms = std::atoi(value);
    } else if (arg == "--trace-sample-rate" && (value = next()) != nullptr) {
      flags->trace_sample_rate = std::atof(value);
    } else if (arg == "--slow-query-threshold-ms" &&
               (value = next()) != nullptr) {
      flags->slow_query_threshold_ms = std::atof(value);
    } else if (arg == "--slow-query-capacity" && (value = next()) != nullptr) {
      flags->slow_query_capacity = std::atoi(value);
    } else if (arg == "--health-probe-interval-ms" &&
               (value = next()) != nullptr) {
      flags->health_probe_interval_ms = std::atoi(value);
    } else if (arg == "--health-probe-timeout-ms" &&
               (value = next()) != nullptr) {
      flags->health_probe_timeout_ms = std::atoi(value);
    } else if (arg == "--breaker-failure-threshold" &&
               (value = next()) != nullptr) {
      flags->breaker_failure_threshold = std::atoi(value);
    } else if (arg == "--breaker-cooldown-ms" && (value = next()) != nullptr) {
      flags->breaker_cooldown_ms = std::atoi(value);
    } else if (arg == "--hedge-delay-ms" && (value = next()) != nullptr) {
      flags->hedge_delay_ms = std::atoi(value);
    } else if (arg == "--hedge-min-delay-ms" && (value = next()) != nullptr) {
      flags->hedge_min_delay_ms = std::atoi(value);
    } else {
      std::fprintf(stderr, "unknown or valueless flag: %s\n", arg.c_str());
      return false;
    }
  }
  return !flags->shard_map_path.empty();
}

std::vector<std::string> SplitCommaList(const std::string& value) {
  std::vector<std::string> parts;
  size_t begin = 0;
  while (begin <= value.size()) {
    const size_t comma = value.find(',', begin);
    const size_t end = comma == std::string::npos ? value.size() : comma;
    if (end > begin) parts.push_back(value.substr(begin, end - begin));
    if (comma == std::string::npos) break;
    begin = comma + 1;
  }
  return parts;
}

/// Rewrites the map's endpoints from the positional --shard flags:
/// first list entry is the primary, the rest are replicas.
bool ApplyEndpointOverrides(const CoorddFlags& flags, hmmm::ShardMap* map) {
  if (flags.shard_endpoints.empty()) return true;
  if (flags.shard_endpoints.size() != map->shards.size()) {
    std::fprintf(stderr,
                 "--shard count (%zu) does not match the map's shard count "
                 "(%zu)\n",
                 flags.shard_endpoints.size(), map->shards.size());
    return false;
  }
  for (size_t s = 0; s < map->shards.size(); ++s) {
    std::vector<std::string> replicas =
        SplitCommaList(flags.shard_endpoints[s]);
    if (replicas.empty()) {
      std::fprintf(stderr, "--shard %zu lists no endpoints\n", s);
      return false;
    }
    map->shards[s].endpoint = replicas.front();
    map->shards[s].replica_endpoints.assign(replicas.begin() + 1,
                                            replicas.end());
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  // First, so a signal during start-up (shard map load, shard connects)
  // is handled by the serving loop instead of killing the process.
  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);
  std::signal(SIGHUP, HandleReloadSignal);
  CoorddFlags flags;
  if (!ParseFlags(argc, argv, &flags)) {
    PrintUsage(argv[0]);
    return 2;
  }

  hmmm::StatusOr<hmmm::ShardMap> map =
      hmmm::LoadShardMap(flags.shard_map_path);
  if (!map.ok()) {
    std::fprintf(stderr, "failed to load shard map: %s\n",
                 map.status().ToString().c_str());
    return 1;
  }
  if (!ApplyEndpointOverrides(flags, &*map)) return 2;

  hmmm::CoordinatorOptions coordinator_options;
  coordinator_options.fanout_threads = flags.fanout_threads;
  coordinator_options.merge_reserve_ms = flags.merge_reserve_ms;
  coordinator_options.io_slack_ms = flags.io_slack_ms;
  coordinator_options.max_results = flags.max_results;
  coordinator_options.client.connect_timeout =
      std::chrono::milliseconds(flags.connect_timeout_ms);
  coordinator_options.client.io_timeout =
      std::chrono::milliseconds(flags.io_timeout_ms);
  coordinator_options.observability.trace_sample_rate =
      flags.trace_sample_rate;
  coordinator_options.observability.slow_query_threshold_ms =
      flags.slow_query_threshold_ms;
  if (flags.slow_query_capacity > 0) {
    coordinator_options.observability.slow_query_capacity =
        static_cast<size_t>(flags.slow_query_capacity);
  }
  coordinator_options.health_probe_interval =
      std::chrono::milliseconds(flags.health_probe_interval_ms);
  coordinator_options.health_probe_timeout =
      std::chrono::milliseconds(flags.health_probe_timeout_ms);
  coordinator_options.breaker.failure_threshold =
      flags.breaker_failure_threshold;
  coordinator_options.breaker.open_cooldown =
      std::chrono::milliseconds(flags.breaker_cooldown_ms);
  coordinator_options.hedge_delay_ms = flags.hedge_delay_ms;
  coordinator_options.hedge_min_delay_ms = flags.hedge_min_delay_ms;

  hmmm::QueryServerOptions server_options;
  server_options.host = flags.host;
  server_options.port = static_cast<uint16_t>(flags.port);
  server_options.num_workers = flags.workers;

  hmmm::StatusOr<std::unique_ptr<hmmm::CoordinatorServer>> server =
      hmmm::CoordinatorServer::Create(std::move(*map), coordinator_options,
                                      server_options);
  if (!server.ok()) {
    std::fprintf(stderr, "failed to create coordinator: %s\n",
                 server.status().ToString().c_str());
    return 1;
  }
  const hmmm::Status started = (*server)->Start();
  if (!started.ok()) {
    std::fprintf(stderr, "failed to start coordinator: %s\n",
                 started.ToString().c_str());
    return 1;
  }
  std::printf("LISTENING port=%u\n", (*server)->port());
  std::fflush(stdout);

  while (g_stop_requested == 0 && (*server)->running()) {
    if (g_reload_requested != 0) {
      g_reload_requested = 0;
      hmmm::StatusOr<hmmm::ShardMap> reloaded =
          hmmm::LoadShardMap(flags.shard_map_path);
      if (!reloaded.ok()) {
        std::fprintf(stderr, "reload: failed to load shard map: %s\n",
                     reloaded.status().ToString().c_str());
      } else if (!ApplyEndpointOverrides(flags, &*reloaded)) {
        std::fprintf(stderr, "reload: endpoint overrides rejected\n");
      } else {
        const uint64_t live = (*server)->service().map_epoch();
        if (reloaded->epoch <= live) {
          // Touch-and-HUP workflow: the operator's signal is the fence,
          // so a map file that never learned about epochs still reloads.
          reloaded->epoch = live + 1;
        }
        hmmm::StatusOr<hmmm::ReloadShardMapResponse> applied =
            (*server)->service().ApplyShardMap(std::move(*reloaded));
        if (!applied.ok()) {
          std::fprintf(stderr, "reload: rejected: %s\n",
                       applied.status().ToString().c_str());
        } else {
          std::printf("RELOADED epoch=%llu shards=%u\n",
                      static_cast<unsigned long long>(applied->epoch),
                      applied->num_shards);
          std::fflush(stdout);
        }
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  std::printf("shutting down\n");
  std::fflush(stdout);
  (*server)->Shutdown();
  return 0;
}
