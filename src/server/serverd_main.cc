// hmmm_serverd: stand-alone TCP front end for an HMMM video database.
//
// Serve a persisted archive:
//   hmmm_serverd --catalog soccer.catalog --model soccer.model --port 8787
//
// Or spin up a synthetic soccer archive for demos and smoke tests:
//   hmmm_serverd --synthetic --videos 12 --port 0
//
// Each query runs start to finish on one of the --workers server threads
// (default 2); parallelism is across queries, never inside one.
//
// The daemon prints one machine-readable line once it accepts traffic:
//   LISTENING port=<port>
// and shuts down gracefully (drain, then cooperative cancel) on SIGINT
// or SIGTERM.

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "api/video_database.h"
#include "media/feature_level_generator.h"
#include "server/query_server.h"
#include "storage/catalog.h"

namespace {

// Signal handlers may only touch lock-free state; the main thread polls
// this flag and runs the actual (lock-taking) shutdown.
volatile std::sig_atomic_t g_stop_requested = 0;

void HandleStopSignal(int /*signal*/) { g_stop_requested = 1; }

struct ServerdFlags {
  std::string catalog_path;
  std::string model_path;
  std::string snapshot_path;
  std::string snapshot_publish_dir;
  bool snapshot_verify = false;
  bool snapshot_willneed = false;
  bool synthetic = false;
  int videos = 12;
  std::string host = "127.0.0.1";
  int port = 8787;
  int workers = 2;  // each query runs on one worker, start to finish
  int max_concurrent = 0;
  int max_queued = 0;
  int cache_entries = 64;
  double trace_sample_rate = 0.0;
  double slow_query_threshold_ms = 250.0;
  int slow_query_capacity = 128;
};

void PrintUsage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s (--catalog PATH --model PATH | --synthetic [--videos N])\n"
      "          [--snapshot PATH] [--snapshot-verify] [--snapshot-willneed]\n"
      "          [--snapshot-publish-dir DIR]\n"
      "          [--host ADDR] [--port N] [--workers N]\n"
      "          [--max-concurrent N] [--max-queued N] [--cache-entries N]\n"
      "          [--trace-sample-rate F] [--slow-query-threshold-ms F]\n"
      "          [--slow-query-capacity N]\n",
      argv0);
}

bool ParseFlags(int argc, char** argv, ServerdFlags* flags) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--catalog") {
      const char* value = next();
      if (value == nullptr) return false;
      flags->catalog_path = value;
    } else if (arg == "--model") {
      const char* value = next();
      if (value == nullptr) return false;
      flags->model_path = value;
    } else if (arg == "--snapshot") {
      const char* value = next();
      if (value == nullptr) return false;
      flags->snapshot_path = value;
    } else if (arg == "--snapshot-publish-dir") {
      const char* value = next();
      if (value == nullptr) return false;
      flags->snapshot_publish_dir = value;
    } else if (arg == "--snapshot-verify") {
      flags->snapshot_verify = true;
    } else if (arg == "--snapshot-willneed") {
      flags->snapshot_willneed = true;
    } else if (arg == "--synthetic") {
      flags->synthetic = true;
    } else if (arg == "--videos") {
      const char* value = next();
      if (value == nullptr) return false;
      flags->videos = std::atoi(value);
    } else if (arg == "--host") {
      const char* value = next();
      if (value == nullptr) return false;
      flags->host = value;
    } else if (arg == "--port") {
      const char* value = next();
      if (value == nullptr) return false;
      flags->port = std::atoi(value);
    } else if (arg == "--workers") {
      const char* value = next();
      if (value == nullptr) return false;
      flags->workers = std::atoi(value);
    } else if (arg == "--max-concurrent") {
      const char* value = next();
      if (value == nullptr) return false;
      flags->max_concurrent = std::atoi(value);
    } else if (arg == "--max-queued") {
      const char* value = next();
      if (value == nullptr) return false;
      flags->max_queued = std::atoi(value);
    } else if (arg == "--cache-entries") {
      const char* value = next();
      if (value == nullptr) return false;
      flags->cache_entries = std::atoi(value);
    } else if (arg == "--trace-sample-rate") {
      const char* value = next();
      if (value == nullptr) return false;
      flags->trace_sample_rate = std::atof(value);
    } else if (arg == "--slow-query-threshold-ms") {
      const char* value = next();
      if (value == nullptr) return false;
      flags->slow_query_threshold_ms = std::atof(value);
    } else if (arg == "--slow-query-capacity") {
      const char* value = next();
      if (value == nullptr) return false;
      flags->slow_query_capacity = std::atoi(value);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return false;
    }
  }
  const bool persisted =
      (!flags->catalog_path.empty() && !flags->model_path.empty()) ||
      !flags->snapshot_path.empty();
  return persisted != flags->synthetic;  // exactly one source
}

hmmm::StatusOr<hmmm::VideoDatabase> OpenDatabase(const ServerdFlags& flags) {
  hmmm::VideoDatabaseOptions options;
  options.admission.max_concurrent = flags.max_concurrent;
  options.admission.max_queued = flags.max_queued;
  options.query_cache_entries =
      flags.cache_entries > 0 ? static_cast<size_t>(flags.cache_entries) : 0;
  if (flags.synthetic) {
    hmmm::FeatureLevelConfig config = hmmm::SoccerFeatureLevelDefaults(1);
    config.num_videos = flags.videos;
    hmmm::FeatureLevelGenerator generator(config);
    HMMM_ASSIGN_OR_RETURN(
        hmmm::VideoCatalog catalog,
        hmmm::VideoCatalog::FromGeneratedCorpus(generator.Generate()));
    return hmmm::VideoDatabase::Create(std::move(catalog), options);
  }
  if (!flags.snapshot_path.empty()) {
    // Snapshot-first cold start: mmap the frozen image; fall back to the
    // blob pair (when given) on any snapshot failure.
    hmmm::SnapshotOptions snapshot_options;
    snapshot_options.verify_section_crcs = flags.snapshot_verify;
    snapshot_options.advise_willneed = flags.snapshot_willneed;
    if (!flags.catalog_path.empty() && !flags.model_path.empty()) {
      return hmmm::VideoDatabase::OpenSnapshotWithFallback(
          flags.snapshot_path, flags.catalog_path, flags.model_path, options,
          snapshot_options);
    }
    return hmmm::VideoDatabase::OpenSnapshot(flags.snapshot_path, options,
                                             snapshot_options);
  }
  return hmmm::VideoDatabase::Open(flags.catalog_path, flags.model_path,
                                   options);
}

}  // namespace

int main(int argc, char** argv) {
  // First, so a stop signal during a long start-up (a synthetic archive
  // build, a snapshot open) still drains instead of killing the process.
  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);
  ServerdFlags flags;
  if (!ParseFlags(argc, argv, &flags)) {
    PrintUsage(argv[0]);
    return 2;
  }
  hmmm::StatusOr<hmmm::VideoDatabase> db = OpenDatabase(flags);
  if (!db.ok()) {
    std::fprintf(stderr, "failed to open database: %s\n",
                 db.status().ToString().c_str());
    return 1;
  }

  hmmm::QueryServiceOptions service_options;
  service_options.trace_sample_rate = flags.trace_sample_rate;
  service_options.slow_query_threshold_ms = flags.slow_query_threshold_ms;
  service_options.snapshot_publish_dir = flags.snapshot_publish_dir;
  if (flags.slow_query_capacity > 0) {
    service_options.slow_query_capacity =
        static_cast<size_t>(flags.slow_query_capacity);
  }
  hmmm::VideoDatabaseService service(&db.value(), service_options);

  hmmm::QueryServerOptions server_options;
  server_options.host = flags.host;
  server_options.port = static_cast<uint16_t>(flags.port);
  server_options.num_workers = flags.workers;
  hmmm::QueryServer server(&service, server_options);
  const hmmm::Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "failed to start server: %s\n",
                 started.ToString().c_str());
    return 1;
  }
  std::printf("LISTENING port=%u\n", server.port());
  std::fflush(stdout);

  while (g_stop_requested == 0 && server.running()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  std::printf("shutting down\n");
  std::fflush(stdout);
  server.Shutdown();
  return 0;
}
