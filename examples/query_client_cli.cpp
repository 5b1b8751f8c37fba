// One-shot wire-protocol client: the scriptable counterpart of
// interactive_session, built for smoke tests and shell pipelines. Exit
// code 0 iff the request round-tripped successfully.
//
//   query_client_cli <host> <port> health
//   query_client_cli <host> <port> metrics
//   query_client_cli <host> <port> train
//   query_client_cli <host> <port> query "<pattern>" [--budget <ms>]
//                    [--stats] [--trace]
//
// Examples against a local hmmm_serverd:
//   ./build/examples/query_client_cli 127.0.0.1 7633 health
//   ./build/examples/query_client_cli 127.0.0.1 7633 query "free_kick ; goal"
//   ./build/examples/query_client_cli 127.0.0.1 7633 query goal --budget 0

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "hmmm.h"

namespace {

using namespace hmmm;

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <host> <port> health|metrics|train\n"
               "       %s <host> <port> query <pattern> [--budget <ms>] "
               "[--stats] [--trace]\n",
               argv0, argv0);
  return 2;
}

int Run(int argc, char** argv) {
  if (argc < 4) return Usage(argv[0]);
  QueryClientOptions options;
  options.host = argv[1];
  options.port = static_cast<uint16_t>(std::atoi(argv[2]));
  QueryClient client(options);
  const std::string command = argv[3];

  if (command == "health") {
    const auto health = client.Health();
    if (!health.ok()) {
      std::fprintf(stderr, "error: %s\n", health.status().ToString().c_str());
      return 1;
    }
    std::printf("videos=%llu shots=%llu annotated=%llu model_version=%llu "
                "draining=%s\n",
                static_cast<unsigned long long>(health->videos),
                static_cast<unsigned long long>(health->shots),
                static_cast<unsigned long long>(health->annotated_shots),
                static_cast<unsigned long long>(health->model_version),
                health->draining ? "true" : "false");
    return 0;
  }
  if (command == "metrics") {
    const auto metrics = client.Metrics();
    if (!metrics.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   metrics.status().ToString().c_str());
      return 1;
    }
    std::printf("%s", metrics->prometheus_text.c_str());
    return 0;
  }
  if (command == "train") {
    const auto trained = client.Train();
    if (!trained.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   trained.status().ToString().c_str());
      return 1;
    }
    std::printf("trained=%s rounds=%llu\n",
                trained->trained ? "true" : "false",
                static_cast<unsigned long long>(trained->training_rounds));
    return 0;
  }
  if (command == "query") {
    if (argc < 5) return Usage(argv[0]);
    TemporalQueryRequest request;
    request.text = argv[4];
    request.cancel_generation = client.NextCancelGeneration();
    for (int i = 5; i < argc; ++i) {
      if (std::strcmp(argv[i], "--budget") == 0 && i + 1 < argc) {
        request.budget_ms = std::atoll(argv[++i]);
      } else if (std::strcmp(argv[i], "--stats") == 0) {
        request.want_stats = true;
      } else if (std::strcmp(argv[i], "--trace") == 0) {
        request.want_trace = true;
      } else {
        return Usage(argv[0]);
      }
    }
    const auto response = client.TemporalQuery(request);
    if (!response.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   response.status().ToString().c_str());
      return 1;
    }
    if (response->degraded) {
      std::printf("degraded=true videos_skipped=%llu\n",
                  static_cast<unsigned long long>(response->videos_skipped));
    }
    for (size_t i = 0; i < response->results.size(); ++i) {
      const RetrievedPattern& result = response->results[i];
      std::printf("%zu\tv%d\t", i + 1, result.video);
      for (size_t s = 0; s < result.shots.size(); ++s) {
        std::printf("%s%d", s == 0 ? "" : ",", result.shots[s]);
      }
      std::printf("\t%.6f\n", result.score);
    }
    if (request.want_stats && response->has_stats) {
      std::printf("# videos_considered=%llu states_visited=%llu "
                  "candidates_scored=%llu\n",
                  static_cast<unsigned long long>(
                      response->stats.videos_considered),
                  static_cast<unsigned long long>(
                      response->stats.states_visited),
                  static_cast<unsigned long long>(
                      response->stats.candidates_scored));
    }
    if (request.want_trace) {
      StatusOr<std::vector<TraceSpan>> spans =
          DeserializeSpans(response->trace_blob);
      if (!spans.ok()) {
        std::fprintf(stderr, "trace blob undecodable: %s\n",
                     spans.status().ToString().c_str());
        return 1;
      }
      std::printf("%s", RenderSpansJsonl(*spans).c_str());
    }
    return 0;
  }
  return Usage(argv[0]);
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
