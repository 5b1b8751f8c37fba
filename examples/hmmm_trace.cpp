// hmmm_trace: fetch and pretty-print a distributed trace or the
// slow-query log from a live hmmm_serverd / hmmm_coordd.
//
//   # Run a traced temporal query and print the assembled span tree
//   # (against a coordinator: coordinator root span, per-shard fan-out
//   # spans, each shard's Fig.-2 phase spans grafted underneath):
//   hmmm_trace --port 8787 query "corner_kick then goal"
//
//   # Same, as machine-readable JSONL spans:
//   hmmm_trace --port 8787 --jsonl query "goal"
//
//   # Dump the peer's slow-query ring buffer (JSONL, oldest first):
//   hmmm_trace --port 8787 slow
//
// The query subcommand never changes what the server would answer a
// plain client: tracing is observe-only, rankings are byte-identical
// with it on or off.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "client/query_client.h"
#include "observability/query_trace.h"
#include "observability/trace_codec.h"

namespace {

struct TraceFlags {
  std::string host = "127.0.0.1";
  int port = 8787;
  int budget_ms = -1;
  bool jsonl = false;
  std::string command;  // "query" or "slow"
  std::string pattern;
};

void PrintUsage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--host ADDR] [--port N] [--budget-ms N] [--jsonl]\n"
               "          query \"EVENT then EVENT ...\" | slow\n",
               argv0);
}

bool ParseFlags(int argc, char** argv, TraceFlags* flags) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* value = nullptr;
    if (arg == "--host" && (value = next()) != nullptr) {
      flags->host = value;
    } else if (arg == "--port" && (value = next()) != nullptr) {
      flags->port = std::atoi(value);
    } else if (arg == "--budget-ms" && (value = next()) != nullptr) {
      flags->budget_ms = std::atoi(value);
    } else if (arg == "--jsonl") {
      flags->jsonl = true;
    } else if (flags->command.empty()) {
      flags->command = arg;
    } else if (flags->command == "query" && flags->pattern.empty()) {
      flags->pattern = arg;
    } else {
      std::fprintf(stderr, "unexpected argument: %s\n", arg.c_str());
      return false;
    }
  }
  if (flags->command == "query") return !flags->pattern.empty();
  return flags->command == "slow";
}

int RunQuery(hmmm::QueryClient& client, const TraceFlags& flags) {
  hmmm::TemporalQueryRequest request;
  request.text = flags.pattern;
  request.budget_ms = flags.budget_ms;
  request.want_trace = true;
  hmmm::StatusOr<hmmm::TemporalQueryResponse> response =
      client.TemporalQuery(request);
  if (!response.ok()) {
    std::fprintf(stderr, "query failed: %s\n",
                 response.status().ToString().c_str());
    return 1;
  }
  std::printf("# results=%zu degraded=%d videos_skipped=%llu\n",
              response->results.size(), response->degraded ? 1 : 0,
              static_cast<unsigned long long>(response->videos_skipped));
  hmmm::StatusOr<std::vector<hmmm::TraceSpan>> spans =
      hmmm::DeserializeSpans(response->trace_blob);
  if (!spans.ok()) {
    std::fprintf(stderr, "trace blob undecodable: %s\n",
                 spans.status().ToString().c_str());
    return 1;
  }
  const std::string rendered = flags.jsonl
                                   ? hmmm::RenderSpansJsonl(*spans)
                                   : hmmm::RenderSpanTree(*spans);
  std::fputs(rendered.c_str(), stdout);
  return 0;
}

int RunSlow(hmmm::QueryClient& client) {
  hmmm::StatusOr<hmmm::DumpSlowQueriesResponse> response =
      client.DumpSlowQueries();
  if (!response.ok()) {
    std::fprintf(stderr, "slow-query dump failed: %s\n",
                 response.status().ToString().c_str());
    return 1;
  }
  if (response->jsonl.empty()) {
    std::fprintf(stderr, "slow-query log is empty\n");
    return 0;
  }
  std::fputs(response->jsonl.c_str(), stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  TraceFlags flags;
  if (!ParseFlags(argc, argv, &flags)) {
    PrintUsage(argv[0]);
    return 2;
  }
  hmmm::QueryClientOptions options;
  options.host = flags.host;
  options.port = static_cast<uint16_t>(flags.port);
  hmmm::QueryClient client(options);
  if (flags.command == "query") return RunQuery(client, flags);
  return RunSlow(client);
}
