// End-to-end distributed tracing over the loopback: cross-process trace
// assembly through a real coordinator fan-out, the slow-query plane
// through the wire, and fleet metrics merged by the coordinator.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "api/catalog_partition.h"
#include "api/video_database.h"
#include "client/query_client.h"
#include "coordinator/coordinator_service.h"
#include "observability/trace_codec.h"
#include "server/query_server.h"
#include "server/shard_map.h"
#include "test_util.h"

namespace hmmm {
namespace {

using ::hmmm::testing::GeneratedSoccerCatalog;

// -- Shared deployment scaffolding ----------------------------------------

struct Deployment {
  std::unique_ptr<VideoDatabase> global;
  std::vector<std::unique_ptr<VideoDatabase>> shard_dbs;
  std::vector<std::unique_ptr<QueryServer>> servers;
  ShardMap map;

  ~Deployment() {
    for (auto& server : servers) {
      if (server != nullptr) server->Shutdown();
    }
  }
};

/// `replicas` servers per shard range; shard_dbs/servers hold replica r
/// of shard s at index r * num_shards + s.
std::unique_ptr<Deployment> MakeDeployment(int num_shards, int replicas = 1) {
  auto deployment = std::make_unique<Deployment>();
  StatusOr<VideoDatabase> global =
      VideoDatabase::Create(GeneratedSoccerCatalog(3, 8));
  HMMM_CHECK(global.ok());
  deployment->global =
      std::make_unique<VideoDatabase>(std::move(global).value());

  for (int r = 0; r < replicas; ++r) {
    StatusOr<std::vector<CatalogShard>> shards =
        PartitionForServing(deployment->global->catalog(),
                            deployment->global->model(), num_shards);
    HMMM_CHECK(shards.ok());
    if (r == 0) {
      deployment->map =
          ShardMapFromPartition(*shards, deployment->global->catalog());
    }
    for (size_t s = 0; s < shards->size(); ++s) {
      CatalogShard& shard = (*shards)[s];
      StatusOr<VideoDatabase> db = VideoDatabase::CreateWithModel(
          std::move(shard.catalog), std::move(shard.model));
      HMMM_CHECK(db.ok());
      deployment->shard_dbs.push_back(
          std::make_unique<VideoDatabase>(std::move(db).value()));
      QueryServerOptions options;
      options.port = 0;
      auto server = std::make_unique<QueryServer>(
          deployment->shard_dbs.back().get(), options);
      HMMM_CHECK(server->Start().ok());
      const std::string endpoint =
          "127.0.0.1:" + std::to_string(server->port());
      if (r == 0) {
        deployment->map.shards[s].endpoint = endpoint;
      } else {
        deployment->map.shards[s].replica_endpoints.push_back(endpoint);
      }
      deployment->servers.push_back(std::move(server));
    }
  }
  return deployment;
}

void ExpectSameRanking(const std::vector<RetrievedPattern>& actual,
                       const std::vector<RetrievedPattern>& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i].video, expected[i].video) << "rank " << i;
    EXPECT_EQ(actual[i].shots, expected[i].shots) << "rank " << i;
    EXPECT_EQ(actual[i].score, expected[i].score) << "rank " << i;
  }
}

// -- Trace-forest helpers -------------------------------------------------

const TraceSpan* FindById(const std::vector<TraceSpan>& spans, int id) {
  for (const TraceSpan& span : spans) {
    if (span.id == id) return &span;
  }
  return nullptr;
}

std::string Attribute(const TraceSpan& span, const std::string& name) {
  for (const auto& [key, value] : span.attributes) {
    if (key == name) return value;
  }
  return "";
}

std::vector<const TraceSpan*> ChildrenOf(const std::vector<TraceSpan>& spans,
                                         int parent_id) {
  std::vector<const TraceSpan*> children;
  for (const TraceSpan& span : spans) {
    if (span.parent == parent_id) children.push_back(&span);
  }
  std::sort(children.begin(), children.end(),
            [](const TraceSpan* a, const TraceSpan* b) {
              return std::make_pair(a->sort_key, a->id) <
                     std::make_pair(b->sort_key, b->id);
            });
  return children;
}

/// The run-invariant shape of an assembled trace: pre-order (name, depth)
/// with siblings in their deterministic (sort_key, id) order. Span ids
/// and wall times legitimately differ between runs; this must not.
void SkeletonDfs(const std::vector<TraceSpan>& spans, int id, int depth,
                 std::vector<std::pair<std::string, int>>* out) {
  const TraceSpan* span = FindById(spans, id);
  HMMM_CHECK(span != nullptr);
  out->emplace_back(span->name, depth);
  for (const TraceSpan* child : ChildrenOf(spans, id)) {
    SkeletonDfs(spans, child->id, depth + 1, out);
  }
}

std::vector<std::pair<std::string, int>> Skeleton(
    const std::vector<TraceSpan>& spans) {
  std::vector<std::pair<std::string, int>> out;
  for (const TraceSpan& span : spans) {
    if (FindById(spans, span.parent) == nullptr) {
      SkeletonDfs(spans, span.id, 0, &out);
    }
  }
  return out;
}

// -- Cross-process trace assembly -----------------------------------------

TEST(DistributedTraceTest, AssembledTraceCoversEveryShard) {
  for (int num_shards : {1, 2, 4}) {
    SCOPED_TRACE("num_shards=" + std::to_string(num_shards));
    std::unique_ptr<Deployment> deployment = MakeDeployment(num_shards);
    StatusOr<std::unique_ptr<CoordinatorService>> coordinator =
        CoordinatorService::Create(deployment->map);
    ASSERT_TRUE(coordinator.ok()) << coordinator.status().ToString();

    TemporalQueryRequest request;
    request.text = "free_kick ; goal";
    request.want_trace = true;
    StatusOr<TemporalQueryResponse> response =
        (*coordinator)->TemporalQuery(request, nullptr);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    ASSERT_FALSE(response->trace_blob.empty());

    StatusOr<std::vector<TraceSpan>> spans =
        DeserializeSpans(response->trace_blob);
    ASSERT_TRUE(spans.ok()) << spans.status().ToString();

    // One root: the coordinator's own request span.
    std::vector<const TraceSpan*> roots;
    for (const TraceSpan& span : *spans) {
      if (span.parent == -1) roots.push_back(&span);
    }
    ASSERT_EQ(roots.size(), 1u);
    const TraceSpan& root = *roots[0];
    EXPECT_EQ(root.name, "coordinator_query");
    EXPECT_TRUE(root.finished);
    const std::string trace_id = Attribute(root, "trace_id");
    EXPECT_EQ(trace_id.size(), 32u);

    // One fan-out span per shard, tagged with shard id and endpoint, in
    // shard order.
    const std::vector<const TraceSpan*> fanouts =
        ChildrenOf(*spans, root.id);
    ASSERT_EQ(fanouts.size(), static_cast<size_t>(num_shards));
    for (int s = 0; s < num_shards; ++s) {
      const TraceSpan& fanout = *fanouts[s];
      EXPECT_EQ(fanout.name, "shard_fanout");
      EXPECT_EQ(Attribute(fanout, "shard"), std::to_string(s));
      EXPECT_EQ(Attribute(fanout, "endpoint"),
                deployment->map.shards[s].endpoint);

      // Each fan-out adopts exactly its shard's grafted sub-trace: a
      // server_query span carrying the propagated trace id, over the
      // paper's Fig.-2 phase spans.
      const std::vector<const TraceSpan*> grafted =
          ChildrenOf(*spans, fanout.id);
      ASSERT_EQ(grafted.size(), 1u);
      EXPECT_EQ(grafted[0]->name, "server_query");
      EXPECT_EQ(Attribute(*grafted[0], "trace_id"), trace_id);

      std::vector<std::string> phase_names;
      for (const TraceSpan* phase : ChildrenOf(*spans, grafted[0]->id)) {
        phase_names.push_back(phase->name);
      }
      for (const char* phase :
           {"step2_video_order", "query_plan_build", "step7_video_fanout",
            "step8_9_merge_rank"}) {
        EXPECT_NE(std::find(phase_names.begin(), phase_names.end(), phase),
                  phase_names.end())
            << "shard " << s << " lacks phase " << phase;
      }
    }
  }
}

TEST(DistributedTraceTest, AssemblyIsDeterministicAcrossRuns) {
  // Each run boots a fresh deployment (new processes-worth of state, new
  // ports) from the same seeded catalog: the assembled trace's shape must
  // come out identical — ports, span ids and wall times are the only
  // degrees of freedom, and none of them are part of the skeleton.
  // (A fresh deployment also keeps the shard query caches cold: a repeat
  // query against a warm shard legitimately renders a cache_hit span.)
  std::vector<std::pair<std::string, int>> reference;
  for (int run = 0; run < 3; ++run) {
    std::unique_ptr<Deployment> deployment = MakeDeployment(2);
    StatusOr<std::unique_ptr<CoordinatorService>> coordinator =
        CoordinatorService::Create(deployment->map);
    ASSERT_TRUE(coordinator.ok());

    TemporalQueryRequest request;
    request.text = "corner_kick ; goal";
    request.want_trace = true;
    StatusOr<TemporalQueryResponse> response =
        (*coordinator)->TemporalQuery(request, nullptr);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    StatusOr<std::vector<TraceSpan>> spans =
        DeserializeSpans(response->trace_blob);
    ASSERT_TRUE(spans.ok());
    const auto skeleton = Skeleton(*spans);
    ASSERT_FALSE(skeleton.empty());
    if (run == 0) {
      reference = skeleton;
    } else {
      EXPECT_EQ(skeleton, reference) << "run " << run;
    }
  }
}

TEST(DistributedTraceTest, RankingsByteIdenticalWithTracingOnAndOff) {
  std::unique_ptr<Deployment> deployment = MakeDeployment(2);
  StatusOr<std::unique_ptr<CoordinatorService>> coordinator =
      CoordinatorService::Create(deployment->map);
  ASSERT_TRUE(coordinator.ok());

  const auto reference = deployment->global->Query("free_kick ; goal");
  ASSERT_TRUE(reference.ok());

  for (bool want_trace : {false, true}) {
    TemporalQueryRequest request;
    request.text = "free_kick ; goal";
    request.want_trace = want_trace;
    StatusOr<TemporalQueryResponse> response =
        (*coordinator)->TemporalQuery(request, nullptr);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response->trace_blob.empty(), !want_trace);
    ExpectSameRanking(response->results, *reference);
  }
}

// -- Slow-query plane over the wire ---------------------------------------

TEST(SlowQueryWireTest, DumpSlowQueriesRoundTripsThroughTheServer) {
  auto db = VideoDatabase::Create(GeneratedSoccerCatalog());
  ASSERT_TRUE(db.ok());
  QueryServiceOptions service_options;
  service_options.slow_query_threshold_ms = 0.0;  // capture everything
  VideoDatabaseService service(&db.value(), service_options);
  QueryServer server(&service);
  ASSERT_TRUE(server.Start().ok());

  QueryClientOptions options;
  options.port = server.port();
  QueryClient client(options);

  TemporalQueryRequest request;
  request.text = "free_kick ; goal";
  request.want_trace = true;
  StatusOr<TemporalQueryResponse> response = client.TemporalQuery(request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();

  // The captured entry correlates with the trace: the dump carries the
  // same 32-hex trace id the returned trace's root span was tagged with.
  StatusOr<std::vector<TraceSpan>> spans =
      DeserializeSpans(response->trace_blob);
  ASSERT_TRUE(spans.ok());
  ASSERT_FALSE(spans->empty());
  const std::string trace_id = Attribute((*spans)[0], "trace_id");
  ASSERT_EQ(trace_id.size(), 32u);

  StatusOr<DumpSlowQueriesResponse> dump = client.DumpSlowQueries();
  ASSERT_TRUE(dump.ok()) << dump.status().ToString();
  EXPECT_NE(dump->jsonl.find("\"pattern\":\"free_kick ; goal\""),
            std::string::npos)
      << dump->jsonl;
  EXPECT_NE(dump->jsonl.find(trace_id), std::string::npos) << dump->jsonl;
}

// -- Sampling boundaries at the service layer -----------------------------

TEST(SamplingTest, AlwaysOnSamplerTracesUnrequestedQueries) {
  auto db = VideoDatabase::Create(GeneratedSoccerCatalog());
  ASSERT_TRUE(db.ok());
  QueryServiceOptions service_options;
  service_options.trace_sample_rate = 1.0;
  service_options.slow_query_threshold_ms = 0.0;
  VideoDatabaseService service(&db.value(), service_options);

  TemporalQueryRequest request;
  request.text = "goal";
  StatusOr<TemporalQueryResponse> response =
      service.TemporalQuery(request, nullptr);
  ASSERT_TRUE(response.ok());
  // Head-sampled but not requested: the caller gets no trace bytes, yet
  // the tail sink (slow-query log) captured the minted trace id.
  EXPECT_TRUE(response->trace_blob.empty());
  const std::string jsonl = service.slow_query_log().DumpJsonl();
  ASSERT_NE(jsonl.find("\"trace_id\":\""), std::string::npos);
  EXPECT_EQ(jsonl.find("\"trace_id\":\"\""), std::string::npos) << jsonl;
}

TEST(SamplingTest, ZeroRateLeavesUnrequestedQueriesUntraced) {
  auto db = VideoDatabase::Create(GeneratedSoccerCatalog());
  ASSERT_TRUE(db.ok());
  QueryServiceOptions service_options;
  service_options.trace_sample_rate = 0.0;
  service_options.slow_query_threshold_ms = 0.0;
  VideoDatabaseService service(&db.value(), service_options);

  TemporalQueryRequest request;
  request.text = "goal";
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(service.TemporalQuery(request, nullptr).ok());
  }
  const std::string jsonl = service.slow_query_log().DumpJsonl();
  ASSERT_FALSE(jsonl.empty());
  // Every captured entry's trace_id is the empty string.
  constexpr const char kField[] = "\"trace_id\":\"";
  constexpr size_t kFieldLen = sizeof(kField) - 1;
  size_t entries = 0;
  for (size_t pos = jsonl.find(kField); pos != std::string::npos;
       pos = jsonl.find(kField, pos + 1)) {
    ++entries;
    ASSERT_LT(pos + kFieldLen, jsonl.size());
    EXPECT_EQ(jsonl[pos + kFieldLen], '"')
        << "sampled without a request at " << pos;
  }
  EXPECT_EQ(entries, 5u);
}

TEST(SamplingTest, DegradedQueriesAreCapturedRegardlessOfThreshold) {
  auto db = VideoDatabase::Create(GeneratedSoccerCatalog());
  ASSERT_TRUE(db.ok());
  QueryServiceOptions service_options;
  service_options.slow_query_threshold_ms = 1e9;  // nothing is "slow"
  VideoDatabaseService service(&db.value(), service_options);

  TemporalQueryRequest request;
  request.text = "free_kick ; goal";
  request.budget_ms = 0;  // degrade immediately
  StatusOr<TemporalQueryResponse> response =
      service.TemporalQuery(request, nullptr);
  ASSERT_TRUE(response.ok());
  EXPECT_TRUE(response->degraded);
  const std::string jsonl = service.slow_query_log().DumpJsonl();
  EXPECT_NE(jsonl.find("\"reason\":\"degraded\""), std::string::npos)
      << jsonl;
  EXPECT_NE(jsonl.find("\"degraded\":true"), std::string::npos);
}

// -- Fleet metrics through the coordinator --------------------------------

TEST(FleetMetricsTest, CoordinatorExpositionCarriesShardLabeledSeries) {
  std::unique_ptr<Deployment> deployment = MakeDeployment(2);
  StatusOr<std::unique_ptr<CoordinatorService>> coordinator =
      CoordinatorService::Create(deployment->map);
  ASSERT_TRUE(coordinator.ok());

  TemporalQueryRequest request;
  request.text = "free_kick ; goal";
  ASSERT_TRUE((*coordinator)->TemporalQuery(request, nullptr).ok());

  StatusOr<MetricsResponse> metrics = (*coordinator)->Metrics();
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  // Coordinator-own families first, then every shard's snapshot with a
  // shard label.
  EXPECT_NE(metrics->prometheus_text.find("hmmm_coordinator_fanouts_total"),
            std::string::npos);
  // hmmm_server_* families only exist inside the shard processes, so
  // their presence with shard/replica labels proves the fleet
  // aggregation.
  for (const char* series :
       {"hmmm_server_connections_total{shard=\"0\",replica=\"0\"}",
        "hmmm_server_connections_total{shard=\"1\",replica=\"0\"}"}) {
    EXPECT_NE(metrics->prometheus_text.find(series), std::string::npos)
        << "missing series " << series << "\n"
        << metrics->prometheus_text;
  }
  // The binary snapshot stays coordinator-local: it merges cleanly, and
  // carries none of the shards' server-side families.
  MetricsRegistry probe;
  ASSERT_TRUE(probe.MergeSnapshot(metrics->snapshot).ok());
  const std::string own = probe.RenderPrometheus();
  EXPECT_NE(own.find("hmmm_coordinator_fanouts_total"), std::string::npos);
  EXPECT_EQ(own.find("hmmm_server_connections_total"), std::string::npos);
}

/// The sample lines (no HELP/TYPE) of a Prometheus exposition.
std::set<std::string> SampleLines(const std::string& text) {
  std::set<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) {
    if (!line.empty() && line[0] != '#') lines.insert(line);
  }
  return lines;
}

TEST(FleetMetricsTest, FleetExpositionMatchesEveryReplicaRegistry) {
  constexpr int kShards = 2;
  constexpr int kReplicas = 2;
  std::unique_ptr<Deployment> deployment = MakeDeployment(kShards, kReplicas);
  CoordinatorOptions options;
  options.health_probe_interval = std::chrono::milliseconds(0);
  StatusOr<std::unique_ptr<CoordinatorService>> coordinator =
      CoordinatorService::Create(deployment->map, options);
  ASSERT_TRUE(coordinator.ok()) << coordinator.status().ToString();

  // Give every replica distinct values: queries fill the query counters,
  // cache counters and the latency histogram (buckets, sum, count), and a
  // labeled counter carries a value that needs escaping.
  for (int r = 0; r < kReplicas; ++r) {
    for (int s = 0; s < kShards; ++s) {
      VideoDatabase& db = *deployment->shard_dbs[r * kShards + s];
      for (int q = 0; q <= r + s; ++q) {
        ASSERT_TRUE(db.Query(q % 2 == 0 ? "free_kick ; goal" : "goal").ok());
      }
      db.metrics_registry()
          .GetCounter("hmmm_test_escaped_total",
                      {{"path", "a\\b \"c\"\nd"}}, "label escaping")
          ->Increment(static_cast<uint64_t>(10 * r + s + 1));
      db.metrics_registry()
          .GetGauge("hmmm_test_ratio", "a fractional gauge")
          ->Set(0.25 * (r + 1) + s);
    }
  }

  StatusOr<MetricsResponse> metrics = (*coordinator)->Metrics();
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  const std::set<std::string> fleet = SampleLines(metrics->prometheus_text);

  // hmmm_server_* families move while they are scraped (the scrape is a
  // request), so they are checked for presence only; every other shard
  // series must match its own registry line for line.
  const auto moves_when_scraped = [](const std::string& line) {
    return line.rfind("hmmm_server_", 0) == 0;
  };
  for (int r = 0; r < kReplicas; ++r) {
    for (int s = 0; s < kShards; ++s) {
      SCOPED_TRACE("shard " + std::to_string(s) + " replica " +
                   std::to_string(r));
      const std::string labels = "shard=\"" + std::to_string(s) +
                                 "\",replica=\"" + std::to_string(r) + "\"";
      const std::set<std::string> own = SampleLines(
          deployment->shard_dbs[r * kShards + s]
              ->metrics_registry()
              .RenderPrometheus({{"shard", std::to_string(s)},
                                 {"replica", std::to_string(r)}}));
      std::set<std::string> expected;
      for (const std::string& line : own) {
        if (!moves_when_scraped(line)) expected.insert(line);
      }
      std::set<std::string> actual;
      for (const std::string& line : fleet) {
        if (line.find(labels) != std::string::npos &&
            line.rfind("hmmm_coordinator_", 0) != 0 &&
            !moves_when_scraped(line)) {
          actual.insert(line);
        }
      }
      // At least the latency histogram's 16 lines plus the counters.
      EXPECT_GT(expected.size(), 20u);
      EXPECT_EQ(actual, expected);
      for (const std::string& needle :
           {"hmmm_queries_total{" + labels + "}",
            "hmmm_query_latency_ms_bucket{" + labels + ",le=\"+Inf\"}",
            "hmmm_query_latency_ms_sum{" + labels + "}",
            "hmmm_query_latency_ms_count{" + labels + "}",
            "hmmm_test_ratio{" + labels + "}",
            "hmmm_test_escaped_total{path=\"a\\\\b \\\"c\\\"\\nd\"," +
                labels + "}",
            "hmmm_server_connections_total{" + labels + "}"}) {
        EXPECT_NE(metrics->prometheus_text.find(needle), std::string::npos)
            << "missing " << needle;
      }
    }
  }
}

}  // namespace
}  // namespace hmmm
