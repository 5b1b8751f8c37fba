#include "coordinator/coordinator_service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/catalog_partition.h"
#include "api/video_database.h"
#include "client/query_client.h"
#include "coordinator/shard_router.h"
#include "server/query_server.h"
#include "server/shard_map.h"
#include "test_util.h"

namespace hmmm {
namespace {

using ::hmmm::testing::GeneratedSoccerCatalog;

// -- ShardBudgetMs --------------------------------------------------------

TEST(ShardBudgetTest, UnboundedPassesThrough) {
  CoordinatorOptions options;
  EXPECT_EQ(ShardBudgetMs(-1, options), -1);
}

TEST(ShardBudgetTest, ZeroStaysZero) {
  CoordinatorOptions options;
  EXPECT_EQ(ShardBudgetMs(0, options), 0);
}

TEST(ShardBudgetTest, SubtractsMergeReserve) {
  CoordinatorOptions options;
  options.merge_reserve_ms = 5;
  EXPECT_EQ(ShardBudgetMs(100, options), 95);
}

TEST(ShardBudgetTest, FlooredAtMinimum) {
  CoordinatorOptions options;
  options.merge_reserve_ms = 5;
  options.min_shard_budget_ms = 1;
  EXPECT_EQ(ShardBudgetMs(3, options), 1);
  EXPECT_EQ(ShardBudgetMs(5, options), 1);
  EXPECT_EQ(ShardBudgetMs(6, options), 1);
  EXPECT_EQ(ShardBudgetMs(7, options), 2);
}

// -- Merge determinism ----------------------------------------------------

RetrievedPattern Pattern(VideoId video, double score) {
  RetrievedPattern pattern;
  pattern.video = video;
  pattern.score = score;
  pattern.shots = {video * 10, video * 10 + 1};
  return pattern;
}

TEST(MergeRankedResultsTest, TotalOrderAcrossShards) {
  std::vector<std::vector<RetrievedPattern>> per_shard(2);
  per_shard[0] = {Pattern(0, 0.5), Pattern(1, 0.9)};
  per_shard[1] = {Pattern(2, 0.7), Pattern(3, 0.5)};
  const std::vector<RetrievedPattern> merged =
      MergeRankedResults(std::move(per_shard), 20);
  ASSERT_EQ(merged.size(), 4u);
  EXPECT_EQ(merged[0].video, 1);
  EXPECT_EQ(merged[1].video, 2);
  // Exact score tie 0.5: global video order breaks it.
  EXPECT_EQ(merged[2].video, 0);
  EXPECT_EQ(merged[3].video, 3);
}

TEST(MergeRankedResultsTest, Truncates) {
  std::vector<std::vector<RetrievedPattern>> per_shard(1);
  per_shard[0] = {Pattern(0, 0.3), Pattern(1, 0.8), Pattern(2, 0.5)};
  const std::vector<RetrievedPattern> merged =
      MergeRankedResults(std::move(per_shard), 2);
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_EQ(merged[0].video, 1);
  EXPECT_EQ(merged[1].video, 2);
}

TEST(MergeRankedResultsTest, InvariantUnderShardSplit) {
  // Property: however the per-video candidates are split into shard
  // lists, the merge is the same — it only depends on the candidate set.
  std::vector<RetrievedPattern> all;
  for (VideoId v = 0; v < 12; ++v) {
    // Deliberate duplicate scores across videos to exercise tie-breaks.
    all.push_back(Pattern(v, (v % 4) * 0.25));
  }
  std::vector<std::vector<RetrievedPattern>> one_shard(1);
  one_shard[0] = all;
  const std::vector<RetrievedPattern> reference =
      MergeRankedResults(std::move(one_shard), 20);

  for (int num_shards : {2, 3, 4, 12}) {
    std::vector<std::vector<RetrievedPattern>> split(
        static_cast<size_t>(num_shards));
    for (size_t i = 0; i < all.size(); ++i) {
      split[i % static_cast<size_t>(num_shards)].push_back(all[i]);
    }
    const std::vector<RetrievedPattern> merged =
        MergeRankedResults(std::move(split), 20);
    ASSERT_EQ(merged.size(), reference.size());
    for (size_t i = 0; i < merged.size(); ++i) {
      EXPECT_EQ(merged[i].video, reference[i].video)
          << num_shards << " shards, rank " << i;
      EXPECT_EQ(merged[i].score, reference[i].score);
    }
  }
}

TEST(MergeQbeResultsTest, StableAcrossEqualSimilarities) {
  std::vector<std::vector<QbeResult>> per_shard(2);
  per_shard[0] = {{10, 0.9}, {11, 0.5}};
  per_shard[1] = {{20, 0.9}, {21, 0.5}};
  const std::vector<QbeResult> merged =
      MergeQbeResults(std::move(per_shard), 20);
  ASSERT_EQ(merged.size(), 4u);
  // Ties keep concatenation (= global state) order: shard 0 before 1.
  EXPECT_EQ(merged[0].shot, 10);
  EXPECT_EQ(merged[1].shot, 20);
  EXPECT_EQ(merged[2].shot, 11);
  EXPECT_EQ(merged[3].shot, 21);
}

// -- ShardRouter ----------------------------------------------------------

ShardMap RouterMap() {
  ShardMap map;
  map.total_videos = 3;
  map.total_shots = 5;
  ShardMapEntry a;
  a.endpoint = "127.0.0.1:9001";
  a.video_begin = 0;
  a.video_end = 2;
  a.shot_to_global = {0, 2, 4};
  ShardMapEntry b;
  b.endpoint = "127.0.0.1:9002";
  b.video_begin = 2;
  b.video_end = 3;
  b.shot_to_global = {1, 3};
  map.shards = {a, b};
  return map;
}

TEST(ShardRouterTest, RoutesVideosAndShots) {
  StatusOr<ShardRouter> router = ShardRouter::Create(RouterMap());
  ASSERT_TRUE(router.ok()) << router.status().ToString();
  EXPECT_EQ(router->num_shards(), 2);
  EXPECT_EQ(router->ShardOfVideo(0), 0);
  EXPECT_EQ(router->ShardOfVideo(1), 0);
  EXPECT_EQ(router->ShardOfVideo(2), 1);
  EXPECT_EQ(router->ShardOfVideo(-1), -1);
  EXPECT_EQ(router->ShardOfVideo(3), -1);

  EXPECT_EQ(router->LocateShot(0), (std::pair<int, ShotId>{0, 0}));
  EXPECT_EQ(router->LocateShot(1), (std::pair<int, ShotId>{1, 0}));
  EXPECT_EQ(router->LocateShot(4), (std::pair<int, ShotId>{0, 2}));
  EXPECT_EQ(router->LocateShot(5), (std::pair<int, ShotId>{-1, -1}));

  EXPECT_EQ(router->ToGlobalVideo(1, 0), 2);
  EXPECT_EQ(router->ToLocalVideo(0, 1), 1);
  EXPECT_EQ(router->ToGlobalShot(0, 1), 2);
  EXPECT_EQ(router->ToGlobalShot(1, 1), 3);
  EXPECT_EQ(router->ToGlobalShot(1, 2), -1);
  EXPECT_EQ(router->VideosOwnedBy(0), 2u);
  EXPECT_EQ(router->VideosOwnedBy(1), 1u);
}

TEST(ShardRouterTest, RejectsInvalidMap) {
  ShardMap map = RouterMap();
  map.shards[1].video_begin = 0;  // overlap
  EXPECT_FALSE(ShardRouter::Create(std::move(map)).ok());
}

// -- Loopback scatter-gather ----------------------------------------------

/// A live sharded deployment over the loopback: the global archive, its
/// N-shard partition served by N real QueryServers, and the serving map
/// pointing at them.
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

std::unique_ptr<Deployment> MakeDeployment(int num_shards) {
  auto deployment = std::make_unique<Deployment>();
  StatusOr<VideoDatabase> global =
      VideoDatabase::Create(GeneratedSoccerCatalog(3, 8));
  HMMM_CHECK(global.ok());
  deployment->global =
      std::make_unique<VideoDatabase>(std::move(global).value());

  StatusOr<std::vector<CatalogShard>> shards = PartitionForServing(
      deployment->global->catalog(), deployment->global->model(), num_shards);
  HMMM_CHECK(shards.ok());
  deployment->map =
      ShardMapFromPartition(*shards, deployment->global->catalog());
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
    deployment->map.shards[s].endpoint =
        "127.0.0.1:" + std::to_string(server->port());
    deployment->servers.push_back(std::move(server));
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
    EXPECT_EQ(actual[i].edge_weights, expected[i].edge_weights)
        << "rank " << i;
  }
}

TEST(CoordinatorTest, ByteIdenticalToSingleProcessAcrossShardCounts) {
  const std::vector<std::string> queries = {"free_kick ; goal", "goal",
                                            "corner_kick ; goal"};
  for (int num_shards : {1, 2, 4}) {
    std::unique_ptr<Deployment> deployment = MakeDeployment(num_shards);
    StatusOr<std::unique_ptr<CoordinatorService>> coordinator =
        CoordinatorService::Create(deployment->map);
    ASSERT_TRUE(coordinator.ok()) << coordinator.status().ToString();

    for (const std::string& query : queries) {
      StatusOr<std::vector<RetrievedPattern>> reference =
          deployment->global->Query(query);
      ASSERT_TRUE(reference.ok());

      TemporalQueryRequest request;
      request.text = query;
      StatusOr<TemporalQueryResponse> response =
          (*coordinator)->TemporalQuery(request, nullptr);
      ASSERT_TRUE(response.ok()) << response.status().ToString();
      EXPECT_FALSE(response->degraded);
      EXPECT_EQ(response->videos_skipped, 0u);
      ExpectSameRanking(response->results, *reference);
    }
  }
}

TEST(CoordinatorTest, QbeByteIdentical) {
  std::unique_ptr<Deployment> deployment = MakeDeployment(2);
  StatusOr<std::unique_ptr<CoordinatorService>> coordinator =
      CoordinatorService::Create(deployment->map);
  ASSERT_TRUE(coordinator.ok());

  QbeRequest request;
  request.features = testing::FeatureVector(
      deployment->global->catalog().num_features(), 0.1, {0, 2}, 0.9);
  StatusOr<std::vector<QbeResult>> reference =
      deployment->global->QueryByExample(request.features);
  ASSERT_TRUE(reference.ok());

  StatusOr<QbeResponse> response = (*coordinator)->QueryByExample(request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_EQ(response->results.size(), reference->size());
  for (size_t i = 0; i < reference->size(); ++i) {
    EXPECT_EQ(response->results[i].shot, (*reference)[i].shot);
    EXPECT_EQ(response->results[i].similarity, (*reference)[i].similarity);
  }
}

TEST(CoordinatorTest, DeadShardDegradesInsteadOfFailing) {
  std::unique_ptr<Deployment> deployment = MakeDeployment(3);
  StatusOr<std::unique_ptr<CoordinatorService>> coordinator =
      CoordinatorService::Create(deployment->map);
  ASSERT_TRUE(coordinator.ok());

  // Kill shard 1 (owns 3 of the 8 videos).
  deployment->servers[1]->Shutdown();
  const size_t killed_share =
      (*coordinator)->router().VideosOwnedBy(1);

  TemporalQueryRequest request;
  request.text = "free_kick ; goal";
  request.budget_ms = 5000;
  StatusOr<TemporalQueryResponse> response =
      (*coordinator)->TemporalQuery(request, nullptr);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_TRUE(response->degraded);
  EXPECT_EQ(response->videos_skipped, killed_share);
  // Survivors still answer: no result from shard 1's video range.
  EXPECT_FALSE(response->results.empty());
  for (const RetrievedPattern& result : response->results) {
    EXPECT_TRUE(result.video < 3 || result.video >= 6) << result.video;
  }
}

TEST(CoordinatorTest, AllShardsDeadIsDegradedEmptyNotError) {
  std::unique_ptr<Deployment> deployment = MakeDeployment(2);
  StatusOr<std::unique_ptr<CoordinatorService>> coordinator =
      CoordinatorService::Create(deployment->map);
  ASSERT_TRUE(coordinator.ok());
  for (auto& server : deployment->servers) server->Shutdown();

  TemporalQueryRequest request;
  request.text = "goal";
  request.budget_ms = 5000;
  StatusOr<TemporalQueryResponse> response =
      (*coordinator)->TemporalQuery(request, nullptr);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_TRUE(response->degraded);
  EXPECT_TRUE(response->results.empty());
  EXPECT_EQ(response->videos_skipped,
            static_cast<uint64_t>(deployment->map.total_videos));
}

TEST(CoordinatorTest, MalformedQueryIsAnErrorNotDegradation) {
  std::unique_ptr<Deployment> deployment = MakeDeployment(2);
  StatusOr<std::unique_ptr<CoordinatorService>> coordinator =
      CoordinatorService::Create(deployment->map);
  ASSERT_TRUE(coordinator.ok());

  TemporalQueryRequest request;
  request.text = "";  // parser: invalid argument
  StatusOr<TemporalQueryResponse> response =
      (*coordinator)->TemporalQuery(request, nullptr);
  EXPECT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kInvalidArgument);

  request.text = "definitely_not_an_event ; goal";  // parser: not found
  response = (*coordinator)->TemporalQuery(request, nullptr);
  EXPECT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kNotFound);
}

TEST(CoordinatorTest, StatsAggregateAcrossShards) {
  std::unique_ptr<Deployment> deployment = MakeDeployment(2);
  StatusOr<std::unique_ptr<CoordinatorService>> coordinator =
      CoordinatorService::Create(deployment->map);
  ASSERT_TRUE(coordinator.ok());

  TemporalQueryRequest request;
  request.text = "free_kick ; goal";
  request.want_stats = true;
  StatusOr<TemporalQueryResponse> response =
      (*coordinator)->TemporalQuery(request, nullptr);
  ASSERT_TRUE(response.ok());
  EXPECT_TRUE(response->has_stats);
  // Every video is considered by exactly one shard.
  RetrievalStats reference_stats;
  StatusOr<std::vector<RetrievedPattern>> reference =
      deployment->global->Query(request.text, &reference_stats);
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(response->stats.videos_considered,
            reference_stats.videos_considered);
  EXPECT_EQ(response->stats.candidates_scored,
            reference_stats.candidates_scored);
  EXPECT_GT(response->stats.heap_pops, 0u);
  EXPECT_EQ(response->stats.heap_pops, reference_stats.heap_pops);
}

TEST(CoordinatorTest, MarkPositiveRoutesToOwningShard) {
  std::unique_ptr<Deployment> deployment = MakeDeployment(3);
  StatusOr<std::unique_ptr<CoordinatorService>> coordinator =
      CoordinatorService::Create(deployment->map);
  ASSERT_TRUE(coordinator.ok());

  TemporalQueryRequest query;
  query.text = "free_kick ; goal";
  StatusOr<TemporalQueryResponse> response =
      (*coordinator)->TemporalQuery(query, nullptr);
  ASSERT_TRUE(response.ok());
  ASSERT_FALSE(response->results.empty());

  // Pick a result owned by the last shard to prove non-trivial routing.
  const RetrievedPattern* picked = nullptr;
  for (const RetrievedPattern& result : response->results) {
    if ((*coordinator)->router().ShardOfVideo(result.video) == 2) {
      picked = &result;
      break;
    }
  }
  if (picked == nullptr) picked = &response->results.front();

  // Success proves the id remap: the owning shard's database only holds
  // its own (local) video/shot ids, so an untranslated global pattern
  // would be rejected as out of range.
  MarkPositiveRequest feedback;
  feedback.pattern = *picked;
  StatusOr<MarkPositiveResponse> marked =
      (*coordinator)->MarkPositive(feedback);
  ASSERT_TRUE(marked.ok()) << marked.status().ToString();

  MarkPositiveRequest bogus;
  bogus.pattern.video = 999;
  bogus.pattern.shots = {0};
  StatusOr<MarkPositiveResponse> rejected =
      (*coordinator)->MarkPositive(bogus);
  EXPECT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kNotFound);
}

TEST(CoordinatorTest, TrainBroadcastsAndHealthAggregates) {
  std::unique_ptr<Deployment> deployment = MakeDeployment(2);
  StatusOr<std::unique_ptr<CoordinatorService>> coordinator =
      CoordinatorService::Create(deployment->map);
  ASSERT_TRUE(coordinator.ok());

  StatusOr<TrainResponse> trained = (*coordinator)->Train();
  ASSERT_TRUE(trained.ok()) << trained.status().ToString();

  StatusOr<HealthResponse> health = (*coordinator)->Health();
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_EQ(health->videos,
            static_cast<uint64_t>(deployment->map.total_videos));
  EXPECT_EQ(health->shots,
            static_cast<uint64_t>(deployment->map.total_shots));
}

TEST(CoordinatorTest, MetricsExposeCoordinatorFamilies) {
  std::unique_ptr<Deployment> deployment = MakeDeployment(2);
  StatusOr<std::unique_ptr<CoordinatorService>> coordinator =
      CoordinatorService::Create(deployment->map);
  ASSERT_TRUE(coordinator.ok());

  TemporalQueryRequest request;
  request.text = "goal";
  ASSERT_TRUE((*coordinator)->TemporalQuery(request, nullptr).ok());

  StatusOr<MetricsResponse> metrics = (*coordinator)->Metrics();
  ASSERT_TRUE(metrics.ok());
  EXPECT_NE(metrics->prometheus_text.find("hmmm_coordinator_shards"),
            std::string::npos);
  EXPECT_NE(
      metrics->prometheus_text.find("hmmm_coordinator_shard_latency_ms"),
      std::string::npos);
  EXPECT_NE(metrics->prometheus_text.find("shard=\"1\""), std::string::npos);
}

TEST(CoordinatorTest, WireFrontEndServesMergedArchive) {
  std::unique_ptr<Deployment> deployment = MakeDeployment(2);
  StatusOr<std::unique_ptr<CoordinatorServer>> server =
      CoordinatorServer::Create(deployment->map);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  ASSERT_TRUE((*server)->Start().ok());

  QueryClientOptions client_options;
  client_options.port = (*server)->port();
  QueryClient client(client_options);

  StatusOr<HealthResponse> health = client.Health();
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_EQ(health->videos,
            static_cast<uint64_t>(deployment->map.total_videos));

  TemporalQueryRequest request;
  request.text = "free_kick ; goal";
  StatusOr<TemporalQueryResponse> response = client.TemporalQuery(request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  StatusOr<std::vector<RetrievedPattern>> reference =
      deployment->global->Query(request.text);
  ASSERT_TRUE(reference.ok());
  ExpectSameRanking(response->results, *reference);

  (*server)->Shutdown();
}

TEST(CoordinatorTest, CreateRejectsBadEndpoints) {
  ShardMap map = RouterMap();
  map.shards[0].endpoint = "";
  EXPECT_FALSE(CoordinatorService::Create(map).ok());
  map = RouterMap();
  map.shards[1].endpoint = "localhost";  // no port
  EXPECT_FALSE(CoordinatorService::Create(map).ok());
  map = RouterMap();
  map.shards[1].endpoint = "localhost:99999";
  EXPECT_FALSE(CoordinatorService::Create(map).ok());
}

}  // namespace
}  // namespace hmmm
