#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/catalog_partition.h"
#include "api/video_database.h"
#include "client/query_client.h"
#include "common/logging.h"
#include "coordinator/coordinator_service.h"
#include "coordinator/health_prober.h"
#include "server/query_server.h"
#include "server/query_service.h"
#include "server/shard_map.h"
#include "test_util.h"

// Replicated serving: every shard range is served by R replicas holding
// identical PartitionForServing slices. These tests prove the PR-9
// robustness contract — a coordinator survives the death of any single
// replica with NO degradation and byte-identical rankings, circuit
// breakers stop paying for known-dead endpoints, hedged reads cut tail
// latency without touching determinism, and a shard map hot-swaps under
// live load behind a strictly-monotone epoch fence.

namespace hmmm {
namespace {

using ::hmmm::testing::GeneratedSoccerCatalog;

// -- FailoverOrder / HealthProber units -----------------------------------

TEST(FailoverOrderTest, PrefersUpThenSuspectThenDown) {
  using H = EndpointHealth;
  EXPECT_EQ(FailoverOrder({H::kUp, H::kUp}), (std::vector<int>{0, 1}));
  EXPECT_EQ(FailoverOrder({H::kDown, H::kUp, H::kSuspect}),
            (std::vector<int>{1, 2, 0}));
  EXPECT_EQ(FailoverOrder({H::kSuspect, H::kDown, H::kUp}),
            (std::vector<int>{2, 0, 1}));
  // A health view that wrote off every replica still routes: kDown
  // demotes, never black-holes.
  EXPECT_EQ(FailoverOrder({H::kDown, H::kDown}), (std::vector<int>{0, 1}));
  EXPECT_EQ(FailoverOrder({}), std::vector<int>{});
}

class FakeFleet {
 public:
  explicit FakeFleet(std::vector<std::string> endpoints) {
    for (auto& endpoint : endpoints) alive_[std::move(endpoint)] = true;
  }

  HealthProber::EndpointLister Lister() {
    return [this] {
      std::vector<std::string> endpoints;
      for (const auto& [endpoint, unused] : alive_) {
        endpoints.push_back(endpoint);
      }
      return endpoints;
    };
  }
  HealthProber::ProbeFn Probe() {
    return [this](const std::string& endpoint) {
      return alive_.at(endpoint) ? Status::OK()
                                 : Status::IOError("connection refused");
    };
  }

  void SetAlive(const std::string& endpoint, bool alive) {
    alive_.at(endpoint) = alive;
  }
  void Remove(const std::string& endpoint) { alive_.erase(endpoint); }

 private:
  std::map<std::string, bool> alive_;
};

TEST(HealthProberTest, ConsecutiveThresholdsDriveTransitions) {
  FakeFleet fleet({"a:1", "b:1"});
  HealthProber::Options options;
  options.failures_to_down = 2;
  options.successes_to_up = 2;
  std::vector<std::pair<std::string, EndpointHealth>> transitions;
  HealthProber prober(options, fleet.Lister(), fleet.Probe(),
                      [&](const std::string& endpoint, EndpointHealth health) {
                        transitions.emplace_back(endpoint, health);
                      });

  // Never-probed endpoints are optimistically routable.
  EXPECT_EQ(prober.HealthOf("a:1"), EndpointHealth::kUp);

  fleet.SetAlive("a:1", false);
  prober.ProbeOnce();
  EXPECT_EQ(prober.HealthOf("a:1"), EndpointHealth::kSuspect);
  prober.ProbeOnce();
  EXPECT_EQ(prober.HealthOf("a:1"), EndpointHealth::kDown);
  EXPECT_EQ(prober.HealthOf("b:1"), EndpointHealth::kUp);

  // Recovery needs successes_to_up consecutive OK probes.
  fleet.SetAlive("a:1", true);
  prober.ProbeOnce();
  EXPECT_EQ(prober.HealthOf("a:1"), EndpointHealth::kDown);
  prober.ProbeOnce();
  EXPECT_EQ(prober.HealthOf("a:1"), EndpointHealth::kUp);

  const std::vector<std::pair<std::string, EndpointHealth>> expected = {
      {"a:1", EndpointHealth::kSuspect},
      {"a:1", EndpointHealth::kDown},
      {"a:1", EndpointHealth::kUp},
  };
  EXPECT_EQ(transitions, expected);
}

TEST(HealthProberTest, FlappingFailureResetsTheSuccessStreak) {
  FakeFleet fleet({"a:1"});
  HealthProber::Options options;
  options.failures_to_down = 1;
  options.successes_to_up = 2;
  HealthProber prober(options, fleet.Lister(), fleet.Probe());

  fleet.SetAlive("a:1", false);
  prober.ProbeOnce();
  ASSERT_EQ(prober.HealthOf("a:1"), EndpointHealth::kDown);

  fleet.SetAlive("a:1", true);
  prober.ProbeOnce();  // one success of the two required
  fleet.SetAlive("a:1", false);
  prober.ProbeOnce();  // flap: streak resets
  fleet.SetAlive("a:1", true);
  prober.ProbeOnce();
  EXPECT_EQ(prober.HealthOf("a:1"), EndpointHealth::kDown);
  prober.ProbeOnce();
  EXPECT_EQ(prober.HealthOf("a:1"), EndpointHealth::kUp);
}

TEST(HealthProberTest, ForgetsEndpointsDroppedByTheLister) {
  FakeFleet fleet({"a:1", "b:1"});
  HealthProber::Options options;
  options.failures_to_down = 1;
  HealthProber prober(options, fleet.Lister(), fleet.Probe());

  fleet.SetAlive("b:1", false);
  prober.ProbeOnce();
  ASSERT_EQ(prober.HealthOf("b:1"), EndpointHealth::kDown);

  // A map reload that drops b:1 must erase its verdict: if it ever comes
  // back under the same name it starts fresh (optimistically kUp).
  fleet.Remove("b:1");
  prober.ProbeOnce();
  EXPECT_EQ(prober.Snapshot().size(), 1u);
  EXPECT_EQ(prober.HealthOf("b:1"), EndpointHealth::kUp);
}

TEST(HealthProberTest, BackgroundThreadCyclesAndStops) {
  FakeFleet fleet({"a:1"});
  HealthProber::Options options;
  options.probe_interval = std::chrono::milliseconds(5);
  HealthProber prober(options, fleet.Lister(), fleet.Probe());
  prober.Start();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (prober.cycles_completed() < 3 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_GE(prober.cycles_completed(), 3u);
  prober.Stop();
  const uint64_t at_stop = prober.cycles_completed();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(prober.cycles_completed(), at_stop);
}

// -- Replicated loopback deployments --------------------------------------

/// A live replicated deployment: the global archive and each of its N
/// ranges served by R QueryServers over identical slices (the partition
/// is deterministic, so re-partitioning yields byte-identical replicas).
struct ReplicatedDeployment {
  std::unique_ptr<VideoDatabase> global;
  std::vector<std::unique_ptr<VideoDatabase>> dbs;
  // servers[s][r]: replica r of shard s (r == 0 is the map's primary).
  std::vector<std::vector<std::unique_ptr<QueryServer>>> servers;
  ShardMap map;

  ~ReplicatedDeployment() {
    for (auto& replicas : servers) {
      for (auto& server : replicas) {
        if (server != nullptr) server->Shutdown();
      }
    }
  }

  std::string Endpoint(int s, int r) const {
    return "127.0.0.1:" + std::to_string(servers[s][r]->port());
  }
};

std::unique_ptr<ReplicatedDeployment> MakeReplicatedDeployment(int num_shards,
                                                               int replicas) {
  auto deployment = std::make_unique<ReplicatedDeployment>();
  StatusOr<VideoDatabase> global =
      VideoDatabase::Create(GeneratedSoccerCatalog(3, 8));
  HMMM_CHECK(global.ok());
  deployment->global =
      std::make_unique<VideoDatabase>(std::move(global).value());
  deployment->servers.resize(num_shards);

  for (int r = 0; r < replicas; ++r) {
    StatusOr<std::vector<CatalogShard>> shards =
        PartitionForServing(deployment->global->catalog(),
                            deployment->global->model(), num_shards);
    HMMM_CHECK(shards.ok());
    if (r == 0) {
      deployment->map =
          ShardMapFromPartition(*shards, deployment->global->catalog());
    }
    for (int s = 0; s < num_shards; ++s) {
      CatalogShard& shard = (*shards)[s];
      StatusOr<VideoDatabase> db = VideoDatabase::CreateWithModel(
          std::move(shard.catalog), std::move(shard.model));
      HMMM_CHECK(db.ok());
      deployment->dbs.push_back(
          std::make_unique<VideoDatabase>(std::move(db).value()));
      QueryServerOptions options;
      options.port = 0;
      auto server = std::make_unique<QueryServer>(
          deployment->dbs.back().get(), options);
      HMMM_CHECK(server->Start().ok());
      deployment->servers[s].push_back(std::move(server));
      if (r == 0) {
        deployment->map.shards[s].endpoint = deployment->Endpoint(s, 0);
      } else {
        deployment->map.shards[s].replica_endpoints.push_back(
            deployment->Endpoint(s, r));
      }
    }
  }
  return deployment;
}

/// Coordinator options for deterministic unit-style tests: no active
/// prober thread (health stays optimistically kUp; breakers alone gate
/// admission).
CoordinatorOptions QuietOptions() {
  CoordinatorOptions options;
  options.health_probe_interval = std::chrono::milliseconds(0);
  return options;
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

/// First sample of `series` in a Prometheus exposition (-1 if absent).
/// `series` must be the full series name including any label set.
double MetricValue(const std::string& text, const std::string& series) {
  const std::string needle = series + " ";
  size_t pos = 0;
  while ((pos = text.find(needle, pos)) != std::string::npos) {
    // Anchor at a line start so `# HELP <name> ...` comments don't match.
    if (pos == 0 || text[pos - 1] == '\n') {
      return std::atof(text.c_str() + pos + needle.size());
    }
    pos += needle.size();
  }
  return -1.0;
}

TEST(ReplicationTest, ReplicatedDeploymentMatchesSingleProcess) {
  std::unique_ptr<ReplicatedDeployment> deployment =
      MakeReplicatedDeployment(2, 2);
  StatusOr<std::unique_ptr<CoordinatorService>> coordinator =
      CoordinatorService::Create(deployment->map, QuietOptions());
  ASSERT_TRUE(coordinator.ok()) << coordinator.status().ToString();

  TemporalQueryRequest request;
  request.text = "free_kick ; goal";
  StatusOr<std::vector<RetrievedPattern>> reference =
      deployment->global->Query(request.text);
  ASSERT_TRUE(reference.ok());
  StatusOr<TemporalQueryResponse> response =
      (*coordinator)->TemporalQuery(request, nullptr);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_FALSE(response->degraded);
  ExpectSameRanking(response->results, *reference);
}

TEST(ReplicationTest, PrimaryDeathFailsOverByteIdentical) {
  std::unique_ptr<ReplicatedDeployment> deployment =
      MakeReplicatedDeployment(2, 2);
  StatusOr<std::unique_ptr<CoordinatorService>> coordinator =
      CoordinatorService::Create(deployment->map, QuietOptions());
  ASSERT_TRUE(coordinator.ok()) << coordinator.status().ToString();

  TemporalQueryRequest request;
  request.text = "free_kick ; goal";
  StatusOr<std::vector<RetrievedPattern>> reference =
      deployment->global->Query(request.text);
  ASSERT_TRUE(reference.ok());

  // Kill shard 0's primary. The replica serves an identical slice, so
  // the fan-out must answer with NO degradation and the exact ranking.
  deployment->servers[0][0]->Shutdown();
  StatusOr<TemporalQueryResponse> response =
      (*coordinator)->TemporalQuery(request, nullptr);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_FALSE(response->degraded);
  EXPECT_EQ(response->videos_skipped, 0u);
  ExpectSameRanking(response->results, *reference);

  StatusOr<MetricsResponse> metrics = (*coordinator)->Metrics();
  ASSERT_TRUE(metrics.ok());
  EXPECT_GE(MetricValue(metrics->prometheus_text,
                        "hmmm_coordinator_failovers_total"),
            1.0);
  EXPECT_EQ(MetricValue(metrics->prometheus_text,
                        "hmmm_coordinator_queries_degraded_total"),
            0.0);
}

TEST(ReplicationTest, EveryReplicaDownDegradesTheRangeOnly) {
  std::unique_ptr<ReplicatedDeployment> deployment =
      MakeReplicatedDeployment(2, 2);
  StatusOr<std::unique_ptr<CoordinatorService>> coordinator =
      CoordinatorService::Create(deployment->map, QuietOptions());
  ASSERT_TRUE(coordinator.ok()) << coordinator.status().ToString();
  const size_t killed_share = (*coordinator)->router().VideosOwnedBy(0);

  deployment->servers[0][0]->Shutdown();
  deployment->servers[0][1]->Shutdown();

  TemporalQueryRequest request;
  request.text = "goal";
  request.budget_ms = 5000;
  StatusOr<TemporalQueryResponse> response =
      (*coordinator)->TemporalQuery(request, nullptr);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_TRUE(response->degraded);
  EXPECT_EQ(response->videos_skipped, killed_share);
  EXPECT_FALSE(response->results.empty());
}

TEST(ReplicationTest, QbeFailsOverByteIdentical) {
  std::unique_ptr<ReplicatedDeployment> deployment =
      MakeReplicatedDeployment(2, 2);
  StatusOr<std::unique_ptr<CoordinatorService>> coordinator =
      CoordinatorService::Create(deployment->map, QuietOptions());
  ASSERT_TRUE(coordinator.ok()) << coordinator.status().ToString();

  QbeRequest request;
  request.features = testing::FeatureVector(
      deployment->global->catalog().num_features(), 0.1, {0, 2}, 0.9);
  StatusOr<std::vector<QbeResult>> reference =
      deployment->global->QueryByExample(request.features);
  ASSERT_TRUE(reference.ok());

  deployment->servers[1][0]->Shutdown();
  StatusOr<QbeResponse> response = (*coordinator)->QueryByExample(request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_EQ(response->results.size(), reference->size());
  for (size_t i = 0; i < reference->size(); ++i) {
    EXPECT_EQ(response->results[i].shot, (*reference)[i].shot);
    EXPECT_EQ(response->results[i].similarity, (*reference)[i].similarity);
  }
}

TEST(ReplicationTest, BreakerStopsPayingForADeadPrimaryThenRecovers) {
  std::unique_ptr<ReplicatedDeployment> deployment =
      MakeReplicatedDeployment(2, 2);
  CoordinatorOptions options = QuietOptions();
  options.breaker.failure_threshold = 1;
  options.breaker.success_threshold = 1;
  options.breaker.open_cooldown = std::chrono::milliseconds(200);
  StatusOr<std::unique_ptr<CoordinatorService>> coordinator =
      CoordinatorService::Create(deployment->map, options);
  ASSERT_TRUE(coordinator.ok()) << coordinator.status().ToString();

  TemporalQueryRequest request;
  request.text = "free_kick ; goal";
  StatusOr<std::vector<RetrievedPattern>> reference =
      deployment->global->Query(request.text);
  ASSERT_TRUE(reference.ok());

  const uint16_t primary_port = deployment->servers[0][0]->port();
  deployment->servers[0][0]->Shutdown();

  // Query 1 pays the failed attempt once and trips the breaker.
  StatusOr<TemporalQueryResponse> response =
      (*coordinator)->TemporalQuery(request, nullptr);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_FALSE(response->degraded);
  ExpectSameRanking(response->results, *reference);

  // Query 2 hits the Open breaker: the dead endpoint is skipped without
  // an attempt, the answer stays byte-identical.
  response = (*coordinator)->TemporalQuery(request, nullptr);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_FALSE(response->degraded);
  ExpectSameRanking(response->results, *reference);

  StatusOr<MetricsResponse> metrics = (*coordinator)->Metrics();
  ASSERT_TRUE(metrics.ok());
  EXPECT_GE(MetricValue(metrics->prometheus_text,
                        "hmmm_coordinator_breaker_rejections_total"),
            1.0);
  EXPECT_EQ(
      MetricValue(metrics->prometheus_text,
                  "hmmm_coordinator_breaker_state{shard=\"0\",replica=\"0\"}"),
      1.0);  // open

  // Resurrect the primary on its old port (SO_REUSEADDR) and let the
  // cooldown elapse: the next query's half-open probe succeeds and the
  // breaker closes.
  QueryServerOptions server_options;
  server_options.port = primary_port;
  QueryServer revived(deployment->dbs[0].get(), server_options);
  ASSERT_TRUE(revived.Start().ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(250));

  response = (*coordinator)->TemporalQuery(request, nullptr);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_FALSE(response->degraded);
  ExpectSameRanking(response->results, *reference);

  metrics = (*coordinator)->Metrics();
  ASSERT_TRUE(metrics.ok());
  EXPECT_EQ(
      MetricValue(metrics->prometheus_text,
                  "hmmm_coordinator_breaker_state{shard=\"0\",replica=\"0\"}"),
      0.0);  // closed again
  revived.Shutdown();
}

TEST(ReplicationTest, ActiveProberMarksDeadReplicaDown) {
  std::unique_ptr<ReplicatedDeployment> deployment =
      MakeReplicatedDeployment(2, 2);
  CoordinatorOptions options;
  options.health_probe_interval = std::chrono::milliseconds(20);
  options.health_probe_timeout = std::chrono::milliseconds(200);
  options.health_failures_to_down = 2;
  StatusOr<std::unique_ptr<CoordinatorService>> coordinator =
      CoordinatorService::Create(deployment->map, options);
  ASSERT_TRUE(coordinator.ok()) << coordinator.status().ToString();
  HealthProber* prober = (*coordinator)->health_prober();
  ASSERT_NE(prober, nullptr);

  const std::string dead = deployment->Endpoint(0, 0);
  deployment->servers[0][0]->Shutdown();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (prober->HealthOf(dead) != EndpointHealth::kDown &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(prober->HealthOf(dead), EndpointHealth::kDown);

  // With the verdict in, routing prefers the replica outright — no
  // failed attempt, no failover, still byte-identical.
  TemporalQueryRequest request;
  request.text = "free_kick ; goal";
  StatusOr<std::vector<RetrievedPattern>> reference =
      deployment->global->Query(request.text);
  ASSERT_TRUE(reference.ok());
  StatusOr<TemporalQueryResponse> response =
      (*coordinator)->TemporalQuery(request, nullptr);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_FALSE(response->degraded);
  ExpectSameRanking(response->results, *reference);
}

// -- Hedged reads ---------------------------------------------------------

/// VideoDatabaseService that stalls every TemporalQuery — a "slow
/// replica" for hedging tests without fault-injection builds.
class SlowTemporalService : public VideoDatabaseService {
 public:
  SlowTemporalService(VideoDatabase* db, std::chrono::milliseconds delay)
      : VideoDatabaseService(db), delay_(delay) {}

  StatusOr<TemporalQueryResponse> TemporalQuery(
      const TemporalQueryRequest& request,
      const CancellationToken* shutdown) override {
    std::this_thread::sleep_for(delay_);
    return VideoDatabaseService::TemporalQuery(request, shutdown);
  }

 private:
  std::chrono::milliseconds delay_;
};

TEST(ReplicationTest, HedgedReadWinsAgainstAStalledPrimary) {
  std::unique_ptr<ReplicatedDeployment> deployment =
      MakeReplicatedDeployment(2, 2);

  // Re-point shard 0's primary at a deliberately slow server over the
  // same slice; the original fast primary becomes the hedge target.
  StatusOr<std::vector<CatalogShard>> shards = PartitionForServing(
      deployment->global->catalog(), deployment->global->model(), 2);
  ASSERT_TRUE(shards.ok());
  StatusOr<VideoDatabase> slow_db = VideoDatabase::CreateWithModel(
      std::move((*shards)[0].catalog), std::move((*shards)[0].model));
  ASSERT_TRUE(slow_db.ok());
  SlowTemporalService slow_service(&*slow_db,
                                   std::chrono::milliseconds(400));
  QueryServerOptions server_options;
  server_options.port = 0;
  QueryServer slow_server(&slow_service, server_options);
  ASSERT_TRUE(slow_server.Start().ok());
  ShardMap map = deployment->map;
  map.shards[0].replica_endpoints = {map.shards[0].endpoint};
  map.shards[0].endpoint =
      "127.0.0.1:" + std::to_string(slow_server.port());

  CoordinatorOptions options = QuietOptions();
  options.hedge_delay_ms = 20;  // fixed: hedge 20ms after the scatter
  StatusOr<std::unique_ptr<CoordinatorService>> coordinator =
      CoordinatorService::Create(map, options);
  ASSERT_TRUE(coordinator.ok()) << coordinator.status().ToString();

  TemporalQueryRequest request;
  request.text = "free_kick ; goal";
  StatusOr<std::vector<RetrievedPattern>> reference =
      deployment->global->Query(request.text);
  ASSERT_TRUE(reference.ok());

  const auto start = std::chrono::steady_clock::now();
  StatusOr<TemporalQueryResponse> response =
      (*coordinator)->TemporalQuery(request, nullptr);
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_FALSE(response->degraded);
  ExpectSameRanking(response->results, *reference);
  // The hedge answered long before the primary's 400ms stall resolved.
  EXPECT_LT(elapsed_ms, 350.0);

  StatusOr<MetricsResponse> metrics = (*coordinator)->Metrics();
  ASSERT_TRUE(metrics.ok());
  EXPECT_GE(MetricValue(metrics->prometheus_text,
                        "hmmm_coordinator_hedges_total"),
            1.0);
  EXPECT_GE(MetricValue(metrics->prometheus_text,
                        "hmmm_coordinator_hedge_wins_total"),
            1.0);
  // Tear down the coordinator before the slow server: its destructor
  // drains the losing hedge attempt still parked in the 400ms stall.
  coordinator->reset();
  slow_server.Shutdown();
}

// -- Hot shard-map reload -------------------------------------------------

TEST(ReplicationTest, ApplyShardMapEnforcesTheEpochFence) {
  std::unique_ptr<ReplicatedDeployment> deployment =
      MakeReplicatedDeployment(2, 2);
  StatusOr<std::unique_ptr<CoordinatorService>> coordinator =
      CoordinatorService::Create(deployment->map, QuietOptions());
  ASSERT_TRUE(coordinator.ok()) << coordinator.status().ToString();
  ASSERT_EQ((*coordinator)->map_epoch(), 0u);

  // Same epoch: rejected (a replayed reload must be a no-op).
  ShardMap stale = deployment->map;
  StatusOr<ReloadShardMapResponse> rejected =
      (*coordinator)->ApplyShardMap(stale);
  EXPECT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ((*coordinator)->map_epoch(), 0u);

  // Strictly newer epoch: applied atomically.
  ShardMap fresh = deployment->map;
  fresh.epoch = 3;
  StatusOr<ReloadShardMapResponse> applied =
      (*coordinator)->ApplyShardMap(fresh);
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  EXPECT_EQ(applied->epoch, 3u);
  EXPECT_EQ(applied->num_shards, 2u);
  EXPECT_EQ((*coordinator)->map_epoch(), 3u);

  // Now 3 is the fence.
  fresh.epoch = 2;
  EXPECT_FALSE((*coordinator)->ApplyShardMap(fresh).ok());

  // A structurally invalid map is rejected regardless of epoch.
  ShardMap broken = deployment->map;
  broken.epoch = 10;
  broken.shards[0].endpoint.clear();
  EXPECT_FALSE((*coordinator)->ApplyShardMap(broken).ok());
  EXPECT_EQ((*coordinator)->map_epoch(), 3u);

  TemporalQueryRequest request;
  request.text = "goal";
  StatusOr<TemporalQueryResponse> response =
      (*coordinator)->TemporalQuery(request, nullptr);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_FALSE(response->degraded);
}

TEST(ReplicationTest, ReloadSwapsReplicaOrderUnderLiveLoad) {
  std::unique_ptr<ReplicatedDeployment> deployment =
      MakeReplicatedDeployment(2, 2);
  StatusOr<std::unique_ptr<CoordinatorService>> coordinator =
      CoordinatorService::Create(deployment->map, QuietOptions());
  ASSERT_TRUE(coordinator.ok()) << coordinator.status().ToString();

  TemporalQueryRequest request;
  request.text = "free_kick ; goal";
  StatusOr<std::vector<RetrievedPattern>> reference =
      deployment->global->Query(request.text);
  ASSERT_TRUE(reference.ok());

  // Hammer queries while maps hot-swap underneath; every response must
  // stay non-degraded and byte-identical (replicas serve the same
  // slice, so even mid-swap routing cannot change the ranking).
  std::atomic<bool> stop{false};
  std::atomic<int> queries{0};
  std::atomic<int> violations{0};
  std::thread hammer([&] {
    while (!stop.load()) {
      StatusOr<TemporalQueryResponse> response =
          (*coordinator)->TemporalQuery(request, nullptr);
      if (!response.ok() || response->degraded ||
          response->results.size() != reference->size()) {
        ++violations;
      } else {
        for (size_t i = 0; i < reference->size(); ++i) {
          if (response->results[i].video != (*reference)[i].video ||
              response->results[i].score != (*reference)[i].score) {
            ++violations;
            break;
          }
        }
      }
      ++queries;
    }
  });

  for (uint64_t epoch = 1; epoch <= 6; ++epoch) {
    ShardMap swapped = deployment->map;
    swapped.epoch = epoch;
    if (epoch % 2 == 1) {
      // Swap primary and replica of both shards.
      for (auto& entry : swapped.shards) {
        std::swap(entry.endpoint, entry.replica_endpoints[0]);
      }
    }
    StatusOr<ReloadShardMapResponse> applied =
        (*coordinator)->ApplyShardMap(swapped);
    ASSERT_TRUE(applied.ok()) << applied.status().ToString();
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
  }
  stop.store(true);
  hammer.join();

  EXPECT_EQ(violations.load(), 0);
  EXPECT_GT(queries.load(), 0);
  EXPECT_EQ((*coordinator)->map_epoch(), 6u);

  StatusOr<MetricsResponse> metrics = (*coordinator)->Metrics();
  ASSERT_TRUE(metrics.ok());
  EXPECT_EQ(MetricValue(metrics->prometheus_text,
                        "hmmm_coordinator_map_reloads_total"),
            6.0);
  EXPECT_EQ(MetricValue(metrics->prometheus_text,
                        "hmmm_coordinator_map_epoch"),
            6.0);
}

TEST(ReplicationTest, WireReloadRoundTripAndLeafRejection) {
  std::unique_ptr<ReplicatedDeployment> deployment =
      MakeReplicatedDeployment(2, 1);
  StatusOr<std::unique_ptr<CoordinatorServer>> server =
      CoordinatorServer::Create(deployment->map, QuietOptions());
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  ASSERT_TRUE((*server)->Start().ok());

  QueryClientOptions client_options;
  client_options.port = (*server)->port();
  QueryClient client(client_options);

  // Stale epoch over the wire: a typed kFailedPrecondition, not a
  // transport error (and NOT retried — the reload is non-idempotent).
  ReloadShardMapRequest reload;
  reload.map_blob = SerializeShardMap(deployment->map);
  StatusOr<ReloadShardMapResponse> rejected = client.ReloadShardMap(reload);
  EXPECT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kFailedPrecondition);

  ShardMap fresh = deployment->map;
  fresh.epoch = 7;
  reload.map_blob = SerializeShardMap(fresh);
  StatusOr<ReloadShardMapResponse> applied = client.ReloadShardMap(reload);
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  EXPECT_EQ(applied->epoch, 7u);
  EXPECT_EQ(applied->num_shards, 2u);
  EXPECT_EQ((*server)->service().map_epoch(), 7u);

  // A corrupt blob is rejected without touching the live map.
  reload.map_blob[reload.map_blob.size() / 2] ^= 0x20;
  EXPECT_FALSE(client.ReloadShardMap(reload).ok());
  EXPECT_EQ((*server)->service().map_epoch(), 7u);

  // Leaf shard servers answer the v3 request with kUnimplemented.
  QueryClientOptions leaf_options;
  leaf_options.port = deployment->servers[0][0]->port();
  QueryClient leaf(leaf_options);
  ReloadShardMapRequest leaf_reload;
  leaf_reload.map_blob = SerializeShardMap(fresh);
  StatusOr<ReloadShardMapResponse> unimplemented =
      leaf.ReloadShardMap(leaf_reload);
  EXPECT_FALSE(unimplemented.ok());
  EXPECT_EQ(unimplemented.status().code(), StatusCode::kUnimplemented);

  (*server)->Shutdown();
}

TEST(ReplicationTest, TrainBroadcastsToEveryReplica) {
  std::unique_ptr<ReplicatedDeployment> deployment =
      MakeReplicatedDeployment(2, 2);
  StatusOr<std::unique_ptr<CoordinatorService>> coordinator =
      CoordinatorService::Create(deployment->map, QuietOptions());
  ASSERT_TRUE(coordinator.ok()) << coordinator.status().ToString();

  StatusOr<TrainResponse> trained = (*coordinator)->Train();
  ASSERT_TRUE(trained.ok()) << trained.status().ToString();
  EXPECT_EQ(trained->shards_failed, 0u);
  // Both replicas of both ranges were driven through training.
  EXPECT_EQ(trained->shards_attempted, 4u);

  // With one replica dead, training still succeeds on the survivors but
  // the partial failure is reported, not swallowed.
  deployment->servers[1][1]->Shutdown();
  trained = (*coordinator)->Train();
  ASSERT_TRUE(trained.ok()) << trained.status().ToString();
  EXPECT_EQ(trained->shards_attempted, 4u);
  EXPECT_EQ(trained->shards_failed, 1u);

  StatusOr<MetricsResponse> metrics = (*coordinator)->Metrics();
  ASSERT_TRUE(metrics.ok());
  EXPECT_GE(MetricValue(metrics->prometheus_text,
                        "hmmm_coordinator_train_shard_failures_total"),
            1.0);
}

TEST(ReplicationTest, MarkPositiveKeepsReplicasInLockstep) {
  std::unique_ptr<ReplicatedDeployment> deployment =
      MakeReplicatedDeployment(2, 2);
  StatusOr<std::unique_ptr<CoordinatorService>> coordinator =
      CoordinatorService::Create(deployment->map, QuietOptions());
  ASSERT_TRUE(coordinator.ok()) << coordinator.status().ToString();

  TemporalQueryRequest query;
  query.text = "free_kick ; goal";
  StatusOr<TemporalQueryResponse> response =
      (*coordinator)->TemporalQuery(query, nullptr);
  ASSERT_TRUE(response.ok());
  ASSERT_FALSE(response->results.empty());

  MarkPositiveRequest feedback;
  feedback.pattern = response->results.front();
  StatusOr<MarkPositiveResponse> marked =
      (*coordinator)->MarkPositive(feedback);
  ASSERT_TRUE(marked.ok()) << marked.status().ToString();

  // The same access-log mutation must have landed on BOTH replicas of
  // the owning range — otherwise a later failover would change Train's
  // outcome. Train on each replica directly and compare health.
  const int shard = (*coordinator)->router().ShardOfVideo(
      feedback.pattern.video);
  ASSERT_GE(shard, 0);
  for (int r = 0; r < 2; ++r) {
    QueryClientOptions leaf_options;
    leaf_options.port = deployment->servers[shard][r]->port();
    QueryClient leaf(leaf_options);
    StatusOr<HealthResponse> health = leaf.Health();
    ASSERT_TRUE(health.ok()) << "replica " << r;
  }

  // With a dead replica the broadcast surfaces the transport failure —
  // the operator must learn the replicas may have diverged.
  deployment->servers[shard][1]->Shutdown();
  StatusOr<MarkPositiveResponse> partial =
      (*coordinator)->MarkPositive(feedback);
  EXPECT_FALSE(partial.ok());
}

}  // namespace
}  // namespace hmmm
