#include "retrieval/query_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "core/model_builder.h"
#include "feedback/trainer.h"
#include "retrieval/engine.h"
#include "test_util.h"

namespace hmmm {
namespace {

RetrievedPattern MakeResult(double score, ShotId shot) {
  RetrievedPattern result;
  result.shots = {shot};
  result.edge_weights = {score};
  result.score = score;
  result.video = 0;
  return result;
}

TEST(PatternSignatureTest, EncodesStepsGapsAndAlternatives) {
  const auto linear = TemporalPattern::FromEvents({2, 0});
  const auto reversed = TemporalPattern::FromEvents({0, 2});
  EXPECT_NE(PatternSignature(linear), PatternSignature(reversed));
  EXPECT_EQ(PatternSignature(linear),
            PatternSignature(TemporalPattern::FromEvents({2, 0})));

  // A gap bound changes the signature.
  TemporalPattern gapped = TemporalPattern::FromEvents({2, 0});
  gapped.steps[1].max_gap = 2;
  EXPECT_NE(PatternSignature(gapped), PatternSignature(linear));

  // Conjunction vs alternatives vs separate steps are all distinct.
  TemporalPattern conjunction;
  conjunction.steps.push_back(PatternStep{{{0, 1}}, -1});
  TemporalPattern alternatives;
  alternatives.steps.push_back(PatternStep{{{0}, {1}}, -1});
  TemporalPattern sequence = TemporalPattern::FromEvents({0, 1});
  EXPECT_NE(PatternSignature(conjunction), PatternSignature(alternatives));
  EXPECT_NE(PatternSignature(conjunction), PatternSignature(sequence));
  EXPECT_NE(PatternSignature(alternatives), PatternSignature(sequence));
}

TEST(QueryCacheTest, HitReturnsInsertedRanking) {
  QueryCache cache(4);
  cache.Insert("a", 0, {MakeResult(0.5, 3)});
  std::vector<RetrievedPattern> results;
  ASSERT_TRUE(cache.Lookup("a", 0, &results));
  ASSERT_EQ(results.size(), 1u);
  EXPECT_DOUBLE_EQ(results[0].score, 0.5);
  EXPECT_EQ(results[0].shots, (std::vector<ShotId>{3}));
  EXPECT_FALSE(cache.Lookup("b", 0, &results));
  const QueryCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.capacity, 4u);
}

TEST(QueryCacheTest, EvictsLeastRecentlyUsed) {
  QueryCache cache(2);
  cache.Insert("a", 0, {MakeResult(0.1, 1)});
  cache.Insert("b", 0, {MakeResult(0.2, 2)});
  std::vector<RetrievedPattern> results;
  // Touch "a" so "b" becomes the eviction victim.
  ASSERT_TRUE(cache.Lookup("a", 0, &results));
  cache.Insert("c", 0, {MakeResult(0.3, 3)});
  EXPECT_TRUE(cache.Lookup("a", 0, &results));
  EXPECT_FALSE(cache.Lookup("b", 0, &results));
  EXPECT_TRUE(cache.Lookup("c", 0, &results));
}

TEST(QueryCacheTest, ReinsertRefreshesEntry) {
  QueryCache cache(2);
  cache.Insert("a", 0, {MakeResult(0.1, 1)});
  cache.Insert("a", 0, {MakeResult(0.9, 9)});
  std::vector<RetrievedPattern> results;
  ASSERT_TRUE(cache.Lookup("a", 0, &results));
  EXPECT_DOUBLE_EQ(results[0].score, 0.9);
  EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(QueryCacheTest, VersionChangeFlushesEverything) {
  QueryCache cache(4);
  cache.Insert("a", 0, {MakeResult(0.1, 1)});
  cache.Insert("b", 0, {MakeResult(0.2, 2)});
  std::vector<RetrievedPattern> results;
  EXPECT_FALSE(cache.Lookup("a", 1, &results));  // stale: flushed
  EXPECT_EQ(cache.stats().entries, 0u);
  // Entries inserted under the new version are served normally.
  cache.Insert("a", 1, {MakeResult(0.3, 3)});
  EXPECT_TRUE(cache.Lookup("a", 1, &results));
  EXPECT_DOUBLE_EQ(results[0].score, 0.3);
}

TEST(QueryCacheTest, ClearDropsEntriesButKeepsCounters) {
  QueryCache cache(4);
  cache.Insert("a", 0, {MakeResult(0.1, 1)});
  std::vector<RetrievedPattern> results;
  ASSERT_TRUE(cache.Lookup("a", 0, &results));
  cache.Clear();
  EXPECT_FALSE(cache.Lookup("a", 0, &results));
  const QueryCacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
}

TEST(QueryCacheTest, HitReplaysStoredRetrievalStats) {
  QueryCache cache(4);
  RetrievalStats recorded;
  recorded.videos_considered = 3;
  recorded.states_visited = 40;
  recorded.sim_evaluations = 25;
  recorded.candidates_scored = 7;
  recorded.beam_pruned = 5;
  recorded.annotated_fallbacks = 1;
  cache.Insert("a", 0, {MakeResult(0.5, 3)}, recorded);

  // Stats accumulate on top of whatever the caller already tallied.
  RetrievalStats replayed;
  replayed.sim_evaluations = 10;
  std::vector<RetrievedPattern> results;
  ASSERT_TRUE(cache.Lookup("a", 0, &results, &replayed));
  EXPECT_EQ(replayed.videos_considered, 3u);
  EXPECT_EQ(replayed.states_visited, 40u);
  EXPECT_EQ(replayed.sim_evaluations, 35u);
  EXPECT_EQ(replayed.candidates_scored, 7u);
  EXPECT_EQ(replayed.beam_pruned, 5u);
  EXPECT_EQ(replayed.annotated_fallbacks, 1u);

  // A null stats pointer stays supported.
  ASSERT_TRUE(cache.Lookup("a", 0, &results));
}

TEST(QueryCacheTest, CountsEvictionsAndInvalidations) {
  QueryCache cache(2);
  cache.Insert("a", 0, {MakeResult(0.1, 1)});
  cache.Insert("b", 0, {MakeResult(0.2, 2)});
  cache.Insert("c", 0, {MakeResult(0.3, 3)});  // evicts "a"
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().invalidations, 0u);

  std::vector<RetrievedPattern> results;
  EXPECT_FALSE(cache.Lookup("b", 1, &results));  // version bump: flush
  EXPECT_EQ(cache.stats().invalidations, 1u);
  cache.Clear();
  EXPECT_EQ(cache.stats().invalidations, 2u);
}

TEST(QueryCacheTest, AttachedMetricsMirrorTheCounters) {
  MetricsRegistry registry;
  QueryCache cache(2);
  cache.AttachMetrics(&registry, "cache_");
  std::vector<RetrievedPattern> results;
  EXPECT_FALSE(cache.Lookup("a", 0, &results));
  cache.Insert("a", 0, {MakeResult(0.1, 1)});
  ASSERT_TRUE(cache.Lookup("a", 0, &results));
  cache.Insert("b", 0, {MakeResult(0.2, 2)});
  cache.Insert("c", 0, {MakeResult(0.3, 3)});  // evicts
  cache.Clear();                               // invalidates

  EXPECT_EQ(registry.GetCounter("cache_hits_total", "")->value(), 1u);
  EXPECT_EQ(registry.GetCounter("cache_misses_total", "")->value(), 1u);
  EXPECT_EQ(registry.GetCounter("cache_evictions_total", "")->value(), 1u);
  EXPECT_EQ(registry.GetCounter("cache_invalidations_total", "")->value(), 1u);
  EXPECT_DOUBLE_EQ(registry.GetGauge("cache_entries", "")->value(), 0.0);
}

// -- Engine integration ---------------------------------------------------

TEST(SingleFlightTest, LeaderComputesAndWaitersAreCoalesced) {
  QueryCache cache(4);
  std::vector<RetrievedPattern> results;
  // Nobody in flight: this caller becomes the leader.
  ASSERT_EQ(cache.LookupOrCompute("k", 0, &results),
            QueryCache::LookupOutcome::kCompute);

  // A stampede of identical queries parks behind the leader.
  constexpr int kWaiters = 6;
  std::atomic<int> hits{0};
  std::vector<std::thread> waiters;
  for (int i = 0; i < kWaiters; ++i) {
    waiters.emplace_back([&cache, &hits] {
      std::vector<RetrievedPattern> waiter_results;
      RetrievalStats waiter_stats;
      if (cache.LookupOrCompute("k", 0, &waiter_results, &waiter_stats) ==
          QueryCache::LookupOutcome::kHit) {
        hits.fetch_add(1);
        EXPECT_EQ(waiter_results.size(), 1u);
        EXPECT_EQ(waiter_stats.videos_considered, 9u);
      }
    });
  }
  // Release the leader only after every waiter is provably parked, so
  // the coalesced count is deterministic.
  while (cache.stats().coalesced < kWaiters) {
    std::this_thread::yield();
  }
  RetrievalStats computed;
  computed.videos_considered = 9;
  cache.Insert("k", 0, {MakeResult(0.7, 5)}, computed);
  cache.FinishCompute("k");
  for (auto& t : waiters) t.join();

  EXPECT_EQ(hits.load(), kWaiters);
  const QueryCacheStats stats = cache.stats();
  EXPECT_EQ(stats.coalesced, static_cast<size_t>(kWaiters));
  // One compute for the whole stampede.
  EXPECT_EQ(stats.misses, 1u);
}

TEST(SingleFlightTest, FailedLeaderPromotesAWaiter) {
  QueryCache cache(4);
  std::vector<RetrievedPattern> results;
  ASSERT_EQ(cache.LookupOrCompute("k", 0, &results),
            QueryCache::LookupOutcome::kCompute);

  std::atomic<int> computes{0};
  std::thread waiter([&cache, &computes] {
    std::vector<RetrievedPattern> waiter_results;
    if (cache.LookupOrCompute("k", 0, &waiter_results) ==
        QueryCache::LookupOutcome::kCompute) {
      computes.fetch_add(1);
      cache.Insert("k", 0, {MakeResult(0.4, 2)});
      cache.FinishCompute("k");
    }
  });
  while (cache.stats().coalesced < 1) {
    std::this_thread::yield();
  }
  // The leader fails (or computed something uncacheable, e.g. a degraded
  // anytime result): it finishes WITHOUT inserting. The waiter must be
  // promoted to leader rather than stranded or served nothing.
  cache.FinishCompute("k");
  waiter.join();
  EXPECT_EQ(computes.load(), 1);
  // The promoted leader's entry is served to later callers.
  ASSERT_TRUE(cache.Lookup("k", 0, &results));
  EXPECT_DOUBLE_EQ(results[0].score, 0.4);
}

TEST(SingleFlightTest, FinishComputeIsIdempotentForUnknownKeys) {
  QueryCache cache(4);
  cache.FinishCompute("never-started");  // must not crash or wedge
  std::vector<RetrievedPattern> results;
  EXPECT_EQ(cache.LookupOrCompute("never-started", 0, &results),
            QueryCache::LookupOutcome::kCompute);
  cache.FinishCompute("never-started");
}

TEST(SingleFlightTest, DistinctKeysComputeIndependently) {
  QueryCache cache(4);
  std::vector<RetrievedPattern> results;
  ASSERT_EQ(cache.LookupOrCompute("a", 0, &results),
            QueryCache::LookupOutcome::kCompute);
  // A different key is not blocked by "a"'s in-flight compute.
  ASSERT_EQ(cache.LookupOrCompute("b", 0, &results),
            QueryCache::LookupOutcome::kCompute);
  cache.FinishCompute("a");
  cache.FinishCompute("b");
  EXPECT_EQ(cache.stats().coalesced, 0u);
}

TEST(SingleFlightTest, EngineStampedeCostsOneTraversal) {
  const VideoCatalog catalog =
      testing::GeneratedSoccerCatalog(/*seed=*/5, /*num_videos=*/10);
  auto engine = RetrievalEngine::Create(catalog);
  ASSERT_TRUE(engine.ok());
  const auto pattern = TemporalPattern::FromEvents({2, 0});

  constexpr int kCallers = 8;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kCallers; ++i) {
    threads.emplace_back([&] {
      auto results = engine->Retrieve(pattern);
      if (!results.ok() || results->empty()) failures.fetch_add(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);

  const QueryCacheStats stats = engine->cache_stats();
  // Exactly one caller computed; everyone else was a cache hit (either
  // coalesced behind the leader or served after it finished).
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, static_cast<size_t>(kCallers - 1));
  EXPECT_EQ(stats.entries, 1u);
}

TEST(EngineCacheTest, SecondIdenticalQueryIsServedFromCache) {
  const VideoCatalog catalog = testing::SmallSoccerCatalog();
  auto engine = RetrievalEngine::Create(catalog);
  ASSERT_TRUE(engine.ok());
  auto first = engine->Query("free_kick ; goal");
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(engine->cache_stats().hits, 0u);
  auto second = engine->Query("free_kick ; goal");
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(engine->cache_stats().hits, 1u);
  ASSERT_EQ(first->size(), second->size());
  for (size_t i = 0; i < first->size(); ++i) {
    EXPECT_EQ((*first)[i].shots, (*second)[i].shots);
    EXPECT_EQ((*first)[i].score, (*second)[i].score);
  }
}

TEST(EngineCacheTest, StatsRequestsAreServedFromCacheWithReplayedStats) {
  const VideoCatalog catalog = testing::SmallSoccerCatalog();
  auto engine = RetrievalEngine::Create(catalog);
  ASSERT_TRUE(engine.ok());
  RetrievalStats computed;
  ASSERT_TRUE(engine->Query("goal", &computed).ok());
  EXPECT_GT(computed.sim_evaluations, 0u);  // the traversal actually ran
  EXPECT_EQ(engine->cache_stats().hits, 0u);

  // The second identical query hits the cache AND still reports the full
  // cost accounting of the traversal that produced the entry.
  RetrievalStats replayed;
  ASSERT_TRUE(engine->Query("goal", &replayed).ok());
  EXPECT_EQ(engine->cache_stats().hits, 1u);
  EXPECT_EQ(replayed.videos_considered, computed.videos_considered);
  EXPECT_EQ(replayed.states_visited, computed.states_visited);
  EXPECT_EQ(replayed.sim_evaluations, computed.sim_evaluations);
  EXPECT_EQ(replayed.candidates_scored, computed.candidates_scored);
  EXPECT_EQ(replayed.beam_pruned, computed.beam_pruned);
  EXPECT_EQ(replayed.annotated_fallbacks, computed.annotated_fallbacks);
}

TEST(EngineCacheTest, QueryMetricsCountHitsAndLatency) {
  const VideoCatalog catalog = testing::SmallSoccerCatalog();
  auto engine = RetrievalEngine::Create(catalog);
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE(engine->Query("goal").ok());
  ASSERT_TRUE(engine->Query("goal").ok());

  MetricsRegistry& registry = engine->metrics_registry();
  EXPECT_EQ(registry.GetCounter("hmmm_queries_total", "")->value(), 2u);
  EXPECT_EQ(registry.GetCounter("hmmm_query_cache_hits_total", "")->value(),
            1u);
  EXPECT_EQ(registry.GetCounter("hmmm_query_cache_misses_total", "")->value(),
            1u);
  EXPECT_EQ(
      registry
          .GetHistogram("hmmm_query_latency_ms", DefaultLatencyBucketsMs(), "")
          ->count(),
      2u);

  // Both dump formats include the query counter and the latency series.
  const std::string prometheus = engine->DumpMetricsPrometheus();
  EXPECT_NE(prometheus.find("hmmm_queries_total 2"), std::string::npos);
  EXPECT_NE(prometheus.find("hmmm_query_latency_ms_count 2"),
            std::string::npos);
  EXPECT_NE(prometheus.find("hmmm_model_version"), std::string::npos);
  // Queries run on their calling thread: the engine owns no pool.
  EXPECT_EQ(prometheus.find("hmmm_pool_"), std::string::npos);
  const std::string json = engine->DumpMetricsJson();
  EXPECT_NE(json.find("\"hmmm_queries_total\":2"), std::string::npos);
  EXPECT_NE(json.find("\"hmmm_query_latency_ms\""), std::string::npos);
}

TEST(EngineCacheTest, FeedbackTrainingInvalidatesCachedResults) {
  const VideoCatalog catalog = testing::SmallSoccerCatalog();
  auto engine = RetrievalEngine::Create(catalog);
  ASSERT_TRUE(engine.ok());
  auto before = engine->Query("free_kick ; goal");
  ASSERT_TRUE(before.ok());
  ASSERT_FALSE(before->empty());
  ASSERT_TRUE(engine->Query("free_kick ; goal").ok());
  EXPECT_EQ(engine->cache_stats().hits, 1u);

  // One feedback round rewrites A1/Pi1/A2/Pi2 and bumps the version.
  const uint64_t version_before = engine->model().version();
  FeedbackTrainer trainer(catalog);
  ASSERT_TRUE(trainer.MarkPositive(engine->model(), before->front()).ok());
  auto trained = trainer.MaybeTrain(engine->mutable_model(), /*force=*/true);
  ASSERT_TRUE(trained.ok());
  ASSERT_TRUE(trained.value());
  EXPECT_GT(engine->model().version(), version_before);

  // The next identical query misses (flush) and recomputes under the
  // trained model; a repeat then hits again.
  const size_t misses_before = engine->cache_stats().misses;
  auto after = engine->Query("free_kick ; goal");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(engine->cache_stats().hits, 1u);
  EXPECT_GT(engine->cache_stats().misses, misses_before);
  ASSERT_TRUE(engine->Query("free_kick ; goal").ok());
  EXPECT_EQ(engine->cache_stats().hits, 2u);

  // The recomputed ranking matches a from-scratch traversal of the
  // trained model.
  const EventBitmapIndex index(engine->model(), catalog);
  HmmmTraversal traversal(engine->model(), index);
  const auto pattern =
      *CompileQuery("free_kick ; goal", catalog.vocabulary());
  auto fresh = traversal.Retrieve(pattern);
  ASSERT_TRUE(fresh.ok());
  ASSERT_EQ(after->size(), fresh->size());
  for (size_t i = 0; i < after->size(); ++i) {
    EXPECT_EQ((*after)[i].shots, (*fresh)[i].shots);
    EXPECT_EQ((*after)[i].score, (*fresh)[i].score);
  }
}

TEST(EngineCacheTest, SetTraversalOptionsClearsCache) {
  const VideoCatalog catalog = testing::SmallSoccerCatalog();
  auto engine = RetrievalEngine::Create(catalog);
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE(engine->Query("goal").ok());
  EXPECT_EQ(engine->cache_stats().entries, 1u);
  TraversalOptions options = engine->traversal_options();
  options.max_results = 1;
  engine->set_traversal_options(options);
  EXPECT_EQ(engine->cache_stats().entries, 0u);
  auto results = engine->Query("goal");
  ASSERT_TRUE(results.ok());
  EXPECT_EQ(results->size(), 1u);
}

TEST(EngineCacheTest, ZeroEntriesDisablesCaching) {
  const VideoCatalog catalog = testing::SmallSoccerCatalog();
  auto engine = RetrievalEngine::Create(catalog, {}, {},
                                        /*query_cache_entries=*/0);
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE(engine->Query("goal").ok());
  ASSERT_TRUE(engine->Query("goal").ok());
  const QueryCacheStats stats = engine->cache_stats();
  EXPECT_EQ(stats.capacity, 0u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
}

}  // namespace
}  // namespace hmmm
