#include "api/video_database.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "media/news_generator.h"
#include "retrieval/metrics.h"
#include "retrieval/three_level.h"
#include "storage/model_io.h"
#include "test_util.h"

namespace hmmm {
namespace {

TEST(VideoDatabaseTest, CreateAndQuery) {
  auto db = VideoDatabase::Create(testing::SmallSoccerCatalog());
  ASSERT_TRUE(db.ok()) << db.status();
  auto results = db->Query("free_kick ; goal");
  ASSERT_TRUE(results.ok());
  ASSERT_FALSE(results->empty());
  const auto pattern =
      *CompileQuery("free_kick ; goal", db->catalog().vocabulary());
  EXPECT_TRUE(PatternMatchesAnnotations(db->catalog(),
                                        results->front().shots, pattern));
}

TEST(VideoDatabaseTest, CreateRejectsInvalidCatalog) {
  // A catalog is always valid through its own API; validate the check via
  // a mismatched Open instead (below). Create on an empty catalog works.
  auto db = VideoDatabase::Create(VideoCatalog(SoccerEvents(), 4));
  ASSERT_TRUE(db.ok());
  auto results = db->Query("goal");
  ASSERT_TRUE(results.ok());
  EXPECT_TRUE(results->empty());
}

TEST(VideoDatabaseTest, SaveOpenRoundTrip) {
  auto db = VideoDatabase::Create(testing::GeneratedSoccerCatalog(5, 6));
  ASSERT_TRUE(db.ok());
  auto expected = db->Query("goal");
  ASSERT_TRUE(expected.ok());

  const std::string catalog_path = testing::TempPath("vdb_test.cat");
  const std::string model_path = testing::TempPath("vdb_test.hmmm");
  ASSERT_TRUE(db->Save(catalog_path, model_path).ok());

  auto reopened = VideoDatabase::Open(catalog_path, model_path);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  auto results = reopened->Query("goal");
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results->size(), expected->size());
  for (size_t i = 0; i < results->size(); ++i) {
    EXPECT_EQ((*results)[i].shots, (*expected)[i].shots);
  }
  std::remove(catalog_path.c_str());
  std::remove(model_path.c_str());
}

TEST(VideoDatabaseTest, OpenRejectsMismatchedPair) {
  auto db_a = VideoDatabase::Create(testing::GeneratedSoccerCatalog(5, 6));
  auto db_b = VideoDatabase::Create(testing::GeneratedSoccerCatalog(6, 9));
  ASSERT_TRUE(db_a.ok());
  ASSERT_TRUE(db_b.ok());
  const std::string catalog_path = testing::TempPath("vdb_mismatch.cat");
  const std::string model_path = testing::TempPath("vdb_mismatch.hmmm");
  ASSERT_TRUE(SaveCatalog(db_a->catalog(), catalog_path).ok());
  ASSERT_TRUE(db_b->model().SaveToFile(model_path).ok());
  auto opened = VideoDatabase::Open(catalog_path, model_path);
  EXPECT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kFailedPrecondition);
  std::remove(catalog_path.c_str());
  std::remove(model_path.c_str());
}

TEST(VideoDatabaseTest, FeedbackThresholdAutoTrains) {
  VideoDatabaseOptions options;
  options.feedback.retrain_threshold = 2;
  auto db = VideoDatabase::Create(testing::SmallSoccerCatalog(), options);
  ASSERT_TRUE(db.ok());
  auto results = db->Query("free_kick ; goal");
  ASSERT_TRUE(results.ok());
  ASSERT_FALSE(results->empty());

  EXPECT_EQ(db->training_rounds(), 0u);
  ASSERT_TRUE(db->MarkPositive(results->front()).ok());
  EXPECT_EQ(db->training_rounds(), 0u);  // below threshold
  ASSERT_TRUE(db->MarkPositive(results->front()).ok());
  EXPECT_EQ(db->training_rounds(), 1u);  // threshold reached
  EXPECT_TRUE(db->model().Validate().ok());
}

TEST(VideoDatabaseTest, ForceTrain) {
  auto db = VideoDatabase::Create(testing::SmallSoccerCatalog());
  ASSERT_TRUE(db.ok());
  auto results = db->Query("goal");
  ASSERT_TRUE(results.ok());
  ASSERT_FALSE(results->empty());
  ASSERT_TRUE(db->MarkPositive(results->front()).ok());
  auto trained = db->Train();
  ASSERT_TRUE(trained.ok());
  EXPECT_TRUE(*trained);
}

TEST(VideoDatabaseTest, QueryByExampleAndMoreLike) {
  auto db = VideoDatabase::Create(testing::SmallSoccerCatalog());
  ASSERT_TRUE(db.ok());
  std::vector<double> example(8, 0.1);
  example[0] = 0.9;  // goal-like
  auto qbe = db->QueryByExample(example);
  ASSERT_TRUE(qbe.ok());
  ASSERT_FALSE(qbe->empty());
  EXPECT_TRUE(db->catalog().shot(qbe->front().shot).HasEvent(0));

  auto similar = db->MoreLikeShot(4);
  ASSERT_TRUE(similar.ok());
  EXPECT_FALSE(similar->empty());
}

TEST(VideoDatabaseTest, CategoryLevelOptional) {
  auto plain = VideoDatabase::Create(testing::SmallSoccerCatalog());
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(plain->categories(), nullptr);

  VideoDatabaseOptions options;
  options.enable_category_level = true;
  options.categories.num_clusters = 2;
  auto layered = VideoDatabase::Create(testing::GeneratedSoccerCatalog(3, 8),
                                       options);
  ASSERT_TRUE(layered.ok());
  ASSERT_NE(layered->categories(), nullptr);
  EXPECT_EQ(layered->categories()->num_clusters(), 2u);
  auto results = layered->Query("goal");
  ASSERT_TRUE(results.ok());
  EXPECT_FALSE(results->empty());

  // The database answers through the category level's pruned scan. One
  // cluster of this archive lacks corner_kick, so the pruned ranking is
  // not the 2-level one.
  auto pruned_results = layered->Query("corner_kick");
  ASSERT_TRUE(pruned_results.ok());
  const EventBitmapIndex index(layered->model(), layered->catalog());
  const ThreeLevelTraversal pruned(layered->model(), *layered->categories(),
                                   index);
  auto expected = pruned.Retrieve(
      *CompileQuery("corner_kick", layered->catalog().vocabulary()));
  ASSERT_TRUE(expected.ok());
  ASSERT_EQ(pruned_results->size(), expected->size());
  for (size_t i = 0; i < expected->size(); ++i) {
    EXPECT_EQ((*pruned_results)[i].shots, (*expected)[i].shots);
    EXPECT_EQ((*pruned_results)[i].score, (*expected)[i].score);
  }
}

TEST(VideoDatabaseTest, RebuildCategories) {
  VideoDatabaseOptions options;
  options.enable_category_level = true;
  auto db = VideoDatabase::Create(testing::GeneratedSoccerCatalog(3, 8),
                                  options);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE(db->RebuildCategories().ok());
  EXPECT_NE(db->categories(), nullptr);
}

TEST(VideoDatabaseTest, ReplaceCatalogPreservesLearning) {
  auto db = VideoDatabase::Create(testing::SmallSoccerCatalog());
  ASSERT_TRUE(db.ok());
  auto results = db->Query("free_kick ; corner_kick");
  ASSERT_TRUE(results.ok());
  ASSERT_FALSE(results->empty());
  ASSERT_TRUE(db->MarkPositive(results->front()).ok());
  ASSERT_TRUE(db->Train().ok());
  const Matrix learned_a1 = db->model().local(0).a1;

  // Grow the archive by one video and swap it in.
  VideoCatalog grown = testing::SmallSoccerCatalog();
  const VideoId v2 = grown.AddVideo("video_c");
  ASSERT_TRUE(grown.AddShot(v2, 0.0, 3.0, {4},
                            testing::FeatureVector(8, 0.1, {4}, 0.9)).ok());
  ASSERT_TRUE(db->ReplaceCatalog(std::move(grown)).ok());

  EXPECT_EQ(db->catalog().num_videos(), 3u);
  EXPECT_EQ(db->model().num_videos(), 3u);
  EXPECT_LT(db->model().local(0).a1.MaxAbsDiff(learned_a1), 1e-12);
  // Queries (including against the new video's event) still work.
  auto goal_kick = db->Query("goal_kick");
  ASSERT_TRUE(goal_kick.ok());
  EXPECT_FALSE(goal_kick->empty());
}

TEST(VideoDatabaseTest, ReplaceCatalogInvalidatesCachedRankings) {
  // Regression test: a rebuilt model's version counter restarts at zero,
  // so the query cache's (signature, version) guard alone cannot tell a
  // swapped-in catalog from the one a cached ranking was computed under.
  // Without the explicit ClearQueryCache inside ReplaceCatalog, the query
  // below would replay the 2-video ranking against the 3-video archive.
  auto db = VideoDatabase::Create(testing::SmallSoccerCatalog());
  ASSERT_TRUE(db.ok());
  auto before = db->Query("goal");
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(db->cache_stats().entries, 1u);

  VideoCatalog grown = testing::SmallSoccerCatalog();
  const VideoId v2 = grown.AddVideo("video_c");
  ASSERT_TRUE(grown.AddShot(v2, 0.0, 3.0, {0},
                            testing::FeatureVector(8, 0.1, {0}, 0.9)).ok());
  ASSERT_TRUE(db->ReplaceCatalog(std::move(grown)).ok());
  EXPECT_EQ(db->cache_stats().entries, 0u);

  auto after = db->Query("goal");
  ASSERT_TRUE(after.ok());
  // The new video's goal shot must show up — a stale cached ranking
  // cannot contain it.
  bool found_new_video = false;
  for (const RetrievedPattern& pattern : *after) {
    if (pattern.video == v2) found_new_video = true;
  }
  EXPECT_TRUE(found_new_video);
  EXPECT_GT(after->size(), before->size());
}

TEST(VideoDatabaseTest, TrainingClearsCachedRankings) {
  auto db = VideoDatabase::Create(testing::SmallSoccerCatalog());
  ASSERT_TRUE(db.ok());
  auto results = db->Query("free_kick ; goal");
  ASSERT_TRUE(results.ok());
  ASSERT_FALSE(results->empty());
  EXPECT_EQ(db->cache_stats().entries, 1u);
  ASSERT_TRUE(db->MarkPositive(results->front()).ok());
  ASSERT_TRUE(db->Train().ok());
  // Retraining mutates the model in place; cached pre-training rankings
  // are gone.
  EXPECT_EQ(db->cache_stats().entries, 0u);

  // ClearQueryCache is also callable directly.
  ASSERT_TRUE(db->Query("free_kick ; goal").ok());
  EXPECT_EQ(db->cache_stats().entries, 1u);
  db->ClearQueryCache();
  EXPECT_EQ(db->cache_stats().entries, 0u);
}

uint64_t EventIndexBuilds(const VideoDatabase& db) {
  return db.metrics_registry()
      .GetCounter("hmmm_event_index_builds_total")
      ->value();
}

/// `count` distinct two-step queries over the catalog's vocabulary.
std::vector<std::string> DistinctQueries(const VideoCatalog& catalog,
                                         size_t count) {
  const EventVocabulary& vocabulary = catalog.vocabulary();
  std::vector<std::string> queries;
  for (size_t a = 0; a < vocabulary.size(); ++a) {
    for (size_t b = 0; b < vocabulary.size(); ++b) {
      if (queries.size() == count) return queries;
      queries.push_back(vocabulary.Name(static_cast<EventId>(a)) + " ; " +
                        vocabulary.Name(static_cast<EventId>(b)));
    }
  }
  return queries;
}

TEST(VideoDatabaseTest, CacheMissesShareOneEventIndexBuild) {
  auto db = VideoDatabase::Create(testing::GeneratedSoccerCatalog(5, 6));
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(EventIndexBuilds(*db), 0u);
  const std::vector<std::string> queries = DistinctQueries(db->catalog(), 20);
  ASSERT_EQ(queries.size(), 20u);
  for (const std::string& query : queries) {
    ASSERT_TRUE(db->Query(query).ok()) << query;
  }
  EXPECT_EQ(db->cache_stats().misses, 20u);
  EXPECT_EQ(EventIndexBuilds(*db), 1u);

  // Training bumps the model version: the next miss builds once more,
  // and the misses after it share that build.
  auto results = db->Query(queries.front());
  ASSERT_TRUE(results.ok());
  ASSERT_FALSE(results->empty());
  ASSERT_TRUE(db->MarkPositive(results->front()).ok());
  auto trained = db->Train();
  ASSERT_TRUE(trained.ok());
  ASSERT_TRUE(*trained);
  EXPECT_EQ(EventIndexBuilds(*db), 1u);
  for (const std::string& query : queries) {
    ASSERT_TRUE(db->Query(query).ok()) << query;
  }
  EXPECT_EQ(EventIndexBuilds(*db), 2u);
}

TEST(VideoDatabaseConcurrencyTest, QueriesRaceTrain) {
  auto db = VideoDatabase::Create(testing::GeneratedSoccerCatalog(5, 6));
  ASSERT_TRUE(db.ok());
  const std::vector<std::string> queries = DistinctQueries(db->catalog(), 8);
  auto marked = db->Query("free_kick ; goal");
  ASSERT_TRUE(marked.ok());
  ASSERT_FALSE(marked->empty());

  // Readers hit the cache, miss it, and rebuild the shared index while
  // the writer retrains the model under them.
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      for (size_t i = static_cast<size_t>(r); !stop.load(); ++i) {
        if (!db->Query(queries[i % queries.size()]).ok()) ++failures;
      }
    });
  }
  constexpr int kRounds = 5;
  for (int round = 0; round < kRounds; ++round) {
    ASSERT_TRUE(db->MarkPositive(marked->front()).ok());
    auto trained = db->Train();
    ASSERT_TRUE(trained.ok());
    EXPECT_TRUE(*trained);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  stop.store(true);
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(db->training_rounds(), static_cast<size_t>(kRounds));
  // At most one build per model version.
  EXPECT_LE(EventIndexBuilds(*db), static_cast<uint64_t>(kRounds + 1));

  // After the race, every answer is the trained model's own ranking.
  const EventBitmapIndex index(db->model(), db->catalog());
  const HmmmTraversal traversal(db->model(), index);
  for (const std::string& query : queries) {
    auto served = db->Query(query);
    ASSERT_TRUE(served.ok());
    auto fresh = traversal.Retrieve(
        *CompileQuery(query, db->catalog().vocabulary()));
    ASSERT_TRUE(fresh.ok());
    ASSERT_EQ(served->size(), fresh->size()) << query;
    for (size_t i = 0; i < served->size(); ++i) {
      EXPECT_EQ((*served)[i].shots, (*fresh)[i].shots) << query;
      EXPECT_EQ((*served)[i].score, (*fresh)[i].score) << query;
    }
  }
}

TEST(VideoDatabaseTest, MoveSemantics) {
  auto db = VideoDatabase::Create(testing::SmallSoccerCatalog());
  ASSERT_TRUE(db.ok());
  VideoDatabase moved = std::move(db).value();
  auto results = moved.Query("goal");
  ASSERT_TRUE(results.ok());
  EXPECT_FALSE(results->empty());
}

}  // namespace
}  // namespace hmmm
