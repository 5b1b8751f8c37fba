// Cross-feature integration scenarios: combinations of the category
// level, gap-bounded queries, feedback-trained priors, QBE and the
// VideoDatabase facade that no single-module test exercises together.

#include <gtest/gtest.h>

#include "hmmm.h"
#include "retrieval/metrics.h"
#include "test_util.h"

namespace hmmm {
namespace {

TEST(IntegrationScenariosTest, TrainedPi2ReordersVideoScan) {
  const VideoCatalog catalog = testing::SmallSoccerCatalog();
  auto model = ModelBuilder(catalog).Build();
  ASSERT_TRUE(model.ok());

  // Both videos contain "goal"; with uniform Pi2 video 0 is seeded first.
  const EventBitmapIndex index(*model, catalog);
  HmmmTraversal traversal(*model, index);
  const auto pattern = TemporalPattern::FromEvents({0});
  EXPECT_EQ(traversal.VideoOrder(pattern).front(), 0);

  // Teach the model that video 1 is the preferred entry point.
  OfflineLearner learner;
  ASSERT_TRUE(learner.ApplyVideoPatterns(*model, {{{1}, 5.0}}).ok());
  const EventBitmapIndex retrained_index(*model, catalog);
  HmmmTraversal retrained(*model, retrained_index);
  EXPECT_EQ(retrained.VideoOrder(pattern).front(), 1);
}

TEST(IntegrationScenariosTest, GapBoundedQueryThroughVideoDatabase) {
  auto db = VideoDatabase::Create(testing::GeneratedSoccerCatalog(91, 10));
  ASSERT_TRUE(db.ok());
  auto bounded = db->Query("free_kick ;<1 goal");
  auto unbounded = db->Query("free_kick ; goal");
  ASSERT_TRUE(bounded.ok());
  ASSERT_TRUE(unbounded.ok());
  // The bounded query never returns more distinct true occurrences.
  const auto pattern_b =
      *CompileQuery("free_kick ;<1 goal", db->catalog().vocabulary());
  const auto pattern_u =
      *CompileQuery("free_kick ; goal", db->catalog().vocabulary());
  EXPECT_LE(EnumerateTrueOccurrences(db->catalog(), pattern_b).size(),
            EnumerateTrueOccurrences(db->catalog(), pattern_u).size());
}

TEST(IntegrationScenariosTest, CategoryPrunedDatabaseAnswersGapQueries) {
  VideoDatabaseOptions options;
  options.enable_category_level = true;
  options.categories.num_clusters = 2;
  auto db = VideoDatabase::Create(testing::GeneratedSoccerCatalog(92, 12),
                                  options);
  ASSERT_TRUE(db.ok());
  ASSERT_NE(db->categories(), nullptr);
  RetrievalStats stats;
  auto results = db->Query("free_kick ;<2 goal", &stats);
  ASSERT_TRUE(results.ok());
  EXPECT_GT(stats.videos_considered, 0u);
}

TEST(IntegrationScenariosTest, QbeAgreesWithAnnotationsOnEasyCorpus) {
  FeatureLevelConfig config = SoccerFeatureLevelDefaults(93);
  config.num_videos = 8;
  config.min_shots_per_video = 40;
  config.max_shots_per_video = 60;
  config.event_shot_fraction = 0.3;
  config.feature_noise = 0.04;
  config.class_separation = 1.5;
  FeatureLevelGenerator generator(config);
  auto catalog = VideoCatalog::FromGeneratedCorpus(generator.Generate());
  ASSERT_TRUE(catalog.ok());
  auto db = VideoDatabase::Create(std::move(catalog).value());
  ASSERT_TRUE(db.ok());

  // Pick a single-event goal shot and ask for more like it: the majority
  // of the top-5 should also carry "goal".
  ShotId probe = -1;
  for (const ShotRecord& shot : db->catalog().shots()) {
    if (shot.events == std::vector<EventId>{0}) {
      probe = shot.id;
      break;
    }
  }
  ASSERT_GE(probe, 0);
  QbeOptions qbe;
  qbe.max_results = 5;
  auto similar = db->MoreLikeShot(probe, qbe);
  ASSERT_TRUE(similar.ok());
  ASSERT_EQ(similar->size(), 5u);
  int goal_hits = 0;
  for (const QbeResult& r : *similar) {
    if (db->catalog().shot(r.shot).HasEvent(0)) ++goal_hits;
  }
  EXPECT_GE(goal_hits, 3);
}

TEST(IntegrationScenariosTest, FeedbackSurvivesSaveLoadCycle) {
  const VideoCatalog catalog = testing::SmallSoccerCatalog();
  auto db = VideoDatabase::Create(catalog);
  ASSERT_TRUE(db.ok());
  auto results = db->Query("free_kick ; goal");
  ASSERT_TRUE(results.ok());
  ASSERT_FALSE(results->empty());
  ASSERT_TRUE(db->MarkPositive(results->front()).ok());
  ASSERT_TRUE(db->Train().ok());
  const Matrix trained_a1 = db->model().local(results->front().video).a1;

  const std::string catalog_path = testing::TempPath("integ_feedback.cat");
  const std::string model_path = testing::TempPath("integ_feedback.hmmm");
  ASSERT_TRUE(db->Save(catalog_path, model_path).ok());
  auto reopened = VideoDatabase::Open(catalog_path, model_path);
  ASSERT_TRUE(reopened.ok());
  EXPECT_LT(reopened->model()
                .local(results->front().video)
                .a1.MaxAbsDiff(trained_a1),
            1e-15);
  std::remove(catalog_path.c_str());
  std::remove(model_path.c_str());
}

TEST(IntegrationScenariosTest, AlternativeAndConjunctionAndGapTogether) {
  const VideoCatalog catalog = testing::GeneratedSoccerCatalog(94, 10);
  auto db = VideoDatabase::Create(catalog);
  ASSERT_TRUE(db.ok());
  const std::string query = "(corner_kick | free_kick) ;<3 goal ; foul";
  auto pattern = CompileQuery(query, catalog.vocabulary());
  ASSERT_TRUE(pattern.ok());
  EXPECT_EQ(pattern->steps[1].max_gap, 3);
  EXPECT_EQ(pattern->steps[2].max_gap, -1);
  auto results = db->Retrieve(*pattern);
  ASSERT_TRUE(results.ok());
  // Shape only: three-shot candidates, temporally ordered.
  for (const auto& r : *results) {
    ASSERT_EQ(r.shots.size(), 3u);
    EXPECT_LT(catalog.shot(r.shots[0]).begin_time,
              catalog.shot(r.shots[2]).begin_time + 1e-9);
  }
}

TEST(IntegrationScenariosTest, ExhaustiveAndTraversalAgreeUnderGaps) {
  const VideoCatalog catalog = testing::GeneratedSoccerCatalog(95, 8);
  auto model = ModelBuilder(catalog).Build();
  ASSERT_TRUE(model.ok());
  auto pattern = CompileQuery("free_kick ;<2 goal", catalog.vocabulary());
  ASSERT_TRUE(pattern.ok());

  ExhaustiveOptions gold_options;
  gold_options.max_results = 100000;
  ExhaustiveMatcher exhaustive(*model, catalog, gold_options);
  auto gold = exhaustive.Retrieve(*pattern);
  ASSERT_TRUE(gold.ok());

  TraversalOptions options;
  options.beam_width = 8;
  const EventBitmapIndex index(*model, catalog);
  HmmmTraversal traversal(*model, index, options);
  auto fast = traversal.Retrieve(*pattern);
  ASSERT_TRUE(fast.ok());
  // Shared tuples score identically, and the gold top dominates.
  for (const auto& f : *fast) {
    for (const auto& g : *gold) {
      if (f.shots == g.shots) {
        EXPECT_NEAR(f.score, g.score, 1e-12);
      }
    }
  }
  if (!gold->empty() && !fast->empty()) {
    EXPECT_GE(gold->front().score + 1e-12, fast->front().score);
  }
}

}  // namespace
}  // namespace hmmm
