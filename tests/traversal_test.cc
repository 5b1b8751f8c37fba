#include "retrieval/traversal.h"

#include <gtest/gtest.h>

#include "core/model_builder.h"
#include "query/translator.h"
#include "retrieval/metrics.h"
#include "test_util.h"

namespace hmmm {
namespace {

class TraversalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    catalog_ = testing::SmallSoccerCatalog();
    auto model = ModelBuilder(catalog_).Build();
    ASSERT_TRUE(model.ok());
    model_ = std::move(model).value();
    event_index_ = std::make_unique<EventBitmapIndex>(model_, catalog_);
  }

  VideoCatalog catalog_;
  HierarchicalModel model_;
  std::unique_ptr<EventBitmapIndex> event_index_;
};

TEST_F(TraversalTest, RejectsEmptyAndMalformedPatterns) {
  HmmmTraversal traversal(model_, *event_index_);
  EXPECT_FALSE(traversal.Retrieve(TemporalPattern{}).ok());
  TemporalPattern bad;
  bad.steps.emplace_back();  // step without alternatives
  EXPECT_FALSE(traversal.Retrieve(bad).ok());
  TemporalPattern unknown = TemporalPattern::FromEvents({99});
  EXPECT_FALSE(traversal.Retrieve(unknown).ok());
}

TEST_F(TraversalTest, SingleEventQueryFindsAnnotatedShot) {
  HmmmTraversal traversal(model_, *event_index_);
  const auto pattern = TemporalPattern::FromEvents({1});  // corner_kick
  auto results = traversal.Retrieve(pattern);
  ASSERT_TRUE(results.ok());
  ASSERT_FALSE(results->empty());
  // Best result should be the single corner_kick shot (ShotId 3).
  EXPECT_EQ(results->front().shots, (std::vector<ShotId>{3}));
}

TEST_F(TraversalTest, TwoStepPatternRespectsTemporalOrder) {
  HmmmTraversal traversal(model_, *event_index_);
  // free_kick (2) then goal (0).
  const auto pattern = TemporalPattern::FromEvents({2, 0});
  auto results = traversal.Retrieve(pattern);
  ASSERT_TRUE(results.ok());
  ASSERT_FALSE(results->empty());
  for (const RetrievedPattern& result : *results) {
    ASSERT_EQ(result.shots.size(), 2u);
    const ShotRecord& first = catalog_.shot(result.shots[0]);
    const ShotRecord& second = catalog_.shot(result.shots[1]);
    EXPECT_EQ(first.video_id, second.video_id);
    EXPECT_LT(first.index_in_video, second.index_in_video);
  }
  // The top result should actually satisfy the annotations.
  EXPECT_TRUE(
      PatternMatchesAnnotations(catalog_, results->front().shots, pattern));
}

TEST_F(TraversalTest, OneCandidatePerVideo) {
  HmmmTraversal traversal(model_, *event_index_);
  const auto pattern = TemporalPattern::FromEvents({0});  // goal, both videos
  auto results = traversal.Retrieve(pattern);
  ASSERT_TRUE(results.ok());
  EXPECT_EQ(results->size(), 2u);  // Step 7: one candidate per video
  EXPECT_NE((*results)[0].video, (*results)[1].video);
}

TEST_F(TraversalTest, ScoreIsSumOfEdgeWeights) {
  HmmmTraversal traversal(model_, *event_index_);
  const auto pattern = TemporalPattern::FromEvents({2, 0});
  auto results = traversal.Retrieve(pattern);
  ASSERT_TRUE(results.ok());
  for (const RetrievedPattern& result : *results) {
    double sum = 0.0;
    for (double w : result.edge_weights) sum += w;
    EXPECT_NEAR(result.score, sum, 1e-12);
    EXPECT_EQ(result.edge_weights.size(), result.shots.size());
  }
}

TEST_F(TraversalTest, ResultsSortedByScore) {
  HmmmTraversal traversal(model_, *event_index_);
  auto results = traversal.Retrieve(TemporalPattern::FromEvents({0}));
  ASSERT_TRUE(results.ok());
  for (size_t i = 1; i < results->size(); ++i) {
    EXPECT_GE((*results)[i - 1].score, (*results)[i].score);
  }
}

TEST_F(TraversalTest, MaxResultsTruncates) {
  TraversalOptions options;
  options.max_results = 1;
  HmmmTraversal traversal(model_, *event_index_, options);
  auto results = traversal.Retrieve(TemporalPattern::FromEvents({0}));
  ASSERT_TRUE(results.ok());
  EXPECT_EQ(results->size(), 1u);
}

TEST_F(TraversalTest, MaxVideosLimitsSearch) {
  TraversalOptions options;
  options.max_videos = 1;
  HmmmTraversal traversal(model_, *event_index_, options);
  RetrievalStats stats;
  auto results = traversal.Retrieve(TemporalPattern::FromEvents({0}), &stats);
  ASSERT_TRUE(results.ok());
  EXPECT_EQ(stats.videos_considered, 1u);
  EXPECT_LE(results->size(), 1u);
}

TEST_F(TraversalTest, Statspopulated) {
  HmmmTraversal traversal(model_, *event_index_);
  RetrievalStats stats;
  auto results = traversal.Retrieve(TemporalPattern::FromEvents({2, 0}), &stats);
  ASSERT_TRUE(results.ok());
  EXPECT_GT(stats.videos_considered, 0u);
  EXPECT_GT(stats.states_visited, 0u);
  EXPECT_GT(stats.sim_evaluations, 0u);
  EXPECT_EQ(stats.candidates_scored, results->size());
}

TEST_F(TraversalTest, VideoOrderPrefersContainingVideos) {
  HmmmTraversal traversal(model_, *event_index_);
  // corner_kick only exists in video 0.
  const auto order = traversal.VideoOrder(TemporalPattern::FromEvents({1}));
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 0);
  EXPECT_EQ(order[1], 1);
}

TEST_F(TraversalTest, BeamWidthOneIsGreedy) {
  // With beam 1 the traversal picks, at each hop, the argmax of
  // A1 * sim. On this catalog querying free_kick->goal in video 0 the
  // greedy path from shot 0 goes to shot 2 (the free_kick+goal shot).
  TraversalOptions options;
  options.beam_width = 1;
  HmmmTraversal traversal(model_, *event_index_, options);
  auto results = traversal.Retrieve(TemporalPattern::FromEvents({2, 0}));
  ASSERT_TRUE(results.ok());
  ASSERT_FALSE(results->empty());
  // Video 0's candidate must be the greedy path: from the free_kick shot
  // the argmax of A1 * sim leads to the free_kick+goal shot.
  const RetrievedPattern* video0 = nullptr;
  for (const auto& r : *results) {
    if (r.video == 0) video0 = &r;
  }
  ASSERT_NE(video0, nullptr);
  EXPECT_EQ(video0->shots, (std::vector<ShotId>{0, 2}));
}

TEST_F(TraversalTest, WiderBeamNeverWorseTopScore) {
  const auto pattern = TemporalPattern::FromEvents({2, 0});
  TraversalOptions narrow;
  narrow.beam_width = 1;
  TraversalOptions wide;
  wide.beam_width = 8;
  auto narrow_results =
      HmmmTraversal(model_, *event_index_, narrow).Retrieve(pattern);
  auto wide_results = HmmmTraversal(model_, *event_index_, wide).Retrieve(pattern);
  ASSERT_TRUE(narrow_results.ok());
  ASSERT_TRUE(wide_results.ok());
  ASSERT_FALSE(narrow_results->empty());
  ASSERT_FALSE(wide_results->empty());
  EXPECT_GE(wide_results->front().score + 1e-12,
            narrow_results->front().score);
}

TEST_F(TraversalTest, PatternLongerThanVideoFails) {
  // 5 steps but each video has at most 3 annotated shots.
  HmmmTraversal traversal(model_, *event_index_);
  auto results =
      traversal.Retrieve(TemporalPattern::FromEvents({0, 0, 0, 0, 0}));
  ASSERT_TRUE(results.ok());
  EXPECT_TRUE(results->empty());
}

TEST_F(TraversalTest, CrossVideoExtendsWhenEnabled) {
  TraversalOptions options;
  options.cross_video = true;
  HmmmTraversal traversal(model_, *event_index_, options);
  // 4 goals in a row exist nowhere within one video; cross-video can
  // stitch goal shots across videos... with only 3 goals total it still
  // fails, but a goal;goal;goal pattern can span video_b(2 goals) + a
  // cross into video_a's goal shot (but video_a's goal is shot 2 which is
  // annotated goal too). Check 3-goal query returns something.
  auto results = traversal.Retrieve(TemporalPattern::FromEvents({0, 0, 0}));
  ASSERT_TRUE(results.ok());
  ASSERT_FALSE(results->empty());
  bool any_cross = false;
  for (const auto& r : *results) any_cross |= r.crosses_videos;
  EXPECT_TRUE(any_cross);
}

TEST_F(TraversalTest, WithoutCrossVideoNoSpanningPatterns) {
  HmmmTraversal traversal(model_, *event_index_);
  auto results = traversal.Retrieve(TemporalPattern::FromEvents({0, 0, 0}));
  ASSERT_TRUE(results.ok());
  for (const auto& r : *results) {
    EXPECT_FALSE(r.crosses_videos);
  }
}

TEST_F(TraversalTest, AllowSameShotServesConsecutiveSteps) {
  TraversalOptions options;
  options.allow_same_shot = true;
  HmmmTraversal traversal(model_, *event_index_, options);
  // free_kick then goal can be served by the single free_kick+goal shot
  // (state self-transition A1(1,1) = 0.5 in video 0).
  auto results = traversal.Retrieve(TemporalPattern::FromEvents({2, 0}));
  ASSERT_TRUE(results.ok());
  ASSERT_FALSE(results->empty());
  for (const auto& r : *results) {
    ASSERT_EQ(r.shots.size(), 2u);
    EXPECT_LE(catalog_.shot(r.shots[0]).index_in_video,
              catalog_.shot(r.shots[1]).index_in_video);
  }
}

TEST_F(TraversalTest, AnnotatedFirstRestrictsToAnnotatedShots) {
  // With the Step-3 rule on (default), a query for corner_kick only
  // considers the one corner-annotated shot even though other shots are
  // "similar".
  HmmmTraversal traversal(model_, *event_index_);
  RetrievalStats stats;
  auto results = traversal.Retrieve(TemporalPattern::FromEvents({1}), &stats);
  ASSERT_TRUE(results.ok());
  // Video 0 contributes its corner shot; video 1 has no corner-annotated
  // shot, so it falls back to similarity over all 3 states: 1 + 3 = 4.
  EXPECT_EQ(stats.states_visited, 4u);
}

TEST_F(TraversalTest, SimilarityOnlyModeConsidersAllStates) {
  TraversalOptions options;
  options.annotated_first = false;
  HmmmTraversal traversal(model_, *event_index_, options);
  RetrievalStats stats;
  auto results = traversal.Retrieve(TemporalPattern::FromEvents({1}), &stats);
  ASSERT_TRUE(results.ok());
  EXPECT_EQ(stats.states_visited, 6u);  // all states of both videos
}

TEST_F(TraversalTest, AnnotatedFirstImprovesTopRelevance) {
  const auto pattern = TemporalPattern::FromEvents({2, 0});
  TraversalOptions annotated;
  annotated.annotated_first = true;
  TraversalOptions similarity;
  similarity.annotated_first = false;
  auto with = HmmmTraversal(model_, *event_index_, annotated).Retrieve(pattern);
  auto without =
      HmmmTraversal(model_, *event_index_, similarity).Retrieve(pattern);
  ASSERT_TRUE(with.ok());
  ASSERT_TRUE(without.ok());
  const auto m_with = EvaluateRanking(catalog_, pattern, *with, 5);
  const auto m_without = EvaluateRanking(catalog_, pattern, *without, 5);
  EXPECT_GE(m_with.precision_at_k + 1e-12, m_without.precision_at_k);
}

TEST_F(TraversalTest, GeneratedCorpusFindsRelevantResults) {
  // An easier corpus (well-separated classes, dense events) plus learned
  // feature weights: the ranked list must contain annotation-exact hits.
  FeatureLevelConfig config = SoccerFeatureLevelDefaults(41);
  config.num_videos = 10;
  config.min_shots_per_video = 40;
  config.max_shots_per_video = 60;
  config.event_shot_fraction = 0.4;
  config.feature_noise = 0.04;
  config.class_separation = 1.5;
  FeatureLevelGenerator generator(config);
  auto catalog = VideoCatalog::FromGeneratedCorpus(generator.Generate());
  ASSERT_TRUE(catalog.ok());

  ModelBuilderOptions builder_options;
  builder_options.learn_feature_weights = true;
  auto model = ModelBuilder(*catalog, builder_options).Build();
  ASSERT_TRUE(model.ok());
  TraversalOptions options;
  options.beam_width = 4;
  options.max_results = 10;
  const EventBitmapIndex index(*model, *catalog);
  HmmmTraversal traversal(*model, index, options);
  const auto pattern = TemporalPattern::FromEvents({2, 0});  // fk -> goal
  auto results = traversal.Retrieve(pattern);
  ASSERT_TRUE(results.ok());
  ASSERT_FALSE(results->empty());
  ASSERT_FALSE(EnumerateTrueOccurrences(*catalog, pattern).empty());
  const auto metrics = EvaluateRanking(*catalog, pattern, *results, 10);
  EXPECT_GT(metrics.relevant_retrieved, 0u);
}

}  // namespace
}  // namespace hmmm
