#include <gtest/gtest.h>

#include "core/model_builder.h"
#include "retrieval/baseline_exhaustive.h"
#include "retrieval/baseline_index.h"
#include "retrieval/metrics.h"
#include "retrieval/traversal.h"
#include "test_util.h"

namespace hmmm {
namespace {

class BaselinesTest : public ::testing::Test {
 protected:
  void SetUp() override {
    catalog_ = testing::SmallSoccerCatalog();
    auto model = ModelBuilder(catalog_).Build();
    ASSERT_TRUE(model.ok());
    model_ = std::move(model).value();
    event_index_ = std::make_unique<EventBitmapIndex>(model_, catalog_);
    index_ = EventIndex(catalog_);
  }

  VideoCatalog catalog_;
  HierarchicalModel model_;
  std::unique_ptr<EventBitmapIndex> event_index_;
  EventIndex index_;
};

TEST_F(BaselinesTest, ExhaustiveEnumeratesAllTuples) {
  ExhaustiveMatcher matcher(model_, catalog_);
  RetrievalStats stats;
  // One-step pattern: every annotated shot is a candidate (6 states).
  auto results =
      matcher.Retrieve(TemporalPattern::FromEvents({0}), &stats);
  ASSERT_TRUE(results.ok());
  EXPECT_EQ(stats.candidates_scored, 6u);
  EXPECT_FALSE(stats.truncated);
}

TEST_F(BaselinesTest, ExhaustiveRejectsEmptyPattern) {
  ExhaustiveMatcher matcher(model_, catalog_);
  EXPECT_FALSE(matcher.Retrieve(TemporalPattern{}).ok());
}

TEST_F(BaselinesTest, ExhaustiveTopScoreDominatesTraversal) {
  // The exhaustive matcher cannot return a worse best score than any
  // traversal (it scores every tuple with the same weights).
  const auto pattern = TemporalPattern::FromEvents({2, 0});
  ExhaustiveMatcher exhaustive(model_, catalog_);
  auto gold = exhaustive.Retrieve(pattern);
  ASSERT_TRUE(gold.ok());
  ASSERT_FALSE(gold->empty());

  for (int beam : {1, 2, 8}) {
    TraversalOptions options;
    options.beam_width = beam;
    HmmmTraversal traversal(model_, *event_index_, options);
    auto results = traversal.Retrieve(pattern);
    ASSERT_TRUE(results.ok());
    ASSERT_FALSE(results->empty());
    EXPECT_GE(gold->front().score + 1e-12, results->front().score)
        << "beam " << beam;
  }
}

TEST_F(BaselinesTest, ExhaustiveScoresMatchTraversalOnSamePath) {
  // When traversal and exhaustive agree on the shot tuple, their SS must
  // be identical (same Eqs. 12-15 arithmetic).
  const auto pattern = TemporalPattern::FromEvents({2, 0});
  ExhaustiveMatcher exhaustive(model_, catalog_);
  HmmmTraversal traversal(model_, *event_index_);
  auto gold = exhaustive.Retrieve(pattern);
  auto fast = traversal.Retrieve(pattern);
  ASSERT_TRUE(gold.ok());
  ASSERT_TRUE(fast.ok());
  for (const auto& g : *gold) {
    for (const auto& f : *fast) {
      if (g.shots == f.shots) {
        EXPECT_NEAR(g.score, f.score, 1e-12);
      }
    }
  }
}

TEST_F(BaselinesTest, ExhaustiveBudgetTruncates) {
  ExhaustiveOptions options;
  options.max_tuples = 3;
  ExhaustiveMatcher matcher(model_, catalog_, options);
  RetrievalStats stats;
  auto results = matcher.Retrieve(TemporalPattern::FromEvents({0}), &stats);
  ASSERT_TRUE(results.ok());
  EXPECT_TRUE(stats.truncated);
  EXPECT_LE(stats.states_visited, 3u);
}

TEST_F(BaselinesTest, IndexJoinOnlyReturnsExactAnnotations) {
  IndexJoinMatcher matcher(model_, catalog_, index_);
  const auto pattern = TemporalPattern::FromEvents({2, 0});
  auto results = matcher.Retrieve(pattern);
  ASSERT_TRUE(results.ok());
  ASSERT_FALSE(results->empty());
  for (const auto& result : *results) {
    EXPECT_TRUE(PatternMatchesAnnotations(catalog_, result.shots, pattern));
  }
}

TEST_F(BaselinesTest, IndexJoinFindsAllTrueOccurrences) {
  const auto pattern = TemporalPattern::FromEvents({2, 0});
  IndexJoinOptions options;
  options.max_results = 100;
  IndexJoinMatcher matcher(model_, catalog_, index_, options);
  auto results = matcher.Retrieve(pattern);
  ASSERT_TRUE(results.ok());
  const auto truth = EnumerateTrueOccurrences(catalog_, pattern);
  EXPECT_EQ(results->size(), truth.size());
}

TEST_F(BaselinesTest, IndexJoinMissesUnannotatedVideos) {
  // corner_kick exists only in video 0; index join never visits video 1.
  IndexJoinMatcher matcher(model_, catalog_, index_);
  RetrievalStats stats;
  auto results =
      matcher.Retrieve(TemporalPattern::FromEvents({1}), &stats);
  ASSERT_TRUE(results.ok());
  EXPECT_EQ(stats.videos_considered, 1u);
  ASSERT_EQ(results->size(), 1u);
  EXPECT_EQ(results->front().shots, (std::vector<ShotId>{3}));
}

TEST_F(BaselinesTest, IndexJoinHandlesConjunctiveSteps) {
  PatternStep step;
  step.alternatives = {{2, 0}};  // free_kick & goal on one shot
  TemporalPattern pattern;
  pattern.steps.push_back(step);
  IndexJoinMatcher matcher(model_, catalog_, index_);
  auto results = matcher.Retrieve(pattern);
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results->size(), 1u);
  EXPECT_EQ(results->front().shots, (std::vector<ShotId>{2}));
}

TEST_F(BaselinesTest, IndexJoinEmptyWhenEventAbsent) {
  IndexJoinMatcher matcher(model_, catalog_, index_);
  auto results = matcher.Retrieve(TemporalPattern::FromEvents({6}));
  ASSERT_TRUE(results.ok());
  EXPECT_TRUE(results->empty());
}

TEST_F(BaselinesTest, MatchersAgreeOnGeneratedCorpus) {
  const VideoCatalog catalog = testing::GeneratedSoccerCatalog(55, 8);
  auto model = ModelBuilder(catalog).Build();
  ASSERT_TRUE(model.ok());
  const EventIndex index(catalog);
  const auto pattern = TemporalPattern::FromEvents({2, 0});

  ExhaustiveOptions gold_options;
  gold_options.max_results = 100000;  // keep every tuple: no truncation
  ExhaustiveMatcher exhaustive(*model, catalog, gold_options);
  auto gold = exhaustive.Retrieve(pattern);
  ASSERT_TRUE(gold.ok());

  IndexJoinOptions join_options;
  join_options.max_results = 200;
  IndexJoinMatcher join(*model, catalog, index, join_options);
  auto joined = join.Retrieve(pattern);
  ASSERT_TRUE(joined.ok());

  // Every index-join result appears among exhaustive results with the
  // same score (index join is a filtered subset of exhaustive).
  for (const auto& j : *joined) {
    bool found = false;
    for (const auto& g : *gold) {
      if (g.shots == j.shots) {
        EXPECT_NEAR(g.score, j.score, 1e-12);
        found = true;
        break;
      }
    }
    EXPECT_TRUE(found) << "index-join result missing from exhaustive set";
  }
}

}  // namespace
}  // namespace hmmm
