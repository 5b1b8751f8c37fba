#include "retrieval/three_level.h"

#include <gtest/gtest.h>

#include <set>

#include "core/model_builder.h"
#include "media/news_generator.h"
#include "retrieval/metrics.h"
#include "test_util.h"

namespace hmmm {
namespace {

class ThreeLevelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Mixed archive: 5 soccer + 5 news videos.
    EventVocabulary combined = SoccerEvents();
    const EventVocabulary news_vocab = NewsEvents();
    for (const std::string& name : news_vocab.names()) {
      news_ids_.push_back(combined.Register(name));
    }
    catalog_ = VideoCatalog(combined, 20);

    FeatureLevelConfig soccer_config = SoccerFeatureLevelDefaults(51);
    soccer_config.num_videos = 5;
    soccer_config.min_shots_per_video = 30;
    soccer_config.max_shots_per_video = 50;
    soccer_config.event_shot_fraction = 0.3;
    for (const GeneratedVideo& video :
         FeatureLevelGenerator(soccer_config).Generate().videos) {
      const VideoId vid = catalog_.AddVideo("soccer_" + video.name);
      for (const GeneratedShot& shot : video.shots) {
        ASSERT_TRUE(catalog_.AddShot(vid, shot.begin_time, shot.end_time,
                                     shot.events, shot.features).ok());
      }
    }
    FeatureLevelConfig news_config = NewsFeatureLevelDefaults(52);
    news_config.num_videos = 5;
    news_config.min_shots_per_video = 30;
    news_config.max_shots_per_video = 50;
    for (const GeneratedVideo& video :
         FeatureLevelGenerator(news_config).Generate().videos) {
      const VideoId vid = catalog_.AddVideo("news_" + video.name);
      for (const GeneratedShot& shot : video.shots) {
        std::vector<EventId> remapped;
        for (EventId e : shot.events) {
          remapped.push_back(news_ids_[static_cast<size_t>(e)]);
        }
        ASSERT_TRUE(catalog_.AddShot(vid, shot.begin_time, shot.end_time,
                                     remapped, shot.features).ok());
      }
    }

    auto model = ModelBuilder(catalog_).Build();
    ASSERT_TRUE(model.ok());
    model_ = std::move(model).value();
    event_index_ = std::make_unique<EventBitmapIndex>(model_, catalog_);
    CategoryLevelOptions options;
    options.num_clusters = 2;
    auto level = BuildCategoryLevel(model_, options);
    ASSERT_TRUE(level.ok());
    categories_ = std::move(level).value();
  }

  std::vector<EventId> news_ids_;
  VideoCatalog catalog_;
  HierarchicalModel model_;
  std::unique_ptr<EventBitmapIndex> event_index_;
  CategoryLevel categories_;
};

TEST_F(ThreeLevelTest, PrunesToContainingCluster) {
  ThreeLevelTraversal traversal(model_, categories_, *event_index_);
  // goal (id 0) exists only in soccer videos (ids 0..4).
  const auto order =
      traversal.PrunedVideoOrder(TemporalPattern::FromEvents({0}));
  ASSERT_EQ(order.size(), 5u);
  for (VideoId v : order) {
    EXPECT_LT(v, 5) << "news video not pruned";
  }
}

TEST_F(ThreeLevelTest, VisitsFewerVideosThanTwoLevel) {
  ThreeLevelTraversal pruned(model_, categories_, *event_index_);
  HmmmTraversal full(model_, *event_index_);
  const auto pattern = TemporalPattern::FromEvents({2, 0});
  RetrievalStats pruned_stats, full_stats;
  auto pruned_results = pruned.Retrieve(pattern, &pruned_stats);
  auto full_results = full.Retrieve(pattern, &full_stats);
  ASSERT_TRUE(pruned_results.ok());
  ASSERT_TRUE(full_results.ok());
  EXPECT_LT(pruned_stats.videos_considered, full_stats.videos_considered);
  EXPECT_LT(pruned_stats.sim_evaluations, full_stats.sim_evaluations);
}

TEST_F(ThreeLevelTest, SameResultsAsTwoLevelOnContainingVideos) {
  // The pruned traversal must return the same candidates the 2-level
  // engine finds within the surviving cluster.
  ThreeLevelTraversal pruned(model_, categories_, *event_index_);
  HmmmTraversal full(model_, *event_index_);
  const auto pattern = TemporalPattern::FromEvents({2, 0});  // soccer only
  auto pruned_results = pruned.Retrieve(pattern);
  auto full_results = full.Retrieve(pattern);
  ASSERT_TRUE(pruned_results.ok());
  ASSERT_TRUE(full_results.ok());

  // Every pruned result appears in the full result set with equal score.
  for (const auto& p : *pruned_results) {
    bool found = false;
    for (const auto& f : *full_results) {
      if (f.shots == p.shots) {
        EXPECT_NEAR(f.score, p.score, 1e-12);
        found = true;
        break;
      }
    }
    EXPECT_TRUE(found);
  }
}

TEST_F(ThreeLevelTest, NewsQueriesRouteToNewsCluster) {
  ThreeLevelTraversal traversal(model_, categories_, *event_index_);
  const EventId anchor = news_ids_[0];
  const auto order =
      traversal.PrunedVideoOrder(TemporalPattern::FromEvents({anchor}));
  ASSERT_EQ(order.size(), 5u);
  for (VideoId v : order) {
    EXPECT_GE(v, 5) << "soccer video not pruned for news query";
  }
  auto results = traversal.Retrieve(TemporalPattern::FromEvents({anchor}));
  ASSERT_TRUE(results.ok());
  EXPECT_FALSE(results->empty());
}

TEST_F(ThreeLevelTest, UnknownEventFallsBackToAllVideos) {
  ThreeLevelTraversal traversal(model_, categories_, *event_index_);
  // red_card (id 6) may exist in no cluster; order must not be empty.
  TemporalPattern pattern = TemporalPattern::FromEvents({6});
  const auto order = traversal.PrunedVideoOrder(pattern);
  const bool contained = categories_.ClusterContainsEvent(0, 6) ||
                         categories_.ClusterContainsEvent(1, 6);
  if (!contained) {
    EXPECT_EQ(order.size(), catalog_.num_videos());
  } else {
    EXPECT_FALSE(order.empty());
  }
}

TEST_F(ThreeLevelTest, EmptyPatternRejected) {
  ThreeLevelTraversal traversal(model_, categories_, *event_index_);
  EXPECT_FALSE(traversal.Retrieve(TemporalPattern{}).ok());
}

TEST_F(ThreeLevelTest, RetrieveWithVideoOrderValidatesIds) {
  HmmmTraversal traversal(model_, *event_index_);
  const auto pattern = TemporalPattern::FromEvents({0});
  EXPECT_FALSE(traversal.RetrieveWithVideoOrder(pattern, {999}).ok());
  EXPECT_FALSE(traversal.RetrieveWithVideoOrder(pattern, {-1}).ok());
  auto empty_order = traversal.RetrieveWithVideoOrder(pattern, {});
  ASSERT_TRUE(empty_order.ok());
  EXPECT_TRUE(empty_order->empty());
}

}  // namespace
}  // namespace hmmm
