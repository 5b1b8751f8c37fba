// Temporal gap bounds in the query language (`a ;<N b`), an extension of
// the authors' temporal query model ([8] in the paper): the next event
// must occur within N annotated shots of the previous one.

#include <gtest/gtest.h>

#include "core/model_builder.h"
#include "query/parser.h"
#include "retrieval/baseline_exhaustive.h"
#include "retrieval/baseline_index.h"
#include "retrieval/metrics.h"
#include "retrieval/traversal.h"
#include "test_util.h"

namespace hmmm {
namespace {

class GapConstraintTest : public ::testing::Test {
 protected:
  void SetUp() override {
    catalog_ = testing::SmallSoccerCatalog();
    auto model = ModelBuilder(catalog_).Build();
    ASSERT_TRUE(model.ok());
    model_ = std::move(model).value();
    event_index_ = std::make_unique<EventBitmapIndex>(model_, catalog_);
    vocab_ = catalog_.vocabulary();
  }

  VideoCatalog catalog_;
  HierarchicalModel model_;
  std::unique_ptr<EventBitmapIndex> event_index_;
  EventVocabulary vocab_;
};

TEST_F(GapConstraintTest, ParserAcceptsGapSyntax) {
  auto pattern = CompileQuery("free_kick ;<1 goal", vocab_);
  ASSERT_TRUE(pattern.ok());
  ASSERT_EQ(pattern->size(), 2u);
  EXPECT_EQ(pattern->steps[0].max_gap, -1);
  EXPECT_EQ(pattern->steps[1].max_gap, 1);
  EXPECT_EQ(pattern->ToString(vocab_), "free_kick ;<1 goal");

  auto arrow = CompileQuery("free_kick -><2 goal", vocab_);
  ASSERT_TRUE(arrow.ok());
  EXPECT_EQ(arrow->steps[1].max_gap, 2);
}

TEST_F(GapConstraintTest, ParserRejectsBadGaps) {
  EXPECT_FALSE(CompileQuery("free_kick ;<0 goal", vocab_).ok());
  EXPECT_FALSE(CompileQuery("free_kick ;< goal", vocab_).ok());
  EXPECT_FALSE(CompileQuery("free_kick ;<x goal", vocab_).ok());
  EXPECT_FALSE(CompileQuery("free_kick < goal", vocab_).ok());
}

TEST_F(GapConstraintTest, MatnCarriesAndRendersGap) {
  auto graph = ParseQuery("goal ;<3 free_kick", vocab_);
  ASSERT_TRUE(graph.ok());
  ASSERT_EQ(graph->arcs().size(), 2u);
  EXPECT_EQ(graph->arcs()[1].max_gap, 3);
  EXPECT_NE(graph->ToString(vocab_).find("[gap<=3]"), std::string::npos);
  MatnGraph manual;
  manual.AddState();
  manual.AddState();
  EXPECT_FALSE(manual.AddArc(0, 1, {0}, 0).ok());
  EXPECT_FALSE(manual.AddArc(0, 1, {0}, -5).ok());
  EXPECT_TRUE(manual.AddArc(0, 1, {0}, 4).ok());
}

TEST_F(GapConstraintTest, MatchingHonorsGap) {
  // video 0 annotated shots: 0 (fk), 2 (fk+goal), 3 (corner); positions
  // 0, 1, 2. free_kick ;<1 corner_kick matches (2,3) but not (0,3).
  const auto tight = *CompileQuery("free_kick ;<1 corner_kick", vocab_);
  EXPECT_TRUE(PatternMatchesAnnotations(catalog_, {2, 3}, tight));
  EXPECT_FALSE(PatternMatchesAnnotations(catalog_, {0, 3}, tight));
  const auto loose = *CompileQuery("free_kick ;<2 corner_kick", vocab_);
  EXPECT_TRUE(PatternMatchesAnnotations(catalog_, {0, 3}, loose));
}

TEST_F(GapConstraintTest, EnumerationHonorsGap) {
  const auto unbounded = *CompileQuery("free_kick ; corner_kick", vocab_);
  const auto tight = *CompileQuery("free_kick ;<1 corner_kick", vocab_);
  const auto all = EnumerateTrueOccurrences(catalog_, unbounded);
  const auto bounded = EnumerateTrueOccurrences(catalog_, tight);
  EXPECT_EQ(all.size(), 2u);      // (0,3) and (2,3)
  ASSERT_EQ(bounded.size(), 1u);  // only the adjacent pair
  EXPECT_EQ(bounded[0], (std::vector<ShotId>{2, 3}));
}

TEST_F(GapConstraintTest, TraversalHonorsGap) {
  HmmmTraversal traversal(model_, *event_index_);
  const auto tight = *CompileQuery("free_kick ;<1 corner_kick", vocab_);
  auto results = traversal.Retrieve(tight);
  ASSERT_TRUE(results.ok());
  ASSERT_FALSE(results->empty());
  // Every returned pair (annotated or merely "similar") must respect the
  // positional gap bound of 1 annotated shot.
  for (const auto& r : *results) {
    ASSERT_EQ(r.shots.size(), 2u);
    const ShotRecord& a = catalog_.shot(r.shots[0]);
    const ShotRecord& b = catalog_.shot(r.shots[1]);
    ASSERT_EQ(a.video_id, b.video_id);
    const auto annotated = catalog_.AnnotatedShots(a.video_id);
    int pa = -1, pb = -1;
    for (size_t i = 0; i < annotated.size(); ++i) {
      if (annotated[i] == a.id) pa = static_cast<int>(i);
      if (annotated[i] == b.id) pb = static_cast<int>(i);
    }
    EXPECT_LE(pb - pa, 1) << "gap-violating result returned";
  }
  // With a beam wide enough to keep both start shots, video 0's best
  // path is the annotated pair (2, 3).
  TraversalOptions wide;
  wide.beam_width = 4;
  auto beam_results =
      HmmmTraversal(model_, *event_index_, wide).Retrieve(tight);
  ASSERT_TRUE(beam_results.ok());
  bool found_pair = false;
  for (const auto& r : *beam_results) {
    found_pair |= r.shots == (std::vector<ShotId>{2, 3});
  }
  EXPECT_TRUE(found_pair);
}

TEST_F(GapConstraintTest, ExhaustiveHonorsGap) {
  ExhaustiveMatcher matcher(model_, catalog_);
  const auto tight = *CompileQuery("free_kick ;<1 corner_kick", vocab_);
  auto results = matcher.Retrieve(tight);
  ASSERT_TRUE(results.ok());
  for (const auto& r : *results) {
    // Exhaustive scores *similar* shots too, but never beyond the gap.
    const auto positions_ok = [&] {
      const ShotRecord& a = catalog_.shot(r.shots[0]);
      const ShotRecord& b = catalog_.shot(r.shots[1]);
      if (a.video_id != b.video_id) return false;
      const auto annotated = catalog_.AnnotatedShots(a.video_id);
      int pa = -1, pb = -1;
      for (size_t i = 0; i < annotated.size(); ++i) {
        if (annotated[i] == a.id) pa = static_cast<int>(i);
        if (annotated[i] == b.id) pb = static_cast<int>(i);
      }
      return pa >= 0 && pb >= 0 && pb - pa <= 1;
    }();
    EXPECT_TRUE(positions_ok);
  }
}

TEST_F(GapConstraintTest, IndexJoinHonorsGap) {
  const EventIndex index(catalog_);
  IndexJoinMatcher matcher(model_, catalog_, index);
  const auto tight = *CompileQuery("free_kick ;<1 corner_kick", vocab_);
  auto results = matcher.Retrieve(tight);
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results->size(), 1u);
  EXPECT_EQ(results->front().shots, (std::vector<ShotId>{2, 3}));
}

TEST_F(GapConstraintTest, GapDisablesCrossVideoHops) {
  TraversalOptions options;
  options.cross_video = true;
  HmmmTraversal traversal(model_, *event_index_, options);
  // Three goals within gap 1 cannot span videos.
  TemporalPattern pattern = TemporalPattern::FromEvents({0, 0, 0});
  pattern.steps[1].max_gap = 1;
  pattern.steps[2].max_gap = 1;
  auto results = traversal.Retrieve(pattern);
  ASSERT_TRUE(results.ok());
  for (const auto& r : *results) {
    EXPECT_FALSE(r.crosses_videos);
  }
}

TEST_F(GapConstraintTest, WiderGapSupersetOfTighter) {
  // On a generated corpus, everything matching gap<=1 also matches
  // gap<=3 and the unbounded pattern.
  const VideoCatalog catalog = testing::GeneratedSoccerCatalog(61, 8);
  const auto tight = *CompileQuery("free_kick ;<1 goal", vocab_);
  const auto wide = *CompileQuery("free_kick ;<3 goal", vocab_);
  const auto unbounded = *CompileQuery("free_kick ; goal", vocab_);
  const auto t = EnumerateTrueOccurrences(catalog, tight);
  const auto w = EnumerateTrueOccurrences(catalog, wide);
  const auto u = EnumerateTrueOccurrences(catalog, unbounded);
  EXPECT_LE(t.size(), w.size());
  EXPECT_LE(w.size(), u.size());
  for (const auto& occurrence : t) {
    EXPECT_TRUE(PatternMatchesAnnotations(catalog, occurrence, wide));
    EXPECT_TRUE(PatternMatchesAnnotations(catalog, occurrence, unbounded));
  }
}

}  // namespace
}  // namespace hmmm
