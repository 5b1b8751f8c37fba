#include "observability/query_trace.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/model_builder.h"
#include "retrieval/traversal.h"
#include "test_util.h"

namespace hmmm {
namespace {

TEST(QueryTraceTest, RecordsSpanTreeWithCounters) {
  QueryTrace trace;
  {
    ScopedSpan root(&trace, "root");
    // Explicit sort keys override insertion order among siblings.
    ScopedSpan late(&trace, "late", root.id(), /*sort_key=*/5);
    ScopedSpan early(&trace, "early", root.id(), /*sort_key=*/2);
    early.Counter("n", 7);
  }
  const std::vector<TraceSpan> spans = trace.Spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].name, "root");
  EXPECT_EQ(spans[1].name, "early");
  EXPECT_EQ(spans[2].name, "late");
  for (const TraceSpan& span : spans) EXPECT_TRUE(span.finished);
  ASSERT_EQ(spans[1].counters.size(), 1u);
  EXPECT_EQ(spans[1].counters[0].first, "n");
  EXPECT_EQ(spans[1].counters[0].second, 7u);

  const std::string tree = trace.RenderTree();
  EXPECT_NE(tree.find("root"), std::string::npos);
  ASSERT_NE(tree.find("  early"), std::string::npos);
  ASSERT_NE(tree.find("  late"), std::string::npos);
  EXPECT_LT(tree.find("  early"), tree.find("  late"));

  const std::string jsonl = trace.RenderJsonl();
  EXPECT_NE(jsonl.find("\"name\":\"early\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"counters\":{\"n\":7}"), std::string::npos);
  // One line per span.
  size_t lines = 0;
  for (char c : jsonl) lines += c == '\n' ? 1 : 0;
  EXPECT_EQ(lines, 3u);
}

TEST(QueryTraceTest, RepeatedCounterNamesAccumulate) {
  // Documented contract: counter names are unique within a span and
  // values are additive, so shard-merge paths can tally into one entry.
  QueryTrace trace;
  const int id = trace.BeginSpan("merge");
  trace.AddCounter(id, "videos_skipped", 3);
  trace.AddCounter(id, "videos_skipped", 4);
  trace.AddCounter(id, "other", 1);
  trace.EndSpan(id);
  const std::vector<TraceSpan> spans = trace.Spans();
  ASSERT_EQ(spans.size(), 1u);
  ASSERT_EQ(spans[0].counters.size(), 2u);
  EXPECT_EQ(spans[0].counters[0].first, "videos_skipped");
  EXPECT_EQ(spans[0].counters[0].second, 7u);
  EXPECT_NE(trace.RenderJsonl().find("\"videos_skipped\":7"),
            std::string::npos);
}

TEST(QueryTraceTest, RepeatedAttributeNamesOverwrite) {
  QueryTrace trace;
  const int id = trace.BeginSpan("tagged");
  trace.AddAttribute(id, "shard", "0");
  trace.AddAttribute(id, "shard", "2");
  trace.AddAttribute(id, "endpoint", "127.0.0.1:9001");
  trace.EndSpan(id);
  const std::vector<TraceSpan> spans = trace.Spans();
  ASSERT_EQ(spans.size(), 1u);
  ASSERT_EQ(spans[0].attributes.size(), 2u);
  EXPECT_EQ(spans[0].attributes[0].first, "shard");
  EXPECT_EQ(spans[0].attributes[0].second, "2");
  EXPECT_NE(trace.RenderJsonl().find("\"shard\":\"2\""), std::string::npos);
}

TEST(QueryTraceTest, ReparentRootsAdoptsOrphanPhases) {
  // The serving layer opens its per-request span, runs the traversal
  // (whose phase spans open as roots), then adopts them.
  QueryTrace trace;
  const int server = trace.BeginSpan("server_query");
  const int phase1 = trace.BeginSpan("step2_video_order");
  trace.EndSpan(phase1);
  const int phase2 = trace.BeginSpan("step8_9_merge_rank");
  trace.EndSpan(phase2);
  trace.ReparentRoots(server);
  trace.EndSpan(server);
  for (const TraceSpan& span : trace.Spans()) {
    if (span.id == server) {
      EXPECT_EQ(span.parent, -1);
    } else {
      EXPECT_EQ(span.parent, server);
    }
  }
  const std::string tree = trace.RenderTree();
  EXPECT_LT(tree.find("server_query"), tree.find("  step2_video_order"));
}

TEST(QueryTraceTest, FreeRenderersTreatUnknownParentsAsRoots) {
  std::vector<TraceSpan> spans;
  TraceSpan orphan;
  orphan.name = "adrift";
  orphan.id = 42;
  orphan.parent = 999;  // no such span in the forest
  orphan.finished = true;
  spans.push_back(orphan);
  TraceSpan child;
  child.name = "leaf";
  child.id = 43;
  child.parent = 42;
  child.finished = true;
  spans.push_back(child);
  const std::string tree = RenderSpanTree(spans);
  EXPECT_EQ(tree.rfind("adrift", 0), 0u);  // rendered at depth 0
  EXPECT_NE(tree.find("  leaf"), std::string::npos);
  const std::string jsonl = RenderSpansJsonl(spans);
  EXPECT_NE(jsonl.find("\"name\":\"adrift\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"depth\":1"), std::string::npos);
}

TEST(QueryTraceTest, StartOffsetsAreRelativeToTheFirstSpan) {
  QueryTrace trace;
  const int first = trace.BeginSpan("first");
  const int second = trace.BeginSpan("second");
  trace.EndSpan(second);
  trace.EndSpan(first);
  const std::vector<TraceSpan> spans = trace.Spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_DOUBLE_EQ(spans[0].start_offset_ms, 0.0);
  EXPECT_GE(spans[1].start_offset_ms, 0.0);
}

TEST(QueryTraceTest, NullTraceScopedSpanIsANoOp) {
  ScopedSpan span(nullptr, "nothing");
  span.Counter("x", 1);
  span.End();
  EXPECT_EQ(span.id(), -1);
}

TEST(QueryTraceTest, ClearResetsTheTrace) {
  QueryTrace trace;
  { ScopedSpan span(&trace, "a"); }
  EXPECT_EQ(trace.Spans().size(), 1u);
  trace.Clear();
  EXPECT_TRUE(trace.Spans().empty());
  EXPECT_EQ(trace.RenderTree(), "");
}

// -- Traversal integration ------------------------------------------------

/// The comparable skeleton of a trace: per-span name + counters in
/// pre-order. Span ids, parents and wall times legitimately differ across
/// runs; names, structure and the deterministic counters must not.
using SpanSkeleton =
    std::pair<std::string, std::vector<std::pair<std::string, uint64_t>>>;

std::vector<SpanSkeleton> Skeleton(const QueryTrace& trace) {
  std::vector<SpanSkeleton> out;
  for (const TraceSpan& span : trace.Spans()) {
    out.emplace_back(span.name, span.counters);
  }
  return out;
}

class TracedRetrievalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    catalog_ = testing::GeneratedSoccerCatalog(/*seed=*/11, /*num_videos=*/12);
    auto model = ModelBuilder(catalog_).Build();
    ASSERT_TRUE(model.ok());
    model_ = std::move(model).value();
    event_index_ = std::make_unique<EventBitmapIndex>(model_, catalog_);
  }

  VideoCatalog catalog_;
  HierarchicalModel model_;
  std::unique_ptr<EventBitmapIndex> event_index_;
};

TEST_F(TracedRetrievalTest, SerialWalkProducesThePaperPhaseStructure) {
  QueryTrace trace;
  TraversalOptions options;
  options.trace = &trace;
  HmmmTraversal traversal(model_, *event_index_, options);
  auto results = traversal.Retrieve(TemporalPattern::FromEvents({2, 0}));
  ASSERT_TRUE(results.ok());
  ASSERT_FALSE(results->empty());

  const std::vector<TraceSpan> spans = trace.Spans();
  ASSERT_GE(spans.size(), 5u);
  EXPECT_EQ(spans[0].name, "step2_video_order");
  EXPECT_EQ(spans[1].name, "query_plan_build");
  EXPECT_EQ(spans[2].name, "step7_video_fanout");
  EXPECT_EQ(spans.back().name, "step8_9_merge_rank");

  // Every per-video span sits under the fan-out and owns a lattice-walk
  // child; videos that produced a candidate also score it (Eq. 15).
  size_t videos = 0, walks = 0, scores = 0;
  for (const TraceSpan& span : spans) {
    if (span.name.rfind("video:", 0) == 0) {
      ++videos;
      EXPECT_EQ(span.parent, spans[2].id);
    }
    walks += span.name == "steps3_5_walk" ? 1 : 0;
    scores += span.name == "step6_eq15_score" ? 1 : 0;
  }
  EXPECT_GT(videos, 0u);
  EXPECT_EQ(walks, videos);
  EXPECT_LE(scores, videos);
  EXPECT_GE(scores, results->size());
}

TEST_F(TracedRetrievalTest, SpanSkeletonIsIdenticalAcrossRuns) {
  const auto pattern = TemporalPattern::FromEvents({2, 0, 1});
  QueryTrace first_trace;
  TraversalOptions options;
  options.trace = &first_trace;
  HmmmTraversal first(model_, *event_index_, options);
  ASSERT_TRUE(first.Retrieve(pattern).ok());
  const std::vector<SpanSkeleton> reference = Skeleton(first_trace);
  ASSERT_FALSE(reference.empty());

  for (int run = 0; run < 3; ++run) {
    QueryTrace trace;
    options.trace = &trace;
    HmmmTraversal again(model_, *event_index_, options);
    ASSERT_TRUE(again.Retrieve(pattern).ok());
    EXPECT_EQ(Skeleton(trace), reference) << "run " << run;
  }
}

TEST_F(TracedRetrievalTest, TracingOnAndOffRankIdentically) {
  // Span recording happens outside the score math: the ranking and every
  // cost counter must not notice an attached trace.
  for (const auto& pattern : {TemporalPattern::FromEvents({2, 0}),
                              TemporalPattern::FromEvents({2, 0, 1})}) {
    HmmmTraversal plain(model_, *event_index_);
    RetrievalStats plain_stats;
    auto reference = plain.Retrieve(pattern, &plain_stats);
    ASSERT_TRUE(reference.ok());
    ASSERT_FALSE(reference->empty());

    QueryTrace trace;
    TraversalOptions traced_options;
    traced_options.trace = &trace;
    HmmmTraversal traced(model_, *event_index_, traced_options);
    RetrievalStats stats;
    auto results = traced.Retrieve(pattern, &stats);
    ASSERT_TRUE(results.ok());
    EXPECT_FALSE(trace.Spans().empty());

    ASSERT_EQ(reference->size(), results->size());
    for (size_t i = 0; i < reference->size(); ++i) {
      EXPECT_EQ((*reference)[i].shots, (*results)[i].shots);
      EXPECT_EQ((*reference)[i].score, (*results)[i].score);
      EXPECT_EQ((*reference)[i].video, (*results)[i].video);
      EXPECT_EQ((*reference)[i].edge_weights, (*results)[i].edge_weights);
    }
    EXPECT_EQ(plain_stats.states_visited, stats.states_visited);
    EXPECT_EQ(plain_stats.sim_evaluations, stats.sim_evaluations);
    EXPECT_EQ(plain_stats.heap_pops, stats.heap_pops);
    EXPECT_EQ(plain_stats.candidates_scored, stats.candidates_scored);
    EXPECT_EQ(plain_stats.beam_pruned, stats.beam_pruned);
  }
}

TEST_F(TracedRetrievalTest, TraceAccumulatesUntilCleared) {
  QueryTrace trace;
  TraversalOptions options;
  options.trace = &trace;
  HmmmTraversal traversal(model_, *event_index_, options);
  const auto pattern = TemporalPattern::FromEvents({0});
  ASSERT_TRUE(traversal.Retrieve(pattern).ok());
  const size_t first = trace.Spans().size();
  ASSERT_TRUE(traversal.Retrieve(pattern).ok());
  EXPECT_EQ(trace.Spans().size(), 2 * first);
  trace.Clear();
  ASSERT_TRUE(traversal.Retrieve(pattern).ok());
  EXPECT_EQ(trace.Spans().size(), first);
}

}  // namespace
}  // namespace hmmm
