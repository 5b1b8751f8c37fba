// Equivalence oracle for the query-plan layer: a straight port of the
// pre-plan traversal (per-call B2 scans, per-shot catalog annotation
// checks, O(length) path copies, one un-memoized scorer).
// HmmmTraversal must reproduce its rankings, scores, edge weights and
// deterministic cost counters bit-for-bit, with and without tracing — the
// query-plan layer is an optimization, never a semantic change.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/model_builder.h"
#include "observability/query_trace.h"
#include "retrieval/traversal.h"
#include "test_util.h"

namespace hmmm {
namespace {

struct RefPath {
  std::vector<int> states;
  std::vector<double> edge_weights;
  double last_weight = 0.0;
  double score_sum = 0.0;
  VideoId current_video = -1;
  bool crossed_video = false;
};

/// The seed algorithm, verbatim modulo tracing and parallelism: identical
/// floating-point expression order, identical candidate generation order,
/// identical pruning and tie-breaks.
class ReferenceTraversal {
 public:
  ReferenceTraversal(const HierarchicalModel& model,
                     const VideoCatalog& catalog, TraversalOptions options)
      : model_(model), catalog_(catalog), options_(std::move(options)) {}

  std::vector<RetrievedPattern> Retrieve(const TemporalPattern& pattern,
                                         RetrievalStats* stats) const {
    SimilarityScorer scorer(model_, options_.scorer);
    std::vector<VideoId> order = VideoOrder(pattern);
    if (options_.max_videos >= 0 &&
        order.size() > static_cast<size_t>(options_.max_videos)) {
      order.resize(static_cast<size_t>(options_.max_videos));
    }

    struct Candidate {
      RetrievedPattern pattern;
      size_t order_index = 0;
    };
    std::vector<Candidate> survivors;
    for (size_t i = 0; i < order.size(); ++i) {
      RetrievedPattern candidate;
      if (TraverseVideo(order[i], pattern, scorer, stats, &candidate)) {
        survivors.push_back({std::move(candidate), i});
      }
    }
    std::sort(survivors.begin(), survivors.end(),
              [](const Candidate& a, const Candidate& b) {
                if (a.pattern.score != b.pattern.score) {
                  return a.pattern.score > b.pattern.score;
                }
                return a.order_index < b.order_index;
              });
    const auto top_k = static_cast<size_t>(options_.max_results);
    if (survivors.size() > top_k) survivors.resize(top_k);
    std::vector<RetrievedPattern> results;
    for (Candidate& c : survivors) results.push_back(std::move(c.pattern));
    if (stats != nullptr) stats->sim_evaluations = scorer.evaluations();
    return results;
  }

  std::vector<VideoId> VideoOrder(const TemporalPattern& pattern) const {
    const size_t m = model_.num_videos();
    std::vector<VideoId> order;
    if (m == 0 || pattern.empty()) return order;
    std::vector<bool> visited(m, false);
    std::vector<VideoId> containing;
    for (size_t v = 0; v < m; ++v) {
      if (VideoContainsStep(static_cast<VideoId>(v), pattern.steps.front())) {
        containing.push_back(static_cast<VideoId>(v));
      }
    }
    VideoId previous = -1;
    for (size_t picked = 0; picked < containing.size(); ++picked) {
      VideoId best = -1;
      double best_score = -1.0;
      for (VideoId v : containing) {
        if (visited[static_cast<size_t>(v)]) continue;
        const double score =
            previous < 0 ? model_.pi2()[static_cast<size_t>(v)]
                         : model_.a2().at(static_cast<size_t>(previous),
                                          static_cast<size_t>(v));
        if (score > best_score) {
          best_score = score;
          best = v;
        }
      }
      if (best < 0) break;
      visited[static_cast<size_t>(best)] = true;
      order.push_back(best);
      previous = best;
    }
    std::vector<VideoId> rest;
    for (size_t v = 0; v < m; ++v) {
      if (!visited[v]) rest.push_back(static_cast<VideoId>(v));
    }
    std::stable_sort(rest.begin(), rest.end(), [&](VideoId a, VideoId b) {
      return model_.pi2()[static_cast<size_t>(a)] >
             model_.pi2()[static_cast<size_t>(b)];
    });
    order.insert(order.end(), rest.begin(), rest.end());
    return order;
  }

 private:
  bool VideoContainsStep(VideoId v, const PatternStep& step) const {
    for (const auto& alternative : step.alternatives) {
      bool all_present = true;
      for (EventId e : alternative) {
        if (model_.b2().at(static_cast<size_t>(v), static_cast<size_t>(e)) <=
            0.0) {
          all_present = false;
          break;
        }
      }
      if (all_present) return true;
    }
    return false;
  }

  bool ShotAnnotatedForStep(ShotId shot, const PatternStep& step) const {
    const ShotRecord& record = catalog_.shot(shot);
    for (const auto& alternative : step.alternatives) {
      bool all = true;
      for (EventId e : alternative) {
        if (!record.HasEvent(e)) {
          all = false;
          break;
        }
      }
      if (all) return true;
    }
    return false;
  }

  std::vector<int> CandidateStates(const LocalShotModel& local, int first,
                                   int last, const PatternStep& step,
                                   RetrievalStats* stats) const {
    const int n = std::min(static_cast<int>(local.num_states()), last + 1);
    std::vector<int> all;
    std::vector<int> annotated;
    for (int t = first; t < n; ++t) {
      all.push_back(t);
      if (options_.annotated_first &&
          ShotAnnotatedForStep(local.states[static_cast<size_t>(t)], step)) {
        annotated.push_back(t);
      }
    }
    if (!annotated.empty()) return annotated;
    if (stats != nullptr && options_.annotated_first && !all.empty()) {
      ++stats->annotated_fallbacks;
    }
    return all;
  }

  std::vector<RefPath> ExpandWithinVideo(const RefPath& path,
                                         const PatternStep& step,
                                         const SimilarityScorer& scorer,
                                         RetrievalStats* stats) const {
    std::vector<RefPath> expansions;
    const LocalShotModel& local = model_.local(path.current_video);
    const int n = static_cast<int>(local.num_states());
    if (n == 0) return expansions;
    const int current_global = path.states.back();
    const ShotId current_shot = model_.ShotOfGlobalState(current_global);
    int current_local = -1;
    for (int i = 0; i < n; ++i) {
      if (local.states[static_cast<size_t>(i)] == current_shot) {
        current_local = i;
        break;
      }
    }
    HMMM_CHECK(current_local >= 0);
    const int first_next =
        options_.allow_same_shot ? current_local : current_local + 1;
    const int last_next =
        step.max_gap >= 0 ? current_local + step.max_gap : n - 1;
    for (int t : CandidateStates(local, first_next, last_next, step, stats)) {
      const double transition = local.a1.at(static_cast<size_t>(current_local),
                                            static_cast<size_t>(t));
      if (transition <= 0.0) continue;
      const int next_global =
          model_.GlobalStateOf(local.states[static_cast<size_t>(t)]);
      const double sim = scorer.StepSimilarity(next_global, step);
      const double weight = path.last_weight * transition * sim;
      if (stats != nullptr) ++stats->states_visited;
      RefPath extended = path;
      extended.states.push_back(next_global);
      extended.edge_weights.push_back(weight);
      extended.last_weight = weight;
      extended.score_sum += weight;
      expansions.push_back(std::move(extended));
    }
    return expansions;
  }

  std::vector<RefPath> ExpandCrossVideo(const RefPath& path,
                                        const PatternStep& step,
                                        const SimilarityScorer& scorer,
                                        RetrievalStats* stats) const {
    std::vector<RefPath> expansions;
    std::vector<VideoId> candidates;
    for (size_t v = 0; v < model_.num_videos(); ++v) {
      const auto video = static_cast<VideoId>(v);
      if (video == path.current_video) continue;
      if (model_.local(video).num_states() == 0) continue;
      if (!VideoContainsStep(video, step)) continue;
      candidates.push_back(video);
    }
    std::stable_sort(candidates.begin(), candidates.end(),
                     [&](VideoId a, VideoId b) {
                       const auto from =
                           static_cast<size_t>(path.current_video);
                       return model_.a2().at(from, static_cast<size_t>(a)) >
                              model_.a2().at(from, static_cast<size_t>(b));
                     });
    if (candidates.size() > static_cast<size_t>(options_.beam_width)) {
      candidates.resize(static_cast<size_t>(options_.beam_width));
    }
    for (VideoId video : candidates) {
      const LocalShotModel& local = model_.local(video);
      const double hop = model_.a2().at(
          static_cast<size_t>(path.current_video), static_cast<size_t>(video));
      for (int ti : CandidateStates(
               local, 0, static_cast<int>(local.num_states()) - 1, step,
               stats)) {
        const auto t = static_cast<size_t>(ti);
        const int next_global = model_.GlobalStateOf(local.states[t]);
        const double sim = scorer.StepSimilarity(next_global, step);
        const double weight = path.last_weight * hop * local.pi1[t] * sim;
        if (stats != nullptr) ++stats->states_visited;
        RefPath extended = path;
        extended.states.push_back(next_global);
        extended.edge_weights.push_back(weight);
        extended.last_weight = weight;
        extended.score_sum += weight;
        extended.crossed_video = true;
        extended.current_video = video;
        expansions.push_back(std::move(extended));
      }
    }
    return expansions;
  }

  bool TraverseVideo(VideoId video, const TemporalPattern& pattern,
                     const SimilarityScorer& scorer, RetrievalStats* stats,
                     RetrievedPattern* out) const {
    const LocalShotModel& local = model_.local(video);
    if (local.num_states() == 0) return false;
    RetrievalStats video_stats;
    ++video_stats.videos_considered;
    const auto beam = static_cast<size_t>(options_.beam_width);
    std::vector<RefPath> beam_paths;
    for (int ii :
         CandidateStates(local, 0, static_cast<int>(local.num_states()) - 1,
                         pattern.steps.front(), &video_stats)) {
      const auto i = static_cast<size_t>(ii);
      const int global = model_.GlobalStateOf(local.states[i]);
      const double weight =
          local.pi1[i] * scorer.StepSimilarity(global, pattern.steps.front());
      ++video_stats.states_visited;
      RefPath path;
      path.states = {global};
      path.edge_weights = {weight};
      path.last_weight = weight;
      path.score_sum = weight;
      path.current_video = video;
      beam_paths.push_back(std::move(path));
    }
    std::stable_sort(beam_paths.begin(), beam_paths.end(),
                     [](const RefPath& a, const RefPath& b) {
                       return a.last_weight > b.last_weight;
                     });
    if (beam_paths.size() > beam) {
      video_stats.beam_pruned += beam_paths.size() - beam;
      beam_paths.resize(beam);
    }
    for (size_t j = 1; j < pattern.size() && !beam_paths.empty(); ++j) {
      std::vector<RefPath> expansions;
      for (const RefPath& path : beam_paths) {
        std::vector<RefPath> within =
            ExpandWithinVideo(path, pattern.steps[j], scorer, &video_stats);
        if (within.empty() && options_.cross_video &&
            pattern.steps[j].max_gap < 0) {
          within =
              ExpandCrossVideo(path, pattern.steps[j], scorer, &video_stats);
        }
        for (RefPath& p : within) expansions.push_back(std::move(p));
      }
      std::stable_sort(expansions.begin(), expansions.end(),
                       [](const RefPath& a, const RefPath& b) {
                         return a.last_weight > b.last_weight;
                       });
      if (expansions.size() > beam) {
        video_stats.beam_pruned += expansions.size() - beam;
        expansions.resize(beam);
      }
      beam_paths = std::move(expansions);
    }
    bool found = false;
    if (!beam_paths.empty()) {
      const RefPath* best = &beam_paths.front();
      for (const RefPath& p : beam_paths) {
        if (p.score_sum > best->score_sum) best = &p;
      }
      out->shots.clear();
      for (int state : best->states) {
        out->shots.push_back(model_.ShotOfGlobalState(state));
      }
      out->edge_weights = best->edge_weights;
      out->score = best->score_sum;
      out->video = video;
      out->crosses_videos = best->crossed_video;
      ++video_stats.candidates_scored;
      found = true;
    }
    if (stats != nullptr) {
      stats->videos_considered += video_stats.videos_considered;
      stats->states_visited += video_stats.states_visited;
      stats->candidates_scored += video_stats.candidates_scored;
      stats->beam_pruned += video_stats.beam_pruned;
      stats->annotated_fallbacks += video_stats.annotated_fallbacks;
    }
    return found;
  }

  const HierarchicalModel& model_;
  const VideoCatalog& catalog_;
  TraversalOptions options_;
};

void ExpectIdenticalResults(const std::vector<RetrievedPattern>& expected,
                            const std::vector<RetrievedPattern>& actual,
                            const std::string& label) {
  ASSERT_EQ(expected.size(), actual.size()) << label;
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i].shots, actual[i].shots) << label << " rank " << i;
    EXPECT_EQ(expected[i].score, actual[i].score) << label << " rank " << i;
    EXPECT_EQ(expected[i].edge_weights, actual[i].edge_weights)
        << label << " rank " << i;
    EXPECT_EQ(expected[i].video, actual[i].video) << label << " rank " << i;
    EXPECT_EQ(expected[i].crosses_videos, actual[i].crosses_videos)
        << label << " rank " << i;
  }
}

struct Workload {
  std::string name;
  TemporalPattern pattern;
  TraversalOptions options;
};

std::vector<Workload> Workloads() {
  std::vector<Workload> workloads;
  {
    Workload w;
    w.name = "two_step_greedy";
    w.pattern = TemporalPattern::FromEvents({2, 0});
    workloads.push_back(std::move(w));
  }
  {
    Workload w;
    w.name = "three_step_beam4";
    w.pattern = TemporalPattern::FromEvents({2, 0, 1});
    w.options.beam_width = 4;
    workloads.push_back(std::move(w));
  }
  {
    Workload w;
    w.name = "gap_bounded_beam2";
    w.pattern = TemporalPattern::FromEvents({2, 0});
    w.pattern.steps[1].max_gap = 3;
    w.options.beam_width = 2;
    workloads.push_back(std::move(w));
  }
  {
    Workload w;
    w.name = "cross_video_beam2";
    w.pattern = TemporalPattern::FromEvents({1, 3, 0});
    w.options.beam_width = 2;
    w.options.cross_video = true;
    workloads.push_back(std::move(w));
  }
  {
    Workload w;
    w.name = "similarity_only_beam8";
    w.pattern = TemporalPattern::FromEvents({2, 0});
    w.options.beam_width = 8;
    w.options.annotated_first = false;
    workloads.push_back(std::move(w));
  }
  {
    Workload w;
    w.name = "compound_alternatives";
    PatternStep first;
    first.alternatives = {{2, 0}, {1}};
    PatternStep second;
    second.alternatives = {{0}};
    w.pattern.steps = {first, second};
    w.options.beam_width = 3;
    workloads.push_back(std::move(w));
  }
  {
    Workload w;
    w.name = "top3_of_many";
    w.pattern = TemporalPattern::FromEvents({0, 2});
    w.options.beam_width = 4;
    w.options.max_results = 3;
    workloads.push_back(std::move(w));
  }
  return workloads;
}

class ReferenceEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ReferenceEquivalenceTest, PlanLayerIsByteIdenticalToTheNaiveWalk) {
  const VideoCatalog catalog =
      testing::GeneratedSoccerCatalog(GetParam(), /*num_videos=*/14);
  auto built = ModelBuilder(catalog).Build();
  ASSERT_TRUE(built.ok());
  const HierarchicalModel model = std::move(built).value();
  const EventBitmapIndex index(model, catalog);

  for (const Workload& workload : Workloads()) {
    const ReferenceTraversal reference(model, catalog, workload.options);
    RetrievalStats ref_stats;
    const std::vector<RetrievedPattern> expected =
        reference.Retrieve(workload.pattern, &ref_stats);

    for (bool traced : {false, true}) {
      const std::string label = workload.name + (traced ? " traced" : "");
      QueryTrace trace;
      TraversalOptions options = workload.options;
      options.trace = traced ? &trace : nullptr;
      HmmmTraversal traversal(model, index, options);
      RetrievalStats stats;
      auto results = traversal.Retrieve(workload.pattern, &stats);
      ASSERT_TRUE(results.ok()) << label;
      ExpectIdenticalResults(expected, *results, label);

      // Deterministic cost counters match the naive walk exactly...
      EXPECT_EQ(stats.videos_considered, ref_stats.videos_considered)
          << label;
      EXPECT_EQ(stats.states_visited, ref_stats.states_visited) << label;
      EXPECT_EQ(stats.candidates_scored, ref_stats.candidates_scored)
          << label;
      EXPECT_EQ(stats.beam_pruned, ref_stats.beam_pruned) << label;
      EXPECT_EQ(stats.annotated_fallbacks, ref_stats.annotated_fallbacks)
          << label;
      EXPECT_EQ(stats.truncated, ref_stats.truncated) << label;
      // ...while the evaluation effort only shrinks: the memo removes
      // work the naive walk duplicated, and the cube-pruned frontier
      // charges a query-time evaluation only to cells whose weight is
      // actually consumed (plus each video's Step-6 argmax), never to
      // the cells its precomputed priorities prove away.
      EXPECT_LE(stats.sim_evaluations, ref_stats.sim_evaluations) << label;
      // Every grid cell resolves to exactly one of paid (heap_pops) or
      // proved-away (grid_cells_skipped).
      EXPECT_EQ(stats.states_visited,
                stats.heap_pops + stats.grid_cells_skipped)
          << label;
      if (workload.options.beam_width == 1) {
        // A beam-1 walk follows a single path, so each (state, step)
        // pair is paid at most once: the memo never fires.
        EXPECT_EQ(stats.sim_memo_hits, 0u) << label;
      }
    }
  }
}

// The acceptance sweep: the cube-pruned best-first traversal against the
// reference breadth-first walk across beams {1, 2, 8, 16} and both
// Eq.-14 kernels (runtime pick vs. forced scalar). Rankings, scores and
// edge weights must be byte-identical in every cell of the grid; the
// heap_pops / grid_cells_skipped counters must be invariant across
// kernel choices (kernels produce identical bits), and every visited
// grid cell must resolve to exactly one of the two.
TEST_P(ReferenceEquivalenceTest, CubePrunedSweepIsByteIdenticalEverywhere) {
  const VideoCatalog catalog =
      testing::GeneratedSoccerCatalog(GetParam(), /*num_videos=*/14);
  auto built = ModelBuilder(catalog).Build();
  ASSERT_TRUE(built.ok());
  const HierarchicalModel model = std::move(built).value();
  const EventBitmapIndex index(model, catalog);
  const auto pattern = TemporalPattern::FromEvents({2, 0, 1});

  for (int beam : {1, 2, 8, 16}) {
    TraversalOptions ref_options;
    ref_options.beam_width = beam;
    const ReferenceTraversal reference(model, catalog, ref_options);
    RetrievalStats ref_stats;
    const std::vector<RetrievedPattern> expected =
        reference.Retrieve(pattern, &ref_stats);

    bool have_first = false;
    size_t first_heap_pops = 0;
    size_t first_skipped = 0;
    size_t first_evaluations = 0;
    for (bool force_scalar : {false, true}) {
      const std::string label =
          "beam=" + std::to_string(beam) +
          (force_scalar ? " kernel=scalar" : " kernel=auto");
      TraversalOptions options;
      options.beam_width = beam;
      options.scorer.force_scalar_kernel = force_scalar;
      HmmmTraversal traversal(model, index, options);
      RetrievalStats stats;
      auto results = traversal.Retrieve(pattern, &stats);
      ASSERT_TRUE(results.ok()) << label;
      ExpectIdenticalResults(expected, *results, label);

      // Structural counters are pinned to the reference walk.
      EXPECT_EQ(stats.states_visited, ref_stats.states_visited) << label;
      EXPECT_EQ(stats.beam_pruned, ref_stats.beam_pruned) << label;
      EXPECT_LE(stats.sim_evaluations, ref_stats.sim_evaluations) << label;
      EXPECT_EQ(stats.states_visited,
                stats.heap_pops + stats.grid_cells_skipped)
          << label;

      // The pay/skip split is identical for both kernels: bit-identical
      // sims select bit-identical winners.
      if (!have_first) {
        first_heap_pops = stats.heap_pops;
        first_skipped = stats.grid_cells_skipped;
        first_evaluations = stats.sim_evaluations;
        have_first = true;
      }
      EXPECT_EQ(stats.heap_pops, first_heap_pops) << label;
      EXPECT_EQ(stats.grid_cells_skipped, first_skipped) << label;
      EXPECT_EQ(stats.sim_evaluations, first_evaluations) << label;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomizedModels, ReferenceEquivalenceTest,
                         ::testing::Values(3u, 11u, 29u, 47u));

TEST(ReferenceEquivalenceTest, VideoOrderMatchesTheNaiveScan) {
  const VideoCatalog catalog = testing::GeneratedSoccerCatalog(11, 10);
  auto built = ModelBuilder(catalog).Build();
  ASSERT_TRUE(built.ok());
  const HierarchicalModel model = std::move(built).value();
  const ReferenceTraversal reference(model, catalog, TraversalOptions{});
  const EventBitmapIndex index(model, catalog);
  HmmmTraversal traversal(model, index);
  for (EventId e : {0, 1, 2, 3}) {
    const auto pattern = TemporalPattern::FromEvents({e, 0});
    EXPECT_EQ(traversal.VideoOrder(pattern), reference.VideoOrder(pattern))
        << "event " << e;
  }
}

}  // namespace
}  // namespace hmmm
