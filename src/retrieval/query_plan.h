#ifndef HMMM_RETRIEVAL_QUERY_PLAN_H_
#define HMMM_RETRIEVAL_QUERY_PLAN_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "core/hierarchical_model.h"
#include "query/translator.h"
#include "retrieval/eq14_kernel.h"
#include "retrieval/result.h"
#include "retrieval/scorer.h"
#include "storage/catalog.h"

namespace hmmm {

/// Fixed-size dense bitset over [0, size). Sized once; the traversal's
/// hot loops only Test/ForEachSetBit, so a plain word array beats
/// std::vector<bool> (word-at-a-time AND/OR) and avoids per-bit bounds
/// logic.
class DenseBitset {
 public:
  DenseBitset() = default;
  explicit DenseBitset(size_t size)
      : size_(size), words_((size + 63) / 64, 0) {}

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  void Set(size_t i) { words_[i >> 6] |= uint64_t{1} << (i & 63); }
  bool Test(size_t i) const {
    return (words_[i >> 6] >> (i & 63)) & uint64_t{1};
  }

  /// Number of set bits.
  size_t Count() const;
  bool Any() const;

  /// this &= other / this |= other; both operands must be equally sized.
  void AndWith(const DenseBitset& other);
  void OrWith(const DenseBitset& other);
  /// Sets every bit in [0, size).
  void SetAll();
  void Reset();

  /// Calls fn(i) for every set bit in increasing order.
  template <typename Fn>
  void ForEachSetBit(Fn&& fn) const {
    for (size_t w = 0; w < words_.size(); ++w) {
      uint64_t word = words_[w];
      while (word != 0) {
        const int bit = __builtin_ctzll(word);
        fn((w << 6) | static_cast<size_t>(bit));
        word &= word - 1;
      }
    }
  }

 private:
  size_t size_ = 0;
  std::vector<uint64_t> words_;
};

/// Model-tier index of the query-plan layer: inverted event bitsets
/// derived from one (model, catalog) pair. Built once per model version
/// and shared read-only by every traversal (RetrievalEngine caches one
/// instance keyed by HierarchicalModel::version(), the same counter the
/// query-result cache uses for invalidation).
///
///  - VideosWithEvent(e): bitset over VideoId with B2(v, e) > 0,
///    replacing the per-call B2 row scans of Step 2 / Fig. 3 hand-over.
///  - AnnotatedStates(v, e): bitset over video v's *local* state indices
///    whose shot is annotated with e, replacing the per-expansion
///    ShotRecord::HasEvent loops of Step 3. Built by walking the
///    catalog's EventIndex postings (event -> shots), so construction is
///    O(annotations), not O(states x events).
///  - EventSimilarity(s, e): the EXACT Eq.-14 similarity of every
///    (global state, event) pair under default scorer options,
///    precomputed with one SoA batch-kernel call per event over a
///    32-byte-aligned feature-major transpose of B1. The cube-pruned
///    traversal orders its frontier by these, so only near-winning hops
///    pay a query-time Eq.-14/15 evaluation (DESIGN.md §5.1).
class EventBitmapIndex {
 public:
  /// Both references are only read during construction. The built index
  /// snapshots model.version(); FreshFor() tells a caching layer when a
  /// rebuild is due. `kernel` selects the Eq.-14 batch kernel for the
  /// sim precomputation (default: runtime CPU pick); every kernel
  /// produces identical bits, so the choice only affects build time —
  /// exposed for the scalar-vs-SIMD A/B benches.
  EventBitmapIndex(const HierarchicalModel& model, const VideoCatalog& catalog,
                   Eq14Kernel kernel = DefaultEq14Kernel());

  /// Adopts precomputed exact Eq.-14 sims instead of running the batch
  /// kernel — the snapshot fast path: SnapshotReader hands in the frozen
  /// `event_sims` section as a borrowed matrix (zero copies) plus the
  /// centroid epsilon it was computed with, and only the cheap bitsets
  /// (O(annotations)) are rebuilt here. The caller vouches that
  /// `event_sims` is events x global-states for exactly this (model,
  /// catalog) pair; the writer froze what the kernel constructor would
  /// have produced, so query results stay bit-identical.
  EventBitmapIndex(const HierarchicalModel& model, const VideoCatalog& catalog,
                   Matrix event_sims, double centroid_epsilon);

  uint64_t model_version() const { return model_version_; }
  bool FreshFor(const HierarchicalModel& model) const {
    return model_version_ == model.version();
  }

  size_t num_videos() const { return num_videos_; }
  size_t num_events() const { return num_events_; }

  /// True iff B2(video, event) > 0 — the video carries the event.
  bool VideoHasEvent(VideoId video, EventId event) const {
    return video_events_[static_cast<size_t>(event)].Test(
        static_cast<size_t>(video));
  }
  const DenseBitset& VideosWithEvent(EventId event) const {
    return video_events_[static_cast<size_t>(event)];
  }
  /// Videos with at least one local state (empty locals cannot host a
  /// candidate path).
  const DenseBitset& NonEmptyVideos() const { return nonempty_videos_; }

  /// Local states of `video` annotated with `event`.
  const DenseBitset& AnnotatedStates(VideoId video, EventId event) const {
    return shot_events_[static_cast<size_t>(video) * num_events_ +
                        static_cast<size_t>(event)];
  }

  /// Step-level containment (Step 2): some alternative of `step` has all
  /// its events present in the video per B2.
  bool VideoContainsStep(VideoId video, const PatternStep& step) const;

  /// Bitset of all videos containing `step` (OR over alternatives of AND
  /// over the alternative's event bitsets).
  DenseBitset VideosContainingStep(const PatternStep& step) const;

  /// Fills `out` (sized to the video's local state count) with the local
  /// states annotated for `step`: OR over alternatives of AND over
  /// per-event bitsets.
  void StatesAnnotatedForStep(VideoId video, const PatternStep& step,
                              DenseBitset* out) const;

  /// Precomputed Eq.-14 similarity of `global_state` to `event`. Bit-for-
  /// bit equal to what a SimilarityScorer computes at query time — the
  /// batch and row kernels share one association order — but ONLY under
  /// the options HasExactSims() accepts.
  double EventSimilarity(int global_state, EventId event) const {
    return event_sims_.at(static_cast<size_t>(event),
                          static_cast<size_t>(global_state));
  }

  /// True when the precomputed sims are valid for `options`: the default
  /// centroid epsilon and no feature subset. Kernel choice is irrelevant
  /// (all kernels produce identical bits). When this is false, QueryPlan
  /// falls back to +infinity priorities, which degrades the cube-pruned
  /// search to evaluating every cell — same results, no saving.
  bool HasExactSims(const ScorerOptions& options) const {
    return options.feature_subset.empty() &&
           options.centroid_epsilon == centroid_epsilon_;
  }

  /// The precomputed sims table and the epsilon it was built with —
  /// what SnapshotWriter freezes so no index rebuild is needed at open.
  const Matrix& event_sims() const { return event_sims_; }
  double sims_centroid_epsilon() const { return centroid_epsilon_; }

 private:
  /// Shared bitset construction of both constructors: B2 containment
  /// bitsets, non-empty videos, per-(video, event) local-state bitsets
  /// from the inverted event index.
  void BuildBitsets(const HierarchicalModel& model,
                    const VideoCatalog& catalog);
  uint64_t model_version_ = 0;
  size_t num_videos_ = 0;
  size_t num_events_ = 0;
  std::vector<DenseBitset> video_events_;  // [event] -> videos
  DenseBitset nonempty_videos_;
  std::vector<DenseBitset> shot_events_;   // [video*E + event] -> local states
  double centroid_epsilon_ = 0.0;  // epsilon event_sims_ was built with
  Matrix event_sims_;              // [event][global state] exact Eq.-14 sims
};

/// Query-tier scratch of the query-plan layer: one instance per
/// Retrieve() call, used by the calling thread only. Owns the query's
/// SimilarityScorer and
/// three caches that make the per-video lattice walk (Steps 3-6)
/// beam-size-independent in its redundant work:
///
///  - a flat (global state x pattern step) memo of Eq.-15 StepSimilarity
///    values, so each pair is scored at most once per video walk,
///  - per-(video, step) candidate-state lists (the Step-3 "annotated as
///    e_j" set), computed from the model-tier bitsets once and sliced per
///    beam path instead of rescanned,
///  - a parent-pointer path arena replacing O(length) Path copies per
///    expansion; survivors are materialized only at Step 6.
///
/// All caches are scoped to one video walk (BeginVideoWalk bumps an
/// epoch): each video is walked exactly once per query, and the per-walk
/// scope keeps every RetrievalStats counter — including sim_evaluations
/// and the new sim_memo_hits / candidate_list_reuse — a per-video sum
/// that does not depend on which videos were walked before, because a
/// walk never observes another walk's cache.
class QueryPlan {
 public:
  /// One arena node: the path edge into `state` with Eq.-13 weight
  /// `weight`, linked to the previous hop through `parent` (-1 = path
  /// head).
  struct PathNode {
    double weight = 0.0;
    int32_t parent = -1;
    int32_t state = -1;
  };

  /// All references must outlive the plan; `index` must be fresh for
  /// `model`.
  QueryPlan(const HierarchicalModel& model, const EventBitmapIndex& index,
            const TemporalPattern& pattern, const ScorerOptions& scorer_options);

  const EventBitmapIndex& index() const { return index_; }
  const TemporalPattern& pattern() const { return pattern_; }
  SimilarityScorer& scorer() { return scorer_; }
  const SimilarityScorer& scorer() const { return scorer_; }

  /// Starts a new per-video walk: invalidates the memo and candidate
  /// caches (O(1) epoch bump) and resets the path arena.
  void BeginVideoWalk();

  /// Memoized Eq.-15 similarity of `state` to pattern step `step_index`.
  /// First call per walk evaluates through the scorer; repeats are served
  /// from the memo and counted in memo_hits().
  double StepSimilarity(int state, size_t step_index);

  /// The priority oracle of the cube-pruned frontier: when
  /// exact_priorities() is true this returns EXACTLY the value
  /// StepSimilarity would (the index's precomputed per-event sims,
  /// combined at plan build with the same sum-in-order / divide / max-by
  /// arithmetic into a flat (state x step) table), without touching the
  /// scorer or its evaluation counter. Otherwise it returns +infinity —
  /// an admissible bound that makes every frontier cell pop, reproducing
  /// the unpruned search.
  double StepPriority(int state, size_t step_index) const {
    if (!exact_priorities_) {
      return std::numeric_limits<double>::infinity();
    }
    return priorities_[static_cast<size_t>(state) * num_steps_ + step_index];
  }

  /// True when the index's precomputed sims match this plan's scorer
  /// options, i.e. StepPriority is exact rather than +infinity.
  bool exact_priorities() const { return exact_priorities_; }

  /// Sorted local states of `video` annotated for step `step_index`
  /// (Step 3's candidate set before range slicing). Computed once per
  /// walk per (video, step); repeats are counted in candidate_reuse().
  const std::vector<int>& AnnotatedStates(VideoId video, size_t step_index);

  // -- Path arena -------------------------------------------------------
  /// Appends a node and returns its arena id.
  int AddPathNode(int parent, int state, double weight) {
    arena_.push_back(PathNode{weight, parent, state});
    return static_cast<int>(arena_.size()) - 1;
  }
  const PathNode& node(int id) const {
    return arena_[static_cast<size_t>(id)];
  }
  /// Writes the path ending at `id` into `states`/`weights` in temporal
  /// (head-first) order.
  void MaterializePath(int id, std::vector<ShotId>* shots,
                       std::vector<double>* weights) const;

  /// Served-from-memo StepSimilarity calls since construction.
  size_t memo_hits() const { return memo_hits_; }
  /// AnnotatedStates calls served from the per-walk cache.
  size_t candidate_reuse() const { return candidate_reuse_; }

 private:
  const HierarchicalModel& model_;
  const EventBitmapIndex& index_;
  const TemporalPattern& pattern_;
  SimilarityScorer scorer_;

  // Starts above the stamp vectors' zero-fill so a plan is consistent
  // even before the first BeginVideoWalk().
  uint32_t epoch_ = 1;
  size_t num_steps_ = 0;
  bool exact_priorities_ = false;
  // (state x step) exact step priorities, filled at construction when
  // exact_priorities_ (query-scoped: they do not depend on the walk).
  std::vector<double> priorities_;

  // (state x step) Eq.-15 memo; a slot is valid iff its stamp == epoch_.
  std::vector<uint32_t> memo_epoch_;
  std::vector<double> memo_value_;
  size_t memo_hits_ = 0;

  struct CandidateEntry {
    uint32_t epoch = 0;
    std::vector<int> states;  // sorted ascending
  };
  // (video x step) annotated candidate lists, epoch-scoped like the memo.
  std::vector<CandidateEntry> candidates_;
  size_t candidate_reuse_ = 0;
  DenseBitset step_scratch_;  // reused AND/OR scratch for candidate builds

  std::vector<PathNode> arena_;
};

}  // namespace hmmm

#endif  // HMMM_RETRIEVAL_QUERY_PLAN_H_
