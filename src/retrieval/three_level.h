#ifndef HMMM_RETRIEVAL_THREE_LEVEL_H_
#define HMMM_RETRIEVAL_THREE_LEVEL_H_

#include <vector>

#include "core/category_level.h"
#include "retrieval/traversal.h"

namespace hmmm {

/// Temporal pattern retrieval over a d=3 HMMM: the category level (S3)
/// prunes the Step-2 video scan. Only the videos of clusters whose B3
/// signature contains a first-step event are traversed — the multi-level
/// generalization Definition 1 allows, applied as ClassView-style ([10])
/// hierarchical pruning on top of the 2-level engine.
///
/// The per-video lattice walk is delegated to HmmmTraversal, so the
/// cube-pruned best-first beam selection and its heap_pops /
/// grid_cells_skipped accounting (traversal.h) apply here unchanged —
/// the category layer only decides WHICH videos are walked, never how.
class ThreeLevelTraversal {
 public:
  /// All references must outlive the traversal, and `index` must be
  /// fresh for `model`; it is the model-tier EventBitmapIndex the
  /// underlying 2-level traversal runs on (see HmmmTraversal).
  ThreeLevelTraversal(const HierarchicalModel& model,
                      const CategoryLevel& categories,
                      const EventBitmapIndex& index,
                      TraversalOptions options = {});

  /// Runs the pruned retrieval; results sorted by descending SS.
  StatusOr<std::vector<RetrievedPattern>> Retrieve(
      const TemporalPattern& pattern, RetrievalStats* stats = nullptr) const;

  /// The pruned video visiting order: clusters containing a first-step
  /// event (ordered by Pi3 then A3 chaining), their member videos
  /// in-cluster; videos of non-containing clusters are skipped entirely.
  /// Falls back to all videos when no cluster contains the event. Polls
  /// the options' deadline/cancellation between cluster picks and
  /// truncates at a cluster boundary when either fires (the underlying
  /// Step-7 loop then degrades over the truncated order).
  std::vector<VideoId> PrunedVideoOrder(const TemporalPattern& pattern) const;

 private:
  /// PrunedVideoOrder plus degradation accounting: `*dropped_videos` is
  /// how many videos an expired deadline/cancellation truncated away
  /// (0 for a full order), so Retrieve can mark the result degraded with
  /// the same contract as the 2-level engine.
  std::vector<VideoId> PrunedVideoOrderInternal(const TemporalPattern& pattern,
                                                size_t* dropped_videos) const;

  const HierarchicalModel& model_;
  const CategoryLevel& categories_;
  QueryTrace* trace_;  // = options.trace; may be null
  std::chrono::steady_clock::time_point deadline_;  // = options.deadline
  const CancellationToken* cancellation_;  // = options.cancellation
  HmmmTraversal traversal_;
};

}  // namespace hmmm

#endif  // HMMM_RETRIEVAL_THREE_LEVEL_H_
