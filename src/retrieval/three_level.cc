#include "retrieval/three_level.h"

#include <algorithm>

namespace hmmm {

ThreeLevelTraversal::ThreeLevelTraversal(const HierarchicalModel& model,
                                         const CategoryLevel& categories,
                                         const EventBitmapIndex& index,
                                         TraversalOptions options)
    : model_(model),
      categories_(categories),
      trace_(options.trace),
      deadline_(options.deadline),
      cancellation_(options.cancellation),
      traversal_(model, index, options) {}

std::vector<VideoId> ThreeLevelTraversal::PrunedVideoOrder(
    const TemporalPattern& pattern) const {
  size_t dropped = 0;
  return PrunedVideoOrderInternal(pattern, &dropped);
}

std::vector<VideoId> ThreeLevelTraversal::PrunedVideoOrderInternal(
    const TemporalPattern& pattern, size_t* dropped_videos) const {
  *dropped_videos = 0;
  std::vector<VideoId> order;
  if (pattern.empty() || categories_.num_clusters() == 0) return order;

  // Level-3 Step 2: which clusters contain a first-step event?
  const std::vector<EventId> first_events =
      pattern.steps.front().AllEvents();
  std::vector<int> containing;
  for (size_t c = 0; c < categories_.num_clusters(); ++c) {
    for (EventId e : first_events) {
      if (categories_.ClusterContainsEvent(static_cast<int>(c), e)) {
        containing.push_back(static_cast<int>(c));
        break;
      }
    }
  }
  if (containing.empty()) {
    // Degenerate archive: fall back to the 2-level order over all videos
    // (which polls the deadline itself and may return a prefix).
    std::vector<VideoId> fallback = traversal_.VideoOrder(pattern);
    *dropped_videos = model_.num_videos() - fallback.size();
    return fallback;
  }

  // Deadline/cancellation poll between cluster picks: a fired poll
  // truncates the order at a cluster boundary, and the underlying
  // Step-7 loop degrades over the prefix that survived.
  const auto ordering_expired = [&] {
    if (cancellation_ != nullptr && cancellation_->cancelled()) return true;
    return DeadlineExpired(deadline_);
  };

  // Seed with the highest-Pi3 containing cluster, chain by A3 affinity.
  std::vector<bool> visited(categories_.num_clusters(), false);
  std::vector<int> cluster_order;
  int previous = -1;
  while (cluster_order.size() < containing.size()) {
    if (ordering_expired()) break;
    int best = -1;
    double best_score = -1.0;
    for (int c : containing) {
      if (visited[static_cast<size_t>(c)]) continue;
      const double score =
          previous < 0 ? categories_.pi3()[static_cast<size_t>(c)]
                       : categories_.a3().at(static_cast<size_t>(previous),
                                             static_cast<size_t>(c));
      if (score > best_score) {
        best_score = score;
        best = c;
      }
    }
    if (best < 0) break;
    visited[static_cast<size_t>(best)] = true;
    cluster_order.push_back(best);
    previous = best;
  }

  // Within each cluster, order member videos by the 2-level heuristic:
  // videos containing a first-step event first, then by Pi2. Containment
  // is one OR over the index's per-event video bitsets instead of a B2
  // row scan per sort comparison.
  const EventBitmapIndex& index = traversal_.event_index();
  DenseBitset containing_videos(model_.num_videos());
  for (EventId e : first_events) {
    containing_videos.OrWith(index.VideosWithEvent(e));
  }
  const auto members = categories_.VideosByCluster();
  for (int cluster : cluster_order) {
    if (ordering_expired()) break;
    std::vector<VideoId> videos = members[static_cast<size_t>(cluster)];
    std::stable_sort(videos.begin(), videos.end(), [&](VideoId a, VideoId b) {
      const bool ca = containing_videos.Test(static_cast<size_t>(a));
      const bool cb = containing_videos.Test(static_cast<size_t>(b));
      if (ca != cb) return ca;
      return model_.pi2()[static_cast<size_t>(a)] >
             model_.pi2()[static_cast<size_t>(b)];
    });
    order.insert(order.end(), videos.begin(), videos.end());
  }
  // Whatever an expired poll cut off (whole clusters or the tail of the
  // cluster chain) counts as skipped for the degradation contract; the
  // videos pruned *by design* (non-containing clusters) do not.
  size_t full_size = 0;
  for (int cluster : containing) {
    full_size += members[static_cast<size_t>(cluster)].size();
  }
  *dropped_videos = full_size - order.size();
  return order;
}

StatusOr<std::vector<RetrievedPattern>> ThreeLevelTraversal::Retrieve(
    const TemporalPattern& pattern, RetrievalStats* stats) const {
  if (pattern.empty()) {
    return Status::InvalidArgument("empty temporal pattern");
  }
  std::vector<VideoId> order;
  size_t dropped = 0;
  {
    // The category layer's pruned scan is this engine's Step 2.
    ScopedSpan span(trace_, "step2_video_order");
    order = PrunedVideoOrderInternal(pattern, &dropped);
    span.Counter("videos_ordered", order.size());
    if (dropped > 0) span.Counter("videos_skipped", dropped);
  }
  if (dropped == 0) {
    return traversal_.RetrieveWithVideoOrder(pattern, order, stats);
  }
  // The ordering itself was cut short by the deadline/cancellation:
  // surface the same degradation contract as the 2-level Retrieve.
  RetrievalStats local;
  auto results = traversal_.RetrieveWithVideoOrder(pattern, order, &local);
  local.degraded = true;
  local.videos_skipped += dropped;
  if (stats != nullptr) AccumulateRetrievalStats(local, stats);
  return results;
}

}  // namespace hmmm
