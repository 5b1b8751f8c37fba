#ifndef HMMM_RETRIEVAL_RESULT_H_
#define HMMM_RETRIEVAL_RESULT_H_

#include <cstddef>
#include <string>
#include <vector>

#include "storage/catalog.h"

namespace hmmm {

/// One retrieved candidate shot sequence Q_k = {s_1, ..., s_C} with its
/// edge weights and final similarity score SS(R, Q_k) (Eqs. 12-15).
struct RetrievedPattern {
  std::vector<ShotId> shots;
  std::vector<double> edge_weights;  // w_j per step
  double score = 0.0;                // SS = sum_j w_j
  VideoId video = -1;                // video of the first shot
  bool crosses_videos = false;

  /// "v3[s12 s15] score=0.0123" style rendering for result tables.
  std::string ToString(const VideoCatalog& catalog) const;
};

/// Cost accounting reported by all matchers, the basis of the paper's
/// "lower computational costs" comparison.
struct RetrievalStats {
  size_t videos_considered = 0;
  size_t states_visited = 0;       // lattice node expansions / tuples seen
  size_t sim_evaluations = 0;      // Eq.-14 evaluations
  size_t candidates_scored = 0;    // complete candidate sequences
  size_t beam_pruned = 0;          // expansions dropped by the beam cap
  size_t annotated_fallbacks = 0;  // Step-3 hops with no annotated shot,
                                   // served by pure Eq.-14 similarity
  size_t sim_memo_hits = 0;        // StepSimilarity calls served from the
                                   // query plan's per-walk memo
  size_t candidate_list_reuse = 0; // candidate-state lists served from the
                                   // query plan's per-walk cache
  size_t heap_pops = 0;            // grid cells that paid a query-time
                                   // Eq.-14/15 step evaluation: winners
                                   // whose weight a later step consumed,
                                   // plus each video's Step-6 argmax cell
  size_t grid_cells_skipped = 0;   // grid cells that never paid: proved
                                   // non-winning by their precomputed
                                   // priority, or winners that dead-ended;
                                   // always states_visited - heap_pops
  bool truncated = false;          // an enumeration cap was hit
  /// The retrieval hit its deadline (or was cancelled) and returned the
  /// best *anytime* result over the prefix of Step-2 videos whose lattice
  /// walks completed, instead of the full ranking.
  bool degraded = false;
  /// Videos left unvisited (or whose walks were abandoned mid-flight)
  /// when a deadline/cancellation fired. 0 for a complete retrieval.
  size_t videos_skipped = 0;
};

/// Adds every counter of `from` into `*to` (truncated/degraded are
/// OR-ed). Used by the traversal's per-video accounting and by cache hits
/// replaying recorded stats.
void AccumulateRetrievalStats(const RetrievalStats& from, RetrievalStats* to);

}  // namespace hmmm

#endif  // HMMM_RETRIEVAL_RESULT_H_
