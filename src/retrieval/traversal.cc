#include "retrieval/traversal.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "common/fault_injector.h"
#include "common/logging.h"
#include "common/strings.h"
#include "retrieval/topk.h"

namespace hmmm {
namespace {

/// One candidate tagged with its video's position in the Step-2 visiting
/// order, the tie-break that makes the bounded heap reproduce a stable
/// sort of every candidate exactly.
struct VideoCandidate {
  RetrievedPattern pattern;
  size_t order_index = 0;
};

/// Strict total order: higher SS first, then earlier visiting position.
/// Total because order_index is unique per candidate.
struct BetterCandidate {
  bool operator()(const VideoCandidate& a, const VideoCandidate& b) const {
    if (a.pattern.score != b.pattern.score) {
      return a.pattern.score > b.pattern.score;
    }
    return a.order_index < b.order_index;
  }
};

/// Bounded best-K accumulator for the Step 7-9 ranking
/// (retrieval/topk.h for the heap mechanics).
using CandidateHeap = TopKHeap<VideoCandidate, BetterCandidate>;

/// Step-2 ordering polls the deadline/token once per this many picks —
/// the affinity-chaining loop is quadratic in the containing-video count,
/// so an unbounded ordering pass could otherwise blow the whole budget
/// before Step 7 even starts.
constexpr size_t kOrderPollInterval = 32;

}  // namespace

HmmmTraversal::HmmmTraversal(const HierarchicalModel& model,
                             const EventBitmapIndex& index,
                             TraversalOptions options)
    : model_(model), index_(index), options_(std::move(options)) {
  HMMM_CHECK(options_.beam_width >= 1);
  HMMM_CHECK(options_.max_results >= 1);
  HMMM_CHECK(index_.FreshFor(model_));
}

bool HmmmTraversal::Cancellable() const {
  return options_.deadline != kNoDeadline ||
         options_.cancellation != nullptr ||
         HMMM_FAULT_ARMED_PREFIX("traversal.");
}

bool HmmmTraversal::Expired() const {
  if (options_.cancellation != nullptr && options_.cancellation->cancelled()) {
    return true;
  }
  return DeadlineExpired(options_.deadline);
}

void HmmmTraversal::CandidateStates(QueryPlan& plan, VideoId video, int first,
                                    int last, size_t step_index,
                                    RetrievalStats* stats,
                                    std::vector<int>* out) const {
  const LocalShotModel& local = model_.local(video);
  const int n = std::min(static_cast<int>(local.num_states()), last + 1);
  if (first >= n) return;
  if (options_.annotated_first) {
    // Step 3: prefer shots annotated as e_j; the plan's per-(video, step)
    // list is computed once per walk from the event bitsets and sliced
    // per beam path.
    const std::vector<int>& annotated = plan.AnnotatedStates(video, step_index);
    const auto begin =
        std::lower_bound(annotated.begin(), annotated.end(), first);
    const auto end = std::lower_bound(begin, annotated.end(), n);
    if (begin != end) {
      out->insert(out->end(), begin, end);
      return;
    }
    // Fall back to "similar" shots: every state in range.
    if (stats != nullptr) ++stats->annotated_fallbacks;
  }
  for (int t = first; t < n; ++t) out->push_back(t);
}

std::vector<VideoId> HmmmTraversal::VideoOrder(
    const TemporalPattern& pattern) const {
  const size_t m = model_.num_videos();
  std::vector<VideoId> order;
  if (m == 0 || pattern.empty()) return order;

  std::vector<bool> visited(m, false);
  std::vector<VideoId> containing;
  // Step 2: matrix B2 containment of an anticipated first-step event,
  // answered by the model-tier bitsets.
  const DenseBitset step_videos =
      index_.VideosContainingStep(pattern.steps.front());
  step_videos.ForEachSetBit(
      [&](size_t v) { containing.push_back(static_cast<VideoId>(v)); });
  // Deadline/cancellation poll for the ordering pass. The chaining below
  // is quadratic in |containing|, so it checks once per
  // kOrderPollInterval picks; a fired poll truncates the order, which
  // stays a prefix of the full one because every pick is a deterministic
  // function of the picks before it.
  const bool poll_expiry = Cancellable();
  const auto ordering_expired = [&](size_t picked) {
    if (!poll_expiry) return false;
    return HMMM_FAULT_FIRED_ARG("traversal.order_pick",
                                static_cast<int64_t>(picked)) ||
           Expired();
  };
  // Seed with the highest-Pi2 containing video, then chain by A2 affinity
  // with the previously chosen video (Step 2: "close affinity relationship
  // with the previous video").
  VideoId previous = -1;
  for (size_t picked = 0; picked < containing.size(); ++picked) {
    if (picked % kOrderPollInterval == 0 && ordering_expired(picked)) {
      return order;
    }
    const double* a2_row =
        previous < 0 ? nullptr : model_.a2().RowPtr(static_cast<size_t>(previous));
    VideoId best = -1;
    double best_score = -1.0;
    for (VideoId v : containing) {
      if (visited[static_cast<size_t>(v)]) continue;
      const double score = a2_row == nullptr
                               ? model_.pi2()[static_cast<size_t>(v)]
                               : a2_row[static_cast<size_t>(v)];
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
  // Step 7 walks all M videos; the ones without e_1 come last (they can
  // still host "similar" shots).
  if (ordering_expired(order.size())) return order;
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

HmmmTraversal::PathRef HmmmTraversal::Extend(QueryPlan& plan,
                                             const PathRef& path, int state,
                                             double weight) {
  PathRef extended = path;
  extended.node = plan.AddPathNode(path.node, state, weight);
  extended.last_weight = weight;
  extended.score_sum = path.score_sum + weight;
  return extended;
}

namespace {

/// Frontier key of an unevaluated cell: the exact true weight when the
/// plan's priorities are exact, +infinity otherwise. The infinity case is
/// computed directly (never base * inf, which would produce NaN for a
/// zero base and wreck the heap order); it makes every cell pop, so the
/// search degrades to the reference's evaluate-everything behavior.
double CellPriority(const QueryPlan& plan, double base, int state,
                    size_t step_index) {
  if (!plan.exact_priorities()) {
    return std::numeric_limits<double>::infinity();
  }
  return base * plan.StepPriority(state, step_index);
}

}  // namespace

void HmmmTraversal::BuildWithinRow(QueryPlan& plan, const PathRef& path,
                                   size_t step_index, RetrievalStats* stats,
                                   int32_t row, WalkScratch& scratch) const {
  std::vector<GridCell>* out = &scratch.cells;
  const LocalShotModel& local = model_.local(path.current_video);
  const int n = static_cast<int>(local.num_states());
  if (n == 0) return;

  const int current_global = plan.node(path.node).state;
  // Local index of the current state within its video: the model's
  // precomputed table, replacing the former O(n) scan over local.states.
  const int current_local = model_.LocalStateIndexOf(current_global);

  const int first_next =
      options_.allow_same_shot ? current_local : current_local + 1;
  const PatternStep& pattern_step = plan.pattern().steps[step_index];
  // Temporal gap bound: the next shot must lie within max_gap annotated
  // shots of the current one.
  const int last_next =
      pattern_step.max_gap >= 0 ? current_local + pattern_step.max_gap : n - 1;
  std::vector<int>& candidates = scratch.candidates;
  candidates.clear();
  CandidateStates(plan, path.current_video, first_next, last_next, step_index,
                  stats, &candidates);
  const double* a1_row = local.a1.RowPtr(static_cast<size_t>(current_local));
  for (int t : candidates) {
    const double transition = a1_row[static_cast<size_t>(t)];
    if (transition <= 0.0) continue;
    const int next_global =
        model_.GlobalStateOf(local.states[static_cast<size_t>(t)]);
    // Eq.-13 prefix: w_j = (last_weight * A1) * sim, so the cell carries
    // base = last_weight * A1 and the sim factor joins only if the cell
    // pops. The grid cell itself still counts as a visited lattice node.
    const double base = path.last_weight * transition;
    if (stats != nullptr) ++stats->states_visited;
    out->push_back(GridCell{base,
                            CellPriority(plan, base, next_global, step_index),
                            next_global, static_cast<uint32_t>(out->size()),
                            row, path.current_video, false});
  }
}

void HmmmTraversal::BuildCrossCells(QueryPlan& plan, const PathRef& path,
                                    size_t step_index, RetrievalStats* stats,
                                    int32_t row, WalkScratch& scratch) const {
  std::vector<GridCell>* out = &scratch.cells;
  // Rank candidate next videos by A2 affinity from the current one,
  // preferring videos that contain the anticipated event (Fig. 3's
  // higher-level hand-over). Containment comes from the step's video
  // bitset (B2 positivity) instead of per-video B2 row scans.
  const PatternStep& pattern_step = plan.pattern().steps[step_index];
  std::vector<VideoId>& candidates = scratch.cross_videos;
  candidates.clear();
  const DenseBitset step_videos = plan.index().VideosContainingStep(pattern_step);
  step_videos.ForEachSetBit([&](size_t v) {
    const auto video = static_cast<VideoId>(v);
    if (video == path.current_video) return;
    if (model_.local(video).num_states() == 0) return;
    candidates.push_back(video);
  });
  const double* a2_row =
      model_.a2().RowPtr(static_cast<size_t>(path.current_video));
  std::stable_sort(candidates.begin(), candidates.end(),
                   [&](VideoId a, VideoId b) {
                     return a2_row[static_cast<size_t>(a)] >
                            a2_row[static_cast<size_t>(b)];
                   });
  if (candidates.size() > static_cast<size_t>(options_.beam_width)) {
    candidates.resize(static_cast<size_t>(options_.beam_width));
  }

  for (VideoId video : candidates) {
    const LocalShotModel& local = model_.local(video);
    const double hop = a2_row[static_cast<size_t>(video)];
    const double hop_weight = path.last_weight * hop;
    std::vector<int>& states = scratch.candidates;
    states.clear();
    CandidateStates(plan, video, 0, static_cast<int>(local.num_states()) - 1,
                    step_index, stats, &states);
    for (int ti : states) {
      const auto t = static_cast<size_t>(ti);
      const int next_global = model_.GlobalStateOf(local.states[t]);
      // Reference association order: ((last_weight * hop) * Pi1) * sim.
      const double base = hop_weight * local.pi1[t];
      if (stats != nullptr) ++stats->states_visited;
      out->push_back(
          GridCell{base, CellPriority(plan, base, next_global, step_index),
                   next_global, static_cast<uint32_t>(out->size()), row, video,
                   true});
    }
  }
}

void HmmmTraversal::SelectWinners(QueryPlan& plan, size_t step_index,
                                  size_t beam, bool final_step,
                                  const std::vector<PathRef>* parents,
                                  WalkScratch& scratch,
                                  RetrievalStats* stats) const {
  std::vector<GridCell>& cells = scratch.cells;
  const std::vector<RowSpan>& rows = scratch.rows;
  std::vector<ScoredCell>* winners = &scratch.winners;
  winners->clear();
  const size_t total = cells.size();
  if (total == 0) return;
  const bool exact = plan.exact_priorities();
  if (stats != nullptr && total > beam) stats->beam_pruned += total - beam;

  // (weight desc, gen asc): the reference's stable-sort winner order,
  // total because gen is unique per cell within a step.
  struct BetterScoredCell {
    bool operator()(const ScoredCell& a, const ScoredCell& b) const {
      if (a.weight != b.weight) return a.weight > b.weight;
      return a.cell.gen < b.cell.gen;
    }
  };
  // (priority desc, gen asc): the frontier's pop order. With exact
  // priorities it coincides with BetterScoredCell over the true weights.
  struct BetterCellFn {
    bool operator()(const GridCell& a, const GridCell& b) const {
      if (a.priority != b.priority) return a.priority > b.priority;
      return a.gen < b.gen;
    }
  };
  const BetterCellFn BetterCell;

  // Frontier over the row spans: at most one live cell per row, highest
  // (priority, then earliest gen) at the front. Because each row is
  // sorted by the same key and a cell enters only after its row
  // predecessor popped, cells pop in global (priority desc, gen asc)
  // order — with exact priorities that IS (true weight desc, gen asc),
  // the reference's stable-sort order. Only engaged when total > beam;
  // otherwise every cell is a winner and the heaps would be pure
  // overhead.
  const auto frontier_less = [&](const FrontierRef& a, const FrontierRef& b) {
    return BetterCell(cells[b.index], cells[a.index]);
  };
  std::vector<FrontierRef>& frontier = scratch.frontier;
  frontier.clear();
  const auto build_frontier = [&] {
    for (const RowSpan& row : rows) {
      if (row.begin == row.end) continue;
      std::sort(cells.begin() + row.begin, cells.begin() + row.end,
                BetterCell);
      frontier.push_back(FrontierRef{row.begin, row.end});
    }
    std::make_heap(frontier.begin(), frontier.end(), frontier_less);
  };

  if (final_step && exact) {
    // Lazy last level: no later step consumes a final-step weight — the
    // only downstream reader is Step 6's argmax over score_sum, and with
    // exact priorities (priority == true weight bit-for-bit) that argmax
    // can run on unevaluated cells. So determine the top-`beam` set by
    // priority, pick the cell the reference's Step-6 scan would pick
    // (max score_sum, earliest in (weight desc, gen asc) order on ties),
    // and only THAT cell — the one whose weight the materialized result
    // reports — pays the Eq.-14/15 evaluation.
    const GridCell* best = nullptr;
    double best_score = 0.0;
    const auto consider = [&](const GridCell& cell) {
      const double score =
          parents == nullptr
              ? cell.priority
              : (*parents)[static_cast<size_t>(cell.row)].score_sum +
                    cell.priority;
      if (best == nullptr || score > best_score ||
          (score == best_score && BetterCell(cell, *best))) {
        best = &cell;
        best_score = score;
      }
    };
    if (total <= beam) {
      for (const GridCell& cell : cells) consider(cell);
    } else {
      build_frontier();
      for (size_t popped = 0; popped < beam && !frontier.empty(); ++popped) {
        const FrontierRef top = frontier.front();
        std::pop_heap(frontier.begin(), frontier.end(), frontier_less);
        frontier.pop_back();
        consider(cells[top.index]);
        if (top.index + 1 < top.end) {
          frontier.push_back(FrontierRef{top.index + 1, top.end});
          std::push_heap(frontier.begin(), frontier.end(), frontier_less);
        }
      }
    }
    const double sim = plan.StepSimilarity(best->state, step_index);
    const double weight = best->base * sim;
    // The evaluated weight must equal the precomputed key bit-for-bit;
    // any drift means the index's sims or the kernel association order
    // desynchronized from the scorer.
    HMMM_CHECK(weight == best->priority);
    if (stats != nullptr) {
      stats->heap_pops += 1;
      stats->grid_cells_skipped += total - 1;
    }
    winners->push_back(ScoredCell{*best, weight});
    return;
  }

  if (exact) {
    // Intermediate step with exact priorities: pop order IS the true
    // (weight desc, gen asc) winner order, so the top-min(beam, total)
    // pops are the winners with weight = priority — no winner heap, no
    // stop rule, and no evaluation HERE. A winner pays its Eq.-14/15
    // evaluation at the moment the next step consumes its weight as an
    // Eq.-13 base prefix (TraverseVideo's deferred payment); a winner
    // whose path dead-ends is consumed by nothing and never pays.
    if (total <= beam) {
      std::sort(cells.begin(), cells.end(), BetterCell);
      winners->reserve(total);
      for (const GridCell& cell : cells) {
        winners->push_back(ScoredCell{cell, cell.priority});
      }
      return;
    }
    build_frontier();
    winners->reserve(beam);
    while (winners->size() < beam && !frontier.empty()) {
      const FrontierRef top = frontier.front();
      std::pop_heap(frontier.begin(), frontier.end(), frontier_less);
      frontier.pop_back();
      winners->push_back(
          ScoredCell{cells[top.index], cells[top.index].priority});
      if (top.index + 1 < top.end) {
        frontier.push_back(FrontierRef{top.index + 1, top.end});
        std::push_heap(frontier.begin(), frontier.end(), frontier_less);
      }
    }
    // The cells the frontier proved non-winning resolve to skipped right
    // away; the winners resolve to popped-or-skipped when (if) they are
    // consumed.
    if (stats != nullptr) stats->grid_cells_skipped += total - winners->size();
    return;
  }

  // Inexact fallback (+infinity priorities): the frontier cannot prove
  // anything, so every cell pops, pays an evaluation, and competes in a
  // true-weight top-K heap — the reference's evaluate-everything
  // behavior with the same winners and counters.
  if (total <= beam) {
    winners->reserve(total);
    for (const GridCell& cell : cells) {
      const double sim = plan.StepSimilarity(cell.state, step_index);
      winners->push_back(ScoredCell{cell, cell.base * sim});
    }
    if (stats != nullptr) stats->heap_pops += total;
    std::sort(winners->begin(), winners->end(), BetterScoredCell{});
    return;
  }

  build_frontier();
  TopKHeap<ScoredCell, BetterScoredCell> best(beam);
  size_t pops = 0;
  while (!frontier.empty()) {
    const FrontierRef top = frontier.front();
    const GridCell& cell = cells[top.index];
    std::pop_heap(frontier.begin(), frontier.end(), frontier_less);
    frontier.pop_back();
    ++pops;
    const double sim = plan.StepSimilarity(cell.state, step_index);
    best.Push(ScoredCell{cell, cell.base * sim});
    if (top.index + 1 < top.end) {
      frontier.push_back(FrontierRef{top.index + 1, top.end});
      std::push_heap(frontier.begin(), frontier.end(), frontier_less);
    }
  }

  if (stats != nullptr) {
    stats->heap_pops += pops;
    stats->grid_cells_skipped += total - pops;
  }
  *winners = std::move(best.entries());
  std::sort(winners->begin(), winners->end(), BetterScoredCell{});
}

namespace {

/// Structural pattern checks shared by both entry points. Run before any
/// index lookup: the bitsets are sized to the vocabulary, so an unknown
/// event must be rejected up front rather than read out of range.
Status ValidatePattern(const TemporalPattern& pattern,
                       const HierarchicalModel& model) {
  if (pattern.empty()) {
    return Status::InvalidArgument("empty temporal pattern");
  }
  for (const PatternStep& step : pattern.steps) {
    if (step.alternatives.empty()) {
      return Status::InvalidArgument("pattern step without alternatives");
    }
    for (const auto& alternative : step.alternatives) {
      for (EventId e : alternative) {
        if (e < 0 || static_cast<size_t>(e) >= model.vocabulary().size()) {
          return Status::InvalidArgument("pattern references unknown event");
        }
      }
    }
  }
  return Status::OK();
}

}  // namespace

StatusOr<std::vector<RetrievedPattern>> HmmmTraversal::Retrieve(
    const TemporalPattern& pattern, RetrievalStats* stats) const {
  HMMM_RETURN_IF_ERROR(ValidatePattern(pattern, model_));
  std::vector<VideoId> order;
  {
    ScopedSpan span(options_.trace, "step2_video_order");
    order = VideoOrder(pattern);
    span.Counter("videos_ordered", order.size());
  }
  // A full ordering covers all M videos, so a shorter one means the
  // deadline/cancellation fired during Step 2: the videos that never got
  // ordered are degradation skips too, on top of whatever Step 7
  // abandons.
  const size_t m = model_.num_videos();
  if (order.size() < m) {
    RetrievalStats local;
    auto result = RetrieveWithVideoOrder(pattern, order, &local);
    if (result.ok()) {
      local.degraded = true;
      local.videos_skipped += m - order.size();
    }
    if (stats != nullptr) AccumulateRetrievalStats(local, stats);
    return result;
  }
  return RetrieveWithVideoOrder(pattern, order, stats);
}

HmmmTraversal::WalkOutcome HmmmTraversal::TraverseVideo(
    VideoId video, const TemporalPattern& pattern, QueryPlan& plan,
    WalkScratch& scratch, RetrievalStats* stats, RetrievedPattern* out,
    int parent_span, int64_t order_index, bool poll) const {
  const LocalShotModel& local = model_.local(video);
  if (local.num_states() == 0) return WalkOutcome::kNoCandidate;

  // All plan caches (Eq.-15 memo, candidate lists, path arena) are scoped
  // to this walk; see QueryPlan for why that keeps the stats counters
  // independent of the visiting order.
  plan.BeginVideoWalk();

  // Per-video counters feed this video's trace span; they are merged into
  // the caller's stats only when the walk completes, so an aborted walk
  // leaves no trace in them.
  RetrievalStats video_stats;
  ++video_stats.videos_considered;
  QueryTrace* trace = options_.trace;
  // The span name is only formatted when a trace will record it — the
  // untraced hot path shouldn't pay a heap-allocating format per video.
  ScopedSpan video_span(trace,
                        trace == nullptr
                            ? std::string()
                            : StrFormat("video:%d", static_cast<int>(video)),
                        parent_span, order_index);
  const size_t evaluations_before = plan.scorer().evaluations();
  const size_t memo_hits_before = plan.memo_hits();
  const size_t reuse_before = plan.candidate_reuse();

  const auto beam = static_cast<size_t>(options_.beam_width);
  std::vector<PathRef>& beam_paths = scratch.beam_paths;
  beam_paths.clear();
  {
    ScopedSpan walk_span(trace, "steps3_5_walk", video_span.id());
    // The scratch's flat cell buffer + row spans are reused across steps
    // and across the query's videos (clear() keeps the capacity, so
    // steady state allocates nothing).
    std::vector<GridCell>& cells = scratch.cells;
    std::vector<RowSpan>& rows = scratch.rows;
    std::vector<ScoredCell>& winners = scratch.winners;
    cells.clear();
    rows.clear();
    // Step 4 (j = 1): w1 = Pi1(s1) * sim(s1, e1)  (Eq. 12). The seeds
    // form a one-row grid with base = Pi1; the frontier pops at most
    // beam winners, so only those pay the Eq.-15 evaluation.
    {
      std::vector<int>& seeds = scratch.candidates;
      seeds.clear();
      CandidateStates(plan, video, 0, static_cast<int>(local.num_states()) - 1,
                      0, &video_stats, &seeds);
      for (int ii : seeds) {
        const auto i = static_cast<size_t>(ii);
        const int global = model_.GlobalStateOf(local.states[i]);
        const double base = local.pi1[i];
        ++video_stats.states_visited;
        cells.push_back(GridCell{base, CellPriority(plan, base, global, 0),
                                 global, static_cast<uint32_t>(cells.size()),
                                 0, video, false});
      }
      rows.push_back(RowSpan{0, static_cast<uint32_t>(cells.size())});
    }
    SelectWinners(plan, 0, beam, /*final_step=*/pattern.size() == 1,
                  /*parents=*/nullptr, scratch, &video_stats);
    beam_paths.reserve(winners.size());
    for (const ScoredCell& w : winners) {
      PathRef path;
      path.node = plan.AddPathNode(-1, w.cell.state, w.weight);
      path.last_weight = w.weight;
      path.score_sum = w.weight;
      path.current_video = video;
      beam_paths.push_back(path);
    }

    // Steps 3-5: extend through the remaining events of the pattern.
    for (size_t j = 1; j < pattern.size() && !beam_paths.empty(); ++j) {
      // Bounded-interval poll: one deadline/cancellation check per
      // pattern step keeps a long walk from overrunning the budget while
      // adding nothing to the happy path (poll is false there). An
      // expired walk aborts without recording anything; the caller cuts
      // the order prefix at this video, so the surviving prefix stays
      // byte-identical to a full retrieval over it.
      if (poll && (Expired() || HMMM_FAULT_FIRED_ARG("traversal.walk_fault",
                                                     order_index))) {
        return WalkOutcome::kAborted;
      }
      // Build the step's score grid — one row span per surviving beam
      // path — without evaluating anything: cells carry bases and
      // precomputed priorities only. The flat emission order (rows in
      // beam order, candidates in list order) doubles as the gen
      // tie-break that makes winner ties resolve exactly like the old
      // stable sort over a flat expansion list.
      cells.clear();
      rows.clear();
      for (size_t r = 0; r < beam_paths.size(); ++r) {
        const PathRef& path = beam_paths[r];
        const auto begin = static_cast<uint32_t>(cells.size());
        BuildWithinRow(plan, path, j, &video_stats, static_cast<int32_t>(r),
                       scratch);
        // A finite gap bound implies same-video continuation: the gap is
        // measured in annotated-shot positions, which another video's
        // timeline cannot satisfy.
        if (cells.size() == begin && options_.cross_video &&
            pattern.steps[j].max_gap < 0) {
          BuildCrossCells(plan, path, j, &video_stats,
                          static_cast<int32_t>(r), scratch);
        }
        rows.push_back(RowSpan{begin, static_cast<uint32_t>(cells.size())});
        if (plan.exact_priorities()) {
          // Deferred payment for the parent's winning hop (see
          // SelectWinners): this row's Eq.-13 bases just consumed its
          // weight — or nothing did, if the path dead-ended, in which
          // case the hop resolves to skipped and its evaluation is never
          // paid at all.
          const int parent_state = plan.node(path.node).state;
          if (cells.size() > begin) {
            const double sim = plan.StepSimilarity(parent_state, j - 1);
            // The evaluated similarity must equal the plan's precomputed
            // priority bit-for-bit; drift means the index's sims or the
            // kernel association order desynchronized from the scorer.
            HMMM_CHECK(sim == plan.StepPriority(parent_state, j - 1));
            ++video_stats.heap_pops;
          } else {
            ++video_stats.grid_cells_skipped;
          }
        }
      }
      SelectWinners(plan, j, beam, /*final_step=*/j + 1 == pattern.size(),
                    &beam_paths, scratch, &video_stats);
      std::vector<PathRef>& next_paths = scratch.next_paths;
      next_paths.clear();
      next_paths.reserve(winners.size());
      for (const ScoredCell& w : winners) {
        PathRef extended =
            Extend(plan, beam_paths[static_cast<size_t>(w.cell.row)],
                   w.cell.state, w.weight);
        if (w.cell.crossed) extended.crossed_video = true;
        extended.current_video = w.cell.video;
        next_paths.push_back(extended);
      }
      std::swap(beam_paths, next_paths);
    }
  }

  bool found = false;
  if (!beam_paths.empty()) {
    // Step 6: SS(R, Q_k) = sum_j w_j (Eq. 15); keep the video's best
    // path. Only the survivor is materialized out of the arena.
    ScopedSpan score_span(trace, "step6_eq15_score", video_span.id());
    const PathRef* best = &beam_paths.front();
    for (const PathRef& p : beam_paths) {
      if (p.score_sum > best->score_sum) best = &p;
    }
    plan.MaterializePath(best->node, &out->shots, &out->edge_weights);
    out->score = best->score_sum;
    out->video = video;
    out->crosses_videos = best->crossed_video;
    ++video_stats.candidates_scored;
    found = true;
  }

  video_stats.sim_memo_hits += plan.memo_hits() - memo_hits_before;
  video_stats.candidate_list_reuse += plan.candidate_reuse() - reuse_before;
  video_span.Counter("states_visited", video_stats.states_visited);
  video_span.Counter("sim_evaluations",
                     plan.scorer().evaluations() - evaluations_before);
  video_span.Counter("sim_memo_hits", video_stats.sim_memo_hits);
  video_span.Counter("candidate_list_reuse", video_stats.candidate_list_reuse);
  video_span.Counter("beam_pruned", video_stats.beam_pruned);
  video_span.Counter("heap_pops", video_stats.heap_pops);
  video_span.Counter("grid_cells_skipped", video_stats.grid_cells_skipped);
  video_span.Counter("annotated_fallbacks", video_stats.annotated_fallbacks);
  video_span.Counter("candidates_scored", video_stats.candidates_scored);
  if (stats != nullptr) AccumulateRetrievalStats(video_stats, stats);
  return found ? WalkOutcome::kCandidate : WalkOutcome::kNoCandidate;
}

StatusOr<std::vector<RetrievedPattern>> HmmmTraversal::RetrieveWithVideoOrder(
    const TemporalPattern& pattern, const std::vector<VideoId>& video_order,
    RetrievalStats* stats) const {
  HMMM_RETURN_IF_ERROR(ValidatePattern(pattern, model_));
  for (VideoId video : video_order) {
    if (video < 0 || static_cast<size_t>(video) >= model_.num_videos()) {
      return Status::OutOfRange("video order references unknown video");
    }
  }

  std::vector<VideoId> order = video_order;
  if (options_.max_videos >= 0 &&
      order.size() > static_cast<size_t>(options_.max_videos)) {
    order.resize(static_cast<size_t>(options_.max_videos));
  }

  const auto top_k = static_cast<size_t>(options_.max_results);
  std::optional<QueryPlan> plan;
  {
    ScopedSpan plan_span(options_.trace, "query_plan_build");
    plan.emplace(model_, index_, pattern, options_.scorer);
  }
  WalkScratch scratch;
  CandidateHeap top(top_k);
  RetrievalStats accumulated;

  // Step 7: walk the videos one after another in the Step-2 order. The
  // first index at which the check before a walk or a poll inside one
  // fires ends the loop, so the walked videos are always the order prefix
  // [0, cutoff) and the bounded heap holds exactly that prefix's top K.
  // The polls run only when something could fire (a deadline, a token or
  // an armed traversal fault point).
  const bool cancellable = Cancellable();
  ScopedSpan fanout_span(options_.trace, "step7_video_fanout");
  fanout_span.Counter("videos", order.size());
  size_t cutoff = order.size();
  // Scorer evaluations up to the last completed walk: an aborted walk's
  // evaluations are rolled back along with the rest of its counters.
  size_t completed_evaluations = plan->scorer().evaluations();
  for (size_t i = 0; i < order.size(); ++i) {
    const auto order_index = static_cast<int64_t>(i);
    if (cancellable &&
        (Expired() ||
         HMMM_FAULT_FIRED_ARG("traversal.deadline_at_video", order_index))) {
      cutoff = i;
      break;
    }
    RetrievedPattern candidate;
    const WalkOutcome outcome =
        TraverseVideo(order[i], pattern, *plan, scratch, &accumulated,
                      &candidate, fanout_span.id(), order_index, cancellable);
    if (outcome == WalkOutcome::kAborted) {
      cutoff = i;
      break;
    }
    completed_evaluations = plan->scorer().evaluations();
    if (outcome == WalkOutcome::kCandidate) {
      top.Push({std::move(candidate), i});
    }
  }
  accumulated.sim_evaluations = completed_evaluations;
  if (cutoff < order.size()) {
    accumulated.degraded = true;
    accumulated.videos_skipped += order.size() - cutoff;
    fanout_span.Counter("deadline_fired", 1);
    fanout_span.Counter("videos_skipped", order.size() - cutoff);
  }
  std::vector<VideoCandidate>& survivors = top.entries();
  fanout_span.Counter("candidates", survivors.size());
  fanout_span.End();

  // Steps 8-9: rank by similarity score. The heap holds the top K under
  // the (score, order) total order; sorting it yields the ranking.
  ScopedSpan merge_span(options_.trace, "step8_9_merge_rank");
  std::sort(survivors.begin(), survivors.end(), BetterCandidate{});
  std::vector<RetrievedPattern> results;
  results.reserve(survivors.size());
  for (VideoCandidate& candidate : survivors) {
    results.push_back(std::move(candidate.pattern));
  }
  merge_span.Counter("results", results.size());
  // The full accumulator (result.cc) carries sim_evaluations and the
  // degradation fields.
  if (stats != nullptr) AccumulateRetrievalStats(accumulated, stats);
  return results;
}

}  // namespace hmmm
