// Experiment F2 — Figure 2 of the paper: the 9-step retrieval flowchart.
// Measures the cost of the retrieval process (latency, lattice expansions,
// Eq.-14 evaluations) as the archive grows, for the paper's example query.

#include <benchmark/benchmark.h>

#include "bench_util.h"

namespace hmmm::bench {
namespace {

struct Scale {
  VideoCatalog catalog;
  HierarchicalModel model;
};

Scale MakeScale(int videos) {
  Scale scale{MakeSoccerCatalog(videos, 13, 0.08), {}};
  auto model = ModelBuilder(scale.catalog).Build();
  HMMM_CHECK(model.ok());
  scale.model = std::move(model).value();
  return scale;
}

void BM_RetrieveTwoStep(benchmark::State& state) {
  const Scale scale = MakeScale(static_cast<int>(state.range(0)));
  const EventBitmapIndex index(scale.model, scale.catalog);
  HmmmTraversal traversal(scale.model, index);
  const auto pattern = TemporalPattern::FromEvents({2, 0});
  for (auto _ : state) {
    auto results = traversal.Retrieve(pattern);
    benchmark::DoNotOptimize(results);
  }
  state.SetLabel(StrFormat("%zu shots", scale.catalog.num_shots()));
}
BENCHMARK(BM_RetrieveTwoStep)->Arg(10)->Arg(25)->Arg(54)->Arg(100)->Arg(200);

void BM_QueryCompile(benchmark::State& state) {
  const EventVocabulary vocab = SoccerEvents();
  for (auto _ : state) {
    auto pattern = CompileQuery(
        "free_kick & goal ; corner_kick ; player_change ; goal", vocab);
    benchmark::DoNotOptimize(pattern);
  }
}
BENCHMARK(BM_QueryCompile);

void PrintFlowchartTable() {
  Banner("Figure 2 (reproduced): retrieval process cost vs archive size");
  Row({"videos", "shots", "states", "latency ms", "videos seen",
       "lattice expansions", "sim() calls", "candidates"});
  for (int videos : {10, 25, 54, 100, 200}) {
    const Scale scale = MakeScale(videos);
    const EventBitmapIndex index(scale.model, scale.catalog);
    HmmmTraversal traversal(scale.model, index);
    const auto pattern = TemporalPattern::FromEvents({2, 0});
    RetrievalStats stats;
    const double ms = MedianMillis([&] {
      stats = RetrievalStats();
      auto results = traversal.Retrieve(pattern, &stats);
      HMMM_CHECK(results.ok());
    });
    Row({StrFormat("%4d", videos),
         StrFormat("%6zu", scale.catalog.num_shots()),
         StrFormat("%5zu", scale.catalog.num_annotated_shots()),
         Fmt("%8.3f", ms), StrFormat("%4zu", stats.videos_considered),
         StrFormat("%7zu", stats.states_visited),
         StrFormat("%7zu", stats.sim_evaluations),
         StrFormat("%4zu", stats.candidates_scored)});
  }
  std::printf("\nPaper: Fig. 2's flowchart loops over all M videos (Step 7)\n"
              "and walks each video's shot lattice greedily (Steps 3-5).\n"
              "The measured cost grows linearly in the number of HMMM\n"
              "states, matching that structure — the stochastic traversal\n"
              "touches each lattice level once instead of enumerating all\n"
              "shot combinations.\n");
}

void PrintMemoTable() {
  Banner("Query-plan layer: Eq.-15 memoization vs beam width (54 videos)");
  Row({"beam", "latency ms", "sim() calls", "memo hits", "unmemoized",
       "saved"});
  const Scale scale = MakeScale(54);
  const EventBitmapIndex index(scale.model, scale.catalog);
  // A four-step query: beams past 1 keep several survivor paths per step,
  // and every surviving path re-scores the shared candidate set.
  const auto pattern = TemporalPattern::FromEvents({2, 0, 1, 3});
  for (int beam : {1, 2, 4, 8, 16}) {
    TraversalOptions options;
    options.beam_width = beam;
    HmmmTraversal traversal(scale.model, index, options);
    RetrievalStats stats;
    const double ms = MedianMillis([&] {
      stats = RetrievalStats();
      auto results = traversal.Retrieve(pattern, &stats);
      HMMM_CHECK(results.ok());
    });
    // Every memo hit replaces the evaluations the naive per-path walk
    // would have re-run, so evals + hits is the exact pre-memo count.
    const size_t unmemoized = stats.sim_evaluations + stats.sim_memo_hits;
    Row({StrFormat("%2d", beam), Fmt("%8.3f", ms),
         StrFormat("%7zu", stats.sim_evaluations),
         StrFormat("%7zu", stats.sim_memo_hits),
         StrFormat("%7zu", unmemoized),
         Fmt("%5.2fx", stats.sim_evaluations > 0
                           ? static_cast<double>(unmemoized) /
                                 static_cast<double>(stats.sim_evaluations)
                           : 1.0)});
  }
  std::printf(
      "\nThe greedy walk (beam 1) never revisits a (state, step) pair, so\n"
      "the memo is pure bookkeeping there; at beam B the naive walk\n"
      "re-scores the shared candidate set once per surviving path and the\n"
      "per-walk memo collapses that to once per pair.\n");
}

/// Machine-readable companion to the tables above: the median traversal
/// latency of the paper query plus a full engine metrics snapshot (query
/// latency histogram, cache hit/miss counters, model gauge) taken after a
/// warm query loop — 1 cache miss followed by 7 hits — a beam sweep
/// quantifying the Eq.-15 memo, and the query-plan layer's build costs
/// (model-tier index, per-query plan).
void WriteFig2Json() {
  const Scale scale = MakeScale(54);  // the paper's archive size
  const auto pattern = TemporalPattern::FromEvents({2, 0});

  // Model-tier index build: once per model version, amortized over every
  // query until feedback training bumps the version.
  const double index_build_ms = MedianMillis([&] {
    EventBitmapIndex index(scale.model, scale.catalog);
    benchmark::DoNotOptimize(index);
  });

  const EventBitmapIndex index(scale.model, scale.catalog);

  // Query-tier plan build: the traced walk exposes the phase directly.
  double plan_build_ms = -1.0;
  {
    QueryTrace trace;
    TraversalOptions options;
    options.trace = &trace;
    HmmmTraversal traced(scale.model, index, options);
    HMMM_CHECK(traced.Retrieve(pattern).ok());
    plan_build_ms = SpanElapsedMs(trace, "query_plan_build");
  }

  // The beam sweep uses a four-step query (free_kick ; goal ; corner_kick
  // ; player_change): multi-step beams are where surviving paths share
  // candidate sets, which is exactly what the Eq.-15 memo collapses.
  const auto sweep_pattern = TemporalPattern::FromEvents({2, 0, 1, 3});
  std::vector<std::string> beams;
  for (int beam : {1, 2, 4, 8, 16}) {
    TraversalOptions options;
    options.beam_width = beam;
    HmmmTraversal traversal(scale.model, index, options);
    RetrievalStats stats;
    const double ms = MedianMillis([&] {
      stats = RetrievalStats();
      auto results = traversal.Retrieve(sweep_pattern, &stats);
      HMMM_CHECK(results.ok());
    });
    beams.push_back(JsonObject({
        {"beam", JsonNumber(beam)},
        {"median_ms", JsonNumber(ms)},
        {"states_visited",
         JsonNumber(static_cast<double>(stats.states_visited))},
        {"sim_evaluations",
         JsonNumber(static_cast<double>(stats.sim_evaluations))},
        {"sim_memo_hits",
         JsonNumber(static_cast<double>(stats.sim_memo_hits))},
        {"candidate_list_reuse",
         JsonNumber(static_cast<double>(stats.candidate_list_reuse))},
        // What the pre-plan walk evaluated for the same ranking: each
        // memo hit stands for the evaluations it replaced.
        {"sim_evaluations_unmemoized",
         JsonNumber(
             static_cast<double>(stats.sim_evaluations + stats.sim_memo_hits))},
        {"heap_pops", JsonNumber(static_cast<double>(stats.heap_pops))},
        {"grid_cells_skipped",
         JsonNumber(static_cast<double>(stats.grid_cells_skipped))},
    }));
  }

  HmmmTraversal traversal(scale.model, index);
  RetrievalStats stats;
  const double traversal_ms = MedianMillis([&] {
    stats = RetrievalStats();
    HMMM_CHECK(traversal.Retrieve(pattern, &stats).ok());
  });
  RetrievalEngine engine(scale.catalog, scale.model);
  for (int i = 0; i < 8; ++i) {
    HMMM_CHECK(engine.Retrieve(pattern).ok());
  }
  const std::string traversal_json = JsonObject({
      {"median_traversal_ms", JsonNumber(traversal_ms)},
      {"sim_evaluations",
       JsonNumber(static_cast<double>(stats.sim_evaluations))},
      {"sim_memo_hits", JsonNumber(static_cast<double>(stats.sim_memo_hits))},
      {"candidate_list_reuse",
       JsonNumber(static_cast<double>(stats.candidate_list_reuse))},
      {"heap_pops", JsonNumber(static_cast<double>(stats.heap_pops))},
      {"grid_cells_skipped",
       JsonNumber(static_cast<double>(stats.grid_cells_skipped))},
      {"metrics", engine.DumpMetricsJson()},
  });

  WriteBenchJson(
      "BENCH_fig2.json",
      JsonObject({
          {"benchmark", JsonQuote("fig2_retrieval")},
          {"query", JsonQuote("free_kick ; goal")},
          {"kernel", JsonQuote(Eq14KernelName(DefaultEq14Kernel()))},
          {"videos", JsonNumber(static_cast<double>(scale.catalog.num_videos()))},
          {"shots", JsonNumber(static_cast<double>(scale.catalog.num_shots()))},
          {"annotated_shots",
           JsonNumber(static_cast<double>(scale.catalog.num_annotated_shots()))},
          {"model_index_build_ms", JsonNumber(index_build_ms)},
          {"plan_build_ms", JsonNumber(plan_build_ms)},
          {"warm_queries", JsonNumber(8)},
          {"beam_sweep_query",
           JsonQuote("free_kick ; goal ; corner_kick ; player_change")},
          {"beam_sweep", JsonArray(beams)},
          {"traversal", traversal_json},
      }));
}

}  // namespace
}  // namespace hmmm::bench

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  hmmm::bench::PrintFlowchartTable();
  hmmm::bench::PrintMemoTable();
  hmmm::bench::WriteFig2Json();
  return 0;
}
