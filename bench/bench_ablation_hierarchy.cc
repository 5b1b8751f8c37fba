// Ablation A4 — the d-level generalization: 2-level HMMM (paper's
// instantiation) vs 3-level HMMM with a video-category layer discovered by
// clustering B2 signatures. Measures how much level-3 pruning saves on a
// mixed-domain archive where queries only concern one domain.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "media/news_generator.h"

namespace hmmm::bench {
namespace {

struct MixedArchive {
  VideoCatalog catalog;
  std::vector<EventId> news_ids;
};

MixedArchive MakeMixedArchive(int soccer_videos, int news_videos,
                              uint64_t seed) {
  EventVocabulary combined = SoccerEvents();
  const EventVocabulary news_vocab = NewsEvents();
  MixedArchive archive{VideoCatalog(combined, 20), {}};
  for (const std::string& name : news_vocab.names()) {
    archive.news_ids.push_back(combined.Register(name));
  }
  archive.catalog = VideoCatalog(combined, 20);

  FeatureLevelConfig soccer_config = SoccerFeatureLevelDefaults(seed);
  soccer_config.num_videos = soccer_videos;
  soccer_config.min_shots_per_video = 80;
  soccer_config.max_shots_per_video = 150;
  soccer_config.event_shot_fraction = 0.12;
  for (const GeneratedVideo& video :
       FeatureLevelGenerator(soccer_config).Generate().videos) {
    const VideoId vid = archive.catalog.AddVideo("soccer_" + video.name);
    for (const GeneratedShot& shot : video.shots) {
      HMMM_CHECK(archive.catalog.AddShot(vid, shot.begin_time, shot.end_time,
                                         shot.events, shot.features).ok());
    }
  }
  FeatureLevelConfig news_config = NewsFeatureLevelDefaults(seed + 1);
  news_config.num_videos = news_videos;
  news_config.min_shots_per_video = 80;
  news_config.max_shots_per_video = 150;
  for (const GeneratedVideo& video :
       FeatureLevelGenerator(news_config).Generate().videos) {
    const VideoId vid = archive.catalog.AddVideo("news_" + video.name);
    for (const GeneratedShot& shot : video.shots) {
      std::vector<EventId> remapped;
      for (EventId e : shot.events) {
        remapped.push_back(archive.news_ids[static_cast<size_t>(e)]);
      }
      HMMM_CHECK(archive.catalog.AddShot(vid, shot.begin_time, shot.end_time,
                                         remapped, shot.features).ok());
    }
  }
  return archive;
}

void BM_TwoLevelMixed(benchmark::State& state) {
  const MixedArchive archive = MakeMixedArchive(20, 20, 71);
  auto model = ModelBuilder(archive.catalog).Build();
  HMMM_CHECK(model.ok());
  const EventBitmapIndex index(*model, archive.catalog);
  HmmmTraversal traversal(*model, index);
  const auto pattern = TemporalPattern::FromEvents({2, 0});
  for (auto _ : state) {
    auto results = traversal.Retrieve(pattern);
    benchmark::DoNotOptimize(results);
  }
}
BENCHMARK(BM_TwoLevelMixed);

void BM_ThreeLevelMixed(benchmark::State& state) {
  const MixedArchive archive = MakeMixedArchive(20, 20, 71);
  auto model = ModelBuilder(archive.catalog).Build();
  HMMM_CHECK(model.ok());
  CategoryLevelOptions options;
  options.num_clusters = 2;
  auto categories = BuildCategoryLevel(*model, options);
  HMMM_CHECK(categories.ok());
  const EventBitmapIndex index(*model, archive.catalog);
  ThreeLevelTraversal traversal(*model, *categories, index);
  const auto pattern = TemporalPattern::FromEvents({2, 0});
  for (auto _ : state) {
    auto results = traversal.Retrieve(pattern);
    benchmark::DoNotOptimize(results);
  }
}
BENCHMARK(BM_ThreeLevelMixed);

void PrintHierarchyTable() {
  Banner("Ablation A4: 2-level vs 3-level (category pruning)");
  Row({"mix (soccer+news)", "query", "engine", "latency ms", "videos seen",
       "sim() calls", "P@10"});

  for (int per_domain : {10, 25, 50}) {
    const MixedArchive archive = MakeMixedArchive(per_domain, per_domain, 71);
    auto model = ModelBuilder(archive.catalog).Build();
    HMMM_CHECK(model.ok());
    CategoryLevelOptions cat_options;
    cat_options.num_clusters = 2;
    auto categories = BuildCategoryLevel(*model, cat_options);
    HMMM_CHECK(categories.ok());
    const EventBitmapIndex index(*model, archive.catalog);

    const std::vector<std::pair<std::string, TemporalPattern>> queries = {
        {"free_kick;goal", TemporalPattern::FromEvents({2, 0})},
        {"anchor;weather",
         TemporalPattern::FromEvents({archive.news_ids[0],
                                      archive.news_ids[3]})},
    };
    for (const auto& [name, pattern] : queries) {
      TraversalOptions options;
      options.max_results = 10;

      HmmmTraversal two_level(*model, index, options);
      RetrievalStats stats2;
      std::vector<RetrievedPattern> results2;
      const double ms2 = MedianMillis([&] {
        stats2 = RetrievalStats();
        auto r = two_level.Retrieve(pattern, &stats2);
        HMMM_CHECK(r.ok());
        results2 = std::move(r).value();
      });
      const auto metrics2 =
          EvaluateRanking(archive.catalog, pattern, results2, 10);
      Row({StrFormat("%d+%d", per_domain, per_domain),
           StrFormat("%-16s", name.c_str()), "2-level", Fmt("%8.3f", ms2),
           StrFormat("%4zu", stats2.videos_considered),
           StrFormat("%6zu", stats2.sim_evaluations),
           Fmt("%5.2f", metrics2.precision_at_k)});

      ThreeLevelTraversal three_level(*model, *categories, index, options);
      RetrievalStats stats3;
      std::vector<RetrievedPattern> results3;
      const double ms3 = MedianMillis([&] {
        stats3 = RetrievalStats();
        auto r = three_level.Retrieve(pattern, &stats3);
        HMMM_CHECK(r.ok());
        results3 = std::move(r).value();
      });
      const auto metrics3 =
          EvaluateRanking(archive.catalog, pattern, results3, 10);
      Row({StrFormat("%d+%d", per_domain, per_domain),
           StrFormat("%-16s", name.c_str()), "3-level", Fmt("%8.3f", ms3),
           StrFormat("%4zu", stats3.videos_considered),
           StrFormat("%6zu", stats3.sim_evaluations),
           Fmt("%5.2f", metrics3.precision_at_k)});
    }
  }
  std::printf("\nShape: on a mixed-domain archive the category level cuts\n"
              "the Step-7 video scan roughly in half (only the cluster\n"
              "containing the queried events is traversed) without losing\n"
              "result quality — the payoff of Definition 1's d-level\n"
              "hierarchy beyond the paper's 2-level instantiation.\n");
}

}  // namespace
}  // namespace hmmm::bench

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  hmmm::bench::PrintHierarchyTable();
  return 0;
}
