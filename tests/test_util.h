#ifndef HMMM_TESTS_TEST_UTIL_H_
#define HMMM_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>
#include <unistd.h>

#include <cctype>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <mutex>
#include <string>
#include <system_error>
#include <vector>

#include "common/logging.h"
#include "media/event_types.h"
#include "media/feature_level_generator.h"
#include "storage/catalog.h"

namespace hmmm::testing {

/// Feature vector helper: `base` everywhere except `hot` positions set to
/// `hot_value`.
inline std::vector<double> FeatureVector(int num_features, double base,
                                         const std::vector<int>& hot = {},
                                         double hot_value = 1.0) {
  std::vector<double> v(static_cast<size_t>(num_features), base);
  for (int h : hot) v[static_cast<size_t>(h)] = hot_value;
  return v;
}

/// A tiny deterministic hand-built catalog for core/retrieval tests:
/// 2 videos x a handful of shots with soccer annotations whose features
/// are well separated per event (feature e is "hot" for event e).
///
/// video 0 shots (annotated): free_kick | free_kick+goal | corner_kick
///   (the exact Section-4.2.1.1 example: NE = 1, 2, 1)
/// video 1 shots (annotated): goal | free_kick | goal
/// plus one un-annotated background shot per video.
inline VideoCatalog SmallSoccerCatalog() {
  EventVocabulary vocab = SoccerEvents();
  const int k = 8;  // one feature per event id
  VideoCatalog catalog(vocab, k);
  const EventId goal = 0, corner = 1, free_kick = 2;

  auto features_for = [&](const std::vector<EventId>& events) {
    std::vector<double> v(static_cast<size_t>(k), 0.1);
    for (EventId e : events) v[static_cast<size_t>(e)] = 0.9;
    return v;
  };

  const VideoId v0 = catalog.AddVideo("video_a");
  HMMM_CHECK(catalog.AddShot(v0, 0.0, 5.0, {free_kick},
                             features_for({free_kick})).ok());
  HMMM_CHECK(catalog.AddShot(v0, 5.0, 9.0, {}, features_for({})).ok());
  HMMM_CHECK(catalog.AddShot(v0, 9.0, 15.0, {free_kick, goal},
                             features_for({free_kick, goal})).ok());
  HMMM_CHECK(catalog.AddShot(v0, 15.0, 21.0, {corner},
                             features_for({corner})).ok());

  const VideoId v1 = catalog.AddVideo("video_b");
  HMMM_CHECK(catalog.AddShot(v1, 0.0, 4.0, {goal}, features_for({goal})).ok());
  HMMM_CHECK(catalog.AddShot(v1, 4.0, 7.0, {}, features_for({})).ok());
  HMMM_CHECK(catalog.AddShot(v1, 7.0, 12.0, {free_kick},
                             features_for({free_kick})).ok());
  HMMM_CHECK(catalog.AddShot(v1, 12.0, 18.0, {goal},
                             features_for({goal})).ok());

  HMMM_CHECK(catalog.Validate().ok());
  return catalog;
}

/// A mid-size generated soccer corpus for integration-style tests.
inline VideoCatalog GeneratedSoccerCatalog(uint64_t seed = 3,
                                           int num_videos = 8) {
  FeatureLevelConfig config = SoccerFeatureLevelDefaults(seed);
  config.num_videos = num_videos;
  config.min_shots_per_video = 40;
  config.max_shots_per_video = 70;
  config.event_shot_fraction = 0.25;
  FeatureLevelGenerator generator(config);
  auto catalog = VideoCatalog::FromGeneratedCorpus(generator.Generate());
  HMMM_CHECK(catalog.ok());
  return std::move(catalog).value();
}

/// Owns the per-test scratch directories TempPath hands out and removes
/// them, contents included, when the test process exits.
class TempDirs {
 public:
  static TempDirs& Instance() {
    static TempDirs dirs;
    return dirs;
  }

  /// $TMPDIR/hmmm-<pid>-<suite>.<test>, created empty on first use. The
  /// pid keeps test processes that run in parallel (gtest_discover_tests
  /// starts one per test) apart; the test name keeps the tests of one
  /// process apart.
  std::string ForCurrentTest() {
    const ::testing::TestInfo* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    const std::string test =
        info != nullptr
            ? std::string(info->test_suite_name()) + "." + info->name()
            : std::string("no_test");
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = dirs_.find(test);
    if (it != dirs_.end()) return it->second;
    std::string leaf = "hmmm-" + std::to_string(::getpid()) + "-" + test;
    for (char& c : leaf) {
      if (std::isalnum(static_cast<unsigned char>(c)) == 0 && c != '-' &&
          c != '.' && c != '_') {
        c = '_';  // parameterized names carry '/'
      }
    }
    const char* root = ::getenv("TMPDIR");
    const std::filesystem::path dir =
        std::filesystem::path(root != nullptr ? root : "/tmp") / leaf;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dirs_.emplace(test, dir.string()).first->second;
  }

  ~TempDirs() {
    for (const auto& entry : dirs_) {
      std::error_code ignored;
      std::filesystem::remove_all(entry.second, ignored);
    }
  }

 private:
  TempDirs() = default;

  std::mutex mutex_;
  std::map<std::string, std::string> dirs_;  // test name -> directory
};

/// Temp-file path unique to the running test and process (see TempDirs).
inline std::string TempPath(const std::string& name) {
  return TempDirs::Instance().ForCurrentTest() + "/" + name;
}

}  // namespace hmmm::testing

#endif  // HMMM_TESTS_TEST_UTIL_H_
