#include "common/cancellation.h"

#include <atomic>
#include <chrono>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/category_level.h"
#include "core/model_builder.h"
#include "retrieval/engine.h"
#include "retrieval/three_level.h"
#include "retrieval/traversal.h"
#include "test_util.h"

namespace hmmm {
namespace {

using std::chrono::milliseconds;
using std::chrono::microseconds;

TEST(CancellationTokenTest, StartsClearAndCancelIsSticky) {
  CancellationToken token;
  EXPECT_FALSE(token.cancelled());
  token.Cancel();
  EXPECT_TRUE(token.cancelled());
  token.Cancel();  // idempotent
  EXPECT_TRUE(token.cancelled());
}

TEST(CancellationTokenTest, DeadlineHelpers) {
  EXPECT_FALSE(DeadlineExpired(kNoDeadline));
  EXPECT_TRUE(DeadlineExpired(std::chrono::steady_clock::now() -
                              std::chrono::seconds(1)));
  const auto soon = DeadlineAfter(std::chrono::hours(1));
  EXPECT_FALSE(DeadlineExpired(soon));
  EXPECT_LT(soon, kNoDeadline);
}

/// Exact-equality helpers: anytime results must be byte-identical, not
/// merely similar.
void ExpectIdenticalResults(const std::vector<RetrievedPattern>& expected,
                            const std::vector<RetrievedPattern>& actual) {
  ASSERT_EQ(expected.size(), actual.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i].shots, actual[i].shots) << "rank " << i;
    EXPECT_EQ(expected[i].score, actual[i].score) << "rank " << i;
    EXPECT_EQ(expected[i].video, actual[i].video) << "rank " << i;
    EXPECT_EQ(expected[i].edge_weights, actual[i].edge_weights)
        << "rank " << i;
    EXPECT_EQ(expected[i].crosses_videos, actual[i].crosses_videos)
        << "rank " << i;
  }
}

/// Compares the deterministic cost counters (degraded/videos_skipped are
/// asserted separately — the prefix reference is not itself degraded).
void ExpectIdenticalCostCounters(const RetrievalStats& expected,
                                 const RetrievalStats& actual) {
  EXPECT_EQ(expected.videos_considered, actual.videos_considered);
  EXPECT_EQ(expected.states_visited, actual.states_visited);
  EXPECT_EQ(expected.sim_evaluations, actual.sim_evaluations);
  EXPECT_EQ(expected.candidates_scored, actual.candidates_scored);
  EXPECT_EQ(expected.beam_pruned, actual.beam_pruned);
  EXPECT_EQ(expected.annotated_fallbacks, actual.annotated_fallbacks);
  EXPECT_EQ(expected.sim_memo_hits, actual.sim_memo_hits);
  EXPECT_EQ(expected.candidate_list_reuse, actual.candidate_list_reuse);
  EXPECT_EQ(expected.heap_pops, actual.heap_pops);
  EXPECT_EQ(expected.grid_cells_skipped, actual.grid_cells_skipped);
  EXPECT_EQ(expected.truncated, actual.truncated);
}

class CancellationRetrievalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    catalog_ = testing::GeneratedSoccerCatalog(/*seed=*/11, /*num_videos=*/20);
    auto model = ModelBuilder(catalog_).Build();
    ASSERT_TRUE(model.ok());
    model_ = std::move(model).value();
    event_index_ = std::make_unique<EventBitmapIndex>(model_, catalog_);
  }

  /// No-deadline retrieval restricted to `order` — the reference
  /// an anytime result must match once its completed prefix is known.
  std::vector<RetrievedPattern> PrefixReference(
      const TemporalPattern& pattern, const std::vector<VideoId>& order,
      RetrievalStats* stats) const {
    HmmmTraversal serial(model_, *event_index_, TraversalOptions{});
    auto reference = serial.RetrieveWithVideoOrder(pattern, order, stats);
    EXPECT_TRUE(reference.ok());
    return reference.ok() ? *reference : std::vector<RetrievedPattern>{};
  }

  VideoCatalog catalog_;
  HierarchicalModel model_;
  std::unique_ptr<EventBitmapIndex> event_index_;
};

TEST_F(CancellationRetrievalTest, PreCancelledTokenDegradesToEmpty) {
  const auto pattern = TemporalPattern::FromEvents({2, 0, 1});
  CancellationToken token;
  token.Cancel();
  TraversalOptions options;
  options.cancellation = &token;
  HmmmTraversal traversal(model_, *event_index_, options);
  RetrievalStats stats;
  auto results = traversal.Retrieve(pattern, &stats);
  ASSERT_TRUE(results.ok());
  EXPECT_TRUE(results->empty());
  EXPECT_TRUE(stats.degraded);
  EXPECT_EQ(stats.videos_skipped, catalog_.num_videos());
  EXPECT_EQ(stats.videos_considered, 0u);
}

TEST_F(CancellationRetrievalTest, ExpiredDeadlineDegradesLikeCancellation) {
  const auto pattern = TemporalPattern::FromEvents({2, 0});
  TraversalOptions options;
  options.deadline = std::chrono::steady_clock::now() - milliseconds(1);
  HmmmTraversal traversal(model_, *event_index_, options);
  RetrievalStats stats;
  auto results = traversal.Retrieve(pattern, &stats);
  ASSERT_TRUE(results.ok());
  EXPECT_TRUE(results->empty());
  EXPECT_TRUE(stats.degraded);
  EXPECT_EQ(stats.videos_skipped, catalog_.num_videos());
}

TEST_F(CancellationRetrievalTest, FarDeadlineMatchesNoDeadlineByteForByte) {
  // A deadline that never fires still turns on every Step-7 poll; the
  // ranking and every cost counter must not notice.
  const auto pattern = TemporalPattern::FromEvents({2, 0, 1});
  HmmmTraversal plain(model_, *event_index_, TraversalOptions{});
  RetrievalStats plain_stats;
  auto reference = plain.Retrieve(pattern, &plain_stats);
  ASSERT_TRUE(reference.ok());
  ASSERT_FALSE(reference->empty());

  CancellationToken unfired;
  TraversalOptions options;
  options.deadline = DeadlineAfter(std::chrono::hours(1));
  options.cancellation = &unfired;
  HmmmTraversal traversal(model_, *event_index_, options);
  RetrievalStats stats;
  auto results = traversal.Retrieve(pattern, &stats);
  ASSERT_TRUE(results.ok());
  ExpectIdenticalResults(*reference, *results);
  ExpectIdenticalCostCounters(plain_stats, stats);
  EXPECT_FALSE(stats.degraded);
  EXPECT_EQ(stats.videos_skipped, 0u);
}

TEST_F(CancellationRetrievalTest,
       AnytimeResultEqualsSerialRetrievalOverCompletedPrefix) {
  // The degradation contract, asserted from the outside: whatever prefix
  // the deadline left completed, the anytime ranking is byte-identical
  // to an undisturbed retrieval over exactly that prefix. The cutoff
  // itself is timing-dependent; the equality is not.
  const auto pattern = TemporalPattern::FromEvents({2, 0, 1});
  HmmmTraversal plain(model_, *event_index_, TraversalOptions{});
  const std::vector<VideoId> order = plain.VideoOrder(pattern);
  ASSERT_EQ(order.size(), catalog_.num_videos());

  for (const auto budget :
       {microseconds(0), microseconds(200), microseconds(1000)}) {
    TraversalOptions options;
    options.deadline = DeadlineAfter(budget);
    HmmmTraversal traversal(model_, *event_index_, options);
    RetrievalStats stats;
    auto results = traversal.RetrieveWithVideoOrder(pattern, order, &stats);
    ASSERT_TRUE(results.ok());

    ASSERT_LE(stats.videos_skipped, order.size());
    const std::vector<VideoId> prefix(
        order.begin(), order.end() - static_cast<long>(stats.videos_skipped));
    RetrievalStats reference_stats;
    const auto reference = PrefixReference(pattern, prefix, &reference_stats);
    ExpectIdenticalResults(reference, *results);
    ExpectIdenticalCostCounters(reference_stats, stats);
    EXPECT_EQ(stats.degraded, stats.videos_skipped > 0);
  }
}

TEST_F(CancellationRetrievalTest, MidFlightCancelStillYieldsConsistentPrefix) {
  const auto pattern = TemporalPattern::FromEvents({2, 0, 1});
  HmmmTraversal plain(model_, *event_index_, TraversalOptions{});
  const std::vector<VideoId> order = plain.VideoOrder(pattern);

  CancellationToken token;
  TraversalOptions options;
  options.cancellation = &token;
  HmmmTraversal traversal(model_, *event_index_, options);

  std::thread canceller([&token] {
    std::this_thread::sleep_for(microseconds(300));
    token.Cancel();
  });
  RetrievalStats stats;
  auto results = traversal.RetrieveWithVideoOrder(pattern, order, &stats);
  canceller.join();
  ASSERT_TRUE(results.ok());

  ASSERT_LE(stats.videos_skipped, order.size());
  const std::vector<VideoId> prefix(
      order.begin(), order.end() - static_cast<long>(stats.videos_skipped));
  RetrievalStats reference_stats;
  const auto reference = PrefixReference(pattern, prefix, &reference_stats);
  ExpectIdenticalResults(reference, *results);
  ExpectIdenticalCostCounters(reference_stats, stats);
}

TEST_F(CancellationRetrievalTest, ThreeLevelHonorsCancellation) {
  auto categories = BuildCategoryLevel(model_, CategoryLevelOptions{});
  ASSERT_TRUE(categories.ok());
  const auto pattern = TemporalPattern::FromEvents({0});

  // Undisturbed three-level retrieval as the reference.
  TraversalOptions plain_options;
  ThreeLevelTraversal plain(model_, *categories, *event_index_, plain_options);
  RetrievalStats plain_stats;
  auto reference = plain.Retrieve(pattern, &plain_stats);
  ASSERT_TRUE(reference.ok());
  EXPECT_FALSE(plain_stats.degraded);

  // Pre-cancelled: the cluster chaining stops before picking anything,
  // every would-be-visited video counts as skipped, and the result is
  // the (empty) anytime ranking, still OK.
  CancellationToken token;
  token.Cancel();
  TraversalOptions options;
  options.cancellation = &token;
  ThreeLevelTraversal pruned(model_, *categories, *event_index_, options);
  RetrievalStats stats;
  auto results = pruned.Retrieve(pattern, &stats);
  ASSERT_TRUE(results.ok());
  EXPECT_TRUE(results->empty());
  EXPECT_TRUE(stats.degraded);
  EXPECT_GT(stats.videos_skipped, 0u);

  // A deadline that cannot fire changes nothing.
  TraversalOptions far;
  far.deadline = DeadlineAfter(std::chrono::hours(1));
  ThreeLevelTraversal relaxed(model_, *categories, *event_index_, far);
  RetrievalStats far_stats;
  auto same = relaxed.Retrieve(pattern, &far_stats);
  ASSERT_TRUE(same.ok());
  ExpectIdenticalResults(*reference, *same);
  EXPECT_FALSE(far_stats.degraded);
}

class AdmissionControlTest : public ::testing::Test {
 protected:
  void SetUp() override {
    catalog_ = testing::GeneratedSoccerCatalog(/*seed=*/11, /*num_videos=*/20);
    auto engine = RetrievalEngine::Create(catalog_, /*builder_options=*/{},
                                          /*traversal_options=*/{},
                                          /*query_cache_entries=*/0);
    ASSERT_TRUE(engine.ok());
    engine_.emplace(std::move(engine).value());
  }

  VideoCatalog catalog_;
  std::optional<RetrievalEngine> engine_;
};

TEST_F(AdmissionControlTest, OptionsRoundTrip) {
  AdmissionOptions options;
  options.max_concurrent = 3;
  options.max_queued = 7;
  options.max_queue_wait = milliseconds(123);
  engine_->set_admission_options(options);
  const AdmissionOptions got = engine_->admission_options();
  EXPECT_EQ(got.max_concurrent, 3);
  EXPECT_EQ(got.max_queued, 7);
  EXPECT_EQ(got.max_queue_wait, milliseconds(123));
}

TEST_F(AdmissionControlTest, UnlimitedByDefault) {
  const auto pattern = TemporalPattern::FromEvents({2, 0});
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < 8; ++i) {
    threads.emplace_back([&] {
      auto results = engine_->Retrieve(pattern);
      if (!results.ok()) failures.fetch_add(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST_F(AdmissionControlTest, BoundedQueueAdmitsEveryoneWhoFits) {
  // One slot, a queue big enough for every contender and a generous
  // wait: serialized execution, but nobody is shed.
  AdmissionOptions options;
  options.max_concurrent = 1;
  options.max_queued = 8;
  options.max_queue_wait = std::chrono::milliseconds(10000);
  engine_->set_admission_options(options);

  const auto pattern = TemporalPattern::FromEvents({2, 0, 1});
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < 4; ++i) {
    threads.emplace_back([&] {
      for (int run = 0; run < 3; ++run) {
        auto results = engine_->Retrieve(pattern);
        if (!results.ok()) failures.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST_F(AdmissionControlTest, SaturationShedsLoadWithResourceExhausted) {
  AdmissionOptions options;
  options.max_concurrent = 1;
  options.max_queued = 0;  // no parking: reject the moment we are busy
  options.max_queue_wait = milliseconds(0);
  engine_->set_admission_options(options);

  // Two threads querying back-to-back over one slot: every overlap sheds
  // the loser with kResourceExhausted. Rejections are counted from BOTH
  // sides because scheduling decides which side gets starved — on a
  // single core the thread that establishes its query cadence first
  // holds the slot through its whole timeslice, and the other side only
  // ever sees instant rejections (so a probe that counts its own
  // rejections alone is correct or dead-wrong depending on who won the
  // initial race).
  const auto pattern = TemporalPattern::FromEvents({2, 0, 1});
  std::atomic<bool> stop{false};
  std::atomic<int> rejections{0};
  std::atomic<bool> wrong_code{false};
  const auto contender = [&] {
    while (!stop.load()) {
      auto results = engine_->Retrieve(pattern);
      if (results.ok()) continue;
      if (results.status().code() == StatusCode::kResourceExhausted) {
        rejections.fetch_add(1);
        stop.store(true);
      } else {
        wrong_code.store(true);
        stop.store(true);
      }
    }
  };
  std::thread first(contender);
  std::thread second(contender);
  // Watchdog so a scheduling pathology fails the assertion below instead
  // of hanging the suite.
  for (int i = 0; i < 5000 && !stop.load(); ++i) {
    std::this_thread::sleep_for(milliseconds(1));
  }
  stop.store(true);
  first.join();
  second.join();
  EXPECT_FALSE(wrong_code.load());
  EXPECT_GT(rejections.load(), 0);
  EXPECT_NE(engine_->DumpMetricsPrometheus().find(
                "hmmm_admission_rejected_total"),
            std::string::npos);
}

class EngineDegradedTest : public ::testing::Test {
 protected:
  void SetUp() override {
    catalog_ = testing::GeneratedSoccerCatalog(/*seed=*/11, /*num_videos=*/20);
  }

  VideoCatalog catalog_;
};

TEST_F(EngineDegradedTest, DegradedResultsAreNeverCached) {
  CancellationToken token;
  token.Cancel();
  TraversalOptions cancelled_options;
  cancelled_options.cancellation = &token;
  auto engine = RetrievalEngine::Create(catalog_, /*builder_options=*/{},
                                        cancelled_options,
                                        /*query_cache_entries=*/8);
  ASSERT_TRUE(engine.ok());
  const auto pattern = TemporalPattern::FromEvents({2, 0});

  RetrievalStats stats;
  auto degraded = engine->Retrieve(pattern, &stats);
  ASSERT_TRUE(degraded.ok());
  EXPECT_TRUE(stats.degraded);
  EXPECT_TRUE(degraded->empty());
  // The anytime prefix must not poison the cache.
  EXPECT_EQ(engine->cache_stats().entries, 0u);

  // Un-cancelled options: the full ranking is computed and cached.
  engine->set_traversal_options(TraversalOptions{});
  RetrievalStats full_stats;
  auto full = engine->Retrieve(pattern, &full_stats);
  ASSERT_TRUE(full.ok());
  EXPECT_FALSE(full_stats.degraded);
  EXPECT_FALSE(full->empty());
  EXPECT_EQ(engine->cache_stats().entries, 1u);

  // And the degraded query was counted.
  const std::string dump = engine->DumpMetricsPrometheus();
  EXPECT_NE(dump.find("hmmm_queries_degraded_total 1"), std::string::npos)
      << dump;
}

}  // namespace
}  // namespace hmmm
