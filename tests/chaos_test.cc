#include <cstdio>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault_injector.h"
#include "common/serialization.h"
#include "common/thread_pool.h"
#include "core/model_builder.h"
#include "retrieval/engine.h"
#include "retrieval/traversal.h"
#include "storage/catalog_journal.h"
#include "test_util.h"

// Chaos suite: every test arms named fault points and asserts the system
// degrades along its documented contract. The probes only exist when the
// build sets -DHMMM_FAULT_INJECTION=ON (the `chaos` ctest label is wired
// to a dedicated CI leg); in a regular build each test skips — but still
// compiles, so the chaos code cannot bit-rot unnoticed.
#ifdef HMMM_FAULT_INJECTION
#define SKIP_WITHOUT_FAULT_INJECTION() (void)0
#else
#define SKIP_WITHOUT_FAULT_INJECTION() \
  GTEST_SKIP() << "built without HMMM_FAULT_INJECTION"
#endif

namespace hmmm {
namespace {

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

/// The deterministic cost counters of an anytime result against its
/// prefix reference: an aborted walk must leave none of its work behind,
/// scorer evaluations included.
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

class ChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FaultInjector::Instance().Reset();
    catalog_ = testing::GeneratedSoccerCatalog(/*seed=*/11, /*num_videos=*/20);
    auto model = ModelBuilder(catalog_).Build();
    ASSERT_TRUE(model.ok());
    model_ = std::move(model).value();
    event_index_ = std::make_unique<EventBitmapIndex>(model_, catalog_);
  }
  void TearDown() override { FaultInjector::Instance().Reset(); }

  VideoCatalog catalog_;
  HierarchicalModel model_;
  std::unique_ptr<EventBitmapIndex> event_index_;
};

TEST_F(ChaosTest, ForcedDeadlineCutoffIsByteIdenticalToThePrefix) {
  SKIP_WITHOUT_FAULT_INJECTION();
  const auto pattern = TemporalPattern::FromEvents({2, 0, 1});
  // Fix the visiting order while nothing is armed, so every run below
  // shares it.
  HmmmTraversal plain(model_, *event_index_, TraversalOptions{});
  const std::vector<VideoId> order = plain.VideoOrder(pattern);
  ASSERT_GT(order.size(), 8u);

  // arg_threshold = C makes the Step-7 claim probe fire for every claim
  // index >= C: a deterministic "deadline" at video C, immune to wall
  // clocks and scheduling.
  constexpr int64_t kCutoff = 6;
  FaultPointConfig config;
  config.arg_threshold = kCutoff;
  FaultInjector::Instance().Arm("traversal.deadline_at_video", config);

  HmmmTraversal traversal(model_, *event_index_, TraversalOptions{});
  RetrievalStats stats;
  auto results = traversal.RetrieveWithVideoOrder(pattern, order, &stats);
  ASSERT_TRUE(results.ok());
  EXPECT_TRUE(stats.degraded);
  EXPECT_EQ(stats.videos_skipped,
            order.size() - static_cast<size_t>(kCutoff));

  // The anytime result is the full retrieval over order[0, C), computed
  // with the injector quiet.
  FaultInjector::Instance().Reset();
  const std::vector<VideoId> prefix(order.begin(), order.begin() + kCutoff);
  RetrievalStats reference_stats;
  auto reference =
      plain.RetrieveWithVideoOrder(pattern, prefix, &reference_stats);
  ASSERT_TRUE(reference.ok());
  ASSERT_FALSE(reference->empty());
  ExpectIdenticalResults(*reference, *results);
  ExpectIdenticalCostCounters(reference_stats, stats);
}

TEST_F(ChaosTest, MidWalkFaultAbortsTheWalkAndPinsTheCutoff) {
  SKIP_WITHOUT_FAULT_INJECTION();
  // Multi-step pattern: the walk_fault probe is polled between pattern
  // steps, so walks at order index >= 3 abort mid-lattice.
  const auto pattern = TemporalPattern::FromEvents({2, 0, 1});
  HmmmTraversal plain(model_, *event_index_, TraversalOptions{});
  const std::vector<VideoId> order = plain.VideoOrder(pattern);

  FaultPointConfig config;
  config.arg_threshold = 3;
  FaultInjector::Instance().Arm("traversal.walk_fault", config);

  HmmmTraversal traversal(model_, *event_index_, TraversalOptions{});
  RetrievalStats stats;
  auto results = traversal.RetrieveWithVideoOrder(pattern, order, &stats);
  ASSERT_TRUE(results.ok());
  EXPECT_TRUE(stats.degraded);
  EXPECT_EQ(stats.videos_skipped, order.size() - 3u);

  // The walk at index 3 had already paid scorer evaluations and heap pops
  // before its poll fired; the counters must still equal the prefix's.
  FaultInjector::Instance().Reset();
  const std::vector<VideoId> prefix(order.begin(), order.begin() + 3);
  RetrievalStats reference_stats;
  auto reference =
      plain.RetrieveWithVideoOrder(pattern, prefix, &reference_stats);
  ASSERT_TRUE(reference.ok());
  ExpectIdenticalResults(*reference, *results);
  ExpectIdenticalCostCounters(reference_stats, stats);
}

TEST_F(ChaosTest, WalkAbortedAfterPayingRollsBackItsCounters) {
  SKIP_WITHOUT_FAULT_INJECTION();
  const auto pattern = TemporalPattern::FromEvents({2, 0, 1});
  HmmmTraversal plain(model_, *event_index_, TraversalOptions{});
  const std::vector<VideoId> order = plain.VideoOrder(pattern);

  // An armed point that never fires still makes every walk poll it once
  // per pattern step past the first. Count the polls of order prefixes.
  const auto polls_through = [&](size_t n) -> uint64_t {
    FaultInjector::Instance().Reset();
    FaultPointConfig quiet;
    quiet.arg_threshold = std::numeric_limits<int64_t>::max();
    FaultInjector::Instance().Arm("traversal.walk_fault", quiet);
    const std::vector<VideoId> prefix(order.begin(),
                                      order.begin() + static_cast<long>(n));
    EXPECT_TRUE(plain.RetrieveWithVideoOrder(pattern, prefix).ok());
    for (const FaultPointStats& point : FaultInjector::Instance().Snapshot()) {
      if (point.point == "traversal.walk_fault") return point.hits;
    }
    return 0;
  };
  // The victim is the first walk that reaches its second poll: by then it
  // has paid the deferred evaluations of its first-step winners.
  size_t victim = order.size();
  uint64_t polls_before = 0;
  for (size_t k = 0; k < order.size(); ++k) {
    const uint64_t before = polls_through(k);
    if (polls_through(k + 1) - before >= 2) {
      victim = k;
      polls_before = before;
      break;
    }
  }
  ASSERT_LT(victim, order.size());

  FaultInjector::Instance().Reset();
  FaultPointConfig config;
  config.after_hits = static_cast<int64_t>(polls_before) + 1;
  FaultInjector::Instance().Arm("traversal.walk_fault", config);
  RetrievalStats stats;
  auto results = plain.RetrieveWithVideoOrder(pattern, order, &stats);
  ASSERT_TRUE(results.ok());
  EXPECT_TRUE(stats.degraded);
  EXPECT_EQ(stats.videos_skipped, order.size() - victim);

  FaultInjector::Instance().Reset();
  const std::vector<VideoId> prefix(order.begin(),
                                    order.begin() + static_cast<long>(victim));
  RetrievalStats reference_stats;
  auto reference =
      plain.RetrieveWithVideoOrder(pattern, prefix, &reference_stats);
  ASSERT_TRUE(reference.ok());
  ExpectIdenticalResults(*reference, *results);
  ExpectIdenticalCostCounters(reference_stats, stats);
}

TEST_F(ChaosTest, OrderingFaultDegradesToEmptyOrder) {
  SKIP_WITHOUT_FAULT_INJECTION();
  FaultPointConfig config;
  config.after_hits = 0;
  FaultInjector::Instance().Arm("traversal.order_pick", config);

  HmmmTraversal traversal(model_, *event_index_, TraversalOptions{});
  const auto pattern = TemporalPattern::FromEvents({2, 0});
  RetrievalStats stats;
  auto results = traversal.Retrieve(pattern, &stats);
  ASSERT_TRUE(results.ok());
  EXPECT_TRUE(results->empty());
  EXPECT_TRUE(stats.degraded);
  EXPECT_EQ(stats.videos_skipped, catalog_.num_videos());
}

TEST_F(ChaosTest, FutureTaskFaultPropagatesThroughTheFuture) {
  SKIP_WITHOUT_FAULT_INJECTION();
  FaultPointConfig config;
  config.after_hits = 0;
  config.max_fires = 1;
  FaultInjector::Instance().Arm("threadpool.task", config);

  ThreadPool pool(2);
  auto poisoned = pool.SubmitWithFuture([] {});
  EXPECT_THROW(poisoned.get(), std::runtime_error);
  // One fire only: the next task runs clean on a surviving worker.
  auto healthy = pool.SubmitWithFuture([] {});
  EXPECT_NO_THROW(healthy.get());
}

TEST_F(ChaosTest, TransientReadFaultIsAbsorbedByTheRetryLoop) {
  SKIP_WITHOUT_FAULT_INJECTION();
  const std::string path = testing::TempPath("chaos_transient_read.bin");
  ASSERT_TRUE(WriteFile(path, "payload under test").ok());

  FaultPointConfig transient;
  transient.after_hits = 0;
  transient.max_fires = 1;
  FaultInjector::Instance().Arm("storage.read", transient);
  auto data = ReadFileToString(path);
  ASSERT_TRUE(data.ok()) << data.status();
  EXPECT_EQ(*data, "payload under test");
  EXPECT_EQ(FaultInjector::Instance().fires("storage.read"), 1u);
  std::remove(path.c_str());
}

TEST_F(ChaosTest, PersistentReadFaultExhaustsTheBoundedRetry) {
  SKIP_WITHOUT_FAULT_INJECTION();
  const std::string path = testing::TempPath("chaos_persistent_read.bin");
  ASSERT_TRUE(WriteFile(path, "unreachable").ok());

  FaultPointConfig persistent;
  persistent.after_hits = 0;
  FaultInjector::Instance().Arm("storage.read", persistent);
  auto data = ReadFileToString(path);
  EXPECT_EQ(data.status().code(), StatusCode::kIOError);
  // The retry is bounded: exactly the attempt budget, no spinning.
  EXPECT_EQ(FaultInjector::Instance().hits("storage.read"), 3u);
  std::remove(path.c_str());
}

TEST_F(ChaosTest, AppendFaultFailsCleanlyAndTheJournalStaysAppendable) {
  SKIP_WITHOUT_FAULT_INJECTION();
  const std::string path = testing::TempPath("chaos_journal.wal");
  std::remove(path.c_str());
  auto journal = CatalogJournal::Open(path, SoccerEvents(), 2);
  ASSERT_TRUE(journal.ok()) << journal.status();
  auto v0 = journal->AppendVideo("match");
  ASSERT_TRUE(v0.ok());

  // The probe sits before any byte reaches the file, so a fired append
  // is atomic-failure: nothing torn, nothing applied.
  FaultPointConfig config;
  config.after_hits = 0;
  config.max_fires = 1;
  FaultInjector::Instance().Arm("storage.append", config);
  auto failed = journal->AppendShot(*v0, 0.0, 4.0, {2}, {0.9, 0.1});
  EXPECT_EQ(failed.status().code(), StatusCode::kIOError);
  EXPECT_EQ(journal->catalog().num_shots(), 0u);

  // The transient passed: the same append now lands, and replay agrees.
  auto retried = journal->AppendShot(*v0, 0.0, 4.0, {2}, {0.9, 0.1});
  ASSERT_TRUE(retried.ok()) << retried.status();
  ASSERT_TRUE(journal->Flush().ok());
  auto reopened = CatalogJournal::Open(path, SoccerEvents(), 2);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ(reopened->recovered_tail_bytes(), 0u);
  EXPECT_EQ(reopened->catalog().num_shots(), 1u);
  std::remove(path.c_str());
}

TEST_F(ChaosTest, EngineExportsFaultPointCounters) {
  SKIP_WITHOUT_FAULT_INJECTION();
  auto engine = RetrievalEngine::Create(catalog_);
  ASSERT_TRUE(engine.ok());

  FaultPointConfig config;
  config.arg_threshold = 2;
  FaultInjector::Instance().Arm("traversal.deadline_at_video", config);
  RetrievalStats stats;
  auto results = engine->Retrieve(TemporalPattern::FromEvents({2, 0}), &stats);
  ASSERT_TRUE(results.ok());
  EXPECT_TRUE(stats.degraded);

  const std::string dump = engine->DumpMetricsPrometheus();
  EXPECT_NE(dump.find("hmmm_fault_traversal_deadline_at_video_hits"),
            std::string::npos)
      << dump;
  EXPECT_NE(dump.find("hmmm_fault_traversal_deadline_at_video_fires"),
            std::string::npos)
      << dump;
  EXPECT_NE(dump.find("hmmm_queries_degraded_total 1"), std::string::npos)
      << dump;
}

}  // namespace
}  // namespace hmmm
