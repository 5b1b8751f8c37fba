#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/video_database.h"
#include "common/serialization.h"
#include "core/model_builder.h"
#include "observability/metrics_registry.h"
#include "snapshot/snapshot_format.h"
#include "snapshot/snapshot_reader.h"
#include "snapshot/snapshot_writer.h"
#include "test_util.h"

namespace hmmm {
namespace {

// The snapshot contract is byte-identity: a database served from mapped
// pages must be indistinguishable — raw-double scores included — from
// the heap-built database the snapshot froze.
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

class SnapshotTest : public ::testing::Test {
 protected:
  void SetUp() override {
    catalog_ = testing::GeneratedSoccerCatalog(/*seed=*/7, /*num_videos=*/6);
    auto model = ModelBuilder(catalog_).Build();
    ASSERT_TRUE(model.ok()) << model.status();
    model_ = std::move(model).value();
    path_ = testing::TempPath("snapshot_test.hmms");
    std::remove(path_.c_str());
  }
  void TearDown() override { std::remove(path_.c_str()); }

  VideoCatalog catalog_;
  HierarchicalModel model_;
  std::string path_;
};

TEST_F(SnapshotTest, RoundTripRebuildsCatalogExactly) {
  ASSERT_TRUE(WriteSnapshot(model_, catalog_, path_).ok());
  auto reader = SnapshotReader::Open(path_);
  ASSERT_TRUE(reader.ok()) << reader.status();
  auto rebuilt = (*reader)->BuildCatalog();
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status();

  ASSERT_EQ(rebuilt->num_videos(), catalog_.num_videos());
  ASSERT_EQ(rebuilt->num_shots(), catalog_.num_shots());
  EXPECT_EQ(rebuilt->num_features(), catalog_.num_features());
  ASSERT_EQ(rebuilt->vocabulary().size(), catalog_.vocabulary().size());
  for (size_t e = 0; e < catalog_.vocabulary().size(); ++e) {
    EXPECT_EQ(rebuilt->vocabulary().Name(static_cast<int>(e)),
              catalog_.vocabulary().Name(static_cast<int>(e)));
  }
  for (size_t v = 0; v < catalog_.num_videos(); ++v) {
    EXPECT_EQ(rebuilt->videos()[v].name, catalog_.videos()[v].name);
    EXPECT_EQ(rebuilt->videos()[v].shots, catalog_.videos()[v].shots);
  }
  for (size_t s = 0; s < catalog_.num_shots(); ++s) {
    const ShotRecord& a = catalog_.shots()[s];
    const ShotRecord& b = rebuilt->shots()[s];
    EXPECT_EQ(b.id, a.id);
    EXPECT_EQ(b.video_id, a.video_id);
    EXPECT_EQ(b.index_in_video, a.index_in_video);
    EXPECT_EQ(b.begin_time, a.begin_time);
    EXPECT_EQ(b.end_time, a.end_time);
    EXPECT_EQ(b.events, a.events);
    EXPECT_EQ(rebuilt->raw_features_of(a.id), catalog_.raw_features_of(a.id));
  }
}

TEST_F(SnapshotTest, RoundTripRebuildsModelExactly) {
  ASSERT_TRUE(WriteSnapshot(model_, catalog_, path_).ok());
  auto reader = SnapshotReader::Open(path_);
  ASSERT_TRUE(reader.ok()) << reader.status();
  auto rebuilt = (*reader)->BuildModel();
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status();

  EXPECT_TRUE(rebuilt->b1() == model_.b1());
  EXPECT_TRUE(rebuilt->a2() == model_.a2());
  EXPECT_TRUE(rebuilt->b2() == model_.b2());
  EXPECT_TRUE(rebuilt->p12() == model_.p12());
  EXPECT_TRUE(rebuilt->b1_prime() == model_.b1_prime());
  EXPECT_EQ(rebuilt->pi2(), model_.pi2());
  ASSERT_EQ(rebuilt->locals().size(), model_.locals().size());
  for (size_t v = 0; v < model_.locals().size(); ++v) {
    EXPECT_EQ(rebuilt->locals()[v].video_id, model_.locals()[v].video_id);
    EXPECT_EQ(rebuilt->locals()[v].states, model_.locals()[v].states);
    EXPECT_EQ(rebuilt->locals()[v].pi1, model_.locals()[v].pi1);
    EXPECT_TRUE(rebuilt->locals()[v].a1 == model_.locals()[v].a1);
  }
}

TEST_F(SnapshotTest, MappedMatricesAreBorrowedAndAligned) {
  ASSERT_TRUE(WriteSnapshot(model_, catalog_, path_).ok());
  auto reader = SnapshotReader::Open(path_);
  ASSERT_TRUE(reader.ok()) << reader.status();
  auto model = (*reader)->BuildModel();
  ASSERT_TRUE(model.ok()) << model.status();
  auto catalog = (*reader)->BuildCatalog();
  ASSERT_TRUE(catalog.ok()) << catalog.status();

  const auto aligned = [](const Matrix& m) {
    return reinterpret_cast<uintptr_t>(m.ptr()) % kSnapshotAlignment == 0;
  };
  for (const Matrix* m : {&model->b1(), &model->a2(), &model->b2(),
                          &model->p12(), &model->b1_prime()}) {
    EXPECT_TRUE(m->borrowed());
    EXPECT_TRUE(aligned(*m));
  }
  for (const LocalShotModel& local : model->locals()) {
    EXPECT_TRUE(local.a1.borrowed());
    EXPECT_TRUE(aligned(local.a1));
  }
  // The BB1 feature table serves straight from the mapped pages too.
  EXPECT_EQ(reinterpret_cast<uintptr_t>(catalog->RawFeatureRow(0)) %
                kSnapshotAlignment,
            0u);
}

TEST_F(SnapshotTest, HeaderCarriesGenerationVersionAndIndexFlag) {
  SnapshotWriteOptions options;
  options.generation = 41;
  ASSERT_TRUE(WriteSnapshot(model_, catalog_, path_, options).ok());
  auto reader = SnapshotReader::Open(path_);
  ASSERT_TRUE(reader.ok()) << reader.status();
  EXPECT_EQ((*reader)->generation(), 41u);
  EXPECT_EQ((*reader)->frozen_model_version(), model_.version());
  EXPECT_TRUE((*reader)->has_event_index());
  EXPECT_FALSE((*reader)->sections().empty());
}

TEST_F(SnapshotTest, FrozenEventIndexAdoptsMappedSims) {
  ASSERT_TRUE(WriteSnapshot(model_, catalog_, path_).ok());
  auto reader = SnapshotReader::Open(path_);
  ASSERT_TRUE(reader.ok()) << reader.status();
  auto model = (*reader)->BuildModel();
  ASSERT_TRUE(model.ok());
  auto catalog = (*reader)->BuildCatalog();
  ASSERT_TRUE(catalog.ok());
  auto index = (*reader)->BuildEventIndex(*model, *catalog);
  ASSERT_TRUE(index.ok()) << index.status();
  EXPECT_TRUE(index->event_sims().borrowed());
  EXPECT_TRUE(index->FreshFor(*model));

  // Frozen sims must equal a from-scratch rebuild exactly.
  const EventBitmapIndex fresh(*model, *catalog);
  EXPECT_TRUE(index->event_sims() == fresh.event_sims());
}

TEST_F(SnapshotTest, SnapshotWithoutIndexStillOpens) {
  SnapshotWriteOptions options;
  options.include_event_index = false;
  ASSERT_TRUE(WriteSnapshot(model_, catalog_, path_, options).ok());
  auto reader = SnapshotReader::Open(path_);
  ASSERT_TRUE(reader.ok()) << reader.status();
  EXPECT_FALSE((*reader)->has_event_index());
  auto model = (*reader)->BuildModel();
  ASSERT_TRUE(model.ok());
  auto catalog = (*reader)->BuildCatalog();
  ASSERT_TRUE(catalog.ok());
  EXPECT_EQ((*reader)->BuildEventIndex(*model, *catalog).status().code(),
            StatusCode::kNotFound);

  auto db = VideoDatabase::OpenSnapshot(path_);
  ASSERT_TRUE(db.ok()) << db.status();
  auto results = db->Query("free_kick ; goal");
  EXPECT_TRUE(results.ok()) << results.status();
}

TEST_F(SnapshotTest, ImageIsDeterministicAndMatchesFile) {
  const std::string first = BuildSnapshotImage(model_, catalog_);
  const std::string second = BuildSnapshotImage(model_, catalog_);
  EXPECT_EQ(first, second);

  ASSERT_TRUE(WriteSnapshot(model_, catalog_, path_).ok());
  auto bytes = ReadFileToString(path_);
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(*bytes, first);
}

TEST_F(SnapshotTest, MappedRankingsMatchHeapAtEveryKernel) {
  VideoDatabaseOptions base;
  auto heap = VideoDatabase::Create(VideoCatalog(catalog_), base);
  ASSERT_TRUE(heap.ok()) << heap.status();
  ASSERT_TRUE(heap->WriteSnapshot(path_).ok());

  const std::vector<std::string> queries = {"free_kick ; goal", "goal",
                                            "corner_kick ; goal"};
  for (bool scalar : {false, true}) {
    VideoDatabaseOptions options;
    options.traversal.scorer.force_scalar_kernel = scalar;
    auto heap_db = VideoDatabase::Create(VideoCatalog(catalog_), options);
    ASSERT_TRUE(heap_db.ok()) << heap_db.status();
    auto mapped_db = VideoDatabase::OpenSnapshot(path_, options);
    ASSERT_TRUE(mapped_db.ok()) << mapped_db.status();
    for (const std::string& query : queries) {
      auto expected = heap_db->Query(query);
      ASSERT_TRUE(expected.ok()) << expected.status();
      auto actual = mapped_db->Query(query);
      ASSERT_TRUE(actual.ok()) << actual.status();
      SCOPED_TRACE("scalar=" + std::to_string(scalar) + " query=" + query);
      ExpectIdenticalResults(*expected, *actual);
    }
  }
}

TEST_F(SnapshotTest, MappedQbeMatchesHeap) {
  auto heap = VideoDatabase::Create(VideoCatalog(catalog_));
  ASSERT_TRUE(heap.ok()) << heap.status();
  ASSERT_TRUE(heap->WriteSnapshot(path_).ok());
  auto mapped = VideoDatabase::OpenSnapshot(path_);
  ASSERT_TRUE(mapped.ok()) << mapped.status();

  const std::vector<double> example = catalog_.raw_features_of(0);
  auto expected = heap->QueryByExample(example);
  ASSERT_TRUE(expected.ok()) << expected.status();
  auto actual = mapped->QueryByExample(example);
  ASSERT_TRUE(actual.ok()) << actual.status();
  ASSERT_EQ(expected->size(), actual->size());
  for (size_t i = 0; i < expected->size(); ++i) {
    EXPECT_EQ((*expected)[i].shot, (*actual)[i].shot);
    EXPECT_EQ((*expected)[i].similarity, (*actual)[i].similarity);
  }
}

TEST_F(SnapshotTest, TrainingCopiesOnWriteAndLeavesTheFileUntouched) {
  auto heap = VideoDatabase::Create(VideoCatalog(catalog_));
  ASSERT_TRUE(heap.ok()) << heap.status();
  ASSERT_TRUE(heap->WriteSnapshot(path_).ok());
  auto before = ReadFileToString(path_);
  ASSERT_TRUE(before.ok());

  auto db = VideoDatabase::OpenSnapshot(path_);
  ASSERT_TRUE(db.ok()) << db.status();
  EXPECT_TRUE(db->model().a2().borrowed());

  auto results = db->Query("free_kick ; goal");
  ASSERT_TRUE(results.ok()) << results.status();
  ASSERT_FALSE(results->empty());
  ASSERT_TRUE(db->MarkPositive((*results)[0]).ok());
  auto trained = db->Train();
  ASSERT_TRUE(trained.ok()) << trained.status();
  EXPECT_TRUE(*trained);

  // Training mutated the model through copy-on-write; the mapped bytes —
  // and any other reader of the same snapshot — are untouched.
  EXPECT_FALSE(db->model().a2().borrowed());
  auto after = ReadFileToString(path_);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*before, *after);

  auto retrained_results = db->Query("free_kick ; goal");
  EXPECT_TRUE(retrained_results.ok()) << retrained_results.status();
}

TEST_F(SnapshotTest, AdoptedFrozenIndexServesUntilTheFirstTrain) {
  auto heap = VideoDatabase::Create(VideoCatalog(catalog_));
  ASSERT_TRUE(heap.ok()) << heap.status();
  ASSERT_TRUE(heap->WriteSnapshot(path_).ok());
  auto db = VideoDatabase::OpenSnapshot(path_);
  ASSERT_TRUE(db.ok()) << db.status();
  const Counter* builds =
      db->metrics_registry().GetCounter("hmmm_event_index_builds_total");

  std::vector<RetrievedPattern> marked;
  for (const char* query : {"free_kick ; goal", "goal", "corner_kick ; goal"}) {
    auto results = db->Query(query);
    ASSERT_TRUE(results.ok()) << results.status();
    if (marked.empty()) marked = *results;
  }
  EXPECT_EQ(builds->value(), 0u);

  ASSERT_FALSE(marked.empty());
  ASSERT_TRUE(db->MarkPositive(marked.front()).ok());
  ASSERT_TRUE(db->Train().ok());
  EXPECT_EQ(builds->value(), 0u);
  ASSERT_TRUE(db->Query("free_kick ; goal").ok());
  ASSERT_TRUE(db->Query("goal").ok());
  EXPECT_EQ(builds->value(), 1u);
}

TEST_F(SnapshotTest, PublishRepointsCurrentAtomically) {
  const std::string dir = testing::TempPath("snapshot_pub_dir");
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(std::filesystem::create_directories(dir));

  EXPECT_EQ(ResolveCurrentSnapshot(dir).status().code(),
            StatusCode::kNotFound);

  auto first = PublishSnapshot(model_, catalog_, dir, 1);
  ASSERT_TRUE(first.ok()) << first.status();
  auto resolved = ResolveCurrentSnapshot(dir);
  ASSERT_TRUE(resolved.ok()) << resolved.status();
  EXPECT_EQ(*resolved, *first);

  auto second = PublishSnapshot(model_, catalog_, dir, 2);
  ASSERT_TRUE(second.ok()) << second.status();
  resolved = ResolveCurrentSnapshot(dir);
  ASSERT_TRUE(resolved.ok()) << resolved.status();
  EXPECT_EQ(*resolved, *second);
  EXPECT_NE(*first, *second);
  // The superseded generation stays on disk for readers still mapping it.
  EXPECT_TRUE(std::filesystem::exists(*first));

  auto reader = SnapshotReader::Open(*resolved);
  ASSERT_TRUE(reader.ok()) << reader.status();
  EXPECT_EQ((*reader)->generation(), 2u);
  std::filesystem::remove_all(dir);
}

TEST_F(SnapshotTest, OpenRecordsMetrics) {
  ASSERT_TRUE(WriteSnapshot(model_, catalog_, path_,
                            SnapshotWriteOptions{.generation = 9})
                  .ok());
  MetricsRegistry registry;
  SnapshotOptions options;
  options.metrics = &registry;
  options.verify_section_crcs = true;
  auto reader = SnapshotReader::Open(path_, options);
  ASSERT_TRUE(reader.ok()) << reader.status();

  EXPECT_EQ(registry.GetCounter("hmmm_snapshot_opens_total")->value(), 1u);
  EXPECT_EQ(registry.GetCounter("hmmm_snapshot_open_failures_total")->value(),
            0u);
  EXPECT_EQ(registry
                .GetHistogram("hmmm_snapshot_open_ms",
                              DefaultLatencyBucketsMs())
                ->count(),
            1u);
  EXPECT_EQ(registry.GetGauge("hmmm_snapshot_generation")->value(), 9.0);
  EXPECT_EQ(registry.GetGauge("hmmm_snapshot_mapped_bytes")->value(),
            static_cast<double>((*reader)->file_size()));

  auto missing = SnapshotReader::Open(path_ + ".does-not-exist", options);
  EXPECT_FALSE(missing.ok());
  EXPECT_EQ(registry.GetCounter("hmmm_snapshot_opens_total")->value(), 2u);
  EXPECT_EQ(registry.GetCounter("hmmm_snapshot_open_failures_total")->value(),
            1u);
}

TEST_F(SnapshotTest, FallbackPrefersSnapshotAndDegradesToBlobs) {
  const std::string catalog_path = testing::TempPath("snapfb.catalog");
  const std::string model_path = testing::TempPath("snapfb.model");
  auto db = VideoDatabase::Create(VideoCatalog(catalog_));
  ASSERT_TRUE(db.ok()) << db.status();
  ASSERT_TRUE(db->Save(catalog_path, model_path).ok());
  ASSERT_TRUE(db->WriteSnapshot(path_).ok());

  // Healthy snapshot: the mmap path wins (model matrices stay borrowed).
  auto from_snapshot = VideoDatabase::OpenSnapshotWithFallback(
      path_, catalog_path, model_path);
  ASSERT_TRUE(from_snapshot.ok()) << from_snapshot.status();
  EXPECT_TRUE(from_snapshot->model().b1().borrowed());

  // Missing snapshot: the blob pair still boots the database.
  auto fallback = VideoDatabase::OpenSnapshotWithFallback(
      path_ + ".missing", catalog_path, model_path);
  ASSERT_TRUE(fallback.ok()) << fallback.status();
  EXPECT_FALSE(fallback->model().b1().borrowed());

  auto expected = from_snapshot->Query("free_kick ; goal");
  ASSERT_TRUE(expected.ok());
  auto actual = fallback->Query("free_kick ; goal");
  ASSERT_TRUE(actual.ok());
  ExpectIdenticalResults(*expected, *actual);

  std::remove(catalog_path.c_str());
  std::remove(model_path.c_str());
}

}  // namespace
}  // namespace hmmm
