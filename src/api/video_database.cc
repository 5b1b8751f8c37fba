#include "api/video_database.h"

#include "common/logging.h"
#include "storage/model_io.h"

namespace hmmm {

VideoDatabase::VideoDatabase(VideoCatalog catalog, HierarchicalModel model,
                             VideoDatabaseOptions options,
                             std::unique_ptr<MetricsRegistry> metrics)
    : options_(std::move(options)),
      catalog_(std::make_unique<VideoCatalog>(std::move(catalog))),
      engine_(*catalog_, std::move(model), options_.traversal,
              options_.query_cache_entries, std::move(metrics)),
      trainer_(std::make_unique<FeedbackTrainer>(*catalog_,
                                                 options_.feedback)) {
  engine_.set_admission_options(options_.admission);
  trainer_->AttachMetrics(&engine_.metrics_registry());
}

StatusOr<VideoDatabase> VideoDatabase::Assemble(
    VideoCatalog catalog, HierarchicalModel model, VideoDatabaseOptions options,
    std::unique_ptr<SnapshotReader> snapshot,
    std::unique_ptr<MetricsRegistry> metrics) {
  if (model.num_videos() != catalog.num_videos()) {
    return Status::FailedPrecondition(
        "model and catalog disagree on video count");
  }
  if (model.num_global_states() != catalog.num_annotated_shots()) {
    return Status::FailedPrecondition(
        "model and catalog disagree on annotated shots");
  }
  VideoDatabase db(std::move(catalog), std::move(model), std::move(options),
                   std::move(metrics));
  if (snapshot != nullptr && snapshot->has_event_index()) {
    HMMM_ASSIGN_OR_RETURN(EventBitmapIndex index,
                          snapshot->BuildEventIndex(db.model(), db.catalog()));
    db.engine_.AdoptEventIndex(
        std::make_shared<const EventBitmapIndex>(std::move(index)));
  }
  // The keepalive goes in AFTER everything borrowing it was built, and
  // the member order guarantees borrowers are destroyed first.
  db.snapshot_keepalive_ = std::move(snapshot);
  if (db.options_.enable_category_level) {
    HMMM_RETURN_IF_ERROR(db.RebuildCategories());
  }
  return db;
}

StatusOr<VideoDatabase> VideoDatabase::Create(VideoCatalog catalog,
                                              VideoDatabaseOptions options) {
  HMMM_RETURN_IF_ERROR(catalog.Validate());
  ModelBuilder builder(catalog, options.builder);
  HMMM_ASSIGN_OR_RETURN(HierarchicalModel model, builder.Build());
  return Assemble(std::move(catalog), std::move(model), std::move(options));
}

StatusOr<VideoDatabase> VideoDatabase::Open(const std::string& catalog_path,
                                            const std::string& model_path,
                                            VideoDatabaseOptions options) {
  HMMM_ASSIGN_OR_RETURN(VideoCatalog catalog, LoadCatalog(catalog_path));
  HMMM_ASSIGN_OR_RETURN(HierarchicalModel model,
                        HierarchicalModel::LoadFromFile(model_path));
  return Assemble(std::move(catalog), std::move(model), std::move(options));
}

StatusOr<VideoDatabase> VideoDatabase::OpenSnapshot(
    const std::string& path, VideoDatabaseOptions options,
    const SnapshotOptions& snapshot_options) {
  // Without a caller-supplied sink the open records its hmmm_snapshot_*
  // metrics into the registry the database then owns, so a serving
  // daemon's scrape reports them.
  auto metrics = std::make_unique<MetricsRegistry>();
  SnapshotOptions open_options = snapshot_options;
  if (open_options.metrics == nullptr) open_options.metrics = metrics.get();
  HMMM_ASSIGN_OR_RETURN(std::unique_ptr<SnapshotReader> reader,
                        SnapshotReader::Open(path, open_options));
  HMMM_ASSIGN_OR_RETURN(VideoCatalog catalog, reader->BuildCatalog());
  HMMM_ASSIGN_OR_RETURN(HierarchicalModel model, reader->BuildModel());
  // The full Validate() pair is skipped deliberately — the writer ran it,
  // and rerunning it here would rescan every mapped matrix.
  return Assemble(std::move(catalog), std::move(model), std::move(options),
                  std::move(reader), std::move(metrics));
}

StatusOr<VideoDatabase> VideoDatabase::OpenSnapshotWithFallback(
    const std::string& snapshot_path, const std::string& catalog_path,
    const std::string& model_path, VideoDatabaseOptions options,
    const SnapshotOptions& snapshot_options) {
  if (!snapshot_path.empty()) {
    StatusOr<VideoDatabase> db =
        OpenSnapshot(snapshot_path, options, snapshot_options);
    if (db.ok()) return db;
    HMMM_LOG(Warning) << "snapshot open failed (" << db.status().ToString()
                      << "); falling back to blob load";
  }
  return Open(catalog_path, model_path, std::move(options));
}

StatusOr<VideoDatabase> VideoDatabase::CreateWithModel(
    VideoCatalog catalog, HierarchicalModel model,
    VideoDatabaseOptions options) {
  HMMM_RETURN_IF_ERROR(catalog.Validate());
  HMMM_RETURN_IF_ERROR(model.Validate());
  return Assemble(std::move(catalog), std::move(model), std::move(options));
}

Status VideoDatabase::Save(const std::string& catalog_path,
                           const std::string& model_path) const {
  const auto lock = engine_.LockShared();
  HMMM_RETURN_IF_ERROR(SaveCatalog(*catalog_, catalog_path));
  return model().SaveToFile(model_path);
}

Status VideoDatabase::WriteSnapshot(const std::string& path,
                                    SnapshotWriteOptions options) const {
  const auto lock = engine_.LockShared();
  return ::hmmm::WriteSnapshot(model(), *catalog_, path, options);
}

StatusOr<std::string> VideoDatabase::PublishSnapshot(const std::string& dir,
                                                     uint64_t generation) const {
  const auto lock = engine_.LockShared();
  return ::hmmm::PublishSnapshot(model(), *catalog_, dir, generation);
}

StatusOr<std::vector<QbeResult>> VideoDatabase::QueryByExample(
    const std::vector<double>& raw_features, QbeOptions options) const {
  const auto lock = engine_.LockShared();
  QbeMatcher matcher(model(), std::move(options));
  return matcher.Retrieve(raw_features);
}

StatusOr<std::vector<QbeResult>> VideoDatabase::MoreLikeShot(
    ShotId shot, QbeOptions options) const {
  const auto lock = engine_.LockShared();
  QbeMatcher matcher(model(), std::move(options));
  return matcher.RetrieveSimilarTo(shot);
}

Status VideoDatabase::MarkPositive(const RetrievedPattern& pattern) {
  const auto lock = engine_.LockExclusive();
  HMMM_RETURN_IF_ERROR(trainer_->MarkPositive(model(), pattern));
  HMMM_ASSIGN_OR_RETURN(bool trained,
                        trainer_->MaybeTrain(engine_.mutable_model()));
  // Training rewrites A1/Pi1/A2/Pi2 and bumps the model version; the
  // cache's version guard would lazily flush, but an eager clear keeps
  // the occupancy gauge honest immediately.
  if (trained) ClearQueryCache();
  return Status::OK();
}

StatusOr<bool> VideoDatabase::Train() {
  const auto lock = engine_.LockExclusive();
  HMMM_ASSIGN_OR_RETURN(
      bool trained, trainer_->MaybeTrain(engine_.mutable_model(), /*force=*/true));
  if (trained) ClearQueryCache();
  return trained;
}

Status VideoDatabase::ReplaceCatalog(VideoCatalog catalog) {
  const auto lock = engine_.LockExclusive();
  HMMM_RETURN_IF_ERROR(catalog.Validate());
  HMMM_ASSIGN_OR_RETURN(
      HierarchicalModel rebuilt,
      RebuildPreservingLearning(model(), catalog, options_.builder));
  *catalog_ = std::move(catalog);
  // Drops the cached rankings and the adopted snapshot index with the old
  // model. Nothing borrows the mapping once the old model is gone, so it
  // goes now, after the index that borrowed its sims.
  engine_.ReplaceModel(std::move(rebuilt));
  snapshot_keepalive_.reset();
  // The trainer references the catalog object (stable address), but any
  // pending global-state feedback refers to the old model: start fresh.
  trainer_ = std::make_unique<FeedbackTrainer>(*catalog_, options_.feedback);
  trainer_->AttachMetrics(&engine_.metrics_registry());
  if (options_.enable_category_level) {
    HMMM_RETURN_IF_ERROR(RebuildCategoriesLocked());
  }
  return Status::OK();
}

size_t VideoDatabase::training_rounds() const {
  const auto lock = engine_.LockShared();
  return trainer_->rounds_trained();
}

VideoDatabase::HealthSnapshot VideoDatabase::Health() const {
  const auto lock = engine_.LockShared();
  HealthSnapshot health;
  health.videos = catalog_->num_videos();
  health.shots = catalog_->num_shots();
  health.annotated_shots = catalog_->num_annotated_shots();
  health.model_version = model().version();
  return health;
}

Status VideoDatabase::RebuildCategories() {
  const auto lock = engine_.LockExclusive();
  return RebuildCategoriesLocked();
}

Status VideoDatabase::RebuildCategoriesLocked() {
  HMMM_ASSIGN_OR_RETURN(CategoryLevel level,
                        BuildCategoryLevel(model(), options_.categories));
  categories_ = std::make_unique<CategoryLevel>(std::move(level));
  engine_.set_categories(categories_.get());
  return Status::OK();
}

}  // namespace hmmm
