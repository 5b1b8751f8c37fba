#ifndef HMMM_API_VIDEO_DATABASE_H_
#define HMMM_API_VIDEO_DATABASE_H_

#include <memory>
#include <string>
#include <vector>

#include "core/category_level.h"
#include "core/model_builder.h"
#include "feedback/trainer.h"
#include "retrieval/admission.h"
#include "retrieval/engine.h"
#include "retrieval/qbe.h"
#include "snapshot/snapshot_reader.h"
#include "snapshot/snapshot_writer.h"

namespace hmmm {

/// Options bundle for a VideoDatabase instance.
struct VideoDatabaseOptions {
  ModelBuilderOptions builder;
  /// Every query runs on its calling thread (num_threads is a no-op).
  TraversalOptions traversal;
  FeedbackTrainerOptions feedback;
  /// Build and use the third (video-category) level for Step-2 pruning.
  bool enable_category_level = false;
  CategoryLevelOptions categories;
  /// Entries in the query-result LRU cache of the database's
  /// RetrievalEngine (keyed by pattern signature + model version,
  /// single-flight, degraded results never cached). 0 disables caching.
  size_t query_cache_entries = RetrievalEngine::kDefaultQueryCacheEntries;
  /// Bounds concurrent Retrieve/Query calls; saturated databases shed
  /// load with kResourceExhausted. Default: admission control off.
  AdmissionOptions admission;
};

/// The multimedia database management system view of this library
/// (the paper's MMDBMS): one object owning the archive catalog, the
/// HMMM, the feedback trainer and (optionally) the category level, with
/// query / feedback / persistence entry points. This is the recommended
/// API for applications; the lower-level pieces remain available for
/// research use. Every query is answered by the database's
/// RetrievalEngine, which also owns the model, the result cache, the
/// admission gate, the state lock and the metrics registry; the database
/// adds the catalog, the trainer, persistence and the category level.
class VideoDatabase {
 public:
  /// Builds a database over an ingested catalog (takes ownership).
  static StatusOr<VideoDatabase> Create(VideoCatalog catalog,
                                        VideoDatabaseOptions options = {});

  /// Loads a persisted catalog + model pair.
  static StatusOr<VideoDatabase> Open(const std::string& catalog_path,
                                      const std::string& model_path,
                                      VideoDatabaseOptions options = {});

  /// Builds a database over an already-built model (same agreement
  /// checks as Open, no file round-trip). This is how a shard server
  /// adopts a PartitionForServing slice: the slice model must be served
  /// as-is — rebuilding it from the slice catalog would refit the Eq.-3
  /// normalizer and the B1'/P12 centroids to the slice and break
  /// bit-identity with the full archive.
  static StatusOr<VideoDatabase> CreateWithModel(
      VideoCatalog catalog, HierarchicalModel model,
      VideoDatabaseOptions options = {});

  /// Opens a frozen snapshot file (snapshot_format.h) by mmap'ing it:
  /// every matrix is served as a borrowed view of the mapped pages (the
  /// reader is kept alive inside the database), and the frozen event
  /// index is adopted so no Eq.-14 sweep runs at open. Cold-start cost is
  /// O(shot records), independent of feature/matrix volume. Queries
  /// return byte-identical rankings to a blob-opened database; training
  /// works too (mutated matrices copy to the heap on first write). When
  /// `snapshot_options.metrics` is null, the open's hmmm_snapshot_*
  /// metrics go to the database's own registry.
  static StatusOr<VideoDatabase> OpenSnapshot(
      const std::string& path, VideoDatabaseOptions options = {},
      const SnapshotOptions& snapshot_options = {});

  /// OpenSnapshot, degrading to the legacy blob pair on ANY snapshot
  /// failure (missing file, map failure, corruption) — a snapshot is a
  /// serving accelerator, never a single point of failure. Pass an empty
  /// `snapshot_path` to skip straight to the blobs.
  static StatusOr<VideoDatabase> OpenSnapshotWithFallback(
      const std::string& snapshot_path, const std::string& catalog_path,
      const std::string& model_path, VideoDatabaseOptions options = {},
      const SnapshotOptions& snapshot_options = {});

  /// Persists the catalog and the (possibly trained) model.
  Status Save(const std::string& catalog_path,
              const std::string& model_path) const;

  /// Freezes the current catalog + model (+ event index) into a snapshot
  /// file at `path` (atomic tmp + rename), under the shared state lock.
  Status WriteSnapshot(const std::string& path,
                       SnapshotWriteOptions options = {}) const;

  /// Freezes into `dir/snapshot-<generation>.hmms` and repoints
  /// `dir/CURRENT` (the generation publish protocol); returns the
  /// published path. This is how Train() results reach cold-starting
  /// shards without a byte of re-serialization on their side.
  StatusOr<std::string> PublishSnapshot(const std::string& dir,
                                        uint64_t generation) const;

  // -- Queries -----------------------------------------------------------
  //
  // All query entry points are safe to call concurrently with each other
  // and with the feedback/replace entry points: queries hold the
  // engine's state lock shared, mutators exclusively. The temporal
  // pattern entry points are RetrievalEngine::Query/Retrieve (cache,
  // single-flight, admission, degradation and tracing are described
  // there).

  /// Compiles and answers a textual temporal pattern query.
  StatusOr<std::vector<RetrievedPattern>> Query(
      const std::string& text, RetrievalStats* stats = nullptr) const {
    return engine_.Query(text, stats);
  }

  /// Same, with per-query deadline/cancellation/trace controls.
  StatusOr<std::vector<RetrievedPattern>> Query(
      const std::string& text, const QueryControls& controls,
      RetrievalStats* stats = nullptr) const {
    return engine_.Query(text, controls, stats);
  }

  /// Answers a translated pattern.
  StatusOr<std::vector<RetrievedPattern>> Retrieve(
      const TemporalPattern& pattern, RetrievalStats* stats = nullptr) const {
    return engine_.Retrieve(pattern, stats);
  }

  /// Same, with per-query deadline/cancellation/trace controls.
  StatusOr<std::vector<RetrievedPattern>> Retrieve(
      const TemporalPattern& pattern, const QueryControls& controls,
      RetrievalStats* stats = nullptr) const {
    return engine_.Retrieve(pattern, controls, stats);
  }

  /// Query by example: ranks shots against a raw feature vector.
  StatusOr<std::vector<QbeResult>> QueryByExample(
      const std::vector<double>& raw_features, QbeOptions options = {}) const;

  /// "More like this shot".
  StatusOr<std::vector<QbeResult>> MoreLikeShot(ShotId shot,
                                                QbeOptions options = {}) const;

  // -- Feedback ----------------------------------------------------------

  /// Marks a retrieved pattern as positive; triggers offline retraining
  /// automatically when the feedback threshold is reached.
  Status MarkPositive(const RetrievedPattern& pattern);

  /// Forces a retraining round regardless of the threshold. Returns true
  /// if training ran.
  StatusOr<bool> Train();

  /// Feedback rounds applied so far.
  size_t training_rounds() const;

  // -- Introspection -----------------------------------------------------

  /// Consistent snapshot of the archive/model shape, taken under the
  /// state lock — safe to read while feedback or ReplaceCatalog runs on
  /// another thread (unlike the raw catalog()/model() references).
  struct HealthSnapshot {
    size_t videos = 0;
    size_t shots = 0;
    size_t annotated_shots = 0;
    uint64_t model_version = 0;
  };
  HealthSnapshot Health() const;

  const VideoCatalog& catalog() const { return *catalog_; }
  const HierarchicalModel& model() const { return engine_.model(); }
  /// Present only when options.enable_category_level was set.
  const CategoryLevel* categories() const { return categories_.get(); }

  /// The engine-owned metrics registry: query counters and latency
  /// histogram, the event index build counter, feedback-training metrics,
  /// snapshot-open metrics of a snapshot-opened database, and the
  /// model/admission gauges. Stable for the database's lifetime (also
  /// across moves).
  MetricsRegistry& metrics_registry() const {
    return engine_.metrics_registry();
  }

  /// One-stop JSON snapshot of every registered metric, refreshing the
  /// resource gauges first. The shape matches
  /// MetricsRegistry::RenderJson().
  std::string DumpMetrics() const { return engine_.DumpMetricsJson(); }
  /// The same dump in Prometheus text exposition format.
  std::string DumpMetricsPrometheus() const {
    return engine_.DumpMetricsPrometheus();
  }

  /// Drops every cached query result. Training (Train, threshold-
  /// triggered training inside MarkPositive) calls it so the occupancy
  /// gauge drops at once, and ReplaceCatalog drops the cache along with
  /// the model.
  void ClearQueryCache() { engine_.ClearQueryCache(); }

  /// Hit/miss/occupancy counters of the query-result cache; all-zero
  /// capacity when caching is disabled.
  QueryCacheStats cache_stats() const { return engine_.cache_stats(); }

  /// Re-clusters the category level (e.g. after heavy retraining).
  Status RebuildCategories();

  /// Swaps in a grown catalog (e.g. replayed from a CatalogJournal after
  /// more footage was ingested) and rebuilds the model, carrying over
  /// learned A1/Pi1/A2/Pi2 where possible (RebuildPreservingLearning).
  /// Pending un-trained feedback is dropped.
  Status ReplaceCatalog(VideoCatalog catalog);

 private:
  /// `metrics` = null starts an empty registry.
  VideoDatabase(VideoCatalog catalog, HierarchicalModel model,
                VideoDatabaseOptions options,
                std::unique_ptr<MetricsRegistry> metrics);

  /// The one path every factory ends in: checks that `model` and
  /// `catalog` agree, wraps them, adopts a snapshot's frozen event index
  /// and keeps its mapping alive (when `snapshot` is set), and builds the
  /// category level when enabled.
  static StatusOr<VideoDatabase> Assemble(
      VideoCatalog catalog, HierarchicalModel model,
      VideoDatabaseOptions options,
      std::unique_ptr<SnapshotReader> snapshot = nullptr,
      std::unique_ptr<MetricsRegistry> metrics = nullptr);

  /// RebuildCategories body; caller holds the engine's state lock
  /// exclusively.
  Status RebuildCategoriesLocked();

  VideoDatabaseOptions options_;
  std::unique_ptr<VideoCatalog> catalog_;
  /// For a snapshot-opened database: the mapping every borrowed matrix
  /// points into. Declared above the engine so the model and the frozen
  /// event index (which borrow it) are destroyed first.
  std::unique_ptr<SnapshotReader> snapshot_keepalive_;
  /// Behind a pointer so the engine's borrowed pointer survives a move.
  std::unique_ptr<CategoryLevel> categories_;
  /// Owns the model; borrows catalog_ and categories_.
  RetrievalEngine engine_;
  std::unique_ptr<FeedbackTrainer> trainer_;
};

}  // namespace hmmm

#endif  // HMMM_API_VIDEO_DATABASE_H_
