#ifndef HMMM_RETRIEVAL_ENGINE_H_
#define HMMM_RETRIEVAL_ENGINE_H_

#include <chrono>
#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "core/model_builder.h"
#include "observability/metrics_registry.h"
#include "retrieval/admission.h"
#include "retrieval/query_cache.h"
#include "retrieval/traversal.h"

namespace hmmm {

/// High-level facade over catalog + model + traversal: the public entry
/// point a downstream application uses ("build the HMMM over my archive,
/// then answer temporal pattern queries").
///
/// Serving infrastructure lives here rather than in the traversal:
///  - an LRU cache of ranked results keyed by the compiled pattern's
///    signature and the model's version counter, so feedback training
///    (which bumps the version) invalidates all cached rankings at once,
///  - a MetricsRegistry holding query counters, an end-to-end latency
///    histogram, the cache's hit/miss/eviction mirrors and model/admission
///    resource gauges.
///
/// Each query runs on its calling thread; concurrent callers are the
/// only parallelism.
class RetrievalEngine {
 public:
  /// Default capacity of the query-result cache (entries, not bytes).
  static constexpr size_t kDefaultQueryCacheEntries = 64;

  /// Builds the engine's HMMM from the catalog. The catalog must outlive
  /// the engine. `query_cache_entries` = 0 disables result caching.
  static StatusOr<RetrievalEngine> Create(
      const VideoCatalog& catalog, ModelBuilderOptions builder_options = {},
      TraversalOptions traversal_options = {},
      size_t query_cache_entries = kDefaultQueryCacheEntries);

  /// Wraps a pre-built (e.g. deserialized or trained) model.
  RetrievalEngine(const VideoCatalog& catalog, HierarchicalModel model,
                  TraversalOptions traversal_options = {},
                  size_t query_cache_entries = kDefaultQueryCacheEntries);

  // Defined in engine.cc where IndexCache is complete.
  RetrievalEngine(RetrievalEngine&&) noexcept;
  RetrievalEngine& operator=(RetrievalEngine&&) noexcept;
  ~RetrievalEngine();

  /// Compiles and runs a textual temporal-pattern query.
  StatusOr<std::vector<RetrievedPattern>> Query(
      const std::string& text, RetrievalStats* stats = nullptr) const;

  /// Runs an already-translated pattern. Results are served from the LRU
  /// cache when an identical pattern was answered under the current model
  /// version; hits replay the recorded RetrievalStats of the traversal
  /// that produced the entry into `stats`, so cost accounting works on
  /// both paths. Concurrent identical misses are coalesced: one caller
  /// computes while the rest wait for its entry (single-flight), so a
  /// stampede of the same query costs one traversal. Degraded (anytime)
  /// results are returned but never cached — a later uncontended query
  /// deserves the full ranking. May fail with kResourceExhausted when
  /// admission control is configured and the engine is saturated.
  StatusOr<std::vector<RetrievedPattern>> Retrieve(
      const TemporalPattern& pattern, RetrievalStats* stats = nullptr) const;

  const VideoCatalog& catalog() const { return *catalog_; }
  const HierarchicalModel& model() const { return *model_; }
  /// Mutable model access for the feedback trainer. Training through
  /// OfflineLearner bumps the model version, which invalidates cached
  /// query results; direct matrix edits must call BumpVersion().
  HierarchicalModel& mutable_model() { return *model_; }

  const TraversalOptions& traversal_options() const {
    return traversal_options_;
  }
  /// Replaces the options and drops every cached result (options change
  /// the ranking).
  void set_traversal_options(const TraversalOptions& options);

  /// Replaces the admission policy. Takes effect for subsequent
  /// Retrieve/Query calls; already-parked waiters re-evaluate against
  /// the new bounds.
  void set_admission_options(const AdmissionOptions& options);
  AdmissionOptions admission_options() const;

  /// Hit/miss/occupancy counters of the query-result cache; all-zero
  /// capacity when caching is disabled.
  QueryCacheStats cache_stats() const;

  /// The shared model-tier EventBitmapIndex for the current model
  /// version. Built lazily on first use and rebuilt when the version
  /// counter moves (the same staleness rule as the query-result cache);
  /// every traversal of the engine runs on this one instance. Returned as
  /// a shared_ptr so an in-flight query keeps its index alive across a
  /// concurrent rebuild.
  std::shared_ptr<const EventBitmapIndex> SharedEventIndex() const;

  /// The engine-owned registry. Stable for the engine's lifetime (also
  /// across moves); external subsystems (e.g. the feedback trainer) may
  /// register their own metrics here to get one unified dump.
  MetricsRegistry& metrics_registry() const { return *metrics_; }

  /// Prometheus text exposition of every registered metric, after
  /// refreshing the model/admission resource gauges.
  std::string DumpMetricsPrometheus() const;
  /// JSON snapshot of the same.
  std::string DumpMetricsJson() const;

 private:
  /// Copies the model version, the in-flight count and any armed
  /// fault-point counters into registry gauges. Called by the Dump
  /// methods; gauges are snapshots, not live views.
  void RefreshResourceGauges() const;

  /// Blocks (bounded) for an admission slot per admission_options().
  /// Increments hmmm_admission_rejected_total and returns
  /// kResourceExhausted on shed load. Every OK must be paired with
  /// ReleaseSlot(). Note one deliberate interaction with single-flight:
  /// a cache waiter parks while *holding* its slot, which is safe (the
  /// compute leader always holds a slot too, so progress is guaranteed)
  /// and intended — a coalesced caller is still occupying the engine.
  Status AcquireSlot() const;
  void ReleaseSlot() const;

  const VideoCatalog* catalog_;
  /// unique_ptr so the engine stays movable while traversals hold stable
  /// references.
  std::unique_ptr<HierarchicalModel> model_;
  TraversalOptions traversal_options_;
  std::unique_ptr<QueryCache> cache_;  // null when caching is disabled
  /// Mutex + current index behind a pointer so the engine stays movable.
  struct IndexCache;
  std::unique_ptr<IndexCache> index_cache_;
  /// Mutex + cv + in-flight counters behind a pointer, same movability
  /// trick as IndexCache.
  struct Admission;
  std::unique_ptr<Admission> admission_;
  std::unique_ptr<MetricsRegistry> metrics_;
  // Hot-path handles into metrics_; stable because the registry never
  // relocates entries.
  Counter* queries_total_ = nullptr;
  Counter* query_errors_total_ = nullptr;
  Counter* queries_degraded_total_ = nullptr;
  Counter* admission_rejected_total_ = nullptr;
  Histogram* query_latency_ms_ = nullptr;
};

}  // namespace hmmm

#endif  // HMMM_RETRIEVAL_ENGINE_H_
