#ifndef HMMM_RETRIEVAL_ENGINE_H_
#define HMMM_RETRIEVAL_ENGINE_H_

#include <chrono>
#include <cstddef>
#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "core/category_level.h"
#include "core/model_builder.h"
#include "observability/metrics_registry.h"
#include "retrieval/admission.h"
#include "retrieval/query_cache.h"
#include "retrieval/traversal.h"

namespace hmmm {

/// Per-query serving controls layered over the engine-wide
/// TraversalOptions: an absolute wall-clock deadline (anytime degradation,
/// not an error), an external cancellation token (e.g. a server's
/// shutdown token) and an optional trace sink. Fields left at their
/// defaults inherit whatever the engine's TraversalOptions carry.
struct QueryControls {
  std::chrono::steady_clock::time_point deadline = kNoDeadline;
  const CancellationToken* cancellation = nullptr;
  QueryTrace* trace = nullptr;
};

/// The query core: catalog + model + traversal behind one serving path.
/// It is the entry point a research application uses directly ("build the
/// HMMM over my archive, then answer temporal pattern queries"), and the
/// one VideoDatabase answers every query through.
///
/// Every query takes the same path: admission control first (a shed
/// query is near-free: it takes no lock and is not counted), then the
/// shared state lock, then
///  - an LRU cache of ranked results keyed by the compiled pattern's
///    signature and the model's version counter, so feedback training
///    (which bumps the version) invalidates all cached rankings at once,
///  - on a miss, a 2-level HmmmTraversal, or a ThreeLevelTraversal when a
///    category level is attached, over the engine's one shared
///    EventBitmapIndex.
/// A MetricsRegistry holds query counters, an end-to-end latency
/// histogram, the cache's hit/miss/eviction mirrors, the index build
/// counter and model/admission resource gauges.
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

  /// Wraps a pre-built (e.g. deserialized or trained) model. `metrics`
  /// seeds the engine's registry (e.g. one a snapshot open already
  /// recorded into); null starts an empty one.
  RetrievalEngine(const VideoCatalog& catalog, HierarchicalModel model,
                  TraversalOptions traversal_options = {},
                  size_t query_cache_entries = kDefaultQueryCacheEntries,
                  std::unique_ptr<MetricsRegistry> metrics = nullptr);

  // Defined in engine.cc where IndexCache and Admission are complete.
  RetrievalEngine(RetrievalEngine&&) noexcept;
  RetrievalEngine& operator=(RetrievalEngine&&) noexcept;
  ~RetrievalEngine();

  /// Compiles and runs a textual temporal-pattern query.
  StatusOr<std::vector<RetrievedPattern>> Query(
      const std::string& text, RetrievalStats* stats = nullptr) const;

  /// Same, with per-query deadline/cancellation/trace controls.
  StatusOr<std::vector<RetrievedPattern>> Query(
      const std::string& text, const QueryControls& controls,
      RetrievalStats* stats = nullptr) const;

  /// Runs an already-translated pattern. Results are served from the LRU
  /// cache when an identical pattern was answered under the current model
  /// version; hits replay the recorded RetrievalStats of the traversal
  /// that produced the entry into `stats`, so cost accounting works on
  /// both paths. Concurrent identical misses are coalesced: one caller
  /// computes while the rest wait for its entry (single-flight), so a
  /// stampede of the same query costs one traversal. May fail with
  /// kResourceExhausted when admission control is configured and the
  /// engine is saturated.
  StatusOr<std::vector<RetrievedPattern>> Retrieve(
      const TemporalPattern& pattern, RetrievalStats* stats = nullptr) const;

  /// Same, with per-query controls. A fired deadline or cancellation
  /// degrades (anytime prefix ranking, stats->degraded = true) rather
  /// than failing; degraded results are returned but never cached — a
  /// later uncontended query deserves the full ranking. A traced cache
  /// hit records one `cache_hit` span.
  StatusOr<std::vector<RetrievedPattern>> Retrieve(
      const TemporalPattern& pattern, const QueryControls& controls,
      RetrievalStats* stats = nullptr) const;

  const VideoCatalog& catalog() const { return *catalog_; }
  const HierarchicalModel& model() const { return *model_; }
  /// Mutable model access for the feedback trainer. Training through
  /// OfflineLearner bumps the model version, which invalidates cached
  /// query results and the shared event index; direct matrix edits must
  /// call BumpVersion(). Concurrent with queries only under
  /// LockExclusive().
  HierarchicalModel& mutable_model() { return *model_; }

  /// The readers–writer lock over the model, the catalog it reads and the
  /// attached category level. Every query holds it shared after
  /// admission; an owner that mutates any of those (training, catalog
  /// replacement, category rebuild) holds it exclusively, and an owner's
  /// non-query reads (persistence, health) hold it shared.
  std::shared_lock<std::shared_mutex> LockShared() const;
  std::unique_lock<std::shared_mutex> LockExclusive() const;

  /// Swaps in a wholesale-rebuilt model. Drops every cached ranking and
  /// the shared event index: a rebuilt model's version counter restarts,
  /// so neither version guard could tell it from the old one. Caller
  /// holds LockExclusive().
  void ReplaceModel(HierarchicalModel model);

  /// Attaches the category level whose pruned Step-2 scan every later
  /// query runs (ThreeLevelTraversal). Not owned; must stay alive while
  /// attached. Drops every cached ranking. Caller holds LockExclusive().
  void set_categories(const CategoryLevel* categories);

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

  /// Drops every cached query result.
  void ClearQueryCache();

  /// Hit/miss/occupancy counters of the query-result cache; all-zero
  /// capacity when caching is disabled.
  QueryCacheStats cache_stats() const;

  /// The shared model-tier EventBitmapIndex for the current model
  /// version, the one index every traversal of the engine runs on. Built
  /// on first use and rebuilt when the version counter moves (the same
  /// staleness rule as the query-result cache); each build counts in
  /// hmmm_event_index_builds_total. Returned as a shared_ptr so an
  /// in-flight query keeps its index alive across a concurrent rebuild.
  std::shared_ptr<const EventBitmapIndex> SharedEventIndex() const;

  /// Adopts a prebuilt index (a snapshot's frozen one) as the shared
  /// index, so the first queries pay no build. It must be fresh for the
  /// current model; the first version bump retires it like any other.
  void AdoptEventIndex(std::shared_ptr<const EventBitmapIndex> index);

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
  /// Releases an admission slot on scope exit.
  struct SlotGuard {
    const RetrievalEngine* engine;
    ~SlotGuard() { engine->ReleaseSlot(); }
  };

  /// Copies the model version, the in-flight count and any armed
  /// fault-point counters into registry gauges. Called by the Dump
  /// methods; gauges are snapshots, not live views.
  void RefreshResourceGauges() const;

  /// Blocks (bounded) for an admission slot per admission_options().
  /// Increments hmmm_admission_rejected_total and returns
  /// kResourceExhausted on shed load. Every OK must be paired with
  /// ReleaseSlot(). Note one deliberate interaction with single-flight:
  /// a cache waiter parks while *holding* its slot and its shared state
  /// lock, which is safe (the compute leader holds both too, so progress
  /// is guaranteed) and intended — a coalesced caller is still occupying
  /// the engine.
  Status AcquireSlot() const;
  void ReleaseSlot() const;

  /// The cache lookup and, on a miss, the traversal. Caller holds an
  /// admission slot and the shared state lock; `start` is when the
  /// caller entered, for the latency histogram.
  StatusOr<std::vector<RetrievedPattern>> RetrieveAdmitted(
      const TemporalPattern& pattern, const QueryControls& controls,
      RetrievalStats* stats,
      std::chrono::steady_clock::time_point start) const;

  const VideoCatalog* catalog_;
  /// unique_ptr so the engine stays movable while traversals hold stable
  /// references.
  std::unique_ptr<HierarchicalModel> model_;
  const CategoryLevel* categories_ = nullptr;
  TraversalOptions traversal_options_;
  /// Behind a pointer so the engine stays movable.
  std::unique_ptr<std::shared_mutex> state_mutex_;
  std::unique_ptr<QueryCache> cache_;  // null when caching is disabled
  /// Mutex + current index behind a pointer, same movability trick.
  struct IndexCache;
  std::unique_ptr<IndexCache> index_cache_;
  /// Mutex + cv + in-flight counters, same movability trick.
  struct Admission;
  std::unique_ptr<Admission> admission_;
  std::unique_ptr<MetricsRegistry> metrics_;
  // Hot-path handles into metrics_; stable because the registry never
  // relocates entries.
  Counter* queries_total_ = nullptr;
  Counter* query_errors_total_ = nullptr;
  Counter* queries_degraded_total_ = nullptr;
  Counter* admission_rejected_total_ = nullptr;
  Counter* index_builds_total_ = nullptr;
  Histogram* query_latency_ms_ = nullptr;
};

}  // namespace hmmm

#endif  // HMMM_RETRIEVAL_ENGINE_H_
