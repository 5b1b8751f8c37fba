#include "retrieval/engine.h"

#include <chrono>
#include <condition_variable>
#include <mutex>

#include "common/fault_injector.h"
#include "common/logging.h"
#include "retrieval/three_level.h"

namespace hmmm {

struct RetrievalEngine::IndexCache {
  std::mutex mutex;
  std::shared_ptr<const EventBitmapIndex> index;
};

struct RetrievalEngine::Admission {
  mutable std::mutex mutex;
  std::condition_variable slot_freed;
  AdmissionOptions options;
  int in_flight = 0;
  int queued = 0;
};

namespace {

double ElapsedMs(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

StatusOr<RetrievalEngine> RetrievalEngine::Create(
    const VideoCatalog& catalog, ModelBuilderOptions builder_options,
    TraversalOptions traversal_options, size_t query_cache_entries) {
  ModelBuilder builder(catalog, builder_options);
  HMMM_ASSIGN_OR_RETURN(HierarchicalModel model, builder.Build());
  return RetrievalEngine(catalog, std::move(model), traversal_options,
                         query_cache_entries);
}

RetrievalEngine::RetrievalEngine(const VideoCatalog& catalog,
                                 HierarchicalModel model,
                                 TraversalOptions traversal_options,
                                 size_t query_cache_entries,
                                 std::unique_ptr<MetricsRegistry> metrics)
    : catalog_(&catalog),
      model_(std::make_unique<HierarchicalModel>(std::move(model))),
      traversal_options_(traversal_options),
      state_mutex_(std::make_unique<std::shared_mutex>()),
      index_cache_(std::make_unique<IndexCache>()),
      admission_(std::make_unique<Admission>()),
      metrics_(metrics != nullptr ? std::move(metrics)
                                  : std::make_unique<MetricsRegistry>()) {
  queries_total_ = metrics_->GetCounter(
      "hmmm_queries_total", "retrievals answered, cache hits included");
  query_errors_total_ = metrics_->GetCounter(
      "hmmm_query_errors_total", "retrievals that returned a non-OK status");
  queries_degraded_total_ = metrics_->GetCounter(
      "hmmm_queries_degraded_total",
      "retrievals that returned an anytime prefix result after a "
      "deadline or cancellation fired");
  admission_rejected_total_ = metrics_->GetCounter(
      "hmmm_admission_rejected_total",
      "retrievals shed by admission control (kResourceExhausted)");
  index_builds_total_ = metrics_->GetCounter(
      "hmmm_event_index_builds_total",
      "model-tier event index builds (an adopted snapshot index is not "
      "counted)");
  query_latency_ms_ =
      metrics_->GetHistogram("hmmm_query_latency_ms", DefaultLatencyBucketsMs(),
                             "end-to-end Retrieve() wall time");
  if (query_cache_entries > 0) {
    cache_ = std::make_unique<QueryCache>(query_cache_entries);
    cache_->AttachMetrics(metrics_.get(), "hmmm_query_cache_");
  }
}

RetrievalEngine::RetrievalEngine(RetrievalEngine&&) noexcept = default;
RetrievalEngine& RetrievalEngine::operator=(RetrievalEngine&&) noexcept =
    default;
RetrievalEngine::~RetrievalEngine() = default;

std::shared_lock<std::shared_mutex> RetrievalEngine::LockShared() const {
  return std::shared_lock<std::shared_mutex>(*state_mutex_);
}

std::unique_lock<std::shared_mutex> RetrievalEngine::LockExclusive() const {
  return std::unique_lock<std::shared_mutex>(*state_mutex_);
}

void RetrievalEngine::ReplaceModel(HierarchicalModel model) {
  *model_ = std::move(model);
  {
    std::lock_guard<std::mutex> lock(index_cache_->mutex);
    index_cache_->index.reset();
  }
  ClearQueryCache();
}

void RetrievalEngine::set_categories(const CategoryLevel* categories) {
  categories_ = categories;
  // The pruned scan can rank differently from the full one.
  ClearQueryCache();
}

void RetrievalEngine::set_traversal_options(const TraversalOptions& options) {
  const auto lock = LockExclusive();
  traversal_options_ = options;
  // Any option can change the ranking (beam, gap handling, max_results),
  // so cached results are no longer answers to the same question.
  ClearQueryCache();
}

void RetrievalEngine::set_admission_options(const AdmissionOptions& options) {
  std::lock_guard<std::mutex> lock(admission_->mutex);
  admission_->options = options;
  // Parked waiters re-check against the new bounds.
  admission_->slot_freed.notify_all();
}

AdmissionOptions RetrievalEngine::admission_options() const {
  std::lock_guard<std::mutex> lock(admission_->mutex);
  return admission_->options;
}

Status RetrievalEngine::AcquireSlot() const {
  Admission& admission = *admission_;
  std::unique_lock<std::mutex> lock(admission.mutex);
  const auto admitted = [&admission] {
    return admission.options.max_concurrent <= 0 ||
           admission.in_flight < admission.options.max_concurrent;
  };
  if (!admitted()) {
    if (admission.queued >= admission.options.max_queued) {
      // Saturated and the bounded wait queue is full: shed immediately
      // rather than letting latency pile up behind a burst.
      admission_rejected_total_->Increment();
      return Status::ResourceExhausted(
          "retrieval admission queue full (load shed)");
    }
    ++admission.queued;
    const bool got_slot = admission.slot_freed.wait_for(
        lock, admission.options.max_queue_wait, admitted);
    --admission.queued;
    if (!got_slot) {
      admission_rejected_total_->Increment();
      return Status::ResourceExhausted(
          "timed out waiting for a retrieval slot");
    }
  }
  ++admission.in_flight;
  return Status::OK();
}

void RetrievalEngine::ReleaseSlot() const {
  std::lock_guard<std::mutex> lock(admission_->mutex);
  --admission_->in_flight;
  admission_->slot_freed.notify_one();
}

void RetrievalEngine::ClearQueryCache() {
  if (cache_ != nullptr) cache_->Clear();
}

QueryCacheStats RetrievalEngine::cache_stats() const {
  return cache_ != nullptr ? cache_->stats() : QueryCacheStats{};
}

std::shared_ptr<const EventBitmapIndex> RetrievalEngine::SharedEventIndex()
    const {
  std::lock_guard<std::mutex> lock(index_cache_->mutex);
  if (index_cache_->index == nullptr ||
      !index_cache_->index->FreshFor(*model_)) {
    index_cache_->index =
        std::make_shared<EventBitmapIndex>(*model_, *catalog_);
    index_builds_total_->Increment();
  }
  return index_cache_->index;
}

void RetrievalEngine::AdoptEventIndex(
    std::shared_ptr<const EventBitmapIndex> index) {
  HMMM_CHECK(index->FreshFor(*model_));
  std::lock_guard<std::mutex> lock(index_cache_->mutex);
  index_cache_->index = std::move(index);
}

StatusOr<std::vector<RetrievedPattern>> RetrievalEngine::Query(
    const std::string& text, RetrievalStats* stats) const {
  return Query(text, QueryControls{}, stats);
}

StatusOr<std::vector<RetrievedPattern>> RetrievalEngine::Query(
    const std::string& text, const QueryControls& controls,
    RetrievalStats* stats) const {
  const auto start = std::chrono::steady_clock::now();
  HMMM_RETURN_IF_ERROR(AcquireSlot());
  const SlotGuard slot_guard{this};
  // The vocabulary belongs to the catalog, which a writer may replace.
  const auto state_lock = LockShared();
  HMMM_ASSIGN_OR_RETURN(TemporalPattern pattern,
                        CompileQuery(text, catalog_->vocabulary()));
  return RetrieveAdmitted(pattern, controls, stats, start);
}

StatusOr<std::vector<RetrievedPattern>> RetrievalEngine::Retrieve(
    const TemporalPattern& pattern, RetrievalStats* stats) const {
  return Retrieve(pattern, QueryControls{}, stats);
}

StatusOr<std::vector<RetrievedPattern>> RetrievalEngine::Retrieve(
    const TemporalPattern& pattern, const QueryControls& controls,
    RetrievalStats* stats) const {
  const auto start = std::chrono::steady_clock::now();
  HMMM_RETURN_IF_ERROR(AcquireSlot());
  const SlotGuard slot_guard{this};
  const auto state_lock = LockShared();
  return RetrieveAdmitted(pattern, controls, stats, start);
}

StatusOr<std::vector<RetrievedPattern>> RetrievalEngine::RetrieveAdmitted(
    const TemporalPattern& pattern, const QueryControls& controls,
    RetrievalStats* stats, std::chrono::steady_clock::time_point start) const {
  queries_total_->Increment();

  std::string key;
  if (cache_ != nullptr) {
    key = PatternSignature(pattern);
    std::vector<RetrievedPattern> cached;
    // A hit replays the recorded traversal stats into `stats`, so stats
    // consumers never force a bypass. A miss makes this call the
    // single-flight compute leader for `key`: identical concurrent
    // queries park inside LookupOrCompute instead of re-traversing.
    if (cache_->LookupOrCompute(key, model_->version(), &cached, stats) ==
        QueryCache::LookupOutcome::kHit) {
      if (controls.trace != nullptr) {
        controls.trace->EndSpan(controls.trace->BeginSpan("cache_hit"));
      }
      query_latency_ms_->Observe(ElapsedMs(start));
      return cached;
    }
  }
  // The leader obligation must end on every exit so waiters wake even
  // when the traversal fails or the result is uncacheable.
  struct ComputeGuard {
    QueryCache* cache;
    const std::string& key;
    ~ComputeGuard() {
      if (cache != nullptr) cache->FinishCompute(key);
    }
  } compute_guard{cache_.get(), key};

  // Per-query controls override the engine-wide options only when
  // explicitly set, so a plain Retrieve keeps any deadline/trace baked
  // into the engine's TraversalOptions.
  TraversalOptions options = traversal_options_;
  if (controls.deadline != kNoDeadline) options.deadline = controls.deadline;
  if (controls.cancellation != nullptr) {
    options.cancellation = controls.cancellation;
  }
  if (controls.trace != nullptr) options.trace = controls.trace;

  // A local stats block (merged into the caller's at the end) lets the
  // degraded-query counter fire even when the caller passed no stats.
  RetrievalStats computed;
  const std::shared_ptr<const EventBitmapIndex> index = SharedEventIndex();
  auto results =
      categories_ != nullptr
          ? ThreeLevelTraversal(*model_, *categories_, *index, options)
                .Retrieve(pattern, &computed)
          : HmmmTraversal(*model_, *index, options)
                .Retrieve(pattern, &computed);
  if (!results.ok()) {
    query_errors_total_->Increment();
  } else if (computed.degraded) {
    // An anytime result answers *this* caller but is never cached: the
    // next uncontended asker deserves the full ranking.
    queries_degraded_total_->Increment();
  } else if (cache_ != nullptr) {
    cache_->Insert(key, model_->version(), results.value(), computed);
  }
  if (stats != nullptr) AccumulateRetrievalStats(computed, stats);
  query_latency_ms_->Observe(ElapsedMs(start));
  return results;
}

void RetrievalEngine::RefreshResourceGauges() const {
  {
    const auto state_lock = LockShared();
    metrics_
        ->GetGauge("hmmm_model_version",
                   "model version counter; bumps on feedback training")
        ->Set(static_cast<double>(model_->version()));
  }
  {
    std::lock_guard<std::mutex> lock(admission_->mutex);
    metrics_
        ->GetGauge("hmmm_queries_in_flight",
                   "retrievals currently admitted and running")
        ->Set(static_cast<double>(admission_->in_flight));
  }
  // Armed fault points (empty outside fault-injection runs) surface as
  // gauges so a chaos run's metrics dump records what was injected.
  for (const FaultPointStats& point : FaultInjector::Instance().Snapshot()) {
    std::string name = point.point;
    for (char& c : name) {
      if (c == '.') c = '_';
    }
    metrics_
        ->GetGauge("hmmm_fault_" + name + "_hits",
                   "times this fault point was evaluated")
        ->Set(static_cast<double>(point.hits));
    metrics_
        ->GetGauge("hmmm_fault_" + name + "_fires",
                   "times this fault point injected a failure")
        ->Set(static_cast<double>(point.fires));
  }
}

std::string RetrievalEngine::DumpMetricsPrometheus() const {
  RefreshResourceGauges();
  return metrics_->RenderPrometheus();
}

std::string RetrievalEngine::DumpMetricsJson() const {
  RefreshResourceGauges();
  return metrics_->RenderJson();
}

}  // namespace hmmm
