#include "coordinator/coordinator_service.h"

#include <algorithm>
#include <chrono>
#include <future>
#include <string>
#include <thread>
#include <utility>

#include "common/logging.h"

namespace hmmm {

namespace {

/// "host:port" -> (host, port). The last ':' splits, so IPv6 literals
/// with a bracketed host would need no change to the wire format later.
Status ParseEndpoint(const std::string& endpoint, std::string* host,
                     uint16_t* port) {
  const size_t colon = endpoint.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 == endpoint.size()) {
    return Status::InvalidArgument("shard endpoint must be host:port, got '" +
                                   endpoint + "'");
  }
  int64_t parsed = 0;
  for (size_t i = colon + 1; i < endpoint.size(); ++i) {
    const char c = endpoint[i];
    if (c < '0' || c > '9') {
      return Status::InvalidArgument("shard endpoint has non-numeric port: '" +
                                     endpoint + "'");
    }
    parsed = parsed * 10 + (c - '0');
    if (parsed > 65535) {
      return Status::InvalidArgument("shard endpoint port out of range: '" +
                                     endpoint + "'");
    }
  }
  if (parsed == 0) {
    return Status::InvalidArgument("shard endpoint port must be non-zero: '" +
                                   endpoint + "'");
  }
  *host = endpoint.substr(0, colon);
  *port = static_cast<uint16_t>(parsed);
  return Status::OK();
}

double ElapsedMs(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// A shard failure degrades the merged result unless the request itself
/// is at fault: kInvalidArgument (malformed query/payload) and kNotFound
/// (unknown event name) are properties of the request, identical on
/// every replica, so they propagate as query errors rather than
/// masquerading as a dead shard. QueryClient maps transport EOFs away
/// from kNotFound, so these codes only ever carry typed server answers.
bool IsQueryError(const Status& status) {
  return status.code() == StatusCode::kInvalidArgument ||
         status.code() == StatusCode::kNotFound;
}

}  // namespace

int64_t ShardBudgetMs(int64_t budget_ms, const CoordinatorOptions& options) {
  if (budget_ms < 0) return -1;
  if (budget_ms == 0) return 0;
  return std::max(options.min_shard_budget_ms,
                  budget_ms - options.merge_reserve_ms);
}

std::vector<RetrievedPattern> MergeRankedResults(
    std::vector<std::vector<RetrievedPattern>> per_shard, int max_results) {
  size_t total = 0;
  for (const auto& shard : per_shard) total += shard.size();
  std::vector<RetrievedPattern> merged;
  merged.reserve(total);
  for (auto& shard : per_shard) {
    for (auto& pattern : shard) merged.push_back(std::move(pattern));
  }
  std::sort(merged.begin(), merged.end(),
            [](const RetrievedPattern& a, const RetrievedPattern& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.video < b.video;
            });
  if (max_results >= 0 &&
      merged.size() > static_cast<size_t>(max_results)) {
    merged.resize(static_cast<size_t>(max_results));
  }
  return merged;
}

std::vector<QbeResult> MergeQbeResults(
    std::vector<std::vector<QbeResult>> per_shard, int max_results) {
  size_t total = 0;
  for (const auto& shard : per_shard) total += shard.size();
  std::vector<QbeResult> merged;
  merged.reserve(total);
  for (auto& shard : per_shard) {
    for (auto& result : shard) merged.push_back(std::move(result));
  }
  std::stable_sort(merged.begin(), merged.end(),
                   [](const QbeResult& a, const QbeResult& b) {
                     return a.similarity > b.similarity;
                   });
  if (max_results >= 0 &&
      merged.size() > static_cast<size_t>(max_results)) {
    merged.resize(static_cast<size_t>(max_results));
  }
  return merged;
}

std::vector<int> FailoverOrder(const std::vector<EndpointHealth>& health) {
  std::vector<int> order;
  order.reserve(health.size());
  for (const EndpointHealth want :
       {EndpointHealth::kUp, EndpointHealth::kSuspect, EndpointHealth::kDown}) {
    for (size_t i = 0; i < health.size(); ++i) {
      if (health[i] == want) order.push_back(static_cast<int>(i));
    }
  }
  return order;
}

CoordinatorService::CoordinatorService(
    std::shared_ptr<const RoutingTable> table, CoordinatorOptions options)
    : options_(std::move(options)),
      sampler_(options_.observability.trace_sample_rate),
      slow_log_(options_.observability.slow_query_capacity == 0
                    ? 1
                    : options_.observability.slow_query_capacity),
      latency_window_(DefaultLatencyBucketsMs()),
      table_(std::move(table)) {}

CoordinatorService::~CoordinatorService() {
  if (prober_ != nullptr) prober_->Stop();
  // Wait out detached hedge attempts: they touch breakers/pools owned by
  // their pinned snapshot (safe) but also registry-owned metric handles,
  // which must outlive them.
  std::unique_lock<std::mutex> lock(hedge_mutex_);
  hedge_drained_.wait(lock, [this] { return inflight_hedge_attempts_ == 0; });
}

std::shared_ptr<const CoordinatorService::RoutingTable>
CoordinatorService::Table() const {
  std::lock_guard<std::mutex> lock(table_mutex_);
  return table_;
}

uint64_t CoordinatorService::map_epoch() const { return Table()->epoch; }

int CoordinatorService::num_shards() const {
  return Table()->router.num_shards();
}

StatusOr<std::shared_ptr<const CoordinatorService::RoutingTable>>
CoordinatorService::BuildRoutingTable(ShardMap map,
                                      const RoutingTable* previous) {
  const uint64_t epoch = map.epoch;
  HMMM_ASSIGN_OR_RETURN(ShardRouter router,
                        ShardRouter::Create(std::move(map)));
  auto find_prior = [previous](
                        const std::string& endpoint) -> const EndpointState* {
    if (previous == nullptr) return nullptr;
    for (const ShardSlot& slot : previous->shards) {
      for (const EndpointState& ep : slot.endpoints) {
        if (ep.endpoint == endpoint) return &ep;
      }
    }
    return nullptr;
  };

  auto table = std::make_shared<RoutingTable>(std::move(router), epoch);
  const int num_shards = table->router.num_shards();
  table->shards.resize(static_cast<size_t>(num_shards));
  for (int s = 0; s < num_shards; ++s) {
    const ShardMapEntry& entry = table->router.shard(s);
    ShardSlot& slot = table->shards[static_cast<size_t>(s)];
    const MetricLabels shard_labels = {{"shard", std::to_string(s)}};
    slot.latency_ms = registry_.GetHistogram(
        "hmmm_coordinator_shard_latency_ms", shard_labels,
        DefaultLatencyBucketsMs(),
        "Per-shard scatter call latency, including failover attempts");
    slot.errors = registry_.GetCounter(
        "hmmm_coordinator_shard_errors_total", shard_labels,
        "Shard calls that failed on every replica (or as a typed error)");
    const std::vector<std::string> endpoints = entry.all_endpoints();
    slot.endpoints.reserve(endpoints.size());
    for (size_t r = 0; r < endpoints.size(); ++r) {
      EndpointState ep;
      ep.endpoint = endpoints[r];
      QueryClientOptions client_options = options_.client;
      HMMM_RETURN_IF_ERROR(
          ParseEndpoint(ep.endpoint, &client_options.host,
                        &client_options.port));
      // An endpoint carried over from the previous map keeps its warm
      // connection pool and its breaker verdict: a reload must not reset
      // an Open breaker on a still-dead replica.
      const EndpointState* prior = find_prior(ep.endpoint);
      if (prior != nullptr) {
        ep.pool = prior->pool;
        ep.breaker = prior->breaker;
      } else {
        ep.pool = std::make_shared<QueryClientPool>(client_options,
                                                    options_.pool_max_idle);
        ep.breaker = std::make_shared<CircuitBreaker>(options_.breaker);
      }
      const MetricLabels labels = {{"shard", std::to_string(s)},
                                   {"replica", std::to_string(r)}};
      ep.latency_ms = registry_.GetHistogram(
          "hmmm_coordinator_endpoint_latency_ms", labels,
          DefaultLatencyBucketsMs(),
          "Per-endpoint attempt latency, including connect and IO");
      ep.errors = registry_.GetCounter(
          "hmmm_coordinator_endpoint_errors_total", labels,
          "Failed attempts against this endpoint (transport or typed "
          "error)");
      ep.connections_created = registry_.GetGauge(
          "hmmm_coordinator_shard_connections_created", labels,
          "TCP connections opened to this endpoint over the pool's "
          "lifetime");
      slot.endpoints.push_back(std::move(ep));
    }
  }
  return std::shared_ptr<const RoutingTable>(std::move(table));
}

void CoordinatorService::StartProber() {
  if (options_.health_probe_interval.count() <= 0) return;
  HealthProber::Options prober_options;
  prober_options.probe_interval = options_.health_probe_interval;
  prober_options.failures_to_down = options_.health_failures_to_down;
  prober_options.successes_to_up = options_.health_successes_to_up;
  auto lister = [this]() {
    std::vector<std::string> endpoints;
    const auto table = Table();
    for (const ShardSlot& slot : table->shards) {
      for (const EndpointState& ep : slot.endpoints) {
        endpoints.push_back(ep.endpoint);
      }
    }
    return endpoints;
  };
  auto observer = [this](const std::string& endpoint, EndpointHealth health) {
    registry_
        .GetGauge("hmmm_coordinator_endpoint_health",
                  {{"endpoint", endpoint}},
                  "Probed endpoint health (0 up, 1 suspect, 2 down)")
        ->Set(static_cast<double>(static_cast<int>(health)));
  };
  prober_ = std::make_unique<HealthProber>(
      prober_options, std::move(lister),
      MakeHealthRpcProbe(options_.health_probe_timeout), std::move(observer));
  prober_->Start();
}

StatusOr<std::unique_ptr<CoordinatorService>> CoordinatorService::Create(
    ShardMap map, CoordinatorOptions options) {
  std::unique_ptr<CoordinatorService> service(
      new CoordinatorService(nullptr, std::move(options)));
  HMMM_ASSIGN_OR_RETURN(service->table_,
                        service->BuildRoutingTable(std::move(map), nullptr));
  const int num_shards = service->table_->router.num_shards();
  size_t num_endpoints = 0;
  for (const ShardSlot& slot : service->table_->shards) {
    num_endpoints += slot.endpoints.size();
  }

  service->registry_.GetGauge("hmmm_coordinator_shards",
                              "Number of shard ranges in the serving map")
      ->Set(static_cast<double>(num_shards));
  service->registry_.GetGauge(
      "hmmm_coordinator_replica_endpoints",
      "Total replica endpoints across all shard ranges")
      ->Set(static_cast<double>(num_endpoints));
  service->fanouts_total_ = service->registry_.GetCounter(
      "hmmm_coordinator_fanouts_total",
      "Scatter-gather fan-outs executed (all request types)");
  service->queries_degraded_ = service->registry_.GetCounter(
      "hmmm_coordinator_queries_degraded_total",
      "Merged temporal responses marked degraded (shard-side budget or "
      "dead shard)");
  service->dead_shard_results_ = service->registry_.GetCounter(
      "hmmm_coordinator_dead_shard_results_total",
      "Per-shard scatter calls absorbed as degradation instead of failing "
      "the query");
  service->traces_sampled_ = service->registry_.GetCounter(
      "hmmm_coordinator_traces_sampled_total",
      "Temporal queries traced (client-requested or head-sampled)");
  service->failovers_total_ = service->registry_.GetCounter(
      "hmmm_coordinator_failovers_total",
      "Attempts routed to a fallback replica after an earlier replica "
      "failed");
  service->breaker_rejections_ = service->registry_.GetCounter(
      "hmmm_coordinator_breaker_rejections_total",
      "Attempts refused locally because the endpoint's circuit breaker "
      "was open");
  service->hedges_total_ = service->registry_.GetCounter(
      "hmmm_coordinator_hedges_total",
      "Hedged attempts launched against a second replica");
  service->hedge_wins_ = service->registry_.GetCounter(
      "hmmm_coordinator_hedge_wins_total",
      "Hedged attempts that answered before the preferred replica");
  service->train_shard_failures_ = service->registry_.GetCounter(
      "hmmm_coordinator_train_shard_failures_total",
      "Train broadcasts to a replica endpoint that failed");
  service->reloads_total_ = service->registry_.GetCounter(
      "hmmm_coordinator_map_reloads_total",
      "Shard-map hot reloads applied");
  service->reloads_rejected_ = service->registry_.GetCounter(
      "hmmm_coordinator_map_reloads_rejected_total",
      "Shard-map hot reloads refused (stale epoch or invalid map)");
  service->map_epoch_gauge_ = service->registry_.GetGauge(
      "hmmm_coordinator_map_epoch", "Epoch of the live shard map");
  service->map_epoch_gauge_->Set(
      static_cast<double>(service->table_->epoch));
  service->latency_p50_ = service->registry_.GetGauge(
      "hmmm_coordinator_query_latency_p50_ms",
      "Sliding-window median merged temporal query latency");
  service->latency_p99_ = service->registry_.GetGauge(
      "hmmm_coordinator_query_latency_p99_ms",
      "Sliding-window p99 merged temporal query latency");
  service->latency_p999_ = service->registry_.GetGauge(
      "hmmm_coordinator_query_latency_p999_ms",
      "Sliding-window p99.9 merged temporal query latency");

  int fanout_threads = service->options_.fanout_threads;
  if (fanout_threads <= 0) fanout_threads = 2 * num_shards;
  fanout_threads = std::max(2, std::min(fanout_threads, 64));
  service->fanout_pool_ = std::make_unique<ThreadPool>(fanout_threads);
  service->StartProber();
  return service;
}

StatusOr<ReloadShardMapResponse> CoordinatorService::ReloadShardMap(
    const ReloadShardMapRequest& request) {
  HMMM_ASSIGN_OR_RETURN(ShardMap map, DeserializeShardMap(request.map_blob));
  return ApplyShardMap(std::move(map));
}

StatusOr<ReloadShardMapResponse> CoordinatorService::ApplyShardMap(
    ShardMap map) {
  // One lock serializes reloads against each other and against readers;
  // readers only pin a snapshot, so they stall for the build only while a
  // reload is actually in progress.
  std::lock_guard<std::mutex> lock(table_mutex_);
  if (map.epoch <= table_->epoch) {
    reloads_rejected_->Increment();
    return Status::FailedPrecondition(
        "shard map epoch " + std::to_string(map.epoch) +
        " is not newer than the live epoch " + std::to_string(table_->epoch));
  }
  auto built = BuildRoutingTable(std::move(map), table_.get());
  if (!built.ok()) {
    reloads_rejected_->Increment();
    return built.status();
  }
  table_ = *built;
  reloads_total_->Increment();
  map_epoch_gauge_->Set(static_cast<double>(table_->epoch));
  registry_.GetGauge("hmmm_coordinator_shards",
                     "Number of shard ranges in the serving map")
      ->Set(static_cast<double>(table_->router.num_shards()));
  size_t num_endpoints = 0;
  for (const ShardSlot& slot : table_->shards) {
    num_endpoints += slot.endpoints.size();
  }
  registry_.GetGauge("hmmm_coordinator_replica_endpoints",
                     "Total replica endpoints across all shard ranges")
      ->Set(static_cast<double>(num_endpoints));
  HMMM_LOG(Info) << "shard map reloaded: epoch " << table_->epoch << ", "
                 << table_->router.num_shards() << " shards, "
                 << num_endpoints << " endpoints";
  ReloadShardMapResponse response;
  response.epoch = table_->epoch;
  response.num_shards =
      static_cast<uint32_t>(table_->router.num_shards());
  return response;
}

int64_t CoordinatorService::ResolveHedgeDelayMs() {
  const int64_t configured = options_.hedge_delay_ms;
  if (configured < 0) return -1;
  if (configured > 0) return configured;
  // Adaptive: hedge when the preferred replica is slower than the fleet's
  // recent p99 — by construction ~1% duplicate work in steady state.
  const double p99 = latency_window_.Quantile(0.99);
  return std::max(options_.hedge_min_delay_ms, static_cast<int64_t>(p99));
}

template <typename T>
StatusOr<T> CoordinatorService::AttemptEndpoint(
    const EndpointState& ep,
    const std::function<StatusOr<T>(QueryClient&)>& rpc) {
  const auto start = std::chrono::steady_clock::now();
  StatusOr<T> result = [&] {
    QueryClientPool::Lease lease = ep.pool->Acquire();
    return rpc(*lease);
  }();
  ep.latency_ms->Observe(ElapsedMs(start));
  const auto now = std::chrono::steady_clock::now();
  if (result.ok() || IsQueryError(result.status())) {
    // A typed request-at-fault answer is a live endpoint: the replica
    // parsed, executed and answered.
    ep.breaker->RecordSuccess(now);
  } else {
    ep.breaker->RecordFailure(now);
    ep.errors->Increment();
  }
  return result;
}

template <typename T>
StatusOr<T> CoordinatorService::CallShard(
    const std::shared_ptr<const RoutingTable>& table, int s, bool hedgeable,
    std::function<StatusOr<T>(QueryClient&)> rpc) {
  const ShardSlot& shard = table->shards[static_cast<size_t>(s)];
  std::vector<EndpointHealth> health(shard.endpoints.size(),
                                     EndpointHealth::kUp);
  if (prober_ != nullptr) {
    for (size_t i = 0; i < shard.endpoints.size(); ++i) {
      health[i] = prober_->HealthOf(shard.endpoints[i].endpoint);
    }
  }
  const std::vector<int> order = FailoverOrder(health);

  Status last_error = Status::IOError(
      "every replica of shard " + std::to_string(s) +
      " was refused by its circuit breaker");
  bool attempted = false;

  // Admission is lazy — AllowRequest immediately before the attempt — so
  // a HalfOpen probe slot reserved by AllowRequest is always resolved by
  // the attempt that reserved it.
  size_t pos = 0;
  auto next_admitted = [&]() -> const EndpointState* {
    while (pos < order.size()) {
      const EndpointState& ep =
          shard.endpoints[static_cast<size_t>(order[pos])];
      ++pos;
      if (ep.breaker->AllowRequest(std::chrono::steady_clock::now())) {
        return &ep;
      }
      breaker_rejections_->Increment();
    }
    return nullptr;
  };

  const int64_t hedge_ms = hedgeable ? ResolveHedgeDelayMs() : -1;
  if (hedge_ms >= 0 && shard.endpoints.size() > 1) {
    const EndpointState* first = next_admitted();
    if (first != nullptr) {
      struct Race {
        std::mutex m;
        std::condition_variable cv;
        int done = 0;
        bool have_winner = false;
        int winner = -1;
        StatusOr<T> result{Status::Internal("hedge pending")};
        Status first_error = Status::OK();
      };
      auto race = std::make_shared<Race>();
      // Attempts run on raw threads, not the fan-out pool: a pool-sized
      // wave of hedges blocking on pool-submitted sub-tasks could
      // deadlock the pool against itself.
      auto launch = [this, table, race, rpc](const EndpointState* ep,
                                             int slot) {
        {
          std::lock_guard<std::mutex> lock(hedge_mutex_);
          ++inflight_hedge_attempts_;
        }
        std::thread([this, table, race, rpc, ep, slot] {
          StatusOr<T> result = AttemptEndpoint<T>(*ep, rpc);
          {
            std::lock_guard<std::mutex> lock(race->m);
            ++race->done;
            const bool usable = result.ok() || IsQueryError(result.status());
            if (usable && !race->have_winner) {
              race->have_winner = true;
              race->winner = slot;
              race->result = std::move(result);
            } else if (!usable && race->first_error.ok()) {
              race->first_error = result.status();
            }
            race->cv.notify_all();
          }
          // Last touch of `this`: the destructor waits on this count
          // under the same lock, so notifying inside it keeps the
          // wake-up ordered before destruction.
          std::lock_guard<std::mutex> lock(hedge_mutex_);
          --inflight_hedge_attempts_;
          hedge_drained_.notify_all();
        }).detach();
      };
      launch(first, 0);
      int launched = 1;
      std::unique_lock<std::mutex> lock(race->m);
      const bool answered =
          race->cv.wait_for(lock, std::chrono::milliseconds(hedge_ms),
                            [&] { return race->done >= 1; });
      if (!answered) {
        lock.unlock();
        const EndpointState* second = next_admitted();
        if (second != nullptr) {
          hedges_total_->Increment();
          launch(second, 1);
          ++launched;
        }
        lock.lock();
      }
      race->cv.wait(
          lock, [&] { return race->have_winner || race->done >= launched; });
      if (race->have_winner) {
        if (race->winner == 1) hedge_wins_->Increment();
        return std::move(race->result);
      }
      if (!race->first_error.ok()) last_error = race->first_error;
      attempted = true;
      // Fall through to sequential failover over the remaining replicas.
    }
  }

  for (const EndpointState* ep = next_admitted(); ep != nullptr;
       ep = next_admitted()) {
    if (attempted) failovers_total_->Increment();
    attempted = true;
    StatusOr<T> result = AttemptEndpoint<T>(*ep, rpc);
    if (result.ok() || IsQueryError(result.status())) return result;
    last_error = result.status();
  }
  return last_error;
}

template <typename T>
std::vector<StatusOr<T>> CoordinatorService::FanOut(
    const std::shared_ptr<const RoutingTable>& table,
    const std::function<StatusOr<T>(int)>& call_shard,
    std::vector<double>* elapsed_ms_out) {
  fanouts_total_->Increment();
  const int num_shards = table->router.num_shards();
  std::vector<StatusOr<T>> results(
      static_cast<size_t>(num_shards),
      StatusOr<T>(Status::Internal("shard call did not run")));
  if (elapsed_ms_out != nullptr) {
    elapsed_ms_out->assign(static_cast<size_t>(num_shards), 0.0);
  }
  std::vector<std::future<void>> done;
  done.reserve(static_cast<size_t>(num_shards));
  for (int s = 0; s < num_shards; ++s) {
    done.push_back(fanout_pool_->SubmitWithFuture(
        [s, &table, &call_shard, &results, elapsed_ms_out] {
          const ShardSlot& slot = table->shards[static_cast<size_t>(s)];
          const auto start = std::chrono::steady_clock::now();
          results[static_cast<size_t>(s)] = call_shard(s);
          const double elapsed = ElapsedMs(start);
          slot.latency_ms->Observe(elapsed);
          if (elapsed_ms_out != nullptr) {
            (*elapsed_ms_out)[static_cast<size_t>(s)] = elapsed;
          }
          if (!results[static_cast<size_t>(s)].ok()) slot.errors->Increment();
        }));
  }
  for (auto& future : done) future.get();
  return results;
}

StatusOr<TemporalQueryResponse> CoordinatorService::TemporalQuery(
    const TemporalQueryRequest& request, const CancellationToken* shutdown) {
  (void)shutdown;  // shards bound their own work via the scattered budget;
                   // the front-end server stops admitting during drain.
  const auto start = std::chrono::steady_clock::now();
  const auto table = Table();
  const ShardRouter& router = table->router;
  const int num_shards = router.num_shards();

  // Head-sampling decision for the whole fan-out: want_trace always
  // traces, otherwise the deterministic sampler fires. The context is
  // minted here (the coordinator is the root of the distributed trace)
  // and propagated to every shard.
  const bool sampled = request.want_trace || sampler_.Decide();
  TraceContext context;
  context.trace_id_hi = request.trace_id_hi;
  context.trace_id_lo = request.trace_id_lo;
  context.parent_span_id = request.parent_span_id;
  if (sampled && !context.has_trace_id()) {
    const TraceContext minted = MintTraceContext();
    context.trace_id_hi = minted.trace_id_hi;
    context.trace_id_lo = minted.trace_id_lo;
  }
  const std::string trace_id_hex =
      sampled ? TraceIdHex(context.trace_id_hi, context.trace_id_lo)
              : std::string();

  TemporalQueryRequest shard_request = request;
  // Supersession generations are per-connection state; pooled shard
  // connections are shared across coordinator requests, so a client's
  // generation must not leak downstream.
  shard_request.cancel_generation = 0;
  shard_request.budget_ms = ShardBudgetMs(request.budget_ms, options_);
  shard_request.want_trace = sampled;
  shard_request.trace_id_hi = context.trace_id_hi;
  shard_request.trace_id_lo = context.trace_id_lo;

  // Root and fan-out spans are opened serially before the scatter so
  // their ids are deterministic for a fixed shard map (0 = root,
  // 1..num_shards = fan-out spans in shard order); the workers only
  // close them. Sibling sort_key = shard index keeps the rendered order
  // deterministic too.
  QueryTrace trace;
  int root_span = -1;
  std::vector<int> fanout_spans(static_cast<size_t>(num_shards), -1);
  if (sampled) {
    traces_sampled_->Increment();
    root_span = trace.BeginSpan("coordinator_query");
    trace.AddAttribute(root_span, "trace_id", trace_id_hex);
    if (context.parent_span_id != 0) {
      trace.AddAttribute(root_span, "parent_span_id",
                         std::to_string(context.parent_span_id));
    }
    trace.AddCounter(root_span, "shards",
                     static_cast<uint64_t>(num_shards));
    for (int s = 0; s < num_shards; ++s) {
      const int id = trace.BeginSpan("shard_fanout", root_span, s);
      fanout_spans[static_cast<size_t>(s)] = id;
      trace.AddAttribute(id, "shard", std::to_string(s));
      trace.AddAttribute(id, "endpoint", router.shard(s).endpoint);
      if (shard_request.budget_ms >= 0) {
        trace.AddCounter(id, "budget_ms",
                         static_cast<uint64_t>(shard_request.budget_ms));
      }
    }
  }

  std::vector<double> shard_elapsed_ms;
  auto per_shard = FanOut<TemporalQueryResponse>(
      table,
      [&](int s) -> StatusOr<TemporalQueryResponse> {
        TemporalQueryRequest req = shard_request;
        if (sampled) {
          // Informational parent (assembly grafts by response blob, not
          // by this id): the shard's fan-out span, +1 to keep it
          // nonzero, so shard logs correlate back to the scatter slot.
          req.parent_span_id = static_cast<uint64_t>(
              fanout_spans[static_cast<size_t>(s)] + 1);
        }
        // The rpc owns its request and transport knobs: a hedged loser
        // may still be running it after this stack frame returns.
        const int64_t io_ms = req.budget_ms >= 0
                                  ? req.budget_ms + options_.io_slack_ms
                                  : -1;
        auto rpc = [req, io_ms](QueryClient& client)
            -> StatusOr<TemporalQueryResponse> {
          if (io_ms >= 0) {
            // A hung shard must lose the race against the request's
            // budget: cap transport IO just above the shard's own
            // deadline so the shard's degraded answer normally arrives
            // first.
            client.set_io_timeout(std::chrono::milliseconds(io_ms));
          }
          return client.TemporalQuery(req);
        };
        StatusOr<TemporalQueryResponse> result =
            CallShard<TemporalQueryResponse>(table, s, /*hedgeable=*/true,
                                             std::move(rpc));
        if (sampled) trace.EndSpan(fanout_spans[static_cast<size_t>(s)]);
        return result;
      },
      &shard_elapsed_ms);

  TemporalQueryResponse merged;
  merged.has_stats = request.want_stats;
  std::vector<std::vector<RetrievedPattern>> ranked(per_shard.size());
  std::vector<std::pair<int, std::string>> shard_errors;
  for (int s = 0; s < num_shards; ++s) {
    StatusOr<TemporalQueryResponse>& shard_result =
        per_shard[static_cast<size_t>(s)];
    if (!shard_result.ok()) {
      if (IsQueryError(shard_result.status())) return shard_result.status();
      // Every replica of the range is unreachable/slow/crashed: absorb
      // as degradation. The whole range's catalog share is unscanned
      // from the client's viewpoint.
      merged.degraded = true;
      merged.videos_skipped += router.VideosOwnedBy(s);
      dead_shard_results_->Increment();
      shard_errors.emplace_back(
          s, StatusCodeToString(shard_result.status().code()));
      if (sampled) {
        trace.AddAttribute(fanout_spans[static_cast<size_t>(s)], "error",
                           StatusCodeToString(shard_result.status().code()));
      }
      HMMM_LOG(Error) << "shard " << s << " ("
                      << table->shards[static_cast<size_t>(s)].endpoints.size()
                      << " replicas, primary " << router.shard(s).endpoint
                      << ") failed temporal query on every replica: "
                      << shard_result.status().message()
                      << (sampled ? " trace_id=" + trace_id_hex
                                  : std::string());
      continue;
    }
    TemporalQueryResponse& response = *shard_result;
    merged.degraded = merged.degraded || response.degraded;
    merged.videos_skipped += response.videos_skipped;
    if (request.want_stats && response.has_stats) {
      AccumulateRetrievalStats(response.stats, &merged.stats);
    }
    for (RetrievedPattern& pattern : response.results) {
      pattern.video = router.ToGlobalVideo(s, pattern.video);
      for (ShotId& shot : pattern.shots) {
        shot = router.ToGlobalShot(s, shot);
      }
    }
    ranked[static_cast<size_t>(s)] = std::move(response.results);
  }
  if (request.want_stats) {
    merged.stats.degraded = merged.stats.degraded || merged.degraded;
    merged.stats.videos_skipped =
        std::max(merged.stats.videos_skipped,
                 static_cast<size_t>(merged.videos_skipped));
  }
  merged.results = MergeRankedResults(std::move(ranked), options_.max_results);
  if (merged.degraded) queries_degraded_->Increment();

  if (sampled) {
    trace.AddCounter(root_span, "videos_skipped", merged.videos_skipped);
    trace.AddCounter(root_span, "degraded", merged.degraded ? 1 : 0);
    trace.EndSpan(root_span);
  }
  if (request.want_trace) {
    // Cross-process assembly: each live shard's sub-trace blob is
    // grafted under its fan-out span, with the remote offsets shifted by
    // the fan-out span's own start offset — monotonic clocks only, no
    // clock sync. Grafting in shard order keeps the remapped ids
    // deterministic for a fixed shard map.
    std::vector<TraceSpan> assembled = trace.Spans();
    for (int s = 0; s < num_shards; ++s) {
      const StatusOr<TemporalQueryResponse>& shard_result =
          per_shard[static_cast<size_t>(s)];
      if (!shard_result.ok() || shard_result->trace_blob.empty()) continue;
      StatusOr<std::vector<TraceSpan>> sub =
          DeserializeSpans(shard_result->trace_blob);
      if (!sub.ok()) {
        HMMM_LOG(Warning) << "shard " << s
                          << " returned an undecodable trace blob: "
                          << sub.status().message()
                          << " trace_id=" << trace_id_hex;
        continue;
      }
      const int fanout_id = fanout_spans[static_cast<size_t>(s)];
      double base_offset_ms = 0.0;
      for (const TraceSpan& span : assembled) {
        if (span.id == fanout_id) {
          base_offset_ms = span.start_offset_ms;
          break;
        }
      }
      GraftSpans(&assembled, fanout_id, std::move(sub).value(),
                 base_offset_ms);
    }
    merged.trace_blob = SerializeSpans(assembled);
  }

  const double total_ms = ElapsedMs(start);
  latency_window_.Observe(total_ms);
  latency_p50_->Set(latency_window_.Quantile(0.5));
  latency_p99_->Set(latency_window_.Quantile(0.99));
  latency_p999_->Set(latency_window_.Quantile(0.999));
  if (merged.degraded ||
      total_ms >= options_.observability.slow_query_threshold_ms) {
    SlowQueryEntry entry;
    entry.reason = merged.degraded ? "degraded" : "slow";
    entry.pattern = request.text;
    entry.trace_id = trace_id_hex;
    entry.total_ms = total_ms;
    entry.budget_ms =
        request.budget_ms >= 0 ? static_cast<double>(request.budget_ms) : -1.0;
    entry.degraded = merged.degraded;
    entry.videos_skipped = merged.videos_skipped;
    for (int s = 0; s < num_shards; ++s) {
      entry.shard_latency_ms.emplace_back(
          s, shard_elapsed_ms[static_cast<size_t>(s)]);
    }
    entry.shard_errors = std::move(shard_errors);
    slow_log_.Add(std::move(entry));
  }
  // Even with every replica of every range down the answer is a degraded
  // empty ranking (videos_skipped == total catalog), never a query
  // failure.
  return merged;
}

StatusOr<QbeResponse> CoordinatorService::QueryByExample(
    const QbeRequest& request) {
  const auto table = Table();
  const ShardRouter& router = table->router;
  auto per_shard = FanOut<QbeResponse>(
      table, [&](int s) -> StatusOr<QbeResponse> {
        QbeRequest req = request;
        return CallShard<QbeResponse>(
            table, s, /*hedgeable=*/true,
            [req](QueryClient& client) -> StatusOr<QbeResponse> {
              return client.QueryByExample(req);
            });
      });

  std::vector<std::vector<QbeResult>> ranked(per_shard.size());
  bool any_ok = false;
  Status first_error = Status::OK();
  for (int s = 0; s < router.num_shards(); ++s) {
    StatusOr<QbeResponse>& shard_result = per_shard[static_cast<size_t>(s)];
    if (!shard_result.ok()) {
      if (IsQueryError(shard_result.status())) return shard_result.status();
      if (first_error.ok()) first_error = shard_result.status();
      dead_shard_results_->Increment();
      continue;
    }
    any_ok = true;
    for (QbeResult& result : shard_result->results) {
      result.shot = router.ToGlobalShot(s, result.shot);
    }
    ranked[static_cast<size_t>(s)] = std::move(shard_result->results);
  }
  // QbeResponse has no degraded channel in the frozen wire schema, so a
  // partial gather merges silently; only a total outage surfaces.
  if (!any_ok) return first_error;
  QbeResponse merged;
  merged.results = MergeQbeResults(std::move(ranked), request.max_results);
  return merged;
}

StatusOr<MarkPositiveResponse> CoordinatorService::MarkPositive(
    const MarkPositiveRequest& request) {
  const auto table = Table();
  const ShardRouter& router = table->router;
  const int shard = router.ShardOfVideo(request.pattern.video);
  if (shard < 0) {
    return Status::NotFound("feedback video " +
                            std::to_string(request.pattern.video) +
                            " is not in the shard map");
  }
  MarkPositiveRequest local = request;
  local.pattern.video = router.ToLocalVideo(shard, request.pattern.video);
  for (ShotId& shot : local.pattern.shots) {
    const auto located = router.LocateShot(shot);
    if (located.first != shard) {
      return Status::InvalidArgument(
          "feedback shot " + std::to_string(shot) +
          " is not owned by the pattern's video shard");
    }
    shot = located.second;
  }
  // Feedback must land on every replica of the range or their models
  // diverge and failover stops being byte-identical. Applied serially,
  // primary first; any failure surfaces (the operator re-drives it) even
  // when another replica applied the update.
  const ShardSlot& slot = table->shards[static_cast<size_t>(shard)];
  const auto start = std::chrono::steady_clock::now();
  StatusOr<MarkPositiveResponse> first_response =
      Status::Internal("no replica attempted");
  Status first_failure = Status::OK();
  for (const EndpointState& ep : slot.endpoints) {
    StatusOr<MarkPositiveResponse> result =
        AttemptEndpoint<MarkPositiveResponse>(
            ep, [&local](QueryClient& client) {
              return client.MarkPositive(local);
            });
    if (result.ok()) {
      if (!first_response.ok()) first_response = std::move(result);
    } else if (IsQueryError(result.status())) {
      // Request at fault — identical verdict on every replica; nothing
      // applied anywhere.
      return result.status();
    } else if (first_failure.ok()) {
      first_failure = result.status();
    }
  }
  slot.latency_ms->Observe(ElapsedMs(start));
  if (!first_failure.ok()) {
    slot.errors->Increment();
    return first_failure;
  }
  return first_response;
}

StatusOr<TrainResponse> CoordinatorService::Train() {
  const auto table = Table();
  // Training broadcasts to every replica of every range — replicas hold
  // independent model copies that must stay in lockstep for failover to
  // be byte-identical.
  auto per_shard = FanOut<TrainResponse>(
      table, [&](int s) -> StatusOr<TrainResponse> {
        const ShardSlot& slot = table->shards[static_cast<size_t>(s)];
        TrainResponse acc;
        acc.shards_attempted = 0;
        acc.shards_failed = 0;
        bool any_ok = false;
        Status first_error = Status::OK();
        for (const EndpointState& ep : slot.endpoints) {
          ++acc.shards_attempted;
          StatusOr<TrainResponse> result = AttemptEndpoint<TrainResponse>(
              ep, [](QueryClient& client) { return client.Train(); });
          if (!result.ok()) {
            ++acc.shards_failed;
            train_shard_failures_->Increment();
            if (first_error.ok()) first_error = result.status();
            continue;
          }
          if (!any_ok) {
            // Replicas hold identical models; the first success speaks
            // for the range's training_rounds.
            acc.trained = result->trained;
            acc.training_rounds = result->training_rounds;
          }
          any_ok = true;
        }
        if (!any_ok) return first_error;
        return acc;
      });
  TrainResponse merged;
  merged.shards_attempted = 0;
  merged.shards_failed = 0;
  bool any_ok = false;
  Status first_error = Status::OK();
  for (int s = 0; s < table->router.num_shards(); ++s) {
    StatusOr<TrainResponse>& result = per_shard[static_cast<size_t>(s)];
    const uint32_t replicas = static_cast<uint32_t>(
        table->shards[static_cast<size_t>(s)].endpoints.size());
    if (!result.ok()) {
      // Every replica of the range failed; the whole range counts as
      // attempted and failed.
      merged.shards_attempted += replicas;
      merged.shards_failed += replicas;
      if (first_error.ok()) first_error = result.status();
      continue;
    }
    any_ok = true;
    merged.trained = merged.trained || result->trained;
    merged.training_rounds += result->training_rounds;
    merged.shards_attempted += result->shards_attempted;
    merged.shards_failed += result->shards_failed;
  }
  if (!any_ok) return first_error;
  return merged;
}

StatusOr<MetricsResponse> CoordinatorService::Metrics() {
  const auto table = Table();
  for (size_t s = 0; s < table->shards.size(); ++s) {
    const ShardSlot& slot = table->shards[s];
    for (size_t r = 0; r < slot.endpoints.size(); ++r) {
      const EndpointState& ep = slot.endpoints[r];
      ep.connections_created->Set(
          static_cast<double>(ep.pool->clients_created()));
      const MetricLabels labels = {{"shard", std::to_string(s)},
                                   {"replica", std::to_string(r)}};
      registry_
          .GetGauge("hmmm_coordinator_breaker_state", labels,
                    "Circuit breaker state (0 closed, 1 open, 2 half-open)")
          ->Set(static_cast<double>(static_cast<int>(ep.breaker->state())));
      registry_
          .GetGauge("hmmm_coordinator_breaker_opened", labels,
                    "Times this endpoint's breaker tripped open")
          ->Set(static_cast<double>(ep.breaker->opened_total()));
      registry_
          .GetGauge("hmmm_coordinator_breaker_rejected", labels,
                    "Requests refused by this endpoint's breaker")
          ->Set(static_cast<double>(ep.breaker->rejected_total()));
      registry_
          .GetGauge("hmmm_coordinator_pool_stale_discarded", labels,
                    "Pooled connections dropped at checkout as stale")
          ->Set(static_cast<double>(ep.pool->stale_discarded()));
    }
  }
  // Fleet aggregation: scrape every replica endpoint's machine-readable
  // snapshot and merge into one throwaway registry, labelling each
  // series with its shard range and replica index. Dead endpoints just
  // contribute nothing — a scrape never fails.
  using EndpointMetrics = std::vector<std::pair<int, MetricsResponse>>;
  auto per_shard = FanOut<EndpointMetrics>(
      table, [&](int s) -> StatusOr<EndpointMetrics> {
        const ShardSlot& slot = table->shards[static_cast<size_t>(s)];
        EndpointMetrics out;
        for (size_t r = 0; r < slot.endpoints.size(); ++r) {
          StatusOr<MetricsResponse> scraped =
              AttemptEndpoint<MetricsResponse>(
                  slot.endpoints[r],
                  [](QueryClient& client) { return client.Metrics(); });
          if (scraped.ok()) {
            out.emplace_back(static_cast<int>(r), std::move(*scraped));
          }
        }
        return out;
      });
  MetricsRegistry fleet;
  for (int s = 0; s < table->router.num_shards(); ++s) {
    const StatusOr<EndpointMetrics>& shard_result =
        per_shard[static_cast<size_t>(s)];
    if (!shard_result.ok()) continue;
    for (const auto& [r, scraped] : *shard_result) {
      const Status loaded = fleet.MergeSnapshot(
          scraped.snapshot, {{"shard", std::to_string(s)},
                             {"replica", std::to_string(r)}});
      if (!loaded.ok()) {
        HMMM_LOG(Warning) << "shard " << s << " replica " << r
                          << " metrics snapshot rejected: "
                          << loaded.message();
      }
    }
  }
  MetricsResponse response;
  response.prometheus_text =
      registry_.RenderPrometheus() + fleet.RenderPrometheus();
  response.snapshot = registry_.EncodeSnapshot();
  return response;
}

StatusOr<DumpSlowQueriesResponse> CoordinatorService::DumpSlowQueries() {
  DumpSlowQueriesResponse response;
  response.jsonl = slow_log_.DumpJsonl();
  return response;
}

StatusOr<HealthResponse> CoordinatorService::Health() {
  const auto table = Table();
  auto per_shard = FanOut<HealthResponse>(
      table, [&](int s) -> StatusOr<HealthResponse> {
        return CallShard<HealthResponse>(
            table, s, /*hedgeable=*/false,
            [](QueryClient& client) -> StatusOr<HealthResponse> {
              return client.Health();
            });
      });
  HealthResponse merged;
  bool any_ok = false;
  Status first_error = Status::OK();
  for (auto& shard_result : per_shard) {
    if (!shard_result.ok()) {
      if (first_error.ok()) first_error = shard_result.status();
      continue;
    }
    any_ok = true;
    merged.videos += shard_result->videos;
    merged.shots += shard_result->shots;
    merged.annotated_shots += shard_result->annotated_shots;
    merged.model_version += shard_result->model_version;
  }
  if (!any_ok) return first_error;
  return merged;
}

StatusOr<std::unique_ptr<CoordinatorServer>> CoordinatorServer::Create(
    ShardMap map, CoordinatorOptions coordinator_options,
    QueryServerOptions server_options) {
  HMMM_ASSIGN_OR_RETURN(
      std::unique_ptr<CoordinatorService> service,
      CoordinatorService::Create(std::move(map),
                                 std::move(coordinator_options)));
  return std::unique_ptr<CoordinatorServer>(new CoordinatorServer(
      std::move(service), std::move(server_options)));
}

}  // namespace hmmm
