#ifndef HMMM_COORDINATOR_COORDINATOR_SERVICE_H_
#define HMMM_COORDINATOR_COORDINATOR_SERVICE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "client/query_client.h"
#include "common/thread_pool.h"
#include "coordinator/circuit_breaker.h"
#include "coordinator/health_prober.h"
#include "coordinator/shard_router.h"
#include "observability/metrics_registry.h"
#include "observability/query_trace.h"
#include "observability/sliding_window.h"
#include "observability/slow_query_log.h"
#include "observability/trace_codec.h"
#include "server/query_server.h"
#include "server/query_service.h"

namespace hmmm {

struct CoordinatorOptions {
  /// Transport template for every shard connection; host/port are
  /// overridden per endpoint from the shard map. The defaults deviate
  /// from QueryClientOptions' on purpose: a scatter path must fail fast
  /// so a dead endpoint costs one quick connect refusal, not a deep
  /// retry ladder eating the request's budget.
  QueryClientOptions client;
  /// Idle pooled connections kept per endpoint.
  size_t pool_max_idle = 8;
  /// Fan-out worker threads; <= 0 resolves to 2 * num_shards (shard
  /// calls block on network IO, so the pool sizes over shard count, not
  /// cores).
  int fanout_threads = 0;
  /// Milliseconds reserved from a TemporalQuery's budget_ms for the
  /// gather + merge phase: each shard gets budget_ms - merge_reserve_ms.
  int64_t merge_reserve_ms = 5;
  /// Floor for a derived per-shard budget (a request whose budget is
  /// smaller than the merge reserve still gives shards a sliver rather
  /// than a nonsensical non-positive budget). budget_ms == 0 stays 0 —
  /// "degrade immediately" must keep meaning that on every shard.
  int64_t min_shard_budget_ms = 1;
  /// Slack added on top of a budgeted request's per-shard IO timeout so
  /// a shard's own (degraded) answer wins the race against the
  /// transport deadline; only a truly hung shard trips the transport.
  int64_t io_slack_ms = 100;
  /// Ranked results kept after the temporal merge. Must equal the
  /// shards' TraversalOptions::max_results (both default 20) for
  /// byte-identical output.
  int max_results = 20;
  /// Tracing and slow-query-log knobs (trace_sample_rate & co.). A
  /// sampled coordinator query propagates its trace context downstream,
  /// so one decision traces the whole fan-out.
  QueryServiceOptions observability;

  /// Per-endpoint circuit breaker thresholds. An Open breaker removes
  /// the endpoint from the failover order for open_cooldown, so a dead
  /// replica costs one trip's worth of timeouts, not one per query.
  CircuitBreaker::Options breaker;
  /// Active health probing cadence. A zero interval disables the probe
  /// thread entirely — endpoints then stay optimistically kUp and
  /// failover relies on circuit breakers alone (unit tests use this to
  /// keep deployments quiet).
  std::chrono::milliseconds health_probe_interval{500};
  /// Connect/IO bound for one Health probe round trip.
  std::chrono::milliseconds health_probe_timeout{250};
  int health_failures_to_down = 3;
  int health_successes_to_up = 1;

  /// Hedged reads for the idempotent fan-out calls (TemporalQuery,
  /// QueryByExample): when the preferred replica has not answered after
  /// the hedge delay, the same request is raced against the next
  /// replica in the failover order and the first success wins. Replicas
  /// serve identical slices, so either answer is byte-identical — the
  /// hedge trades duplicate work for tail latency, never determinism.
  ///   -1  disabled (default)
  ///    0  adaptive: delay = max(hedge_min_delay_ms, sliding p99 of
  ///       merged query latency)
  ///   >0  fixed delay in milliseconds
  int64_t hedge_delay_ms = -1;
  int64_t hedge_min_delay_ms = 10;

  CoordinatorOptions() {
    client.max_retries = 1;
    client.connect_timeout = std::chrono::milliseconds(500);
  }
};

/// Per-shard budget derivation (exposed for unit tests): -1 (no budget)
/// passes through, 0 stays 0, anything else loses the merge reserve but
/// never drops below min_shard_budget_ms.
int64_t ShardBudgetMs(int64_t budget_ms, const CoordinatorOptions& options);

/// Deterministic cross-shard merge of per-shard temporal rankings
/// (already remapped to global ids): (score desc, global video asc),
/// truncated to max_results. Per-video candidates are unique and shards
/// partition the videos, so this is a total order — the merged ranking
/// is the same for every fan-out width and arrival order.
std::vector<RetrievedPattern> MergeRankedResults(
    std::vector<std::vector<RetrievedPattern>> per_shard, int max_results);

/// Deterministic QBE merge: per-shard lists concatenated in shard order
/// (= global state order, since shards own contiguous video ranges) and
/// stably sorted by similarity desc — reproducing the single-process
/// stable sort bit-for-bit.
std::vector<QbeResult> MergeQbeResults(
    std::vector<std::vector<QbeResult>> per_shard, int max_results);

/// Deterministic replica preference for one shard: endpoint indexes
/// ordered kUp first (in replica order: primary, then replicas as
/// listed in the map), then kSuspect, then kDown as a last resort — a
/// stale kDown verdict can demote an endpoint but never black-hole the
/// range; circuit breakers are the final admission gate per attempt.
/// Every index appears exactly once, so two coordinators with the same
/// health view route identically.
std::vector<int> FailoverOrder(const std::vector<EndpointHealth>& health);

/// Scatter-gather QueryService over N shard ranges, each served by one
/// or more replica endpoints holding identical PartitionForServing
/// slices behind the ordinary wire protocol.
///
/// TemporalQuery/QueryByExample fan out over pooled per-endpoint
/// QueryClient connections on a dedicated thread pool and merge under
/// the deterministic total orders above, so a coordinator's ranking is
/// byte-identical to a single-process server over the merged catalog.
/// Each shard call walks the range's replicas in FailoverOrder — health
/// from the active prober, admission per endpoint by a circuit breaker
/// — and the range only degrades the merged result (videos_skipped
/// grows by the range's catalog share) when EVERY replica failed. Only
/// kInvalidArgument / kNotFound (the request itself is at fault,
/// identically on every replica) propagate as errors. MarkPositive and
/// Train broadcast to every replica of the affected range(s) so the
/// replicas' models stay in lockstep. ReloadShardMap swaps in a
/// strictly-newer-epoch map atomically; in-flight queries finish on the
/// snapshot they started with.
class CoordinatorService : public QueryService {
 public:
  /// Validates the map (including every replica endpoint) and connects
  /// nothing yet: connections are established lazily per fan-out.
  static StatusOr<std::unique_ptr<CoordinatorService>> Create(
      ShardMap map, CoordinatorOptions options = {});
  ~CoordinatorService() override;

  MetricsRegistry& metrics_registry() override { return registry_; }
  StatusOr<TemporalQueryResponse> TemporalQuery(
      const TemporalQueryRequest& request,
      const CancellationToken* shutdown) override;
  StatusOr<QbeResponse> QueryByExample(const QbeRequest& request) override;
  StatusOr<MarkPositiveResponse> MarkPositive(
      const MarkPositiveRequest& request) override;
  StatusOr<TrainResponse> Train() override;
  /// Own hmmm_coordinator_* exposition plus the fleet aggregation: every
  /// live endpoint's snapshot merged into one registry with
  /// shard="<index>",replica="<index>" labels on each series, rendered
  /// after the coordinator's own families. `snapshot` carries the
  /// coordinator's own registry only.
  StatusOr<MetricsResponse> Metrics() override;
  StatusOr<HealthResponse> Health() override;
  StatusOr<DumpSlowQueriesResponse> DumpSlowQueries() override;
  /// Wire entry point for a hot shard-map swap: decodes the pushed
  /// blob and hands it to ApplyShardMap.
  StatusOr<ReloadShardMapResponse> ReloadShardMap(
      const ReloadShardMapRequest& request) override;

  /// Validates `map` and atomically replaces the routing table iff
  /// map.epoch is strictly greater than the live epoch (the fence that
  /// makes a replayed or reordered reload a kFailedPrecondition no-op).
  /// Pools and breakers of endpoints present in both maps carry over,
  /// keeping warm connections and breaker verdicts across the swap;
  /// queries already in flight finish on the snapshot they pinned.
  StatusOr<ReloadShardMapResponse> ApplyShardMap(ShardMap map);

  /// Epoch of the live routing table.
  uint64_t map_epoch() const;
  int num_shards() const;
  /// Router of the live routing table. Debug/test accessor: the
  /// reference is only stable while no concurrent reload swaps the
  /// table — request paths pin a snapshot instead.
  const ShardRouter& router() const { return Table()->router; }
  const CoordinatorOptions& options() const { return options_; }
  SlowQueryLog& slow_query_log() { return slow_log_; }
  /// The active prober (null when health_probe_interval is zero).
  HealthProber* health_prober() { return prober_.get(); }

 private:
  /// One replica endpoint of a shard range: its connection pool, its
  /// breaker, and its labeled metric handles. Pool and breaker are
  /// shared_ptrs so a reload can carry them over into the next table
  /// and a hedge attempt can outlive the snapshot that spawned it.
  struct EndpointState {
    std::string endpoint;
    std::shared_ptr<QueryClientPool> pool;
    std::shared_ptr<CircuitBreaker> breaker;
    Histogram* latency_ms = nullptr;   // per-attempt, this endpoint
    Counter* errors = nullptr;         // failed attempts, this endpoint
    Gauge* connections_created = nullptr;
  };

  /// One shard range: its replicas in map order (primary first) and
  /// the range-level metric handles.
  struct ShardSlot {
    std::vector<EndpointState> endpoints;
    Histogram* latency_ms = nullptr;  // whole shard call incl. failover
    Counter* errors = nullptr;        // shard calls with no live replica
  };

  /// Immutable routing snapshot. Requests pin it with a shared_ptr at
  /// entry and use only that snapshot, so a concurrent ReloadShardMap
  /// swap never mixes two maps inside one query.
  struct RoutingTable {
    RoutingTable(ShardRouter router_in, uint64_t epoch_in)
        : router(std::move(router_in)), epoch(epoch_in) {}
    ShardRouter router;
    uint64_t epoch = 0;
    std::vector<ShardSlot> shards;
  };

  CoordinatorService(std::shared_ptr<const RoutingTable> table,
                     CoordinatorOptions options);

  std::shared_ptr<const RoutingTable> Table() const;

  /// Builds a table from a validated map, resolving per-endpoint metric
  /// handles (same labels → same registry instance, so a reload keeps
  /// counting in the same series) and reusing pool + breaker from
  /// `previous` for endpoints present in both maps.
  StatusOr<std::shared_ptr<const RoutingTable>> BuildRoutingTable(
      ShardMap map, const RoutingTable* previous);

  /// Starts the health prober over the live table's endpoints (no-op
  /// when health_probe_interval is zero).
  void StartProber();

  /// One fan-out call against shard `s`: walks the replicas in
  /// FailoverOrder, gated per endpoint by its breaker, recording
  /// attempt latency/errors and breaker outcomes. `rpc` must own its
  /// request (capture by value) and be safe to invoke concurrently on
  /// distinct clients — when `hedgeable` and hedging is enabled, the
  /// preferred replica races the next one after the hedge delay and the
  /// first success wins (the loser finishes in the background against
  /// the pinned snapshot). Returns the first OK or request-at-fault
  /// answer; otherwise the last transport error after all replicas.
  template <typename T>
  StatusOr<T> CallShard(const std::shared_ptr<const RoutingTable>& table,
                        int s, bool hedgeable,
                        std::function<StatusOr<T>(QueryClient&)> rpc);

  /// One attempt against one endpoint: lease, rpc, breaker verdict,
  /// endpoint metrics. Query errors (request at fault) count as breaker
  /// successes — the endpoint answered.
  template <typename T>
  StatusOr<T> AttemptEndpoint(const EndpointState& ep,
                              const std::function<StatusOr<T>(QueryClient&)>& rpc);

  /// Runs `call_shard(shard_index)` for every shard of `table` on the
  /// fan-out pool, recording shard-level latency. Blocks until every
  /// shard answered or failed. When `elapsed_ms_out` is non-null it is
  /// resized to num_shards and filled with each shard call's wall time.
  template <typename T>
  std::vector<StatusOr<T>> FanOut(
      const std::shared_ptr<const RoutingTable>& table,
      const std::function<StatusOr<T>(int)>& call_shard,
      std::vector<double>* elapsed_ms_out = nullptr);

  /// Resolves the hedge delay for this moment: < 0 disabled.
  int64_t ResolveHedgeDelayMs();

  CoordinatorOptions options_;
  MetricsRegistry registry_;
  TraceSampler sampler_;
  SlowQueryLog slow_log_;
  /// Sliding-window latency of merged temporal queries, feeding the
  /// hmmm_coordinator_query_latency_p* gauges and the adaptive hedge
  /// delay.
  SlidingWindowHistogram latency_window_;
  std::unique_ptr<ThreadPool> fanout_pool_;
  std::unique_ptr<HealthProber> prober_;

  mutable std::mutex table_mutex_;
  std::shared_ptr<const RoutingTable> table_;

  /// Hedge attempts still running after their winner returned; the
  /// destructor waits them out so detached attempts never touch a dead
  /// registry.
  mutable std::mutex hedge_mutex_;
  std::condition_variable hedge_drained_;
  int inflight_hedge_attempts_ = 0;

  Counter* fanouts_total_ = nullptr;
  Counter* queries_degraded_ = nullptr;
  Counter* dead_shard_results_ = nullptr;
  Counter* traces_sampled_ = nullptr;
  Counter* failovers_total_ = nullptr;
  Counter* breaker_rejections_ = nullptr;
  Counter* hedges_total_ = nullptr;
  Counter* hedge_wins_ = nullptr;
  Counter* train_shard_failures_ = nullptr;
  Counter* reloads_total_ = nullptr;
  Counter* reloads_rejected_ = nullptr;
  Gauge* map_epoch_gauge_ = nullptr;
  Gauge* latency_p50_ = nullptr;
  Gauge* latency_p99_ = nullptr;
  Gauge* latency_p999_ = nullptr;
};

/// The sharded drop-in for hmmm_serverd: a QueryServer front end bound
/// to a CoordinatorService, speaking the existing wire protocol
/// unchanged.
class CoordinatorServer {
 public:
  static StatusOr<std::unique_ptr<CoordinatorServer>> Create(
      ShardMap map, CoordinatorOptions coordinator_options = {},
      QueryServerOptions server_options = {});

  Status Start() { return server_->Start(); }
  uint16_t port() const { return server_->port(); }
  void Shutdown() { server_->Shutdown(); }
  bool running() const { return server_->running(); }
  CoordinatorService& service() { return *service_; }

 private:
  CoordinatorServer(std::unique_ptr<CoordinatorService> service,
                    QueryServerOptions server_options)
      : service_(std::move(service)),
        server_(std::make_unique<QueryServer>(service_.get(),
                                              std::move(server_options))) {}

  std::unique_ptr<CoordinatorService> service_;
  std::unique_ptr<QueryServer> server_;
};

}  // namespace hmmm

#endif  // HMMM_COORDINATOR_COORDINATOR_SERVICE_H_
