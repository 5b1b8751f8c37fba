#ifndef HMMM_SERVER_QUERY_SERVICE_H_
#define HMMM_SERVER_QUERY_SERVICE_H_

#include "api/video_database.h"
#include "common/cancellation.h"
#include "common/status.h"
#include "observability/slow_query_log.h"
#include "observability/trace_codec.h"
#include "server/wire_protocol.h"

namespace hmmm {

/// The request-execution backend behind a QueryServer: one method per
/// wire-protocol request, working in decoded request/response structs.
/// The server owns everything transport-shaped — framing, pipelining,
/// supersession, drain — and delegates execution here, so the same
/// front end can serve a local VideoDatabase (VideoDatabaseService) or
/// fan out across shard servers (CoordinatorService) without the wire
/// protocol changing.
///
/// Implementations must be safe to call from multiple server workers
/// concurrently.
class QueryService {
 public:
  virtual ~QueryService() = default;

  /// Registry the owning server registers its hmmm_server_* transport
  /// metrics into (and Metrics() typically dumps). Stable for the
  /// service's lifetime.
  virtual MetricsRegistry& metrics_registry() = 0;

  /// `shutdown` is the server's shutdown token (never null while the
  /// server runs); implementations should degrade, not fail, when it
  /// fires mid-request.
  virtual StatusOr<TemporalQueryResponse> TemporalQuery(
      const TemporalQueryRequest& request,
      const CancellationToken* shutdown) = 0;
  virtual StatusOr<QbeResponse> QueryByExample(const QbeRequest& request) = 0;
  virtual StatusOr<MarkPositiveResponse> MarkPositive(
      const MarkPositiveRequest& request) = 0;
  virtual StatusOr<TrainResponse> Train() = 0;
  virtual StatusOr<MetricsResponse> Metrics() = 0;
  /// The server overrides HealthResponse::draining with its own state.
  virtual StatusOr<HealthResponse> Health() = 0;
  /// Snapshot of the service's slow-query ring buffer.
  /// Default: empty log, so minimal test services need not implement it.
  virtual StatusOr<DumpSlowQueriesResponse> DumpSlowQueries();
  /// Hot shard-map swap. Only routing front ends (CoordinatorService)
  /// implement it; default: kUnimplemented, so leaf shard servers answer
  /// with a typed error.
  virtual StatusOr<ReloadShardMapResponse> ReloadShardMap(
      const ReloadShardMapRequest& request);
};

/// Tracing/observability knobs shared by the service implementations.
struct QueryServiceOptions {
  /// Head-sampling rate for queries that did not ask for a trace
  /// themselves (want_trace always traces). 0.0 = never, 1.0 = always;
  /// the sampler is deterministic (see TraceSampler).
  double trace_sample_rate = 0.0;
  /// A query at least this slow is captured in the slow-query log.
  /// Degraded (budget-fired) queries are always captured.
  double slow_query_threshold_ms = 250.0;
  /// Ring-buffer capacity of the slow-query log.
  size_t slow_query_capacity = 128;
  /// When non-empty, every Train() round that actually trained publishes
  /// a fresh snapshot generation into this directory (atomic write +
  /// CURRENT repoint, generation = training_rounds), so cold-starting
  /// replicas pick up learned weights via the mmap path instead of
  /// re-serializing blobs. Publish failures are logged, never propagated:
  /// training succeeded, and the snapshot is a serving accelerator.
  std::string snapshot_publish_dir;
};

/// QueryService over one local VideoDatabase — the single-process
/// backend (previously inlined in QueryServer's handlers). Maps a
/// request's budget_ms onto the query deadline; a fired budget or
/// shutdown degrades to the anytime prefix ranking.
///
/// Tracing: a sampled request (want_trace, or the head sampler firing)
/// runs under a "server_query" root span tagged with the trace id; the
/// traversal's Fig.-2 phase spans are adopted as its children. Only
/// requests that asked (want_trace) get the trace bytes back on the
/// wire — sampler-only traces feed the slow-query log's trace ids.
class VideoDatabaseService : public QueryService {
 public:
  /// `db` must outlive the service.
  explicit VideoDatabaseService(VideoDatabase* db,
                                QueryServiceOptions options = {});

  MetricsRegistry& metrics_registry() override;
  StatusOr<TemporalQueryResponse> TemporalQuery(
      const TemporalQueryRequest& request,
      const CancellationToken* shutdown) override;
  StatusOr<QbeResponse> QueryByExample(const QbeRequest& request) override;
  StatusOr<MarkPositiveResponse> MarkPositive(
      const MarkPositiveRequest& request) override;
  StatusOr<TrainResponse> Train() override;
  StatusOr<MetricsResponse> Metrics() override;
  StatusOr<HealthResponse> Health() override;
  StatusOr<DumpSlowQueriesResponse> DumpSlowQueries() override;

  SlowQueryLog& slow_query_log() { return slow_log_; }

 private:
  VideoDatabase* db_;
  QueryServiceOptions options_;
  TraceSampler sampler_;
  SlowQueryLog slow_log_;
};

}  // namespace hmmm

#endif  // HMMM_SERVER_QUERY_SERVICE_H_
