#include "server/query_service.h"

#include <chrono>
#include <thread>
#include <utility>

#include "common/fault_injector.h"
#include "common/logging.h"
#include "observability/query_trace.h"

namespace hmmm {
namespace {

double ElapsedMs(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

StatusOr<DumpSlowQueriesResponse> QueryService::DumpSlowQueries() {
  return DumpSlowQueriesResponse{};
}

StatusOr<ReloadShardMapResponse> QueryService::ReloadShardMap(
    const ReloadShardMapRequest&) {
  return Status::Unimplemented("this service does not route a shard map");
}

VideoDatabaseService::VideoDatabaseService(VideoDatabase* db,
                                           QueryServiceOptions options)
    : db_(db),
      options_(options),
      sampler_(options.trace_sample_rate),
      slow_log_(options.slow_query_capacity == 0 ? 1
                                                 : options.slow_query_capacity) {
  HMMM_CHECK(db_ != nullptr);
}

MetricsRegistry& VideoDatabaseService::metrics_registry() {
  return db_->metrics_registry();
}

StatusOr<TemporalQueryResponse> VideoDatabaseService::TemporalQuery(
    const TemporalQueryRequest& request, const CancellationToken* shutdown) {
  // Chaos hook: a fired point stalls this replica long enough for a
  // coordinator's hedge delay to elapse, without failing the request.
  if (HMMM_FAULT_FIRED("service.slow_temporal_query")) {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  }
  const auto start = std::chrono::steady_clock::now();
  QueryControls controls;
  if (request.budget_ms >= 0) {
    controls.deadline =
        DeadlineAfter(std::chrono::milliseconds(request.budget_ms));
  }
  controls.cancellation = shutdown;

  // want_trace always traces (the caller asked); otherwise the head
  // sampler decides. A sampled hop that arrived without an id mints one.
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

  QueryTrace trace;
  int server_span = -1;
  if (sampled) {
    server_span = trace.BeginSpan("server_query");
    trace.AddAttribute(server_span, "trace_id", trace_id_hex);
    if (context.parent_span_id != 0) {
      trace.AddAttribute(server_span, "parent_span_id",
                         std::to_string(context.parent_span_id));
    }
    controls.trace = &trace;
  }

  RetrievalStats stats;
  StatusOr<std::vector<RetrievedPattern>> results =
      db_->Query(request.text, controls, &stats);
  if (!results.ok()) {
    HMMM_LOG(Error) << "temporal query failed: "
                    << results.status().message()
                    << (sampled ? " trace_id=" + trace_id_hex : "");
    return results.status();
  }
  const double total_ms = ElapsedMs(start);

  if (sampled) {
    trace.AddCounter(server_span, "videos_skipped", stats.videos_skipped);
    trace.AddCounter(server_span, "degraded", stats.degraded ? 1 : 0);
    // The traversal opened its phase spans as roots; adopt them so the
    // request renders as one tree under server_query.
    trace.ReparentRoots(server_span);
    trace.EndSpan(server_span);
  }

  TemporalQueryResponse response;
  response.results = std::move(results).value();
  response.degraded = stats.degraded;
  response.videos_skipped = stats.videos_skipped;
  response.has_stats = request.want_stats;
  if (request.want_stats) response.stats = stats;
  if (request.want_trace) response.trace_blob = SerializeSpans(trace.Spans());

  if (stats.degraded || total_ms >= options_.slow_query_threshold_ms) {
    SlowQueryEntry entry;
    entry.reason = stats.degraded ? "degraded" : "slow";
    entry.pattern = request.text;
    entry.trace_id = trace_id_hex;
    entry.total_ms = total_ms;
    entry.budget_ms =
        request.budget_ms >= 0 ? static_cast<double>(request.budget_ms) : -1.0;
    entry.degraded = stats.degraded;
    entry.videos_skipped = stats.videos_skipped;
    slow_log_.Add(std::move(entry));
  }
  return response;
}

StatusOr<QbeResponse> VideoDatabaseService::QueryByExample(
    const QbeRequest& request) {
  const auto start = std::chrono::steady_clock::now();
  QbeOptions options;
  options.max_results = request.max_results;

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

  QueryTrace trace;
  int server_span = -1;
  if (sampled) {
    server_span = trace.BeginSpan("server_qbe");
    trace.AddAttribute(server_span, "trace_id",
                       TraceIdHex(context.trace_id_hi, context.trace_id_lo));
    if (context.parent_span_id != 0) {
      trace.AddAttribute(server_span, "parent_span_id",
                         std::to_string(context.parent_span_id));
    }
  }

  StatusOr<std::vector<QbeResult>> results =
      db_->QueryByExample(request.features, options);
  if (!results.ok()) {
    HMMM_LOG(Error) << "query-by-example failed: "
                    << results.status().message()
                    << (sampled ? " trace_id=" + TraceIdHex(
                                      context.trace_id_hi, context.trace_id_lo)
                                : "");
    return results.status();
  }

  QbeResponse response;
  response.results = std::move(results).value();
  if (sampled) {
    trace.AddCounter(server_span, "results",
                     static_cast<uint64_t>(response.results.size()));
    trace.EndSpan(server_span);
  }
  if (request.want_trace) {
    response.trace_blob = SerializeSpans(trace.Spans());
  }

  const double total_ms = ElapsedMs(start);
  if (total_ms >= options_.slow_query_threshold_ms) {
    SlowQueryEntry entry;
    entry.reason = "slow";
    entry.pattern = "qbe:" + std::to_string(request.features.size());
    entry.trace_id =
        sampled ? TraceIdHex(context.trace_id_hi, context.trace_id_lo)
                : std::string();
    entry.total_ms = total_ms;
    slow_log_.Add(std::move(entry));
  }
  return response;
}

StatusOr<MarkPositiveResponse> VideoDatabaseService::MarkPositive(
    const MarkPositiveRequest& request) {
  HMMM_RETURN_IF_ERROR(db_->MarkPositive(request.pattern));
  MarkPositiveResponse response;
  response.training_rounds = db_->training_rounds();
  return response;
}

StatusOr<TrainResponse> VideoDatabaseService::Train() {
  HMMM_ASSIGN_OR_RETURN(const bool trained, db_->Train());
  TrainResponse response;
  response.trained = trained;
  response.training_rounds = db_->training_rounds();
  if (trained && !options_.snapshot_publish_dir.empty()) {
    const StatusOr<std::string> published = db_->PublishSnapshot(
        options_.snapshot_publish_dir,
        static_cast<uint64_t>(response.training_rounds));
    if (!published.ok()) {
      HMMM_LOG(Warning) << "snapshot publish after training failed: "
                        << published.status().ToString();
    }
  }
  return response;
}

StatusOr<MetricsResponse> VideoDatabaseService::Metrics() {
  MetricsResponse response;
  response.prometheus_text = db_->DumpMetricsPrometheus();
  response.snapshot = db_->metrics_registry().EncodeSnapshot();
  return response;
}

StatusOr<HealthResponse> VideoDatabaseService::Health() {
  const VideoDatabase::HealthSnapshot health = db_->Health();
  HealthResponse response;
  response.videos = health.videos;
  response.shots = health.shots;
  response.annotated_shots = health.annotated_shots;
  response.model_version = health.model_version;
  return response;
}

StatusOr<DumpSlowQueriesResponse> VideoDatabaseService::DumpSlowQueries() {
  DumpSlowQueriesResponse response;
  response.jsonl = slow_log_.DumpJsonl();
  return response;
}

}  // namespace hmmm
