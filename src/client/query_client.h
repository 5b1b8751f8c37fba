#ifndef HMMM_CLIENT_QUERY_CLIENT_H_
#define HMMM_CLIENT_QUERY_CLIENT_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/socket.h"
#include "common/status.h"
#include "server/wire_protocol.h"

namespace hmmm {

struct QueryClientOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  /// Bound on establishing (or re-establishing) the TCP connection.
  std::chrono::milliseconds connect_timeout{2000};
  /// Per-request IO deadline covering the write of the request frame and
  /// the read of the complete response frame.
  std::chrono::milliseconds io_timeout{30000};
  /// Additional attempts after the first one fails retriably. The retry
  /// budget is per call, not per connection.
  int max_retries = 3;
  /// Backoff before the first retry; subsequent retries use decorrelated
  /// jitter (uniform in [retry_backoff, 3 * previous]) capped at
  /// retry_backoff_cap, so a fleet of clients that failed together does
  /// not hammer a recovering shard in lockstep.
  std::chrono::milliseconds retry_backoff{10};
  std::chrono::milliseconds retry_backoff_cap{1000};
  /// Seed for the backoff jitter. 0 (default) derives a distinct seed
  /// per client from a process-global counter — concurrent clients
  /// decorrelate; a nonzero value pins the jitter sequence for tests.
  uint64_t retry_jitter_seed = 0;
  /// Responses announcing a larger payload are rejected as corrupt.
  uint32_t max_frame_bytes = kDefaultMaxFrameBytes;
};

/// One decorrelated-jitter backoff step: uniform in [base, 3 * prev],
/// clamped to cap. Exposed as a free function so tests can pin the Rng
/// and check the distribution without a live socket.
std::chrono::milliseconds NextDecorrelatedBackoff(
    std::chrono::milliseconds base, std::chrono::milliseconds cap,
    std::chrono::milliseconds prev, Rng& rng);

/// Resolves QueryClientOptions::retry_jitter_seed: a nonzero configured
/// seed is used verbatim; 0 draws from a process-global counter so every
/// client gets a distinct jitter stream.
uint64_t DeriveRetryJitterSeed(uint64_t configured);

/// Synchronous client for the QueryServer wire protocol: one connection,
/// one in-flight request at a time, with lazy (re)connection and bounded
/// retry.
///
/// Retry policy: an attempt is retried (up to max_retries, with
/// decorrelated-jitter backoff) when either
///  - the server answered a typed error marked retriable (admission shed
///    kResourceExhausted, drain-time kShuttingDown) — always safe, the
///    server refused before executing; or
///  - the transport failed (connect/read/write/timeout/torn frame) and
///    the request is idempotent. TemporalQuery, QueryByExample, Metrics
///    and Health are idempotent; MarkPositive and Train are not — a
///    transport failure after the request was sent leaves the server's
///    execution state unknown, so those surface the error instead.
/// Non-retriable typed errors surface as the mirrored Status immediately;
/// a peer of another wire version answers kUnsupportedVersion, which
/// surfaces as kUnimplemented without a retry.
class QueryClient {
 public:
  explicit QueryClient(QueryClientOptions options)
      : options_(options),
        rng_(DeriveRetryJitterSeed(options.retry_jitter_seed)) {}
  ~QueryClient() = default;

  QueryClient(const QueryClient&) = delete;
  QueryClient& operator=(const QueryClient&) = delete;
  QueryClient(QueryClient&&) = default;
  QueryClient& operator=(QueryClient&&) = default;

  /// Eagerly establishes the connection; otherwise the first request
  /// connects lazily.
  Status Connect();
  void Disconnect() { socket_.Close(); }
  bool connected() const { return socket_.valid(); }

  StatusOr<TemporalQueryResponse> TemporalQuery(
      const TemporalQueryRequest& request);
  StatusOr<QbeResponse> QueryByExample(const QbeRequest& request);
  StatusOr<MarkPositiveResponse> MarkPositive(
      const MarkPositiveRequest& request);
  StatusOr<TrainResponse> Train();
  StatusOr<MetricsResponse> Metrics();
  StatusOr<HealthResponse> Health();
  /// Fetches the server's slow-query log (JSONL, oldest first).
  StatusOr<DumpSlowQueriesResponse> DumpSlowQueries();
  /// Pushes a serialized shard map to a coordinator for a hot swap.
  /// Non-idempotent under the epoch fence: a retry of an applied reload
  /// is answered kFailedPrecondition ("epoch not newer"), so transport
  /// failures surface instead of being retried blindly.
  StatusOr<ReloadShardMapResponse> ReloadShardMap(
      const ReloadShardMapRequest& request);

  /// Monotone generation for TemporalQueryRequest::cancel_generation: a
  /// request stamped with a fresh generation supersedes every earlier
  /// pipelined request still queued on the server.
  uint64_t NextCancelGeneration() { return ++generation_; }

  /// Adjusts the per-request IO deadline for subsequent calls. Lets a
  /// pooled connection serve requests with differing latency budgets
  /// (the coordinator ties this to each query's per-shard budget so a
  /// hung shard cannot stall a fan-out past the request's budget).
  void set_io_timeout(std::chrono::milliseconds timeout) {
    options_.io_timeout = timeout;
  }
  std::chrono::milliseconds io_timeout() const { return options_.io_timeout; }

  /// Retries performed across all calls (observability / tests).
  uint64_t retries_performed() const { return retries_performed_; }

  /// Cheap liveness check for an idle connection: polls the socket with
  /// zero timeout. A request/response connection with nothing in flight
  /// must be silent — readable means EOF or stray bytes, either of which
  /// would burn a retry inside the next call's budget. An unconnected
  /// client is trivially healthy (it connects lazily).
  bool IdleConnectionHealthy() const;

 private:
  /// Frames `payload` once, sends it and returns the payload of the
  /// expected response, applying the retry policy above.
  StatusOr<std::string> RoundTrip(MessageType request_type,
                                  std::string_view payload,
                                  MessageType expected_response,
                                  bool idempotent);
  /// One attempt. Sets *retriable when the failure is safe to retry
  /// under the policy (given `idempotent`).
  StatusOr<std::string> Attempt(const std::string& frame,
                                MessageType expected_response,
                                bool idempotent, bool* retriable);

  QueryClientOptions options_;
  Socket socket_;
  Rng rng_;
  uint64_t generation_ = 0;
  uint64_t retries_performed_ = 0;
};

/// A thread-safe pool of QueryClients to one endpoint, so concurrent
/// fan-out calls (the shard coordinator's scatter phase) reuse warm TCP
/// connections instead of paying a connect per request. Acquire() pops
/// an idle client or creates a fresh one; the RAII lease returns it on
/// destruction (up to max_idle — beyond that the connection just
/// closes). A client whose last call failed is safe to recycle: it
/// disconnects on transport errors and reconnects lazily.
class QueryClientPool {
 public:
  explicit QueryClientPool(QueryClientOptions options, size_t max_idle = 8)
      : options_(std::move(options)), max_idle_(max_idle) {}

  QueryClientPool(const QueryClientPool&) = delete;
  QueryClientPool& operator=(const QueryClientPool&) = delete;

  class Lease {
   public:
    Lease(QueryClientPool* pool, std::unique_ptr<QueryClient> client)
        : pool_(pool), client_(std::move(client)) {}
    ~Lease() {
      if (pool_ != nullptr && client_ != nullptr) {
        pool_->Return(std::move(client_));
      }
    }
    Lease(Lease&&) = default;
    Lease& operator=(Lease&&) = delete;
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;

    QueryClient* operator->() { return client_.get(); }
    QueryClient& operator*() { return *client_; }

   private:
    QueryClientPool* pool_;
    std::unique_ptr<QueryClient> client_;
  };

  Lease Acquire() {
    for (;;) {
      std::unique_ptr<QueryClient> client;
      {
        std::lock_guard<std::mutex> lock(mutex_);
        if (idle_.empty()) break;
        client = std::move(idle_.back());
        idle_.pop_back();
      }
      // A connection that went stale while pooled (shard restarted, peer
      // hung up) would burn a retry inside the fan-out's budget; a
      // zero-timeout poll catches it for the price of one syscall.
      if (client->IdleConnectionHealthy()) {
        return Lease(this, std::move(client));
      }
      stale_discarded_.fetch_add(1, std::memory_order_relaxed);
    }
    ++clients_created_;
    return Lease(this, std::make_unique<QueryClient>(options_));
  }

  size_t idle() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return idle_.size();
  }
  /// Connections created over the pool's lifetime (observability: a
  /// steady-state fan-out should plateau at ~max concurrent requests).
  uint64_t clients_created() const {
    return clients_created_.load(std::memory_order_relaxed);
  }
  /// Pooled connections dropped at checkout because their socket
  /// reported EOF/error while idle.
  uint64_t stale_discarded() const {
    return stale_discarded_.load(std::memory_order_relaxed);
  }

  const QueryClientOptions& options() const { return options_; }

 private:
  void Return(std::unique_ptr<QueryClient> client) {
    // Reset the per-call override so the next lease starts from the
    // configured default.
    client->set_io_timeout(options_.io_timeout);
    std::lock_guard<std::mutex> lock(mutex_);
    if (idle_.size() < max_idle_) idle_.push_back(std::move(client));
  }

  QueryClientOptions options_;
  size_t max_idle_;
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<QueryClient>> idle_;
  std::atomic<uint64_t> clients_created_{0};
  std::atomic<uint64_t> stale_discarded_{0};
};

}  // namespace hmmm

#endif  // HMMM_CLIENT_QUERY_CLIENT_H_
