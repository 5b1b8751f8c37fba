#ifndef HMMM_SERVER_QUERY_SERVER_H_
#define HMMM_SERVER_QUERY_SERVER_H_

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "api/video_database.h"
#include "common/cancellation.h"
#include "common/socket.h"
#include "common/thread_pool.h"
#include "server/query_service.h"
#include "server/wire_protocol.h"

namespace hmmm {

struct QueryServerOptions {
  /// Bind address: IPv4 dotted quad or "localhost".
  std::string host = "127.0.0.1";
  /// 0 picks an ephemeral port; read it back with port() after Start().
  uint16_t port = 0;
  /// Connection-worker pool size (request execution); the IO thread is
  /// separate. <= 0 resolves to the hardware concurrency.
  int num_workers = 2;
  /// Accepted connections beyond this are closed immediately.
  int max_connections = 64;
  /// Frames whose header announces a larger payload are answered with
  /// kFrameTooLarge and the connection is closed (per-connection read
  /// limit: the server never buffers more than one frame beyond this).
  uint32_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// Deadline for writing one response back to a client; a slower peer
  /// loses its connection (the server never blocks a worker forever).
  std::chrono::milliseconds write_timeout{30000};
  /// Graceful-shutdown budget: how long Shutdown() lets in-flight
  /// requests finish before cancelling them through the shutdown token.
  std::chrono::milliseconds drain_timeout{5000};
};

/// Multi-threaded TCP front end for a VideoDatabase, speaking the binary
/// wire protocol of server/wire_protocol.h.
///
/// Threading model: one IO thread owns the listener and every idle
/// connection through a poll() loop (a self-wake pipe lets other threads
/// interrupt it). When a connection has buffered at least one complete
/// frame, the IO thread marks it busy — removing it from the poll set —
/// and dispatches the batch of complete frames to the worker pool. The
/// owning worker decodes, executes against the database, writes the
/// response frames, and hands the connection back to the IO thread for
/// re-arming. One connection is therefore touched by at most one thread
/// at a time, and responses to pipelined requests keep request order.
///
/// Deadlines and cancellation: a request's budget_ms becomes the query's
/// TraversalOptions deadline, and every query runs under the server's
/// shutdown CancellationToken — both degrade (anytime prefix ranking)
/// rather than fail. A pipelined TemporalQuery whose cancel_generation is
/// below the newest generation seen on its connection is answered with
/// kSuperseded without executing.
///
/// Graceful shutdown: Shutdown() stops accepting, answers new query
/// frames with retriable kShuttingDown (Health/Metrics still work, with
/// draining = true), waits up to drain_timeout for in-flight work, then
/// cancels stragglers through the shutdown token and waits for them to
/// degrade out. Workers always finish writing the response of the
/// request they are on, so clients never observe a torn frame.
class QueryServer {
 public:
  /// `db` must outlive the server. Server metrics register into the
  /// database's MetricsRegistry (hmmm_server_* families). Convenience
  /// for the common single-process case: wraps the database in an owned
  /// VideoDatabaseService.
  explicit QueryServer(VideoDatabase* db, QueryServerOptions options = {});

  /// Serves an arbitrary backend (e.g. a shard-fan-out
  /// CoordinatorService). `service` must outlive the server; transport
  /// metrics register into service->metrics_registry().
  explicit QueryServer(QueryService* service, QueryServerOptions options = {});

  ~QueryServer();

  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  /// Binds, listens and starts the IO thread + worker pool.
  Status Start();

  /// The bound port (valid after a successful Start()).
  uint16_t port() const { return port_; }

  /// Graceful shutdown as described above. Idempotent; also invoked by
  /// the destructor.
  void Shutdown();

  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Fired when drain_timeout expires during Shutdown(); exposed so
  /// embedders can share one token across subsystems.
  const CancellationToken& shutdown_token() const { return shutdown_token_; }

 private:
  /// One complete frame as extracted by the IO thread, or a framing
  /// error to be answered (then the connection closes).
  struct FrameJob {
    MessageType type = MessageType::kErrorResponse;
    std::string payload;
    WireError framing_error = WireError::kNone;
    /// A TemporalQuery payload decoded once, by ProcessBatch's
    /// supersession pre-pass; HandleTemporalQuery answers from it.
    std::optional<StatusOr<TemporalQueryRequest>> query;
  };

  /// Per-connection state. Ownership alternates: the IO thread touches
  /// buffer/socket while the connection is idle (busy == false), the
  /// dispatched worker while busy == true; the busy flip itself happens
  /// under mutex_.
  struct Connection {
    Socket socket;
    std::string buffer;
    bool busy = false;
    bool close_after_flush = false;
    /// Highest TemporalQuery cancel_generation seen (worker-owned).
    uint64_t max_generation = 0;
  };

  void IoLoop();
  /// Accepts every pending connection on the (non-blocking) listener.
  void AcceptPending();
  void EraseConnection(int fd);
  /// Handles connections handed back by workers: close the flagged ones,
  /// redispatch any with frames already buffered, re-poll the rest.
  void ProcessRearms();
  /// Reads whatever is available on an idle connection. Returns false
  /// when the connection died and must be erased.
  bool ReadAvailable(Connection* conn);
  /// Extracts complete frames from conn->buffer; dispatches a worker
  /// batch when at least one is ready. Caller: IO thread, conn idle.
  void MaybeDispatch(int fd, Connection* conn);
  /// Worker entry: execute the batch, write responses, re-arm.
  void ProcessBatch(int fd, Connection* conn, std::vector<FrameJob> jobs);
  /// Executes one request job into a ready-to-send response frame.
  std::string HandleJob(Connection* conn, const FrameJob& job);
  std::string HandleTemporalQuery(
      Connection* conn, const StatusOr<TemporalQueryRequest>& decoded);
  std::string HandleQbe(const std::string& payload);
  std::string HandleMarkPositive(const std::string& payload);
  std::string HandleTrain();
  std::string HandleMetrics();
  std::string HandleHealth();
  std::string HandleDumpSlowQueries();
  std::string HandleReloadShardMap(const std::string& payload);
  /// Builds a typed error frame and bumps hmmm_server_errors_total{code}.
  std::string ErrorFrame(WireError code, const std::string& message);
  std::string StatusErrorFrame(const Status& status);

  /// Writes one byte into the self-wake pipe (interrupts poll()).
  void Wake();

  /// Set by the VideoDatabase convenience constructor; service_ points
  /// at it then.
  std::unique_ptr<VideoDatabaseService> owned_service_;
  QueryService* service_;
  QueryServerOptions options_;
  uint16_t port_ = 0;

  Socket listener_;
  Socket wake_read_;
  Socket wake_write_;
  std::thread io_thread_;
  std::unique_ptr<ThreadPool> workers_;

  std::atomic<bool> running_{false};
  CancellationToken shutdown_token_;
  /// Serializes Shutdown() against concurrent callers (including the
  /// destructor racing a signal handler's explicit call).
  std::mutex shutdown_mutex_;

  /// Set by Shutdown (cleared by Start): read lock-free on every request.
  std::atomic<bool> draining_{false};

  /// Guards connections_ membership, the busy flips, the re-arm queue
  /// and the drain accounting below.
  std::mutex mutex_;
  std::condition_variable drained_;
  std::unordered_map<int, std::unique_ptr<Connection>> connections_;
  std::deque<int> rearm_queue_;
  int busy_connections_ = 0;
  bool stop_io_ = false;

  // Metric handles into db_->metrics_registry() (stable addresses).
  Counter* connections_total_ = nullptr;
  Gauge* connections_open_ = nullptr;
  Counter* corrupt_frames_total_ = nullptr;
  Counter* bytes_read_total_ = nullptr;
  Counter* bytes_written_total_ = nullptr;
  Histogram* request_latency_ms_ = nullptr;
  /// hmmm_server_requests_total{type=...}, indexed by request tag (1-8);
  /// pre-resolved so the per-request path never takes the registry lock.
  std::array<Counter*, 9> requests_total_by_type_{};
};

}  // namespace hmmm

#endif  // HMMM_SERVER_QUERY_SERVER_H_
