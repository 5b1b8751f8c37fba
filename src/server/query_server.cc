#include "server/query_server.h"

#include <errno.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <utility>

#include "common/fault_injector.h"
#include "common/logging.h"
#include "common/strings.h"

namespace hmmm {
namespace {

double ElapsedMs(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Human message for a framing error answered just before closing.
const char* FramingErrorMessage(WireError code) {
  switch (code) {
    case WireError::kBadMagic:
      return "frame does not start with the protocol magic";
    case WireError::kBadCrc:
      return "payload checksum mismatch";
    case WireError::kFrameTooLarge:
      return "frame exceeds the server's frame size limit";
    case WireError::kUnsupportedVersion:
      return "unsupported protocol version";
    case WireError::kUnknownMessageType:
      return "unknown request tag";
    default:
      return "malformed frame";
  }
}

/// True when `buffer` holds either one complete frame or a framing error
/// that MaybeDispatch would turn into an answerable job.
bool HasCompleteFrame(const std::string& buffer, uint32_t max_frame_bytes) {
  if (buffer.size() < kFrameHeaderBytes) return false;
  FrameHeader header;
  const WireError error = DecodeFrameHeader(buffer, max_frame_bytes, &header);
  if (error == WireError::kBadMagic || error == WireError::kFrameTooLarge ||
      error == WireError::kUnsupportedVersion) {
    return true;
  }
  return buffer.size() >= kFrameHeaderBytes + header.payload_bytes;
}

}  // namespace

QueryServer::QueryServer(VideoDatabase* db, QueryServerOptions options)
    : owned_service_(std::make_unique<VideoDatabaseService>(db)),
      service_(owned_service_.get()),
      options_(std::move(options)) {
  if (options_.num_workers <= 0) {
    options_.num_workers = ThreadPool::ResolveThreadCount(0);
  }
}

QueryServer::QueryServer(QueryService* service, QueryServerOptions options)
    : service_(service), options_(std::move(options)) {
  HMMM_CHECK(service_ != nullptr);
  if (options_.num_workers <= 0) {
    options_.num_workers = ThreadPool::ResolveThreadCount(0);
  }
}

QueryServer::~QueryServer() { Shutdown(); }

Status QueryServer::Start() {
  if (running_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("server already started");
  }
  HMMM_ASSIGN_OR_RETURN(listener_,
                        TcpListen(options_.host, options_.port));
  HMMM_ASSIGN_OR_RETURN(port_, LocalPort(listener_));
  // Non-blocking listener: a peer that resets between poll() and
  // accept() must not wedge the IO thread.
  HMMM_RETURN_IF_ERROR(SetNonBlocking(listener_.fd(), true));
  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) {
    return Status::IOError("pipe: failed to create self-wake pipe");
  }
  wake_read_ = Socket(pipe_fds[0]);
  wake_write_ = Socket(pipe_fds[1]);
  HMMM_RETURN_IF_ERROR(SetNonBlocking(wake_read_.fd(), true));
  HMMM_RETURN_IF_ERROR(SetNonBlocking(wake_write_.fd(), true));

  MetricsRegistry& registry = service_->metrics_registry();
  connections_total_ = registry.GetCounter("hmmm_server_connections_total",
                                           "TCP connections accepted");
  connections_open_ =
      registry.GetGauge("hmmm_server_connections_open",
                        "TCP connections currently tracked");
  corrupt_frames_total_ = registry.GetCounter(
      "hmmm_server_corrupt_frames_total",
      "frames rejected for bad magic, bad CRC or an oversized length");
  bytes_read_total_ = registry.GetCounter("hmmm_server_bytes_read_total",
                                          "request bytes read from clients");
  bytes_written_total_ = registry.GetCounter(
      "hmmm_server_bytes_written_total", "response bytes written to clients");
  request_latency_ms_ = registry.GetHistogram(
      "hmmm_server_request_latency_ms", DefaultLatencyBucketsMs(),
      "per-request wall time from dispatch to response written");
  for (uint16_t tag = 1; tag <= 8; ++tag) {
    const auto type = static_cast<MessageType>(tag);
    requests_total_by_type_[tag] = registry.GetCounter(
        "hmmm_server_requests_total", {{"type", MessageTypeLabel(type)}},
        "requests received, by message type");
  }

  workers_ = std::make_unique<ThreadPool>(options_.num_workers);
  draining_.store(false);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_io_ = false;
  }
  running_.store(true, std::memory_order_release);
  io_thread_ = std::thread([this] { IoLoop(); });
  HMMM_LOG(Info) << "query server listening on " << options_.host << ":"
                 << port_ << " (" << options_.num_workers << " workers)";
  return Status::OK();
}

void QueryServer::Wake() {
  const char byte = 'w';
  // A full pipe already guarantees a pending wake-up; EAGAIN is fine.
  [[maybe_unused]] const ssize_t n =
      ::write(wake_write_.fd(), &byte, 1);
}

void QueryServer::Shutdown() {
  // One shutdown at a time; later callers wait for the first to finish
  // (the mutex) and then see running_ == false.
  std::lock_guard<std::mutex> shutdown_lock(shutdown_mutex_);
  if (!running_.load(std::memory_order_acquire)) return;
  draining_.store(true);
  Wake();  // IO thread closes the listener and stops accepting
  {
    std::unique_lock<std::mutex> lock(mutex_);
    const bool drained =
        drained_.wait_for(lock, options_.drain_timeout,
                          [this] { return busy_connections_ == 0; });
    if (!drained) {
      // Stragglers get cancelled cooperatively: their queries degrade to
      // an anytime prefix and the workers still write well-formed
      // responses before handing their connections back.
      shutdown_token_.Cancel();
    }
    drained_.wait(lock, [this] { return busy_connections_ == 0; });
    stop_io_ = true;
  }
  Wake();
  io_thread_.join();
  workers_.reset();  // joins idle workers
  {
    // Connections that were re-dispatched in the IO loop's final
    // iteration outlive the loop; with the workers joined nothing can
    // touch them anymore, so free them here.
    std::lock_guard<std::mutex> lock(mutex_);
    connections_.clear();
    rearm_queue_.clear();
    if (connections_open_ != nullptr) connections_open_->Set(0);
  }
  wake_read_.Close();
  wake_write_.Close();
  running_.store(false, std::memory_order_release);
  HMMM_LOG(Info) << "query server on port " << port_ << " shut down";
}

void QueryServer::IoLoop() {
  std::vector<pollfd> poll_set;
  std::vector<int> polled_fds;  // connection fds, parallel to the tail
  for (;;) {
    poll_set.clear();
    polled_fds.clear();
    bool include_listener = false;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (stop_io_) break;
      if (draining_ && listener_.valid()) listener_.Close();
      include_listener = listener_.valid();
      poll_set.push_back({wake_read_.fd(), POLLIN, 0});
      if (include_listener) poll_set.push_back({listener_.fd(), POLLIN, 0});
      for (const auto& [fd, conn] : connections_) {
        if (conn->busy) continue;
        poll_set.push_back({fd, POLLIN, 0});
        polled_fds.push_back(fd);
      }
    }
    const int ready =
        ::poll(poll_set.data(), static_cast<nfds_t>(poll_set.size()), -1);
    if (ready < 0) {
      if (errno == EINTR) continue;
      HMMM_LOG(Error) << "query server poll failed; stopping IO loop";
      break;
    }
    size_t index = 0;
    if (poll_set[index].revents & POLLIN) {
      char drain[64];
      while (::read(wake_read_.fd(), drain, sizeof(drain)) > 0) {
      }
    }
    ++index;
    if (include_listener) {
      if (poll_set[index].revents & POLLIN) AcceptPending();
      ++index;
    }
    for (size_t i = 0; i < polled_fds.size(); ++i) {
      const pollfd& entry = poll_set[index + i];
      if ((entry.revents & (POLLIN | POLLERR | POLLHUP)) == 0) continue;
      const int fd = polled_fds[i];
      Connection* conn = nullptr;
      {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = connections_.find(fd);
        if (it == connections_.end() || it->second->busy) continue;
        conn = it->second.get();
      }
      if (!ReadAvailable(conn)) {
        EraseConnection(fd);
        continue;
      }
      MaybeDispatch(fd, conn);
    }
    ProcessRearms();
  }
  std::lock_guard<std::mutex> lock(mutex_);
  // Shutdown can set stop_io_ before this thread ever observes
  // draining_ (nothing was busy, so the drain wait returned at once);
  // close the listener here too, or late connects would sit in the
  // kernel accept backlog forever instead of being refused.
  listener_.Close();
  // Only idle connections can be destroyed here: Shutdown's drain wait
  // can observe busy == 0 and set stop_io_ while this thread is mid
  // iteration dispatching one more buffered batch, so a busy connection
  // may still be in a worker's hands. Those are freed by Shutdown after
  // it joins the worker pool.
  for (auto it = connections_.begin(); it != connections_.end();) {
    it = it->second->busy ? std::next(it) : connections_.erase(it);
  }
  if (connections_open_ != nullptr) {
    connections_open_->Set(static_cast<double>(connections_.size()));
  }
}

void QueryServer::AcceptPending() {
  for (;;) {
    StatusOr<Socket> accepted = Accept(listener_);
    if (!accepted.ok()) break;  // EAGAIN (no more pending) or a dead peer
    connections_total_->Increment();
    if (!SetNonBlocking(accepted->fd(), true).ok()) continue;
    std::lock_guard<std::mutex> lock(mutex_);
    if (static_cast<int>(connections_.size()) >= options_.max_connections) {
      // Over the connection cap: the accepted socket closes on scope
      // exit, which the client observes as an immediate disconnect.
      continue;
    }
    auto conn = std::make_unique<Connection>();
    conn->socket = std::move(accepted).value();
    const int fd = conn->socket.fd();
    connections_.emplace(fd, std::move(conn));
    connections_open_->Set(static_cast<double>(connections_.size()));
  }
}

void QueryServer::EraseConnection(int fd) {
  std::lock_guard<std::mutex> lock(mutex_);
  connections_.erase(fd);
  connections_open_->Set(static_cast<double>(connections_.size()));
}

bool QueryServer::ReadAvailable(Connection* conn) {
  if (HMMM_FAULT_FIRED("server.read")) return false;
  // Backpressure bound: past two frames' worth of unprocessed bytes we
  // stop draining the kernel buffer and let TCP flow control slow the
  // peer down.
  const size_t read_cap =
      2 * (static_cast<size_t>(options_.max_frame_bytes) + kFrameHeaderBytes);
  char chunk[16384];
  for (;;) {
    if (conn->buffer.size() >= read_cap) return true;
    const ssize_t n = ::recv(conn->socket.fd(), chunk, sizeof(chunk), 0);
    if (n > 0) {
      conn->buffer.append(chunk, static_cast<size_t>(n));
      bytes_read_total_->Increment(static_cast<uint64_t>(n));
      continue;
    }
    if (n == 0) {
      // Peer finished sending. Frames already buffered in full still get
      // answered (pipelined requests then close); anything partial dies
      // with the connection.
      if (HasCompleteFrame(conn->buffer, options_.max_frame_bytes)) {
        conn->close_after_flush = true;
        return true;
      }
      return false;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
    return false;
  }
}

void QueryServer::MaybeDispatch(int fd, Connection* conn) {
  std::vector<FrameJob> jobs;
  while (conn->buffer.size() >= kFrameHeaderBytes) {
    FrameHeader header;
    const WireError header_error =
        DecodeFrameHeader(conn->buffer, options_.max_frame_bytes, &header);
    if (header_error == WireError::kBadMagic ||
        header_error == WireError::kFrameTooLarge ||
        header_error == WireError::kUnsupportedVersion) {
      // The stream cannot be trusted past this point (desynced, about to
      // overflow, or speaking another schema): answer a typed error, then
      // close.
      if (header_error != WireError::kUnsupportedVersion) {
        corrupt_frames_total_->Increment();
      }
      FrameJob job;
      job.framing_error = header_error;
      jobs.push_back(std::move(job));
      conn->buffer.clear();
      conn->close_after_flush = true;
      break;
    }
    const size_t frame_bytes = kFrameHeaderBytes + header.payload_bytes;
    if (conn->buffer.size() < frame_bytes) break;  // wait for the payload
    std::string payload =
        conn->buffer.substr(kFrameHeaderBytes, header.payload_bytes);
    conn->buffer.erase(0, frame_bytes);
    const WireError payload_error = VerifyFramePayload(header, payload);
    if (payload_error != WireError::kNone) {
      // Framing stayed intact (the length was right) but the bytes are
      // corrupt; close after answering — the peer's link is suspect.
      corrupt_frames_total_->Increment();
      FrameJob job;
      job.framing_error = payload_error;
      jobs.push_back(std::move(job));
      conn->buffer.clear();
      conn->close_after_flush = true;
      break;
    }
    FrameJob job;
    job.type = header.type;
    if (!IsRequestType(header.type)) {
      // Well-framed but not a request we know: typed error, connection
      // stays usable.
      job.framing_error = WireError::kUnknownMessageType;
    } else {
      job.payload = std::move(payload);
    }
    jobs.push_back(std::move(job));
  }
  if (jobs.empty()) return;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    conn->busy = true;
    ++busy_connections_;
  }
  // shared_ptr keeps the task copyable for std::function.
  auto batch = std::make_shared<std::vector<FrameJob>>(std::move(jobs));
  workers_->Submit([this, fd, conn, batch] {
    ProcessBatch(fd, conn, std::move(*batch));
  });
}

void QueryServer::ProcessRearms() {
  std::deque<int> pending;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    pending.swap(rearm_queue_);
  }
  for (const int fd : pending) {
    Connection* conn = nullptr;
    bool close_now = false;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      auto it = connections_.find(fd);
      if (it == connections_.end()) continue;
      if (it->second->busy) continue;  // redispatched already; next re-arm
                                       // will revisit
      conn = it->second.get();
      close_now = conn->close_after_flush;
    }
    if (close_now) {
      EraseConnection(fd);
      continue;
    }
    // Pipelined frames may already be buffered past the batch that was
    // just answered.
    MaybeDispatch(fd, conn);
  }
}

void QueryServer::ProcessBatch(int fd, Connection* conn,
                               std::vector<FrameJob> jobs) {
  // Supersession pre-pass: the newest cancel_generation in the batch
  // wins before any request executes, so a stale query queued behind a
  // fresh one is skipped even within one batch. Each decode (or its
  // error) is kept for the handler.
  for (FrameJob& job : jobs) {
    if (job.framing_error != WireError::kNone ||
        job.type != MessageType::kTemporalQueryRequest) {
      continue;
    }
    job.query = DecodeTemporalQueryRequest(job.payload);
    if (job.query->ok() &&
        (*job.query)->cancel_generation > conn->max_generation) {
      conn->max_generation = (*job.query)->cancel_generation;
    }
  }
  bool write_failed = false;
  for (const FrameJob& job : jobs) {
    const auto start = std::chrono::steady_clock::now();
    const std::string frame = HandleJob(conn, job);
    if (!write_failed) {
      if (HMMM_FAULT_FIRED("server.write")) {
        write_failed = true;
      } else {
        const Status written =
            WriteAll(conn->socket.fd(), frame,
                     DeadlineAfter(options_.write_timeout));
        if (written.ok()) {
          bytes_written_total_->Increment(frame.size());
        } else {
          write_failed = true;
        }
      }
    }
    request_latency_ms_->Observe(ElapsedMs(start));
  }
  if (write_failed) conn->close_after_flush = true;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    conn->busy = false;
    --busy_connections_;
    rearm_queue_.push_back(fd);
  }
  drained_.notify_all();
  Wake();
}

std::string QueryServer::HandleJob(Connection* conn, const FrameJob& job) {
  if (job.framing_error != WireError::kNone) {
    return ErrorFrame(job.framing_error,
                      FramingErrorMessage(job.framing_error));
  }
  const auto tag = static_cast<uint16_t>(job.type);
  if (tag < requests_total_by_type_.size() &&
      requests_total_by_type_[tag] != nullptr) {
    requests_total_by_type_[tag]->Increment();
  }
  switch (job.type) {
    // Health, Metrics and the slow-query dump keep answering during a
    // drain so probes (and a post-incident scrape) can watch the
    // shutdown progress.
    case MessageType::kHealthRequest:
      return HandleHealth();
    case MessageType::kMetricsRequest:
      return HandleMetrics();
    case MessageType::kDumpSlowQueriesRequest:
      return HandleDumpSlowQueries();
    default:
      break;
  }
  if (draining_.load()) {
    return ErrorFrame(WireError::kShuttingDown,
                      "server is draining; retry against another replica");
  }
  switch (job.type) {
    case MessageType::kTemporalQueryRequest:
      return HandleTemporalQuery(conn, *job.query);
    case MessageType::kQbeRequest:
      return HandleQbe(job.payload);
    case MessageType::kMarkPositiveRequest:
      return HandleMarkPositive(job.payload);
    case MessageType::kTrainRequest:
      return HandleTrain();
    case MessageType::kReloadShardMapRequest:
      return HandleReloadShardMap(job.payload);
    default:
      return ErrorFrame(WireError::kUnknownMessageType,
                        FramingErrorMessage(WireError::kUnknownMessageType));
  }
}

std::string QueryServer::HandleTemporalQuery(
    Connection* conn, const StatusOr<TemporalQueryRequest>& decoded) {
  if (!decoded.ok()) {
    return ErrorFrame(WireError::kMalformedPayload,
                      decoded.status().message());
  }
  const TemporalQueryRequest& request = *decoded;
  if (request.cancel_generation != 0 &&
      request.cancel_generation < conn->max_generation) {
    return ErrorFrame(WireError::kSuperseded,
                      "replaced by a newer request generation");
  }
  StatusOr<TemporalQueryResponse> response =
      service_->TemporalQuery(request, &shutdown_token_);
  if (!response.ok()) return StatusErrorFrame(response.status());
  return EncodeFrame(MessageType::kTemporalQueryResponse,
                     EncodeTemporalQueryResponse(*response));
}

std::string QueryServer::HandleQbe(const std::string& payload) {
  StatusOr<QbeRequest> decoded = DecodeQbeRequest(payload);
  if (!decoded.ok()) {
    return ErrorFrame(WireError::kMalformedPayload,
                      decoded.status().message());
  }
  StatusOr<QbeResponse> response = service_->QueryByExample(*decoded);
  if (!response.ok()) return StatusErrorFrame(response.status());
  return EncodeFrame(MessageType::kQbeResponse, EncodeQbeResponse(*response));
}

std::string QueryServer::HandleMarkPositive(const std::string& payload) {
  StatusOr<MarkPositiveRequest> decoded = DecodeMarkPositiveRequest(payload);
  if (!decoded.ok()) {
    return ErrorFrame(WireError::kMalformedPayload,
                      decoded.status().message());
  }
  StatusOr<MarkPositiveResponse> response =
      service_->MarkPositive(*decoded);
  if (!response.ok()) return StatusErrorFrame(response.status());
  return EncodeFrame(MessageType::kMarkPositiveResponse,
                     EncodeMarkPositiveResponse(*response));
}

std::string QueryServer::HandleTrain() {
  StatusOr<TrainResponse> response = service_->Train();
  if (!response.ok()) return StatusErrorFrame(response.status());
  return EncodeFrame(MessageType::kTrainResponse,
                     EncodeTrainResponse(*response));
}

std::string QueryServer::HandleMetrics() {
  StatusOr<MetricsResponse> response = service_->Metrics();
  if (!response.ok()) return StatusErrorFrame(response.status());
  return EncodeFrame(MessageType::kMetricsResponse,
                     EncodeMetricsResponse(*response));
}

std::string QueryServer::HandleHealth() {
  StatusOr<HealthResponse> health = service_->Health();
  if (!health.ok()) return StatusErrorFrame(health.status());
  HealthResponse response = std::move(health).value();
  response.draining = draining_.load();
  return EncodeFrame(MessageType::kHealthResponse,
                     EncodeHealthResponse(response));
}

std::string QueryServer::HandleDumpSlowQueries() {
  StatusOr<DumpSlowQueriesResponse> response = service_->DumpSlowQueries();
  if (!response.ok()) return StatusErrorFrame(response.status());
  return EncodeFrame(MessageType::kDumpSlowQueriesResponse,
                     EncodeDumpSlowQueriesResponse(*response));
}

std::string QueryServer::HandleReloadShardMap(const std::string& payload) {
  StatusOr<ReloadShardMapRequest> decoded =
      DecodeReloadShardMapRequest(payload);
  if (!decoded.ok()) {
    return ErrorFrame(WireError::kMalformedPayload,
                      decoded.status().message());
  }
  StatusOr<ReloadShardMapResponse> response =
      service_->ReloadShardMap(*decoded);
  if (!response.ok()) return StatusErrorFrame(response.status());
  return EncodeFrame(MessageType::kReloadShardMapResponse,
                     EncodeReloadShardMapResponse(*response));
}

std::string QueryServer::ErrorFrame(WireError code,
                                    const std::string& message) {
  service_->metrics_registry()
      .GetCounter("hmmm_server_errors_total",
                  {{"code", WireErrorName(code)}},
                  "typed error responses, by wire error code")
      ->Increment();
  ErrorResponse response;
  response.code = code;
  response.retriable = WireErrorRetriable(code);
  response.message = message;
  return EncodeFrame(MessageType::kErrorResponse,
                     EncodeErrorResponse(response));
}

std::string QueryServer::StatusErrorFrame(const Status& status) {
  return ErrorFrame(WireErrorFromStatus(status), status.message());
}

}  // namespace hmmm
