#include "client/query_client.h"

#include <errno.h>
#include <poll.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <utility>

#include "common/cancellation.h"
#include "common/strings.h"

namespace hmmm {

namespace {

/// The socket layer reports a clean EOF as kNotFound ("connection
/// closed"), which is meaningful for a server reading an idle
/// connection — but from a client mid-round-trip it is a transport
/// failure, and it must not collide with a typed kNotFound error the
/// server might legitimately answer (e.g. an unknown event name). The
/// shard coordinator relies on this separation to tell "request is at
/// fault" from "peer is unavailable".
Status AsTransportError(Status status) {
  if (status.code() == StatusCode::kNotFound) {
    return Status::IOError(status.message());
  }
  return status;
}

}  // namespace

std::chrono::milliseconds NextDecorrelatedBackoff(
    std::chrono::milliseconds base, std::chrono::milliseconds cap,
    std::chrono::milliseconds prev, Rng& rng) {
  const int64_t lo = std::max<int64_t>(0, base.count());
  const int64_t hi = std::max<int64_t>(lo, 3 * prev.count());
  const uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  const auto picked =
      std::chrono::milliseconds(lo + static_cast<int64_t>(rng.NextUint64(span)));
  return std::min(cap, picked);
}

uint64_t DeriveRetryJitterSeed(uint64_t configured) {
  if (configured != 0) return configured;
  // Golden-ratio stride: consecutive clients land on well-separated
  // SplitMix64 seeds (Rng decorrelates nearby seeds anyway; this keeps
  // them distinct even under concurrent construction).
  static std::atomic<uint64_t> counter{1};
  return counter.fetch_add(0x9E3779B97F4A7C15ull, std::memory_order_relaxed);
}

bool QueryClient::IdleConnectionHealthy() const {
  if (!socket_.valid()) return true;
  pollfd entry{socket_.fd(), POLLIN, 0};
  const int ready = ::poll(&entry, 1, 0);
  if (ready == 0) return true;           // silent, as an idle peer should be
  if (ready < 0) return errno == EINTR;  // poll itself failed: assume dead
  // Readable (or POLLERR/POLLHUP) with nothing in flight: the server
  // hung up or desynced.
  return false;
}

Status QueryClient::Connect() {
  if (socket_.valid()) return Status::OK();
  HMMM_ASSIGN_OR_RETURN(
      socket_, TcpConnect(options_.host, options_.port,
                          options_.connect_timeout));
  return Status::OK();
}

StatusOr<std::string> QueryClient::Attempt(const std::string& frame,
                                           MessageType expected_response,
                                           bool idempotent, bool* retriable) {
  *retriable = false;
  if (!socket_.valid()) {
    const Status connected = Connect();
    if (!connected.ok()) {
      // Nothing was sent, so a connect failure is always safe to retry.
      *retriable = true;
      return connected;
    }
  }
  const auto deadline = DeadlineAfter(options_.io_timeout);
  const Status written = WriteAll(socket_.fd(), frame, deadline);
  if (!written.ok()) {
    Disconnect();
    *retriable = idempotent;
    return written;
  }
  char header_bytes[kFrameHeaderBytes];
  Status read =
      ReadExact(socket_.fd(), header_bytes, kFrameHeaderBytes, deadline);
  if (!read.ok()) {
    Disconnect();
    *retriable = idempotent;
    return AsTransportError(std::move(read));
  }
  FrameHeader header;
  WireError wire_error = DecodeFrameHeader(
      std::string_view(header_bytes, kFrameHeaderBytes),
      options_.max_frame_bytes, &header);
  if (wire_error != WireError::kNone) {
    // A response we cannot frame means the stream is desynced: drop the
    // connection, surface the reason, never retry blindly.
    Disconnect();
    return StatusFromWireError(wire_error, "response frame rejected");
  }
  std::string payload(header.payload_bytes, '\0');
  if (header.payload_bytes > 0) {
    read = ReadExact(socket_.fd(), payload.data(), payload.size(), deadline);
    if (!read.ok()) {
      Disconnect();
      *retriable = idempotent;
      return AsTransportError(std::move(read));
    }
  }
  wire_error = VerifyFramePayload(header, payload);
  if (wire_error != WireError::kNone) {
    Disconnect();
    return StatusFromWireError(wire_error, "response payload corrupt");
  }
  if (header.type == MessageType::kErrorResponse) {
    StatusOr<ErrorResponse> error = DecodeErrorResponse(payload);
    if (!error.ok()) {
      Disconnect();
      return error.status();
    }
    // A peer of another wire version closes the connection after its
    // kUnsupportedVersion answer; reconnect lazily next call.
    if (error->code == WireError::kUnsupportedVersion) Disconnect();
    // The server declares retriability: a retriable typed error means
    // the request was refused before executing, so even non-idempotent
    // requests may go again.
    *retriable = error->retriable;
    return StatusFromWireError(error->code, error->message);
  }
  if (header.type != expected_response) {
    Disconnect();
    return Status::Internal(
        StrFormat("unexpected response type %u (wanted %u)",
                  static_cast<unsigned>(header.type),
                  static_cast<unsigned>(expected_response)));
  }
  return payload;
}

StatusOr<std::string> QueryClient::RoundTrip(MessageType request_type,
                                             std::string_view payload,
                                             MessageType expected_response,
                                             bool idempotent) {
  const std::string frame = EncodeFrame(request_type, payload);
  std::chrono::milliseconds backoff = options_.retry_backoff;
  for (int attempt = 0;; ++attempt) {
    bool retriable = false;
    StatusOr<std::string> result =
        Attempt(frame, expected_response, idempotent, &retriable);
    if (result.ok() || !retriable || attempt >= options_.max_retries) {
      return result;
    }
    ++retries_performed_;
    if (backoff.count() > 0) std::this_thread::sleep_for(backoff);
    backoff = NextDecorrelatedBackoff(options_.retry_backoff,
                                      options_.retry_backoff_cap, backoff,
                                      rng_);
  }
}

StatusOr<TemporalQueryResponse> QueryClient::TemporalQuery(
    const TemporalQueryRequest& request) {
  HMMM_ASSIGN_OR_RETURN(
      const std::string payload,
      RoundTrip(MessageType::kTemporalQueryRequest,
                EncodeTemporalQueryRequest(request),
                MessageType::kTemporalQueryResponse, /*idempotent=*/true));
  return DecodeTemporalQueryResponse(payload);
}

StatusOr<QbeResponse> QueryClient::QueryByExample(const QbeRequest& request) {
  HMMM_ASSIGN_OR_RETURN(
      const std::string payload,
      RoundTrip(MessageType::kQbeRequest, EncodeQbeRequest(request),
                MessageType::kQbeResponse, /*idempotent=*/true));
  return DecodeQbeResponse(payload);
}

StatusOr<MarkPositiveResponse> QueryClient::MarkPositive(
    const MarkPositiveRequest& request) {
  HMMM_ASSIGN_OR_RETURN(
      const std::string payload,
      RoundTrip(MessageType::kMarkPositiveRequest,
                EncodeMarkPositiveRequest(request),
                MessageType::kMarkPositiveResponse, /*idempotent=*/false));
  return DecodeMarkPositiveResponse(payload);
}

StatusOr<TrainResponse> QueryClient::Train() {
  HMMM_ASSIGN_OR_RETURN(
      const std::string payload,
      RoundTrip(MessageType::kTrainRequest, "", MessageType::kTrainResponse,
                /*idempotent=*/false));
  return DecodeTrainResponse(payload);
}

StatusOr<MetricsResponse> QueryClient::Metrics() {
  HMMM_ASSIGN_OR_RETURN(
      const std::string payload,
      RoundTrip(MessageType::kMetricsRequest, "",
                MessageType::kMetricsResponse, /*idempotent=*/true));
  return DecodeMetricsResponse(payload);
}

StatusOr<HealthResponse> QueryClient::Health() {
  HMMM_ASSIGN_OR_RETURN(
      const std::string payload,
      RoundTrip(MessageType::kHealthRequest, "",
                MessageType::kHealthResponse, /*idempotent=*/true));
  return DecodeHealthResponse(payload);
}

StatusOr<DumpSlowQueriesResponse> QueryClient::DumpSlowQueries() {
  HMMM_ASSIGN_OR_RETURN(
      const std::string payload,
      RoundTrip(MessageType::kDumpSlowQueriesRequest, "",
                MessageType::kDumpSlowQueriesResponse, /*idempotent=*/true));
  return DecodeDumpSlowQueriesResponse(payload);
}

StatusOr<ReloadShardMapResponse> QueryClient::ReloadShardMap(
    const ReloadShardMapRequest& request) {
  HMMM_ASSIGN_OR_RETURN(
      const std::string payload,
      RoundTrip(MessageType::kReloadShardMapRequest,
                EncodeReloadShardMapRequest(request),
                MessageType::kReloadShardMapResponse, /*idempotent=*/false));
  return DecodeReloadShardMapResponse(payload);
}

}  // namespace hmmm
