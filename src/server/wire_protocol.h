#ifndef HMMM_SERVER_WIRE_PROTOCOL_H_
#define HMMM_SERVER_WIRE_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "retrieval/qbe.h"
#include "retrieval/result.h"

namespace hmmm {

// The HMMM query wire protocol: length-prefixed binary frames over TCP.
// Every message — request, response or typed error — is one frame:
//
//   offset  size  field
//   0       4     magic 0x484D4D51 ("QMMH" in memory, little-endian)
//   4       2     protocol version (kWireProtocolVersion)
//   6       2     message type (MessageType)
//   8       4     payload size in bytes
//   12      4     CRC-32C of the payload
//   16      ...   payload (BinaryWriter encoding, little-endian)
//
// Versioning rules: every binary (server, coordinator, client) speaks
// exactly one schema, kWireProtocolVersion. The 16-byte header layout is
// frozen, so a peer can always frame-align a frame stamped with any other
// version and answer it with a typed kUnsupportedVersion error (then
// close the connection). Any payload change bumps the version, and a bump
// moves every binary together.
//
// Version history:
//   v1  initial protocol.
//   v2  distributed tracing: trace context on TemporalQuery/Qbe
//       requests, serialized sub-trace blobs on their responses, a
//       registry snapshot on MetricsResponse, DumpSlowQueries.
//   v3  replication control plane: ReloadShardMap, per-shard broadcast
//       accounting on TrainResponse.
//   v4  one schema: TemporalQueryResponse drops the JSONL trace (the
//       blob is the only trace; render it with RenderSpansJsonl), the
//       wire RetrievalStats appends heap_pops, and MetricsResponse
//       carries a binary registry snapshot (MetricsRegistry::
//       EncodeSnapshot) instead of JSON.

inline constexpr uint32_t kWireMagic = 0x484D4D51u;
inline constexpr uint16_t kWireProtocolVersion = 4;
inline constexpr size_t kFrameHeaderBytes = 16;
/// Default per-connection frame cap (requests and responses). A header
/// announcing more than the cap is treated as corruption.
inline constexpr uint32_t kDefaultMaxFrameBytes = 8u << 20;

/// Frame tags. Requests are < 128; each success response is request+128;
/// kError answers any request.
enum class MessageType : uint16_t {
  kHealthRequest = 1,
  kTemporalQueryRequest = 2,
  kQbeRequest = 3,
  kMarkPositiveRequest = 4,
  kTrainRequest = 5,
  kMetricsRequest = 6,
  kDumpSlowQueriesRequest = 7,
  kReloadShardMapRequest = 8,
  kHealthResponse = 129,
  kTemporalQueryResponse = 130,
  kQbeResponse = 131,
  kMarkPositiveResponse = 132,
  kTrainResponse = 133,
  kMetricsResponse = 134,
  kDumpSlowQueriesResponse = 135,
  kReloadShardMapResponse = 136,
  kErrorResponse = 255,
};

/// True for the request tags.
bool IsRequestType(MessageType type);
/// Stable lowercase label for metrics/logging ("temporal_query", ...).
const char* MessageTypeLabel(MessageType type);

/// Error codes carried by kErrorResponse frames. 1..10 mirror StatusCode
/// one-to-one so library errors round-trip; 100+ are wire-layer errors.
enum class WireError : uint16_t {
  kNone = 0,
  kInvalidArgument = 1,
  kNotFound = 2,
  kOutOfRange = 3,
  kFailedPrecondition = 4,
  kAlreadyExists = 5,
  kDataLoss = 6,
  kInternal = 7,
  kUnimplemented = 8,
  kIOError = 9,
  kResourceExhausted = 10,
  kBadMagic = 100,
  kBadCrc = 101,
  kFrameTooLarge = 102,
  kUnknownMessageType = 103,
  kUnsupportedVersion = 104,
  kMalformedPayload = 105,
  kSuperseded = 106,     // a newer cancel_generation arrived first
  kShuttingDown = 107,   // server draining; retry elsewhere/later
};

/// Mapping between library StatusCodes and wire error codes (and back).
/// Unknown wire codes map to kInternal so a newer server cannot crash an
/// older client.
WireError WireErrorFromStatus(const Status& status);
Status StatusFromWireError(WireError code, const std::string& message);

/// Errors a client may safely retry: the server did not (and will not)
/// execute the request.
bool WireErrorRetriable(WireError code);

/// Stable lowercase name for metrics/logging ("bad_crc", ...).
const char* WireErrorName(WireError code);

struct FrameHeader {
  uint16_t version = 0;
  MessageType type = MessageType::kErrorResponse;
  uint32_t payload_bytes = 0;
  uint32_t crc32c = 0;
};

/// One ready-to-send frame: header (stamped kWireProtocolVersion) +
/// payload.
std::string EncodeFrame(MessageType type, std::string_view payload);

/// Validates the fixed 16-byte prefix (magic, version, length bound).
/// Returns kNone and fills `out` on success. `bytes` must hold at least
/// kFrameHeaderBytes. Any version other than kWireProtocolVersion returns
/// kUnsupportedVersion after filling `out`, so the caller can still
/// answer typed.
WireError DecodeFrameHeader(std::string_view bytes, uint32_t max_frame_bytes,
                            FrameHeader* out);

/// CRC check of a received payload against its header.
WireError VerifyFramePayload(const FrameHeader& header,
                             std::string_view payload);

// -- Request payloads -----------------------------------------------------

struct TemporalQueryRequest {
  std::string text;
  /// Wall-clock budget the server maps onto TraversalOptions::deadline;
  /// -1 = no deadline. A fired budget returns a degraded (anytime)
  /// ranking, not an error.
  int64_t budget_ms = -1;
  /// Client-supplied cancellation generation, monotone per connection. A
  /// pipelined request whose generation is below the connection's newest
  /// seen generation is answered with kSuperseded instead of executing —
  /// the client replaced it.
  uint64_t cancel_generation = 0;
  bool want_stats = false;
  /// Ask the server to record and return a QueryTrace. Doubles as the
  /// trace-context sampling flag: a sampled hop propagates it downstream
  /// together with the trace id.
  bool want_trace = false;
  /// Trace context (see trace_codec.h). Zero trace id = unset; a traced
  /// server mints one.
  uint64_t trace_id_hi = 0;
  uint64_t trace_id_lo = 0;
  uint64_t parent_span_id = 0;
};

struct QbeRequest {
  std::vector<double> features;
  int32_t max_results = 20;
  bool want_trace = false;
  uint64_t trace_id_hi = 0;
  uint64_t trace_id_lo = 0;
  uint64_t parent_span_id = 0;
};

struct MarkPositiveRequest {
  RetrievedPattern pattern;
};

/// ReloadShardMap: hot-swaps a coordinator's shard map. The blob
/// is a complete serialized SMMH map (SerializeShardMap output); the
/// receiver validates it and rejects the swap unless the new epoch is
/// strictly greater than the epoch it is serving.
struct ReloadShardMapRequest {
  std::string map_blob;
};

// Train / Metrics / Health requests have empty payloads.

// -- Response payloads ----------------------------------------------------

struct TemporalQueryResponse {
  std::vector<RetrievedPattern> results;
  bool degraded = false;
  uint64_t videos_skipped = 0;
  bool has_stats = false;
  /// Every RetrievalStats counter except grid_cells_skipped (always
  /// states_visited - heap_pops), which stays 0 on the wire.
  RetrievalStats stats;
  /// SerializeSpans() of the serving trace — the sub-trace a coordinator
  /// grafts into its cross-process tree; RenderSpansJsonl turns it into
  /// JSONL. Empty when the request did not ask for a trace.
  std::string trace_blob;
};

struct QbeResponse {
  std::vector<QbeResult> results;
  std::string trace_blob;
};

struct MarkPositiveResponse {
  uint64_t training_rounds = 0;
};

struct TrainResponse {
  bool trained = false;
  uint64_t training_rounds = 0;
  /// Per-shard broadcast accounting from a coordinator fan-out.
  /// Standalone servers report 1/0 (a failed standalone Train is an
  /// error frame).
  uint32_t shards_attempted = 1;
  uint32_t shards_failed = 0;
};

struct MetricsResponse {
  std::string prometheus_text;
  /// MetricsRegistry::EncodeSnapshot() of the same registry, so a
  /// coordinator can merge shard metrics instead of scraping text.
  std::string snapshot;
};

/// DumpSlowQueries: request payload is empty; the response carries
/// the server's SlowQueryLog::DumpJsonl(), oldest entry first.
struct DumpSlowQueriesResponse {
  std::string jsonl;
};

/// ReloadShardMap success answer: the epoch now being served.
struct ReloadShardMapResponse {
  uint64_t epoch = 0;
  uint32_t num_shards = 0;
};

struct HealthResponse {
  uint64_t videos = 0;
  uint64_t shots = 0;
  uint64_t annotated_shots = 0;
  uint64_t model_version = 0;
  bool draining = false;
};

struct ErrorResponse {
  WireError code = WireError::kInternal;
  bool retriable = false;
  std::string message;
};

// -- Payload codecs -------------------------------------------------------
//
// Encode* returns the payload bytes (frame them with EncodeFrame);
// Decode* returns kDataLoss/kInvalidArgument on truncated or
// out-of-range input — the server answers those with kMalformedPayload.

std::string EncodeTemporalQueryRequest(const TemporalQueryRequest& request);
StatusOr<TemporalQueryRequest> DecodeTemporalQueryRequest(
    std::string_view payload);

std::string EncodeQbeRequest(const QbeRequest& request);
StatusOr<QbeRequest> DecodeQbeRequest(std::string_view payload);

std::string EncodeMarkPositiveRequest(const MarkPositiveRequest& request);
StatusOr<MarkPositiveRequest> DecodeMarkPositiveRequest(
    std::string_view payload);

std::string EncodeReloadShardMapRequest(const ReloadShardMapRequest& request);
StatusOr<ReloadShardMapRequest> DecodeReloadShardMapRequest(
    std::string_view payload);

std::string EncodeTemporalQueryResponse(const TemporalQueryResponse& response);
StatusOr<TemporalQueryResponse> DecodeTemporalQueryResponse(
    std::string_view payload);

std::string EncodeQbeResponse(const QbeResponse& response);
StatusOr<QbeResponse> DecodeQbeResponse(std::string_view payload);

std::string EncodeMarkPositiveResponse(const MarkPositiveResponse& response);
StatusOr<MarkPositiveResponse> DecodeMarkPositiveResponse(
    std::string_view payload);

std::string EncodeTrainResponse(const TrainResponse& response);
StatusOr<TrainResponse> DecodeTrainResponse(std::string_view payload);

std::string EncodeMetricsResponse(const MetricsResponse& response);
StatusOr<MetricsResponse> DecodeMetricsResponse(std::string_view payload);

std::string EncodeDumpSlowQueriesResponse(
    const DumpSlowQueriesResponse& response);
StatusOr<DumpSlowQueriesResponse> DecodeDumpSlowQueriesResponse(
    std::string_view payload);

std::string EncodeReloadShardMapResponse(
    const ReloadShardMapResponse& response);
StatusOr<ReloadShardMapResponse> DecodeReloadShardMapResponse(
    std::string_view payload);

std::string EncodeHealthResponse(const HealthResponse& response);
StatusOr<HealthResponse> DecodeHealthResponse(std::string_view payload);

std::string EncodeErrorResponse(const ErrorResponse& response);
StatusOr<ErrorResponse> DecodeErrorResponse(std::string_view payload);

}  // namespace hmmm

#endif  // HMMM_SERVER_WIRE_PROTOCOL_H_
