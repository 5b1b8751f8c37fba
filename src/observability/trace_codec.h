#ifndef HMMM_OBSERVABILITY_TRACE_CODEC_H_
#define HMMM_OBSERVABILITY_TRACE_CODEC_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "observability/query_trace.h"

namespace hmmm {

/// Cross-process trace identity carried in wire query payloads. A zero
/// trace id means "unset"; the first traced hop mints one and every
/// downstream span and error log line carries it.
struct TraceContext {
  uint64_t trace_id_hi = 0;
  uint64_t trace_id_lo = 0;
  /// Span id of the caller's span this request runs under (0 = none).
  /// Informational: cross-process assembly grafts by response blob, not by
  /// this id, but servers tag their root span with it for log correlation.
  uint64_t parent_span_id = 0;

  bool has_trace_id() const { return trace_id_hi != 0 || trace_id_lo != 0; }
};

/// Mints a process-unique 128-bit trace id (random per-process hi word,
/// monotonic counter in lo). Never returns the all-zero id.
TraceContext MintTraceContext();

/// 32-hex-digit rendering of a 128-bit trace id, for logs and JSON.
std::string TraceIdHex(uint64_t hi, uint64_t lo);

/// Serializes a span forest into the compact binary form carried in wire
/// responses (`trace_blob`). Round-trips through DeserializeSpans.
std::string SerializeSpans(const std::vector<TraceSpan>& spans);

/// Decodes a blob written by SerializeSpans. Malformed or truncated input
/// returns kDataLoss; element counts are bounded so a hostile blob cannot
/// force a huge allocation.
StatusOr<std::vector<TraceSpan>> DeserializeSpans(std::string_view blob);

/// Grafts `sub` (a remote process's span forest, offsets relative to its
/// own root) into `dest` under span `parent_id`: ids are remapped to fresh
/// values, former roots become children of `parent_id`, and every start
/// offset is shifted by `base_offset_ms` (typically the enclosing fan-out
/// span's own start offset) — clock-sync-free assembly.
void GraftSpans(std::vector<TraceSpan>* dest, int parent_id,
                std::vector<TraceSpan> sub, double base_offset_ms);

/// Deterministic head sampler: accumulates `rate` per Decide() call and
/// fires on every whole-number crossing, so exactly round(rate * n) of n
/// calls sample. rate <= 0 never samples, rate >= 1 always does — exact
/// boundaries, no RNG. Thread-safe.
class TraceSampler {
 public:
  explicit TraceSampler(double rate);

  bool Decide();
  double rate() const { return rate_; }

 private:
  const double rate_;
  std::mutex mutex_;
  double accumulator_ = 0.0;
};

}  // namespace hmmm

#endif  // HMMM_OBSERVABILITY_TRACE_CODEC_H_
