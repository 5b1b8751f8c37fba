#ifndef HMMM_OBSERVABILITY_QUERY_TRACE_H_
#define HMMM_OBSERVABILITY_QUERY_TRACE_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace hmmm {

/// One recorded phase of a query: a named span with wall time and
/// RetrievalStats-style counters, forming a tree through `parent`.
struct TraceSpan {
  std::string name;
  int id = -1;
  int parent = -1;  // -1 = root span
  /// Deterministic ordering key among siblings. Per-video spans pass
  /// their Step-7 visiting-order index; other spans keep their insertion
  /// sequence.
  int64_t sort_key = 0;
  /// Begin time relative to the trace's first span, in milliseconds of the
  /// local process's monotonic clock. Cross-process trace assembly shifts
  /// these offsets when grafting a remote sub-trace, so no clock
  /// synchronization between hosts is ever needed.
  double start_offset_ms = 0.0;
  double elapsed_ms = 0.0;
  bool finished = false;
  /// Named counters, unique by name within a span (see AddCounter).
  std::vector<std::pair<std::string, uint64_t>> counters;
  /// Free-form string tags (shard id, endpoint, trace id, ...), unique by
  /// name within a span; a repeated AddAttribute overwrites.
  std::vector<std::pair<std::string, std::string>> attributes;
};

/// Records the spans of one traversal. Attach an instance through
/// TraversalOptions::trace to instrument a query end-to-end. Thread-safe
/// (one short mutex hold per begin/end). Recording never changes what the
/// traversal computes, so the byte-identical ranking guarantee is
/// unaffected.
///
/// The trace accumulates across retrievals; call Clear() between queries
/// when reusing one instance.
class QueryTrace {
 public:
  QueryTrace() = default;
  QueryTrace(const QueryTrace&) = delete;
  QueryTrace& operator=(const QueryTrace&) = delete;

  /// Opens a span and returns its id. `sort_key` < 0 means "use the
  /// insertion sequence" (fine for serially opened spans).
  int BeginSpan(std::string name, int parent = -1, int64_t sort_key = -1);

  /// Closes the span, fixing its wall time.
  void EndSpan(int id);

  /// Attaches one named counter to an open or closed span.
  ///
  /// Contract: counter names are unique within a span and values are
  /// additive — calling AddCounter twice with the same name accumulates
  /// into the one existing entry. (Before this was specified, duplicates
  /// were appended verbatim and JSONL consumers saw whichever value their
  /// parser kept, typically the last write.)
  void AddCounter(int id, std::string name, uint64_t value);

  /// Attaches one string attribute to an open or closed span. Attribute
  /// names are unique within a span; a repeated name overwrites.
  void AddAttribute(int id, std::string name, std::string value);

  /// Reparents every root span (parent == -1) other than `new_parent`
  /// itself under `new_parent`. Used by the serving layer to adopt the
  /// traversal's phase spans under a per-request server span that was
  /// opened before the traversal ran.
  void ReparentRoots(int new_parent);

  void Clear();

  /// Snapshot of all spans, siblings ordered by (sort_key, id).
  std::vector<TraceSpan> Spans() const;

  /// Indented tree rendering:
  ///   retrieve 1.234ms
  ///     step2_video_order 0.1ms ...
  std::string RenderTree() const;

  /// One JSON object per line per span (JSONL), pre-order, with name,
  /// depth, parent, start_ms, elapsed_ms, counters and attributes.
  std::string RenderJsonl() const;

 private:
  struct Record {
    TraceSpan span;
    std::chrono::steady_clock::time_point start;
  };

  /// Pre-order listing of the span tree with depths, siblings sorted by
  /// (sort_key, id). Caller holds mutex_.
  std::vector<std::pair<const TraceSpan*, int>> PreOrderLocked() const;

  mutable std::mutex mutex_;
  std::vector<Record> records_;
  /// Monotonic time of the first BeginSpan since construction / Clear();
  /// all start_offset_ms values are relative to it.
  std::chrono::steady_clock::time_point epoch_;
  bool has_epoch_ = false;
};

/// Pre-order rendering of a free-standing span forest (e.g. one assembled
/// from several processes, where spans no longer live in a QueryTrace).
/// Parent references use TraceSpan::id; spans whose parent id is absent
/// from `spans` are treated as roots. Siblings order by (sort_key, id).
std::string RenderSpanTree(const std::vector<TraceSpan>& spans);
std::string RenderSpansJsonl(const std::vector<TraceSpan>& spans);

/// RAII span that tolerates a null trace (all operations no-op), so call
/// sites read the same with tracing on and off.
class ScopedSpan {
 public:
  ScopedSpan(QueryTrace* trace, std::string name, int parent = -1,
             int64_t sort_key = -1)
      : trace_(trace),
        id_(trace != nullptr
                ? trace->BeginSpan(std::move(name), parent, sort_key)
                : -1) {}
  ~ScopedSpan() { End(); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }

  void Counter(std::string name, uint64_t value) {
    if (trace_ != nullptr) trace_->AddCounter(id_, std::move(name), value);
  }

  void Attribute(std::string name, std::string value) {
    if (trace_ != nullptr) {
      trace_->AddAttribute(id_, std::move(name), std::move(value));
    }
  }

  /// Closes the span early (idempotent).
  void End() {
    if (trace_ != nullptr && !ended_) trace_->EndSpan(id_);
    ended_ = true;
  }

 private:
  QueryTrace* trace_;
  int id_;
  bool ended_ = false;
};

}  // namespace hmmm

#endif  // HMMM_OBSERVABILITY_QUERY_TRACE_H_
