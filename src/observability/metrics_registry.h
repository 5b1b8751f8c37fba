#ifndef HMMM_OBSERVABILITY_METRICS_REGISTRY_H_
#define HMMM_OBSERVABILITY_METRICS_REGISTRY_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"

namespace hmmm {

/// Label set of one metric series, in emission order. Label names must
/// match [a-zA-Z_][a-zA-Z0-9_]*; values are arbitrary bytes and get
/// escaped at exposition time (see MetricsRegistry::EscapeLabelValue).
using MetricLabels = std::vector<std::pair<std::string, std::string>>;

/// A monotonically increasing event count. Increments are a single
/// relaxed atomic add, so hot paths (per-query, per-task) never contend
/// on a lock; cross-thread increments still sum exactly.
class Counter {
 public:
  void Increment(uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// A point-in-time value that can move both ways (queue depth, model
/// version, cache occupancy). Doubles, like Prometheus gauges.
class Gauge {
 public:
  void Set(double value) { value_.store(value, std::memory_order_relaxed); }
  void Add(double delta);
  double value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// A fixed-bucket latency/magnitude histogram. `bounds` are the inclusive
/// upper bounds of the finite buckets, strictly ascending; an implicit
/// +Inf bucket catches the rest. Observations touch only per-bucket
/// atomics — no lock on the observe path.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void Observe(double value);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  const std::vector<double>& bounds() const { return bounds_; }
  /// Cumulative counts per bucket, Prometheus style: entry i counts
  /// observations <= bounds[i]; the final entry (the +Inf bucket) equals
  /// count().
  std::vector<uint64_t> CumulativeCounts() const;

  /// Adds pre-bucketed observations: `bucket_counts` are per-bucket
  /// (non-cumulative) counts, one entry per finite bound plus the +Inf
  /// bucket; `sum` is their combined observation sum. Used by
  /// MetricsRegistry::MergeSnapshot to merge a remote histogram.
  void MergeBucketized(const std::vector<uint64_t>& bucket_counts,
                       double sum);

  /// Zeroes every bucket, the count and the sum.
  void Reset();

 private:
  std::vector<double> bounds_;
  std::vector<std::atomic<uint64_t>> buckets_;  // bounds_.size() + 1
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Default bucket bounds for query-latency histograms, in milliseconds.
const std::vector<double>& DefaultLatencyBucketsMs();

/// A named collection of counters, gauges and histograms with text
/// exposition. Registration (Get*) takes a mutex; the returned pointers
/// are stable for the registry's lifetime, so callers resolve a metric
/// once and then update it lock-free. Metric names must match
/// [a-zA-Z_:][a-zA-Z0-9_:]* (the Prometheus grammar). Re-registering a
/// name returns the existing metric; re-registering under a different
/// kind (or histogram bounds) is a programmer error and aborts.
///
/// A metric family may carry labeled series (the `labels` overloads):
/// each distinct label set is its own series, rendered Prometheus-style
/// as `name{key="value"} 42` with backslashes, double quotes and
/// newlines in label values escaped per the text exposition format.
/// Labeled and unlabeled series may coexist under one family name, but
/// the whole family must keep a single kind.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* GetCounter(const std::string& name, const std::string& help = "");
  Gauge* GetGauge(const std::string& name, const std::string& help = "");
  Histogram* GetHistogram(const std::string& name, std::vector<double> bounds,
                          const std::string& help = "");

  /// Labeled-series variants. The same (name, labels) pair always
  /// returns the same instance; `labels` participates in the identity
  /// byte-for-byte (order and values included).
  Counter* GetCounter(const std::string& name, const MetricLabels& labels,
                      const std::string& help);
  Gauge* GetGauge(const std::string& name, const MetricLabels& labels,
                  const std::string& help);
  Histogram* GetHistogram(const std::string& name, const MetricLabels& labels,
                          std::vector<double> bounds, const std::string& help);

  /// Escapes a label value for the Prometheus text exposition format:
  /// backslash -> \\, double quote -> \", newline -> \n. Exposed so
  /// tests (and external renderers) can assert the exact contract.
  static std::string EscapeLabelValue(std::string_view value);

  /// Prometheus text exposition format (metrics sorted by name). The
  /// snapshot is per-metric consistent, not cross-metric atomic.
  std::string RenderPrometheus() const;

  /// Same exposition with `const_labels` appended to every series'
  /// label set (e.g. {{"shard","2"}}); a const label whose name a series
  /// already carries is skipped for that series.
  std::string RenderPrometheus(const MetricLabels& const_labels) const;

  /// One JSON object: {"counters":{...},"gauges":{...},"histograms":
  /// {name:{"count":..,"sum":..,"buckets":[{"le":..,"count":..}]}}}.
  std::string RenderJson() const;

  /// Binary snapshot of every series (BinaryWriter encoding): kind,
  /// name, labels, help and values, with histograms carried as bounds
  /// plus per-bucket (non-cumulative) counts and sum, so merging is a
  /// plain add. Carried over the wire as MetricsResponse::snapshot and
  /// aggregated fleet-wide by the coordinator.
  std::string EncodeSnapshot() const;

  /// Merges an EncodeSnapshot() payload into this registry, appending
  /// `extra_labels` (e.g. {{"shard","1"}}) to every series. Counters and
  /// histograms add onto existing series; gauges overwrite. The bytes
  /// may come from the network: malformed or truncated input, a hostile
  /// element count, an invalid metric or label name, an unknown kind,
  /// non-ascending bounds, a bucket count other than bounds + 1, or a
  /// kind/bounds conflict with an existing series returns kDataLoss. The
  /// whole payload is decoded before anything merges, so only a conflict
  /// can stop a merge part-way (series merged before it stay).
  Status MergeSnapshot(std::string_view bytes,
                       const MetricLabels& extra_labels = {});

  /// Zeroes every registered metric's value, keeping registration (and
  /// the pointers handed out) intact. For tests.
  void Reset();

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Entry {
    Kind kind;
    std::string name;    // family name, without labels
    MetricLabels labels; // empty for plain series
    std::string help;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  /// Locates or creates the series for (name, labels), checking the kind
  /// invariant. Caller fills the metric pointer on creation.
  Entry* ResolveLocked(const std::string& name, const MetricLabels& labels,
                       const std::string& help, Kind kind);

  mutable std::mutex mutex_;
  /// Keyed by name + '\x01' + canonical label rendering: '\x01' sorts
  /// before every printable byte, so all series of one family stay
  /// contiguous (deterministic exposition with HELP/TYPE emitted once
  /// per family).
  std::map<std::string, Entry> metrics_;
};

}  // namespace hmmm

#endif  // HMMM_OBSERVABILITY_METRICS_REGISTRY_H_
