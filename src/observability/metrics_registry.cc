#include "observability/metrics_registry.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/serialization.h"
#include "common/strings.h"

namespace hmmm {
namespace {

/// Relaxed CAS add: std::atomic<double>::fetch_add is C++20 but not
/// uniformly available, and exact sums are not required for gauges /
/// histogram sums — lost precision, not lost updates, is the only risk.
void AtomicAdd(std::atomic<double>& target, double delta) {
  double current = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(current, current + delta,
                                       std::memory_order_relaxed)) {
  }
}

bool IsValidMetricName(const std::string& name) {
  if (name.empty()) return false;
  for (size_t i = 0; i < name.size(); ++i) {
    const char c = name[i];
    const bool alpha =
        (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
        c == ':';
    if (alpha) continue;
    if (i > 0 && c >= '0' && c <= '9') continue;
    return false;
  }
  return true;
}

bool IsValidLabelName(const std::string& name) {
  if (name.empty()) return false;
  for (size_t i = 0; i < name.size(); ++i) {
    const char c = name[i];
    const bool alpha =
        (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
    if (alpha) continue;
    if (i > 0 && c >= '0' && c <= '9') continue;
    return false;
  }
  return true;
}

/// The `key="value",...` body of a series' label braces, with values
/// escaped. Used both for rendering and (prefixed by the family name and
/// '\x01') as the series' map key.
std::string RenderLabels(const MetricLabels& labels) {
  std::string out;
  for (size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) out += ',';
    out += labels[i].first + "=\"" +
           MetricsRegistry::EscapeLabelValue(labels[i].second) + "\"";
  }
  return out;
}

/// The series name as exposed: `name` or `name{key="value",...}`.
std::string SeriesName(const std::string& name, const MetricLabels& labels) {
  if (labels.empty()) return name;
  return name + "{" + RenderLabels(labels) + "}";
}

/// `name_bucket{<labels>,le="bound"}`-style merge of the series labels
/// with the histogram's `le` label.
std::string BucketName(const std::string& name, const MetricLabels& labels,
                       const std::string& le) {
  std::string out = name + "_bucket{";
  if (!labels.empty()) out += RenderLabels(labels) + ",";
  return out + "le=\"" + le + "\"}";
}

/// Minimal JSON string escaping for series names used as object keys
/// (labeled series contain double quotes and may contain any byte).
std::string JsonEscapeString(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += StrFormat("\\u%04x", static_cast<int>(c));
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Deterministic number rendering shared by both expositions: integers
/// print without a decimal point, everything else with 9 significant
/// digits (enough for millisecond sums, stable across platforms).
std::string FormatNumber(double value) {
  const auto integral = static_cast<int64_t>(value);
  if (static_cast<double>(integral) == value && value > -1e15 &&
      value < 1e15) {
    return StrFormat("%lld", static_cast<long long>(integral));
  }
  return StrFormat("%.9g", value);
}

/// `labels` with `extra` appended, skipping extra labels whose name the
/// series already carries.
MetricLabels MergeConstLabels(const MetricLabels& labels,
                              const MetricLabels& extra) {
  if (extra.empty()) return labels;
  MetricLabels merged = labels;
  for (const auto& [name, value] : extra) {
    bool present = false;
    for (const auto& [existing, unused] : labels) {
      (void)unused;
      if (existing == name) {
        present = true;
        break;
      }
    }
    if (!present) merged.emplace_back(name, value);
  }
  return merged;
}

}  // namespace

void Gauge::Add(double delta) { AtomicAdd(value_, delta); }

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), buckets_(bounds_.size() + 1) {
  for (size_t i = 1; i < bounds_.size(); ++i) {
    HMMM_CHECK(bounds_[i - 1] < bounds_[i])
        << "histogram bounds must be strictly ascending";
  }
}

void Histogram::Observe(double value) {
  const size_t bucket = static_cast<size_t>(
      std::upper_bound(bounds_.begin(), bounds_.end(), value) -
      bounds_.begin());
  // upper_bound gives the first bound > value, i.e. values equal to a
  // bound land in that bound's bucket (Prometheus "le" semantics).
  const size_t index =
      bucket > 0 && bounds_[bucket - 1] == value ? bucket - 1 : bucket;
  buckets_[index].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  AtomicAdd(sum_, value);
}

std::vector<uint64_t> Histogram::CumulativeCounts() const {
  std::vector<uint64_t> cumulative(buckets_.size(), 0);
  uint64_t running = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    running += buckets_[i].load(std::memory_order_relaxed);
    cumulative[i] = running;
  }
  return cumulative;
}

void Histogram::MergeBucketized(const std::vector<uint64_t>& bucket_counts,
                                double sum) {
  HMMM_CHECK(bucket_counts.size() == buckets_.size())
      << "bucketized merge with mismatched bucket count";
  uint64_t total = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    buckets_[i].fetch_add(bucket_counts[i], std::memory_order_relaxed);
    total += bucket_counts[i];
  }
  count_.fetch_add(total, std::memory_order_relaxed);
  AtomicAdd(sum_, sum);
}

void Histogram::Reset() {
  for (auto& bucket : buckets_) bucket.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

const std::vector<double>& DefaultLatencyBucketsMs() {
  static const std::vector<double>& buckets = *new std::vector<double>{
      0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 1000};
  return buckets;
}

std::string MetricsRegistry::EscapeLabelValue(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

MetricsRegistry::Entry* MetricsRegistry::ResolveLocked(
    const std::string& name, const MetricLabels& labels,
    const std::string& help, Kind kind) {
  HMMM_CHECK(IsValidMetricName(name)) << "bad metric name: " << name;
  for (const auto& [label_name, label_value] : labels) {
    (void)label_value;
    HMMM_CHECK(IsValidLabelName(label_name))
        << "bad label name on " << name << ": " << label_name;
  }
  const std::string key = name + '\x01' + RenderLabels(labels);
  auto it = metrics_.find(key);
  if (it == metrics_.end()) {
    Entry entry;
    entry.kind = kind;
    entry.name = name;
    entry.labels = labels;
    entry.help = help;
    it = metrics_.emplace(key, std::move(entry)).first;
  }
  HMMM_CHECK(it->second.kind == kind)
      << name << " already registered under a different kind";
  return &it->second;
}

Counter* MetricsRegistry::GetCounter(const std::string& name,
                                     const std::string& help) {
  return GetCounter(name, {}, help);
}

Counter* MetricsRegistry::GetCounter(const std::string& name,
                                     const MetricLabels& labels,
                                     const std::string& help) {
  std::lock_guard<std::mutex> lock(mutex_);
  Entry* entry = ResolveLocked(name, labels, help, Kind::kCounter);
  if (entry->counter == nullptr) entry->counter = std::make_unique<Counter>();
  return entry->counter.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name,
                                 const std::string& help) {
  return GetGauge(name, {}, help);
}

Gauge* MetricsRegistry::GetGauge(const std::string& name,
                                 const MetricLabels& labels,
                                 const std::string& help) {
  std::lock_guard<std::mutex> lock(mutex_);
  Entry* entry = ResolveLocked(name, labels, help, Kind::kGauge);
  if (entry->gauge == nullptr) entry->gauge = std::make_unique<Gauge>();
  return entry->gauge.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         std::vector<double> bounds,
                                         const std::string& help) {
  return GetHistogram(name, {}, std::move(bounds), help);
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         const MetricLabels& labels,
                                         std::vector<double> bounds,
                                         const std::string& help) {
  std::lock_guard<std::mutex> lock(mutex_);
  Entry* entry = ResolveLocked(name, labels, help, Kind::kHistogram);
  if (entry->histogram == nullptr) {
    entry->histogram = std::make_unique<Histogram>(std::move(bounds));
    return entry->histogram.get();
  }
  HMMM_CHECK(entry->histogram->bounds() == bounds)
      << name << " re-registered with different bucket bounds";
  return entry->histogram.get();
}

std::string MetricsRegistry::RenderPrometheus() const {
  return RenderPrometheus(MetricLabels{});
}

std::string MetricsRegistry::RenderPrometheus(
    const MetricLabels& const_labels) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out;
  // HELP/TYPE announce a family once; the map order keeps a family's
  // labeled series contiguous.
  const std::string* last_family = nullptr;
  for (const auto& [key, entry] : metrics_) {
    (void)key;
    const std::string& name = entry.name;
    if (last_family == nullptr || *last_family != name) {
      last_family = &name;
      if (!entry.help.empty()) {
        out += StrFormat("# HELP %s %s\n", name.c_str(), entry.help.c_str());
      }
      const char* type = entry.kind == Kind::kCounter ? "counter"
                         : entry.kind == Kind::kGauge ? "gauge"
                                                      : "histogram";
      out += StrFormat("# TYPE %s %s\n", name.c_str(), type);
    }
    const MetricLabels labels = MergeConstLabels(entry.labels, const_labels);
    const std::string series = SeriesName(name, labels);
    switch (entry.kind) {
      case Kind::kCounter:
        out += StrFormat("%s %llu\n", series.c_str(),
                         static_cast<unsigned long long>(
                             entry.counter->value()));
        break;
      case Kind::kGauge:
        out += StrFormat("%s %s\n", series.c_str(),
                         FormatNumber(entry.gauge->value()).c_str());
        break;
      case Kind::kHistogram: {
        const Histogram& h = *entry.histogram;
        const std::vector<uint64_t> cumulative = h.CumulativeCounts();
        for (size_t i = 0; i < h.bounds().size(); ++i) {
          out += StrFormat(
              "%s %llu\n",
              BucketName(name, labels, FormatNumber(h.bounds()[i])).c_str(),
              static_cast<unsigned long long>(cumulative[i]));
        }
        out += StrFormat("%s %llu\n",
                         BucketName(name, labels, "+Inf").c_str(),
                         static_cast<unsigned long long>(cumulative.back()));
        out += StrFormat("%s %s\n",
                         SeriesName(name + "_sum", labels).c_str(),
                         FormatNumber(h.sum()).c_str());
        out += StrFormat("%s %llu\n",
                         SeriesName(name + "_count", labels).c_str(),
                         static_cast<unsigned long long>(h.count()));
        break;
      }
    }
  }
  return out;
}

std::string MetricsRegistry::RenderJson() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string counters, gauges, histograms;
  for (const auto& [key, entry] : metrics_) {
    (void)key;
    // Labeled series keep their Prometheus rendering as the JSON key
    // (JSON-escaped, since it contains double quotes).
    const std::string series =
        JsonEscapeString(SeriesName(entry.name, entry.labels));
    switch (entry.kind) {
      case Kind::kCounter:
        if (!counters.empty()) counters += ',';
        counters += StrFormat("\"%s\":%llu", series.c_str(),
                              static_cast<unsigned long long>(
                                  entry.counter->value()));
        break;
      case Kind::kGauge:
        if (!gauges.empty()) gauges += ',';
        gauges += StrFormat("\"%s\":%s", series.c_str(),
                            FormatNumber(entry.gauge->value()).c_str());
        break;
      case Kind::kHistogram: {
        const Histogram& h = *entry.histogram;
        if (!histograms.empty()) histograms += ',';
        std::string buckets;
        const std::vector<uint64_t> cumulative = h.CumulativeCounts();
        for (size_t i = 0; i < h.bounds().size(); ++i) {
          if (!buckets.empty()) buckets += ',';
          buckets += StrFormat(
              "{\"le\":%s,\"count\":%llu}",
              FormatNumber(h.bounds()[i]).c_str(),
              static_cast<unsigned long long>(cumulative[i]));
        }
        if (!buckets.empty()) buckets += ',';
        buckets += StrFormat("{\"le\":\"+Inf\",\"count\":%llu}",
                             static_cast<unsigned long long>(
                                 cumulative.back()));
        histograms += StrFormat(
            "\"%s\":{\"count\":%llu,\"sum\":%s,\"buckets\":[%s]}",
            series.c_str(), static_cast<unsigned long long>(h.count()),
            FormatNumber(h.sum()).c_str(), buckets.c_str());
        break;
      }
    }
  }
  return StrFormat(
      "{\"counters\":{%s},\"gauges\":{%s},\"histograms\":{%s}}",
      counters.c_str(), gauges.c_str(), histograms.c_str());
}

std::string MetricsRegistry::EncodeSnapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  BinaryWriter writer;
  writer.WriteVarint(metrics_.size());
  for (const auto& [key, entry] : metrics_) {
    (void)key;
    writer.WriteUint8(static_cast<uint8_t>(entry.kind));
    writer.WriteString(entry.name);
    writer.WriteVarint(entry.labels.size());
    for (const auto& [label_name, label_value] : entry.labels) {
      writer.WriteString(label_name);
      writer.WriteString(label_value);
    }
    writer.WriteString(entry.help);
    switch (entry.kind) {
      case Kind::kCounter:
        writer.WriteUint64(entry.counter->value());
        break;
      case Kind::kGauge:
        writer.WriteDouble(entry.gauge->value());
        break;
      case Kind::kHistogram: {
        const Histogram& h = *entry.histogram;
        writer.WriteDoubleVector(h.bounds());
        const std::vector<uint64_t> cumulative = h.CumulativeCounts();
        writer.WriteVarint(cumulative.size());
        uint64_t previous = 0;
        for (const uint64_t c : cumulative) {
          writer.WriteUint64(c - previous);
          previous = c;
        }
        writer.WriteDouble(h.sum());
        break;
      }
    }
  }
  return std::move(writer).TakeBuffer();
}

Status MetricsRegistry::MergeSnapshot(std::string_view bytes,
                                      const MetricLabels& extra_labels) {
  const auto bad = [](const char* what) {
    return Status::DataLoss(StrFormat("bad metrics snapshot: %s", what));
  };
  for (const auto& [label_name, label_value] : extra_labels) {
    (void)label_value;
    if (!IsValidLabelName(label_name)) return bad("extra label name");
  }
  // Decode and validate everything before touching the registry. A count
  // larger than the bytes left is hostile (each element takes at least
  // one byte), and elements are appended as they decode, so memory grows
  // with the input actually read, not with a claimed count.
  struct Series {
    Kind kind = Kind::kCounter;
    std::string name;
    MetricLabels labels;
    std::string help;
    uint64_t counter = 0;
    double value = 0.0;  // gauge value or histogram sum
    std::vector<double> bounds;
    std::vector<uint64_t> buckets;
  };
  BinaryReader reader(bytes);
  HMMM_ASSIGN_OR_RETURN(const uint64_t count, reader.ReadVarint());
  if (count > reader.remaining()) return bad("series count");
  std::vector<Series> decoded;
  for (uint64_t i = 0; i < count; ++i) {
    Series series;
    HMMM_ASSIGN_OR_RETURN(const uint8_t kind, reader.ReadUint8());
    if (kind > static_cast<uint8_t>(Kind::kHistogram)) return bad("kind");
    series.kind = static_cast<Kind>(kind);
    HMMM_ASSIGN_OR_RETURN(series.name, reader.ReadString());
    if (!IsValidMetricName(series.name)) return bad("metric name");
    HMMM_ASSIGN_OR_RETURN(const uint64_t num_labels, reader.ReadVarint());
    if (num_labels > reader.remaining()) return bad("label count");
    for (uint64_t l = 0; l < num_labels; ++l) {
      HMMM_ASSIGN_OR_RETURN(std::string label_name, reader.ReadString());
      if (!IsValidLabelName(label_name)) return bad("label name");
      HMMM_ASSIGN_OR_RETURN(std::string label_value, reader.ReadString());
      series.labels.emplace_back(std::move(label_name),
                                 std::move(label_value));
    }
    series.labels = MergeConstLabels(series.labels, extra_labels);
    HMMM_ASSIGN_OR_RETURN(series.help, reader.ReadString());
    switch (series.kind) {
      case Kind::kCounter: {
        HMMM_ASSIGN_OR_RETURN(series.counter, reader.ReadUint64());
        break;
      }
      case Kind::kGauge: {
        HMMM_ASSIGN_OR_RETURN(series.value, reader.ReadDouble());
        break;
      }
      case Kind::kHistogram: {
        HMMM_ASSIGN_OR_RETURN(series.bounds, reader.ReadDoubleVector());
        const std::vector<double>& bounds = series.bounds;
        for (size_t b = 0; b < bounds.size(); ++b) {
          // Written so a NaN bound fails too.
          if (std::isnan(bounds[b]) ||
              (b > 0 && !(bounds[b - 1] < bounds[b]))) {
            return bad("bounds not ascending");
          }
        }
        HMMM_ASSIGN_OR_RETURN(const uint64_t num_buckets, reader.ReadVarint());
        if (num_buckets != series.bounds.size() + 1) {
          return bad("bucket count");
        }
        series.buckets.resize(static_cast<size_t>(num_buckets));
        for (uint64_t& bucket : series.buckets) {
          HMMM_ASSIGN_OR_RETURN(bucket, reader.ReadUint64());
        }
        HMMM_ASSIGN_OR_RETURN(series.value, reader.ReadDouble());
        break;
      }
    }
    decoded.push_back(std::move(series));
  }
  if (!reader.AtEnd()) return bad("trailing bytes");

  // Resolve by hand instead of through ResolveLocked: a remote kind or
  // bounds conflict must surface as a Status, not abort the process.
  std::lock_guard<std::mutex> lock(mutex_);
  for (Series& series : decoded) {
    const std::string key = series.name + '\x01' + RenderLabels(series.labels);
    auto it = metrics_.find(key);
    if (it != metrics_.end() &&
        (it->second.kind != series.kind ||
         (series.kind == Kind::kHistogram &&
          it->second.histogram->bounds() != series.bounds))) {
      return Status::DataLoss(StrFormat(
          "snapshot kind or bounds conflict on %s", series.name.c_str()));
    }
    if (it == metrics_.end()) {
      Entry entry;
      entry.kind = series.kind;
      entry.name = series.name;
      entry.labels = std::move(series.labels);
      entry.help = std::move(series.help);
      switch (series.kind) {
        case Kind::kCounter:
          entry.counter = std::make_unique<Counter>();
          break;
        case Kind::kGauge:
          entry.gauge = std::make_unique<Gauge>();
          break;
        case Kind::kHistogram:
          entry.histogram = std::make_unique<Histogram>(series.bounds);
          break;
      }
      it = metrics_.emplace(key, std::move(entry)).first;
    }
    Entry& entry = it->second;
    switch (series.kind) {
      case Kind::kCounter:
        entry.counter->Increment(series.counter);
        break;
      case Kind::kGauge:
        entry.gauge->Set(series.value);
        break;
      case Kind::kHistogram:
        entry.histogram->MergeBucketized(series.buckets, series.value);
        break;
    }
  }
  return Status::OK();
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [key, entry] : metrics_) {
    (void)key;
    if (entry.counter != nullptr) entry.counter->Reset();
    if (entry.gauge != nullptr) entry.gauge->Reset();
    if (entry.histogram != nullptr) entry.histogram->Reset();
  }
}

}  // namespace hmmm
