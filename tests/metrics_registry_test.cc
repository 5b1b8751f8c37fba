#include "observability/metrics_registry.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/serialization.h"

namespace hmmm {
namespace {

TEST(CounterTest, ConcurrentIncrementsSumExactly) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("events_total");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([counter] {
      for (int i = 0; i < kPerThread; ++i) counter->Increment();
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(counter->value(),
            static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST(CounterTest, IncrementByDelta) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("batch_total");
  counter->Increment(5);
  counter->Increment();
  EXPECT_EQ(counter->value(), 6u);
}

TEST(GaugeTest, SetAndAdd) {
  MetricsRegistry registry;
  Gauge* gauge = registry.GetGauge("depth");
  gauge->Set(4.0);
  EXPECT_DOUBLE_EQ(gauge->value(), 4.0);
  gauge->Add(-1.5);
  EXPECT_DOUBLE_EQ(gauge->value(), 2.5);
  gauge->Set(0.0);
  EXPECT_DOUBLE_EQ(gauge->value(), 0.0);
}

TEST(HistogramTest, BucketBoundariesAreInclusiveUpperBounds) {
  MetricsRegistry registry;
  Histogram* histogram = registry.GetHistogram("lat", {1.0, 2.0, 5.0});
  for (double v : {0.5, 1.0, 1.5, 2.0, 3.0, 7.0}) histogram->Observe(v);
  EXPECT_EQ(histogram->count(), 6u);
  EXPECT_DOUBLE_EQ(histogram->sum(), 15.0);
  // Values equal to a bound land in that bound's bucket ("le" semantics):
  // <=1: {0.5, 1}, <=2: +{1.5, 2}, <=5: +{3}, +Inf: +{7}.
  const std::vector<uint64_t> cumulative = histogram->CumulativeCounts();
  ASSERT_EQ(cumulative.size(), 4u);
  EXPECT_EQ(cumulative[0], 2u);
  EXPECT_EQ(cumulative[1], 4u);
  EXPECT_EQ(cumulative[2], 5u);
  EXPECT_EQ(cumulative[3], 6u);
}

TEST(HistogramTest, ConcurrentObservationsSumExactly) {
  MetricsRegistry registry;
  Histogram* histogram = registry.GetHistogram("par", {10.0});
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([histogram, t] {
      // Half the observations land below the bound, half above.
      for (int i = 0; i < kPerThread; ++i) {
        histogram->Observe(t % 2 == 0 ? 1.0 : 100.0);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  const uint64_t total = static_cast<uint64_t>(kThreads) * kPerThread;
  EXPECT_EQ(histogram->count(), total);
  const std::vector<uint64_t> cumulative = histogram->CumulativeCounts();
  EXPECT_EQ(cumulative[0], total / 2);
  EXPECT_EQ(cumulative[1], total);
}

TEST(MetricsRegistryTest, ReturnsTheSameMetricForTheSameName) {
  MetricsRegistry registry;
  Counter* first = registry.GetCounter("x_total", "help text");
  Counter* second = registry.GetCounter("x_total");
  EXPECT_EQ(first, second);
  Histogram* h1 = registry.GetHistogram("h", {1.0, 2.0});
  Histogram* h2 = registry.GetHistogram("h", {1.0, 2.0});
  EXPECT_EQ(h1, h2);
}

TEST(MetricsRegistryTest, PrometheusExpositionGolden) {
  MetricsRegistry registry;
  registry.GetGauge("depth", "queue depth")->Set(2.5);
  Histogram* lat = registry.GetHistogram("lat", {1.0, 10.0}, "latency");
  lat->Observe(0.5);
  lat->Observe(5.0);
  registry.GetCounter("requests_total", "requests")->Increment(3);

  // Metrics render sorted by name; histograms expand into cumulative
  // le-buckets plus _sum and _count.
  EXPECT_EQ(registry.RenderPrometheus(),
            "# HELP depth queue depth\n"
            "# TYPE depth gauge\n"
            "depth 2.5\n"
            "# HELP lat latency\n"
            "# TYPE lat histogram\n"
            "lat_bucket{le=\"1\"} 1\n"
            "lat_bucket{le=\"10\"} 2\n"
            "lat_bucket{le=\"+Inf\"} 2\n"
            "lat_sum 5.5\n"
            "lat_count 2\n"
            "# HELP requests_total requests\n"
            "# TYPE requests_total counter\n"
            "requests_total 3\n");
}

TEST(MetricsRegistryTest, JsonSnapshotGolden) {
  MetricsRegistry registry;
  registry.GetGauge("depth")->Set(2.5);
  Histogram* lat = registry.GetHistogram("lat", {1.0, 10.0});
  lat->Observe(0.5);
  lat->Observe(5.0);
  registry.GetCounter("requests_total")->Increment(3);

  EXPECT_EQ(registry.RenderJson(),
            "{\"counters\":{\"requests_total\":3},"
            "\"gauges\":{\"depth\":2.5},"
            "\"histograms\":{\"lat\":{\"count\":2,\"sum\":5.5,"
            "\"buckets\":[{\"le\":1,\"count\":1},{\"le\":10,\"count\":2},"
            "{\"le\":\"+Inf\",\"count\":2}]}}}");
}

TEST(MetricsRegistryTest, EmptyRegistryRendersEmptyContainers) {
  MetricsRegistry registry;
  EXPECT_EQ(registry.RenderPrometheus(), "");
  EXPECT_EQ(registry.RenderJson(),
            "{\"counters\":{},\"gauges\":{},\"histograms\":{}}");
}

TEST(MetricsRegistryTest, DefaultLatencyBucketsAreAscending) {
  const std::vector<double>& buckets = DefaultLatencyBucketsMs();
  ASSERT_FALSE(buckets.empty());
  for (size_t i = 1; i < buckets.size(); ++i) {
    EXPECT_LT(buckets[i - 1], buckets[i]);
  }
}

TEST(MetricsRegistryTest, ConcurrentRegistrationIsSafe) {
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry] {
      for (int i = 0; i < 100; ++i) {
        registry.GetCounter("shared_total")->Increment();
        registry.GetGauge("shared_gauge")->Set(1.0);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(registry.GetCounter("shared_total")->value(),
            static_cast<uint64_t>(kThreads) * 100);
}

TEST(MetricsRegistryTest, LabeledSeriesAreDistinctAndShareOneHelpBlock) {
  MetricsRegistry registry;
  Counter* get = registry.GetCounter("req_total", {{"verb", "get"}}, "reqs");
  Counter* put = registry.GetCounter("req_total", {{"verb", "put"}}, "reqs");
  EXPECT_NE(get, put);
  EXPECT_EQ(get, registry.GetCounter("req_total", MetricLabels{{"verb", "get"}}, ""));
  get->Increment(2);
  put->Increment();
  EXPECT_EQ(registry.RenderPrometheus(),
            "# HELP req_total reqs\n"
            "# TYPE req_total counter\n"
            "req_total{verb=\"get\"} 2\n"
            "req_total{verb=\"put\"} 1\n");
}

// Prometheus label values must escape backslash, double quote and
// newline (in that exposition-format order: `\\`, `\"`, `\n`). One test
// per case so a regression names the exact broken escape.

TEST(MetricsRegistryTest, EscapesBackslashInLabelValue) {
  EXPECT_EQ(MetricsRegistry::EscapeLabelValue("C:\\temp\\x"),
            "C:\\\\temp\\\\x");
  MetricsRegistry registry;
  registry.GetCounter("c_total", MetricLabels{{"path", "a\\b"}}, "")->Increment();
  EXPECT_NE(registry.RenderPrometheus().find("c_total{path=\"a\\\\b\"} 1"),
            std::string::npos);
}

TEST(MetricsRegistryTest, EscapesDoubleQuoteInLabelValue) {
  EXPECT_EQ(MetricsRegistry::EscapeLabelValue("say \"hi\""),
            "say \\\"hi\\\"");
  MetricsRegistry registry;
  registry.GetCounter("c_total", MetricLabels{{"q", "\"quoted\""}}, "")->Increment();
  EXPECT_NE(
      registry.RenderPrometheus().find("c_total{q=\"\\\"quoted\\\"\"} 1"),
      std::string::npos);
}

TEST(MetricsRegistryTest, EscapesNewlineInLabelValue) {
  EXPECT_EQ(MetricsRegistry::EscapeLabelValue("line1\nline2"),
            "line1\\nline2");
  MetricsRegistry registry;
  registry.GetCounter("c_total", MetricLabels{{"msg", "a\nb"}}, "")->Increment();
  const std::string text = registry.RenderPrometheus();
  EXPECT_NE(text.find("c_total{msg=\"a\\nb\"} 1"), std::string::npos);
  // The rendered series must stay on one exposition line: a raw newline
  // inside a label value would split it in two.
  EXPECT_EQ(text.find("a\nb"), std::string::npos);
}

TEST(MetricsRegistryTest, HostileLabelValueCannotInjectASeries) {
  // A label value crafted to close the quote and start a fake series
  // must come out inert.
  MetricsRegistry registry;
  registry
      .GetCounter("c_total",
                  MetricLabels{{"v", "x\"} 9\ninjected_total{v=\"y"}}, "")
      ->Increment();
  const std::string text = registry.RenderPrometheus();
  EXPECT_EQ(text.find("\ninjected_total"), std::string::npos);
  EXPECT_NE(text.find("c_total{v=\"x\\\"} 9\\ninjected_total{v=\\\"y\"} 1"),
            std::string::npos);
}

// -- Snapshot round-trip and fleet aggregation ----------------------------

MetricsRegistry* PopulatedRegistry(MetricsRegistry* registry) {
  registry->GetCounter("requests_total", "reqs")->Increment(3);
  registry->GetGauge("depth", "queue depth")->Set(2.5);
  Histogram* lat = registry->GetHistogram("lat", {1.0, 10.0}, "latency");
  lat->Observe(0.5);
  lat->Observe(5.0);
  registry->GetCounter("req_total", MetricLabels{{"verb", "get"}}, "")
      ->Increment(2);
  return registry;
}

TEST(MetricsSnapshotTest, SnapshotJsonRoundTripsExactly) {
  MetricsRegistry source;
  PopulatedRegistry(&source);
  // Raw doubles travel bit-exact, including ones %.9g would round.
  source.GetGauge("ratio", "")->Set(0.1 + 0.2);
  MetricsRegistry loaded;
  const Status status = loaded.MergeSnapshot(source.EncodeSnapshot());
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(loaded.RenderPrometheus(), source.RenderPrometheus());
  EXPECT_EQ(loaded.EncodeSnapshot(), source.EncodeSnapshot());
  EXPECT_EQ(loaded.GetGauge("ratio", "")->value(), 0.1 + 0.2);
}

TEST(MetricsSnapshotTest, LoadWithExtraLabelsTagsEverySeries) {
  // The coordinator merges shard snapshots with a `shard` label so one
  // exposition distinguishes every process's series.
  MetricsRegistry source;
  PopulatedRegistry(&source);
  MetricsRegistry fleet;
  ASSERT_TRUE(
      fleet.MergeSnapshot(source.EncodeSnapshot(), {{"shard", "2"}}).ok());
  const std::string text = fleet.RenderPrometheus();
  EXPECT_NE(text.find("requests_total{shard=\"2\"} 3"), std::string::npos);
  EXPECT_NE(text.find("depth{shard=\"2\"} 2.5"), std::string::npos);
  EXPECT_NE(text.find("lat_bucket{shard=\"2\",le=\"1\"} 1"),
            std::string::npos)
      << text;
  // Pre-existing labels survive alongside the added one.
  EXPECT_NE(text.find("verb=\"get\""), std::string::npos);
  // No unlabeled series leaked through.
  EXPECT_EQ(text.find("requests_total 3"), std::string::npos);
  // Merging with extra labels renders exactly what the source renders
  // with the same labels as const labels.
  EXPECT_EQ(text, source.RenderPrometheus({{"shard", "2"}}));
}

TEST(MetricsSnapshotTest, RepeatedLoadsAddCountersAndOverwriteGauges) {
  MetricsRegistry source;
  PopulatedRegistry(&source);
  const std::string snapshot = source.EncodeSnapshot();
  MetricsRegistry dest;
  ASSERT_TRUE(dest.MergeSnapshot(snapshot).ok());
  ASSERT_TRUE(dest.MergeSnapshot(snapshot).ok());
  EXPECT_EQ(dest.GetCounter("requests_total")->value(), 6u);
  EXPECT_DOUBLE_EQ(dest.GetGauge("depth")->value(), 2.5);
  EXPECT_EQ(dest.GetHistogram("lat", {1.0, 10.0})->count(), 4u);
}

// Hand-built snapshots for the malformed-input corpus. The layout is
// EncodeSnapshot's: varint series count, then per series kind (0 counter,
// 1 gauge, 2 histogram), name, labels, help and the kind's values.
void WriteSeriesHead(BinaryWriter& writer, uint8_t kind,
                     const std::string& name, const MetricLabels& labels) {
  writer.WriteUint8(kind);
  writer.WriteString(name);
  writer.WriteVarint(labels.size());
  for (const auto& [label_name, label_value] : labels) {
    writer.WriteString(label_name);
    writer.WriteString(label_value);
  }
  writer.WriteString("help");
}

std::string HistogramSnapshot(const std::vector<double>& bounds,
                              uint64_t num_buckets) {
  BinaryWriter writer;
  writer.WriteVarint(1);
  WriteSeriesHead(writer, 2, "lat", {});
  writer.WriteDoubleVector(bounds);
  writer.WriteVarint(num_buckets);
  for (uint64_t i = 0; i < num_buckets; ++i) writer.WriteUint64(1);
  writer.WriteDouble(1.5);
  return std::move(writer).TakeBuffer();
}

std::string CounterSnapshot(const std::string& name,
                            const MetricLabels& labels) {
  BinaryWriter writer;
  writer.WriteVarint(1);
  WriteSeriesHead(writer, 0, name, labels);
  writer.WriteUint64(7);
  return std::move(writer).TakeBuffer();
}

TEST(MetricsSnapshotTest, MalformedSnapshotIsRejected) {
  // Sanity: the hand-built encodings are well formed.
  {
    MetricsRegistry registry;
    ASSERT_TRUE(registry.MergeSnapshot(CounterSnapshot("c_total", {})).ok());
    ASSERT_TRUE(registry.MergeSnapshot(HistogramSnapshot({1.0, 2.0}, 3)).ok());
  }
  std::vector<std::pair<std::string, std::string>> corpus;
  corpus.emplace_back("empty input", "");
  {
    // Every proper prefix of a real snapshot is truncated.
    MetricsRegistry source;
    PopulatedRegistry(&source);
    const std::string full = source.EncodeSnapshot();
    for (size_t n = 0; n < full.size(); ++n) {
      corpus.emplace_back("prefix " + std::to_string(n), full.substr(0, n));
    }
    corpus.emplace_back("trailing byte", full + '\0');
  }
  const uint64_t hostile = uint64_t{1} << 62;
  {
    BinaryWriter writer;
    writer.WriteVarint(hostile);
    corpus.emplace_back("hostile series count", writer.buffer());
  }
  {
    BinaryWriter writer;
    writer.WriteVarint(1);
    writer.WriteUint8(0);
    writer.WriteString("c_total");
    writer.WriteVarint(hostile);
    corpus.emplace_back("hostile label count", writer.buffer());
  }
  {
    BinaryWriter writer;
    writer.WriteVarint(1);
    writer.WriteUint8(0);
    writer.WriteVarint(~uint64_t{0});  // name length near 2^64
    writer.WriteString("c_total");
    corpus.emplace_back("hostile string length", writer.buffer());
  }
  {
    BinaryWriter writer;
    writer.WriteVarint(1);
    WriteSeriesHead(writer, 2, "lat", {});
    writer.WriteVarint(hostile);
    corpus.emplace_back("hostile bounds count", writer.buffer());
  }
  {
    BinaryWriter writer;
    writer.WriteVarint(1);
    WriteSeriesHead(writer, 2, "lat", {});
    writer.WriteDoubleVector({1.0});
    writer.WriteVarint(2);
    corpus.emplace_back("buckets truncated", writer.buffer());
  }
  {
    BinaryWriter writer;
    writer.WriteVarint(1);
    WriteSeriesHead(writer, 3, "c_total", {});
    writer.WriteUint64(1);
    corpus.emplace_back("unknown kind", writer.buffer());
  }
  corpus.emplace_back("descending bounds", HistogramSnapshot({2.0, 1.0}, 3));
  corpus.emplace_back("repeated bound", HistogramSnapshot({1.0, 1.0}, 3));
  corpus.emplace_back("NaN bound",
                      HistogramSnapshot({std::nan(""), 1.0}, 3));
  corpus.emplace_back("too few buckets", HistogramSnapshot({1.0, 2.0}, 2));
  corpus.emplace_back("too many buckets", HistogramSnapshot({1.0, 2.0}, 4));
  corpus.emplace_back("bad metric name", CounterSnapshot("9lives", {}));
  corpus.emplace_back("bad label name",
                      CounterSnapshot("c_total", {{"bad-name", "v"}}));

  MetricsRegistry registry;
  for (const auto& [what, bytes] : corpus) {
    const Status status = registry.MergeSnapshot(bytes);
    EXPECT_EQ(status.code(), StatusCode::kDataLoss) << what;
  }
  EXPECT_EQ(registry.MergeSnapshot(CounterSnapshot("c_total", {}),
                                   {{"bad-name", "v"}})
                .code(),
            StatusCode::kDataLoss);
  // Every input fails while decoding, before anything merges.
  EXPECT_EQ(registry.RenderPrometheus(), "");
}

TEST(MetricsSnapshotTest, KindAndBoundsConflictsAreStatusesNotAborts) {
  MetricsRegistry registry;
  registry.GetGauge("c_total", "")->Set(1.0);
  registry.GetHistogram("lat", {5.0}, "");
  EXPECT_EQ(registry.MergeSnapshot(CounterSnapshot("c_total", {})).code(),
            StatusCode::kDataLoss);
  EXPECT_EQ(registry.MergeSnapshot(HistogramSnapshot({1.0, 2.0}, 3)).code(),
            StatusCode::kDataLoss);
  EXPECT_DOUBLE_EQ(registry.GetGauge("c_total", "")->value(), 1.0);
  EXPECT_EQ(registry.GetHistogram("lat", {5.0}, "")->count(), 0u);
}

TEST(MetricsSnapshotTest, ConstLabelsApplyToTheWholeExposition) {
  MetricsRegistry registry;
  registry.GetCounter("requests_total", "reqs")->Increment(3);
  registry.GetCounter("req_total", MetricLabels{{"verb", "get"}}, "")
      ->Increment();
  const std::string text =
      registry.RenderPrometheus(MetricLabels{{"shard", "0"}});
  EXPECT_NE(text.find("requests_total{shard=\"0\"} 3"), std::string::npos);
  // Const labels append after a series' own labels.
  EXPECT_NE(text.find("req_total{verb=\"get\",shard=\"0\"} 1"),
            std::string::npos)
      << text;
}

TEST(MetricsSnapshotTest, ResetZeroesEveryMetricButKeepsRegistrations) {
  MetricsRegistry registry;
  PopulatedRegistry(&registry);
  Counter* counter = registry.GetCounter("requests_total");
  registry.Reset();
  EXPECT_EQ(counter->value(), 0u);
  EXPECT_EQ(registry.GetCounter("requests_total"), counter);
  EXPECT_DOUBLE_EQ(registry.GetGauge("depth")->value(), 0.0);
  EXPECT_EQ(registry.GetHistogram("lat", {1.0, 10.0})->count(), 0u);
  EXPECT_DOUBLE_EQ(registry.GetHistogram("lat", {1.0, 10.0})->sum(), 0.0);
}

}  // namespace
}  // namespace hmmm
