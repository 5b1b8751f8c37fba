// In-process layer probes for the traced run: each times calls into one
// module's public functions over the workload's own generated inputs, with
// the daemons already stopped so nothing contends for the cores.

#include <functional>
#include <utility>

#include "common/logging.h"
#include "common/rng.h"
#include "loadgen.h"
#include "query/translator.h"
#include "retrieval/engine.h"
#include "retrieval/query_plan.h"
#include "server/wire_protocol.h"

namespace hmmm::loadgen {
namespace {

constexpr int kQueryDraws = 400;

/// Milliseconds of each of `repeats` calls to `fn`.
std::vector<double> TimeEach(int repeats, const std::function<void(int)>& fn) {
  std::vector<double> ms;
  ms.reserve(static_cast<size_t>(repeats));
  for (int i = 0; i < repeats; ++i) {
    const auto start = Clock::now();
    fn(i);
    ms.push_back(MsBetween(start, Clock::now()));
  }
  return ms;
}

/// Patterns drawn from the workload's own distribution.
std::vector<uint32_t> Draws(const Inputs& inputs, uint64_t seed, int count) {
  Rng rng(seed * 7919 + 5);
  std::vector<uint32_t> out;
  for (int i = 0; i < count; ++i) out.push_back(PickPattern(inputs, rng));
  return out;
}

/// The serving daemon's database options: hmmm_serverd's defaults.
VideoDatabaseOptions ShippedOptions() {
  VideoDatabaseOptions options;
  options.traversal.num_threads = 0;
  return options;
}

}  // namespace

std::map<std::string, double> RunProbes(
    const Inputs& inputs, const std::vector<const PhaseResult*>& phases,
    uint64_t seed) {
  std::map<std::string, double> v;
  const VideoDatabase& heap = *inputs.heap_db;
  const std::vector<uint32_t> draws = Draws(inputs, seed, kQueryDraws);

  // query: parse + MATN translation.
  v["query.compile_us.p50"] =
      1000.0 * Median(TimeEach(4000, [&](int i) {
        const auto& text = inputs.corpus[draws[static_cast<size_t>(i) % draws.size()]];
        HMMM_CHECK(CompileQuery(text, heap.catalog().vocabulary()).ok());
      }));

  // server: one request + response through Encode and Decode.
  std::vector<std::pair<TemporalQueryRequest, TemporalQueryResponse>> recorded;
  for (const PhaseResult* phase : phases) {
    recorded.insert(recorded.end(), phase->recorded.begin(), phase->recorded.end());
  }
  if (!recorded.empty()) {
    v["server.codec_us.p50"] = 1000.0 * Median(TimeEach(4000, [&](int i) {
      const auto& [request, response] = recorded[static_cast<size_t>(i) % recorded.size()];
      HMMM_CHECK(DecodeTemporalQueryRequest(EncodeTemporalQueryRequest(request)).ok());
      HMMM_CHECK(DecodeTemporalQueryResponse(EncodeTemporalQueryResponse(response)).ok());
    }));
  }

  // api: VideoDatabase::Query with the shipped options, warm, then with
  // the result cache off.
  {
    StatusOr<VideoDatabase> db =
        VideoDatabase::OpenSnapshot(inputs.archive_snapshot, ShippedOptions());
    HMMM_CHECK(db.ok());
    for (uint32_t p : draws) HMMM_CHECK(db->Query(inputs.corpus[p]).ok());
    v["api.query_ms.p50"] = Median(TimeEach(kQueryDraws, [&](int i) {
      HMMM_CHECK(db->Query(inputs.corpus[draws[static_cast<size_t>(i)]]).ok());
    }));

    // MarkPositive + Train on the same database, marking results of the
    // hottest drawn pattern.
    std::vector<RetrievedPattern> results;
    for (size_t i = 0; i < draws.size() && results.empty(); ++i) {
      results = db->Query(inputs.corpus[draws[i]]).value();
    }
    if (!results.empty()) {
      v["api.train_ms.p50"] = Median(TimeEach(30, [&](int i) {
        HMMM_CHECK(db->MarkPositive(
                         results[MarkIndex(static_cast<size_t>(i), results.size())])
                       .ok());
        HMMM_CHECK(db->Train().ok());
      }));
    }
  }
  {
    VideoDatabaseOptions options = ShippedOptions();
    options.query_cache_entries = 0;
    StatusOr<VideoDatabase> db =
        VideoDatabase::OpenSnapshot(inputs.archive_snapshot, options);
    HMMM_CHECK(db.ok());
    v["api.uncached_query_ms.p50"] = Median(TimeEach(kQueryDraws, [&](int i) {
      HMMM_CHECK(db->Query(inputs.corpus[draws[static_cast<size_t>(i)]]).ok());
    }));
  }

  // retrieval: the engine over the same model, cache off, and the
  // model-tier event index build.
  {
    RetrievalEngine engine(heap.catalog(), heap.model(),
                           ShippedOptions().traversal,
                           /*query_cache_entries=*/0);
    v["retrieval.engine_query_ms.p50"] = Median(TimeEach(kQueryDraws, [&](int i) {
      HMMM_CHECK(engine.Query(inputs.corpus[draws[static_cast<size_t>(i)]]).ok());
    }));
    v["retrieval.index_build_ms.p50"] = Median(TimeEach(20, [&](int) {
      const EventBitmapIndex index(heap.model(), heap.catalog());
      HMMM_CHECK(index.num_videos() == heap.catalog().num_videos());
    }));
  }

  // snapshot: cold open of the files the workload's daemons open.
  std::vector<std::string> files = inputs.shard_snapshots;
  if (files.empty()) files.push_back(inputs.archive_snapshot);
  double open_ms = 0.0;
  for (const std::string& file : files) {
    open_ms += Median(TimeEach(7, [&](int) {
      HMMM_CHECK(VideoDatabase::OpenSnapshot(file, ShippedOptions()).ok());
    }));
  }
  v["snapshot.open_ms"] = open_ms;
  return v;
}

}  // namespace hmmm::loadgen
