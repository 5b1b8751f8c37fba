// Seeded workload inputs (archive snapshots, shard slices, shard map,
// query corpus) and the ranking correctness gate.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <set>
#include <thread>
#include <utility>

#include "api/catalog_partition.h"
#include "common/rng.h"
#include "loadgen.h"
#include "media/feature_level_generator.h"
#include "server/shard_map.h"

namespace hmmm::loadgen {
namespace {

// Why each workload exists is recorded in BENCHMARK.json; the shapes
// below are the paper-scale archive (54 videos) and a 200-video archive
// whose corpus dwarfs the 64-entry result cache.
const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> workloads = [] {
    WorkloadSpec hot;
    hot.name = "hot_cached";
    hot.videos = 54;
    hot.warmup_s = 3.0;  // outlasts the hot-path ramp seen on fresh daemons

    WorkloadSpec cold;
    cold.name = "cold_scan";
    cold.videos = 200;
    cold.cold_corpus = true;
    cold.warmup_s = 1.5;

    WorkloadSpec train;
    train.name = "train_mix";
    train.videos = 54;
    train.open_loop = true;
    train.rate_qps = 2000.0;
    train.train_every = 200;
    train.warmup_s = 1.5;

    WorkloadSpec sharded = cold;
    sharded.name = "sharded_snapshot";
    sharded.shards = 2;
    return std::vector<WorkloadSpec>{hot, cold, train, sharded};
  }();
  return workloads;
}

constexpr size_t kHotPatterns = 16;
constexpr int kReferenceThreads = 4;

uint64_t Fnv(uint64_t h, const void* data, size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    h ^= bytes[i];
    h *= 1099511628211ull;
  }
  return h;
}

template <typename T>
uint64_t FnvValue(uint64_t h, const T& value) {
  return Fnv(h, &value, sizeof(value));
}

}  // namespace

double MsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : Workloads()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

std::vector<std::string> SequentialPatterns(const EventVocabulary& vocabulary) {
  std::vector<std::string> out;
  std::vector<std::string> prefixes(vocabulary.names().begin(),
                                    vocabulary.names().end());
  for (int length = 2; length <= 4; ++length) {
    std::vector<std::string> next;
    for (const std::string& prefix : prefixes) {
      for (const std::string& event : vocabulary.names()) {
        next.push_back(prefix + " ; " + event);
      }
    }
    out.insert(out.end(), next.begin(), next.end());
    prefixes = std::move(next);
  }
  return out;
}

uint64_t RankingDigest(const std::vector<RetrievedPattern>& results) {
  uint64_t h = 14695981039346656037ull;
  h = FnvValue(h, results.size());
  for (const RetrievedPattern& r : results) {
    h = FnvValue(h, r.video);
    h = FnvValue(h, r.crosses_videos);
    h = FnvValue(h, r.score);
    h = FnvValue(h, r.shots.size());
    h = Fnv(h, r.shots.data(), r.shots.size() * sizeof(ShotId));
    h = FnvValue(h, r.edge_weights.size());
    h = Fnv(h, r.edge_weights.data(), r.edge_weights.size() * sizeof(double));
  }
  return h;
}

StatusOr<Inputs> GenerateInputs(const WorkloadSpec& spec, uint64_t seed,
                                const std::string& dir) {
  Inputs inputs;
  FeatureLevelConfig config = SoccerFeatureLevelDefaults(seed);
  config.num_videos = spec.videos;
  const FeatureLevelGenerator generator(config);
  HMMM_ASSIGN_OR_RETURN(VideoCatalog catalog,
                        VideoCatalog::FromGeneratedCorpus(generator.Generate()));
  inputs.shots = catalog.num_shots();
  HMMM_ASSIGN_OR_RETURN(VideoDatabase db,
                        VideoDatabase::Create(std::move(catalog)));
  inputs.archive_snapshot = dir + "/archive.hmms";
  HMMM_RETURN_IF_ERROR(db.WriteSnapshot(inputs.archive_snapshot));

  if (spec.shards > 0) {
    HMMM_ASSIGN_OR_RETURN(
        std::vector<CatalogShard> shards,
        PartitionForServing(db.catalog(), db.model(), spec.shards));
    inputs.shard_map = dir + "/shards.map";
    HMMM_RETURN_IF_ERROR(SaveShardMap(
        ShardMapFromPartition(shards, db.catalog()), inputs.shard_map));
    for (size_t s = 0; s < shards.size(); ++s) {
      HMMM_ASSIGN_OR_RETURN(
          VideoDatabase slice,
          VideoDatabase::CreateWithModel(std::move(shards[s].catalog),
                                         std::move(shards[s].model)));
      const std::string path = dir + "/shard" + std::to_string(s) + ".hmms";
      HMMM_RETURN_IF_ERROR(slice.WriteSnapshot(path));
      inputs.shard_snapshots.push_back(path);
    }
  }

  std::vector<std::string> patterns =
      SequentialPatterns(db.catalog().vocabulary());
  if (spec.cold_corpus) {
    inputs.corpus = std::move(patterns);
  } else {
    Rng rng(seed * 0x9E3779B97F4A7C15ull + 17);
    rng.Shuffle(patterns);
    patterns.resize(kHotPatterns);
    inputs.corpus = std::move(patterns);
    for (size_t k = 0; k < kHotPatterns; ++k) {
      inputs.corpus_weights.push_back(1.0 / static_cast<double>(k + 1));
    }
  }
  inputs.heap_db = std::make_unique<VideoDatabase>(std::move(db));
  return inputs;
}

size_t MarkIndex(size_t round, size_t results) {
  return results == 0 ? 0 : (round * 7 + 3) % results;
}

GateResult CheckRankings(const Inputs& inputs,
                         const std::vector<const PhaseResult*>& phases) {
  GateResult gate;
  const auto problem = [&gate](const std::string& what) {
    ++gate.mismatches;
    if (gate.first_problem.empty()) gate.first_problem = what;
  };

  // One writer connection issues the rounds in order, so their send and
  // answer times both ascend.
  std::vector<const TrainRound*> trains;
  std::vector<double> train_sent, train_answered;
  for (const PhaseResult* phase : phases) {
    for (const TrainRound& round : phase->trains) {
      trains.push_back(&round);
      train_sent.push_back(round.send_s);
      train_answered.push_back(round.recv_s);
    }
  }
  const size_t generations = trains.size() + 1;

  // A read may observe any generation between the trains answered before
  // it was sent and the trains sent before it was answered.
  struct Read {
    const Sample* sample;
    size_t lo, hi;
  };
  std::vector<Read> reads;
  std::vector<std::set<uint32_t>> needed(generations);
  const auto count_before = [](const std::vector<double>& times, double t) {
    return static_cast<size_t>(std::lower_bound(times.begin(), times.end(), t) -
                               times.begin());
  };
  for (const PhaseResult* phase : phases) {
    for (const Sample& sample : phase->samples) {
      if (!sample.ok) continue;
      const size_t lo = count_before(train_answered, sample.send_s);
      const size_t hi = count_before(train_sent, sample.recv_s);
      reads.push_back({&sample, lo, hi});
      for (size_t g = lo; g <= hi; ++g) needed[g].insert(sample.pattern);
    }
  }
  for (size_t k = 0; k < trains.size(); ++k) {
    if (trains[k]->queried) needed[k].insert(trains[k]->pattern);
  }

  VideoDatabaseOptions options;
  options.query_cache_entries = 0;
  StatusOr<VideoDatabase> reference =
      VideoDatabase::OpenSnapshot(inputs.archive_snapshot, options);
  if (!reference.ok()) {
    problem("reference open failed: " + reference.status().ToString());
    return gate;
  }

  // digests[g][pattern]
  std::vector<std::map<uint32_t, uint64_t>> digests(generations);
  for (size_t g = 0; g < generations; ++g) {
    const std::vector<uint32_t> wanted(needed[g].begin(), needed[g].end());
    std::vector<uint64_t> out(wanted.size(), 0);
    std::vector<char> failed(wanted.size(), 0);
    std::atomic<size_t> next{0};
    const auto work = [&] {
      for (size_t i = next++; i < wanted.size(); i = next++) {
        auto results = reference->Query(inputs.corpus[wanted[i]]);
        if (results.ok()) {
          out[i] = RankingDigest(*results);
        } else {
          failed[i] = 1;
        }
      }
    };
    std::vector<std::thread> helpers;
    for (int t = 1; t < kReferenceThreads && wanted.size() > 64; ++t) {
      helpers.emplace_back(work);
    }
    work();
    for (std::thread& helper : helpers) helper.join();
    for (size_t i = 0; i < wanted.size(); ++i) {
      if (failed[i]) problem("reference query failed: " + inputs.corpus[wanted[i]]);
      digests[g][wanted[i]] = out[i];
    }
    if (g + 1 < generations) {
      const TrainRound& round = *trains[g];
      Status marked = reference->MarkPositive(round.marked);
      StatusOr<bool> trained =
          marked.ok() ? reference->Train() : StatusOr<bool>(marked);
      if (!trained.ok() || !*trained) {
        problem("reference replay of train round " + std::to_string(g) +
                " failed");
      }
    }
  }

  for (const Read& read : reads) {
    ++gate.checked;
    bool matched = false;
    for (size_t g = read.lo; g <= read.hi && !matched; ++g) {
      matched = digests[g][read.sample->pattern] == read.sample->digest;
    }
    if (!matched) {
      problem("ranking mismatch for '" + inputs.corpus[read.sample->pattern] +
              "'");
    }
  }
  for (size_t k = 0; k < trains.size(); ++k) {
    if (!trains[k]->queried) continue;
    ++gate.checked;
    if (digests[k][trains[k]->pattern] != trains[k]->query_digest) {
      problem("writer ranking mismatch in train round " + std::to_string(k));
    }
  }
  return gate;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto below = static_cast<size_t>(std::floor(pos));
  const size_t above = std::min(below + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(below);
  return values[below] + (values[above] - values[below]) * frac;
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

}  // namespace hmmm::loadgen
