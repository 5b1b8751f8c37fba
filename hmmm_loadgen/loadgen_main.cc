// hmmm_loadgen: one benchmark of the shipped daemons.
//
//   hmmm_loadgen --workload hot_cached --seed 1 --seconds 10 --trace 0
//                --bin-dir BUILD_DIR --work-dir DIR
//
// Generates the workload's archive and query stream from the seed, writes
// them as snapshot files under --work-dir, starts hmmm_serverd (and, for
// the sharded workload, hmmm_coordd) from --bin-dir with their default
// flags, drives them over loopback TCP from this one process and checks
// every ranking against an in-process database. --trace 0 prints the
// end-to-end metrics; --trace 1 runs the same workload traced and prints
// the per-layer metrics. Human-readable report lines come first; the last
// stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <thread>

#include "loadgen.h"

namespace hmmm::loadgen {
namespace {

// Cold starts per run; setup_s is their median.
constexpr int kSetups = 11;
// Windows the untraced measured phase is split into.
constexpr int kWindows = 5;
// The closed-loop workloads' write phase: open-loop reads at a rate well
// below every deployment's capacity, with a MarkPositive + Train round
// every kWriteTrainEvery reads. Train is timed under concurrent reads, as
// in train_mix; on an idle daemon its latency follows whichever (unequally
// loaded) core the worker last ran on.
constexpr double kWriteSeconds = 2.0;
constexpr double kWriteRateQps = 300.0;
constexpr int kWriteTrainEvery = 5;

struct Flags {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string bin_dir;
  std::string work_dir;
};

bool ParseFlags(int argc, char** argv, Flags* flags) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string arg = argv[i];
    const char* value = argv[i + 1];
    if (arg == "--workload") {
      flags->workload = value;
    } else if (arg == "--seed") {
      flags->seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      flags->seconds = std::atof(value);
    } else if (arg == "--trace") {
      flags->trace = std::atoi(value);
    } else if (arg == "--bin-dir") {
      flags->bin_dir = value;
    } else if (arg == "--work-dir") {
      flags->work_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !flags->workload.empty() && !flags->bin_dir.empty() &&
         !flags->work_dir.empty() && flags->seconds > 0.0;
}

/// One reported metric. A metric the workload cannot measure carries the
/// reason instead and is emitted as 0 in the JSON line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string base;    // printed next to ratios and per-query figures
  std::string reason;  // non-empty: not measurable here
};

class Report {
 public:
  void Add(std::string name, double value, std::string unit,
           std::string base = "") {
    metrics_.push_back({std::move(name), value, std::move(unit), std::move(base), ""});
  }
  void Absent(std::string name, std::string unit, std::string reason) {
    metrics_.push_back({std::move(name), 0.0, std::move(unit), "", std::move(reason)});
  }
  void Print(bool correct, uint64_t attempted, uint64_t failed) const {
    for (const Metric& m : metrics_) {
      if (!m.reason.empty()) {
        std::printf("  %-42s n/a (%s)\n", m.name.c_str(), m.reason.c_str());
      } else {
        std::printf("  %-42s %.6g %s%s%s\n", m.name.c_str(), m.value,
                    m.unit.c_str(), m.base.empty() ? "" : "  base: ",
                    m.base.c_str());
      }
    }
    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      char value[64];
      std::snprintf(value, sizeof(value), "%.17g", metrics_[i].value);
      json += (i == 0 ? "\"" : ", \"") + metrics_[i].name + "\": {\"value\": " +
              value + ", \"unit\": \"" + metrics_[i].unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
  }

 private:
  std::vector<Metric> metrics_;
};

/// What /proc and the scrapes say about the deployment at one instant.
struct Snapshot {
  std::vector<ProcSample> procs;  // Deployment::all() order
  Scrape front;
  std::vector<Scrape> backends;
  bool ok = true;
};

Snapshot Observe(Deployment& deployment, bool scrape) {
  Snapshot snap;
  if (scrape) {
    StatusOr<Scrape> front = ScrapeDaemon(deployment.front().port());
    snap.ok = snap.ok && front.ok();
    if (front.ok()) snap.front = std::move(*front);
    for (auto& backend : deployment.backends) {
      StatusOr<Scrape> scraped = ScrapeDaemon(backend->port());
      snap.ok = snap.ok && scraped.ok();
      snap.backends.push_back(scraped.ok() ? std::move(*scraped) : Scrape{});
    }
  }
  for (Daemon* daemon : deployment.all()) {
    StatusOr<ProcSample> proc = daemon->ReadProc();
    snap.ok = snap.ok && proc.ok();
    snap.procs.push_back(proc.ok() ? *proc : ProcSample{});
  }
  return snap;
}

double BackendSum(const Snapshot& snap, const std::string& name) {
  double sum = 0.0;
  for (const Scrape& scrape : snap.backends) sum += scrape.Sum(name);
  return sum;
}

double BackendDelta(const Snapshot& before, const Snapshot& after,
                    const std::string& name) {
  return BackendSum(after, name) - BackendSum(before, name);
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::vector<double> Latencies(const PhaseResult& phase) {
  std::vector<double> out;
  for (const Sample& s : phase.samples) {
    if (s.ok) out.push_back(s.latency_ms);
  }
  return out;
}

size_t Completed(const PhaseResult& phase) {
  size_t n = 0;
  for (const Sample& s : phase.samples) n += s.ok ? 1 : 0;
  for (const TrainRound& t : phase.trains) n += t.queried ? 1 : 0;
  return n;
}

int Run(const Flags& flags) {
  const WorkloadSpec* spec = FindWorkload(flags.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload: %s\n", flags.workload.c_str());
    return 2;
  }
  ::mkdir(flags.work_dir.c_str(), 0755);
  const bool traced = flags.trace != 0;

  StatusOr<Inputs> generated = GenerateInputs(*spec, flags.seed, flags.work_dir);
  if (!generated.ok()) {
    std::fprintf(stderr, "input generation failed: %s\n",
                 generated.status().ToString().c_str());
    return 1;
  }
  Inputs& inputs = *generated;
  if (!traced) inputs.heap_db.reset();  // only the probes need it
  std::printf("workload %s seed %llu: %d videos, %zu shots, %zu patterns, %s\n",
              spec->name.c_str(), static_cast<unsigned long long>(flags.seed),
              spec->videos, inputs.shots, inputs.corpus.size(),
              spec->shards > 0
                  ? (std::to_string(spec->shards) + " shards behind hmmm_coordd").c_str()
                  : "one hmmm_serverd");

  // Set-up: the daemons cold-start from the snapshot files several times;
  // the last deployment serves the load.
  std::vector<double> setup_s;
  uint64_t failed = 0;
  Deployment live;
  for (int i = 0; i < kSetups; ++i) {
    Deployment deployment;
    StatusOr<double> started = StartDeployment(
        *spec, inputs, flags.bin_dir, flags.work_dir, &deployment);
    if (!started.ok()) {
      std::fprintf(stderr, "deployment failed: %s\n",
                   started.status().ToString().c_str());
      return 1;
    }
    setup_s.push_back(*started);
    if (i + 1 < kSetups) {
      // The daemons install their signal handlers just after LISTENING.
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      failed += static_cast<uint64_t>(deployment.TerminateAll());
    } else {
      live = std::move(deployment);
    }
  }
  const uint16_t port = live.front().port();

  PhaseOptions options;
  options.seconds = spec->warmup_s;
  options.seed = flags.seed * 16 + 1;
  const PhaseResult warmup = RunPhase(*spec, inputs, port, options);
  std::vector<const PhaseResult*> phases = {&warmup};

  // Measured phase, untraced, as back-to-back windows: the throughput,
  // latency and CPU figures are medians over windows, so a burst of
  // interference in one window does not move them. The traced run splits
  // its time between one untraced window (scrape deltas, overhead
  // baseline) and a traced phase.
  const int window_count = traced ? 1 : kWindows;
  options.seconds = traced ? flags.seconds / 2 : flags.seconds / kWindows;
  options.trains_before = warmup.trains.size();
  std::vector<PhaseResult> windows;
  std::vector<Snapshot> marks = {Observe(live, true)};
  for (int w = 0; w < window_count; ++w) {
    options.seed = flags.seed * 16 + 2 + static_cast<uint64_t>(w) * 1009;
    windows.push_back(RunPhase(*spec, inputs, port, options));
    marks.push_back(Observe(live, w + 1 == window_count));
    options.trains_before += windows.back().trains.size();
  }
  for (const PhaseResult& window : windows) phases.push_back(&window);
  const Snapshot& before = marks.front();
  const Snapshot& after = marks.back();

  PhaseResult traced_phase;
  if (traced) {
    options.traced = true;
    options.seed = flags.seed * 16 + 3;
    traced_phase = RunPhase(*spec, inputs, port, options);
    phases.push_back(&traced_phase);
    options.trains_before += traced_phase.trains.size();
  }

  // The closed-loop workloads exercise the write path once the reads are
  // done (train_mix writes during its reads instead).
  PhaseResult write_phase;
  if (!spec->open_loop) {
    WorkloadSpec writes = *spec;
    writes.open_loop = true;
    writes.rate_qps = kWriteRateQps;
    writes.train_every = kWriteTrainEvery;
    options.seconds = kWriteSeconds;
    options.traced = false;
    options.seed = flags.seed * 16 + 4;
    write_phase = RunPhase(writes, inputs, port, options);
    phases.push_back(&write_phase);
  }
  const Snapshot final_state = Observe(live, true);
  double mapped_mb = 0.0;
  for (size_t b = 0; b < live.backends.size(); ++b) {
    mapped_mb += live.backends[b]->MappedMb(
        inputs.shard_snapshots.empty() ? inputs.archive_snapshot
                                       : inputs.shard_snapshots[b]);
  }
  failed += static_cast<uint64_t>(live.TerminateAll());
  for (const Snapshot& mark : marks) failed += mark.ok ? 0 : 1;
  failed += final_state.ok ? 0 : 1;

  // Accounting across every phase.
  uint64_t attempted = 0;
  size_t train_calls = 0;
  uint64_t retries = 0;
  std::vector<double> mark_ms, train_ms;
  for (const PhaseResult* phase : phases) {
    attempted += phase->samples.size();
    retries += phase->retries;
    for (const Sample& s : phase->samples) failed += s.ok ? 0 : 1;
    for (const TrainRound& t : phase->trains) {
      attempted += (t.queried ? 1 : 0) + 2;
      failed += t.ok ? 0 : 1;
      train_calls += t.ok ? 1 : 0;
      mark_ms.push_back(t.mark_ms);
      train_ms.push_back(t.train_ms);
    }
  }
  // Each round marks one single-video result, so exactly one backend holds
  // pending feedback and trains when the (broadcast) Train arrives.
  const double train_rounds =
      BackendSum(final_state, "hmmm_feedback_training_rounds_total");
  if (train_rounds != static_cast<double>(train_calls)) {
    std::fprintf(stderr, "%g training rounds for %zu Train calls\n",
                 train_rounds, train_calls);
    ++failed;
  }
  const GateResult gate = CheckRankings(inputs, phases);
  failed += gate.mismatches;
  if (!gate.first_problem.empty()) {
    std::fprintf(stderr, "correctness: %s\n", gate.first_problem.c_str());
  }
  const bool correct = failed == 0;
  std::printf("correctness: %zu rankings checked, %zu mismatches; "
              "error_rate %.6g (%llu failed / %llu attempted)\n",
              gate.checked, gate.mismatches,
              Ratio(static_cast<double>(failed), static_cast<double>(attempted)),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));

  std::vector<double> latencies, lateness_ms;
  for (const PhaseResult& window : windows) {
    const std::vector<double> part = Latencies(window);
    latencies.insert(latencies.end(), part.begin(), part.end());
    lateness_ms.insert(lateness_ms.end(), window.lateness_ms.begin(),
                       window.lateness_ms.end());
  }
  const std::string samples_base = std::to_string(latencies.size()) + " queries";
  Report report;
  if (!traced) {
    std::vector<double> qps, p50, p99, cpu_per_query;
    for (size_t w = 0; w < windows.size(); ++w) {
      const std::vector<double> part = Latencies(windows[w]);
      const double completed = static_cast<double>(Completed(windows[w]));
      double cpu_ms = 0.0;
      for (size_t d = 0; d < marks[w].procs.size(); ++d) {
        cpu_ms += marks[w + 1].procs[d].cpu_ms - marks[w].procs[d].cpu_ms;
      }
      qps.push_back(completed / windows[w].wall_s);
      p50.push_back(Quantile(part, 0.50));
      p99.push_back(Quantile(part, 0.99));
      cpu_per_query.push_back(Ratio(cpu_ms, completed));
    }
    double rss_mb = 0.0;
    for (const ProcSample& proc : after.procs) rss_mb += proc.vm_hwm_mb;
    const std::string windows_base =
        "median of " + std::to_string(windows.size()) + " windows, " + samples_base;
    report.Add("setup_s", Median(setup_s), "s",
               "median of " + std::to_string(kSetups) + " cold starts");
    report.Add("qps", Median(qps), "1/s", windows_base);
    report.Add("latency_p50_ms", Median(p50), "ms", windows_base);
    report.Add("cpu_ms_per_query", Median(cpu_per_query), "ms", windows_base);
    report.Add("rss_mb", rss_mb, "MB", "summed VmHWM");
    // Not gated: the tails follow the host's vCPU preemption (train_mix's
    // p99 spread 0.1-1.2 IQR/median over ten seeds), and a Train timed
    // outside the measured windows follows which core the worker landed on
    // (up to 0.45).
    std::printf("metrics (untraced):\n"
                "  %-42s %.6g ms (not gated; %s)\n"
                "  %-42s %.6g ms (not gated)\n"
                "  %-42s %.6g ms (not gated; %zu Train calls)\n",
                "latency_p99_ms", Median(p99), windows_base.c_str(),
                "latency_p999_ms", Quantile(latencies, 0.999), "train_p50_ms",
                Median(train_ms), train_ms.size());
    if (spec->open_loop) {
      std::printf("  %-42s %.6g ms p50, %.6g ms p99, %.6g ms max\n",
                  "generator lateness", Quantile(lateness_ms, 0.5),
                  Quantile(lateness_ms, 0.99), Quantile(lateness_ms, 1.0));
    }
    report.Print(correct, attempted, failed);
    return 0;
  }

  // -- Traced run: per-layer metrics. --
  const TraceFigures& tf = traced_phase.trace;
  const auto per_query = [&tf](const std::string& name) {
    const auto it = tf.per_query.find(name);
    return it == tf.per_query.end() ? std::vector<double>{} : it->second;
  };
  const std::string traced_base = std::to_string(tf.traced) + " traced queries";
  const std::string miss_base = std::to_string(tf.misses) + " traced misses";
  const double queries = BackendDelta(before, after, "hmmm_queries_total");
  const std::string query_base = std::to_string(static_cast<size_t>(queries)) +
                                 " database queries";
  const std::string no_coordinator = "no coordinator in this deployment";
  const std::string no_misses = "no traced query missed the cache";

  report.Add("client.retries", static_cast<double>(retries), "count");
  report.Add("server.outside_ms.p50", Median(per_query("outside_ms")), "ms",
             traced_base);
  // The front daemon's own server series; a coordinator re-exports its
  // shards' series under a shard label, which front_delta leaves out.
  const auto front_delta = [&](const std::string& name, const std::string& label = "") {
    return after.front.Sum(name, label, true) - before.front.Sum(name, label, true);
  };
  const double handled = front_delta("hmmm_server_request_latency_ms_count");
  report.Add("server.handler_ms.mean",
             Ratio(front_delta("hmmm_server_request_latency_ms_sum"), handled), "ms",
             std::to_string(static_cast<size_t>(handled)) + " requests");
  const std::map<std::string, double> probes = RunProbes(inputs, phases, flags.seed);
  const auto probe = [&](const std::string& name, const std::string& unit,
                         const std::string& reason) {
    const auto it = probes.find(name);
    if (it == probes.end()) {
      report.Absent(name, unit, reason);
    } else {
      report.Add(name, it->second, unit, "in-process");
    }
  };
  probe("server.codec_us.p50", "us", "no untraced response was recorded");
  const double temporal =
      front_delta("hmmm_server_requests_total", "type=\"temporal_query\"");
  const double bytes = front_delta("hmmm_server_bytes_read_total") +
                       front_delta("hmmm_server_bytes_written_total");
  report.Add("server.bytes_per_query", Ratio(bytes, temporal), "B",
             std::to_string(static_cast<size_t>(temporal)) + " temporal queries");
  int threads = 0;
  for (const ProcSample& p : after.procs) threads += p.threads;
  report.Add("server.threads", threads, "count");
  probe("query.compile_us.p50", "us", "");
  probe("api.query_ms.p50", "ms", "");
  probe("api.uncached_query_ms.p50", "ms", "");
  report.Add("api.db_query_ms.mean",
             Ratio(BackendDelta(before, after, "hmmm_query_latency_ms_sum"),
                   BackendDelta(before, after, "hmmm_query_latency_ms_count")),
             "ms", query_base);
  probe("api.train_ms.p50", "ms", "no drawn pattern returned a result to mark");
  probe("retrieval.engine_query_ms.p50", "ms", "");
  probe("retrieval.index_build_ms.p50", "ms", "");
  const double hits = BackendDelta(before, after, "hmmm_query_cache_hits_total");
  const double lookups =
      hits + BackendDelta(before, after, "hmmm_query_cache_misses_total");
  report.Add("retrieval.cache_hit_ratio", Ratio(hits, lookups), "ratio",
             std::to_string(static_cast<size_t>(lookups)) + " lookups");
  report.Add("retrieval.cache_lookups", lookups, "count");
  const double misses = static_cast<double>(tf.misses);
  if (tf.misses == 0) {
    for (const char* name :
         {"retrieval.sim_evaluations_per_query", "retrieval.heap_pops_per_query",
          "retrieval.states_visited_per_query"}) {
      report.Absent(name, "count", no_misses);
    }
  } else {
    report.Add("retrieval.sim_evaluations_per_query", tf.sim_evaluations / misses,
               "count", miss_base);
    report.Add("retrieval.heap_pops_per_query", tf.heap_pops / misses, "count",
               miss_base);
    report.Add("retrieval.states_visited_per_query", tf.states_visited / misses,
               "count", miss_base);
  }
  report.Add("retrieval.traced_misses", misses, "count");
  report.Add("retrieval.pool_busy_ms_per_query",
             Ratio(BackendDelta(before, after, "hmmm_pool_busy_ms"), queries), "ms",
             query_base);
  report.Add("retrieval.pool_tasks_per_query",
             Ratio(BackendDelta(before, after, "hmmm_pool_tasks_executed"), queries),
             "count", query_base);
  for (const char* step : {"step2_video_order", "query_plan_build",
                           "step7_video_fanout", "steps3_5_walk",
                           "step6_eq15_score", "step8_9_merge_rank"}) {
    const std::string name = std::string("retrieval.") + step + "_ms.p50";
    const std::vector<double> values = per_query(step);
    if (values.empty()) {
      report.Absent(name, "ms", no_misses);
    } else {
      report.Add(name, Median(values), "ms",
                 std::to_string(values.size()) + " traced misses, self time");
    }
  }
  if (tf.coordinator) {
    report.Add("coordinator.query_ms.p50", Median(per_query("coordinator.query_ms")),
               "ms", traced_base);
    report.Add("coordinator.slowest_shard_ms.p50",
               Median(per_query("coordinator.slowest_shard_ms")), "ms", traced_base);
    report.Add("coordinator.merge_ms.p50", Median(per_query("coordinator.merge_ms")),
               "ms", traced_base);
    report.Add("coordinator.shard_skew_ms.p99",
               Quantile(per_query("coordinator.shard_skew_ms"), 0.99), "ms",
               traced_base);
    report.Add("coordinator.connections_created",
               final_state.front.Sum("hmmm_coordinator_shard_connections_created"),
               "count");
  } else {
    for (const char* name :
         {"coordinator.query_ms.p50", "coordinator.slowest_shard_ms.p50",
          "coordinator.merge_ms.p50", "coordinator.shard_skew_ms.p99"}) {
      report.Absent(name, "ms", no_coordinator);
    }
    report.Absent("coordinator.connections_created", "count", no_coordinator);
  }
  report.Add("feedback.mark_ms.p50", Median(mark_ms), "ms",
             std::to_string(mark_ms.size()) + " MarkPositive calls");
  report.Add("feedback.train_ms.p50", Median(train_ms), "ms",
             std::to_string(train_ms.size()) + " Train calls under reads");
  report.Add("feedback.train_rounds", train_rounds, "count",
             std::to_string(train_calls) + " Train calls");
  probe("snapshot.open_ms", "ms", "");
  // hmmm_serverd maps its snapshot without a metrics sink, so
  // hmmm_snapshot_mapped_bytes is never exported; /proc/<pid>/maps is.
  report.Add("snapshot.mapped_mb", mapped_mb, "MB", "from /proc/<pid>/maps");
  const double untraced_p50 = Quantile(latencies, 0.5);
  const double traced_p50 = Quantile(Latencies(traced_phase), 0.5);
  report.Add("observability.trace_overhead_ms.p50", traced_p50 - untraced_p50, "ms",
             "traced p50 " + std::to_string(traced_p50) + " - untraced p50 " +
                 std::to_string(untraced_p50));
  const double residual = Median(per_query("unattributed_ms"));
  report.Add("observability.unattributed_ms.p50", residual, "ms",
             "server_query self time; " +
                 std::to_string(100.0 * Ratio(residual, Median(per_query("rtt_ms")))) +
                 "% of traced RTT p50");
  report.Add("observability.traced_queries", static_cast<double>(tf.traced), "count");
  std::printf("metrics (traced run):\n");
  report.Print(correct, attempted, failed);
  return 0;
}

}  // namespace
}  // namespace hmmm::loadgen

int main(int argc, char** argv) {
  hmmm::loadgen::Flags flags;
  if (!hmmm::loadgen::ParseFlags(argc, argv, &flags)) {
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
                 "--bin-dir DIR --work-dir DIR\n",
                 argv[0]);
    return 2;
  }
  return hmmm::loadgen::Run(flags);
}
