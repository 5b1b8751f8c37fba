// Load phases: the closed loop (clients send back to back), the open loop
// with its MarkPositive + Train writer, and the client-side assembly of
// traced responses.

#include <algorithm>
#include <thread>
#include <utility>

#include "loadgen.h"
#include "observability/trace_codec.h"

namespace hmmm::loadgen {

uint32_t PickPattern(const Inputs& inputs, Rng& rng) {
  if (!inputs.corpus_weights.empty()) {
    return static_cast<uint32_t>(rng.NextWeighted(inputs.corpus_weights));
  }
  return static_cast<uint32_t>(rng.NextUint64(inputs.corpus.size()));
}

namespace {

/// Request/response pairs kept per phase for the in-process codec probe.
constexpr size_t kRecorded = 32;

/// Seconds since a process-wide epoch, so samples and train rounds of
/// different phases share one time base.
double Since(Clock::time_point t) {
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration<double>(t - epoch).count();
}

QueryClient MakeClient(uint16_t port) {
  QueryClientOptions options;
  options.port = port;
  return QueryClient(options);
}

/// Span time not covered by the union of its children's intervals.
double SelfMs(const TraceSpan& span, std::vector<std::pair<double, double>> kids) {
  const double begin = span.start_offset_ms;
  const double end = begin + span.elapsed_ms;
  std::sort(kids.begin(), kids.end());
  double covered = 0.0, reach = begin;
  for (auto [b, e] : kids) {
    b = std::max(b, reach);
    e = std::min(e, end);
    if (e > b) {
      covered += e - b;
      reach = e;
    }
  }
  return std::max(0.0, span.elapsed_ms - covered);
}

/// Folds one traced response into `figures`: per-span self times summed
/// per query, the time outside the daemon's root span, coordinator fan-out
/// shape and the work counters of cache misses.
void AnalyzeTrace(const TemporalQueryResponse& response, double rtt_ms,
                  TraceFigures* figures) {
  StatusOr<std::vector<TraceSpan>> decoded = DeserializeSpans(response.trace_blob);
  if (!decoded.ok() || decoded->empty()) return;
  // The client span is the root; the daemon's forest is grafted under it,
  // centred (no clock is shared across processes).
  std::vector<TraceSpan> forest(1);
  forest[0].name = "client_query";
  forest[0].id = 0;
  forest[0].elapsed_ms = rtt_ms;
  const TraceSpan* root = nullptr;
  for (const TraceSpan& span : *decoded) {
    if (span.parent < 0) root = &span;
  }
  if (root == nullptr) return;
  const double daemon_ms = root->elapsed_ms;
  GraftSpans(&forest, 0, std::move(decoded).value(),
             std::max(0.0, (rtt_ms - daemon_ms) / 2.0));

  std::map<int, std::vector<std::pair<double, double>>> kids;
  for (const TraceSpan& span : forest) {
    if (span.id == 0) continue;
    kids[span.parent].emplace_back(span.start_offset_ms,
                                   span.start_offset_ms + span.elapsed_ms);
  }
  std::map<std::string, double> self_by_name;
  bool hit = false;
  double slowest = 0.0, fastest = -1.0, coordinator_ms = -1.0;
  for (const TraceSpan& span : forest) {
    if (span.id == 0) continue;
    std::string name = span.name;
    if (name.rfind("video:", 0) == 0) name = "video";
    self_by_name[name] += SelfMs(span, kids[span.id]);
    if (name == "cache_hit") hit = true;
    if (name == "coordinator_query") coordinator_ms = span.elapsed_ms;
    if (name == "shard_fanout") {
      slowest = std::max(slowest, span.elapsed_ms);
      fastest = fastest < 0.0 ? span.elapsed_ms : std::min(fastest, span.elapsed_ms);
    }
  }
  ++figures->traced;
  auto& q = figures->per_query;
  q["rtt_ms"].push_back(rtt_ms);
  q["outside_ms"].push_back(std::max(0.0, rtt_ms - daemon_ms));
  q["unattributed_ms"].push_back(self_by_name["server_query"]);
  if (coordinator_ms >= 0.0) {
    figures->coordinator = true;
    q["coordinator.query_ms"].push_back(coordinator_ms);
    q["coordinator.slowest_shard_ms"].push_back(slowest);
    q["coordinator.merge_ms"].push_back(coordinator_ms - slowest);
    q["coordinator.shard_skew_ms"].push_back(slowest - std::max(0.0, fastest));
  }
  if (hit) return;
  ++figures->misses;
  for (const char* step :
       {"step2_video_order", "query_plan_build", "step7_video_fanout",
        "steps3_5_walk", "step6_eq15_score", "step8_9_merge_rank"}) {
    const auto it = self_by_name.find(step);
    if (it != self_by_name.end()) q[step].push_back(it->second);
  }
  if (response.has_stats) {
    figures->sim_evaluations += static_cast<double>(response.stats.sim_evaluations);
    figures->states_visited += static_cast<double>(response.stats.states_visited);
  }
  // The wire's RetrievalStats predates heap_pops; each video span carries it.
  for (const TraceSpan& span : forest) {
    for (const auto& [counter, value] : span.counters) {
      if (counter == "heap_pops") figures->heap_pops += static_cast<double>(value);
    }
  }
}

void MergeInto(PhaseResult&& from, PhaseResult* to) {
  to->samples.insert(to->samples.end(), from.samples.begin(), from.samples.end());
  to->lateness_ms.insert(to->lateness_ms.end(), from.lateness_ms.begin(),
                         from.lateness_ms.end());
  to->trains.insert(to->trains.end(), from.trains.begin(), from.trains.end());
  to->retries += from.retries;
  to->recorded.insert(to->recorded.end(), from.recorded.begin(),
                      from.recorded.end());
  TraceFigures& t = to->trace;
  for (auto& [name, values] : from.trace.per_query) {
    auto& dest = t.per_query[name];
    dest.insert(dest.end(), values.begin(), values.end());
  }
  t.traced += from.trace.traced;
  t.misses += from.trace.misses;
  t.sim_evaluations += from.trace.sim_evaluations;
  t.heap_pops += from.trace.heap_pops;
  t.states_visited += from.trace.states_visited;
  t.coordinator = t.coordinator || from.trace.coordinator;
}

/// One timed TemporalQuery; fills everything but the open-loop fields.
Sample Query(QueryClient& client, const Inputs& inputs, uint32_t pattern,
             bool traced, TraceFigures* figures,
             std::vector<RetrievedPattern>* results = nullptr) {
  TemporalQueryRequest request;
  request.text = inputs.corpus[pattern];
  request.want_trace = traced;
  request.want_stats = traced;
  Sample sample;
  sample.pattern = pattern;
  const auto sent = Clock::now();
  StatusOr<TemporalQueryResponse> response = client.TemporalQuery(request);
  const auto received = Clock::now();
  sample.send_s = Since(sent);
  sample.recv_s = Since(received);
  sample.latency_ms = MsBetween(sent, received);
  sample.ok = response.ok() && !response->degraded;
  if (!sample.ok) return sample;
  sample.digest = RankingDigest(response->results);
  if (traced) AnalyzeTrace(*response, sample.latency_ms, figures);
  if (results != nullptr) *results = std::move(response->results);
  return sample;
}

/// Keeps an answered query as it went over the wire (untraced requests
/// carry only the pattern text).
void Record(const Inputs& inputs, uint32_t pattern,
            std::vector<RetrievedPattern>* results, PhaseResult* out) {
  TemporalQueryRequest request;
  request.text = inputs.corpus[pattern];
  TemporalQueryResponse response;
  response.results = std::move(*results);
  out->recorded.emplace_back(std::move(request), std::move(response));
}

/// Writer round: a query under the current model (repeated until it
/// answers with at least one result), then MarkPositive on one result and
/// a forced Train, each timed.
TrainRound WriteRound(QueryClient& client, const Inputs& inputs, Rng& rng,
                      size_t round_index) {
  TrainRound round;
  std::vector<RetrievedPattern> results;
  for (int tries = 0; results.empty() && tries < 64; ++tries) {
    const Sample sample = Query(client, inputs, PickPattern(inputs, rng),
                                false, nullptr, &results);
    if (!sample.ok) return round;
    round.queried = true;
    round.pattern = sample.pattern;
    round.query_digest = sample.digest;
  }
  if (results.empty()) return round;
  round.marked = results[MarkIndex(round_index, results.size())];
  MarkPositiveRequest mark;
  mark.pattern = round.marked;
  const auto mark_sent = Clock::now();
  const bool marked = client.MarkPositive(mark).ok();
  round.mark_ms = MsBetween(mark_sent, Clock::now());
  if (!marked) return round;
  const auto sent = Clock::now();
  StatusOr<TrainResponse> trained = client.Train();
  const auto received = Clock::now();
  round.send_s = Since(sent);
  round.recv_s = Since(received);
  round.train_ms = MsBetween(sent, received);
  round.ok = trained.ok() && trained->trained;
  return round;
}

}  // namespace

PhaseResult RunPhase(const WorkloadSpec& spec, const Inputs& inputs,
                     uint16_t port, const PhaseOptions& options) {
  const auto start = Clock::now();
  const auto end = start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(options.seconds));
  const int threads = spec.clients;
  std::vector<PhaseResult> local(static_cast<size_t>(threads));

  const auto closed_client = [&](int t) {
    QueryClient client = MakeClient(port);
    Rng rng(options.seed * 1000003 + static_cast<uint64_t>(t));
    PhaseResult& out = local[static_cast<size_t>(t)];
    std::vector<RetrievedPattern> results;
    while (Clock::now() < end) {
      const bool record = t == 0 && out.recorded.size() < kRecorded;
      out.samples.push_back(Query(client, inputs, PickPattern(inputs, rng),
                                  options.traced, &out.trace,
                                  record ? &results : nullptr));
      if (record && out.samples.back().ok) {
        Record(inputs, out.samples.back().pattern, &results, &out);
      }
    }
    out.retries = client.retries_performed();
  };

  // Open loop: readers share one global schedule (read i is due at
  // start + i / rate, reader r sends every readers-th read), so a stall
  // in one connection shows as latency from the due time, not as a
  // lighter load.
  const int readers = threads - 1;
  const auto open_reader = [&](int r) {
    QueryClient client = MakeClient(port);
    Rng rng(options.seed * 1000003 + static_cast<uint64_t>(r));
    PhaseResult& out = local[static_cast<size_t>(r)];
    std::vector<RetrievedPattern> results;
    for (uint64_t i = static_cast<uint64_t>(r);; i += static_cast<uint64_t>(readers)) {
      const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(
                                       static_cast<double>(i) / spec.rate_qps));
      if (due >= end) break;
      std::this_thread::sleep_until(due);
      out.lateness_ms.push_back(MsBetween(due, Clock::now()));
      const bool record = r == 0 && out.recorded.size() < kRecorded;
      Sample sample = Query(client, inputs, PickPattern(inputs, rng),
                            options.traced, &out.trace,
                            record ? &results : nullptr);
      sample.latency_ms = (sample.recv_s - Since(due)) * 1000.0;
      out.samples.push_back(sample);
      if (record && sample.ok) Record(inputs, sample.pattern, &results, &out);
    }
    out.retries = client.retries_performed();
  };
  const auto open_writer = [&](int w) {
    QueryClient client = MakeClient(port);
    Rng rng(options.seed * 1000003 + 999);
    PhaseResult& out = local[static_cast<size_t>(w)];
    const double period_s = spec.train_every / spec.rate_qps;
    for (size_t k = 1;; ++k) {
      const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(
                                       static_cast<double>(k) * period_s));
      if (due >= end) break;
      std::this_thread::sleep_until(due);
      out.trains.push_back(WriteRound(client, inputs, rng,
                                      options.trains_before + out.trains.size()));
      if (!out.trains.back().ok) break;
    }
    out.retries = client.retries_performed();
  };

  const auto body = [&](int t) {
    if (!spec.open_loop) {
      closed_client(t);
    } else if (t < readers) {
      open_reader(t);
    } else {
      open_writer(t);
    }
  };
  std::vector<std::thread> helpers;
  for (int t = 1; t < threads; ++t) helpers.emplace_back(body, t);
  body(0);
  for (std::thread& helper : helpers) helper.join();

  PhaseResult result;
  for (PhaseResult& part : local) MergeInto(std::move(part), &result);
  double last = Since(start);
  for (const Sample& sample : result.samples) last = std::max(last, sample.recv_s);
  result.wall_s = last - Since(start);
  return result;
}

}  // namespace hmmm::loadgen
