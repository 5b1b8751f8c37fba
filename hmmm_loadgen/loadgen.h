#ifndef HMMM_LOADGEN_LOADGEN_H_
#define HMMM_LOADGEN_LOADGEN_H_

// hmmm_loadgen: drives the shipped hmmm_serverd / hmmm_coordd daemons over
// loopback TCP with seeded workloads and reports end-to-end and per-layer
// metrics. Declarations shared by the package's translation units.

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "api/video_database.h"
#include "client/query_client.h"
#include "common/rng.h"
#include "common/status.h"

namespace hmmm::loadgen {

using Clock = std::chrono::steady_clock;

double MsBetween(Clock::time_point from, Clock::time_point to);

// -- Workloads and their seeded inputs --------------------------------------

struct WorkloadSpec {
  std::string name;
  int videos = 0;
  /// 0 = one hmmm_serverd; N = hmmm_coordd over N shard servers.
  int shards = 0;
  /// Query corpus: false = 16 patterns drawn with a Zipf law (the cache
  /// holds all of them), true = every 2-4 step sequential pattern, uniform.
  bool cold_corpus = false;
  /// Open loop at `rate_qps` with a MarkPositive + Train writer every
  /// `train_every` reads; closed loop over `clients` connections otherwise.
  bool open_loop = false;
  double rate_qps = 0.0;
  int train_every = 0;
  int clients = 4;
  double warmup_s = 0.0;
};

/// The named workloads; null for an unknown name.
const WorkloadSpec* FindWorkload(const std::string& name);

/// Everything the daemons and the correctness gate read, generated from
/// the seed and written to `dir` through the library's public calls.
struct Inputs {
  std::string archive_snapshot;                // unsharded .hmms
  std::vector<std::string> shard_snapshots;    // one .hmms per shard
  std::string shard_map;                       // shards.map ("" unsharded)
  std::vector<std::string> corpus;             // pattern texts
  /// Zipf weights over `corpus` (empty = uniform).
  std::vector<double> corpus_weights;
  size_t shots = 0;
  /// The heap-built database the files were written from.
  std::unique_ptr<VideoDatabase> heap_db;
};

StatusOr<Inputs> GenerateInputs(const WorkloadSpec& spec, uint64_t seed,
                                const std::string& dir);

/// Draws a corpus index: Zipf-weighted for the hot corpus, else uniform.
uint32_t PickPattern(const Inputs& inputs, Rng& rng);

/// Every sequential 2..4-step pattern over the vocabulary ("a ; b ; c").
std::vector<std::string> SequentialPatterns(const EventVocabulary& vocabulary);

/// Order-sensitive 64-bit digest of a ranking: every shot id, video id and
/// the bit patterns of every score, so equal digests mean byte-identical
/// rankings (up to hash collisions).
uint64_t RankingDigest(const std::vector<RetrievedPattern>& results);

// -- Daemon processes ---------------------------------------------------------

/// CPU, peak RSS and thread count read from /proc/<pid>.
struct ProcSample {
  double cpu_ms = 0.0;
  double vm_hwm_mb = 0.0;
  int threads = 0;
};

/// One spawned daemon. Its stdout is a pipe read with blocking reads; its
/// stderr goes to a log file. The destructor kills and reaps a daemon
/// still running (error paths only — the normal end is Terminate()).
class Daemon {
 public:
  Daemon() = default;
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Starts `binary args...`.
  Status Spawn(const std::string& binary, const std::vector<std::string>& args,
               const std::string& log_path);
  /// Blocks until the daemon prints `LISTENING port=N`; returns N.
  StatusOr<uint16_t> WaitListening();
  /// SIGTERM, then waits for the exit; OK only for a clean exit 0.
  Status Terminate();

  pid_t pid() const { return pid_; }
  uint16_t port() const { return port_; }

  StatusOr<ProcSample> ReadProc() const;
  /// Bytes of `path` this process has mapped (from /proc/<pid>/maps).
  double MappedMb(const std::string& path) const;

 private:
  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  uint16_t port_ = 0;
  std::string log_path_;
  std::string pending_;  // stdout bytes read past the last full line
};

/// The daemons of one deployment: `backends` hold the database (one
/// server, or the shard servers), `coordinator` is set when sharded.
struct Deployment {
  std::vector<std::unique_ptr<Daemon>> backends;
  std::unique_ptr<Daemon> coordinator;

  /// The daemon clients talk to.
  Daemon& front() { return coordinator ? *coordinator : *backends.front(); }
  std::vector<Daemon*> all();
  /// SIGTERM every daemon (front first) and reap it; counts unclean exits.
  int TerminateAll();
};

/// Spawns the deployment with the shipped default flags and returns the
/// seconds from the first spawn until every daemon printed LISTENING and
/// answered Health.
StatusOr<double> StartDeployment(const WorkloadSpec& spec, const Inputs& inputs,
                                 const std::string& bin_dir,
                                 const std::string& log_dir,
                                 Deployment* deployment);

// -- Metrics scrapes ----------------------------------------------------------

/// A parsed Prometheus text scrape: series ("name{labels}") -> value.
struct Scrape {
  std::map<std::string, double> series;

  /// Sum of every series of family `name` whose labels contain `label`
  /// (e.g. `type="temporal_query"`; empty matches all). Families
  /// re-exported by a coordinator carry a `shard` label; `skip_sharded`
  /// leaves those out so a daemon's own series are not counted twice.
  double Sum(const std::string& name, const std::string& label = "",
             bool skip_sharded = false) const;
};

Scrape ParsePrometheus(const std::string& text);
StatusOr<Scrape> ScrapeDaemon(uint16_t port);

// -- Traffic --------------------------------------------------------------

/// One answered (or failed) temporal query. Times are seconds on one
/// process-wide clock, so samples of different phases can be ordered.
struct Sample {
  double send_s = 0.0;
  double recv_s = 0.0;
  double latency_ms = 0.0;  // closed loop: RTT; open loop: from the due time
  uint32_t pattern = 0;
  uint64_t digest = 0;
  bool ok = false;
};

/// Client-side per-layer figures assembled from traced responses.
struct TraceFigures {
  std::map<std::string, std::vector<double>> per_query;  // name -> samples
  size_t traced = 0;
  size_t misses = 0;
  double sim_evaluations = 0.0;
  double heap_pops = 0.0;
  double states_visited = 0.0;
  bool coordinator = false;
};

/// One MarkPositive + Train round issued by the writer connection.
struct TrainRound {
  /// The round ran its own query (`pattern`, `query_digest`) first.
  bool queried = false;
  uint32_t pattern = 0;
  RetrievedPattern marked;
  uint64_t query_digest = 0;
  double send_s = 0.0;  // Train sent
  double recv_s = 0.0;  // Train answered
  double mark_ms = 0.0;
  double train_ms = 0.0;
  bool ok = false;
};

struct PhaseResult {
  std::vector<Sample> samples;
  std::vector<TrainRound> trains;
  double wall_s = 0.0;
  /// Open loop: how late the generator sent, ms.
  std::vector<double> lateness_ms;
  uint64_t retries = 0;
  TraceFigures trace;
  /// A few answered queries as sent and received (closed loop, first
  /// client), replayed through the wire codecs by the codec probe.
  std::vector<std::pair<TemporalQueryRequest, TemporalQueryResponse>> recorded;
};

struct PhaseOptions {
  double seconds = 0.0;
  bool traced = false;
  uint64_t seed = 0;
  /// Train rounds issued before this phase (continues the schedule).
  size_t trains_before = 0;
};

/// Runs one load phase against `port` from at most `spec.clients`
/// threads (the calling thread is one of them), each with its own
/// connection.
PhaseResult RunPhase(const WorkloadSpec& spec, const Inputs& inputs,
                     uint16_t port, const PhaseOptions& options);

/// Picks the result a writer marks positive; shared with the replay.
size_t MarkIndex(size_t round, size_t results);

// -- Correctness gate -----------------------------------------------------

struct GateResult {
  size_t checked = 0;
  size_t mismatches = 0;
  std::string first_problem;
};

/// Replays every served ranking against an in-process VideoDatabase opened
/// from the unsharded snapshot. `phases` are in issue order; train rounds
/// are replayed in order and each read is matched against the model
/// generations it may have observed.
GateResult CheckRankings(const Inputs& inputs,
                         const std::vector<const PhaseResult*>& phases);

// -- In-process layer probes (traced run only) ------------------------------

/// Runs every probe and returns metric name -> value (a probe that cannot
/// run on these inputs leaves its name out).
std::map<std::string, double> RunProbes(
    const Inputs& inputs, const std::vector<const PhaseResult*>& phases,
    uint64_t seed);

// -- Statistics -------------------------------------------------------------

/// Linear-interpolated quantile (q in [0, 1]); 0 for no samples.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);

}  // namespace hmmm::loadgen

#endif  // HMMM_LOADGEN_LOADGEN_H_
