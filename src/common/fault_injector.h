#ifndef HMMM_COMMON_FAULT_INJECTOR_H_
#define HMMM_COMMON_FAULT_INJECTOR_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <random>
#include <string>
#include <vector>

namespace hmmm {

/// How one named fault point decides whether a given hit fires. Triggers
/// compose with OR; an all-default config never fires (the point is still
/// hit-counted). All counters are per-point and reset by Reset().
struct FaultPointConfig {
  /// Bernoulli chance per hit, drawn from the injector's seeded RNG.
  double probability = 0.0;
  /// Fire every hit once the point's 0-based hit index reaches this
  /// value (-1 = disabled). `after_hits = 0` fires from the first hit.
  int64_t after_hits = -1;
  /// Fire when the call site's argument is >= this value (-1 = disabled).
  /// Sites pass a semantically meaningful index — e.g. the traversal
  /// passes the Step-7 order index, so a threshold of N simulates a
  /// deadline firing exactly at video N, deterministically.
  int64_t arg_threshold = -1;
  /// Stop firing after this many fires (-1 = unlimited). `max_fires = 1`
  /// models a transient error that a bounded retry should absorb.
  int64_t max_fires = -1;
};

/// Per-point observability snapshot.
struct FaultPointStats {
  std::string point;
  uint64_t hits = 0;
  uint64_t fires = 0;
  bool armed = false;
};

/// Process-wide registry of named fault points for chaos testing. Call
/// sites ask `ShouldFire("storage.read")` at the spot where a failure
/// should be injectable and translate `true` into their natural failure
/// mode (an IOError Status, a thrown task exception, an expired-deadline
/// signal). Sites must use the HMMM_FAULT_FIRED* macros below, which
/// compile to constant `false` unless the build enables
/// HMMM_FAULT_INJECTION, so production binaries carry no probes at all.
///
/// Thread-safe behind one mutex; fault points sit on failure-injection
/// paths that are exercised only in chaos builds, so contention is not a
/// concern. The RNG is seeded explicitly (Seed) so single-threaded chaos
/// schedules replay deterministically.
class FaultInjector {
 public:
  static FaultInjector& Instance();

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Arms (or re-arms) one point. Resets the point's hit/fire counters so
  /// `after_hits` / `max_fires` count from this call.
  void Arm(const std::string& point, FaultPointConfig config);

  /// Disarms one point, keeping its hit counters.
  void Disarm(const std::string& point);

  /// Disarms every point and clears all counters.
  void Reset();

  /// Reseeds the probability RNG.
  void Seed(uint64_t seed);

  /// Records a hit on `point` and returns true when the armed config says
  /// this hit fires. `arg` is an optional call-site index compared
  /// against `arg_threshold` (pass -1 for "no argument").
  bool ShouldFire(const char* point, int64_t arg = -1);

  /// True when any point whose name starts with `prefix` is armed. Lets
  /// subsystems switch into their injectable code path only when a chaos
  /// schedule actually targets them.
  bool ArmedWithPrefix(const std::string& prefix) const;

  uint64_t hits(const std::string& point) const;
  uint64_t fires(const std::string& point) const;

  /// All points ever hit or armed, sorted by name.
  std::vector<FaultPointStats> Snapshot() const;

 private:
  FaultInjector() = default;

  struct PointState {
    FaultPointConfig config;
    bool armed = false;
    uint64_t hit_count = 0;
    uint64_t fire_count = 0;
  };

  mutable std::mutex mutex_;
  std::map<std::string, PointState> points_;
  std::mt19937_64 rng_{0x48'4D'4D'4Dull};  // "HMMM"
};

}  // namespace hmmm

/// Call-site probes. With HMMM_FAULT_INJECTION off (the default) these
/// are the constant `false`, so the surrounding `if` folds away and the
/// injector is never consulted on any hot path.
#ifdef HMMM_FAULT_INJECTION
#define HMMM_FAULT_FIRED(point) \
  (::hmmm::FaultInjector::Instance().ShouldFire(point))
#define HMMM_FAULT_FIRED_ARG(point, arg) \
  (::hmmm::FaultInjector::Instance().ShouldFire(point, (arg)))
#define HMMM_FAULT_ARMED_PREFIX(prefix) \
  (::hmmm::FaultInjector::Instance().ArmedWithPrefix(prefix))
#else
// The disabled stubs still evaluate-and-discard their operands so call
// sites compile identically (no unused-variable warnings) with the
// feature off.
#define HMMM_FAULT_FIRED(point) ((void)(point), false)
#define HMMM_FAULT_FIRED_ARG(point, arg) ((void)(point), (void)(arg), false)
#define HMMM_FAULT_ARMED_PREFIX(prefix) ((void)(prefix), false)
#endif

#endif  // HMMM_COMMON_FAULT_INJECTOR_H_
