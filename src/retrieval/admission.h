#ifndef HMMM_RETRIEVAL_ADMISSION_H_
#define HMMM_RETRIEVAL_ADMISSION_H_

#include <chrono>

namespace hmmm {

/// Admission control for RetrievalEngine's Retrieve/Query entry points
/// (a VideoDatabase configures its engine's through
/// VideoDatabaseOptions::admission): bounds the number of in-flight
/// retrievals so an overloaded instance sheds load with a fast
/// kResourceExhausted instead of queueing unboundedly and missing every
/// deadline.
struct AdmissionOptions {
  /// Retrievals allowed to run concurrently. 0 = unlimited (default:
  /// admission control off, zero overhead beyond one mutex hop).
  int max_concurrent = 0;
  /// Callers allowed to park waiting for a slot once max_concurrent is
  /// reached; anyone beyond this fast-fails. 0 = no waiting at all.
  int max_queued = 0;
  /// How long a parked caller waits for a slot before giving up with
  /// kResourceExhausted.
  std::chrono::milliseconds max_queue_wait{50};
};

}  // namespace hmmm

#endif  // HMMM_RETRIEVAL_ADMISSION_H_
