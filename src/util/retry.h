// Shared retry policy: capped exponential backoff with decorrelated jitter
// plus the transient-vs-permanent Status classification every retrying call
// site (socket connects, Env I/O) must agree on.
//
// The jitter stream is seeded, so a retrying component is as deterministic
// as its seed: two runs with the same policy sleep the same schedule. That
// matters for the chaos tests, which replay scripted fault schedules and
// must see the same retry cadence every time.

#ifndef TPCP_UTIL_RETRY_H_
#define TPCP_UTIL_RETRY_H_

#include <cstdint>
#include <functional>
#include <string>

#include "util/random.h"
#include "util/status.h"

namespace tpcp {

/// True for failures worth retrying: environmental faults that a later
/// attempt can plausibly not hit (I/O errors, exhausted resources).
/// Everything else — invalid arguments, corruption, refused checkpoints
/// (FailedPrecondition), protocol violations (Internal), cancellation — is
/// permanent: retrying would repeat the same deterministic failure or paper
/// over a real bug.
bool IsTransientStatus(const Status& status);

/// Backoff/attempt budget for one retrying call site.
struct RetryPolicy {
  /// Total tries including the first. 1 disables retries; 0 or negative is
  /// treated as 1.
  int max_attempts = 5;
  /// First retry sleeps up to this long; also the lower bound every later
  /// sleep is jittered above.
  int64_t initial_backoff_ms = 10;
  /// Hard cap on any single sleep.
  int64_t max_backoff_ms = 2000;
  /// Seed for the decorrelated-jitter stream; same seed, same schedule.
  uint64_t jitter_seed = 0x7e7274ull;  // "retr"
};

/// Decorrelated-jitter backoff state: NextDelayMs() yields the sleep before
/// each retry, growing from initial toward max with randomized spread
/// (delay = min(max, uniform(initial, 3 * previous))). Deterministic for a
/// fixed policy.
class Backoff {
 public:
  explicit Backoff(const RetryPolicy& policy);

  /// Delay in ms to sleep before the next retry.
  int64_t NextDelayMs();

 private:
  int64_t initial_ms_;
  int64_t max_ms_;
  int64_t prev_ms_;
  Rng rng_;
};

/// Runs `op` up to policy.max_attempts times, sleeping a jittered backoff
/// between attempts, until it returns OK or a permanent (non-transient)
/// status. Returns the final status; after the attempt budget is spent the
/// last transient error is annotated with the attempt count and `what`.
///
/// `sleep_ms` exists for tests (and for callers that must observe
/// cancellation while waiting); nullptr means "really sleep".
Status RetryWithBackoff(const RetryPolicy& policy, const std::string& what,
                        const std::function<Status()>& op,
                        const std::function<void(int64_t)>* sleep_ms = nullptr);

}  // namespace tpcp

#endif  // TPCP_UTIL_RETRY_H_
