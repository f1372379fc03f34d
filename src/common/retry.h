// Retry with capped exponential backoff and deterministic jitter
// (DESIGN.md §12).
//
// Transient failures — a BUSY daemon, a connect() racing server startup, an
// injected fault, a flaky isolated cell — should cost a bounded number of
// re-attempts, not a failed sweep cell or a dead client. Permanent failures
// (bad input, a real bug) must never be retried: the classifier below is the
// single source of truth for which is which.
//
// Jitter is deterministic: attempt k's delay is
//   min(cap, initial * multiplier^k) * (1/2 + u_k/2)
// where u_k comes from a SplitMix64 hash of (seed, k). The same policy and
// seed therefore reproduce the exact same delay sequence, which is what lets
// tests pin it and sweeps stay reproducible.
#ifndef GRAPHALIGN_COMMON_RETRY_H_
#define GRAPHALIGN_COMMON_RETRY_H_

#include <cstdint>
#include <functional>

#include "common/status.h"

namespace graphalign {

// The most retries --retries accepts (CLI submit and the bench harness).
inline constexpr int kMaxRetries = 100;

struct RetryPolicy {
  int max_attempts = 3;            // Total tries, including the first.
  double initial_backoff_ms = 100.0;
  double backoff_multiplier = 2.0;
  double max_backoff_ms = 5000.0;  // Cap applied before jitter.
  uint64_t jitter_seed = 2023;
};

// True for status codes a retry may clear: kUnavailable (transient faults,
// BUSY) and kResourceExhausted (admission control, allocation pressure).
// Everything else — including kDeadlineExceeded, which would just burn the
// same budget again — is permanent.
bool IsTransient(const Status& status);
bool IsTransient(StatusCode code);

// Backoff schedule iterator. NextDelayMs() returns the jittered delay to
// sleep before the next attempt and advances the sequence.
class Backoff {
 public:
  explicit Backoff(const RetryPolicy& policy) : policy_(policy) {}

  double NextDelayMs();
  int attempts_started() const { return attempt_; }

 private:
  RetryPolicy policy_;
  int attempt_ = 0;
};

// Runs `fn` up to policy.max_attempts times, sleeping the jittered backoff
// between attempts, while it returns a transient error. Returns the first
// success, the first permanent error, or the last transient error once
// attempts are exhausted. `on_retry` (optional) observes each scheduled
// retry: (attempt_just_failed [1-based], its status, upcoming delay ms).
Status RetryStatus(
    const RetryPolicy& policy, const std::function<Status()>& fn,
    const std::function<void(int, const Status&, double)>& on_retry = {});

// Sleep used between attempts (std::this_thread under the hood); exposed so
// call sites that must not block the caller can schedule differently.
void SleepForMs(double ms);

}  // namespace graphalign

#endif  // GRAPHALIGN_COMMON_RETRY_H_
