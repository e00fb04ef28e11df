// Bounded retry-with-backoff for transient I/O failures.
//
// The checkpoint engines wrap each idempotent storage mutation in
// retry_io(): a TransientIoError is retried up to the attempt budget with
// exponentially growing (real, microsecond-scale) backoff, while every
// other exception — including plain IoError — propagates immediately.
// Simulated time is never charged for retries; transients model request
// hiccups beneath the resolution of the paper's cost model.
//
// Bounded TOTAL backoff (off by default): the default policy bounds each
// attempt but not their sum; total_backoff_budget caps the cumulative
// sleep, so a retry storm cannot stall a checkpoint longer than the
// budget regardless of the attempt count.
#pragma once

#include <algorithm>
#include <chrono>
#include <thread>

#include "support/error.hpp"

namespace drms::support {

/// Observer hook for transient-fault absorption: notified once per caught
/// TransientIoError (including the final one when the budget is spent), so
/// an observability layer can count retries against the exact fault
/// schedule a test injected. Implemented by obs::Recorder.
class RetryObserver {
 public:
  virtual ~RetryObserver() = default;
  virtual void on_transient_retry(const char* what, int attempt) = 0;
};

struct RetryPolicy {
  /// Total attempts, first try included.
  int attempts = 4;
  /// Real (wall-clock) backoff before attempt k is 2^(k-1) * base.
  std::chrono::microseconds backoff_base{50};
  /// Cap on the SUM of backoff sleeps across all attempts. 0 = unbounded
  /// (legacy: only each attempt's backoff is bounded). A backoff that
  /// would overshoot is clamped to the remainder; once the budget is
  /// spent, the next transient rethrows instead of sleeping again.
  std::chrono::microseconds total_backoff_budget{0};
  /// Optional retry observer (null: no accounting, the zero-overhead
  /// default) and the operation label it sees.
  RetryObserver* observer = nullptr;
  const char* what = "io";
};

/// Backoff before retrying after failed attempt k (1-based): the
/// exponential step. Deterministic: a pure function of (policy, attempt).
[[nodiscard]] inline std::chrono::microseconds retry_backoff(
    const RetryPolicy& policy, int attempt) {
  // Saturate the exponent: a large attempt budget (total_backoff_budget
  // is what bounds the storm then) must not shift past the int width —
  // 2^30 * base is already hours of backoff for any sane base.
  return policy.backoff_base * (1 << std::min(attempt - 1, 30));
}

/// Run `op`, retrying on TransientIoError per `policy`. Returns op()'s
/// result; rethrows the last TransientIoError when the attempt budget —
/// or the total backoff budget — is spent.
template <typename Op>
decltype(auto) retry_io(Op&& op, const RetryPolicy& policy = {}) {
  std::chrono::microseconds slept{0};
  for (int attempt = 1;; ++attempt) {
    try {
      return op();
    } catch (const TransientIoError&) {
      if (policy.observer != nullptr) {
        policy.observer->on_transient_retry(policy.what, attempt);
      }
      if (attempt >= policy.attempts) {
        throw;
      }
      std::chrono::microseconds backoff = retry_backoff(policy, attempt);
      if (policy.total_backoff_budget.count() > 0) {
        // Truncate the FINAL sleep to exactly the remaining budget rather
        // than overshooting it — and the retry that truncated sleep pays
        // for still runs. Only once the budget is spent to the last
        // microsecond does the next transient rethrow instead of
        // sleeping again (the budget bounds the sleeps, never the
        // attempt a completed sleep already bought).
        const std::chrono::microseconds remaining =
            policy.total_backoff_budget - slept;
        if (remaining.count() <= 0) {
          throw;  // total budget exactly exhausted
        }
        backoff = std::min(backoff, remaining);
      }
      std::this_thread::sleep_for(backoff);
      slept += backoff;
    }
  }
}

}  // namespace drms::support
