// A PartitionCacheBackend decorator adding retry-with-backoff and a
// circuit breaker in front of any delegate backend. A TuningSession gets
// it by being constructed with the decorated backend.
//
// Semantics layered on the delegate:
//
//   - Get: a storage-layer failure (any non-OK, non-NotFound Status — an
//     existing entry the delegate could not open/read) is retried up to
//     `max_attempts` times with deterministic jittered backoff; a genuine
//     miss (NotFound) is returned immediately and counts as backend
//     health. Put: retried on any non-OK Status the same way.
//   - A run of `breaker.failure_threshold` consecutive exhausted
//     operations opens the breaker: for `breaker.open_sec` every operation
//     is skipped outright (a skipped Get reports NotFound, a skipped Put
//     Unavailable-style Internal),
//     each skip counted, so a wedged shared filesystem costs one
//     failure window, not one timeout per partition per update. After the
//     window one half-open probe operation is let through; its outcome
//     closes or re-opens the breaker.
//
// Failure containment only — the decorator never changes what a healthy
// delegate returns. Maintenance calls (Clear / Size / Trim /
// NoteRehydrationRejected) pass straight through, ungated: they must work
// on a sick backend too.
#ifndef RDFVIEWS_VSEL_ROBUST_RETRYING_CACHE_BACKEND_H_
#define RDFVIEWS_VSEL_ROBUST_RETRYING_CACHE_BACKEND_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "vsel/robust/circuit_breaker.h"
#include "vsel/robust/retry.h"
#include "vsel/serialize/partition_cache.h"

namespace rdfviews::vsel::robust {

class RetryingCacheBackend : public serialize::PartitionCacheBackend {
 public:
  struct Options {
    /// Attempts per operation, including the first.
    size_t max_attempts = 3;
    /// Backoff before the second attempt, doubling per further attempt,
    /// jittered, and capped at 16x (see BackoffDelaySec).
    double backoff_sec = 0.002;
    CircuitBreaker::Options breaker;
  };

  /// Non-owning: `delegate` must outlive the decorator.
  RetryingCacheBackend(serialize::PartitionCacheBackend* delegate,
                       Options options);
  /// Owning: the decorator keeps the delegate alive (the form to hand a
  /// TuningSession).
  RetryingCacheBackend(
      std::shared_ptr<serialize::PartitionCacheBackend> owned,
      Options options);

  Status Get(const std::string& key, Fetched* out) override;
  Status Put(const std::string& key,
             const pipeline::PartitionSearchResult& result) override;
  void Clear() override;
  size_t Size() const override;
  void Trim(size_t max_entries) override;
  Status Invalidate(const std::string& key) override;
  void NoteRehydrationRejected() override;
  /// The delegate's counters plus this decorator's `retries` and
  /// `breaker_skips` (and with breaker-skipped Gets folded into `misses`,
  /// so hit/miss accounting stays coherent for the session).
  Counters counters() const override;

  const CircuitBreaker& breaker() const { return breaker_; }
  serialize::PartitionCacheBackend* delegate() const { return delegate_; }

 private:
  std::shared_ptr<serialize::PartitionCacheBackend> owned_;
  serialize::PartitionCacheBackend* delegate_;
  double backoff_sec_;
  size_t max_attempts_;
  CircuitBreaker breaker_;
  double BackoffDelay(uint64_t stream, size_t attempt) const;
  void RegisterMetrics();

  std::atomic<uint64_t> op_counter_{0};
  std::atomic<uint64_t> retries_{0};
  std::atomic<uint64_t> skipped_gets_{0};
  std::atomic<uint64_t> skipped_puts_{0};
  // Own deltas only (backend="retrying"); the delegate registers its own
  // series, so nothing is double-counted. Last member: unregisters first.
  telemetry::CollectorHandle metrics_;
};

}  // namespace rdfviews::vsel::robust

#endif  // RDFVIEWS_VSEL_ROBUST_RETRYING_CACHE_BACKEND_H_
