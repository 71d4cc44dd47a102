// Deterministic retry backoff, shared by the pipeline's per-partition
// containment loop (search_stage.cc) and the RetryingCacheBackend
// decorator.
//
// The backoff for attempt k of stream s (a partition index, or a backend
// operation counter) is
//
//   min(initial * 2^(k-2) * jitter(s, k), max)
//
// with jitter a deterministic uniform draw in [0.5, 1.0] — so two runs with
// the same plan sleep the same sequence (chaos tests can assert exact
// convergence), while distinct partitions retrying the same shared resource
// still decorrelate. Sleeps honor a stop token at millisecond granularity:
// cancelling an update never waits out a backoff.
#ifndef RDFVIEWS_VSEL_ROBUST_RETRY_H_
#define RDFVIEWS_VSEL_ROBUST_RETRY_H_

#include <cstddef>
#include <cstdint>

#include "common/stop_token.h"

namespace rdfviews::vsel::robust {

/// Backoff in seconds to sleep *before* attempt `attempt` (2-based: the
/// first attempt never sleeps, so BackoffDelaySec(i, m, s, 1) == 0):
/// `initial_sec` doubled per further attempt, jittered deterministically
/// from (stream, attempt) and capped at `max_sec`; callers additionally
/// clip to their remaining time budget.
double BackoffDelaySec(double initial_sec, double max_sec, uint64_t stream,
                       size_t attempt);

/// Sleeps up to `sec` seconds, polling `stop` (when non-null) every
/// millisecond; returns the seconds actually slept. Non-positive `sec`
/// returns immediately.
double SleepWithStop(double sec, const StopToken* stop);

}  // namespace rdfviews::vsel::robust

#endif  // RDFVIEWS_VSEL_ROBUST_RETRY_H_
