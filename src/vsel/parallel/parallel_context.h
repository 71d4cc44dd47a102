// Shared bookkeeping of a parallel search run: the concurrent seen-set, the
// deterministically tie-broken global best, global budget/stop latches, and
// per-worker statistics that are merged on exit. The semantics mirror the
// serial internal::SearchContext member for member; anything observable
// about a *completed* run (the admitted state set, the best state) is
// identical by construction, only scheduling-dependent counters (duplicate
// sightings, traces) may differ.
#ifndef RDFVIEWS_VSEL_PARALLEL_PARALLEL_CONTEXT_H_
#define RDFVIEWS_VSEL_PARALLEL_PARALLEL_CONTEXT_H_

#include <atomic>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "common/arena.h"
#include "common/timer.h"
#include "vsel/cost_model.h"
#include "vsel/options.h"
#include "vsel/parallel/concurrent_seen.h"
#include "vsel/search_internal.h"
#include "vsel/state.h"
#include "vsel/transitions.h"

namespace rdfviews::vsel {

struct SearchResult;

namespace parallel {

/// The running best as an atomically published (cost, fingerprint) record
/// with the engine-wide deterministic tie-breaking (internal::BetterState):
/// lower cost wins, equal costs break on the fingerprint order. A relaxed
/// atomic of the published cost lets workers reject non-improving states
/// without touching the lock; the full record (state copy, fingerprint,
/// improvement trace) lives behind a mutex that is only taken for
/// candidates that might win.
class BestTracker {
 public:
  /// Seeds the tracker with the initial state (records trace point at t=0).
  void Reset(const State& s, double cost);

  /// Offers a candidate; records it iff it beats the current best under the
  /// deterministic order. Returns whether it was recorded.
  bool Offer(const State& s, double cost, double elapsed_sec);

  /// Lock-free upper bound of the best cost (exact between Offers).
  double PublishedCost() const {
    return published_cost_.load(std::memory_order_relaxed);
  }

  State best_state() const;
  double best_cost() const;
  std::vector<std::pair<double, double>> trace() const;

 private:
  std::atomic<double> published_cost_{0};
  mutable std::mutex mu_;
  State state_;
  double cost_ = 0;
  std::vector<std::pair<double, double>> trace_;
};

/// What one worker owns privately: its counters, merged into the run
/// totals when it exits, the arena backing the states it creates, and its
/// transition-outcome table.
struct WorkerLocal {
  SearchStats stats;
  /// Successors counted without being built (see AdmitSuccessor).
  internal::UnbuiltCounts unbuilt;
  /// Never shared across workers; its blocks outlive it via refcounts.
  Arena arena;
  /// This worker's transition outcomes (AdmitSuccessor and its AVF
  /// closure prepare through it).
  TransitionOutcomeTable outcomes;
};

/// Shared context of one parallel run. Construction + Init happen on the
/// caller's thread; afterwards every member is either immutable (options,
/// start state, armed stop conditions), internally synchronized (seen-set,
/// best tracker, latches), or worker-local (the SearchStats each worker
/// accumulates and merges at exit).
class ParallelSearchContext {
 public:
  ParallelSearchContext(const CostModel* cost_model,
                        const HeuristicOptions& heuristics,
                        const SearchLimits& limits);

  /// Mirrors internal::SearchContext::Init: arms stop conditions, seeds the
  /// seen-set and the best with S0 (and its AVF closure when avf is on),
  /// and pre-warms the statistics cache with the relaxations of every atom
  /// of S0 — all patterns the search can ever count — so workers read a
  /// warm, effectively immutable cache.
  void Init(const State& s0);

  /// True once the global time or state budget is exceeded (latched; any
  /// worker observing exhaustion stops all of them).
  bool OutOfBudget();
  bool stopped() const { return stop_.load(std::memory_order_relaxed); }

  struct Admitted {
    State state;
    double cost;
  };

  /// The serial AdmitSuccessor against the shared structures, prepared
  /// through the worker's outcome table: a successor that violates a stop
  /// condition, or whose fingerprint the seen-set already rejects at
  /// `phase`, is counted but never built; every other successor is built,
  /// AVF-closed, checked against the seen-set (with stratum re-opening)
  /// and offered to the best tracker. Counters and closure states go to
  /// the calling worker's `local`.
  std::optional<Admitted> AdmitSuccessor(const State& parent,
                                         const Transition& t, int phase,
                                         WorkerLocal* local);

  /// Merges a worker's local counters into the run totals (call once per
  /// worker, as it exits).
  void MergeWorker(const WorkerLocal& local);

  /// Aggregates everything into the final result.
  SearchResult Finish(bool completed);

  const CostModel* cost;
  HeuristicOptions heur;
  SearchLimits limits;
  TransitionOptions topts;
  Deadline deadline;
  ConcurrentSeenSet seen;
  BestTracker best;
  /// The state the strategies explore from: S0 or its AVF closure.
  State start;

 private:
  internal::StopConditions stop_conditions_;
  /// S0's fingerprint when Init fused S0 (see the serial context).
  std::optional<StateFingerprint> unclosed_s0_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> time_exhausted_{false};
  std::atomic<bool> memory_exhausted_{false};
  std::atomic<bool> cancelled_{false};
  std::mutex stats_mu_;
  SearchStats totals_;  // Init traffic + merged worker counters
  // Merged worker unbuilt counts and transition-outcome hits and misses.
  internal::UnbuiltCounts unbuilt_;
  uint64_t outcome_hits_ = 0;
  uint64_t outcome_misses_ = 0;
};

}  // namespace parallel
}  // namespace rdfviews::vsel

#endif  // RDFVIEWS_VSEL_PARALLEL_PARALLEL_CONTEXT_H_
