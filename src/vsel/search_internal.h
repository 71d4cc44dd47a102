// Shared search-bookkeeping context used by the strategies and the [21]
// competitor re-implementations. Internal header.
#ifndef RDFVIEWS_VSEL_SEARCH_INTERNAL_H_
#define RDFVIEWS_VSEL_SEARCH_INTERNAL_H_

#include <optional>
#include <unordered_map>

#include "common/arena.h"
#include "common/hash.h"
#include "common/telemetry/metrics.h"
#include "common/timer.h"
#include "vsel/cost_model.h"
#include "vsel/options.h"
#include "vsel/state.h"
#include "vsel/transitions.h"

namespace rdfviews::vsel {

struct SearchResult;

namespace internal {

extern const int kNumPhases;

/// Adds one search's step counters to the registry. Each search counts
/// them locally and adds its totals once, when it finishes:
///   - vsel_successors_skipped_total: successors recognized as known
///     duplicates before they were built;
///   - vsel_transition_outcome_hits_total / _misses_total: preparations
///     its transition-outcome tables answered from a recorded outcome, and
///     those that ran PrepareTransition and recorded one.
void AddStepCounters(uint64_t skipped, uint64_t outcome_hits,
                     uint64_t outcome_misses);

/// The deterministic better-than order on (cost, fingerprint) pairs used by
/// every strategy (serial and parallel) to track the running best: lower
/// cost wins, equal costs are broken by the fixed fingerprint order. The
/// best of a fully explored space is therefore a function of the explored
/// *set*, not of the exploration schedule — the property the parallel
/// engine relies on to report identical bests at every thread count.
inline bool BetterState(double cost, const StateFingerprint& fp,
                        double best_cost, const StateFingerprint& best_fp) {
  return cost < best_cost ||
         (cost == best_cost && Hash128Less(fp, best_fp));
}

/// Arms the stop_tt / stop_var conditions: a condition already satisfied by
/// S0 itself is disabled (Sec. 5.2).
inline void ArmStopConditions(const State& s0, bool* stop_var_active,
                              bool* stop_tt_active) {
  *stop_var_active = true;
  *stop_tt_active = true;
  for (const View& v : s0.views()) {
    if (v.def.NumConstants() == 0) *stop_var_active = false;
    if (v.def.len() == 1 && v.def.NumConstants() == 0 &&
        v.def.BodyVars().size() == 3) {
      *stop_tt_active = false;
    }
  }
}

/// The stop_var / stop_tt state filters (Sec. 5.2), evaluated against the
/// armed flags computed by ArmStopConditions.
inline bool StateViolatesStopConditions(const State& s,
                                        const HeuristicOptions& heur,
                                        bool stop_var_active,
                                        bool stop_tt_active) {
  if (heur.stop_var && stop_var_active) {
    for (const View& v : s.views()) {
      if (v.def.NumConstants() == 0) return true;
    }
  }
  if (heur.stop_tt && stop_tt_active) {
    for (const View& v : s.views()) {
      if (v.def.len() == 1 && v.def.NumConstants() == 0 &&
          v.def.BodyVars().size() == 3) {
        return true;
      }
    }
  }
  return false;
}

/// Bookkeeping shared by all strategies: duplicate detection (by the
/// incrementally maintained 128-bit state fingerprint, with stratum
/// re-opening), AVF closure, stop conditions, best state tracking and
/// budget enforcement.
class SearchContext {
 public:
  SearchContext(const CostModel* cost_model,
                const HeuristicOptions& heuristics,
                const SearchLimits& limits);

  void Init(const State& s0);

  /// True once the time or state budget is exceeded or a cooperative stop
  /// was requested (and records which).
  bool OutOfBudget();

  /// Records a best-cost improvement in the stats trace and forwards it to
  /// the limits.on_progress observer, if any.
  void NotifyBest(double cost);

  struct Admitted {
    State state;
    double cost;
  };

  /// Processes a freshly produced state: applies AVF closure, stop
  /// conditions and duplicate detection, and tracks the best state.
  /// `phase` is the stratum (transition kind) that produced the state.
  std::optional<Admitted> Admit(State s, int phase);

  /// Processes the successor of `parent` under `t`, prepared through
  /// `outcomes`. A known duplicate (see KnownDuplicate) is counted exactly
  /// as Admit would count it but never built; every other successor is
  /// built and handed to Admit.
  std::optional<Admitted> AdmitSuccessor(const State& parent,
                                         const Transition& t, int phase);

  /// True when Admit would reject a successor with fingerprint `fp` at
  /// `phase` as a duplicate, whatever its AVF closure.
  bool KnownDuplicate(const StateFingerprint& fp, int phase) const;

  bool ViolatesStopConditions(const State& s) const;

  SearchResult Finish(bool completed);

  const CostModel* cost;
  HeuristicOptions heur;
  SearchLimits limits;
  TransitionOptions topts;
  Deadline deadline;
  SearchStats stats;
  /// Backs the flat storage of every state this context's run creates
  /// (ApplyTransition / AvfClosure route through it). Single-threaded by
  /// construction — one SearchContext per serial run. States escaping the
  /// run (the best) stay valid past the context: arena blocks are
  /// reference counted by the spans that live in them.
  Arena arena;
  // fingerprint -> min stratum at which the state was reached
  std::unordered_map<StateFingerprint, int, Hash128Hasher> seen;
  /// S0's fingerprint when Init fused S0: it is in `seen`, but S0 is not
  /// AVF-closed, so it never proves a successor a duplicate.
  std::optional<StateFingerprint> unclosed_s0;
  /// Successors KnownDuplicate skipped; Finish reports them.
  uint64_t skipped = 0;
  /// This search's transition outcomes (AdmitSuccessor and Admit's AVF
  /// closure prepare through it); Finish reports its hits and misses.
  TransitionOutcomeTable outcomes;
  State best;
  /// The state the strategies explore from: S0, or its AVF closure when
  /// aggressive view fusion is on (VF only ever improves the cost, so the
  /// fused state dominates S0 and shrinks the space).
  State start;
  double best_cost = 0;
  bool stop_var_active = true;
  bool stop_tt_active = true;
};

}  // namespace internal
}  // namespace rdfviews::vsel

#endif  // RDFVIEWS_VSEL_SEARCH_INTERNAL_H_
