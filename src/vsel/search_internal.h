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

/// Successors a search counted without building them.
struct UnbuiltCounts {
  /// Known duplicates.
  uint64_t duplicates = 0;
  /// Successors that violate a stop condition.
  uint64_t discarded = 0;
};

/// Adds one search's step counters to the registry. Each search counts
/// them locally and adds its totals once, when it finishes:
///   - vsel_successors_skipped_total: successors recognized as known
///     duplicates before they were built;
///   - vsel_successors_discarded_unbuilt_total: successors discarded by a
///     stop condition before they were built;
///   - vsel_transition_outcome_hits_total / _misses_total: preparations
///     its transition-outcome tables answered from a recorded outcome, and
///     those that ran PrepareTransition and recorded one.
void AddStepCounters(const UnbuiltCounts& unbuilt, uint64_t outcome_hits,
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

/// The stop_var / stop_tt state filters (Sec. 5.2) a search enforces.
struct StopConditions {
  /// stop_var: no view may be free of constants.
  bool var = false;
  /// stop_tt: no view may be the whole triple table.
  bool tt = false;
};

/// True when `v` violates one of the `stop` conditions. Both read only the
/// view's body, so views with isomorphic bodies agree.
inline bool ViewViolatesStopConditions(const View& v,
                                       const StopConditions& stop) {
  if (v.def.NumConstants() != 0) return false;
  return stop.var ||
         (stop.tt && v.def.len() == 1 && v.def.BodyVars().size() == 3);
}

inline bool StateViolatesStopConditions(const State& s,
                                        const StopConditions& stop) {
  for (const View& v : s.views()) {
    if (ViewViolatesStopConditions(v, stop)) return true;
  }
  return false;
}

/// The conditions `heur` turns on, less any that S0 itself violates
/// (Sec. 5.2), so S0 passes the armed conditions.
inline StopConditions ArmStopConditions(const State& s0,
                                        const HeuristicOptions& heur) {
  StopConditions stop{.var = heur.stop_var, .tt = heur.stop_tt};
  for (const View& v : s0.views()) {
    if (ViewViolatesStopConditions(v, {.var = true})) stop.var = false;
    if (ViewViolatesStopConditions(v, {.tt = true})) stop.tt = false;
  }
  return stop;
}

/// The fusions AVF would apply to the successor of `parent` under `t`
/// whose new views are `first` and `second` (null when there is one): the
/// successor's view count minus its number of distinct BodyKeys. `parent`
/// must be AVF-closed, so its BodyKeys are distinct and each new view
/// fuses once iff its BodyKey is that of a view the transition keeps or of
/// the other new view.
size_t AvfFusions(const State& parent, const Transition& t, const View& first,
                  const View* second);

/// The full path of a successor PrepareSuccessor discards, for debug
/// checks: true when the successor, prepared and built without an outcome
/// table or an arena and AVF-closed when `avf` is on, violates `stop`
/// after exactly `fusions` fusions.
bool FullPathDiscards(const State& parent, const Transition& t,
                      const StopConditions& stop, bool avf, size_t fusions);

/// The first half of both engines' AdmitSuccessor. Prepares the successor
/// of `parent` under `t` through `outcomes` and decides its fate from its
/// fingerprint and new views, before building it:
///   - kDiscard when a new view violates `stop`. It is counted into
///     `*stats` exactly as building, AVF-closing and then discarding it
///     would count it: created 1 + k, transitions_applied 1 and discarded
///     k + 1, where k is the number of fusions its AVF closure would apply
///     (0 with AVF off).
///   - kDuplicate when `known_duplicate(fp)` holds for its fingerprint fp.
///     It is counted as a built successor found in the seen set is.
///   - kBuild otherwise, with `*prepared` fully prepared.
/// Unbuilt successors are also counted into `*unbuilt`.
///
/// Why a discard is exact: every parent a strategy expands passes the
/// armed conditions (S0 by ArmStopConditions, every other parent because
/// it was admitted) and, with AVF on, is AVF-closed. Both conditions read
/// only view bodies, and AVF fuses only views with isomorphic bodies, so
/// the built and closed successor violates them iff one of its new views
/// does. A violating successor can never be a known duplicate: every state
/// `known_duplicate` accepts passed the conditions.
template <typename KnownDuplicate>
SuccessorFate PrepareSuccessor(const State& parent, const Transition& t,
                               const StopConditions& stop, bool avf,
                               KnownDuplicate&& known_duplicate,
                               TransitionOutcomeTable* outcomes,
                               SearchStats* stats, UnbuiltCounts* unbuilt,
                               PreparedTransition* prepared) {
  RDFVIEWS_DCHECK(!StateViolatesStopConditions(parent, stop));
  size_t fusions = 0;
  const SuccessorFate fate = outcomes->Prepare(
      parent, t,
      [&](const StateFingerprint& fp, const ViewPtr& first,
          const ViewPtr& second) {
        if (ViewViolatesStopConditions(*first, stop) ||
            (second != nullptr && ViewViolatesStopConditions(*second, stop))) {
          if (avf) fusions = AvfFusions(parent, t, *first, second.get());
          return SuccessorFate::kDiscard;
        }
        return known_duplicate(fp) ? SuccessorFate::kDuplicate
                                   : SuccessorFate::kBuild;
      },
      prepared);
  switch (fate) {
    case SuccessorFate::kBuild:
      break;
    case SuccessorFate::kDuplicate:
      ++stats->created;
      ++stats->transitions_applied;
      ++stats->duplicates;
      ++unbuilt->duplicates;
      break;
    case SuccessorFate::kDiscard:
      RDFVIEWS_DCHECK(FullPathDiscards(parent, t, stop, avf, fusions));
      stats->created += 1 + fusions;
      ++stats->transitions_applied;
      stats->discarded += fusions + 1;
      ++unbuilt->discarded;
      break;
  }
  return fate;
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

  /// Processes the successor of `parent` under `t`. PrepareSuccessor
  /// decides its fate before it is built: a successor that violates a stop
  /// condition, or a known duplicate (see KnownDuplicate), is counted but
  /// never built. Every other successor is built, AVF-closed when avf is
  /// on, checked for duplicates (with stratum re-opening) and costed, and
  /// the best state is tracked. `phase` is the stratum (transition kind)
  /// that produced it.
  std::optional<Admitted> AdmitSuccessor(const State& parent,
                                         const Transition& t, int phase);

  /// True when a successor with fingerprint `fp` at `phase` is a
  /// duplicate, whatever its AVF closure.
  bool KnownDuplicate(const StateFingerprint& fp, int phase) const;

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
  /// Successors counted without being built; Finish reports them.
  UnbuiltCounts unbuilt;
  /// This search's transition outcomes (AdmitSuccessor and its AVF closure
  /// prepare through it); Finish reports its hits and misses.
  TransitionOutcomeTable outcomes;
  State best;
  /// The state the strategies explore from: S0, or its AVF closure when
  /// aggressive view fusion is on (VF only ever improves the cost, so the
  /// fused state dominates S0 and shrinks the space).
  State start;
  double best_cost = 0;
  /// The armed stop conditions.
  StopConditions stop;
};

}  // namespace internal
}  // namespace rdfviews::vsel

#endif  // RDFVIEWS_VSEL_SEARCH_INTERNAL_H_
