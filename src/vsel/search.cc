#include "vsel/search.h"

#include <algorithm>
#include <deque>
#include <optional>
#include <unordered_map>

#include "common/logging.h"
#include "common/timer.h"
#include "vsel/competitors.h"
#include "vsel/parallel/parallel_search.h"
#include "vsel/search_internal.h"

namespace rdfviews::vsel {

namespace internal {

const int kNumPhases = 4;  // VB, SC, JC, VF

void AddStepCounters(const UnbuiltCounts& unbuilt, uint64_t outcome_hits,
                     uint64_t outcome_misses) {
  telemetry::MetricsRegistry* registry = telemetry::MetricsRegistry::Default();
  static telemetry::Counter* const skipped_total =
      registry->GetCounter("vsel_successors_skipped_total");
  static telemetry::Counter* const discarded_unbuilt_total =
      registry->GetCounter("vsel_successors_discarded_unbuilt_total");
  static telemetry::Counter* const hits_total =
      registry->GetCounter("vsel_transition_outcome_hits_total");
  static telemetry::Counter* const misses_total =
      registry->GetCounter("vsel_transition_outcome_misses_total");
  skipped_total->Add(unbuilt.duplicates);
  discarded_unbuilt_total->Add(unbuilt.discarded);
  hits_total->Add(outcome_hits);
  misses_total->Add(outcome_misses);
}

size_t AvfFusions(const State& parent, const Transition& t, const View& first,
                  const View* second) {
  const ViewList& views = parent.views();
  auto kept_view_has = [&](const std::string& body_key) {
    for (size_t i = 0; i < views.size(); ++i) {
      const bool replaced =
          i == t.view_idx ||
          (t.kind == TransitionKind::kVF && i == t.view_idx2);
      if (!replaced && views[i].BodyKey() == body_key) return true;
    }
    return false;
  };
  size_t fusions = kept_view_has(first.BodyKey()) ? 1 : 0;
  if (second != nullptr && (second->BodyKey() == first.BodyKey() ||
                            kept_view_has(second->BodyKey()))) {
    ++fusions;
  }
  return fusions;
}

bool FullPathDiscards(const State& parent, const Transition& t,
                      const StopConditions& stop, bool avf, size_t fusions) {
  State s = ApplyTransition(parent, t);
  const size_t steps = avf ? CloseUnderVf(&s, TransitionOptions{}) : 0;
  return steps == fusions && StateViolatesStopConditions(s, stop);
}

SearchContext::SearchContext(const CostModel* cost_model,
                             const HeuristicOptions& heuristics,
                             const SearchLimits& limits)
    : cost(cost_model),
      heur(heuristics),
      limits(limits),
      topts(TransitionOptions::FromHeuristics(heuristics)),
      deadline(limits.time_budget_sec) {
  // Per-distinct-view transition graphs live next to the per-distinct-view
  // cost estimates.
  topts.graph_cache = &cost_model->interner();
}

void SearchContext::Init(const State& s0) {
  stop = ArmStopConditions(s0, heur);
  // Cost S0 before copying it, so a best that stays S0 carries its terms.
  best_cost = cost->StateCost(s0);
  best = s0;
  stats.initial_cost = best_cost;
  stats.best_cost = best_cost;
  stats.best_trace.emplace_back(0.0, best_cost);
  seen.emplace(s0.fingerprint(), 0);
  start = s0;
  if (heur.avf) {
    size_t steps = 0;
    State closed = AvfClosure(s0, topts, &steps, &arena);
    if (steps > 0) {
      stats.created += steps;
      stats.discarded += steps - 1;  // intermediates; the fixpoint is kept
      unclosed_s0 = s0.fingerprint();
      seen.emplace(closed.fingerprint(), 0);
      double c = cost->StateCost(closed);
      if (BetterState(c, closed.fingerprint(), best_cost,
                      best.fingerprint())) {
        best = closed;
        best_cost = c;
        NotifyBest(c);
      }
      start = std::move(closed);
    }
  }
}

void SearchContext::NotifyBest(double cost_now) {
  stats.best_cost = cost_now;
  double elapsed = deadline.ElapsedSeconds();
  stats.best_trace.emplace_back(elapsed, cost_now);
  if (limits.on_progress) {
    ProgressEvent ev;
    ev.kind = ProgressEvent::Kind::kBestImproved;
    ev.best_cost = cost_now;
    ev.elapsed_sec = elapsed;
    limits.on_progress(ev);
  }
}

bool SearchContext::OutOfBudget() {
  if (limits.stop.stop_requested()) {
    stats.cancelled = true;
    return true;
  }
  if (deadline.Expired()) {
    stats.time_exhausted = true;
    return true;
  }
  if (limits.max_states > 0 && seen.size() >= limits.max_states) {
    stats.memory_exhausted = true;
    return true;
  }
  return false;
}

std::optional<SearchContext::Admitted> SearchContext::AdmitSuccessor(
    const State& parent, const Transition& t, int phase) {
  PreparedTransition prepared;
  const SuccessorFate fate = PrepareSuccessor(
      parent, t, stop, heur.avf,
      [this, phase](const StateFingerprint& fp) {
        return KnownDuplicate(fp, phase);
      },
      &outcomes, &stats, &unbuilt, &prepared);
  if (fate != SuccessorFate::kBuild) return std::nullopt;
  State s = BuildTransition(parent, prepared, &arena);
  ++stats.created;
  ++stats.transitions_applied;
  if (heur.avf) {
    const size_t steps = CloseUnderVf(&s, topts, &arena, &outcomes);
    stats.created += steps;
    stats.discarded += steps;
  }
  RDFVIEWS_DCHECK(!StateViolatesStopConditions(s, stop));
  auto [it, inserted] = seen.try_emplace(s.fingerprint(), phase);
  if (!inserted) {
    ++stats.duplicates;
    if (it->second <= phase) return std::nullopt;
    // Re-opened at an earlier stratum: earlier-kind transitions now apply.
    it->second = phase;
  }
  double c = cost->StateCost(s);
  if (BetterState(c, s.fingerprint(), best_cost, best.fingerprint())) {
    best = s;
    best_cost = c;
    NotifyBest(c);
  }
  return Admitted{std::move(s), c};
}

// Why skipping is exact: every fingerprint in `seen` except an unclosed
// S0's belongs to a state that passed the stop conditions and, with AVF
// on, is AVF-closed (S0 itself passes them: ArmStopConditions disarms any
// condition S0 violates). A successor with that fingerprint has the same
// views, so it fuses nothing, passes the stop conditions and reaches the
// same `seen` entry, which AdmitSuccessor rejects iff its stratum is <=
// `phase`.
bool SearchContext::KnownDuplicate(const StateFingerprint& fp,
                                   int phase) const {
  if (unclosed_s0.has_value() && fp == *unclosed_s0) return false;
  auto it = seen.find(fp);
  return it != seen.end() && it->second <= phase;
}

SearchResult SearchContext::Finish(bool completed) {
  AddStepCounters(unbuilt, outcomes.hits(), outcomes.misses());
  stats.completed = completed && !stats.time_exhausted &&
                    !stats.memory_exhausted && !stats.cancelled;
  stats.elapsed_sec = deadline.ElapsedSeconds();
  stats.best_cost = best_cost;
  return SearchResult{best, stats};
}

}  // namespace internal

namespace {

using internal::SearchContext;

/// Shared implementation of EXNAIVE (Algorithm 2) and EXSTR: round-robin
/// over CS, applying one (new-state-producing) transition per visit. For
/// EXSTR, the transitions applicable to a state are restricted to kinds >=
/// the stratum at which the state was reached, in VB < SC < JC < VF order.
SearchResult RunExhaustive(SearchContext* ctx, const State& s0,
                           bool stratified) {
  struct Entry {
    State state;
    int phase;
    TransitionBuffer transitions;
    bool loaded = false;
    size_t next = 0;
  };
  std::deque<Entry> cs;
  ctx->Init(s0);
  cs.push_back(Entry{ctx->start, 0, {}, false, 0});

  while (!cs.empty()) {
    if (ctx->OutOfBudget()) return ctx->Finish(false);
    Entry entry = std::move(cs.front());
    cs.pop_front();
    if (!entry.loaded) {
      entry.loaded = true;
      // Non-stratified EXNAIVE may apply any kind at any time; stratified
      // EXSTR only kinds >= the arrival stratum. One batched sweep fills
      // the entry's buffer in kind-major order.
      TransitionKind start_kind =
          static_cast<TransitionKind>(stratified ? entry.phase : 0);
      EnumerateTransitionsBatch(entry.state, start_kind, ctx->topts,
                                &entry.transitions);
    }
    bool produced = false;
    while (entry.next < entry.transitions.size()) {
      if (ctx->OutOfBudget()) return ctx->Finish(false);
      const Transition& t = entry.transitions[entry.next++];
      int phase = stratified ? static_cast<int>(t.kind) : 0;
      auto admitted = ctx->AdmitSuccessor(entry.state, t, phase);
      if (admitted.has_value()) {
        cs.push_back(Entry{std::move(admitted->state), phase, {}, false, 0});
        produced = true;
        break;
      }
    }
    if (entry.next < entry.transitions.size() || produced) {
      // Not yet explored: revisit later (round-robin).
      if (entry.next < entry.transitions.size()) {
        cs.push_back(std::move(entry));
      } else {
        ++ctx->stats.explored;
      }
    } else {
      ++ctx->stats.explored;
    }
  }
  return ctx->Finish(true);
}

/// Stratified depth-first search (Sec. 5.2). For each state, first the
/// closure under the current transition kind is explored depth-first, then
/// the state advances to the next kind. `depth` indexes the per-depth
/// transition-buffer pool — each recursion level reuses its own buffer
/// across visits.
void DfsVisit(SearchContext* ctx, TransitionBufferPool* pool, const State& s,
              int kind, size_t depth) {
  if (kind >= internal::kNumPhases) {
    ++ctx->stats.explored;
    return;
  }
  TransitionBuffer& buf = pool->At(depth);
  buf.Clear();
  EnumerateTransitionsInto(s, static_cast<TransitionKind>(kind), ctx->topts,
                           &buf);
  for (size_t i = 0; i < buf.size(); ++i) {
    if (ctx->OutOfBudget()) return;
    auto admitted = ctx->AdmitSuccessor(s, buf[i], kind);
    if (admitted.has_value()) {
      DfsVisit(ctx, pool, admitted->state, kind, depth + 1);
    }
  }
  if (ctx->OutOfBudget()) return;
  DfsVisit(ctx, pool, s, kind + 1, depth);
}

SearchResult RunDfs(SearchContext* ctx, const State& s0) {
  ctx->Init(s0);
  TransitionBufferPool pool;
  DfsVisit(ctx, &pool, ctx->start, 0, 0);
  return ctx->Finish(true);
}

/// Greedy stratified search (Sec. 5.2): per stratum, explore the closure
/// under that transition kind, then keep only the best state found.
SearchResult RunGstr(SearchContext* ctx, const State& s0) {
  ctx->Init(s0);
  State current = ctx->start;
  double current_cost = ctx->cost->StateCost(current);
  TransitionBuffer buf;
  for (int kind = 0; kind < internal::kNumPhases; ++kind) {
    std::deque<State> frontier;
    frontier.push_back(current);
    State phase_best = current;
    double phase_best_cost = current_cost;
    while (!frontier.empty()) {
      if (ctx->OutOfBudget()) return ctx->Finish(false);
      State s = std::move(frontier.front());
      frontier.pop_front();
      buf.Clear();
      EnumerateTransitionsInto(s, static_cast<TransitionKind>(kind),
                               ctx->topts, &buf);
      for (const Transition& t : buf) {
        if (ctx->OutOfBudget()) return ctx->Finish(false);
        auto admitted = ctx->AdmitSuccessor(s, t, kind);
        if (!admitted.has_value()) continue;
        if (internal::BetterState(admitted->cost,
                                  admitted->state.fingerprint(),
                                  phase_best_cost,
                                  phase_best.fingerprint())) {
          phase_best = admitted->state;
          phase_best_cost = admitted->cost;
        }
        frontier.push_back(std::move(admitted->state));
      }
      ++ctx->stats.explored;
    }
    current = std::move(phase_best);
    current_cost = phase_best_cost;
  }
  return ctx->Finish(true);
}

}  // namespace

const char* StrategyName(StrategyKind kind) {
  switch (kind) {
    case StrategyKind::kExNaive: return "EXNAIVE";
    case StrategyKind::kExStr: return "EXSTR";
    case StrategyKind::kDfs: return "DFS";
    case StrategyKind::kGstr: return "GSTR";
    case StrategyKind::kPruning21: return "Pruning";
    case StrategyKind::kGreedy21: return "Greedy";
    case StrategyKind::kHeuristic21: return "Heuristic";
  }
  return "?";
}

Result<SearchResult> RunSearch(StrategyKind strategy, const State& s0,
                               const CostModel& cost_model,
                               const HeuristicOptions& heuristics,
                               const SearchLimits& limits) {
  if (limits.num_threads > 1) {
    switch (strategy) {
      case StrategyKind::kExNaive:
      case StrategyKind::kExStr:
      case StrategyKind::kDfs:
      case StrategyKind::kGstr:
        return parallel::RunParallelSearch(strategy, s0, cost_model,
                                           heuristics, limits);
      default:
        // The [21] competitors combine query spaces sequentially; they run
        // on the serial engine regardless of num_threads.
        break;
    }
  }
  SearchContext ctx(&cost_model, heuristics, limits);
  switch (strategy) {
    case StrategyKind::kExNaive:
      return RunExhaustive(&ctx, s0, /*stratified=*/false);
    case StrategyKind::kExStr:
      return RunExhaustive(&ctx, s0, /*stratified=*/true);
    case StrategyKind::kDfs:
      return RunDfs(&ctx, s0);
    case StrategyKind::kGstr:
      return RunGstr(&ctx, s0);
    case StrategyKind::kPruning21:
    case StrategyKind::kGreedy21:
    case StrategyKind::kHeuristic21:
      return RunCompetitorSearch(strategy, s0, cost_model, heuristics,
                                 limits);
  }
  return Status::InvalidArgument("unknown strategy");
}

}  // namespace rdfviews::vsel
