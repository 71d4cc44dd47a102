#include "vsel/parallel/parallel_context.h"

#include "vsel/search.h"

namespace rdfviews::vsel::parallel {

void BestTracker::Reset(const State& s, double cost) {
  std::lock_guard<std::mutex> lock(mu_);
  state_ = s;
  cost_ = cost;
  trace_.clear();
  trace_.emplace_back(0.0, cost);
  published_cost_.store(cost, std::memory_order_relaxed);
}

bool BestTracker::Offer(const State& s, double cost, double elapsed_sec) {
  // A candidate strictly above the published cost can never win: the
  // recorded cost only decreases, and ties are resolved under the lock.
  if (cost > published_cost_.load(std::memory_order_relaxed)) return false;
  std::lock_guard<std::mutex> lock(mu_);
  if (!internal::BetterState(cost, s.fingerprint(), cost_,
                             state_.fingerprint())) {
    return false;
  }
  state_ = s;
  cost_ = cost;
  published_cost_.store(cost, std::memory_order_relaxed);
  trace_.emplace_back(elapsed_sec, cost);
  return true;
}

State BestTracker::best_state() const {
  std::lock_guard<std::mutex> lock(mu_);
  return state_;
}

double BestTracker::best_cost() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cost_;
}

std::vector<std::pair<double, double>> BestTracker::trace() const {
  std::lock_guard<std::mutex> lock(mu_);
  return trace_;
}

ParallelSearchContext::ParallelSearchContext(const CostModel* cost_model,
                                             const HeuristicOptions& heuristics,
                                             const SearchLimits& limits)
    : cost(cost_model),
      heur(heuristics),
      limits(limits),
      topts(TransitionOptions::FromHeuristics(heuristics)),
      deadline(limits.time_budget_sec) {
  topts.graph_cache = &cost_model->interner();
}

void ParallelSearchContext::Init(const State& s0) {
  stop_conditions_ = internal::ArmStopConditions(s0, heur);

  // Every pattern a search state can count is a relaxation of an S0 atom
  // (SC replaces constants by variables; VB/JC/VF only redistribute atoms).
  // Pre-counting them here makes the statistics cache read-only for the
  // workers. The warm-up respects the time budget atom by atom — a cut
  // leaves the tail to the (thread-safe) lazy fill, it does not lose
  // correctness.
  for (const View& v : s0.views()) {
    for (const cq::Atom& a : v.def.atoms()) {
      if (deadline.Expired()) break;
      cost->stats().CollectWithRelaxations(a.ToPattern());
    }
  }

  double c0 = cost->StateCost(s0);
  best.Reset(s0, c0);
  totals_.initial_cost = c0;
  seen.Insert(s0.fingerprint(), 0);
  start = s0;
  if (heur.avf) {
    size_t steps = 0;
    State closed = AvfClosure(s0, topts, &steps);
    if (steps > 0) {
      totals_.created += steps;
      totals_.discarded += steps - 1;  // intermediates; the fixpoint is kept
      unclosed_s0_ = s0.fingerprint();
      seen.Insert(closed.fingerprint(), 0);
      double c = cost->StateCost(closed);
      best.Offer(closed, c, deadline.ElapsedSeconds());
      start = std::move(closed);
    }
  }
}

bool ParallelSearchContext::OutOfBudget() {
  if (stop_.load(std::memory_order_relaxed)) return true;
  if (limits.stop.stop_requested()) {
    cancelled_.store(true, std::memory_order_relaxed);
    stop_.store(true, std::memory_order_relaxed);
    return true;
  }
  if (deadline.Expired()) {
    time_exhausted_.store(true, std::memory_order_relaxed);
    stop_.store(true, std::memory_order_relaxed);
    return true;
  }
  if (limits.max_states > 0 && seen.size() >= limits.max_states) {
    memory_exhausted_.store(true, std::memory_order_relaxed);
    stop_.store(true, std::memory_order_relaxed);
    return true;
  }
  return false;
}

std::optional<ParallelSearchContext::Admitted>
ParallelSearchContext::AdmitSuccessor(const State& parent, const Transition& t,
                                      int phase, WorkerLocal* local) {
  // Exact for the reason the serial KnownDuplicate is; a stale "not seen"
  // answer only falls back to the full path.
  auto known_duplicate = [this, phase](const StateFingerprint& fp) {
    const bool unclosed = unclosed_s0_.has_value() && fp == *unclosed_s0_;
    return !unclosed && seen.Rejects(fp, phase);
  };
  SearchStats* stats = &local->stats;
  PreparedTransition prepared;
  const SuccessorFate fate = internal::PrepareSuccessor(
      parent, t, stop_conditions_, heur.avf, known_duplicate,
      &local->outcomes, stats, &local->unbuilt, &prepared);
  if (fate != SuccessorFate::kBuild) return std::nullopt;
  State s = BuildTransition(parent, prepared, &local->arena);
  ++stats->created;
  ++stats->transitions_applied;
  if (heur.avf) {
    const size_t steps =
        CloseUnderVf(&s, topts, &local->arena, &local->outcomes);
    stats->created += steps;
    stats->discarded += steps;
  }
  RDFVIEWS_DCHECK(
      !internal::StateViolatesStopConditions(s, stop_conditions_));
  switch (seen.AdmitAtPhase(s.fingerprint(), phase)) {
    case ConcurrentSeenSet::Outcome::kRejected:
      ++stats->duplicates;
      return std::nullopt;
    case ConcurrentSeenSet::Outcome::kReopened:
      // Re-opened at an earlier stratum: earlier-kind transitions now
      // apply; counts as a duplicate sighting, like the serial engine.
      ++stats->duplicates;
      break;
    case ConcurrentSeenSet::Outcome::kInserted:
      break;
  }
  double c = cost->StateCost(s);
  if (best.Offer(s, c, deadline.ElapsedSeconds()) && limits.on_progress) {
    ProgressEvent ev;
    ev.kind = ProgressEvent::Kind::kBestImproved;
    ev.best_cost = c;
    ev.elapsed_sec = deadline.ElapsedSeconds();
    limits.on_progress(ev);
  }
  return Admitted{std::move(s), c};
}

void ParallelSearchContext::MergeWorker(const WorkerLocal& local) {
  std::lock_guard<std::mutex> lock(stats_mu_);
  totals_.created += local.stats.created;
  totals_.duplicates += local.stats.duplicates;
  totals_.discarded += local.stats.discarded;
  totals_.explored += local.stats.explored;
  totals_.transitions_applied += local.stats.transitions_applied;
  unbuilt_.duplicates += local.unbuilt.duplicates;
  unbuilt_.discarded += local.unbuilt.discarded;
  outcome_hits_ += local.outcomes.hits();
  outcome_misses_ += local.outcomes.misses();
}

SearchResult ParallelSearchContext::Finish(bool completed) {
  internal::AddStepCounters(unbuilt_, outcome_hits_, outcome_misses_);
  SearchStats stats = totals_;
  stats.time_exhausted = time_exhausted_.load(std::memory_order_relaxed);
  stats.memory_exhausted = memory_exhausted_.load(std::memory_order_relaxed);
  stats.cancelled = cancelled_.load(std::memory_order_relaxed);
  stats.completed = completed && !stats.time_exhausted &&
                    !stats.memory_exhausted && !stats.cancelled;
  stats.elapsed_sec = deadline.ElapsedSeconds();
  stats.best_cost = best.best_cost();
  stats.best_trace = best.trace();
  return SearchResult{best.best_state(), stats};
}

}  // namespace rdfviews::vsel::parallel
