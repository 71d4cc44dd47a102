#include "vsel/parallel/parallel_search.h"

#include <algorithm>
#include <memory>
#include <mutex>
#include <vector>

#include "common/telemetry/metrics.h"
#include "common/thread_pool.h"
#include "vsel/parallel/parallel_context.h"
#include "vsel/parallel/sharded_frontier.h"
#include "vsel/search.h"
#include "vsel/search_internal.h"
#include "vsel/transitions.h"

namespace rdfviews::vsel::parallel {

namespace {

/// Entries processed per frontier lock acquisition.
constexpr size_t kExpandBatch = 8;

/// Live metric sinks wired into every per-run frontier: steal counts and
/// the waiting-worker gauge are updated as the events happen, so a mid-run
/// TelemetrySnapshot() observes them (frontiers used to fold steals into
/// the registry only at run retirement).
FrontierMetrics LiveFrontierMetrics() {
  static telemetry::Counter* const steals =
      telemetry::MetricsRegistry::Default()->GetCounter(
          "vsel_frontier_steals_total");
  static telemetry::Gauge* const waiting =
      telemetry::MetricsRegistry::Default()->GetGauge(
          "vsel_frontier_waiting_workers");
  return FrontierMetrics{steals, waiting};
}

/// Subtrees donated by serially-recursing DFS workers to starving peers.
telemetry::Counter* DonationCounter() {
  static telemetry::Counter* const counter =
      telemetry::MetricsRegistry::Default()->GetCounter(
          "vsel_dfs_donations_total");
  return counter;
}

size_t FrontierShards(size_t workers) {
  return std::max<size_t>(16, workers * 4);
}

/// Frontier home of a state: fingerprint-shard addressing, so a state's
/// queue placement is a deterministic function of its identity.
size_t ShardHint(const StateFingerprint& fp) {
  return static_cast<size_t>(fp.lo);
}

// ---- EXNAIVE / EXSTR: sharded round-robin candidate set ------------------

/// One candidate-set entry, as in the serial engine: a state plus the
/// cursor into its (lazily loaded) applicable transitions.
struct ExEntry {
  State state;
  int phase = 0;
  TransitionBuffer transitions;
  bool loaded = false;
  size_t next = 0;
};

/// One round-robin visit: apply transitions until one produces a new state
/// (pushing it onto the frontier), then requeue the entry if transitions
/// remain — the serial discipline, executed concurrently per entry.
/// `local` is the calling worker's; the entry itself may have been created
/// on another worker's arena (published via the frontier mutex), but all
/// states produced here land on the caller's.
void ProcessExEntry(ParallelSearchContext* ctx,
                    ShardedFrontier<ExEntry>* frontier, bool stratified,
                    ExEntry entry, WorkerLocal* local) {
  if (!entry.loaded) {
    entry.loaded = true;
    // One batched sweep fills the entry's buffer in kind-major order,
    // identical to the per-kind concatenation it replaces.
    TransitionKind start_kind =
        static_cast<TransitionKind>(stratified ? entry.phase : 0);
    EnumerateTransitionsBatch(entry.state, start_kind, ctx->topts,
                              &entry.transitions);
  }
  while (entry.next < entry.transitions.size()) {
    if (ctx->OutOfBudget()) return;  // anytime truncation: drop the entry
    const Transition& t = entry.transitions[entry.next++];
    int phase = stratified ? static_cast<int>(t.kind) : 0;
    auto admitted = ctx->AdmitSuccessor(entry.state, t, phase, local);
    if (admitted.has_value()) {
      frontier->Push(
          ShardHint(admitted->state.fingerprint()),
          ExEntry{std::move(admitted->state), phase, {}, false, 0});
      break;
    }
  }
  if (entry.next < entry.transitions.size()) {
    frontier->Push(ShardHint(entry.state.fingerprint()), std::move(entry));
  } else {
    ++local->stats.explored;
  }
}

SearchResult RunParallelExhaustive(ParallelSearchContext* ctx,
                                   const State& s0, bool stratified,
                                   size_t workers) {
  ctx->Init(s0);
  ShardedFrontier<ExEntry> frontier(FrontierShards(workers),
                                    LiveFrontierMetrics());
  frontier.Push(ShardHint(ctx->start.fingerprint()),
                ExEntry{ctx->start, 0, {}, false, 0});
  {
    ThreadPool pool(workers);
    for (size_t w = 0; w < workers; ++w) {
      pool.Submit([ctx, &frontier, stratified, w] {
        WorkerLocal local;
        std::vector<ExEntry> batch;
        for (;;) {
          batch.clear();
          size_t n = frontier.PopBatch(w, kExpandBatch, &batch,
                                       [ctx] { return ctx->OutOfBudget(); });
          if (n == 0) break;
          for (ExEntry& e : batch) {
            ProcessExEntry(ctx, &frontier, stratified, std::move(e), &local);
          }
          frontier.TaskDone(n);
        }
        ctx->MergeWorker(local);
      });
    }
    pool.WaitIdle();
  }
  return ctx->Finish(!ctx->stopped());
}

// ---- DFS: depth-first with starvation-aware subtree donation -------------

/// A DFS frontier task: a run of sibling transitions of `base` at stratum
/// `kind`, plus (when `advance_after`) the obligation to advance `base` to
/// the next stratum once the siblings are done. A null `base` means the
/// run's start state. Root seeds are single-transition tasks; donation
/// (below) creates multi-sibling tasks mid-run.
struct DfsTask {
  std::shared_ptr<const State> base;  // null = ctx->start
  std::vector<Transition> ts;
  int kind = 0;
  bool advance_after = false;
};

/// The serial DfsVisit against the shared context: closure under the
/// current kind depth-first, then advance the state to the next kind —
/// with one addition: when the frontier reports starving workers and this
/// node still has unexplored siblings, those siblings (and this node's
/// stratum advance) are packaged into a DfsTask and donated, and the donor
/// recurses into just the current child. The explored *set* is unchanged —
/// the donated task performs exactly the work the donor skips — so the
/// deterministic (cost, fingerprint) best of a completed run is preserved.
/// `depth` mirrors the serial engine's per-depth transition-buffer index.
void DfsVisitDeep(ParallelSearchContext* ctx,
                  ShardedFrontier<DfsTask>* frontier,
                  TransitionBufferPool* pool, const State& s, int kind,
                  size_t depth, WorkerLocal* local) {
  if (kind >= internal::kNumPhases) {
    ++local->stats.explored;
    return;
  }
  TransitionBuffer& buf = pool->At(depth);
  buf.Clear();
  EnumerateTransitionsInto(s, static_cast<TransitionKind>(kind), ctx->topts,
                           &buf);
  for (size_t i = 0; i < buf.size(); ++i) {
    if (ctx->OutOfBudget()) return;
    const bool donate = i + 1 < buf.size() && frontier->Starving();
    if (donate) {
      // Donate the unexplored tail siblings and this node's advance to the
      // next stratum; keep only buf[i]'s subtree for ourselves. The base
      // state is copied to worker-independent heap storage (the donee
      // outlives this worker's arena frames).
      DfsTask rest;
      rest.base = std::make_shared<const State>(s);
      rest.ts.assign(buf.begin() + i + 1, buf.end());
      rest.kind = kind;
      rest.advance_after = true;
      frontier->Push(ShardHint(s.fingerprint()), std::move(rest));
      DonationCounter()->Add(1);
    }
    auto admitted = ctx->AdmitSuccessor(s, buf[i], kind, local);
    if (admitted.has_value()) {
      DfsVisitDeep(ctx, frontier, pool, admitted->state, kind, depth + 1,
                   local);
    }
    if (donate) return;  // the donated task owns the rest of this node's work
  }
  if (ctx->OutOfBudget()) return;
  DfsVisitDeep(ctx, frontier, pool, s, kind + 1, depth, local);
}

/// Processes one claimed task: applies each sibling transition and explores
/// the admitted child's subtree. Multi-sibling tasks re-split under
/// starvation exactly like in-recursion nodes do.
void ProcessDfsTask(ParallelSearchContext* ctx,
                    ShardedFrontier<DfsTask>* frontier,
                    TransitionBufferPool* pool, DfsTask task,
                    WorkerLocal* local) {
  const State& base = task.base ? *task.base : ctx->start;
  for (size_t i = 0; i < task.ts.size(); ++i) {
    if (ctx->OutOfBudget()) return;
    const bool donate = i + 1 < task.ts.size() && frontier->Starving();
    if (donate) {
      DfsTask rest;
      rest.base = task.base;  // shared; null still means ctx->start
      rest.ts.assign(task.ts.begin() + i + 1, task.ts.end());
      rest.kind = task.kind;
      rest.advance_after = task.advance_after;
      frontier->Push(ShardHint(base.fingerprint()), std::move(rest));
      DonationCounter()->Add(1);
    }
    auto admitted = ctx->AdmitSuccessor(base, task.ts[i], task.kind, local);
    if (admitted.has_value()) {
      DfsVisitDeep(ctx, frontier, pool, admitted->state, task.kind, 0, local);
    }
    if (donate) return;  // the re-split task owns the remaining siblings
  }
  if (task.advance_after) {
    if (ctx->OutOfBudget()) return;
    DfsVisitDeep(ctx, frontier, pool, base, task.kind + 1, 0, local);
  }
}

SearchResult RunParallelDfs(ParallelSearchContext* ctx, const State& s0,
                            size_t workers) {
  ctx->Init(s0);
  ShardedFrontier<DfsTask> frontier(FrontierShards(workers),
                                    LiveFrontierMetrics());
  size_t seeds = 0;
  TransitionBuffer seed_buf;
  for (int k = 0; k < internal::kNumPhases; ++k) {
    seed_buf.Clear();
    EnumerateTransitionsInto(ctx->start, static_cast<TransitionKind>(k),
                             ctx->topts, &seed_buf);
    for (const Transition& t : seed_buf) {
      // Round-robin over shards; single-transition seeds, no advance (the
      // root's ladder is walked by the seed loop itself).
      frontier.Push(seeds++, DfsTask{nullptr, {t}, k, false});
    }
  }
  {
    ThreadPool pool(workers);
    for (size_t w = 0; w < workers; ++w) {
      pool.Submit([ctx, &frontier, w] {
        WorkerLocal local;
        TransitionBufferPool bufpool;
        std::vector<DfsTask> batch;
        for (;;) {
          batch.clear();
          // Batch of 1: every task is a whole subtree.
          size_t n = frontier.PopBatch(w, 1, &batch,
                                       [ctx] { return ctx->OutOfBudget(); });
          if (n == 0) break;
          for (DfsTask& task : batch) {
            if (ctx->OutOfBudget()) continue;
            ProcessDfsTask(ctx, &frontier, &bufpool, std::move(task), &local);
          }
          frontier.TaskDone(n);
        }
        ctx->MergeWorker(local);
      });
    }
    pool.WaitIdle();
  }
  // The root itself tops out the kind ladder (the serial engine counts it
  // explored once its last stratum is done).
  WorkerLocal root;
  root.stats.explored = 1;
  ctx->MergeWorker(root);
  return ctx->Finish(!ctx->stopped());
}

// ---- GSTR: per-stratum frontiers with pool-wide barriers -----------------

SearchResult RunParallelGstr(ParallelSearchContext* ctx, const State& s0,
                             size_t workers) {
  ctx->Init(s0);
  ThreadPool pool(workers);
  State current = ctx->start;
  double current_cost = ctx->cost->StateCost(current);
  for (int kind = 0; kind < internal::kNumPhases && !ctx->stopped();
       ++kind) {
    std::mutex best_mu;
    State phase_best = current;
    double phase_best_cost = current_cost;
    ShardedFrontier<State> frontier(FrontierShards(workers),
                                    LiveFrontierMetrics());
    frontier.Push(ShardHint(current.fingerprint()), current);
    for (size_t w = 0; w < workers; ++w) {
      pool.Submit([&, w, kind] {
        WorkerLocal local;
        TransitionBuffer buf;
        std::vector<State> batch;
        for (;;) {
          batch.clear();
          size_t n = frontier.PopBatch(w, kExpandBatch, &batch,
                                       [&] { return ctx->OutOfBudget(); });
          if (n == 0) break;
          for (State& s : batch) {
            buf.Clear();
            EnumerateTransitionsInto(s, static_cast<TransitionKind>(kind),
                                     ctx->topts, &buf);
            for (const Transition& t : buf) {
              if (ctx->OutOfBudget()) break;
              auto admitted = ctx->AdmitSuccessor(s, t, kind, &local);
              if (!admitted.has_value()) continue;
              {
                std::lock_guard<std::mutex> lock(best_mu);
                if (internal::BetterState(
                        admitted->cost, admitted->state.fingerprint(),
                        phase_best_cost, phase_best.fingerprint())) {
                  phase_best = admitted->state;
                  phase_best_cost = admitted->cost;
                }
              }
              frontier.Push(ShardHint(admitted->state.fingerprint()),
                            std::move(admitted->state));
            }
            ++local.stats.explored;
          }
          frontier.TaskDone(n);
        }
        ctx->MergeWorker(local);
      });
    }
    pool.WaitIdle();  // stratum barrier: the closure is complete (or cut)
    current = std::move(phase_best);
    current_cost = phase_best_cost;
  }
  return ctx->Finish(!ctx->stopped());
}

}  // namespace

Result<SearchResult> RunParallelSearch(StrategyKind strategy, const State& s0,
                                       const CostModel& cost_model,
                                       const HeuristicOptions& heuristics,
                                       const SearchLimits& limits) {
  const size_t workers = std::max<size_t>(1, limits.num_threads);
  ParallelSearchContext ctx(&cost_model, heuristics, limits);
  switch (strategy) {
    case StrategyKind::kExNaive:
      return RunParallelExhaustive(&ctx, s0, /*stratified=*/false, workers);
    case StrategyKind::kExStr:
      return RunParallelExhaustive(&ctx, s0, /*stratified=*/true, workers);
    case StrategyKind::kDfs:
      return RunParallelDfs(&ctx, s0, workers);
    case StrategyKind::kGstr:
      return RunParallelGstr(&ctx, s0, workers);
    default:
      return Status::InvalidArgument(
          std::string(StrategyName(strategy)) +
          " has no parallel engine (runs serial)");
  }
}

}  // namespace rdfviews::vsel::parallel
