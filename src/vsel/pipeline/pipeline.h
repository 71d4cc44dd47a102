// The staged recommendation pipeline: workload in, Recommendation out.
//
//   (1) ingest    — validate the workload, apply the EntailmentMode once
//                   (build statistics / the materialization store, and for
//                   kPreReformulate reformulate every query up front);
//   (2) partition — split the workload along the connected components of
//                   its commonality graph into independent sub-workloads
//                   (with a single-partition fallback whenever the split
//                   would not be provably exact — see PartitionWorkload);
//   (3) search    — run one Sec. 5 search per partition, serially or as
//                   tasks on a worker pool, under budgets apportioned by
//                   partition size (ApportionSearchLimits) and a shared
//                   cost model / statistics cache;
//   (4) merge     — re-base the per-partition best states into one state
//                   (fresh view-id / variable ranges, rewritings back in
//                   workload order, cross-partition duplicate views folded
//                   through their canonical keys) and assemble the final
//                   Recommendation (post-reformulation happens here).
//
// The monolithic ViewSelector::Recommend is a thin wrapper over this
// pipeline: with partitioning disabled (or a single commonality component)
// the plan has one group holding the whole workload, and stages 3 and 4
// reduce to exactly the pre-pipeline search-then-package path.
//
// Soundness of stage 2 (why per-partition search loses nothing): VB, SC and
// JC act on a single view, and no transition ever introduces a constant, so
// every view derivable from query q carries a subset of q's constants. VF —
// the only cross-view transition — requires isomorphic bodies, and a body
// isomorphism maps constants to themselves; two views derived from queries
// that share no constant can therefore only fuse if both are constant-free,
// and such states are exactly what the armed stop_var condition discards.
// Hence, when stop_var is armed for every partition (which the fallback
// guarantees), the reachable monolithic states are precisely the products
// of reachable per-partition states, the cost decomposes additively over
// views and rewritings, and the merged per-partition optima form a
// monolithic optimum.
#ifndef RDFVIEWS_VSEL_PIPELINE_PIPELINE_H_
#define RDFVIEWS_VSEL_PIPELINE_PIPELINE_H_

#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "cq/query.h"
#include "cq/ucq.h"
#include "rdf/schema.h"
#include "rdf/statistics.h"
#include "rdf/triple_store.h"
#include "vsel/selector.h"

namespace rdfviews::vsel::pipeline {

// ---- Stage 1: ingest / entailment ----------------------------------------

/// The per-query output of the single-minimization pass: everything stage 2
/// (commonality analysis) and stage 3 (initial-state construction) need, so
/// `cq::Minimize` — the expensive containment-based step — runs once per
/// distinct query per session instead of once per stage.
struct MinimizedQuery {
  /// cq::Minimize(raw), head preserved.
  cq::ConjunctiveQuery minimized;
  /// Renaming-insensitive key of the minimized query: canonical body+head
  /// structure plus the head order (canonical variable indices), so two
  /// queries share a key iff one is a variable renaming of the other with
  /// the same answer-column order. Concatenated per partition into the
  /// canonical workload keys the session's result cache is keyed by.
  std::string canonical_key;
  /// Sorted distinct body constants (over all disjuncts for
  /// kPreReformulate): the nodes this query contributes to the
  /// commonality graph.
  std::vector<rdf::TermId> constants;
  /// True when some connected component of the minimized query (or of a
  /// reformulated disjunct) carries no constant — the wildcard case that
  /// disarms stop_var and forces the single-partition fallback.
  bool has_constant_free_component = false;
  /// kPreReformulate only: the minimized disjuncts of the query's
  /// reformulation, in disjunct order.
  std::vector<cq::ConjunctiveQuery> minimized_disjuncts;
};

/// Caches a TuningSession carries across updates so only *new* work is
/// redone. The minimize/reformulate maps are keyed by an exact structural
/// key of the raw query (variable ids and all — a pure function of the
/// query object, no isomorphism test needed on lookup); the entailment
/// environment (statistics provider, materialization store) depends only on
/// the (store, schema, entailment mode) triple, which is fixed for the
/// session's lifetime. A null caches pointer gives the stateless one-shot
/// behavior.
struct SessionCaches {
  std::unordered_map<std::string, std::shared_ptr<const MinimizedQuery>>
      minimize;
  std::unordered_map<std::string, std::shared_ptr<const cq::UnionOfQueries>>
      reformulate;
  std::shared_ptr<rdf::Statistics> stats;
  std::shared_ptr<const rdf::TripleStore> materialization_store;
};

/// One query's stage-1 output, shared with the SessionCaches entries (never
/// deep-copied per update).
struct IngestedQuery {
  std::shared_ptr<const MinimizedQuery> minimized;
  /// kPreReformulate only: the query's union of disjuncts; null otherwise.
  std::shared_ptr<const cq::UnionOfQueries> reformulated;
};

/// The normalized workload: everything later stages need, independent of
/// the entailment mode that produced it.
struct IngestResult {
  /// The validated workload, in input order. The entries point at the
  /// caller's queries — Ingest's `workload`, or a TuningSession's live
  /// workload and an update's added queries — which must outlive this
  /// result; no stage copies a query it does not change.
  std::vector<const cq::ConjunctiveQuery*> queries;
  /// kPreReformulate only: one union of disjuncts per query (aligned with
  /// `queries`, shared with the SessionCaches entries — never deep-copied
  /// per update); empty otherwise.
  std::vector<std::shared_ptr<const cq::UnionOfQueries>> reformulated;
  /// The single-minimization cache, aligned with `queries`; see
  /// MinimizedQuery. Shared (not copied) with the SessionCaches entries,
  /// so a session update pays no per-query deep copies for cached
  /// queries. Stages 2 and 3 require it: a caller that hand-builds an
  /// IngestResult fills it with MinimizeQuery.
  std::vector<std::shared_ptr<const MinimizedQuery>> minimized;
  /// The statistics provider the cost model reads (owning; kept alive by
  /// the caller for the duration of the run — shared with SessionCaches
  /// across a session's updates). Null only when `external_stats` was
  /// supplied to Ingest.
  std::shared_ptr<rdf::Statistics> owned_stats;
  /// The provider to use (== owned_stats.get() or the external override).
  rdf::Statistics* stats = nullptr;
  /// The store the recommended views must be materialized over.
  std::shared_ptr<const rdf::TripleStore> materialization_store;
  /// The schema of the run (null for EntailmentMode::kNone); the merge
  /// stage reads it for kPostReformulate.
  const rdf::Schema* schema = nullptr;
};

/// The exact structural key of a raw query used by SessionCaches lookups.
std::string ExactQueryKey(const cq::ConjunctiveQuery& q);

/// The single-minimization pass for one query (see MinimizedQuery).
/// `reformulated` is the query's reformulation under kPreReformulate, null
/// otherwise. Normally run — and cached — by Ingest; exposed for callers
/// that hand-build an IngestResult.
MinimizedQuery MinimizeQuery(const cq::ConjunctiveQuery& raw,
                             const cq::UnionOfQueries* reformulated = nullptr);

/// Runs stage 1: IngestEnvironment, then IngestQuery for every query of
/// `workload`, in order; the result points at `workload`'s queries (see
/// IngestResult::queries). `schema` may be null for EntailmentMode::kNone.
/// `external_stats` (optional) substitutes a caller-owned statistics
/// provider measuring `store` directly — benches use this to reuse warm
/// pattern-count caches across runs. It is only honored for the modes
/// whose counts come from the raw store (kNone, kPreReformulate);
/// kSaturate measures the saturated store and kPostReformulate needs the
/// reformulation-aware provider, so both ignore it. `caches` (optional) is
/// the session carryover: per-query minimization/reformulation results are
/// served from (and inserted into) it, and the entailment environment is
/// built once and reused across updates.
Result<IngestResult> Ingest(const rdf::TripleStore* store,
                            const rdf::Dictionary* dict,
                            const rdf::Schema* schema,
                            const std::vector<cq::ConjunctiveQuery>& workload,
                            const TuningConfig& options,
                            rdf::Statistics* external_stats = nullptr,
                            SessionCaches* caches = nullptr);

/// Stage 1's workload-independent part, for a workload of `num_queries`
/// queries: rejects an empty workload and an entailment mode without its
/// schema, then returns an IngestResult with the statistics provider,
/// materialization store and schema filled in (reused from `caches` when
/// they hold them, recorded there otherwise) and room reserved for the
/// per-query vectors, which the caller fills. Other parameters as for
/// Ingest.
Result<IngestResult> IngestEnvironment(const rdf::TripleStore* store,
                                       const rdf::Dictionary* dict,
                                       const rdf::Schema* schema,
                                       size_t num_queries,
                                       const TuningConfig& options,
                                       rdf::Statistics* external_stats,
                                       SessionCaches* caches);

/// Stage 1 for one query, the one per-query routine: validates `q`, keys it
/// (ExactQueryKey, only with `caches`), reformulates it under
/// kPreReformulate and runs the single-minimization pass — each served from
/// (and recorded in) `caches` when the key was seen before. Ingest runs it
/// for every workload query; a TuningSession, which carries the results of
/// its live queries, runs it only for the queries an update adds. Counted
/// in the registry as vsel_ingest_queries_total.
Result<IngestedQuery> IngestQuery(const cq::ConjunctiveQuery& q,
                                  const rdf::Schema* schema,
                                  const TuningConfig& options,
                                  SessionCaches* caches);

// ---- Stage 2: partition ----------------------------------------------------

/// The workload split: `groups[p]` holds the workload indices of partition
/// p, each group sorted ascending and the groups ordered by first query.
struct PartitionPlan {
  std::vector<std::vector<size_t>> groups;
  /// Canonical workload key per group (aligned with `groups`): the
  /// concatenated renaming-insensitive keys of the member queries'
  /// minimized forms, in group order. A stable identity for "the same
  /// sub-workload" across session updates — the session's per-partition
  /// result cache is keyed by it.
  std::vector<std::string> group_keys;
  /// Why the plan is a single group despite partitioning being enabled;
  /// empty when the commonality graph was actually used.
  std::string fallback_reason;

  size_t num_partitions() const { return groups.size(); }
};

/// Runs stage 2: builds the query-commonality graph (queries connected iff
/// they share a constant — for kPreReformulate, a constant of any disjunct)
/// and returns its connected components as the partition plan. Falls back
/// to a single partition when the decomposition would not be provably exact
/// (see the header comment): partitioning disabled, stop_var off, or some
/// query with a constant-free connected component (which disarms stop_var).
PartitionPlan PartitionWorkload(const IngestResult& ingest,
                                const TuningConfig& options);

// ---- Stage 3: search -------------------------------------------------------

/// Splits `total` across partitions proportionally to `weights` (query
/// counts), rounding up so that no partition receives a zero state or time
/// budget: max_states shares are ceiling-divided (the sum may exceed the
/// total by up to one state per partition), and every positive time budget
/// share is floored at a small positive minimum. Unlimited budgets (0)
/// stay unlimited. num_threads is copied through unchanged; the search
/// stage overrides it per its partition-vs-frontier parallelism policy.
std::vector<SearchLimits> ApportionSearchLimits(
    const SearchLimits& total, const std::vector<size_t>& weights);

/// The one partition-parallelism rule, shared by stage 3 (which runs the
/// searches) and stage 4 (which reconstructs their wall-clock layout):
/// partitions are searched concurrently, one serial search per pool task,
/// iff more than one partition is searched and limits.num_threads > 1.
/// `partitions_searched` counts the dirty partitions, not the cache-served
/// ones.
bool FanOutPartitions(const TuningConfig& options,
                      size_t partitions_searched);

/// One partition's search outcome.
struct PartitionSearchResult {
  SearchResult search;
  /// The initial cost of this partition's S0 (stats.initial_cost), kept for
  /// merged-trace reconstruction.
  double initial_cost = 0;
};

/// One partition's *contained* outcome: either a usable search result
/// (error.ok()) or the failure that exhausted the partition's retry budget,
/// with the health record either way. Stage 3 pre-fills every slot with a
/// real failure outcome ("never ran" — kInternal, attempts == 0) before
/// scheduling, so a pool task that dies before claiming its slot leaves an
/// honest record instead of a fabricated one.
struct PartitionOutcome {
  PartitionSearchResult result;
  Status error = Status::OK();
  PartitionHealth health;

  bool ok() const { return error.ok(); }
};

/// Thread-safe pool of unused time budget. Partitions whose search finishes
/// (space exhausted) before their apportioned slice expires Deposit the
/// unused seconds; partitions about to start Take the accumulated spare and
/// add it to their own slice, so no second of the global budget is left on
/// the table while some partition still has work. Deterministic under
/// sequential execution (the spare flows to the next partition in order);
/// under the concurrent pool the split depends on scheduling, which is fine
/// — time budgets are wall-clock-dependent anyway.
class TimeBudgetPool {
 public:
  /// Adds `sec` (clamped at 0) to the pool.
  void Deposit(double sec);
  /// Drains the pool, returning everything deposited since the last Take.
  double Take();
  /// Current balance (for tests / observability).
  double balance() const;

 private:
  mutable std::mutex mu_;
  double spare_sec_ = 0;
};

/// One pre-seeded (cache-served) partition outcome handed to the search
/// stage. `result == nullptr` means the partition is dirty and must be
/// searched. `rehydrated` marks outcomes that came from a persistent
/// backend (deserialized from bytes and re-validated by the session) rather
/// than from process memory; the search stage only reports the distinction
/// (PipelineReport::partitions_rehydrated) — both kinds are trusted equally
/// by the time they reach it.
struct PreseededOutcome {
  const PartitionSearchResult* result = nullptr;
  bool rehydrated = false;
};

/// Runs stage 3: builds each partition's initial state, collects the
/// paper's workload statistics, calibrates cm once over the whole S0 (sum
/// of the per-partition breakdowns), then searches every partition under
/// its apportioned budget, re-granting early finishers' unused time through
/// a TimeBudgetPool. When FanOutPartitions holds, the searched partitions
/// run concurrently as thread-pool tasks, each search serial; otherwise
/// they run back to back, each keeping num_threads for the parallel
/// frontier engine.
///
/// `preseeded` (optional) is the session's incremental path: when
/// preseeded[p].result is non-null, partition p's cached outcome — from the
/// session's in-memory cache or rehydrated from a persistent backend — is
/// copied into the result instead of being searched; only the dirty
/// partitions run, under budgets apportioned over the dirty partitions
/// alone (and cm calibration, which must see every partition's S0, is the
/// caller's responsibility: sessions calibrate on their first update and
/// freeze). `report` (optional) receives the reused/rehydrated/searched
/// partition counts, the total re-granted seconds, and the failure
/// accounting (partitions_failed / partition_retries / partition_health).
///
/// Failure containment (options.robust): every partition search runs
/// behind an exception -> Status boundary under an optional hard watchdog
/// deadline, failed attempts are retried per the RetryPolicy, and a
/// partition that exhausts its budget comes back as a failed
/// PartitionOutcome — the call itself only errors when stage-wide setup
/// fails (e.g. an unbuildable workload), never because some partition
/// search died.
Result<std::vector<PartitionOutcome>> SearchPartitions(
    const IngestResult& ingest, const PartitionPlan& plan,
    CostModel* cost_model, const TuningConfig& options,
    const std::vector<PreseededOutcome>* preseeded = nullptr,
    PipelineReport* report = nullptr);

// ---- Stage 4: merge --------------------------------------------------------

/// Runs stage 4: re-bases every partition's best state into disjoint
/// view-id / variable ranges, folds cross-partition duplicate views (equal
/// canonical keys) into one materialization, restores workload rewriting
/// order, and assembles the Recommendation — including the
/// kPostReformulate reformulation of the winning view definitions. With a
/// single partition the views and rewritings are shared, not copied.
/// `report` (optional) carries the search stage's observability counters
/// into Recommendation::pipeline; merge fills the merged-duplicate count.
/// The results vector may mix cached (session-reused) and freshly searched
/// partitions — the merge is agnostic, it only reads the best states.
///
/// Graceful degradation: failed outcomes (outcome.ok() == false) are merged
/// *around* — the Recommendation covers the surviving partitions, its
/// stats.completed is false, and the failed partitions' queries get null
/// rewritings (Recommendation::rewritings stays workload-aligned). The
/// merged cost equals a from-scratch tune over the surviving sub-workload
/// alone. Only when no partition survived does the call return the first
/// failure as its error.
Result<Recommendation> MergePartitions(
    const IngestResult& ingest, const PartitionPlan& plan,
    std::vector<PartitionOutcome> results, CostModel* cost_model,
    const TuningConfig& options, const PipelineReport* report = nullptr);

// ---- The whole pipeline ----------------------------------------------------

/// Ingest → partition → search → merge. The implementation behind
/// ViewSelector::Recommend; benches call it directly to supply
/// `external_stats` (a pre-warmed cache, see Ingest).
Result<Recommendation> Run(const rdf::TripleStore* store,
                           const rdf::Dictionary* dict,
                           const rdf::Schema* schema,
                           const std::vector<cq::ConjunctiveQuery>& workload,
                           const TuningConfig& options,
                           rdf::Statistics* external_stats = nullptr);

}  // namespace rdfviews::vsel::pipeline

#endif  // RDFVIEWS_VSEL_PIPELINE_PIPELINE_H_
