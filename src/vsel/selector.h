// Top-level view-selection API: workload in, recommended views + rewritings
// out, with the paper's four ways of handling RDF entailment (Sec. 4.3):
// ignore it, saturate the database, pre-reformulate the workload, or
// post-reformulate the winning views.
#ifndef RDFVIEWS_VSEL_SELECTOR_H_
#define RDFVIEWS_VSEL_SELECTOR_H_

#include <memory>

#include "common/status.h"
#include "common/telemetry/export.h"
#include "cq/query.h"
#include "cq/ucq.h"
#include "engine/relation.h"
#include "rdf/schema.h"
#include "rdf/statistics.h"
#include "rdf/triple_store.h"
#include "vsel/cost_model.h"
#include "vsel/options.h"
#include "vsel/search.h"

namespace rdfviews::vsel {

// EntailmentMode and the unified TuningConfig aggregate live in
// vsel/options.h.

/// Per-partition health record of one pipeline run: how many attempts the
/// partition took, what the last failure was, and whether it ended
/// abandoned (degraded out of the recommendation) or recovered (succeeded
/// on a retry). Healthy first-try partitions get attempts == 1 and kOk.
struct PartitionHealth {
  /// Partition index within the run's PartitionPlan.
  size_t partition = 0;
  /// Queries in the partition (the degradation blast radius).
  size_t queries = 0;
  /// Search attempts made this update (0 = never ran: its pool task died
  /// before claiming the slot, or the update failed before stage 3).
  size_t attempts = 0;
  /// Last failure observed (kOk when the partition never failed).
  StatusCode last_code = StatusCode::kOk;
  std::string last_error;
  /// Wall seconds spent across all attempts, including backoff sleeps.
  double wall_spent_sec = 0;
  /// Exhausted its retry budget; its queries have null rewritings in the
  /// degraded Recommendation and the partition stays dirty in a session.
  bool abandoned = false;
  /// Failed at least once but succeeded on a later attempt.
  bool recovered = false;
};

/// Per-recommendation observability of the staged pipeline, including the
/// tuning-session reuse accounting: how the workload was partitioned, how
/// many partitions an incremental update served from the session cache vs
/// re-searched, and how much budget early finishers re-granted.
struct PipelineReport {
  /// How many independent sub-workloads the commonality graph produced
  /// (1 = monolithic search).
  size_t num_partitions = 1;
  /// Why partitioning fell back to a single partition (empty when the
  /// commonality graph was actually used).
  std::string partition_fallback_reason;
  /// Cross-partition duplicate views the merge stage folded away.
  size_t merged_duplicate_views = 0;
  /// Session updates only: partitions whose cached result was reused
  /// (clean) vs freshly searched (dirty). For a one-shot Recommend,
  /// reused == 0 and searched == num_partitions.
  size_t partitions_reused = 0;
  size_t partitions_searched = 0;
  /// Of the reused partitions, how many came from a persistent backend —
  /// deserialized from bytes, re-interned through the session's live
  /// ViewInterner and re-costed (cost asserted equal to the persisted one)
  /// before use. 0 when every reuse was served from process memory.
  size_t partitions_rehydrated = 0;
  /// Seconds of time budget early-finishing partitions returned to the
  /// shared pool for still-running ones (stage 3 re-granting).
  double budget_regranted_sec = 0;
  /// Partitions abandoned this update (the recommendation is degraded when
  /// nonzero; see Sec. "Failure semantics" in the README).
  size_t partitions_failed = 0;
  /// Retry attempts made beyond each partition's first try.
  size_t partition_retries = 0;
  /// One record per partition that needed the retry machinery this update
  /// (failed at least once, recovered, or was abandoned), ordered by
  /// partition index. Healthy runs leave it empty.
  std::vector<PartitionHealth> partition_health;

  /// The run's span tree plus a registry snapshot taken when the run
  /// finished (null when TelemetryOptions::trace is off). Shared const:
  /// copying a report/Recommendation stays cheap.
  std::shared_ptr<const telemetry::RunTelemetry> telemetry;
};

/// A recommended view set: everything needed to deploy the three-tier
/// scenario of the introduction — materialize `views` (away from the
/// database), then answer query i by executing rewritings[i] on them.
struct Recommendation {
  /// One definition per view of the best state; union views carry the
  /// post-reformulated disjuncts (a singleton union otherwise).
  std::vector<cq::UnionOfQueries> view_definitions;
  /// Column names per view, aligned with view_definitions.
  std::vector<std::vector<cq::VarId>> view_columns;
  /// View ids, aligned with view_definitions.
  std::vector<uint32_t> view_ids;
  /// One rewriting per workload query, over the views above.
  std::vector<engine::ExprPtr> rewritings;

  State best_state;
  SearchStats stats;
  EntailmentMode entailment = EntailmentMode::kNone;

  /// Cost-model memoization observability for the run: interner cache
  /// traffic, per-term reuse counts, and the number of distinct views the
  /// search ever created (the O(distinct views) bound on estimations).
  ViewInterner::Counters cost_cache_counters;
  CostModel::Counters cost_counters;
  size_t distinct_views_interned = 0;

  /// Pipeline and session observability (see PipelineReport).
  PipelineReport pipeline;

  /// The store the views must be materialized over: the saturated store for
  /// kSaturate, the original store otherwise (owned when saturated).
  std::shared_ptr<const rdf::TripleStore> materialization_store;
};

/// Materializes all recommended views over the recommendation's store.
struct MaterializedViews {
  std::vector<engine::Relation> relations;  // aligned with view ids
  std::vector<uint32_t> view_ids;

  const engine::Relation& ById(uint32_t view_id) const;
  size_t TotalBytes() const;
};

class ViewSelector {
 public:
  /// `schema` may be null when entailment is kNone.
  ViewSelector(const rdf::TripleStore* store, const rdf::Dictionary* dict,
               const rdf::Schema* schema = nullptr)
      : store_(store), dict_(dict), schema_(schema) {}

  /// One-shot convenience wrapper over vsel::TuningSession
  /// (vsel/session/session.h): equivalent to constructing a session and
  /// calling Update(workload) once, then discarding the session's caches.
  /// Continuous / evolving workloads should hold a TuningSession instead —
  /// it reuses partition search results, interned views, and warmed
  /// statistics across updates, and supports cancellation and progress
  /// streaming through RecommendAsync.
  Result<Recommendation> Recommend(
      const std::vector<cq::ConjunctiveQuery>& workload,
      const TuningConfig& options) const;

 private:
  const rdf::TripleStore* store_;
  const rdf::Dictionary* dict_;
  const rdf::Schema* schema_;
};

/// Materializes the recommended views.
MaterializedViews Materialize(const Recommendation& rec);

/// Executes rewriting `query_index` over the materialized views.
engine::Relation AnswerQuery(const Recommendation& rec,
                             const MaterializedViews& views,
                             size_t query_index);

}  // namespace rdfviews::vsel

#endif  // RDFVIEWS_VSEL_SELECTOR_H_
