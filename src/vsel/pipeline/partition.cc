// Pipeline stage 2: the query-commonality graph and its components.
//
// Two queries are connected iff they share a body constant. This is the
// exact interaction criterion of the transition system: VB/SC/JC act inside
// one view and never introduce a constant, so every view derivable from a
// query carries a subset of that query's constants; VF — the only
// cross-view transition — needs isomorphic bodies, and body isomorphisms
// fix constants pointwise, so views derived from constant-disjoint queries
// can only fuse once both are constant-free, which the armed stop_var
// condition discards. Whenever that argument does not hold (stop_var off,
// or a query whose minimized form has a constant-free connected component,
// which would also disarm stop_var for the monolithic search), the plan
// falls back to a single partition: correctness first, scale second.
//
// The per-query constants and the wildcard flag come from the ingest
// stage's single-minimization pass (IngestResult::minimized); so do the
// canonical per-query keys this stage concatenates into the per-group
// canonical workload keys that identify "the same sub-workload" across
// tuning-session updates.
#include <numeric>
#include <unordered_map>

#include "common/disjoint_sets.h"
#include "common/logging.h"
#include "vsel/pipeline/pipeline.h"

namespace rdfviews::vsel::pipeline {

namespace {

/// Canonical workload key of one group: the member queries' canonical keys
/// in group (workload) order. Order-sensitive so that a cached partition
/// result's rewritings can be mapped back positionally.
std::string GroupKey(
    const std::vector<size_t>& group,
    const std::vector<std::shared_ptr<const MinimizedQuery>>& minimized) {
  std::string key;
  for (size_t qi : group) {
    key += minimized[qi]->canonical_key;
    key += '\n';
  }
  return key;
}

PartitionPlan SingleGroup(
    size_t n,
    const std::vector<std::shared_ptr<const MinimizedQuery>>& minimized,
    std::string reason) {
  PartitionPlan plan;
  plan.groups.emplace_back(n);
  std::iota(plan.groups.back().begin(), plan.groups.back().end(), 0);
  plan.group_keys.push_back(GroupKey(plan.groups.back(), minimized));
  plan.fallback_reason = std::move(reason);
  return plan;
}

}  // namespace

PartitionPlan PartitionWorkload(const IngestResult& ingest,
                                const TuningConfig& options) {
  const size_t n = ingest.queries.size();
  const std::vector<std::shared_ptr<const MinimizedQuery>>& minimized =
      ingest.minimized;
  RDFVIEWS_CHECK(minimized.size() == n);
  if (!options.partition.enabled) {
    return SingleGroup(n, minimized, "partitioning disabled");
  }
  if (n <= 1) return SingleGroup(n, minimized, "");
  switch (options.strategy) {
    case StrategyKind::kPruning21:
    case StrategyKind::kGreedy21:
    case StrategyKind::kHeuristic21:
      // The [21] re-implementations combine the per-query spaces with
      // global keep-K pruning; splitting changes which partials survive,
      // so they stay faithful to the paper and run monolithic.
      return SingleGroup(n, minimized,
                         "competitor strategies run monolithic");
    default:
      break;
  }
  if (!options.heuristics.stop_var) {
    return SingleGroup(n, minimized, "stop_var disabled");
  }

  for (size_t i = 0; i < n; ++i) {
    if (minimized[i]->has_constant_free_component) {
      return SingleGroup(
          n, minimized,
          "query " + ingest.queries[i]->name() +
              " has a constant-free component (stop_var disarmed)");
    }
  }

  DisjointSets sets(n);
  std::unordered_map<rdf::TermId, size_t> first_owner;
  for (size_t i = 0; i < n; ++i) {
    for (rdf::TermId c : minimized[i]->constants) {
      auto [it, inserted] = first_owner.try_emplace(c, i);
      if (!inserted) sets.Union(i, it->second);
    }
  }

  PartitionPlan plan;
  std::unordered_map<size_t, size_t> root_to_group;
  for (size_t i = 0; i < n; ++i) {
    size_t root = sets.Find(i);
    auto [it, inserted] = root_to_group.try_emplace(root, plan.groups.size());
    if (inserted) plan.groups.emplace_back();
    plan.groups[it->second].push_back(i);
  }
  plan.group_keys.reserve(plan.groups.size());
  for (const std::vector<size_t>& group : plan.groups) {
    plan.group_keys.push_back(GroupKey(group, minimized));
  }
  return plan;
}

}  // namespace rdfviews::vsel::pipeline
