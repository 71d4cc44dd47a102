// Batch tuning: the staged recommendation pipeline on a large workload.
//
// A tuning service (the RDFViewS scenario) receives the whole query log of
// an application — hundreds of queries — not the handful of the paper's
// figures. This example generates a 300-query workload whose queries fall
// into 6 independent families, and shows what the pipeline does with it:
//   - stage 2 partitions the workload along its commonality graph,
//   - stage 3 searches every partition under a slice of the global budget,
//   - stage 4 merges the per-partition bests into one recommendation,
// and the whole thing is exactly ViewSelector::Recommend — the pipeline IS
// the selector. A second run with partitioning disabled shows the
// monolithic search wasting the same budget on a 300-view state.
//
// Build & run:  cmake --build build && ./build/example_batch_tuning
#include <cstdio>

#include "rdf/statistics.h"
#include "vsel/selector.h"
#include "workload/generator.h"

using namespace rdfviews;

int main() {
  // --- 1. A 300-query workload in 6 constant-disjoint families. -----------
  rdf::Dictionary dict;
  workload::WorkloadSpec spec;
  spec.num_queries = 300;
  spec.atoms_per_query = 6;
  spec.shape = workload::QueryShape::kMixed;
  spec.commonality = workload::Commonality::kHigh;  // high *within* a family
  spec.partition_groups = 6;
  spec.seed = 20260726;
  std::vector<cq::ConjunctiveQuery> workload =
      workload::GenerateWorkload(spec, &dict);
  rdf::TripleStore store =
      workload::GenerateStoreForWorkload(workload, &dict, 40000, spec.seed);
  std::printf("workload: %zu queries over %zu triples\n\n", workload.size(),
              store.size());

  vsel::ViewSelector selector(&store, &dict);
  vsel::TuningConfig options;  // DFS-AVF-STV
  options.limits.time_budget_sec = 3.0;

  // --- 2. Partitioned: the pipeline splits, searches, merges. -------------
  Result<vsel::Recommendation> piped = selector.Recommend(workload, options);
  if (!piped.ok()) {
    std::printf("selection failed: %s\n", piped.status().ToString().c_str());
    return 1;
  }
  std::printf("pipeline:   %zu partitions, %llu states searched, "
              "rcr %.3f, %zu views\n",
              piped->pipeline.num_partitions,
              static_cast<unsigned long long>(piped->stats.created),
              piped->stats.RelativeCostReduction(),
              piped->view_definitions.size());

  // --- 3. Monolithic: same budget, one 300-view state. --------------------
  options.partition.enabled = false;
  Result<vsel::Recommendation> mono = selector.Recommend(workload, options);
  if (!mono.ok()) {
    std::printf("selection failed: %s\n", mono.status().ToString().c_str());
    return 1;
  }
  std::printf("monolithic: %zu partition,  %llu states searched, "
              "rcr %.3f, %zu views\n",
              mono->pipeline.num_partitions,
              static_cast<unsigned long long>(mono->stats.created),
              mono->stats.RelativeCostReduction(),
              mono->view_definitions.size());

  // --- 4. The fallback: partitioning refuses unsound splits. --------------
  options.partition.enabled = true;
  options.heuristics.stop_var = false;  // disarms the soundness argument
  Result<vsel::Recommendation> fallback =
      selector.Recommend(workload, options);
  if (fallback.ok()) {
    std::printf("\nwith stop_var off the pipeline runs monolithic: "
                "%zu partition (%s)\n",
                fallback->pipeline.num_partitions,
                fallback->pipeline.partition_fallback_reason.c_str());
  }
  return 0;
}
