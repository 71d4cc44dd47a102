// Evolving workloads: a TuningSession over a drifting query log.
//
// A live endpoint never tunes once: queries keep arriving, old reports get
// retired, and the recommended view set must follow. This example drives a
// vsel::TuningSession through that lifecycle:
//   1. an initial tune over a 60-query log (20 independent families, each
//      small enough that its search exhausts its space — only *completed*
//      partition searches enter the session cache),
//   2. an incremental update (+6 queries in two new families) — the
//      session re-searches only the dirty partitions and re-merges the
//      rest from its cache,
//   3. a retirement (one family's queries removed) — zero searches,
//   4. an asynchronous re-tune with live progress and a cooperative
//      Cancel, showing the anytime contract: the handle always returns a
//      valid current-best recommendation.
//
// Build & run:  cmake --build build && ./build/example_evolving_workload
#include <chrono>
#include <cstdio>
#include <thread>

#include "common/timer.h"
#include "vsel/session/session.h"
#include "workload/generator.h"

using namespace rdfviews;

namespace {

void PrintUpdate(const char* label, const vsel::Recommendation& rec,
                 double wall_ms) {
  std::printf(
      "%-12s %3zu queries  %2zu partitions (%zu reused, %zu searched)  "
      "%6.1f ms  rcr %.3f  %zu views\n",
      label, rec.rewritings.size(), rec.pipeline.num_partitions,
      rec.pipeline.partitions_reused, rec.pipeline.partitions_searched,
      wall_ms, rec.stats.RelativeCostReduction(),
      rec.view_definitions.size());
}

}  // namespace

int main() {
  // --- 0. A 66-query log in 22 constant-disjoint families; the last two
  // families (6 queries) arrive later, as the "drift". ----------------------
  rdf::Dictionary dict;
  workload::WorkloadSpec spec;
  spec.num_queries = 66;
  spec.atoms_per_query = 3;
  spec.shape = workload::QueryShape::kMixed;
  spec.commonality = workload::Commonality::kHigh;
  spec.partition_groups = 22;
  spec.seed = 20260726;
  std::vector<cq::ConjunctiveQuery> log =
      workload::GenerateWorkload(spec, &dict);
  rdf::TripleStore store =
      workload::GenerateStoreForWorkload(log, &dict, 10000, spec.seed);

  std::vector<cq::ConjunctiveQuery> initial(log.begin(), log.end() - 6);
  std::vector<cq::ConjunctiveQuery> arriving(log.end() - 6, log.end());

  vsel::TuningConfig options;
  // Greedy stratified, no time budget: every family search terminates with
  // its space (greedily) exhausted, so every partition result is cacheable.
  // Exhaustive strategies would need a budget here — and budget-truncated
  // searches never enter the cache.
  options.strategy = vsel::StrategyKind::kGstr;
  vsel::TuningSession session(&store, &dict, options);

  // --- 1. Initial tune: every partition is dirty. --------------------------
  Stopwatch watch;
  Result<vsel::Recommendation> rec = session.Update(initial);
  if (!rec.ok()) {
    std::printf("initial tune failed: %s\n", rec.status().ToString().c_str());
    return 1;
  }
  PrintUpdate("initial", *rec, watch.ElapsedMillis());

  // --- 2. Drift: +6 queries. Only the new families are searched; the
  // other partitions are re-merged from the session cache. ------------------
  watch.Restart();
  rec = session.Update(arriving);
  if (!rec.ok()) return 1;
  PrintUpdate("+6 queries", *rec, watch.ElapsedMillis());

  // --- 3. Retirement: dropping a family is pure cache re-merge. ------------
  std::vector<std::string> retire;
  for (size_t i = 0; i < 3; ++i) retire.push_back(initial[i].name());
  watch.Restart();
  rec = session.Update({}, retire);
  if (!rec.ok()) return 1;
  PrintUpdate("-3 queries", *rec, watch.ElapsedMillis());

  // --- 4. Asynchronous re-tune with progress + cancellation. ---------------
  // Invalidate the cache so the re-tune actually searches, then cancel it
  // mid-flight: the handle still returns a valid current-best.
  session.InvalidateCachedResults();
  std::shared_ptr<vsel::TuningHandle> handle = session.RecommendAsync();
  while (!handle->Poll()) {
    vsel::TuningProgress p = handle->Current();
    if (p.partitions_done >= p.partitions_total / 2 && p.partitions_total) {
      std::printf("async:       %zu/%zu partitions done, best %.3g — "
                  "cancelling\n",
                  p.partitions_done, p.partitions_total, p.best_cost);
      handle->Cancel();
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  Result<vsel::Recommendation> cancelled = handle->Wait();
  if (!cancelled.ok()) return 1;
  std::printf("async:       returned %s with %zu views (anytime "
              "current-best)\n",
              cancelled->stats.cancelled ? "cancelled" : "complete",
              cancelled->view_definitions.size());

  // The cancelled partitions stayed dirty; a quiet follow-up Recommend
  // finishes the job from where the cancel left off.
  watch.Restart();
  rec = session.Recommend();
  if (!rec.ok()) return 1;
  PrintUpdate("re-tune", *rec, watch.ElapsedMillis());
  return 0;
}
