// Library portal: the three-tier deployment scenario of the introduction at
// a realistic scale.
//
// A "library" server holds a Barton-like catalog (default 30k triples with
// the 39-class / 61-property / 106-statement schema). A web portal runs a
// fixed workload of catalog queries. View selection recommends the view set
// the portal should cache; afterwards the portal answers every workload
// query without contacting the library — and this example measures the
// speedup against querying the (saturated) triple store directly.
//
// Flags: --triples=30000 --queries=6 --budget-sec=4
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/timer.h"
#include "engine/evaluator.h"
#include "rdf/saturation.h"
#include "vsel/selector.h"
#include "workload/barton.h"
#include "workload/generator.h"

using namespace rdfviews;

namespace {

double ParseFlag(int argc, char** argv, const std::string& key,
                 double fallback) {
  std::string prefix = "--" + key + "=";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind(prefix, 0) == 0) {
      return std::atof(arg.substr(prefix.size()).c_str());
    }
  }
  return fallback;
}

}  // namespace

int main(int argc, char** argv) {
  const size_t triples =
      static_cast<size_t>(ParseFlag(argc, argv, "triples", 30000));
  const size_t num_queries =
      static_cast<size_t>(ParseFlag(argc, argv, "queries", 6));
  const double budget = ParseFlag(argc, argv, "budget-sec", 4.0);

  // --- The library server's data. ------------------------------------------
  rdf::Dictionary dict;
  workload::BartonSchema barton = workload::BuildBartonSchema(&dict);
  workload::BartonDataOptions dopts;
  dopts.num_triples = triples;
  rdf::TripleStore store = workload::GenerateBartonData(barton, &dict, dopts);
  std::printf("library catalog: %zu triples, schema with %zu classes / %zu "
              "properties\n",
              store.size(), barton.classes.size(), barton.properties.size());

  // --- The portal's workload. ----------------------------------------------
  workload::WorkloadSpec spec;
  spec.num_queries = num_queries;
  spec.atoms_per_query = 5;
  spec.shape = workload::QueryShape::kMixed;
  spec.commonality = workload::Commonality::kHigh;
  std::vector<cq::ConjunctiveQuery> queries =
      workload::GenerateSatisfiableWorkload(spec, store, &dict);
  std::printf("portal workload: %zu queries\n\n", queries.size());
  for (const cq::ConjunctiveQuery& q : queries) {
    std::printf("  %s\n", q.ToString(&dict).c_str());
  }

  // --- Offline: select and materialize the portal's views. -----------------
  vsel::ViewSelector selector(&store, &dict, &barton.schema);
  vsel::TuningConfig options;
  options.entailment = vsel::EntailmentMode::kPostReformulate;
  options.limits.time_budget_sec = budget;
  Result<vsel::Recommendation> rec = selector.Recommend(queries, options);
  if (!rec.ok()) {
    std::printf("selection failed: %s\n", rec.status().ToString().c_str());
    return 1;
  }
  Stopwatch mat_watch;
  vsel::MaterializedViews views = vsel::Materialize(*rec);
  std::printf("\nselected %zu views in %.1fs (rcr %.3f), materialized in "
              "%.0f ms, %zu bytes (vs ~%zu bytes of raw triples)\n\n",
              views.relations.size(), rec->stats.elapsed_sec,
              rec->stats.RelativeCostReduction(), mat_watch.ElapsedMillis(),
              views.TotalBytes(), store.size() * 3 * sizeof(rdf::TermId));

  // --- Online: answer from the cached views; compare against the server. ---
  rdf::TripleStore saturated = rdf::Saturate(store, barton.schema);
  double views_ms_total = 0;
  double server_ms_total = 0;
  std::printf("%-8s%-10s%-14s%-16s%s\n", "query", "answers", "views (ms)",
              "server (ms)", "agree");
  for (size_t i = 0; i < queries.size(); ++i) {
    Stopwatch w1;
    engine::Relation from_views = vsel::AnswerQuery(*rec, views, i);
    double views_ms = w1.ElapsedMillis();
    Stopwatch w2;
    engine::EvalOptions naive;
    naive.order = engine::EvalOptions::AtomOrder::kAsWritten;
    engine::Relation from_server =
        engine::EvaluateQuery(queries[i], saturated, naive);
    double server_ms = w2.ElapsedMillis();
    views_ms_total += views_ms;
    server_ms_total += server_ms;
    std::printf("%-8s%-10zu%-14.3f%-16.3f%s\n", queries[i].name().c_str(),
                from_views.NumRows(), views_ms, server_ms,
                from_views.SameRowsAs(from_server) ? "yes" : "NO (bug!)");
  }
  std::printf("\ntotal: views %.1f ms vs server %.1f ms  (%.1fx)\n",
              views_ms_total, server_ms_total,
              server_ms_total / std::max(views_ms_total, 1e-9));
  std::printf("The portal now runs offline: every workload query is served "
              "from the cached views.\n");
  return 0;
}
