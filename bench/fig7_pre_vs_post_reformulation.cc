// Figure 7 — "Search for view sets using reformulation".
//
// For the Table 3 workloads Q1 and Q2, runs DFS-AVF-STV under
// pre-reformulation (search over the reformulated workload, statistics on
// the original store) and post-reformulation (search over the original
// workload, reformulated statistics), printing the best-cost-over-time
// trace of each run.
//
// Paper results to reproduce: the pre-reformulation initial state costs
// more; post-reformulation's best cost drops faster and ends lower (factors
// 2.7x for Q1 and 22x for Q2 in the paper); the gap grows with |Q|.
//
// Flags: --budget-sec=8 --triples=20000 --atoms=7 --seed=5
#include <cstdio>

#include "bench_util.h"
#include "vsel/selector.h"
#include "workload/barton.h"
#include "workload/generator.h"

namespace rdfviews {
namespace {

void PrintTrace(const char* label, const vsel::SearchStats& stats) {
  std::printf("%s  (initial %.3e, best %.3e, rcr %.3f)\n", label,
              stats.initial_cost, stats.best_cost,
              stats.RelativeCostReduction());
  std::printf("  time(s)    best-cost\n");
  for (const auto& [sec, cost] : stats.best_trace) {
    std::printf("  %8.3f   %.4e\n", sec, cost);
  }
}

}  // namespace
}  // namespace rdfviews

int main(int argc, char** argv) {
  using namespace rdfviews;
  bench::Flags flags(argc, argv);
  const double budget = flags.GetDouble("budget-sec", 8.0);
  const size_t triples = static_cast<size_t>(flags.GetInt("triples", 20000));
  const size_t atoms = static_cast<size_t>(flags.GetInt("atoms", 7));
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 5));

  rdf::Dictionary dict;
  workload::BartonSchema barton = workload::BuildBartonSchema(&dict);
  workload::BartonDataOptions dopts;
  dopts.num_triples = triples;
  dopts.seed = seed;
  rdf::TripleStore store = workload::GenerateBartonData(barton, &dict, dopts);

  workload::WorkloadSpec spec;
  spec.num_queries = 10;
  spec.atoms_per_query = atoms;
  spec.shape = workload::QueryShape::kMixed;
  spec.commonality = workload::Commonality::kHigh;
  spec.seed = seed;
  std::vector<cq::ConjunctiveQuery> q2 =
      workload::GenerateSatisfiableWorkload(spec, store, &dict);
  std::vector<cq::ConjunctiveQuery> q1(q2.begin(), q2.begin() + 5);

  std::printf("Figure 7 reproduction: pre- vs post-reformulation search\n"
              "(DFS-AVF-STV, budget %.1fs per run, %zu triples).\n\n",
              budget, store.size());

  vsel::ViewSelector selector(&store, &dict, &barton.schema);
  struct Run {
    const char* workload_name;
    const std::vector<cq::ConjunctiveQuery>* queries;
  };
  const Run runs[] = {{"Q1", &q1}, {"Q2", &q2}};
  for (const Run& run : runs) {
    double best_pre = 0;
    double best_post = 0;
    for (vsel::EntailmentMode mode :
         {vsel::EntailmentMode::kPreReformulate,
          vsel::EntailmentMode::kPostReformulate}) {
      vsel::TuningConfig opts;
      opts.entailment = mode;
      opts.strategy = vsel::StrategyKind::kDfs;
      opts.heuristics.avf = true;
      opts.heuristics.stop_var = true;
      opts.limits.time_budget_sec = budget;
      auto rec = selector.Recommend(*run.queries, opts);
      if (!rec.ok()) {
        std::printf("%s %s failed: %s\n", run.workload_name,
                    vsel::EntailmentModeName(mode),
                    rec.status().ToString().c_str());
        continue;
      }
      std::printf("--- %s, %s ---\n", run.workload_name,
                  vsel::EntailmentModeName(mode));
      PrintTrace("trace", rec->stats);
      std::printf("\n");
      if (mode == vsel::EntailmentMode::kPreReformulate) {
        best_pre = rec->stats.best_cost;
      } else {
        best_post = rec->stats.best_cost;
      }
    }
    if (best_post > 0) {
      std::printf("%s: best pre-reformulation cost / best "
                  "post-reformulation cost = %.2fx (paper: 2.7x for Q1, "
                  "22x for Q2)\n\n",
                  run.workload_name, best_pre / best_post);
    }
  }
  return 0;
}
