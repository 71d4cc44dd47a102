// Figure 8 — "Execution times for queries with RDFS".
//
// For the Q1 workload, compares per-query evaluation time (ms) across:
//   views(post)    — post-reformulation recommended views + rewritings
//   views(pre)     — pre-reformulation recommended views + rewritings
//   saturated-tt   — direct BGP evaluation on the saturated triple table
//                    with a naive (as-written) join order: the PostgreSQL
//                    analogue of the paper
//   restricted-tt  — same engine on a triple table restricted to the
//                    triples matching the (reformulated) query atoms
//   rdf3x-sim      — greedy selectivity-ordered BGP evaluation over the
//                    fully-indexed saturated store: the RDF-3X stand-in
//   initial-state  — the materialized query results themselves (scan only)
//
// Paper results to reproduce: views are >= an order of magnitude faster
// than the triple-table baselines (even restricted); both pre- and post-
// reformulation views land in the range of RDF-3X; the initial state
// (materialized answers) is the fastest.
//
// Flags: --triples=60000 --atoms=5 --budget-sec=6 --reps=5 --seed=5
#include <algorithm>
#include <cstdio>
#include <unordered_set>

#include "bench_util.h"
#include "common/timer.h"
#include "engine/evaluator.h"
#include "rdf/saturation.h"
#include "reform/reformulate.h"
#include "vsel/selector.h"
#include "workload/barton.h"
#include "workload/generator.h"

namespace rdfviews {
namespace {

double MedianMillis(const std::function<void()>& fn, int reps) {
  std::vector<double> times;
  for (int i = 0; i < reps; ++i) {
    Stopwatch watch;
    fn();
    times.push_back(watch.ElapsedMillis());
  }
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

}  // namespace
}  // namespace rdfviews

int main(int argc, char** argv) {
  using namespace rdfviews;
  bench::Flags flags(argc, argv);
  const size_t triples = static_cast<size_t>(flags.GetInt("triples", 60000));
  const size_t atoms = static_cast<size_t>(flags.GetInt("atoms", 5));
  const double budget = flags.GetDouble("budget-sec", 6.0);
  const int reps = static_cast<int>(flags.GetInt("reps", 5));
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 5));

  rdf::Dictionary dict;
  workload::BartonSchema barton = workload::BuildBartonSchema(&dict);
  workload::BartonDataOptions dopts;
  dopts.num_triples = triples;
  dopts.seed = seed;
  rdf::TripleStore store = workload::GenerateBartonData(barton, &dict, dopts);
  rdf::TripleStore saturated = rdf::Saturate(store, barton.schema, {}, &dict);

  workload::WorkloadSpec spec;
  spec.num_queries = 5;
  spec.atoms_per_query = atoms;
  spec.shape = workload::QueryShape::kMixed;
  spec.commonality = workload::Commonality::kHigh;
  spec.seed = seed;
  std::vector<cq::ConjunctiveQuery> q1 =
      workload::GenerateSatisfiableWorkload(spec, store, &dict);

  std::printf("Figure 8 reproduction: query evaluation with RDFS "
              "(%zu base triples, %zu saturated).\n\n",
              store.size(), saturated.size());

  // --- Recommend + materialize views under both reformulation modes. ------
  vsel::ViewSelector selector(&store, &dict, &barton.schema);
  auto recommend = [&](vsel::EntailmentMode mode) {
    vsel::TuningConfig opts;
    opts.entailment = mode;
    opts.heuristics.avf = true;
    opts.heuristics.stop_var = true;
    opts.limits.time_budget_sec = budget;
    return selector.Recommend(q1, opts);
  };
  auto post = recommend(vsel::EntailmentMode::kPostReformulate);
  auto pre = recommend(vsel::EntailmentMode::kPreReformulate);
  if (!post.ok() || !pre.ok()) {
    std::printf("recommendation failed: %s / %s\n",
                post.status().ToString().c_str(),
                pre.status().ToString().c_str());
    return 1;
  }
  Stopwatch mat_watch;
  vsel::MaterializedViews post_views = vsel::Materialize(*post);
  double post_mat_ms = mat_watch.ElapsedMillis();
  mat_watch.Restart();
  vsel::MaterializedViews pre_views = vsel::Materialize(*pre);
  double pre_mat_ms = mat_watch.ElapsedMillis();
  std::printf(
      "views materialized: post-reformulation %.0f ms / %zu bytes (%.1f%% "
      "of store), pre-reformulation %.0f ms / %zu bytes (%.1f%%)\n\n",
      post_mat_ms, post_views.TotalBytes(),
      100.0 * static_cast<double>(post_views.TotalBytes()) /
          static_cast<double>(store.size() * 12),
      pre_mat_ms, pre_views.TotalBytes(),
      100.0 * static_cast<double>(pre_views.TotalBytes()) /
          static_cast<double>(store.size() * 12));

  // --- The "restricted triple table": only triples matching the atoms of
  // the reformulated workload.
  rdf::TripleStore restricted;
  {
    std::unordered_set<uint64_t> added;
    for (const cq::ConjunctiveQuery& q : q1) {
      reform::ReformulationResult r = reform::Reformulate(q, barton.schema);
      for (const cq::ConjunctiveQuery& d : r.ucq.disjuncts()) {
        for (const cq::Atom& a : d.atoms()) {
          saturated.Scan(a.ToPattern(), [&](const rdf::Triple& t) {
            restricted.Add(t);
            return true;
          });
        }
      }
    }
    restricted.Build(&dict);
  }
  std::printf("restricted triple table: %zu triples\n\n", restricted.size());

  // --- Initial state: materialized query answers. -------------------------
  std::vector<engine::Relation> answers;
  for (const cq::ConjunctiveQuery& q : q1) {
    answers.push_back(engine::EvaluateQuery(q, saturated));
  }

  bench::PrintRow({"query", "views(post)", "views(pre)", "saturated-tt",
                   "restricted-tt", "rdf3x-sim", "initial-state"},
                  15);
  bench::PrintRule(7, 15);

  engine::EvalOptions naive;
  naive.order = engine::EvalOptions::AtomOrder::kAsWritten;
  engine::EvalOptions greedy;

  std::vector<double> sums(6, 0.0);
  for (size_t i = 0; i < q1.size(); ++i) {
    std::vector<double> times;
    times.push_back(MedianMillis(
        [&] { vsel::AnswerQuery(*post, post_views, i); }, reps));
    times.push_back(MedianMillis(
        [&] { vsel::AnswerQuery(*pre, pre_views, i); }, reps));
    times.push_back(MedianMillis(
        [&] { engine::EvaluateQuery(q1[i], saturated, naive); }, reps));
    times.push_back(MedianMillis(
        [&] { engine::EvaluateQuery(q1[i], restricted, naive); }, reps));
    times.push_back(MedianMillis(
        [&] { engine::EvaluateQuery(q1[i], saturated, greedy); }, reps));
    times.push_back(MedianMillis(
        [&] {
          // Scanning the pre-computed answer (one pass over its rows).
          volatile size_t rows = answers[i].NumRows();
          for (size_t r = 0; r < rows; ++r) {
            volatile rdf::TermId v = answers[i].At(r, 0);
            (void)v;
          }
        },
        reps));
    std::vector<std::string> row{"Q1." + std::to_string(i + 1)};
    for (size_t k = 0; k < times.size(); ++k) {
      sums[k] += times[k];
      row.push_back(bench::FormatDouble(times[k], 4));
    }
    bench::PrintRow(row, 15);
  }
  std::vector<std::string> avg_row{"avg"};
  for (double s : sums) {
    avg_row.push_back(
        bench::FormatDouble(s / static_cast<double>(q1.size()), 4));
  }
  bench::PrintRule(7, 15);
  bench::PrintRow(avg_row, 15);
  std::printf(
      "\nExpected shape (paper): views orders of magnitude faster than the\n"
      "triple-table baselines; views comparable to rdf3x-sim; initial state "
      "fastest.\n");
  return 0;
}
