// Quickstart: the paper's running example, end to end.
//
// Builds the painters dataset from the introduction, runs view selection on
// the workload {q1}, materializes the recommended views and answers q1 from
// the views alone — the "three-tier" deployment where the client never
// touches the triple store.
//
// Build & run:  cmake --build build && ./build/examples/quickstart
#include <cstdio>

#include "cq/parser.h"
#include "engine/evaluator.h"
#include "rdf/dictionary.h"
#include "rdf/triple_store.h"
#include "vsel/selector.h"

using namespace rdfviews;

int main() {
  // --- 1. An RDF database: painters, paintings, children. -----------------
  rdf::Dictionary dict;
  rdf::TripleStore store;
  auto add = [&](const char* s, const char* p, const char* o) {
    store.Add(dict.Intern(s), dict.Intern(p), dict.Intern(o));
  };
  add("vanGogh", "hasPainted", "starryNight");
  add("vanGogh", "hasPainted", "irises");
  add("vanGogh", "isParentOf", "theo");
  add("theo", "hasPainted", "sunflowers");
  add("rembrandt", "hasPainted", "nightWatch");
  add("rembrandt", "isParentOf", "titus");
  add("titus", "hasPainted", "portraitOfTitus");
  store.Build(&dict);
  std::printf("database: %zu triples\n", store.size());

  // --- 2. The workload: q1 from the paper (Sec. 2). -----------------------
  // "Painters that have painted Starry Night and have a child that is also
  //  a painter, together with the paintings of their children."
  Result<cq::ConjunctiveQuery> q1 = cq::ParseDatalog(
      "q1(X, Z) :- t(X, hasPainted, starryNight), t(X, isParentOf, Y), "
      "t(Y, hasPainted, Z)",
      &dict);
  if (!q1.ok()) {
    std::printf("parse error: %s\n", q1.status().ToString().c_str());
    return 1;
  }
  std::printf("workload: %s\n\n", q1->ToString(&dict).c_str());

  // --- 3. Recommend views. ------------------------------------------------
  vsel::ViewSelector selector(&store, &dict);
  vsel::TuningConfig options;            // DFS-AVF-STV by default
  options.limits.time_budget_sec = 2.0;
  Result<vsel::Recommendation> rec = selector.Recommend({*q1}, options);
  if (!rec.ok()) {
    std::printf("selection failed: %s\n", rec.status().ToString().c_str());
    return 1;
  }
  std::printf("recommended views (initial cost %.1f -> best cost %.1f, "
              "rcr %.2f):\n",
              rec->stats.initial_cost, rec->stats.best_cost,
              rec->stats.RelativeCostReduction());
  for (const cq::UnionOfQueries& def : rec->view_definitions) {
    std::printf("  %s\n", def.ToString(&dict).c_str());
  }
  auto view_name = [&](uint32_t id) { return "v" + std::to_string(id); };
  std::printf("rewriting:\n  q1 = %s\n\n",
              rec->rewritings[0]->ToString(view_name, &dict).c_str());

  // --- 4. Materialize and answer from the views alone. --------------------
  vsel::MaterializedViews views = vsel::Materialize(*rec);
  std::printf("materialized %zu views, %zu bytes total\n",
              views.relations.size(), views.TotalBytes());
  engine::Relation answer = vsel::AnswerQuery(*rec, views, 0);
  std::printf("q1 answers (%zu):\n", answer.NumRows());
  for (size_t r = 0; r < answer.NumRows(); ++r) {
    std::printf("  (%s, %s)\n", dict.Lexical(answer.At(r, 0)).c_str(),
                dict.Lexical(answer.At(r, 1)).c_str());
  }

  // --- 5. Sanity: identical to evaluating q1 on the database. -------------
  engine::Relation direct = engine::EvaluateQuery(*q1, store);
  std::printf("\ndirect evaluation agrees: %s\n",
              direct.SameRowsAs(answer) ? "yes" : "NO (bug!)");
  return 0;
}
