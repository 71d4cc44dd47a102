// Edge cases across the stack: blank-node join semantics (Sec. 2), cyclic
// RDFS declarations, joins on the property position, file I/O round trips,
// and less-traveled selector paths.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "rdf/vocabulary.h"
#include "rdfviews.h"
#include "test_util.h"

namespace rdfviews {
namespace {

using rdfviews::testing::MustParse;

// ---------------------------------------------------------- blank nodes

TEST(BlankNodeTest, BlankNodesJoinUnlikeNulls) {
  // Sec. 2: "the author of X is Jane while the date of X is 4/1/2011, for
  // a given, unknown resource X" — the two triples join through the blank.
  rdf::Dictionary dict;
  rdf::TripleStore store;
  rdf::TermId b = dict.Intern("_:x", rdf::TermKind::kBlank);
  store.Add(b, dict.Intern("author"), dict.Intern("Jane"));
  store.Add(b, dict.Intern("date"), dict.Intern("4/1/2011"));
  store.Build(&dict);
  auto q = MustParse("q(A, D) :- t(X, author, A), t(X, date, D)", &dict);
  engine::Relation r = engine::EvaluateQuery(q, store);
  ASSERT_EQ(r.NumRows(), 1u);
  EXPECT_EQ(dict.Lexical(r.At(0, 0)), "Jane");
}

TEST(BlankNodeTest, SaturationPropagatesThroughBlanks) {
  // (u, hasPainted, _:b) entails (_:b, rdf:type, painting).
  rdf::Dictionary dict;
  rdf::Schema schema;
  schema.AddRange(dict.Intern("hasPainted"), dict.Intern("painting"));
  rdf::TripleStore store;
  rdf::TermId blank = dict.Intern("_:b", rdf::TermKind::kBlank);
  store.Add(dict.Intern("u"), dict.Intern("hasPainted"), blank);
  store.Build(&dict);
  rdf::TripleStore sat = rdf::Saturate(store, schema);
  EXPECT_TRUE(sat.Contains(
      rdf::Triple{blank, rdf::kRdfType, dict.Intern("painting")}));
}

// ---------------------------------------------------------- cyclic RDFS

TEST(CyclicSchemaTest, SaturationTerminatesOnClassCycles) {
  rdf::Dictionary dict;
  rdf::Schema schema;
  rdf::TermId a = dict.Intern("a");
  rdf::TermId b = dict.Intern("b");
  schema.AddSubClassOf(a, b);
  schema.AddSubClassOf(b, a);  // equivalent classes via a cycle
  rdf::TripleStore store;
  store.Add(dict.Intern("x"), rdf::kRdfType, a);
  store.Build(&dict);
  rdf::TripleStore sat = rdf::Saturate(store, schema);
  EXPECT_TRUE(sat.Contains(rdf::Triple{dict.Intern("x"), rdf::kRdfType, b}));
  EXPECT_EQ(sat.size(), 2u);
}

TEST(CyclicSchemaTest, ReformulationTerminatesAndMatchesSaturation) {
  rdf::Dictionary dict;
  rdf::Schema schema;
  rdf::TermId a = dict.Intern("a");
  rdf::TermId b = dict.Intern("b");
  schema.AddSubClassOf(a, b);
  schema.AddSubClassOf(b, a);
  schema.AddSubPropertyOf(dict.Intern("p"), dict.Intern("q"));
  schema.AddSubPropertyOf(dict.Intern("q"), dict.Intern("p"));
  rdf::TripleStore store;
  store.Add(dict.Intern("x"), rdf::kRdfType, a);
  store.Add(dict.Intern("x"), dict.Intern("p"), dict.Intern("y"));
  store.Build(&dict);
  rdf::TripleStore sat = rdf::Saturate(store, schema);
  for (const char* text : {"qq(X) :- t(X, rdf:type, b)",
                           "qq(X, Y) :- t(X, q, Y)"}) {
    auto q = MustParse(text, &dict);
    reform::ReformulationResult r = reform::Reformulate(q, schema);
    EXPECT_TRUE(r.complete);
    engine::Relation direct = engine::EvaluateQuery(q, sat);
    engine::Relation via = engine::EvaluateUnion(r.ucq, store);
    EXPECT_TRUE(direct.SameRowsAs(via)) << text;
  }
}

// --------------------------------------------- joins on the property slot

TEST(PropertyJoinTest, TransitionsPreserveAnswersOnPropertyJoins) {
  // Two atoms joined through the *property* variable P — join edges on the
  // p column are first-class (Def. 3.1 allows any attribute pair).
  rdf::Dictionary dict;
  rdf::TripleStore store;
  auto add = [&](const char* s, const char* p, const char* o) {
    store.Add(dict.Intern(s), dict.Intern(p), dict.Intern(o));
  };
  add("a", "r1", "c1");
  add("b", "r1", "c2");
  add("a", "r2", "c1");
  add("d", "r3", "c2");
  store.Build(&dict);
  auto q = MustParse("q(P) :- t(X, P, c1), t(Y, P, c2)", &dict);
  std::vector<cq::ConjunctiveQuery> workload{q};
  vsel::State s0 = *vsel::MakeInitialState(workload);
  vsel::TransitionOptions topts;
  // The P-P join edge must be enumerated.
  vsel::ViewGraph g = vsel::BuildViewGraph(s0, 0);
  ASSERT_EQ(g.join_edges.size(), 1u);
  EXPECT_EQ(g.join_edges[0].a.column, rdf::Column::kP);
  // Every transition keeps the rewriting equivalent.
  for (vsel::TransitionKind kind :
       {vsel::TransitionKind::kSC, vsel::TransitionKind::kJC}) {
    for (const vsel::Transition& t :
         vsel::EnumerateTransitions(s0, kind, topts)) {
      vsel::State next = vsel::ApplyTransition(s0, t);
      std::map<uint32_t, engine::Relation> mats;
      for (const vsel::View& v : next.views()) {
        mats[v.id] = engine::MaterializeView(v.def, v.Columns(), store);
      }
      engine::Relation got = engine::Execute(
          *next.rewritings()[0],
          [&](uint32_t id) -> const engine::Relation& { return mats.at(id); });
      got.DedupRows();
      engine::Relation expected = engine::EvaluateQuery(q, store);
      EXPECT_TRUE(expected.SameRowsAs(got)) << t.ToString();
    }
  }
}

// ------------------------------------------------------------- file I/O

TEST(FileIoTest, LoadNTriplesFileRoundTrip) {
  rdfviews::testing::PaintersFixture fx;
  std::filesystem::path path =
      std::filesystem::temp_directory_path() / "rdfviews_io_test.nt";
  {
    std::ofstream out(path);
    out << rdf::WriteNTriples(fx.store, fx.dict);
  }
  rdf::Dictionary dict2;
  rdf::TripleStore store2;
  Result<size_t> n = rdf::LoadNTriplesFile(path.string(), &dict2, &store2);
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  store2.Build(&dict2);
  EXPECT_EQ(store2.size(), fx.store.size());
  std::filesystem::remove(path);
}

TEST(FileIoTest, MissingFileIsNotFound) {
  rdf::Dictionary dict;
  rdf::TripleStore store;
  Result<size_t> r =
      rdf::LoadNTriplesFile("/nonexistent/path.nt", &dict, &store);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

// --------------------------------------------------- selector edge paths

TEST(SelectorEdgeTest, ExNaiveStrategyEndToEnd) {
  rdfviews::testing::PaintersFixture fx;
  std::vector<cq::ConjunctiveQuery> workload{
      MustParse("q(X) :- t(X, hasPainted, starryNight)", &fx.dict)};
  vsel::ViewSelector selector(&fx.store, &fx.dict);
  vsel::TuningConfig opts;
  opts.strategy = vsel::StrategyKind::kExNaive;
  opts.heuristics.avf = false;
  opts.heuristics.stop_var = false;
  opts.limits.time_budget_sec = 5;
  auto rec = selector.Recommend(workload, opts);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  vsel::MaterializedViews views = vsel::Materialize(*rec);
  engine::Relation answer = vsel::AnswerQuery(*rec, views, 0);
  EXPECT_TRUE(
      engine::EvaluateQuery(workload[0], fx.store).SameRowsAs(answer));
}

TEST(SelectorEdgeTest, SingleAtomWorkloadIsStable) {
  // A workload whose optimum is trivially its own initial state.
  rdf::Dictionary dict;
  rdf::TripleStore store;
  store.Add(dict.Intern("s"), dict.Intern("p"), dict.Intern("o"));
  store.Build(&dict);
  std::vector<cq::ConjunctiveQuery> workload{
      MustParse("q(X) :- t(X, p, Y)", &dict)};
  vsel::ViewSelector selector(&store, &dict);
  vsel::TuningConfig opts;
  opts.limits.time_budget_sec = 2;
  auto rec = selector.Recommend(workload, opts);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->view_definitions.size(), 1u);
  EXPECT_EQ(rec->stats.best_cost, rec->stats.initial_cost);
}

TEST(SelectorEdgeTest, SharedViewAcrossQueriesAfterFusion) {
  // Two renamings of the same query must end with a single shared view.
  rdfviews::testing::PaintersFixture fx;
  std::vector<cq::ConjunctiveQuery> workload{
      MustParse("q1(X, Y) :- t(X, hasPainted, Y)", &fx.dict),
      MustParse("q2(B, A) :- t(A, hasPainted, B)", &fx.dict)};
  vsel::ViewSelector selector(&fx.store, &fx.dict);
  vsel::TuningConfig opts;
  opts.limits.time_budget_sec = 2;
  auto rec = selector.Recommend(workload, opts);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->view_definitions.size(), 1u);
  vsel::MaterializedViews views = vsel::Materialize(*rec);
  for (size_t i = 0; i < 2; ++i) {
    engine::Relation answer = vsel::AnswerQuery(*rec, views, i);
    EXPECT_TRUE(
        engine::EvaluateQuery(workload[i], fx.store).SameRowsAs(answer));
  }
}

// ----------------------------------------------------- statistics corner

TEST(StatisticsEdgeTest, SaturatedCountsAreNeverSmaller) {
  rdfviews::testing::PaintersFixture fx;
  rdf::TripleStore sat = rdf::Saturate(fx.store, fx.schema);
  rdf::Statistics base(&fx.store);
  rdf::Statistics sat_stats(&sat);
  for (rdf::TermId p :
       {*fx.dict.Find("hasPainted"), *fx.dict.Find("isLocatIn"),
        *fx.dict.Find("hasCreated")}) {
    rdf::Pattern pattern{rdf::kAnyTerm, p, rdf::kAnyTerm};
    EXPECT_GE(sat_stats.CountPattern(pattern), base.CountPattern(pattern));
  }
}

TEST(StatisticsEdgeTest, TheoremBoundGrowsWithAtoms) {
  rdfviews::testing::PaintersFixture fx;
  EXPECT_LT(reform::TheoremBound(fx.schema, 1),
            reform::TheoremBound(fx.schema, 2));
  EXPECT_GT(reform::TheoremBound(fx.schema, 3), 1.0);
}

}  // namespace
}  // namespace rdfviews
