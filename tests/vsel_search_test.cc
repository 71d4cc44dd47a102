#include <gtest/gtest.h>

#include "rdf/statistics.h"
#include "common/timer.h"
#include "test_util.h"
#include "vsel/cost_model.h"
#include "vsel/search.h"
#include "vsel/transitions.h"

namespace rdfviews::vsel {
namespace {

using rdfviews::testing::MustParse;
using rdfviews::testing::PaintersFixture;
using rdfviews::testing::RandomQuery;
using rdfviews::testing::RandomStore;

// ---------------------------------------------------------------- CostModel

TEST(CostModelTest, OneAtomViewCardinalityIsExact) {
  PaintersFixture fx;
  rdf::Statistics stats(&fx.store);
  CostModel model(&stats, CostWeights{});
  auto v = MustParse("v(X) :- t(X, hasPainted, starryNight)", &fx.dict);
  EXPECT_DOUBLE_EQ(model.ViewCardinality(v), 1.0);
  auto v2 = MustParse("v(X, Y) :- t(X, hasPainted, Y)", &fx.dict);
  EXPECT_DOUBLE_EQ(model.ViewCardinality(v2), 3.0);
  auto v3 = MustParse("v(X, P, Y) :- t(X, P, Y)", &fx.dict);
  EXPECT_DOUBLE_EQ(model.ViewCardinality(v3),
                   static_cast<double>(fx.store.size()));
}

TEST(CostModelTest, VmcIsFPowerLen) {
  PaintersFixture fx;
  rdf::Statistics stats(&fx.store);
  CostWeights w;
  w.f = 2.0;
  CostModel model(&stats, w);
  auto workload = std::vector<cq::ConjunctiveQuery>{
      MustParse("q(X) :- t(X, hasPainted, Y), t(Y, isExpIn, Z)", &fx.dict),
      MustParse("q2(X) :- t(X, isParentOf, Y)", &fx.dict)};
  State s0 = *MakeInitialState(workload);
  EXPECT_DOUBLE_EQ(model.Vmc(s0), 4.0 + 2.0);  // 2^2 + 2^1
}

TEST(CostModelTest, BreakdownCombinesWeights) {
  PaintersFixture fx;
  rdf::Statistics stats(&fx.store);
  CostWeights w;
  w.cs = 2.0;
  w.cr = 3.0;
  w.cm = 0.5;
  CostModel model(&stats, w);
  auto workload = std::vector<cq::ConjunctiveQuery>{
      MustParse("q(X) :- t(X, hasPainted, Y)", &fx.dict)};
  State s0 = *MakeInitialState(workload);
  CostBreakdown b = model.Breakdown(s0);
  EXPECT_DOUBLE_EQ(b.total, 2.0 * b.vso + 3.0 * b.rec + 0.5 * b.vmc);
  EXPECT_GT(b.vso, 0.0);
  EXPECT_GT(b.rec, 0.0);
}

TEST(CostModelTest, CalibrateCmLandsWithinTwoOrders) {
  CostBreakdown s0;
  s0.vso = 1e6;
  s0.rec = 1e6;
  s0.vmc = 10.0;
  CostWeights w;
  double cm = CostModel::CalibrateCm(s0, w);
  double ratio = (w.cs * s0.vso + w.cr * s0.rec) / (cm * s0.vmc);
  EXPECT_NEAR(ratio, 100.0, 1e-6);
}

class CostMonotonicityTest : public ::testing::TestWithParam<int> {};

TEST_P(CostMonotonicityTest, ScNeverDecreasesAndVfNeverIncreasesCost) {
  rdf::Dictionary dict;
  rdf::TripleStore store = RandomStore(&dict, 100, 12, 5, GetParam());
  rdf::Statistics stats(&store);
  CostModel model(&stats, CostWeights{});
  Rng rng(GetParam() + 1);
  std::vector<cq::ConjunctiveQuery> workload;
  for (int i = 0; i < 2; ++i) {
    workload.push_back(RandomQuery(store, 2 + rng.Below(2), 2, rng.raw()));
    workload.back().set_name("q" + std::to_string(i));
  }
  State s0 = *MakeInitialState(workload);
  TransitionOptions topts;
  // Walk a few random states and check the transition cost laws (Sec. 3.3).
  State current = s0;
  for (int step = 0; step < 6; ++step) {
    double cost = model.StateCost(current);
    for (const Transition& t :
         EnumerateTransitions(current, TransitionKind::kSC, topts)) {
      State next = ApplyTransition(current, t);
      EXPECT_GE(model.StateCost(next), cost * (1 - 1e-9))
          << "SC decreased cost: " << t.ToString();
    }
    for (const Transition& t :
         EnumerateTransitions(current, TransitionKind::kVF, topts)) {
      State next = ApplyTransition(current, t);
      EXPECT_LE(model.StateCost(next), cost * (1 + 1e-9))
          << "VF increased cost: " << t.ToString();
    }
    std::vector<Transition> any;
    for (TransitionKind kind : {TransitionKind::kSC, TransitionKind::kJC}) {
      auto ts = EnumerateTransitions(current, kind, topts);
      any.insert(any.end(), ts.begin(), ts.end());
    }
    if (any.empty()) break;
    current = ApplyTransition(current, any[rng.Below(any.size())]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CostMonotonicityTest,
                         ::testing::Values(31, 32, 33, 34));

// ------------------------------------------------------------------- Search

class SearchFixture : public ::testing::Test {
 protected:
  SearchFixture() : stats_(&fx_.store), model_(&stats_, CostWeights{}) {}

  State InitialState(const std::vector<std::string>& queries) {
    workload_.clear();
    for (const std::string& text : queries) {
      workload_.push_back(MustParse(text, &fx_.dict));
    }
    return *MakeInitialState(workload_);
  }

  PaintersFixture fx_;
  rdf::Statistics stats_;
  CostModel model_;
  std::vector<cq::ConjunctiveQuery> workload_;
};

TEST_F(SearchFixture, Figure3SpaceHasNineStates) {
  // The workload of Figure 3: q(Y, Z) :- t(X, Y, c1), t(X, Z, c2).
  State s0 = InitialState({"q(Y, Z) :- t(X, Y, c1), t(X, Z, c2)"});
  HeuristicOptions heur;  // no AVF, no stop conditions
  SearchLimits limits;
  Result<SearchResult> r =
      RunSearch(StrategyKind::kExNaive, s0, model_, heur, limits);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->stats.completed);
  // 9 states total: S0 plus 8 distinct new ones (Figure 3's V0..V8).
  EXPECT_EQ(r->stats.created - r->stats.duplicates, 8u);
}

TEST_F(SearchFixture, SerialBestThatStaysS0CarriesItsCostTerms) {
  // One one-atom query: no VB, JC or VF applies and SC only raises the
  // cost, so every complete search keeps S0 as its best. That best must
  // carry the terms costing S0 computed, under this model's key, so a
  // merge can sum them instead of estimating them again.
  HeuristicOptions heur;
  SearchLimits limits;
  limits.num_threads = 1;
  for (StrategyKind kind : {StrategyKind::kExNaive, StrategyKind::kExStr,
                            StrategyKind::kDfs, StrategyKind::kGstr}) {
    SCOPED_TRACE(StrategyName(kind));
    // A fresh S0 per search: one the previous search costed would carry
    // its terms into any copy.
    State s0 = InitialState({"q(X) :- t(X, hasPainted, starryNight)"});
    Result<SearchResult> r = RunSearch(kind, s0, model_, heur, limits);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_TRUE(r->stats.completed);
    ASSERT_EQ(r->best.fingerprint(), s0.fingerprint());
    EXPECT_TRUE(r->best.AllViewTermsValid());
    EXPECT_EQ(r->best.cost_cache().model_key, model_.cache_key());
  }
}

TEST_F(SearchFixture, ExhaustiveStrategiesAgreeOnBestCost) {
  State s0 = InitialState(
      {"q1(X) :- t(X, hasPainted, starryNight), t(X, isParentOf, Y)",
       "q2(A) :- t(A, hasPainted, B)"});
  HeuristicOptions heur;
  SearchLimits limits;
  double best_naive = 0;
  double best_str = 0;
  double best_dfs = 0;
  {
    auto r = RunSearch(StrategyKind::kExNaive, s0, model_, heur, limits);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r->stats.completed);
    best_naive = r->stats.best_cost;
  }
  {
    auto r = RunSearch(StrategyKind::kExStr, s0, model_, heur, limits);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r->stats.completed);
    best_str = r->stats.best_cost;
  }
  {
    auto r = RunSearch(StrategyKind::kDfs, s0, model_, heur, limits);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r->stats.completed);
    best_dfs = r->stats.best_cost;
  }
  EXPECT_DOUBLE_EQ(best_naive, best_str);
  EXPECT_DOUBLE_EQ(best_naive, best_dfs);
}

TEST_F(SearchFixture, AvfPreservesBestCostAndShrinksSpace) {
  State s0 = InitialState(
      {"q1(X) :- t(X, hasPainted, starryNight), t(X, isParentOf, Y)",
       "q2(A) :- t(A, hasPainted, B)"});
  SearchLimits limits;
  HeuristicOptions plain;
  HeuristicOptions avf;
  avf.avf = true;
  auto r_plain = RunSearch(StrategyKind::kDfs, s0, model_, plain, limits);
  auto r_avf = RunSearch(StrategyKind::kDfs, s0, model_, avf, limits);
  ASSERT_TRUE(r_plain.ok() && r_avf.ok());
  EXPECT_DOUBLE_EQ(r_plain->stats.best_cost, r_avf->stats.best_cost);
  EXPECT_LE(r_avf->stats.created - r_avf->stats.duplicates -
                r_avf->stats.discarded,
            r_plain->stats.created - r_plain->stats.duplicates);
}

TEST_F(SearchFixture, StopVarDiscardsAllVariableViews) {
  State s0 = InitialState({"q(X) :- t(X, hasPainted, Y), t(X, isParentOf, Z)"});
  SearchLimits limits;
  HeuristicOptions plain;
  HeuristicOptions stv;
  stv.stop_var = true;
  auto r_plain = RunSearch(StrategyKind::kDfs, s0, model_, plain, limits);
  auto r_stv = RunSearch(StrategyKind::kDfs, s0, model_, stv, limits);
  ASSERT_TRUE(r_plain.ok() && r_stv.ok());
  EXPECT_GT(r_stv->stats.discarded, 0u);
  EXPECT_LT(r_stv->stats.created, r_plain->stats.created);
}

/// True when some view of `s` is the full triple table t(X, P, Y).
bool HoldsTripleTable(const State& s) {
  for (const View& v : s.views()) {
    if (v.def.len() == 1 && v.def.NumConstants() == 0 &&
        v.def.BodyVars().size() == 3) {
      return true;
    }
  }
  return false;
}

size_t AdmittedStates(const SearchStats& stats) {
  return stats.created - stats.duplicates - stats.discarded;
}

TEST_F(SearchFixture, StopTtDiscardsTripleTableViewsUnlessS0HoldsOne) {
  HeuristicOptions plain;  // stop_var off, as below
  HeuristicOptions stt;
  stt.stop_tt = true;
  SearchLimits limits;

  // SC on the query's only constant relaxes its view to the triple table;
  // that state is the whole space beyond S0, and stop_tt must discard it.
  State s0 = InitialState({"q(X, Y) :- t(X, hasPainted, Y)"});
  ASSERT_FALSE(HoldsTripleTable(s0));
  auto r_plain = RunSearch(StrategyKind::kDfs, s0, model_, plain, limits);
  auto r_stt = RunSearch(StrategyKind::kDfs, s0, model_, stt, limits);
  ASSERT_TRUE(r_plain.ok() && r_stt.ok());
  EXPECT_TRUE(r_plain->stats.completed && r_stt->stats.completed);
  EXPECT_EQ(AdmittedStates(r_plain->stats), 1u);
  EXPECT_EQ(r_plain->stats.discarded, 0u);
  EXPECT_GT(r_stt->stats.discarded, 0u);
  EXPECT_EQ(AdmittedStates(r_stt->stats), 0u);
  EXPECT_FALSE(HoldsTripleTable(r_stt->best));

  // S0 already holds a triple-table view: the condition disarms, and the
  // run is the plain one.
  s0 = InitialState(
      {"q(X, Y) :- t(X, hasPainted, Y)", "all(X, P, Y) :- t(X, P, Y)"});
  ASSERT_TRUE(HoldsTripleTable(s0));
  r_plain = RunSearch(StrategyKind::kDfs, s0, model_, plain, limits);
  r_stt = RunSearch(StrategyKind::kDfs, s0, model_, stt, limits);
  ASSERT_TRUE(r_plain.ok() && r_stt.ok());
  EXPECT_GT(AdmittedStates(r_plain->stats), 0u);
  EXPECT_EQ(r_stt->stats.discarded, 0u);
  EXPECT_EQ(r_stt->stats.created, r_plain->stats.created);
  EXPECT_EQ(r_stt->best.fingerprint(), r_plain->best.fingerprint());
}

TEST_F(SearchFixture, GstrFindsNoWorseThanInitial) {
  State s0 = InitialState(
      {"q1(X, Z) :- t(X, hasPainted, starryNight), t(X, isParentOf, Y), "
       "t(Y, hasPainted, Z)",
       "q2(A) :- t(A, hasPainted, B)"});
  HeuristicOptions heur;
  heur.avf = true;
  heur.stop_var = true;
  SearchLimits limits;
  auto r = RunSearch(StrategyKind::kGstr, s0, model_, heur, limits);
  ASSERT_TRUE(r.ok());
  EXPECT_LE(r->stats.best_cost, r->stats.initial_cost);
}

TEST_F(SearchFixture, TimeBudgetIsRespected) {
  State s0 = InitialState(
      {"q1(X) :- t(X, p1, Y1), t(X, p2, Y2), t(X, p3, Y3), t(X, p4, Y4), "
       "t(X, p5, Y5), t(X, p6, Y6)"});
  HeuristicOptions heur;
  SearchLimits limits;
  limits.time_budget_sec = 0.2;
  Stopwatch watch;
  auto r = RunSearch(StrategyKind::kDfs, s0, model_, heur, limits);
  ASSERT_TRUE(r.ok());
  EXPECT_LT(watch.ElapsedSeconds(), 5.0);
  EXPECT_TRUE(r->stats.time_exhausted);
  EXPECT_FALSE(r->stats.completed);
}

TEST_F(SearchFixture, MaxStatesActsAsMemoryCeiling) {
  State s0 = InitialState(
      {"q1(X) :- t(X, p1, Y1), t(X, p2, Y2), t(X, p3, Y3), t(X, p4, Y4)"});
  HeuristicOptions heur;
  SearchLimits limits;
  limits.max_states = 50;
  auto r = RunSearch(StrategyKind::kDfs, s0, model_, heur, limits);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->stats.memory_exhausted);
}

TEST_F(SearchFixture, BestTraceIsMonotonicallyDecreasing) {
  State s0 = InitialState(
      {"q1(X, Z) :- t(X, hasPainted, starryNight), t(X, isParentOf, Y), "
       "t(Y, hasPainted, Z)"});
  HeuristicOptions heur;
  heur.avf = true;
  SearchLimits limits;
  auto r = RunSearch(StrategyKind::kDfs, s0, model_, heur, limits);
  ASSERT_TRUE(r.ok());
  for (size_t i = 1; i < r->stats.best_trace.size(); ++i) {
    EXPECT_LT(r->stats.best_trace[i].second,
              r->stats.best_trace[i - 1].second);
  }
}

// -------------------------------------------------------------- Competitors

TEST_F(SearchFixture, CompetitorsProduceFullCandidateSetsOnTinyWorkloads) {
  State s0 = InitialState({"q1(X) :- t(X, hasPainted, starryNight)",
                           "q2(A) :- t(A, hasPainted, B)"});
  HeuristicOptions heur;
  SearchLimits limits;
  for (StrategyKind kind : {StrategyKind::kPruning21, StrategyKind::kGreedy21,
                            StrategyKind::kHeuristic21}) {
    auto r = RunSearch(kind, s0, model_, heur, limits);
    ASSERT_TRUE(r.ok()) << StrategyName(kind) << ": "
                        << r.status().ToString();
    EXPECT_EQ(r->best.rewritings().size(), 2u) << StrategyName(kind);
    EXPECT_LE(r->stats.best_cost, r->stats.initial_cost);
  }
}

TEST_F(SearchFixture, CompetitorsExhaustMemoryOnLargerQueries) {
  // A 6-atom star: the per-query closure alone exceeds a small budget —
  // the Sec. 6.2 observation that [21] strategies die before producing any
  // full candidate set.
  State s0 = InitialState(
      {"q1(X) :- t(X, p1, Y1), t(X, p2, Y2), t(X, p3, Y3), t(X, p4, Y4), "
       "t(X, p5, Y5), t(X, p6, Y6)",
       "q2(A) :- t(A, p1, B)"});
  HeuristicOptions heur;
  SearchLimits limits;
  limits.max_states = 500;
  auto r = RunSearch(StrategyKind::kPruning21, s0, model_, heur, limits);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
}

}  // namespace
}  // namespace rdfviews::vsel
