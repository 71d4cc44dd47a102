#include <gtest/gtest.h>

#include <unordered_set>

#include "engine/evaluator.h"
#include "rdf/saturation.h"
#include "test_util.h"
#include "vsel/selector.h"

namespace rdfviews::vsel {
namespace {

using rdfviews::testing::MustParse;
using rdfviews::testing::PaintersFixture;

class SelectorFixture : public ::testing::Test {
 protected:
  std::vector<cq::ConjunctiveQuery> Workload() {
    return {
        MustParse(
            "q1(X, Z) :- t(X, hasPainted, starryNight), t(X, isParentOf, Y), "
            "t(Y, hasPainted, Z)",
            &fx_.dict),
        MustParse("q2(X, Y) :- t(X, isLocatIn, Y)", &fx_.dict),
        MustParse("q3(X) :- t(X, rdf:type, picture)", &fx_.dict),
    };
  }

  TuningConfig Options(EntailmentMode mode) {
    TuningConfig opts;
    opts.entailment = mode;
    opts.limits.time_budget_sec = 2.0;
    return opts;
  }

  /// The ground truth for entailment-aware modes: direct evaluation on the
  /// saturated store.
  engine::Relation GroundTruth(const cq::ConjunctiveQuery& q,
                               bool entailment) {
    if (!entailment) return engine::EvaluateQuery(q, fx_.store);
    rdf::TripleStore saturated = rdf::Saturate(fx_.store, fx_.schema);
    return engine::EvaluateQuery(q, saturated);
  }

  void ExpectAnswersMatch(const Recommendation& rec,
                          const std::vector<cq::ConjunctiveQuery>& workload,
                          bool entailment) {
    MaterializedViews views = Materialize(rec);
    for (size_t i = 0; i < workload.size(); ++i) {
      engine::Relation got = AnswerQuery(rec, views, i);
      engine::Relation expected = GroundTruth(workload[i], entailment);
      EXPECT_TRUE(expected.SameRowsAs(got))
          << EntailmentModeName(rec.entailment) << " query " << i << ": "
          << workload[i].ToString(&fx_.dict) << "\ngot " << got.NumRows()
          << " rows, expected " << expected.NumRows();
    }
  }

  PaintersFixture fx_;
};

TEST_F(SelectorFixture, PlainModeAnswersWorkloadFromViewsOnly) {
  ViewSelector selector(&fx_.store, &fx_.dict);
  auto workload = Workload();
  auto rec = selector.Recommend(workload, Options(EntailmentMode::kNone));
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_FALSE(rec->view_definitions.empty());
  ExpectAnswersMatch(*rec, workload, /*entailment=*/false);
}

TEST_F(SelectorFixture, EveryRecommendedViewIsUseful) {
  // Def. 2.3 (ii): every view participates in at least one rewriting.
  ViewSelector selector(&fx_.store, &fx_.dict);
  auto workload = Workload();
  auto rec = selector.Recommend(workload, Options(EntailmentMode::kNone));
  ASSERT_TRUE(rec.ok());
  std::unordered_set<uint32_t> scanned;
  for (const engine::ExprPtr& r : rec->rewritings) {
    r->ForEachScan(
        [&](const engine::Expr& s) { scanned.insert(s.view_id()); });
  }
  for (uint32_t id : rec->view_ids) {
    EXPECT_TRUE(scanned.contains(id)) << "useless view v" << id;
  }
}

TEST_F(SelectorFixture, SaturateModeReflectsImplicitTriples) {
  ViewSelector selector(&fx_.store, &fx_.dict, &fx_.schema);
  auto workload = Workload();
  auto rec = selector.Recommend(workload, Options(EntailmentMode::kSaturate));
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  ExpectAnswersMatch(*rec, workload, /*entailment=*/true);
}

TEST_F(SelectorFixture, PreReformulationMatchesSaturatedAnswers) {
  ViewSelector selector(&fx_.store, &fx_.dict, &fx_.schema);
  auto workload = Workload();
  auto rec =
      selector.Recommend(workload, Options(EntailmentMode::kPreReformulate));
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  // Pre-reformulation materializes on the original store.
  EXPECT_EQ(rec->materialization_store.get(), &fx_.store);
  ExpectAnswersMatch(*rec, workload, /*entailment=*/true);
}

TEST_F(SelectorFixture, PostReformulationMatchesSaturatedAnswers) {
  ViewSelector selector(&fx_.store, &fx_.dict, &fx_.schema);
  auto workload = Workload();
  auto rec =
      selector.Recommend(workload, Options(EntailmentMode::kPostReformulate));
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_EQ(rec->materialization_store.get(), &fx_.store);
  // Views were reformulated: q3's picture view must have >= 2 disjuncts.
  bool some_union = false;
  for (const auto& def : rec->view_definitions) {
    if (def.size() > 1) some_union = true;
  }
  EXPECT_TRUE(some_union);
  ExpectAnswersMatch(*rec, workload, /*entailment=*/true);
}

TEST_F(SelectorFixture, PostReformulationFindsSameBestStateAsSaturation) {
  // Sec. 4.3: saturation and post-reformulation share statistics, hence the
  // search returns the same best state (same signature).
  ViewSelector selector(&fx_.store, &fx_.dict, &fx_.schema);
  auto workload = Workload();
  auto sat = selector.Recommend(workload, Options(EntailmentMode::kSaturate));
  auto post =
      selector.Recommend(workload, Options(EntailmentMode::kPostReformulate));
  ASSERT_TRUE(sat.ok() && post.ok());
  EXPECT_EQ(sat->best_state.Signature(), post->best_state.Signature());
}

TEST_F(SelectorFixture, SearchReducesCost) {
  ViewSelector selector(&fx_.store, &fx_.dict);
  auto workload = Workload();
  auto rec = selector.Recommend(workload, Options(EntailmentMode::kNone));
  ASSERT_TRUE(rec.ok());
  EXPECT_GE(rec->stats.RelativeCostReduction(), 0.0);
  EXPECT_LE(rec->stats.best_cost, rec->stats.initial_cost);
}

TEST_F(SelectorFixture, EntailmentModeRequiresSchema) {
  ViewSelector selector(&fx_.store, &fx_.dict);  // no schema
  auto rec = selector.Recommend(Workload(),
                                Options(EntailmentMode::kSaturate));
  EXPECT_FALSE(rec.ok());
  EXPECT_EQ(rec.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(SelectorFixture, EmptyWorkloadRejected) {
  ViewSelector selector(&fx_.store, &fx_.dict);
  auto rec = selector.Recommend({}, Options(EntailmentMode::kNone));
  EXPECT_FALSE(rec.ok());
}

TEST_F(SelectorFixture, GstrStrategyEndToEnd) {
  ViewSelector selector(&fx_.store, &fx_.dict);
  auto workload = Workload();
  TuningConfig opts = Options(EntailmentMode::kNone);
  opts.strategy = StrategyKind::kGstr;
  auto rec = selector.Recommend(workload, opts);
  ASSERT_TRUE(rec.ok());
  ExpectAnswersMatch(*rec, workload, /*entailment=*/false);
}

TEST_F(SelectorFixture, MaterializedViewsReportBytes) {
  ViewSelector selector(&fx_.store, &fx_.dict);
  auto workload = Workload();
  auto rec = selector.Recommend(workload, Options(EntailmentMode::kNone));
  ASSERT_TRUE(rec.ok());
  MaterializedViews views = Materialize(*rec);
  EXPECT_EQ(views.view_ids.size(), rec->view_ids.size());
  EXPECT_GT(views.TotalBytes(), 0u);
}

}  // namespace
}  // namespace rdfviews::vsel
