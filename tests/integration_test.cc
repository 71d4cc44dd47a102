// End-to-end pipeline tests on the Barton-like dataset: generate data and a
// satisfiable workload, run view selection under every entailment mode,
// materialize, and verify the three-tier contract — all workload queries
// answered from the views alone, with answers identical to evaluating the
// queries directly on the (saturated) database.
#include <gtest/gtest.h>

#include "engine/evaluator.h"
#include "rdf/saturation.h"
#include "reform/reformulate.h"
#include "test_util.h"
#include "vsel/selector.h"
#include "workload/barton.h"
#include "workload/generator.h"

namespace rdfviews {
namespace {

class PipelineFixture : public ::testing::Test {
 protected:
  PipelineFixture() {
    barton_ = workload::BuildBartonSchema(&dict_);
    workload::BartonDataOptions dopts;
    dopts.num_triples = 4000;
    store_ = workload::GenerateBartonData(barton_, &dict_, dopts);
    workload::WorkloadSpec spec;
    spec.num_queries = 4;
    spec.atoms_per_query = 4;
    spec.shape = workload::QueryShape::kMixed;
    spec.commonality = workload::Commonality::kHigh;
    queries_ = workload::GenerateSatisfiableWorkload(spec, store_, &dict_);
    saturated_ = rdf::Saturate(store_, barton_.schema);
  }

  void RunModeAndVerify(vsel::EntailmentMode mode) {
    vsel::ViewSelector selector(&store_, &dict_, &barton_.schema);
    vsel::TuningConfig opts;
    opts.entailment = mode;
    opts.limits.time_budget_sec = 5.0;
    auto rec = selector.Recommend(queries_, opts);
    ASSERT_TRUE(rec.ok()) << rec.status().ToString();
    vsel::MaterializedViews views = vsel::Materialize(*rec);
    const rdf::TripleStore& truth_store =
        mode == vsel::EntailmentMode::kNone ? store_ : saturated_;
    for (size_t i = 0; i < queries_.size(); ++i) {
      engine::Relation got = vsel::AnswerQuery(*rec, views, i);
      engine::Relation expected =
          engine::EvaluateQuery(queries_[i], truth_store);
      EXPECT_TRUE(expected.SameRowsAs(got))
          << vsel::EntailmentModeName(mode) << " query " << i << ": "
          << queries_[i].ToString(&dict_);
    }
  }

  rdf::Dictionary dict_;
  workload::BartonSchema barton_;
  rdf::TripleStore store_;
  rdf::TripleStore saturated_;
  std::vector<cq::ConjunctiveQuery> queries_;
};

TEST_F(PipelineFixture, PlainPipeline) {
  RunModeAndVerify(vsel::EntailmentMode::kNone);
}

TEST_F(PipelineFixture, SaturatedPipeline) {
  RunModeAndVerify(vsel::EntailmentMode::kSaturate);
}

TEST_F(PipelineFixture, PreReformulationPipeline) {
  RunModeAndVerify(vsel::EntailmentMode::kPreReformulate);
}

TEST_F(PipelineFixture, PostReformulationPipeline) {
  RunModeAndVerify(vsel::EntailmentMode::kPostReformulate);
}

TEST_F(PipelineFixture, SearchAchievesCostReduction) {
  // Add a structural duplicate of the first query: View Fusion then yields
  // a guaranteed strict improvement over S0 (Sec. 3.3: VF always reduces
  // the state cost).
  std::vector<cq::ConjunctiveQuery> workload = queries_;
  cq::ConjunctiveQuery copy = queries_[0];
  copy.set_name("q_dup");
  workload.push_back(copy);
  vsel::ViewSelector selector(&store_, &dict_, &barton_.schema);
  vsel::TuningConfig opts;
  opts.limits.time_budget_sec = 5.0;
  auto rec = selector.Recommend(workload, opts);
  ASSERT_TRUE(rec.ok());
  EXPECT_GT(rec->stats.RelativeCostReduction(), 0.0);
}

TEST_F(PipelineFixture, ReformulationGrowsBartonWorkloads) {
  // Table 3's qualitative content: reformulated workloads are much larger.
  size_t disjuncts = 0;
  for (const auto& q : queries_) {
    reform::ReformulationResult r =
        reform::Reformulate(q, barton_.schema);
    ASSERT_TRUE(r.complete);
    disjuncts += r.ucq.size();
  }
  EXPECT_GT(disjuncts, queries_.size());
}

TEST_F(PipelineFixture, HeuristicsShrinkTheSearchSpace) {
  // Figure 5's qualitative content, at test scale. No time budget: the
  // state budget alone ends both runs, so the comparison does not depend
  // on how fast the machine is.
  vsel::ViewSelector selector(&store_, &dict_);
  vsel::TuningConfig none;
  none.heuristics.avf = false;
  none.heuristics.stop_var = false;
  none.limits.time_budget_sec = 0;
  none.limits.max_states = 20000;
  vsel::TuningConfig both;
  both.heuristics.avf = true;
  both.heuristics.stop_var = true;
  both.limits = none.limits;
  std::vector<cq::ConjunctiveQuery> two(queries_.begin(),
                                        queries_.begin() + 2);
  auto r_none = selector.Recommend(two, none);
  auto r_both = selector.Recommend(two, both);
  ASSERT_TRUE(r_none.ok() && r_both.ok());
  uint64_t live_none = r_none->stats.created - r_none->stats.duplicates -
                       r_none->stats.discarded;
  uint64_t live_both = r_both->stats.created - r_both->stats.duplicates -
                       r_both->stats.discarded;
  EXPECT_LE(live_both, live_none);
}

}  // namespace
}  // namespace rdfviews
