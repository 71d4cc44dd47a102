// Tests for the staged recommendation pipeline (src/vsel/pipeline/):
// budget apportioning, commonality-graph partitioning (with its soundness
// fallbacks), partition-vs-monolithic search equivalence for all four
// Sec. 5 strategies (serial and with a worker pool — the parallel suite
// names contain "Parallel" so the TSan CI job picks them up), the merge
// stage's cross-partition dedup, and statistics-snapshot persistence.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>

#include "engine/evaluator.h"
#include "rdf/statistics.h"
#include "test_util.h"
#include "vsel/pipeline/pipeline.h"
#include "vsel/selector.h"
#include "workload/generator.h"

namespace rdfviews::vsel::pipeline {
namespace {

using rdfviews::testing::MustParse;

// ---- ApportionSearchLimits -------------------------------------------------

TEST(ApportionLimitsTest, ProportionalSplit) {
  SearchLimits total;
  total.max_states = 100;
  total.time_budget_sec = 4.0;
  auto shares = ApportionSearchLimits(total, {1, 3});
  ASSERT_EQ(shares.size(), 2u);
  EXPECT_EQ(shares[0].max_states, 25u);
  EXPECT_EQ(shares[1].max_states, 75u);
  EXPECT_DOUBLE_EQ(shares[0].time_budget_sec, 1.0);
  EXPECT_DOUBLE_EQ(shares[1].time_budget_sec, 3.0);
}

TEST(ApportionLimitsTest, RoundsStatesUp) {
  SearchLimits total;
  total.max_states = 10;
  auto shares = ApportionSearchLimits(total, {1, 1, 1});
  for (const SearchLimits& s : shares) EXPECT_EQ(s.max_states, 4u);
}

TEST(ApportionLimitsTest, NoPartitionGetsZeroBudget) {
  SearchLimits total;
  total.max_states = 1;
  total.time_budget_sec = 1.0;
  auto shares = ApportionSearchLimits(total, {1, 100000});
  ASSERT_EQ(shares.size(), 2u);
  // The tiny partition still gets at least one state and a positive time
  // slice (the round-up guarantees of the apportioning policy).
  EXPECT_GE(shares[0].max_states, 1u);
  EXPECT_GT(shares[0].time_budget_sec, 0.0);
  EXPECT_GE(shares[1].max_states, 1u);
  EXPECT_GT(shares[1].time_budget_sec, 0.0);
}

TEST(ApportionLimitsTest, UnlimitedBudgetsStayUnlimited) {
  SearchLimits total;
  total.max_states = 0;
  total.time_budget_sec = 0;
  for (const SearchLimits& s : ApportionSearchLimits(total, {2, 5})) {
    EXPECT_EQ(s.max_states, 0u);
    EXPECT_DOUBLE_EQ(s.time_budget_sec, 0.0);
  }
}

TEST(ApportionLimitsTest, SinglePartitionKeepsTotals) {
  SearchLimits total;
  total.max_states = 12345;
  total.time_budget_sec = 2.5;
  auto shares = ApportionSearchLimits(total, {7});
  ASSERT_EQ(shares.size(), 1u);
  EXPECT_EQ(shares[0].max_states, total.max_states);
  EXPECT_DOUBLE_EQ(shares[0].time_budget_sec, total.time_budget_sec);
}

// ---- TimeBudgetPool --------------------------------------------------------

TEST(TimeBudgetPoolTest, DepositsAccumulateAndTakeDrains) {
  TimeBudgetPool pool;
  EXPECT_DOUBLE_EQ(pool.balance(), 0.0);
  pool.Deposit(0.5);
  pool.Deposit(0.25);
  EXPECT_DOUBLE_EQ(pool.balance(), 0.75);
  EXPECT_DOUBLE_EQ(pool.Take(), 0.75);
  EXPECT_DOUBLE_EQ(pool.balance(), 0.0);
  EXPECT_DOUBLE_EQ(pool.Take(), 0.0);
}

TEST(TimeBudgetPoolTest, IgnoresNonPositiveDeposits) {
  TimeBudgetPool pool;
  pool.Deposit(0.0);
  pool.Deposit(-1.0);
  EXPECT_DOUBLE_EQ(pool.balance(), 0.0);
  // A negative deposit never eats an earlier positive one.
  pool.Deposit(0.5);
  pool.Deposit(-2.0);
  EXPECT_DOUBLE_EQ(pool.Take(), 0.5);
}

TEST(TimeBudgetPoolTest, RegrantAccountingFlowsToLaterPartitions) {
  // Simulates stage 3's sequential discipline: partition 0 finishes early
  // and deposits its leftover; partition 1 takes it on top of its own
  // slice; partition 1 times out, so nothing returns for partition 2.
  TimeBudgetPool pool;
  const double slice = 1.0;
  // Partition 0: completed after 0.2s of its 1s slice.
  double p0_budget = slice + pool.Take();
  EXPECT_DOUBLE_EQ(p0_budget, 1.0);
  pool.Deposit(p0_budget - 0.2);
  // Partition 1: inherits the 0.8s spare.
  double p1_budget = slice + pool.Take();
  EXPECT_DOUBLE_EQ(p1_budget, 1.8);
  // Timed out: no deposit.
  // Partition 2: pool is empty again.
  EXPECT_DOUBLE_EQ(slice + pool.Take(), 1.0);
}

// ---- PartitionWorkload -----------------------------------------------------

/// Three constant-disjoint query families: {q1, q2} on a:*, {q3} on b:*,
/// {q4, q5} on c:*.
std::vector<cq::ConjunctiveQuery> DisjointWorkload(rdf::Dictionary* dict) {
  return {
      MustParse(
          "q1(X, Z) :- t(X, a:p1, Y), t(Y, a:p2, Z), t(Z, a:p3, a:c1)",
          dict),
      MustParse("q2(X) :- t(X, a:p1, a:c1)", dict),
      MustParse("q3(X, Y) :- t(X, b:p1, Y), t(Y, b:p2, b:c1)", dict),
      MustParse("q4(X) :- t(X, c:p1, c:c1)", dict),
      MustParse("q5(X, Y) :- t(X, c:p1, Y), t(X, c:p2, c:c2)", dict),
  };
}

/// A hand-built IngestResult over `queries`, which it points at (see
/// IngestResult::queries): the caller keeps them alive.
IngestResult IngestOf(const std::vector<cq::ConjunctiveQuery>& queries) {
  IngestResult ing;
  for (const cq::ConjunctiveQuery& q : queries) {
    ing.queries.push_back(&q);
    ing.minimized.push_back(
        std::make_shared<const MinimizedQuery>(MinimizeQuery(q)));
  }
  return ing;
}

TEST(PartitionTest, SplitsConstantDisjointFamilies) {
  rdf::Dictionary dict;
  const std::vector<cq::ConjunctiveQuery> queries = DisjointWorkload(&dict);
  IngestResult ing = IngestOf(queries);
  TuningConfig options;
  PartitionPlan plan = PartitionWorkload(ing, options);
  EXPECT_TRUE(plan.fallback_reason.empty());
  ASSERT_EQ(plan.num_partitions(), 3u);
  EXPECT_EQ(plan.groups[0], (std::vector<size_t>{0, 1}));
  EXPECT_EQ(plan.groups[1], (std::vector<size_t>{2}));
  EXPECT_EQ(plan.groups[2], (std::vector<size_t>{3, 4}));
}

TEST(PartitionTest, SharedConstantConnects) {
  rdf::Dictionary dict;
  // q2 bridges the a:* and b:* families through b:p1.
  const std::vector<cq::ConjunctiveQuery> queries = {
      MustParse("q1(X) :- t(X, a:p1, a:c1)", &dict),
      MustParse("q2(X) :- t(X, a:p1, Y), t(Y, b:p1, a:c2)", &dict),
      MustParse("q3(X) :- t(X, b:p1, b:c1)", &dict),
  };
  IngestResult ing = IngestOf(queries);
  PartitionPlan plan = PartitionWorkload(ing, TuningConfig{});
  ASSERT_EQ(plan.num_partitions(), 1u);
  EXPECT_TRUE(plan.fallback_reason.empty());
}

TEST(PartitionTest, FallsBackWhenStopVarDisabled) {
  rdf::Dictionary dict;
  const std::vector<cq::ConjunctiveQuery> queries = DisjointWorkload(&dict);
  IngestResult ing = IngestOf(queries);
  TuningConfig options;
  options.heuristics.stop_var = false;
  PartitionPlan plan = PartitionWorkload(ing, options);
  EXPECT_EQ(plan.num_partitions(), 1u);
  EXPECT_FALSE(plan.fallback_reason.empty());
}

TEST(PartitionTest, FallsBackOnConstantFreeQuery) {
  rdf::Dictionary dict;
  std::vector<cq::ConjunctiveQuery> queries = DisjointWorkload(&dict);
  // A constant-free query disarms stop_var, and with stop_var disarmed the
  // split is no longer provably exact.
  queries.push_back(MustParse("q6(X, Y) :- t(X, P, Y)", &dict));
  PartitionPlan plan =
      PartitionWorkload(IngestOf(queries), TuningConfig{});
  EXPECT_EQ(plan.num_partitions(), 1u);
  EXPECT_FALSE(plan.fallback_reason.empty());
}

TEST(PartitionTest, FallsBackWhenDisabledOrCompetitor) {
  rdf::Dictionary dict;
  const std::vector<cq::ConjunctiveQuery> queries = DisjointWorkload(&dict);
  IngestResult ing = IngestOf(queries);
  TuningConfig disabled;
  disabled.partition.enabled = false;
  EXPECT_EQ(PartitionWorkload(ing, disabled).num_partitions(), 1u);
  TuningConfig competitor;
  competitor.strategy = StrategyKind::kPruning21;
  EXPECT_EQ(PartitionWorkload(ing, competitor).num_partitions(), 1u);
}

// ---- Partition-vs-monolithic equivalence -----------------------------------

struct PipelineFixtureData {
  rdf::Dictionary dict;
  std::vector<cq::ConjunctiveQuery> workload;
  rdf::TripleStore store;

  /// Three constant-disjoint groups, small enough that the *monolithic*
  /// exhaustive searches (whose space is the product of the per-partition
  /// spaces) finish quickly even under ThreadSanitizer.
  PipelineFixtureData() {
    workload = {
        MustParse("q1(X, Z) :- t(X, a:p1, Y), t(Y, a:p2, Z)", &dict),
        MustParse("q2(X) :- t(X, a:p1, a:c1)", &dict),
        MustParse("q3(X, Y) :- t(X, b:p1, Y), t(Y, b:p2, b:c1)", &dict),
        MustParse("q4(X) :- t(X, c:p1, c:c1)", &dict),
    };
    store = workload::GenerateStoreForWorkload(workload, &dict, 3000, 42);
  }
};

/// Runs the pipeline on the shared fixture; `partitioned` toggles stage 2.
Recommendation RunPipeline(PipelineFixtureData* fx, StrategyKind strategy,
                           size_t num_threads, bool partitioned) {
  TuningConfig options;
  options.strategy = strategy;
  options.limits.num_threads = num_threads;
  options.partition.enabled = partitioned;
  // Calibration sums breakdowns in a different association order for
  // partitioned runs; disable it so the equivalence checks compare
  // bit-identical cost landscapes.
  options.auto_calibrate_cm = false;
  Result<Recommendation> rec = Run(&fx->store, &fx->dict, nullptr,
                                   fx->workload, options);
  EXPECT_TRUE(rec.ok()) << rec.status().ToString();
  return std::move(*rec);
}

void ExpectEquivalent(const Recommendation& partitioned,
                      const Recommendation& monolithic) {
  // Same view multiset (up to variable renaming) ...
  EXPECT_EQ(partitioned.best_state.Signature(),
            monolithic.best_state.Signature());
  // ... same cost (up to floating-point re-association in the merge sums),
  EXPECT_NEAR(partitioned.stats.best_cost, monolithic.stats.best_cost,
              1e-9 * (1.0 + std::abs(monolithic.stats.best_cost)));
  EXPECT_NEAR(partitioned.stats.initial_cost, monolithic.stats.initial_cost,
              1e-9 * (1.0 + std::abs(monolithic.stats.initial_cost)));
  // ... and both exhausted their spaces.
  EXPECT_TRUE(partitioned.stats.completed);
  EXPECT_TRUE(monolithic.stats.completed);
  // Partitioning searches the sum of the per-partition spaces instead of
  // their product: it must never create more states than the monolithic
  // search.
  EXPECT_LE(partitioned.stats.created, monolithic.stats.created);
}

void ExpectAnswersGroundTruth(PipelineFixtureData* fx,
                              const Recommendation& rec) {
  MaterializedViews views = Materialize(rec);
  for (size_t i = 0; i < fx->workload.size(); ++i) {
    engine::Relation got = AnswerQuery(rec, views, i);
    engine::Relation expected =
        engine::EvaluateQuery(fx->workload[i], fx->store);
    EXPECT_TRUE(expected.SameRowsAs(got))
        << "query " << i << ": " << fx->workload[i].ToString(&fx->dict);
  }
}

class PipelineEquivalenceTest
    : public ::testing::TestWithParam<StrategyKind> {};

TEST_P(PipelineEquivalenceTest, PartitionedMatchesMonolithicSerial) {
  PipelineFixtureData fx;
  Recommendation part = RunPipeline(&fx, GetParam(), 1, true);
  Recommendation mono = RunPipeline(&fx, GetParam(), 1, false);
  EXPECT_EQ(part.pipeline.num_partitions, 3u);
  EXPECT_EQ(mono.pipeline.num_partitions, 1u);
  ExpectEquivalent(part, mono);
  ExpectAnswersGroundTruth(&fx, part);
  ExpectAnswersGroundTruth(&fx, mono);
}

INSTANTIATE_TEST_SUITE_P(Strategies, PipelineEquivalenceTest,
                         ::testing::Values(StrategyKind::kExNaive,
                                           StrategyKind::kExStr,
                                           StrategyKind::kDfs,
                                           StrategyKind::kGstr),
                         [](const auto& info) {
                           return StrategyName(info.param);
                         });

/// The pooled variant: partition searches run as concurrent tasks. The
/// suite name contains "Parallel" so the ThreadSanitizer CI job runs it.
class PipelineParallelEquivalenceTest
    : public ::testing::TestWithParam<StrategyKind> {};

TEST_P(PipelineParallelEquivalenceTest, PooledPartitionsMatchMonolithic) {
  PipelineFixtureData fx;
  Recommendation pooled = RunPipeline(&fx, GetParam(), 8, true);
  Recommendation mono = RunPipeline(&fx, GetParam(), 1, false);
  EXPECT_EQ(pooled.pipeline.num_partitions, 3u);
  ExpectEquivalent(pooled, mono);
  ExpectAnswersGroundTruth(&fx, pooled);
}

TEST_P(PipelineParallelEquivalenceTest, PooledMatchesSerialPartitions) {
  PipelineFixtureData fx;
  Recommendation pooled = RunPipeline(&fx, GetParam(), 8, true);
  Recommendation serial = RunPipeline(&fx, GetParam(), 1, true);
  EXPECT_EQ(pooled.best_state.Signature(), serial.best_state.Signature());
  EXPECT_EQ(pooled.stats.created, serial.stats.created);
}

INSTANTIATE_TEST_SUITE_P(Strategies, PipelineParallelEquivalenceTest,
                         ::testing::Values(StrategyKind::kExNaive,
                                           StrategyKind::kExStr,
                                           StrategyKind::kDfs,
                                           StrategyKind::kGstr),
                         [](const auto& info) {
                           return StrategyName(info.param);
                         });

// ---- Grouped workload generation end-to-end --------------------------------

// Named "Parallel" so the TSan CI job covers the full pipeline path —
// grouped generation, cm calibration on the shared cost model, pooled
// partition fan-out, merge — under the race detector.
TEST(PipelineParallelTest, GroupedGeneratorWorkloadDecomposes) {
  rdf::Dictionary dict;
  workload::WorkloadSpec spec;
  spec.num_queries = 20;
  spec.atoms_per_query = 4;
  spec.shape = workload::QueryShape::kChain;
  spec.commonality = workload::Commonality::kHigh;
  spec.partition_groups = 4;
  spec.seed = 11;
  std::vector<cq::ConjunctiveQuery> queries =
      workload::GenerateWorkload(spec, &dict);
  rdf::TripleStore store =
      workload::GenerateStoreForWorkload(queries, &dict, 4000, 11);

  TuningConfig options;
  options.limits.time_budget_sec = 1.0;
  options.limits.num_threads = 8;
  Result<Recommendation> rec =
      pipeline::Run(&store, &dict, nullptr, queries, options);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  // Per-group constant pools are disjoint, so the commonality graph yields
  // at least one partition per group.
  EXPECT_GE(rec->pipeline.num_partitions, 4u);
  EXPECT_EQ(rec->rewritings.size(), queries.size());
}

// ---- Merge-stage dedup -----------------------------------------------------

TEST(PipelineTest, MergeFoldsCrossPartitionDuplicateViews) {
  rdf::Dictionary dict;
  // Two structurally identical queries. The sound partitioner would put
  // them in one group (shared constants); force a two-group plan to
  // exercise the merge stage's cross-partition fold.
  std::vector<cq::ConjunctiveQuery> queries = {
      MustParse("q1(X) :- t(X, a:p1, a:c1)", &dict),
      MustParse("q2(Y) :- t(Y, a:p1, a:c1)", &dict),
  };
  rdf::TripleStore store =
      workload::GenerateStoreForWorkload(queries, &dict, 500, 3);

  TuningConfig options;
  Result<IngestResult> ingest =
      Ingest(&store, &dict, nullptr, queries, options);
  ASSERT_TRUE(ingest.ok());
  PartitionPlan plan;
  plan.groups = {{0}, {1}};
  CostModel cost_model(ingest->stats, options.weights);
  Result<std::vector<PartitionOutcome>> searches =
      SearchPartitions(*ingest, plan, &cost_model, options);
  ASSERT_TRUE(searches.ok()) << searches.status().ToString();
  Result<Recommendation> rec = MergePartitions(
      *ingest, plan, std::move(*searches), &cost_model, options);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();

  EXPECT_EQ(rec->pipeline.num_partitions, 2u);
  EXPECT_GE(rec->pipeline.merged_duplicate_views, 1u);
  // Both rewritings answer from the single materialized copy.
  MaterializedViews views = Materialize(*rec);
  for (size_t i = 0; i < queries.size(); ++i) {
    engine::Relation got = AnswerQuery(*rec, views, i);
    engine::Relation expected = engine::EvaluateQuery(queries[i], store);
    EXPECT_TRUE(expected.SameRowsAs(got)) << "query " << i;
  }
}

// ---- Partition fan-out -----------------------------------------------------

TEST(PipelineTest, FanOutNeedsTwoSearchedPartitionsAndThreads) {
  TuningConfig options;
  EXPECT_FALSE(FanOutPartitions(options, 3));
  options.limits.num_threads = 2;
  EXPECT_FALSE(FanOutPartitions(options, 0));
  EXPECT_FALSE(FanOutPartitions(options, 1));
  EXPECT_TRUE(FanOutPartitions(options, 2));
}

TEST(PipelineTest, OneSearchedPartitionMergesAsBackToBack) {
  // An incremental stage 3 that re-searches exactly one of three
  // partitions runs it alone, so merge must lay the partitions out back to
  // back (elapsed = sum of the slices) at any thread count.
  rdf::Dictionary dict;
  std::vector<cq::ConjunctiveQuery> queries = DisjointWorkload(&dict);
  rdf::TripleStore store =
      workload::GenerateStoreForWorkload(queries, &dict, 500, 3);
  for (size_t threads : {size_t{1}, size_t{2}}) {
    SCOPED_TRACE("num_threads=" + std::to_string(threads));
    TuningConfig options;
    options.auto_calibrate_cm = false;
    options.limits.num_threads = threads;
    Result<IngestResult> ingest =
        Ingest(&store, &dict, nullptr, queries, options);
    ASSERT_TRUE(ingest.ok());
    PartitionPlan plan = PartitionWorkload(*ingest, options);
    ASSERT_EQ(plan.num_partitions(), 3u);
    CostModel cost_model(ingest->stats, options.weights);
    Result<std::vector<PartitionOutcome>> cold =
        SearchPartitions(*ingest, plan, &cost_model, options);
    ASSERT_TRUE(cold.ok()) << cold.status().ToString();

    std::vector<PreseededOutcome> preseeded(plan.num_partitions());
    for (size_t p = 1; p < plan.num_partitions(); ++p) {
      preseeded[p].result = &(*cold)[p].result;
    }
    PipelineReport report;
    Result<std::vector<PartitionOutcome>> warm = SearchPartitions(
        *ingest, plan, &cost_model, options, &preseeded, &report);
    ASSERT_TRUE(warm.ok()) << warm.status().ToString();
    ASSERT_EQ(report.partitions_searched, 1u);
    double sum = 0;
    for (const PartitionOutcome& o : *warm) {
      ASSERT_TRUE(o.ok());
      EXPECT_GT(o.result.search.stats.elapsed_sec, 0.0);
      sum += o.result.search.stats.elapsed_sec;
    }
    Result<Recommendation> rec = MergePartitions(
        *ingest, plan, std::move(*warm), &cost_model, options, &report);
    ASSERT_TRUE(rec.ok()) << rec.status().ToString();
    EXPECT_DOUBLE_EQ(rec->stats.elapsed_sec, sum);
  }
}

// ---- Statistics snapshot persistence ---------------------------------------

TEST(StatisticsSnapshotIoTest, RoundTripsCounts) {
  rdf::Dictionary dict;
  std::vector<cq::ConjunctiveQuery> queries = DisjointWorkload(&dict);
  rdf::TripleStore store =
      workload::GenerateStoreForWorkload(queries, &dict, 1000, 5);
  rdf::Statistics stats(&store);
  for (const cq::ConjunctiveQuery& q : queries) {
    for (const cq::Atom& a : q.atoms()) {
      stats.CollectWithRelaxations(a.ToPattern());
    }
  }
  rdf::StatisticsSnapshot snapshot = stats.Snapshot();
  ASSERT_GT(snapshot.size(), 0u);

  const std::string path = ::testing::TempDir() + "stats_roundtrip.snap";
  const uint64_t tag = rdf::SnapshotStoreTag(store);
  ASSERT_TRUE(rdf::SaveSnapshot(snapshot, path, tag).ok());
  Result<rdf::StatisticsSnapshot> loaded = rdf::LoadSnapshot(path, tag);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->counts, snapshot.counts);

  // A warmed instance serves every count without touching the store again.
  rdf::Statistics warmed(&store);
  warmed.Warm(*loaded);
  EXPECT_EQ(warmed.cache_size(), snapshot.size());
  for (const auto& [pattern, count] : snapshot.counts) {
    EXPECT_EQ(warmed.CountPattern(pattern), count);
  }
  std::remove(path.c_str());
}

TEST(StatisticsSnapshotIoTest, RejectsWrongStoreAndMissingFile) {
  rdf::Dictionary dict;
  std::vector<cq::ConjunctiveQuery> queries = DisjointWorkload(&dict);
  rdf::TripleStore store =
      workload::GenerateStoreForWorkload(queries, &dict, 1000, 5);
  rdf::Statistics stats(&store);
  stats.CollectWithRelaxations(queries[0].atoms()[0].ToPattern());

  const std::string path = ::testing::TempDir() + "stats_tag.snap";
  const uint64_t tag = rdf::SnapshotStoreTag(store);
  ASSERT_TRUE(rdf::SaveSnapshot(stats.Snapshot(), path, tag).ok());
  Result<rdf::StatisticsSnapshot> wrong = rdf::LoadSnapshot(path, tag + 1);
  EXPECT_FALSE(wrong.ok());
  EXPECT_EQ(wrong.status().code(), StatusCode::kInvalidArgument);

  Result<rdf::StatisticsSnapshot> missing =
      rdf::LoadSnapshot(::testing::TempDir() + "does_not_exist.snap", tag);
  EXPECT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace rdfviews::vsel::pipeline
