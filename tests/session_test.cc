// Tests for the tuning-session API (src/vsel/session/): incremental
// Update == from-scratch Recommend (view-set signature + cost) across
// add/remove sequences for every Sec. 5 strategy, the delta's semantics
// (failed updates change nothing, removals by name, workload order),
// dirty-partition-only re-search (asserted through the PipelineReport
// reuse counters), per-query ingest work that scales with the delta,
// cooperative cancellation of every engine — serial and with 8 worker
// threads (the "Parallel"-named suites run under the TSan CI job) — and
// the async handle's Poll / Current / Cancel / Wait lifecycle.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <mutex>
#include <thread>
#include <tuple>
#include <vector>

#include "common/fault.h"
#include "common/telemetry/metrics.h"
#include "engine/evaluator.h"
#include "test_util.h"
#include "vsel/pipeline/pipeline.h"
#include "vsel/selector.h"
#include "vsel/session/session.h"
#include "workload/generator.h"

namespace rdfviews::vsel {
namespace {

using rdfviews::testing::MustParse;

/// Three constant-disjoint base families (a, b, c) plus a later delta: one
/// query extending family a (dirtying its partition) and one opening a new
/// family d. Small enough for every strategy to exhaust its space, so the
/// incremental-vs-scratch comparison is exact.
struct SessionFixture {
  rdf::Dictionary dict;
  std::vector<cq::ConjunctiveQuery> initial;
  std::vector<cq::ConjunctiveQuery> delta;
  rdf::TripleStore store;

  SessionFixture() {
    initial = {
        MustParse("q1(X, Z) :- t(X, a:p1, Y), t(Y, a:p2, Z)", &dict),
        MustParse("q2(X) :- t(X, a:p1, a:c1)", &dict),
        MustParse("q3(X, Y) :- t(X, b:p1, Y), t(Y, b:p2, b:c1)", &dict),
        MustParse("q4(X) :- t(X, c:p1, c:c1)", &dict),
    };
    delta = {
        MustParse("q5(X) :- t(X, a:p2, a:c2)", &dict),
        MustParse("q6(X, Y) :- t(X, d:p1, Y), t(X, d:p2, d:c1)", &dict),
    };
    std::vector<cq::ConjunctiveQuery> all = initial;
    all.insert(all.end(), delta.begin(), delta.end());
    store = workload::GenerateStoreForWorkload(all, &dict, 3000, 42);
  }

  /// Session options: calibration off so that incremental and from-scratch
  /// runs cost states under bit-identical weights (the session freezes cm
  /// after its first update; a scratch run over a different workload would
  /// calibrate differently).
  TuningConfig Options(StrategyKind strategy,
                       size_t num_threads = 1) const {
    TuningConfig options;
    options.strategy = strategy;
    options.limits.num_threads = num_threads;
    options.auto_calibrate_cm = false;
    return options;
  }

  Recommendation Scratch(const std::vector<cq::ConjunctiveQuery>& workload,
                         const TuningConfig& options) const {
    ViewSelector selector(&store, &dict);
    Result<Recommendation> rec = selector.Recommend(workload, options);
    EXPECT_TRUE(rec.ok()) << rec.status().ToString();
    return std::move(*rec);
  }
};

void ExpectSameRecommendation(const Recommendation& incremental,
                              const Recommendation& scratch) {
  EXPECT_EQ(incremental.best_state.Signature(),
            scratch.best_state.Signature());
  EXPECT_NEAR(incremental.stats.best_cost, scratch.stats.best_cost,
              1e-9 * (1.0 + std::abs(scratch.stats.best_cost)));
  EXPECT_NEAR(incremental.stats.initial_cost, scratch.stats.initial_cost,
              1e-9 * (1.0 + std::abs(scratch.stats.initial_cost)));
  EXPECT_TRUE(incremental.stats.completed);
  EXPECT_TRUE(scratch.stats.completed);
}

/// Registry counters that move only when a query is canonicalized or a view
/// identity is looked up: cq_canonicalize_total and the view identity
/// cache's hits and misses.
std::array<uint64_t, 3> CanonicalizationCounters() {
  telemetry::MetricsRegistry* reg = telemetry::MetricsRegistry::Default();
  return {reg->GetCounter("cq_canonicalize_total")->Value(),
          reg->GetCounter("vsel_view_identity_cache_hits_total")->Value(),
          reg->GetCounter("vsel_view_identity_cache_misses_total")->Value()};
}

class SessionEquivalenceTest : public ::testing::TestWithParam<StrategyKind> {
};

TEST_P(SessionEquivalenceTest, FirstUpdateMatchesOneShotRecommend) {
  SessionFixture fx;
  TuningConfig options = fx.Options(GetParam());
  TuningSession session(&fx.store, &fx.dict, options);
  Result<Recommendation> rec = session.Update(fx.initial);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  ExpectSameRecommendation(*rec, fx.Scratch(fx.initial, options));
  // A first update has no cache to draw from: every partition searched.
  EXPECT_EQ(rec->pipeline.partitions_reused, 0u);
  EXPECT_EQ(rec->pipeline.partitions_searched,
            rec->pipeline.num_partitions);
}

TEST_P(SessionEquivalenceTest, IncrementalAddMatchesScratch) {
  SessionFixture fx;
  TuningConfig options = fx.Options(GetParam());
  TuningSession session(&fx.store, &fx.dict, options);
  ASSERT_TRUE(session.Update(fx.initial).ok());

  Result<Recommendation> rec = session.Update(fx.delta);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  // Families: a = {q1, q2, q5} (dirtied by q5), b = {q3} (clean),
  // c = {q4} (clean), d = {q6} (new). Only the dirty partitions searched.
  EXPECT_EQ(rec->pipeline.num_partitions, 4u);
  EXPECT_EQ(rec->pipeline.partitions_reused, 2u);
  EXPECT_EQ(rec->pipeline.partitions_searched, 2u);

  std::vector<cq::ConjunctiveQuery> final_workload = fx.initial;
  final_workload.insert(final_workload.end(), fx.delta.begin(),
                        fx.delta.end());
  ExpectSameRecommendation(*rec, fx.Scratch(final_workload, options));
  EXPECT_EQ(rec->rewritings.size(), final_workload.size());
}

TEST_P(SessionEquivalenceTest, RemoveThenReaddServesFromCache) {
  SessionFixture fx;
  TuningConfig options = fx.Options(GetParam());
  TuningSession session(&fx.store, &fx.dict, options);
  Result<Recommendation> rec0 = session.Update(fx.initial);
  ASSERT_TRUE(rec0.ok()) << rec0.status().ToString();

  // Dropping family b leaves a and c untouched: zero searches. The merge
  // re-bases the cached views, which keep their identity, and packages
  // each one as a one-disjunct union, which never canonicalizes.
  const std::array<uint64_t, 3> before_drop = CanonicalizationCounters();
  Result<Recommendation> dropped = session.Update({}, {"q3"});
  EXPECT_EQ(CanonicalizationCounters(), before_drop);
  ASSERT_TRUE(dropped.ok()) << dropped.status().ToString();
  EXPECT_EQ(session.workload().size(), 3u);
  EXPECT_EQ(dropped->pipeline.partitions_searched, 0u);
  EXPECT_EQ(dropped->pipeline.partitions_reused, 2u);
  std::vector<cq::ConjunctiveQuery> without = {fx.initial[0], fx.initial[1],
                                               fx.initial[3]};
  ExpectSameRecommendation(*dropped, fx.Scratch(without, options));

  // Re-adding q3 restores a cached key: still zero searches, and the
  // recommendation is the original one again.
  const std::array<uint64_t, 3> before_readd = CanonicalizationCounters();
  Result<Recommendation> readded = session.Update({fx.initial[2]});
  EXPECT_EQ(CanonicalizationCounters(), before_readd);
  ASSERT_TRUE(readded.ok()) << readded.status().ToString();
  EXPECT_EQ(readded->pipeline.partitions_searched, 0u);
  EXPECT_EQ(readded->pipeline.partitions_reused, 3u);
  EXPECT_EQ(readded->best_state.Signature(), rec0->best_state.Signature());
  EXPECT_NEAR(readded->stats.best_cost, rec0->stats.best_cost,
              1e-9 * (1.0 + std::abs(rec0->stats.best_cost)));
}

TEST_P(SessionEquivalenceTest, RecommendationAnswersGroundTruth) {
  SessionFixture fx;
  TuningConfig options = fx.Options(GetParam());
  TuningSession session(&fx.store, &fx.dict, options);
  ASSERT_TRUE(session.Update(fx.initial).ok());
  Result<Recommendation> rec = session.Update(fx.delta);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();

  std::vector<cq::ConjunctiveQuery> final_workload = fx.initial;
  final_workload.insert(final_workload.end(), fx.delta.begin(),
                        fx.delta.end());
  MaterializedViews views = Materialize(*rec);
  for (size_t i = 0; i < final_workload.size(); ++i) {
    engine::Relation got = AnswerQuery(*rec, views, i);
    engine::Relation expected =
        engine::EvaluateQuery(final_workload[i], fx.store);
    EXPECT_TRUE(expected.SameRowsAs(got))
        << "query " << i << ": " << final_workload[i].ToString(&fx.dict);
  }
}

INSTANTIATE_TEST_SUITE_P(Strategies, SessionEquivalenceTest,
                         ::testing::Values(StrategyKind::kExNaive,
                                           StrategyKind::kExStr,
                                           StrategyKind::kDfs,
                                           StrategyKind::kGstr),
                         [](const auto& info) {
                           return StrategyName(info.param);
                         });

TEST(SessionTest, InvalidateCachedResultsForcesResearch) {
  SessionFixture fx;
  TuningSession session(&fx.store, &fx.dict,
                        fx.Options(StrategyKind::kDfs));
  ASSERT_TRUE(session.Update(fx.initial).ok());
  EXPECT_GT(session.cached_partitions(), 0u);
  session.InvalidateCachedResults();
  EXPECT_EQ(session.cached_partitions(), 0u);
  Result<Recommendation> rec = session.Recommend();
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->pipeline.partitions_reused, 0u);
  EXPECT_EQ(rec->pipeline.partitions_searched,
            rec->pipeline.num_partitions);
}

// ---- Update delta semantics ------------------------------------------------

std::vector<std::string> Names(const std::vector<cq::ConjunctiveQuery>& qs) {
  std::vector<std::string> names;
  for (const cq::ConjunctiveQuery& q : qs) names.push_back(q.name());
  return names;
}

/// Two sessions are in the same state iff their workloads hold the same
/// names in the same order, their backends the same number of entries, and
/// the same next update (`next_add`, applied to both) recommends the same
/// view set at the same cost, to the bit.
void ExpectSameSessionState(TuningSession* session, TuningSession* reference,
                            const std::vector<cq::ConjunctiveQuery>& next_add) {
  EXPECT_EQ(Names(session->workload()), Names(reference->workload()));
  EXPECT_EQ(session->cached_partitions(), reference->cached_partitions());
  Result<Recommendation> got = session->Update(next_add);
  Result<Recommendation> want = reference->Update(next_add);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  EXPECT_EQ(got->best_state.Signature(), want->best_state.Signature());
  EXPECT_EQ(got->stats.best_cost, want->stats.best_cost);
  EXPECT_EQ(Names(session->workload()), Names(reference->workload()));
}

TEST(SessionTest, RemoveUnknownNameFails) {
  SessionFixture fx;
  const TuningConfig options = fx.Options(StrategyKind::kGstr);
  TuningSession session(&fx.store, &fx.dict, options);
  TuningSession reference(&fx.store, &fx.dict, options);
  ASSERT_TRUE(session.Update(fx.initial).ok());
  ASSERT_TRUE(reference.Update(fx.initial).ok());

  // A known name listed with an unknown one: nothing is removed or added.
  Result<Recommendation> rec =
      session.Update({fx.delta[0]}, {"q1", "no_such_query"});
  ASSERT_FALSE(rec.ok());
  EXPECT_EQ(rec.status().code(), StatusCode::kNotFound);
  ExpectSameSessionState(&session, &reference, fx.delta);
}

TEST(SessionTest, InvalidAddedQueryLeavesTheSessionUntouched) {
  SessionFixture fx;
  const TuningConfig options = fx.Options(StrategyKind::kGstr);
  TuningSession session(&fx.store, &fx.dict, options);
  TuningSession reference(&fx.store, &fx.dict, options);
  ASSERT_TRUE(session.Update(fx.initial).ok());
  ASSERT_TRUE(reference.Update(fx.initial).ok());

  cq::ConjunctiveQuery bad = MustParse("q7(X) :- t(X, a:p1, a:c2)", &fx.dict);
  bad.mutable_head()->push_back(bad.head()[0]);  // repeated head variable
  const Status invalid = ValidateWorkloadQuery(bad);
  ASSERT_FALSE(invalid.ok());
  // A valid add before the invalid one, and a removal: none of it lands.
  Result<Recommendation> rec = session.Update({fx.delta[0], bad}, {"q3"});
  ASSERT_FALSE(rec.ok());
  EXPECT_EQ(rec.status().code(), invalid.code());
  EXPECT_EQ(rec.status().message(), invalid.message());
  ExpectSameSessionState(&session, &reference, fx.delta);
}

TEST(SessionTest, RemovingASharedNameDropsEveryQueryWithIt) {
  SessionFixture fx;
  const TuningConfig options = fx.Options(StrategyKind::kGstr);
  TuningSession session(&fx.store, &fx.dict, options);
  std::vector<cq::ConjunctiveQuery> workload = fx.initial;
  workload.push_back(MustParse("q2(X) :- t(X, b:p2, b:c1)", &fx.dict));
  ASSERT_TRUE(session.Update(workload).ok());

  Result<Recommendation> rec = session.Update({}, {"q2"});
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_EQ(Names(session.workload()),
            (std::vector<std::string>{"q1", "q3", "q4"}));
  ExpectSameRecommendation(*rec, fx.Scratch(session.workload(), options));
}

TEST(SessionTest, RemoveAndReaddInOneUpdateAppendsTheNewQuery) {
  SessionFixture fx;
  const TuningConfig options = fx.Options(StrategyKind::kGstr);
  TuningSession session(&fx.store, &fx.dict, options);
  ASSERT_TRUE(session.Update(fx.initial).ok());

  // Removals apply to the live workload before the adds append, so the
  // new q2 survives its own name's removal and lands last.
  const cq::ConjunctiveQuery replacement =
      MustParse("q2(X) :- t(X, a:p2, a:c2)", &fx.dict);
  Result<Recommendation> rec = session.Update({replacement}, {"q2"});
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_EQ(Names(session.workload()),
            (std::vector<std::string>{"q1", "q3", "q4", "q2"}));
  EXPECT_TRUE(session.workload().back() == replacement);
  const std::vector<cq::ConjunctiveQuery> expected = {
      fx.initial[0], fx.initial[2], fx.initial[3], replacement};
  ExpectSameRecommendation(*rec, fx.Scratch(expected, options));
  EXPECT_EQ(rec->rewritings.size(), expected.size());
}

TEST(SessionTest, WorkloadKeepsItsOrderAcrossMixedUpdates) {
  SessionFixture fx;
  const TuningConfig options = fx.Options(StrategyKind::kGstr);
  TuningSession session(&fx.store, &fx.dict, options);
  const cq::ConjunctiveQuery& q1 = fx.initial[0];
  const cq::ConjunctiveQuery& q2 = fx.initial[1];
  const cq::ConjunctiveQuery& q3 = fx.initial[2];
  const cq::ConjunctiveQuery& q4 = fx.initial[3];
  const cq::ConjunctiveQuery& q5 = fx.delta[0];
  const cq::ConjunctiveQuery& q6 = fx.delta[1];
  struct Step {
    std::vector<cq::ConjunctiveQuery> add;
    std::vector<std::string> remove;
    std::vector<cq::ConjunctiveQuery> expected;
  };
  const std::vector<Step> steps = {
      {fx.initial, {}, {q1, q2, q3, q4}},
      {fx.delta, {"q2"}, {q1, q3, q4, q5, q6}},
      {{q2}, {"q4", "q6"}, {q1, q3, q5, q2}},
      {{q6, q4}, {"q1"}, {q3, q5, q2, q6, q4}},
      {{}, {"q5", "q3"}, {q2, q6, q4}},
  };
  for (size_t i = 0; i < steps.size(); ++i) {
    SCOPED_TRACE("step " + std::to_string(i));
    Result<Recommendation> rec =
        session.Update(steps[i].add, steps[i].remove);
    ASSERT_TRUE(rec.ok()) << rec.status().ToString();
    EXPECT_EQ(Names(session.workload()), Names(steps[i].expected));
    EXPECT_TRUE(session.workload() == steps[i].expected);
    ExpectSameRecommendation(*rec, fx.Scratch(steps[i].expected, options));
  }
}

// ---- Work that scales with the delta ---------------------------------------

/// `n` constant-disjoint two-atom queries w<first>..w<first+n-1>, one
/// commonality family (and so one partition) each.
std::vector<cq::ConjunctiveQuery> FamilyQueries(size_t first, size_t n,
                                                rdf::Dictionary* dict) {
  std::vector<cq::ConjunctiveQuery> out;
  for (size_t i = first; i < first + n; ++i) {
    const std::string f = "f" + std::to_string(i);
    out.push_back(MustParse("w" + std::to_string(i) + "(X, Y) :- t(X, " + f +
                                ":p1, Y), t(Y, " + f + ":p2, " + f + ":c1)",
                            dict));
  }
  return out;
}

TEST(SessionTest, IngestWorkScalesWithTheDelta) {
  rdf::Dictionary dict;
  const std::vector<cq::ConjunctiveQuery> initial =
      FamilyQueries(0, 240, &dict);
  const std::vector<cq::ConjunctiveQuery> added =
      FamilyQueries(240, 3, &dict);
  std::vector<cq::ConjunctiveQuery> all = initial;
  all.insert(all.end(), added.begin(), added.end());
  const rdf::TripleStore store =
      workload::GenerateStoreForWorkload(all, &dict, 5000, 7);
  TuningConfig options;
  options.strategy = StrategyKind::kGstr;
  options.auto_calibrate_cm = false;
  TuningSession session(&store, &dict, options);

  telemetry::MetricsRegistry* reg = telemetry::MetricsRegistry::Default();
  telemetry::Counter* ingested = reg->GetCounter("vsel_ingest_queries_total");
  telemetry::Counter* canonicalized = reg->GetCounter("cq_canonicalize_total");
  uint64_t before = ingested->Value();
  ASSERT_TRUE(session.Update(initial).ok());
  EXPECT_EQ(ingested->Value() - before, initial.size());

  // k = 3 adds and m = 5 removes ingest the 3 added queries only.
  before = ingested->Value();
  Result<Recommendation> updated =
      session.Update(added, {"w0", "w17", "w99", "w150", "w239"});
  ASSERT_TRUE(updated.ok()) << updated.status().ToString();
  EXPECT_EQ(ingested->Value() - before, added.size());
  EXPECT_EQ(session.workload().size(), initial.size() - 5 + added.size());

  // No delta: nothing is ingested, canonicalized or re-estimated — the
  // merge sums the REC terms the cached partition bests carry.
  before = ingested->Value();
  const uint64_t canonicalized_before = canonicalized->Value();
  Result<Recommendation> again = session.Recommend();
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again->pipeline.partitions_searched, 0u);
  EXPECT_EQ(ingested->Value(), before);
  EXPECT_EQ(canonicalized->Value(), canonicalized_before);
  EXPECT_EQ(again->cost_counters.rec_computed.load(),
            updated->cost_counters.rec_computed.load());
  EXPECT_EQ(again->stats.best_cost, updated->stats.best_cost);
  EXPECT_EQ(again->best_state.Signature(), updated->best_state.Signature());
}

// ---- Cancellation ----------------------------------------------------------

/// A workload whose exhaustive space is far too large to finish in test
/// time: cancellation must be the thing that stops the search.
std::vector<cq::ConjunctiveQuery> HugeSpaceWorkload(rdf::Dictionary* dict) {
  return {
      MustParse("q1(X1, X7) :- t(X1, a:p1, X2), t(X2, a:p2, X3), "
                "t(X3, a:p3, X4), t(X4, a:p4, X5), t(X5, a:p5, X6), "
                "t(X6, a:p6, X7), t(X7, a:p7, a:c1)",
                dict),
      MustParse("q2(Y1, Y6) :- t(Y1, a:p1, Y2), t(Y2, a:p2, Y3), "
                "t(Y3, a:p3, Y4), t(Y4, a:p4, Y5), t(Y5, a:p5, Y6), "
                "t(Y6, a:p6, a:c2)",
                dict),
  };
}

/// Every strategy, serial: a pre-stopped token terminates the run within a
/// bounded number of expansions (nothing beyond Init's AVF closure), with a
/// valid current-best recommendation (S0 at worst).
class SessionCancelTest : public ::testing::TestWithParam<StrategyKind> {};

TEST_P(SessionCancelTest, PreStoppedTokenBoundsExpansions) {
  rdf::Dictionary dict;
  std::vector<cq::ConjunctiveQuery> workload = HugeSpaceWorkload(&dict);
  rdf::TripleStore store =
      workload::GenerateStoreForWorkload(workload, &dict, 2000, 7);

  StopSource stop;
  stop.RequestStop();
  TuningConfig options;
  options.strategy = GetParam();
  options.limits.stop = stop.token();

  ViewSelector selector(&store, &dict);
  Result<Recommendation> rec = selector.Recommend(workload, options);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_TRUE(rec->stats.cancelled);
  EXPECT_FALSE(rec->stats.completed);
  // Bounded: the engines observe the token before any real exploration.
  EXPECT_LE(rec->stats.created, 100u);
  // The current best is a valid recommendation: one rewriting per query
  // over materializable views.
  EXPECT_EQ(rec->rewritings.size(), workload.size());
  EXPECT_FALSE(rec->view_definitions.empty());
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, SessionCancelTest,
                         ::testing::Values(StrategyKind::kExNaive,
                                           StrategyKind::kExStr,
                                           StrategyKind::kDfs,
                                           StrategyKind::kGstr,
                                           StrategyKind::kPruning21,
                                           StrategyKind::kGreedy21,
                                           StrategyKind::kHeuristic21),
                         [](const auto& info) {
                           return StrategyName(info.param);
                         });

/// Mid-flight cancellation through the async handle, serial and with 8
/// worker threads. The suite name contains "Parallel" so the TSan CI job
/// races the cancelling thread against the search workers.
class SessionParallelCancelTest
    : public ::testing::TestWithParam<std::tuple<StrategyKind, size_t>> {};

TEST_P(SessionParallelCancelTest, CancelMidFlightReturnsCurrentBest) {
  const auto [strategy, num_threads] = GetParam();
  rdf::Dictionary dict;
  std::vector<cq::ConjunctiveQuery> workload = HugeSpaceWorkload(&dict);
  rdf::TripleStore store =
      workload::GenerateStoreForWorkload(workload, &dict, 2000, 7);

  TuningConfig options;
  options.strategy = strategy;
  options.limits.num_threads = num_threads;
  std::atomic<uint64_t> events{0};
  options.limits.on_progress = [&events](const ProgressEvent&) {
    events.fetch_add(1, std::memory_order_relaxed);
  };

  TuningSession session(&store, &dict, options);
  std::shared_ptr<TuningHandle> handle = session.UpdateAsync(workload);
  // Let the search get under way (first improvement, or 2 s), then cancel.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (events.load(std::memory_order_relaxed) == 0 &&
         std::chrono::steady_clock::now() < deadline && !handle->Poll()) {
    std::this_thread::yield();
  }
  handle->Cancel();
  Result<Recommendation> rec = handle->Wait();
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_TRUE(handle->Poll());
  EXPECT_TRUE(handle->Current().done);
  // The space is astronomically large: only the cancel can have ended the
  // run, and the result is the valid best-so-far.
  EXPECT_TRUE(rec->stats.cancelled);
  EXPECT_FALSE(rec->stats.completed);
  EXPECT_EQ(rec->rewritings.size(), workload.size());
  EXPECT_GT(rec->stats.best_cost, 0.0);
  EXPECT_LE(rec->stats.best_cost, rec->stats.initial_cost);
  // A cancelled partition is never cached: the next update re-searches.
  EXPECT_EQ(session.cached_partitions(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    StrategiesAndThreads, SessionParallelCancelTest,
    ::testing::Combine(::testing::Values(StrategyKind::kExNaive,
                                         StrategyKind::kExStr,
                                         StrategyKind::kDfs,
                                         StrategyKind::kGstr),
                       ::testing::Values(size_t{1}, size_t{8})),
    [](const auto& info) {
      return std::string(StrategyName(std::get<0>(info.param))) + "_t" +
             std::to_string(std::get<1>(info.param));
    });

/// The [21] competitors run serial regardless of num_threads; cancel them
/// mid-combination through the same async path.
TEST(SessionParallelCompetitorCancelTest, CancelStopsCompetitorSearch) {
  rdf::Dictionary dict;
  std::vector<cq::ConjunctiveQuery> workload = HugeSpaceWorkload(&dict);
  rdf::TripleStore store =
      workload::GenerateStoreForWorkload(workload, &dict, 2000, 7);

  TuningConfig options;
  options.strategy = StrategyKind::kPruning21;
  TuningSession session(&store, &dict, options);
  std::shared_ptr<TuningHandle> handle = session.UpdateAsync(workload);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  handle->Cancel();
  Result<Recommendation> rec = handle->Wait();
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_TRUE(rec->stats.cancelled);
  EXPECT_EQ(rec->rewritings.size(), workload.size());
}

TEST(SessionTest, CancelledPartitionsStayDirtyAndRecover) {
  SessionFixture fx;
  TuningConfig options = fx.Options(StrategyKind::kDfs);
  StopSource stop;
  stop.RequestStop();
  options.limits.stop = stop.token();

  TuningSession session(&fx.store, &fx.dict, options);
  Result<Recommendation> cancelled = session.Update(fx.initial);
  ASSERT_TRUE(cancelled.ok()) << cancelled.status().ToString();
  EXPECT_TRUE(cancelled->stats.cancelled);
  // The workload advanced, but nothing was cached.
  EXPECT_EQ(session.workload().size(), fx.initial.size());
  EXPECT_EQ(session.cached_partitions(), 0u);

  // A later Recommend (same session, token still stopped in options_) must
  // stay cancelled; a fresh session without the token completes and
  // matches scratch — the cancelled update did not poison any state.
  TuningSession fresh(&fx.store, &fx.dict,
                      fx.Options(StrategyKind::kDfs));
  Result<Recommendation> full = fresh.Update(fx.initial);
  ASSERT_TRUE(full.ok());
  ExpectSameRecommendation(
      *full, fx.Scratch(fx.initial, fx.Options(StrategyKind::kDfs)));
}

// ---- Async handle lifecycle ------------------------------------------------

TEST(SessionParallelAsyncTest, AsyncMatchesSyncAndReportsProgress) {
  SessionFixture fx;
  TuningConfig options = fx.Options(StrategyKind::kDfs, 8);
  TuningSession session(&fx.store, &fx.dict, options);
  std::shared_ptr<TuningHandle> handle = session.UpdateAsync(fx.initial);
  Result<Recommendation> rec = handle->Wait();
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_TRUE(handle->Poll());

  TuningProgress progress = handle->Current();
  EXPECT_TRUE(progress.done);
  EXPECT_FALSE(progress.cancel_requested);
  EXPECT_EQ(progress.partitions_total, rec->pipeline.num_partitions);
  EXPECT_EQ(progress.partitions_done, rec->pipeline.num_partitions);

  ExpectSameRecommendation(*rec, fx.Scratch(fx.initial, options));
  // Wait() is idempotent.
  Result<Recommendation> again = handle->Wait();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->best_state.Signature(), rec->best_state.Signature());
}

TEST(SessionParallelAsyncTest, CallerTokenComposesWithHandleToken) {
  rdf::Dictionary dict;
  std::vector<cq::ConjunctiveQuery> workload = HugeSpaceWorkload(&dict);
  rdf::TripleStore store =
      workload::GenerateStoreForWorkload(workload, &dict, 2000, 7);
  StopSource caller_stop;
  TuningConfig options;
  options.strategy = StrategyKind::kExNaive;
  options.limits.stop = caller_stop.token();

  TuningSession session(&store, &dict, options);
  std::shared_ptr<TuningHandle> handle = session.UpdateAsync(workload);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  // The caller's own token (from the session options) must stop an async
  // update too — the handle's token composes with it, not replaces it.
  caller_stop.RequestStop();
  Result<Recommendation> rec = handle->Wait();
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_TRUE(rec->stats.cancelled);
  EXPECT_EQ(rec->rewritings.size(), workload.size());
}

TEST(SessionParallelAsyncTest, DroppingHandleMidRunCancelsAndJoins) {
  rdf::Dictionary dict;
  std::vector<cq::ConjunctiveQuery> workload = HugeSpaceWorkload(&dict);
  rdf::TripleStore store =
      workload::GenerateStoreForWorkload(workload, &dict, 2000, 7);
  TuningConfig options;
  options.strategy = StrategyKind::kExNaive;
  options.limits.num_threads = 8;
  // Budget only so the follow-up Recommend below terminates; the drop
  // happens well before it expires.
  options.limits.time_budget_sec = 0.5;

  TuningSession session(&store, &dict, options);
  {
    std::shared_ptr<TuningHandle> handle = session.UpdateAsync(workload);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    // Dropping the handle mid-run must cancel the update and join the
    // worker from this thread — no leak, no self-join, no crash.
  }
  // The session is usable again immediately after the drop.
  Result<Recommendation> rec = session.Recommend();
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_EQ(rec->rewritings.size(), workload.size());
}

TEST(SessionParallelAsyncTest, SecondUpdateWhileInFlightIsRejected) {
  rdf::Dictionary dict;
  std::vector<cq::ConjunctiveQuery> workload = HugeSpaceWorkload(&dict);
  rdf::TripleStore store =
      workload::GenerateStoreForWorkload(workload, &dict, 2000, 7);
  TuningConfig options;
  options.strategy = StrategyKind::kExNaive;

  TuningSession session(&store, &dict, options);
  std::shared_ptr<TuningHandle> inflight = session.UpdateAsync(workload);
  // The huge space keeps the first update busy while we probe.
  Result<Recommendation> rejected = session.Update({});
  EXPECT_FALSE(rejected.ok());
  std::shared_ptr<TuningHandle> rejected_async = session.UpdateAsync({});
  EXPECT_TRUE(rejected_async->Poll());
  EXPECT_FALSE(rejected_async->Wait().ok());
  inflight->Cancel();
  EXPECT_TRUE(inflight->Wait().ok());
}

TEST(SessionParallelAsyncTest, DeferredUpdateRunsOnTheCallingThread) {
  SessionFixture fx;
  TuningConfig options = fx.Options(StrategyKind::kDfs);
  std::mutex mu;
  std::vector<std::thread::id> event_threads;
  options.limits.on_progress = [&](const ProgressEvent&) {
    std::lock_guard<std::mutex> lock(mu);
    event_threads.push_back(std::this_thread::get_id());
  };
  TuningSession session(&fx.store, &fx.dict, options);
  std::shared_ptr<TuningHandle> handle = session.UpdateDeferred(fx.initial);
  // In flight from the moment it exists, and nothing runs it yet.
  EXPECT_FALSE(handle->Poll());
  EXPECT_FALSE(session.Update({}).ok());
  Result<Recommendation> waited = Status::Internal("waiter did not run");
  std::thread waiter([&] { waited = handle->Wait(); });

  ASSERT_TRUE(handle->Run().ok());
  waiter.join();
  EXPECT_TRUE(handle->Poll());
  EXPECT_TRUE(handle->Current().done);
  {
    std::lock_guard<std::mutex> lock(mu);
    ASSERT_FALSE(event_threads.empty());
    for (std::thread::id id : event_threads) {
      EXPECT_EQ(id, std::this_thread::get_id());
    }
  }
  // Run again is a wait; the waiter got its copy; TakeResult moves it out.
  EXPECT_TRUE(handle->Run().ok());
  ASSERT_TRUE(waited.ok()) << waited.status().ToString();
  Result<Recommendation> taken = handle->TakeResult();
  ASSERT_TRUE(taken.ok()) << taken.status().ToString();
  EXPECT_EQ(taken->best_state.Signature(), waited->best_state.Signature());
  ExpectSameRecommendation(*taken, fx.Scratch(fx.initial, options));
  EXPECT_EQ(handle->Wait().status().code(), StatusCode::kNotFound);
  EXPECT_TRUE(handle->WaitStatus().ok());
  EXPECT_EQ(session.workload().size(), fx.initial.size());
}

TEST(SessionParallelAsyncTest, DeferredUpdateCancelledFromAnotherThread) {
  rdf::Dictionary dict;
  std::vector<cq::ConjunctiveQuery> workload = HugeSpaceWorkload(&dict);
  rdf::TripleStore store =
      workload::GenerateStoreForWorkload(workload, &dict, 2000, 7);
  TuningConfig options;
  options.strategy = StrategyKind::kExNaive;
  TuningSession session(&store, &dict, options);
  std::shared_ptr<TuningHandle> handle = session.UpdateDeferred(workload);
  std::thread canceller([&] {
    // Only the cancel can end the run: let it get under way (first
    // improvement, or 2 s), then cancel.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(2);
    while (handle->Current().improvements == 0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    handle->Cancel();
  });
  Status ran = handle->Run();
  canceller.join();
  ASSERT_TRUE(ran.ok()) << ran.ToString();
  Result<Recommendation> rec = handle->TakeResult();
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_TRUE(rec->stats.cancelled);
  EXPECT_EQ(rec->rewritings.size(), workload.size());
}

TEST(SessionTest, DroppedDeferredUpdateFreesTheSession) {
  SessionFixture fx;
  TuningConfig options = fx.Options(StrategyKind::kDfs);
  TuningSession session(&fx.store, &fx.dict, options);
  {
    std::shared_ptr<TuningHandle> never_run =
        session.UpdateDeferred(fx.initial);
  }
  // The dropped update never ran: nothing advanced, and the session takes
  // the next update.
  EXPECT_TRUE(session.workload().empty());
  Result<Recommendation> rec = session.Update(fx.initial);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  ExpectSameRecommendation(*rec, fx.Scratch(fx.initial, options));
}

// ---- Failure / retry event ordering ----------------------------------------

/// Thread-safe collector for the retry-machinery events of one update
/// (kPartitionFailed / kPartitionRetry / kPartitionAbandoned, plus
/// kPartitionDone events carrying a recovery attempt number), with a
/// fault-injector disarm guard so a failing assertion can not leak an
/// armed plan into later tests.
struct RetryEventLog {
  std::mutex mu;
  std::vector<ProgressEvent> events;

  ~RetryEventLog() { fault::Disarm(); }

  ProgressFn Collector() {
    return [this](const ProgressEvent& ev) {
      using Kind = ProgressEvent::Kind;
      if (ev.kind == Kind::kPartitionFailed ||
          ev.kind == Kind::kPartitionRetry ||
          ev.kind == Kind::kPartitionAbandoned ||
          (ev.kind == Kind::kPartitionDone && ev.attempt > 0)) {
        std::lock_guard<std::mutex> lock(mu);
        events.push_back(ev);
      }
    };
  }
};

TEST(SessionRetryEventsTest, RecoveryEmitsFailedRetryDoneInOrder) {
  SessionFixture fx;
  TuningConfig options = fx.Options(StrategyKind::kDfs);  // serial
  options.robust.retry.max_attempts = 3;
  RetryEventLog log;
  options.limits.on_progress = log.Collector();

  // The first two evaluations fail: the first-searched partition loses
  // attempts 1 and 2, then recovers on attempt 3; everyone else is clean.
  fault::SiteSpec spec;
  spec.count = 2;
  fault::Arm(1, {{fault::sites::kPartitionSearch, spec}});
  TuningSession session(&fx.store, &fx.dict, options);
  Result<Recommendation> rec = session.Update(fx.initial);
  fault::Disarm();
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_TRUE(rec->stats.completed);
  EXPECT_EQ(rec->pipeline.partitions_failed, 0u);
  EXPECT_EQ(rec->pipeline.partition_retries, 2u);

  using Kind = ProgressEvent::Kind;
  ASSERT_EQ(log.events.size(), 5u);
  const std::vector<std::pair<Kind, size_t>> expected = {
      {Kind::kPartitionFailed, 1}, {Kind::kPartitionRetry, 2},
      {Kind::kPartitionFailed, 2}, {Kind::kPartitionRetry, 3},
      {Kind::kPartitionDone, 3},
  };
  const size_t partition = log.events[0].partition;
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(log.events[i].kind, expected[i].first) << "event " << i;
    EXPECT_EQ(log.events[i].attempt, expected[i].second) << "event " << i;
    // One flaky partition: every retry event names it.
    EXPECT_EQ(log.events[i].partition, partition) << "event " << i;
  }
  // Recovery is recorded in the health report, not just the event stream.
  ASSERT_EQ(rec->pipeline.partition_health.size(), 1u);
  EXPECT_TRUE(rec->pipeline.partition_health[0].recovered);
  EXPECT_EQ(rec->pipeline.partition_health[0].attempts, 3u);
}

TEST(SessionRetryEventsTest, AbandonmentEventsAndAsyncProgressCounters) {
  SessionFixture fx;
  TuningConfig options = fx.Options(StrategyKind::kDfs);
  options.robust.retry.max_attempts = 2;
  RetryEventLog log;
  options.limits.on_progress = log.Collector();

  // Both attempts of the first-searched partition fail: it is abandoned,
  // and the async update degrades to the other partitions.
  fault::SiteSpec spec;
  spec.count = 2;
  fault::Arm(1, {{fault::sites::kPartitionSearch, spec}});
  TuningSession session(&fx.store, &fx.dict, options);
  std::shared_ptr<TuningHandle> handle = session.UpdateAsync(fx.initial);
  Result<Recommendation> rec = handle->Wait();
  fault::Disarm();
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_FALSE(rec->stats.completed);  // degraded
  EXPECT_EQ(rec->pipeline.partitions_failed, 1u);

  using Kind = ProgressEvent::Kind;
  ASSERT_EQ(log.events.size(), 4u);
  const std::vector<std::pair<Kind, size_t>> expected = {
      {Kind::kPartitionFailed, 1},
      {Kind::kPartitionRetry, 2},
      {Kind::kPartitionFailed, 2},
      {Kind::kPartitionAbandoned, 2},
  };
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(log.events[i].kind, expected[i].first) << "event " << i;
    EXPECT_EQ(log.events[i].attempt, expected[i].second) << "event " << i;
    EXPECT_EQ(log.events[i].partition, log.events[0].partition)
        << "event " << i;
  }

  // The async tracker folds the events into TuningProgress: the abandoned
  // partition still counts as done (the update is not stuck on it).
  TuningProgress progress = handle->Current();
  EXPECT_TRUE(progress.done);
  EXPECT_EQ(progress.partitions_done, progress.partitions_total);
  EXPECT_EQ(progress.partitions_failed, 1u);
  EXPECT_EQ(progress.partition_retries, 1u);
}

// ---- Budget re-granting observability --------------------------------------

TEST(SessionTest, EarlyFinishersRegrantTimeBudget) {
  SessionFixture fx;
  TuningConfig options = fx.Options(StrategyKind::kGstr);
  // A generous budget the tiny partitions exhaust their spaces well
  // within: the early finishers' leftover flows to the later partitions.
  options.limits.time_budget_sec = 5.0;
  TuningSession session(&fx.store, &fx.dict, options);
  Result<Recommendation> rec = session.Update(fx.initial);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  ASSERT_GT(rec->pipeline.num_partitions, 1u);
  EXPECT_TRUE(rec->stats.completed);
  EXPECT_GT(rec->pipeline.budget_regranted_sec, 0.0);
}

}  // namespace
}  // namespace rdfviews::vsel
