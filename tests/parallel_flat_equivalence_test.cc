// Equivalence and instrumentation coverage for the flat-arena search core:
//  - batched transition enumeration (EnumerateTransitionsInto /
//    EnumerateTransitionsBatch) produces exactly the legacy per-kind
//    vectors, in the same order, on initial states and their children;
//  - arena-backed and heap-backed clones are indistinguishable (same
//    fingerprints, signatures, rewritings), and arena states safely
//    outlive the arena that allocated them;
//  - ShardedFrontier publishes steal counts and waiting-worker gauges
//    live (mid-run), and Starving() flips exactly when workers wait on an
//    empty frontier — the signal the DFS donation path keys on.
// Suite names contain "Parallel" so the TSan CI leg (ctest -R Parallel)
// covers the donation and metrics paths under the race detector.
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/arena.h"
#include "common/telemetry/metrics.h"
#include "rdf/statistics.h"
#include "rdfviews.h"
#include "test_util.h"
#include "vsel/parallel/sharded_frontier.h"

namespace rdfviews::vsel {
namespace {

using rdfviews::testing::RandomQuery;
using rdfviews::testing::RandomStore;

std::vector<cq::ConjunctiveQuery> SmallWorkload(rdf::Dictionary* dict,
                                                rdf::TripleStore* store,
                                                int seed, size_t atoms) {
  *store = RandomStore(dict, 80, 10, 4, static_cast<uint64_t>(seed));
  Rng rng(static_cast<uint64_t>(seed) * 17 + 3);
  std::vector<cq::ConjunctiveQuery> workload;
  for (int i = 0; i < 2; ++i) {
    workload.push_back(RandomQuery(*store, atoms, 2, rng.raw()));
    workload.back().set_name("q" + std::to_string(i));
  }
  return workload;
}

// ---- Batched enumeration == legacy enumeration ---------------------------

constexpr TransitionKind kAllKinds[] = {TransitionKind::kVB,
                                        TransitionKind::kSC,
                                        TransitionKind::kJC,
                                        TransitionKind::kVF};

/// The strictest observable equality: applying the i-th transition of both
/// enumerations yields the same successor fingerprint, for every i.
void ExpectSameTransitions(const State& s, const TransitionOptions& topts) {
  TransitionBuffer buf;
  size_t legacy_total = 0;
  for (TransitionKind kind : kAllKinds) {
    std::vector<Transition> legacy = EnumerateTransitions(s, kind, topts);
    legacy_total += legacy.size();
    buf.Clear();
    EnumerateTransitionsInto(s, kind, topts, &buf);
    ASSERT_EQ(buf.size(), legacy.size()) << TransitionName(kind);
    for (size_t i = 0; i < legacy.size(); ++i) {
      State a = ApplyTransition(s, legacy[i]);
      State b = ApplyTransition(s, buf[i]);
      ASSERT_EQ(a.fingerprint(), b.fingerprint())
          << TransitionName(kind) << " transition " << i;
    }
  }
  // The whole-batch sweep is the per-kind concatenation, byte-for-byte.
  buf.Clear();
  EnumerateTransitionsBatch(s, TransitionKind::kVB, topts, &buf);
  ASSERT_EQ(buf.size(), legacy_total);
  size_t off = 0;
  for (TransitionKind kind : kAllKinds) {
    std::vector<Transition> legacy = EnumerateTransitions(s, kind, topts);
    for (size_t i = 0; i < legacy.size(); ++i) {
      State a = ApplyTransition(s, legacy[i]);
      State b = ApplyTransition(s, buf[off + i]);
      ASSERT_EQ(a.fingerprint(), b.fingerprint())
          << TransitionName(kind) << " batch offset " << off + i;
    }
    off += legacy.size();
  }
}

class ParallelBatchedEnumerationTest : public ::testing::TestWithParam<int> {};

TEST_P(ParallelBatchedEnumerationTest, MatchesLegacyOrderEverywhere) {
  rdf::Dictionary dict;
  rdf::TripleStore store;
  // 3-atom queries so View Breaks participate (VB needs >= 3 atoms).
  std::vector<cq::ConjunctiveQuery> workload =
      SmallWorkload(&dict, &store, GetParam(), 3);
  State s0 = *MakeInitialState(workload);
  TransitionOptions topts;
  ExpectSameTransitions(s0, topts);
  // One level down: children of every root transition kind.
  TransitionBuffer roots;
  EnumerateTransitionsBatch(s0, TransitionKind::kVB, topts, &roots);
  size_t checked = 0;
  for (size_t i = 0; i < roots.size() && checked < 6; i += 3, ++checked) {
    State child = ApplyTransition(s0, roots[i]);
    ExpectSameTransitions(child, topts);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelBatchedEnumerationTest,
                         ::testing::Values(701, 702, 703));

// ---- Flat arena states == heap states ------------------------------------

TEST(ParallelFlatStateTest, ArenaAndHeapClonesIndistinguishable) {
  rdf::Dictionary dict;
  rdf::TripleStore store;
  std::vector<cq::ConjunctiveQuery> workload =
      SmallWorkload(&dict, &store, 811, 3);
  State s0 = *MakeInitialState(workload);
  TransitionOptions topts;
  TransitionBuffer buf;
  EnumerateTransitionsBatch(s0, TransitionKind::kVB, topts, &buf);
  ASSERT_GT(buf.size(), 0u);

  State survivor;  // outlives the arena below
  {
    Arena arena;
    for (size_t i = 0; i < buf.size(); ++i) {
      State heap_child = ApplyTransition(s0, buf[i], nullptr);
      State arena_child = ApplyTransition(s0, buf[i], &arena);
      ASSERT_EQ(heap_child.fingerprint(), arena_child.fingerprint());
      ASSERT_EQ(heap_child.Signature(), arena_child.Signature());
      ASSERT_EQ(heap_child.rewritings().size(),
                arena_child.rewritings().size());
      if (i == 0) survivor = std::move(arena_child);
    }
  }
  // The arena is gone; the surviving state's block is kept alive by its
  // span refcount. Reading every section must still be safe (TSan/ASan
  // verify the refcounted release ordering).
  EXPECT_GT(survivor.views().size(), 0u);
  EXPECT_EQ(survivor.fingerprint(), survivor.RecomputeFingerprint());
  EXPECT_FALSE(survivor.ToString().empty());
}

TEST(ParallelFlatStateTest, RewritingListApi) {
  rdf::Dictionary dict;
  rdf::TripleStore store;
  std::vector<cq::ConjunctiveQuery> workload =
      SmallWorkload(&dict, &store, 812, 2);
  State s0 = *MakeInitialState(workload);
  ASSERT_EQ(s0.rewritings().size(), workload.size());

  // AddRewriting appends; SetRewritings replaces wholesale.
  State s = s0;
  s.AddRewriting(s0.rewritings()[0]);
  EXPECT_EQ(s.rewritings().size(), workload.size() + 1);
  EXPECT_EQ(s.rewritings()[workload.size()].get(),
            s0.rewritings()[0].get());
  std::vector<engine::ExprPtr> just_one = {s0.rewritings()[1]};
  s.SetRewritings(std::move(just_one));
  ASSERT_EQ(s.rewritings().size(), 1u);
  EXPECT_EQ(s.rewritings()[0].get(), s0.rewritings()[1].get());

  // Copies share rewriting objects (copy-on-write) in both directions.
  State copy = s0;
  for (size_t i = 0; i < workload.size(); ++i) {
    EXPECT_EQ(copy.rewritings()[i].get(), s0.rewritings()[i].get());
  }
}

// ---- Frontier metrics: live steal counts and starvation ------------------

TEST(ParallelFrontierMetricsTest, StealsPublishedLive) {
  auto* reg = telemetry::MetricsRegistry::Default();
  parallel::FrontierMetrics metrics;
  metrics.steals = reg->GetCounter("vsel_frontier_steals_total");
  metrics.waiting_workers = reg->GetGauge("vsel_frontier_waiting_workers");
  const uint64_t steals0 = metrics.steals->Value();

  parallel::ShardedFrontier<int> frontier(4, metrics);
  frontier.Push(3, 1);
  frontier.Push(3, 2);
  EXPECT_EQ(frontier.queued(), 2u);
  EXPECT_FALSE(frontier.Starving());  // work queued, nobody waiting

  std::vector<int> batch;
  auto never = [] { return false; };
  // Home pop: not a steal.
  ASSERT_EQ(frontier.PopBatch(3, 10, &batch, never), 2u);
  EXPECT_EQ(metrics.steals->Value(), steals0);
  // Stolen pop: worker 0's home shard is empty, the batch comes from
  // shard 3 — the counter must tick immediately, not at run retirement.
  frontier.Push(3, 3);
  batch.clear();
  ASSERT_EQ(frontier.PopBatch(0, 10, &batch, never), 1u);
  EXPECT_EQ(metrics.steals->Value(), steals0 + 1);
  frontier.TaskDone(3);
}

TEST(ParallelFrontierMetricsTest, StarvingFlipsWhileWorkerWaits) {
  auto* reg = telemetry::MetricsRegistry::Default();
  parallel::FrontierMetrics metrics;
  metrics.steals = reg->GetCounter("vsel_frontier_steals_total");
  metrics.waiting_workers = reg->GetGauge("vsel_frontier_waiting_workers");

  parallel::ShardedFrontier<int> frontier(4, metrics);
  // One item in flight (popped, not yet TaskDone'd): a second worker must
  // wait — it cannot conclude quiescence while the processor might push.
  frontier.Push(0, 1);
  std::vector<int> batch;
  auto never = [] { return false; };
  ASSERT_EQ(frontier.PopBatch(0, 1, &batch, never), 1u);
  EXPECT_FALSE(frontier.Starving());  // nobody waiting yet

  std::atomic<size_t> waiter_got{0};
  std::thread waiter([&] {
    std::vector<int> b;
    waiter_got = frontier.PopBatch(1, 1, &b, never);
  });
  // The waiter parks: waiting workers > 0 with an empty frontier is
  // exactly the donation signal.
  while (!frontier.Starving()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(metrics.waiting_workers->Value(), 1);
  // Donate one item: the waiter picks it up and Starving() clears.
  frontier.Push(1, 2);
  waiter.join();
  EXPECT_EQ(waiter_got.load(), 1u);
  frontier.TaskDone(2);
  EXPECT_FALSE(frontier.Starving());
  EXPECT_EQ(metrics.waiting_workers->Value(), 0);
}

// ---- DFS donation path ---------------------------------------------------

/// Distinct view-set states admitted by a run: every successor that was
/// not rejected as a duplicate or discarded by a stop condition.
size_t DistinctStates(const SearchResult& r) {
  return r.stats.created - r.stats.duplicates - r.stats.discarded;
}

TEST(ParallelDfsDonationTest, DonatedSubtreesPreserveTheExploredSet) {
  rdf::Dictionary dict;
  rdf::TripleStore store;
  // Two 2-atom queries: the complete DFS space is ~100 states, small
  // enough to exhaust quickly under the TSan leg.
  std::vector<cq::ConjunctiveQuery> workload =
      SmallWorkload(&dict, &store, 821, 2);
  rdf::Statistics stats(&store);
  auto* donations = telemetry::MetricsRegistry::Default()->GetCounter(
      "vsel_dfs_donations_total");
  const uint64_t donations0 = donations->Value();

  auto run = [&](size_t threads) {
    CostModel model(&stats, CostWeights{});
    State s0 = *MakeInitialState(workload);
    HeuristicOptions heur;
    SearchLimits limits;
    limits.time_budget_sec = 600;  // headroom for the TSan leg
    limits.num_threads = threads;
    auto r = RunSearch(StrategyKind::kDfs, s0, model, heur, limits);
    EXPECT_TRUE(r.ok());
    EXPECT_TRUE(r->stats.completed);
    return *r;
  };

  // 8 workers over a handful of seed tasks: workers starve at startup, so
  // the recursing workers donate sibling subtrees. A donated task performs
  // exactly the work its donor skipped, so however the run was split, the
  // explored view-set space must equal the serial engine's, and the
  // reported best must be a sound member of it (its cost recomputes
  // exactly under a fresh cost model).
  SearchResult serial = run(1);
  SearchResult par = run(8);
  EXPECT_EQ(DistinctStates(serial), DistinctStates(par));
  CostModel fresh(&stats, CostWeights{});
  EXPECT_DOUBLE_EQ(par.stats.best_cost, fresh.StateCost(par.best));
  EXPECT_EQ(par.best.fingerprint(), par.best.RecomputeFingerprint());
  // The counter is monotone and shared; it may or may not have ticked in
  // this particular run, but it must never run backwards.
  EXPECT_GE(donations->Value(), donations0);
}

}  // namespace
}  // namespace rdfviews::vsel
