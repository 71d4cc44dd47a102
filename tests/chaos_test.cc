// Chaos tests for the fault-isolated tuning pipeline: deterministic fault
// plans (src/common/fault.h) are armed against real sessions and the
// failure-semantics contract of README "Failure semantics" is asserted:
//
//   (a) no fault at any registered site, under any action, crashes the
//       process or wedges an update — every run ends in a valid
//       recommendation or a clean Status (the CI chaos job re-runs this
//       binary under ASan+UBSan with a randomized seed);
//   (b) an update that fails outright leaves the session exactly as it
//       was — workload, cached results, calibration;
//   (c) a degraded recommendation (some partitions abandoned) is exactly
//       the recommendation a from-scratch tune of the surviving queries
//       would produce;
//   (d) transient faults plus retry converge bit-exactly to the fault-free
//       result, and failed partitions stay dirty and recover on the next
//       update once the fault clears.
//
// Randomization: CHAOS_SEED (environment) seeds the probabilistic plans;
// the seed is echoed so a CI failure is replayable locally. Exactness
// assertions use nth-hit windows (seed-independent); probabilistic plans
// only back invariants that must hold for *every* seed. All fixtures run
// with auto_calibrate_cm = false: a degraded run skips cm calibration, so
// exact comparisons need fixed weights on both sides.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "common/fault.h"
#include "common/status.h"
#include "rdf/statistics.h"
#include "test_util.h"
#include "vsel/robust/retrying_cache_backend.h"
#include "vsel/selector.h"
#include "vsel/serialize/partition_cache.h"
#include "vsel/session/session.h"
#include "workload/generator.h"

namespace rdfviews::vsel {
namespace {

namespace fs = std::filesystem;
using rdfviews::testing::MustParse;

/// The chaos seed: CHAOS_SEED from the environment (any uint64, 0x-prefix
/// accepted), else a fixed default. Echoed once so a failing CI run names
/// the seed to replay.
uint64_t ChaosSeed() {
  static const uint64_t seed = [] {
    const char* env = std::getenv("CHAOS_SEED");
    uint64_t s = 0x5eedc4a05ull;
    if (env != nullptr && *env != '\0') {
      s = std::strtoull(env, nullptr, 0);
    }
    std::printf("[chaos] CHAOS_SEED=%llu (set CHAOS_SEED to replay)\n",
                static_cast<unsigned long long>(s));
    std::fflush(stdout);
    return s;
  }();
  return seed;
}

std::string TempCacheDir(const std::string& name) {
  fs::path dir = fs::path(::testing::TempDir()) / ("rdfviews_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

/// Four constant-disjoint families: a = {q1, q2} (+ q5 via the delta),
/// b = {q3}, c = {q4}, d = {q6, delta only} — so the full workload splits
/// into four partitions, every strategy exhausts its space, and exact
/// incremental-vs-scratch comparisons hold.
struct ChaosFixture : public ::testing::Test {
  rdf::Dictionary dict;
  std::vector<cq::ConjunctiveQuery> initial;
  std::vector<cq::ConjunctiveQuery> delta;
  rdf::TripleStore store;

  ChaosFixture() {
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
    std::vector<cq::ConjunctiveQuery> everything = All();
    store = workload::GenerateStoreForWorkload(everything, &dict, 3000, 42);
  }

  void TearDown() override { fault::Disarm(); }

  std::vector<cq::ConjunctiveQuery> All() const {
    std::vector<cq::ConjunctiveQuery> all = initial;
    all.insert(all.end(), delta.begin(), delta.end());
    return all;
  }

  /// Fixed-weight options with a per-partition retry budget.
  TuningConfig Options(size_t max_attempts = 1) const {
    TuningConfig options;
    options.strategy = StrategyKind::kDfs;
    options.auto_calibrate_cm = false;
    options.robust.retry.max_attempts = max_attempts;
    return options;
  }

  /// The persistent backend at options.cache.cache_dir behind the retrying,
  /// circuit-breaking decorator, with backoffs and a breaker window short
  /// enough that chaos runs never wait out production-scale ones.
  std::shared_ptr<serialize::PartitionCacheBackend> RobustBackend(
      const TuningConfig& options) const {
    robust::RetryingCacheBackend::Options retry;
    retry.backoff_sec = 0.0005;
    retry.breaker.open_sec = 0.01;
    return std::make_shared<robust::RetryingCacheBackend>(
        std::make_shared<serialize::DirCacheBackend>(
            options.cache.cache_dir,
            serialize::ComputeCacheIdentity(store, options)),
        retry);
  }

  Recommendation Scratch(const std::vector<cq::ConjunctiveQuery>& workload,
                         const TuningConfig& options) const {
    EXPECT_FALSE(fault::armed()) << "scratch reference must run fault-free";
    ViewSelector selector(&store, &dict);
    Result<Recommendation> rec = selector.Recommend(workload, options);
    EXPECT_TRUE(rec.ok()) << rec.status().ToString();
    return std::move(*rec);
  }
};

void ExpectSameRecommendation(const Recommendation& got,
                              const Recommendation& want) {
  EXPECT_EQ(got.best_state.Signature(), want.best_state.Signature());
  EXPECT_NEAR(got.stats.best_cost, want.stats.best_cost,
              1e-9 * (1.0 + std::abs(want.stats.best_cost)));
  EXPECT_TRUE(got.stats.completed);
  EXPECT_TRUE(want.stats.completed);
}

// ---- (a) Every site, every action: contained -------------------------------

using ChaosSweepTest = ChaosFixture;

TEST_F(ChaosSweepTest, EverySiteEveryActionIsContainedAndRecoverable) {
  const fault::Action kActions[] = {fault::Action::kFail,
                                    fault::Action::kThrow,
                                    fault::Action::kBadAlloc};
  size_t combo = 0;
  for (const char* site : fault::sites::kAll) {
    for (fault::Action action : kActions) {
      SCOPED_TRACE(std::string("site=") + site + " action=" +
                   std::to_string(static_cast<int>(action)));
      TuningConfig options = Options(/*max_attempts=*/2);
      // Parallel partitions over a pool (kPoolTask), a persistent robust
      // backend (the dircache sites): every site is on some code path.
      options.limits.num_threads = 2;
      options.cache.cache_dir =
          TempCacheDir("chaos_sweep_" + std::to_string(combo));
      TuningSession session(&store, &dict, options, nullptr,
                            RobustBackend(options));

      fault::SiteSpec spec;
      spec.action = action;
      spec.count = fault::kForever;
      fault::Arm(ChaosSeed() + combo, {{site, spec}});

      // A persistent hard fault may fail the update outright (every
      // partition lost) or degrade it — both are clean outcomes; what is
      // forbidden is a crash, a hang, or a malformed recommendation.
      Result<Recommendation> faulty = session.Update(All());
      if (faulty.ok()) {
        EXPECT_EQ(faulty->rewritings.size(), All().size());
      }

      // Once the fault clears, the session converges to the exact
      // fault-free recommendation: failed updates rolled back cleanly,
      // abandoned partitions stayed dirty and are re-searched now.
      fault::Disarm();
      std::set<std::string> present;
      for (const cq::ConjunctiveQuery& q : session.workload()) {
        present.insert(q.name());
      }
      std::vector<cq::ConjunctiveQuery> missing;
      for (const cq::ConjunctiveQuery& q : All()) {
        if (!present.contains(q.name())) missing.push_back(q);
      }
      Result<Recommendation> recovered = missing.empty()
                                             ? session.Recommend()
                                             : session.Update(missing);
      ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
      ExpectSameRecommendation(*recovered, Scratch(All(), options));
      ++combo;
    }
  }
}

TEST_F(ChaosSweepTest, RandomizedMultiSiteChaosConvergesAfterDisarm) {
  // Every registered site armed at once, probabilistically, action cycling
  // through the three non-hanging kinds — the "everything is flaky"
  // scenario, driven by the CI-randomized seed. Any seed must satisfy the
  // contract: faulty updates end cleanly (ok or error), and once the chaos
  // stops the session converges exactly.
  TuningConfig options = Options(/*max_attempts=*/4);
  options.limits.num_threads = 2;
  options.cache.cache_dir = TempCacheDir("chaos_multi");
  TuningSession session(&store, &dict, options, nullptr,
                        RobustBackend(options));

  fault::FaultPlan plan;
  const fault::Action kActions[] = {fault::Action::kFail,
                                    fault::Action::kThrow,
                                    fault::Action::kBadAlloc};
  size_t i = 0;
  for (const char* site : fault::sites::kAll) {
    fault::SiteSpec spec;
    spec.action = kActions[i++ % 3];
    spec.probability = 0.25;
    plan.emplace(site, spec);
  }
  fault::Arm(ChaosSeed(), plan);

  Result<Recommendation> first = session.Update(initial);
  if (first.ok()) {
    EXPECT_GE(first->rewritings.size(), initial.size());
  }
  Result<Recommendation> second = session.Update(delta);
  if (second.ok()) {
    EXPECT_LE(second->rewritings.size(), All().size());
  }

  fault::Disarm();
  std::set<std::string> present;
  for (const cq::ConjunctiveQuery& q : session.workload()) {
    present.insert(q.name());
  }
  std::vector<cq::ConjunctiveQuery> missing;
  for (const cq::ConjunctiveQuery& q : All()) {
    if (!present.contains(q.name())) missing.push_back(q);
  }
  Result<Recommendation> recovered = missing.empty()
                                         ? session.Recommend()
                                         : session.Update(missing);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  ExpectSameRecommendation(*recovered, Scratch(All(), options));
}

TEST_F(ChaosSweepTest, SnapshotLoadFaultSurfacesAsStatus) {
  const std::string path =
      TempCacheDir("chaos_snapshot") + "/stats.snapshot";
  rdf::StatisticsSnapshot snapshot;
  ASSERT_TRUE(rdf::SaveSnapshot(snapshot, path, /*store_tag=*/7).ok());

  fault::SiteSpec spec;
  fault::Arm(1, {{fault::sites::kSnapshotLoad, spec}});
  Result<rdf::StatisticsSnapshot> faulty = rdf::LoadSnapshot(path, 7);
  EXPECT_FALSE(faulty.ok());
  EXPECT_EQ(faulty.status().code(), StatusCode::kInternal);

  fault::Disarm();
  EXPECT_TRUE(rdf::LoadSnapshot(path, 7).ok());
}

// ---- Watchdog: a hung partition is cut loose and retried -------------------

using ChaosWatchdogTest = ChaosFixture;

TEST_F(ChaosWatchdogTest, WatchdogCutsHungPartitionAndRetryRecovers) {
  TuningConfig options = Options(/*max_attempts=*/2);
  options.robust.partition_deadline_sec = 0.25;

  // The first partition attempt hangs "forever" (30 s safety cap — far
  // beyond the watchdog deadline, so only the watchdog can release it).
  fault::SiteSpec spec;
  spec.action = fault::Action::kHang;
  fault::Arm(1, {{fault::sites::kPartitionSearch, spec}});

  ViewSelector selector(&store, &dict);
  Result<Recommendation> rec = selector.Recommend(All(), options);
  fault::Disarm();
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_TRUE(rec->stats.completed);  // the retry finished the partition
  EXPECT_EQ(rec->pipeline.partitions_failed, 0u);
  EXPECT_GE(rec->pipeline.partition_retries, 1u);
  ASSERT_EQ(rec->pipeline.partition_health.size(), 1u);
  const PartitionHealth& health = rec->pipeline.partition_health[0];
  EXPECT_TRUE(health.recovered);
  EXPECT_FALSE(health.abandoned);
  EXPECT_EQ(health.attempts, 2u);
  EXPECT_EQ(health.last_code, StatusCode::kTimedOut);

  ExpectSameRecommendation(*rec, Scratch(All(), options));
}

// ---- (b) A failed update leaves the session untouched ----------------------

using ChaosSessionTest = ChaosFixture;

TEST_F(ChaosSessionTest, TotalFailureRollsTheUpdateBack) {
  TuningConfig options = Options(/*max_attempts=*/1);
  TuningSession session(&store, &dict, options);

  fault::SiteSpec spec;
  spec.count = fault::kForever;
  fault::Arm(1, {{fault::sites::kPartitionSearch, spec}});
  Result<Recommendation> failed = session.Update(initial);
  EXPECT_FALSE(failed.ok());

  // No partition survived, so the update failed outright — and left the
  // session exactly as it was: empty workload, empty cache.
  EXPECT_EQ(session.workload().size(), 0u);
  EXPECT_EQ(session.cached_partitions(), 0u);

  // The same delta succeeds verbatim once the fault clears.
  fault::Disarm();
  Result<Recommendation> rec = session.Update(initial);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_EQ(rec->pipeline.partitions_reused, 0u);
  EXPECT_EQ(rec->pipeline.partitions_searched, rec->pipeline.num_partitions);
  ExpectSameRecommendation(*rec, Scratch(initial, options));
}

// ---- (c) Degraded recommendation == from-scratch subset tune ---------------

using ChaosDegradeTest = ChaosFixture;

TEST_F(ChaosDegradeTest, DegradedRecommendationMatchesSurvivorSubsetTune) {
  TuningConfig options = Options(/*max_attempts=*/1);

  // Exactly the first-searched partition fails (serial order, nth = 1).
  fault::SiteSpec spec;
  fault::Arm(1, {{fault::sites::kPartitionSearch, spec}});
  ViewSelector selector(&store, &dict);
  Result<Recommendation> rec = selector.Recommend(All(), options);
  fault::Disarm();
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_FALSE(rec->stats.completed);  // degraded, by contract
  EXPECT_EQ(rec->pipeline.partitions_failed, 1u);
  ASSERT_EQ(rec->pipeline.partition_health.size(), 1u);
  EXPECT_TRUE(rec->pipeline.partition_health[0].abandoned);
  EXPECT_EQ(rec->pipeline.partition_health[0].attempts, 1u);

  // The failed partition's queries are null-marked in the workload-aligned
  // rewriting vector; the survivors' rewritings are intact.
  ASSERT_EQ(rec->rewritings.size(), All().size());
  std::vector<cq::ConjunctiveQuery> survivors;
  size_t failed_queries = 0;
  for (size_t i = 0; i < rec->rewritings.size(); ++i) {
    if (rec->rewritings[i] == nullptr) {
      ++failed_queries;
    } else {
      survivors.push_back(All()[i]);
    }
  }
  EXPECT_EQ(failed_queries, rec->pipeline.partition_health[0].queries);
  ASSERT_GT(failed_queries, 0u);
  ASSERT_FALSE(survivors.empty());

  // The degraded recommendation *is* the fault-free tune of the surviving
  // queries: same views, same cost — nothing half-merged leaked in.
  Recommendation subset = Scratch(survivors, options);
  EXPECT_EQ(rec->best_state.Signature(), subset.best_state.Signature());
  EXPECT_NEAR(rec->stats.best_cost, subset.stats.best_cost,
              1e-9 * (1.0 + std::abs(subset.stats.best_cost)));
}

TEST_F(ChaosSessionTest, AbandonedPartitionsStayDirtyAndRecover) {
  TuningConfig options = Options(/*max_attempts=*/1);
  TuningSession session(&store, &dict, options);
  Result<Recommendation> rec0 = session.Update(initial);
  ASSERT_TRUE(rec0.ok()) << rec0.status().ToString();
  ASSERT_EQ(session.cached_partitions(), 3u);  // families a, b, c

  // The delta dirties family a (q5) and opens family d (q6); both dirty
  // partitions fail, b and c are served from cache — a degraded update.
  fault::SiteSpec spec;
  spec.count = fault::kForever;
  fault::Arm(1, {{fault::sites::kPartitionSearch, spec}});
  Result<Recommendation> degraded = session.Update(delta);
  fault::Disarm();
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
  EXPECT_FALSE(degraded->stats.completed);
  EXPECT_EQ(degraded->pipeline.num_partitions, 4u);
  EXPECT_EQ(degraded->pipeline.partitions_reused, 2u);
  EXPECT_EQ(degraded->pipeline.partitions_failed, 2u);
  // Workload order: q1 q2 q3 q4 q5 q6. Family a = {0, 1, 4}, d = {5}
  // failed; b = {2}, c = {3} survived.
  ASSERT_EQ(degraded->rewritings.size(), 6u);
  for (size_t i : {0u, 1u, 4u, 5u}) {
    EXPECT_EQ(degraded->rewritings[i], nullptr) << "query " << i;
  }
  for (size_t i : {2u, 3u}) {
    EXPECT_NE(degraded->rewritings[i], nullptr) << "query " << i;
  }
  // The degraded update committed (the workload advanced), but the failed
  // partitions were not cached — they stay dirty. The cache still holds
  // b, c and the now-stale pre-delta family-a entry (a different canonical
  // key): nothing new was stored.
  EXPECT_EQ(session.workload().size(), 6u);
  EXPECT_EQ(session.cached_partitions(), 3u);

  // Next Recommend re-searches exactly the two dirty partitions and lands
  // on the exact fault-free recommendation.
  Result<Recommendation> recovered = session.Recommend();
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered->pipeline.partitions_reused, 2u);
  EXPECT_EQ(recovered->pipeline.partitions_searched, 2u);
  ExpectSameRecommendation(*recovered, Scratch(All(), options));
}

// ---- (d) Transient faults + retry converge exactly -------------------------

using ChaosRetryTest = ChaosFixture;

TEST_F(ChaosRetryTest, TransientFaultsWithRetryConvergeExactly) {
  TuningConfig options = Options(/*max_attempts=*/3);

  // The first two attempts of the first-searched partition throw; the
  // third evaluation falls outside the window and succeeds.
  fault::SiteSpec spec;
  spec.action = fault::Action::kThrow;
  spec.count = 2;
  fault::Arm(1, {{fault::sites::kPartitionSearch, spec}});
  ViewSelector selector(&store, &dict);
  Result<Recommendation> rec = selector.Recommend(All(), options);
  fault::Disarm();
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_EQ(fault::Injected(fault::sites::kPartitionSearch), 2u);
  EXPECT_EQ(rec->pipeline.partitions_failed, 0u);
  EXPECT_EQ(rec->pipeline.partition_retries, 2u);
  ASSERT_EQ(rec->pipeline.partition_health.size(), 1u);
  const PartitionHealth& health = rec->pipeline.partition_health[0];
  EXPECT_TRUE(health.recovered);
  EXPECT_EQ(health.attempts, 3u);

  // Bit-exact convergence: retries leave no trace in the recommendation.
  ExpectSameRecommendation(*rec, Scratch(All(), options));
}

TEST_F(ChaosRetryTest, CacheLayerFaultsAreCorrectnessNeutral) {
  // Randomized storage-layer chaos (seeded by CHAOS_SEED): every dircache
  // site flaky at p = 0.5 behind the retrying backend. Cache faults may
  // cost wasted searches — never a different recommendation.
  TuningConfig options = Options();
  options.cache.cache_dir = TempCacheDir("chaos_cache_neutral");
  TuningSession session(&store, &dict, options, nullptr,
                        RobustBackend(options));

  fault::FaultPlan plan;
  for (const char* site :
       {fault::sites::kDirCacheGetOpen, fault::sites::kDirCacheGetRead,
        fault::sites::kDirCachePutWrite, fault::sites::kDirCachePutRename}) {
    fault::SiteSpec spec;
    spec.probability = 0.5;
    plan.emplace(site, spec);
  }
  fault::Arm(ChaosSeed(), plan);

  Result<Recommendation> first = session.Update(initial);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  Result<Recommendation> second = session.Update(delta);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second->pipeline.partitions_failed, 0u);
  fault::Disarm();

  ExpectSameRecommendation(*first, Scratch(initial, options));
  ExpectSameRecommendation(*second, Scratch(All(), options));
}

}  // namespace
}  // namespace rdfviews::vsel
