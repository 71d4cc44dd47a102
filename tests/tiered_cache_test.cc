// Tests for the two-tier partition cache (TieredCacheBackend): front-hit
// fast path, write-through coherence, back-promotion rehydration flags,
// Invalidate's both-tier eviction, and sessions sharing one tiered stack
// the way the vseld daemon wires them.
#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "test_util.h"
#include "vsel/pipeline/pipeline.h"
#include "vsel/selector.h"
#include "vsel/serialize/partition_cache.h"
#include "vsel/serialize/serialize.h"
#include "vsel/serialize/tiered_cache.h"
#include "vsel/session/session.h"
#include "workload/generator.h"

namespace rdfviews::vsel::serialize {
namespace {

namespace fs = std::filesystem;
using rdfviews::testing::MustParse;

std::string TempCacheDir(const std::string& name) {
  fs::path dir = fs::path(::testing::TempDir()) / ("rdfviews_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

bool Has(PartitionCacheBackend& backend, const std::string& key) {
  PartitionCacheBackend::Fetched fetched;
  return backend.Get(key, &fetched).ok();
}

/// Three constant-disjoint query families and the searched partition
/// results to feed the cache with.
struct Fixture {
  rdf::Dictionary dict;
  std::vector<cq::ConjunctiveQuery> workload;
  rdf::TripleStore store;
  TuningConfig options;
  pipeline::PartitionPlan plan;
  std::vector<pipeline::PartitionSearchResult> results;
  CacheIdentity identity;

  Fixture() {
    workload = {
        MustParse("q1(X, Z) :- t(X, a:p1, Y), t(Y, a:p2, Z)", &dict),
        MustParse("q2(X) :- t(X, b:p1, b:c1)", &dict),
        MustParse("q3(X, Y) :- t(X, c:p1, Y), t(Y, c:p2, c:c1)", &dict),
    };
    store = workload::GenerateStoreForWorkload(workload, &dict, 2000, 42);
    options.auto_calibrate_cm = false;
    Result<pipeline::IngestResult> ingest =
        pipeline::Ingest(&store, &dict, nullptr, workload, options);
    EXPECT_TRUE(ingest.ok()) << ingest.status().ToString();
    plan = pipeline::PartitionWorkload(*ingest, options);
    CostModel cost_model(ingest->stats, options.weights);
    Result<std::vector<pipeline::PartitionOutcome>> searched =
        pipeline::SearchPartitions(*ingest, plan, &cost_model, options);
    EXPECT_TRUE(searched.ok()) << searched.status().ToString();
    for (pipeline::PartitionOutcome& o : *searched) {
      EXPECT_TRUE(o.ok()) << o.error.ToString();
      results.push_back(std::move(o.result));
    }
    EXPECT_GE(results.size(), 2u);
    identity = ComputeCacheIdentity(store, options);
  }
};

TEST(TieredCacheBackendTest, PutServesFromFrontWithoutRehydration) {
  Fixture fx;
  const std::string dir = TempCacheDir("tiered_front");
  auto dir_backend = std::make_shared<DirCacheBackend>(dir, fx.identity);
  DirCacheBackend* back = dir_backend.get();
  TieredCacheBackend tiered(dir_backend, 8);

  const std::string& key = fx.plan.group_keys[0];
  EXPECT_FALSE(Has(tiered, key));
  EXPECT_TRUE(tiered.Put(key, fx.results[0]).ok());
  // Write-through: the back holds the durable copy...
  EXPECT_EQ(back->Size(), 1u);
  // ...and the front serves the live object, no rehydration required.
  PartitionCacheBackend::Fetched hit;
  ASSERT_TRUE(tiered.Get(key, &hit).ok());
  EXPECT_FALSE(hit.needs_rehydration);
  EXPECT_EQ(hit.result.search.best.Signature(),
            fx.results[0].search.best.Signature());
  EXPECT_EQ(tiered.FrontHits(), 1u);
  const uint64_t back_hits_before = back->counters().hits;
  EXPECT_TRUE(Has(tiered, key));
  EXPECT_EQ(back->counters().hits, back_hits_before);  // never reached
}

TEST(TieredCacheBackendTest, BackHitIsPromotedButKeepsRehydrationFlag) {
  Fixture fx;
  const std::string dir = TempCacheDir("tiered_promote");
  const std::string& key = fx.plan.group_keys[0];
  // Seed the back tier out of band, as a previous process would have.
  EXPECT_TRUE(DirCacheBackend(dir, fx.identity).Put(key, fx.results[0]).ok());

  TieredCacheBackend tiered(
      std::make_shared<DirCacheBackend>(dir, fx.identity), 8);
  PartitionCacheBackend::Fetched first;
  ASSERT_TRUE(tiered.Get(key, &first).ok());
  // Crossed a process boundary: the session must still re-validate it.
  EXPECT_TRUE(first.needs_rehydration);
  EXPECT_EQ(tiered.BackPromotions(), 1u);
  // The promoted copy serves repeats from memory — and stays flagged.
  PartitionCacheBackend::Fetched second;
  ASSERT_TRUE(tiered.Get(key, &second).ok());
  EXPECT_TRUE(second.needs_rehydration);
  EXPECT_EQ(tiered.FrontHits(), 1u);
}

TEST(TieredCacheBackendTest, InvalidateEvictsFrontAndForwardsToBack) {
  Fixture fx;
  const std::string dir = TempCacheDir("tiered_invalidate");
  auto dir_backend = std::make_shared<DirCacheBackend>(dir, fx.identity);
  DirCacheBackend* back = dir_backend.get();
  TieredCacheBackend tiered(dir_backend, 8);

  const std::string& key = fx.plan.group_keys[0];
  EXPECT_TRUE(tiered.Put(key, fx.results[0]).ok());
  ASSERT_TRUE(Has(tiered, key));
  EXPECT_TRUE(tiered.Invalidate(key).ok());
  EXPECT_EQ(tiered.FrontSize(), 0u);
  // Forwarded: the poisoned entry is gone from the durable tier too.
  EXPECT_FALSE(Has(*back, key));
  EXPECT_FALSE(Has(tiered, key));
}

TEST(TieredCacheBackendTest, LruFrontEvictsOldestAtCapacity) {
  Fixture fx;
  auto back = std::make_shared<InMemoryCacheBackend>();
  TieredCacheBackend tiered(back, 2);
  tiered.Put("a", fx.results[0]);
  tiered.Put("b", fx.results[0]);
  ASSERT_TRUE(Has(tiered, "a"));   // "b" is now LRU
  tiered.Put("c", fx.results[0]);  // evicts "b" from the front
  EXPECT_EQ(tiered.FrontSize(), 2u);
  // "b" still *hits* — through the back tier, with a promotion.
  const uint64_t promotions = tiered.BackPromotions();
  ASSERT_TRUE(Has(tiered, "b"));
  EXPECT_EQ(tiered.BackPromotions(), promotions + 1);
  EXPECT_EQ(back->Size(), 3u);  // the authoritative population
  EXPECT_EQ(tiered.Size(), 3u);
}

TEST(TieredCacheBackendTest, ClearAndTrimReachBothTiers) {
  Fixture fx;
  auto back = std::make_shared<InMemoryCacheBackend>();
  TieredCacheBackend tiered(back, 8);
  tiered.Put("a", fx.results[0]);
  tiered.Put("b", fx.results[0]);
  tiered.Put("c", fx.results[0]);
  tiered.Trim(1);
  EXPECT_LE(tiered.FrontSize(), 1u);
  EXPECT_EQ(back->Size(), 1u);
  tiered.Clear();
  EXPECT_EQ(tiered.FrontSize(), 0u);
  EXPECT_EQ(back->Size(), 0u);
  EXPECT_EQ(tiered.Size(), 0u);
}

TEST(TieredCacheBackendTest, ZeroCapacityFrontIsPassthrough) {
  Fixture fx;
  auto back = std::make_shared<InMemoryCacheBackend>();
  TieredCacheBackend tiered(back, 0);
  const std::string& key = fx.plan.group_keys[0];
  tiered.Put(key, fx.results[0]);
  EXPECT_EQ(tiered.FrontSize(), 0u);
  EXPECT_EQ(back->Size(), 1u);
  ASSERT_TRUE(Has(tiered, key));
  EXPECT_EQ(tiered.FrontHits(), 0u);
}

TEST(TieredCacheBackendTest, SessionsShareOneTieredStack) {
  // The daemon wiring: two sessions over the same store and options share
  // one TieredCacheBackend over one cache directory. The first session's
  // update populates both tiers; the second session's identical workload
  // is served without re-reading entry files.
  Fixture fx;
  const std::string dir = TempCacheDir("tiered_sessions");
  auto tiered = std::make_shared<TieredCacheBackend>(
      std::make_shared<DirCacheBackend>(dir, fx.identity), 32);

  TuningSession first(&fx.store, &fx.dict, fx.options, nullptr, tiered);
  Result<Recommendation> rec1 = first.Update(fx.workload);
  ASSERT_TRUE(rec1.ok()) << rec1.status().ToString();
  EXPECT_GT(tiered.get()->FrontSize(), 0u);
  const uint64_t stored = tiered->counters().stored;
  EXPECT_GT(stored, 0u);

  TuningSession second(&fx.store, &fx.dict, fx.options, nullptr, tiered);
  Result<Recommendation> rec2 = second.Update(fx.workload);
  ASSERT_TRUE(rec2.ok()) << rec2.status().ToString();
  // Served from the front: hits counted, nothing new stored.
  EXPECT_GT(tiered->FrontHits(), 0u);
  EXPECT_EQ(tiered->counters().stored, stored);
  // Same store, same options, same searches: identical recommendations.
  CacheIdentity identity = ComputeCacheIdentity(fx.store, fx.options);
  EXPECT_EQ(SerializeRecommendationCanonical(*rec1, identity),
            SerializeRecommendationCanonical(*rec2, identity));
}

}  // namespace
}  // namespace rdfviews::vsel::serialize
