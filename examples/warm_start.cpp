// Warm-starting a tuning service from a persistent partition cache.
//
// The storage-tuning-wizard deployment model runs view selection as a
// *recurring service*: a nightly CI job, a sidecar re-tuning on workload
// drift, a fleet of tuning nodes sharing work. All of those restart
// processes — and a freshly started process has an empty in-memory cache,
// so without persistence every restart pays the full search again.
//
// This example points two TuningSessions (standing in for two process
// lifetimes) at one DirCacheBackend directory:
//   1. "first boot": a cold tune over a 60-query log — every partition
//      searched, every completed outcome persisted as an identity-tagged
//      file under the cache root,
//   2. "after restart": a brand-new session over the same workload —
//      every partition rehydrated from disk (re-interned + re-costed,
//      asserted equal to the persisted cost), 0 searches, identical
//      recommendation,
//   3. "drift after restart": +6 new queries — only the delta's
//      partitions are searched; the 20 warm ones stay on disk.
// Concurrent sessions may share the directory too: writes commit by atomic
// rename, so readers never observe a torn file (see the "Persistent
// caches" section of the README).
//
// Build & run:  cmake --build build && ./build/example_warm_start
#include <cstdio>
#include <filesystem>

#include "common/timer.h"
#include "vsel/session/session.h"
#include "workload/generator.h"

using namespace rdfviews;

namespace {

void PrintUpdate(const char* label, const vsel::Recommendation& rec,
                 double wall_ms) {
  std::printf(
      "%-16s %3zu queries  %2zu partitions (%zu reused, %zu from disk, "
      "%zu searched)  %8.1f ms  cost %.4g\n",
      label, rec.rewritings.size(), rec.pipeline.num_partitions,
      rec.pipeline.partitions_reused, rec.pipeline.partitions_rehydrated,
      rec.pipeline.partitions_searched, wall_ms, rec.stats.best_cost);
}

}  // namespace

int main() {
  // --- 0. A 66-query log in 22 constant-disjoint families; the last two
  // families (6 queries) arrive after the "restart". ------------------------
  rdf::Dictionary dict;
  workload::WorkloadSpec spec;
  spec.num_queries = 66;
  spec.atoms_per_query = 3;
  spec.shape = workload::QueryShape::kMixed;
  spec.commonality = workload::Commonality::kHigh;
  spec.partition_groups = 22;
  spec.seed = 20260726;
  std::vector<cq::ConjunctiveQuery> log =
      workload::GenerateWorkload(spec, &dict);
  rdf::TripleStore store =
      workload::GenerateStoreForWorkload(log, &dict, 10000, spec.seed);
  std::vector<cq::ConjunctiveQuery> initial(log.begin(), log.end() - 6);
  std::vector<cq::ConjunctiveQuery> arriving(log.end() - 6, log.end());

  const std::string cache_dir =
      (std::filesystem::temp_directory_path() / "rdfviews_warm_start")
          .string();
  std::filesystem::remove_all(cache_dir);  // demo starts genuinely cold

  vsel::TuningConfig options;
  options.strategy = vsel::StrategyKind::kGstr;
  // Fixed weights: persisted costs must mean the same thing in every
  // process that reads the cache (see README "Persistent caches").
  options.auto_calibrate_cm = false;
  options.cache.cache_dir = cache_dir;

  std::printf("partition cache: %s\n\n", cache_dir.c_str());
  Stopwatch watch;

  // --- 1. First boot: cold tune, outcomes persisted. -----------------------
  {
    vsel::TuningSession session(&store, &dict, options);
    watch.Restart();
    Result<vsel::Recommendation> rec = session.Update(initial);
    if (!rec.ok()) {
      std::fprintf(stderr, "tune failed: %s\n",
                   rec.status().ToString().c_str());
      return 1;
    }
    PrintUpdate("first boot", *rec, watch.ElapsedSeconds() * 1e3);
    std::printf("%18s-> %zu outcome files persisted\n", "",
                session.cached_partitions());
  }  // process 1 "exits": the session and all its memory are gone

  // --- 2. After restart: a cold session, a warm directory. -----------------
  vsel::TuningSession session(&store, &dict, options);
  watch.Restart();
  Result<vsel::Recommendation> warm = session.Update(initial);
  if (!warm.ok()) {
    std::fprintf(stderr, "warm tune failed: %s\n",
                 warm.status().ToString().c_str());
    return 1;
  }
  PrintUpdate("after restart", *warm, watch.ElapsedSeconds() * 1e3);
  if (warm->pipeline.partitions_searched != 0) {
    std::fprintf(stderr, "expected a fully warm restart!\n");
    return 1;
  }

  // --- 3. Drift after the restart: only the delta is searched. -------------
  watch.Restart();
  Result<vsel::Recommendation> drifted = session.Update(arriving);
  if (!drifted.ok()) {
    std::fprintf(stderr, "update failed: %s\n",
                 drifted.status().ToString().c_str());
    return 1;
  }
  PrintUpdate("drift (+6)", *drifted, watch.ElapsedSeconds() * 1e3);

  const auto counters = session.cache_backend().counters();
  std::printf(
      "\nbackend traffic: %llu hits, %llu misses, %llu rejected, "
      "%llu rehydration-rejected, %llu stored\n",
      static_cast<unsigned long long>(counters.hits),
      static_cast<unsigned long long>(counters.misses),
      static_cast<unsigned long long>(counters.rejected),
      static_cast<unsigned long long>(counters.rehydration_rejected),
      static_cast<unsigned long long>(counters.stored));
  return 0;
}
