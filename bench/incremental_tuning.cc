// Incremental tuning: the cost of an N+k-query update vs a full re-tune.
//
// The tuning-session claim is that adding k queries to an N-query workload
// costs ~O(dirty partitions), not O(N): the session re-searches only the
// partitions the delta touches and re-merges everything else from its
// cache. This harness measures exactly that:
//   1. full tune:    session.Update(N queries)          — every partition
//   2. update:       session.Update(+k queries)         — dirty partitions
//   3. scratch:      fresh one-shot Recommend(N + k)    — the baseline
// and asserts (exit code != 0 otherwise — the CI smoke relies on this)
//   - update wall-time < --max-update-ratio (default 0.5) x full tune,
//   - the update's merged cost matches the from-scratch cost on the final
//     workload (the incremental-exactness contract; cm frozen by passing
//     --calibrate=0 to both),
//   - only the delta's partitions were searched.
//
// Usage:
//   ./incremental_tuning [--queries=500] [--add=25] [--group-size=3]
//     [--atoms=3] [--budget-sec=0] [--max-states=0] [--strategy=GSTR]
//     [--threads=1] [--max-update-ratio=0.5] [--csv=out.csv]
//     [--json=BENCH_incremental.json] [--seed=1]
//     [--cache-dir=DIR] [--expect-warm=0|1]
//
// With the default unlimited budget every partition search exhausts its
// space, so the cost equivalence is exact (tolerance covers floating-point
// re-association only).
//
// --cache-dir points the session at a persistent DirCacheBackend: every
// completed partition search lands as an identity-tagged file under DIR and
// survives the process. Workload/store generation is seeded and
// deterministic, so a *second* run of this binary against the same DIR
// re-derives the same canonical keys and warm-starts from the files; with
// --expect-warm=1 the harness additionally gates (exit != 0 otherwise) that
// the warm run re-searched 0 partitions in both the full and the update
// phase while still matching the from-scratch cost exactly — the CI
// warm-start smoke runs the binary twice this way, persisting DIR via
// actions/cache. The wall-ratio and delta-dirtying gates only apply when
// the full tune was actually cold (a warm full tune makes them
// meaningless), and the scratch baseline always runs cache-less.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/telemetry/export.h"
#include "common/timer.h"
#include "vsel/session/session.h"
#include "workload/generator.h"

using namespace rdfviews;

namespace {

vsel::StrategyKind ParseStrategy(const std::string& name) {
  if (name == "EXNAIVE") return vsel::StrategyKind::kExNaive;
  if (name == "EXSTR") return vsel::StrategyKind::kExStr;
  if (name == "DFS") return vsel::StrategyKind::kDfs;
  if (name == "GSTR") return vsel::StrategyKind::kGstr;
  std::fprintf(stderr, "unknown --strategy=%s (EXNAIVE|EXSTR|DFS|GSTR)\n",
               name.c_str());
  std::exit(2);
}

struct Row {
  const char* phase;
  size_t queries;
  size_t partitions;
  size_t reused;
  size_t rehydrated;
  size_t searched;
  double wall_sec;
  double best_cost;
  double rcr;
  double states_per_sec;
};

void EmitCsv(const std::string& path, const std::vector<Row>& rows) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(2);
  }
  std::fprintf(f,
               "phase,queries,partitions,partitions_reused,"
               "partitions_rehydrated,partitions_searched,wall_sec,"
               "best_cost,rcr\n");
  for (const Row& r : rows) {
    std::fprintf(f, "%s,%zu,%zu,%zu,%zu,%zu,%.6f,%.6f,%.6f\n", r.phase,
                 r.queries, r.partitions, r.reused, r.rehydrated,
                 r.searched, r.wall_sec, r.best_cost, r.rcr);
  }
  std::fclose(f);
  std::printf("csv: %s\n", path.c_str());
}

/// Machine-readable run summary (the CI smoke uploads it as an artifact so
/// regressions in update/full wall ratio or partition reuse are graphable
/// across commits).
void EmitJson(const std::string& path, const std::string& strategy,
              size_t n, size_t k, size_t threads,
              const std::vector<Row>& rows,
              const telemetry::RunTelemetry* update_telemetry) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(2);
  }
  std::fprintf(f,
               "{\n  \"bench\": \"incremental_tuning\",\n"
               "  \"strategy\": \"%s\",\n"
               "  \"queries\": %zu,\n  \"added\": %zu,\n"
               "  \"threads\": %zu,\n  \"phases\": [\n",
               strategy.c_str(), n, k, threads);
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(f,
                 "    {\"phase\": \"%s\", \"queries\": %zu, "
                 "\"partitions\": %zu, \"partitions_reused\": %zu, "
                 "\"partitions_rehydrated\": %zu, "
                 "\"partitions_searched\": %zu, \"wall_sec\": %.6f, "
                 "\"best_cost\": %.9g, \"rcr\": %.6f, "
                 "\"states_per_sec\": %.1f}%s\n",
                 r.phase, r.queries, r.partitions, r.reused, r.rehydrated,
                 r.searched, r.wall_sec, r.best_cost, r.rcr,
                 r.states_per_sec, i + 1 < rows.size() ? "," : "");
  }
  double full_sec = 0;
  double update_sec = 0;
  size_t update_reused = 0;
  size_t update_partitions = 0;
  for (const Row& r : rows) {
    if (std::string(r.phase) == "full") full_sec = r.wall_sec;
    if (std::string(r.phase) == "update") {
      update_sec = r.wall_sec;
      update_reused = r.reused;
      update_partitions = r.partitions;
    }
  }
  std::fprintf(f,
               "  ],\n  \"update_full_wall_ratio\": %.6f,\n"
               "  \"update_reuse_ratio\": %.6f",
               full_sec > 0 ? update_sec / full_sec : 0.0,
               update_partitions > 0
                   ? static_cast<double>(update_reused) / update_partitions
                   : 0.0);
  // Telemetry makes the report a strict superset of the historical schema:
  // the update phase's span tree plus the end-of-run registry snapshot.
  if (update_telemetry != nullptr) {
    std::fprintf(f, ",\n  \"spans\": %s,\n  \"metrics\": %s\n}\n",
                 telemetry::SpansJson(update_telemetry->spans).c_str(),
                 telemetry::MetricsJson(update_telemetry->metrics).c_str());
  } else {
    std::fprintf(f, "\n}\n");
  }
  std::fclose(f);
  std::printf("json: %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  bench::Flags flags(argc, argv);
  const size_t n = static_cast<size_t>(flags.GetInt("queries", 500));
  const size_t k = static_cast<size_t>(flags.GetInt("add", 25));
  const size_t group_size =
      static_cast<size_t>(flags.GetInt("group-size", 3));
  const size_t atoms = static_cast<size_t>(flags.GetInt("atoms", 3));
  const double budget = flags.GetDouble("budget-sec", 0);
  const double max_ratio = flags.GetDouble("max-update-ratio", 0.5);
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  const std::string cache_dir = flags.GetString("cache-dir", "");
  const bool expect_warm = flags.GetInt("expect-warm", 0) != 0;
  if (expect_warm && cache_dir.empty()) {
    std::fprintf(stderr, "--expect-warm=1 requires --cache-dir\n");
    return 2;
  }

  // The delta forms its own constant-disjoint families, so the update
  // dirties ceil(k / group_size) partitions out of ~ (n + k) / group_size.
  rdf::Dictionary dict;
  workload::WorkloadSpec spec;
  spec.num_queries = n + k;
  spec.atoms_per_query = atoms;
  spec.shape = workload::QueryShape::kMixed;
  spec.commonality = workload::Commonality::kHigh;
  spec.partition_groups = (n + k + group_size - 1) / group_size;
  spec.seed = seed;
  std::vector<cq::ConjunctiveQuery> all =
      workload::GenerateWorkload(spec, &dict);
  rdf::TripleStore store = workload::GenerateStoreForWorkload(
      all, &dict, (n + k) * 40, seed, /*resource_pool=*/n * 8);
  std::vector<cq::ConjunctiveQuery> initial(all.begin(),
                                            all.end() - static_cast<long>(k));
  std::vector<cq::ConjunctiveQuery> delta(all.end() - static_cast<long>(k),
                                          all.end());

  vsel::TuningConfig options;
  options.strategy = ParseStrategy(flags.GetString("strategy", "GSTR"));
  options.limits.time_budget_sec = budget;
  // Unlimited states by default: a memory-capped partition search does not
  // count as completed, would never be cached, and would (rightly) fail
  // the reuse gate below. The tiny per-family spaces stay well under RAM.
  options.limits.max_states =
      static_cast<size_t>(flags.GetInt("max-states", 0));
  options.limits.num_threads =
      static_cast<size_t>(flags.GetInt("threads", 1));
  options.auto_calibrate_cm = flags.GetInt("calibrate", 0) != 0;
  options.cache.cache_dir = cache_dir;

  std::printf("incremental tuning: N=%zu +k=%zu, %s, %zu-query groups, "
              "budget %s%s%s\n\n",
              n, k, vsel::StrategyName(options.strategy), group_size,
              budget > 0 ? (std::to_string(budget) + "s").c_str()
                         : "unlimited",
              cache_dir.empty() ? "" : ", cache ",
              cache_dir.c_str());

  vsel::TuningSession session(&store, &dict, options);
  std::vector<Row> rows;
  auto run = [&rows](const char* phase, size_t queries,
                     Result<vsel::Recommendation>& rec, double wall_sec) {
    if (!rec.ok()) {
      std::fprintf(stderr, "%s failed: %s\n", phase,
                   rec.status().ToString().c_str());
      std::exit(1);
    }
    rows.push_back(Row{phase, queries, rec->pipeline.num_partitions,
                       rec->pipeline.partitions_reused,
                       rec->pipeline.partitions_rehydrated,
                       rec->pipeline.partitions_searched, wall_sec,
                       rec->stats.best_cost,
                       rec->stats.RelativeCostReduction(),
                       rec->stats.StatesPerSecond()});
    std::printf("%-10s %5zu queries  %3zu partitions (%3zu reused, %3zu "
                "from disk / %3zu searched)  %8.3f s  cost %.4g  rcr %.3f\n",
                phase, queries, rec->pipeline.num_partitions,
                rec->pipeline.partitions_reused,
                rec->pipeline.partitions_rehydrated,
                rec->pipeline.partitions_searched, wall_sec,
                rec->stats.best_cost, rec->stats.RelativeCostReduction());
  };

  Stopwatch watch;
  Result<vsel::Recommendation> full = session.Update(initial);
  const double full_sec = watch.ElapsedSeconds();
  run("full", n, full, full_sec);

  watch.Restart();
  Result<vsel::Recommendation> update = session.Update(delta);
  const double update_sec = watch.ElapsedSeconds();
  run("update", n + k, update, update_sec);

  // The from-scratch baseline always runs cache-less: Recommend wraps a
  // TuningSession, so leaving cache_dir set would let it warm-start too.
  vsel::TuningConfig scratch_options = options;
  scratch_options.cache.cache_dir.clear();
  watch.Restart();
  vsel::ViewSelector selector(&store, &dict);
  Result<vsel::Recommendation> scratch =
      selector.Recommend(all, scratch_options);
  const double scratch_sec = watch.ElapsedSeconds();
  run("scratch", n + k, scratch, scratch_sec);

  const std::string csv = flags.GetString("csv", "");
  if (!csv.empty()) EmitCsv(csv, rows);
  const std::string json = flags.GetString("json", "");
  if (!json.empty()) {
    EmitJson(json, flags.GetString("strategy", "GSTR"), n, k,
             options.limits.num_threads, rows,
             update->pipeline.telemetry.get());
  }

  // --- Assertions (the CI smoke gates). -------------------------------------
  // The wall-ratio and delta-dirtying gates presuppose a *cold* full tune;
  // with a restored --cache-dir the full phase may warm-start from files,
  // and the gates that remain meaningful are the cost equivalence (always)
  // and, under --expect-warm, zero re-searches in both session phases.
  int failures = 0;
  const bool cold_full =
      full->pipeline.partitions_searched == full->pipeline.num_partitions;
  if (cold_full) {
    const double ratio = update_sec / full_sec;
    std::printf("\nupdate/full wall ratio: %.3f (gate %.2f)\n", ratio,
                max_ratio);
    if (ratio >= max_ratio) {
      std::fprintf(stderr, "FAIL: update took %.3fs vs full %.3fs "
                   "(ratio %.3f >= %.2f)\n",
                   update_sec, full_sec, ratio, max_ratio);
      ++failures;
    }
  } else {
    std::printf("\nwall-ratio gate skipped: full tune warm-started (%zu of "
                "%zu partitions searched)\n",
                full->pipeline.partitions_searched,
                full->pipeline.num_partitions);
  }
  const double tol =
      1e-6 * (1.0 + std::abs(scratch->stats.best_cost));
  if (std::abs(update->stats.best_cost - scratch->stats.best_cost) > tol) {
    std::fprintf(stderr, "FAIL: incremental cost %.9g != scratch %.9g\n",
                 update->stats.best_cost, scratch->stats.best_cost);
    ++failures;
  } else {
    std::printf("merged cost matches from-scratch (%.6g)\n",
                scratch->stats.best_cost);
  }
  // O(dirty): when N is a multiple of the group size, the delta's families
  // are constant-disjoint from every initial family, so every initial
  // partition must be reused verbatim...
  if (cold_full && n % group_size == 0 &&
      update->pipeline.partitions_reused != full->pipeline.num_partitions) {
    std::fprintf(stderr,
                 "FAIL: update reused %zu partitions, expected all %zu "
                 "initial ones\n",
                 update->pipeline.partitions_reused,
                 full->pipeline.num_partitions);
    ++failures;
  }
  // ...and the searched ones cover only the delta (a generated family may
  // split into a couple of commonality components, hence the 2x slack).
  const size_t dirty_bound = 2 * ((k + group_size - 1) / group_size) + 1;
  if (cold_full && update->pipeline.partitions_searched > dirty_bound) {
    std::fprintf(stderr,
                 "FAIL: update searched %zu partitions (delta spans <= %zu)\n",
                 update->pipeline.partitions_searched, dirty_bound);
    ++failures;
  }
  if (expect_warm) {
    // The warm-start contract: a fresh process over an already-populated
    // cache directory re-searches 0 clean partitions — the full phase is
    // served entirely from disk, and the update phase reuses the delta
    // partitions the previous run persisted.
    if (full->pipeline.partitions_searched != 0) {
      std::fprintf(stderr,
                   "FAIL: warm full tune searched %zu partitions, "
                   "expected 0 (rehydrated %zu)\n",
                   full->pipeline.partitions_searched,
                   full->pipeline.partitions_rehydrated);
      ++failures;
    }
    if (update->pipeline.partitions_searched != 0) {
      std::fprintf(stderr,
                   "FAIL: warm update searched %zu partitions, expected 0\n",
                   update->pipeline.partitions_searched);
      ++failures;
    }
  }
  if (failures == 0) std::printf("OK\n");
  return failures == 0 ? 0 : 1;
}
