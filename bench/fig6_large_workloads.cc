// Figure 6 — "Relative cost reduction for large workloads" — extended to
// pipeline scale.
//
// Workloads of 5..200 queries (10 atoms each) over five shape families
// (chain, random-sparse, random-dense, star, mixed), high and low
// commonality, run with DFS-AVF-STV and GSTR-AVF-STV under stop_time.
// Also reports the average atoms/view of the recommended view sets
// (paper: DFS ~3.2, GSTR ~6.5).
//
// Paper results to reproduce: DFS rcr is high (often ~0.99); GSTR rcr is
// generally lower; chains/sparse are "easier" than stars/dense; high
// commonality beats low commonality.
//
// Beyond the paper: every run goes through the staged recommendation
// pipeline (src/vsel/pipeline/), and workloads larger than 200 queries are
// generated with per-group constant pools (--group-size, default 200), so
// the commonality graph decomposes them and the pipeline searches the
// partitions independently under apportioned budgets — the regime that
// takes the figure from 200 to 10k+ queries.
//
// The per-run time budget scales with the workload size (the paper gave a
// flat 3 hours; at seconds scale a flat budget starves the larger
// workloads): budget = base-budget-sec * num_queries.
//
// Flags: --base-budget-sec=0.05 --sizes=5,10,20,50,100,200 --triples=30000
//        --group-size=200 (applied when queries > 200; 0 disables grouping)
//        --threads=1 --csv=<path> --stats-cache=<path-prefix>
//        --shapes=chain,mixed --commonalities=high --strategies=DFS
//        (subset filters)
//
// --triples is the 200-query store size; larger workloads scale it
// proportionally so the per-atom-pattern triple density (the join fan-out
// regime) stays comparable across sizes.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <numeric>

#include "bench_util.h"
#include "common/string_util.h"
#include "common/telemetry/export.h"
#include "rdf/statistics.h"
#include "vsel/pipeline/pipeline.h"
#include "workload/generator.h"

namespace rdfviews {
namespace {

using bench::Flags;
using bench::FormatDouble;

double AverageAtomsPerView(const vsel::State& state) {
  if (state.views().empty()) return 0;
  size_t atoms = 0;
  for (const vsel::View& v : state.views()) atoms += v.def.len();
  return static_cast<double>(atoms) /
         static_cast<double>(state.views().size());
}

/// Parses a comma-separated filter against the named candidates. A token
/// matching no candidate is a hard error — a typo must not silently yield
/// an empty (trivially "passing") run.
template <typename T, typename NameFn>
bool ParseFilter(const std::string& flag_value, const char* flag_name,
                 std::initializer_list<T> candidates, NameFn&& name,
                 std::vector<T>* out) {
  for (const std::string& token : Split(flag_value, ',')) {
    bool matched = false;
    for (T candidate : candidates) {
      if (token == name(candidate)) {
        // Dedup repeated tokens: a cell must run (and land in the CSV)
        // exactly once.
        if (std::find(out->begin(), out->end(), candidate) == out->end()) {
          out->push_back(candidate);
        }
        matched = true;
        break;
      }
    }
    if (!matched) {
      std::printf("unknown --%s token: '%s'\n", flag_name, token.c_str());
      return false;
    }
  }
  if (out->empty()) {
    std::printf("--%s selects nothing\n", flag_name);
    return false;
  }
  return true;
}

}  // namespace
}  // namespace rdfviews

int main(int argc, char** argv) {
  using namespace rdfviews;
  bench::Flags flags(argc, argv);
  const double base_budget = flags.GetDouble("base-budget-sec", 0.05);
  const size_t triples = static_cast<size_t>(flags.GetInt("triples", 30000));
  const size_t group_size =
      static_cast<size_t>(flags.GetInt("group-size", 200));
  const size_t threads = static_cast<size_t>(flags.GetInt("threads", 1));
  const std::string csv_path = flags.GetString("csv", "");
  const std::string cache_prefix = flags.GetString("stats-cache", "");
  std::vector<size_t> sizes;
  for (const std::string& s :
       Split(flags.GetString("sizes", "5,10,20,50,100,200"), ',')) {
    // Same hard-error policy as the shape/commonality/strategy filters: a
    // malformed size must not silently shrink the run (atol("1e4") == 1).
    char* end = nullptr;
    long v = std::strtol(s.c_str(), &end, 10);
    if (s.empty() || end == nullptr || *end != '\0' || v <= 0) {
      std::printf("malformed --sizes token: '%s'\n", s.c_str());
      return 1;
    }
    sizes.push_back(static_cast<size_t>(v));
  }

  std::FILE* csv = nullptr;
  if (!csv_path.empty()) {
    csv = std::fopen(csv_path.c_str(), "w");
    if (csv == nullptr) {
      std::printf("cannot open %s for writing\n", csv_path.c_str());
      return 1;
    }
    std::fprintf(csv,
                 "strategy,commonality,shape,queries,groups,partitions,rcr,"
                 "atoms_per_view,states_per_sec,est_per_state,elapsed_sec,"
                 "completed,ingest_sec,partition_sec,search_sec,merge_sec\n");
  }

  std::vector<workload::QueryShape> shapes;
  std::vector<workload::Commonality> commonalities;
  std::vector<vsel::StrategyKind> strategies;
  if (!ParseFilter(flags.GetString(
                       "shapes",
                       "chain,random-sparse,random-dense,star,mixed"),
                   "shapes",
                   {workload::QueryShape::kChain,
                    workload::QueryShape::kRandomSparse,
                    workload::QueryShape::kRandomDense,
                    workload::QueryShape::kStar, workload::QueryShape::kMixed},
                   workload::QueryShapeName, &shapes) ||
      !ParseFilter(flags.GetString("commonalities", "high,low"),
                   "commonalities",
                   {workload::Commonality::kHigh, workload::Commonality::kLow},
                   workload::CommonalityName, &commonalities) ||
      !ParseFilter(flags.GetString("strategies", "DFS,GSTR"), "strategies",
                   {vsel::StrategyKind::kDfs, vsel::StrategyKind::kGstr},
                   vsel::StrategyName, &strategies)) {
    return 1;
  }

  std::printf(
      "Figure 6 reproduction: rcr of DFS-AVF-STV / GSTR-AVF-STV on large\n"
      "workloads (10 atoms per query, stop_time = %.3gs x num_queries,\n"
      "staged pipeline; workloads > 200 queries grouped at %zu "
      "queries/group).\n\n",
      base_budget, group_size);
  bench::PrintRow({"strategy", "commonality", "shape", "queries", "parts",
                   "rcr", "atoms/view", "states/s", "est/state"});
  bench::PrintRule(9);

  double dfs_atoms_per_view = 0;
  double gstr_atoms_per_view = 0;
  size_t dfs_runs = 0;
  size_t gstr_runs = 0;

  for (vsel::StrategyKind strategy : strategies) {
    for (workload::Commonality commonality : commonalities) {
      for (workload::QueryShape shape : shapes) {
        for (size_t num_queries : sizes) {
          rdf::Dictionary dict;
          workload::WorkloadSpec spec;
          spec.num_queries = num_queries;
          spec.atoms_per_query = 10;
          spec.shape = shape;
          spec.commonality = commonality;
          spec.seed = 7 + num_queries;
          if (group_size > 0 && num_queries > 200) {
            spec.partition_groups =
                (num_queries + group_size - 1) / group_size;
          }
          std::vector<cq::ConjunctiveQuery> queries =
              workload::GenerateWorkload(spec, &dict);
          // Keep the per-atom-pattern triple density AND the resource-pool
          // fan-out of the paper-scale runs: a fixed-size store spread over
          // 10x the patterns leaves every view near-empty, and a pool that
          // grows with the store dilutes join fan-out below 1 — either way
          // the cost landscape flattens and no strategy has anything to
          // find. Scale triples with the workload, pin the pool to the
          // 200-query baseline.
          const size_t run_triples =
              num_queries > 200 ? triples * num_queries / 200 : triples;
          rdf::TripleStore store = workload::GenerateStoreForWorkload(
              queries, &dict, run_triples, spec.seed,
              std::max<size_t>(triples / 200, 24));
          rdf::Statistics stats(&store);

          // Optional persisted pattern-count cache, shared by both
          // strategies of a configuration (and by repeated invocations).
          std::string cache_path;
          bool cache_loaded = false;
          uint64_t store_tag = 0;
          if (!cache_prefix.empty()) {
            store_tag = rdf::SnapshotStoreTag(store);
            cache_path = cache_prefix + "." +
                         workload::QueryShapeName(shape) + "." +
                         workload::CommonalityName(commonality) + "." +
                         std::to_string(num_queries) + ".snap";
            Result<rdf::StatisticsSnapshot> cached =
                rdf::LoadSnapshot(cache_path, store_tag);
            if (cached.ok()) {
              stats.Warm(*cached);
              cache_loaded = true;
            }
          }

          vsel::TuningConfig options;
          options.strategy = strategy;
          options.heuristics.avf = true;
          options.heuristics.stop_var = true;
          options.limits.time_budget_sec =
              base_budget * static_cast<double>(num_queries);
          options.limits.num_threads = threads;
          Result<vsel::Recommendation> rec = vsel::pipeline::Run(
              &store, &dict, nullptr, queries, options, &stats);
          if (!rec.ok()) {
            std::printf("pipeline failed: %s\n",
                        rec.status().ToString().c_str());
            continue;
          }
          if (!cache_path.empty() && !cache_loaded) {
            (void)rdf::SaveSnapshot(stats.Snapshot(), cache_path, store_tag);
          }
          double atoms_per_view = AverageAtomsPerView(rec->best_state);
          if (strategy == vsel::StrategyKind::kDfs) {
            dfs_atoms_per_view += atoms_per_view;
            ++dfs_runs;
          } else {
            gstr_atoms_per_view += atoms_per_view;
            ++gstr_runs;
          }
          // Cost-model estimation traffic: raw cardinality estimator runs
          // per created state (O(distinct views) per run when memoized).
          double est_per_state =
              rec->stats.created > 0
                  ? static_cast<double>(rec->cost_counters.card_raw.load())
                        / static_cast<double>(rec->stats.created)
                  : 0;
          double rcr = rec->stats.RelativeCostReduction();
          bench::PrintRow(
              {vsel::StrategyName(strategy),
               workload::CommonalityName(commonality),
               workload::QueryShapeName(shape), std::to_string(num_queries),
               std::to_string(rec->pipeline.num_partitions), FormatDouble(rcr, 3),
               FormatDouble(atoms_per_view, 2),
               FormatDouble(rec->stats.StatesPerSecond(), 0),
               FormatDouble(est_per_state, 2)});
          if (csv != nullptr) {
            // Per-stage wall times come from the run's span tree (summed
            // per stage name); all zero if tracing were disabled.
            std::map<std::string, double> stage_sec;
            if (rec->pipeline.telemetry != nullptr) {
              stage_sec = rec->pipeline.telemetry->SpanSecondsByName();
            }
            std::fprintf(
                csv,
                "%s,%s,%s,%zu,%zu,%zu,%.6f,%.3f,%.1f,%.3f,%.3f,%d,"
                "%.6f,%.6f,%.6f,%.6f\n",
                vsel::StrategyName(strategy),
                workload::CommonalityName(commonality),
                workload::QueryShapeName(shape), num_queries,
                spec.partition_groups, rec->pipeline.num_partitions, rcr,
                atoms_per_view, rec->stats.StatesPerSecond(), est_per_state,
                rec->stats.elapsed_sec, rec->stats.completed ? 1 : 0,
                stage_sec["pipeline.ingest"], stage_sec["pipeline.partition"],
                stage_sec["pipeline.search"], stage_sec["pipeline.merge"]);
            std::fflush(csv);
          }
        }
      }
    }
  }
  if (dfs_runs > 0 && gstr_runs > 0) {
    std::printf(
        "\nAverage atoms/view: DFS-AVF-STV %.2f (paper: 3.2), "
        "GSTR-AVF-STV %.2f (paper: 6.5)\n",
        dfs_atoms_per_view / static_cast<double>(dfs_runs),
        gstr_atoms_per_view / static_cast<double>(gstr_runs));
  }
  if (csv != nullptr) std::fclose(csv);
  return 0;
}
