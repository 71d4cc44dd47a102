// Pipeline stage 4: merging per-partition best states into one
// Recommendation.
//
// Each partition searched its own id universe (view ids and variables both
// start at 0 per initial state), so the merge re-bases: views get fresh
// sequential ids, variables get a per-partition offset, and every rewriting
// is rewritten through engine::Expr::Remap into the merged spaces before it
// is placed back at its workload position. Views that are identical up to
// variable renaming across partitions (equal canonical keys — possible only
// when the caller forced a plan, never under the sound commonality split)
// are materialized once: later partitions' scans are redirected to the
// first copy, which is positionally compatible because canonical keys cover
// the head order. With a single partition everything is shared, not copied
// — the monolithic path stays byte-identical to the pre-pipeline selector.
#include <algorithm>
#include <bit>
#include <cstdint>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "common/logging.h"
#include "reform/reformulate.h"
#include "vsel/pipeline/pipeline.h"

namespace rdfviews::vsel::pipeline {

namespace {

/// Merges the per-partition improvement traces into one workload-level
/// trace: at every partition improvement instant, the merged best is the
/// sum of each partition's best-so-far. `start_offsets[p]` translates
/// partition p's search-relative timestamps onto the shared wall-clock
/// axis: the cumulative predecessor time for back-to-back execution, 0 for
/// the concurrent pool. The pooled offsets are exact only while the pool
/// covers every partition; with fewer workers than partitions the later
/// partitions' true starts depend on the scheduling order, which the merge
/// stage can not reconstruct, so their events are placed at their
/// search-relative lower bounds.
std::vector<std::pair<double, double>> MergeTraces(
    const std::vector<PartitionOutcome>& results,
    const std::vector<double>& start_offsets) {
  struct Event {
    double t;
    size_t p;
    double cost;
  };
  std::vector<Event> events;
  std::vector<double> current(results.size());
  for (size_t p = 0; p < results.size(); ++p) {
    if (!results[p].ok()) continue;  // failed: no S0, no events
    current[p] = results[p].result.initial_cost;
    for (const auto& [t, cost] :
         results[p].result.search.stats.best_trace) {
      events.push_back(Event{start_offsets[p] + t, p, cost});
    }
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const Event& a, const Event& b) { return a.t < b.t; });
  std::vector<std::pair<double, double>> trace;
  trace.reserve(events.size());
  for (const Event& ev : events) {
    current[ev.p] = ev.cost;
    double total = 0;
    for (double c : current) total += c;
    trace.emplace_back(ev.t, total);
  }
  return trace;
}

/// A partition best's memoized REC term for one workload query, to be
/// carried into the merged state's slot for that query's rewriting.
struct RecSeed {
  bool valid = false;
  double term = 0;
};

/// Re-bases every surviving partition's best state into one merged state
/// (failed outcomes are skipped — their queries keep null rewritings).
/// Fills `rewritings_by_query` (indexed by workload position) and returns
/// the number of cross-partition duplicate views folded away.
///
/// Cost terms: a best state costed under the merging model (its
/// cost_cache().model_key equals `model_key`) already holds each view's
/// (bytes, VMC) terms and each rewriting's REC term, and the merged state's
/// own estimates would equal them bit for bit. A view's terms come from the
/// interner, keyed by the view's renaming-invariant cost hash, which
/// re-basing keeps. A REC estimate walks the rewriting with per-node
/// unordered_maps keyed by variable: re-basing renumbers the scanned views
/// (looked up by id, never hashed) and shifts every variable by one offset,
/// which changes neither the insertion order nor which keys share a bucket,
/// so every sum runs in the same order. So the valid view terms are copied
/// into the merged slots here, and the valid REC terms into
/// `rec_seeds_by_query` for the caller to place once the rewritings are
/// set; CostModel::Breakdown then estimates only what is missing. A
/// partition that folded a view away into another partition's copy seeds
/// no REC term: its rewritings now scan a different view.
size_t MergeStates(const PartitionPlan& plan,
                   const std::vector<PartitionOutcome>& results,
                   uint64_t model_key, State* merged,
                   std::vector<engine::ExprPtr>* rewritings_by_query,
                   std::vector<RecSeed>* rec_seeds_by_query) {
  size_t folded = 0;
  uint32_t next_id = 0;
  cq::VarId var_base = 0;
  // Canonical key -> (owning partition, merged view id). Views identical up
  // to renaming within one partition are deliberately NOT folded: the
  // monolithic search keeps them too, and stage 4 must not out-optimize it.
  // The keys view the partition best states' memoized strings, which
  // outlive this call.
  std::unordered_map<std::string_view, std::pair<size_t, uint32_t>> canon;
  for (size_t p = 0; p < results.size(); ++p) {
    if (!results[p].ok()) continue;
    const State& best = results[p].result.search.best;
    const bool same_model = best.cost_cache().model_key == model_key;
    const cq::VarId var_offset = var_base;
    const size_t folded_before = folded;
    std::unordered_map<uint32_t, uint32_t> id_map;
    for (size_t k = 0; k < best.views().size(); ++k) {
      const View& v = best.views()[k];
      const std::string_view key = v.CanonicalKey();
      auto it = canon.find(key);
      if (it != canon.end() && it->second.first != p) {
        id_map[v.id] = it->second.second;
        ++folded;
        continue;
      }
      const uint32_t id = next_id++;
      id_map[v.id] = id;
      canon.try_emplace(key, p, id);
      merged->AddView(MakeView(v.Rebased(id, var_offset)));
      if (same_model && best.ViewTermValid(k)) {
        merged->SetViewTerm(merged->views().size() - 1, best.ViewBytesTerm(k),
                            best.ViewVmcTerm(k));
      }
    }
    auto map_view = [&id_map](uint32_t id) {
      auto mi = id_map.find(id);
      RDFVIEWS_CHECK_MSG(mi != id_map.end(),
                         "rewriting scans unknown view v" << id);
      return mi->second;
    };
    auto map_var = [var_offset](cq::VarId v) { return v + var_offset; };
    const std::vector<size_t>& group = plan.groups[p];
    const RewritingList rewritings = best.rewritings();
    RDFVIEWS_CHECK(rewritings.size() == group.size());
    const State::CostCache::RecEntry* rec_entries = best.rec_entries();
    const bool seed_rec = same_model && folded == folded_before;
    for (size_t i = 0; i < group.size(); ++i) {
      (*rewritings_by_query)[group[i]] =
          engine::Expr::Remap(rewritings[i], map_view, map_var);
      if (seed_rec && rec_entries[i].key == rewritings[i].get()) {
        (*rec_seeds_by_query)[group[i]] = {true, rec_entries[i].term};
      }
    }
    var_base += best.next_var();
  }
  merged->set_next_view_id(next_id);
  merged->set_next_var(var_base);
  return folded;
}

/// Bitwise equality of two breakdowns (a seeded merge must reproduce the
/// unseeded sums exactly, not approximately).
bool SameBits(const CostBreakdown& a, const CostBreakdown& b) {
  auto same = [](double x, double y) {
    return std::bit_cast<uint64_t>(x) == std::bit_cast<uint64_t>(y);
  };
  return same(a.vso, b.vso) && same(a.rec, b.rec) && same(a.vmc, b.vmc) &&
         same(a.total, b.total);
}

}  // namespace

Result<Recommendation> MergePartitions(
    const IngestResult& ingest, const PartitionPlan& plan,
    std::vector<PartitionOutcome> results, CostModel* cost_model,
    const TuningConfig& options, const PipelineReport* report) {
  RDFVIEWS_CHECK(plan.groups.size() == results.size() && !results.empty());

  size_t survivors = 0;
  for (const PartitionOutcome& o : results) {
    if (o.ok()) ++survivors;
  }
  if (survivors == 0) {
    // Nothing to recommend over: surface the first failure as the update's
    // error (this also keeps the monolithic single-partition path's
    // historical error behavior — e.g. a failing [21] competitor search).
    for (const PartitionOutcome& o : results) {
      if (!o.ok()) return o.error;
    }
  }

  Recommendation rec;
  rec.entailment = options.entailment;
  rec.materialization_store = ingest.materialization_store;
  if (report != nullptr) rec.pipeline = *report;
  rec.pipeline.num_partitions = plan.groups.size();
  rec.pipeline.partition_fallback_reason = plan.fallback_reason;
  const bool degraded = survivors < results.size();

  if (results.size() == 1) {
    // Monolithic fast path: the best state is the recommendation, ids and
    // rewritings untouched.
    rec.best_state = std::move(results[0].result.search.best);
    rec.stats = std::move(results[0].result.search.stats);
  } else {
    State merged;
    std::vector<engine::ExprPtr> rewritings(ingest.queries.size());
    std::vector<RecSeed> rec_seeds(ingest.queries.size());
    rec.pipeline.merged_duplicate_views =
        MergeStates(plan, results, cost_model->cache_key(), &merged,
                    &rewritings, &rec_seeds);
    if (degraded) {
      // The merged state holds only the surviving rewritings, compacted in
      // ascending workload order: its StateCost is then exactly what a
      // from-scratch tune over the surviving sub-workload would report
      // (null slots would poison the REC sum). The workload-aligned
      // vector — nulls marking the failed partitions' queries — becomes
      // Recommendation::rewritings below.
      std::vector<engine::ExprPtr> compacted;
      std::vector<RecSeed> compacted_seeds;
      compacted.reserve(ingest.queries.size());
      compacted_seeds.reserve(ingest.queries.size());
      for (size_t i = 0; i < rewritings.size(); ++i) {
        if (rewritings[i] == nullptr) continue;
        compacted.push_back(rewritings[i]);
        compacted_seeds.push_back(rec_seeds[i]);
      }
      merged.SetRewritings(std::move(compacted));
      rec_seeds = std::move(compacted_seeds);
      rec.rewritings = std::move(rewritings);
    } else {
      merged.SetRewritings(std::move(rewritings));
    }
    // Place the carried REC terms (see MergeStates) and mark the merged
    // state's slots as this model's, so Breakdown reuses the seeded ones
    // and estimates the rest.
    State::CostCache::RecEntry* rec_entries = merged.rec_entries();
    const RewritingList merged_rewritings = merged.rewritings();
    for (size_t i = 0; i < rec_seeds.size(); ++i) {
      if (rec_seeds[i].valid) {
        rec_entries[i] = {merged_rewritings[i].get(), rec_seeds[i].term};
      }
    }
    merged.cost_cache().model_key = cost_model->cache_key();

    // Did stage 3 run the partitions concurrently? Without a report, every
    // partition was searched.
    const size_t searched =
        report != nullptr ? report->partitions_searched : results.size();
    const bool fanned_out = FanOutPartitions(options, searched);
    SearchStats stats;
    std::vector<double> start_offsets(results.size(), 0.0);
    if (!fanned_out) {
      // Back-to-back execution: partition p starts when p-1 finishes.
      double cumulative = 0;
      for (size_t p = 0; p < results.size(); ++p) {
        start_offsets[p] = cumulative;
        if (results[p].ok()) {
          cumulative += results[p].result.search.stats.elapsed_sec;
        }
      }
    }
    stats.best_trace = MergeTraces(results, start_offsets);
    double elapsed_max = 0;
    double elapsed_sum = 0;
    bool completed = true;
    for (const PartitionOutcome& o : results) {
      if (!o.ok()) continue;
      const SearchStats& s = o.result.search.stats;
      stats.created += s.created;
      stats.duplicates += s.duplicates;
      stats.discarded += s.discarded;
      stats.explored += s.explored;
      stats.transitions_applied += s.transitions_applied;
      stats.initial_cost += s.initial_cost;
      stats.memory_exhausted = stats.memory_exhausted || s.memory_exhausted;
      stats.time_exhausted = stats.time_exhausted || s.time_exhausted;
      stats.cancelled = stats.cancelled || s.cancelled;
      completed = completed && s.completed;
      elapsed_max = std::max(elapsed_max, s.elapsed_sec);
      elapsed_sum += s.elapsed_sec;
    }
    // A degraded run never reports a completed (exhaustive) tune: some
    // sub-workload was not searched at all.
    stats.completed = completed && !degraded;
    // Wall-clock of stage 3: sum of the slices when the partitions ran
    // back to back; under the pool, the critical-path estimate for the
    // actual worker count (a pool smaller than the partition count runs
    // ~pool_size slices concurrently, not all of them).
    if (fanned_out) {
      const size_t pool_size = std::min(options.limits.num_threads, searched);
      stats.elapsed_sec = std::max(
          elapsed_max, elapsed_sum / static_cast<double>(pool_size));
    } else {
      stats.elapsed_sec = elapsed_sum;
    }
    // Ground truth for the merged state (identical to the sum of partition
    // bests unless the fold removed duplicates): the shared cost model sums
    // the seeded per-view / per-rewriting terms in slot order, estimating
    // only the unseeded ones. Debug builds check the sum bit for bit
    // against the merged state costed with nothing seeded.
    const CostBreakdown merged_cost = cost_model->Breakdown(merged);
    RDFVIEWS_DCHECK(SameBits(merged_cost,
                             cost_model->UnseededBreakdown(merged)));
    stats.best_cost = merged_cost.total;
    rec.best_state = std::move(merged);
    rec.stats = std::move(stats);
  }

  rec.cost_counters = cost_model->counters();
  rec.cost_cache_counters = cost_model->interner().counters();
  rec.distinct_views_interned = cost_model->interner().NumDistinctViews();

  // Final view definitions (post-reformulation happens here, Sec. 4.3).
  for (const View& v : rec.best_state.views()) {
    cq::UnionOfQueries def(v.Name());
    if (options.entailment == EntailmentMode::kPostReformulate) {
      reform::ReformulationResult r =
          reform::Reformulate(v.def, *ingest.schema);
      if (!r.complete) {
        return Status::ResourceExhausted(
            "post-reformulation of view " + v.Name() +
            " exceeded the query budget");
      }
      def = std::move(r.ucq);
    } else {
      def.Add(v.def);
    }
    rec.view_definitions.push_back(std::move(def));
    rec.view_columns.push_back(v.Columns());
    rec.view_ids.push_back(v.id);
  }
  if (rec.rewritings.empty()) {
    // Healthy runs: workload-aligned by construction. Degraded runs filled
    // rec.rewritings above (nulls marking the failed partitions' queries);
    // the best state keeps only the compacted surviving ones.
    const RewritingList rl = rec.best_state.rewritings();
    rec.rewritings.assign(rl.begin(), rl.end());
  }
  return rec;
}

}  // namespace rdfviews::vsel::pipeline
