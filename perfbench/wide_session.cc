// wide_session: 500 3-atom queries in two-query families, one partition
// each. A cold tune is hundreds of small partition searches; an update
// searches the few dirty partitions, serves the rest from the session cache
// and merges them all, so merge and search share most of its time.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <optional>

#include "probes.h"
#include "vsel/session/session.h"
#include "workload/generator.h"
#include "workloads.h"

namespace perfbench {

using namespace rdfviews;

std::vector<std::string> FamilyWorkload::Texts(
    const std::vector<size_t>& indices) const {
  std::vector<std::string> out;
  for (size_t i : indices) out.push_back(texts[i]);
  return out;
}

std::vector<std::string> FamilyWorkload::Names(
    const std::vector<size_t>& indices) const {
  std::vector<std::string> out;
  for (size_t i : indices) out.push_back(names[i]);
  return out;
}

std::unique_ptr<FamilyWorkload> MakeFamilyWorkload(const FamilyScale& scale,
                                                   uint64_t seed,
                                                   Report* report) {
  auto w = std::make_unique<FamilyWorkload>();
  const size_t size = scale.family_size;
  auto members = [size](size_t family, std::vector<size_t>* out) {
    for (size_t j = 0; j < size; ++j) out->push_back(family * size + j);
  };

  // The script first, in families: it decides how many to generate.
  std::deque<size_t> live;
  for (size_t f = 0; f < scale.initial_families; ++f) {
    live.push_back(f);
    members(f, &w->initial);
  }
  std::vector<size_t> removed;
  size_t next_family = scale.initial_families;
  for (size_t k = 0; k < scale.updates; ++k) {
    FamilyWorkload::Step step;
    std::vector<size_t> dropped;
    for (int j = 0; j < 2 && !live.empty(); ++j) {
      dropped.push_back(live.front());
      live.pop_front();
      members(dropped.back(), &step.remove);
    }
    std::vector<size_t> added;
    if (k % 4 == 3 && removed.size() >= 4) {
      // Re-add the family dropped two steps ago: still in the session's
      // LRU, so its partition is served from cache.
      added.push_back(removed[removed.size() - 4]);
      removed.erase(removed.end() - 4);
    } else {
      added.push_back(next_family++);
    }
    added.push_back(next_family++);
    for (size_t f : added) {
      members(f, &step.add);
      live.push_back(f);
    }
    removed.insert(removed.end(), dropped.begin(), dropped.end());
    w->steps.push_back(std::move(step));
  }

  workload::WorkloadSpec spec;
  spec.num_queries = next_family * size;
  spec.atoms_per_query = scale.atoms;
  spec.shape = workload::QueryShape::kMixed;
  spec.commonality = workload::Commonality::kHigh;
  spec.partition_groups = next_family;
  spec.seed = seed;
  std::vector<cq::ConjunctiveQuery> queries =
      workload::GenerateWorkload(spec, &w->dict);
  // A shared resource pool small enough that family joins have answers to
  // serve from the views.
  const size_t n = queries.size();
  w->store = std::make_shared<rdf::TripleStore>(
      workload::GenerateStoreForWorkload(queries, &w->dict, n * 40, seed,
                                         /*resource_pool=*/1000));
  w->texts = RenderQueries(queries, &w->dict, report);
  for (const cq::ConjunctiveQuery& q : queries) w->names.push_back(q.name());
  return w;
}

vsel::TuningConfig FamilyConfig() {
  vsel::TuningConfig cfg;
  cfg.strategy = vsel::StrategyKind::kGstr;
  cfg.entailment = vsel::EntailmentMode::kNone;
  cfg.limits.num_threads = 1;
  cfg.limits.max_states = 0;  // unlimited: every partition completes
  cfg.limits.time_budget_sec = 0;
  cfg.auto_calibrate_cm = false;
  cfg.telemetry.trace = false;
  return cfg;
}

void RunWideSession(const Args& args, Report* report) {
  FamilyScale scale;
  if (args.tiny) {
    scale.initial_families = 12;
    scale.updates = 6;
  }
  EndToEnd e(1);
  Layers layers;
  SpanLog spans;
  SpanLog* trace = args.trace ? &spans : nullptr;
  const double s = args.seconds;

  std::unique_ptr<FamilyWorkload> w = SetUp<FamilyWorkload>(
      kFamilySetUps, &e.setup_s,
      [&] { return MakeFamilyWorkload(scale, args.seed, report); });
  const vsel::TuningConfig cfg = FamilyConfig();
  const std::vector<std::string> initial = w->Texts(w->initial);

  // The update stream: one caller, each update waits for the previous. It
  // is replayed in passes, each on a fresh session, one pass after each
  // round of cold tunes, so tunes and updates sample the same stretch of
  // the run. The first pass warms up and is not timed (its updates run much
  // slower than later passes'). The traced run has the sessions trace
  // themselves, for the per-stage split.
  vsel::TuningConfig session_cfg = cfg;
  session_cfg.telemetry.trace = args.trace;
  SessionFigures session_figures;
  StageSplit update_split;
  uint64_t cache_hits = 0, cache_misses = 0;
  std::optional<double> final_cost;
  auto update_pass = [&] {
    const bool timed = final_cost.has_value();
    if (timed) e.per[0].update_passes_ms.emplace_back();
    vsel::TuningSession session(w->store.get(), &w->dict, session_cfg);
    Result<vsel::Recommendation> rec =
        session.Update(ParseQueries(initial, &w->dict, nullptr, report));
    report->Op(rec.ok());
    report->Check(rec.ok(), "initial session update failed");
    for (const FamilyWorkload::Step& step : w->steps) {
      const Clock::time_point t0 = Clock::now();
      {
        Span span(trace, "session.update");
        rec = session.Update(
            ParseQueries(w->Texts(step.add), &w->dict, trace, report),
            w->Names(step.remove));
      }
      const double dt = SecondsSince(t0);
      report->Op(rec.ok());
      if (!rec.ok()) {
        report->Check(false, "update failed: " + rec.status().ToString());
        return;
      }
      if (!timed) continue;
      e.per[0].update_passes_ms.back().push_back(dt * 1e3);
      session_figures.Add(rec->pipeline);
      if (args.trace) {
        report->Check(update_split.Add(rec->pipeline),
                      "a traced update carries no span tree");
      }
    }
    cache_hits += session.cache_backend().counters().hits;
    cache_misses += session.cache_backend().counters().misses;
    if (final_cost.has_value()) {
      report->Check(rec->stats.best_cost == *final_cost,
                    "update stream passes end at different costs");
      return;
    }
    // The incremental result must equal a from-scratch tune of the final
    // workload.
    final_cost = rec->stats.best_cost;
    Result<vsel::Recommendation> scratch =
        vsel::ViewSelector(w->store.get(), &w->dict)
            .Recommend(session.workload(), cfg);
    const bool same =
        scratch.ok() && std::abs(scratch->stats.best_cost - *final_cost) <=
                            1e-6 * (1.0 + std::abs(scratch->stats.best_cost));
    report->Check(same, "final incremental cost differs from a from-scratch "
                        "Recommend on the final workload");
    report->Fixed("final_update_cost", *final_cost);
  };

  std::vector<Tuned> tunes = TuneInProcess(
      {TuneInputs{w->store.get(), &w->dict, nullptr, &initial, cfg}},
      kRoundsShare * s, 3, trace, &e, &layers, report, update_pass);
  if (tunes.empty()) return;
  const Tuned& tuned = tunes[0];
  report->Check(tuned.rec.stats.completed,
                "a partition search did not run to completion");
  FixedOutputs(tuned.rec, tuned.rec.pipeline.num_partitions, "", report);
  session_figures.Fill(cache_hits, cache_misses, &layers);

  ServeRecommendation(tuned.rec, tuned.queries, *w->store, 0.02 * s,
                      0.05 * s, &e.per[0], report);
  if (!args.trace) {
    EmitEndToEnd(e, report);
    return;
  }
  const size_t walk_queries = std::min<size_t>(16, tuned.queries.size());
  ReplayWalk(std::vector<cq::ConjunctiveQuery>(
                 tuned.queries.begin(),
                 tuned.queries.begin() + static_cast<long>(walk_queries)),
             tuned.stats.get(), cfg, args.seed, args.tiny ? 200 : 20000,
             &layers);
  layers.Set("cq.minimize_us", MinimizeMicros(tuned.queries, 1), "us");
  UpdateStageLayers(update_split, &layers);
  SerializeProbe(tuned.rec,
                 vsel::serialize::ComputeCacheIdentity(*w->store, cfg),
                 w->store, trace, &layers, report);
  FinishTrace(spans, args, e, &layers, report);
  layers.EmitTo(report);
}

}  // namespace perfbench
