// deep_search: satisfiable 5-atom queries with high commonality over the
// Barton store and its RDFS schema, each workload tuned by one
// reformulation-aware DFS (one partition, one thread, a fixed state cap);
// the engine then answers every query from the recommended views.
//
// One seed yields a few independent workloads over one store, tuned in
// turn: a single 8-query workload is too small a sample for its figures
// to mean much from one seed to the next.
#include <cstdio>

#include "probes.h"
#include "rdf/saturation.h"
#include "vsel/session/session.h"
#include "workload/barton.h"
#include "workload/generator.h"
#include "workloads.h"

namespace perfbench {

using namespace rdfviews;

namespace {

struct Scale {
  size_t triples = 30000;
  size_t workloads = 4;
  /// Tuned workload size; the update stream slides a window of this many
  /// queries over a pool of `queries + reserve`.
  size_t queries = 8;
  size_t reserve = 4;
  size_t atoms = 5;
  size_t max_states = 1000;
  int min_update_rounds = 5;
};

struct Workload {
  std::vector<std::string> texts;  // the pool; the first `queries` are tuned
  std::vector<std::string> names;
};

struct Env {
  rdf::Dictionary dict;
  workload::BartonSchema barton;
  std::shared_ptr<rdf::TripleStore> store;
  rdf::TripleStore saturated;
  std::vector<Workload> workloads;
};

std::unique_ptr<Env> MakeEnv(const Scale& scale, uint64_t seed,
                             Report* report) {
  auto env = std::make_unique<Env>();
  env->barton = workload::BuildBartonSchema(&env->dict);
  workload::BartonDataOptions data;
  data.num_triples = scale.triples;
  data.seed = seed;
  env->store = std::make_shared<rdf::TripleStore>(
      workload::GenerateBartonData(env->barton, &env->dict, data));
  env->saturated =
      rdf::Saturate(*env->store, env->barton.schema, {}, &env->dict);
  for (size_t k = 0; k < scale.workloads; ++k) {
    workload::WorkloadSpec spec;
    spec.num_queries = scale.queries + scale.reserve;
    spec.atoms_per_query = scale.atoms;
    spec.shape = workload::QueryShape::kMixed;
    spec.commonality = workload::Commonality::kHigh;
    spec.seed = seed * 1000 + k;
    std::vector<cq::ConjunctiveQuery> queries =
        workload::GenerateSatisfiableWorkload(spec, *env->store, &env->dict);
    Workload w;
    w.texts = RenderQueries(queries, &env->dict, report);
    for (const cq::ConjunctiveQuery& q : queries) w.names.push_back(q.name());
    env->workloads.push_back(std::move(w));
  }
  return env;
}

vsel::TuningConfig DeepConfig(const Scale& scale) {
  vsel::TuningConfig cfg;
  cfg.strategy = vsel::StrategyKind::kDfs;
  cfg.heuristics.avf = true;
  cfg.heuristics.stop_var = true;
  cfg.entailment = vsel::EntailmentMode::kPostReformulate;
  cfg.limits.num_threads = 1;
  cfg.limits.max_states = scale.max_states;
  cfg.limits.time_budget_sec = 0;
  cfg.auto_calibrate_cm = false;
  cfg.telemetry.trace = false;
  return cfg;
}

}  // namespace

void RunDeepSearch(const Args& args, Report* report) {
  Scale scale;
  if (args.tiny) {
    scale.triples = 3000;
    scale.workloads = 2;
    scale.queries = 4;
    scale.reserve = 2;
    scale.atoms = 4;
    scale.max_states = 300;
    scale.min_update_rounds = 2;
  }
  Layers layers;
  SpanLog spans;
  SpanLog* trace = args.trace ? &spans : nullptr;
  const double s = args.seconds;
  const double n = static_cast<double>(scale.workloads);
  EndToEnd e(scale.workloads);

  std::unique_ptr<Env> env = SetUp<Env>(
      3, &e.setup_s, [&] { return MakeEnv(scale, args.seed, report); });
  const vsel::TuningConfig cfg = DeepConfig(scale);
  std::vector<std::vector<std::string>> tuned_texts;
  for (const Workload& w : env->workloads) {
    tuned_texts.emplace_back(
        w.texts.begin(), w.texts.begin() + static_cast<long>(scale.queries));
  }
  std::vector<TuneInputs> inputs;
  for (const std::vector<std::string>& texts : tuned_texts) {
    inputs.push_back(TuneInputs{env->store.get(), &env->dict,
                                &env->barton.schema, &texts, cfg});
  }
  std::vector<Tuned> tuned =
      TuneInProcess(inputs, 0.3 * s, 2, trace, &e, &layers, report);
  if (tuned.empty()) return;
  for (size_t k = 0; k < tuned.size(); ++k) {
    FixedOutputs(tuned[k].rec, tuned[k].rec.pipeline.num_partitions,
                 "w" + std::to_string(k) + ".", report);
  }

  // The update streams slide each workload's window: remove the oldest
  // query, add the next one from the pool, so every update re-searches a
  // full-size workload (capped searches are never cached). One round
  // updates every workload once.
  vsel::TuningConfig session_cfg = cfg;
  session_cfg.telemetry.trace = args.trace;
  std::vector<std::unique_ptr<vsel::TuningSession>> sessions;
  for (size_t k = 0; k < scale.workloads; ++k) {
    sessions.push_back(std::make_unique<vsel::TuningSession>(
        env->store.get(), &env->dict, session_cfg, &env->barton.schema));
    Result<vsel::Recommendation> rec = sessions[k]->Update(
        ParseQueries(tuned_texts[k], &env->dict, nullptr, report));
    report->Op(rec.ok());
    report->Check(rec.ok(), "initial session update failed");
  }
  SessionFigures session_figures;
  StageSplit update_split;
  bool failed = false;
  for (Samples& samples : e.per) samples.update_passes_ms.emplace_back();
  const Clock::time_point start = Clock::now();
  for (size_t round = 0;
       !failed && (static_cast<int>(round) < scale.min_update_rounds ||
                   SecondsSince(start) < 0.3 * s);
       ++round) {
    for (size_t k = 0; k < scale.workloads && !failed; ++k) {
      const Workload& w = env->workloads[k];
      const size_t out = round % w.texts.size();
      const size_t in = (round + scale.queries) % w.texts.size();
      const Clock::time_point t0 = Clock::now();
      Result<vsel::Recommendation> rec = [&] {
        Span span(trace, "session.update");
        return sessions[k]->Update(
            ParseQueries({w.texts[in]}, &env->dict, trace, report),
            {w.names[out]});
      }();
      const double dt = SecondsSince(t0);
      report->Op(rec.ok());
      if (!rec.ok()) {
        report->Check(false, "update failed: " + rec.status().ToString());
        failed = true;
        break;
      }
      e.per[k].update_passes_ms.back().push_back(dt * 1e3);
      session_figures.Add(rec->pipeline);
      if (args.trace) update_split.Add(rec->pipeline);
    }
  }
  uint64_t hits = 0, misses = 0;
  for (const auto& session : sessions) {
    hits += session->cache_backend().counters().hits;
    misses += session->cache_backend().counters().misses;
  }
  session_figures.Fill(hits, misses, &layers);

  for (size_t k = 0; k < tuned.size(); ++k) {
    ServeRecommendation(tuned[k].rec, tuned[k].queries, env->saturated,
                        0.02 * s / n, 0.05 * s / n, &e.per[k], report);
  }
  if (!args.trace) {
    EmitEndToEnd(e, report);
    return;
  }
  ReplayWalk(tuned[0].queries, tuned[0].stats.get(), cfg, args.seed,
             args.tiny ? 200 : 40000, &layers);
  std::vector<cq::ConjunctiveQuery> all_queries;
  for (const Tuned& t : tuned) {
    all_queries.insert(all_queries.end(), t.queries.begin(), t.queries.end());
  }
  layers.Set("cq.minimize_us", MinimizeMicros(all_queries, 10), "us");
  UpdateStageLayers(update_split, &layers);
  SerializeProbe(tuned[0].rec,
                 vsel::serialize::ComputeCacheIdentity(*env->store, cfg),
                 env->store, trace, &layers, report);
  FinishTrace(spans, args, e, &layers, report);
  layers.EmitTo(report);
}

}  // namespace perfbench
