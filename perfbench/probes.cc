#include "probes.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <optional>
#include <utility>

#include "common/random.h"
#include "common/telemetry/export.h"
#include "common/telemetry/metrics.h"
#include "common/telemetry/trace.h"
#include "cq/containment.h"
#include "cq/parser.h"
#include "engine/evaluator.h"
#include "vsel/cost_model.h"
#include "vsel/pipeline/pipeline.h"
#include "vsel/state.h"
#include "vsel/transitions.h"

namespace perfbench {

using namespace rdfviews;

namespace {

double NsSince(Clock::time_point start) { return SecondsSince(start) * 1e9; }

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

double Average(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) sum += x;
  return Ratio(sum, static_cast<double>(v.size()));
}

/// Each update's best latency over the passes that replayed it. The passes
/// repeat one script on fresh sessions, so update k does the same work in
/// every pass, and its best time is the one least disturbed by other load
/// on the machine. A single pass gives its own samples.
std::vector<double> BestPerUpdate(const Samples& s) {
  std::vector<double> best;
  for (const std::vector<double>& pass : s.update_passes_ms) {
    if (best.empty()) best = pass;
    for (size_t k = 0; k < std::min(best.size(), pass.size()); ++k) {
      best[k] = std::min(best[k], pass[k]);
    }
  }
  return best;
}

}  // namespace

void EmitEndToEnd(const EndToEnd& e, Report* report) {
  report->Metric("setup_s", e.setup_s, "s");
  report->Metric("tune_s", e.Mean([](const Samples& s) {
    return s.tune_s.empty() ? 0
                            : *std::min_element(s.tune_s.begin(),
                                                s.tune_s.end());
  }), "s");
  report->Metric("update_p50_ms", e.Mean([](const Samples& s) {
    return Percentile(BestPerUpdate(s), 50);
  }), "ms");
  report->Metric("update_p90_ms", e.Mean([](const Samples& s) {
    return Percentile(BestPerUpdate(s), 90);
  }), "ms");
  report->Metric("cost_ratio",
                 e.Mean([](const Samples& s) { return s.cost_ratio; }),
                 "ratio");
  report->Metric("peak_rss_mb", PeakRssMb(), "MiB");
  for (size_t i = 0; i < e.per.size(); ++i) {
    const Samples& s = e.per[i];
    size_t updates = 0;
    for (const std::vector<double>& pass : s.update_passes_ms) {
      updates += pass.size();
    }
    std::fprintf(stderr,
                 "workload %zu samples: %zu tunes, %zu updates in %zu passes, "
                 "%zu materializations, %zu answers\n",
                 i, s.tune_s.size(), updates, s.update_passes_ms.size(),
                 s.materialize_s.size(), s.answer_us.size());
  }
}

std::vector<std::string> RenderQueries(
    const std::vector<cq::ConjunctiveQuery>& queries, rdf::Dictionary* dict,
    Report* report) {
  std::vector<std::string> texts;
  texts.reserve(queries.size());
  for (const cq::ConjunctiveQuery& q : queries) {
    std::string text = q.ToString(dict);
    Result<cq::ConjunctiveQuery> back = cq::ParseDatalog(text, dict);
    report->Check(back.ok() && back->ToString(dict) == text,
                  "generated query does not round-trip: " + text);
    texts.push_back(std::move(text));
  }
  return texts;
}

std::vector<cq::ConjunctiveQuery> ParseQueries(
    const std::vector<std::string>& texts, rdf::Dictionary* dict,
    SpanLog* spans, Report* report, std::vector<double>* parse_us) {
  std::vector<cq::ConjunctiveQuery> out;
  out.reserve(texts.size());
  for (const std::string& text : texts) {
    const Clock::time_point t0 = Clock::now();
    Result<cq::ConjunctiveQuery> q = [&] {
      Span span(spans, "cq.parse");
      return cq::ParseDatalog(text, dict);
    }();
    if (parse_us != nullptr) parse_us->push_back(SecondsSince(t0) * 1e6);
    report->Check(q.ok(), "parse failed: " + text);
    if (q.ok()) out.push_back(std::move(*q));
  }
  return out;
}

Result<vsel::Recommendation> StagedTune(
    const rdf::TripleStore* store, const rdf::Dictionary* dict,
    const rdf::Schema* schema, const std::vector<cq::ConjunctiveQuery>& queries,
    const vsel::TuningConfig& cfg, SpanLog* spans, StagedFigures* figures) {
  namespace pl = vsel::pipeline;
  std::unique_ptr<telemetry::Tracer> tracer;
  std::unique_ptr<telemetry::ScopedTraceContext> scope;
  if (cfg.telemetry.trace) {
    tracer = std::make_unique<telemetry::Tracer>();
    scope = std::make_unique<telemetry::ScopedTraceContext>(
        telemetry::TraceContext{tracer.get(), 0});
  }
  pl::SessionCaches caches;
  Clock::time_point t0 = Clock::now();
  Result<pl::IngestResult> ingest = [&] {
    Span span(spans, "pipeline.ingest");
    return pl::Ingest(store, dict, schema, queries, cfg,
                      /*external_stats=*/nullptr, &caches);
  }();
  figures->ingest_s = SecondsSince(t0);
  if (!ingest.ok()) return ingest.status();

  t0 = Clock::now();
  pl::PartitionPlan plan = [&] {
    Span span(spans, "pipeline.partition");
    return pl::PartitionWorkload(*ingest, cfg);
  }();
  figures->partition_s = SecondsSince(t0);
  figures->partitions = plan.num_partitions();

  vsel::CostModel cost_model(ingest->stats, cfg.weights);
  vsel::PipelineReport report;
  t0 = Clock::now();
  Result<std::vector<pl::PartitionOutcome>> searches = [&] {
    Span span(spans, "pipeline.search");
    return pl::SearchPartitions(*ingest, plan, &cost_model, cfg,
                                /*preseeded=*/nullptr, &report);
  }();
  figures->search_s = SecondsSince(t0);
  if (!searches.ok()) return searches.status();

  t0 = Clock::now();
  Result<vsel::Recommendation> rec = [&] {
    Span span(spans, "pipeline.merge");
    return pl::MergePartitions(*ingest, plan, std::move(*searches),
                               &cost_model, cfg, &report);
  }();
  figures->merge_s = SecondsSince(t0);
  figures->stats = ingest->owned_stats;
  return rec;
}

std::shared_ptr<rdf::Statistics> WorkloadStatistics(
    const rdf::TripleStore* store, const rdf::Dictionary* dict,
    const std::vector<cq::ConjunctiveQuery>& queries,
    const vsel::TuningConfig& cfg) {
  vsel::pipeline::SessionCaches caches;
  Result<vsel::pipeline::IngestResult> ingest =
      vsel::pipeline::Ingest(store, dict, /*schema=*/nullptr, queries, cfg,
                             /*external_stats=*/nullptr, &caches);
  return ingest.ok() ? ingest->owned_stats : nullptr;
}

std::vector<Tuned> TuneInProcess(const std::vector<TuneInputs>& instances,
                                 double budget_s, int min_rounds,
                                 SpanLog* spans, EndToEnd* e, Layers* layers,
                                 Report* report,
                                 const std::function<void()>& after_round) {
  std::vector<std::optional<Tuned>> first(instances.size());
  bool same_best = true;
  std::vector<double> untraced_s, traced_s, parse_us, ingest_s, partition_s,
      search_s, merge_s;
  // Instance 0's last traced tune feeds the search-core counts, and the
  // registry counters are summed over all of its traced tunes.
  StagedFigures figures0;
  std::optional<vsel::Recommendation> traced0;
  CoreCounters core0;

  auto tune = [&](size_t i) {
    const TuneInputs& in = instances[i];
    vsel::TuningConfig cfg = in.cfg;
    cfg.telemetry.trace = false;
    const Clock::time_point t0 = Clock::now();
    std::vector<cq::ConjunctiveQuery> queries =
        ParseQueries(*in.texts, in.dict, nullptr, report);
    Result<vsel::Recommendation> rec =
        vsel::ViewSelector(in.store, in.dict, in.schema)
            .Recommend(queries, cfg);
    e->per[i].tune_s.push_back(SecondsSince(t0));
    untraced_s.push_back(e->per[i].tune_s.back());
    report->Op(rec.ok());
    if (!rec.ok()) {
      report->Check(false, "tune failed: " + rec.status().ToString());
      return;
    }
    if (!first[i].has_value()) {
      first[i] = Tuned{std::move(*rec), std::move(queries), nullptr};
    } else {
      same_best = same_best && SameBest(first[i]->rec, *rec);
    }
  };
  auto traced_tune = [&](size_t i) {
    const TuneInputs& in = instances[i];
    vsel::TuningConfig cfg = in.cfg;
    cfg.telemetry.trace = true;
    StagedFigures figures;
    const CoreCounters before = CoreCounters::Read();
    const Clock::time_point t0 = Clock::now();
    spans->BeginTune();
    Result<vsel::Recommendation> rec = [&] {
      Span root(spans, "tune");
      std::vector<cq::ConjunctiveQuery> queries =
          ParseQueries(*in.texts, in.dict, spans, report, &parse_us);
      return StagedTune(in.store, in.dict, in.schema, queries, cfg, spans,
                        &figures);
    }();
    traced_s.push_back(SecondsSince(t0));
    if (i == 0) core0 += CoreCounters::Read() - before;
    report->Op(rec.ok());
    if (!rec.ok()) {
      report->Check(false, "traced tune failed: " + rec.status().ToString());
      return;
    }
    same_best = same_best && first[i].has_value() &&
                SameBest(first[i]->rec, *rec);
    ingest_s.push_back(figures.ingest_s);
    partition_s.push_back(figures.partition_s);
    search_s.push_back(figures.search_s);
    merge_s.push_back(figures.merge_s);
    if (i == 0) {
      figures0 = std::move(figures);
      traced0 = std::move(*rec);
    }
  };

  // One untimed round first: a process's first tune runs cold (allocator,
  // caches) and is much slower than the rest.
  for (size_t i = 0; i < instances.size(); ++i) tune(i);
  for (Samples& s : e->per) s.tune_s.clear();
  untraced_s.clear();
  if (after_round) after_round();
  // The traced run alternates untraced and traced tunes, so drift hits
  // both sides of trace.overhead_ratio alike.
  Repeat(budget_s, min_rounds, [&] {
    for (size_t i = 0; i < instances.size(); ++i) {
      tune(i);
      if (spans != nullptr) traced_tune(i);
    }
    if (after_round) after_round();
  });
  report->Check(same_best, "tunes of one workload found different bests");
  std::vector<Tuned> out;
  for (size_t i = 0; i < first.size(); ++i) {
    if (!first[i].has_value()) return {};
    e->per[i].cost_ratio = CostRatio(first[i]->rec);
    out.push_back(std::move(*first[i]));
  }
  if (spans != nullptr && traced0.has_value()) {
    layers->Set("cq.parse_us", Median(parse_us), "us");
    layers->Set("pipeline.ingest_s", Median(ingest_s), "s");
    layers->Set("pipeline.partition_s", Median(partition_s), "s");
    layers->Set("pipeline.search_s", Median(search_s), "s");
    layers->Set("pipeline.merge_s", Median(merge_s), "s");
    layers->Set("pipeline.partitions",
                static_cast<double>(figures0.partitions), "count");
    SearchCounters(traced0->stats, figures0.search_s, layers);
    core0.Fill(layers);
    layers->Set("trace.overhead_ratio", Median(traced_s) / Median(untraced_s),
                "ratio");
    out[0].stats = figures0.stats;
  }
  return out;
}

void SearchCounters(const vsel::SearchStats& stats, double search_s,
                    Layers* layers) {
  const double created = static_cast<double>(stats.created);
  layers->Set("vsel.states_created", created, "count");
  layers->Set("vsel.states_per_s", Ratio(created, search_s), "1/s");
  layers->Set("vsel.dedup_ratio",
              Ratio(static_cast<double>(stats.duplicates), created), "ratio");
  layers->Set("vsel.discard_ratio",
              Ratio(static_cast<double>(stats.discarded), created), "ratio");
}

CoreCounters CoreCounters::Read() {
  telemetry::MetricsRegistry* r = telemetry::MetricsRegistry::Default();
  auto value = [r](const char* name) { return r->GetCounter(name)->Value(); };
  CoreCounters c;
  c.states = value("vsel_states_created_total");
  c.heap_blocks = value("vsel_state_alloc_heap_blocks_total");
  c.arena_blocks = value("vsel_arena_blocks_total");
  c.transitions = value("vsel_transitions_enumerated_total");
  return c;
}

CoreCounters& CoreCounters::operator+=(const CoreCounters& o) {
  states += o.states;
  heap_blocks += o.heap_blocks;
  arena_blocks += o.arena_blocks;
  transitions += o.transitions;
  return *this;
}

CoreCounters CoreCounters::operator-(const CoreCounters& o) const {
  CoreCounters d;
  d.states = states - o.states;
  d.heap_blocks = heap_blocks - o.heap_blocks;
  d.arena_blocks = arena_blocks - o.arena_blocks;
  d.transitions = transitions - o.transitions;
  return d;
}

void CoreCounters::Fill(Layers* layers) const {
  const double n = static_cast<double>(states);
  layers->Set("vsel.mallocs_per_state",
              Ratio(static_cast<double>(heap_blocks + arena_blocks), n),
              "count");
  layers->Set("vsel.transitions_per_state",
              Ratio(static_cast<double>(transitions), n), "count");
}

bool StageSplit::Add(const vsel::PipelineReport& report) {
  if (report.telemetry == nullptr) return false;
  const std::map<std::string, double> by_name =
      report.telemetry->SpanSecondsByName();
  auto seconds = [&by_name](const char* name) {
    auto it = by_name.find(name);
    return it == by_name.end() ? 0.0 : it->second;
  };
  const double total = seconds("session.update");
  const double stages[] = {
      seconds("pipeline.ingest"), seconds("pipeline.partition"),
      seconds("cache.get") + seconds("cache.put"), seconds("pipeline.search"),
      seconds("pipeline.merge")};
  double named = 0;
  for (size_t k = 0; k < 5; ++k) {
    stages_[k].push_back(stages[k]);
    named += stages[k];
  }
  stages_[5].push_back(total - named);
  total_.push_back(total);
  return true;
}

double StageSplit::Median(int stage) const {
  return perfbench::Median(stage < 0 ? total_
                                     : stages_[static_cast<size_t>(stage)]);
}

void StageSplit::Print(const char* title) const {
  const double total = Median(-1);
  std::fprintf(stderr, "%s: %zu traced updates, median %.6f s; median per "
                       "stage:\n", title, runs(), total);
  for (int k = 0; k < 6; ++k) {
    std::fprintf(stderr, "  %-10s %12.6f s  %6.2f%%\n", kStages[k], Median(k),
                 100.0 * Ratio(Median(k), total));
  }
}

void UpdateStageLayers(const StageSplit& split, Layers* layers) {
  split.Print("update stream");
  for (int k = 0; k < 5; ++k) {
    layers->Set(std::string("update.") + StageSplit::kStages[k] + "_ms",
                split.Median(k) * 1e3, "ms");
  }
}

void SessionFigures::Fill(uint64_t hits, uint64_t misses,
                          Layers* layers) const {
  const double n = static_cast<double>(updates);
  layers->Set("session.reuse_ratio", Ratio(reuse_sum, n), "ratio");
  layers->Set("session.partitions_searched", Ratio(searched_sum, n), "count");
  layers->Set("session.cache_hit_ratio",
              Ratio(static_cast<double>(hits),
                    static_cast<double>(hits + misses)),
              "ratio");
}

void ReplayWalk(const std::vector<cq::ConjunctiveQuery>& queries,
                const rdf::Statistics* stats, const vsel::TuningConfig& cfg,
                uint64_t seed, size_t steps, Layers* layers) {
  constexpr size_t kMaxDepth = 12;
  Result<vsel::State> s0 = vsel::MakeInitialState(queries);
  if (!s0.ok() || stats == nullptr) return;
  vsel::CostModel model(stats, cfg.weights);
  vsel::TransitionOptions options =
      vsel::TransitionOptions::FromHeuristics(cfg.heuristics);
  options.graph_cache = &model.interner();
  Rng rng(seed);
  vsel::TransitionBuffer buffer;
  std::vector<double> enumerate_ns, apply_ns, cost_ns;
  double sink = model.StateCost(*s0);
  vsel::State current = *s0;
  size_t depth = 0;
  for (size_t step = 0; step < steps; ++step) {
    buffer.Clear();
    Clock::time_point t0 = Clock::now();
    for (vsel::TransitionKind kind :
         {vsel::TransitionKind::kVB, vsel::TransitionKind::kSC,
          vsel::TransitionKind::kJC, vsel::TransitionKind::kVF}) {
      vsel::EnumerateTransitionsInto(current, kind, options, &buffer);
    }
    enumerate_ns.push_back(NsSince(t0));
    if (buffer.empty() || depth >= kMaxDepth) {
      current = *s0;
      depth = 0;
      continue;
    }
    const vsel::Transition& picked = buffer[rng.Below(buffer.size())];
    t0 = Clock::now();
    vsel::State next = vsel::ApplyTransition(current, picked);
    apply_ns.push_back(NsSince(t0));
    t0 = Clock::now();
    sink += model.StateCost(next);
    cost_ns.push_back(NsSince(t0));
    current = std::move(next);
    ++depth;
  }
  // Means, not medians: a call's cost depends on how much of the state's
  // memoized terms survive, so the per-call distribution is multi-modal
  // and its median can jump between modes; a slowdown moves the mean.
  layers->Set("vsel.enumerate_ns", Average(enumerate_ns), "ns");
  layers->Set("vsel.apply_ns", Average(apply_ns), "ns");
  layers->Set("vsel.state_cost_ns", Average(cost_ns), "ns");
  if (sink < 0) std::fprintf(stderr, "negative walk cost\n");
}

double MinimizeMicros(const std::vector<cq::ConjunctiveQuery>& queries,
                      int rounds) {
  std::vector<double> us;
  size_t sink = 0;
  for (int r = 0; r < rounds; ++r) {
    for (const cq::ConjunctiveQuery& q : queries) {
      const Clock::time_point t0 = Clock::now();
      sink += cq::Minimize(q).len();
      us.push_back(SecondsSince(t0) * 1e6);
    }
  }
  if (sink == 0 && !queries.empty()) std::fprintf(stderr, "empty minimize\n");
  return Median(us);
}

void SerializeProbe(const vsel::Recommendation& rec,
                    const vsel::serialize::CacheIdentity& identity,
                    std::shared_ptr<const rdf::TripleStore> store,
                    SpanLog* spans, Layers* layers, Report* report) {
  constexpr int kReps = 15;
  std::vector<double> encode_us, decode_us;
  std::string blob;
  bool decoded = true;
  for (int i = 0; i < kReps; ++i) {
    Clock::time_point t0 = Clock::now();
    {
      Span span(spans, "serialize.encode");
      blob = vsel::serialize::SerializeRecommendation(rec, identity);
    }
    encode_us.push_back(SecondsSince(t0) * 1e6);
    t0 = Clock::now();
    Result<vsel::Recommendation> back = [&] {
      Span span(spans, "serialize.decode");
      return vsel::serialize::DeserializeRecommendation(blob, identity, store);
    }();
    decode_us.push_back(SecondsSince(t0) * 1e6);
    decoded = decoded && back.ok() && SameBest(*back, rec);
  }
  report->Check(decoded, "recommendation does not survive a serialize "
                         "round trip");
  layers->Set("serialize.rec_bytes", static_cast<double>(blob.size()), "B");
  layers->Set("serialize.encode_us", Median(encode_us), "us");
  layers->Set("serialize.decode_us", Median(decode_us), "us");
}

void ServeRecommendation(const vsel::Recommendation& rec,
                         const std::vector<cq::ConjunctiveQuery>& queries,
                         const rdf::TripleStore& reference,
                         double materialize_budget_s, double answer_budget_s,
                         Samples* samples, Report* report) {
  constexpr int kBatch = 64;
  vsel::MaterializedViews views;
  std::vector<double> materialize_s = Repeat(
      materialize_budget_s, 3, [&] { views = vsel::Materialize(rec); });
  samples->materialize_s.insert(samples->materialize_s.end(),
                                materialize_s.begin(), materialize_s.end());
  for (const engine::Relation& r : views.relations) {
    samples->view_rows += static_cast<double>(r.NumRows());
  }
  const double store_bytes =
      static_cast<double>(rec.materialization_store->size() * 3 *
                          sizeof(rdf::TermId));
  samples->view_bytes_ratio =
      Ratio(static_cast<double>(views.TotalBytes()), store_bytes);

  // Correctness first (and the direct-evaluation baseline of fig8).
  bool answers_ok = rec.rewritings.size() == queries.size();
  for (size_t i = 0; answers_ok && i < queries.size(); ++i) {
    if (rec.rewritings[i] == nullptr) {
      answers_ok = false;
      break;
    }
    const Clock::time_point t0 = Clock::now();
    engine::Relation direct = engine::EvaluateQuery(queries[i], reference);
    samples->direct_us.push_back(SecondsSince(t0) * 1e6);
    engine::Relation viewed = vsel::AnswerQuery(rec, views, i);
    if (!viewed.SameRowsAs(direct)) {
      report->Check(false, "answers over the views differ from direct "
                           "evaluation for " + queries[i].name());
      answers_ok = false;
    }
  }
  report->Check(answers_ok, "recommendation cannot answer every query");
  if (!answers_ok) return;

  size_t sink = 0;
  const Clock::time_point start = Clock::now();
  do {
    for (size_t i = 0; i < queries.size(); ++i) {
      const Clock::time_point t0 = Clock::now();
      for (int b = 0; b < kBatch; ++b) {
        sink += vsel::AnswerQuery(rec, views, i).NumRows();
      }
      samples->answer_us.push_back(SecondsSince(t0) * 1e6 / kBatch);
    }
  } while (SecondsSince(start) < answer_budget_s);
  if (sink == 0) std::fprintf(stderr, "no answers at all\n");
}

void FixedOutputs(const vsel::Recommendation& rec, size_t partitions,
                  const std::string& prefix, Report* report) {
  const vsel::StateFingerprint& f = rec.best_state.fingerprint();
  char fp[40];
  std::snprintf(fp, sizeof(fp), "%016llx%016llx",
                static_cast<unsigned long long>(f.hi),
                static_cast<unsigned long long>(f.lo));
  report->Fixed(prefix + "best_cost", rec.stats.best_cost);
  report->Fixed(prefix + "rcr", rec.stats.RelativeCostReduction());
  report->Fixed(prefix + "best_fingerprint", fp);
  report->Fixed(prefix + "states_created",
                static_cast<double>(rec.stats.created));
  report->Fixed(prefix + "partitions", static_cast<double>(partitions));
}

double CostRatio(const vsel::Recommendation& rec) {
  return Ratio(rec.stats.best_cost, rec.stats.initial_cost);
}

bool SameBest(const vsel::Recommendation& a, const vsel::Recommendation& b) {
  return a.stats.best_cost == b.stats.best_cost &&
         a.best_state.fingerprint() == b.best_state.fingerprint();
}

void FinishTrace(const SpanLog& spans, const Args& args, const EndToEnd& e,
                 Layers* layers, Report* report) {
  const double direct_us =
      e.Mean([](const Samples& s) { return Median(s.direct_us); });
  const double answer_p50_us =
      e.Mean([](const Samples& s) { return Percentile(s.answer_us, 50); });
  layers->Set("engine.materialize_s",
              e.Mean([](const Samples& s) { return Median(s.materialize_s); }),
              "s");
  layers->Set("engine.view_rows",
              e.Mean([](const Samples& s) { return s.view_rows; }), "count");
  layers->Set("engine.view_bytes_ratio",
              e.Mean([](const Samples& s) { return s.view_bytes_ratio; }),
              "ratio");
  layers->Set("engine.answer_p50_us", answer_p50_us, "us");
  layers->Set("engine.answer_p90_us", e.Mean([](const Samples& s) {
    return Percentile(s.answer_us, 90);
  }), "us");
  layers->Set("engine.direct_eval_us", direct_us, "us");
  layers->Set("engine.views_speedup", Ratio(direct_us, answer_p50_us),
              "ratio");
  double tune_s = 0;
  std::vector<std::pair<std::string, double>> self =
      spans.SelfTimes("tune", &tune_s);
  std::fprintf(stderr, "traced tune %.6f s; self time per tune:\n", tune_s);
  for (const auto& [name, seconds] : self) {
    std::fprintf(stderr, "  %-22s %12.6f s  %6.2f%%\n", name.c_str(), seconds,
                 100.0 * Ratio(seconds, tune_s));
    if (name == "tune") {
      layers->Set("trace.unaccounted_ratio", Ratio(seconds, tune_s), "ratio");
    }
  }
  if (!args.trace_out.empty()) {
    report->Check(spans.Write(args.trace_out),
                  "cannot write spans to " + args.trace_out);
  }
}

}  // namespace perfbench
