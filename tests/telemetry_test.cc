// Tests for the unified telemetry layer (src/common/telemetry/): registry
// semantics (counters / gauges / log-bucketed histograms, collector
// aggregation, snapshot merging), tracing spans (balance, parenting,
// deterministic clocks, cross-thread propagation), the exporters, and the
// end-to-end invariants the observability contract promises — a session
// Update yields one balanced span tree covering ingest → partition →
// per-partition attempts → merge, the cache counters obey
// gets == hits + misses + io_failures per backend label, the tree stays
// balanced under mid-flight cancellation and injected faults
// (ChaosTelemetryTest, run by the chaos CI job), and snapshots stay
// coherent with 8 concurrent sessions (ParallelTelemetryTest, run under
// TSan).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/fault.h"
#include "common/telemetry/export.h"
#include "common/telemetry/metrics.h"
#include "common/telemetry/trace.h"
#include "test_util.h"
#include "vsel/selector.h"
#include "vsel/session/session.h"
#include "workload/generator.h"

namespace rdfviews {
namespace {

using rdfviews::testing::MustParse;

std::string TempCacheDir(const std::string& name) {
  namespace fs = std::filesystem;
  fs::path dir = fs::path(::testing::TempDir()) / ("rdfviews_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

// ---- Registry -------------------------------------------------------------

TEST(TelemetryMetricsTest, CounterAndGaugeRoundTrip) {
  telemetry::MetricsRegistry registry;
  telemetry::Counter* c = registry.GetCounter("t_requests_total");
  c->Add();
  c->Add(41);
  EXPECT_EQ(c->Value(), 42u);
  // Find-or-create: same key, same instrument.
  EXPECT_EQ(registry.GetCounter("t_requests_total"), c);
  // Distinct labels are distinct series.
  telemetry::Counter* labeled =
      registry.GetCounter("t_requests_total", "backend=\"dir\"");
  EXPECT_NE(labeled, c);
  labeled->Add(7);

  telemetry::Gauge* g = registry.GetGauge("t_depth");
  g->Set(10);
  g->Add(-3);
  EXPECT_EQ(g->Value(), 7);

  telemetry::MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.CounterValue("t_requests_total"), 42u);
  EXPECT_EQ(snap.CounterValue("t_requests_total", "backend=\"dir\""), 7u);
  EXPECT_EQ(snap.CounterValue("t_missing"), 0u);
}

TEST(TelemetryMetricsTest, HistogramLogBuckets) {
  // Bucket i holds values of bit width i: 0 -> 0, 1 -> 1, {2,3} -> 2, ...
  EXPECT_EQ(telemetry::Histogram::BucketIndex(0), 0);
  EXPECT_EQ(telemetry::Histogram::BucketIndex(1), 1);
  EXPECT_EQ(telemetry::Histogram::BucketIndex(2), 2);
  EXPECT_EQ(telemetry::Histogram::BucketIndex(3), 2);
  EXPECT_EQ(telemetry::Histogram::BucketIndex(4), 3);
  EXPECT_EQ(telemetry::Histogram::BucketIndex(~uint64_t{0}), 64);
  EXPECT_EQ(telemetry::Histogram::BucketUpperBound(1), 1u);
  EXPECT_EQ(telemetry::Histogram::BucketUpperBound(3), 7u);

  telemetry::Histogram h;
  for (uint64_t v : {0ull, 1ull, 2ull, 3ull, 1000ull}) h.Observe(v);
  EXPECT_EQ(h.Count(), 5u);
  EXPECT_EQ(h.Sum(), 1006u);
  EXPECT_EQ(h.BucketCount(0), 1u);
  EXPECT_EQ(h.BucketCount(2), 2u);
  EXPECT_EQ(h.BucketCount(10), 1u);  // 512 <= 1000 < 1024
}

TEST(TelemetryMetricsTest, CollectorsAggregateByNameAndLabels) {
  telemetry::MetricsRegistry registry;
  // Two components of the same kind emit the same series; the snapshot
  // sums them (exactly how two DirCacheBackends roll up).
  auto emit = [](uint64_t n) {
    return [n](std::vector<telemetry::MetricSample>* out) {
      telemetry::MetricSample s;
      s.name = "t_widget_total";
      s.labels = "kind=\"a\"";
      s.value = n;
      out->push_back(s);
    };
  };
  telemetry::CollectorHandle h1 = registry.RegisterCollector(emit(3));
  telemetry::CollectorHandle h2 = registry.RegisterCollector(emit(4));
  // Registry-owned instrument with the same key also folds in.
  registry.GetCounter("t_widget_total", "kind=\"a\"")->Add(5);
  EXPECT_EQ(registry.Snapshot().CounterValue("t_widget_total", "kind=\"a\""),
            12u);

  // Dropping a handle unregisters its collector.
  h1.Reset();
  EXPECT_EQ(registry.Snapshot().CounterValue("t_widget_total", "kind=\"a\""),
            9u);
}

TEST(TelemetryMetricsTest, HistogramSamplesMergeAcrossCollectors) {
  telemetry::MetricsRegistry registry;
  auto emit = [](std::initializer_list<uint64_t> values) {
    auto h = std::make_shared<telemetry::Histogram>();
    for (uint64_t v : values) h->Observe(v);
    return [h](std::vector<telemetry::MetricSample>* out) {
      telemetry::MetricSample s;
      s.name = "t_bytes";
      s.kind = telemetry::MetricKind::kHistogram;
      for (int i = 0; i <= telemetry::Histogram::kBuckets; ++i) {
        s.histogram.count += h->BucketCount(i);
        if (h->BucketCount(i) > 0 || i == telemetry::Histogram::kBuckets) {
          s.histogram.cumulative_buckets.emplace_back(
              telemetry::Histogram::BucketUpperBound(i), s.histogram.count);
        }
      }
      s.histogram.sum = h->Sum();
      out->push_back(s);
    };
  };
  telemetry::CollectorHandle h1 = registry.RegisterCollector(emit({1, 2}));
  telemetry::CollectorHandle h2 = registry.RegisterCollector(emit({2, 800}));

  telemetry::MetricsSnapshot snap = registry.Snapshot();
  ASSERT_EQ(snap.samples.size(), 1u);
  const telemetry::MetricSample& s = snap.samples[0];
  EXPECT_EQ(s.kind, telemetry::MetricKind::kHistogram);
  EXPECT_EQ(s.histogram.count, 4u);
  EXPECT_EQ(s.histogram.sum, 805u);
  // Cumulative counts stay monotone and end at the total.
  uint64_t prev = 0;
  for (const auto& [bound, cum] : s.histogram.cumulative_buckets) {
    EXPECT_GE(cum, prev);
    prev = cum;
  }
  EXPECT_EQ(prev, 4u);
}

// ---- Tracing --------------------------------------------------------------

TEST(TelemetryTraceTest, DeterministicClockAndParenting) {
  uint64_t now = 0;
  telemetry::Tracer tracer([&now] { return now += 10; });
  telemetry::ScopedTraceContext scope({&tracer, 0});
  {
    telemetry::TraceSpan outer("outer");
    ASSERT_TRUE(outer.armed());
    outer.Annotate("k", "v");
    outer.Annotate("n", uint64_t{7});
    {
      telemetry::TraceSpan inner("inner");
      telemetry::TraceEvent("blip", {{"a", "1"}});
    }
  }
  ASSERT_TRUE(tracer.AllClosed());
  std::vector<telemetry::SpanRecord> spans = tracer.Spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].name, "outer");
  EXPECT_EQ(spans[0].parent, 0u);
  EXPECT_EQ(spans[1].name, "inner");
  EXPECT_EQ(spans[1].parent, spans[0].id);
  EXPECT_EQ(spans[2].name, "blip");
  EXPECT_EQ(spans[2].parent, spans[1].id);
  // The injected clock is the only time source: starts/ends are exactly
  // the fake ticks, strictly increasing in call order.
  EXPECT_EQ(spans[0].start_ns, 10u);
  EXPECT_GT(spans[0].end_ns, spans[1].end_ns);
  ASSERT_EQ(spans[0].attrs.size(), 2u);
  EXPECT_EQ(spans[0].attrs[1].second, "7");
}

TEST(TelemetryTraceTest, DisarmedSpansAreNoOps) {
  // No context installed: spans must not crash, allocate tracer state, or
  // leak into later armed regions.
  telemetry::TraceSpan span("orphan");
  EXPECT_FALSE(span.armed());
  span.Annotate("k", "v");
  span.End();
  telemetry::TraceEvent("orphan.event");
}

TEST(TelemetryTraceTest, ExplicitEndClosesEarly) {
  telemetry::Tracer tracer;
  telemetry::ScopedTraceContext scope({&tracer, 0});
  telemetry::TraceSpan a("attempt");
  a.End();
  // After End, new spans parent under the restored (root) context, not
  // under the ended span — exactly how retry backoff avoids being charged
  // to the failed attempt.
  telemetry::TraceSpan b("backoff");
  b.End();
  std::vector<telemetry::SpanRecord> spans = tracer.Spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_TRUE(spans[0].closed);
  EXPECT_EQ(spans[1].parent, 0u);
}

TEST(TelemetryTraceTest, ContextCrossesThreads) {
  telemetry::Tracer tracer;
  telemetry::ScopedTraceContext scope({&tracer, 0});
  telemetry::TraceSpan root("submit");
  const telemetry::TraceContext captured = telemetry::CurrentTraceContext();
  std::thread worker([captured] {
    telemetry::ScopedTraceContext task_scope(captured);
    telemetry::TraceSpan span("task");
  });
  worker.join();
  root.End();
  std::vector<telemetry::SpanRecord> spans = tracer.Spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[1].parent, spans[0].id);
  EXPECT_TRUE(tracer.AllClosed());
}

// ---- Exporters ------------------------------------------------------------

TEST(TelemetryExportTest, JsonAndPrometheusShapes) {
  uint64_t now = 0;
  telemetry::Tracer tracer([&now] { return now += 5; });
  {
    telemetry::ScopedTraceContext scope({&tracer, 0});
    telemetry::TraceSpan span("stage");
    span.Annotate("q", "a\"b");  // exercises escaping
  }
  telemetry::MetricsRegistry registry;
  registry.GetCounter("t_total", "op=\"x\"")->Add(3);
  registry.GetHistogram("t_ns")->Observe(5);

  telemetry::RunTelemetry run;
  run.spans = tracer.Spans();
  run.metrics = registry.Snapshot();
  EXPECT_TRUE(run.SpanTreeBalanced());

  std::string spans_json = telemetry::SpansJson(run.spans);
  EXPECT_NE(spans_json.find("\"name\": \"stage\""), std::string::npos);
  EXPECT_NE(spans_json.find("a\\\"b"), std::string::npos);

  std::string metrics_json = telemetry::MetricsJson(run.metrics);
  EXPECT_NE(metrics_json.find("\"t_total\""), std::string::npos);
  EXPECT_NE(metrics_json.find("\"kind\": \"histogram\""), std::string::npos);

  std::string report = telemetry::RunReportJson(
      {{"bench", "\"unit\""}, {"n", "3"}}, run);
  EXPECT_NE(report.find("\"bench\": \"unit\""), std::string::npos);
  EXPECT_NE(report.find("\"spans\":"), std::string::npos);
  EXPECT_NE(report.find("\"metrics\":"), std::string::npos);

  std::string prom = telemetry::PrometheusText(run.metrics);
  EXPECT_NE(prom.find("# TYPE t_total counter"), std::string::npos);
  EXPECT_NE(prom.find("t_total{op=\"x\"} 3"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE t_ns histogram"), std::string::npos);
  EXPECT_NE(prom.find("t_ns_bucket{le=\"+Inf\"} 1"), std::string::npos);
  EXPECT_NE(prom.find("t_ns_count 1"), std::string::npos);
}

TEST(TelemetryExportTest, SpanSecondsByNameSumsPerName) {
  uint64_t now = 0;
  telemetry::Tracer tracer([&now] { return now += 1'000'000'000; });
  telemetry::ScopedTraceContext scope({&tracer, 0});
  {
    telemetry::TraceSpan a("stage");  // 1s (one tick between open/close)
  }
  {
    telemetry::TraceSpan b("stage");  // another 1s
  }
  telemetry::RunTelemetry run;
  run.spans = tracer.Spans();
  std::map<std::string, double> by_name = run.SpanSecondsByName();
  EXPECT_NEAR(by_name["stage"], 2.0, 1e-9);
}

// ---- Session integration --------------------------------------------------

/// The session_test constant-disjoint families: 4 partitions, a delta that
/// dirties one and adds one.
struct TelemetryFixture {
  rdf::Dictionary dict;
  std::vector<cq::ConjunctiveQuery> initial;
  std::vector<cq::ConjunctiveQuery> delta;
  rdf::TripleStore store;

  TelemetryFixture() {
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
    std::vector<cq::ConjunctiveQuery> all = initial;
    all.insert(all.end(), delta.begin(), delta.end());
    store = workload::GenerateStoreForWorkload(all, &dict, 3000, 42);
  }

  vsel::TuningConfig Options() const {
    vsel::TuningConfig options;
    options.strategy = vsel::StrategyKind::kDfs;
    options.auto_calibrate_cm = false;
    return options;
  }
};

std::multiset<std::string> SpanNames(
    const std::vector<telemetry::SpanRecord>& spans) {
  std::multiset<std::string> names;
  for (const telemetry::SpanRecord& s : spans) names.insert(s.name);
  return names;
}

/// The promised invariant, per backend label and therefore in aggregate:
/// every lookup is exactly one of hit, miss, or I/O failure.
void ExpectCacheInvariant(const telemetry::MetricsSnapshot& snap) {
  std::set<std::string> labels;
  for (const telemetry::MetricSample& s : snap.samples) {
    if (s.name == "vsel_cache_gets_total") labels.insert(s.labels);
  }
  for (const std::string& label : labels) {
    EXPECT_EQ(snap.CounterValue("vsel_cache_gets_total", label),
              snap.CounterValue("vsel_cache_hits_total", label) +
                  snap.CounterValue("vsel_cache_misses_total", label) +
                  snap.CounterValue("vsel_cache_io_failures_total", label))
        << "label: " << label;
  }
}

TEST(SessionTelemetryTest, UpdateProducesBalancedTaxonomyTree) {
  TelemetryFixture fx;
  vsel::TuningSession session(&fx.store, &fx.dict, fx.Options());
  Result<vsel::Recommendation> rec = session.Update(fx.initial);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();

  std::shared_ptr<const telemetry::RunTelemetry> run =
      rec->pipeline.telemetry;
  ASSERT_NE(run, nullptr);
  EXPECT_TRUE(run->SpanTreeBalanced());

  // Exactly one root, and it is the session update.
  size_t roots = 0;
  for (const telemetry::SpanRecord& s : run->spans) {
    if (s.parent == 0) {
      ++roots;
      EXPECT_EQ(s.name, "session.update");
    }
  }
  EXPECT_EQ(roots, 1u);

  // The stage taxonomy: ingest → partition → search (one partition.search
  // + one attempt per partition) → merge, plus the classification's cache
  // lookups.
  std::multiset<std::string> names = SpanNames(run->spans);
  EXPECT_EQ(names.count("pipeline.ingest"), 1u);
  EXPECT_EQ(names.count("pipeline.partition"), 1u);
  EXPECT_EQ(names.count("pipeline.search"), 1u);
  EXPECT_EQ(names.count("pipeline.merge"), 1u);
  EXPECT_EQ(names.count("partition.search"), rec->pipeline.num_partitions);
  EXPECT_GE(names.count("search.attempt"), rec->pipeline.num_partitions);
  EXPECT_EQ(names.count("cache.get"), rec->pipeline.num_partitions);
  // Every completed partition search was cached.
  EXPECT_EQ(names.count("cache.put"), rec->pipeline.partitions_searched);

  // Registry snapshot rides along, with the component counters migrated
  // onto it.
  EXPECT_GT(run->metrics.CounterValue("vsel_interner_card_computed_total"),
            0u);
  EXPECT_GT(run->metrics.CounterValue("vsel_cost_state_costs_total"), 0u);
  ExpectCacheInvariant(run->metrics);

  // TelemetrySnapshot serves the same bundle plus fresh metrics.
  vsel::SessionTelemetry snap = session.TelemetrySnapshot();
  EXPECT_EQ(snap.last_update, run);
  ExpectCacheInvariant(snap.metrics);
}

TEST(SessionTelemetryTest, IncrementalUpdateAnnotatesReuse) {
  TelemetryFixture fx;
  vsel::TuningSession session(&fx.store, &fx.dict, fx.Options());
  ASSERT_TRUE(session.Update(fx.initial).ok());
  Result<vsel::Recommendation> rec = session.Update(fx.delta);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();

  ASSERT_NE(rec->pipeline.telemetry, nullptr);
  EXPECT_TRUE(rec->pipeline.telemetry->SpanTreeBalanced());
  std::multiset<std::string> names = SpanNames(rec->pipeline.telemetry->spans);
  // Clean partitions surface as reuse events, not searches.
  EXPECT_EQ(names.count("partition.reused"),
            rec->pipeline.partitions_reused);
  EXPECT_EQ(names.count("partition.search"),
            rec->pipeline.partitions_searched);
  // The second update supersedes the first as "last".
  EXPECT_EQ(session.TelemetrySnapshot().last_update,
            rec->pipeline.telemetry);
}

TEST(SessionTelemetryTest, TracingDisabledYieldsNoBundle) {
  TelemetryFixture fx;
  vsel::TuningConfig options = fx.Options();
  options.telemetry.trace = false;
  vsel::TuningSession session(&fx.store, &fx.dict, options);
  Result<vsel::Recommendation> rec = session.Update(fx.initial);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_EQ(rec->pipeline.telemetry, nullptr);
  EXPECT_EQ(session.TelemetrySnapshot().last_update, nullptr);
}

TEST(SessionTelemetryTest, MidFlightCancelKeepsTreeBalanced) {
  TelemetryFixture fx;
  vsel::TuningConfig options = fx.Options();
  // A large workload so the cancel lands mid-search at least sometimes;
  // correctness here is balance, not timing.
  workload::WorkloadSpec spec;
  spec.num_queries = 40;
  spec.atoms_per_query = 4;
  spec.commonality = workload::Commonality::kHigh;
  spec.partition_groups = 8;
  spec.seed = 11;
  rdf::Dictionary dict;
  std::vector<cq::ConjunctiveQuery> queries =
      workload::GenerateWorkload(spec, &dict);
  rdf::TripleStore store =
      workload::GenerateStoreForWorkload(queries, &dict, 4000, 11);

  vsel::TuningSession session(&store, &dict, options);
  std::shared_ptr<vsel::TuningHandle> handle = session.UpdateAsync(queries);
  handle->Cancel();
  Result<vsel::Recommendation> rec = handle->Wait();
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  ASSERT_NE(rec->pipeline.telemetry, nullptr);
  // Every span the cancelled run opened — including cut-short attempts —
  // must still be closed: RAII spans unwind with the cancellation.
  EXPECT_TRUE(rec->pipeline.telemetry->SpanTreeBalanced());
}

// ---- Chaos: balance under injected faults (chaos CI job: Chaos*) ----------

class ChaosTelemetryTest : public ::testing::Test {
 protected:
  void TearDown() override { fault::Disarm(); }
};

TEST_F(ChaosTelemetryTest, SpanTreeBalancedUnderInjectedFaults) {
  TelemetryFixture fx;
  vsel::TuningConfig options = fx.Options();
  options.robust.retry.max_attempts = 2;

  // Every partition's first attempt fails-then-throws across the sweep;
  // retries recover some, abandonment degrades the rest. The telemetry
  // contract is unconditional: whatever the outcome, the tree balances
  // and every attempt span carries an outcome attribute.
  for (fault::Action action :
       {fault::Action::kFail, fault::Action::kThrow}) {
    fault::SiteSpec spec;
    spec.action = action;
    spec.nth = 1;
    spec.count = 2;
    fault::Arm(7, {{fault::sites::kPartitionSearch, spec}});

    vsel::TuningSession session(&fx.store, &fx.dict, options);
    Result<vsel::Recommendation> rec = session.Update(fx.initial);
    fault::Disarm();
    ASSERT_TRUE(rec.ok()) << rec.status().ToString();
    std::shared_ptr<const telemetry::RunTelemetry> run =
        rec->pipeline.telemetry;
    ASSERT_NE(run, nullptr);
    EXPECT_TRUE(run->SpanTreeBalanced());

    size_t attempts = 0;
    size_t failed_attempts = 0;
    for (const telemetry::SpanRecord& s : run->spans) {
      if (s.name != "search.attempt") continue;
      ++attempts;
      auto outcome = std::find_if(
          s.attrs.begin(), s.attrs.end(),
          [](const auto& kv) { return kv.first == "outcome"; });
      ASSERT_NE(outcome, s.attrs.end());
      if (outcome->second != "ok") ++failed_attempts;
    }
    // 2 injected failures -> at least 2 failed attempts, and the retries
    // mean more attempts than partitions.
    EXPECT_GE(failed_attempts, 2u);
    EXPECT_GT(attempts, rec->pipeline.num_partitions);
    ExpectCacheInvariant(run->metrics);
  }
}

TEST_F(ChaosTelemetryTest, CacheInvariantHoldsUnderDirBackendFaults) {
  TelemetryFixture fx;
  vsel::TuningConfig options = fx.Options();
  options.cache.cache_dir = TempCacheDir("telemetry_dir_faults");

  // Fail some directory-backend reads and writes: io_failures and
  // store_failures must absorb them without breaking the lookup identity.
  fault::SiteSpec spec;
  spec.probability = 0.5;
  fault::Arm(13, {{fault::sites::kDirCacheGetOpen, spec},
                  {fault::sites::kDirCachePutWrite, spec}});

  vsel::TuningSession session(&fx.store, &fx.dict, options);
  Result<vsel::Recommendation> first = session.Update(fx.initial);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  Result<vsel::Recommendation> second = session.Update(fx.delta);
  fault::Disarm();
  ASSERT_TRUE(second.ok()) << second.status().ToString();

  ASSERT_NE(second->pipeline.telemetry, nullptr);
  EXPECT_TRUE(second->pipeline.telemetry->SpanTreeBalanced());
  ExpectCacheInvariant(second->pipeline.telemetry->metrics);
}

// ---- Concurrency: snapshots vs live sessions (TSan CI job: -R Parallel) ---

TEST(ParallelTelemetryTest, EightConcurrentSessionsSnapshotCoherently) {
  TelemetryFixture fx;
  constexpr size_t kSessions = 8;

  // Each thread drives its own session through an update + delta while a
  // snapshotter hammers the shared process-wide registry. TSan (the CI
  // -R Parallel job) proves the collectors, instruments, and per-session
  // tracers are race-free; the asserts prove snapshots are coherent.
  std::vector<std::unique_ptr<vsel::TuningSession>> sessions;
  for (size_t i = 0; i < kSessions; ++i) {
    sessions.push_back(std::make_unique<vsel::TuningSession>(
        &fx.store, &fx.dict, fx.Options()));
  }
  std::atomic<bool> stop{false};
  std::atomic<size_t> failures{0};
  std::thread snapshotter([&] {
    while (!stop.load(std::memory_order_acquire)) {
      telemetry::MetricsSnapshot snap =
          telemetry::MetricsRegistry::Default()->Snapshot();
      // Sorted, unique keys: the merge worked.
      for (size_t i = 1; i < snap.samples.size(); ++i) {
        auto key = [](const telemetry::MetricSample& s) {
          return std::make_pair(s.name, s.labels);
        };
        if (key(snap.samples[i - 1]) >= key(snap.samples[i])) {
          failures.fetch_add(1);
        }
      }
    }
  });
  std::vector<std::thread> workers;
  for (size_t i = 0; i < kSessions; ++i) {
    workers.emplace_back([&, i] {
      Result<vsel::Recommendation> first = sessions[i]->Update(fx.initial);
      if (!first.ok() || first->pipeline.telemetry == nullptr ||
          !first->pipeline.telemetry->SpanTreeBalanced()) {
        failures.fetch_add(1);
        return;
      }
      Result<vsel::Recommendation> second = sessions[i]->Update(fx.delta);
      if (!second.ok() || second->pipeline.telemetry == nullptr ||
          !second->pipeline.telemetry->SpanTreeBalanced()) {
        failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : workers) t.join();
  stop.store(true, std::memory_order_release);
  snapshotter.join();
  EXPECT_EQ(failures.load(), 0u);

  for (const auto& session : sessions) {
    vsel::SessionTelemetry snap = session->TelemetrySnapshot();
    ASSERT_NE(snap.last_update, nullptr);
    EXPECT_TRUE(snap.last_update->SpanTreeBalanced());
    ExpectCacheInvariant(snap.metrics);
  }
}

}  // namespace
}  // namespace rdfviews
