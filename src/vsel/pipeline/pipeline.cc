// The assembled pipeline: ingest → partition → search → merge.
#include <memory>
#include <utility>

#include "common/telemetry/export.h"
#include "common/telemetry/trace.h"
#include "vsel/cost_model.h"
#include "vsel/pipeline/pipeline.h"

namespace rdfviews::vsel::pipeline {

Result<Recommendation> Run(const rdf::TripleStore* store,
                           const rdf::Dictionary* dict,
                           const rdf::Schema* schema,
                           const std::vector<cq::ConjunctiveQuery>& workload,
                           const TuningConfig& options,
                           rdf::Statistics* external_stats) {
  RDFVIEWS_RETURN_IF_ERROR(options.Validate());
  // One tracer per run; armed through the thread-local context so every
  // stage, partition attempt, and cache/serialize operation below lands in
  // one tree rooted at pipeline.run.
  std::unique_ptr<telemetry::Tracer> tracer;
  std::unique_ptr<telemetry::ScopedTraceContext> scope;
  if (options.telemetry.trace) {
    tracer = std::make_unique<telemetry::Tracer>();
    scope = std::make_unique<telemetry::ScopedTraceContext>(
        telemetry::TraceContext{tracer.get(), 0});
  }

  auto run = [&]() -> Result<Recommendation> {
    telemetry::TraceSpan root("pipeline.run");
    root.Annotate("queries", static_cast<uint64_t>(workload.size()));

    Result<IngestResult> ingest = [&] {
      telemetry::TraceSpan span("pipeline.ingest");
      return Ingest(store, dict, schema, workload, options, external_stats);
    }();
    if (!ingest.ok()) return ingest.status();

    PartitionPlan plan = [&] {
      telemetry::TraceSpan span("pipeline.partition");
      return PartitionWorkload(*ingest, options);
    }();

    CostModel cost_model(ingest->stats, options.weights);
    PipelineReport report;
    Result<std::vector<PartitionOutcome>> searches =
        [&]() -> Result<std::vector<PartitionOutcome>> {
      telemetry::TraceSpan span("pipeline.search");
      span.Annotate("partitions", static_cast<uint64_t>(plan.groups.size()));
      return SearchPartitions(*ingest, plan, &cost_model, options,
                              /*preseeded=*/nullptr, &report);
    }();
    if (!searches.ok()) return searches.status();

    telemetry::TraceSpan merge_span("pipeline.merge");
    return MergePartitions(*ingest, plan, std::move(*searches), &cost_model,
                           options, &report);
  }();

  if (tracer != nullptr && run.ok()) {
    auto bundle = std::make_shared<telemetry::RunTelemetry>();
    bundle->spans = tracer->Spans();
    bundle->metrics = telemetry::MetricsRegistry::Default()->Snapshot();
    run->pipeline.telemetry = std::move(bundle);
  }
  return run;
}

}  // namespace rdfviews::vsel::pipeline
