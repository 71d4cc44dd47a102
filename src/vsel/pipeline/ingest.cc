// Pipeline stage 1: workload validation and entailment normalization.
//
// Everything the pre-pipeline ViewSelector::Recommend did before the search
// now happens here, exactly once per run: choosing the statistics provider
// and materialization store for the EntailmentMode, validating every query,
// and (for kPreReformulate) reformulating every workload query up front so
// the later stages see plain per-query disjunct unions.
//
// This is also the single-minimization pass: every query (and every
// reformulated disjunct) is minimized here, once, and the minimized
// connected-component structure rides along in IngestResult::minimized for
// stage 2 (commonality analysis) and stage 3 (initial-state construction).
// With a SessionCaches carryover, per-query results are keyed by the exact
// structural form of the raw query, so a session re-minimizes (and
// re-reformulates) only the queries it has never seen; and since a session
// carries its live queries' results, an update runs the per-query routine
// (IngestQuery) only for the queries it adds.
#include <algorithm>
#include <memory>
#include <utility>

#include "common/telemetry/metrics.h"
#include "cq/canonical.h"
#include "cq/containment.h"
#include "rdf/saturation.h"
#include "reform/reformulate.h"
#include "vsel/pipeline/pipeline.h"

namespace rdfviews::vsel::pipeline {

namespace {

/// Renaming-insensitive key of a minimized query: the canonical body+head
/// structure plus the head order as canonical variable indices. Two queries
/// share a key iff one is a bijective variable renaming of the other with
/// the same answer-column order — exactly the equivalence under which a
/// cached partition search result (whose rewritings fix column order) is
/// reusable.
std::string RenamingInsensitiveKey(const cq::ConjunctiveQuery& q) {
  cq::CanonicalForm form = cq::Canonicalize(q, /*include_head=*/true);
  std::string key = form.repr;
  key += "|h";
  for (const cq::Term& t : q.head()) {
    key += ':';
    auto it = form.var_map.find(t.var());
    // Head vars are body vars for valid workload queries; an unseen var
    // (malformed query) falls back to its raw id, which only ever makes
    // the key stricter.
    key += it != form.var_map.end() ? std::to_string(it->second)
                                    : "r" + std::to_string(t.var());
  }
  return key;
}

/// Collects the sorted distinct body constants of `q`'s minimized
/// components into `out->constants` and flags any constant-free component.
void ScanComponents(const cq::ConjunctiveQuery& minimized,
                    MinimizedQuery* out) {
  for (const cq::ConjunctiveQuery& component :
       minimized.SplitIntoConnectedQueries()) {
    size_t in_component = 0;
    for (const cq::Atom& atom : component.atoms()) {
      for (const cq::Term* t : {&atom.s, &atom.p, &atom.o}) {
        if (t->is_const()) {
          out->constants.push_back(t->constant());
          ++in_component;
        }
      }
    }
    if (in_component == 0) out->has_constant_free_component = true;
  }
}

}  // namespace

// The full single-minimization pass for one query. For kPreReformulate the
// initial views come from the reformulated disjuncts, so components,
// constants and the wildcard flag are computed over every minimized
// disjunct; the canonical key always describes the raw query (the schema
// is fixed per session, so it determines the disjuncts).
MinimizedQuery MinimizeQuery(const cq::ConjunctiveQuery& raw,
                             const cq::UnionOfQueries* reformulated) {
  MinimizedQuery out;
  out.minimized = cq::Minimize(raw);
  out.canonical_key = RenamingInsensitiveKey(out.minimized);
  if (reformulated != nullptr) {
    out.minimized_disjuncts.reserve(reformulated->disjuncts().size());
    for (const cq::ConjunctiveQuery& disjunct : reformulated->disjuncts()) {
      out.minimized_disjuncts.push_back(cq::Minimize(disjunct));
      ScanComponents(out.minimized_disjuncts.back(), &out);
    }
  } else {
    ScanComponents(out.minimized, &out);
  }
  std::sort(out.constants.begin(), out.constants.end());
  out.constants.erase(
      std::unique(out.constants.begin(), out.constants.end()),
      out.constants.end());
  return out;
}

std::string ExactQueryKey(const cq::ConjunctiveQuery& q) {
  std::string key;
  auto append_term = [&key](const cq::Term& t) {
    if (t.is_const()) {
      key += 'c';
      key += std::to_string(t.constant());
    } else {
      key += 'v';
      key += std::to_string(t.var());
    }
    key += ',';
  };
  for (const cq::Term& t : q.head()) append_term(t);
  key += ';';
  for (const cq::Atom& atom : q.atoms()) {
    append_term(atom.s);
    append_term(atom.p);
    append_term(atom.o);
    key += ';';
  }
  return key;
}

Result<IngestResult> IngestEnvironment(const rdf::TripleStore* store,
                                       const rdf::Dictionary* dict,
                                       const rdf::Schema* schema,
                                       size_t num_queries,
                                       const TuningConfig& options,
                                       rdf::Statistics* external_stats,
                                       SessionCaches* caches) {
  if (num_queries == 0) {
    return Status::InvalidArgument("empty workload");
  }
  const bool needs_schema = options.entailment != EntailmentMode::kNone;
  if (needs_schema && (schema == nullptr || schema->empty())) {
    return Status::InvalidArgument(
        "entailment mode requires a non-empty RDF schema");
  }

  IngestResult out;
  out.schema = schema;
  out.materialization_store = std::shared_ptr<const rdf::TripleStore>(
      store, [](const auto*) {});

  // Entailment environment: reused verbatim from the session carryover
  // (store, schema and mode are fixed per session), built once otherwise.
  const bool env_cached = caches != nullptr && caches->stats != nullptr;
  if (env_cached) {
    out.owned_stats = caches->stats;
    out.materialization_store = caches->materialization_store;
    if (options.entailment == EntailmentMode::kSaturate ||
        options.entailment == EntailmentMode::kPostReformulate) {
      external_stats = nullptr;  // these modes never honor an override
    }
  } else {
    switch (options.entailment) {
      case EntailmentMode::kNone:
      case EntailmentMode::kPreReformulate:
        if (external_stats == nullptr) {
          out.owned_stats = std::make_shared<rdf::Statistics>(store);
        }
        break;
      case EntailmentMode::kSaturate: {
        // The saturated store backs both the statistics and the
        // materialization; the shared_ptr in the result keeps it alive.
        auto saturated = std::make_shared<rdf::TripleStore>(
            rdf::Saturate(*store, *schema, {}, dict));
        out.owned_stats = std::make_shared<rdf::Statistics>(saturated.get());
        out.materialization_store = saturated;
        external_stats = nullptr;  // must measure the saturated store
        break;
      }
      case EntailmentMode::kPostReformulate:
        // A generic warm cache would silently drop the implicit triples
        // from every count, so the reformulation-aware provider is always
        // built here (mirroring kSaturate's override of external_stats).
        out.owned_stats =
            std::make_shared<reform::ReformulatedStatistics>(store, schema);
        external_stats = nullptr;
        break;
    }
    if (caches != nullptr) {
      caches->stats = out.owned_stats;
      caches->materialization_store = out.materialization_store;
    }
  }
  out.stats =
      external_stats != nullptr ? external_stats : out.owned_stats.get();
  out.queries.reserve(num_queries);
  out.minimized.reserve(num_queries);
  if (options.entailment == EntailmentMode::kPreReformulate) {
    out.reformulated.reserve(num_queries);
  }
  return out;
}

Result<IngestedQuery> IngestQuery(const cq::ConjunctiveQuery& q,
                                  const rdf::Schema* schema,
                                  const TuningConfig& options,
                                  SessionCaches* caches) {
  static telemetry::Counter* const ingested =
      telemetry::MetricsRegistry::Default()->GetCounter(
          "vsel_ingest_queries_total");
  ingested->Add(1);
  RDFVIEWS_RETURN_IF_ERROR(ValidateWorkloadQuery(q));
  const std::string key =
      caches != nullptr ? ExactQueryKey(q) : std::string();
  IngestedQuery out;
  if (options.entailment == EntailmentMode::kPreReformulate) {
    if (caches != nullptr) {
      auto it = caches->reformulate.find(key);
      if (it != caches->reformulate.end()) out.reformulated = it->second;
    }
    if (out.reformulated == nullptr) {
      reform::ReformulationResult r = reform::Reformulate(q, *schema);
      if (!r.complete) {
        return Status::ResourceExhausted(
            "reformulation of " + q.name() + " exceeded the query budget");
      }
      out.reformulated =
          std::make_shared<const cq::UnionOfQueries>(std::move(r.ucq));
      if (caches != nullptr) {
        caches->reformulate.emplace(key, out.reformulated);
      }
    }
  }
  if (caches != nullptr) {
    auto it = caches->minimize.find(key);
    if (it == caches->minimize.end()) {
      it = caches->minimize
               .emplace(key, std::make_shared<const MinimizedQuery>(
                                 MinimizeQuery(q, out.reformulated.get())))
               .first;
    }
    out.minimized = it->second;
  } else {
    out.minimized = std::make_shared<const MinimizedQuery>(
        MinimizeQuery(q, out.reformulated.get()));
  }
  return out;
}

Result<IngestResult> Ingest(const rdf::TripleStore* store,
                            const rdf::Dictionary* dict,
                            const rdf::Schema* schema,
                            const std::vector<cq::ConjunctiveQuery>& workload,
                            const TuningConfig& options,
                            rdf::Statistics* external_stats,
                            SessionCaches* caches) {
  Result<IngestResult> out =
      IngestEnvironment(store, dict, schema, workload.size(), options,
                        external_stats, caches);
  if (!out.ok()) return out;
  const bool pre_reformulate =
      options.entailment == EntailmentMode::kPreReformulate;
  for (const cq::ConjunctiveQuery& q : workload) {
    Result<IngestedQuery> one = IngestQuery(q, schema, options, caches);
    if (!one.ok()) return one.status();
    out->queries.push_back(&q);
    out->minimized.push_back(std::move(one->minimized));
    if (pre_reformulate) {
      out->reformulated.push_back(std::move(one->reformulated));
    }
  }
  return out;
}

}  // namespace rdfviews::vsel::pipeline
