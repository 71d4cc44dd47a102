#include "vsel/selector.h"

#include "common/logging.h"
#include "engine/executor.h"
#include "engine/materializer.h"
#include "vsel/session/session.h"

namespace rdfviews::vsel {

const char* EntailmentModeName(EntailmentMode mode) {
  switch (mode) {
    case EntailmentMode::kNone: return "none";
    case EntailmentMode::kSaturate: return "saturate";
    case EntailmentMode::kPreReformulate: return "pre-reformulation";
    case EntailmentMode::kPostReformulate: return "post-reformulation";
  }
  return "?";
}

Result<Recommendation> ViewSelector::Recommend(
    const std::vector<cq::ConjunctiveQuery>& workload,
    const TuningConfig& options) const {
  RDFVIEWS_CHECK(store_ != nullptr && store_->built());
  // The selector is the one-shot convenience wrapper over a TuningSession:
  // one update over the whole workload, caches discarded with the session.
  // Through the session this runs the staged pipeline (src/vsel/pipeline/),
  // so there is exactly one recommendation code path.
  TuningSession session(store_, dict_, options, schema_);
  return session.Update(workload);
}

const engine::Relation& MaterializedViews::ById(uint32_t view_id) const {
  for (size_t i = 0; i < view_ids.size(); ++i) {
    if (view_ids[i] == view_id) return relations[i];
  }
  RDFVIEWS_CHECK_MSG(false, "view v" << view_id << " not materialized");
  static engine::Relation empty;
  return empty;
}

size_t MaterializedViews::TotalBytes() const {
  size_t total = 0;
  for (const engine::Relation& r : relations) total += r.ByteSize();
  return total;
}

MaterializedViews Materialize(const Recommendation& rec) {
  MaterializedViews out;
  out.view_ids = rec.view_ids;
  for (size_t i = 0; i < rec.view_definitions.size(); ++i) {
    out.relations.push_back(engine::MaterializeUnionView(
        rec.view_definitions[i], rec.view_columns[i],
        *rec.materialization_store));
  }
  return out;
}

engine::Relation AnswerQuery(const Recommendation& rec,
                             const MaterializedViews& views,
                             size_t query_index) {
  RDFVIEWS_CHECK(query_index < rec.rewritings.size());
  engine::Relation result = engine::Execute(
      *rec.rewritings[query_index],
      [&](uint32_t id) -> const engine::Relation& { return views.ById(id); });
  result.DedupRows();
  return result;
}

}  // namespace rdfviews::vsel
