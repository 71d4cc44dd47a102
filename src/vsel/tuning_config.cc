// TuningConfig::Validate — the one place bad knob combinations are named
// and rejected before any layer (session, pipeline, daemon verb) acts on
// them.
#include <cmath>
#include <string>

#include "vsel/options.h"

namespace rdfviews::vsel {

namespace {

Status Bad(const std::string& field, const std::string& why) {
  return Status::InvalidArgument("TuningConfig." + field + " " + why);
}

bool NonFinite(double v) { return !std::isfinite(v); }

}  // namespace

Status TuningConfig::Validate() const {
  // Search limits: budgets and caps may be "unlimited" (zero,
  // max_states included — the engines and the apportioner treat 0 as
  // uncapped) but never negative.
  if (NonFinite(limits.time_budget_sec) || limits.time_budget_sec < 0) {
    return Bad("limits.time_budget_sec",
               "must be >= 0 seconds (0 = unlimited)");
  }
  if (heuristics.vb_overlap < 0) {
    return Bad("heuristics.vb_overlap", "must be >= 0 shared nodes");
  }

  // Cost weights: every component weight is a nonnegative finite scale.
  if (NonFinite(weights.cs) || weights.cs < 0)
    return Bad("weights.cs", "must be a finite weight >= 0");
  if (NonFinite(weights.cr) || weights.cr < 0)
    return Bad("weights.cr", "must be a finite weight >= 0");
  if (NonFinite(weights.cm) || weights.cm < 0)
    return Bad("weights.cm", "must be a finite weight >= 0");
  if (NonFinite(weights.c1) || weights.c1 < 0)
    return Bad("weights.c1", "must be a finite weight >= 0");
  if (NonFinite(weights.c2) || weights.c2 < 0)
    return Bad("weights.c2", "must be a finite weight >= 0");
  if (NonFinite(weights.f) || weights.f < 0)
    return Bad("weights.f", "must be a finite fan-out factor >= 0");

  // Retry / watchdog: at least one attempt and a nonnegative deadline.
  if (robust.retry.max_attempts == 0) {
    return Bad("robust.retry.max_attempts",
               "must be >= 1 (the first try counts as an attempt)");
  }
  if (NonFinite(robust.partition_deadline_sec) ||
      robust.partition_deadline_sec < 0) {
    return Bad("robust.partition_deadline_sec",
               "must be >= 0 seconds (0 = no watchdog)");
  }

  return Status::OK();
}

}  // namespace rdfviews::vsel
