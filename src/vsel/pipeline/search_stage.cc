// Pipeline stage 3: budget apportioning and per-partition searches.
//
// Every partition searches its own initial state under a slice of the
// global budget proportional to its estimated enumeration cost (sum over
// its views of 2^atoms — see EnumerationCostWeight); slices round *up* (states)
// or are floored at a small positive minimum (time) so no partition is
// starved to zero, and partitions whose search exhausts its space before
// the slice expires return the unused seconds to a TimeBudgetPool that
// still-running partitions drain. All partitions share one CostModel — the
// interner and the statistics cache are internally synchronized, so
// concurrent partition searches reuse each other's per-distinct-view
// estimates — and cm is calibrated once, over the sum of the per-partition
// S0 breakdowns, which equals the monolithic S0 breakdown because every
// cost component is a sum over views / rewritings.
//
// Incremental (tuning-session) runs pass `preseeded`: partitions with a
// cached outcome are copied through without searching, budgets are
// apportioned over the dirty partitions only, and the reuse accounting
// lands in the PipelineReport. Initial states are built from the ingest
// stage's cached minimized components — no cq::Minimize here.
//
// Failure containment (options.robust): each partition's search attempt
// runs behind an exception -> Status boundary under an optional hard
// watchdog deadline (a per-attempt StopSource combined into the search's
// token, so even an injected hang is cut loose), failed attempts are
// retried with deterministic jittered backoff while the partition's time
// slice lasts, and an exhausted partition comes back as a failed
// PartitionOutcome for the merge stage to degrade around — never as a
// stage error, and never as an escaped exception.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <new>
#include <utility>

#include "common/fault.h"
#include "common/logging.h"
#include "common/telemetry/metrics.h"
#include "common/telemetry/trace.h"
#include "common/thread_pool.h"
#include "vsel/pipeline/executor.h"
#include "vsel/pipeline/pipeline.h"
#include "vsel/robust/retry.h"
#include "vsel/robust/watchdog.h"
#include "vsel/search.h"

namespace rdfviews::vsel::pipeline {

namespace {

/// Time slices below this are rounded up so every partition can at least
/// admit a handful of states before stop_time fires.
constexpr double kMinTimeBudgetSec = 1e-3;

/// Retry backoff of a failed partition attempt (see RetryPolicy): 5 ms
/// before the second attempt, doubling per retry, capped at 250 ms.
constexpr double kRetryBackoffSec = 0.005;
constexpr double kRetryMaxBackoffSec = 0.25;

/// Apportionment weight of a partition: the estimated enumeration cost of
/// its initial state, sum over views of 2^atoms (the VB stratum of a
/// k-atom view explores its view-break lattice, which grows with 2^k; the
/// other strata are polynomial and dominated by it). Query *count* — the
/// old weight — mis-sizes slices badly when partition query shapes differ:
/// one 6-atom query costs ~64x one 1-atom query, not 1x. The exponent is
/// clamped so a pathological view cannot overflow, and the weight floored
/// at 1 so every partition keeps a positive share.
size_t EnumerationCostWeight(const State& s0) {
  size_t w = 0;
  for (const View& v : s0.views()) {
    w += static_cast<size_t>(1) << std::min<size_t>(v.def.len(), 20);
  }
  return std::max<size_t>(w, 1);
}

/// Builds partition `group`'s initial state (the monolithic S0 restricted
/// to the group's queries, in workload order) from the ingest stage's
/// cached minimized forms.
Result<State> MakePartitionInitialState(const IngestResult& ingest,
                                        const std::vector<size_t>& group,
                                        const TuningConfig& options) {
  RDFVIEWS_CHECK(ingest.minimized.size() == ingest.queries.size());
  if (options.entailment == EntailmentMode::kPreReformulate) {
    std::vector<cq::ConjunctiveQuery> queries;
    std::vector<std::vector<cq::ConjunctiveQuery>> disjuncts;
    queries.reserve(group.size());
    disjuncts.reserve(group.size());
    for (size_t qi : group) {
      queries.push_back(*ingest.queries[qi]);
      disjuncts.push_back(ingest.minimized[qi]->minimized_disjuncts);
    }
    return MakeReformulatedInitialStateFromMinimized(queries, disjuncts);
  }
  std::vector<cq::ConjunctiveQuery> minimized;
  minimized.reserve(group.size());
  for (size_t qi : group) {
    minimized.push_back(ingest.minimized[qi]->minimized);
  }
  return MakeInitialStateFromMinimized(minimized);
}

/// The paper's statistics-gathering phase: count every initial-state view
/// atom and all its relaxations. Every view the search can create only
/// relaxes these atoms, so after this the pattern-count cache is warm for
/// the whole run (all partitions, all workers).
void CollectWorkloadStatistics(const std::vector<State>& initial_states,
                               const rdf::Statistics& stats) {
  for (const State& s0 : initial_states) {
    for (const View& v : s0.views()) {
      for (const cq::Atom& atom : v.def.atoms()) {
        stats.CollectWithRelaxations(atom.ToPattern());
      }
    }
  }
}

}  // namespace

bool FanOutPartitions(const TuningConfig& options,
                      size_t partitions_searched) {
  return partitions_searched > 1 && options.limits.num_threads > 1;
}

void TimeBudgetPool::Deposit(double sec) {
  if (sec <= 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  spare_sec_ += sec;
}

double TimeBudgetPool::Take() {
  std::lock_guard<std::mutex> lock(mu_);
  return std::exchange(spare_sec_, 0.0);
}

double TimeBudgetPool::balance() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spare_sec_;
}

std::vector<SearchLimits> ApportionSearchLimits(
    const SearchLimits& total, const std::vector<size_t>& weights) {
  size_t weight_sum = 0;
  for (size_t w : weights) weight_sum += w;
  RDFVIEWS_CHECK_MSG(weight_sum > 0, "apportioning needs positive weights");
  std::vector<SearchLimits> out;
  out.reserve(weights.size());
  for (size_t w : weights) {
    SearchLimits share = total;
    if (total.max_states > 0) {
      // Ceiling division: every partition may remember at least one state.
      // 128-bit intermediate so huge effectively-unlimited budgets times
      // large weights can not wrap into a starving share.
      share.max_states = static_cast<size_t>(
          (static_cast<unsigned __int128>(total.max_states) * w +
           weight_sum - 1) /
          weight_sum);
    }
    if (total.time_budget_sec > 0) {
      share.time_budget_sec =
          std::max(total.time_budget_sec * static_cast<double>(w) /
                       static_cast<double>(weight_sum),
                   kMinTimeBudgetSec);
    }
    out.push_back(share);
  }
  return out;
}

Result<std::vector<PartitionOutcome>> SearchPartitions(
    const IngestResult& ingest, const PartitionPlan& plan,
    CostModel* cost_model, const TuningConfig& options,
    const std::vector<PreseededOutcome>* preseeded,
    PipelineReport* report) {
  const size_t num_partitions = plan.groups.size();
  RDFVIEWS_CHECK(num_partitions > 0);
  RDFVIEWS_CHECK(preseeded == nullptr ||
                 preseeded->size() == num_partitions);
  auto seeded = [&](size_t p) {
    return preseeded != nullptr && (*preseeded)[p].result != nullptr;
  };

  // Every slot starts as an honest failure: "never ran". A pool task that
  // dies before claiming its slot (fault::kPoolTask) then leaves a real
  // outcome — attempts == 0, abandoned — not a fabricated one, and the
  // merge stage degrades around it like any other failed partition.
  std::vector<PartitionOutcome> out(num_partitions);
  for (size_t p = 0; p < num_partitions; ++p) {
    out[p].error =
        Status::Internal("partition search never ran (task lost)");
    out[p].health.partition = p;
    out[p].health.queries = plan.groups[p].size();
    out[p].health.attempts = 0;
    out[p].health.last_code = StatusCode::kInternal;
    out[p].health.last_error = out[p].error.message();
    out[p].health.abandoned = true;
  }

  // Initial states of the partitions that will actually search, in
  // partition order (cached partitions need none — their outcome already
  // embodies it). A partition whose S0 can not be built is contained as a
  // failed outcome, not a stage error: its siblings still tune.
  std::vector<size_t> dirty;
  std::vector<State> initial_states(num_partitions);
  std::vector<size_t> weights;
  for (size_t p = 0; p < num_partitions; ++p) {
    if (seeded(p)) continue;
    Result<State> s0 =
        MakePartitionInitialState(ingest, plan.groups[p], options);
    if (!s0.ok()) {
      out[p].error = s0.status();
      out[p].health.attempts = 1;
      out[p].health.last_code = s0.status().code();
      out[p].health.last_error = s0.status().message();
      continue;
    }
    initial_states[p] = std::move(*s0);
    dirty.push_back(p);
    weights.push_back(EnumerationCostWeight(initial_states[p]));
  }
  if (report != nullptr) {
    report->partitions_searched = dirty.size();
    report->partitions_reused = num_partitions - dirty.size();
    report->partitions_rehydrated = 0;
    for (size_t p = 0; p < num_partitions; ++p) {
      if (seeded(p) && (*preseeded)[p].rehydrated) {
        ++report->partitions_rehydrated;
      }
    }
  }
  {
    std::vector<State> warm;
    warm.reserve(dirty.size());
    for (size_t p : dirty) warm.push_back(initial_states[p]);
    CollectWorkloadStatistics(warm, *ingest.stats);
  }

  // Calibrate cm once over the whole workload: the monolithic S0 breakdown
  // is the component-wise sum of the per-partition breakdowns. Sessions
  // calibrate on their first update (never preseeded) and freeze the
  // weights afterwards, so the cached best states stay cost-comparable.
  // A partition whose S0 failed to build is excluded (its breakdown does
  // not exist); its queries rejoin the calibration when a later update
  // retries it — which is why exactness-sensitive chaos tests pin the
  // weights (auto_calibrate_cm = false) instead.
  if (options.auto_calibrate_cm && dirty.size() == num_partitions) {
    CostBreakdown s0_breakdown;
    for (size_t p : dirty) {
      CostBreakdown b = cost_model->Breakdown(initial_states[p]);
      s0_breakdown.vso += b.vso;
      s0_breakdown.rec += b.rec;
      s0_breakdown.vmc += b.vmc;
      s0_breakdown.total += b.total;
    }
    CostWeights w = cost_model->weights();
    w.cm = CostModel::CalibrateCm(s0_breakdown, w);
    cost_model->set_weights(w);
  }

  auto emit = [&](ProgressEvent::Kind kind, size_t p, size_t attempt,
                  double best_cost, double elapsed) {
    if (!options.limits.on_progress) return;
    ProgressEvent ev;
    ev.kind = kind;
    ev.best_cost = best_cost;
    ev.elapsed_sec = elapsed;
    ev.partition = p;
    ev.partitions_total = num_partitions;
    ev.attempt = attempt;
    options.limits.on_progress(ev);
  };

  for (size_t p = 0; p < num_partitions; ++p) {
    if (!seeded(p)) continue;
    telemetry::TraceEvent(
        "partition.reused",
        {{"partition", std::to_string(p)},
         {"rehydrated", (*preseeded)[p].rehydrated ? "1" : "0"}});
    // Cheap: views/rewritings are shared COW pointers.
    out[p].result = *(*preseeded)[p].result;
    out[p].error = Status::OK();
    out[p].health = PartitionHealth{};
    out[p].health.partition = p;
    out[p].health.queries = plan.groups[p].size();
    emit(ProgressEvent::Kind::kPartitionDone, p, 0,
         out[p].result.search.stats.best_cost, 0);
  }
  if (dirty.empty()) return out;

  std::vector<SearchLimits> limits =
      ApportionSearchLimits(options.limits, weights);
  const bool fan_out = FanOutPartitions(options, dirty.size());
  for (SearchLimits& l : limits) {
    // Partitions are the unit of parallelism when there are several; a
    // single partition keeps the parallel frontier engine instead.
    l.num_threads = fan_out ? 1 : options.limits.num_threads;
  }

  const size_t max_attempts =
      std::max<size_t>(options.robust.retry.max_attempts, 1);
  const double deadline_sec = options.robust.partition_deadline_sec;
  robust::Watchdog watchdog;

  // Where attempts physically run: the configured executor (the fleet
  // path) or the in-process default. All retry/backoff/watchdog policy
  // below is executor-agnostic — a remote worker dying mid-partition looks
  // exactly like a failed local attempt and is re-queued the same way.
  LocalExecutor local_executor;
  PartitionExecutor* executor = options.executor != nullptr
                                    ? options.executor.get()
                                    : static_cast<PartitionExecutor*>(
                                          &local_executor);

  TimeBudgetPool spare;
  std::atomic<double> regranted{0};
  // Captured on the submitting thread so pool tasks parent their spans
  // under the caller's pipeline.search span instead of losing the tree at
  // the thread boundary.
  const telemetry::TraceContext trace_ctx = telemetry::CurrentTraceContext();
  auto run_one = [&](size_t di) {
    const telemetry::ScopedTraceContext trace_scope(trace_ctx);
    const size_t p = dirty[di];
    PartitionOutcome& slot = out[p];
    telemetry::TraceSpan partition_span("partition.search");
    partition_span.Annotate("partition", static_cast<uint64_t>(p));
    partition_span.Annotate("queries",
                            static_cast<uint64_t>(plan.groups[p].size()));
    // The task claimed its slot: replace the "never ran" pre-fill with a
    // fresh health record this loop now owns.
    slot.health = PartitionHealth{};
    slot.health.partition = p;
    slot.health.queries = plan.groups[p].size();
    const auto partition_start = std::chrono::steady_clock::now();
    auto wall_spent = [&] {
      return std::chrono::duration<double>(
                 std::chrono::steady_clock::now() - partition_start)
          .count();
    };

    double slice = limits[di].time_budget_sec;  // 0 = unlimited
    if (slice > 0) {
      // Budget re-granting: adopt whatever early finishers returned.
      double bonus = spare.Take();
      if (bonus > 0) {
        slice += bonus;
        double cur = regranted.load(std::memory_order_relaxed);
        while (!regranted.compare_exchange_weak(
            cur, cur + bonus, std::memory_order_relaxed)) {
        }
      }
    }

    Status last = Status::Internal("partition search never ran");
    for (size_t attempt = 1; attempt <= max_attempts; ++attempt) {
      // A user stop never skips the *first* attempt: a search started with
      // a stopped token returns its valid S0 best immediately (the anytime
      // contract) — it only suppresses retries.
      if (attempt > 1 && options.limits.stop.stop_requested()) break;
      const double remaining =
          slice > 0 ? slice - wall_spent() : 0;
      if (slice > 0 && attempt > 1 && remaining < kMinTimeBudgetSec) {
        break;  // slice exhausted; don't start an attempt that can't run
      }
      slot.health.attempts = attempt;

      telemetry::TraceSpan attempt_span("search.attempt");
      attempt_span.Annotate("attempt", static_cast<uint64_t>(attempt));
      const auto attempt_start = std::chrono::steady_clock::now();

      SearchLimits l = limits[di];
      l.time_budget_sec =
          slice > 0 ? std::max(remaining, kMinTimeBudgetSec) : 0;
      // Hard per-attempt deadline: the watchdog fires a StopSource combined
      // into the attempt's token, so the search — and any injected hang
      // under the containment boundary (ScopedHangToken) — observes the
      // stop exactly like a user cancellation.
      StopSource attempt_deadline;
      uint64_t ticket = 0;
      if (deadline_sec > 0) {
        l.stop = StopToken::Combine(options.limits.stop,
                                    attempt_deadline.token());
        ticket = watchdog.Arm(deadline_sec, attempt_deadline);
      }
      const fault::ScopedHangToken hang_guard(l.stop);

      Result<SearchResult> r =
          Status::Internal("partition search attempt did not run");
      try {
        PartitionWorkUnit unit;
        unit.partition = p;
        unit.attempt = attempt;
        // Tolerate hand-built plans without keys (key-less units are only
        // a problem for executors that ship them, which reject them).
        if (p < plan.group_keys.size()) unit.key = plan.group_keys[p];
        unit.initial_state = &initial_states[p];
        unit.group_size = plan.groups[p].size();
        r = executor->ExecuteAttempt(unit, options, l, cost_model);
      } catch (const std::bad_alloc&) {
        r = Status::ResourceExhausted("partition search ran out of memory");
      } catch (const std::exception& e) {
        r = Status::Internal(std::string("partition search threw: ") +
                             e.what());
      } catch (...) {
        r = Status::Internal("partition search threw a non-exception");
      }
      if (ticket != 0) watchdog.Disarm(ticket);

      const bool user_stopped = options.limits.stop.stop_requested();
      if (r.ok() && ticket != 0 && watchdog.Fired(ticket) &&
          r->stats.cancelled && !user_stopped) {
        // The watchdog cut a still-running attempt: a deadline overrun is
        // a failure (the hard deadline exists to bound wedged attempts),
        // unlike an ordinary in-budget truncation, which stays a valid
        // anytime result.
        r = Status::TimedOut("partition search overran its watchdog "
                             "deadline");
        telemetry::TraceEvent("watchdog.fire",
                              {{"partition", std::to_string(p)},
                               {"attempt", std::to_string(attempt)}});
      }

      // Close the attempt span here — outcome annotated, latency observed —
      // so a retry's backoff sleep is charged to the partition, not to the
      // attempt that already failed.
      {
        static telemetry::Histogram* const attempt_ns =
            telemetry::MetricsRegistry::Default()->GetHistogram(
                "vsel_partition_attempt_ns");
        attempt_ns->Observe(static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - attempt_start)
                .count()));
      }
      attempt_span.Annotate(
          "outcome", r.ok() ? "ok"
                            : (r.status().code() == StatusCode::kTimedOut
                                   ? "timeout"
                                   : "error"));
      attempt_span.End();

      if (r.ok()) {
        if (slice > 0 && r->stats.completed) {
          // Space exhausted with time to spare: return the remainder.
          spare.Deposit(slice - wall_spent());
        }
        slot.result.initial_cost = r->stats.initial_cost;
        slot.result.search = std::move(*r);
        slot.error = Status::OK();
        slot.health.recovered = attempt > 1;
        slot.health.wall_spent_sec = wall_spent();
        // attempt 0 for a plain first-try success (the documented "outside
        // the retry machinery" value); the real number marks a recovery.
        emit(ProgressEvent::Kind::kPartitionDone, p, attempt > 1 ? attempt : 0,
             slot.result.search.stats.best_cost,
             slot.result.search.stats.elapsed_sec);
        return;
      }

      last = r.status();
      slot.health.last_code = last.code();
      slot.health.last_error = last.message();
      emit(ProgressEvent::Kind::kPartitionFailed, p, attempt, 0,
           wall_spent());
      if (attempt >= max_attempts || user_stopped) break;
      double backoff = robust::BackoffDelaySec(
          kRetryBackoffSec, kRetryMaxBackoffSec, p, attempt + 1);
      if (slice > 0) {
        const double left = slice - wall_spent();
        if (left < kMinTimeBudgetSec) break;  // no room for another try
        backoff = std::min(backoff, std::max(left - kMinTimeBudgetSec, 0.0));
      }
      {
        telemetry::TraceSpan backoff_span("retry.backoff");
        backoff_span.Annotate("partition", static_cast<uint64_t>(p));
        backoff_span.Annotate("next_attempt",
                              static_cast<uint64_t>(attempt + 1));
        robust::SleepWithStop(backoff, &options.limits.stop);
      }
      if (options.limits.stop.stop_requested()) break;
      emit(ProgressEvent::Kind::kPartitionRetry, p, attempt + 1, 0,
           wall_spent());
    }

    slot.error = last;
    slot.health.abandoned = true;
    slot.health.wall_spent_sec = wall_spent();
    emit(ProgressEvent::Kind::kPartitionAbandoned, p,
         std::max<size_t>(slot.health.attempts, 1), 0,
         slot.health.wall_spent_sec);
  };
  if (fan_out) {
    ThreadPool pool(std::min(options.limits.num_threads, dirty.size()));
    for (size_t di = 0; di < dirty.size(); ++di) {
      pool.Submit([&run_one, di] { run_one(di); });
    }
    pool.WaitIdle();
  } else {
    for (size_t di = 0; di < dirty.size(); ++di) run_one(di);
  }

  if (report != nullptr) {
    report->budget_regranted_sec = regranted.load(std::memory_order_relaxed);
    report->partitions_failed = 0;
    report->partition_retries = 0;
    report->partition_health.clear();
    for (const PartitionOutcome& o : out) {
      if (!o.ok()) ++report->partitions_failed;
      if (o.health.attempts > 1) {
        report->partition_retries += o.health.attempts - 1;
      }
      // Record every partition the retry machinery touched: failed at
      // least once (recovered or abandoned) or never ran at all.
      if (!o.ok() || o.health.recovered) {
        report->partition_health.push_back(o.health);
      }
    }
  }
  return out;
}

}  // namespace rdfviews::vsel::pipeline
