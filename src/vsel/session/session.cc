#include "vsel/session/session.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <exception>
#include <iterator>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_set>
#include <utility>

#include "common/logging.h"
#include "common/telemetry/metrics.h"
#include "common/telemetry/trace.h"
#include "vsel/pipeline/executor.h"

namespace rdfviews::vsel {

// ---- TuningHandle ----------------------------------------------------------

TuningHandle::~TuningHandle() {
  Cancel();
  Body never_ran;
  {
    std::lock_guard<std::mutex> lock(run_mu_);
    never_ran = std::move(deferred_);
  }
  if (never_ran) never_ran(/*run=*/false);
  std::lock_guard<std::mutex> lock(run_mu_);
  if (worker_.joinable()) worker_.join();
}

void TuningHandle::WaitDone() {
  {
    std::lock_guard<std::mutex> lock(run_mu_);
    if (worker_.joinable()) worker_.join();
  }
  std::unique_lock<std::mutex> lock(shared_->mu);
  shared_->finished.wait(
      lock, [this] { return shared_->done.load(std::memory_order_acquire); });
}

bool TuningHandle::Poll() const {
  return shared_->done.load(std::memory_order_acquire);
}

TuningProgress TuningHandle::Current() const {
  std::lock_guard<std::mutex> lock(shared_->mu);
  TuningProgress p = shared_->progress;
  p.cancel_requested = shared_->stop.stop_requested();
  p.done = shared_->done.load(std::memory_order_acquire);
  return p;
}

void TuningHandle::Cancel() { shared_->stop.RequestStop(); }

Result<Recommendation> TuningHandle::Wait() {
  WaitDone();
  std::lock_guard<std::mutex> lock(shared_->mu);
  return shared_->result;
}

Status TuningHandle::WaitStatus() {
  WaitDone();
  std::lock_guard<std::mutex> lock(shared_->mu);
  return shared_->status;
}

Result<Recommendation> TuningHandle::TakeResult() {
  WaitDone();
  std::lock_guard<std::mutex> lock(shared_->mu);
  Result<Recommendation> out = std::move(shared_->result);
  shared_->result =
      shared_->status.ok()
          ? Status::NotFound("TuningHandle: the recommendation was taken")
          : shared_->status;
  return out;
}

Status TuningHandle::Run() {
  Body body;
  {
    std::lock_guard<std::mutex> lock(run_mu_);
    body = std::move(deferred_);
  }
  if (body) body(/*run=*/true);
  return WaitStatus();
}

// ---- TuningSession ---------------------------------------------------------

namespace {

/// Debug cross-check of an update's carried stage-1 results: they must be
/// what a full Ingest of the next workload through the session caches
/// returns, which for every query is the cache entry under its exact key
/// (each live query went through IngestQuery with those caches when it was
/// added, and entries are never replaced). Read here directly rather than
/// by re-running Ingest, so a Debug build moves vsel_ingest_queries_total
/// exactly as a Release build does.
bool CarriedIngestMatches(const pipeline::IngestResult& ingest,
                          const pipeline::SessionCaches& caches,
                          EntailmentMode entailment) {
  const size_t n = ingest.queries.size();
  const bool pre_reformulate = entailment == EntailmentMode::kPreReformulate;
  if (ingest.minimized.size() != n ||
      ingest.reformulated.size() != (pre_reformulate ? n : 0)) {
    return false;
  }
  for (size_t i = 0; i < n; ++i) {
    const cq::ConjunctiveQuery& q = *ingest.queries[i];
    if (!ValidateWorkloadQuery(q).ok()) return false;
    const std::string key = pipeline::ExactQueryKey(q);
    auto m = caches.minimize.find(key);
    if (m == caches.minimize.end() || m->second != ingest.minimized[i]) {
      return false;
    }
    if (pre_reformulate) {
      auto r = caches.reformulate.find(key);
      if (r == caches.reformulate.end() ||
          r->second != ingest.reformulated[i]) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace

TuningSession::TuningSession(
    const rdf::TripleStore* store, const rdf::Dictionary* dict,
    const TuningConfig& options, const rdf::Schema* schema,
    std::shared_ptr<serialize::PartitionCacheBackend> cache_backend)
    : store_(store),
      dict_(dict),
      schema_(schema),
      options_(options),
      cache_backend_(std::move(cache_backend)) {
  RDFVIEWS_CHECK(store_ != nullptr && store_->built());
  config_status_ = options_.Validate();
  const serialize::CacheIdentity identity =
      serialize::ComputeCacheIdentity(*store_, options_);
  if (cache_backend_ == nullptr) {
    if (!options_.cache.cache_dir.empty()) {
      cache_backend_ = std::make_shared<serialize::DirCacheBackend>(
          options_.cache.cache_dir, identity);
    } else {
      cache_backend_ = std::make_shared<serialize::InMemoryCacheBackend>();
    }
  }
  // Identity-salt every key handed to the backend (see cache_key_prefix_):
  // sessions with different options sharing one backend object address
  // disjoint key spaces instead of consuming each other's outcomes.
  cache_key_prefix_ = serialize::IdentityKeyBytes(identity);
}

TuningSession::~TuningSession() = default;

Result<Recommendation> TuningSession::Update(
    const std::vector<cq::ConjunctiveQuery>& add_queries,
    const std::vector<std::string>& remove_queries) {
  if (busy_.exchange(true)) {
    return Status::InvalidArgument(
        "TuningSession: an update is already in flight");
  }
  Result<Recommendation> rec =
      DoUpdate(add_queries, remove_queries, nullptr, nullptr);
  busy_.store(false);
  return rec;
}

std::shared_ptr<TuningHandle> TuningSession::UpdateAsync(
    std::vector<cq::ConjunctiveQuery> add_queries,
    std::vector<std::string> remove_queries) {
  return StartUpdate(std::move(add_queries), std::move(remove_queries),
                     /*deferred=*/false);
}

std::shared_ptr<TuningHandle> TuningSession::UpdateDeferred(
    std::vector<cq::ConjunctiveQuery> add_queries,
    std::vector<std::string> remove_queries) {
  return StartUpdate(std::move(add_queries), std::move(remove_queries),
                     /*deferred=*/true);
}

std::shared_ptr<TuningHandle> TuningSession::StartUpdate(
    std::vector<cq::ConjunctiveQuery> add_queries,
    std::vector<std::string> remove_queries, bool deferred) {
  // Private constructor: not make_shared-able.
  std::shared_ptr<TuningHandle> handle(new TuningHandle());
  std::shared_ptr<TuningHandle::Shared> shared = handle->shared_;
  if (busy_.exchange(true)) {
    std::lock_guard<std::mutex> lock(shared->mu);
    shared->status = Status::InvalidArgument(
        "TuningSession: an update is already in flight");
    shared->result = shared->status;
    shared->done.store(true, std::memory_order_release);
    return handle;
  }
  ProgressFn track = [shared](const ProgressEvent& ev) {
    std::lock_guard<std::mutex> lock(shared->mu);
    switch (ev.kind) {
      case ProgressEvent::Kind::kBestImproved:
        shared->progress.best_cost = ev.best_cost;
        ++shared->progress.improvements;
        break;
      case ProgressEvent::Kind::kPartitionDone:
        ++shared->progress.partitions_done;
        shared->progress.partitions_total = ev.partitions_total;
        break;
      case ProgressEvent::Kind::kPartitionFailed:
        // Not terminal: a retry or an abandonment for the same partition
        // follows, and only those move the done/failed counts.
        break;
      case ProgressEvent::Kind::kPartitionRetry:
        ++shared->progress.partition_retries;
        break;
      case ProgressEvent::Kind::kPartitionAbandoned:
        ++shared->progress.partitions_done;
        ++shared->progress.partitions_failed;
        shared->progress.partitions_total = ev.partitions_total;
        break;
    }
  };
  // The body holds only the Shared block (never the handle), so the
  // handle may be dropped mid-run: its destructor cancels + joins from the
  // destroying thread, and the shared state outlives both. The session
  // itself must outlive the update (enforced by the handle's join — every
  // handle must be destroyed before the session, see the class comment);
  // once `done` is set under the shared mutex the body no longer touches
  // the session, so a waiter may destroy it.
  TuningHandle::Body body = [this, shared, track,
                             add = std::move(add_queries),
                             remove = std::move(remove_queries)](bool run) {
    Result<Recommendation> rec = Status::Internal(
        "TuningSession: the deferred update was dropped before it ran");
    if (run) {
      const StopToken token = shared->stop.token();
      // A deferred body runs on its caller's thread, which may swallow
      // exceptions (a daemon handler does): it must still finish the
      // update, or every waiter would wait forever.
      try {
        rec = DoUpdate(add, remove, &token, track);
      } catch (const std::exception& e) {
        rec = Status::Internal(std::string("TuningSession: update threw: ") +
                               e.what());
      }
    }
    {
      std::lock_guard<std::mutex> lock(shared->mu);
      shared->status = rec.status();
      shared->result = std::move(rec);
      busy_.store(false);
      shared->done.store(true, std::memory_order_release);
    }
    shared->finished.notify_all();
  };
  if (deferred) {
    handle->deferred_ = std::move(body);
  } else {
    handle->worker_ = std::thread([body = std::move(body)] { body(true); });
  }
  return handle;
}

Result<Recommendation> TuningSession::DoUpdate(
    const std::vector<cq::ConjunctiveQuery>& add_queries,
    const std::vector<std::string>& remove_queries,
    const StopToken* stop_override, const ProgressFn& progress_override) {
  if (!config_status_.ok()) return config_status_;
  // One tracer per update, armed through the thread-local context so every
  // stage below — and every cache access, serialize round-trip, partition
  // attempt, and backoff sleep inside them — lands in one tree rooted at
  // session.update. (pipeline::Run is the one-shot analogue.)
  std::unique_ptr<telemetry::Tracer> tracer;
  std::unique_ptr<telemetry::ScopedTraceContext> scope;
  if (options_.telemetry.trace) {
    tracer = std::make_unique<telemetry::Tracer>();
    scope = std::make_unique<telemetry::ScopedTraceContext>(
        telemetry::TraceContext{tracer.get(), 0});
  }
  telemetry::TraceSpan root("session.update");
  root.Annotate("adds", static_cast<uint64_t>(add_queries.size()));
  root.Annotate("removes", static_cast<uint64_t>(remove_queries.size()));

  // 1. Resolve the delta against the live workload without applying it:
  // the workload advances in place, and only when the update commits
  // (step 8). `dropped` marks the removed queries (empty: none removed).
  std::vector<bool> dropped;
  size_t num_dropped = 0;
  if (!remove_queries.empty()) {
    const std::unordered_set<std::string_view> drop(remove_queries.begin(),
                                                    remove_queries.end());
    std::unordered_set<std::string_view> matched;
    dropped.assign(workload_.size(), false);
    for (size_t i = 0; i < workload_.size(); ++i) {
      if (!drop.contains(workload_[i].name())) continue;
      dropped[i] = true;
      ++num_dropped;
      matched.insert(workload_[i].name());
    }
    for (const std::string& name : remove_queries) {
      if (!matched.contains(name)) {
        return Status::NotFound("TuningSession: no workload query named " +
                                name);
      }
    }
  }
  const size_t num_queries =
      workload_.size() - num_dropped + add_queries.size();
  root.Annotate("queries", static_cast<uint64_t>(num_queries));

  // 2. Effective options for this update: freeze cm after the first
  // calibration, and splice in the async stop token / progress tracker
  // (both compose with whatever the caller put into options_.limits).
  TuningConfig opts = options_;
  if (calibrated_) opts.auto_calibrate_cm = false;
  if (stop_override != nullptr) {
    opts.limits.stop = StopToken::Combine(options_.limits.stop,
                                          *stop_override);
  }
  if (progress_override) {
    ProgressFn user = options_.limits.on_progress;
    ProgressFn track = progress_override;
    opts.limits.on_progress = [user, track](const ProgressEvent& ev) {
      track(ev);
      if (user) user(ev);
    };
  }

  // 3. Ingest: the retained queries carry their stage-1 results, so only
  // the added ones run the per-query routine (validated, keyed, and served
  // from the session caches or minimized / reformulated), and the
  // statistics provider + materialization store are built exactly once
  // per session. No query is copied: the result points at workload_ and
  // add_queries.
  std::vector<pipeline::IngestedQuery> added;
  Result<pipeline::IngestResult> ingest =
      [&]() -> Result<pipeline::IngestResult> {
    telemetry::TraceSpan span("pipeline.ingest");
    Result<pipeline::IngestResult> out = pipeline::IngestEnvironment(
        store_, dict_, schema_, num_queries, opts,
        /*external_stats=*/nullptr, &caches_);
    if (!out.ok()) return out;
    const bool pre_reformulate =
        opts.entailment == EntailmentMode::kPreReformulate;
    for (size_t i = 0; i < workload_.size(); ++i) {
      if (!dropped.empty() && dropped[i]) continue;
      out->queries.push_back(&workload_[i]);
      out->minimized.push_back(ingested_[i].minimized);
      if (pre_reformulate) {
        out->reformulated.push_back(ingested_[i].reformulated);
      }
    }
    added.reserve(add_queries.size());
    for (const cq::ConjunctiveQuery& q : add_queries) {
      Result<pipeline::IngestedQuery> one =
          pipeline::IngestQuery(q, schema_, opts, &caches_);
      if (!one.ok()) return one.status();
      out->queries.push_back(&q);
      out->minimized.push_back(one->minimized);
      if (pre_reformulate) out->reformulated.push_back(one->reformulated);
      added.push_back(std::move(*one));
    }
    return out;
  }();
  if (!ingest.ok()) return ingest.status();
  RDFVIEWS_DCHECK(CarriedIngestMatches(*ingest, caches_, opts.entailment));
  if (cost_model_ == nullptr) {
    cost_model_ = std::make_unique<CostModel>(ingest->stats, opts.weights);
  }

  // 4. Partition and classify: backend hit -> clean, miss -> dirty.
  // Entries a persistent backend served crossed a process boundary and are
  // rehydrated first — re-interned and re-costed through the live model —
  // and discarded (the partition stays dirty) if the cost does not hold.
  pipeline::PartitionPlan plan = [&] {
    telemetry::TraceSpan span("pipeline.partition");
    return pipeline::PartitionWorkload(*ingest, opts);
  }();
  std::vector<pipeline::PreseededOutcome> preseeded(plan.groups.size());
  std::vector<std::unique_ptr<pipeline::PartitionSearchResult>> fetched(
      plan.groups.size());
  // Cached entries are only usable once this session's weights are
  // settled: a first update that still has cm calibration ahead of it must
  // search *every* partition — the calibration gate in SearchPartitions
  // needs every S0, and cached costs (a persistent file's, or a shared
  // backend's entries from an already-calibrated sibling session) were
  // computed under weights this model does not carry yet — so the backend
  // is not even consulted. With auto_calibrate_cm off — the recommended
  // configuration for persistent caches — restarts warm-start from the
  // very first update.
  const bool accept_cached = calibrated_ || !options_.auto_calibrate_cm;
  for (size_t p = 0; accept_cached && p < plan.groups.size(); ++p) {
    serialize::PartitionCacheBackend::Fetched hit;
    const bool have_hit = [&] {
      telemetry::TraceSpan span("cache.get");
      span.Annotate("partition", static_cast<uint64_t>(p));
      const auto t0 = std::chrono::steady_clock::now();
      // Any non-OK — genuine absence or a storage failure the backend
      // stack could not absorb — leaves the partition dirty; the session
      // can always fall back to searching.
      Status fetched = cache_backend_->Get(cache_key_prefix_ +
                                               plan.group_keys[p],
                                           &hit);
      static telemetry::Histogram* const latency =
          telemetry::MetricsRegistry::Default()->GetHistogram(
              "vsel_cache_op_ns", "op=\"get\"");
      latency->Observe(static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - t0)
              .count()));
      span.Annotate("hit", fetched.ok() ? "1" : "0");
      return fetched.ok();
    }();
    if (!have_hit) continue;
    // The re-cost check always runs for entries that crossed a process
    // boundary, and also for in-memory entries when the session's
    // *configured* calibration is on (opts carries the frozen effective
    // flag, always off here): a caller-shared backend can hold a sibling
    // session's entries searched under a *different* calibrated cm —
    // identical identity salt, different first workload — which only the
    // cost assertion can tell apart. (For this session's own entries the
    // check is nearly free: the state's memoized cost cache is valid.)
    if ((hit.needs_rehydration || options_.auto_calibrate_cm) &&
        !pipeline::RehydratePartitionOutcome(&hit.result,
                                             plan.groups[p].size(),
                                             *cost_model_)) {
      // Drop any decorator-tier copy of the poisoned entry first, so a
      // caching front (TieredCacheBackend) cannot keep serving it.
      (void)cache_backend_->Invalidate(cache_key_prefix_ +
                                       plan.group_keys[p]);
      cache_backend_->NoteRehydrationRejected();
      continue;
    }
    fetched[p] = std::make_unique<pipeline::PartitionSearchResult>(
        std::move(hit.result));
    preseeded[p] = {fetched[p].get(), hit.needs_rehydration};
  }

  // 5. Search the dirty partitions (cache hits are copied through). A
  // failed partition comes back as a failed PartitionOutcome, never as a
  // stage error (SearchPartitions only errors on stage-wide setup).
  PipelineReport report;
  Result<std::vector<pipeline::PartitionOutcome>> searches =
      [&]() -> Result<std::vector<pipeline::PartitionOutcome>> {
    telemetry::TraceSpan span("pipeline.search");
    span.Annotate("partitions", static_cast<uint64_t>(plan.groups.size()));
    return pipeline::SearchPartitions(*ingest, plan, cost_model_.get(), opts,
                                      &preseeded, &report);
  }();
  if (!searches.ok()) return searches.status();

  // 6. Collect the cacheable outcomes before the merge consumes the
  // results vector: every fresh partition whose search exhausted its space
  // is reusable. Truncated results (time / memory / cancel) and abandoned
  // partitions are *not* cached — those partitions stay dirty so a later
  // update (or Recommend()) retries exactly them.
  std::vector<std::pair<std::string, pipeline::PartitionSearchResult>>
      cacheable;
  for (size_t p = 0; p < plan.groups.size(); ++p) {
    if (preseeded[p].result != nullptr) continue;
    const pipeline::PartitionOutcome& o = (*searches)[p];
    if (o.ok() && o.result.search.stats.completed) {
      // Cheap COW copy, filed under the identity-salted key.
      cacheable.emplace_back(cache_key_prefix_ + plan.group_keys[p],
                             o.result);
    }
  }

  // 7. Merge cached + fresh partitions into the recommendation.
  Result<Recommendation> rec = [&] {
    telemetry::TraceSpan span("pipeline.merge");
    return pipeline::MergePartitions(*ingest, plan, std::move(*searches),
                                     cost_model_.get(), opts, &report);
  }();
  if (!rec.ok()) return rec.status();

  // 8. Commit only now that the whole update succeeded (a cancelled update
  // *is* a success — its recommendation is the valid current best): the
  // workload advances, the weights freeze, the completed searches become
  // reusable. A failed update leaves the session exactly as it was, so the
  // caller can retry the same delta.
  // The delta is applied in place: removed queries compact out, added ones
  // append, each with its stage-1 results (`ingest` points into the old
  // layout and is not read past this point). Everything that can throw —
  // copying the added queries, growing the two vectors — happens before
  // either vector changes, so they can not fall out of step.
  std::vector<cq::ConjunctiveQuery> added_queries(add_queries.begin(),
                                                  add_queries.end());
  auto make_room = [num_queries](auto& v) {
    if (v.capacity() < num_queries) {
      v.reserve(std::max(num_queries, 2 * v.capacity()));  // as push_back
    }
  };
  make_room(workload_);
  make_room(ingested_);
  if (num_dropped > 0) {
    size_t kept = 0;
    for (size_t i = 0; i < workload_.size(); ++i) {
      if (dropped[i]) continue;
      if (kept != i) {
        workload_[kept] = std::move(workload_[i]);
        ingested_[kept] = std::move(ingested_[i]);
      }
      ++kept;
    }
    workload_.erase(workload_.begin() + static_cast<std::ptrdiff_t>(kept),
                    workload_.end());
    ingested_.erase(ingested_.begin() + static_cast<std::ptrdiff_t>(kept),
                    ingested_.end());
  }
  std::move(added_queries.begin(), added_queries.end(),
            std::back_inserter(workload_));
  std::move(added.begin(), added.end(), std::back_inserter(ingested_));
  calibrated_ = true;
  for (const auto& [key, result] : cacheable) {
    telemetry::TraceSpan span("cache.put");
    const auto t0 = std::chrono::steady_clock::now();
    // A failed Put is a future miss, never an update failure.
    (void)cache_backend_->Put(key, result);
    static telemetry::Histogram* const latency =
        telemetry::MetricsRegistry::Default()->GetHistogram(
            "vsel_cache_op_ns", "op=\"put\"");
    latency->Observe(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count()));
  }
  // Bound the in-memory cache (persistent backends ignore the hint): keep
  // the most recently used max(64, 4 x partitions) entries, so recently
  // retired sub-workloads remain instantly re-addable while a drifting log
  // can not grow the session unboundedly.
  cache_backend_->Trim(std::max<size_t>(64, 4 * plan.groups.size()));

  // Close the root before harvesting so the exported tree is balanced, then
  // publish: the recommendation carries the bundle, and TelemetrySnapshot
  // serves it as the session's last completed update.
  if (tracer != nullptr) {
    root.End();
    auto bundle = std::make_shared<telemetry::RunTelemetry>();
    bundle->spans = tracer->Spans();
    bundle->metrics = telemetry::MetricsRegistry::Default()->Snapshot();
    rec->pipeline.telemetry = bundle;
    std::lock_guard<std::mutex> lock(telemetry_mu_);
    last_run_ = std::move(bundle);
  }
  return rec;
}

SessionTelemetry TuningSession::TelemetrySnapshot() const {
  SessionTelemetry out;
  out.metrics = telemetry::MetricsRegistry::Default()->Snapshot();
  std::lock_guard<std::mutex> lock(telemetry_mu_);
  out.last_update = last_run_;
  return out;
}

}  // namespace rdfviews::vsel
