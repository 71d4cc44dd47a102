// Tuning sessions: the long-lived, incremental, cancellable view-selection
// API. Where ViewSelector::Recommend answers "what views for this
// workload?" once, a TuningSession answers it *continuously* as the
// workload evolves — the regime of a live SPARQL endpoint whose query log
// streams in (and the paper's anytime framing, Sec. 5: every strategy can
// be stopped at any moment with a valid best-so-far).
//
// Lifecycle:
//
//     TuningSession session(&store, &dict, options);
//     Recommendation r0 = *session.Update(initial_queries);
//     ...workload drifts...
//     Recommendation r1 = *session.Update(new_queries, dropped_names);
//
// Each Update runs the staged pipeline (ingest → partition → search →
// merge), but the session carries state across updates:
//   - each live query's stage-1 results (its MinimizedQuery and, under
//     kPreReformulate, its reformulation), next to the query itself, so an
//     update validates, keys and ingests only the queries it adds; the
//     results of every query ever seen also stay in an exact-key cache, so
//     a re-added query is not minimized again;
//   - one statistics snapshot and one CostModel (with its hash-consing
//     ViewInterner), so every distinct view is costed once per *session*;
//   - a per-partition result cache keyed by the partition's canonical
//     workload key (minimized, renaming-insensitive): partitions whose
//     sub-workload is unchanged — the clean partitions — are served from
//     cache, and only the *dirty* partitions (touched by the delta) are
//     re-searched; the merge then reuses the cost terms each partition's
//     best state already carries.
// An update of k added and m removed queries over N live ones therefore
// searches O(dirty partitions) and ingests O(k) queries. What still grows
// with N is pointer-level: the partition plan (commonality graph and group
// keys), one backend lookup per partition, and the merge's re-basing of
// every partition's best state into one id space.
//
// Invalidation rule: a partition is dirty iff its canonical workload key —
// the concatenated renaming-insensitive keys of its member queries'
// minimized forms, in workload order — was never completed before. Adding
// or removing a query changes the key of exactly the partitions whose
// commonality component it touches. Results of searches that did not
// complete (time/memory exhausted, cancelled) are never cached.
//
// Exactness: whenever the partition decomposition is provably exact (see
// pipeline.h) and every partition search completes, an incremental Update
// yields a recommendation with the same view-set signature and cost as a
// from-scratch Recommend over the final workload. cm auto-calibration runs
// on the session's *first* update and the weights are then frozen, so
// cached and fresh partition results stay cost-comparable; compare against
// a from-scratch run with the same weights (or auto_calibrate_cm = false).
//
// Cancellation & observability: Update honors TuningConfig::limits.stop
// (a cooperative StopToken checked by every engine — serial, parallel
// frontier, [21] competitors) and streams ProgressEvents (best-cost
// improvements, per-partition completions) through limits.on_progress.
// UpdateAsync / RecommendAsync run the update on a background thread and
// return a TuningHandle with Poll / Current / Cancel / Wait — Cancel stops
// all partitions within a bounded number of state expansions, and Wait
// then returns the valid current-best recommendation. UpdateDeferred
// returns the same handle without a thread: the update runs when its
// owner calls TuningHandle::Run, on the owner's thread, while other
// threads poll, cancel and wait on it as on a background update.
#ifndef RDFVIEWS_VSEL_SESSION_SESSION_H_
#define RDFVIEWS_VSEL_SESSION_SESSION_H_

#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/stop_token.h"
#include "common/telemetry/export.h"
#include "vsel/pipeline/pipeline.h"
#include "vsel/selector.h"
#include "vsel/serialize/partition_cache.h"

namespace rdfviews::vsel {

/// What TuningSession::TelemetrySnapshot returns: a fresh process-wide
/// registry snapshot plus the last completed update's span bundle.
struct SessionTelemetry {
  telemetry::MetricsSnapshot metrics;
  /// The last successful Update's telemetry (same object the update's
  /// Recommendation carries in pipeline.telemetry); null before the first
  /// completed update or when tracing is disabled.
  std::shared_ptr<const telemetry::RunTelemetry> last_update;
};

/// Snapshot of an asynchronous update's progress (TuningHandle::Current).
/// The counts are monotone over the run, so polling callers can render a
/// live "anytime" view.
struct TuningProgress {
  /// Cost carried by the latest best-cost improvement event — the
  /// *emitting search's* local best (0 until the first event). With
  /// several partitions searching, costs from different partitions are
  /// not comparable to each other (the global cost is their sum), so
  /// treat this as an activity indicator, not a global optimum.
  double best_cost = 0;
  /// How many best-cost improvement events have fired.
  uint64_t improvements = 0;
  /// Partitions finished (searched, served from cache, or abandoned after
  /// exhausting their retry budget) / total.
  size_t partitions_done = 0;
  size_t partitions_total = 0;
  /// Partitions abandoned so far this update (each also counts toward
  /// partitions_done; the recommendation will be degraded when nonzero).
  size_t partitions_failed = 0;
  /// Retry attempts made beyond partitions' first tries so far.
  size_t partition_retries = 0;
  bool cancel_requested = false;
  bool done = false;
};

/// Handle to one in-flight update, running on its own thread (UpdateAsync)
/// or deferred to its owner's thread (UpdateDeferred + Run). Thread-safe.
/// Destroying the handle cancels the update and joins the worker (always
/// from the destroying thread — the worker itself only ever holds the
/// handle's internal shared state, never the handle); a deferred update
/// that never ran is finished with an error instead, so the session is
/// free again.
class TuningHandle {
 public:
  ~TuningHandle();
  TuningHandle(const TuningHandle&) = delete;
  TuningHandle& operator=(const TuningHandle&) = delete;

  /// True once the update finished (successfully, with an error, or after
  /// a cancellation) and Wait() will not block.
  bool Poll() const;

  /// The live progress snapshot.
  TuningProgress Current() const;

  /// Requests a cooperative stop: every engine observes the token within a
  /// bounded number of state expansions and returns its current best.
  void Cancel();

  /// Blocks until the update finishes and returns a copy of its
  /// recommendation (the valid current-best one after a Cancel). May be
  /// called repeatedly, until TakeResult moves the recommendation out.
  Result<Recommendation> Wait();

  /// Blocks like Wait() but returns only the update's status, without
  /// copying the recommendation.
  Status WaitStatus();

  /// Blocks like Wait() and moves the recommendation out instead of
  /// copying it. Later Wait / TakeResult calls return NotFound (or the
  /// update's error, which stays).
  Result<Recommendation> TakeResult();

  /// Runs a deferred update on the calling thread and returns its status
  /// once it finished; meanwhile other threads Poll, Cancel and Wait on it
  /// as on a background update. On any other handle (its update runs on
  /// its own thread, or already ran) Run is WaitStatus.
  Status Run();

 private:
  friend class TuningSession;
  /// Everything the update touches; kept alive by the worker's own
  /// shared_ptr, so dropping the handle mid-run is safe.
  struct Shared {
    StopSource stop;
    std::atomic<bool> done{false};
    mutable std::mutex mu;  // guards progress, status and result
    std::condition_variable finished;  // notified once `done` is set
    TuningProgress progress;
    Status status = Status::Internal("update still running");
    Result<Recommendation> result = Status::Internal("update still running");
  };
  /// The update: with `run` it runs it; without (a deferred update dropped
  /// before it ran) it records an error. Either way it publishes the
  /// result, frees the session for the next update and sets `done`.
  using Body = std::function<void(bool run)>;

  TuningHandle() : shared_(std::make_shared<Shared>()) {}
  /// Blocks until `done`, joining the worker thread if there is one.
  void WaitDone();

  std::shared_ptr<Shared> shared_;
  std::mutex run_mu_;  // guards worker_ joins and deferred_
  std::thread worker_;
  Body deferred_;  // set until Run (or the destructor) takes it
};

/// A long-lived view-selection session over one (store, dictionary, schema,
/// options) environment and an evolving workload. Not thread-safe: one
/// update (sync or async) may be in flight at a time, and the session must
/// outlive every handle it returned. The store / dictionary / schema must
/// outlive the session.
class TuningSession {
 public:
  /// `schema` may be null when options.entailment is kNone. The options —
  /// strategy, heuristics, limits, weights, entailment, partitioning — are
  /// fixed for the session's lifetime (they shape every cached result).
  ///
  /// `cache_backend` chooses where completed partition outcomes live (see
  /// vsel/serialize/partition_cache.h). Null picks from the options: a
  /// DirCacheBackend rooted at options.cache.cache_dir when that is set —
  /// outcomes then persist across process restarts, and any number of
  /// concurrent sessions (this process or others) may share the directory —
  /// otherwise the historical in-process LRU backend. Backend-served
  /// entries that crossed a process boundary are *rehydrated* before use:
  /// their views re-interned through the session's live CostModel and the
  /// state re-costed, and an entry whose recomputed cost does not match the
  /// persisted one (statistics or weight drift the identity tag missed) is
  /// discarded — the partition is simply re-searched. To retry transient
  /// storage failures behind a circuit breaker, pass the backend wrapped
  /// in a robust::RetryingCacheBackend.
  TuningSession(
      const rdf::TripleStore* store, const rdf::Dictionary* dict,
      const TuningConfig& options, const rdf::Schema* schema = nullptr,
      std::shared_ptr<serialize::PartitionCacheBackend> cache_backend =
          nullptr);
  ~TuningSession();

  /// Applies a workload delta and recommends for the result: `add_queries`
  /// are appended, queries whose name is in `remove_queries` are dropped
  /// (every listed name must match at least one current query). Only dirty
  /// partitions are re-searched; see the header comment. The session's
  /// workload advances even when the update is cancelled mid-search (the
  /// returned recommendation is the valid current best; the partitions cut
  /// short simply stay dirty for the next update).
  ///
  /// Failure semantics (see TuningConfig::robust): a partition search
  /// that throws, fails, or overruns its watchdog deadline is retried per
  /// the session's RetryPolicy and then abandoned — Update still returns a
  /// valid *degraded* recommendation over the surviving partitions
  /// (stats.completed == false, null rewritings for the failed partitions'
  /// queries, the failure roster in pipeline.partition_health). Abandoned
  /// partitions are never cached, so they stay dirty: the next Update
  /// re-searches exactly them. Only when no partition survives does Update
  /// return an error, and an erroring Update leaves the session untouched.
  Result<Recommendation> Update(
      const std::vector<cq::ConjunctiveQuery>& add_queries,
      const std::vector<std::string>& remove_queries = {});

  /// Re-recommends over the current workload without a delta (all clean
  /// partitions served from cache; useful after a cancelled update).
  Result<Recommendation> Recommend() { return Update({}, {}); }

  /// Asynchronous variants: run the update on a background thread and
  /// return a handle with Poll / Current / Cancel / Wait. One update may
  /// be in flight per session at a time (InvalidArgument otherwise,
  /// reported through the handle's Wait).
  std::shared_ptr<TuningHandle> UpdateAsync(
      std::vector<cq::ConjunctiveQuery> add_queries,
      std::vector<std::string> remove_queries = {});
  std::shared_ptr<TuningHandle> RecommendAsync() {
    return UpdateAsync({}, {});
  }

  /// UpdateAsync without the thread: the session counts the update as in
  /// flight from now on, and it runs when the caller calls the handle's
  /// Run(), on the caller's thread. For a caller that would only block in
  /// Wait() anyway, while other threads poll or cancel the same handle.
  std::shared_ptr<TuningHandle> UpdateDeferred(
      std::vector<cq::ConjunctiveQuery> add_queries,
      std::vector<std::string> remove_queries = {});

  /// The current workload, in order (adds append, removals compact).
  const std::vector<cq::ConjunctiveQuery>& workload() const {
    return workload_;
  }

  /// Number of entries the backend currently holds. For the in-memory
  /// backend these are exactly this session's clean candidates; for a
  /// directory backend this counts the entry files under the root, *any*
  /// identity — a shared directory includes other configurations' entries.
  size_t cached_partitions() const { return cache_backend_->Size(); }

  /// Drops every cached partition result (the next update re-searches all
  /// partitions); for a directory backend this removes the entry files.
  /// The per-query minimization caches and the cost model survive — they
  /// are delta-independent.
  void InvalidateCachedResults() { cache_backend_->Clear(); }

  /// The backend holding the cached partition results (for observability:
  /// hit/miss/rejection counters, shared-directory inspection).
  const serialize::PartitionCacheBackend& cache_backend() const {
    return *cache_backend_;
  }

  /// A fresh process-wide metrics snapshot plus the last completed update's
  /// span bundle (see SessionTelemetry). Thread-safe: may be called while an
  /// asynchronous update is in flight — it observes the previous update's
  /// spans and the registry's live counters.
  SessionTelemetry TelemetrySnapshot() const;

 private:
  /// The handle of UpdateAsync (`deferred` false) or UpdateDeferred.
  std::shared_ptr<TuningHandle> StartUpdate(
      std::vector<cq::ConjunctiveQuery> add_queries,
      std::vector<std::string> remove_queries, bool deferred);
  Result<Recommendation> DoUpdate(
      const std::vector<cq::ConjunctiveQuery>& add_queries,
      const std::vector<std::string>& remove_queries,
      const StopToken* stop_override, const ProgressFn& progress_override);

  const rdf::TripleStore* store_;
  const rdf::Dictionary* dict_;
  const rdf::Schema* schema_;
  TuningConfig options_;
  /// TuningConfig::Validate() verdict captured at construction; a rejected
  /// config fails every Update with the field-naming diagnostic (the
  /// constructor itself cannot return a Status).
  Status config_status_;
  std::vector<cq::ConjunctiveQuery> workload_;
  /// Stage-1 results of workload_, aligned with it; an update ingests only
  /// its added queries and applies the delta to both vectors on commit.
  std::vector<pipeline::IngestedQuery> ingested_;
  pipeline::SessionCaches caches_;
  std::unique_ptr<CostModel> cost_model_;
  /// Set after the first update's cm calibration; later updates freeze the
  /// weights so cached best states stay cost-comparable.
  bool calibrated_ = false;
  /// Canonical workload key -> completed search outcome storage (see the
  /// constructor comment). After every update the backend is trimmed to
  /// max(64, 4 x current partitions) entries (in-memory backends evict
  /// LRU; persistent ones ignore it).
  std::shared_ptr<serialize::PartitionCacheBackend> cache_backend_;
  /// The session's CacheIdentity bytes, prepended to every canonical key
  /// before it reaches the backend: canonical workload keys are
  /// option-independent, so without the salt two sessions with different
  /// strategies/heuristics/weights sharing one backend object would serve
  /// each other results searched under foreign options.
  std::string cache_key_prefix_;
  /// One in-flight update per session.
  std::atomic<bool> busy_{false};
  /// Last completed update's telemetry, for TelemetrySnapshot(). Guarded by
  /// its own mutex because async updates publish from the worker thread.
  mutable std::mutex telemetry_mu_;
  std::shared_ptr<const telemetry::RunTelemetry> last_run_;
};

}  // namespace rdfviews::vsel

#endif  // RDFVIEWS_VSEL_SESSION_SESSION_H_
