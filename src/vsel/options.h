// Knobs of the view-selection search.
#ifndef RDFVIEWS_VSEL_OPTIONS_H_
#define RDFVIEWS_VSEL_OPTIONS_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/stop_token.h"

namespace rdfviews::vsel {

namespace pipeline {
class PartitionExecutor;  // vsel/pipeline/executor.h
}  // namespace pipeline

/// Search strategies: ours (Sec. 5) and the competitors of [21] (Sec. 6.1).
enum class StrategyKind {
  kExNaive,      // Algorithm 2
  kExStr,        // exhaustive stratified (VB* SC* JC* VF* paths)
  kDfs,          // stratified depth-first
  kGstr,         // greedy stratified
  kPruning21,    // Theodoratos et al. "Pruning"
  kGreedy21,     // Theodoratos et al. "Greedy"
  kHeuristic21,  // Theodoratos et al. "Heuristic"
};

const char* StrategyName(StrategyKind kind);

/// Optimizations and stop conditions (Sec. 5.2).
struct HeuristicOptions {
  /// AVF: aggressively fuse views (apply VF to fixpoint) on every new state.
  bool avf = false;
  /// STV: discard states where some view has only variables.
  bool stop_var = false;
  /// stop_tt: discard states where some view is the full triple table.
  bool stop_tt = false;
  /// View-break overlap budget: 0 enumerates only partitions into two
  /// connected components; 1 additionally allows covers sharing one node
  /// (Def. 3.2 allows arbitrary overlapping covers; see DESIGN.md). Views
  /// of more than 14 atoms only get partition-style view breaks.
  int vb_overlap = 1;
};

/// One observable event of a running recommendation. Emitted through
/// SearchLimits::on_progress so callers can stream anytime results: every
/// strategy is anytime (Sec. 5), and the best-so-far only improves.
struct ProgressEvent {
  enum class Kind {
    /// The running best state improved; `best_cost` is the new best.
    kBestImproved,
    /// One pipeline partition finished (or was served from a session
    /// cache); `partition` / `partitions_total` locate it.
    kPartitionDone,
    /// One attempt at a partition's search failed (threw, returned an
    /// error, or overran its watchdog deadline); `attempt` is the failed
    /// attempt (1-based). A kPartitionRetry or kPartitionAbandoned for the
    /// same partition follows.
    kPartitionFailed,
    /// A failed partition is about to be retried; `attempt` is the
    /// *upcoming* attempt number.
    kPartitionRetry,
    /// A partition exhausted its retry budget (or its time slice) and was
    /// abandoned for this update: the recommendation degrades to the
    /// surviving partitions and, in a session, the partition stays dirty
    /// for the next Update. `attempt` is the last attempt made. Terminal
    /// for the partition, like kPartitionDone.
    kPartitionAbandoned,
  };
  Kind kind = Kind::kBestImproved;
  /// Best cost known when the event fired (search-local for kBestImproved).
  double best_cost = 0;
  /// Seconds since the emitting search started.
  double elapsed_sec = 0;
  /// kPartition*: which partition, out of how many.
  size_t partition = 0;
  size_t partitions_total = 1;
  /// kPartitionFailed / kPartitionRetry / kPartitionAbandoned (and
  /// kPartitionDone after a recovery): the 1-based attempt number; 0 for
  /// events outside the retry machinery.
  size_t attempt = 0;
};

/// Progress observer. May be invoked concurrently from search worker
/// threads and from the partition pool: implementations must be
/// thread-safe, must not block, and must not re-enter the search API.
using ProgressFn = std::function<void(const ProgressEvent&)>;

/// Hard limits turning the search into an anytime algorithm.
struct SearchLimits {
  /// Wall-clock budget in seconds; <= 0 means unlimited (stop_time).
  double time_budget_sec = 0;
  /// Cap on the number of distinct states remembered; exceeding it aborts
  /// the search reporting memory exhaustion (the paper's JVM OOM analogue).
  size_t max_states = 5000000;
  /// Search worker threads. 1 (or 0) runs the serial engine unchanged;
  /// > 1 routes EXNAIVE/EXSTR/DFS/GSTR through the parallel frontier
  /// engine (src/vsel/parallel/): sharded frontiers, a concurrent
  /// fingerprint-keyed seen-set, and a deterministically tie-broken global
  /// best, so a run that exhausts the space admits the same distinct
  /// view-set states at any thread count. The reported best can still
  /// differ across thread counts when two arrival paths build different
  /// (equally valid) rewriting plans for the same view set: states are
  /// deduplicated by their view-set fingerprint, and the cost of the plan
  /// that happened to arrive first is the one recorded. The [21]
  /// competitor strategies are inherently sequential (query-by-query
  /// combination) and always run serial. In the pipeline, when more than
  /// one partition is searched, the partitions are the unit of parallelism
  /// instead: they run concurrently on a pool of up to this many workers,
  /// each search serial (pipeline::FanOutPartitions).
  size_t num_threads = 1;
  /// Cooperative cancellation: every engine (serial, parallel frontier,
  /// [21] competitors) polls this token wherever it polls the deadline, so
  /// a stop request terminates the search within a bounded number of state
  /// expansions and the run returns its valid current-best (anytime)
  /// result with SearchStats::cancelled set. Empty = never cancelled.
  StopToken stop;
  /// Optional progress observer (see ProgressEvent). Null = no reporting.
  ProgressFn on_progress;
};

/// Workload partitioning knobs of the recommendation pipeline
/// (src/vsel/pipeline/). The pipeline splits the workload along the
/// connected components of its commonality graph (queries connected iff
/// they share a constant some SC/JC/VF transition chain could exploit) and
/// searches each sub-workload independently; see README "Recommendation
/// pipeline" for the soundness argument.
struct PartitionOptions {
  /// Partition the workload before searching. Disabled, or when the split
  /// would be unsound (stop_var off, or a query with a constant-free
  /// component), the pipeline runs one partition over the whole workload —
  /// exactly the monolithic search. One partition per commonality
  /// component otherwise.
  bool enabled = true;
};

/// Per-partition retry policy of pipeline stage 3: a failed attempt is
/// retried up to max_attempts total tries, sleeping 5 ms x 2^(k-2) before
/// attempt k, scaled by a jitter factor in [0.5, 1.0] drawn
/// deterministically from (partition, attempt) and capped at 250 ms
/// (robust::BackoffDelaySec). Backoffs and retry attempts are
/// budget-aware: a partition never sleeps or re-searches past its
/// apportioned time slice.
struct RetryPolicy {
  /// Total attempts per partition, including the first (1 = never retry —
  /// the default, so a deterministic failure is not paid for twice unless
  /// the caller opts in).
  size_t max_attempts = 1;
};

/// Failure-containment knobs of the recommendation pipeline. Stage 3 always
/// runs every partition search behind an exception -> Status boundary (a
/// throwing, failing or hung partition is retried per `retry`, then
/// abandoned — never propagated); MergePartitions then degrades gracefully,
/// recommending over the surviving partitions and reporting the failed ones
/// in PipelineReport::partition_health. Only when *no* partition survives
/// does the update return an error.
struct RobustnessOptions {
  RetryPolicy retry;
  /// Hard per-attempt watchdog deadline in seconds: a partition attempt
  /// still running after this long has its stop token fired (composed into
  /// the search's token via StopToken::Combine), releasing cooperative
  /// waits — including injected hangs — and failing the attempt as
  /// TimedOut. 0 (default) disables the watchdog; the plain time budget
  /// (SearchLimits::time_budget_sec) still truncates healthy searches.
  double partition_deadline_sec = 0;
};

/// Storage of a TuningSession's per-partition result cache (see
/// vsel/serialize/partition_cache.h). The cache maps canonical workload
/// keys to completed search outcomes. In-memory backends are trimmed after
/// every update to the most recently used max(64, 4 x current partitions)
/// entries: recently retired sub-workloads stay instantly re-addable, but a
/// drifting log can not grow the session without bound (persistent
/// backends ignore the trim; the filesystem owns capacity there). A caller
/// that wants transient storage failures retried, behind a circuit
/// breaker, wraps its backend in a robust::RetryingCacheBackend and passes
/// that to the TuningSession constructor.
struct SessionCacheOptions {
  /// When non-empty, partition results persist as one identity-tagged file
  /// per canonical key under this directory (DirCacheBackend): they survive
  /// process restarts, and concurrent sessions pointed at the same
  /// directory reuse each other's completed searches. Empty (the default)
  /// keeps the in-process LRU backend. A caller-supplied backend passed to
  /// the TuningSession constructor overrides this knob entirely.
  ///
  /// Pair this with `auto_calibrate_cm = false` (fixed cost weights): a
  /// calibrating session deliberately ignores cached entries on its
  /// *first* update (cm calibration must see every partition's S0), so
  /// with calibration on, one-shot `Recommend` calls write the cache but
  /// never read it — only multi-update sessions warm-start, from their
  /// second update on.
  std::string cache_dir;
};

/// Observability knobs (src/common/telemetry/). Metrics are process-wide
/// and always on (their hot-path cost is one relaxed atomic per event);
/// tracing is per-run and controls whether a pipeline Run / session Update
/// records a span tree into its report's `telemetry` attachment.
struct TelemetryOptions {
  /// Record spans (pipeline stages, partition attempts, retries, watchdog
  /// fires, cache and serialization operations) for each run. Disarmed,
  /// every span site costs one thread-local read and a branch.
  bool trace = true;
};

/// Weights of the cost components (Sec. 3.3 and Sec. 6 "Weights of cost
/// components").
struct CostWeights {
  double cs = 1.0;   // view space occupancy weight
  double cr = 1.0;   // rewriting evaluation weight
  double cm = 0.5;   // view maintenance weight
  double c1 = 1.0;   // REC: io weight
  double c2 = 0.05;  // REC: cpu weight
  double f = 2.0;    // VMC: per-join fan-out factor
};

/// How implicit triples are reflected in the recommendation (Sec. 4.3).
enum class EntailmentMode {
  kNone,             // plain RDF, no implicit triples
  kSaturate,         // search and materialize over the saturated store
  kPreReformulate,   // reformulate the workload, search over the union
  kPostReformulate,  // search with saturated statistics, reformulate the
                     // winning views before materializing
};

const char* EntailmentModeName(EntailmentMode mode);

/// The one configuration surface of the tuning stack: everything a
/// recommendation run needs — strategy, heuristics, limits, cost weights,
/// entailment handling, partitioning, session cache storage, failure
/// containment, and observability — in a single validated aggregate. The
/// same struct configures ViewSelector::Recommend, TuningSession, the
/// pipeline stages, and (through serialize::SerializeTuningConfig, one wire
/// form) both the vseld open-session and dispatch-partition verbs.
struct TuningConfig {
  StrategyKind strategy = StrategyKind::kDfs;
  HeuristicOptions heuristics{.avf = true, .stop_var = true};
  SearchLimits limits;
  CostWeights weights;
  /// Recalibrate cm from S0 as in Sec. 6 ("Weights of cost components").
  bool auto_calibrate_cm = true;
  EntailmentMode entailment = EntailmentMode::kNone;
  /// Workload partitioning (the pipeline's stage 2); see PartitionOptions.
  PartitionOptions partition;
  /// Session partition-result cache storage; see SessionCacheOptions.
  SessionCacheOptions cache;
  /// Failure containment of the pipeline's stage 3 (retry policy, watchdog
  /// deadline); see RobustnessOptions.
  RobustnessOptions robust;
  /// Observability: per-run span recording; see TelemetryOptions.
  TelemetryOptions telemetry;
  /// Where stage 3 runs each dirty partition's search attempts: null (the
  /// default) keeps the in-process pipeline::LocalExecutor; a
  /// vseld::FleetExecutor dispatches attempts to registered remote workers.
  /// Process-local like `limits.stop` / `limits.on_progress` — never
  /// serialized, never part of the cache identity.
  std::shared_ptr<pipeline::PartitionExecutor> executor;

  /// Rejects configurations no layer could honor, naming the offending
  /// field: negative or non-finite budgets, deadlines and weights, a
  /// negative view-break overlap, and zero retry attempts (max_states
  /// stays 0 = unlimited). Every entry point that accepts a
  /// TuningConfig (TuningSession, pipeline::Run, ViewSelector::Recommend,
  /// and the vseld open-session / dispatch-partition verbs) validates
  /// before doing any work, so a bad config fails fast with the same
  /// diagnostic everywhere instead of misbehaving mid-run.
  Status Validate() const;
};

/// Counters exposed by every strategy (the quantities of Figure 5).
struct SearchStats {
  uint64_t created = 0;
  uint64_t duplicates = 0;
  uint64_t discarded = 0;
  uint64_t explored = 0;
  uint64_t transitions_applied = 0;

  double initial_cost = 0;
  double best_cost = 0;
  /// (elapsed seconds, best cost) every time the best state improves.
  std::vector<std::pair<double, double>> best_trace;

  bool completed = false;           // search space exhausted
  bool memory_exhausted = false;    // max_states hit
  bool time_exhausted = false;      // time budget hit
  bool cancelled = false;           // SearchLimits::stop fired
  double elapsed_sec = 0;

  /// Relative cost reduction (c(S0) - c(Sb)) / c(S0), Sec. 6.1.
  double RelativeCostReduction() const {
    if (initial_cost <= 0) return 0;
    return (initial_cost - best_cost) / initial_cost;
  }

  /// Search throughput: candidate states generated per second.
  double StatesPerSecond() const {
    if (elapsed_sec <= 0) return 0;
    return static_cast<double>(created) / elapsed_sec;
  }
};

}  // namespace rdfviews::vsel

#endif  // RDFVIEWS_VSEL_OPTIONS_H_
