// Distributed tuning fleet: remote partition workers behind vseld.
//
// Coordinator side. A vsel_worker process connects to the daemon's socket,
// pings (protocol negotiation), and registers with kRegisterWorker; the
// daemon acks and hands the connection — now inverted into a dispatch
// stream — to the WorkerPool. Stage 3 of the pipeline, configured with a
// FleetExecutor (TuningConfig::executor), then ships each dirty
// partition's search attempt to a registered worker as an encoded
// FleetWorkUnit and splices the returned outcome back through the same
// rehydration checks a cache entry passes.
//
// Failure model. The pool leans on the pieces the daemon already has: the
// transport's latched-failure contract (a torn worker connection fails
// exactly once, cleanly), the vseld.frame.* / vseld.worker.search fault
// sites, and stage 3's retry/backoff/watchdog policy. A worker that dies
// or goes silent mid-partition is declared dead and its in-flight unit is
// re-queued to another live worker; only when *no* live worker remains
// does the attempt fail — at which point stage 3 retries and, at
// exhaustion, the merge degrades to the surviving partitions exactly as
// for a local failure (PR 6 contract). With zero workers *registered* the
// FleetExecutor falls back to the in-process LocalExecutor, so a daemon
// with fleet mode on but no fleet yet behaves exactly like one without.
//
// Determinism. The parity gate (bench/fleet_stress) requires a fleet
// recommendation byte-identical to an in-process one. That holds because
// the work unit ships everything a worker's search reads: the calibrated
// cost weights (auto-calibration happens on the coordinator *before* any
// attempt), the statistics scalars, and the coordinator's counts of the
// unit's pattern closure — complete for every view the search can create,
// since views only relax workload atoms and the closure holds exactly
// those relaxations. The coordinator-side re-cost on rehydration
// backstops any drift.
#ifndef RDFVIEWS_VSELD_FLEET_H_
#define RDFVIEWS_VSELD_FLEET_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/stop_token.h"
#include "common/telemetry/metrics.h"
#include "rdf/statistics.h"
#include "vsel/cost_model.h"
#include "vsel/options.h"
#include "vsel/pipeline/executor.h"
#include "vsel/serialize/serialize.h"
#include "vsel/state.h"
#include "vseld/protocol.h"

namespace rdfviews::vseld {

// ---- Work-unit codec -------------------------------------------------------

/// Everything a worker needs to run one partition search attempt with no
/// store of its own: the canonical key the outcome will be sealed under,
/// the wire TuningConfig (attempt limits substituted in, calibrated
/// weights, calibration off), the partition's start state, the statistics
/// scalars and warm pattern-count snapshot, and the cache identity.
struct FleetWorkUnit {
  std::string key;
  vsel::serialize::CacheIdentity identity;
  vsel::TuningConfig config;  // wire subset; limits are the attempt's slice
  vsel::State initial_state;
  uint64_t group_size = 0;
  /// Statistics scalars of the coordinator's measured store.
  uint64_t total_triples = 0;
  uint64_t distinct[3] = {0, 0, 0};
  double avg_width[3] = {0, 0, 0};
  /// Counts of every pattern the partition's search can cost
  /// (UnitPatternCounts).
  rdf::StatisticsSnapshot snapshot;
};

/// The pattern counts a work unit ships: every atom of `initial` with
/// every subset of its constants wildcarded — all the patterns the unit's
/// search can cost — de-duplicated, counted through `stats`, which caches
/// them. Counts that other partitions put in that cache are not shipped.
rdf::StatisticsSnapshot UnitPatternCounts(const vsel::State& initial,
                                          const rdf::Statistics& stats);

/// Encodes / decodes the kDispatchPartition blob. The frame layer already
/// checksums the bytes; the codec adds a version header and relies on
/// ByteReader's hardened bounds/count checks, so a hostile blob decode-fails
/// instead of over-allocating.
std::string EncodeFleetWorkUnit(const FleetWorkUnit& unit);
Result<FleetWorkUnit> DecodeFleetWorkUnit(std::string_view bytes);

// ---- Coordinator side ------------------------------------------------------

/// Registered-worker pool: owns the inverted worker connections, dispatches
/// encoded work units, and implements liveness (heartbeat deadlines),
/// death detection, and re-queueing. Thread-safe; any number of partition
/// searches may Execute concurrently.
class WorkerPool {
 public:
  struct Options {
    /// A worker whose in-flight unit produced no frame (result *or*
    /// heartbeat) for this long is declared dead and its unit re-queued.
    /// Workers heartbeat a few times per second while searching, so this
    /// bounds how long a silently-killed worker can stall a partition.
    double liveness_timeout_sec = 5.0;
    /// Granularity of Execute's wait loop (stop-token and deadline polls).
    double dispatch_poll_sec = 0.02;
  };

  /// Monotone traffic counters (also exported to the metrics registry as
  /// vseld_fleet_*).
  struct Counters {
    uint64_t registered = 0;
    uint64_t dispatches = 0;
    uint64_t results = 0;
    uint64_t requeues = 0;
    uint64_t worker_deaths = 0;
    /// kPartitionResult frames for units no longer pending — duplicates and
    /// late results from workers already declared dead. Dropped, counted.
    uint64_t duplicate_results = 0;
    uint64_t heartbeats = 0;
  };

  WorkerPool();
  explicit WorkerPool(Options options);
  ~WorkerPool();
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Adopts a registered worker's connection (the daemon calls this right
  /// after acking kRegisterWorker) and starts its reader thread.
  void AddWorker(std::unique_ptr<FrameTransport> transport, std::string name);

  /// Dispatches one encoded work unit to a live worker and blocks until
  /// its result frame arrives, the stop token fires (Cancelled), or every
  /// live worker died with the unit in flight (Unavailable). A worker
  /// dying mid-unit re-queues the unit to another live worker
  /// transparently. Returns the worker's serialized partition outcome, or
  /// the worker-side failure Status verbatim.
  Result<std::string> Execute(const std::string& payload,
                              const StopToken& stop);

  /// Workers ever registered / currently alive.
  size_t registered_total() const;
  size_t live_workers() const;

  Counters counters() const;

  /// Severs every worker connection and joins the reader threads. Called
  /// by the daemon's Stop(); idempotent.
  void Shutdown();

 private:
  struct Worker {
    std::string name;
    std::unique_ptr<FrameTransport> transport;
    std::thread reader;
    std::mutex write_mu;  // dispatch frames; readers never write
    bool dead = false;            // guarded by pool mu_
    size_t inflight = 0;          // guarded by pool mu_
    std::chrono::steady_clock::time_point last_activity;  // guarded by mu_
  };

  struct PendingUnit {
    Worker* worker = nullptr;
    bool done = false;
    StatusCode code = StatusCode::kOk;
    std::string message;
    std::string blob;
  };

  void ReaderLoop(Worker* worker);
  Worker* PickLiveWorkerLocked();
  void MarkDeadLocked(Worker* worker);

  const Options options_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::unordered_map<uint64_t, PendingUnit*> pending_;
  uint64_t next_unit_id_ = 1;
  bool shutdown_ = false;
  Counters counters_;
  // Last member: unregisters before counters_/mu_ die.
  telemetry::CollectorHandle metrics_;
};

/// The fleet's PartitionExecutor: encodes each attempt as a FleetWorkUnit,
/// dispatches it through the pool, and validates the returned outcome with
/// the same rehydration checks a cache entry passes (require_completed
/// relaxed — a remote attempt may return a budget-truncated anytime best).
/// With zero workers registered every attempt transparently runs through
/// the in-process LocalExecutor (counted as a local fallback).
class FleetExecutor final : public vsel::pipeline::PartitionExecutor {
 public:
  FleetExecutor(WorkerPool* pool, vsel::serialize::CacheIdentity identity);

  Result<vsel::SearchResult> ExecuteAttempt(
      const vsel::pipeline::PartitionWorkUnit& unit,
      const vsel::TuningConfig& config, const vsel::SearchLimits& limits,
      vsel::CostModel* cost_model) override;
  const char* name() const override { return "fleet"; }

 private:
  WorkerPool* pool_;
  vsel::serialize::CacheIdentity identity_;
  vsel::pipeline::LocalExecutor local_;
  telemetry::Counter* local_fallbacks_;
  telemetry::Counter* rehydration_rejected_;
};

// ---- Worker side -----------------------------------------------------------

struct WorkerOptions {
  /// The daemon's AF_UNIX socket.
  std::string socket_path;
  /// Label in daemon logs / metrics; also the protocol client_id.
  std::string name = "worker";
  /// Heartbeat period while a unit is in flight. Must be well under the
  /// pool's liveness_timeout_sec.
  double heartbeat_interval_sec = 0.2;
  /// Chaos hook for the stress harness: when nonzero, the worker severs
  /// its connection abruptly *in the middle of* the Nth dispatched unit
  /// (1-based) — after decoding, before any result frame — simulating a
  /// worker killed mid-partition. RunWorker then returns Aborted.
  size_t die_in_unit = 0;
};

/// Runs one worker: connect, ping (rejecting a protocol-version mismatch),
/// register, then serve dispatched partitions until the daemon closes the
/// connection (returns OK) or the transport fails (returns the error).
/// Blocking; run it on a dedicated thread for in-process workers.
Status RunWorker(const WorkerOptions& options);

}  // namespace rdfviews::vseld

#endif  // RDFVIEWS_VSELD_FLEET_H_
