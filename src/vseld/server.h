// The vseld daemon: a long-running, multi-tenant tuning service. It owns
// loaded stores (and their statistics environments), serves many
// concurrent TuningSessions over the length-prefixed binary protocol of
// vseld/protocol.h, enforces per-client and aggregate quotas through
// AdmissionController, and shares one tiered partition-result cache per
// cache identity across every session that matches it.
//
// Threading. One accept thread (guarded by fault site vseld.accept — an
// injected accept failure is counted and the loop continues) hands each
// connection to a fixed-size ThreadPool of connection handlers; a handler
// owns its connection's FrameTransport and runs the verb loop until the
// client disconnects or the daemon drains. A wait=true update runs on
// the handler thread that asked for it (TuningSession::UpdateDeferred):
// that thread would otherwise sit in Wait() for the whole update, so
// handler occupancy is unchanged, and it holds no lock while it runs. A
// wait=false update runs on the session's own UpdateAsync worker, so a
// slow search never starves other connections' handlers.
//
// Graceful drain (Stop): stop accepting, cancel every in-flight update
// (the anytime contract makes blocked wait=true handlers return promptly
// with the valid current best), half-close every live connection socket
// (unblocking handlers parked in ReadFrame — the no-hung-workers
// guarantee), join the handler pool, then reap every remaining session
// through the registry. After Stop: registry().live() == 0 and
// opened == closed + reaped.
#ifndef RDFVIEWS_VSELD_SERVER_H_
#define RDFVIEWS_VSELD_SERVER_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/telemetry/metrics.h"
#include "common/thread_pool.h"
#include "rdf/schema.h"
#include "rdf/triple_store.h"
#include "vsel/serialize/partition_cache.h"
#include "vseld/fleet.h"
#include "vseld/protocol.h"
#include "vseld/quota.h"
#include "vseld/registry.h"

namespace rdfviews::vseld {

struct DaemonOptions {
  /// AF_UNIX socket path the daemon listens on.
  std::string socket_path;
  /// Connection handler pool size — the hard cap on concurrently *served*
  /// connections (extra accepted connections queue for a handler).
  size_t max_connections = 64;
  int listen_backlog = 128;
  QuotaOptions quota;
  /// When set, sessions get a shared two-tier partition-result cache: one
  /// TieredCacheBackend (in-memory LRU front) per cache identity over a
  /// DirCacheBackend rooted here. Empty: each session keeps its private
  /// in-memory backend.
  std::string cache_dir;
  size_t tiered_front_capacity = 256;
  /// Tick of the subscribe-progress streaming loop (how often a quiet
  /// stream re-checks for update completion / drain).
  double subscribe_tick_sec = 0.05;
  /// Fleet mode: accept kRegisterWorker connections and give every session
  /// a FleetExecutor that dispatches dirty-partition search attempts to
  /// the registered workers (falling back to in-process search while none
  /// are registered). Off: worker registration is rejected.
  bool enable_fleet = false;
  /// Liveness deadline for an in-flight fleet unit (see
  /// WorkerPool::Options::liveness_timeout_sec).
  double fleet_liveness_timeout_sec = 5.0;
};

class Daemon {
 public:
  explicit Daemon(DaemonOptions options);
  ~Daemon();  // Stop()
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Registers a store under a tag clients address in kOpenSession. The
  /// store / dict / schema must outlive the daemon; `dict` is mutated by
  /// query parsing (serialized by a per-store mutex — rdf::Dictionary
  /// interning is not thread-safe). Call before Start.
  void RegisterStore(const std::string& tag, const rdf::TripleStore* store,
                     rdf::Dictionary* dict,
                     const rdf::Schema* schema = nullptr);

  /// Binds the socket, spawns the accept thread and handler pool.
  Status Start();

  /// Graceful drain (see the header comment). Idempotent; called by the
  /// destructor. Never called from a handler thread — a kShutdown verb
  /// only *requests* it (WaitShutdownRequested wakes) so the owner of the
  /// daemon performs the join.
  void Stop();

  /// Blocks up to `timeout_sec` (forever when < 0) for a kShutdown verb.
  /// True when shutdown was requested.
  bool WaitShutdownRequested(double timeout_sec = -1);

  const SessionRegistry& registry() const { return registry_; }
  AdmissionController& admission() { return admission_; }
  const DaemonOptions& options() const { return options_; }
  /// The registered-worker pool (always constructed; only populated in
  /// fleet mode). Exposed for the stress harness's gates.
  WorkerPool& fleet_pool() { return fleet_pool_; }

  /// Sessions the drain reaped and torn (mid-frame) connection reads, for
  /// the stress harness's gates.
  uint64_t drained_sessions() const { return drained_sessions_; }

 private:
  struct StoreEntry {
    const rdf::TripleStore* store = nullptr;
    rdf::Dictionary* dict = nullptr;
    const rdf::Schema* schema = nullptr;
    /// Serializes datalog parsing (dictionary interning) for this store.
    std::mutex parse_mu;
  };

  void AcceptLoop();
  void HandleConnection(int fd,
                        std::chrono::steady_clock::time_point accepted_at);
  Response Dispatch(const Request& req, bool* close_connection);

  Response HandleOpenSession(const Request& req);
  Response HandleCacheGet(const Request& req);
  Response HandleCachePut(const Request& req);
  Response HandleUpdate(const Request& req);
  Response HandlePoll(const Request& req);
  Response HandleFetch(const Request& req);
  Response HandleCancel(const Request& req);
  Response HandleTelemetry(const Request& req);
  Response HandleCloseSession(const Request& req);
  void HandleSubscribe(const Request& req, FrameTransport* transport);

  /// Find + closing-check, with the unknown-session rejection counted.
  Result<std::shared_ptr<DaemonSession>> FindSession(const Request& req);
  /// Moves a finished in-flight handle's recommendation into
  /// last_recommendation. Caller holds entry->mu.
  void HarvestLocked(DaemonSession* entry);
  /// The shared cache backend for `identity` (null when cache_dir unset).
  std::shared_ptr<vsel::serialize::PartitionCacheBackend> BackendFor(
      const vsel::serialize::CacheIdentity& identity);
  bool CloseSessionInternal(uint64_t id, bool reaped);
  Response ErrorResponse(Status status, const char* reject_reason);
  void CountRejected(const char* reason);

  const DaemonOptions options_;
  AdmissionController admission_;
  WorkerPool fleet_pool_;
  SessionRegistry registry_;
  std::map<std::string, std::unique_ptr<StoreEntry>> stores_;

  int listen_fd_ = -1;
  std::thread accept_thread_;
  std::unique_ptr<ThreadPool> pool_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};

  std::mutex shutdown_mu_;
  std::condition_variable shutdown_cv_;
  bool shutdown_requested_ = false;

  /// Live connection transports, so Stop can unblock parked readers.
  std::mutex transports_mu_;
  std::unordered_map<int, FrameTransport*> transports_;

  /// Shared per-identity tiered cache backends (key: IdentityKeyBytes).
  std::mutex backends_mu_;
  std::map<std::string, std::shared_ptr<vsel::serialize::PartitionCacheBackend>>
      backends_;

  uint64_t drained_sessions_ = 0;

  // Registry-owned instruments (stable pointers, registered once).
  telemetry::Counter* accepts_total_ = nullptr;
  telemetry::Counter* accept_failures_total_ = nullptr;
  telemetry::Counter* torn_reads_total_ = nullptr;
  telemetry::Histogram* first_byte_ns_ = nullptr;
  std::map<uint8_t, telemetry::Counter*> frames_by_verb_;
  /// vseld_verb_ns{verb}: decoded request to written response.
  std::map<uint8_t, telemetry::Histogram*> verb_ns_;
  // vseld_sessions_active is a collector over registry_.live();
  // last member so it unregisters before the registry dies.
  telemetry::CollectorHandle metrics_;
};

}  // namespace rdfviews::vseld

#endif  // RDFVIEWS_VSELD_SERVER_H_
