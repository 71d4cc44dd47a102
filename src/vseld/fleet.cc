#include "vseld/fleet.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <utility>

#include "common/fault.h"
#include "vsel/search.h"
#include "vsel/serialize/binary_io.h"

namespace rdfviews::vseld {

namespace {

using vsel::serialize::ByteReader;
using vsel::serialize::ByteWriter;

constexpr uint32_t kFleetUnitVersion = 1;

/// Rebuilds a Status from its wire (code, message) pair — the inverse of
/// what kPartitionResult frames carry.
Status MakeStatus(StatusCode code, std::string message) {
  switch (code) {
    case StatusCode::kOk: return Status::OK();
    case StatusCode::kInvalidArgument:
      return Status::InvalidArgument(std::move(message));
    case StatusCode::kNotFound: return Status::NotFound(std::move(message));
    case StatusCode::kParseError: return Status::ParseError(std::move(message));
    case StatusCode::kResourceExhausted:
      return Status::ResourceExhausted(std::move(message));
    case StatusCode::kTimedOut: return Status::TimedOut(std::move(message));
    case StatusCode::kInternal: return Status::Internal(std::move(message));
    case StatusCode::kUnsupported:
      return Status::Unsupported(std::move(message));
  }
  return Status::Internal(std::move(message));
}

/// Store-free statistics provider fed from a FleetWorkUnit: the scalars
/// come from the shipped measurements and every pattern count from the
/// warmed snapshot. The snapshot is complete for the partition's search
/// space (the coordinator precomputed every workload atom's relaxations,
/// and search transitions only relax atoms), so the uncached fallback —
/// reachable only if that invariant drifts — returns 0 and the
/// coordinator's rehydration re-cost rejects the outcome rather than
/// trusting it.
class SnapshotStatistics final : public rdf::Statistics {
 public:
  SnapshotStatistics(uint64_t total_triples,
                     const std::array<uint64_t, 3>& distinct,
                     const std::array<double, 3>& avg_width)
      : rdf::Statistics(nullptr),
        total_triples_(total_triples),
        distinct_(distinct),
        avg_width_(avg_width) {}

  uint64_t TotalTriples() const override { return total_triples_; }
  uint64_t DistinctValues(rdf::Column col) const override {
    return distinct_[static_cast<size_t>(col)];
  }
  double AvgWidth(rdf::Column col) const override {
    return avg_width_[static_cast<size_t>(col)];
  }

  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }

 protected:
  uint64_t CountPatternUncached(const rdf::Pattern&) const override {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return 0;
  }

 private:
  uint64_t total_triples_;
  std::array<uint64_t, 3> distinct_;
  std::array<double, 3> avg_width_;
  mutable std::atomic<uint64_t> misses_{0};
};

}  // namespace

// ---- Work-unit codec -------------------------------------------------------

std::string EncodeFleetWorkUnit(const FleetWorkUnit& unit) {
  ByteWriter w;
  w.U32(kFleetUnitVersion);
  w.Str(unit.key);
  w.U64(unit.identity.store_tag);
  w.U64(unit.identity.config_tag);
  vsel::serialize::SerializeTuningConfig(unit.config, &w);
  vsel::serialize::SerializeState(unit.initial_state, &w);
  w.U64(unit.group_size);
  w.U64(unit.total_triples);
  for (int c = 0; c < 3; ++c) {
    w.U64(unit.distinct[c]);
    w.F64(unit.avg_width[c]);
  }
  w.U64(unit.snapshot.counts.size());
  for (const auto& [pattern, count] : unit.snapshot.counts) {
    w.U64(pattern.s);
    w.U64(pattern.p);
    w.U64(pattern.o);
    w.U64(count);
  }
  return w.TakeBytes();
}

Result<FleetWorkUnit> DecodeFleetWorkUnit(std::string_view bytes) {
  ByteReader r(bytes);
  if (r.U32() != kFleetUnitVersion) {
    return Status::ParseError("fleet work unit: unknown version");
  }
  FleetWorkUnit unit;
  unit.key = r.Str();
  unit.identity.store_tag = r.U64();
  unit.identity.config_tag = r.U64();
  auto config = vsel::serialize::DeserializeTuningConfig(&r);
  if (!config.ok()) return config.status();
  unit.config = std::move(*config);
  auto state = vsel::serialize::DeserializeState(&r);
  if (!state.ok()) return state.status();
  unit.initial_state = std::move(*state);
  unit.group_size = r.U64();
  unit.total_triples = r.U64();
  for (int c = 0; c < 3; ++c) {
    unit.distinct[c] = r.U64();
    unit.avg_width[c] = r.F64();
  }
  uint64_t entries = r.Count(/*min_element_bytes=*/32);
  unit.snapshot.counts.reserve(entries);
  for (uint64_t i = 0; i < entries; ++i) {
    rdf::Pattern pattern;
    pattern.s = static_cast<rdf::TermId>(r.U64());
    pattern.p = static_cast<rdf::TermId>(r.U64());
    pattern.o = static_cast<rdf::TermId>(r.U64());
    unit.snapshot.counts[pattern] = r.U64();
  }
  if (!r.AtEnd()) {
    return Status::ParseError("fleet work unit: truncated or trailing bytes");
  }
  return unit;
}

// ---- WorkerPool ------------------------------------------------------------

WorkerPool::WorkerPool() : WorkerPool(Options{}) {}

WorkerPool::WorkerPool(Options options) : options_(options) {
  metrics_ = telemetry::MetricsRegistry::Default()->RegisterCollector(
      [this](std::vector<telemetry::MetricSample>* out) {
        Counters c = counters();
        int64_t live = static_cast<int64_t>(live_workers());
        auto counter = [&](const char* name, uint64_t value) {
          telemetry::MetricSample s;
          s.name = name;
          s.kind = telemetry::MetricKind::kCounter;
          s.value = value;
          out->push_back(std::move(s));
        };
        counter("vseld_fleet_workers_registered_total", c.registered);
        counter("vseld_fleet_dispatches_total", c.dispatches);
        counter("vseld_fleet_results_total", c.results);
        counter("vseld_fleet_requeues_total", c.requeues);
        counter("vseld_fleet_worker_deaths_total", c.worker_deaths);
        counter("vseld_fleet_duplicate_results_total", c.duplicate_results);
        counter("vseld_fleet_heartbeats_total", c.heartbeats);
        telemetry::MetricSample g;
        g.name = "vseld_fleet_workers_live";
        g.kind = telemetry::MetricKind::kGauge;
        g.gauge_value = live;
        out->push_back(std::move(g));
      });
}

WorkerPool::~WorkerPool() { Shutdown(); }

void WorkerPool::AddWorker(std::unique_ptr<FrameTransport> transport,
                           std::string name) {
  std::unique_lock<std::mutex> lock(mu_);
  if (shutdown_) {
    // Racing a drain: refuse politely by severing the connection.
    transport->ShutdownBoth();
    return;
  }
  auto worker = std::make_unique<Worker>();
  worker->name = std::move(name);
  worker->transport = std::move(transport);
  worker->last_activity = std::chrono::steady_clock::now();
  Worker* raw = worker.get();
  workers_.push_back(std::move(worker));
  ++counters_.registered;
  raw->reader = std::thread([this, raw] { ReaderLoop(raw); });
  cv_.notify_all();
}

WorkerPool::Worker* WorkerPool::PickLiveWorkerLocked() {
  Worker* best = nullptr;
  for (const auto& w : workers_) {
    if (w->dead) continue;
    if (best == nullptr || w->inflight < best->inflight) best = w.get();
  }
  return best;
}

void WorkerPool::MarkDeadLocked(Worker* worker) {
  if (worker->dead) return;
  worker->dead = true;
  ++counters_.worker_deaths;
  worker->transport->ShutdownBoth();
  cv_.notify_all();
}

void WorkerPool::ReaderLoop(Worker* worker) {
  for (;;) {
    auto frame = worker->transport->ReadFrame();
    if (!frame.ok()) break;
    auto request = DecodeRequest(*frame);
    // A garbled or out-of-protocol frame from a worker is indistinguishable
    // from a compromised peer: sever, let its units re-queue.
    if (!request.ok()) break;
    std::unique_lock<std::mutex> lock(mu_);
    worker->last_activity = std::chrono::steady_clock::now();
    if (request->verb == Verb::kWorkerHeartbeat) {
      ++counters_.heartbeats;
      cv_.notify_all();
      continue;
    }
    if (request->verb != Verb::kPartitionResult) break;
    auto it = pending_.find(request->unit_id);
    if (it == pending_.end() || it->second->worker != worker) {
      // Duplicate result, or a late result for a unit already re-queued
      // elsewhere: idempotently dropped.
      ++counters_.duplicate_results;
      continue;
    }
    PendingUnit* unit = it->second;
    unit->code = request->result_code;
    unit->message = std::move(request->result_message);
    unit->blob = std::move(request->blob);
    unit->done = true;
    pending_.erase(it);
    ++counters_.results;
    cv_.notify_all();
  }
  std::unique_lock<std::mutex> lock(mu_);
  MarkDeadLocked(worker);
}

Result<std::string> WorkerPool::Execute(const std::string& payload,
                                        const StopToken& stop) {
  const auto poll = std::chrono::duration<double>(options_.dispatch_poll_sec);
  const auto liveness =
      std::chrono::duration<double>(options_.liveness_timeout_sec);
  for (;;) {
    Worker* worker = nullptr;
    uint64_t unit_id = 0;
    PendingUnit pending;
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (shutdown_) return Status::Internal("worker pool shut down");
      worker = PickLiveWorkerLocked();
      if (worker == nullptr) {
        return Status::Internal("no live fleet workers");
      }
      unit_id = next_unit_id_++;
      pending.worker = worker;
      pending_[unit_id] = &pending;
      ++worker->inflight;
      ++counters_.dispatches;
      // Fresh deadline for the new dispatch: liveness measures *this*
      // unit's silence, not how long the worker has been idle.
      worker->last_activity = std::chrono::steady_clock::now();
    }

    Request dispatch;
    dispatch.verb = Verb::kDispatchPartition;
    dispatch.request_id = unit_id;
    dispatch.client_id = "fleet";
    dispatch.unit_id = unit_id;
    dispatch.blob = payload;
    Status write_status;
    {
      std::unique_lock<std::mutex> write_lock(worker->write_mu);
      write_status = worker->transport->WriteFrame(EncodeRequest(dispatch));
    }

    std::unique_lock<std::mutex> lock(mu_);
    if (!write_status.ok()) {
      MarkDeadLocked(worker);
      pending_.erase(unit_id);
      --worker->inflight;
      ++counters_.requeues;
      continue;  // re-queue on another worker
    }
    while (!pending.done) {
      if (shutdown_) {
        pending_.erase(unit_id);
        --worker->inflight;
        return Status::Internal("worker pool shut down");
      }
      if (stop.stop_requested()) {
        pending_.erase(unit_id);
        --worker->inflight;
        return Status::TimedOut("fleet dispatch cancelled by stop token");
      }
      if (worker->dead) break;
      if (std::chrono::steady_clock::now() - worker->last_activity >
          liveness) {
        // Silent worker: no heartbeat, no result. Declare it dead; its
        // reader thread unblocks via the transport shutdown.
        MarkDeadLocked(worker);
        break;
      }
      cv_.wait_for(lock, poll);
    }
    if (pending.done) {
      --worker->inflight;
      if (pending.code != StatusCode::kOk) {
        return MakeStatus(pending.code, std::move(pending.message));
      }
      return std::move(pending.blob);
    }
    // Worker died mid-unit: re-queue on a surviving worker.
    pending_.erase(unit_id);
    --worker->inflight;
    ++counters_.requeues;
  }
}

size_t WorkerPool::registered_total() const {
  std::unique_lock<std::mutex> lock(mu_);
  return static_cast<size_t>(counters_.registered);
}

size_t WorkerPool::live_workers() const {
  std::unique_lock<std::mutex> lock(mu_);
  size_t live = 0;
  for (const auto& w : workers_) {
    if (!w->dead) ++live;
  }
  return live;
}

WorkerPool::Counters WorkerPool::counters() const {
  std::unique_lock<std::mutex> lock(mu_);
  return counters_;
}

void WorkerPool::Shutdown() {
  std::vector<std::unique_ptr<Worker>> workers;
  {
    std::unique_lock<std::mutex> lock(mu_);
    shutdown_ = true;
    for (const auto& w : workers_) MarkDeadLocked(w.get());
    workers.swap(workers_);
    cv_.notify_all();
  }
  for (auto& w : workers) {
    if (w->reader.joinable()) w->reader.join();
  }
}

// ---- FleetExecutor ---------------------------------------------------------

rdf::StatisticsSnapshot UnitPatternCounts(const vsel::State& initial,
                                          const rdf::Statistics& stats) {
  // The cache fills lazily, so at dispatch time it holds whatever earlier
  // partitions happened to count, and not necessarily this unit's
  // patterns. Search transitions only *relax* workload atoms (SC drops
  // constants; VB/VF/JC reshuffle whole atoms), so the closure is each
  // initial atom with every subset of its constants wildcarded — at most 8
  // patterns per atom, counted once on the coordinator's real store.
  // Without them the worker's zero-fallback would skew costs and break
  // recommendation parity.
  std::vector<rdf::Pattern> closure;
  for (const vsel::View& view : initial.views()) {
    for (const cq::Atom& atom : view.def.atoms()) {
      const rdf::Pattern base = atom.ToPattern();
      const rdf::TermId terms[3] = {base.s, base.p, base.o};
      int bound[3], nbound = 0;
      for (int c = 0; c < 3; ++c) {
        if (terms[c] != rdf::kAnyTerm) bound[nbound++] = c;
      }
      for (int mask = 0; mask < (1 << nbound); ++mask) {
        rdf::TermId relaxed[3] = {terms[0], terms[1], terms[2]};
        for (int b = 0; b < nbound; ++b) {
          if (mask & (1 << b)) relaxed[bound[b]] = rdf::kAnyTerm;
        }
        closure.push_back(rdf::Pattern{relaxed[0], relaxed[1], relaxed[2]});
      }
    }
  }
  // CountPattern counts each pattern once and keeps it in the
  // coordinator's cache for later units and the rehydration re-cost.
  rdf::StatisticsSnapshot snapshot;
  for (const rdf::Pattern& p : closure) {
    if (!snapshot.counts.contains(p)) {
      snapshot.counts.emplace(p, stats.CountPattern(p));
    }
  }
  return snapshot;
}

FleetExecutor::FleetExecutor(WorkerPool* pool,
                             vsel::serialize::CacheIdentity identity)
    : pool_(pool), identity_(identity) {
  auto* registry = telemetry::MetricsRegistry::Default();
  local_fallbacks_ =
      registry->GetCounter("vseld_fleet_local_fallbacks_total");
  rehydration_rejected_ =
      registry->GetCounter("vseld_fleet_rehydration_rejected_total");
}

Result<vsel::SearchResult> FleetExecutor::ExecuteAttempt(
    const vsel::pipeline::PartitionWorkUnit& unit,
    const vsel::TuningConfig& config, const vsel::SearchLimits& limits,
    vsel::CostModel* cost_model) {
  if (pool_->registered_total() == 0) {
    // Fleet mode with no fleet yet: behave exactly like a local daemon.
    local_fallbacks_->Add();
    return local_.ExecuteAttempt(unit, config, limits, cost_model);
  }

  FleetWorkUnit work;
  work.key = unit.key;
  work.identity = identity_;
  work.config = config;
  // The attempt's budget slice (stage 3's apportionment / spare-budget
  // decisions) replaces the run-level limits; the stop token and progress
  // callback never travel. Workers always get the *calibrated* weights —
  // calibration ran on the coordinator before any attempt — with
  // auto-calibration off so they cannot re-derive different ones.
  work.config.limits = limits;
  work.config.limits.stop = StopToken();
  work.config.limits.on_progress = nullptr;
  work.config.weights = cost_model->weights();
  work.config.auto_calibrate_cm = false;
  work.config.executor = nullptr;
  work.initial_state = *unit.initial_state;
  work.group_size = unit.group_size;
  const rdf::Statistics& stats = cost_model->stats();
  work.total_triples = stats.TotalTriples();
  for (int c = 0; c < 3; ++c) {
    auto col = static_cast<rdf::Column>(c);
    work.distinct[c] = stats.DistinctValues(col);
    work.avg_width[c] = stats.AvgWidth(col);
  }
  work.snapshot = UnitPatternCounts(*unit.initial_state, stats);

  auto blob = pool_->Execute(EncodeFleetWorkUnit(work), limits.stop);
  if (!blob.ok()) return blob.status();

  auto outcome = vsel::serialize::DeserializePartitionOutcome(
      *blob, unit.key, identity_);
  if (!outcome.ok()) return outcome.status();
  // Same semantic gate a cache entry passes, minus the completed
  // requirement: a budget-truncated remote attempt legitimately returns
  // its anytime best. The re-cost both validates the outcome against the
  // coordinator's live statistics and registers the views in the run's
  // interner.
  if (!vsel::pipeline::RehydratePartitionOutcome(
          &*outcome, unit.group_size, *cost_model,
          /*require_completed=*/false)) {
    rehydration_rejected_->Add();
    return Status::Internal(
        "fleet result failed rehydration (cost or structure drift)");
  }
  return std::move(outcome->search);
}

// ---- Worker side -----------------------------------------------------------

namespace {

/// The worker's one kWorkerHeartbeat writer: a single thread per
/// connection that beats every interval while a unit is in flight (Begin
/// to End) and sleeps while the worker is idle. Shares the worker's write
/// mutex with the result write, so frames never interleave, and End
/// returns only after any beat in progress, so no beat for a unit follows
/// its result.
class Heartbeat {
 public:
  Heartbeat(FrameTransport* transport, std::mutex* write_mu,
            std::string client_id, double interval_sec)
      : transport_(transport),
        write_mu_(write_mu),
        client_id_(std::move(client_id)),
        interval_(interval_sec),
        thread_([this] { Loop(); }) {}
  Heartbeat(const Heartbeat&) = delete;
  Heartbeat& operator=(const Heartbeat&) = delete;

  ~Heartbeat() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

  /// Starts beating for `unit_id`, the first beat one interval from now.
  void Begin(uint64_t unit_id) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      unit_id_ = unit_id;
      active_ = true;
      ++generation_;
    }
    cv_.notify_all();
  }

  /// Stops beating; returns only once a beat being written is done.
  void End() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      active_ = false;
      ++generation_;
    }
    cv_.notify_all();
  }

 private:
  void Loop() {
    std::unique_lock<std::mutex> lock(mu_);
    while (!stop_) {
      if (!active_) {
        cv_.wait(lock, [this] { return stop_ || active_; });
        continue;
      }
      // Each Begin / End bumps the generation: it restarts the interval
      // for a new unit and cuts the wait short when the unit ends.
      const uint64_t generation = generation_;
      if (cv_.wait_for(lock, interval_, [&] {
            return stop_ || generation_ != generation;
          })) {
        continue;
      }
      Request beat;
      beat.verb = Verb::kWorkerHeartbeat;
      beat.client_id = client_id_;
      beat.unit_id = unit_id_;
      std::lock_guard<std::mutex> write_lock(*write_mu_);
      // A failed write latches the transport: the worker's own result
      // write reports it, and beating further is pointless.
      if (!transport_->WriteFrame(EncodeRequest(beat)).ok()) return;
    }
  }

  FrameTransport* const transport_;
  std::mutex* const write_mu_;
  const std::string client_id_;
  const std::chrono::duration<double> interval_;
  std::mutex mu_;  // guards everything below; held across a beat's write
  std::condition_variable cv_;
  bool stop_ = false;
  bool active_ = false;
  uint64_t unit_id_ = 0;
  uint64_t generation_ = 0;
  std::thread thread_;  // last: starts once the fields above exist
};

/// Runs one decoded work unit and returns the kPartitionResult fields.
void RunUnit(const FleetWorkUnit& work, Request* result) {
  SnapshotStatistics stats(
      work.total_triples,
      {work.distinct[0], work.distinct[1], work.distinct[2]},
      {work.avg_width[0], work.avg_width[1], work.avg_width[2]});
  stats.Warm(work.snapshot);
  vsel::CostModel model(&stats, work.config.weights);
  Status search_status = Status::OK();
  try {
    Status injected = fault::MaybeThrow(fault::sites::kWorkerSearch);
    if (!injected.ok()) {
      search_status = injected;
    } else {
      auto search = vsel::RunSearch(work.config.strategy, work.initial_state,
                                    model, work.config.heuristics,
                                    work.config.limits);
      if (!search.ok()) {
        search_status = search.status();
      } else {
        vsel::pipeline::PartitionSearchResult outcome;
        outcome.search = std::move(*search);
        outcome.initial_cost = model.StateCost(work.initial_state);
        result->blob = vsel::serialize::SerializePartitionOutcome(
            work.key, outcome, work.identity);
      }
    }
  } catch (const std::bad_alloc&) {
    search_status = Status::ResourceExhausted("worker: out of memory");
  } catch (const std::exception& e) {
    search_status =
        Status::Internal(std::string("worker search threw: ") + e.what());
  } catch (...) {
    search_status = Status::Internal("worker search threw a non-exception");
  }
  result->result_code = search_status.code();
  result->result_message = search_status.message();
  if (stats.misses() > 0) {
    std::fprintf(stderr,
                 "[worker] WARNING: %llu snapshot misses in unit (counts "
                 "defaulted to 0 — closure invariant drifted)\n",
                 static_cast<unsigned long long>(stats.misses()));
  }
}

}  // namespace

Status RunWorker(const WorkerOptions& options) {
  auto fd = ConnectUnix(options.socket_path);
  if (!fd.ok()) return fd.status();
  FrameTransport transport(*fd);
  std::mutex write_mu;
  uint64_t next_request_id = 1;

  auto round_trip = [&](const Request& request) -> Result<Response> {
    {
      std::unique_lock<std::mutex> lock(write_mu);
      Status st = transport.WriteFrame(EncodeRequest(request));
      if (!st.ok()) return st;
    }
    auto frame = transport.ReadFrame();
    if (!frame.ok()) return frame.status();
    auto response = DecodeResponse(*frame);
    if (!response.ok()) return response.status();
    Status st = response->ToStatus();
    if (!st.ok()) return st;
    return std::move(*response);
  };

  // Ping first: a version-mismatched daemon is rejected with a clear
  // Status before the register verb can die with a ParseError.
  Request ping;
  ping.verb = Verb::kPing;
  ping.request_id = next_request_id++;
  ping.client_id = options.name;
  auto pong = round_trip(ping);
  if (!pong.ok()) return pong.status();
  if (pong->protocol_version != kProtocolVersion) {
    return Status::Unsupported(
        "vseld protocol version mismatch: daemon speaks v" +
        std::to_string(pong->protocol_version) + ", this worker speaks v" +
        std::to_string(kProtocolVersion));
  }

  Request reg;
  reg.verb = Verb::kRegisterWorker;
  reg.request_id = next_request_id++;
  reg.client_id = options.name;
  auto ack = round_trip(reg);
  if (!ack.ok()) return ack.status();

  // Registered: the connection is now a dispatch stream — the daemon
  // writes kDispatchPartition Requests, we answer with kPartitionResult /
  // kWorkerHeartbeat Requests.
  Heartbeat heartbeat(&transport, &write_mu, options.name,
                      options.heartbeat_interval_sec);
  size_t units_started = 0;
  for (;;) {
    auto frame = transport.ReadFrame();
    if (!frame.ok()) {
      // A clean close between units is the daemon draining: normal exit.
      if (frame.status().code() == StatusCode::kNotFound) return Status::OK();
      return frame.status();
    }
    auto request = DecodeRequest(*frame);
    if (!request.ok()) return request.status();
    if (request->verb != Verb::kDispatchPartition) {
      return Status::ParseError("worker: unexpected verb " +
                                std::string(VerbName(request->verb)));
    }
    ++units_started;

    Request result;
    result.verb = Verb::kPartitionResult;
    result.client_id = options.name;
    result.unit_id = request->unit_id;
    result.request_id = next_request_id++;

    auto work = DecodeFleetWorkUnit(request->blob);
    if (!work.ok()) {
      result.result_code = work.status().code();
      result.result_message = work.status().message();
    } else {
      if (options.die_in_unit != 0 && units_started == options.die_in_unit) {
        // Chaos hook: die mid-partition, after accepting the unit but
        // before any result or further heartbeat reaches the daemon.
        transport.ShutdownBoth();
        return Status::Internal("worker: chaos death in unit " +
                                std::to_string(units_started));
      }
      heartbeat.Begin(request->unit_id);
      RunUnit(*work, &result);
      heartbeat.End();
    }

    std::unique_lock<std::mutex> lock(write_mu);
    Status st = transport.WriteFrame(EncodeRequest(result));
    if (!st.ok()) return st;
  }
}

}  // namespace rdfviews::vseld
