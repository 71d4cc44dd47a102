#include "vseld/server.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <utility>

#include "common/fault.h"
#include "common/telemetry/export.h"
#include "cq/parser.h"
#include "vsel/serialize/serialize.h"
#include "vsel/serialize/tiered_cache.h"
#include "vsel/session/session.h"

namespace rdfviews::vseld {

namespace serialize = vsel::serialize;

namespace {

/// The fixed rejection-reason label set (pre-registered so the hot path
/// never takes the registry mutex).
constexpr const char* kRejectReasons[] = {
    "draining",      "bad_request", "unknown_store", "max_sessions",
    "client_quota",  "update_size", "unknown_session", "parse",
    "busy",          "subscriber",  "fault",         "no_recommendation",
};

}  // namespace

Daemon::Daemon(DaemonOptions options)
    : options_(std::move(options)),
      admission_(options_.quota),
      fleet_pool_(WorkerPool::Options{
          .liveness_timeout_sec = options_.fleet_liveness_timeout_sec}) {
  auto* reg = telemetry::MetricsRegistry::Default();
  accepts_total_ = reg->GetCounter("vseld_accepts_total");
  accept_failures_total_ = reg->GetCounter("vseld_accept_failures_total");
  torn_reads_total_ = reg->GetCounter("vseld_torn_reads_total");
  first_byte_ns_ = reg->GetHistogram("vseld_accept_to_first_byte_ns");
  for (uint8_t v = static_cast<uint8_t>(Verb::kPing);
       v <= static_cast<uint8_t>(Verb::kCachePut); ++v) {
    const std::string label =
        std::string("verb=\"") + VerbName(static_cast<Verb>(v)) + "\"";
    frames_by_verb_[v] = reg->GetCounter("vseld_frames_total", label);
    verb_ns_[v] = reg->GetHistogram("vseld_verb_ns", label);
  }
  for (const char* reason : kRejectReasons) {
    // Touch each series so rejected_total{reason} exists from the start.
    reg->GetCounter("vseld_rejected_total",
                    std::string("reason=\"") + reason + "\"");
  }
  metrics_ = reg->RegisterCollector(
      [this](std::vector<telemetry::MetricSample>* out) {
        telemetry::MetricSample active;
        active.name = "vseld_sessions_active";
        active.kind = telemetry::MetricKind::kGauge;
        active.gauge_value = static_cast<int64_t>(registry_.live());
        out->push_back(std::move(active));
        telemetry::MetricSample opened;
        opened.name = "vseld_sessions_opened_total";
        opened.value = registry_.opened();
        out->push_back(std::move(opened));
        telemetry::MetricSample closed;
        closed.name = "vseld_sessions_closed_total";
        closed.value = registry_.closed();
        out->push_back(std::move(closed));
        telemetry::MetricSample reaped;
        reaped.name = "vseld_sessions_reaped_total";
        reaped.value = registry_.reaped();
        out->push_back(std::move(reaped));
      });
}

Daemon::~Daemon() { Stop(); }

void Daemon::RegisterStore(const std::string& tag,
                           const rdf::TripleStore* store,
                           rdf::Dictionary* dict, const rdf::Schema* schema) {
  auto entry = std::make_unique<StoreEntry>();
  entry->store = store;
  entry->dict = dict;
  entry->schema = schema;
  stores_[tag] = std::move(entry);
}

Status Daemon::Start() {
  if (running_.load()) return Status::InvalidArgument("daemon already running");
  if (stores_.empty()) {
    return Status::InvalidArgument("no stores registered");
  }
  Result<int> fd = ListenUnix(options_.socket_path, options_.listen_backlog);
  if (!fd.ok()) return fd.status();
  listen_fd_ = *fd;
  stopping_.store(false);
  running_.store(true);
  pool_ = std::make_unique<ThreadPool>(options_.max_connections);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void Daemon::AcceptLoop() {
  while (!stopping_.load(std::memory_order_relaxed)) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      if (stopping_.load(std::memory_order_relaxed)) break;
      // Transient failure (EMFILE, ECONNABORTED, ...): the accept loop
      // must survive it. The short sleep keeps a persistent error from
      // busy-spinning the thread.
      accept_failures_total_->Add();
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      continue;
    }
    accepts_total_->Add();
    Status injected = fault::Maybe(fault::sites::kDaemonAccept);
    if (!injected.ok()) {
      // Behave exactly as if the post-accept setup failed: drop this
      // connection, keep accepting.
      accept_failures_total_->Add();
      ::close(fd);
      continue;
    }
    auto accepted_at = std::chrono::steady_clock::now();
    pool_->Submit(
        [this, fd, accepted_at] { HandleConnection(fd, accepted_at); });
  }
}

void Daemon::HandleConnection(
    int fd, std::chrono::steady_clock::time_point accepted_at) {
  // Heap-allocated so a kRegisterWorker connection can be handed off to
  // the fleet pool, outliving this handler.
  auto transport = std::make_unique<FrameTransport>(fd);
  {
    std::lock_guard<std::mutex> lock(transports_mu_);
    transports_[fd] = transport.get();
  }
  bool first = true;
  while (!stopping_.load(std::memory_order_relaxed)) {
    Result<std::string> payload = transport->ReadFrame();
    if (!payload.ok()) {
      // NotFound = clean close between frames; anything else is the torn
      // mid-frame / injected-fault case — counted, contained, done.
      if (payload.status().code() != StatusCode::kNotFound) {
        torn_reads_total_->Add();
      }
      break;
    }
    if (first) {
      first = false;
      first_byte_ns_->Observe(static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - accepted_at)
              .count()));
    }
    Result<Request> req = DecodeRequest(*payload);
    if (!req.ok()) {
      // A frame that transported intact but does not decode means the
      // peer speaks something else: answer once, then drop the
      // connection (the stream offers no way to resynchronize).
      CountRejected("parse");
      Response resp = ErrorResponse(req.status(), nullptr);
      (void)transport->WriteFrame(EncodeResponse(resp));
      break;
    }
    const auto decoded_at = std::chrono::steady_clock::now();
    auto verb_counter = frames_by_verb_.find(static_cast<uint8_t>(req->verb));
    if (verb_counter != frames_by_verb_.end()) verb_counter->second->Add();
    // Observed once the verb's (last) response frame is written.
    auto verb_ns = verb_ns_.find(static_cast<uint8_t>(req->verb));
    auto observe_verb = [&] {
      if (verb_ns == verb_ns_.end()) return;
      verb_ns->second->Observe(static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - decoded_at)
              .count()));
    };
    if (req->verb == Verb::kSubscribeProgress) {
      HandleSubscribe(*req, transport.get());
      if (transport->failed()) break;
      observe_verb();
      continue;
    }
    if (req->verb == Verb::kRegisterWorker) {
      Response resp;
      resp.request_id = req->request_id;
      if (!options_.enable_fleet) {
        resp = ErrorResponse(Status::Unsupported("fleet mode disabled"),
                             "bad_request");
        resp.request_id = req->request_id;
        (void)transport->WriteFrame(EncodeResponse(resp));
        break;
      }
      if (!transport->WriteFrame(EncodeResponse(resp)).ok()) break;
      observe_verb();
      // Acked: the connection inverts into a dispatch stream owned by the
      // pool (its reader thread takes over; this handler is done). The
      // pool's shutdown path owns unblocking it from now on.
      {
        std::lock_guard<std::mutex> lock(transports_mu_);
        transports_.erase(fd);
      }
      fleet_pool_.AddWorker(std::move(transport),
                            req->client_id.empty() ? "worker"
                                                   : req->client_id);
      return;
    }
    bool close_connection = false;
    Response resp = Dispatch(*req, &close_connection);
    resp.request_id = req->request_id;
    if (resp.session_id == 0) resp.session_id = req->session_id;
    if (!transport->WriteFrame(EncodeResponse(resp)).ok()) break;
    observe_verb();
    if (close_connection) break;
  }
  {
    std::lock_guard<std::mutex> lock(transports_mu_);
    transports_.erase(fd);
  }
}

Response Daemon::Dispatch(const Request& req, bool* close_connection) {
  *close_connection = false;
  switch (req.verb) {
    case Verb::kPing: {
      // Protocol negotiation: echo our version so a mismatched client
      // fails fast with a clear Status instead of a later ParseError.
      Response resp;
      resp.protocol_version = kProtocolVersion;
      return resp;
    }
    case Verb::kOpenSession:
      return HandleOpenSession(req);
    case Verb::kCacheGet:
      return HandleCacheGet(req);
    case Verb::kCachePut:
      return HandleCachePut(req);
    case Verb::kUpdate:
      return HandleUpdate(req);
    case Verb::kPoll:
      return HandlePoll(req);
    case Verb::kFetchRecommendation:
      return HandleFetch(req);
    case Verb::kCancel:
      return HandleCancel(req);
    case Verb::kTelemetrySnapshot:
      return HandleTelemetry(req);
    case Verb::kCloseSession:
      return HandleCloseSession(req);
    case Verb::kShutdown: {
      {
        std::lock_guard<std::mutex> lock(shutdown_mu_);
        shutdown_requested_ = true;
      }
      shutdown_cv_.notify_all();
      Response resp;
      resp.message = "drain requested";
      return resp;
    }
    default:
      return ErrorResponse(Status::InvalidArgument("bad verb"), "bad_request");
  }
}

Response Daemon::HandleOpenSession(const Request& req) {
  if (stopping_.load(std::memory_order_relaxed)) {
    return ErrorResponse(Status::ResourceExhausted("daemon draining"),
                         "draining");
  }
  if (req.client_id.empty()) {
    return ErrorResponse(Status::InvalidArgument("client_id required"),
                         "bad_request");
  }
  auto store_it = stores_.find(req.store_tag);
  if (store_it == stores_.end()) {
    return ErrorResponse(
        Status::NotFound("unknown store tag: " + req.store_tag),
        "unknown_store");
  }
  StoreEntry* store = store_it->second.get();

  Status admitted = admission_.Admit(req.client_id);
  if (!admitted.ok()) {
    const char* reason =
        admitted.message().find("client session quota") != std::string::npos
            ? "client_quota"
            : "max_sessions";
    return ErrorResponse(std::move(admitted), reason);
  }

  vsel::TuningConfig opts = req.options;
  opts.limits = admission_.ClampLimits(opts.limits);
  auto events = std::make_shared<EventQueue>();
  // The fan-out installed at construction: TuningSession chains it with
  // each update's async progress tracker, so every update of this session
  // streams through the one queue.
  opts.limits.on_progress = [events](const vsel::ProgressEvent& event) {
    events->Push(event);
  };
  serialize::CacheIdentity identity =
      serialize::ComputeCacheIdentity(*store->store, opts);
  if (options_.enable_fleet) {
    // Dirty-partition search attempts go to registered workers; while none
    // are registered the executor transparently runs them in-process.
    opts.executor = std::make_shared<FleetExecutor>(&fleet_pool_, identity);
  }
  auto session = std::make_unique<vsel::TuningSession>(
      store->store, store->dict, opts, store->schema, BackendFor(identity));
  std::shared_ptr<DaemonSession> entry =
      registry_.Register(req.client_id, req.store_tag, identity,
                         std::move(session), std::move(events));
  Response resp;
  resp.session_id = entry->id;
  return resp;
}

Response Daemon::HandleCacheGet(const Request& req) {
  serialize::CacheIdentity identity{req.identity_store_tag,
                                    req.identity_config_tag};
  auto backend = BackendFor(identity);
  if (backend == nullptr) {
    return ErrorResponse(
        Status::Unsupported("daemon has no shared cache (cache_dir unset)"),
        "bad_request");
  }
  serialize::PartitionCacheBackend::Fetched fetched;
  Status st = backend->Get(req.cache_key, &fetched);
  if (!st.ok()) return ErrorResponse(std::move(st), nullptr);
  Response resp;
  // Re-seal the decoded outcome: the client gets exactly the validated,
  // identity-tagged form it would read from a shared directory.
  resp.blob = serialize::SerializePartitionOutcome(req.cache_key,
                                                   fetched.result, identity);
  resp.store_tag = identity.store_tag;
  resp.config_tag = identity.config_tag;
  return resp;
}

Response Daemon::HandleCachePut(const Request& req) {
  serialize::CacheIdentity identity{req.identity_store_tag,
                                    req.identity_config_tag};
  auto backend = BackendFor(identity);
  if (backend == nullptr) {
    return ErrorResponse(
        Status::Unsupported("daemon has no shared cache (cache_dir unset)"),
        "bad_request");
  }
  // Hostile-input hardening: never store bytes we did not validate. The
  // blob must decode under the claimed identity with the claimed key
  // embedded, or the put is rejected.
  auto outcome = serialize::DeserializePartitionOutcome(req.blob,
                                                        req.cache_key,
                                                        identity);
  if (!outcome.ok()) return ErrorResponse(outcome.status(), "bad_request");
  Status st = backend->Put(req.cache_key, *outcome);
  if (!st.ok()) return ErrorResponse(std::move(st), nullptr);
  return Response{};
}

Result<std::shared_ptr<DaemonSession>> Daemon::FindSession(
    const Request& req) {
  std::shared_ptr<DaemonSession> entry = registry_.Find(req.session_id);
  if (entry == nullptr) {
    CountRejected("unknown_session");
    return Status::NotFound("unknown session " +
                            std::to_string(req.session_id));
  }
  return entry;
}

void Daemon::HarvestLocked(DaemonSession* entry) {
  if (entry->inflight == nullptr || !entry->inflight->Poll()) return;
  Result<vsel::Recommendation> result = entry->inflight->TakeResult();
  if (result.ok()) entry->last_recommendation = std::move(*result);
  entry->inflight = nullptr;
}

Response Daemon::HandleUpdate(const Request& req) {
  Result<std::shared_ptr<DaemonSession>> found = FindSession(req);
  if (!found.ok()) return ErrorResponse(found.status(), nullptr);
  std::shared_ptr<DaemonSession> entry = *found;

  Status sized = admission_.CheckUpdateSize(req.add_queries.size(),
                                            req.remove_queries.size());
  if (!sized.ok()) return ErrorResponse(std::move(sized), "update_size");

  // Parse the delta against the session's store dictionary. Interning
  // mutates the dictionary, which is not thread-safe — the per-store
  // parse mutex serializes every handler targeting the same store.
  auto store_it = stores_.find(entry->store_tag);
  if (store_it == stores_.end()) {
    return ErrorResponse(Status::Internal("store vanished"), nullptr);
  }
  std::vector<cq::ConjunctiveQuery> adds;
  adds.reserve(req.add_queries.size());
  {
    std::lock_guard<std::mutex> parse_lock(store_it->second->parse_mu);
    for (const std::string& text : req.add_queries) {
      Result<cq::ConjunctiveQuery> parsed =
          cq::ParseDatalog(text, store_it->second->dict);
      if (!parsed.ok()) return ErrorResponse(parsed.status(), "parse");
      adds.push_back(std::move(*parsed));
    }
  }

  // The head-of-update fault site: a failure here must come back as a
  // Status response with the session untouched and still usable.
  Status injected = fault::Maybe(fault::sites::kDaemonSessionRun);
  if (!injected.ok()) return ErrorResponse(std::move(injected), "fault");

  std::shared_ptr<vsel::TuningHandle> handle;
  {
    std::lock_guard<std::mutex> lock(entry->mu);
    if (entry->closing || entry->session == nullptr) {
      return ErrorResponse(Status::NotFound("session closing"),
                           "unknown_session");
    }
    HarvestLocked(entry.get());
    if (entry->inflight != nullptr) {
      return ErrorResponse(
          Status::InvalidArgument("an update is already in flight"), "busy");
    }
    // A waiting update runs on this handler thread, which would otherwise
    // only block in Wait(); registered as in flight before it starts, so
    // Cancel, Poll, Subscribe, Close and Stop reach it all the same.
    handle = req.wait ? entry->session->UpdateDeferred(std::move(adds),
                                                       req.remove_queries)
                      : entry->session->UpdateAsync(std::move(adds),
                                                    req.remove_queries);
    entry->inflight = handle;
  }

  Response resp;
  resp.session_id = entry->id;
  if (req.wait) {
    Status status = handle->Run();  // no lock held
    resp.progress = handle->Current();
    {
      std::lock_guard<std::mutex> lock(entry->mu);
      HarvestLocked(entry.get());
    }
    if (!status.ok()) {
      resp.code = status.code();
      resp.message = status.message();
    }
  } else {
    resp.progress = handle->Current();
  }
  return resp;
}

Response Daemon::HandlePoll(const Request& req) {
  Result<std::shared_ptr<DaemonSession>> found = FindSession(req);
  if (!found.ok()) return ErrorResponse(found.status(), nullptr);
  std::shared_ptr<DaemonSession> entry = *found;
  Response resp;
  resp.session_id = entry->id;
  std::lock_guard<std::mutex> lock(entry->mu);
  if (entry->inflight != nullptr) {
    resp.progress = entry->inflight->Current();
    HarvestLocked(entry.get());
  } else {
    resp.progress.done = true;
  }
  return resp;
}

Response Daemon::HandleFetch(const Request& req) {
  Result<std::shared_ptr<DaemonSession>> found = FindSession(req);
  if (!found.ok()) return ErrorResponse(found.status(), nullptr);
  std::shared_ptr<DaemonSession> entry = *found;

  if (req.wait) {
    std::shared_ptr<vsel::TuningHandle> handle;
    {
      std::lock_guard<std::mutex> lock(entry->mu);
      handle = entry->inflight;
    }
    if (handle != nullptr) (void)handle->WaitStatus();  // no lock held
  }
  Response resp;
  resp.session_id = entry->id;
  std::lock_guard<std::mutex> lock(entry->mu);
  HarvestLocked(entry.get());
  if (!entry->last_recommendation.has_value()) {
    return ErrorResponse(Status::NotFound("no completed update to serve"),
                         "no_recommendation");
  }
  resp.blob = req.canonical
                  ? serialize::SerializeRecommendationCanonical(
                        *entry->last_recommendation, entry->identity)
                  : serialize::SerializeRecommendation(
                        *entry->last_recommendation, entry->identity);
  resp.store_tag = entry->identity.store_tag;
  resp.config_tag = entry->identity.config_tag;
  return resp;
}

Response Daemon::HandleCancel(const Request& req) {
  Result<std::shared_ptr<DaemonSession>> found = FindSession(req);
  if (!found.ok()) return ErrorResponse(found.status(), nullptr);
  std::shared_ptr<DaemonSession> entry = *found;
  Response resp;
  resp.session_id = entry->id;
  std::lock_guard<std::mutex> lock(entry->mu);
  if (entry->inflight != nullptr) {
    entry->inflight->Cancel();
    resp.progress = entry->inflight->Current();
  } else {
    resp.progress.done = true;
  }
  return resp;
}

Response Daemon::HandleTelemetry(const Request& req) {
  telemetry::MetricsSnapshot snapshot =
      telemetry::MetricsRegistry::Default()->Snapshot();
  Response resp;
  resp.blob = req.telemetry_format == TelemetryFormat::kPrometheus
                  ? telemetry::PrometheusText(snapshot)
                  : telemetry::MetricsJson(snapshot);
  return resp;
}

Response Daemon::HandleCloseSession(const Request& req) {
  Result<std::shared_ptr<DaemonSession>> found = FindSession(req);
  if (!found.ok()) return ErrorResponse(found.status(), nullptr);
  CloseSessionInternal(req.session_id, /*reaped=*/false);
  Response resp;
  resp.session_id = req.session_id;
  return resp;
}

void Daemon::HandleSubscribe(const Request& req, FrameTransport* transport) {
  Result<std::shared_ptr<DaemonSession>> found = FindSession(req);
  if (!found.ok()) {
    Response resp = ErrorResponse(found.status(), nullptr);
    resp.request_id = req.request_id;
    (void)transport->WriteFrame(EncodeResponse(resp));
    return;
  }
  std::shared_ptr<DaemonSession> entry = *found;
  if (entry->subscriber_active.exchange(true)) {
    Response resp = ErrorResponse(
        Status::InvalidArgument("a subscriber is already attached"),
        "subscriber");
    resp.request_id = req.request_id;
    (void)transport->WriteFrame(EncodeResponse(resp));
    return;
  }

  auto write_event = [&](const vsel::ProgressEvent& event,
                         uint64_t dropped) {
    Response push;
    push.is_progress_event = true;
    push.request_id = req.request_id;
    push.session_id = entry->id;
    push.event = event;
    push.events_dropped = dropped;
    return transport->WriteFrame(EncodeResponse(push)).ok();
  };

  // Stream until the in-flight update (if any) finishes AND the queue is
  // drained; re-check liveness every tick so a drain or a torn client
  // never wedges the handler.
  for (;;) {
    uint64_t dropped = 0;
    std::optional<vsel::ProgressEvent> event =
        entry->events->Pop(options_.subscribe_tick_sec, &dropped);
    if (event.has_value()) {
      if (!write_event(*event, dropped)) break;
      continue;
    }
    bool update_running;
    {
      std::lock_guard<std::mutex> lock(entry->mu);
      update_running =
          entry->inflight != nullptr && !entry->inflight->Poll();
    }
    if (!update_running || stopping_.load(std::memory_order_relaxed) ||
        transport->failed()) {
      break;
    }
  }
  // The update finished between our last Pop and the done check: drain
  // the tail without blocking, then send the terminal response.
  for (;;) {
    uint64_t dropped = 0;
    std::optional<vsel::ProgressEvent> event = entry->events->Pop(0, &dropped);
    if (!event.has_value()) break;
    if (!write_event(*event, dropped)) break;
  }
  Response done;
  done.request_id = req.request_id;
  done.session_id = entry->id;
  {
    std::lock_guard<std::mutex> lock(entry->mu);
    if (entry->inflight != nullptr) {
      done.progress = entry->inflight->Current();
      HarvestLocked(entry.get());
    } else {
      done.progress.done = true;
    }
  }
  (void)transport->WriteFrame(EncodeResponse(done));
  entry->subscriber_active.store(false);
}

std::shared_ptr<serialize::PartitionCacheBackend> Daemon::BackendFor(
    const serialize::CacheIdentity& identity) {
  if (options_.cache_dir.empty()) return nullptr;
  std::string key = serialize::IdentityKeyBytes(identity);
  std::lock_guard<std::mutex> lock(backends_mu_);
  auto it = backends_.find(key);
  if (it != backends_.end()) return it->second;
  auto dir = std::make_shared<serialize::DirCacheBackend>(options_.cache_dir,
                                                          identity);
  auto tiered = std::make_shared<serialize::TieredCacheBackend>(
      std::move(dir), options_.tiered_front_capacity);
  backends_.emplace(std::move(key), tiered);
  return tiered;
}

bool Daemon::CloseSessionInternal(uint64_t id, bool reaped) {
  std::shared_ptr<DaemonSession> entry = registry_.Find(id);
  if (entry == nullptr) return false;
  if (!registry_.Close(id, reaped)) return false;
  admission_.Release(entry->client_id);
  return true;
}

Response Daemon::ErrorResponse(Status status, const char* reject_reason) {
  if (reject_reason != nullptr) CountRejected(reject_reason);
  Response resp;
  resp.code = status.code();
  resp.message = status.message();
  return resp;
}

void Daemon::CountRejected(const char* reason) {
  telemetry::MetricsRegistry::Default()
      ->GetCounter("vseld_rejected_total",
                   std::string("reason=\"") + reason + "\"")
      ->Add();
}

bool Daemon::WaitShutdownRequested(double timeout_sec) {
  std::unique_lock<std::mutex> lock(shutdown_mu_);
  if (timeout_sec < 0) {
    shutdown_cv_.wait(lock, [this] { return shutdown_requested_; });
    return true;
  }
  return shutdown_cv_.wait_for(lock,
                               std::chrono::duration<double>(timeout_sec),
                               [this] { return shutdown_requested_; });
}

void Daemon::Stop() {
  if (!running_.exchange(false)) return;
  stopping_.store(true);

  // 1. Stop accepting: shutdown() wakes a blocked accept(2); join, close.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }

  // 2. Cancel every in-flight update: the anytime contract terminates the
  // searches within a bounded number of expansions, so handlers blocked
  // in wait=true verbs return promptly with the valid current best.
  for (uint64_t id : registry_.LiveIds()) {
    std::shared_ptr<DaemonSession> entry = registry_.Find(id);
    if (entry == nullptr) continue;
    std::lock_guard<std::mutex> lock(entry->mu);
    if (entry->inflight != nullptr) entry->inflight->Cancel();
  }

  // 3. Unblock handlers parked in ReadFrame / WriteFrame.
  {
    std::lock_guard<std::mutex> lock(transports_mu_);
    for (auto& [fd, transport] : transports_) transport->ShutdownBoth();
  }

  // 3b. Sever the fleet's worker connections and join their readers (any
  // dispatch still in flight fails over to the cancelled-update path).
  fleet_pool_.Shutdown();

  // 4. Join the handler pool (destructor drains the queue and joins).
  pool_.reset();

  // 5. Reap every session a client left behind.
  for (uint64_t id : registry_.LiveIds()) {
    if (CloseSessionInternal(id, /*reaped=*/true)) ++drained_sessions_;
  }
}

}  // namespace rdfviews::vseld
