#include "vseld/client.h"

#include <utility>

namespace rdfviews::vseld {

Result<Client> Client::Connect(const std::string& socket_path,
                               std::string client_id) {
  if (client_id.empty()) {
    return Status::InvalidArgument("client_id required");
  }
  Result<int> fd = ConnectUnix(socket_path);
  if (!fd.ok()) return fd.status();
  return Client(std::make_unique<FrameTransport>(*fd), std::move(client_id));
}

Request Client::NewRequest(Verb verb, uint64_t session_id) {
  Request req;
  req.verb = verb;
  req.request_id = next_request_id_++;
  req.client_id = client_id_;
  req.session_id = session_id;
  return req;
}

Result<Response> Client::RoundTrip(const Request& request) {
  RDFVIEWS_RETURN_IF_ERROR(transport_->WriteFrame(EncodeRequest(request)));
  Result<std::string> payload = transport_->ReadFrame();
  if (!payload.ok()) return payload.status();
  Result<Response> resp = DecodeResponse(*payload);
  if (!resp.ok()) return resp.status();
  if (resp->is_progress_event || resp->request_id != request.request_id) {
    return Status::Internal("response does not match request");
  }
  return resp;
}

Status Client::Ping() {
  Result<Response> resp = RoundTrip(NewRequest(Verb::kPing, 0));
  if (!resp.ok()) return resp.status();
  RDFVIEWS_RETURN_IF_ERROR(resp->ToStatus());
  // Version negotiation: an old daemon would otherwise surface as a
  // confusing ParseError on the first real verb.
  if (resp->protocol_version != kProtocolVersion) {
    return Status::Unsupported(
        "vseld protocol version mismatch: daemon speaks v" +
        std::to_string(resp->protocol_version) + ", this client speaks v" +
        std::to_string(kProtocolVersion));
  }
  return Status::OK();
}

Result<std::string> Client::CacheGet(
    const std::string& key, const vsel::serialize::CacheIdentity& identity) {
  Request req = NewRequest(Verb::kCacheGet, 0);
  req.cache_key = key;
  req.identity_store_tag = identity.store_tag;
  req.identity_config_tag = identity.config_tag;
  Result<Response> resp = RoundTrip(req);
  if (!resp.ok()) return resp.status();
  if (!resp->ok()) return resp->ToStatus();
  return std::move(resp->blob);
}

Status Client::CachePut(const std::string& key, std::string blob,
                        const vsel::serialize::CacheIdentity& identity) {
  Request req = NewRequest(Verb::kCachePut, 0);
  req.cache_key = key;
  req.blob = std::move(blob);
  req.identity_store_tag = identity.store_tag;
  req.identity_config_tag = identity.config_tag;
  Result<Response> resp = RoundTrip(req);
  if (!resp.ok()) return resp.status();
  return resp->ToStatus();
}

Result<uint64_t> Client::OpenSession(const std::string& store_tag,
                                     const vsel::TuningConfig& options) {
  Request req = NewRequest(Verb::kOpenSession, 0);
  req.store_tag = store_tag;
  req.options = options;
  Result<Response> resp = RoundTrip(req);
  if (!resp.ok()) return resp.status();
  if (!resp->ok()) return resp->ToStatus();
  return resp->session_id;
}

Result<vsel::TuningProgress> Client::Update(
    uint64_t session_id, std::vector<std::string> add_queries,
    std::vector<std::string> remove_queries, bool wait) {
  Request req = NewRequest(Verb::kUpdate, session_id);
  req.add_queries = std::move(add_queries);
  req.remove_queries = std::move(remove_queries);
  req.wait = wait;
  Result<Response> resp = RoundTrip(req);
  if (!resp.ok()) return resp.status();
  if (!resp->ok()) return resp->ToStatus();
  return resp->progress;
}

Result<vsel::TuningProgress> Client::Poll(uint64_t session_id) {
  Result<Response> resp = RoundTrip(NewRequest(Verb::kPoll, session_id));
  if (!resp.ok()) return resp.status();
  if (!resp->ok()) return resp->ToStatus();
  return resp->progress;
}

Result<Client::FetchedRecommendation> Client::FetchRecommendation(
    uint64_t session_id, bool canonical, bool wait) {
  Request req = NewRequest(Verb::kFetchRecommendation, session_id);
  req.canonical = canonical;
  req.wait = wait;
  Result<Response> resp = RoundTrip(req);
  if (!resp.ok()) return resp.status();
  if (!resp->ok()) return resp->ToStatus();
  FetchedRecommendation fetched;
  fetched.blob = std::move(resp->blob);
  fetched.identity.store_tag = resp->store_tag;
  fetched.identity.config_tag = resp->config_tag;
  return fetched;
}

Result<vsel::TuningProgress> Client::Cancel(uint64_t session_id) {
  Result<Response> resp = RoundTrip(NewRequest(Verb::kCancel, session_id));
  if (!resp.ok()) return resp.status();
  if (!resp->ok()) return resp->ToStatus();
  return resp->progress;
}

Result<vsel::TuningProgress> Client::SubscribeProgress(
    uint64_t session_id,
    const std::function<void(const vsel::ProgressEvent&, uint64_t)>&
        on_event) {
  Request req = NewRequest(Verb::kSubscribeProgress, session_id);
  RDFVIEWS_RETURN_IF_ERROR(transport_->WriteFrame(EncodeRequest(req)));
  for (;;) {
    Result<std::string> payload = transport_->ReadFrame();
    if (!payload.ok()) return payload.status();
    Result<Response> resp = DecodeResponse(*payload);
    if (!resp.ok()) return resp.status();
    if (resp->request_id != req.request_id) {
      return Status::Internal("response does not match subscription");
    }
    if (resp->is_progress_event) {
      if (on_event) on_event(resp->event, resp->events_dropped);
      continue;
    }
    if (!resp->ok()) return resp->ToStatus();
    return resp->progress;  // terminal
  }
}

Result<std::string> Client::Telemetry(TelemetryFormat format) {
  Request req = NewRequest(Verb::kTelemetrySnapshot, 0);
  req.telemetry_format = format;
  Result<Response> resp = RoundTrip(req);
  if (!resp.ok()) return resp.status();
  if (!resp->ok()) return resp->ToStatus();
  return std::move(resp->blob);
}

Status Client::CloseSession(uint64_t session_id) {
  Result<Response> resp =
      RoundTrip(NewRequest(Verb::kCloseSession, session_id));
  if (!resp.ok()) return resp.status();
  return resp->ToStatus();
}

Status Client::Shutdown() {
  Result<Response> resp = RoundTrip(NewRequest(Verb::kShutdown, 0));
  if (!resp.ok()) return resp.status();
  return resp->ToStatus();
}

void Client::Abort() {
  if (transport_ != nullptr) transport_->ShutdownBoth();
  transport_.reset();  // closes the fd mid-whatever the server was doing
}

}  // namespace rdfviews::vseld
