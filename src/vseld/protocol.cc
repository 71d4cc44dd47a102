#include "vseld/protocol.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/fault.h"
#include "common/hash.h"
#include "vsel/serialize/binary_io.h"
#include "vsel/serialize/serialize.h"

namespace rdfviews::vseld {

namespace serialize = vsel::serialize;
using serialize::ByteReader;
using serialize::ByteWriter;

const char* VerbName(Verb verb) {
  switch (verb) {
    case Verb::kPing: return "ping";
    case Verb::kOpenSession: return "open_session";
    case Verb::kUpdate: return "update";
    case Verb::kPoll: return "poll";
    case Verb::kFetchRecommendation: return "fetch_recommendation";
    case Verb::kCancel: return "cancel";
    case Verb::kSubscribeProgress: return "subscribe_progress";
    case Verb::kTelemetrySnapshot: return "telemetry_snapshot";
    case Verb::kCloseSession: return "close_session";
    case Verb::kShutdown: return "shutdown";
    case Verb::kRegisterWorker: return "register_worker";
    case Verb::kDispatchPartition: return "dispatch_partition";
    case Verb::kPartitionResult: return "partition_result";
    case Verb::kWorkerHeartbeat: return "worker_heartbeat";
    case Verb::kCacheGet: return "cache_get";
    case Verb::kCachePut: return "cache_put";
    case Verb::kResponse: return "response";
    case Verb::kProgressEvent: return "progress_event";
  }
  return "unknown";
}

Status Response::ToStatus() const {
  switch (code) {
    case StatusCode::kOk: return Status::OK();
    case StatusCode::kInvalidArgument: return Status::InvalidArgument(message);
    case StatusCode::kNotFound: return Status::NotFound(message);
    case StatusCode::kParseError: return Status::ParseError(message);
    case StatusCode::kResourceExhausted:
      return Status::ResourceExhausted(message);
    case StatusCode::kTimedOut: return Status::TimedOut(message);
    case StatusCode::kInternal: return Status::Internal(message);
    case StatusCode::kUnsupported: return Status::Unsupported(message);
  }
  return Status::Internal(message);
}

namespace {

/// Appends the checksum of everything written so far and returns the
/// payload (the envelope SealBlob applies to files, inlined here because a
/// payload is not a magic-led blob — the magic lives in the frame header).
std::string SealPayload(ByteWriter w) {
  const std::string& body = w.bytes();
  Hash128 sum = ChecksumBytes128(body.data(), body.size());
  w.U64(sum.lo);
  w.U64(sum.hi);
  return w.TakeBytes();
}

/// Validates version + checksum and returns a reader positioned after the
/// version field, scoped to exclude the checksum tail.
Result<ByteReader> OpenPayload(std::string_view payload) {
  constexpr size_t kTail = 16;  // Hash128
  if (payload.size() < 4 + kTail) {
    return Status::ParseError("vseld frame payload truncated");
  }
  std::string_view body = payload.substr(0, payload.size() - kTail);
  Hash128 sum = ChecksumBytes128(body.data(), body.size());
  ByteReader tail(payload.substr(payload.size() - kTail));
  Hash128 stored{tail.U64(), tail.U64()};
  if (stored != sum) {
    return Status::ParseError("vseld frame payload checksum mismatch");
  }
  ByteReader r(body);
  uint32_t version = r.U32();
  if (r.failed() || version != kProtocolVersion) {
    return Status::ParseError("unsupported vseld protocol version " +
                              std::to_string(version));
  }
  return r;
}

bool ValidVerb(uint8_t raw) {
  return (raw >= static_cast<uint8_t>(Verb::kPing) &&
          raw <= static_cast<uint8_t>(Verb::kCachePut)) ||
         raw == static_cast<uint8_t>(Verb::kResponse) ||
         raw == static_cast<uint8_t>(Verb::kProgressEvent);
}

void WriteProgress(const vsel::TuningProgress& p, ByteWriter* w) {
  w->F64(p.best_cost);
  w->U64(p.improvements);
  w->U64(p.partitions_done);
  w->U64(p.partitions_total);
  w->U64(p.partitions_failed);
  w->U64(p.partition_retries);
  w->U8(p.cancel_requested ? 1 : 0);
  w->U8(p.done ? 1 : 0);
}

vsel::TuningProgress ReadProgress(ByteReader* r) {
  vsel::TuningProgress p;
  p.best_cost = r->F64();
  p.improvements = r->U64();
  p.partitions_done = static_cast<size_t>(r->U64());
  p.partitions_total = static_cast<size_t>(r->U64());
  p.partitions_failed = static_cast<size_t>(r->U64());
  p.partition_retries = static_cast<size_t>(r->U64());
  p.cancel_requested = r->U8() != 0;
  p.done = r->U8() != 0;
  return p;
}

void WriteEvent(const vsel::ProgressEvent& e, ByteWriter* w) {
  w->U8(static_cast<uint8_t>(e.kind));
  w->F64(e.best_cost);
  w->F64(e.elapsed_sec);
  w->U64(e.partition);
  w->U64(e.partitions_total);
  w->U64(e.attempt);
}

Result<vsel::ProgressEvent> ReadEvent(ByteReader* r) {
  vsel::ProgressEvent e;
  uint8_t kind = r->U8();
  if (kind > static_cast<uint8_t>(
                 vsel::ProgressEvent::Kind::kPartitionAbandoned)) {
    return Status::ParseError("bad progress event kind");
  }
  e.kind = static_cast<vsel::ProgressEvent::Kind>(kind);
  e.best_cost = r->F64();
  e.elapsed_sec = r->F64();
  e.partition = static_cast<size_t>(r->U64());
  e.partitions_total = static_cast<size_t>(r->U64());
  e.attempt = static_cast<size_t>(r->U64());
  return e;
}

}  // namespace

std::string EncodeRequest(const Request& request) {
  ByteWriter w;
  w.U32(kProtocolVersion);
  w.U8(static_cast<uint8_t>(request.verb));
  w.U64(request.request_id);
  w.Str(request.client_id);
  w.U64(request.session_id);
  w.Str(request.store_tag);
  serialize::SerializeTuningConfig(request.options, &w);
  w.U64(request.add_queries.size());
  for (const std::string& q : request.add_queries) w.Str(q);
  w.U64(request.remove_queries.size());
  for (const std::string& q : request.remove_queries) w.Str(q);
  w.U8(request.wait ? 1 : 0);
  w.U8(request.canonical ? 1 : 0);
  w.U8(static_cast<uint8_t>(request.telemetry_format));
  w.U64(request.unit_id);
  w.U8(static_cast<uint8_t>(request.result_code));
  w.Str(request.result_message);
  w.Str(request.cache_key);
  w.Str(request.blob);
  w.U64(request.identity_store_tag);
  w.U64(request.identity_config_tag);
  return SealPayload(std::move(w));
}

Result<Request> DecodeRequest(std::string_view payload) {
  Result<ByteReader> opened = OpenPayload(payload);
  if (!opened.ok()) return opened.status();
  ByteReader& r = *opened;
  Request req;
  uint8_t raw_verb = r.U8();
  if (r.failed() || !ValidVerb(raw_verb) ||
      raw_verb >= static_cast<uint8_t>(Verb::kResponse)) {
    return Status::ParseError("bad request verb");
  }
  req.verb = static_cast<Verb>(raw_verb);
  req.request_id = r.U64();
  req.client_id = r.Str();
  req.session_id = r.U64();
  req.store_tag = r.Str();
  Result<vsel::TuningConfig> options = serialize::DeserializeTuningConfig(&r);
  if (!options.ok()) return options.status();
  req.options = std::move(*options);
  uint64_t n_add = r.Count(8);
  for (uint64_t i = 0; i < n_add && !r.failed(); ++i) {
    req.add_queries.push_back(r.Str());
  }
  uint64_t n_remove = r.Count(8);
  for (uint64_t i = 0; i < n_remove && !r.failed(); ++i) {
    req.remove_queries.push_back(r.Str());
  }
  req.wait = r.U8() != 0;
  req.canonical = r.U8() != 0;
  uint8_t fmt = r.U8();
  if (fmt > static_cast<uint8_t>(TelemetryFormat::kPrometheus)) {
    return Status::ParseError("bad telemetry format");
  }
  req.telemetry_format = static_cast<TelemetryFormat>(fmt);
  req.unit_id = r.U64();
  uint8_t result_code = r.U8();
  if (result_code > static_cast<uint8_t>(StatusCode::kUnsupported)) {
    return Status::ParseError("bad partition-result status code");
  }
  req.result_code = static_cast<StatusCode>(result_code);
  req.result_message = r.Str();
  req.cache_key = r.Str();
  req.blob = r.Str();
  req.identity_store_tag = r.U64();
  req.identity_config_tag = r.U64();
  if (!r.AtEnd()) return Status::ParseError("malformed vseld request");
  return req;
}

std::string EncodeResponse(const Response& response) {
  ByteWriter w;
  w.U32(kProtocolVersion);
  w.U8(static_cast<uint8_t>(response.is_progress_event ? Verb::kProgressEvent
                                                       : Verb::kResponse));
  w.U64(response.request_id);
  w.U8(static_cast<uint8_t>(response.code));
  w.Str(response.message);
  w.U64(response.session_id);
  WriteProgress(response.progress, &w);
  w.Str(response.blob);
  w.U64(response.store_tag);
  w.U64(response.config_tag);
  WriteEvent(response.event, &w);
  w.U64(response.events_dropped);
  w.U32(response.protocol_version);
  return SealPayload(std::move(w));
}

Result<Response> DecodeResponse(std::string_view payload) {
  Result<ByteReader> opened = OpenPayload(payload);
  if (!opened.ok()) return opened.status();
  ByteReader& r = *opened;
  Response resp;
  uint8_t raw_kind = r.U8();
  if (r.failed() || (raw_kind != static_cast<uint8_t>(Verb::kResponse) &&
                     raw_kind != static_cast<uint8_t>(Verb::kProgressEvent))) {
    return Status::ParseError("bad response kind");
  }
  resp.is_progress_event =
      raw_kind == static_cast<uint8_t>(Verb::kProgressEvent);
  resp.request_id = r.U64();
  uint8_t code = r.U8();
  if (code > static_cast<uint8_t>(StatusCode::kUnsupported)) {
    return Status::ParseError("bad status code");
  }
  resp.code = static_cast<StatusCode>(code);
  resp.message = r.Str();
  resp.session_id = r.U64();
  resp.progress = ReadProgress(&r);
  resp.blob = r.Str();
  resp.store_tag = r.U64();
  resp.config_tag = r.U64();
  Result<vsel::ProgressEvent> event = ReadEvent(&r);
  if (!event.ok()) return event.status();
  resp.event = *event;
  resp.events_dropped = r.U64();
  resp.protocol_version = r.U32();
  if (!r.AtEnd()) return Status::ParseError("malformed vseld response");
  return resp;
}

// ---- FrameTransport --------------------------------------------------------

FrameTransport::~FrameTransport() {
  if (fd_ >= 0) ::close(fd_);
}

Status FrameTransport::Latch(Status why) {
  failed_.store(true, std::memory_order_relaxed);
  return why;
}

Status FrameTransport::ReadExact(char* buf, size_t n,
                                 bool* clean_eof_at_start) {
  size_t got = 0;
  while (got < n) {
    ssize_t r = ::recv(fd_, buf + got, n - got, 0);
    if (r > 0) {
      got += static_cast<size_t>(r);
      continue;
    }
    if (r < 0 && errno == EINTR) continue;
    if (r == 0 && got == 0 && clean_eof_at_start != nullptr) {
      *clean_eof_at_start = true;
      return Latch(Status::NotFound("connection closed"));
    }
    // EOF mid-frame or a socket error: the torn-peer case.
    return Latch(Status::Internal(
        r == 0 ? "peer closed connection mid-frame"
               : "socket read failed: " + std::string(std::strerror(errno))));
  }
  return Status::OK();
}

Status FrameTransport::WriteAll(const char* buf, size_t n) {
  size_t sent = 0;
  while (sent < n) {
    // MSG_NOSIGNAL: a torn peer must produce EPIPE, not kill the daemon.
    ssize_t w = ::send(fd_, buf + sent, n - sent, MSG_NOSIGNAL);
    if (w > 0) {
      sent += static_cast<size_t>(w);
      continue;
    }
    if (w < 0 && errno == EINTR) continue;
    return Latch(Status::Internal("socket write failed: " +
                                  std::string(std::strerror(errno))));
  }
  return Status::OK();
}

Status FrameTransport::WriteFrame(std::string_view payload) {
  if (failed()) return Status::Internal("transport already failed");
  if (payload.size() > kMaxFramePayload) {
    return Latch(Status::InvalidArgument("frame payload too large"));
  }
  Status injected = fault::Maybe(fault::sites::kDaemonFrameWrite);
  if (!injected.ok()) return Latch(std::move(injected));
  ByteWriter header;
  header.U32(kFrameMagic);
  header.U32(static_cast<uint32_t>(payload.size()));
  // One send for the common small frame keeps a concurrent reader from
  // seeing a header/payload gap; correctness only needs ordering, which
  // two sends also give, but the copy is cheap relative to a syscall.
  std::string wire = header.TakeBytes();
  wire.append(payload.data(), payload.size());
  return WriteAll(wire.data(), wire.size());
}

Result<std::string> FrameTransport::ReadFrame() {
  if (failed()) return Status::Internal("transport already failed");
  Status injected = fault::Maybe(fault::sites::kDaemonFrameRead);
  if (!injected.ok()) return Latch(std::move(injected));
  char header[8];
  bool clean_eof = false;
  Status st = ReadExact(header, sizeof(header), &clean_eof);
  if (!st.ok()) return st;
  ByteReader r(std::string_view(header, sizeof(header)));
  uint32_t magic = r.U32();
  uint32_t len = r.U32();
  if (magic != kFrameMagic) {
    return Latch(Status::ParseError("bad frame magic"));
  }
  // Validate before allocating: a corrupted length header must fail the
  // connection, not drive a multi-gigabyte resize.
  if (len > kMaxFramePayload) {
    return Latch(Status::ParseError("frame length exceeds limit"));
  }
  std::string payload(len, '\0');
  if (len > 0) {
    st = ReadExact(payload.data(), len, nullptr);
    if (!st.ok()) return st;
  }
  return payload;
}

void FrameTransport::ShutdownBoth() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

// ---- AF_UNIX helpers -------------------------------------------------------

namespace {

Status FillAddr(const std::string& path, sockaddr_un* addr) {
  if (path.size() >= sizeof(addr->sun_path)) {
    return Status::InvalidArgument("socket path too long: " + path);
  }
  std::memset(addr, 0, sizeof(*addr));
  addr->sun_family = AF_UNIX;
  std::memcpy(addr->sun_path, path.c_str(), path.size() + 1);
  return Status::OK();
}

}  // namespace

Result<int> ListenUnix(const std::string& path, int backlog) {
  sockaddr_un addr;
  RDFVIEWS_RETURN_IF_ERROR(FillAddr(path, &addr));
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Internal("socket() failed: " +
                            std::string(std::strerror(errno)));
  }
  ::unlink(path.c_str());  // stale socket file from a previous run
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Status st = Status::Internal("bind(" + path + ") failed: " +
                                 std::string(std::strerror(errno)));
    ::close(fd);
    return st;
  }
  if (::listen(fd, backlog) != 0) {
    Status st = Status::Internal("listen(" + path + ") failed: " +
                                 std::string(std::strerror(errno)));
    ::close(fd);
    return st;
  }
  return fd;
}

Result<int> ConnectUnix(const std::string& path) {
  sockaddr_un addr;
  RDFVIEWS_RETURN_IF_ERROR(FillAddr(path, &addr));
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Internal("socket() failed: " +
                            std::string(std::strerror(errno)));
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Status st = Status::Internal("connect(" + path + ") failed: " +
                                 std::string(std::strerror(errno)));
    ::close(fd);
    return st;
  }
  return fd;
}

}  // namespace rdfviews::vseld
