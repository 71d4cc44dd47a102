// vseld wire protocol: length-prefixed, versioned, checksummed frames over
// a stream socket, encoded with the persistence layer's ByteWriter /
// ByteReader (vsel/serialize/binary_io.h) so the daemon speaks the same
// hardened dialect as the cache files.
//
// Framing. Every message on the wire is
//
//     [u32 magic "VSLD"] [u32 payload_length] [payload bytes]
//
// and the payload itself is
//
//     [u32 protocol version] [u8 frame kind] [kind-specific fields]
//     [u128 checksum of everything before it]
//
// The reader side is hostile-input hardened end to end: the length header
// is validated against kMaxFramePayload *before* any allocation (a
// corrupted or malicious length cannot drive a huge reserve), every field
// read is bounds-checked by ByteReader's latched-failure semantics,
// unknown versions / kinds / verbs and checksum mismatches are rejected
// with ParseError, and trailing bytes after a well-formed payload are
// rejected too (AtEnd). FrameTransport mirrors the same latched-failure
// contract at the socket level: a peer dropping mid-frame latches the
// transport — the current read fails cleanly and every later operation
// fails fast, so a torn connection is a counted error, never a wedged
// worker.
//
// Queries travel as datalog text (cq::ParseDatalog syntax), parsed by the
// daemon against the addressed store's dictionary: term ids are
// store-local, so shipping them would bind the client to the server's
// interning order. Options travel through serialize::SerializeTuningConfig
// (the deterministic scalar subset; stop tokens, callbacks and storage
// paths never cross the wire). Recommendations travel as the serialize.h blob,
// with the producing CacheIdentity alongside so the client can decode it.
#ifndef RDFVIEWS_VSELD_PROTOCOL_H_
#define RDFVIEWS_VSELD_PROTOCOL_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "vsel/options.h"
#include "vsel/selector.h"
#include "vsel/session/session.h"  // TuningProgress

namespace rdfviews::vseld {

inline constexpr uint32_t kFrameMagic = 0x444C5356;  // "VSLD"
/// Version 2 added the fleet verbs (register-worker, dispatch-partition,
/// partition-result, worker-heartbeat), the remote cache verbs, and the
/// ping response's protocol_version echo. Version 3 shrank the TuningConfig
/// wire form (open-session, dispatch-partition) from 28 fields to 20.
/// Version 4 seals payloads with ChecksumBytes128 instead of HashBytes128
/// (and recommendation and partition-outcome blobs travel in blob format
/// 2). Both sides reject other versions, and `ping` negotiates explicitly:
/// the server answers with its version and Client::Ping fails fast on a
/// mismatch instead of letting a later verb die with a confusing
/// ParseError.
inline constexpr uint32_t kProtocolVersion = 4;
/// Hard cap on one frame's payload; a length header beyond it is rejected
/// before any allocation.
inline constexpr uint32_t kMaxFramePayload = 64u << 20;

/// Client-to-server request verbs, and the two server-to-client frame
/// kinds (a response to a request, or a pushed progress event inside a
/// subscribe stream).
enum class Verb : uint8_t {
  kPing = 1,
  kOpenSession = 2,
  kUpdate = 3,
  kPoll = 4,
  kFetchRecommendation = 5,
  kCancel = 6,
  kSubscribeProgress = 7,
  kTelemetrySnapshot = 8,
  kCloseSession = 9,
  kShutdown = 10,
  // Fleet verbs. A worker registers with kRegisterWorker; after the ack
  // the same connection inverts into a dispatch stream: the daemon writes
  // kDispatchPartition frames (encoded as Requests) and the worker answers
  // with kPartitionResult / kWorkerHeartbeat frames.
  kRegisterWorker = 11,
  kDispatchPartition = 12,
  kPartitionResult = 13,
  kWorkerHeartbeat = 14,
  // Remote partition cache: a worker reads/writes the daemon's shared
  // per-identity cache through these instead of a local directory.
  kCacheGet = 15,
  kCachePut = 16,
  // Server → client:
  kResponse = 32,
  kProgressEvent = 33,
};

const char* VerbName(Verb verb);

/// Telemetry snapshot rendering requested by kTelemetrySnapshot.
enum class TelemetryFormat : uint8_t { kJson = 0, kPrometheus = 1 };

/// One decoded client request. Fields beyond (verb, request_id, client_id)
/// are verb-specific; unused ones stay at their defaults on the wire.
struct Request {
  Verb verb = Verb::kPing;
  /// Client-chosen correlation id, echoed in the response.
  uint64_t request_id = 0;
  /// The tenant identity quotas are enforced per. Free-form, non-empty for
  /// session verbs.
  std::string client_id;
  /// Session verbs: the target session.
  uint64_t session_id = 0;

  // kOpenSession:
  std::string store_tag;
  vsel::TuningConfig options;  // wire subset; see SerializeTuningConfig

  // kUpdate:
  std::vector<std::string> add_queries;  // datalog texts
  std::vector<std::string> remove_queries;
  /// kUpdate: block until the update finishes (the response then carries
  /// the final progress). kFetchRecommendation: wait for any in-flight
  /// update to finish before serializing.
  bool wait = false;

  // kFetchRecommendation:
  /// Normalize wall-clock-dependent stats fields so two equivalent runs
  /// yield byte-identical blobs (the parity gate's form).
  bool canonical = false;

  // kTelemetrySnapshot:
  TelemetryFormat telemetry_format = TelemetryFormat::kJson;

  // Fleet verbs. kDispatchPartition: `unit_id` names the work unit and
  // `blob` carries the fleet work-unit encoding (canonical key, wire
  // TuningConfig, start state, statistics snapshot, identity).
  // kPartitionResult: the unit echoed back with either a serialized
  // partition outcome in `blob` (result_code == kOk) or the worker-side
  // failure in (result_code, result_message). kWorkerHeartbeat: liveness
  // for the in-flight `unit_id`.
  uint64_t unit_id = 0;
  StatusCode result_code = StatusCode::kOk;
  std::string result_message;

  // kCacheGet / kCachePut: the salted cache key, the sealed entry bytes
  // (put), and the identity the entry must decode under.
  std::string cache_key;
  std::string blob;
  uint64_t identity_store_tag = 0;
  uint64_t identity_config_tag = 0;
};

/// One decoded server frame: either the response to a request (kind
/// kResponse) or a pushed progress event (kind kProgressEvent, only inside
/// a kSubscribeProgress stream, terminated by the stream's kResponse).
struct Response {
  /// Echo of the request's correlation id.
  uint64_t request_id = 0;
  /// kOk or the failure; `message` explains non-OK codes.
  StatusCode code = StatusCode::kOk;
  std::string message;

  /// kOpenSession: the new session id. Session verbs: echo.
  uint64_t session_id = 0;
  /// kUpdate (wait) / kPoll: the update's progress snapshot.
  vsel::TuningProgress progress;
  /// kFetchRecommendation: the serialized Recommendation blob.
  /// kTelemetrySnapshot: the rendered text.
  std::string blob;
  /// kFetchRecommendation: the identity the blob was sealed under (what
  /// DeserializeRecommendation must be handed).
  uint64_t store_tag = 0;
  uint64_t config_tag = 0;

  /// kProgressEvent frames only.
  bool is_progress_event = false;
  vsel::ProgressEvent event;
  /// Events the session's bounded queue dropped before this one.
  uint64_t events_dropped = 0;

  /// kPing: the server's kProtocolVersion, echoed so the client can reject
  /// a mismatched daemon with a clear Status up front.
  uint32_t protocol_version = 0;

  bool ok() const { return code == StatusCode::kOk; }
  Status ToStatus() const;
};

/// Encodes one request / response into payload bytes (version + kind +
/// fields + checksum — everything between the length header and the next
/// frame).
std::string EncodeRequest(const Request& request);
std::string EncodeResponse(const Response& response);

/// Decodes a payload. Rejects wrong versions, unknown kinds/verbs,
/// truncations, checksum mismatches and trailing bytes with ParseError.
Result<Request> DecodeRequest(std::string_view payload);
Result<Response> DecodeResponse(std::string_view payload);

/// Blocking framed transport over a connected stream socket. Takes
/// ownership of the fd. Thread-compatible: one reader and one writer at a
/// time (vseld's connection handlers are single-threaded per connection).
///
/// Latched-failure contract (the protocol-level mirror of ByteReader):
/// the first failed operation — EOF or a short read mid-frame, a write
/// error, an oversized or malformed length header, an injected
/// vseld.frame.* fault — latches the transport; the operation returns a
/// non-OK Status and every subsequent call fails immediately without
/// touching the socket. Callers therefore observe a torn peer exactly
/// once, as a clean Status, and can never spin or hang on a dead fd.
class FrameTransport {
 public:
  explicit FrameTransport(int fd) : fd_(fd) {}
  ~FrameTransport();
  FrameTransport(const FrameTransport&) = delete;
  FrameTransport& operator=(const FrameTransport&) = delete;

  /// Writes one frame (header + payload). Evaluates fault site
  /// vseld.frame.write.
  Status WriteFrame(std::string_view payload);

  /// Reads one frame's payload. Evaluates fault site vseld.frame.read.
  /// A clean EOF *between* frames returns NotFound("connection closed");
  /// EOF mid-frame is the torn-peer case and returns Internal.
  Result<std::string> ReadFrame();

  /// Half-closes both directions, unblocking any blocked read/write on
  /// another thread (the drain path). Idempotent; does not close the fd.
  void ShutdownBoth();

  bool failed() const { return failed_.load(std::memory_order_relaxed); }
  int fd() const { return fd_; }

 private:
  Status Latch(Status why);
  Status ReadExact(char* buf, size_t n, bool* clean_eof_at_start);
  Status WriteAll(const char* buf, size_t n);

  int fd_;
  std::atomic<bool> failed_{false};
};

/// AF_UNIX helpers. ListenUnix unlinks a stale socket file first;
/// ConnectUnix returns the connected fd.
Result<int> ListenUnix(const std::string& path, int backlog);
Result<int> ConnectUnix(const std::string& path);

}  // namespace rdfviews::vseld

#endif  // RDFVIEWS_VSELD_PROTOCOL_H_
