// Client side of the vseld protocol: a thin, blocking, one-connection
// wrapper over FrameTransport that turns each daemon verb into a typed
// call. Not thread-safe (one request/response exchange at a time — open a
// second Client for concurrency); sessions are addressed by id and outlive
// the connection, so a client may drop, reconnect, and keep using the
// session id it holds.
#ifndef RDFVIEWS_VSELD_CLIENT_H_
#define RDFVIEWS_VSELD_CLIENT_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "vsel/serialize/serialize.h"
#include "vseld/protocol.h"

namespace rdfviews::vseld {

class Client {
 public:
  /// Connects to a daemon's AF_UNIX socket. `client_id` is the tenant
  /// identity quotas are enforced per (non-empty).
  static Result<Client> Connect(const std::string& socket_path,
                                std::string client_id);

  Client(Client&&) = default;
  Client& operator=(Client&&) = default;

  /// Liveness plus protocol negotiation: the daemon answers with its
  /// protocol version and a mismatch fails here with Unsupported instead
  /// of surfacing later as a ParseError on a real verb.
  Status Ping();

  /// Remote partition cache verbs (what RemoteCacheBackend speaks): the
  /// daemon's shared per-identity cache, addressed by salted key. CacheGet
  /// returns the sealed partition-outcome bytes or NotFound; CachePut
  /// stores sealed bytes the daemon re-validates under `identity`.
  Result<std::string> CacheGet(const std::string& key,
                               const vsel::serialize::CacheIdentity& identity);
  Status CachePut(const std::string& key, std::string blob,
                  const vsel::serialize::CacheIdentity& identity);

  /// Opens a session over the daemon's store tagged `store_tag`; only the
  /// wire subset of `options` travels (see serialize::SerializeTuningConfig),
  /// and the daemon clamps the limits to the admission slice.
  Result<uint64_t> OpenSession(const std::string& store_tag,
                               const vsel::TuningConfig& options);

  /// Applies a workload delta (datalog texts / query names to drop).
  /// wait=true blocks until the update finishes and returns its final
  /// progress; wait=false returns after submission.
  Result<vsel::TuningProgress> Update(uint64_t session_id,
                                      std::vector<std::string> add_queries,
                                      std::vector<std::string> remove_queries,
                                      bool wait);

  Result<vsel::TuningProgress> Poll(uint64_t session_id);

  struct FetchedRecommendation {
    /// serialize.h recommendation blob; decode with
    /// DeserializeRecommendation under `identity`.
    std::string blob;
    vsel::serialize::CacheIdentity identity;
  };
  /// Fetches the session's last completed recommendation. wait=true first
  /// waits out any in-flight update; canonical=true requests the
  /// wall-clock-normalized parity form.
  Result<FetchedRecommendation> FetchRecommendation(uint64_t session_id,
                                                    bool canonical,
                                                    bool wait);

  /// Requests cooperative cancellation of the in-flight update (no-op when
  /// none); returns the progress snapshot at cancellation.
  Result<vsel::TuningProgress> Cancel(uint64_t session_id);

  /// Streams the in-flight update's progress events: `on_event` fires per
  /// pushed event (with the count of queue-dropped events before it) until
  /// the server sends the terminal response, whose final progress is
  /// returned. Returns immediately with the current progress when no
  /// update is running.
  Result<vsel::TuningProgress> SubscribeProgress(
      uint64_t session_id,
      const std::function<void(const vsel::ProgressEvent&, uint64_t dropped)>&
          on_event);

  /// The daemon's metrics snapshot, rendered as JSON or Prometheus text.
  Result<std::string> Telemetry(TelemetryFormat format);

  Status CloseSession(uint64_t session_id);

  /// Asks the daemon to drain (it acknowledges, then its owner stops it).
  Status Shutdown();

  /// Abruptly severs the connection without closing sessions — the
  /// stress harness's disconnect-mid-update tool. The client is unusable
  /// afterwards.
  void Abort();

 private:
  Client(std::unique_ptr<FrameTransport> transport, std::string client_id)
      : transport_(std::move(transport)), client_id_(std::move(client_id)) {}

  Request NewRequest(Verb verb, uint64_t session_id);
  Result<Response> RoundTrip(const Request& request);

  std::unique_ptr<FrameTransport> transport_;
  std::string client_id_;
  uint64_t next_request_id_ = 1;
};

}  // namespace rdfviews::vseld

#endif  // RDFVIEWS_VSELD_CLIENT_H_
