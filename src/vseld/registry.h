// The daemon's session table: every live TuningSession, addressable by id,
// with the per-session machinery the connection handlers need — the
// in-flight async update handle, a bounded progress-event queue feeding
// kSubscribeProgress streams, and the bookkeeping that proves no session
// leaks (opened == closed + reaped when the daemon drains).
//
// Concurrency model. The registry map has its own mutex (held only for
// lookups and insert/erase). Each entry then carries its *own* mutex
// guarding the session pointer and in-flight handle; handlers lock one
// entry, never the map, around session work — and never hold the entry
// lock across a blocking wait or a wait=true update's run (they take a
// shared_ptr to the handle out under the lock and wait on it, or run it,
// outside, which TuningHandle supports).
// Sessions deliberately outlive connections: a client that drops mid-update
// reconnects and re-addresses its session by id; abandoned sessions are
// reaped by the daemon's drain.
#ifndef RDFVIEWS_VSELD_REGISTRY_H_
#define RDFVIEWS_VSELD_REGISTRY_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "vsel/serialize/serialize.h"
#include "vsel/session/session.h"

namespace rdfviews::vseld {

/// Bounded MPSC progress-event queue between a session's on_progress
/// callback (invoked concurrently from search worker threads — must never
/// block) and at most one kSubscribeProgress streamer. Push is
/// non-blocking: at capacity the oldest event is dropped and counted, so a
/// slow or absent subscriber costs memory-bounded history, never
/// backpressure into the search.
class EventQueue {
 public:
  explicit EventQueue(size_t capacity = 256) : capacity_(capacity) {}

  void Push(const vsel::ProgressEvent& event);

  /// Blocks up to `timeout_sec` for an event. Returns nullopt on timeout
  /// or close. `dropped_before` receives the number of events dropped
  /// before the returned one (and is reset).
  std::optional<vsel::ProgressEvent> Pop(double timeout_sec,
                                         uint64_t* dropped_before);

  /// Wakes every blocked Pop permanently (drain path).
  void Close();

  uint64_t total_dropped() const {
    return total_dropped_.load(std::memory_order_relaxed);
  }

 private:
  const size_t capacity_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<vsel::ProgressEvent> events_;
  uint64_t undelivered_drops_ = 0;
  std::atomic<uint64_t> total_dropped_{0};
  bool closed_ = false;
};

/// One live daemon-side session.
struct DaemonSession {
  uint64_t id = 0;
  std::string client_id;
  /// Which registered store the session tunes (handlers re-resolve it to
  /// parse update queries against the right dictionary).
  std::string store_tag;
  vsel::serialize::CacheIdentity identity;

  /// Guards `session`, `inflight`, `last_recommendation` and `closing`.
  /// Never held across a TuningHandle wait or Run.
  std::mutex mu;
  std::unique_ptr<vsel::TuningSession> session;
  /// The at-most-one in-flight update (TuningSession's own contract),
  /// whether it runs on its own thread (wait=false) or on the handler
  /// thread that waits for it (wait=true); a finished handle stays here
  /// until the next update or a poll observes it.
  std::shared_ptr<vsel::TuningHandle> inflight;
  /// Last completed update's recommendation (what kFetchRecommendation
  /// serializes), moved out of a finished handle whenever a handler
  /// harvests it.
  std::optional<vsel::Recommendation> last_recommendation;
  /// Set once by Close/Drain; later verbs addressing the session fail.
  bool closing = false;

  /// Progress events from every update of this session. A shared_ptr
  /// because the fan-out callback capturing it is installed at
  /// TuningSession construction, before this entry exists — and search
  /// worker threads may still hold the callback while the entry dies.
  std::shared_ptr<EventQueue> events;
  /// One subscriber at a time (second kSubscribeProgress is rejected).
  std::atomic<bool> subscriber_active{false};
};

/// The id -> session table plus leak-proof accounting.
class SessionRegistry {
 public:
  /// Registers a constructed session; returns its entry (already visible
  /// to other handlers). `events` is the queue the session's on_progress
  /// callback already feeds.
  std::shared_ptr<DaemonSession> Register(
      std::string client_id, std::string store_tag,
      vsel::serialize::CacheIdentity identity,
      std::unique_ptr<vsel::TuningSession> session,
      std::shared_ptr<EventQueue> events);

  std::shared_ptr<DaemonSession> Find(uint64_t id) const;

  /// Removes the entry and tears the session down: cancels + waits any
  /// in-flight update, closes the event queue, destroys the TuningSession.
  /// `reaped` distinguishes daemon-drain teardown from client-requested
  /// close in the counters. Returns false when `id` is unknown.
  bool Close(uint64_t id, bool reaped);

  /// Drains every remaining session (cancel in-flight, wait, destroy).
  /// Returns how many were reaped.
  size_t DrainAll();

  std::vector<uint64_t> LiveIds() const;
  size_t live() const;
  uint64_t opened() const { return opened_.load(std::memory_order_relaxed); }
  uint64_t closed() const { return closed_.load(std::memory_order_relaxed); }
  uint64_t reaped() const { return reaped_.load(std::memory_order_relaxed); }

 private:
  mutable std::mutex mu_;
  std::unordered_map<uint64_t, std::shared_ptr<DaemonSession>> sessions_;
  uint64_t next_id_ = 1;
  std::atomic<uint64_t> opened_{0};
  std::atomic<uint64_t> closed_{0};
  std::atomic<uint64_t> reaped_{0};
};

}  // namespace rdfviews::vseld

#endif  // RDFVIEWS_VSELD_REGISTRY_H_
