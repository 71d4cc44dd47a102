#include "vseld/registry.h"

#include <chrono>
#include <utility>

namespace rdfviews::vseld {

void EventQueue::Push(const vsel::ProgressEvent& event) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_) return;
    if (capacity_ > 0 && events_.size() >= capacity_) {
      events_.pop_front();
      ++undelivered_drops_;
      total_dropped_.fetch_add(1, std::memory_order_relaxed);
    }
    events_.push_back(event);
  }
  cv_.notify_one();
}

std::optional<vsel::ProgressEvent> EventQueue::Pop(double timeout_sec,
                                                   uint64_t* dropped_before) {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait_for(lock,
               std::chrono::duration<double>(timeout_sec < 0 ? 0 : timeout_sec),
               [this] { return closed_ || !events_.empty(); });
  if (events_.empty()) return std::nullopt;  // timeout or closed-and-empty
  if (dropped_before != nullptr) {
    *dropped_before = undelivered_drops_;
    undelivered_drops_ = 0;
  }
  vsel::ProgressEvent event = events_.front();
  events_.pop_front();
  return event;
}

void EventQueue::Close() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
  }
  cv_.notify_all();
}

std::shared_ptr<DaemonSession> SessionRegistry::Register(
    std::string client_id, std::string store_tag,
    vsel::serialize::CacheIdentity identity,
    std::unique_ptr<vsel::TuningSession> session,
    std::shared_ptr<EventQueue> events) {
  auto entry = std::make_shared<DaemonSession>();
  entry->client_id = std::move(client_id);
  entry->store_tag = std::move(store_tag);
  entry->identity = identity;
  entry->session = std::move(session);
  entry->events = std::move(events);
  {
    std::lock_guard<std::mutex> lock(mu_);
    entry->id = next_id_++;
    sessions_.emplace(entry->id, entry);
  }
  opened_.fetch_add(1, std::memory_order_relaxed);
  return entry;
}

std::shared_ptr<DaemonSession> SessionRegistry::Find(uint64_t id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sessions_.find(id);
  return it == sessions_.end() ? nullptr : it->second;
}

bool SessionRegistry::Close(uint64_t id, bool reaped) {
  std::shared_ptr<DaemonSession> entry;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = sessions_.find(id);
    if (it == sessions_.end()) return false;
    entry = std::move(it->second);
    sessions_.erase(it);
  }
  // Teardown outside the map lock: the wait joins the update worker (or
  // waits out the handler thread running a wait=true update). The
  // entry lock marks the session closing (so a concurrent handler that
  // still holds the shared_ptr fails its next verb instead of racing the
  // destruction), then is *released* before the blocking wait.
  std::shared_ptr<vsel::TuningHandle> inflight;
  {
    std::lock_guard<std::mutex> lock(entry->mu);
    entry->closing = true;
    inflight = std::move(entry->inflight);
  }
  if (inflight != nullptr) {
    inflight->Cancel();
    // Anytime contract: returns promptly post-cancel.
    (void)inflight->WaitStatus();
  }
  if (entry->events != nullptr) entry->events->Close();
  {
    // The session dies under the entry lock; closing=true guarantees no
    // handler will take a new reference to it.
    std::lock_guard<std::mutex> lock(entry->mu);
    entry->session.reset();
  }
  (reaped ? reaped_ : closed_).fetch_add(1, std::memory_order_relaxed);
  return true;
}

size_t SessionRegistry::DrainAll() {
  size_t n = 0;
  for (uint64_t id : LiveIds()) {
    if (Close(id, /*reaped=*/true)) ++n;
  }
  return n;
}

std::vector<uint64_t> SessionRegistry::LiveIds() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<uint64_t> ids;
  ids.reserve(sessions_.size());
  for (const auto& [id, entry] : sessions_) ids.push_back(id);
  return ids;
}

size_t SessionRegistry::live() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sessions_.size();
}

}  // namespace rdfviews::vseld
