#include "vsel/robust/retrying_cache_backend.h"

#include <algorithm>
#include <utility>

#include "common/telemetry/trace.h"

namespace rdfviews::vsel::robust {

RetryingCacheBackend::RetryingCacheBackend(
    serialize::PartitionCacheBackend* delegate, Options options)
    : delegate_(delegate),
      backoff_sec_(options.backoff_sec),
      max_attempts_(std::max<size_t>(options.max_attempts, 1)),
      breaker_(options.breaker) {
  RegisterMetrics();
}

RetryingCacheBackend::RetryingCacheBackend(
    std::shared_ptr<serialize::PartitionCacheBackend> owned, Options options)
    : owned_(std::move(owned)),
      delegate_(owned_.get()),
      backoff_sec_(options.backoff_sec),
      max_attempts_(std::max<size_t>(options.max_attempts, 1)),
      breaker_(options.breaker) {
  RegisterMetrics();
}

double RetryingCacheBackend::BackoffDelay(uint64_t stream,
                                          size_t attempt) const {
  return BackoffDelaySec(backoff_sec_, backoff_sec_ * 16, stream, attempt);
}

void RetryingCacheBackend::RegisterMetrics() {
  metrics_ = telemetry::MetricsRegistry::Default()->RegisterCollector(
      [this](std::vector<telemetry::MetricSample>* out) {
        const uint64_t skipped_gets =
            skipped_gets_.load(std::memory_order_relaxed);
        Counters own;
        // Skipped Gets are lookups absorbed at this layer (they never reach
        // the delegate's series); counting them as this label's misses keeps
        // gets == hits + misses + io_failures true per label and in total.
        own.misses = skipped_gets;
        own.retries = retries_.load(std::memory_order_relaxed);
        own.breaker_skips =
            skipped_gets + skipped_puts_.load(std::memory_order_relaxed);
        serialize::AppendCacheCounterSamples(own, "retrying", out);
      });
}

Status RetryingCacheBackend::Get(const std::string& key, Fetched* out) {
  if (!breaker_.Allow()) {
    skipped_gets_.fetch_add(1, std::memory_order_relaxed);
    telemetry::TraceEvent("cache.breaker.skip", {{"op", "get"}});
    // A skipped lookup is just a miss to the session; the message keeps the
    // skip distinguishable from genuine absence for anyone who looks.
    return Status::NotFound("cache lookup skipped: circuit breaker open");
  }
  const uint64_t stream = op_counter_.fetch_add(1, std::memory_order_relaxed);
  for (size_t attempt = 1;; ++attempt) {
    Status s = delegate_->Get(key, out);
    if (s.ok() || s.code() == StatusCode::kNotFound) {
      // A genuine miss is backend health too: the storage answered.
      breaker_.RecordSuccess();
      return s;
    }
    if (attempt >= max_attempts_) {
      breaker_.RecordFailure();
      return s;
    }
    retries_.fetch_add(1, std::memory_order_relaxed);
    {
      telemetry::TraceSpan span("cache.retry.backoff");
      span.Annotate("op", "get");
      span.Annotate("attempt", static_cast<uint64_t>(attempt));
      SleepWithStop(BackoffDelay(stream, attempt + 1), nullptr);
    }
  }
}

Status RetryingCacheBackend::Put(const std::string& key,
                                 const pipeline::PartitionSearchResult& result) {
  if (!breaker_.Allow()) {
    skipped_puts_.fetch_add(1, std::memory_order_relaxed);
    telemetry::TraceEvent("cache.breaker.skip", {{"op", "put"}});
    // A skipped store is a future miss.
    return Status::Internal("cache store skipped: circuit breaker open");
  }
  const uint64_t stream = op_counter_.fetch_add(1, std::memory_order_relaxed);
  for (size_t attempt = 1;; ++attempt) {
    Status s = delegate_->Put(key, result);
    if (s.ok()) {
      breaker_.RecordSuccess();
      return s;
    }
    if (attempt >= max_attempts_) {
      breaker_.RecordFailure();
      return s;
    }
    retries_.fetch_add(1, std::memory_order_relaxed);
    {
      telemetry::TraceSpan span("cache.retry.backoff");
      span.Annotate("op", "put");
      span.Annotate("attempt", static_cast<uint64_t>(attempt));
      SleepWithStop(BackoffDelay(stream, attempt + 1), nullptr);
    }
  }
}

void RetryingCacheBackend::Clear() { delegate_->Clear(); }

size_t RetryingCacheBackend::Size() const { return delegate_->Size(); }

void RetryingCacheBackend::Trim(size_t max_entries) {
  delegate_->Trim(max_entries);
}

Status RetryingCacheBackend::Invalidate(const std::string& key) {
  return delegate_->Invalidate(key);
}

void RetryingCacheBackend::NoteRehydrationRejected() {
  delegate_->NoteRehydrationRejected();
}

serialize::PartitionCacheBackend::Counters RetryingCacheBackend::counters()
    const {
  Counters c = delegate_->counters();
  c.retries += retries_.load(std::memory_order_relaxed);
  c.breaker_skips += skipped_gets_.load(std::memory_order_relaxed) +
                     skipped_puts_.load(std::memory_order_relaxed);
  // Skipped Gets never reached the delegate; fold them into misses so the
  // session's hit/miss accounting still sums to its lookup count.
  c.misses += skipped_gets_.load(std::memory_order_relaxed);
  return c;
}

}  // namespace rdfviews::vsel::robust
