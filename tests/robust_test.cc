// Unit tests for the robustness layer: the deterministic fault injector
// (src/common/fault.h), retry backoff and stop-aware sleeps
// (src/vsel/robust/retry.h), the deadline watchdog, the circuit breaker
// (injected clock, no real waiting), the RetryingCacheBackend decorator
// over a scripted flaky delegate, the DirCacheBackend io-failure signal
// and temp-file reaping, and ThreadPool task-death containment. The
// end-to-end failure semantics (degraded recommendations, retry
// convergence, session integrity under faults) live in chaos_test.cc.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <new>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/fault.h"
#include "common/status.h"
#include "common/stop_token.h"
#include "common/thread_pool.h"
#include "vsel/robust/circuit_breaker.h"
#include "vsel/robust/retry.h"
#include "vsel/robust/retrying_cache_backend.h"
#include "vsel/robust/watchdog.h"
#include "vsel/serialize/partition_cache.h"

namespace rdfviews::vsel::robust {
namespace {

namespace fs = std::filesystem;

/// A fresh, empty scratch directory under the test temp root.
std::string TempCacheDir(const std::string& name) {
  fs::path dir = fs::path(::testing::TempDir()) / ("rdfviews_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

/// Every fault test disarms on exit so a failing assertion can never leak
/// an armed plan into later tests.
class FaultInjectionTest : public ::testing::Test {
 protected:
  void TearDown() override { fault::Disarm(); }
};

// ---- Fault injector --------------------------------------------------------

TEST_F(FaultInjectionTest, DisarmedSitesAreSilentNoOps) {
  fault::Arm(1, {});  // resets counters
  fault::Disarm();
  EXPECT_FALSE(fault::armed());
  EXPECT_TRUE(fault::Maybe(fault::sites::kPartitionSearch).ok());
  EXPECT_TRUE(fault::MaybeThrow(fault::sites::kPartitionSearch).ok());
  EXPECT_EQ(fault::Hits(fault::sites::kPartitionSearch), 0u);
  EXPECT_EQ(fault::Injected(fault::sites::kPartitionSearch), 0u);
}

TEST_F(FaultInjectionTest, ArmedSitesNotInThePlanStayHealthy) {
  fault::SiteSpec spec;
  fault::Arm(1, {{fault::sites::kSnapshotLoad, spec}});
  EXPECT_TRUE(fault::armed());
  EXPECT_TRUE(fault::Maybe(fault::sites::kPartitionSearch).ok());
  EXPECT_EQ(fault::Hits(fault::sites::kPartitionSearch), 0u);
}

TEST_F(FaultInjectionTest, NthWindowFiresExactlyCountHits) {
  fault::SiteSpec spec;
  spec.nth = 2;
  spec.count = 2;
  fault::Arm(1, {{fault::sites::kPartitionSearch, spec}});
  std::vector<bool> fired;
  for (int i = 0; i < 5; ++i) {
    fired.push_back(!fault::Maybe(fault::sites::kPartitionSearch).ok());
  }
  EXPECT_EQ(fired, (std::vector<bool>{false, true, true, false, false}));
  EXPECT_EQ(fault::Hits(fault::sites::kPartitionSearch), 5u);
  EXPECT_EQ(fault::Injected(fault::sites::kPartitionSearch), 2u);
}

TEST_F(FaultInjectionTest, ForeverWindowNeverCloses) {
  fault::SiteSpec spec;
  spec.nth = 3;
  spec.count = fault::kForever;
  fault::Arm(1, {{fault::sites::kPartitionSearch, spec}});
  for (int i = 1; i <= 6; ++i) {
    EXPECT_EQ(fault::Maybe(fault::sites::kPartitionSearch).ok(), i < 3)
        << "hit " << i;
  }
  EXPECT_EQ(fault::Injected(fault::sites::kPartitionSearch), 4u);
}

TEST_F(FaultInjectionTest, ProbabilisticFiringIsSeedDeterministic) {
  fault::SiteSpec spec;
  spec.probability = 0.5;
  auto draw_pattern = [&spec](uint64_t seed) {
    fault::Arm(seed, {{fault::sites::kPartitionSearch, spec}});
    std::vector<bool> fired;
    for (int i = 0; i < 64; ++i) {
      fired.push_back(!fault::Maybe(fault::sites::kPartitionSearch).ok());
    }
    return fired;
  };
  std::vector<bool> first = draw_pattern(42);
  EXPECT_EQ(draw_pattern(42), first);  // same seed, same sequence
  // The stream is genuinely probabilistic: 64 draws at p = 0.5 contain
  // both outcomes (failure probability 2^-63).
  size_t fires = 0;
  for (bool f : first) fires += f;
  EXPECT_GT(fires, 0u);
  EXPECT_LT(fires, 64u);
  EXPECT_NE(draw_pattern(43), first);
}

TEST_F(FaultInjectionTest, MaybeThrowConvertsActionsToExceptions) {
  fault::SiteSpec spec;
  spec.action = fault::Action::kThrow;
  spec.count = 2;
  fault::Arm(1, {{fault::sites::kPoolTask, spec}});
  EXPECT_THROW(fault::MaybeThrow(fault::sites::kPoolTask),
               std::runtime_error);
  // The non-throwing entry point surfaces the same trigger as a Status.
  EXPECT_FALSE(fault::Maybe(fault::sites::kPoolTask).ok());

  spec.action = fault::Action::kBadAlloc;
  fault::Arm(1, {{fault::sites::kPoolTask, spec}});
  EXPECT_THROW(fault::MaybeThrow(fault::sites::kPoolTask), std::bad_alloc);
  EXPECT_EQ(fault::Maybe(fault::sites::kPoolTask).code(),
            StatusCode::kResourceExhausted);
}

TEST_F(FaultInjectionTest, HangReleasedByScopedToken) {
  fault::SiteSpec spec;
  spec.action = fault::Action::kHang;
  fault::Arm(1, {{fault::sites::kPartitionSearch, spec}});
  StopSource stop;
  std::atomic<bool> done{false};
  Status got = Status::OK();
  std::thread hung([&] {
    // ScopedHangToken stores a pointer: the token must outlive the guard.
    const StopToken token = stop.token();
    const fault::ScopedHangToken guard(token);
    got = fault::Maybe(fault::sites::kPartitionSearch);
    done.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(done.load());  // genuinely hung until released
  stop.RequestStop();
  hung.join();
  EXPECT_TRUE(done.load());
  EXPECT_EQ(got.code(), StatusCode::kTimedOut);
}

TEST_F(FaultInjectionTest, HangSelfReleasesAtSafetyCap) {
  fault::SiteSpec spec;
  spec.action = fault::Action::kHang;
  spec.hang_max_sec = 0.05;
  fault::Arm(1, {{fault::sites::kPartitionSearch, spec}});
  const auto start = std::chrono::steady_clock::now();
  Status got = fault::Maybe(fault::sites::kPartitionSearch);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_EQ(got.code(), StatusCode::kTimedOut);
  EXPECT_GE(elapsed, 0.04);
  EXPECT_LT(elapsed, 5.0);
}

// ---- Retry backoff ---------------------------------------------------------

TEST(RetryBackoffTest, FirstAttemptNeverSleeps) {
  EXPECT_EQ(BackoffDelaySec(0.005, 0.25, 0, 0), 0.0);
  EXPECT_EQ(BackoffDelaySec(0.005, 0.25, 0, 1), 0.0);
}

TEST(RetryBackoffTest, GrowsExponentiallyWithinJitterBand) {
  for (size_t attempt = 2; attempt <= 6; ++attempt) {
    const double base =
        0.1 * std::pow(2.0, static_cast<double>(attempt) - 2.0);
    const double d = BackoffDelaySec(0.1, 100.0, 3, attempt);
    EXPECT_GE(d, 0.5 * base) << "attempt " << attempt;
    EXPECT_LE(d, base) << "attempt " << attempt;
    // Deterministic: the same (stream, attempt) sleeps the same.
    EXPECT_EQ(BackoffDelaySec(0.1, 100.0, 3, attempt), d);
  }
}

TEST(RetryBackoffTest, CappedAtMaxBackoff) {
  for (size_t attempt = 2; attempt <= 10; ++attempt) {
    EXPECT_LE(BackoffDelaySec(0.1, 0.15, 0, attempt), 0.15);
  }
}

TEST(RetryBackoffTest, DistinctStreamsDecorrelate) {
  bool any_differ = false;
  for (size_t attempt = 2; attempt <= 5 && !any_differ; ++attempt) {
    any_differ = BackoffDelaySec(0.1, 100.0, 0, attempt) !=
                 BackoffDelaySec(0.1, 100.0, 1, attempt);
  }
  EXPECT_TRUE(any_differ);
}

TEST(RetryBackoffTest, SleepWithStopHonorsStopAndMeasures) {
  EXPECT_EQ(SleepWithStop(-1.0, nullptr), 0.0);
  EXPECT_EQ(SleepWithStop(0.0, nullptr), 0.0);

  const double slept = SleepWithStop(0.02, nullptr);
  EXPECT_GE(slept, 0.015);

  StopSource stop;
  stop.RequestStop();
  StopToken token = stop.token();
  const auto start = std::chrono::steady_clock::now();
  const double cancelled = SleepWithStop(5.0, &token);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_LT(cancelled, 1.0);
  EXPECT_LT(wall, 1.0);
}

// ---- Watchdog --------------------------------------------------------------

TEST(WatchdogTest, FiresStopSourceAfterDeadline) {
  Watchdog dog;
  StopSource source;
  StopToken token = source.token();
  const uint64_t ticket = dog.Arm(0.02, std::move(source));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!token.stop_requested() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(token.stop_requested());
  EXPECT_TRUE(dog.Fired(ticket));
  EXPECT_EQ(dog.fired(), 1u);
}

TEST(WatchdogTest, DisarmedEntryNeverFires) {
  Watchdog dog;
  StopSource source;
  StopToken token = source.token();
  const uint64_t ticket = dog.Arm(30.0, std::move(source));
  dog.Disarm(ticket);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(token.stop_requested());
  EXPECT_FALSE(dog.Fired(ticket));
  EXPECT_EQ(dog.fired(), 0u);
  dog.Disarm(ticket);  // idempotent
}

TEST(WatchdogTest, NonPositiveDeadlineFiresImmediately) {
  Watchdog dog;
  StopSource source;
  StopToken token = source.token();
  const uint64_t ticket = dog.Arm(0.0, std::move(source));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!token.stop_requested() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(dog.Fired(ticket));
}

TEST(WatchdogTest, InterleavedEntriesFireAndDisarmIndependently) {
  Watchdog dog;
  StopSource fast;
  StopSource slow;
  StopToken fast_token = fast.token();
  StopToken slow_token = slow.token();
  const uint64_t slow_ticket = dog.Arm(30.0, std::move(slow));
  const uint64_t fast_ticket = dog.Arm(0.02, std::move(fast));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!fast_token.stop_requested() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(dog.Fired(fast_ticket));
  EXPECT_FALSE(slow_token.stop_requested());
  dog.Disarm(slow_ticket);
  EXPECT_FALSE(dog.Fired(slow_ticket));
  EXPECT_EQ(dog.fired(), 1u);
}

// ---- Circuit breaker -------------------------------------------------------

/// Breaker whose clock the test advances by hand: open windows elapse
/// instantly, so the state machine is exercised without real sleeps.
struct SteppedBreaker {
  std::chrono::steady_clock::time_point now =
      std::chrono::steady_clock::time_point{} + std::chrono::hours(1);
  CircuitBreaker breaker;

  explicit SteppedBreaker(CircuitBreaker::Options options)
      : breaker(options, [this] { return now; }) {}

  void Advance(double sec) {
    now += std::chrono::duration_cast<std::chrono::steady_clock::duration>(
        std::chrono::duration<double>(sec));
  }
};

CircuitBreaker::Options BreakerOptions(size_t threshold, double open_sec) {
  CircuitBreaker::Options options;
  options.failure_threshold = threshold;
  options.open_sec = open_sec;
  return options;
}

TEST(CircuitBreakerTest, OpensOnConsecutiveFailuresOnly) {
  SteppedBreaker sb(BreakerOptions(3, 10.0));
  EXPECT_EQ(sb.breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_TRUE(sb.breaker.Allow());
  sb.breaker.RecordFailure();
  sb.breaker.RecordFailure();
  // A success resets the consecutive run: two more failures stay closed.
  sb.breaker.RecordSuccess();
  sb.breaker.RecordFailure();
  sb.breaker.RecordFailure();
  EXPECT_EQ(sb.breaker.state(), CircuitBreaker::State::kClosed);
  sb.breaker.RecordFailure();
  EXPECT_EQ(sb.breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(sb.breaker.opens(), 1u);
  EXPECT_FALSE(sb.breaker.Allow());
  EXPECT_FALSE(sb.breaker.Allow());
  EXPECT_EQ(sb.breaker.skips(), 2u);
}

TEST(CircuitBreakerTest, HalfOpenAdmitsOneProbeAndProbeOutcomeDecides) {
  SteppedBreaker sb(BreakerOptions(2, 10.0));
  sb.breaker.RecordFailure();
  sb.breaker.RecordFailure();
  ASSERT_EQ(sb.breaker.state(), CircuitBreaker::State::kOpen);

  sb.Advance(11.0);
  EXPECT_EQ(sb.breaker.state(), CircuitBreaker::State::kHalfOpen);
  EXPECT_TRUE(sb.breaker.Allow());   // the probe
  EXPECT_FALSE(sb.breaker.Allow());  // probe in flight: everyone else waits
  // A failing probe re-opens for a fresh window.
  sb.breaker.RecordFailure();
  EXPECT_EQ(sb.breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(sb.breaker.opens(), 2u);
  EXPECT_FALSE(sb.breaker.Allow());

  sb.Advance(11.0);
  EXPECT_TRUE(sb.breaker.Allow());
  sb.breaker.RecordSuccess();
  EXPECT_EQ(sb.breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_TRUE(sb.breaker.Allow());
}

// ---- RetryingCacheBackend over a scripted delegate -------------------------

/// A delegate whose next N Gets / Puts fail on demand: Get failures are
/// storage failures (non-NotFound Status), so the decorator's retry logic
/// engages; a genuine miss (no scripted failure, no entry) is NotFound.
class FlakyBackend : public serialize::PartitionCacheBackend {
 public:
  Status Get(const std::string& key, Fetched* out) override {
    (void)key;
    ++get_calls;
    if (get_failures_remaining > 0) {
      --get_failures_remaining;
      return Status::Internal("scripted storage failure");
    }
    if (!has_entry) return Status::NotFound("no entry");
    out->needs_rehydration = false;
    return Status::OK();
  }

  Status Put(const std::string& key,
             const pipeline::PartitionSearchResult& result) override {
    (void)key;
    (void)result;
    ++put_calls;
    if (put_failures_remaining > 0) {
      --put_failures_remaining;
      return Status::Internal("scripted storage failure");
    }
    has_entry = true;
    return Status::OK();
  }

  void Clear() override { has_entry = false; }
  size_t Size() const override { return has_entry ? 1 : 0; }
  void NoteRehydrationRejected() override { ++rehydration_rejected; }
  Counters counters() const override {
    Counters c;
    c.hits = has_entry ? 1 : 0;
    return c;
  }

  size_t get_failures_remaining = 0;
  size_t put_failures_remaining = 0;
  bool has_entry = false;
  size_t get_calls = 0;
  size_t put_calls = 0;
  size_t rehydration_rejected = 0;
};

RetryingCacheBackend::Options FastRetryOptions(size_t max_attempts) {
  RetryingCacheBackend::Options options;
  options.max_attempts = max_attempts;
  options.backoff_sec = 0.0005;
  return options;
}

TEST(RetryingCacheBackendTest, TransientGetFailureIsRetriedToSuccess) {
  FlakyBackend flaky;
  flaky.has_entry = true;
  flaky.get_failures_remaining = 2;
  RetryingCacheBackend robust(&flaky, FastRetryOptions(3));
  serialize::PartitionCacheBackend::Fetched fetched;
  EXPECT_TRUE(robust.Get("k", &fetched).ok());
  EXPECT_EQ(flaky.get_calls, 3u);
  EXPECT_EQ(robust.counters().retries, 2u);
  EXPECT_EQ(robust.breaker().state(), CircuitBreaker::State::kClosed);
}

TEST(RetryingCacheBackendTest, GenuineMissIsNotRetried) {
  FlakyBackend flaky;
  RetryingCacheBackend robust(&flaky, FastRetryOptions(3));
  serialize::PartitionCacheBackend::Fetched fetched;
  // NotFound — not a storage-failure code — comes straight back.
  EXPECT_EQ(robust.Get("k", &fetched).code(), StatusCode::kNotFound);
  EXPECT_EQ(flaky.get_calls, 1u);
  EXPECT_EQ(robust.counters().retries, 0u);
}

TEST(RetryingCacheBackendTest, ExhaustedGetReportsTheStorageFailure) {
  FlakyBackend flaky;
  flaky.has_entry = true;
  flaky.get_failures_remaining = 1000;
  RetryingCacheBackend robust(&flaky, FastRetryOptions(2));
  serialize::PartitionCacheBackend::Fetched fetched;
  Status s = robust.Get("k", &fetched);
  // The delegate's storage-failure Status surfaces, not a NotFound mask.
  EXPECT_EQ(s.code(), StatusCode::kInternal);
  EXPECT_EQ(flaky.get_calls, 2u);
}

TEST(RetryingCacheBackendTest, TransientPutFailureIsRetriedToSuccess) {
  FlakyBackend flaky;
  flaky.put_failures_remaining = 1;
  RetryingCacheBackend robust(&flaky, FastRetryOptions(3));
  EXPECT_TRUE(robust.Put("k", pipeline::PartitionSearchResult{}).ok());
  EXPECT_EQ(flaky.put_calls, 2u);
  EXPECT_EQ(robust.counters().retries, 1u);
  EXPECT_TRUE(flaky.has_entry);
}

TEST(RetryingCacheBackendTest, ExhaustedOperationsOpenTheBreaker) {
  FlakyBackend flaky;
  flaky.has_entry = true;
  flaky.get_failures_remaining = 1000;
  RetryingCacheBackend::Options options = FastRetryOptions(2);
  options.breaker.failure_threshold = 2;
  options.breaker.open_sec = 60.0;
  RetryingCacheBackend robust(&flaky, options);

  // Two exhausted Gets (2 attempts each) trip the breaker...
  serialize::PartitionCacheBackend::Fetched fetched;
  EXPECT_FALSE(robust.Get("a", &fetched).ok());
  EXPECT_FALSE(robust.Get("b", &fetched).ok());
  EXPECT_EQ(flaky.get_calls, 4u);
  EXPECT_EQ(robust.breaker().state(), CircuitBreaker::State::kOpen);

  // ...after which operations are skipped outright: the delegate is not
  // even called, and a skipped Get reports NotFound — to the session, just
  // a counted miss.
  EXPECT_EQ(robust.Get("c", &fetched).code(), StatusCode::kNotFound);
  EXPECT_FALSE(robust.Put("c", pipeline::PartitionSearchResult{}).ok());
  EXPECT_EQ(flaky.get_calls, 4u);
  EXPECT_EQ(flaky.put_calls, 0u);
  EXPECT_GE(robust.counters().breaker_skips, 2u);
  EXPECT_GE(robust.counters().misses, 1u);
}

TEST(RetryingCacheBackendTest, MaintenanceCallsBypassTheBreaker) {
  FlakyBackend flaky;
  flaky.has_entry = true;
  RetryingCacheBackend::Options options = FastRetryOptions(1);
  options.breaker.failure_threshold = 1;
  options.breaker.open_sec = 60.0;
  RetryingCacheBackend robust(&flaky, options);
  flaky.get_failures_remaining = 1;
  serialize::PartitionCacheBackend::Fetched fetched;
  EXPECT_FALSE(robust.Get("a", &fetched).ok());
  ASSERT_EQ(robust.breaker().state(), CircuitBreaker::State::kOpen);

  // Clear / Size / NoteRehydrationRejected must still reach the delegate.
  EXPECT_EQ(robust.Size(), 1u);
  robust.NoteRehydrationRejected();
  EXPECT_EQ(flaky.rehydration_rejected, 1u);
  robust.Clear();
  EXPECT_FALSE(flaky.has_entry);
}

// ---- DirCacheBackend failure signals ---------------------------------------

class DirCacheFaultTest : public FaultInjectionTest {};

TEST_F(DirCacheFaultTest, GetDistinguishesIoFailureFromGenuineMiss) {
  const std::string dir = TempCacheDir("robust_io_signal");
  serialize::DirCacheBackend backend(dir, serialize::CacheIdentity{1, 2});

  // Absent entry, healthy storage: a plain NotFound miss.
  serialize::PartitionCacheBackend::Fetched fetched;
  EXPECT_EQ(backend.Get("absent", &fetched).code(), StatusCode::kNotFound);
  EXPECT_EQ(backend.counters().io_failures, 0u);

  // An injected open failure surfaces as a storage-layer Status code —
  // exactly what a retrying decorator keys on.
  fault::SiteSpec spec;
  fault::Arm(7, {{fault::sites::kDirCacheGetOpen, spec}});
  EXPECT_EQ(backend.Get("absent", &fetched).code(), StatusCode::kInternal);
  EXPECT_EQ(backend.counters().io_failures, 1u);
}

TEST_F(DirCacheFaultTest, PutFailuresAreReportedNotThrown) {
  const std::string dir = TempCacheDir("robust_put_faults");
  serialize::DirCacheBackend backend(dir, serialize::CacheIdentity{1, 2});
  fault::SiteSpec spec;
  fault::Arm(7, {{fault::sites::kDirCachePutWrite, spec}});
  EXPECT_FALSE(backend.Put("k", pipeline::PartitionSearchResult{}).ok());
  EXPECT_GE(backend.counters().store_failures, 1u);

  fault::Arm(7, {{fault::sites::kDirCachePutRename, spec}});
  EXPECT_FALSE(backend.Put("k", pipeline::PartitionSearchResult{}).ok());
  // A failed rename must not leak its temp file.
  for (const fs::directory_entry& e : fs::directory_iterator(dir)) {
    EXPECT_NE(e.path().extension(), ".tmp") << e.path();
  }
}

TEST(DirCacheReapTest, ConstructionReapsOnlyStaleTempFiles) {
  const std::string dir = TempCacheDir("robust_reap");
  const fs::path stale = fs::path(dir) / "deadbeef.rvpo.1.0.tmp";
  const fs::path fresh = fs::path(dir) / "cafef00d.rvpo.2.0.tmp";
  for (const fs::path& p : {stale, fresh}) {
    std::FILE* f = std::fopen(p.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("half-written", f);
    std::fclose(f);
  }
  fs::last_write_time(stale,
                      fs::file_time_type::clock::now() - std::chrono::hours(2));

  serialize::DirCacheBackend backend(dir, serialize::CacheIdentity{1, 2});
  EXPECT_FALSE(fs::exists(stale));  // orphaned by a "crashed" writer: reaped
  EXPECT_TRUE(fs::exists(fresh));   // could be a live writer: kept
  EXPECT_EQ(backend.counters().temp_files_reaped, 1u);
}

TEST(DirCacheReapTest, NonPositiveThresholdDisablesTheSweep) {
  const std::string dir = TempCacheDir("robust_reap_off");
  const fs::path stale = fs::path(dir) / "deadbeef.rvpo.1.0.tmp";
  std::FILE* f = std::fopen(stale.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fclose(f);
  fs::last_write_time(stale,
                      fs::file_time_type::clock::now() - std::chrono::hours(2));

  serialize::DirCacheBackend backend(dir, serialize::CacheIdentity{1, 2},
                                     /*reap_temp_older_than_sec=*/0);
  EXPECT_TRUE(fs::exists(stale));
  EXPECT_EQ(backend.counters().temp_files_reaped, 0u);
}

// ---- ThreadPool task-death containment -------------------------------------

TEST_F(FaultInjectionTest, PoolSurvivesDyingTasks) {
  fault::SiteSpec spec;
  spec.action = fault::Action::kThrow;
  spec.count = 2;
  fault::Arm(1, {{fault::sites::kPoolTask, spec}});

  ThreadPool pool(2);
  std::atomic<int> executed{0};
  for (int i = 0; i < 4; ++i) {
    pool.Submit([&executed] { executed.fetch_add(1); });
  }
  pool.WaitIdle();  // returns even though two tasks died before running
  EXPECT_EQ(executed.load(), 2);
  EXPECT_EQ(pool.tasks_died(), 2u);

  // The workers themselves survived: the pool keeps executing.
  fault::Disarm();
  for (int i = 0; i < 2; ++i) {
    pool.Submit([&executed] { executed.fetch_add(1); });
  }
  pool.WaitIdle();
  EXPECT_EQ(executed.load(), 4);
  EXPECT_EQ(pool.tasks_died(), 2u);
}

TEST_F(FaultInjectionTest, PoolContainsBadAllocAndPlainThrows) {
  ThreadPool pool(1);
  fault::SiteSpec spec;
  spec.action = fault::Action::kBadAlloc;
  fault::Arm(1, {{fault::sites::kPoolTask, spec}});
  std::atomic<int> executed{0};
  pool.Submit([&executed] { executed.fetch_add(1); });
  pool.WaitIdle();
  EXPECT_EQ(executed.load(), 0);

  fault::Disarm();
  pool.Submit([] { throw std::runtime_error("task bug"); });
  pool.WaitIdle();
  EXPECT_EQ(pool.tasks_died(), 2u);
}

}  // namespace
}  // namespace rdfviews::vsel::robust
