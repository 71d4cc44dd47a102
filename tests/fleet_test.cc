// Tests for the distributed tuning fleet and the unified TuningConfig:
// Validate()'s per-field diagnostics, the fleet work-unit codec (including
// hostile input), protocol version negotiation in ping, WorkerPool
// idempotency and death handling over raw socketpairs, FleetExecutor's
// zero-worker local fallback, and daemon-backed end-to-end coverage — one
// worker serving every partition, all workers dead (degraded survivors-only
// recommendation), heartbeats keeping a slow unit's worker alive, and the
// RemoteCacheBackend speaking the cache verbs.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/fault.h"
#include "rdf/statistics.h"
#include "test_util.h"
#include "vsel/cost_model.h"
#include "vsel/options.h"
#include "vsel/pipeline/executor.h"
#include "vsel/pipeline/pipeline.h"
#include "vsel/serialize/serialize.h"
#include "vseld/client.h"
#include "vseld/fleet.h"
#include "vseld/protocol.h"
#include "vseld/remote_cache.h"
#include "vseld/server.h"
#include "workload/generator.h"

namespace rdfviews::vseld {
namespace {

namespace fs = std::filesystem;
using rdfviews::testing::MustParse;
using rdfviews::vsel::TuningConfig;

// ---- TuningConfig::Validate ------------------------------------------------

/// Expects Validate() to reject with InvalidArgument naming `field`.
void ExpectRejects(const TuningConfig& config, const std::string& field) {
  Status st = config.Validate();
  ASSERT_FALSE(st.ok()) << "expected rejection of " << field;
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
  EXPECT_NE(st.message().find("TuningConfig." + field), std::string::npos)
      << "diagnostic does not name " << field << ": " << st.ToString();
}

TEST(TuningConfigValidateTest, DefaultsAreValid) {
  EXPECT_TRUE(TuningConfig{}.Validate().ok());
}

TEST(TuningConfigValidateTest, RejectsNegativeTimeBudget) {
  TuningConfig c;
  c.limits.time_budget_sec = -1.0;
  ExpectRejects(c, "limits.time_budget_sec");
  c.limits.time_budget_sec = std::nan("");
  ExpectRejects(c, "limits.time_budget_sec");
}

TEST(TuningConfigValidateTest, ZeroMaxStatesMeansUnlimited) {
  // 0 is the engines' "uncapped" sentinel (incremental_tuning relies on
  // it); Validate must not reject it.
  TuningConfig c;
  c.limits.max_states = 0;
  EXPECT_TRUE(c.Validate().ok());
}

TEST(TuningConfigValidateTest, RejectsNegativeVbOverlap) {
  TuningConfig c;
  c.heuristics.vb_overlap = -1;
  ExpectRejects(c, "heuristics.vb_overlap");
}

TEST(TuningConfigValidateTest, RejectsBadWeights) {
  {
    TuningConfig c;
    c.weights.cs = -1;
    ExpectRejects(c, "weights.cs");
  }
  {
    TuningConfig c;
    c.weights.cr = std::nan("");
    ExpectRejects(c, "weights.cr");
  }
  {
    TuningConfig c;
    c.weights.cm = -0.5;
    ExpectRejects(c, "weights.cm");
  }
  {
    TuningConfig c;
    c.weights.c1 = -2;
    ExpectRejects(c, "weights.c1");
  }
  {
    TuningConfig c;
    c.weights.c2 = -2;
    ExpectRejects(c, "weights.c2");
  }
  {
    TuningConfig c;
    c.weights.f = -1e-9;
    ExpectRejects(c, "weights.f");
  }
}

TEST(TuningConfigValidateTest, RejectsBadRetryKnobs) {
  {
    TuningConfig c;
    c.robust.retry.max_attempts = 0;
    ExpectRejects(c, "robust.retry.max_attempts");
  }
  {
    TuningConfig c;
    c.robust.partition_deadline_sec = -1;
    ExpectRejects(c, "robust.partition_deadline_sec");
  }
}

// ---- Fleet work-unit codec -------------------------------------------------

FleetWorkUnit SampleUnit(rdf::Dictionary* dict) {
  FleetWorkUnit unit;
  unit.key = "partition-key";
  unit.identity = {0x1122334455667788ull, 0x99aabbccddeeff00ull};
  unit.config.limits.max_states = 777;
  unit.config.auto_calibrate_cm = false;
  unit.config.weights.cs = 2.5;
  std::vector<cq::ConjunctiveQuery> workload = {
      MustParse("q1(X, Z) :- t(X, a:p1, Y), t(Y, a:p2, Z)", dict),
  };
  Result<vsel::State> s0 = vsel::MakeInitialState(workload);
  EXPECT_TRUE(s0.ok()) << s0.status().ToString();
  unit.initial_state = std::move(*s0);
  unit.group_size = 1;
  unit.total_triples = 4321;
  unit.distinct[0] = 10;
  unit.distinct[1] = 20;
  unit.distinct[2] = 30;
  unit.avg_width[0] = 1.5;
  unit.avg_width[1] = 2.5;
  unit.avg_width[2] = 3.5;
  unit.snapshot.counts[rdf::Pattern{1, 2, 3}] = 42;
  unit.snapshot.counts[rdf::Pattern{}] = 4321;
  return unit;
}

TEST(FleetCodecTest, WorkUnitRoundTrip) {
  rdf::Dictionary dict;
  FleetWorkUnit unit = SampleUnit(&dict);
  Result<FleetWorkUnit> back = DecodeFleetWorkUnit(EncodeFleetWorkUnit(unit));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->key, unit.key);
  EXPECT_EQ(back->identity.store_tag, unit.identity.store_tag);
  EXPECT_EQ(back->identity.config_tag, unit.identity.config_tag);
  EXPECT_EQ(back->config.limits.max_states, unit.config.limits.max_states);
  EXPECT_EQ(back->config.weights.cs, unit.config.weights.cs);
  EXPECT_EQ(back->initial_state.Signature(), unit.initial_state.Signature());
  EXPECT_EQ(back->group_size, unit.group_size);
  EXPECT_EQ(back->total_triples, unit.total_triples);
  for (int c = 0; c < 3; ++c) {
    EXPECT_EQ(back->distinct[c], unit.distinct[c]);
    EXPECT_EQ(back->avg_width[c], unit.avg_width[c]);
  }
  EXPECT_EQ(back->snapshot.counts, unit.snapshot.counts);
}

TEST(FleetCodecTest, RejectsTruncationsEverywhere) {
  rdf::Dictionary dict;
  std::string bytes = EncodeFleetWorkUnit(SampleUnit(&dict));
  for (size_t len = 0; len < bytes.size(); len += 7) {
    Result<FleetWorkUnit> r = DecodeFleetWorkUnit(bytes.substr(0, len));
    EXPECT_FALSE(r.ok()) << "truncation to " << len << " bytes accepted";
  }
}

TEST(FleetCodecTest, RejectsUnknownVersion) {
  rdf::Dictionary dict;
  std::string bytes = EncodeFleetWorkUnit(SampleUnit(&dict));
  bytes[0] = static_cast<char>(0xfe);  // codec version lives first
  EXPECT_FALSE(DecodeFleetWorkUnit(bytes).ok());
}

TEST(FleetSnapshotTest, UnitShipsItsDeduplicatedClosureWithCoordinatorCounts) {
  rdf::Dictionary dict;
  rdf::TripleStore store = rdfviews::testing::RandomStore(&dict, 200, 6, 3, 7);
  // Two initial views share the atom t(_, p0, r1).
  std::vector<cq::ConjunctiveQuery> workload = {
      MustParse("q0(X) :- t(X, p0, r1)", &dict),
      MustParse("q1(Y, Z) :- t(Y, p0, r1), t(Y, p1, Z)", &dict),
  };
  Result<vsel::State> s0 = vsel::MakeInitialState(workload);
  ASSERT_TRUE(s0.ok()) << s0.status().ToString();
  rdf::Statistics stats(&store);
  // Counted for some other partition: the coordinator's cache holds it,
  // but this unit's search never costs it.
  const rdf::TermId p0 = dict.Intern("p0");
  const rdf::TermId p1 = dict.Intern("p1");
  const rdf::TermId p2 = dict.Intern("p2");
  const rdf::TermId r1 = dict.Intern("r1");
  const rdf::TermId any = rdf::kAnyTerm;
  stats.CountPattern(rdf::Pattern{any, p2, any});

  rdf::StatisticsSnapshot snapshot = UnitPatternCounts(*s0, stats);

  const rdf::Pattern closure[] = {
      {any, p0, r1}, {any, any, r1}, {any, p0, any},
      {any, p1, any}, {any, any, any},
  };
  EXPECT_EQ(snapshot.size(), std::size(closure));
  for (const rdf::Pattern& p : closure) {
    auto it = snapshot.counts.find(p);
    ASSERT_NE(it, snapshot.counts.end());
    EXPECT_EQ(it->second, stats.CountPattern(p));
    EXPECT_EQ(it->second, store.Count(p));
  }
  // Every shipped count is now also in the coordinator's cache.
  EXPECT_EQ(stats.cache_size(), std::size(closure) + 1);
}

// ---- Protocol version negotiation ------------------------------------------

/// A minimal one-shot daemon impostor: accepts one connection, answers the
/// first request with a Response carrying an arbitrary protocol version.
class VersionedImpostor {
 public:
  explicit VersionedImpostor(uint32_t version) {
    path_ = (fs::path(::testing::TempDir()) /
             ("impostor_" + std::to_string(::getpid()) + "_" +
              std::to_string(version) + ".sock"))
                .string();
    fs::remove(path_);
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    EXPECT_GE(listen_fd_, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path_.c_str(), sizeof(addr.sun_path) - 1);
    EXPECT_EQ(::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                     sizeof(addr)),
              0);
    EXPECT_EQ(::listen(listen_fd_, 1), 0);
    server_ = std::thread([this, version] {
      int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) return;
      FrameTransport transport(fd);
      Result<std::string> frame = transport.ReadFrame();
      if (!frame.ok()) return;
      Result<Request> req = DecodeRequest(*frame);
      if (!req.ok()) return;
      Response resp;
      resp.request_id = req->request_id;
      resp.protocol_version = version;
      (void)transport.WriteFrame(EncodeResponse(resp));
      transport.ShutdownBoth();
      ::close(fd);
    });
  }

  ~VersionedImpostor() {
    server_.join();
    ::close(listen_fd_);
    fs::remove(path_);
  }

  const std::string& path() const { return path_; }

 private:
  std::string path_;
  int listen_fd_ = -1;
  std::thread server_;
};

TEST(FleetNegotiationTest, PingRejectsVersionMismatch) {
  VersionedImpostor impostor(kProtocolVersion + 7);
  Result<Client> client = Client::Connect(impostor.path(), "negotiator");
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  Status st = client->Ping();
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kUnsupported) << st.ToString();
  EXPECT_NE(st.message().find("version mismatch"), std::string::npos);
}

TEST(FleetNegotiationTest, PingAcceptsMatchingVersion) {
  VersionedImpostor impostor(kProtocolVersion);
  Result<Client> client = Client::Connect(impostor.path(), "negotiator");
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  EXPECT_TRUE(client->Ping().ok());
}

// ---- WorkerPool over raw socketpairs ---------------------------------------

/// Connected AF_UNIX stream pair: one end for the pool, one for a fake
/// worker driven inline by the test. Each FrameTransport owns its fd.
struct FakeWorkerConn {
  FakeWorkerConn() {
    int fds[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    pool_end = std::make_unique<FrameTransport>(fds[0]);
    worker = std::make_unique<FrameTransport>(fds[1]);
  }
  std::unique_ptr<FrameTransport> pool_end;
  std::unique_ptr<FrameTransport> worker;
};

TEST(WorkerPoolTest, DuplicateResultFramesAreIdempotent) {
  WorkerPool::Options opts;
  opts.liveness_timeout_sec = 10.0;
  WorkerPool pool(opts);
  FakeWorkerConn conn;
  pool.AddWorker(std::move(conn.pool_end), "fake");

  std::thread caller;
  std::string blob;
  Status exec_status = Status::OK();
  caller = std::thread([&] {
    Result<std::string> r = pool.Execute("payload", StopToken());
    if (r.ok()) {
      blob = *r;
    } else {
      exec_status = r.status();
    }
  });

  Result<std::string> frame = conn.worker->ReadFrame();
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  Result<Request> dispatch = DecodeRequest(*frame);
  ASSERT_TRUE(dispatch.ok()) << dispatch.status().ToString();
  EXPECT_EQ(dispatch->verb, Verb::kDispatchPartition);
  EXPECT_EQ(dispatch->blob, "payload");

  Request result;
  result.verb = Verb::kPartitionResult;
  result.client_id = "fake";
  result.unit_id = dispatch->unit_id;
  result.result_code = StatusCode::kOk;
  result.blob = "answer";
  // The same result frame twice: the first completes the unit, the second
  // must be counted and dropped, not crash or complete anything.
  ASSERT_TRUE(conn.worker->WriteFrame(EncodeRequest(result)).ok());
  ASSERT_TRUE(conn.worker->WriteFrame(EncodeRequest(result)).ok());
  caller.join();
  EXPECT_TRUE(exec_status.ok()) << exec_status.ToString();
  EXPECT_EQ(blob, "answer");

  // The duplicate is processed by the reader thread; severing the
  // connection afterwards forces the reader to drain it first.
  conn.worker->ShutdownBoth();
  for (int i = 0; i < 200 && pool.live_workers() > 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(pool.counters().results, 1u);
  EXPECT_EQ(pool.counters().duplicate_results, 1u);
  pool.Shutdown();
}

TEST(WorkerPoolTest, ErrorResultCodeBecomesStatus) {
  WorkerPool pool;
  FakeWorkerConn conn;
  pool.AddWorker(std::move(conn.pool_end), "fake");
  std::thread caller([&] {
    Result<std::string> r = pool.Execute("payload", StopToken());
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  });
  Result<std::string> frame = conn.worker->ReadFrame();
  ASSERT_TRUE(frame.ok());
  Result<Request> dispatch = DecodeRequest(*frame);
  ASSERT_TRUE(dispatch.ok());
  Request result;
  result.verb = Verb::kPartitionResult;
  result.unit_id = dispatch->unit_id;
  result.result_code = StatusCode::kResourceExhausted;
  result.result_message = "worker: out of memory";
  ASSERT_TRUE(conn.worker->WriteFrame(EncodeRequest(result)).ok());
  caller.join();
  pool.Shutdown();
}

TEST(WorkerPoolTest, AllWorkersDeadFailsExecute) {
  WorkerPool pool;
  FakeWorkerConn conn;
  pool.AddWorker(std::move(conn.pool_end), "doomed");
  conn.worker->ShutdownBoth();  // dies before ever serving a unit
  for (int i = 0; i < 200 && pool.live_workers() > 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(pool.live_workers(), 0u);
  EXPECT_EQ(pool.registered_total(), 1u);
  Result<std::string> r = pool.Execute("payload", StopToken());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
  pool.Shutdown();
}

// ---- FleetExecutor degenerate cases ----------------------------------------

/// Small single-partition search fixture shared by the executor tests.
struct ExecutorFixture {
  rdf::Dictionary dict;
  std::vector<cq::ConjunctiveQuery> workload;
  rdf::TripleStore store;
  std::unique_ptr<rdf::Statistics> stats;
  TuningConfig config;
  vsel::State initial;

  ExecutorFixture() {
    workload = {
        MustParse("q1(X, Z) :- t(X, a:p1, Y), t(Y, a:p2, Z)", &dict),
        MustParse("q2(X) :- t(X, a:p1, a:c1)", &dict),
    };
    store = workload::GenerateStoreForWorkload(workload, &dict, 1000, 5);
    store.Build(&dict);
    stats = std::make_unique<rdf::Statistics>(&store);
    config.auto_calibrate_cm = false;
    config.limits.max_states = 4000;
    config.limits.time_budget_sec = 0;
    Result<vsel::State> s0 = vsel::MakeInitialState(workload);
    EXPECT_TRUE(s0.ok()) << s0.status().ToString();
    initial = std::move(*s0);
  }

  vsel::pipeline::PartitionWorkUnit Unit() const {
    vsel::pipeline::PartitionWorkUnit unit;
    unit.key = "k0";
    unit.initial_state = &initial;
    unit.group_size = workload.size();
    return unit;
  }
};

TEST(FleetExecutorTest, ZeroRegisteredWorkersFallsBackToLocal) {
  ExecutorFixture fx;
  WorkerPool pool;
  FleetExecutor fleet(&pool, {1, 2});
  vsel::CostModel fleet_model(fx.stats.get(), fx.config.weights);
  Result<vsel::SearchResult> via_fleet = fleet.ExecuteAttempt(
      fx.Unit(), fx.config, fx.config.limits, &fleet_model);
  ASSERT_TRUE(via_fleet.ok()) << via_fleet.status().ToString();

  vsel::pipeline::LocalExecutor local;
  rdf::Statistics fresh(&fx.store);
  vsel::CostModel local_model(&fresh, fx.config.weights);
  Result<vsel::SearchResult> via_local = local.ExecuteAttempt(
      fx.Unit(), fx.config, fx.config.limits, &local_model);
  ASSERT_TRUE(via_local.ok()) << via_local.status().ToString();
  EXPECT_EQ(via_fleet->stats.best_cost, via_local->stats.best_cost);
  EXPECT_EQ(via_fleet->best.Signature(), via_local->best.Signature());
}

// ---- Daemon-backed fleet coverage ------------------------------------------

class FleetDaemonTest : public ::testing::Test {
 protected:
  void StartDaemon(bool with_cache_dir = false,
                   double liveness_timeout_sec = 5.0) {
    queries_ = {
        MustParse("q1(X, Z) :- t(X, a:p1, Y), t(Y, a:p2, Z)", &dict_),
        MustParse("q2(X) :- t(X, a:p1, a:c1)", &dict_),
        MustParse("q3(X, Y) :- t(X, b:p1, Y), t(Y, b:p2, b:c1)", &dict_),
        MustParse("q4(X) :- t(X, c:p1, c:c1)", &dict_),
    };
    store_ = workload::GenerateStoreForWorkload(queries_, &dict_, 1500, 42);
    store_.Build(&dict_);
    const std::string base =
        std::string("fleet_") + std::to_string(::getpid()) + "_" +
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    socket_path_ = (fs::path(::testing::TempDir()) / (base + ".sock")).string();
    DaemonOptions options;
    options.socket_path = socket_path_;
    options.max_connections = 8;
    options.enable_fleet = true;
    options.fleet_liveness_timeout_sec = liveness_timeout_sec;
    if (with_cache_dir) {
      cache_dir_ = (fs::path(::testing::TempDir()) / (base + "_cache")).string();
      fs::remove_all(cache_dir_);
      fs::create_directories(cache_dir_);
      options.cache_dir = cache_dir_;
    }
    daemon_ = std::make_unique<Daemon>(options);
    daemon_->RegisterStore("default", &store_, &dict_);
    Status started = daemon_->Start();
    ASSERT_TRUE(started.ok()) << started.ToString();
  }

  void TearDown() override {
    fault::Disarm();
    if (daemon_ != nullptr) daemon_->Stop();
    for (std::thread& t : workers_) t.join();
    fs::remove(socket_path_);
    if (!cache_dir_.empty()) fs::remove_all(cache_dir_);
  }

  void SpawnWorker(size_t die_in_unit = 0) {
    WorkerOptions wopt;
    wopt.socket_path = socket_path_;
    wopt.name = "w" + std::to_string(workers_.size());
    wopt.heartbeat_interval_sec = 0.05;
    wopt.die_in_unit = die_in_unit;
    workers_.emplace_back([wopt] { (void)RunWorker(wopt); });
    for (int i = 0;
         i < 400 && daemon_->fleet_pool().registered_total() < workers_.size();
         ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ASSERT_EQ(daemon_->fleet_pool().registered_total(), workers_.size());
  }

  std::string QueryText(size_t i, const std::string& name) {
    cq::ConjunctiveQuery q = queries_[i % queries_.size()];
    q.set_name(name);
    return q.ToString(&dict_);
  }

  vsel::TuningConfig FastOptions() const {
    vsel::TuningConfig options;
    options.auto_calibrate_cm = false;
    options.limits.max_states = 3000;
    options.limits.time_budget_sec = 0;
    return options;
  }

  rdf::Dictionary dict_;
  std::vector<cq::ConjunctiveQuery> queries_;
  rdf::TripleStore store_;
  std::string socket_path_;
  std::string cache_dir_;
  std::unique_ptr<Daemon> daemon_;
  std::vector<std::thread> workers_;
};

TEST_F(FleetDaemonTest, OneWorkerServesAllPartitions) {
  StartDaemon();
  SpawnWorker();
  Result<Client> client = Client::Connect(socket_path_, "tenant");
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  ASSERT_TRUE(client->Ping().ok());
  Result<uint64_t> session = client->OpenSession("default", FastOptions());
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  Result<vsel::TuningProgress> updated = client->Update(
      *session,
      {QueryText(0, "u1"), QueryText(1, "u2"), QueryText(2, "u3"),
       QueryText(3, "u4")},
      {}, /*wait=*/true);
  ASSERT_TRUE(updated.ok()) << updated.status().ToString();
  EXPECT_TRUE(updated->done);
  EXPECT_GE(updated->partitions_total, 2u);
  EXPECT_EQ(updated->partitions_failed, 0u);
  Result<Client::FetchedRecommendation> rec =
      client->FetchRecommendation(*session, /*canonical=*/false,
                                  /*wait=*/true);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_TRUE(client->CloseSession(*session).ok());

  const WorkerPool::Counters counters = daemon_->fleet_pool().counters();
  EXPECT_EQ(counters.registered, 1u);
  EXPECT_GE(counters.dispatches, updated->partitions_total);
  EXPECT_EQ(counters.results, counters.dispatches);
  EXPECT_EQ(counters.worker_deaths, 0u);
}

TEST_F(FleetDaemonTest, AllWorkersDeadDegradesToSurvivors) {
  StartDaemon();
  // The only worker completes exactly one unit, then dies mid-unit. With no
  // survivors left in the pool, every remaining partition's attempts fail
  // fast; stage 3 contains those failures and the merge serves the one
  // surviving partition as a degraded recommendation.
  SpawnWorker(/*die_in_unit=*/2);
  Result<Client> client = Client::Connect(socket_path_, "tenant");
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  Result<uint64_t> session = client->OpenSession("default", FastOptions());
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  Result<vsel::TuningProgress> updated = client->Update(
      *session, {QueryText(0, "u1"), QueryText(2, "u2")}, {}, /*wait=*/true);
  ASSERT_TRUE(updated.ok()) << updated.status().ToString();
  EXPECT_TRUE(updated->done);
  EXPECT_EQ(updated->partitions_total, 2u);
  EXPECT_EQ(updated->partitions_failed, 1u);
  EXPECT_TRUE(client->CloseSession(*session).ok());

  const WorkerPool::Counters counters = daemon_->fleet_pool().counters();
  EXPECT_EQ(counters.worker_deaths, 1u);
  EXPECT_GE(counters.requeues, 1u);  // the chaos death re-queued its unit
}

TEST_F(FleetDaemonTest, HeartbeatsKeepASlowUnitsWorkerAlive) {
  // The unit hangs at the worker for three of the pool's liveness
  // timeouts; the worker beats ten times per timeout (SpawnWorker: 0.05 s).
  constexpr double kLiveness = 0.5;
  StartDaemon(/*with_cache_dir=*/false, kLiveness);
  SpawnWorker();
  WorkerPool& pool = daemon_->fleet_pool();
  fault::FaultPlan plan;
  fault::SiteSpec hang;
  hang.action = fault::Action::kHang;
  // No stop token reaches a worker's search: the cap releases the hang,
  // and the worker answers with the hang's TimedOut.
  hang.hang_max_sec = 3 * kLiveness;
  plan[fault::sites::kWorkerSearch] = hang;
  fault::Arm(11, std::move(plan));

  rdf::Dictionary dict;
  const auto t0 = std::chrono::steady_clock::now();
  Result<std::string> result =
      pool.Execute(EncodeFleetWorkUnit(SampleUnit(&dict)), StopToken());
  const double held_sec = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
  EXPECT_EQ(fault::Injected(fault::sites::kWorkerSearch), 1u);
  fault::Disarm();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kTimedOut)
      << result.status().ToString();
  EXPECT_GT(held_sec, kLiveness);

  // The same worker answered: one dispatch, one result, nobody declared
  // dead, nothing re-queued.
  const WorkerPool::Counters counters = pool.counters();
  EXPECT_EQ(counters.dispatches, 1u);
  EXPECT_EQ(counters.results, 1u);
  EXPECT_EQ(counters.requeues, 0u);
  EXPECT_EQ(counters.worker_deaths, 0u);
  EXPECT_GT(counters.heartbeats, 0u);
  EXPECT_EQ(pool.live_workers(), 1u);

  // An idle worker does not beat.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  EXPECT_EQ(pool.counters().heartbeats, counters.heartbeats);
}

TEST_F(FleetDaemonTest, RemoteCacheBackendRoundTrip) {
  StartDaemon(/*with_cache_dir=*/true);

  // A searched outcome to feed through the remote cache, produced by the
  // local pipeline over the same store.
  vsel::TuningConfig options = FastOptions();
  const std::vector<cq::ConjunctiveQuery> workload = {queries_[0],
                                                      queries_[2]};
  Result<vsel::pipeline::IngestResult> ingest = vsel::pipeline::Ingest(
      &store_, &dict_, nullptr, workload, options);
  ASSERT_TRUE(ingest.ok()) << ingest.status().ToString();
  vsel::pipeline::PartitionPlan plan =
      vsel::pipeline::PartitionWorkload(*ingest, options);
  vsel::CostModel cost_model(ingest->stats, options.weights);
  Result<std::vector<vsel::pipeline::PartitionOutcome>> searched =
      vsel::pipeline::SearchPartitions(*ingest, plan, &cost_model, options);
  ASSERT_TRUE(searched.ok()) << searched.status().ToString();
  ASSERT_FALSE(searched->empty());
  ASSERT_TRUE((*searched)[0].ok()) << (*searched)[0].error.ToString();
  const vsel::pipeline::PartitionSearchResult& result = (*searched)[0].result;

  vsel::serialize::CacheIdentity identity =
      vsel::serialize::ComputeCacheIdentity(store_, options);
  Result<std::unique_ptr<RemoteCacheBackend>> backend =
      RemoteCacheBackend::Connect(socket_path_, "cache-tenant", identity);
  ASSERT_TRUE(backend.ok()) << backend.status().ToString();
  RemoteCacheBackend& cache = **backend;

  const std::string key = "salted-key-0";
  vsel::serialize::PartitionCacheBackend::Fetched fetched;
  Status miss = cache.Get(key, &fetched);
  ASSERT_FALSE(miss.ok());
  EXPECT_EQ(miss.code(), StatusCode::kNotFound) << miss.ToString();

  ASSERT_TRUE(cache.Put(key, result).ok());
  Status hit = cache.Get(key, &fetched);
  ASSERT_TRUE(hit.ok()) << hit.ToString();
  EXPECT_TRUE(fetched.needs_rehydration);
  EXPECT_EQ(fetched.result.search.stats.best_cost,
            result.search.stats.best_cost);
  EXPECT_EQ(fetched.result.search.best.Signature(),
            result.search.best.Signature());

  Status invalidate = cache.Invalidate(key);
  ASSERT_FALSE(invalidate.ok());
  EXPECT_EQ(invalidate.code(), StatusCode::kUnsupported);

  EXPECT_EQ(cache.counters().misses, 1u);
  EXPECT_EQ(cache.counters().stored, 1u);
  EXPECT_EQ(cache.counters().hits, 1u);
}

TEST_F(FleetDaemonTest, FleetVerbsRejectedOnPlainConnections) {
  StartDaemon();
  // kDispatchPartition / kPartitionResult / kWorkerHeartbeat are
  // meaningless on a client connection that never registered as a worker:
  // the daemon must answer bad_request, not wedge or crash.
  for (Verb verb : {Verb::kDispatchPartition, Verb::kPartitionResult,
                    Verb::kWorkerHeartbeat}) {
    Result<int> fd = ConnectUnix(socket_path_);
    ASSERT_TRUE(fd.ok()) << fd.status().ToString();
    FrameTransport transport(*fd);
    Request req;
    req.verb = verb;
    req.request_id = 5;
    req.client_id = "hostile";
    req.unit_id = 123;
    ASSERT_TRUE(transport.WriteFrame(EncodeRequest(req)).ok());
    Result<std::string> frame = transport.ReadFrame();
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    Result<Response> resp = DecodeResponse(*frame);
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    EXPECT_FALSE(resp->ok()) << "verb " << VerbName(verb) << " accepted";
  }
}

}  // namespace
}  // namespace rdfviews::vseld
