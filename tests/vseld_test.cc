// Tests for the vseld daemon subsystem: the wire protocol's
// hostile-input hardening (truncations, byte flips, oversized length
// headers, mid-frame disconnects), admission control, the bounded
// progress-event queue, and the daemon end to end over real AF_UNIX
// sockets — including fault injection through the vseld.* sites and a
// TSan-targeted concurrent-clients suite (VseldParallel*).
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/fault.h"
#include "common/telemetry/metrics.h"
#include "test_util.h"
#include "vsel/serialize/serialize.h"
#include "vseld/client.h"
#include "vseld/quota.h"
#include "vseld/registry.h"
#include "vseld/server.h"
#include "workload/generator.h"

namespace rdfviews::vseld {
namespace {

namespace fs = std::filesystem;
using rdfviews::testing::MustParse;

Request SampleRequest() {
  Request req;
  req.verb = Verb::kUpdate;
  req.request_id = 42;
  req.client_id = "tenant-a";
  req.session_id = 7;
  req.store_tag = "default";
  req.options.limits.time_budget_sec = 2.5;
  req.options.limits.max_states = 12345;
  req.options.limits.num_threads = 3;
  req.options.heuristics.avf = true;
  req.add_queries = {"q1(X) :- t(X, a:p, a:c)",
                     "q2(X, Y) :- t(X, a:p, Y), t(Y, b:p, b:c)"};
  req.remove_queries = {"q0"};
  req.wait = true;
  req.canonical = true;
  req.telemetry_format = TelemetryFormat::kPrometheus;
  return req;
}

TEST(VseldProtocolTest, RequestRoundTripAllFields) {
  Request req = SampleRequest();
  Result<Request> back = DecodeRequest(EncodeRequest(req));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->verb, req.verb);
  EXPECT_EQ(back->request_id, req.request_id);
  EXPECT_EQ(back->client_id, req.client_id);
  EXPECT_EQ(back->session_id, req.session_id);
  EXPECT_EQ(back->store_tag, req.store_tag);
  EXPECT_EQ(back->options.limits.time_budget_sec,
            req.options.limits.time_budget_sec);
  EXPECT_EQ(back->options.limits.max_states, req.options.limits.max_states);
  EXPECT_EQ(back->options.limits.num_threads, req.options.limits.num_threads);
  EXPECT_EQ(back->options.heuristics.avf, req.options.heuristics.avf);
  EXPECT_EQ(back->add_queries, req.add_queries);
  EXPECT_EQ(back->remove_queries, req.remove_queries);
  EXPECT_EQ(back->wait, req.wait);
  EXPECT_EQ(back->canonical, req.canonical);
  EXPECT_EQ(back->telemetry_format, req.telemetry_format);
}

TEST(VseldProtocolTest, ResponseRoundTripAllFields) {
  Response resp;
  resp.request_id = 99;
  resp.code = StatusCode::kResourceExhausted;
  resp.message = "quota";
  resp.session_id = 12;
  resp.progress.best_cost = 3.5;
  resp.progress.improvements = 4;
  resp.progress.partitions_done = 2;
  resp.progress.partitions_total = 5;
  resp.progress.partitions_failed = 1;
  resp.progress.partition_retries = 3;
  resp.progress.cancel_requested = true;
  resp.progress.done = true;
  resp.blob = std::string("\x00\x01\x02 binary", 10);
  resp.store_tag = 0xDEADBEEF;
  resp.config_tag = 0xFEEDFACE;
  Result<Response> back = DecodeResponse(EncodeResponse(resp));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->request_id, resp.request_id);
  EXPECT_EQ(back->code, resp.code);
  EXPECT_EQ(back->message, resp.message);
  EXPECT_EQ(back->session_id, resp.session_id);
  EXPECT_EQ(back->progress.best_cost, resp.progress.best_cost);
  EXPECT_EQ(back->progress.improvements, resp.progress.improvements);
  EXPECT_EQ(back->progress.partitions_done, resp.progress.partitions_done);
  EXPECT_EQ(back->progress.partitions_total, resp.progress.partitions_total);
  EXPECT_EQ(back->progress.partitions_failed,
            resp.progress.partitions_failed);
  EXPECT_EQ(back->progress.partition_retries,
            resp.progress.partition_retries);
  EXPECT_EQ(back->progress.cancel_requested, resp.progress.cancel_requested);
  EXPECT_EQ(back->progress.done, resp.progress.done);
  EXPECT_EQ(back->blob, resp.blob);
  EXPECT_EQ(back->store_tag, resp.store_tag);
  EXPECT_EQ(back->config_tag, resp.config_tag);
  EXPECT_FALSE(back->is_progress_event);
  EXPECT_FALSE(back->ok());
  EXPECT_EQ(back->ToStatus().code(), StatusCode::kResourceExhausted);
}

TEST(VseldProtocolTest, ProgressEventFrameRoundTrips) {
  Response resp;
  resp.request_id = 5;
  resp.is_progress_event = true;
  resp.event.kind = vsel::ProgressEvent::Kind::kPartitionRetry;
  resp.event.best_cost = 17.25;
  resp.event.elapsed_sec = 0.5;
  resp.event.partition = 2;
  resp.event.partitions_total = 4;
  resp.event.attempt = 3;
  resp.events_dropped = 11;
  Result<Response> back = DecodeResponse(EncodeResponse(resp));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_TRUE(back->is_progress_event);
  EXPECT_EQ(back->event.kind, resp.event.kind);
  EXPECT_EQ(back->event.best_cost, resp.event.best_cost);
  EXPECT_EQ(back->event.elapsed_sec, resp.event.elapsed_sec);
  EXPECT_EQ(back->event.partition, resp.event.partition);
  EXPECT_EQ(back->event.partitions_total, resp.event.partitions_total);
  EXPECT_EQ(back->event.attempt, resp.event.attempt);
  EXPECT_EQ(back->events_dropped, resp.events_dropped);
}

// ---- Fuzz-style rejection: no hostile payload may decode ------------------

TEST(VseldProtocolFuzzTest, EveryRequestTruncationPrefixRejected) {
  std::string payload = EncodeRequest(SampleRequest());
  ASSERT_GT(payload.size(), 20u);
  for (size_t len = 0; len < payload.size(); ++len) {
    Result<Request> r = DecodeRequest(std::string_view(payload).substr(0, len));
    EXPECT_FALSE(r.ok()) << "prefix of length " << len << " decoded";
  }
}

TEST(VseldProtocolFuzzTest, EveryResponseTruncationPrefixRejected) {
  Response resp;
  resp.request_id = 1;
  resp.message = "hello";
  resp.blob = "world";
  std::string payload = EncodeResponse(resp);
  for (size_t len = 0; len < payload.size(); ++len) {
    Result<Response> r =
        DecodeResponse(std::string_view(payload).substr(0, len));
    EXPECT_FALSE(r.ok()) << "prefix of length " << len << " decoded";
  }
}

TEST(VseldProtocolFuzzTest, EveryByteFlipRejected) {
  // The trailing 128-bit checksum covers every payload byte before it, and
  // is itself compared bit-for-bit — so no single-byte corruption anywhere
  // in the payload may survive decoding.
  std::string payload = EncodeRequest(SampleRequest());
  for (size_t i = 0; i < payload.size(); ++i) {
    for (unsigned char delta : {0x01, 0x80, 0xFF}) {
      std::string patched = payload;
      patched[i] = static_cast<char>(patched[i] ^ delta);
      Result<Request> r = DecodeRequest(patched);
      EXPECT_FALSE(r.ok()) << "flip of byte " << i << " (^" << int(delta)
                           << ") decoded";
    }
  }
}

TEST(VseldProtocolFuzzTest, TrailingBytesRejected) {
  std::string payload = EncodeRequest(SampleRequest());
  payload.push_back('\0');
  EXPECT_FALSE(DecodeRequest(payload).ok());
}

// ---- FrameTransport: torn peers and hostile length headers ----------------

struct SocketPair {
  int a = -1;
  int b = -1;
  SocketPair() {
    int fds[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    a = fds[0];
    b = fds[1];
  }
};

TEST(VseldTransportTest, FrameRoundTripOverSocketPair) {
  SocketPair sp;
  FrameTransport writer(sp.a);
  FrameTransport reader(sp.b);
  ASSERT_TRUE(writer.WriteFrame("hello frame").ok());
  Result<std::string> got = reader.ReadFrame();
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(*got, "hello frame");
}

TEST(VseldTransportTest, CleanEofBetweenFramesIsNotFound) {
  SocketPair sp;
  auto writer = std::make_unique<FrameTransport>(sp.a);
  FrameTransport reader(sp.b);
  ASSERT_TRUE(writer->WriteFrame("one").ok());
  writer.reset();  // closes the fd after a complete frame
  EXPECT_TRUE(reader.ReadFrame().ok());
  Result<std::string> eof = reader.ReadFrame();
  ASSERT_FALSE(eof.ok());
  EXPECT_EQ(eof.status().code(), StatusCode::kNotFound);
}

TEST(VseldTransportTest, MidFrameDisconnectLatchesTransport) {
  // The satellite regression: a client dropping *inside* a frame must
  // surface as one clean Internal error that latches the transport — the
  // reader may never hang on, retry against, or misparse the dead stream.
  SocketPair sp;
  FrameTransport reader(sp.b);
  uint32_t header[2] = {kFrameMagic, 100};  // promises 100 payload bytes
  ASSERT_EQ(::send(sp.a, header, sizeof(header), 0),
            static_cast<ssize_t>(sizeof(header)));
  ASSERT_EQ(::send(sp.a, "0123456789", 10, 0), 10);  // ...delivers 10
  ::close(sp.a);

  Result<std::string> torn = reader.ReadFrame();
  ASSERT_FALSE(torn.ok());
  EXPECT_EQ(torn.status().code(), StatusCode::kInternal)
      << torn.status().ToString();
  EXPECT_TRUE(reader.failed());
  // Latched: every later operation fails fast without touching the socket.
  EXPECT_FALSE(reader.ReadFrame().ok());
  EXPECT_FALSE(reader.WriteFrame("x").ok());
}

TEST(VseldTransportTest, OversizedLengthHeaderRejectedBeforeAllocation) {
  SocketPair sp;
  FrameTransport reader(sp.b);
  uint32_t header[2] = {kFrameMagic, kMaxFramePayload + 1};
  ASSERT_EQ(::send(sp.a, header, sizeof(header), 0),
            static_cast<ssize_t>(sizeof(header)));
  Result<std::string> r = reader.ReadFrame();
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(reader.failed());
  ::close(sp.a);
}

TEST(VseldTransportTest, BadMagicLatches) {
  SocketPair sp;
  FrameTransport reader(sp.b);
  uint32_t header[2] = {0x12345678, 4};
  ASSERT_EQ(::send(sp.a, header, sizeof(header), 0),
            static_cast<ssize_t>(sizeof(header)));
  EXPECT_FALSE(reader.ReadFrame().ok());
  EXPECT_TRUE(reader.failed());
  ::close(sp.a);
}

TEST(VseldTransportTest, InjectedWriteFaultLatches) {
  SocketPair sp;
  FrameTransport writer(sp.a);
  FrameTransport reader(sp.b);
  fault::FaultPlan plan;
  fault::SiteSpec spec;
  spec.nth = 1;
  spec.count = 1;
  plan[fault::sites::kDaemonFrameWrite] = spec;
  fault::Arm(1, std::move(plan));
  EXPECT_FALSE(writer.WriteFrame("doomed").ok());
  EXPECT_TRUE(writer.failed());
  fault::Disarm();
  // Still latched after disarm: the transport, not the plan, holds state.
  EXPECT_FALSE(writer.WriteFrame("still doomed").ok());
  (void)reader;
}

// ---- Admission control ----------------------------------------------------

TEST(VseldQuotaTest, AdmitEnforcesPerClientAndGlobalCaps) {
  QuotaOptions q;
  q.max_sessions = 3;
  q.max_sessions_per_client = 2;
  AdmissionController admission(q);
  EXPECT_TRUE(admission.Admit("a").ok());
  EXPECT_TRUE(admission.Admit("a").ok());
  Status third_a = admission.Admit("a");  // per-client cap
  EXPECT_EQ(third_a.code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(admission.Admit("b").ok());
  Status fourth = admission.Admit("c");  // global cap
  EXPECT_EQ(fourth.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(admission.live_sessions(), 3u);
  admission.Release("a");
  EXPECT_TRUE(admission.Admit("a").ok());  // slot freed
  admission.Release("a");
  admission.Release("a");
  admission.Release("b");
  EXPECT_EQ(admission.live_sessions(), 0u);
}

TEST(VseldQuotaTest, ClampLimitsSplitsAggregateBudget) {
  QuotaOptions q;
  q.aggregate_max_states = 1000;
  q.aggregate_time_budget_sec = 10;
  AdmissionController admission(q);
  ASSERT_TRUE(admission.Admit("a").ok());
  ASSERT_TRUE(admission.Admit("b").ok());

  vsel::SearchLimits unlimited;  // requested 0 = give me my whole slice
  unlimited.max_states = 0;
  unlimited.time_budget_sec = 0;
  vsel::SearchLimits slice = admission.ClampLimits(unlimited);
  EXPECT_GT(slice.max_states, 0u);
  EXPECT_LE(slice.max_states, 1000u);
  EXPECT_GT(slice.time_budget_sec, 0.0);
  EXPECT_LE(slice.time_budget_sec, 10.0);

  vsel::SearchLimits modest;  // asking for less than the slice keeps it
  modest.max_states = 10;
  modest.time_budget_sec = 0.25;
  vsel::SearchLimits kept = admission.ClampLimits(modest);
  EXPECT_EQ(kept.max_states, 10u);
  EXPECT_EQ(kept.time_budget_sec, 0.25);

  vsel::SearchLimits greedy;  // asking for more than the aggregate: clamped
  greedy.max_states = 100000;
  greedy.time_budget_sec = 100;
  vsel::SearchLimits clamped = admission.ClampLimits(greedy);
  EXPECT_LE(clamped.max_states, 1000u);
  EXPECT_LE(clamped.time_budget_sec, 10.0);
}

TEST(VseldQuotaTest, UnlimitedAggregateLeavesRequestsAlone) {
  AdmissionController admission(QuotaOptions{});  // aggregates unset
  ASSERT_TRUE(admission.Admit("a").ok());
  vsel::SearchLimits req;
  req.max_states = 777;
  req.time_budget_sec = 3;
  vsel::SearchLimits out = admission.ClampLimits(req);
  EXPECT_EQ(out.max_states, 777u);
  EXPECT_EQ(out.time_budget_sec, 3.0);
}

TEST(VseldQuotaTest, CheckUpdateSize) {
  QuotaOptions q;
  q.max_queries_per_update = 4;
  AdmissionController admission(q);
  EXPECT_TRUE(admission.CheckUpdateSize(2, 2).ok());
  EXPECT_EQ(admission.CheckUpdateSize(3, 2).code(),
            StatusCode::kResourceExhausted);
}

// ---- EventQueue -----------------------------------------------------------

TEST(VseldEventQueueTest, DropsOldestAndCountsWhenFull) {
  EventQueue queue(4);
  for (int i = 0; i < 10; ++i) {
    vsel::ProgressEvent e;
    e.best_cost = i;
    queue.Push(e);
  }
  uint64_t dropped = 0;
  std::optional<vsel::ProgressEvent> first = queue.Pop(0, &dropped);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(dropped, 6u);           // events 0..5 were displaced
  EXPECT_EQ(first->best_cost, 6.0);  // oldest survivor
  for (int i = 7; i < 10; ++i) {
    std::optional<vsel::ProgressEvent> e = queue.Pop(0, &dropped);
    ASSERT_TRUE(e.has_value());
    EXPECT_EQ(dropped, 0u);
    EXPECT_EQ(e->best_cost, static_cast<double>(i));
  }
  EXPECT_FALSE(queue.Pop(0, &dropped).has_value());
  EXPECT_EQ(queue.total_dropped(), 6u);
}

TEST(VseldEventQueueTest, CloseWakesBlockedPop) {
  EventQueue queue(4);
  std::thread closer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    queue.Close();
  });
  uint64_t dropped = 0;
  // Would block 10s; Close must wake it long before that.
  EXPECT_FALSE(queue.Pop(10.0, &dropped).has_value());
  closer.join();
}

// ---- The daemon end to end over AF_UNIX -----------------------------------

/// A daemon over a small three-family workload store, listening on a
/// unique socket under the test temp dir.
class VseldDaemonTest : public ::testing::Test {
 protected:
  void SetUp() override {
    queries_ = {
        MustParse("q1(X, Z) :- t(X, a:p1, Y), t(Y, a:p2, Z)", &dict_),
        MustParse("q2(X) :- t(X, a:p1, a:c1)", &dict_),
        MustParse("q3(X, Y) :- t(X, b:p1, Y), t(Y, b:p2, b:c1)", &dict_),
        MustParse("q4(X) :- t(X, c:p1, c:c1)", &dict_),
    };
    store_ = workload::GenerateStoreForWorkload(queries_, &dict_, 2000, 42);
    store_.Build(&dict_);
    socket_path_ = (fs::path(::testing::TempDir()) /
                    ("vseld_" +
                     std::to_string(::getpid()) + "_" +
                     ::testing::UnitTest::GetInstance()
                         ->current_test_info()
                         ->name() +
                     ".sock"))
                       .string();
    DaemonOptions options;
    options.socket_path = socket_path_;
    options.max_connections = 8;
    options.quota.max_sessions_per_client = 4;
    daemon_ = std::make_unique<Daemon>(options);
    daemon_->RegisterStore("default", &store_, &dict_);
    Status started = daemon_->Start();
    ASSERT_TRUE(started.ok()) << started.ToString();
  }

  void TearDown() override {
    if (daemon_ != nullptr) daemon_->Stop();
    fault::Disarm();
    fs::remove(socket_path_);
  }

  Client MustConnect(const std::string& client_id) {
    Result<Client> c = Client::Connect(socket_path_, client_id);
    EXPECT_TRUE(c.ok()) << c.status().ToString();
    return std::move(*c);
  }

  std::string QueryText(size_t i, const std::string& name) {
    cq::ConjunctiveQuery q = queries_[i % queries_.size()];
    q.set_name(name);
    return q.ToString(&dict_);
  }

  rdf::Dictionary dict_;
  std::vector<cq::ConjunctiveQuery> queries_;
  rdf::TripleStore store_;
  std::string socket_path_;
  std::unique_ptr<Daemon> daemon_;
};

TEST_F(VseldDaemonTest, FullSessionLifecycleOverSocket) {
  Client client = MustConnect("tenant");
  EXPECT_TRUE(client.Ping().ok());

  vsel::TuningConfig options;
  options.auto_calibrate_cm = false;
  Result<uint64_t> session = client.OpenSession("default", options);
  ASSERT_TRUE(session.ok()) << session.status().ToString();

  Result<vsel::TuningProgress> updated = client.Update(
      *session, {QueryText(0, "u1"), QueryText(1, "u2"), QueryText(2, "u3")},
      {}, /*wait=*/true);
  ASSERT_TRUE(updated.ok()) << updated.status().ToString();
  EXPECT_TRUE(updated->done);
  EXPECT_GT(updated->partitions_total, 0u);

  Result<vsel::TuningProgress> polled = client.Poll(*session);
  ASSERT_TRUE(polled.ok());
  EXPECT_TRUE(polled->done);

  Result<Client::FetchedRecommendation> fetched =
      client.FetchRecommendation(*session, /*canonical=*/false,
                                 /*wait=*/true);
  ASSERT_TRUE(fetched.ok()) << fetched.status().ToString();
  Result<vsel::Recommendation> rec =
      vsel::serialize::DeserializeRecommendation(fetched->blob,
                                                 fetched->identity);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_EQ(rec->rewritings.size(), 3u);
  EXPECT_FALSE(rec->view_definitions.empty());

  // Removing a query by name shrinks the workload.
  Result<vsel::TuningProgress> removed =
      client.Update(*session, {}, {"u3"}, /*wait=*/true);
  ASSERT_TRUE(removed.ok()) << removed.status().ToString();
  Result<Client::FetchedRecommendation> after =
      client.FetchRecommendation(*session, false, true);
  ASSERT_TRUE(after.ok());
  Result<vsel::Recommendation> rec2 =
      vsel::serialize::DeserializeRecommendation(after->blob,
                                                 after->identity);
  ASSERT_TRUE(rec2.ok());
  EXPECT_EQ(rec2->rewritings.size(), 2u);

  EXPECT_TRUE(client.CloseSession(*session).ok());
  EXPECT_EQ(daemon_->registry().live(), 0u);
  EXPECT_EQ(daemon_->admission().live_sessions(), 0u);
}

TEST_F(VseldDaemonTest, TelemetryBothFormats) {
  Client client = MustConnect("tenant");
  Result<std::string> json = client.Telemetry(TelemetryFormat::kJson);
  ASSERT_TRUE(json.ok()) << json.status().ToString();
  EXPECT_NE(json->find("vseld_sessions_active"), std::string::npos);
  Result<std::string> prom = client.Telemetry(TelemetryFormat::kPrometheus);
  ASSERT_TRUE(prom.ok());
  EXPECT_NE(prom->find("vseld_frames_total"), std::string::npos);
  EXPECT_NE(prom->find("vseld_rejected_total"), std::string::npos);
}

TEST_F(VseldDaemonTest, RejectsUnknownStoreSessionAndEmptyClient) {
  Client client = MustConnect("tenant");
  vsel::TuningConfig options;
  Result<uint64_t> bad_store = client.OpenSession("nope", options);
  EXPECT_EQ(bad_store.status().code(), StatusCode::kNotFound);
  Result<vsel::TuningProgress> bad_session = client.Poll(4242);
  EXPECT_EQ(bad_session.status().code(), StatusCode::kNotFound);
  Result<vsel::TuningProgress> bad_parse =
      client.Update(4242, {"this is not datalog"}, {}, false);
  EXPECT_FALSE(bad_parse.ok());
}

TEST_F(VseldDaemonTest, QuotaRejectionOverTheWire) {
  Client client = MustConnect("bounded");
  vsel::TuningConfig options;
  std::vector<uint64_t> ids;
  for (size_t i = 0; i < 4; ++i) {
    Result<uint64_t> sid = client.OpenSession("default", options);
    ASSERT_TRUE(sid.ok());
    ids.push_back(*sid);
  }
  Result<uint64_t> overflow = client.OpenSession("default", options);
  EXPECT_EQ(overflow.status().code(), StatusCode::kResourceExhausted);
  for (uint64_t id : ids) EXPECT_TRUE(client.CloseSession(id).ok());
  EXPECT_TRUE(client.OpenSession("default", options).ok());  // freed
}

TEST_F(VseldDaemonTest, SubscribeStreamsEventsThenTerminal) {
  Client control = MustConnect("tenant");
  vsel::TuningConfig options;
  options.auto_calibrate_cm = false;
  Result<uint64_t> session = control.OpenSession("default", options);
  ASSERT_TRUE(session.ok());
  Result<vsel::TuningProgress> submitted = control.Update(
      *session, {QueryText(0, "s1"), QueryText(2, "s2"), QueryText(3, "s3")},
      {}, /*wait=*/false);
  ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();

  // A second connection streams the same session's progress. Even if the
  // update already finished, the bounded queue retains its events.
  Client subscriber = MustConnect("tenant");
  std::atomic<size_t> events{0};
  Result<vsel::TuningProgress> terminal = subscriber.SubscribeProgress(
      *session, [&](const vsel::ProgressEvent& e, uint64_t) {
        EXPECT_LE(static_cast<int>(e.kind),
                  static_cast<int>(vsel::ProgressEvent::Kind::
                                       kPartitionAbandoned));
        events.fetch_add(1);
      });
  ASSERT_TRUE(terminal.ok()) << terminal.status().ToString();
  EXPECT_TRUE(terminal->done);
  // Three fresh partitions searched: at least their completion events.
  EXPECT_GE(events.load(), 3u);
  EXPECT_TRUE(control.CloseSession(*session).ok());
}

TEST_F(VseldDaemonTest, CancelReturnsPromptlyWithValidBest) {
  Client client = MustConnect("tenant");
  vsel::TuningConfig options;
  options.auto_calibrate_cm = false;
  options.limits.max_states = 50000000;  // would search a very long time
  Result<uint64_t> session = client.OpenSession("default", options);
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(client
                  .Update(*session,
                          {QueryText(0, "c1"), QueryText(1, "c2"),
                           QueryText(2, "c3"), QueryText(3, "c4")},
                          {}, /*wait=*/false)
                  .ok());
  Result<vsel::TuningProgress> cancelled = client.Cancel(*session);
  ASSERT_TRUE(cancelled.ok());
  // The anytime contract: fetch after cancel yields a valid best.
  Result<Client::FetchedRecommendation> fetched =
      client.FetchRecommendation(*session, false, /*wait=*/true);
  ASSERT_TRUE(fetched.ok()) << fetched.status().ToString();
  EXPECT_FALSE(fetched->blob.empty());
  EXPECT_TRUE(client.CloseSession(*session).ok());
}

TEST_F(VseldDaemonTest, ShutdownVerbWakesOwnerAndDrainReapsSessions) {
  Client client = MustConnect("tenant");
  vsel::TuningConfig options;
  Result<uint64_t> session = client.OpenSession("default", options);
  ASSERT_TRUE(session.ok());
  EXPECT_FALSE(daemon_->WaitShutdownRequested(0));
  EXPECT_TRUE(client.Shutdown().ok());
  EXPECT_TRUE(daemon_->WaitShutdownRequested(5));
  daemon_->Stop();  // session was never closed: the drain reaps it
  EXPECT_EQ(daemon_->registry().live(), 0u);
  EXPECT_EQ(daemon_->registry().opened(),
            daemon_->registry().closed() + daemon_->registry().reaped());
  EXPECT_GE(daemon_->registry().reaped(), 1u);
}

TEST_F(VseldDaemonTest, SessionSurvivesReconnect) {
  vsel::TuningConfig options;
  options.auto_calibrate_cm = false;
  uint64_t session_id = 0;
  {
    Client first = MustConnect("tenant");
    Result<uint64_t> session = first.OpenSession("default", options);
    ASSERT_TRUE(session.ok());
    session_id = *session;
    ASSERT_TRUE(
        first.Update(session_id, {QueryText(0, "r1")}, {}, false).ok());
    first.Abort();  // drop mid-everything, session stays live
  }
  Client second = MustConnect("tenant");
  Result<Client::FetchedRecommendation> fetched =
      second.FetchRecommendation(session_id, false, /*wait=*/true);
  ASSERT_TRUE(fetched.ok()) << fetched.status().ToString();
  EXPECT_TRUE(second.CloseSession(session_id).ok());
}

// ---- A wait=true update while other connections act on it -----------------

/// A wait=true update of an 8-atom chain, run from its own thread and
/// connection. With max_states 50M the chain's search space takes far
/// longer to exhaust than any test, so the update runs until something
/// cancels it.
class WaitingUpdate {
 public:
  WaitingUpdate(const std::string& socket_path, const std::string& client_id)
      : socket_path_(socket_path), client_id_(client_id) {}

  ~WaitingUpdate() {
    if (thread_.joinable()) thread_.join();
  }

  /// Opens the session through `control` and starts the update.
  void Start(Client* control) {
    vsel::TuningConfig options;
    options.auto_calibrate_cm = false;
    options.limits.max_states = 50000000;
    Result<uint64_t> sid = control->OpenSession("default", options);
    ASSERT_TRUE(sid.ok()) << sid.status().ToString();
    session_ = *sid;
    thread_ = std::thread([this] {
      Result<Client> owner = Client::Connect(socket_path_, client_id_);
      if (owner.ok()) {
        result_ = owner->Update(
            session_,
            {"long(X1, X9) :- t(X1, a:p1, X2), t(X2, a:p2, X3), "
             "t(X3, b:p1, X4), t(X4, b:p2, X5), t(X5, c:p1, X6), "
             "t(X6, a:p1, X7), t(X7, a:p2, X8), t(X8, b:p1, X9)"},
            {}, /*wait=*/true);
      }
      returned_.store(true);
    });
  }

  /// Polls through `control`, without sleeping, until the update is seen
  /// in flight (true) or its verb returned first (false).
  bool SeenRunning(Client* control) {
    while (!returned_.load()) {
      Result<vsel::TuningProgress> polled = control->Poll(session_);
      if (polled.ok() && !polled->done) return true;
    }
    return false;
  }

  /// Joins the updating thread and returns what its verb returned.
  Result<vsel::TuningProgress> Join() {
    thread_.join();
    return result_;
  }

  uint64_t session() const { return session_; }

 private:
  const std::string socket_path_;
  const std::string client_id_;
  uint64_t session_ = 0;
  std::atomic<bool> returned_{false};
  Result<vsel::TuningProgress> result_ = Status::Internal("never connected");
  std::thread thread_;
};

TEST_F(VseldDaemonTest, WaitingUpdateIsCancelledFromAnotherConnection) {
  Client control = MustConnect("tenant");
  WaitingUpdate update(socket_path_, "tenant");
  update.Start(&control);
  ASSERT_TRUE(update.SeenRunning(&control));
  Result<vsel::TuningProgress> cancelled = control.Cancel(update.session());
  ASSERT_TRUE(cancelled.ok()) << cancelled.status().ToString();
  EXPECT_TRUE(cancelled->cancel_requested);

  // The anytime contract: the waiting verb returns OK with the valid
  // current best, and a fetch serves it.
  Result<vsel::TuningProgress> waited = update.Join();
  ASSERT_TRUE(waited.ok()) << waited.status().ToString();
  EXPECT_TRUE(waited->done);
  EXPECT_TRUE(waited->cancel_requested);
  Result<Client::FetchedRecommendation> fetched = control.FetchRecommendation(
      update.session(), /*canonical=*/false, /*wait=*/true);
  ASSERT_TRUE(fetched.ok()) << fetched.status().ToString();
  EXPECT_FALSE(fetched->blob.empty());
  EXPECT_TRUE(control.CloseSession(update.session()).ok());
}

TEST_F(VseldDaemonTest, StopReturnsWhileAWaitingUpdateRuns) {
  Client control = MustConnect("tenant");
  WaitingUpdate update(socket_path_, "tenant");
  update.Start(&control);
  ASSERT_TRUE(update.SeenRunning(&control));
  daemon_->Stop();  // must cancel the update, unblock its handler, reap
  (void)update.Join();
  EXPECT_EQ(daemon_->registry().live(), 0u);
  EXPECT_EQ(daemon_->registry().opened(),
            daemon_->registry().closed() + daemon_->registry().reaped());
}

TEST_F(VseldDaemonTest, CloseSessionReturnsWhileAWaitingUpdateRuns) {
  Client control = MustConnect("tenant");
  WaitingUpdate update(socket_path_, "tenant");
  update.Start(&control);
  ASSERT_TRUE(update.SeenRunning(&control));
  EXPECT_TRUE(control.CloseSession(update.session()).ok());
  EXPECT_EQ(daemon_->registry().live(), 0u);
  EXPECT_EQ(daemon_->admission().live_sessions(), 0u);
  Result<vsel::TuningProgress> waited = update.Join();
  EXPECT_TRUE(waited.ok()) << waited.status().ToString();
  // The session is gone for every later verb.
  EXPECT_EQ(control.Poll(update.session()).status().code(),
            StatusCode::kNotFound);
}

TEST_F(VseldDaemonTest, VerbLatencyHistogramObservesEachCall) {
  telemetry::MetricsRegistry* reg = telemetry::MetricsRegistry::Default();
  auto count = [reg](const char* verb) {
    return reg
        ->GetHistogram("vseld_verb_ns", std::string("verb=\"") + verb + "\"")
        ->Count();
  };
  const char* verbs[] = {"ping", "open_session", "update",
                         "fetch_recommendation", "close_session"};
  std::vector<uint64_t> before;
  for (const char* verb : verbs) before.push_back(count(verb));

  Client client = MustConnect("tenant");
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(client.Ping().ok());
  vsel::TuningConfig options;
  options.auto_calibrate_cm = false;
  Result<uint64_t> session = client.OpenSession("default", options);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  ASSERT_TRUE(
      client.Update(*session, {QueryText(0, "h1")}, {}, /*wait=*/true).ok());
  ASSERT_TRUE(client.FetchRecommendation(*session, false, true).ok());
  ASSERT_TRUE(client.CloseSession(*session).ok());
  // The handler observes a verb after writing its response and before
  // reading the next frame: one more round trip orders every observation
  // above before the reads below.
  ASSERT_TRUE(client.Telemetry(TelemetryFormat::kJson).ok());

  const uint64_t calls[] = {3, 1, 1, 1, 1};
  for (size_t v = 0; v < std::size(verbs); ++v) {
    EXPECT_EQ(count(verbs[v]) - before[v], calls[v]) << verbs[v];
  }
  Result<std::string> prom = client.Telemetry(TelemetryFormat::kPrometheus);
  ASSERT_TRUE(prom.ok());
  EXPECT_NE(prom->find("vseld_verb_ns"), std::string::npos);
}

// ---- Fault injection through the vseld.* sites ----------------------------

TEST_F(VseldDaemonTest, InjectedSessionRunFaultIsContained) {
  Client client = MustConnect("tenant");
  vsel::TuningConfig options;
  options.auto_calibrate_cm = false;
  Result<uint64_t> session = client.OpenSession("default", options);
  ASSERT_TRUE(session.ok());

  fault::FaultPlan plan;
  fault::SiteSpec spec;
  spec.nth = 1;
  spec.count = 1;
  plan[fault::sites::kDaemonSessionRun] = spec;
  fault::Arm(7, std::move(plan));
  Result<vsel::TuningProgress> faulted =
      client.Update(*session, {QueryText(0, "f1")}, {}, true);
  EXPECT_FALSE(faulted.ok());
  fault::Disarm();

  // The fault fired before the session was touched: it stays fully usable.
  Result<vsel::TuningProgress> retried =
      client.Update(*session, {QueryText(0, "f1")}, {}, true);
  ASSERT_TRUE(retried.ok()) << retried.status().ToString();
  EXPECT_TRUE(retried->done);
  EXPECT_TRUE(client.CloseSession(*session).ok());
}

TEST_F(VseldDaemonTest, InjectedAcceptFaultDropsOneConnectionOnly) {
  fault::FaultPlan plan;
  fault::SiteSpec spec;
  spec.nth = 1;
  spec.count = 1;
  plan[fault::sites::kDaemonAccept] = spec;
  fault::Arm(3, std::move(plan));
  // The faulted accept closes the connection server-side; this client's
  // first exchange fails cleanly instead of hanging.
  Result<Client> dropped = Client::Connect(socket_path_, "tenant");
  if (dropped.ok()) {
    EXPECT_FALSE(dropped->Ping().ok());
  }
  fault::Disarm();
  // The accept loop survived: the next connection is served normally.
  Client next = MustConnect("tenant");
  EXPECT_TRUE(next.Ping().ok());
}

// ---- Concurrency (TSan leg: test names match -R Parallel) -----------------

TEST(VseldParallelTest, ConcurrentClientsFullLifecycle) {
  rdf::Dictionary dict;
  std::vector<cq::ConjunctiveQuery> queries = {
      MustParse("q1(X, Z) :- t(X, a:p1, Y), t(Y, a:p2, Z)", &dict),
      MustParse("q2(X) :- t(X, b:p1, b:c1)", &dict),
      MustParse("q3(X) :- t(X, c:p1, c:c1)", &dict),
  };
  rdf::TripleStore store =
      workload::GenerateStoreForWorkload(queries, &dict, 1500, 9);
  store.Build(&dict);
  std::string socket_path =
      (fs::path(::testing::TempDir()) /
       ("vseld_parallel_" + std::to_string(::getpid()) + ".sock"))
          .string();
  DaemonOptions options;
  options.socket_path = socket_path;
  options.max_connections = 8;
  options.quota.max_sessions = 0;  // unlimited: every worker gets in
  options.quota.max_sessions_per_client = 0;
  Daemon daemon(options);
  daemon.RegisterStore("default", &store, &dict);
  ASSERT_TRUE(daemon.Start().ok());

  constexpr int kWorkers = 8;
  std::atomic<int> completed{0};
  {
    std::vector<std::thread> workers;
    for (int w = 0; w < kWorkers; ++w) {
      workers.emplace_back([&, w] {
        Result<Client> c =
            Client::Connect(socket_path, "worker-" + std::to_string(w % 3));
        if (!c.ok()) return;
        vsel::TuningConfig opt;
        opt.auto_calibrate_cm = false;
        Result<uint64_t> sid = c->OpenSession("default", opt);
        if (!sid.ok()) return;
        cq::ConjunctiveQuery q = queries[w % queries.size()];
        q.set_name("w" + std::to_string(w));
        Result<vsel::TuningProgress> updated =
            c->Update(*sid, {q.ToString(&dict)}, {}, /*wait=*/true);
        if (!updated.ok()) return;
        Result<Client::FetchedRecommendation> fetched =
            c->FetchRecommendation(*sid, false, true);
        if (!fetched.ok()) return;
        if (!c->CloseSession(*sid).ok()) return;
        completed.fetch_add(1);
      });
    }
    for (std::thread& t : workers) t.join();
  }
  EXPECT_EQ(completed.load(), kWorkers);
  EXPECT_EQ(daemon.registry().live(), 0u);
  daemon.Stop();
  EXPECT_EQ(daemon.registry().opened(),
            daemon.registry().closed() + daemon.registry().reaped());
  fs::remove(socket_path);
}

TEST(VseldParallelTest, StopWithInflightUpdatesNeverHangs) {
  rdf::Dictionary dict;
  std::vector<cq::ConjunctiveQuery> queries = {
      MustParse("q1(X, Z) :- t(X, a:p1, Y), t(Y, a:p2, Z)", &dict),
      MustParse("q2(X, Y) :- t(X, b:p1, Y), t(Y, b:p2, b:c1)", &dict),
  };
  rdf::TripleStore store =
      workload::GenerateStoreForWorkload(queries, &dict, 1500, 10);
  store.Build(&dict);
  std::string socket_path =
      (fs::path(::testing::TempDir()) /
       ("vseld_drain_" + std::to_string(::getpid()) + ".sock"))
          .string();
  DaemonOptions options;
  options.socket_path = socket_path;
  options.max_connections = 4;
  Daemon daemon(options);
  daemon.RegisterStore("default", &store, &dict);
  ASSERT_TRUE(daemon.Start().ok());

  Result<Client> c = Client::Connect(socket_path, "drainee");
  ASSERT_TRUE(c.ok());
  vsel::TuningConfig opt;
  opt.auto_calibrate_cm = false;
  opt.limits.max_states = 50000000;  // far beyond the drain's patience
  Result<uint64_t> sid = c->OpenSession("default", opt);
  ASSERT_TRUE(sid.ok());
  cq::ConjunctiveQuery q = queries[0];
  q.set_name("inflight");
  ASSERT_TRUE(c->Update(*sid, {q.ToString(&dict)}, {}, /*wait=*/false).ok());

  // A second thread is parked in a blocking wait while we drain.
  std::thread waiter([&] {
    Result<Client> w = Client::Connect(socket_path, "drainee");
    if (!w.ok()) return;
    (void)w->FetchRecommendation(*sid, false, /*wait=*/true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  daemon.Stop();  // must cancel the update, unblock the waiter, reap
  waiter.join();
  EXPECT_EQ(daemon.registry().live(), 0u);
  EXPECT_EQ(daemon.registry().opened(),
            daemon.registry().closed() + daemon.registry().reaped());
  fs::remove(socket_path);
}

}  // namespace
}  // namespace rdfviews::vseld
