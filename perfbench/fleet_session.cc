// fleet_session: the wide_session generator and update script at the same
// scale, driven through vseld::Client against an in-process daemon with two
// registered RunWorker workers, so stage 3 goes over the wire. Its gap from
// wide_session is the price of protocol, work-unit serialization, transport
// and rehydration. The coordinator runs one thread, as wide_session does, so
// partitions go to the workers one at a time and one thread computes.
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <optional>
#include <thread>

#include "common/hash.h"
#include "probes.h"
#include "vsel/serialize/serialize.h"
#include "vsel/session/session.h"
#include "vseld/client.h"
#include "vseld/fleet.h"
#include "vseld/registry.h"
#include "vseld/server.h"
#include "workloads.h"

namespace perfbench {

using namespace rdfviews;

namespace {

constexpr int kWorkers = 2;
constexpr const char* kStoreTag = "bench";

/// The generated workload plus a running daemon and its fleet. Destruction
/// drains the daemon, joins the workers and removes the socket file.
struct Fleet {
  std::unique_ptr<FamilyWorkload> w;
  std::unique_ptr<vseld::Daemon> daemon;
  std::vector<std::thread> workers;
  std::string socket;

  Fleet() = default;
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;
  ~Fleet() {
    if (daemon != nullptr) daemon->Stop();
    for (std::thread& t : workers) t.join();
    daemon.reset();
    if (!socket.empty()) std::remove(socket.c_str());
  }
};

std::unique_ptr<Fleet> StartFleet(const FamilyScale& scale, const Args& args,
                                  int attempt, Report* report) {
  auto fleet = std::make_unique<Fleet>();
  fleet->w = MakeFamilyWorkload(scale, args.seed, report);
  fleet->socket = args.work_dir + "/vseld-" + std::to_string(getpid()) +
                  "-" + std::to_string(attempt) + ".sock";
  vseld::DaemonOptions options;
  options.socket_path = fleet->socket;
  options.max_connections = 8;
  options.enable_fleet = true;
  // No quota may clamp a request: admission must not change the work.
  options.quota.max_sessions = 0;
  options.quota.max_sessions_per_client = 0;
  options.quota.max_queries_per_update = 0;
  options.quota.aggregate_max_states = 0;
  options.quota.aggregate_time_budget_sec = 0;
  fleet->daemon = std::make_unique<vseld::Daemon>(options);
  fleet->daemon->RegisterStore(kStoreTag, fleet->w->store.get(),
                               &fleet->w->dict);
  Status started = fleet->daemon->Start();
  report->Check(started.ok(), "daemon start failed: " + started.ToString());
  if (!started.ok()) return fleet;
  for (int i = 0; i < kWorkers; ++i) {
    vseld::WorkerOptions worker;
    worker.socket_path = fleet->socket;
    worker.name = "worker-" + std::to_string(i);
    fleet->workers.emplace_back([worker] {
      Status st = vseld::RunWorker(worker);
      if (!st.ok()) {
        std::fprintf(stderr, "%s: %s\n", worker.name.c_str(),
                     st.ToString().c_str());
      }
    });
  }
  const Clock::time_point start = Clock::now();
  while (fleet->daemon->fleet_pool().registered_total() < kWorkers &&
         SecondsSince(start) < 30) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  report->Check(fleet->daemon->fleet_pool().registered_total() == kWorkers,
                "fleet workers failed to register");
  return fleet;
}

bool WriteAll(int fd, const char* data, size_t size) {
  while (size > 0) {
    const ssize_t n = write(fd, data, size);
    if (n <= 0) return false;
    data += n;
    size -= static_cast<size_t>(n);
  }
  return true;
}

/// A hash of the canonical recommendation bytes of each update of an
/// in-process TuningSession fed the same script (entry 0: the initial
/// workload). It runs in a child process that ends before the daemon
/// starts, so neither its memory nor its threads count in the fleet's
/// figures. Empty when the child failed.
std::vector<Hash128> ReferenceKeys(const FamilyScale& scale,
                                   const Args& args, Report* report) {
  int fds[2];
  if (pipe(fds) != 0) {
    report->Check(false, "pipe failed");
    return {};
  }
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    report->Check(false, "fork failed");
    return {};
  }
  if (pid == 0) {
    close(fds[0]);
    Report child;
    std::unique_ptr<FamilyWorkload> w =
        MakeFamilyWorkload(scale, args.seed, &child);
    const vsel::TuningConfig cfg = FamilyConfig();
    const vsel::serialize::CacheIdentity identity =
        vsel::serialize::ComputeCacheIdentity(*w->store, cfg);
    vsel::TuningSession session(w->store.get(), &w->dict, cfg);
    bool ok = true;
    auto update = [&](const std::vector<size_t>& add,
                      const std::vector<size_t>& remove) {
      Result<vsel::Recommendation> rec = session.Update(
          ParseQueries(w->Texts(add), &w->dict, nullptr, &child),
          w->Names(remove));
      if (!rec.ok()) {
        ok = false;
        return;
      }
      const std::string canonical =
          vsel::serialize::SerializeRecommendationCanonical(*rec, identity);
      const Hash128 key = HashBytes128(canonical.data(), canonical.size());
      ok = ok && WriteAll(fds[1], reinterpret_cast<const char*>(&key),
                          sizeof(key));
    };
    update(w->initial, {});
    for (const FamilyWorkload::Step& step : w->steps) {
      if (ok) update(step.add, step.remove);
    }
    close(fds[1]);
    // _exit: no stdio flush, so output the parent had buffered before the
    // fork is printed once, by the parent.
    _exit(ok && child.correct() ? 0 : 1);
  }
  close(fds[1]);
  std::vector<Hash128> keys;
  Hash128 key;
  size_t have = 0;
  ssize_t n;
  while ((n = read(fds[0], reinterpret_cast<char*>(&key) + have,
                   sizeof(key) - have)) > 0) {
    have += static_cast<size_t>(n);
    if (have == sizeof(key)) {
      keys.push_back(key);
      have = 0;
    }
  }
  close(fds[0]);
  int status = 0;
  const bool exited = waitpid(pid, &status, 0) == pid && WIFEXITED(status) &&
                      WEXITSTATUS(status) == 0;
  report->Check(exited, "the in-process reference session failed");
  return exited ? keys : std::vector<Hash128>{};
}

/// The pipeline report of the daemon session's last completed update.
vsel::PipelineReport LastReport(vseld::DaemonSession* entry) {
  std::lock_guard<std::mutex> lock(entry->mu);
  return entry->last_recommendation.has_value()
             ? entry->last_recommendation->pipeline
             : vsel::PipelineReport{};
}

}  // namespace

void RunFleetSession(const Args& args, Report* report) {
  FamilyScale scale;
  if (args.tiny) {
    scale.initial_families = 8;
    scale.updates = 6;
  }
  const std::vector<Hash128> expected = ReferenceKeys(scale, args, report);
  report->Check(expected.size() == scale.updates + 1,
                "the reference session returned too few recommendations");
  if (!report->correct()) return;

  EndToEnd e(1);
  Layers layers;
  SpanLog spans;
  SpanLog* trace = args.trace ? &spans : nullptr;
  const double s = args.seconds;

  int attempt = 0;
  std::unique_ptr<Fleet> fleet =
      SetUp<Fleet>(kFamilySetUps, &e.setup_s, [&] {
        return StartFleet(scale, args, attempt++, report);
      });
  if (!report->correct()) return;
  FamilyWorkload& w = *fleet->w;
  vseld::WorkerPool& pool = fleet->daemon->fleet_pool();
  const vseld::SessionRegistry& sessions = fleet->daemon->registry();
  const vsel::TuningConfig cfg = FamilyConfig();
  const vsel::serialize::CacheIdentity identity =
      vsel::serialize::ComputeCacheIdentity(*w.store, cfg);
  const std::vector<std::string> initial = w.Texts(w.initial);

  Result<vseld::Client> connected =
      vseld::Client::Connect(fleet->socket, "perfbench");
  report->Check(connected.ok(), "connect failed");
  if (!connected.ok()) return;
  vseld::Client client = std::move(*connected);
  std::vector<double> ping_us;
  for (int i = 0; i < 50; ++i) {
    const Clock::time_point t0 = Clock::now();
    Status ping = client.Ping();
    ping_us.push_back(SecondsSince(t0) * 1e6);
    report->Op(ping.ok());
    report->Check(ping.ok(), "ping failed: " + ping.ToString());
  }

  // Cold tunes: open a session, send the whole workload as text, fetch
  // and decode the recommendation, close. The traced run alternates
  // untraced and traced tunes: spans around each verb, and the daemon
  // session traces itself, which gives the coordinator's stage split.
  std::optional<vsel::Recommendation> first;
  bool same_best = true;
  std::vector<double> untraced_s, traced_s, open_ms, fetch_ms;
  StageSplit tune_split;
  CoreCounters core;
  size_t partitions = 0;
  auto tune = [&](SpanLog* spans_or_null) {
    vsel::TuningConfig tune_cfg = cfg;
    tune_cfg.telemetry.trace = spans_or_null != nullptr;
    if (spans_or_null != nullptr) spans_or_null->BeginTune();
    const CoreCounters before = CoreCounters::Read();
    const Clock::time_point t0 = Clock::now();
    vsel::PipelineReport pipeline;
    Result<vsel::Recommendation> rec = [&]() -> Result<vsel::Recommendation> {
      Span root(spans_or_null, "tune");
      Clock::time_point t = Clock::now();
      Result<uint64_t> sid = [&] {
        Span span(spans_or_null, "vseld.open");
        return client.OpenSession(kStoreTag, tune_cfg);
      }();
      open_ms.push_back(SecondsSince(t) * 1e3);
      if (!sid.ok()) return sid.status();
      Result<vsel::TuningProgress> updated = [&] {
        Span span(spans_or_null, "vseld.update");
        return client.Update(*sid, initial, {}, /*wait=*/true);
      }();
      if (!updated.ok()) return updated.status();
      t = Clock::now();
      Result<vseld::Client::FetchedRecommendation> fetched = [&] {
        Span span(spans_or_null, "vseld.fetch");
        return client.FetchRecommendation(*sid, /*canonical=*/false,
                                          /*wait=*/true);
      }();
      fetch_ms.push_back(SecondsSince(t) * 1e3);
      if (!fetched.ok()) return fetched.status();
      Result<vsel::Recommendation> decoded = [&] {
        Span span(spans_or_null, "serialize.decode");
        return vsel::serialize::DeserializeRecommendation(
            fetched->blob, fetched->identity, w.store);
      }();
      if (std::shared_ptr<vseld::DaemonSession> entry = sessions.Find(*sid)) {
        pipeline = LastReport(entry.get());
      }
      Status closed = client.CloseSession(*sid);
      if (!closed.ok()) return closed;
      return decoded;
    }();
    (spans_or_null != nullptr ? traced_s : untraced_s)
        .push_back(SecondsSince(t0));
    report->Op(rec.ok());
    if (!rec.ok()) {
      report->Check(false, "fleet tune failed: " + rec.status().ToString());
      return;
    }
    partitions = pipeline.num_partitions;
    if (spans_or_null != nullptr) {
      core += CoreCounters::Read() - before;
      report->Check(tune_split.Add(pipeline),
                    "a traced tune carries no span tree");
    }
    if (!first.has_value()) {
      first = std::move(*rec);
    } else {
      same_best = same_best && SameBest(*first, *rec);
    }
  };

  // The update stream through the daemon, replayed in passes, each on a
  // fresh daemon session. Each update of every pass is checked against the
  // reference session's for the same step; the session figures come from
  // the daemon session's own pipeline reports.
  vsel::TuningConfig stream_cfg = cfg;
  stream_cfg.telemetry.trace = args.trace;
  std::vector<double> verb_update_ms;
  double update_s = 0;
  SessionFigures session_figures;
  StageSplit update_split;
  uint64_t cache_hits = 0, cache_misses = 0;
  size_t compared = 0;
  std::optional<uint64_t> pass_dispatches;
  uint64_t total_dispatches = 0;
  auto stream_pass = [&] {
    const bool timed_pass = pass_dispatches.has_value();
    if (timed_pass) e.per[0].update_passes_ms.emplace_back();
    Result<uint64_t> sid = client.OpenSession(kStoreTag, stream_cfg);
    report->Op(sid.ok());
    report->Check(sid.ok(), "open failed");
    if (!sid.ok()) return;
    const std::shared_ptr<vseld::DaemonSession> entry = sessions.Find(*sid);
    report->Check(entry != nullptr, "the daemon lost the stream's session");
    if (entry == nullptr) return;
    size_t k = 0;
    auto step = [&](const std::vector<std::string>& add,
                    const std::vector<std::string>& remove, bool timed) {
      const Hash128& want = expected[k++];
      const Clock::time_point t0 = Clock::now();
      Result<vsel::TuningProgress> updated = [&] {
        Span span(trace, "vseld.update");
        return client.Update(*sid, add, remove, /*wait=*/true);
      }();
      const double verb_s = SecondsSince(t0);
      Result<vseld::Client::FetchedRecommendation> fetched =
          updated.ok() ? client.FetchRecommendation(*sid, /*canonical=*/true,
                                                    /*wait=*/true)
                       : Result<vseld::Client::FetchedRecommendation>(
                             updated.status());
      const double dt = SecondsSince(t0);
      report->Op(fetched.ok());
      if (!fetched.ok()) {
        report->Check(false, "fleet update failed: " +
                                 fetched.status().ToString());
        return;
      }
      const vsel::PipelineReport pipeline = LastReport(entry.get());
      if (timed && timed_pass) {
        e.per[0].update_passes_ms.back().push_back(dt * 1e3);
        verb_update_ms.push_back(verb_s * 1e3);
        update_s += verb_s;
        session_figures.Add(pipeline);
        if (args.trace) {
          report->Check(update_split.Add(pipeline),
                        "a traced update carries no span tree");
        }
      }
      // One coordinator thread searches the partitions one after another,
      // so the rewriting plans, and with them the canonical bytes, repeat
      // the in-process session's exactly.
      ++compared;
      report->Check(
          HashBytes128(fetched->blob.data(), fetched->blob.size()) == want,
          "fleet recommendation bytes differ from the in-process session's");
    };
    step(initial, {}, /*timed=*/false);  // the session's initial workload
    const uint64_t before = pool.counters().dispatches;
    for (const FamilyWorkload::Step& st : w.steps) {
      step(w.Texts(st.add), w.Names(st.remove), /*timed=*/true);
    }
    const uint64_t dispatches = pool.counters().dispatches - before;
    report->Check(
        !pass_dispatches.has_value() || *pass_dispatches == dispatches,
        "update stream passes dispatch different work");
    pass_dispatches = dispatches;
    total_dispatches += dispatches;
    {
      std::lock_guard<std::mutex> lock(entry->mu);
      cache_hits += entry->session->cache_backend().counters().hits;
      cache_misses += entry->session->cache_backend().counters().misses;
    }
    report->Op(client.CloseSession(*sid).ok());
  };

  // Rounds of cold tunes and one update pass, like wide_session's, so
  // tunes and updates sample the same stretch of the run. A round tunes
  // twice: a remote tune is long and its best of the run needs samples.
  // The first tune and the first pass warm up and are not timed: they run
  // much slower.
  tune(nullptr);
  untraced_s.clear();
  open_ms.clear();
  fetch_ms.clear();
  stream_pass();
  Repeat(kRoundsShare * s, 3, [&] {
    for (int i = 0; i < 2; ++i) {
      tune(nullptr);
      if (trace != nullptr) tune(trace);
    }
    stream_pass();
  });
  if (!first.has_value()) return;
  report->Check(same_best, "repeated fleet tunes found different bests");
  e.per[0].tune_s = untraced_s;
  e.per[0].cost_ratio = CostRatio(*first);
  FixedOutputs(*first, partitions, "", report);
  const vseld::WorkerPool::Counters after = pool.counters();
  const uint64_t stream_dispatches = pass_dispatches.value_or(0);
  std::fprintf(stderr, "fleet parity: %zu updates compared\n", compared);
  report->Fixed("stream_dispatches", static_cast<double>(stream_dispatches));
  report->Check(stream_dispatches > 0, "no partition reached a fleet worker");
  report->Check(after.worker_deaths == 0, "a fleet worker died");

  std::vector<double> parse_us;
  const std::vector<cq::ConjunctiveQuery> queries =
      ParseQueries(initial, &w.dict, nullptr, report, &parse_us);
  ServeRecommendation(*first, queries, *w.store, 0.02 * s, 0.05 * s,
                      &e.per[0], report);
  if (!args.trace) {
    EmitEndToEnd(e, report);
    return;
  }
  // The vseld and fleet layers exist on this workload only, so they stay
  // off the per-layer metrics every workload reports.
  std::fprintf(stderr,
               "vseld/fleet: ping %.1f us, open %.3f ms, update %.3f ms, "
               "fetch %.3f ms (medians); %llu dispatches per stream, %.6f s "
               "per dispatch, %llu requeues\n",
               Median(ping_us), Median(open_ms), Median(verb_update_ms),
               Median(fetch_ms),
               static_cast<unsigned long long>(stream_dispatches),
               total_dispatches > 0
                   ? update_s / static_cast<double>(total_dispatches)
                   : 0.0,
               static_cast<unsigned long long>(after.requeues));
  layers.Set("cq.parse_us", Median(parse_us), "us");
  layers.Set("cq.minimize_us", MinimizeMicros(queries, 1), "us");
  tune_split.Print("traced tune, daemon side");
  layers.Set("pipeline.ingest_s", tune_split.Median(0), "s");
  layers.Set("pipeline.partition_s", tune_split.Median(1), "s");
  layers.Set("pipeline.search_s", tune_split.Median(3), "s");
  layers.Set("pipeline.merge_s", tune_split.Median(4), "s");
  layers.Set("pipeline.partitions", static_cast<double>(partitions), "count");
  UpdateStageLayers(update_split, &layers);
  SearchCounters(first->stats, tune_split.Median(3), &layers);
  core.Fill(&layers);
  const size_t walk_queries = std::min<size_t>(16, queries.size());
  const std::vector<cq::ConjunctiveQuery> walked(
      queries.begin(), queries.begin() + static_cast<long>(walk_queries));
  const std::shared_ptr<rdf::Statistics> stats =
      WorkloadStatistics(w.store.get(), &w.dict, walked, cfg);
  ReplayWalk(walked, stats.get(), cfg, args.seed, args.tiny ? 200 : 20000,
             &layers);
  session_figures.Fill(cache_hits, cache_misses, &layers);
  layers.Set("trace.overhead_ratio", Median(traced_s) / Median(untraced_s),
             "ratio");
  SerializeProbe(*first, identity, w.store, trace, &layers, report);
  FinishTrace(spans, args, e, &layers, report);
  layers.EmitTo(report);
}

}  // namespace perfbench
