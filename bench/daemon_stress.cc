// Stress harness for the vseld daemon: runs the daemon in-process, drives
// it with many concurrent clients over real AF_UNIX sockets with mixed
// submit / update / poll / cancel / abrupt-disconnect traffic, and *gates*
// (exit != 0 otherwise — the CI daemon-stress job relies on this) the
// daemon's core contracts:
//
//   1. Parity: a recommendation served by the daemon over the socket is
//      byte-identical (canonical form) to one computed by an in-process
//      TuningSession over the same store, dictionary, and options.
//   2. No leaked sessions: after the run every session is terminal —
//      opened == closed + reaped, registry empty after the drain.
//   3. No hung workers: the whole run (including a graceful drain issued
//      while updates are in flight) terminates; a wedged handler would
//      hang the harness and trip the CI job timeout.
//   4. Quota enforcement: a client pushed past its session quota is
//      rejected with ResourceExhausted, and the rejection is counted.
//
// --chaos=1 additionally arms the vseld.* fault sites with a probabilistic
// plan for the middle phase, proving accept failures, torn frames, and
// head-of-update faults stay contained (clients see clean Status errors /
// connection drops; the daemon keeps serving and still drains to zero).
//
// Writes a JSON report (--report=PATH) with the traffic mix, rejection and
// containment counters, and the gate results.
#include <atomic>
#include <cstdio>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/fault.h"
#include "cq/parser.h"
#include "cq/query.h"
#include "rdf/dictionary.h"
#include "rdf/triple_store.h"
#include "vsel/serialize/serialize.h"
#include "vsel/session/session.h"
#include "vseld/client.h"
#include "vseld/server.h"
#include "workload/generator.h"

namespace {

using namespace rdfviews;

struct StressCounters {
  std::atomic<uint64_t> opens{0};
  std::atomic<uint64_t> updates{0};
  std::atomic<uint64_t> polls{0};
  std::atomic<uint64_t> cancels{0};
  std::atomic<uint64_t> fetches{0};
  std::atomic<uint64_t> closes{0};
  std::atomic<uint64_t> aborts{0};
  std::atomic<uint64_t> reconnects{0};
  std::atomic<uint64_t> quota_rejections{0};
  std::atomic<uint64_t> clean_errors{0};  // non-OK Status responses
  std::atomic<uint64_t> transport_errors{0};
};

std::string QueryText(const std::vector<cq::ConjunctiveQuery>& pool,
                      const rdf::Dictionary& dict, size_t index,
                      const std::string& name) {
  cq::ConjunctiveQuery q = pool[index % pool.size()];
  q.set_name(name);
  return q.ToString(&dict);
}

/// One stress client: open a session, then a random walk of verbs; with
/// probability `abort_share` sever the connection mid-traffic, reconnect,
/// and keep driving the same session. Leaves every session closed unless
/// the walk ends in an abort (those are the daemon drain's job).
void ClientWorker(int id, const std::string& socket_path,
                  const std::vector<cq::ConjunctiveQuery>* pool,
                  const rdf::Dictionary* dict, int ops, double abort_share,
                  StressCounters* counters) {
  std::mt19937_64 rng(0x5eed0000ull + static_cast<uint64_t>(id));
  const std::string client_id = "stress-" + std::to_string(id % 16);
  auto connect = [&]() -> std::unique_ptr<vseld::Client> {
    Result<vseld::Client> c = vseld::Client::Connect(socket_path, client_id);
    if (!c.ok()) return nullptr;
    return std::make_unique<vseld::Client>(std::move(*c));
  };
  std::unique_ptr<vseld::Client> client = connect();
  if (client == nullptr) return;

  vsel::TuningConfig options;
  options.limits.time_budget_sec = 2;
  options.limits.max_states = 20000;
  Result<uint64_t> opened = client->OpenSession("default", options);
  if (!opened.ok()) {
    if (opened.status().code() == StatusCode::kResourceExhausted) {
      counters->quota_rejections.fetch_add(1);
    } else {
      counters->clean_errors.fetch_add(1);
    }
    return;
  }
  counters->opens.fetch_add(1);
  const uint64_t session = *opened;
  bool session_open = true;
  size_t next_query = 0;

  for (int op = 0; op < ops && session_open; ++op) {
    double roll = std::uniform_real_distribution<double>(0, 1)(rng);
    if (roll < abort_share) {
      // Abrupt disconnect — possibly mid-update — then reconnect and keep
      // using the same session id (sessions outlive connections).
      std::string q = QueryText(*pool, *dict,
                                rng(), "s" + std::to_string(id) + "_a" +
                                           std::to_string(op));
      (void)client->Update(session, {q}, {}, /*wait=*/false);
      client->Abort();
      counters->aborts.fetch_add(1);
      client = connect();
      if (client == nullptr) return;  // drain started; session gets reaped
      counters->reconnects.fetch_add(1);
      continue;
    }
    if (roll < 0.45) {
      std::string q = QueryText(*pool, *dict, next_query++,
                                "s" + std::to_string(id) + "_q" +
                                    std::to_string(op));
      Result<vsel::TuningProgress> r =
          client->Update(session, {q}, {}, (op % 3) == 0);
      if (r.ok()) {
        counters->updates.fetch_add(1);
      } else if (r.status().code() == StatusCode::kInvalidArgument) {
        counters->clean_errors.fetch_add(1);  // busy: update in flight
      } else if (r.status().code() == StatusCode::kInternal ||
                 r.status().code() == StatusCode::kTimedOut) {
        counters->transport_errors.fetch_add(1);
        client = connect();
        if (client == nullptr) return;
        counters->reconnects.fetch_add(1);
      } else {
        counters->clean_errors.fetch_add(1);
      }
    } else if (roll < 0.65) {
      Result<vsel::TuningProgress> r = client->Poll(session);
      if (r.ok()) {
        counters->polls.fetch_add(1);
      } else {
        counters->clean_errors.fetch_add(1);
      }
    } else if (roll < 0.8) {
      Result<vsel::TuningProgress> r = client->Cancel(session);
      if (r.ok()) {
        counters->cancels.fetch_add(1);
      } else {
        counters->clean_errors.fetch_add(1);
      }
    } else {
      Result<vseld::Client::FetchedRecommendation> r =
          client->FetchRecommendation(session, /*canonical=*/false,
                                      /*wait=*/true);
      if (r.ok()) {
        counters->fetches.fetch_add(1);
      } else {
        counters->clean_errors.fetch_add(1);
      }
    }
  }
  if (session_open && client != nullptr) {
    if (client->CloseSession(session).ok()) counters->closes.fetch_add(1);
  }
}

void WriteReport(const std::string& path, const StressCounters& c,
                 const vseld::Daemon& daemon, bool parity_ok, bool leaks_ok,
                 bool quota_ok, int clients, bool chaos) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write report %s\n", path.c_str());
    std::exit(2);
  }
  std::fprintf(
      f,
      "{\n"
      "  \"clients\": %d,\n  \"chaos\": %s,\n"
      "  \"opens\": %llu,\n  \"updates\": %llu,\n  \"polls\": %llu,\n"
      "  \"cancels\": %llu,\n  \"fetches\": %llu,\n  \"closes\": %llu,\n"
      "  \"aborts\": %llu,\n  \"reconnects\": %llu,\n"
      "  \"quota_rejections\": %llu,\n  \"clean_errors\": %llu,\n"
      "  \"transport_errors\": %llu,\n"
      "  \"sessions_opened\": %llu,\n  \"sessions_closed\": %llu,\n"
      "  \"sessions_reaped\": %llu,\n  \"sessions_live_after_drain\": %zu,\n"
      "  \"gate_parity\": %s,\n  \"gate_no_leaks\": %s,\n"
      "  \"gate_quota\": %s\n"
      "}\n",
      clients, chaos ? "true" : "false",
      static_cast<unsigned long long>(c.opens.load()),
      static_cast<unsigned long long>(c.updates.load()),
      static_cast<unsigned long long>(c.polls.load()),
      static_cast<unsigned long long>(c.cancels.load()),
      static_cast<unsigned long long>(c.fetches.load()),
      static_cast<unsigned long long>(c.closes.load()),
      static_cast<unsigned long long>(c.aborts.load()),
      static_cast<unsigned long long>(c.reconnects.load()),
      static_cast<unsigned long long>(c.quota_rejections.load()),
      static_cast<unsigned long long>(c.clean_errors.load()),
      static_cast<unsigned long long>(c.transport_errors.load()),
      static_cast<unsigned long long>(daemon.registry().opened()),
      static_cast<unsigned long long>(daemon.registry().closed()),
      static_cast<unsigned long long>(daemon.registry().reaped()),
      daemon.registry().live(), parity_ok ? "true" : "false",
      leaks_ok ? "true" : "false", quota_ok ? "true" : "false");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  bench::Flags flags(argc, argv);
  const int clients = static_cast<int>(flags.GetInt("clients", 64));
  const int ops = static_cast<int>(flags.GetInt("ops", 12));
  // Parity needs a *deterministic* search, not a big one: serial, no time
  // budget, truncated at a fixed state cap identically on both paths.
  // Sanitizer legs shrink it — and the workload knobs below — because a
  // Debug+TSan build explores states ~100-300x slower than Release and the
  // per-state cost grows steeply with query size/commonality; the TSan leg
  // exists for race coverage of the daemon machinery, not search throughput.
  const size_t parity_max_states =
      static_cast<size_t>(flags.GetInt("parity-max-states", 200000));
  const size_t parity_queries =
      static_cast<size_t>(flags.GetInt("parity-queries", 6));
  const size_t workload_queries =
      static_cast<size_t>(flags.GetInt("workload-queries", 24));
  const size_t workload_atoms =
      static_cast<size_t>(flags.GetInt("workload-atoms", 4));
  const size_t triples = static_cast<size_t>(flags.GetInt("triples", 3000));
  const bool chaos = flags.GetInt("chaos", 0) != 0;
  const std::string report = flags.GetString("report", "");
  const std::string socket_path =
      flags.GetString("socket", "/tmp/vseld_stress.sock");

  // One synthetic environment shared by the daemon and the in-process
  // parity reference. High commonality + several partition groups gives
  // the partition cache and the progress stream something to chew on.
  rdf::Dictionary dict;
  workload::WorkloadSpec spec;
  spec.num_queries = workload_queries;
  spec.atoms_per_query = workload_atoms;
  spec.commonality = workload::Commonality::kHigh;
  spec.partition_groups = 4;
  spec.seed = 11;
  std::vector<cq::ConjunctiveQuery> pool =
      workload::GenerateWorkload(spec, &dict);
  std::fprintf(stderr, "[stress] workload generated (%zu queries)\n",
               pool.size());
  rdf::TripleStore store =
      workload::GenerateStoreForWorkload(pool, &dict, triples, 11);
  store.Build(&dict);
  std::fprintf(stderr, "[stress] store built (%zu triples)\n", store.size());

  vseld::DaemonOptions options;
  options.socket_path = socket_path;
  options.max_connections = static_cast<size_t>(clients) + 4;
  options.quota.max_sessions = static_cast<size_t>(clients) + 8;
  options.quota.max_sessions_per_client = 6;
  vseld::Daemon daemon(options);
  daemon.RegisterStore("default", &store, &dict);
  Status started = daemon.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "daemon start failed: %s\n",
                 started.ToString().c_str());
    return 2;
  }
  std::fprintf(stderr, "[stress] daemon listening on %s\n",
               socket_path.c_str());

  // --- Phase 1: parity gate -------------------------------------------------
  // The same workload delta through (a) the daemon over the socket and
  // (b) an in-process TuningSession; identical options (calibration off so
  // weights cannot drift between the runs), canonical serialized form.
  bool parity_ok = false;
  {
    vsel::TuningConfig popt;
    popt.auto_calibrate_cm = false;
    popt.limits.time_budget_sec = 0;  // no wall-clock cut: deterministic
    popt.limits.max_states = parity_max_states;
    std::vector<std::string> texts;
    for (size_t i = 0; i < parity_queries; ++i) {
      texts.push_back(QueryText(pool, dict, i, "p" + std::to_string(i)));
    }

    Result<vseld::Client> connected =
        vseld::Client::Connect(socket_path, "parity");
    if (!connected.ok()) {
      std::fprintf(stderr, "parity connect failed: %s\n",
                   connected.status().ToString().c_str());
      return 2;
    }
    vseld::Client client = std::move(*connected);
    Result<uint64_t> sid = client.OpenSession("default", popt);
    Result<std::string> daemon_blob = Status::Internal("unset");
    if (sid.ok()) {
      Result<vsel::TuningProgress> updated =
          client.Update(*sid, texts, {}, /*wait=*/true);
      if (updated.ok()) {
        Result<vseld::Client::FetchedRecommendation> fetched =
            client.FetchRecommendation(*sid, /*canonical=*/true,
                                       /*wait=*/true);
        if (fetched.ok()) daemon_blob = std::move(fetched->blob);
      }
      (void)client.CloseSession(*sid);
    }
    std::fprintf(stderr, "[stress] parity: daemon-side session done (%s)\n",
                 daemon_blob.ok() ? "ok" : daemon_blob.status().ToString().c_str());

    // In-process reference over the same dictionary: the daemon already
    // interned the query texts, so re-parsing them here maps to identical
    // term ids.
    std::vector<cq::ConjunctiveQuery> reference_queries;
    for (const std::string& text : texts) {
      Result<cq::ConjunctiveQuery> q = cq::ParseDatalog(text, &dict);
      if (q.ok()) reference_queries.push_back(std::move(*q));
    }
    vsel::TuningSession reference(&store, &dict, popt);
    Result<vsel::Recommendation> rec = reference.Update(reference_queries);
    if (daemon_blob.ok() && rec.ok()) {
      vsel::serialize::CacheIdentity identity =
          vsel::serialize::ComputeCacheIdentity(store, popt);
      std::string reference_blob =
          vsel::serialize::SerializeRecommendationCanonical(*rec, identity);
      parity_ok = *daemon_blob == reference_blob;
      std::printf("parity: daemon blob %zu bytes, reference %zu bytes -> %s\n",
                  daemon_blob->size(), reference_blob.size(),
                  parity_ok ? "IDENTICAL" : "MISMATCH");
    } else {
      std::printf("parity: daemon=%s reference=%s\n",
                  daemon_blob.status().ToString().c_str(),
                  rec.status().ToString().c_str());
    }
  }

  // --- Phase 2: quota probe -------------------------------------------------
  // One client opens sessions past its per-client cap; the overflow must
  // be a clean ResourceExhausted, and closing releases the slots.
  bool quota_ok = false;
  {
    Result<vseld::Client> connected =
        vseld::Client::Connect(socket_path, "quota-probe");
    if (connected.ok()) {
      vseld::Client client = std::move(*connected);
      vsel::TuningConfig qopt;
      qopt.limits.max_states = 1000;
      std::vector<uint64_t> ids;
      Status overflow = Status::OK();
      for (size_t i = 0; i < options.quota.max_sessions_per_client + 2; ++i) {
        Result<uint64_t> sid = client.OpenSession("default", qopt);
        if (sid.ok()) {
          ids.push_back(*sid);
        } else {
          overflow = sid.status();
        }
      }
      quota_ok = ids.size() == options.quota.max_sessions_per_client &&
                 overflow.code() == StatusCode::kResourceExhausted;
      for (uint64_t id : ids) (void)client.CloseSession(id);
      std::printf("quota: %zu admitted (cap %zu), overflow %s -> %s\n",
                  ids.size(), options.quota.max_sessions_per_client,
                  overflow.ToString().c_str(), quota_ok ? "OK" : "FAIL");
    }
  }

  // --- Phase 3: mixed-traffic stress (optionally under chaos) ---------------
  if (chaos) {
    fault::FaultPlan plan;
    fault::SiteSpec spec_accept;
    spec_accept.probability = 0.05;
    spec_accept.count = fault::kForever;
    plan[fault::sites::kDaemonAccept] = spec_accept;
    fault::SiteSpec spec_frame;
    spec_frame.probability = 0.02;
    spec_frame.count = fault::kForever;
    plan[fault::sites::kDaemonFrameRead] = spec_frame;
    plan[fault::sites::kDaemonFrameWrite] = spec_frame;
    fault::SiteSpec spec_run;
    spec_run.probability = 0.05;
    spec_run.count = fault::kForever;
    plan[fault::sites::kDaemonSessionRun] = spec_run;
    fault::Arm(static_cast<uint64_t>(flags.GetInt("chaos-seed", 0xC4A05)),
               std::move(plan));
    std::printf("chaos: vseld.* sites armed\n");
  }
  StressCounters counters;
  {
    std::vector<std::thread> workers;
    workers.reserve(static_cast<size_t>(clients));
    for (int i = 0; i < clients; ++i) {
      workers.emplace_back(ClientWorker, i, socket_path, &pool, &dict, ops,
                           chaos ? 0.12 : 0.08, &counters);
    }
    for (std::thread& t : workers) t.join();
  }
  if (chaos) fault::Disarm();

  // --- Phase 4: drain with updates in flight --------------------------------
  // Submit no-wait updates on fresh sessions, then Stop() immediately: the
  // drain must cancel them via the anytime contract and reap the sessions.
  {
    Result<vseld::Client> connected =
        vseld::Client::Connect(socket_path, "drain-probe");
    if (connected.ok()) {
      vseld::Client client = std::move(*connected);
      vsel::TuningConfig dopt;
      dopt.limits.max_states = 5000000;  // big enough to still be running
      for (int i = 0; i < 3; ++i) {
        Result<uint64_t> sid = client.OpenSession("default", dopt);
        if (!sid.ok()) break;
        std::vector<std::string> texts;
        for (size_t j = 0; j < 4; ++j) {
          texts.push_back(QueryText(pool, dict, 7 * (j + 1) + i,
                                    "d" + std::to_string(i) + "_" +
                                        std::to_string(j)));
        }
        (void)client.Update(*sid, texts, {}, /*wait=*/false);
      }
      // Sessions deliberately left open with updates running.
    }
  }
  daemon.Stop();

  // --- Gates ----------------------------------------------------------------
  const auto& registry = daemon.registry();
  bool leaks_ok = registry.live() == 0 &&
                  registry.opened() == registry.closed() + registry.reaped();
  std::printf(
      "sessions: opened=%llu closed=%llu reaped=%llu live-after-drain=%zu "
      "-> %s\n",
      static_cast<unsigned long long>(registry.opened()),
      static_cast<unsigned long long>(registry.closed()),
      static_cast<unsigned long long>(registry.reaped()), registry.live(),
      leaks_ok ? "NO LEAKS" : "LEAK");
  std::printf(
      "traffic: opens=%llu updates=%llu polls=%llu cancels=%llu "
      "fetches=%llu closes=%llu aborts=%llu reconnects=%llu "
      "clean_errors=%llu transport_errors=%llu\n",
      static_cast<unsigned long long>(counters.opens.load()),
      static_cast<unsigned long long>(counters.updates.load()),
      static_cast<unsigned long long>(counters.polls.load()),
      static_cast<unsigned long long>(counters.cancels.load()),
      static_cast<unsigned long long>(counters.fetches.load()),
      static_cast<unsigned long long>(counters.closes.load()),
      static_cast<unsigned long long>(counters.aborts.load()),
      static_cast<unsigned long long>(counters.reconnects.load()),
      static_cast<unsigned long long>(counters.clean_errors.load()),
      static_cast<unsigned long long>(counters.transport_errors.load()));

  if (!report.empty()) {
    WriteReport(report, counters, daemon, parity_ok, leaks_ok, quota_ok,
                clients, chaos);
  }
  if (!parity_ok) {
    std::fprintf(stderr, "GATE FAILED: daemon/in-process parity\n");
    return 1;
  }
  if (!leaks_ok) {
    std::fprintf(stderr, "GATE FAILED: leaked sessions\n");
    return 1;
  }
  if (!quota_ok) {
    std::fprintf(stderr, "GATE FAILED: quota enforcement\n");
    return 1;
  }
  std::printf("daemon stress: all gates passed\n");
  return 0;
}
