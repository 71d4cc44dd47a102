// Stress harness for the distributed tuning fleet: runs a fleet-enabled
// daemon in-process, registers >= 4 workers (threads running RunWorker
// against the real AF_UNIX socket), drives tuning sessions whose
// dirty-partition searches are dispatched to those workers, and *gates*
// (exit != 0 otherwise — the CI fleet-stress job relies on this):
//
//   1. Fleet parity: a recommendation computed by the fleet — every
//      partition searched on a remote worker from shipped statistics —
//      is byte-identical (canonical form) to one computed by an
//      in-process TuningSession over the same store, dictionary and
//      options. Holds across a session's *second* (incremental) update
//      too.
//   2. Worker-death containment (--chaos=1): one worker is configured to
//      sever its connection in the middle of its first dispatched unit.
//      The coordinator must detect the death, re-queue the unit to a
//      surviving worker, and still pass gate 1 — the recommendation must
//      not degrade, because the unit was re-run, not abandoned.
//   3. Remote traffic actually happened: the pool dispatched and received
//      results (a silently-local run cannot greenwash gate 1).
//   4. Zero leaks: after the drain every session is terminal
//      (opened == closed + reaped, none live), every worker connection is
//      severed and joined, and no unit is stuck pending.
//
// Writes a JSON report (--report=PATH) with the fleet counters and gate
// results.
#include <chrono>
#include <cstdio>
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
#include "vseld/fleet.h"
#include "vseld/server.h"
#include "workload/generator.h"

namespace {

using namespace rdfviews;

std::string QueryText(const std::vector<cq::ConjunctiveQuery>& pool,
                      const rdf::Dictionary& dict, size_t index,
                      const std::string& name) {
  cq::ConjunctiveQuery q = pool[index % pool.size()];
  q.set_name(name);
  return q.ToString(&dict);
}

void WriteReport(const std::string& path, const vseld::WorkerPool::Counters& c,
                 const vseld::Daemon& daemon, int workers, bool chaos,
                 bool parity1_ok, bool parity2_ok, bool chaos_ok,
                 bool traffic_ok, bool leaks_ok) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write report %s\n", path.c_str());
    std::exit(2);
  }
  std::fprintf(
      f,
      "{\n"
      "  \"workers\": %d,\n  \"chaos\": %s,\n"
      "  \"fleet_registered\": %llu,\n  \"fleet_dispatches\": %llu,\n"
      "  \"fleet_results\": %llu,\n  \"fleet_requeues\": %llu,\n"
      "  \"fleet_worker_deaths\": %llu,\n"
      "  \"fleet_duplicate_results\": %llu,\n  \"fleet_heartbeats\": %llu,\n"
      "  \"sessions_opened\": %llu,\n  \"sessions_closed\": %llu,\n"
      "  \"sessions_reaped\": %llu,\n  \"sessions_live_after_drain\": %zu,\n"
      "  \"gate_parity_update1\": %s,\n  \"gate_parity_update2\": %s,\n"
      "  \"gate_chaos_requeue\": %s,\n  \"gate_remote_traffic\": %s,\n"
      "  \"gate_no_leaks\": %s\n"
      "}\n",
      workers, chaos ? "true" : "false",
      static_cast<unsigned long long>(c.registered),
      static_cast<unsigned long long>(c.dispatches),
      static_cast<unsigned long long>(c.results),
      static_cast<unsigned long long>(c.requeues),
      static_cast<unsigned long long>(c.worker_deaths),
      static_cast<unsigned long long>(c.duplicate_results),
      static_cast<unsigned long long>(c.heartbeats),
      static_cast<unsigned long long>(daemon.registry().opened()),
      static_cast<unsigned long long>(daemon.registry().closed()),
      static_cast<unsigned long long>(daemon.registry().reaped()),
      daemon.registry().live(), parity1_ok ? "true" : "false",
      parity2_ok ? "true" : "false", chaos_ok ? "true" : "false",
      traffic_ok ? "true" : "false", leaks_ok ? "true" : "false");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  bench::Flags flags(argc, argv);
  const int num_workers = static_cast<int>(flags.GetInt("workers", 4));
  // Parity needs a deterministic search: serial per-partition engines (the
  // fan-out path pins each partition's search to one thread on both the
  // fleet and the reference side), no wall-clock cut, a fixed state cap.
  // Sanitizer legs shrink the knobs below, mirroring daemon_stress.
  const size_t parity_max_states =
      static_cast<size_t>(flags.GetInt("parity-max-states", 150000));
  const size_t update1_queries =
      static_cast<size_t>(flags.GetInt("update1-queries", 8));
  const size_t update2_queries =
      static_cast<size_t>(flags.GetInt("update2-queries", 4));
  const size_t workload_queries =
      static_cast<size_t>(flags.GetInt("workload-queries", 24));
  const size_t workload_atoms =
      static_cast<size_t>(flags.GetInt("workload-atoms", 4));
  const size_t triples = static_cast<size_t>(flags.GetInt("triples", 3000));
  const bool chaos = flags.GetInt("chaos", 0) != 0;
  const std::string report = flags.GetString("report", "");
  const std::string socket_path =
      flags.GetString("socket", "/tmp/vseld_fleet_stress.sock");

  // One synthetic environment shared by the daemon and the in-process
  // parity reference. Several partition groups, so the fleet has units to
  // spread across workers and the chaos death hits mid-run, not at the end.
  rdf::Dictionary dict;
  workload::WorkloadSpec spec;
  spec.num_queries = workload_queries;
  spec.atoms_per_query = workload_atoms;
  spec.commonality = workload::Commonality::kHigh;
  spec.partition_groups = 4;
  spec.seed = 17;
  std::vector<cq::ConjunctiveQuery> pool =
      workload::GenerateWorkload(spec, &dict);
  rdf::TripleStore store =
      workload::GenerateStoreForWorkload(pool, &dict, triples, 17);
  store.Build(&dict);
  std::fprintf(stderr, "[fleet] store built (%zu triples, %zu queries)\n",
               store.size(), pool.size());

  vseld::DaemonOptions options;
  options.socket_path = socket_path;
  options.max_connections = 16;
  options.enable_fleet = true;
  options.fleet_liveness_timeout_sec = 3.0;
  vseld::Daemon daemon(options);
  daemon.RegisterStore("default", &store, &dict);
  Status started = daemon.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "daemon start failed: %s\n",
                 started.ToString().c_str());
    return 2;
  }

  // Spin up the fleet. Under --chaos every worker but the last is a chaos
  // victim: it severs its connection in the middle of the first unit it
  // receives. Dispatch picks the least-loaded live worker, so the first
  // unit cascades through up to num_workers-1 deaths and re-queues before
  // the survivor serves it — whichever worker the tie-break favors.
  std::vector<std::thread> worker_threads;
  for (int i = 0; i < num_workers; ++i) {
    vseld::WorkerOptions wopt;
    wopt.socket_path = socket_path;
    wopt.name = "worker-" + std::to_string(i);
    if (chaos && i + 1 < num_workers) wopt.die_in_unit = 1;
    worker_threads.emplace_back([wopt] {
      Status st = vseld::RunWorker(wopt);
      std::fprintf(stderr, "[fleet] %s exited: %s\n", wopt.name.c_str(),
                   st.ToString().c_str());
    });
  }
  for (int tick = 0;
       daemon.fleet_pool().registered_total() <
           static_cast<size_t>(num_workers) && tick < 500;
       ++tick) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  if (daemon.fleet_pool().registered_total() <
      static_cast<size_t>(num_workers)) {
    std::fprintf(stderr, "workers failed to register\n");
    return 2;
  }
  std::fprintf(stderr, "[fleet] %d workers registered\n", num_workers);

  // --- Fleet parity ---------------------------------------------------------
  // The same two-update session through (a) the fleet-enabled daemon and
  // (b) an in-process TuningSession. Byte-identity requires a fully
  // deterministic search, so num_threads=1: the parallel engine's
  // exploration order (and hence its truncation point and serialized
  // counters) legitimately drifts run to run — locally just as much as
  // remotely — and would fail any byte gate even against itself.
  // Calibration off so weights cannot drift between the runs.
  vsel::TuningConfig popt;
  popt.auto_calibrate_cm = false;
  popt.limits.time_budget_sec = 0;
  popt.limits.max_states = parity_max_states;
  popt.limits.num_threads = 1;
  // A retry absorbs the chaos worker's first failed attempt even when the
  // re-queue path itself is what died (both layers must tolerate it).
  popt.robust.retry.max_attempts = 3;

  // The generator assigns queries to partition groups in contiguous blocks,
  // so stride the picks across blocks: each update dirties several
  // partitions and the coordinator has units to spread over the fleet.
  const size_t block = (pool.size() + 3) / 4;
  auto pick = [&](size_t i) { return (i % 4) * block + (i / 4); };
  std::vector<std::string> texts1, texts2;
  for (size_t i = 0; i < update1_queries; ++i) {
    texts1.push_back(QueryText(pool, dict, pick(i), "q" + std::to_string(i)));
  }
  for (size_t i = 0; i < update2_queries; ++i) {
    texts2.push_back(QueryText(pool, dict, pick(update1_queries + i),
                               "r" + std::to_string(i)));
  }

  bool parity1_ok = false, parity2_ok = false;
  {
    Result<vseld::Client> connected =
        vseld::Client::Connect(socket_path, "fleet-parity");
    if (!connected.ok()) {
      std::fprintf(stderr, "connect failed: %s\n",
                   connected.status().ToString().c_str());
      return 2;
    }
    vseld::Client client = std::move(*connected);
    Status ping = client.Ping();
    if (!ping.ok()) {
      std::fprintf(stderr, "ping/negotiation failed: %s\n",
                   ping.ToString().c_str());
      return 2;
    }
    Result<uint64_t> sid = client.OpenSession("default", popt);
    if (!sid.ok()) {
      std::fprintf(stderr, "open failed: %s\n",
                   sid.status().ToString().c_str());
      return 2;
    }
    auto fetch_canonical = [&](const std::vector<std::string>& texts)
        -> Result<std::string> {
      Result<vsel::TuningProgress> updated =
          client.Update(*sid, texts, {}, /*wait=*/true);
      if (!updated.ok()) return updated.status();
      Result<vseld::Client::FetchedRecommendation> fetched =
          client.FetchRecommendation(*sid, /*canonical=*/true, /*wait=*/true);
      if (!fetched.ok()) return fetched.status();
      return std::move(fetched->blob);
    };
    Result<std::string> fleet_blob1 = fetch_canonical(texts1);
    uint64_t d1 = daemon.fleet_pool().counters().dispatches;
    Result<std::string> fleet_blob2 = fetch_canonical(texts2);
    uint64_t d2 = daemon.fleet_pool().counters().dispatches;
    std::fprintf(stderr, "[fleet] dispatches: update1=%llu update2=%llu\n",
                 static_cast<unsigned long long>(d1),
                 static_cast<unsigned long long>(d2 - d1));
    (void)client.CloseSession(*sid);

    // In-process reference over the same dictionary (the daemon interned
    // the texts already, so re-parsing maps to identical term ids).
    auto parse_all = [&](const std::vector<std::string>& texts) {
      std::vector<cq::ConjunctiveQuery> out;
      for (const std::string& text : texts) {
        Result<cq::ConjunctiveQuery> q = cq::ParseDatalog(text, &dict);
        if (q.ok()) out.push_back(std::move(*q));
      }
      return out;
    };
    vsel::TuningSession reference(&store, &dict, popt);
    Result<vsel::Recommendation> rec1 = reference.Update(parse_all(texts1));
    Result<vsel::Recommendation> rec2 =
        reference.Update(parse_all(texts2), {});
    vsel::serialize::CacheIdentity identity =
        vsel::serialize::ComputeCacheIdentity(store, popt);
    if (fleet_blob1.ok() && rec1.ok()) {
      parity1_ok = *fleet_blob1 == vsel::serialize::
                                       SerializeRecommendationCanonical(
                                           *rec1, identity);
    }
    if (fleet_blob2.ok() && rec2.ok()) {
      parity2_ok = *fleet_blob2 == vsel::serialize::
                                       SerializeRecommendationCanonical(
                                           *rec2, identity);
    }
    std::printf("parity: update1 %s (%s), update2 %s (%s)\n",
                parity1_ok ? "IDENTICAL" : "MISMATCH",
                fleet_blob1.ok() ? "ok"
                                 : fleet_blob1.status().ToString().c_str(),
                parity2_ok ? "IDENTICAL" : "MISMATCH",
                fleet_blob2.ok() ? "ok"
                                 : fleet_blob2.status().ToString().c_str());
    // On mismatch, decode both sides so the CI log says *what* diverged
    // (cost, view set, or only serialization details).
    auto explain = [&](const char* tag, const Result<std::string>& blob,
                       const Result<vsel::Recommendation>& ref) {
      if (!blob.ok() || !ref.ok()) return;
      Result<vsel::Recommendation> got =
          vsel::serialize::DeserializeRecommendation(*blob, identity);
      if (!got.ok()) {
        std::fprintf(stderr, "[%s] daemon blob undecodable: %s\n", tag,
                     got.status().ToString().c_str());
        return;
      }
      std::fprintf(stderr,
                   "[%s] daemon: cost=%.6f views=%zu | reference: "
                   "cost=%.6f views=%zu\n",
                   tag, got->stats.best_cost, got->view_definitions.size(),
                   ref->stats.best_cost, ref->view_definitions.size());
      if (got->best_state.Signature() != ref->best_state.Signature()) {
        std::fprintf(stderr, "[%s] best-state signatures differ\n", tag);
      }
      std::fprintf(stderr,
                   "[%s] daemon stats: created=%zu dup=%zu disc=%zu "
                   "expl=%zu trans=%zu init=%.6f | ref stats: created=%zu "
                   "dup=%zu disc=%zu expl=%zu trans=%zu init=%.6f\n",
                   tag, got->stats.created, got->stats.duplicates,
                   got->stats.discarded, got->stats.explored,
                   got->stats.transitions_applied, got->stats.initial_cost,
                   ref->stats.created, ref->stats.duplicates,
                   ref->stats.discarded, ref->stats.explored,
                   ref->stats.transitions_applied, ref->stats.initial_cost);
      std::string a = *blob;
      std::string b = vsel::serialize::SerializeRecommendationCanonical(
          *ref, identity);
      size_t n = std::min(a.size(), b.size()), first = n;
      for (size_t i = 0; i < n; ++i) {
        if (a[i] != b[i]) {
          first = i;
          break;
        }
      }
      std::fprintf(stderr,
                   "[%s] blob sizes %zu vs %zu, first differing byte at %zu\n",
                   tag, a.size(), b.size(), first);
    };
    if (!parity1_ok) explain("update1", fleet_blob1, rec1);
    if (!parity2_ok) explain("update2", fleet_blob2, rec2);
  }

  // --- Fault-site traffic (chaos only) --------------------------------------
  // After parity is banked, arm the vseld.* fault sites probabilistically
  // (same plan as daemon_stress) and push a burst of short fleet-dispatched
  // sessions through them. Outcomes are allowed to fail — the contract under
  // test is containment: every operation returns a clean Status (never a
  // crash or a wedged wait), and the leak gate below must still balance.
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
    fault::Arm(static_cast<uint64_t>(flags.GetInt("chaos-seed", 0xF1EE7)),
               std::move(plan));
    std::fprintf(stderr, "[fleet] chaos: vseld.* sites armed\n");
    vsel::TuningConfig burst = popt;
    burst.limits.max_states = 2000;
    size_t burst_ok = 0, burst_failed = 0;
    for (int round = 0; round < 6; ++round) {
      Result<vseld::Client> c =
          vseld::Client::Connect(socket_path, "fault-burst");
      if (!c.ok()) {
        ++burst_failed;
        continue;
      }
      Result<uint64_t> sid = c->OpenSession("default", burst);
      if (!sid.ok()) {
        ++burst_failed;
        continue;
      }
      std::vector<std::string> texts = {
          QueryText(pool, dict, pick(static_cast<size_t>(round)),
                    "f" + std::to_string(round)),
          QueryText(pool, dict, pick(static_cast<size_t>(round) + 4),
                    "g" + std::to_string(round))};
      Result<vsel::TuningProgress> up = c->Update(*sid, texts, {}, true);
      up.ok() ? ++burst_ok : ++burst_failed;
      (void)c->CloseSession(*sid);
    }
    fault::Disarm();
    std::fprintf(stderr,
                 "[fleet] chaos burst: %zu updates ok, %zu contained "
                 "failures\n",
                 burst_ok, burst_failed);
  }

  // Snapshot the fleet counters *before* the drain: Shutdown severs every
  // worker, which would otherwise masquerade as chaos deaths.
  vseld::WorkerPool::Counters fleet = daemon.fleet_pool().counters();
  std::printf(
      "fleet: registered=%llu dispatches=%llu results=%llu requeues=%llu "
      "deaths=%llu duplicates=%llu heartbeats=%llu\n",
      static_cast<unsigned long long>(fleet.registered),
      static_cast<unsigned long long>(fleet.dispatches),
      static_cast<unsigned long long>(fleet.results),
      static_cast<unsigned long long>(fleet.requeues),
      static_cast<unsigned long long>(fleet.worker_deaths),
      static_cast<unsigned long long>(fleet.duplicate_results),
      static_cast<unsigned long long>(fleet.heartbeats));

  daemon.Stop();
  for (std::thread& t : worker_threads) t.join();

  // --- Gates ----------------------------------------------------------------
  const auto& registry = daemon.registry();
  bool leaks_ok = registry.live() == 0 &&
                  registry.opened() == registry.closed() + registry.reaped() &&
                  daemon.fleet_pool().live_workers() == 0;
  bool traffic_ok = fleet.dispatches > 0 && fleet.results > 0;
  // Chaos: the victim died mid-unit and its unit was re-queued (and still
  // produced the byte-identical recommendation — that is gate 1's job).
  // Without chaos, no worker may die before the drain.
  bool chaos_ok = chaos ? (fleet.worker_deaths >= 1 && fleet.requeues >= 1)
                        : fleet.worker_deaths == 0;

  if (!report.empty()) {
    WriteReport(report, fleet, daemon, num_workers, chaos, parity1_ok,
                parity2_ok, chaos_ok, traffic_ok, leaks_ok);
  }
  bool failed = false;
  if (!parity1_ok || !parity2_ok) {
    std::fprintf(stderr, "GATE FAILED: fleet/in-process parity\n");
    failed = true;
  }
  if (!traffic_ok) {
    std::fprintf(stderr, "GATE FAILED: no remote traffic reached workers\n");
    failed = true;
  }
  if (!chaos_ok) {
    std::fprintf(stderr, "GATE FAILED: worker-death containment\n");
    failed = true;
  }
  if (!leaks_ok) {
    std::fprintf(stderr, "GATE FAILED: leaked sessions or live workers\n");
    failed = true;
  }
  if (failed) return 1;
  std::printf("fleet stress: all gates passed\n");
  return 0;
}
