// The benchmark's three workloads. Each generates its inputs from
// args.seed, hands the system datalog text only, checks the outputs and
// fills `report` with the end-to-end metrics (or, with args.trace, the
// per-layer metrics).
//
//   deep_search   — one deep DFS over the Barton store with RDFS
//                   (post-reformulation), then answers from the views;
//   wide_session  — 500 queries in many small independent families, cold
//                   GSTR tunes (mostly partition searches) and a stream of
//                   incremental session updates (mostly merge and search);
//   fleet_session — the same script through vseld with two registered
//                   fleet workers.
//
// BENCHMARK.json gates wide_session and fleet_session. deep_search runs
// here (and in the self-test) but is not gated: its figures follow the
// generated Barton workloads too closely to stay within a bound from one
// seed to the next.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <memory>
#include <string>
#include <vector>

#include "rdf/dictionary.h"
#include "rdf/triple_store.h"
#include "report.h"
#include "vsel/options.h"

namespace perfbench {

namespace rdf = ::rdfviews::rdf;
namespace vsel = ::rdfviews::vsel;

void RunDeepSearch(const Args& args, Report* report);
void RunWideSession(const Args& args, Report* report);
void RunFleetSession(const Args& args, Report* report);

/// The family workload shared by wide_session and fleet_session: queries
/// come in small families that share constants only with each other, so
/// every family is its own partition.
struct FamilyScale {
  size_t initial_families = 250;
  size_t updates = 100;
  size_t family_size = 2;
  size_t atoms = 3;
};

struct FamilyWorkload {
  rdf::Dictionary dict;
  std::shared_ptr<rdf::TripleStore> store;
  /// Every query of every family as datalog text, family f at
  /// [f * family_size, (f + 1) * family_size), and each query's name.
  std::vector<std::string> texts;
  std::vector<std::string> names;
  /// Query indices of the initial workload.
  std::vector<size_t> initial;
  /// The update script: each step removes the two oldest families and adds
  /// two — new ones, except that every fourth step re-adds a family
  /// removed a few steps earlier (a session-cache hit).
  struct Step {
    std::vector<size_t> add;
    std::vector<size_t> remove;
  };
  std::vector<Step> steps;

  std::vector<std::string> Texts(const std::vector<size_t>& indices) const;
  std::vector<std::string> Names(const std::vector<size_t>& indices) const;
};

std::unique_ptr<FamilyWorkload> MakeFamilyWorkload(const FamilyScale& scale,
                                                   uint64_t seed,
                                                   Report* report);

/// Set-ups per run of the family workloads: setup_s is their median, and
/// one set-up takes only tens of milliseconds.
constexpr int kFamilySetUps = 21;

/// Share of --seconds the family workloads spend in their rounds of one
/// cold tune and one update pass; answering takes most of the rest.
constexpr double kRoundsShare = 0.8;

/// GSTR over plain RDF, every partition searched to completion, calibration
/// and tracing off, on one thread: a partition fan-out starts a thread pool
/// per stage call, so update latencies would time thread start-up and
/// scheduling more than the system.
vsel::TuningConfig FamilyConfig();

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
