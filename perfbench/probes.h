// Calls into the system that the three workloads share, each wrapped in the
// benchmark's spans, and the per-layer probes of the traced run.
#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "cq/query.h"
#include "engine/relation.h"
#include "rdf/dictionary.h"
#include "rdf/schema.h"
#include "rdf/statistics.h"
#include "rdf/triple_store.h"
#include "report.h"
#include "vsel/options.h"
#include "vsel/selector.h"
#include "vsel/serialize/serialize.h"

namespace perfbench {

namespace cq = ::rdfviews::cq;
namespace engine = ::rdfviews::engine;
namespace rdf = ::rdfviews::rdf;
namespace vsel = ::rdfviews::vsel;
template <typename T>
using Result = ::rdfviews::Result<T>;

/// The samples of one tuned workload.
struct Samples {
  std::vector<double> tune_s;
  /// Update latencies, one vector per timed pass of an update stream.
  std::vector<std::vector<double>> update_passes_ms;
  std::vector<double> answer_us;
  std::vector<double> materialize_s;
  /// c(Sb) / c(S0) = 1 - rcr: never 0, unlike rcr when the search keeps S0.
  double cost_ratio = 0;
  double view_bytes_ratio = 0;
  double view_rows = 0;
  /// Direct evaluation of each query on the reference store (engine layer).
  std::vector<double> direct_us;
};

/// The end-to-end samples of a run, one Samples per tuned workload, each
/// metric averaged over the workloads. Timings repeat identical work, so
/// each is taken at its least disturbed repetition: tune_s is the fastest
/// cold tune of the run, update_p50_ms / update_p90_ms are percentiles over
/// the script's updates of each update's fastest pass. On a shared host
/// these vary between runs half as much as medians do. setup_s is the
/// median set-up; peak_rss_mb is read at emission.
struct EndToEnd {
  explicit EndToEnd(size_t workloads) : per(workloads) {}
  double setup_s = 0;
  std::vector<Samples> per;

  /// Mean over workloads of `stat` applied to each workload's samples.
  template <typename Stat>
  double Mean(Stat&& stat) const {
    double sum = 0;
    for (const Samples& s : per) sum += stat(s);
    return per.empty() ? 0 : sum / static_cast<double>(per.size());
  }
};
void EmitEndToEnd(const EndToEnd& e, Report* report);

/// Renders generated queries as datalog text, the only form the system
/// sees; checks that each text parses back to itself.
std::vector<std::string> RenderQueries(
    const std::vector<cq::ConjunctiveQuery>& queries, rdf::Dictionary* dict,
    Report* report);

/// Parses datalog texts, one "cq.parse" span per call; `parse_us` (when
/// given) receives each call's microseconds.
std::vector<cq::ConjunctiveQuery> ParseQueries(
    const std::vector<std::string>& texts, rdf::Dictionary* dict,
    SpanLog* spans, Report* report, std::vector<double>* parse_us = nullptr);

/// Stage seconds of one staged tune.
struct StagedFigures {
  double ingest_s = 0;
  double partition_s = 0;
  double search_s = 0;
  double merge_s = 0;
  size_t partitions = 0;
  /// The statistics provider the tune costed with (for the replay walk).
  std::shared_ptr<rdf::Statistics> stats;
};

/// The traced in-process tune: pipeline::Ingest -> PartitionWorkload ->
/// SearchPartitions -> MergePartitions through a SessionCaches, one span
/// per stage, with the system's own tracer armed when cfg asks for it.
Result<vsel::Recommendation> StagedTune(
    const rdf::TripleStore* store, const rdf::Dictionary* dict,
    const rdf::Schema* schema, const std::vector<cq::ConjunctiveQuery>& queries,
    const vsel::TuningConfig& cfg, SpanLog* spans, StagedFigures* figures);

/// The statistics provider an in-process tune of `queries` costs with
/// (pipeline::Ingest); null when ingest fails.
std::shared_ptr<rdf::Statistics> WorkloadStatistics(
    const rdf::TripleStore* store, const rdf::Dictionary* dict,
    const std::vector<cq::ConjunctiveQuery>& queries,
    const vsel::TuningConfig& cfg);

/// An in-process tune's inputs: the system sees only the datalog texts.
struct TuneInputs {
  const rdf::TripleStore* store = nullptr;
  rdf::Dictionary* dict = nullptr;
  const rdf::Schema* schema = nullptr;
  const std::vector<std::string>* texts = nullptr;
  vsel::TuningConfig cfg;
};

/// What the tune phase hands to the later phases.
struct Tuned {
  vsel::Recommendation rec;
  std::vector<cq::ConjunctiveQuery> queries;
  /// The traced run's statistics provider (null in the untraced run).
  std::shared_ptr<rdf::Statistics> stats;
};

/// Cold tunes from text in rounds, each round tuning every instance once,
/// for `budget_s` (at least `min_rounds`), after one untimed warm-up round:
/// ViewSelector::Recommend with tracing off gives the tune_s samples.
/// `after_round`, when set, runs after the warm-up round and after every
/// timed round, so a workload can interleave its other timed phase with the
/// tunes and both sample the whole run. With `spans`, each untraced tune is
/// followed by a traced StagedTune under a "tune" root span (cq.parse + the
/// four stages), which fills the pipeline / vsel / cq layers and
/// trace.overhead_ratio; the registry's search-core counters are read
/// around instance 0's traced tunes. Checks that every tune of an
/// instance, traced or not, finds the same (cost, fingerprint) best.
/// Returns one Tuned per instance, or none when a tune failed.
std::vector<Tuned> TuneInProcess(const std::vector<TuneInputs>& instances,
                                 double budget_s, int min_rounds,
                                 SpanLog* spans, EndToEnd* e, Layers* layers,
                                 Report* report,
                                 const std::function<void()>& after_round = {});

/// Search-core counts of one tune: states created, states per second of
/// `search_s`, duplicate and discard ratios.
void SearchCounters(const vsel::SearchStats& stats, double search_s,
                    Layers* layers);

/// The process-wide search-core counters of the metrics registry. They
/// count every search in the process, fleet worker threads included, so a
/// difference of two readings covers exactly the searches between them.
struct CoreCounters {
  uint64_t states = 0;
  uint64_t heap_blocks = 0;
  uint64_t arena_blocks = 0;
  uint64_t transitions = 0;

  static CoreCounters Read();
  CoreCounters& operator+=(const CoreCounters& o);
  CoreCounters operator-(const CoreCounters& o) const;
  /// vsel.mallocs_per_state ((heap + arena blocks) / states) and
  /// vsel.transitions_per_state.
  void Fill(Layers* layers) const;
};

/// The stage split of tunes the system traced itself
/// (TelemetryOptions::trace on): each run's top-level spans under its
/// session.update root.
class StageSplit {
 public:
  static constexpr const char* kStages[] = {"ingest", "partition", "cache",
                                            "search", "merge", "other"};
  /// Adds one traced update; false when it carries no span tree.
  bool Add(const vsel::PipelineReport& report);
  size_t runs() const { return total_.size(); }
  /// Median seconds of stage `stage` (an index into kStages), or of the
  /// whole update for stage -1.
  double Median(int stage) const;
  /// Prints each stage's median and its share of the median update.
  void Print(const char* title) const;

 private:
  std::vector<double> total_;
  std::vector<double> stages_[6];
};

/// Prints the update stream's stage split and sets update.<stage>_ms to
/// each named stage's median.
void UpdateStageLayers(const StageSplit& split, Layers* layers);

/// Session-layer counts accumulated over an update stream.
struct SessionFigures {
  double reuse_sum = 0;
  double searched_sum = 0;
  size_t updates = 0;

  void Add(const vsel::PipelineReport& p) {
    reuse_sum += p.num_partitions > 0
                     ? static_cast<double>(p.partitions_reused) /
                           static_cast<double>(p.num_partitions)
                     : 0;
    searched_sum += static_cast<double>(p.partitions_searched);
    ++updates;
  }
  /// Mean reuse ratio and searched partitions per update, and the backend's
  /// hit ratio.
  void Fill(uint64_t hits, uint64_t misses, Layers* layers) const;
};

/// Seeded random walk from S0 of `queries`: each step enumerates every
/// transition kind, applies one picked at random and costs the successor,
/// reporting each call's mean time; restarts from S0 at a dead end or
/// depth cap.
void ReplayWalk(const std::vector<cq::ConjunctiveQuery>& queries,
                const rdf::Statistics* stats, const vsel::TuningConfig& cfg,
                uint64_t seed, size_t steps, Layers* layers);

/// Median cq::Minimize time per query, in microseconds.
double MinimizeMicros(const std::vector<cq::ConjunctiveQuery>& queries,
                      int rounds);

/// Times SerializeRecommendation / DeserializeRecommendation of `rec`.
void SerializeProbe(const vsel::Recommendation& rec,
                    const vsel::serialize::CacheIdentity& identity,
                    std::shared_ptr<const rdf::TripleStore> store,
                    SpanLog* spans, Layers* layers, Report* report);

/// Materializes the recommended views (repeated for `materialize_budget_s`),
/// checks that every query's answers over them equal direct evaluation on
/// `reference` as sets, then answers every query in rounds for
/// `answer_budget_s`. An answer sample is one query's mean latency over a
/// batch of back-to-back AnswerQuery calls, so sub-microsecond answers are
/// not lost in clock overhead. Appends to `samples`.
void ServeRecommendation(const vsel::Recommendation& rec,
                         const std::vector<cq::ConjunctiveQuery>& queries,
                         const rdf::TripleStore& reference,
                         double materialize_budget_s, double answer_budget_s,
                         Samples* samples, Report* report);

/// Records the machine-independent outputs of a tune, their names prefixed
/// with `prefix`: best cost, rcr, best fingerprint, states created, and
/// the partitions of the tune's pipeline report (a decoded recommendation
/// does not carry it, so the caller passes it).
void FixedOutputs(const vsel::Recommendation& rec, size_t partitions,
                  const std::string& prefix, Report* report);

/// c(Sb) / c(S0) of a recommendation.
double CostRatio(const vsel::Recommendation& rec);

/// True when two recommendations have the same best cost and fingerprint.
bool SameBest(const vsel::Recommendation& a, const vsel::Recommendation& b);

/// Prints each span's self time per tune and the unaccounted share of the
/// traced tune to stderr; fills trace.unaccounted_ratio and the engine
/// layer from e's samples; writes the spans to args.trace_out when set.
void FinishTrace(const SpanLog& spans, const Args& args, const EndToEnd& e,
                 Layers* layers, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_H_
