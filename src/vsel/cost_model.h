// The state cost estimation of Section 3.3:
//   c(S) = cs * VSO(S) + cr * REC(S) + cm * VMC(S)
// with
//   VSO  — view space occupancy, from exact per-atom counts plus the
//          textbook uniformity/independence estimates [18];
//   REC  — rewriting evaluation cost, sum over rewritings of
//          c1 * io(r) + c2 * cpu(r), io(r) = sum of scanned view sizes;
//   VMC  — view maintenance cost, sum over views of f^len(v).
//
// Projection CPU is priced at zero so that the paper's monotonicity claims
// hold exactly: SC never decreases the state cost, VF never increases it.
//
// The model is memoized at two levels. Per *distinct view* (up to variable
// renaming), estimated cardinalities and byte sizes live in a ViewInterner,
// so each distinct view is costed exactly once per run. Per *state*, the
// cost is a cached sum of per-view and per-rewriting terms tagged with the
// shared object they were computed for (State::CostCache): a transition's
// successor state re-derives only the terms of the views and rewritings the
// transition touched, every other term is reused from the parent.
//
// Thread safety: one CostModel may be shared by all search workers. The
// interner is sharded, the counters are atomic, and the statistics cache is
// internally synchronized. The only non-shared piece is the *per-state*
// cache: Breakdown writes state.cost_cache(), so each State object must be
// costed by one thread at a time (the parallel engine guarantees this —
// states are owned by exactly one worker between frontier handoffs).
#ifndef RDFVIEWS_VSEL_COST_MODEL_H_
#define RDFVIEWS_VSEL_COST_MODEL_H_

#include <atomic>
#include <memory_resource>
#include <unordered_map>

#include "rdf/statistics.h"
#include "vsel/options.h"
#include "vsel/state.h"
#include "vsel/view_interner.h"

namespace rdfviews::vsel {

/// Breakdown of a state's cost.
struct CostBreakdown {
  double vso = 0;
  double rec = 0;
  double vmc = 0;
  double total = 0;
};

class CostModel {
 public:
  CostModel(const rdf::Statistics* stats, const CostWeights& weights)
      : stats_(stats), weights_(weights), cache_key_(NextCacheKey()) {
    metrics_ = telemetry::MetricsRegistry::Default()->RegisterCollector(
        [this](std::vector<telemetry::MetricSample>* out) {
          auto add = [out](const char* name, uint64_t v) {
            telemetry::MetricSample s;
            s.name = name;
            s.value = v;
            out->push_back(std::move(s));
          };
          const Counters& c = counters_;
          add("vsel_cost_state_costs_total",
              c.state_costs.load(std::memory_order_relaxed));
          add("vsel_cost_card_raw_total",
              c.card_raw.load(std::memory_order_relaxed));
          add("vsel_cost_rec_computed_total",
              c.rec_computed.load(std::memory_order_relaxed));
          add("vsel_cost_rec_reused_total",
              c.rec_reused.load(std::memory_order_relaxed));
          add("vsel_cost_view_terms_computed_total",
              c.view_terms_computed.load(std::memory_order_relaxed));
          add("vsel_cost_view_terms_reused_total",
              c.view_terms_reused.load(std::memory_order_relaxed));
        });
  }

  const CostWeights& weights() const { return weights_; }
  void set_weights(const CostWeights& w) {
    weights_ = w;
    // REC terms bake in c1/c2 and VMC terms bake in f; cached sums from the
    // previous weights must not be reused.
    cache_key_ = NextCacheKey();
  }

  /// Disables (or re-enables) all memoization; with memoization off, every
  /// call takes the pre-refactor full-recomputation path. The reference
  /// mode for equivalence tests and A/B benchmarks.
  void set_memoization(bool on) { memoize_ = on; }
  bool memoization() const { return memoize_; }

  /// |v|e: estimated cardinality of a view body (Sec. 3.3, View space
  /// occupancy): exact per-atom counts, then per-shared-variable reduction
  /// factors 1/max(d1, d2) over a spanning structure of each variable's
  /// occurrence clique. Uncached: the raw estimator.
  double ViewCardinality(const cq::ConjunctiveQuery& def) const;

  /// Estimated storage bytes: |v|e times the summed average width of the
  /// head columns (widths by triple-table column of first occurrence).
  /// Uncached: the raw estimator.
  double ViewBytes(const View& view) const;

  /// Memoized variants: served from the interner after the first sight of
  /// the view's canonical form.
  double CachedViewCardinality(const View& view) const;
  double CachedViewBytes(const View& view) const;

  double Vso(const State& state) const;
  double Rec(const State& state) const;
  double Vmc(const State& state) const;

  /// Memoized state cost: reuses the per-view / per-rewriting terms cached
  /// in `state` (carried over from the parent state by the copy-on-write
  /// transition machinery) and recomputes only invalidated terms.
  CostBreakdown Breakdown(const State& state) const;
  double StateCost(const State& state) const { return Breakdown(state).total; }

  /// Full recomputation without touching any cache; the pre-refactor
  /// reference implementation.
  CostBreakdown BreakdownUncached(const State& state) const;

  /// The Breakdown of a copy of `state` that carries no memoized term: what
  /// a state assembled from other states' views and rewritings costs when
  /// nothing is carried over. The debug reference for states whose slots
  /// were seeded from other states' terms (the merge stage); leaves `state`
  /// and this model's and its interner's counters as they were, so call it
  /// only while no other thread costs through this model.
  CostBreakdown UnseededBreakdown(const State& state) const;

  /// The process-unique id of this model's current (instance, weights)
  /// pair: the State::CostCache::model_key of every state it costed since
  /// the last set_weights. A state whose model_key matches carries terms
  /// this model would compute itself.
  uint64_t cache_key() const { return cache_key_; }

  /// Sec. 6 "Weights of cost components": picks cm so that cm*VMC(S0) is
  /// within two orders of magnitude of the other components.
  static double CalibrateCm(const CostBreakdown& s0_breakdown,
                            const CostWeights& weights);

  /// The interner backing the per-distinct-view caches (cache-traffic
  /// counters, distinct-view counts). Const-qualified because costing is
  /// logically read-only: the interner is internally synchronized.
  ViewInterner& interner() const { return interner_; }

  /// The statistics provider the estimators read. Exposed so callers (the
  /// parallel engine, benches) can pre-warm its pattern-count cache before
  /// fanning out workers.
  const rdf::Statistics& stats() const { return *stats_; }

  /// Counters for benchmarks: how often state costs and rewriting estimates
  /// were computed vs. reused. Relaxed atomics so concurrent search workers
  /// can share one model; totals are exact, per-event ordering is not.
  struct Counters {
    std::atomic<uint64_t> state_costs{0};   // Breakdown() calls
    std::atomic<uint64_t> card_raw{0};      // raw ViewCardinality runs
    std::atomic<uint64_t> rec_computed{0};  // per-rewriting from scratch
    std::atomic<uint64_t> rec_reused{0};    // per-rewriting reused
    std::atomic<uint64_t> view_terms_computed{0};
    std::atomic<uint64_t> view_terms_reused{0};

    Counters() = default;
    Counters(const Counters& o) { *this = o; }
    Counters& operator=(const Counters& o) {
      auto copy = [](std::atomic<uint64_t>* dst,
                     const std::atomic<uint64_t>& src) {
        dst->store(src.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
      };
      copy(&state_costs, o.state_costs);
      copy(&card_raw, o.card_raw);
      copy(&rec_computed, o.rec_computed);
      copy(&rec_reused, o.rec_reused);
      copy(&view_terms_computed, o.view_terms_computed);
      copy(&view_terms_reused, o.view_terms_reused);
      return *this;
    }
  };
  const Counters& counters() const { return counters_; }
  void ResetCounters() {
    counters_ = Counters{};
    interner_.ResetCounters();
  }

 private:
  struct NodeEstimate {
    explicit NodeEstimate(std::pmr::memory_resource* mem) : distinct(mem) {}

    double card = 0;
    double io = 0;   // sum of scanned view cardinalities in the subtree
    double cpu = 0;  // accumulated cpu cost of the subtree
    /// Estimated distinct values per output column. A join divides by its
    /// natural keys in this map's iteration order, which fixes the
    /// estimate's last bits. That order follows from the hash, the
    /// insertion order and the bucket count, so every node fills a fresh
    /// map (a cleared one keeps its bucket count).
    std::pmr::unordered_map<cq::VarId, double> distinct;
  };

  /// Estimates `expr`; every node's distinct map is drawn from `mem`.
  NodeEstimate EstimateExpr(const engine::Expr& expr, const State& state,
                            bool cached, std::pmr::memory_resource* mem) const;

  /// REC contribution of one rewriting: c1 * io + c2 * cpu.
  double RecTerm(const engine::Expr& expr, const State& state,
                 bool cached) const;

  /// Process-unique id for a (model instance, weight configuration); the
  /// validity tag of State::CostCache entries. Never reused, so stale
  /// caches can not alias a new model at a recycled address.
  static uint64_t NextCacheKey();

  const rdf::Statistics* stats_;
  CostWeights weights_;
  uint64_t cache_key_ = 0;
  bool memoize_ = true;
  mutable ViewInterner interner_;
  mutable Counters counters_;
  // Last member: unregistered before counters_ dies.
  telemetry::CollectorHandle metrics_;
};

}  // namespace rdfviews::vsel

#endif  // RDFVIEWS_VSEL_COST_MODEL_H_
