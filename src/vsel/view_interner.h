// Hash-consing of view definitions with per-view cost-model memoization.
//
// Every distinct view the search ever creates — distinct up to variable
// renaming, with literal atom order preserved — is registered here exactly
// once, identified by its 128-bit cost hash (View::CostHash). The interner
// owns the per-view caches:
//   - estimated cardinality, keyed by the body-only cost hash (|v|e depends
//     only on the body);
//   - estimated storage bytes, keyed by the full cost hash (widths depend
//     on the head);
//   - the view's transition graph (selection/join edge lists), keyed by the
//     full cost hash, so EnumerateTransitions builds a view's edges once
//     per distinct view instead of once per state holding it.
// The keys are deliberately atom-order-sensitive because the raw estimators
// are (join-reduction anchors and first-occurrence widths), so a cache hit
// always returns the exact value the estimator would produce. With these
// caches the number of cost-model estimations per search run drops from
// O(states x views) to O(distinct views).
//
// Thread safety: the maps are striped over kNumShards shards addressed by
// the low key bits, each behind its own mutex, so parallel search workers
// interning disjoint views rarely contend. `compute` runs *outside* the
// shard lock (it may recurse into other shards or into rdf::Statistics);
// two workers racing on the same fresh key may therefore both run the
// estimator, but the values are deterministic and the first insert wins, so
// every reader observes one consistent value. In a single-threaded run each
// distinct key is computed exactly once.
#ifndef RDFVIEWS_VSEL_VIEW_INTERNER_H_
#define RDFVIEWS_VSEL_VIEW_INTERNER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "common/hash.h"
#include "common/telemetry/metrics.h"
#include "vsel/state_graph.h"
#include "vsel/view.h"

namespace rdfviews::vsel {

class ViewInterner {
 public:
  ViewInterner()
      : metrics_(telemetry::MetricsRegistry::Default()->RegisterCollector(
            [this](std::vector<telemetry::MetricSample>* out) {
              auto add = [out](const char* name, uint64_t v) {
                telemetry::MetricSample s;
                s.name = name;
                s.value = v;
                out->push_back(std::move(s));
              };
              const Counters& c = counters_;
              add("vsel_interner_card_hits_total",
                  c.card_hits.load(std::memory_order_relaxed));
              add("vsel_interner_card_computed_total",
                  c.card_computed.load(std::memory_order_relaxed));
              add("vsel_interner_bytes_hits_total",
                  c.bytes_hits.load(std::memory_order_relaxed));
              add("vsel_interner_bytes_computed_total",
                  c.bytes_computed.load(std::memory_order_relaxed));
            })) {}
  /// Counters of cache traffic, for benchmarks and regression tests.
  /// Relaxed atomics: exact under single-threaded use; under concurrency a
  /// racing compute of the same key counts once per racer (hits + computed
  /// always equals the number of calls).
  struct Counters {
    std::atomic<uint64_t> card_computed{0};  // cardinality estimator runs
    std::atomic<uint64_t> card_hits{0};      // cardinality cache hits
    std::atomic<uint64_t> bytes_computed{0};
    std::atomic<uint64_t> bytes_hits{0};

    Counters() = default;
    Counters(const Counters& o) { *this = o; }
    Counters& operator=(const Counters& o) {
      card_computed.store(o.card_computed.load(std::memory_order_relaxed),
                          std::memory_order_relaxed);
      card_hits.store(o.card_hits.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
      bytes_computed.store(o.bytes_computed.load(std::memory_order_relaxed),
                           std::memory_order_relaxed);
      bytes_hits.store(o.bytes_hits.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
      return *this;
    }
  };

  /// Number of distinct view definitions (up to renaming, literal atom
  /// order preserved) whose storage estimate was interned so far.
  size_t NumDistinctViews() const {
    size_t n = 0;
    for (const Shard& sh : shards_) {
      std::lock_guard<std::mutex> lock(sh.mu);
      n += sh.bytes.size();
    }
    return n;
  }

  /// Memoized estimated cardinality of the view's body; `compute` runs only
  /// on the first sight of this body shape (once per racing thread).
  template <typename Fn>
  double Cardinality(const View& view, Fn&& compute) {
    return Memoize(view.CostBodyHash(), &Shard::cards, &Counters::card_hits,
                   &Counters::card_computed, std::forward<Fn>(compute));
  }

  /// Memoized estimated storage bytes of the view.
  template <typename Fn>
  double Bytes(const View& view, Fn&& compute) {
    return Memoize(view.CostHash(), &Shard::bytes, &Counters::bytes_hits,
                   &Counters::bytes_computed, std::forward<Fn>(compute));
  }

  /// Memoized transition graph (selection/join edge lists) of the view.
  /// The cached graph is shared by every view with the same cost hash:
  /// occurrence positions and constants are identical across such views,
  /// but JoinEdge::var holds the first-sighted view's variable ids and the
  /// edges' view_idx is meaningless — callers must use only the occurrence
  /// structure (EnumerateTransitions does).
  template <typename Fn>
  std::shared_ptr<const ViewGraph> Graph(const View& view, Fn&& compute) {
    const Hash128& key = view.CostHash();
    Shard& sh = ShardFor(key);
    {
      std::lock_guard<std::mutex> lock(sh.mu);
      auto it = sh.graphs.find(key);
      if (it != sh.graphs.end()) return it->second;
    }
    auto graph = std::make_shared<const ViewGraph>(compute());
    std::lock_guard<std::mutex> lock(sh.mu);
    return sh.graphs.try_emplace(key, std::move(graph)).first->second;
  }

  /// Memoized View Break mask pairs of the view. Valid for every view with
  /// the same cost hash (identical variable-sharing structure ⇒ identical
  /// connected subset pairs). Returns nullptr when a list cached under a
  /// *different* overlap option is found — the caller must then compute
  /// locally without caching (options are fixed within one run, so this
  /// only happens across runs sharing a cost model).
  template <typename Fn>
  std::shared_ptr<const VbBreakList> VbBreaks(const View& view,
                                              size_t vb_overlap,
                                              Fn&& compute) {
    const Hash128& key = view.CostHash();
    Shard& sh = ShardFor(key);
    {
      std::lock_guard<std::mutex> lock(sh.mu);
      auto it = sh.vb_breaks.find(key);
      if (it != sh.vb_breaks.end()) {
        if (it->second->vb_overlap == vb_overlap) return it->second;
        return nullptr;  // cached under a different option
      }
    }
    auto breaks = std::make_shared<const VbBreakList>(compute());
    std::lock_guard<std::mutex> lock(sh.mu);
    return sh.vb_breaks.try_emplace(key, std::move(breaks)).first->second;
  }

  const Counters& counters() const { return counters_; }
  void ResetCounters() { counters_ = Counters{}; }
  /// Sets the counters back to an earlier snapshot (for debug cross-checks
  /// that must not show in them).
  void RestoreCounters(const Counters& c) { counters_ = c; }

  /// Drops every cached estimate (e.g., when the underlying statistics
  /// change).
  void Clear() {
    for (Shard& sh : shards_) {
      std::lock_guard<std::mutex> lock(sh.mu);
      sh.cards.clear();
      sh.bytes.clear();
      sh.graphs.clear();
      sh.vb_breaks.clear();
    }
  }

 private:
  static constexpr size_t kNumShards = 16;  // power of two

  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<Hash128, double, Hash128Hasher> cards;
    std::unordered_map<Hash128, double, Hash128Hasher> bytes;
    std::unordered_map<Hash128, std::shared_ptr<const ViewGraph>,
                       Hash128Hasher>
        graphs;
    std::unordered_map<Hash128, std::shared_ptr<const VbBreakList>,
                       Hash128Hasher>
        vb_breaks;
  };

  Shard& ShardFor(const Hash128& key) {
    return shards_[static_cast<size_t>(key.lo) & (kNumShards - 1)];
  }

  template <typename Fn>
  double Memoize(const Hash128& key,
                 std::unordered_map<Hash128, double, Hash128Hasher> Shard::*
                     map,
                 std::atomic<uint64_t> Counters::*hits,
                 std::atomic<uint64_t> Counters::*computed, Fn&& compute) {
    Shard& sh = ShardFor(key);
    {
      std::lock_guard<std::mutex> lock(sh.mu);
      auto it = (sh.*map).find(key);
      if (it != (sh.*map).end()) {
        (counters_.*hits).fetch_add(1, std::memory_order_relaxed);
        return it->second;
      }
    }
    double value = compute();  // outside the lock; see header comment
    (counters_.*computed).fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(sh.mu);
    return (sh.*map).try_emplace(key, value).first->second;
  }

  Shard shards_[kNumShards];
  Counters counters_;
  // Snapshot-time registry hook; unregisters itself on destruction, so the
  // registry never sees a dangling interner. Last member: destroyed first,
  // before the counters it reads.
  telemetry::CollectorHandle metrics_;
};

}  // namespace rdfviews::vsel

#endif  // RDFVIEWS_VSEL_VIEW_INTERNER_H_
