// Concurrent duplicate-detection set keyed by 128-bit state fingerprints.
//
// The serial engine's `seen` map (fingerprint -> min stratum reached, with
// stratum re-opening) sharded over independently-locked buckets addressed
// by the fingerprint's low bits. Workers admitting states with different
// fingerprints almost always hit different shards, so the map scales with
// the worker count; the per-shard critical section is a single hash-map
// probe. The total entry count is kept in a relaxed atomic so the global
// state budget (SearchLimits::max_states) can be enforced without touching
// any shard lock.
#ifndef RDFVIEWS_VSEL_PARALLEL_CONCURRENT_SEEN_H_
#define RDFVIEWS_VSEL_PARALLEL_CONCURRENT_SEEN_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "common/hash.h"
#include "vsel/state.h"

namespace rdfviews::vsel::parallel {

class ConcurrentSeenSet {
 public:
  /// `num_shards` is rounded up to a power of two.
  explicit ConcurrentSeenSet(size_t num_shards = 64) {
    size_t n = 1;
    while (n < num_shards) n <<= 1;
    mask_ = n - 1;
    shards_ = std::make_unique<Shard[]>(n);
  }

  enum class Outcome {
    kInserted,  // first sighting: admit
    kReopened,  // seen before, but at a later stratum: admit again with the
                // earlier stratum (counts as a duplicate, like serial)
    kRejected,  // duplicate at the same or an earlier stratum
  };

  /// The serial engine's try_emplace-with-reopening, atomically:
  ///   - fingerprint unseen            -> kInserted, record `phase`
  ///   - recorded stratum <= `phase`   -> kRejected
  ///   - recorded stratum >  `phase`   -> kReopened, lower it to `phase`
  Outcome AdmitAtPhase(const StateFingerprint& fp, int phase) {
    Shard& sh = shards_[static_cast<size_t>(fp.lo) & mask_];
    std::lock_guard<std::mutex> lock(sh.mu);
    auto [it, inserted] = sh.map.try_emplace(fp, phase);
    if (inserted) {
      size_.fetch_add(1, std::memory_order_relaxed);
      return Outcome::kInserted;
    }
    if (it->second <= phase) return Outcome::kRejected;
    it->second = phase;
    return Outcome::kReopened;
  }

  /// True when AdmitAtPhase(fp, phase) would return kRejected. Read-only.
  /// A recorded stratum only ever decreases, so a true answer holds for
  /// every later AdmitAtPhase; a false one may be stale.
  bool Rejects(const StateFingerprint& fp, int phase) const {
    const Shard& sh = shards_[static_cast<size_t>(fp.lo) & mask_];
    std::lock_guard<std::mutex> lock(sh.mu);
    auto it = sh.map.find(fp);
    return it != sh.map.end() && it->second <= phase;
  }

  /// Seeds an entry (initial state, AVF closure of S0); keeps an existing
  /// entry untouched.
  void Insert(const StateFingerprint& fp, int phase) {
    Shard& sh = shards_[static_cast<size_t>(fp.lo) & mask_];
    std::lock_guard<std::mutex> lock(sh.mu);
    if (sh.map.try_emplace(fp, phase).second) {
      size_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  /// Number of distinct fingerprints ever admitted. Exact (every successful
  /// insert increments it); readable without locks.
  size_t size() const { return size_.load(std::memory_order_relaxed); }

 private:
  struct alignas(64) Shard {
    mutable std::mutex mu;
    std::unordered_map<StateFingerprint, int, Hash128Hasher> map;
  };

  std::unique_ptr<Shard[]> shards_;
  size_t mask_ = 0;
  std::atomic<size_t> size_{0};
};

}  // namespace rdfviews::vsel::parallel

#endif  // RDFVIEWS_VSEL_PARALLEL_CONCURRENT_SEEN_H_
