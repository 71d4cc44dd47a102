// View canonical-identity computation, backed by a process-wide cache.
//
// Canonicalizing a conjunctive query (iterative refinement + string
// rendering, twice per view: head-inclusive and body-only) dominates the
// cost of creating a view. The search re-derives the same few distinct
// views enormous numbers of times — a fused pair of shared parent views
// produces byte-identical defs along every path — so the canonical strings
// and hashes are cached under the dense-renamed structural key: two defs
// with equal keys are identical up to a variable bijection, and canonical
// forms are invariant under renaming, so sharing the cached identity is
// exact, never approximate.
#include "vsel/view.h"

#include <algorithm>
#include <array>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/telemetry/metrics.h"

namespace rdfviews::vsel {

namespace {

struct IdentityShard {
  std::mutex mu;
  std::unordered_map<std::string, std::shared_ptr<const ViewIdentity>> map;
};

constexpr size_t kIdentityShards = 16;

/// Leaked intentionally: Views may be canonicalized during static
/// destruction of test fixtures; a leaked cache has no destruction order.
std::array<IdentityShard, kIdentityShards>& Shards() {
  static auto* shards = new std::array<IdentityShard, kIdentityShards>();
  return *shards;
}

telemetry::Counter* HitCounter() {
  static telemetry::Counter* const c =
      telemetry::MetricsRegistry::Default()->GetCounter(
          "vsel_view_identity_cache_hits_total");
  return c;
}

telemetry::Counter* MissCounter() {
  static telemetry::Counter* const c =
      telemetry::MetricsRegistry::Default()->GetCounter(
          "vsel_view_identity_cache_misses_total");
  return c;
}

/// Numbers variables by first occurrence: a linear scan of an inline array
/// (a view has a few dozen variables at most), spilling to the heap only
/// past it.
class FirstOccurrenceIndex {
 public:
  uint32_t Of(cq::VarId v) {
    const size_t in_line = std::min(count_, kInline);
    for (size_t i = 0; i < in_line; ++i) {
      if (inline_[i] == v) return static_cast<uint32_t>(i);
    }
    for (size_t i = 0; i < spill_.size(); ++i) {
      if (spill_[i] == v) return static_cast<uint32_t>(kInline + i);
    }
    if (count_ < kInline) {
      inline_[count_] = v;
    } else {
      spill_.push_back(v);
    }
    return static_cast<uint32_t>(count_++);
  }

 private:
  static constexpr size_t kInline = 32;
  std::array<cq::VarId, kInline> inline_;
  std::vector<cq::VarId> spill_;
  size_t count_ = 0;
};

}  // namespace

std::string View::StructuralKey(size_t* body_len) const {
  std::string key;
  key.reserve(def.atoms().size() * 15 + def.head().size() * 5 + 1);
  FirstOccurrenceIndex index;
  auto append_term = [&key, &index](const cq::Term& t) {
    if (t.is_const()) {
      key.push_back('c');
      uint64_t c = t.constant();
      key.append(reinterpret_cast<const char*>(&c), sizeof(c));
    } else {
      key.push_back('v');
      uint32_t idx = index.Of(t.var());
      key.append(reinterpret_cast<const char*>(&idx), sizeof(idx));
    }
  };
  for (const cq::Atom& a : def.atoms()) {
    append_term(a.s);
    append_term(a.p);
    append_term(a.o);
  }
  if (body_len != nullptr) *body_len = key.size();
  key.push_back('|');
  for (const cq::Term& t : def.head()) append_term(t);
  return key;
}

void View::ComputeCostHashes() const {
  size_t body_len = 0;
  std::string key = StructuralKey(&body_len);
  cost_body_hash_ = HashBytes128(key.data(), body_len);
  cost_hash_ = HashBytes128(key.data(), key.size());
  cost_hash_ready_ = true;
}

void View::FillIdentityCached() const {
  if (cost_hash_ready_ && identity_ != nullptr) return;
  size_t body_len = 0;
  std::string key = StructuralKey(&body_len);
  if (!cost_hash_ready_) {
    cost_body_hash_ = HashBytes128(key.data(), body_len);
    cost_hash_ = HashBytes128(key.data(), key.size());
    cost_hash_ready_ = true;
  }
  if (identity_ != nullptr) return;
  IdentityShard& shard =
      Shards()[static_cast<size_t>(cost_hash_.lo) % kIdentityShards];
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.map.find(key);
    if (it != shard.map.end()) {
      identity_ = it->second;
      HitCounter()->Add(1);
      return;
    }
  }
  // Miss: canonicalize outside the lock (the expensive part). A racing
  // equal-key miss computes an equal immutable identity; the first insert
  // stays cached.
  auto id = std::make_shared<ViewIdentity>();
  id->canon = cq::CanonicalString(def, /*include_head=*/true);
  id->body_canon = cq::CanonicalString(def, /*include_head=*/false);
  id->hash = HashBytes128(id->canon.data(), id->canon.size());
  identity_ = id;
  MissCounter()->Add(1);
  std::lock_guard<std::mutex> lock(shard.mu);
  shard.map.emplace(std::move(key), std::move(id));
}

void View::FillIdentityFrom(const View& like) const {
  RDFVIEWS_DCHECK(like.identity_ != nullptr);
  ComputeCostHashes();
  identity_ = like.identity_;
}

View View::Rebased(uint32_t new_id, cq::VarId var_offset) const {
  RDFVIEWS_DCHECK(cost_hash_ready_ && identity_ != nullptr);
  View out = *this;  // copies the def and shares every memoized key
  out.id = new_id;
  out.def.OffsetVars(var_offset);
  out.def.set_name(out.Name());
  return out;
}

}  // namespace rdfviews::vsel
