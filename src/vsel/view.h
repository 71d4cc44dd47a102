// A view of a candidate view set.
#ifndef RDFVIEWS_VSEL_VIEW_H_
#define RDFVIEWS_VSEL_VIEW_H_

#include <memory>
#include <string>
#include <vector>

#include "common/hash.h"
#include "cq/canonical.h"
#include "cq/query.h"

namespace rdfviews::vsel {

/// A view's canonical identity. It is renaming-invariant, so every View
/// whose def equals another's up to variable renaming shares one immutable
/// instance: the process-wide identity cache hands out the same object to
/// each of them.
struct ViewIdentity {
  /// Head-inclusive canonical string.
  std::string canon;
  /// Body-only canonical string.
  std::string body_canon;
  /// 128-bit hash of `canon`.
  Hash128 hash;
};

/// A materializable view: a conjunctive query whose head consists of
/// distinct variables. The view's relation columns are named by those
/// variables, which are globally unique within a state.
///
/// Views are shared immutably between states (copy-on-write: transitions
/// clone only the views they touch), and the canonical identity of a view —
/// its head-inclusive canonical string, the body-only canonical string, and
/// the former's 128-bit hash — is one ViewIdentity shared by every View
/// with an equal def up to renaming, computed once per process. State
/// fingerprints and the view interner are built from these memoized keys.
struct View {
  uint32_t id = 0;
  cq::ConjunctiveQuery def;

  /// Column names = head variables in head order.
  std::vector<cq::VarId> Columns() const {
    std::vector<cq::VarId> cols;
    cols.reserve(def.head().size());
    for (const cq::Term& t : def.head()) cols.push_back(t.var());
    return cols;
  }

  std::string Name() const { return "v" + std::to_string(id); }

  /// Head-inclusive canonical string: equal keys <=> views identical up to
  /// variable renaming (the per-view unit of the state signature).
  const std::string& CanonicalKey() const { return Identity().canon; }

  /// Body-only canonical string: equal keys <=> isomorphic bodies (the View
  /// Fusion compatibility test, Def. 3.5).
  const std::string& BodyKey() const { return Identity().body_canon; }

  /// 128-bit hash of CanonicalKey(); summed into the state fingerprint.
  const Hash128& StructuralHash() const { return Identity().hash; }

  /// Cost-model cache keys. Unlike the canonical identity above, these are
  /// *atom-order-sensitive*: the estimators anchor join-reduction factors
  /// and column widths on literal first occurrences, so two views whose
  /// bodies are isomorphic only up to atom reordering can have different
  /// raw estimates. The keys rename variables to dense indices by first
  /// occurrence (renaming-insensitive) but keep atoms in literal order, so
  /// a cache hit is guaranteed to return the exact raw-estimator value.
  /// CostBodyHash keys the cardinality cache (body-only); CostHash
  /// additionally covers the head (byte estimates depend on head widths).
  const Hash128& CostBodyHash() const {
    if (!cost_hash_ready_) ComputeCostHashes();
    return cost_body_hash_;
  }
  const Hash128& CostHash() const {
    if (!cost_hash_ready_) ComputeCostHashes();
    return cost_hash_;
  }

  /// Fills every memoized identity key at once, consulting a process-wide
  /// cache keyed by the dense-renamed structural bytes (StructuralKey):
  /// equal keys imply defs identical up to variable renaming, hence equal
  /// canonical strings and hashes. Search transitions re-derive the same
  /// few distinct views tens of thousands of times, so the expensive
  /// canonicalizations run only on the first derivation; every later
  /// MakeView of an equal def shares the cached identity. Returns at once
  /// when every key is already filled (e.g., a Rebased copy).
  void FillIdentityCached() const;

  /// Fills every memoized key without canonicalizing or consulting the
  /// identity cache: the view shares the identity (CanonicalKey, BodyKey,
  /// StructuralHash) of `like`, a fully keyed view whose def equals this
  /// one's up to variable renaming and head order; the cost hashes, which
  /// depend on head and atom order, come from this def.
  void FillIdentityFrom(const View& like) const;

  /// This view re-based into another id and variable space: id `new_id`,
  /// every variable shifted by `var_offset`, and the def named Name(). A
  /// variable offset is a renaming, and every memoized key is
  /// renaming-insensitive, so the copy inherits the keys instead of
  /// recomputing them (no canonicalization, no identity-cache lookup).
  /// Never writes to `*this`, which may be shared across sessions; it must
  /// be fully keyed, as every View published by MakeView is.
  View Rebased(uint32_t new_id, cq::VarId var_offset) const;

 private:
  /// The dense-renamed structural byte key: atoms in literal order with
  /// variables renamed to first-occurrence indices, then '|', then the
  /// head terms under the same renaming. Atom-order-sensitive and
  /// renaming-insensitive. `body_len` receives the length of the
  /// atoms-only prefix (the CostBodyHash input).
  std::string StructuralKey(size_t* body_len) const;

  void ComputeCostHashes() const;

  const ViewIdentity& Identity() const {
    if (identity_ == nullptr) FillIdentityCached();
    return *identity_;
  }

  // Memoized keys. MakeView fills every key eagerly before the View is
  // wrapped into a shared ViewPtr, so a published View is deeply immutable
  // and safe to read from any number of search worker threads; the lazy
  // fills only run for Views costed or canonicalized before publication
  // (e.g., stack-local temporaries in tests).
  mutable std::shared_ptr<const ViewIdentity> identity_;
  mutable Hash128 cost_hash_;
  mutable Hash128 cost_body_hash_;
  mutable bool cost_hash_ready_ = false;
};

using ViewPtr = std::shared_ptr<const View>;

/// Wraps a view for copy-on-write sharing. All memoized identity keys are
/// computed *here*, before the object becomes visible to other threads, so
/// the lazily-filled mutable fields are never written after publication
/// (the prerequisite for sharing ViewPtrs across search workers).
inline ViewPtr MakeView(View v) {
  v.FillIdentityCached();  // fills every key, via the identity cache
  return std::make_shared<const View>(std::move(v));
}

}  // namespace rdfviews::vsel

#endif  // RDFVIEWS_VSEL_VIEW_H_
