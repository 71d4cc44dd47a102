// The four state transitions of Section 3.2:
//   SC — Selection Cut (Def. 3.3): replace a constant by a fresh head var,
//        compensating with a selection in the rewritings.
//   JC — Join Cut (Def. 3.4): break one join edge; the view either survives
//        with an explicit selection X = X', or splits into two views joined
//        back in the rewritings.
//   VB — View Break (Def. 3.2): split a view with >= 3 atoms into two
//        connected (possibly overlapping) sub-views, natural-joined back.
//   VF — View Fusion (Def. 3.5): fuse two views with isomorphic bodies into
//        one view whose head is the union of both heads.
#ifndef RDFVIEWS_VSEL_TRANSITIONS_H_
#define RDFVIEWS_VSEL_TRANSITIONS_H_

#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "vsel/options.h"
#include "vsel/state.h"
#include "vsel/state_graph.h"

namespace rdfviews::vsel {

class ViewInterner;

enum class TransitionKind : uint8_t { kVB = 0, kSC = 1, kJC = 2, kVF = 3 };

const char* TransitionName(TransitionKind kind);

/// A transition descriptor: cheap to enumerate, applied on demand.
struct Transition {
  TransitionKind kind = TransitionKind::kSC;
  uint32_t view_idx = 0;

  // SC: the selection edge being cut.
  cq::Occurrence sc_occurrence;

  // JC: the join edge; `jc_replace` is the occurrence that receives the
  // fresh variable (Def. 3.4 cuts ni.ci), `jc_other` the other endpoint.
  cq::Occurrence jc_replace;
  cq::Occurrence jc_other;

  // VB: bitmasks (over atom indices) of the two covering subsets.
  uint64_t vb_mask_a = 0;
  uint64_t vb_mask_b = 0;

  // VF: the second fused view.
  uint32_t view_idx2 = 0;

  std::string ToString() const;
};

/// Options controlling transition enumeration (VB cover generation).
struct TransitionOptions {
  int vb_overlap = 1;
  /// Views larger than this get no view breaks at all (2^n enumeration).
  size_t vb_max_atoms = 16;
  /// Enumerate both orientations of each join edge (Def. 3.4 cuts ni.ai;
  /// cutting nj.aj is a distinct transition). The [21] competitor
  /// re-implementation uses a single orientation, as the relational
  /// original does.
  bool jc_both_orientations = true;
  /// When set, SC/JC enumeration fetches each view's selection/join edge
  /// lists from this interner's graph cache (keyed by the view's cost
  /// hash), so a distinct view's graph is built once per run instead of
  /// once per state holding it — as cost estimates already are. Null keeps
  /// the uncached per-state rebuild.
  ViewInterner* graph_cache = nullptr;

  static TransitionOptions FromHeuristics(const HeuristicOptions& h) {
    TransitionOptions t;
    t.vb_overlap = h.vb_overlap;
    return t;
  }
};

class TransitionBuffer;

/// Enumerates all applicable transitions of `kind` on `state`.
std::vector<Transition> EnumerateTransitions(const State& state,
                                             TransitionKind kind,
                                             const TransitionOptions& options);

/// Appends all applicable transitions of `kind` on `state` to `buf`
/// (which the caller owns and reuses across calls — the batch API's whole
/// point is that the enumeration hot path performs no per-call vector
/// allocation once the buffer has warmed up). Returns the number appended.
/// The transitions appear in exactly the order EnumerateTransitions
/// produces them.
size_t EnumerateTransitionsInto(const State& state, TransitionKind kind,
                                const TransitionOptions& options,
                                TransitionBuffer* buf);

/// Appends the transitions of every kind in [from_kind .. kVF] to `buf`,
/// in kind-major order (all VB, then all SC, then all JC, then all VF —
/// byte-identical to concatenating EnumerateTransitions per kind). SC and
/// JC are enumerated per view-graph stripe: one graph resolution per view
/// feeds both edge lists, instead of one resolution per (view, kind).
/// Returns the number appended.
size_t EnumerateTransitionsBatch(const State& state, TransitionKind from_kind,
                                 const TransitionOptions& options,
                                 TransitionBuffer* buf);

/// Reusable caller-owned output buffer for the batch enumeration API.
class TransitionBuffer {
 public:
  void Clear() { items_.clear(); }
  size_t size() const { return items_.size(); }
  bool empty() const { return items_.empty(); }
  const Transition& operator[](size_t i) const { return items_[i]; }
  const Transition* begin() const { return items_.data(); }
  const Transition* end() const { return items_.data() + items_.size(); }

 private:
  friend size_t EnumerateTransitionsInto(const State&, TransitionKind,
                                         const TransitionOptions&,
                                         TransitionBuffer*);
  friend size_t EnumerateTransitionsBatch(const State&, TransitionKind,
                                          const TransitionOptions&,
                                          TransitionBuffer*);
  std::vector<Transition> items_;
  std::vector<Transition> jc_scratch_;  // JC staging for the striped sweep
};

/// Depth-indexed buffer pool for recursive users (DFS): each recursion
/// depth reuses its own TransitionBuffer across visits, so a whole DFS
/// run allocates O(max depth) buffers total. Buffers are heap-boxed so
/// references stay valid while deeper levels grow the pool.
class TransitionBufferPool {
 public:
  TransitionBuffer& At(size_t depth) {
    while (buffers_.size() <= depth) {
      buffers_.push_back(std::make_unique<TransitionBuffer>());
    }
    return *buffers_[depth];
  }

 private:
  std::vector<std::unique_ptr<TransitionBuffer>> buffers_;
};

/// A successor that is prepared but not built: its new views and its
/// fingerprint, computed from the parent alone. A search checks the
/// fingerprint against the states it has seen, and the new views against
/// its stop conditions, and skips a known duplicate or a violating
/// successor before paying for the copy of the parent, the rewriting
/// substitution and the AVF closure.
struct PreparedTransition {
  Transition t;
  /// Replaces the view at t.view_idx.
  ViewPtr first;
  /// JC that splits the view, and VB: the second new view, appended.
  ViewPtr second;
  /// The successor's fingerprint: the parent's, minus the StructuralHash
  /// of each replaced or removed view, plus that of each new view.
  StateFingerprint fingerprint;
  /// The parent's variable and view-id counters after the transition.
  cq::VarId next_var = 0;
  uint32_t next_view_id = 0;
  /// SC: the variable that replaces the constant.
  cq::VarId sc_var = 0;
  /// JC: (x, x'), the cut variable and its fresh copy; when the view
  /// splits, ordered so the first lies in `first`.
  std::pair<cq::VarId, cq::VarId> jc_pair;
  /// VF: v2's head variables mapped onto v1's, in v2's head order.
  std::vector<cq::VarId> vf_head;
};

/// Prepares the successor of `parent` under `t`: builds the new views and
/// the successor's fingerprint without copying the parent. Fails only on
/// malformed descriptors.
void PrepareTransition(const State& parent, const Transition& t,
                       PreparedTransition* out);

/// Builds a prepared successor: copies `parent`, installs the prepared
/// views and rewrites the rewritings. `parent` must be the state the
/// transition was prepared from. The successor's flat storage is
/// bump-allocated from `arena` when one is given (heap otherwise); see
/// State::CloneForTransition for the lifetime rules.
State BuildTransition(const State& parent, const PreparedTransition& prepared,
                      Arena* arena = nullptr);

/// Applies a transition, producing the successor state: PrepareTransition
/// then BuildTransition.
State ApplyTransition(const State& state, const Transition& t,
                      Arena* arena = nullptr);

/// What a TransitionOutcomeTable keys an outcome by: exactly what
/// PrepareTransition reads besides the parent's counters. A view's CostHash
/// fixes its def up to variable renaming, literal atom order kept, so every
/// view with that hash yields the same outcome up to the same renaming.
struct TransitionOutcomeKey {
  TransitionKind kind = TransitionKind::kSC;
  /// The source view's CostHash.
  Hash128 view;
  /// VF: the second view's CostHash.
  Hash128 partner;
  /// SC: the cut constant's occurrence. JC: `jc_replace` only; neither
  /// Prepare nor Build reads `jc_other`.
  cq::Occurrence occurrence;
  /// VB: the two covering masks.
  uint64_t mask_a = 0;
  uint64_t mask_b = 0;

  friend bool operator==(const TransitionOutcomeKey&,
                         const TransitionOutcomeKey&) = default;
};

struct TransitionOutcomeKeyHasher {
  size_t operator()(const TransitionOutcomeKey& k) const;
};

/// The part of a prepared transition that does not depend on the parent's
/// variable and view-id numbering, and that is costly to recompute.
struct TransitionOutcome {
  /// The successor's fingerprint minus the parent's.
  StateFingerprint delta;
  /// The new views of the first preparation. A rebuilt view shares their
  /// renaming-invariant identity (CanonicalKey, BodyKey, StructuralHash).
  ViewPtr first;
  ViewPtr second;
  /// VB and splitting JC: the atoms of each side over the source view's
  /// atoms (JC: after the cut), and the ones cq::Minimize kept of them.
  uint64_t part_a = 0;
  uint64_t part_b = 0;
  uint64_t kept_a = 0;
  uint64_t kept_b = 0;
  /// Splitting JC: x lies in the second component, so jc_pair is (x', x).
  bool jc_swapped = false;
  /// VF: for each of v2's head variables, the first-occurrence index in
  /// v1's body of the variable it maps onto.
  std::vector<uint32_t> vf_head;
};

/// What a search does with a prepared successor, decided before it is
/// built.
enum class SuccessorFate : uint8_t {
  /// Build it and admit it.
  kBuild,
  /// A known duplicate: counted, never built.
  kDuplicate,
  /// It violates a stop condition: counted, never built.
  kDiscard,
};

/// A per-search memo of transition outcomes. A search applies the same
/// transition to the same view, up to variable renaming, in many of the
/// states it reaches. The first time, the table runs PrepareTransition and
/// records the outcome. Every later time it predicts the successor's
/// fingerprint from the parent's, and either stops there (a successor the
/// search will not build) or rebuilds the new views from the actual parent
/// exactly as Prepare builds them: the same variable and view-id counters
/// in the same order, and VB's shared head sorted by the parent's VarIds.
/// A rebuild skips cq::Minimize, PrepareVf's two canonicalizations and the
/// identity cache; cost hashes are computed fresh, because they depend on
/// head and atom order. Debug builds check every hit against a fresh
/// PrepareTransition.
///
/// One table serves one search on one thread: the serial SearchContext
/// owns one, each parallel worker its own. Partitions share no constants,
/// so a longer-lived table would only add memory.
class TransitionOutcomeTable {
 public:
  /// Prepares the successor of `parent` under `t` into `*out` exactly as
  /// PrepareTransition does, unless `decide` refuses it, and returns the
  /// fate `decide(fp, first, second)` chose from the successor's
  /// fingerprint fp and its new views. On a miss those are the prepared
  /// views; on a hit they are the first derivation's, which equal the
  /// rebuilt ones up to variable renaming and view ids. A refused hit is
  /// never rebuilt, and `*out` then holds only fp.
  template <typename Decide>
  SuccessorFate Prepare(const State& parent, const Transition& t,
                        Decide&& decide, PreparedTransition* out);

  /// Prepare that builds every successor.
  void Prepare(const State& parent, const Transition& t,
               PreparedTransition* out) {
    Prepare(
        parent, t,
        [](const StateFingerprint&, const ViewPtr&, const ViewPtr&) {
          return SuccessorFate::kBuild;
        },
        out);
  }

  /// Lookups that found a recorded outcome, and those that ran
  /// PrepareTransition and recorded one.
  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }

 private:
  static TransitionOutcomeKey KeyOf(const State& parent, const Transition& t);
  void Record(const TransitionOutcomeKey& key, const State& parent,
              const PreparedTransition& prepared);
  static void Rebuild(const State& parent, const Transition& t,
                      const TransitionOutcome& outcome,
                      PreparedTransition* out);
  /// The fingerprint a fresh PrepareTransition predicts (debug checks).
  static StateFingerprint FreshFingerprint(const State& parent,
                                           const Transition& t);

  std::unordered_map<TransitionOutcomeKey, TransitionOutcome,
                     TransitionOutcomeKeyHasher>
      outcomes_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

template <typename Decide>
SuccessorFate TransitionOutcomeTable::Prepare(const State& parent,
                                              const Transition& t,
                                              Decide&& decide,
                                              PreparedTransition* out) {
  const TransitionOutcomeKey key = KeyOf(parent, t);
  const auto it = outcomes_.find(key);
  if (it == outcomes_.end()) {
    ++misses_;
    PrepareTransition(parent, t, out);
    Record(key, parent, *out);
    return decide(out->fingerprint, out->first, out->second);
  }
  ++hits_;
  const TransitionOutcome& outcome = it->second;
  out->fingerprint = parent.fingerprint();
  out->fingerprint += outcome.delta;
  const SuccessorFate fate =
      decide(out->fingerprint, outcome.first, outcome.second);
  if (fate != SuccessorFate::kBuild) {
    RDFVIEWS_DCHECK(FreshFingerprint(parent, t) == out->fingerprint);
    return fate;
  }
  Rebuild(parent, t, outcome, out);
  return fate;
}

/// Applies VF to `*state` in place until no two views fuse (the AVF
/// optimization, Sec. 5.2); returns the number of fusions applied. A state
/// that fuses nothing is left untouched, not copied. Each fusion is
/// prepared through `outcomes` when one is given.
size_t CloseUnderVf(State* state, const TransitionOptions& options,
                    Arena* arena = nullptr,
                    TransitionOutcomeTable* outcomes = nullptr);

/// The AVF closure of a copy of `state`: returns the fully-fused state and
/// adds the number of intermediate states to `*steps`.
State AvfClosure(const State& state, const TransitionOptions& options,
                 size_t* steps, Arena* arena = nullptr);

}  // namespace rdfviews::vsel

#endif  // RDFVIEWS_VSEL_TRANSITIONS_H_
