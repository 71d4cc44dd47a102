#include "vsel/transitions.h"

#include <algorithm>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "common/logging.h"
#include "common/telemetry/metrics.h"
#include "cq/canonical.h"
#include "cq/containment.h"
#include "vsel/view_interner.h"

namespace rdfviews::vsel {

namespace {

constexpr rdf::Column kColumns[3] = {rdf::Column::kS, rdf::Column::kP,
                                     rdf::Column::kO};

/// Views larger than this only get partition-style view breaks: the
/// overlapping-cover sweep is n x 2^(n-1) subset pairs.
constexpr size_t kOverlapCoverMaxAtoms = 14;

using engine::Expr;
using engine::ExprPtr;

std::unordered_set<cq::VarId> VarsOfMask(const std::vector<cq::Atom>& atoms,
                                         uint64_t mask) {
  std::unordered_set<cq::VarId> vars;
  for (size_t i = 0; i < atoms.size(); ++i) {
    if (!(mask & (1ull << i))) continue;
    for (rdf::Column c : kColumns) {
      cq::Term t = atoms[i].at(c);
      if (t.is_var()) vars.insert(t.var());
    }
  }
  return vars;
}

bool MaskConnected(const std::vector<cq::Atom>& atoms, uint64_t mask) {
  std::vector<cq::Atom> sub;
  for (size_t i = 0; i < atoms.size(); ++i) {
    if (mask & (1ull << i)) sub.push_back(atoms[i]);
  }
  if (sub.empty()) return false;
  std::vector<int> comp = AtomComponents(sub);
  for (int c : comp) {
    if (c != 0) return false;
  }
  return true;
}

/// Replaces every Scan of `view_id` in all rewritings by `replacement`.
/// Routed through the state so it invalidates the cached REC terms of
/// exactly the rewritings that change.
void SubstituteView(State* state, uint32_t view_id, const ExprPtr& replacement) {
  state->ReplaceScanRewritings(view_id, replacement);
}

/// Appends Var(v) to the head if not already present.
void AddHeadVar(cq::ConjunctiveQuery* def, cq::VarId v) {
  for (const cq::Term& t : def->head()) {
    if (t.is_var() && t.var() == v) return;
  }
  def->mutable_head()->push_back(cq::Term::Var(v));
}

/// Builds the sub-view over the atoms in `mask` (Def. 3.2): head = (head of
/// v restricted to the sub-body) plus every variable shared with the other
/// side. The result is minimized (views are minimal by Def. 2.1).
cq::ConjunctiveQuery MakeSubView(const cq::ConjunctiveQuery& parent,
                                 uint64_t mask,
                                 const std::unordered_set<cq::VarId>& shared) {
  cq::ConjunctiveQuery def;
  std::unordered_set<cq::VarId> vars;
  for (size_t i = 0; i < parent.atoms().size(); ++i) {
    if (!(mask & (1ull << i))) continue;
    def.mutable_atoms()->push_back(parent.atoms()[i]);
    for (rdf::Column c : kColumns) {
      cq::Term t = parent.atoms()[i].at(c);
      if (t.is_var()) vars.insert(t.var());
    }
  }
  for (const cq::Term& t : parent.head()) {
    if (t.is_var() && vars.contains(t.var())) AddHeadVar(&def, t.var());
  }
  std::vector<cq::VarId> extra;
  for (cq::VarId v : shared) {
    if (vars.contains(v)) extra.push_back(v);
  }
  std::sort(extra.begin(), extra.end());
  for (cq::VarId v : extra) AddHeadVar(&def, v);
  return cq::Minimize(def);
}

State ApplySc(const State& in, const Transition& t, Arena* arena) {
  State out = in.CloneForTransition(arena);
  const View& v = in.views()[t.view_idx];
  const uint32_t old_id = v.id;
  const std::vector<cq::VarId> old_cols = v.Columns();

  cq::Term old_term =
      v.def.atoms()[t.sc_occurrence.atom].at(t.sc_occurrence.column);
  RDFVIEWS_CHECK_MSG(old_term.is_const(), "SC on a non-constant position");
  const rdf::TermId constant = old_term.constant();

  const cq::VarId w = out.FreshVar();
  View nv;
  nv.id = out.FreshViewId();
  nv.def = v.def;
  (*nv.def.mutable_atoms())[t.sc_occurrence.atom].set(t.sc_occurrence.column,
                                                      cq::Term::Var(w));
  nv.def.mutable_head()->push_back(cq::Term::Var(w));
  nv.def.set_name(nv.Name());
  ExprPtr repl = Expr::Project(
      Expr::Select(Expr::Scan(nv.id, nv.Columns()),
                   {engine::Condition::Eq(w, constant)}),
      old_cols);
  out.ReplaceView(t.view_idx, MakeView(std::move(nv)));
  SubstituteView(&out, old_id, repl);
  return out;
}

State ApplyJc(const State& in, const Transition& t, Arena* arena) {
  State out = in.CloneForTransition(arena);
  const View& v = in.views()[t.view_idx];
  const uint32_t old_id = v.id;
  const std::vector<cq::VarId> old_cols = v.Columns();

  cq::Term replaced =
      v.def.atoms()[t.jc_replace.atom].at(t.jc_replace.column);
  RDFVIEWS_CHECK_MSG(replaced.is_var(), "JC on a non-variable position");
  const cq::VarId x = replaced.var();
  const cq::VarId xp = out.FreshVar();

  cq::ConjunctiveQuery def2 = v.def;
  (*def2.mutable_atoms())[t.jc_replace.atom].set(t.jc_replace.column,
                                                 cq::Term::Var(xp));
  AddHeadVar(&def2, x);
  AddHeadVar(&def2, xp);

  std::vector<int> comp = AtomComponents(def2.atoms());
  int num_comp = *std::max_element(comp.begin(), comp.end()) + 1;
  RDFVIEWS_CHECK_MSG(num_comp <= 2, "JC split a view into >2 components");

  if (num_comp == 1) {
    View nv;
    nv.id = out.FreshViewId();
    nv.def = std::move(def2);
    nv.def.set_name(nv.Name());
    ExprPtr repl = Expr::Project(
        Expr::Select(Expr::Scan(nv.id, nv.Columns()),
                     {engine::Condition::EqVar(x, xp)}),
        old_cols);
    out.ReplaceView(t.view_idx, MakeView(std::move(nv)));
    SubstituteView(&out, old_id, repl);
    return out;
  }

  // The view splits in two: one component holds x's remaining occurrences,
  // the other holds x' (Def. 3.4 case 2).
  uint64_t mask_a = 0;
  uint64_t mask_b = 0;
  for (size_t i = 0; i < def2.atoms().size(); ++i) {
    if (comp[i] == 0) {
      mask_a |= 1ull << i;
    } else {
      mask_b |= 1ull << i;
    }
  }
  std::unordered_set<cq::VarId> no_shared;  // components share no variables
  cq::ConjunctiveQuery def_a = MakeSubView(def2, mask_a, no_shared);
  cq::ConjunctiveQuery def_b = MakeSubView(def2, mask_b, no_shared);

  View va;
  va.id = out.FreshViewId();
  va.def = std::move(def_a);
  va.def.set_name(va.Name());
  View vb;
  vb.id = out.FreshViewId();
  vb.def = std::move(def_b);
  vb.def.set_name(vb.Name());

  // The explicit join predicate joins x with x'; orient by side.
  std::unordered_set<cq::VarId> vars_a = VarsOfMask(def2.atoms(), mask_a);
  std::pair<cq::VarId, cq::VarId> pair =
      vars_a.contains(x) ? std::make_pair(x, xp) : std::make_pair(xp, x);

  ExprPtr repl = Expr::Project(
      Expr::Join(Expr::Scan(va.id, va.Columns()),
                 Expr::Scan(vb.id, vb.Columns()), {pair}),
      old_cols);
  out.ReplaceView(t.view_idx, MakeView(std::move(va)));
  out.AddView(MakeView(std::move(vb)));
  SubstituteView(&out, old_id, repl);
  return out;
}

State ApplyVb(const State& in, const Transition& t, Arena* arena) {
  State out = in.CloneForTransition(arena);
  const View& v = in.views()[t.view_idx];
  const uint32_t old_id = v.id;
  const std::vector<cq::VarId> old_cols = v.Columns();

  std::unordered_set<cq::VarId> vars_a = VarsOfMask(v.def.atoms(), t.vb_mask_a);
  std::unordered_set<cq::VarId> vars_b = VarsOfMask(v.def.atoms(), t.vb_mask_b);
  std::unordered_set<cq::VarId> shared;
  for (cq::VarId u : vars_a) {
    if (vars_b.contains(u)) shared.insert(u);
  }

  View va;
  va.id = out.FreshViewId();
  va.def = MakeSubView(v.def, t.vb_mask_a, shared);
  va.def.set_name(va.Name());
  View vb;
  vb.id = out.FreshViewId();
  vb.def = MakeSubView(v.def, t.vb_mask_b, shared);
  vb.def.set_name(vb.Name());

  // Natural join re-joins on the shared variable names.
  ExprPtr repl = Expr::Project(
      Expr::Join(Expr::Scan(va.id, va.Columns()),
                 Expr::Scan(vb.id, vb.Columns()), {}),
      old_cols);
  out.ReplaceView(t.view_idx, MakeView(std::move(va)));
  out.AddView(MakeView(std::move(vb)));
  SubstituteView(&out, old_id, repl);
  return out;
}

State ApplyVf(const State& in, const Transition& t, Arena* arena) {
  State out = in.CloneForTransition(arena);
  const View& v1 = in.views()[t.view_idx];
  const View& v2 = in.views()[t.view_idx2];

  cq::CanonicalForm c1 = cq::Canonicalize(v1.def, /*include_head=*/false);
  cq::CanonicalForm c2 = cq::Canonicalize(v2.def, /*include_head=*/false);
  RDFVIEWS_CHECK_MSG(c1.repr == c2.repr, "VF on non-isomorphic views");

  // mu maps v2 variables onto v1 variables through the canonical indices.
  std::unordered_map<uint32_t, cq::VarId> inverse_c1;
  for (const auto& [var, idx] : c1.var_map) inverse_c1[idx] = var;
  std::unordered_map<cq::VarId, cq::VarId> mu;
  for (const auto& [var, idx] : c2.var_map) {
    auto it = inverse_c1.find(idx);
    RDFVIEWS_CHECK(it != inverse_c1.end());
    mu[var] = it->second;
  }

  View v3;
  v3.id = out.FreshViewId();
  v3.def = v1.def;
  for (const cq::Term& t2 : v2.def.head()) {
    AddHeadVar(&v3.def, mu.at(t2.var()));
  }
  v3.def.set_name(v3.Name());

  ExprPtr repl1 =
      Expr::Project(Expr::Scan(v3.id, v3.Columns()), v1.Columns());

  // Rename v3's columns into v2's namespace. The map is total over v3's
  // columns: unmapped ones get fresh names so no output name collides with
  // a v2 name (v1 and v2 may share variables after overlapping view breaks).
  std::unordered_map<cq::VarId, cq::VarId> rename;
  for (const cq::Term& t2 : v2.def.head()) {
    rename[mu.at(t2.var())] = t2.var();
  }
  for (cq::VarId col : v3.Columns()) {
    if (!rename.contains(col)) rename[col] = out.FreshVar();
  }
  ExprPtr repl2 = Expr::Project(
      Expr::Rename(Expr::Scan(v3.id, v3.Columns()), rename), v2.Columns());

  // Replace v1's slot with v3 and erase v2. The substitutions read v1/v2's
  // ids, so grab them before the slots change.
  const uint32_t v1_id = v1.id;
  const uint32_t v2_id = v2.id;
  out.ReplaceView(t.view_idx, MakeView(std::move(v3)));
  out.RemoveView(t.view_idx2);
  SubstituteView(&out, v1_id, repl1);
  SubstituteView(&out, v2_id, repl2);
  return out;
}

/// Resolves a view's transition graph: from the interner's per-distinct-view
/// cache when TransitionOptions carries one, rebuilt locally otherwise. The
/// edges are consumed for their occurrence structure only (identical across
/// views sharing a cost hash; see BuildViewGraph(const View&, ...)).
class GraphRef {
 public:
  GraphRef(const View& view, const TransitionOptions& options) {
    if (options.graph_cache != nullptr) {
      cached_ = options.graph_cache->Graph(
          view, [&] { return BuildViewGraph(view, /*view_idx=*/0); });
    } else {
      local_ = BuildViewGraph(view, /*view_idx=*/0);
    }
  }

  const ViewGraph* get() const {
    return cached_ != nullptr ? cached_.get() : &local_;
  }
  const ViewGraph* operator->() const { return get(); }

 private:
  std::shared_ptr<const ViewGraph> cached_;
  ViewGraph local_;
};

/// Enumerates the connected (mask_a, mask_b) break pairs of one atom set —
/// the per-distinct-view computation behind EnumerateVb, cached in the
/// interner so the 2^n subset sweep with its connectivity checks runs once
/// per distinct view instead of once per (state, view) visit.
VbBreakList ComputeVbBreaks(const std::vector<cq::Atom>& atoms,
                            const TransitionOptions& options) {
  VbBreakList breaks;
  breaks.vb_overlap = options.vb_overlap;
  const size_t n = atoms.size();
  const uint64_t full = (n == 64) ? ~0ull : ((1ull << n) - 1);

  // Partition-style breaks.
  for (uint64_t a = 1; a < full; ++a) {
    uint64_t b = full ^ a;
    if (a >= b) continue;  // unordered pair
    if (!MaskConnected(atoms, a) || !MaskConnected(atoms, b)) continue;
    breaks.pairs.emplace_back(a, b);
  }

  // Overlapping covers sharing `vb_overlap` nodes (we support 1).
  if (options.vb_overlap >= 1 && n <= kOverlapCoverMaxAtoms) {
    for (size_t pivot = 0; pivot < n; ++pivot) {
      const uint64_t pbit = 1ull << pivot;
      const uint64_t rest = full ^ pbit;
      // Enumerate subsets of `rest` as side A's exclusive part.
      for (uint64_t ax = rest; ax != 0; ax = (ax - 1) & rest) {
        uint64_t bx = rest ^ ax;
        if (bx == 0) continue;  // B would be a subset of A
        uint64_t a = ax | pbit;
        uint64_t b = bx | pbit;
        if (a >= b) continue;
        if (!MaskConnected(atoms, a) || !MaskConnected(atoms, b)) continue;
        breaks.pairs.emplace_back(a, b);
      }
    }
  }
  return breaks;
}

void EnumerateVb(const State& state, const TransitionOptions& options,
                 std::vector<Transition>* out) {
  for (uint32_t vi = 0; vi < state.views().size(); ++vi) {
    const View& view = state.views()[vi];
    const std::vector<cq::Atom>& atoms = view.def.atoms();
    const size_t n = atoms.size();
    // Def. 3.2 requires |Nv| > 2; the upper cap bounds the 2^n enumeration.
    if (n < 3 || n > options.vb_max_atoms) continue;

    std::shared_ptr<const VbBreakList> cached;
    VbBreakList local;
    if (options.graph_cache != nullptr) {
      cached = options.graph_cache->VbBreaks(
          view, options.vb_overlap,
          [&] { return ComputeVbBreaks(atoms, options); });
    }
    if (cached == nullptr) local = ComputeVbBreaks(atoms, options);
    const VbBreakList& breaks = cached != nullptr ? *cached : local;

    for (const auto& [a, b] : breaks.pairs) {
      Transition t;
      t.kind = TransitionKind::kVB;
      t.view_idx = vi;
      t.vb_mask_a = a;
      t.vb_mask_b = b;
      out->push_back(t);
    }
  }
}

/// Appends the SC transitions of view `vi` given its resolved graph.
void AppendScEdges(uint32_t vi, const ViewGraph& g,
                   std::vector<Transition>* out) {
  for (const SelectionEdge& e : g.selection_edges) {
    Transition t;
    t.kind = TransitionKind::kSC;
    t.view_idx = vi;
    t.sc_occurrence = e.occurrence;
    out->push_back(t);
  }
}

/// Appends the JC transitions of view `vi` given its resolved graph.
void AppendJcEdges(uint32_t vi, const ViewGraph& g,
                   const TransitionOptions& options,
                   std::vector<Transition>* out) {
  for (const JoinEdge& e : g.join_edges) {
    // Cutting ni.ai=nj.aj renames the ni.ai occurrence; both
    // orientations are distinct transitions (Def. 3.4).
    Transition t;
    t.kind = TransitionKind::kJC;
    t.view_idx = vi;
    t.jc_replace = e.a;
    t.jc_other = e.b;
    out->push_back(t);
    if (options.jc_both_orientations) {
      std::swap(t.jc_replace, t.jc_other);
      out->push_back(t);
    }
  }
}

void EnumerateSc(const State& state, const TransitionOptions& options,
                 std::vector<Transition>* out) {
  for (uint32_t vi = 0; vi < state.views().size(); ++vi) {
    GraphRef g(state.views()[vi], options);
    AppendScEdges(vi, *g.get(), out);
  }
}

void EnumerateJc(const State& state, const TransitionOptions& options,
                 std::vector<Transition>* out) {
  for (uint32_t vi = 0; vi < state.views().size(); ++vi) {
    GraphRef g(state.views()[vi], options);
    AppendJcEdges(vi, *g.get(), options, out);
  }
}

/// One pass over the view stripe resolving each view's graph exactly once:
/// SC edges go straight to `out`, JC edges stage in `jc_scratch` and are
/// spliced after, preserving the kind-major order of the per-kind API.
void EnumerateScJcStriped(const State& state, const TransitionOptions& options,
                          std::vector<Transition>* out,
                          std::vector<Transition>* jc_scratch) {
  jc_scratch->clear();
  for (uint32_t vi = 0; vi < state.views().size(); ++vi) {
    GraphRef g(state.views()[vi], options);
    AppendScEdges(vi, *g.get(), out);
    AppendJcEdges(vi, *g.get(), options, jc_scratch);
  }
  out->insert(out->end(), jc_scratch->begin(), jc_scratch->end());
}

void EnumerateVf(const State& state, std::vector<Transition>* out) {
  // Bucket by the memoized body-only canonical key: shared View objects are
  // canonicalized once ever, not once per state that holds them.
  std::unordered_map<std::string, std::vector<uint32_t>> by_body;
  for (uint32_t vi = 0; vi < state.views().size(); ++vi) {
    by_body[state.views()[vi].BodyKey()].push_back(vi);
  }
  for (const auto& [body, group] : by_body) {
    for (size_t i = 0; i < group.size(); ++i) {
      for (size_t j = i + 1; j < group.size(); ++j) {
        Transition t;
        t.kind = TransitionKind::kVF;
        t.view_idx = group[i];
        t.view_idx2 = group[j];
        out->push_back(t);
      }
    }
  }
}

}  // namespace

const char* TransitionName(TransitionKind kind) {
  switch (kind) {
    case TransitionKind::kVB: return "VB";
    case TransitionKind::kSC: return "SC";
    case TransitionKind::kJC: return "JC";
    case TransitionKind::kVF: return "VF";
  }
  return "?";
}

std::string Transition::ToString() const {
  std::ostringstream out;
  out << TransitionName(kind) << "(view#" << view_idx;
  switch (kind) {
    case TransitionKind::kSC:
      out << ", atom " << sc_occurrence.atom << "."
          << rdf::ColumnName(sc_occurrence.column);
      break;
    case TransitionKind::kJC:
      out << ", cut " << jc_replace.atom << "."
          << rdf::ColumnName(jc_replace.column) << " = " << jc_other.atom
          << "." << rdf::ColumnName(jc_other.column);
      break;
    case TransitionKind::kVB:
      out << ", masks " << vb_mask_a << "/" << vb_mask_b;
      break;
    case TransitionKind::kVF:
      out << ", view#" << view_idx2;
      break;
  }
  out << ")";
  return out.str();
}

namespace {

/// Per-kind enumeration into a plain vector: the single implementation
/// behind both the legacy vector API and the buffered APIs.
void EnumerateKindInto(const State& state, TransitionKind kind,
                       const TransitionOptions& options,
                       std::vector<Transition>* out) {
  switch (kind) {
    case TransitionKind::kSC:
      EnumerateSc(state, options, out);
      break;
    case TransitionKind::kJC:
      EnumerateJc(state, options, out);
      break;
    case TransitionKind::kVB:
      EnumerateVb(state, options, out);
      break;
    case TransitionKind::kVF:
      EnumerateVf(state, out);
      break;
  }
}

telemetry::Histogram* BatchSizeHistogram() {
  static telemetry::Histogram* const h =
      telemetry::MetricsRegistry::Default()->GetHistogram(
          "vsel_transitions_batch_size");
  return h;
}

telemetry::Counter* EnumeratedCounter() {
  static telemetry::Counter* const c =
      telemetry::MetricsRegistry::Default()->GetCounter(
          "vsel_transitions_enumerated_total");
  return c;
}

}  // namespace

std::vector<Transition> EnumerateTransitions(
    const State& state, TransitionKind kind,
    const TransitionOptions& options) {
  std::vector<Transition> out;
  EnumerateKindInto(state, kind, options, &out);
  return out;
}

size_t EnumerateTransitionsInto(const State& state, TransitionKind kind,
                                const TransitionOptions& options,
                                TransitionBuffer* buf) {
  const size_t before = buf->items_.size();
  EnumerateKindInto(state, kind, options, &buf->items_);
  const size_t n = buf->items_.size() - before;
  BatchSizeHistogram()->Observe(static_cast<double>(n));
  EnumeratedCounter()->Add(n);
  return n;
}

size_t EnumerateTransitionsBatch(const State& state, TransitionKind from_kind,
                                 const TransitionOptions& options,
                                 TransitionBuffer* buf) {
  const size_t before = buf->items_.size();
  const int from = static_cast<int>(from_kind);
  if (from <= static_cast<int>(TransitionKind::kVB)) {
    EnumerateVb(state, options, &buf->items_);
  }
  const bool want_sc = from <= static_cast<int>(TransitionKind::kSC);
  const bool want_jc = from <= static_cast<int>(TransitionKind::kJC);
  if (want_sc && want_jc) {
    EnumerateScJcStriped(state, options, &buf->items_, &buf->jc_scratch_);
  } else if (want_sc) {
    EnumerateSc(state, options, &buf->items_);
  } else if (want_jc) {
    EnumerateJc(state, options, &buf->items_);
  }
  if (from <= static_cast<int>(TransitionKind::kVF)) {
    EnumerateVf(state, &buf->items_);
  }
  const size_t n = buf->items_.size() - before;
  BatchSizeHistogram()->Observe(static_cast<double>(n));
  EnumeratedCounter()->Add(n);
  return n;
}

State ApplyTransition(const State& state, const Transition& t, Arena* arena) {
  auto apply = [&]() -> State {
    switch (t.kind) {
      case TransitionKind::kSC: return ApplySc(state, t, arena);
      case TransitionKind::kJC: return ApplyJc(state, t, arena);
      case TransitionKind::kVB: return ApplyVb(state, t, arena);
      case TransitionKind::kVF: return ApplyVf(state, t, arena);
    }
    RDFVIEWS_CHECK_MSG(false, "unreachable");
    return state;
  };
  State out = apply();
  // Debug cross-check: the incrementally maintained fingerprint must equal
  // a from-scratch recomputation over the successor's views.
  RDFVIEWS_DCHECK(out.fingerprint() == out.RecomputeFingerprint());
  return out;
}

State AvfClosure(const State& state, const TransitionOptions& options,
                 size_t* steps, Arena* arena) {
  State current = state;
  TransitionBuffer fusions;
  while (true) {
    fusions.Clear();
    if (EnumerateTransitionsInto(current, TransitionKind::kVF, options,
                                 &fusions) == 0) {
      return current;
    }
    current = ApplyTransition(current, fusions[0], arena);
    if (steps != nullptr) ++*steps;
  }
}

}  // namespace rdfviews::vsel
