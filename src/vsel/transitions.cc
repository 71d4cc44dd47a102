#include "vsel/transitions.h"

#include <algorithm>
#include <iterator>
#include <sstream>
#include <tuple>
#include <unordered_map>

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

/// The variables of the atoms in `mask`, sorted by VarId.
std::vector<cq::VarId> VarsOfMask(const std::vector<cq::Atom>& atoms,
                                  uint64_t mask) {
  std::vector<cq::VarId> vars;
  for (size_t i = 0; i < atoms.size(); ++i) {
    if (!(mask & (1ull << i))) continue;
    for (rdf::Column c : kColumns) {
      cq::Term t = atoms[i].at(c);
      if (t.is_var()) vars.push_back(t.var());
    }
  }
  std::sort(vars.begin(), vars.end());
  vars.erase(std::unique(vars.begin(), vars.end()), vars.end());
  return vars;
}

bool Holds(const std::vector<cq::VarId>& sorted, cq::VarId v) {
  return std::binary_search(sorted.begin(), sorted.end(), v);
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

/// The sub-view over the atoms in `mask` (Def. 3.2), before minimization:
/// its head is v's head restricted to the sub-body, then every variable of
/// `shared` (sorted by VarId) that the sub-body holds. Its body is the
/// atoms in `kept`, a subset of `mask`: `mask` itself for a first
/// derivation, the atoms cq::Minimize kept of it for a rebuild.
cq::ConjunctiveQuery SubViewDef(const cq::ConjunctiveQuery& parent,
                                uint64_t mask, uint64_t kept,
                                const std::vector<cq::VarId>& shared) {
  cq::ConjunctiveQuery def;
  for (size_t i = 0; i < parent.atoms().size(); ++i) {
    if (kept & (1ull << i)) def.mutable_atoms()->push_back(parent.atoms()[i]);
  }
  const std::vector<cq::VarId> vars = VarsOfMask(parent.atoms(), mask);
  for (const cq::Term& t : parent.head()) {
    if (t.is_var() && Holds(vars, t.var())) AddHeadVar(&def, t.var());
  }
  for (cq::VarId v : shared) {
    if (Holds(vars, v)) AddHeadVar(&def, v);
  }
  return def;
}

/// The minimized sub-view over the atoms in `mask` (views are minimal by
/// Def. 2.1).
///
/// During a search the Minimize call keeps every atom: every view a walk
/// from S0 reaches is minimal. A CQ is minimal iff no homomorphism from
/// its body into itself that fixes its head variables has a proper subset
/// of the body as its image. S0's views are the connected components of
/// minimized queries (or of minimized disjuncts under pre-reformulation),
/// and each transition keeps minimality:
///   - A sub-view over `mask` whose head holds every variable it shares
///     with the rest of the parent (VB: `shared`, its two masks cover the
///     body; splitting JC: the cut view's components share no variable)
///     is minimal when the parent is. A shrinking endomorphism of the
///     sub-view fixes those variables, so extending it by the identity on
///     the other atoms gives a shrinking endomorphism of the parent.
///   - SC and JC's cut rename one occurrence (of a constant, or of a
///     variable) to a fresh variable, which joins the head (for JC, with
///     the renamed variable). Undoing the renaming maps a shrinking
///     endomorphism of the new view to one of the old: the head is fixed,
///     and the old view has no duplicate atoms, so the image stays a
///     proper subset. An in-place JC keeps the cut view; a splitting one
///     takes its two components as sub-views.
///   - VF keeps one body and widens its head, and a larger fixed set only
///     removes endomorphisms.
/// TransitionWalkTest.WalksReachOnlyMinimalViews checks this on random
/// walks. Minimize still runs here, on first derivations only (rebuilds
/// reuse the kept-atom masks the outcome table recorded), so a parent
/// that is not minimal — only hand-built states have one — still gets
/// minimal sub-views.
cq::ConjunctiveQuery MakeSubView(const cq::ConjunctiveQuery& parent,
                                 uint64_t mask,
                                 const std::vector<cq::VarId>& shared) {
  return cq::Minimize(SubViewDef(parent, mask, mask, shared));
}

/// The atoms of `atoms` in `mask` that survive in `minimal`, a minimized
/// sub-view over them: cq::Minimize only removes atoms, so its body is a
/// subsequence of theirs.
uint64_t KeptAtoms(const std::vector<cq::Atom>& atoms, uint64_t mask,
                   const std::vector<cq::Atom>& minimal) {
  uint64_t kept = 0;
  size_t j = 0;
  for (size_t i = 0; i < atoms.size() && j < minimal.size(); ++i) {
    if ((mask & (1ull << i)) && atoms[i] == minimal[j]) {
      kept |= 1ull << i;
      ++j;
    }
  }
  RDFVIEWS_CHECK(j == minimal.size());
  return kept;
}

/// The variables shared by VB's two covering subsets, sorted by VarId.
std::vector<cq::VarId> SharedVars(const std::vector<cq::Atom>& atoms,
                                  uint64_t mask_a, uint64_t mask_b) {
  const std::vector<cq::VarId> vars_a = VarsOfMask(atoms, mask_a);
  const std::vector<cq::VarId> vars_b = VarsOfMask(atoms, mask_b);
  std::vector<cq::VarId> shared;
  std::set_intersection(vars_a.begin(), vars_a.end(), vars_b.begin(),
                        vars_b.end(), std::back_inserter(shared));
  return shared;
}

/// The body variables of `def` in first-occurrence order (the numbering
/// View::CostHash renames them by).
std::vector<cq::VarId> FirstOccurrenceVars(const cq::ConjunctiveQuery& def) {
  std::vector<cq::VarId> vars;
  for (const cq::Atom& a : def.atoms()) {
    for (rdf::Column c : kColumns) {
      cq::Term t = a.at(c);
      if (t.is_var() && std::find(vars.begin(), vars.end(), t.var()) ==
                            vars.end()) {
        vars.push_back(t.var());
      }
    }
  }
  return vars;
}

/// What every preparation sets before its kind-specific part.
void StartPrepared(const State& parent, const Transition& t,
                   PreparedTransition* out) {
  out->t = t;
  out->first = nullptr;
  out->second = nullptr;
  out->next_var = parent.next_var();
  out->next_view_id = parent.next_view_id();
}

/// A new view over `def`, named by the next view id.
View NextView(PreparedTransition* p, cq::ConjunctiveQuery def) {
  View v;
  v.id = p->next_view_id++;
  v.def = std::move(def);
  v.def.set_name(v.Name());
  return v;
}

/// Publishes a rebuilt view with the keys of `like`, the view the first
/// derivation of the same outcome built.
ViewPtr MakeViewLike(View v, const View& like) {
  v.FillIdentityFrom(like);
  return std::make_shared<const View>(std::move(v));
}

// Each transition comes in two steps. Prepare reads only the parent: it
// builds the successor's new views and its fingerprint, taking view ids and
// variables from the parent's counters in the order the transition always
// has (SC takes its fresh variable before its view id; VF takes the rename
// map's fresh variables after its view id). Build copies the parent,
// installs the prepared views and rewrites the rewritings. The Make*
// helpers below are shared by Prepare and by TransitionOutcomeTable's
// rebuild, so both number variables and views the same way.

/// SC's new view: `v` with the cut constant replaced by a fresh head
/// variable.
View MakeScView(const View& v, const Transition& t, PreparedTransition* p) {
  cq::Term old_term =
      v.def.atoms()[t.sc_occurrence.atom].at(t.sc_occurrence.column);
  RDFVIEWS_CHECK_MSG(old_term.is_const(), "SC on a non-constant position");

  const cq::VarId w = p->next_var++;
  View nv;
  nv.id = p->next_view_id++;
  nv.def = v.def;
  (*nv.def.mutable_atoms())[t.sc_occurrence.atom].set(t.sc_occurrence.column,
                                                      cq::Term::Var(w));
  nv.def.mutable_head()->push_back(cq::Term::Var(w));
  nv.def.set_name(nv.Name());
  p->sc_var = w;
  return nv;
}

void PrepareSc(const State& in, const Transition& t, PreparedTransition* p) {
  p->first = MakeView(MakeScView(in.views()[t.view_idx], t, p));
}

void BuildSc(const State& in, const PreparedTransition& p, State* out) {
  const Transition& t = p.t;
  const View& v = in.views()[t.view_idx];
  const rdf::TermId constant =
      v.def.atoms()[t.sc_occurrence.atom].at(t.sc_occurrence.column)
          .constant();
  ExprPtr repl = Expr::Project(
      Expr::Select(Expr::Scan(p.first->id, p.first->Columns()),
                   {engine::Condition::Eq(p.sc_var, constant)}),
      v.Columns());
  out->ReplaceView(t.view_idx, p.first);
  SubstituteView(out, v.id, repl);
}

/// JC's cut view def: `v` with the `jc_replace` occurrence of x renamed to
/// a fresh x', and both in the head. Sets jc_pair to (x, x').
cq::ConjunctiveQuery MakeJcCut(const View& v, const Transition& t,
                               PreparedTransition* p) {
  cq::Term replaced =
      v.def.atoms()[t.jc_replace.atom].at(t.jc_replace.column);
  RDFVIEWS_CHECK_MSG(replaced.is_var(), "JC on a non-variable position");
  const cq::VarId x = replaced.var();
  const cq::VarId xp = p->next_var++;

  cq::ConjunctiveQuery def2 = v.def;
  (*def2.mutable_atoms())[t.jc_replace.atom].set(t.jc_replace.column,
                                                 cq::Term::Var(xp));
  AddHeadVar(&def2, x);
  AddHeadVar(&def2, xp);
  p->jc_pair = {x, xp};
  return def2;
}

/// The connected components of a JC cut (Def. 3.4): (all atoms, 0) when
/// the cut view stays connected; otherwise the atoms of the component
/// holding the first atom and those of the other one.
std::pair<uint64_t, uint64_t> JcParts(const std::vector<cq::Atom>& atoms) {
  std::vector<int> comp = AtomComponents(atoms);
  int num_comp = *std::max_element(comp.begin(), comp.end()) + 1;
  RDFVIEWS_CHECK_MSG(num_comp <= 2, "JC split a view into >2 components");
  uint64_t part_a = 0;
  uint64_t part_b = 0;
  for (size_t i = 0; i < atoms.size(); ++i) {
    (comp[i] == 0 ? part_a : part_b) |= 1ull << i;
  }
  return {part_a, part_b};
}

void PrepareJc(const State& in, const Transition& t, PreparedTransition* p) {
  cq::ConjunctiveQuery def2 = MakeJcCut(in.views()[t.view_idx], t, p);
  const auto [part_a, part_b] = JcParts(def2.atoms());
  if (part_b == 0) {
    p->first = MakeView(NextView(p, std::move(def2)));
    return;
  }

  // The view splits in two: one component holds x's remaining occurrences,
  // the other holds x' (Def. 3.4 case 2). The components share no
  // variables.
  View va = NextView(p, MakeSubView(def2, part_a, {}));
  View vb = NextView(p, MakeSubView(def2, part_b, {}));

  // The explicit join predicate joins x with x'; orient by side.
  if (!Holds(VarsOfMask(def2.atoms(), part_a), p->jc_pair.first)) {
    std::swap(p->jc_pair.first, p->jc_pair.second);
  }
  p->first = MakeView(std::move(va));
  p->second = MakeView(std::move(vb));
}

void BuildJc(const State& in, const PreparedTransition& p, State* out) {
  const Transition& t = p.t;
  const View& v = in.views()[t.view_idx];
  if (p.second == nullptr) {
    ExprPtr repl = Expr::Project(
        Expr::Select(
            Expr::Scan(p.first->id, p.first->Columns()),
            {engine::Condition::EqVar(p.jc_pair.first, p.jc_pair.second)}),
        v.Columns());
    out->ReplaceView(t.view_idx, p.first);
    SubstituteView(out, v.id, repl);
    return;
  }
  ExprPtr repl = Expr::Project(
      Expr::Join(Expr::Scan(p.first->id, p.first->Columns()),
                 Expr::Scan(p.second->id, p.second->Columns()), {p.jc_pair}),
      v.Columns());
  out->ReplaceView(t.view_idx, p.first);
  out->AddView(p.second);
  SubstituteView(out, v.id, repl);
}

void PrepareVb(const State& in, const Transition& t, PreparedTransition* p) {
  const View& v = in.views()[t.view_idx];
  const std::vector<cq::VarId> shared =
      SharedVars(v.def.atoms(), t.vb_mask_a, t.vb_mask_b);
  View va = NextView(p, MakeSubView(v.def, t.vb_mask_a, shared));
  View vb = NextView(p, MakeSubView(v.def, t.vb_mask_b, shared));
  p->first = MakeView(std::move(va));
  p->second = MakeView(std::move(vb));
}

void BuildVb(const State& in, const PreparedTransition& p, State* out) {
  const View& v = in.views()[p.t.view_idx];
  // Natural join re-joins on the shared variable names.
  ExprPtr repl = Expr::Project(
      Expr::Join(Expr::Scan(p.first->id, p.first->Columns()),
                 Expr::Scan(p.second->id, p.second->Columns()), {}),
      v.Columns());
  out->ReplaceView(p.t.view_idx, p.first);
  out->AddView(p.second);
  SubstituteView(out, v.id, repl);
}

/// VF's fused view: v1 with p->vf_head (v2's head mapped onto v1's
/// variables) appended to its head.
View MakeVfView(const View& v1, const View& v2, PreparedTransition* p) {
  View v3;
  v3.id = p->next_view_id++;
  v3.def = v1.def;
  for (cq::VarId mapped : p->vf_head) AddHeadVar(&v3.def, mapped);
  v3.def.set_name(v3.Name());
  // Build names each v3 column that mu does not reach with a fresh
  // variable: mu is injective, so that is every column past v2's head.
  p->next_var += static_cast<cq::VarId>(v3.def.head().size() -
                                        v2.def.head().size());
  return v3;
}

void PrepareVf(const State& in, const Transition& t, PreparedTransition* p) {
  const View& v1 = in.views()[t.view_idx];
  const View& v2 = in.views()[t.view_idx2];

  cq::CanonicalForm c1 = cq::Canonicalize(v1.def, /*include_head=*/false);
  cq::CanonicalForm c2 = cq::Canonicalize(v2.def, /*include_head=*/false);
  RDFVIEWS_CHECK_MSG(c1.repr == c2.repr, "VF on non-isomorphic views");

  // mu maps v2 variables onto v1 variables through the canonical indices
  // (dense: 0 .. number of body variables - 1).
  std::vector<cq::VarId> inverse_c1(c1.var_map.size());
  for (const auto& [var, idx] : c1.var_map) inverse_c1[idx] = var;

  p->vf_head.clear();
  for (const cq::Term& t2 : v2.def.head()) {
    auto it = c2.var_map.find(t2.var());
    RDFVIEWS_CHECK(it != c2.var_map.end() && it->second < inverse_c1.size());
    p->vf_head.push_back(inverse_c1[it->second]);
  }
  p->first = MakeView(MakeVfView(v1, v2, p));
}

void BuildVf(const State& in, const PreparedTransition& p, State* out) {
  const Transition& t = p.t;
  const View& v1 = in.views()[t.view_idx];
  const View& v2 = in.views()[t.view_idx2];
  const View& v3 = *p.first;

  ExprPtr repl1 =
      Expr::Project(Expr::Scan(v3.id, v3.Columns()), v1.Columns());

  // Rename v3's columns into v2's namespace. The map is total over v3's
  // columns: unmapped ones get fresh names so no output name collides with
  // a v2 name (v1 and v2 may share variables after overlapping view breaks).
  std::unordered_map<cq::VarId, cq::VarId> rename;
  for (size_t i = 0; i < v2.def.head().size(); ++i) {
    rename[p.vf_head[i]] = v2.def.head()[i].var();
  }
  cq::VarId fresh = in.next_var();
  for (cq::VarId col : v3.Columns()) {
    if (!rename.contains(col)) rename[col] = fresh++;
  }
  RDFVIEWS_DCHECK(fresh == p.next_var);
  ExprPtr repl2 = Expr::Project(
      Expr::Rename(Expr::Scan(v3.id, v3.Columns()), std::move(rename)),
      v2.Columns());

  // Replace v1's slot with v3 and erase v2. The substitutions read v1/v2's
  // ids from the parent, whose slots do not change.
  out->ReplaceView(t.view_idx, p.first);
  out->RemoveView(t.view_idx2);
  SubstituteView(out, v1.id, repl1);
  SubstituteView(out, v2.id, repl2);
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

/// True when two views of `state` have equal memoized body keys, i.e. some
/// VF transition applies. Most states have none, and this pairwise scan
/// proves it without building EnumerateVf's bucket map.
bool HasFusablePair(const State& state) {
  const ViewList& views = state.views();
  for (size_t i = 0; i < views.size(); ++i) {
    for (size_t j = i + 1; j < views.size(); ++j) {
      if (views[i].BodyKey() == views[j].BodyKey()) return true;
    }
  }
  return false;
}

void EnumerateVf(const State& state, std::vector<Transition>* out) {
  if (!HasFusablePair(state)) return;
  // Bucket by the memoized body-only canonical key: shared View objects are
  // canonicalized once ever, not once per state that holds them. The
  // bucket order decides which fusion AVF applies first.
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

void PrepareTransition(const State& parent, const Transition& t,
                       PreparedTransition* out) {
  StartPrepared(parent, t, out);
  switch (t.kind) {
    case TransitionKind::kSC: PrepareSc(parent, t, out); break;
    case TransitionKind::kJC: PrepareJc(parent, t, out); break;
    case TransitionKind::kVB: PrepareVb(parent, t, out); break;
    case TransitionKind::kVF: PrepareVf(parent, t, out); break;
  }
  RDFVIEWS_CHECK_MSG(out->first != nullptr, "malformed transition");
  StateFingerprint fp = parent.fingerprint();
  fp -= parent.views()[t.view_idx].StructuralHash();
  if (t.kind == TransitionKind::kVF) {
    fp -= parent.views()[t.view_idx2].StructuralHash();
  }
  fp += out->first->StructuralHash();
  if (out->second != nullptr) fp += out->second->StructuralHash();
  out->fingerprint = fp;
}

State BuildTransition(const State& parent, const PreparedTransition& prepared,
                      Arena* arena) {
  State out = parent.CloneForTransition(arena);
  out.set_next_var(prepared.next_var);
  out.set_next_view_id(prepared.next_view_id);
  switch (prepared.t.kind) {
    case TransitionKind::kSC: BuildSc(parent, prepared, &out); break;
    case TransitionKind::kJC: BuildJc(parent, prepared, &out); break;
    case TransitionKind::kVB: BuildVb(parent, prepared, &out); break;
    case TransitionKind::kVF: BuildVf(parent, prepared, &out); break;
  }
  // Debug cross-checks: the incrementally maintained fingerprint must equal
  // both the prediction Prepare made from the parent and a from-scratch
  // recomputation over the successor's views.
  RDFVIEWS_DCHECK(out.fingerprint() == prepared.fingerprint);
  RDFVIEWS_DCHECK(out.fingerprint() == out.RecomputeFingerprint());
  return out;
}

State ApplyTransition(const State& state, const Transition& t, Arena* arena) {
  PreparedTransition prepared;
  PrepareTransition(state, t, &prepared);
  return BuildTransition(state, prepared, arena);
}

namespace {

void RebuildJc(const View& v, const Transition& t, const TransitionOutcome& o,
               PreparedTransition* p) {
  cq::ConjunctiveQuery def2 = MakeJcCut(v, t, p);
  if (o.second == nullptr) {
    p->first = MakeViewLike(NextView(p, std::move(def2)), *o.first);
    return;
  }
  View va = NextView(p, SubViewDef(def2, o.part_a, o.kept_a, {}));
  View vb = NextView(p, SubViewDef(def2, o.part_b, o.kept_b, {}));
  if (o.jc_swapped) std::swap(p->jc_pair.first, p->jc_pair.second);
  p->first = MakeViewLike(std::move(va), *o.first);
  p->second = MakeViewLike(std::move(vb), *o.second);
}

void RebuildVb(const View& v, const TransitionOutcome& o,
               PreparedTransition* p) {
  const std::vector<cq::VarId> shared =
      SharedVars(v.def.atoms(), o.part_a, o.part_b);
  View va = NextView(p, SubViewDef(v.def, o.part_a, o.kept_a, shared));
  View vb = NextView(p, SubViewDef(v.def, o.part_b, o.kept_b, shared));
  p->first = MakeViewLike(std::move(va), *o.first);
  p->second = MakeViewLike(std::move(vb), *o.second);
}

void RebuildVf(const View& v1, const View& v2, const TransitionOutcome& o,
               PreparedTransition* p) {
  const std::vector<cq::VarId> vars = FirstOccurrenceVars(v1.def);
  p->vf_head.clear();
  for (uint32_t idx : o.vf_head) p->vf_head.push_back(vars[idx]);
  p->first = MakeViewLike(MakeVfView(v1, v2, p), *o.first);
}

/// Debug cross-checks of a table hit against a fresh PrepareTransition.
bool SameView(const ViewPtr& a, const ViewPtr& b) {
  if (a == nullptr || b == nullptr) return a == b;
  return a->id == b->id && a->def == b->def &&
         a->def.name() == b->def.name() &&
         a->def.var_names() == b->def.var_names() &&
         a->CanonicalKey() == b->CanonicalKey() &&
         a->BodyKey() == b->BodyKey() &&
         a->StructuralHash() == b->StructuralHash() &&
         a->CostHash() == b->CostHash() &&
         a->CostBodyHash() == b->CostBodyHash();
}

bool SameAsFreshPrepare(const State& parent, const Transition& t,
                        const PreparedTransition& got) {
  PreparedTransition fresh;
  PrepareTransition(parent, t, &fresh);
  return SameView(got.first, fresh.first) &&
         SameView(got.second, fresh.second) &&
         got.fingerprint == fresh.fingerprint &&
         got.next_var == fresh.next_var &&
         got.next_view_id == fresh.next_view_id &&
         got.sc_var == fresh.sc_var && got.jc_pair == fresh.jc_pair &&
         got.vf_head == fresh.vf_head;
}

}  // namespace

size_t TransitionOutcomeKeyHasher::operator()(
    const TransitionOutcomeKey& k) const {
  size_t seed = Hash128Hasher()(k.view);
  HashCombine(&seed, static_cast<size_t>(k.kind));
  HashCombine(&seed, k.occurrence.atom * 3 +
                         static_cast<size_t>(k.occurrence.column));
  HashCombine(&seed, k.mask_a);
  HashCombine(&seed, k.mask_b);
  HashCombine(&seed, Hash128Hasher()(k.partner));
  return seed;
}

TransitionOutcomeKey TransitionOutcomeTable::KeyOf(const State& parent,
                                                   const Transition& t) {
  TransitionOutcomeKey key;
  key.kind = t.kind;
  key.view = parent.views()[t.view_idx].CostHash();
  switch (t.kind) {
    case TransitionKind::kSC: key.occurrence = t.sc_occurrence; break;
    case TransitionKind::kJC: key.occurrence = t.jc_replace; break;
    case TransitionKind::kVB:
      key.mask_a = t.vb_mask_a;
      key.mask_b = t.vb_mask_b;
      break;
    case TransitionKind::kVF:
      key.partner = parent.views()[t.view_idx2].CostHash();
      break;
  }
  return key;
}

void TransitionOutcomeTable::Record(const TransitionOutcomeKey& key,
                                    const State& parent,
                                    const PreparedTransition& p) {
  const Transition& t = p.t;
  const View& v = parent.views()[t.view_idx];
  TransitionOutcome o;
  o.delta = p.fingerprint;
  o.delta -= parent.fingerprint();
  o.first = p.first;
  o.second = p.second;
  switch (t.kind) {
    case TransitionKind::kSC:
      break;
    case TransitionKind::kJC:
      if (p.second != nullptr) {
        PreparedTransition unswapped;
        StartPrepared(parent, t, &unswapped);
        const std::vector<cq::Atom> cut =
            MakeJcCut(v, t, &unswapped).atoms();
        std::tie(o.part_a, o.part_b) = JcParts(cut);
        o.kept_a = KeptAtoms(cut, o.part_a, p.first->def.atoms());
        o.kept_b = KeptAtoms(cut, o.part_b, p.second->def.atoms());
        o.jc_swapped = p.jc_pair != unswapped.jc_pair;
      }
      break;
    case TransitionKind::kVB:
      o.part_a = t.vb_mask_a;
      o.part_b = t.vb_mask_b;
      o.kept_a = KeptAtoms(v.def.atoms(), o.part_a, p.first->def.atoms());
      o.kept_b = KeptAtoms(v.def.atoms(), o.part_b, p.second->def.atoms());
      break;
    case TransitionKind::kVF: {
      const std::vector<cq::VarId> vars = FirstOccurrenceVars(v.def);
      for (cq::VarId mapped : p.vf_head) {
        o.vf_head.push_back(static_cast<uint32_t>(
            std::find(vars.begin(), vars.end(), mapped) - vars.begin()));
      }
      break;
    }
  }
  outcomes_.emplace(key, std::move(o));
}

void TransitionOutcomeTable::Rebuild(const State& parent, const Transition& t,
                                     const TransitionOutcome& outcome,
                                     PreparedTransition* out) {
  StartPrepared(parent, t, out);
  const View& v = parent.views()[t.view_idx];
  switch (t.kind) {
    case TransitionKind::kSC:
      out->first = MakeViewLike(MakeScView(v, t, out), *outcome.first);
      break;
    case TransitionKind::kJC: RebuildJc(v, t, outcome, out); break;
    case TransitionKind::kVB: RebuildVb(v, outcome, out); break;
    case TransitionKind::kVF:
      RebuildVf(v, parent.views()[t.view_idx2], outcome, out);
      break;
  }
  RDFVIEWS_DCHECK(SameAsFreshPrepare(parent, t, *out));
}

StateFingerprint TransitionOutcomeTable::FreshFingerprint(
    const State& parent, const Transition& t) {
  PreparedTransition fresh;
  PrepareTransition(parent, t, &fresh);
  return fresh.fingerprint;
}

size_t CloseUnderVf(State* state, const TransitionOptions& options,
                    Arena* arena, TransitionOutcomeTable* outcomes) {
  size_t steps = 0;
  TransitionBuffer fusions;
  PreparedTransition prepared;
  while (true) {
    fusions.Clear();
    if (EnumerateTransitionsInto(*state, TransitionKind::kVF, options,
                                 &fusions) == 0) {
      return steps;
    }
    if (outcomes != nullptr) {
      outcomes->Prepare(*state, fusions[0], &prepared);
    } else {
      PrepareTransition(*state, fusions[0], &prepared);
    }
    *state = BuildTransition(*state, prepared, arena);
    ++steps;
  }
}

State AvfClosure(const State& state, const TransitionOptions& options,
                 size_t* steps, Arena* arena) {
  State closed = state;
  const size_t n = CloseUnderVf(&closed, options, arena);
  if (steps != nullptr) *steps += n;
  return closed;
}

}  // namespace rdfviews::vsel
