// The state graph of Definition 3.1: one node per view atom, join edges
// between attribute occurrences of a shared variable, and selection edges
// for constants. The graph of each view is a connected component.
#ifndef RDFVIEWS_VSEL_STATE_GRAPH_H_
#define RDFVIEWS_VSEL_STATE_GRAPH_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "cq/query.h"
#include "vsel/state.h"

namespace rdfviews::vsel {

/// A selection edge v:n.a = c (Def. 3.1).
struct SelectionEdge {
  uint32_t view_idx = 0;          // index into state.views()
  cq::Occurrence occurrence;      // the constant's position
  rdf::TermId constant = 0;
};

/// A join edge v:ni.ai = nj.aj. Every unordered pair of occurrences of the
/// same variable yields one edge (so star queries become cliques, Sec. 6.2);
/// repeated variables inside one atom yield intra-atom edges.
struct JoinEdge {
  uint32_t view_idx = 0;
  cq::Occurrence a;
  cq::Occurrence b;               // a < b in (atom, column) order
  cq::VarId var = 0;
};

/// Edge lists for one view's graph.
struct ViewGraph {
  std::vector<SelectionEdge> selection_edges;
  std::vector<JoinEdge> join_edges;
};

/// The View Break transitions of one view as (mask_a, mask_b) atom-subset
/// pairs (both connected, a < b), precomputed once per distinct view. The
/// pairs depend only on the view's variable-sharing structure and the
/// overlap option recorded here; a consumer with a different option must
/// recompute instead of using the cached list.
struct VbBreakList {
  size_t vb_overlap = 0;
  std::vector<std::pair<uint64_t, uint64_t>> pairs;
};

/// Computes the graph of one view.
ViewGraph BuildViewGraph(const State& state, uint32_t view_idx);

/// Computes the graph of a view outside any state; the edges carry
/// `view_idx` as their view index. This is the form the ViewInterner's
/// graph cache stores (keyed by the view's cost hash): every view with the
/// same cost hash has identical occurrence structure and constants, so the
/// cached edge lists apply to all of them — only JoinEdge::var is specific
/// to the first-sighted view's variable names.
ViewGraph BuildViewGraph(const View& view, uint32_t view_idx);

/// All edges of the state graph G(S).
struct StateGraph {
  std::vector<SelectionEdge> selection_edges;
  std::vector<JoinEdge> join_edges;

  static StateGraph Of(const State& state);
};

/// Connected components of a set of atoms under shared variables; returns a
/// component id per atom.
std::vector<int> AtomComponents(const std::vector<cq::Atom>& atoms);

}  // namespace rdfviews::vsel

#endif  // RDFVIEWS_VSEL_STATE_GRAPH_H_
