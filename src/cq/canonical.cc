#include "cq/canonical.h"

#include <algorithm>
#include <charconv>
#include <map>
#include <set>

#include "common/logging.h"
#include "common/telemetry/metrics.h"

namespace rdfviews::cq {

namespace {

telemetry::Counter* CanonicalizeCounter() {
  static telemetry::Counter* const c =
      telemetry::MetricsRegistry::Default()->GetCounter(
          "cq_canonicalize_total");
  return c;
}

constexpr rdf::Column kColumns[3] = {rdf::Column::kS, rdf::Column::kP,
                                     rdf::Column::kO};
constexpr int kMaxBacktrackNodes = 200000;

/// Appends the decimal digits of `v`.
template <typename Int>
void AppendDecimal(std::string* out, Int v) {
  char buf[24];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  out->append(buf, end);
}

/// Stable invariant of one atom, independent of variable identities:
/// constants are spelled out, variables are described by (head?, global
/// occurrence count, intra-atom repetition pattern).
std::string AtomInvariant(const ConjunctiveQuery& q, const Atom& atom,
                          const std::unordered_map<VarId, int>& var_degree,
                          const std::unordered_map<VarId, int>& var_color,
                          bool include_head) {
  std::string out;
  for (int i = 0; i < 3; ++i) {
    Term t = atom.at(kColumns[i]);
    if (i > 0) out += ',';
    if (t.is_const()) {
      out += 'c';
      AppendDecimal(&out, t.constant());
      continue;
    }
    out += 'v';
    if (include_head && q.IsHeadVar(t.var())) out += 'h';
    out += 'd';
    AppendDecimal(&out, var_degree.at(t.var()));
    auto color = var_color.find(t.var());
    if (color != var_color.end()) {
      out += 'k';
      AppendDecimal(&out, color->second);
    }
    // Intra-atom repetition: first earlier position holding the same var.
    for (int j = 0; j < i; ++j) {
      Term earlier = atom.at(kColumns[j]);
      if (earlier.is_var() && earlier.var() == t.var()) {
        out += '=';
        AppendDecimal(&out, j);
        break;
      }
    }
  }
  return out;
}

struct Searcher {
  const ConjunctiveQuery& q;
  bool include_head;
  std::vector<std::vector<uint32_t>> groups;  // tie groups of atom indices
  std::string best;
  bool have_best = false;
  int nodes = 0;
  bool exact = true;
  std::unordered_map<VarId, uint32_t> best_var_map;

  // Current assignment state during DFS.
  std::vector<uint32_t> order;  // atom visit order so far
  std::unordered_map<VarId, uint32_t> var_map;

  explicit Searcher(const ConjunctiveQuery& query, bool with_head)
      : q(query), include_head(with_head) {}

  /// Appends the atom's rendering under `vmap`, numbering variables not
  /// yet in it by first occurrence.
  void RenderAtom(const Atom& atom, std::unordered_map<VarId, uint32_t>* vmap,
                  std::string* out) const {
    *out += "t(";
    for (int i = 0; i < 3; ++i) {
      if (i > 0) *out += ',';
      Term t = atom.at(kColumns[i]);
      if (t.is_const()) {
        *out += '#';
        AppendDecimal(out, t.constant());
      } else {
        auto [it, inserted] =
            vmap->emplace(t.var(), static_cast<uint32_t>(vmap->size()));
        *out += (include_head && q.IsHeadVar(t.var())) ? 'H' : 'V';
        AppendDecimal(out, it->second);
      }
    }
    *out += ')';
  }

  void Finish() {
    // Render the full string for the current atom order.
    std::unordered_map<VarId, uint32_t> vmap;
    std::string repr;
    for (uint32_t idx : order) {
      RenderAtom(q.atoms()[idx], &vmap, &repr);
      repr += ";";
    }
    if (include_head) {
      // Head as a sorted set of canonical terms.
      std::set<std::string> head_terms;
      for (const Term& t : q.head()) {
        if (t.is_const()) {
          head_terms.insert("#" + std::to_string(t.constant()));
        } else {
          auto it = vmap.find(t.var());
          // Head variables not in the body cannot occur in valid queries.
          RDFVIEWS_DCHECK(it != vmap.end());
          head_terms.insert("H" + std::to_string(it->second));
        }
      }
      repr += "|head:";
      for (const std::string& h : head_terms) {
        repr += h;
        repr += ",";
      }
    }
    if (!have_best || repr < best) {
      best = std::move(repr);
      have_best = true;
      best_var_map = std::move(vmap);
    }
  }

  void Dfs(size_t group_idx, std::vector<bool>* used, size_t used_in_group) {
    if (++nodes > kMaxBacktrackNodes) {
      exact = false;
      return;
    }
    if (group_idx == groups.size()) {
      Finish();
      return;
    }
    const std::vector<uint32_t>& group = groups[group_idx];
    if (used_in_group == group.size()) {
      Dfs(group_idx + 1, used, 0);
      return;
    }
    for (size_t i = 0; i < group.size(); ++i) {
      uint32_t atom_idx = group[i];
      if ((*used)[atom_idx]) continue;
      (*used)[atom_idx] = true;
      order.push_back(atom_idx);
      Dfs(group_idx, used, used_in_group + 1);
      order.pop_back();
      (*used)[atom_idx] = false;
      if (!exact) return;
    }
  }
};

}  // namespace

CanonicalForm Canonicalize(const ConjunctiveQuery& q, bool include_head) {
  CanonicalizeCounter()->Add(1);
  CanonicalForm result;
  if (q.atoms().empty()) {
    result.repr = include_head ? "|head:" : "";
    return result;
  }

  // Variable degrees (global occurrence counts).
  std::unordered_map<VarId, int> degree;
  for (const Atom& a : q.atoms()) {
    for (rdf::Column c : kColumns) {
      Term t = a.at(c);
      if (t.is_var()) ++degree[t.var()];
    }
  }

  // Iterative color refinement on variables: a variable's color is the
  // multiset of (atom invariant, position) over its occurrences. A few
  // rounds shrink tie groups dramatically for symmetric queries.
  std::unordered_map<VarId, int> color;
  for (int round = 0; round < 3; ++round) {
    std::vector<std::string> invariants;
    invariants.reserve(q.atoms().size());
    for (const Atom& a : q.atoms()) {
      invariants.push_back(AtomInvariant(q, a, degree, color, include_head));
    }
    std::unordered_map<VarId, std::string> signature;
    for (uint32_t i = 0; i < q.atoms().size(); ++i) {
      for (int pos = 0; pos < 3; ++pos) {
        Term t = q.atoms()[i].at(kColumns[pos]);
        if (!t.is_var()) continue;
        signature[t.var()] +=
            invariants[i] + "@" + std::to_string(pos) + "&";
      }
    }
    // Sort each signature's occurrence fragments to make it order-free.
    std::map<std::string, int> ranks;
    for (auto& [v, sig] : signature) {
      std::vector<std::string> parts;
      std::string cur;
      for (char ch : sig) {
        if (ch == '&') {
          parts.push_back(cur);
          cur.clear();
        } else {
          cur.push_back(ch);
        }
      }
      std::sort(parts.begin(), parts.end());
      std::string sorted;
      for (const std::string& part : parts) sorted += part + "&";
      sig = sorted;
      ranks[sig] = 0;
    }
    int next_rank = 0;
    for (auto& [sig, rank] : ranks) rank = next_rank++;
    std::unordered_map<VarId, int> new_color;
    for (const auto& [v, sig] : signature) new_color[v] = ranks[sig];
    if (new_color == color) break;
    color = std::move(new_color);
  }

  // Group atoms by final invariant.
  std::vector<std::pair<std::string, uint32_t>> keyed;
  for (uint32_t i = 0; i < q.atoms().size(); ++i) {
    keyed.emplace_back(
        AtomInvariant(q, q.atoms()[i], degree, color, include_head), i);
  }
  std::sort(keyed.begin(), keyed.end());

  Searcher searcher(q, include_head);
  for (size_t i = 0; i < keyed.size();) {
    size_t j = i;
    std::vector<uint32_t> group;
    while (j < keyed.size() && keyed[j].first == keyed[i].first) {
      group.push_back(keyed[j].second);
      ++j;
    }
    searcher.groups.push_back(std::move(group));
    i = j;
  }

  // DFS over permutations within each tie group; `used` is indexed by atom.
  std::vector<bool> used(q.atoms().size(), false);
  searcher.Dfs(0, &used, 0);

  if (!searcher.have_best) {
    // Backtracking exploded before finishing a single full ordering; fall
    // back to the deterministic sorted order.
    std::unordered_map<VarId, uint32_t> vmap;
    std::string repr;
    for (const auto& [inv, idx] : keyed) {
      searcher.RenderAtom(q.atoms()[idx], &vmap, &repr);
      repr += ";";
    }
    result.repr = repr;
    result.var_map = std::move(vmap);
    result.exact = false;
    return result;
  }

  result.repr = std::move(searcher.best);
  result.var_map = std::move(searcher.best_var_map);
  result.exact = searcher.exact;
  return result;
}

std::string CanonicalString(const ConjunctiveQuery& q, bool include_head) {
  return Canonicalize(q, include_head).repr;
}

}  // namespace rdfviews::cq
