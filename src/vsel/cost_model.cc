#include "vsel/cost_model.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <optional>

#include "common/logging.h"

namespace rdfviews::vsel {

namespace {

constexpr rdf::Column kColumns[3] = {rdf::Column::kS, rdf::Column::kP,
                                     rdf::Column::kO};

/// The column of `v`'s first body occurrence in `def` (atoms in order, each
/// in S, P, O order), for width/distinct lookup; none when the body does
/// not hold `v`.
std::optional<rdf::Column> FirstColumn(const cq::ConjunctiveQuery& def,
                                       cq::VarId v) {
  for (const cq::Atom& a : def.atoms()) {
    for (rdf::Column c : kColumns) {
      const cq::Term t = a.at(c);
      if (t.is_var() && t.var() == v) return c;
    }
  }
  return std::nullopt;
}

}  // namespace

double CostModel::ViewCardinality(const cq::ConjunctiveQuery& def) const {
  ++counters_.card_raw;
  if (def.atoms().empty()) return 0;

  // Per-atom exact counts and per-occurrence distinct estimates.
  std::vector<double> atom_card(def.atoms().size(), 0);
  for (size_t i = 0; i < def.atoms().size(); ++i) {
    const cq::Atom& atom = def.atoms()[i];
    double card =
        static_cast<double>(stats_->CountPattern(atom.ToPattern()));
    // Repeated variable inside one atom: an implicit equality selection.
    for (int a = 0; a < 3; ++a) {
      for (int b = a + 1; b < 3; ++b) {
        cq::Term ta = atom.at(kColumns[a]);
        cq::Term tb = atom.at(kColumns[b]);
        if (ta.is_var() && tb.is_var() && ta.var() == tb.var()) {
          double d = std::max<double>(
              1.0, static_cast<double>(stats_->DistinctValues(kColumns[b])));
          card /= d;
        }
      }
    }
    atom_card[i] = card;
  }

  double card = 1.0;
  for (double c : atom_card) card *= c;

  // Join reduction: for each variable, its occurrences across atoms form a
  // clique; apply 1/max(d_i, d_first) for every occurrence after the first,
  // where d = min(|atom|, distinct(col)) under uniformity.
  auto occurrence_distinct = [&](const cq::Occurrence& occ) {
    double col_distinct = static_cast<double>(
        stats_->DistinctValues(occ.column));
    return std::max(1.0, std::min(atom_card[occ.atom], col_distinct));
  };
  for (const auto& [var, occs] : def.VarOccurrences()) {
    for (size_t i = 1; i < occs.size(); ++i) {
      if (occs[i].atom == occs[i - 1].atom) continue;  // intra-atom handled
      double d = std::max(occurrence_distinct(occs[i]),
                          occurrence_distinct(occs[0]));
      card /= std::max(1.0, d);
    }
  }
  return card;
}

namespace {

/// Summed average width of the head columns.
double HeadWidth(const View& view, const rdf::Statistics& stats) {
  double width = 0;
  for (const cq::Term& t : view.def.head()) {
    const std::optional<rdf::Column> col = FirstColumn(view.def, t.var());
    width += col.has_value() ? stats.AvgWidth(*col) : 8.0;
  }
  return width;
}

}  // namespace

double CostModel::ViewBytes(const View& view) const {
  return ViewCardinality(view.def) * HeadWidth(view, *stats_);
}

double CostModel::CachedViewCardinality(const View& view) const {
  if (!memoize_) return ViewCardinality(view.def);
  return interner_.Cardinality(view,
                               [&] { return ViewCardinality(view.def); });
}

double CostModel::CachedViewBytes(const View& view) const {
  if (!memoize_) return ViewBytes(view);
  return interner_.Bytes(view, [&] {
    return CachedViewCardinality(view) * HeadWidth(view, *stats_);
  });
}

double CostModel::Vso(const State& state) const {
  double total = 0;
  for (const View& v : state.views()) total += ViewBytes(v);
  return total;
}

CostModel::NodeEstimate CostModel::EstimateExpr(
    const engine::Expr& expr, const State& state, bool cached,
    std::pmr::memory_resource* mem) const {
  using Kind = engine::Expr::Kind;
  NodeEstimate out(mem);
  switch (expr.kind()) {
    case Kind::kScan: {
      int idx = state.ViewIndexById(expr.view_id());
      RDFVIEWS_CHECK_MSG(idx >= 0, "rewriting scans unknown view v"
                                       << expr.view_id());
      const View& v = state.views()[static_cast<size_t>(idx)];
      out.card = cached ? CachedViewCardinality(v) : ViewCardinality(v.def);
      out.io = out.card;
      for (cq::VarId name : expr.scan_columns()) {
        // Columns are positionally the view's head; map through head order.
        out.distinct[name] = out.card;
      }
      // Refine with the column-kind distinct bound.
      const std::vector<cq::Term>& head = v.def.head();
      for (size_t i = 0; i < head.size() && i < expr.scan_columns().size();
           ++i) {
        const std::optional<rdf::Column> col =
            FirstColumn(v.def, head[i].var());
        if (!col.has_value()) continue;
        double d = static_cast<double>(stats_->DistinctValues(*col));
        double& slot = out.distinct[expr.scan_columns()[i]];
        slot = std::max(1.0, std::min(slot, d));
      }
      break;
    }
    case Kind::kSelect: {
      NodeEstimate child = EstimateExpr(*expr.child(), state, cached, mem);
      double selectivity = 1.0;
      for (const engine::Condition& c : expr.conditions()) {
        auto it = child.distinct.find(c.lhs);
        double d = it != child.distinct.end() ? std::max(1.0, it->second)
                                              : child.card;
        if (!c.rhs_is_const) {
          auto jt = child.distinct.find(c.var_rhs);
          double d2 = jt != child.distinct.end() ? std::max(1.0, jt->second)
                                                 : child.card;
          d = std::max(d, d2);
        }
        selectivity /= std::max(1.0, d);
      }
      const double in_card = child.card;
      out = std::move(child);
      out.card = in_card * selectivity;
      out.cpu += in_card;  // one filtering pass over the input
      for (auto& [var, d] : out.distinct) d = std::min(d, out.card);
      break;
    }
    case Kind::kProject: {
      // Projection is free (see header).
      out = EstimateExpr(*expr.child(), state, cached, mem);
      break;
    }
    case Kind::kRename: {
      NodeEstimate child = EstimateExpr(*expr.child(), state, cached, mem);
      out.card = child.card;
      out.io = child.io;
      out.cpu = child.cpu;
      for (const auto& [var, d] : child.distinct) {
        auto it = expr.rename_map().find(var);
        out.distinct[it == expr.rename_map().end() ? var : it->second] = d;
      }
      break;
    }
    case Kind::kJoin: {
      NodeEstimate l = EstimateExpr(*expr.left(), state, cached, mem);
      NodeEstimate r = EstimateExpr(*expr.right(), state, cached, mem);
      out.io = l.io + r.io;
      out.cpu = l.cpu + r.cpu;
      double card = l.card * r.card;
      auto reduce = [&](cq::VarId lv, cq::VarId rv) {
        double dl = l.distinct.contains(lv) ? l.distinct.at(lv) : l.card;
        double dr = r.distinct.contains(rv) ? r.distinct.at(rv) : r.card;
        card /= std::max(1.0, std::max(dl, dr));
      };
      // Natural join keys.
      for (const auto& [var, d] : l.distinct) {
        if (r.distinct.contains(var)) reduce(var, var);
      }
      for (const auto& [lv, rv] : expr.join_pairs()) reduce(lv, rv);
      out.card = card;
      // Hash join: build + probe + output.
      out.cpu += l.card + r.card + card;
      out.distinct = std::move(l.distinct);
      for (const auto& [var, d] : r.distinct) {
        auto [it, inserted] = out.distinct.emplace(var, d);
        if (!inserted) it->second = std::min(it->second, d);
      }
      for (auto& [var, d] : out.distinct) d = std::min(d, out.card);
      break;
    }
    case Kind::kUnion: {
      for (const engine::ExprPtr& c : expr.children()) {
        NodeEstimate child = EstimateExpr(*c, state, cached, mem);
        out.card += child.card;
        out.io += child.io;
        out.cpu += child.cpu;
      }
      break;
    }
    case Kind::kArrange: {
      NodeEstimate child = EstimateExpr(*expr.child(), state, cached, mem);
      out.card = child.card;
      out.io = child.io;
      out.cpu = child.cpu;
      for (const engine::ArrangeCol& a : expr.arrange_spec()) {
        if (a.is_const) {
          out.distinct[a.output_name] = 1.0;
        } else if (child.distinct.contains(a.source)) {
          out.distinct[a.output_name] = child.distinct.at(a.source);
        }
      }
      break;
    }
  }
  return out;
}

double CostModel::RecTerm(const engine::Expr& expr, const State& state,
                          bool cached) const {
  // Every node's distinct map is carved from this buffer; a rewriting that
  // outgrows it continues on the heap.
  std::array<std::byte, 4096> buffer;
  std::pmr::monotonic_buffer_resource mem(buffer.data(), buffer.size());
  const NodeEstimate e = EstimateExpr(expr, state, cached, &mem);
  return weights_.c1 * e.io + weights_.c2 * e.cpu;
}

double CostModel::Rec(const State& state) const {
  double total = 0;
  for (const engine::ExprPtr& r : state.rewritings()) {
    total += RecTerm(*r, state, /*cached=*/false);
  }
  return total;
}

double CostModel::Vmc(const State& state) const {
  double total = 0;
  for (const View& v : state.views()) {
    total += std::pow(weights_.f, static_cast<double>(v.def.len()));
  }
  return total;
}

CostBreakdown CostModel::BreakdownUncached(const State& state) const {
  CostBreakdown b;
  b.vso = Vso(state);
  b.rec = Rec(state);
  b.vmc = Vmc(state);
  b.total = weights_.cs * b.vso + weights_.cr * b.rec + weights_.cm * b.vmc;
  return b;
}

CostBreakdown CostModel::UnseededBreakdown(const State& state) const {
  State fresh;
  for (size_t i = 0; i < state.views().size(); ++i) {
    fresh.AddView(state.views().ptr(i));
  }
  const RewritingList rewritings = state.rewritings();
  fresh.SetRewritings({rewritings.begin(), rewritings.end()});
  const Counters counters = counters_;
  const ViewInterner::Counters interner_counters = interner_.counters();
  const CostBreakdown b = Breakdown(fresh);
  counters_ = counters;
  interner_.RestoreCounters(interner_counters);
  return b;
}

uint64_t CostModel::NextCacheKey() {
  static std::atomic<uint64_t> next{0};
  return ++next;
}

CostBreakdown CostModel::Breakdown(const State& state) const {
  ++counters_.state_costs;
  if (!memoize_) return BreakdownUncached(state);

  State::CostCache& cache = state.cost_cache();
  const ViewList& views = state.views();
  const RewritingList rewritings = state.rewritings();
  // Terms cached under a different (model, weights) key cannot be reused.
  const bool model_ok = cache.model_key == cache_key_;

  // Fast path: the state was costed under this model and not mutated since
  // (every mutator clears cache.valid), so the cached sums are current.
  if (model_ok && cache.valid) {
    counters_.view_terms_reused += views.size();
    counters_.rec_reused += rewritings.size();
    CostBreakdown b;
    b.vso = cache.vso;
    b.rec = cache.rec;
    b.vmc = cache.vmc;
    b.total = cache.total;
    return b;
  }

  // Slow path: re-sum, reusing every memoized term whose key still matches.
  // The per-view terms live in the state's flat block (slot i valid iff
  // term_keys[i] == ids[i]); mutators poison exactly the slots they touch,
  // so a transition's child recomputes only its delta.
  CostBreakdown b;
  for (size_t i = 0; i < views.size(); ++i) {
    double bytes;
    double vmc;
    if (model_ok && state.ViewTermValid(i)) {
      bytes = state.ViewBytesTerm(i);
      vmc = state.ViewVmcTerm(i);
      ++counters_.view_terms_reused;
    } else {
      const ViewPtr& vp = views.ptr(i);
      bytes = CachedViewBytes(*vp);
      vmc = std::pow(weights_.f, static_cast<double>(vp->def.len()));
      state.SetViewTerm(i, bytes, vmc);
      ++counters_.view_terms_computed;
    }
    b.vso += bytes;
    b.vmc += vmc;
  }

  // The REC slots live in the state's flat block, aligned with the
  // rewritings; fresh slots carry a null key, which never matches a live
  // rewriting (the state nulls keys at mutation time, so a recycled Expr
  // address can never falsely revalidate).
  State::CostCache::RecEntry* rec_entries = state.rec_entries();
  for (size_t i = 0; i < rewritings.size(); ++i) {
    const engine::ExprPtr& r = rewritings[i];
    State::CostCache::RecEntry& e = rec_entries[i];
    // Transitions rebuild only the rewritings that scanned a replaced view
    // (Expr::ReplaceScans returns the identical subtree otherwise), and
    // State::ReplaceScanRewritings nulls the entries of the rewritings it
    // changed, so pointer equality certifies the cached term is current.
    if (model_ok && e.key == r.get()) {
      b.rec += e.term;
      ++counters_.rec_reused;
    } else {
      e.term = RecTerm(*r, state, /*cached=*/true);
      e.key = r.get();
      b.rec += e.term;
      ++counters_.rec_computed;
    }
  }

  b.total = weights_.cs * b.vso + weights_.cr * b.rec + weights_.cm * b.vmc;

  cache.model_key = cache_key_;
  cache.valid = true;
  cache.vso = b.vso;
  cache.rec = b.rec;
  cache.vmc = b.vmc;
  cache.total = b.total;
  return b;
}

double CostModel::CalibrateCm(const CostBreakdown& s0,
                              const CostWeights& weights) {
  double other = weights.cs * s0.vso + weights.cr * s0.rec;
  if (s0.vmc <= 0 || other <= 0) return weights.cm;
  // Place cm*VMC two orders of magnitude under the other components.
  double cm = other / (100.0 * s0.vmc);
  return std::clamp(cm, 1e-9, 1e9);
}

}  // namespace rdfviews::vsel
