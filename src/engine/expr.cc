#include "engine/expr.h"

#include <algorithm>
#include <sstream>

#include "common/logging.h"

namespace rdfviews::engine {

namespace {

uint64_t MaskOfChildren(const std::vector<ExprPtr>& children) {
  uint64_t mask = 0;
  for (const ExprPtr& c : children) mask |= c->scan_mask();
  return mask;
}

}  // namespace

ExprPtr Expr::Scan(uint32_t view_id, std::vector<cq::VarId> columns) {
  auto e = Make(Kind::kScan);
  e->view_id_ = view_id;
  e->scan_mask_ = ScanMaskBit(view_id);
  e->columns_ = std::move(columns);
  return e;
}

ExprPtr Expr::Select(ExprPtr child, std::vector<Condition> conditions) {
  auto e = Make(Kind::kSelect);
  e->scan_mask_ = child->scan_mask();
  e->children_.push_back(std::move(child));
  e->conditions_ = std::move(conditions);
  return e;
}

ExprPtr Expr::Project(ExprPtr child, std::vector<cq::VarId> columns) {
  auto e = Make(Kind::kProject);
  e->scan_mask_ = child->scan_mask();
  e->children_.push_back(std::move(child));
  e->columns_ = std::move(columns);
  return e;
}

ExprPtr Expr::Join(ExprPtr left, ExprPtr right,
                   std::vector<std::pair<cq::VarId, cq::VarId>> pairs) {
  auto e = Make(Kind::kJoin);
  e->scan_mask_ = left->scan_mask() | right->scan_mask();
  e->children_.push_back(std::move(left));
  e->children_.push_back(std::move(right));
  e->join_pairs_ = std::move(pairs);
  return e;
}

ExprPtr Expr::Rename(ExprPtr child,
                     std::unordered_map<cq::VarId, cq::VarId> mapping) {
  auto e = Make(Kind::kRename);
  e->scan_mask_ = child->scan_mask();
  e->children_.push_back(std::move(child));
  e->rename_ = std::move(mapping);
  return e;
}

ExprPtr Expr::Union(std::vector<ExprPtr> children) {
  RDFVIEWS_CHECK(!children.empty());
  auto e = Make(Kind::kUnion);
  e->scan_mask_ = MaskOfChildren(children);
  e->children_ = std::move(children);
  return e;
}

ExprPtr Expr::Arrange(ExprPtr child, std::vector<ArrangeCol> spec) {
  auto e = Make(Kind::kArrange);
  e->scan_mask_ = child->scan_mask();
  e->children_.push_back(std::move(child));
  e->arrange_ = std::move(spec);
  return e;
}

std::vector<cq::VarId> Expr::OutputColumns() const {
  switch (kind_) {
    case Kind::kScan:
    case Kind::kProject:
      return columns_;
    case Kind::kSelect:
      return child()->OutputColumns();
    case Kind::kRename: {
      std::vector<cq::VarId> cols = child()->OutputColumns();
      for (cq::VarId& c : cols) {
        auto it = rename_.find(c);
        if (it != rename_.end()) c = it->second;
      }
      return cols;
    }
    case Kind::kJoin: {
      std::vector<cq::VarId> cols = left()->OutputColumns();
      std::vector<cq::VarId> right_cols = right()->OutputColumns();
      for (cq::VarId c : right_cols) {
        if (std::find(cols.begin(), cols.end(), c) == cols.end()) {
          cols.push_back(c);
        }
      }
      return cols;
    }
    case Kind::kUnion:
      return children_[0]->OutputColumns();
    case Kind::kArrange: {
      std::vector<cq::VarId> cols;
      cols.reserve(arrange_.size());
      for (const ArrangeCol& a : arrange_) cols.push_back(a.output_name);
      return cols;
    }
  }
  return {};
}

void Expr::ForEachScan(const std::function<void(const Expr&)>& fn) const {
  if (kind_ == Kind::kScan) {
    fn(*this);
    return;
  }
  for (const ExprPtr& c : children_) c->ForEachScan(fn);
}

ExprPtr Expr::ReplaceScans(
    const ExprPtr& root, uint32_t view_id,
    const std::function<ExprPtr(const Expr& scan)>& replacement) {
  // Bloom short-circuit: the subtree provably scans no such view.
  if ((root->scan_mask_ & ScanMaskBit(view_id)) == 0) return root;
  if (root->kind_ == Kind::kScan) {
    if (root->view_id_ == view_id) return replacement(*root);
    return root;
  }
  bool changed = false;
  std::vector<ExprPtr> new_children;
  new_children.reserve(root->children_.size());
  for (const ExprPtr& c : root->children_) {
    ExprPtr nc = ReplaceScans(c, view_id, replacement);
    changed = changed || nc != c;
    new_children.push_back(std::move(nc));
  }
  if (!changed) return root;
  auto e = Make(root->kind_);
  e->view_id_ = root->view_id_;
  e->scan_mask_ = MaskOfChildren(new_children);
  e->columns_ = root->columns_;
  e->children_ = std::move(new_children);
  e->conditions_ = root->conditions_;
  e->join_pairs_ = root->join_pairs_;
  e->rename_ = root->rename_;
  e->arrange_ = root->arrange_;
  return e;
}

ExprPtr Expr::Remap(const ExprPtr& root,
                    const std::function<uint32_t(uint32_t)>& view_id,
                    const std::function<cq::VarId(cq::VarId)>& var) {
  bool changed = false;
  std::vector<ExprPtr> new_children;
  new_children.reserve(root->children_.size());
  for (const ExprPtr& c : root->children_) {
    ExprPtr nc = Remap(c, view_id, var);
    changed = changed || nc != c;
    new_children.push_back(std::move(nc));
  }
  uint32_t new_view_id = root->view_id_;
  if (root->kind_ == Kind::kScan) {
    new_view_id = view_id(root->view_id_);
    changed = changed || new_view_id != root->view_id_;
  }
  std::vector<cq::VarId> new_columns = root->columns_;
  for (cq::VarId& c : new_columns) {
    cq::VarId mapped = var(c);
    changed = changed || mapped != c;
    c = mapped;
  }
  std::vector<Condition> new_conditions = root->conditions_;
  for (Condition& c : new_conditions) {
    cq::VarId lhs = var(c.lhs);
    changed = changed || lhs != c.lhs;
    c.lhs = lhs;
    if (!c.rhs_is_const) {
      cq::VarId rhs = var(c.var_rhs);
      changed = changed || rhs != c.var_rhs;
      c.var_rhs = rhs;
    }
  }
  std::vector<std::pair<cq::VarId, cq::VarId>> new_pairs = root->join_pairs_;
  for (auto& [a, b] : new_pairs) {
    cq::VarId ma = var(a);
    cq::VarId mb = var(b);
    changed = changed || ma != a || mb != b;
    a = ma;
    b = mb;
  }
  std::unordered_map<cq::VarId, cq::VarId> new_rename;
  for (const auto& [from, to] : root->rename_) {
    cq::VarId mf = var(from);
    cq::VarId mt = var(to);
    changed = changed || mf != from || mt != to;
    new_rename.emplace(mf, mt);
  }
  std::vector<ArrangeCol> new_arrange = root->arrange_;
  for (ArrangeCol& a : new_arrange) {
    cq::VarId out = var(a.output_name);
    changed = changed || out != a.output_name;
    a.output_name = out;
    if (!a.is_const) {
      cq::VarId src = var(a.source);
      changed = changed || src != a.source;
      a.source = src;
    }
  }
  if (!changed) return root;
  auto e = Make(root->kind_);
  e->view_id_ = new_view_id;
  e->scan_mask_ = root->kind_ == Kind::kScan ? ScanMaskBit(new_view_id)
                                             : MaskOfChildren(new_children);
  e->columns_ = std::move(new_columns);
  e->children_ = std::move(new_children);
  e->conditions_ = std::move(new_conditions);
  e->join_pairs_ = std::move(new_pairs);
  e->rename_ = std::move(new_rename);
  e->arrange_ = std::move(new_arrange);
  return e;
}

std::string Expr::ToString(const std::function<std::string(uint32_t)>& name,
                           const rdf::Dictionary* dict) const {
  auto var = [](cq::VarId v) { return "X" + std::to_string(v); };
  auto constant = [&](rdf::TermId c) {
    if (dict != nullptr && c < dict->size()) return dict->Lexical(c);
    return "#" + std::to_string(c);
  };
  std::ostringstream out;
  switch (kind_) {
    case Kind::kScan:
      out << (name ? name(view_id_) : "v" + std::to_string(view_id_));
      break;
    case Kind::kSelect: {
      out << "σ[";
      for (size_t i = 0; i < conditions_.size(); ++i) {
        if (i > 0) out << " ∧ ";
        const Condition& c = conditions_[i];
        out << var(c.lhs) << "=";
        if (c.rhs_is_const) {
          out << constant(c.const_rhs);
        } else {
          out << var(c.var_rhs);
        }
      }
      out << "](" << child()->ToString(name, dict) << ")";
      break;
    }
    case Kind::kProject: {
      out << "π[";
      for (size_t i = 0; i < columns_.size(); ++i) {
        if (i > 0) out << ",";
        out << var(columns_[i]);
      }
      out << "](" << child()->ToString(name, dict) << ")";
      break;
    }
    case Kind::kJoin: {
      out << "(" << left()->ToString(name, dict) << " ⋈";
      if (!join_pairs_.empty()) {
        out << "[";
        for (size_t i = 0; i < join_pairs_.size(); ++i) {
          if (i > 0) out << ",";
          out << var(join_pairs_[i].first) << "=" << var(join_pairs_[i].second);
        }
        out << "]";
      }
      out << " " << right()->ToString(name, dict) << ")";
      break;
    }
    case Kind::kRename: {
      // Sorted, not hash order: equal rename maps must render identically
      // (tests and serialization round-trips compare the rendering).
      std::vector<std::pair<cq::VarId, cq::VarId>> entries(rename_.begin(),
                                                           rename_.end());
      std::sort(entries.begin(), entries.end());
      out << "ρ[";
      bool first = true;
      for (const auto& [from, to] : entries) {
        if (!first) out << ",";
        first = false;
        out << var(from) << "→" << var(to);
      }
      out << "](" << child()->ToString(name, dict) << ")";
      break;
    }
    case Kind::kUnion: {
      out << "(";
      for (size_t i = 0; i < children_.size(); ++i) {
        if (i > 0) out << " ∪ ";
        out << children_[i]->ToString(name, dict);
      }
      out << ")";
      break;
    }
    case Kind::kArrange: {
      out << "α[";
      for (size_t i = 0; i < arrange_.size(); ++i) {
        if (i > 0) out << ",";
        if (arrange_[i].is_const) {
          out << constant(arrange_[i].value);
        } else {
          out << var(arrange_[i].source);
        }
      }
      out << "](" << child()->ToString(name, dict) << ")";
      break;
    }
  }
  return out.str();
}

}  // namespace rdfviews::engine
