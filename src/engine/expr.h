// Relational-algebra expressions over view relations: the language of the
// paper's rewritings, e.g.
//   q1 = pi_head(v1)( sigma_{n1.o=starryNight}(v4) |><| v3 ).
//
// Column names are query variable ids (cq::VarId), so the natural joins
// produced by View Break join on shared variable *names*, exactly as in the
// paper's relational-algebra notation. Trees are immutable and shared.
#ifndef RDFVIEWS_ENGINE_EXPR_H_
#define RDFVIEWS_ENGINE_EXPR_H_

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cq/term.h"
#include "rdf/dictionary.h"
#include "rdf/term.h"

namespace rdfviews::engine {

class Expr;
using ExprPtr = std::shared_ptr<const Expr>;

/// An equality condition of a selection: column == constant (selection cut)
/// or column == column (un-split join cut).
struct Condition {
  cq::VarId lhs = 0;
  bool rhs_is_const = true;
  rdf::TermId const_rhs = 0;
  cq::VarId var_rhs = 0;

  static Condition Eq(cq::VarId lhs, rdf::TermId value) {
    return Condition{lhs, true, value, 0};
  }
  static Condition EqVar(cq::VarId lhs, cq::VarId rhs) {
    return Condition{lhs, false, 0, rhs};
  }
};

/// One output column of an Arrange node: a source column or a constant.
struct ArrangeCol {
  bool is_const = false;
  cq::VarId source = 0;     // when !is_const
  rdf::TermId value = 0;    // when is_const
  cq::VarId output_name = 0;
};

class Expr {
  /// Admits only Expr's own factories to the public constructor below.
  struct PrivateTag {
    explicit PrivateTag() = default;
  };

 public:
  enum class Kind {
    kScan,     // view scan; output columns = the view's column names
    kSelect,   // conditions over child
    kProject,  // ordered subset of child columns (+ set-semantics dedup)
    kJoin,     // natural join on shared names + explicit variable pairs
    kRename,   // renames child columns
    kUnion,    // positional union of children (set semantics)
    kArrange,  // reorders / extends child columns with constants
  };

  /// Node and shared-pointer control block are one allocation: the
  /// factories build nodes through std::make_shared, which needs a public
  /// constructor, and the private tag keeps every other caller out.
  Expr(PrivateTag, Kind kind) : kind_(kind) {}

  Kind kind() const { return kind_; }

  // ---- Constructors ----
  static ExprPtr Scan(uint32_t view_id, std::vector<cq::VarId> columns);
  static ExprPtr Select(ExprPtr child, std::vector<Condition> conditions);
  static ExprPtr Project(ExprPtr child, std::vector<cq::VarId> columns);
  static ExprPtr Join(ExprPtr left, ExprPtr right,
                      std::vector<std::pair<cq::VarId, cq::VarId>> pairs);
  static ExprPtr Rename(ExprPtr child,
                        std::unordered_map<cq::VarId, cq::VarId> mapping);
  static ExprPtr Union(std::vector<ExprPtr> children);
  static ExprPtr Arrange(ExprPtr child, std::vector<ArrangeCol> spec);

  // ---- Accessors (valid per kind) ----
  uint32_t view_id() const { return view_id_; }
  const std::vector<cq::VarId>& scan_columns() const { return columns_; }
  const ExprPtr& child() const { return children_[0]; }
  const ExprPtr& left() const { return children_[0]; }
  const ExprPtr& right() const { return children_[1]; }
  const std::vector<ExprPtr>& children() const { return children_; }
  const std::vector<Condition>& conditions() const { return conditions_; }
  const std::vector<cq::VarId>& project_columns() const { return columns_; }
  const std::vector<std::pair<cq::VarId, cq::VarId>>& join_pairs() const {
    return join_pairs_;
  }
  const std::unordered_map<cq::VarId, cq::VarId>& rename_map() const {
    return rename_;
  }
  const std::vector<ArrangeCol>& arrange_spec() const { return arrange_; }

  /// Output column names, in order.
  std::vector<cq::VarId> OutputColumns() const;

  /// Calls `fn` on every Scan node in the tree.
  void ForEachScan(const std::function<void(const Expr&)>& fn) const;

  /// 64-bit Bloom filter over the view ids scanned anywhere in this tree
  /// (bit view_id % 64), maintained by every constructor. A clear bit
  /// proves the tree does not scan the view; a set bit is only a maybe.
  /// ReplaceScans uses it to skip whole subtrees without walking them.
  uint64_t scan_mask() const { return scan_mask_; }
  static uint64_t ScanMaskBit(uint32_t view_id) {
    return 1ull << (view_id & 63u);
  }

  /// Returns a copy of the tree where every Scan of `view_id` is replaced by
  /// `replacement(scan)`. Shared subtrees without matches are reused.
  static ExprPtr ReplaceScans(
      const ExprPtr& root, uint32_t view_id,
      const std::function<ExprPtr(const Expr& scan)>& replacement);

  /// Returns a copy of the tree with every view id mapped through `view_id`
  /// and every column name (scan/project columns, condition operands, join
  /// pairs, rename endpoints, arrange sources and outputs) mapped through
  /// `var`. The recommendation pipeline uses this to re-base per-partition
  /// rewritings into the merged state's id spaces. Identity maps return the
  /// shared input tree unchanged.
  static ExprPtr Remap(const ExprPtr& root,
                       const std::function<uint32_t(uint32_t)>& view_id,
                       const std::function<cq::VarId(cq::VarId)>& var);

  /// Pretty-prints the tree. `view_name` maps view ids to display names;
  /// `dict` renders constants.
  std::string ToString(
      const std::function<std::string(uint32_t)>& view_name = {},
      const rdf::Dictionary* dict = nullptr) const;

 private:
  static std::shared_ptr<Expr> Make(Kind kind) {
    return std::make_shared<Expr>(PrivateTag{}, kind);
  }

  Kind kind_;
  uint32_t view_id_ = 0;
  uint64_t scan_mask_ = 0;
  std::vector<cq::VarId> columns_;  // scan or project columns
  std::vector<ExprPtr> children_;
  std::vector<Condition> conditions_;
  std::vector<std::pair<cq::VarId, cq::VarId>> join_pairs_;
  std::unordered_map<cq::VarId, cq::VarId> rename_;
  std::vector<ArrangeCol> arrange_;
};

}  // namespace rdfviews::engine

#endif  // RDFVIEWS_ENGINE_EXPR_H_
