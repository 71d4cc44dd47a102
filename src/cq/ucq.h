// Unions of conjunctive queries: the output language of reformulation and
// the view language of post-reformulation materialization.
#ifndef RDFVIEWS_CQ_UCQ_H_
#define RDFVIEWS_CQ_UCQ_H_

#include <string>
#include <unordered_set>
#include <vector>

#include "cq/canonical.h"
#include "cq/query.h"

namespace rdfviews::cq {

/// A union of conjunctive queries with identical head arity. Disjuncts are
/// de-duplicated up to variable renaming via canonical forms. The dedup
/// index is built lazily: the first disjunct is stored without a key and
/// canonicalized only when a second one arrives, so a one-disjunct union
/// (a view definition outside post-reformulation) never canonicalizes.
class UnionOfQueries {
 public:
  UnionOfQueries() = default;
  explicit UnionOfQueries(std::string name) : name_(std::move(name)) {}

  /// Adds a disjunct; returns true if it was new (up to renaming).
  bool Add(ConjunctiveQuery q);

  const std::vector<ConjunctiveQuery>& disjuncts() const { return disjuncts_; }
  size_t size() const { return disjuncts_.size(); }
  bool empty() const { return disjuncts_.empty(); }

  const std::string& name() const { return name_; }

  /// Total number of atoms across disjuncts, #a in Table 3.
  size_t TotalAtoms() const;
  /// Total number of constants across disjuncts, #c in Table 3.
  size_t TotalConstants() const;

  std::string ToString(const rdf::Dictionary* dict = nullptr) const;

 private:
  /// Renaming-insensitive, head-order-sensitive dedup key of `q`.
  static std::string DedupKey(const ConjunctiveQuery& q);

  std::string name_ = "q";
  std::vector<ConjunctiveQuery> disjuncts_;
  /// Dedup keys of every disjunct; empty while there is at most one.
  std::unordered_set<std::string> canonical_;
};

}  // namespace rdfviews::cq

#endif  // RDFVIEWS_CQ_UCQ_H_
