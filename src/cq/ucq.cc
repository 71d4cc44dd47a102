#include "cq/ucq.h"

#include <sstream>

namespace rdfviews::cq {

std::string UnionOfQueries::DedupKey(const ConjunctiveQuery& q) {
  // Head order is significant for a UCQ (all disjuncts share the head
  // schema), but head terms are included in the canonical form as a set;
  // we append the ordered head explicitly to keep order-sensitivity.
  CanonicalForm form = Canonicalize(q, /*include_head=*/true);
  std::string key = form.repr + "|ordered:";
  for (const Term& t : q.head()) {
    if (t.is_const()) {
      key += "#" + std::to_string(t.constant()) + ",";
    } else {
      auto it = form.var_map.find(t.var());
      key += "V" + (it == form.var_map.end()
                        ? std::string("?")
                        : std::to_string(it->second)) +
             ",";
    }
  }
  return key;
}

bool UnionOfQueries::Add(ConjunctiveQuery q) {
  if (!disjuncts_.empty()) {
    if (canonical_.empty()) canonical_.insert(DedupKey(disjuncts_.front()));
    if (!canonical_.insert(DedupKey(q)).second) return false;
  }
  disjuncts_.push_back(std::move(q));
  return true;
}

size_t UnionOfQueries::TotalAtoms() const {
  size_t n = 0;
  for (const ConjunctiveQuery& q : disjuncts_) n += q.len();
  return n;
}

size_t UnionOfQueries::TotalConstants() const {
  size_t n = 0;
  for (const ConjunctiveQuery& q : disjuncts_) {
    n += q.NumConstants();
    for (const Term& t : q.head()) {
      if (t.is_const()) ++n;
    }
  }
  return n;
}

std::string UnionOfQueries::ToString(const rdf::Dictionary* dict) const {
  std::ostringstream out;
  for (size_t i = 0; i < disjuncts_.size(); ++i) {
    if (i > 0) out << "\n  UNION ";
    out << disjuncts_[i].ToString(dict);
  }
  return out.str();
}

}  // namespace rdfviews::cq
