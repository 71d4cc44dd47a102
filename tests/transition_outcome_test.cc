// TransitionOutcomeTable exactness: an outcome recorded on one parent and
// rebuilt on another parent that holds the same source view up to variable
// renaming (at another index, with other view-id and variable counters)
// equals PrepareTransition on that second parent in every field: the new
// views' defs (head order and names included), ids and five memoized keys,
// the counters, sc_var, jc_pair, vf_head and the fingerprint.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "vsel/transitions.h"

namespace rdfviews::vsel {
namespace {

constexpr rdf::TermId kP = 101;
constexpr rdf::TermId kQ = 102;
constexpr rdf::TermId kR = 103;
constexpr rdf::TermId kC1 = 201;
constexpr rdf::TermId kC2 = 202;

cq::Term V(cq::VarId v) { return cq::Term::Var(v); }
cq::Term C(rdf::TermId c) { return cq::Term::Const(c); }

cq::ConjunctiveQuery Def(std::vector<cq::Term> head,
                         std::vector<cq::Atom> atoms) {
  return cq::ConjunctiveQuery("q", std::move(head), std::move(atoms));
}

/// A view no transition below touches: q(x) :- t(x, r, c2).
cq::ConjunctiveQuery Other(cq::VarId x) {
  return Def({V(x)}, {{V(x), C(kR), C(kC2)}});
}

/// A state holding `defs` as views, in order, with view ids from
/// `first_view_id` and the variable counter at `next_var`. Preparing a
/// transition reads nothing else of a state.
State StateOf(const std::vector<cq::ConjunctiveQuery>& defs,
              uint32_t first_view_id, cq::VarId next_var) {
  State s;
  s.set_next_view_id(first_view_id);
  for (const cq::ConjunctiveQuery& def : defs) {
    View v;
    v.id = s.FreshViewId();
    v.def = def;
    v.def.set_name(v.Name());
    s.AddView(MakeView(std::move(v)));
  }
  s.set_next_var(next_var);
  return s;
}

void ExpectSameView(const ViewPtr& got, const ViewPtr& want,
                    const char* which) {
  SCOPED_TRACE(which);
  ASSERT_EQ(got == nullptr, want == nullptr);
  if (want == nullptr) return;
  EXPECT_EQ(got->id, want->id);
  EXPECT_EQ(got->def.name(), want->def.name());
  EXPECT_EQ(got->def.ToString(), want->def.ToString());
  EXPECT_TRUE(got->def == want->def);
  EXPECT_EQ(got->def.var_names(), want->def.var_names());
  EXPECT_EQ(got->CanonicalKey(), want->CanonicalKey());
  EXPECT_EQ(got->BodyKey(), want->BodyKey());
  EXPECT_EQ(got->StructuralHash(), want->StructuralHash());
  EXPECT_EQ(got->CostHash(), want->CostHash());
  EXPECT_EQ(got->CostBodyHash(), want->CostBodyHash());
}

void ExpectSamePrepared(const PreparedTransition& got,
                        const PreparedTransition& want) {
  ExpectSameView(got.first, want.first, "first");
  ExpectSameView(got.second, want.second, "second");
  EXPECT_EQ(got.next_var, want.next_var);
  EXPECT_EQ(got.next_view_id, want.next_view_id);
  EXPECT_EQ(got.sc_var, want.sc_var);
  EXPECT_EQ(got.jc_pair, want.jc_pair);
  EXPECT_EQ(got.vf_head, want.vf_head);
  EXPECT_EQ(got.fingerprint, want.fingerprint);
}

/// Records `ta` on `a`, then prepares `tb` on `b` through the same table:
/// once refused as a known duplicate (only the fingerprint is predicted)
/// and once rebuilt. Both must match PrepareTransition on `b`. Returns the
/// first preparation so callers can check that the two parents really
/// number the outcome differently.
PreparedTransition ExpectRebuildMatchesPrepare(const State& a,
                                               const Transition& ta,
                                               const State& b,
                                               const Transition& tb) {
  TransitionOutcomeTable table;
  PreparedTransition recorded;
  table.Prepare(a, ta, &recorded);
  EXPECT_EQ(table.misses(), 1u);
  EXPECT_EQ(table.hits(), 0u);

  PreparedTransition want;
  PrepareTransition(b, tb, &want);

  // A hit decides from the first derivation's views.
  auto recorded_views = [&recorded](const ViewPtr& first,
                                    const ViewPtr& second) {
    return first == recorded.first && second == recorded.second;
  };
  PreparedTransition skipped;
  EXPECT_EQ(table.Prepare(
                b, tb,
                [&](const StateFingerprint&, const ViewPtr& first,
                    const ViewPtr& second) {
                  EXPECT_TRUE(recorded_views(first, second));
                  return SuccessorFate::kDuplicate;
                },
                &skipped),
            SuccessorFate::kDuplicate);
  EXPECT_EQ(skipped.fingerprint, want.fingerprint);
  EXPECT_EQ(skipped.first, nullptr);

  PreparedTransition rebuilt;
  EXPECT_EQ(table.Prepare(
                b, tb,
                [&](const StateFingerprint&, const ViewPtr& first,
                    const ViewPtr& second) {
                  EXPECT_TRUE(recorded_views(first, second));
                  return SuccessorFate::kBuild;
                },
                &rebuilt),
            SuccessorFate::kBuild);
  EXPECT_EQ(table.misses(), 1u);
  EXPECT_EQ(table.hits(), 2u);
  ExpectSamePrepared(rebuilt, want);
  EXPECT_NE(recorded.first->id, rebuilt.first->id);
  return recorded;
}

Transition Sc(uint32_t view_idx, uint32_t atom, rdf::Column column) {
  Transition t;
  t.kind = TransitionKind::kSC;
  t.view_idx = view_idx;
  t.sc_occurrence = {atom, column};
  return t;
}

Transition Jc(uint32_t view_idx, cq::Occurrence replace,
              cq::Occurrence other) {
  Transition t;
  t.kind = TransitionKind::kJC;
  t.view_idx = view_idx;
  t.jc_replace = replace;
  t.jc_other = other;
  return t;
}

Transition Vb(uint32_t view_idx, uint64_t mask_a, uint64_t mask_b) {
  Transition t;
  t.kind = TransitionKind::kVB;
  t.view_idx = view_idx;
  t.vb_mask_a = mask_a;
  t.vb_mask_b = mask_b;
  return t;
}

TEST(TransitionOutcomeTest, SelectionCutRebuildsOnRenamedParent) {
  // q(a) :- t(a, p, b), t(b, q, c1); cut c1.
  auto src = [](cq::VarId a, cq::VarId b) {
    return Def({V(a)}, {{V(a), C(kP), V(b)}, {V(b), C(kQ), C(kC1)}});
  };
  State a = StateOf({src(1, 2)}, 0, 3);
  State b = StateOf({Other(13), src(12, 11)}, 7, 20);
  PreparedTransition recorded = ExpectRebuildMatchesPrepare(
      a, Sc(0, 1, rdf::Column::kO), b, Sc(1, 1, rdf::Column::kO));
  EXPECT_EQ(recorded.sc_var, 3u);
}

TEST(TransitionOutcomeTest, InPlaceJoinCutRebuildsOnRenamedParent) {
  // A cycle stays connected when one edge is cut:
  // q(a) :- t(a, p, b), t(b, q, c), t(c, r, a); cut a at atom 0.
  auto src = [](cq::VarId a, cq::VarId b, cq::VarId c) {
    return Def({V(a)}, {{V(a), C(kP), V(b)},
                        {V(b), C(kQ), V(c)},
                        {V(c), C(kR), V(a)}});
  };
  State a = StateOf({src(1, 2, 3)}, 0, 4);
  State b = StateOf({Other(16), src(15, 14, 13)}, 5, 30);
  const cq::Occurrence replace{0, rdf::Column::kS};
  const cq::Occurrence other{2, rdf::Column::kO};
  PreparedTransition recorded = ExpectRebuildMatchesPrepare(
      a, Jc(0, replace, other), b, Jc(1, replace, other));
  EXPECT_EQ(recorded.second, nullptr);
}

TEST(TransitionOutcomeTest, SplittingJoinCutRebuildsOnRenamedParent) {
  // q(a) :- t(a, p, b), t(a, p, c), t(c, q, d), t(d, r, c1). Cutting the
  // join on d splits off t(d, r, c1); in the other component t(a, p, b)
  // becomes redundant (b -> c), so Minimize drops it. The source view is
  // not minimal as a whole only so that the kept-atom masks matter.
  auto src = [](cq::VarId a, cq::VarId b, cq::VarId c, cq::VarId d) {
    return Def({V(a)}, {{V(a), C(kP), V(b)},
                        {V(a), C(kP), V(c)},
                        {V(c), C(kQ), V(d)},
                        {V(d), C(kR), C(kC1)}});
  };
  State a = StateOf({src(1, 2, 3, 4)}, 0, 5);
  State b = StateOf({Other(21), src(24, 23, 22, 25)}, 9, 40);
  const cq::Occurrence d_at_3{3, rdf::Column::kS};
  const cq::Occurrence d_at_2{2, rdf::Column::kO};
  {
    SCOPED_TRACE("x stays in the first component");
    PreparedTransition recorded = ExpectRebuildMatchesPrepare(
        a, Jc(0, d_at_3, d_at_2), b, Jc(1, d_at_3, d_at_2));
    ASSERT_NE(recorded.second, nullptr);
    EXPECT_EQ(recorded.first->def.atoms().size(), 2u);
    EXPECT_EQ(recorded.jc_pair, std::make_pair(cq::VarId{4}, cq::VarId{5}));
  }
  {
    SCOPED_TRACE("x moves to the second component");
    PreparedTransition recorded = ExpectRebuildMatchesPrepare(
        a, Jc(0, d_at_2, d_at_3), b, Jc(1, d_at_2, d_at_3));
    ASSERT_NE(recorded.second, nullptr);
    EXPECT_EQ(recorded.jc_pair, std::make_pair(cq::VarId{5}, cq::VarId{4}));
  }
}

TEST(TransitionOutcomeTest, JoinCutsDifferingOnlyInTheOtherEndShareAnOutcome) {
  // x occurs three times: q(a) :- t(x, p, a), t(x, q, b), t(x, r, c1).
  // Cutting x at atom 0 against atom 1 or atom 2 renames the same
  // occurrence, so both transitions produce the same successor.
  State s = StateOf({Def({V(1)}, {{V(2), C(kP), V(1)},
                                  {V(2), C(kQ), V(3)},
                                  {V(2), C(kR), C(kC1)}})},
                    0, 4);
  const cq::Occurrence x0{0, rdf::Column::kS};
  const Transition t1 = Jc(0, x0, {1, rdf::Column::kS});
  const Transition t2 = Jc(0, x0, {2, rdf::Column::kS});
  TransitionOutcomeTable table;
  PreparedTransition first;
  PreparedTransition second;
  table.Prepare(s, t1, &first);
  table.Prepare(s, t2, &second);
  EXPECT_EQ(table.misses(), 1u);
  EXPECT_EQ(table.hits(), 1u);
  PreparedTransition want;
  PrepareTransition(s, t2, &want);
  ExpectSamePrepared(second, want);
  ExpectSamePrepared(first, want);
}

TEST(TransitionOutcomeTest, ViewBreakRebuildsOnRenamedParent) {
  // q(a, d) :- t(a, p, b), t(b, q, c), t(c, r, d), broken into atoms
  // {0, 1} and {1, 2}: both sub-views get the shared b and c appended to
  // their heads in VarId order. In the second parent c's id is below b's,
  // so the rebuilt heads list c before b.
  auto src = [](cq::VarId a, cq::VarId b, cq::VarId c, cq::VarId d) {
    return Def({V(a), V(d)}, {{V(a), C(kP), V(b)},
                              {V(b), C(kQ), V(c)},
                              {V(c), C(kR), V(d)}});
  };
  State a = StateOf({src(1, 2, 3, 4)}, 0, 5);
  State b = StateOf({Other(20), src(21, 23, 22, 24)}, 3, 25);
  ExpectRebuildMatchesPrepare(a, Vb(0, 0b011, 0b110), b,
                              Vb(1, 0b011, 0b110));
  PreparedTransition in_a;
  PreparedTransition in_b;
  PrepareTransition(a, Vb(0, 0b011, 0b110), &in_a);
  PrepareTransition(b, Vb(1, 0b011, 0b110), &in_b);
  const std::vector<cq::Term> head_a{V(1), V(2), V(3)};
  const std::vector<cq::Term> head_b{V(21), V(22), V(23)};
  EXPECT_EQ(in_a.first->def.head(), head_a);
  EXPECT_EQ(in_b.first->def.head(), head_b);
}

TEST(TransitionOutcomeTest, ViewBreakKeepsTheAtomsMinimizeKept) {
  // q(a) :- t(a, p, b), t(a, p, c), t(c, q, c1), broken into atoms {0, 1}
  // and {2}: the first sub-view's t(a, p, b) is redundant (b -> c).
  auto src = [](cq::VarId a, cq::VarId b, cq::VarId c) {
    return Def({V(a)}, {{V(a), C(kP), V(b)},
                        {V(a), C(kP), V(c)},
                        {V(c), C(kQ), C(kC1)}});
  };
  State a = StateOf({src(1, 2, 3)}, 0, 4);
  State b = StateOf({Other(30), src(33, 32, 31)}, 4, 34);
  PreparedTransition recorded = ExpectRebuildMatchesPrepare(
      a, Vb(0, 0b011, 0b100), b, Vb(1, 0b011, 0b100));
  EXPECT_EQ(recorded.first->def.atoms().size(), 1u);
}

TEST(TransitionOutcomeTest, ViewFusionRebuildsOnRenamedParent) {
  // Two views over isomorphic bodies t(a, p, b), t(b, q, c): v1 exposes a,
  // v2 its third variable, which the fusion maps onto v1's c.
  auto body = [](cq::VarId a, cq::VarId b, cq::VarId c) {
    return std::vector<cq::Atom>{{V(a), C(kP), V(b)}, {V(b), C(kQ), V(c)}};
  };
  State a = StateOf({Def({V(1)}, body(1, 2, 3)), Def({V(6)}, body(4, 5, 6))},
                    0, 7);
  State b = StateOf({Other(10), Def({V(17)}, body(17, 15, 16)),
                     Def({V(12)}, body(14, 13, 12))},
                    6, 18);
  Transition ta;
  ta.kind = TransitionKind::kVF;
  ta.view_idx = 0;
  ta.view_idx2 = 1;
  Transition tb = ta;
  tb.view_idx = 1;
  tb.view_idx2 = 2;
  PreparedTransition recorded = ExpectRebuildMatchesPrepare(a, ta, b, tb);
  EXPECT_EQ(recorded.vf_head, std::vector<cq::VarId>{3});
}

}  // namespace
}  // namespace rdfviews::vsel
