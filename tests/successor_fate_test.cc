// internal::PrepareSuccessor decides a successor's fate before it is
// built. A successor one of whose new views violates an armed stop
// condition is discarded unbuilt, and counted exactly as the full path
// counts it: PrepareTransition and BuildTransition, the AVF closure, then
// the stop check (created 1 + k, transitions_applied 1, discarded k + 1,
// where k is the number of fusions the closure applies). Each discard runs
// once on a fresh outcome table (a miss) and once on a table that recorded
// the same transition on a renamed parent (a hit). A parent passes the
// armed conditions, and the conditions read only view bodies, so no parent
// view shares a BodyKey with a violating new view: a discard fuses at most
// one view, and the case of two new views that fuse with each other and a
// parent view is a successor that is built.
#include <functional>
#include <vector>

#include <gtest/gtest.h>

#include "vsel/search_internal.h"

namespace rdfviews::vsel {
namespace {

using internal::PrepareSuccessor;
using internal::StopConditions;
using internal::UnbuiltCounts;

constexpr rdf::TermId kP = 101;
constexpr rdf::TermId kQ = 102;
constexpr rdf::TermId kC1 = 201;
constexpr rdf::TermId kC2 = 202;

constexpr StopConditions kStopVar{.var = true};
constexpr StopConditions kStopTt{.tt = true};

cq::Term V(cq::VarId v) { return cq::Term::Var(v); }
cq::Term C(rdf::TermId c) { return cq::Term::Const(c); }

cq::ConjunctiveQuery Def(std::vector<cq::Term> head,
                         std::vector<cq::Atom> atoms) {
  return cq::ConjunctiveQuery("q", std::move(head), std::move(atoms));
}

/// A parent's view definitions over the variables from `o` on.
using Defs = std::function<std::vector<cq::ConjunctiveQuery>(cq::VarId o)>;

/// A state holding `defs(o)` as views, in order, with view ids from
/// `first_view_id` and the variable counter past them.
State StateOf(const Defs& defs, cq::VarId o, uint32_t first_view_id) {
  State s;
  s.set_next_view_id(first_view_id);
  for (const cq::ConjunctiveQuery& def : defs(o)) {
    View v;
    v.id = s.FreshViewId();
    v.def = def;
    v.def.set_name(v.Name());
    s.AddView(MakeView(std::move(v)));
  }
  s.set_next_var(o + 50);
  return s;
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

struct Decided {
  SuccessorFate fate;
  SearchStats stats;
  UnbuiltCounts unbuilt;
  PreparedTransition prepared;
};

/// PrepareSuccessor with AVF on, through `table`; `duplicate` is what the
/// seen-set answers.
Decided Decide(const State& parent, const Transition& t,
               const StopConditions& stop, TransitionOutcomeTable* table,
               bool duplicate = false) {
  Decided d;
  d.fate = PrepareSuccessor(
      parent, t, stop, /*avf=*/true,
      [duplicate](const StateFingerprint&) { return duplicate; }, table,
      &d.stats, &d.unbuilt, &d.prepared);
  return d;
}

void ExpectSameStats(const SearchStats& got, const SearchStats& want) {
  EXPECT_EQ(got.created, want.created);
  EXPECT_EQ(got.transitions_applied, want.transitions_applied);
  EXPECT_EQ(got.discarded, want.discarded);
  EXPECT_EQ(got.duplicates, want.duplicates);
  EXPECT_EQ(got.explored, want.explored);
}

/// The full path on the built successor: its AVF closure's fusions, and
/// what that path counts when the closed successor violates `stop`.
SearchStats FullPathDiscardStats(const State& parent, const Transition& t,
                                 const StopConditions& stop,
                                 size_t* fusions) {
  State built = ApplyTransition(parent, t);
  *fusions = CloseUnderVf(&built, TransitionOptions{});
  EXPECT_TRUE(internal::StateViolatesStopConditions(built, stop));
  SearchStats want;
  want.created = 1 + *fusions;
  want.transitions_applied = 1;
  want.discarded = *fusions + 1;
  return want;
}

/// Checks a discard on a miss (parent at variables from 1) and on a hit
/// (the same views renamed, at other view ids, after a table recorded the
/// transition on the first parent), each against the full path.
void ExpectDiscard(const Defs& defs, const Transition& t,
                   const StopConditions& stop, size_t want_fusions) {
  const State a = StateOf(defs, 1, 0);
  const State b = StateOf(defs, 101, 9);
  ASSERT_FALSE(internal::StateViolatesStopConditions(a, stop));
  TransitionOutcomeTable table;
  for (const State* parent : {&a, &b}) {
    SCOPED_TRACE(parent == &a ? "miss" : "hit");
    size_t fusions = 0;
    const SearchStats want = FullPathDiscardStats(*parent, t, stop, &fusions);
    EXPECT_EQ(fusions, want_fusions);
    const Decided d = Decide(*parent, t, stop, &table);
    EXPECT_EQ(d.fate, SuccessorFate::kDiscard);
    ExpectSameStats(d.stats, want);
    EXPECT_EQ(d.unbuilt.discarded, 1u);
    EXPECT_EQ(d.unbuilt.duplicates, 0u);
    EXPECT_EQ(d.prepared.fingerprint,
              ApplyTransition(*parent, t).fingerprint());
  }
  EXPECT_EQ(table.misses(), 1u);
  EXPECT_EQ(table.hits(), 1u);
}

TEST(SuccessorFateTest, SelectionCutToAConstantFreeViewIsDiscarded) {
  // q(x, y) :- t(x, p, y); cutting p leaves no constant. The new view
  // shares its BodyKey with no other view.
  auto defs = [](cq::VarId o) {
    return std::vector<cq::ConjunctiveQuery>{
        Def({V(o), V(o + 1)}, {{V(o), C(kP), V(o + 1)}}),
        Def({V(o + 2)}, {{V(o + 2), C(kQ), C(kC1)}})};
  };
  ExpectDiscard(defs, Sc(0, 0, rdf::Column::kP), kStopVar, 0);
}

TEST(SuccessorFateTest, SplittingJoinCutWithAConstantFreeSideIsDiscarded) {
  // q(x) :- t(x, p, y), t(y, z, w); cutting y at atom 1 splits off the
  // constant-free t(y', z, w).
  auto defs = [](cq::VarId o) {
    return std::vector<cq::ConjunctiveQuery>{
        Def({V(o)}, {{V(o), C(kP), V(o + 1)}, {V(o + 1), V(o + 2), V(o + 3)}}),
        Def({V(o + 4)}, {{V(o + 4), C(kQ), C(kC1)}})};
  };
  ExpectDiscard(defs, Jc(0, {1, rdf::Column::kS}, {0, rdf::Column::kO}),
                kStopVar, 0);
}

TEST(SuccessorFateTest, ViewBreakWhoseOtherHalfFusesWithAParentView) {
  // q(x, w) :- t(x, y, z), t(z, p, w) breaks into the constant-free
  // t(x, y, z) and t(z, p, w), which fuses with the parent's t(a, p, b).
  auto defs = [](cq::VarId o) {
    return std::vector<cq::ConjunctiveQuery>{
        Def({V(o), V(o + 3)},
            {{V(o), V(o + 1), V(o + 2)}, {V(o + 2), C(kP), V(o + 3)}}),
        Def({V(o + 4), V(o + 5)}, {{V(o + 4), C(kP), V(o + 5)}})};
  };
  ExpectDiscard(defs, Vb(0, 0b01, 0b10), kStopVar, 1);
}

TEST(SuccessorFateTest, ViewBreakIntoTwoTripleTablesThatFuse) {
  // Under stop_tt alone, q(x, u) :- t(x, y, z), t(z, w, u) passes (two
  // atoms), and its halves are two triple-table views with isomorphic
  // bodies: both violate, and the closure fuses them.
  auto defs = [](cq::VarId o) {
    return std::vector<cq::ConjunctiveQuery>{
        Def({V(o), V(o + 4)},
            {{V(o), V(o + 1), V(o + 2)}, {V(o + 2), V(o + 3), V(o + 4)}}),
        Def({V(o + 5)}, {{V(o + 5), C(kQ), C(kC2)}})};
  };
  ExpectDiscard(defs, Vb(0, 0b01, 0b10), kStopTt, 1);
}

TEST(SuccessorFateTest, ViewBreakIntoOneTripleTableAndAParentMatch) {
  // Under stop_tt alone: the triple-table half violates, and the other half
  // t(z, p, w) fuses with the parent's t(a, p, b).
  auto defs = [](cq::VarId o) {
    return std::vector<cq::ConjunctiveQuery>{
        Def({V(o), V(o + 3)},
            {{V(o), V(o + 1), V(o + 2)}, {V(o + 2), C(kP), V(o + 3)}}),
        Def({V(o + 4), V(o + 5)}, {{V(o + 4), C(kP), V(o + 5)}})};
  };
  ExpectDiscard(defs, Vb(0, 0b01, 0b10), kStopTt, 1);
}

TEST(SuccessorFateTest, NonViolatingSuccessorIsBuilt) {
  // q(x, z) :- t(x, p, y), t(y, p, z) breaks into t(x, p, y) and
  // t(y, p, z): both keep a constant, and both fuse with each other and
  // with the parent's t(a, p, b), so the built successor's closure applies
  // two fusions.
  auto defs = [](cq::VarId o) {
    return std::vector<cq::ConjunctiveQuery>{
        Def({V(o), V(o + 2)},
            {{V(o), C(kP), V(o + 1)}, {V(o + 1), C(kP), V(o + 2)}}),
        Def({V(o + 3), V(o + 4)}, {{V(o + 3), C(kP), V(o + 4)}})};
  };
  const Transition t = Vb(0, 0b01, 0b10);
  const State a = StateOf(defs, 1, 0);
  const State b = StateOf(defs, 101, 9);
  TransitionOutcomeTable table;
  for (const State* parent : {&a, &b}) {
    SCOPED_TRACE(parent == &a ? "miss" : "hit");
    const Decided d = Decide(*parent, t, kStopVar, &table);
    ASSERT_EQ(d.fate, SuccessorFate::kBuild);
    ExpectSameStats(d.stats, SearchStats{});
    EXPECT_EQ(d.unbuilt.discarded, 0u);
    EXPECT_EQ(d.unbuilt.duplicates, 0u);
    PreparedTransition want;
    PrepareTransition(*parent, t, &want);
    EXPECT_EQ(d.prepared.fingerprint, want.fingerprint);
    EXPECT_EQ(d.prepared.first->def, want.first->def);
    EXPECT_EQ(d.prepared.second->def, want.second->def);
    EXPECT_EQ(internal::AvfFusions(*parent, t, *want.first,
                                   want.second.get()),
              2u);
    State built = BuildTransition(*parent, d.prepared);
    EXPECT_EQ(CloseUnderVf(&built, TransitionOptions{}), 2u);
    EXPECT_FALSE(internal::StateViolatesStopConditions(built, kStopVar));
  }
}

TEST(SuccessorFateTest, KnownDuplicateIsCountedAsADuplicate) {
  auto defs = [](cq::VarId o) {
    return std::vector<cq::ConjunctiveQuery>{
        Def({V(o), V(o + 2)},
            {{V(o), C(kP), V(o + 1)}, {V(o + 1), C(kQ), V(o + 2)}})};
  };
  const State parent = StateOf(defs, 1, 0);
  TransitionOutcomeTable table;
  const Decided d = Decide(parent, Vb(0, 0b01, 0b10), kStopVar, &table,
                           /*duplicate=*/true);
  EXPECT_EQ(d.fate, SuccessorFate::kDuplicate);
  SearchStats want;
  want.created = 1;
  want.transitions_applied = 1;
  want.duplicates = 1;
  ExpectSameStats(d.stats, want);
  EXPECT_EQ(d.unbuilt.duplicates, 1u);
  EXPECT_EQ(d.unbuilt.discarded, 0u);
}

TEST(SuccessorFateTest, StopConditionsAreDisarmedByWhatS0Violates) {
  auto tt = Def({V(1)}, {{V(1), V(2), V(3)}});
  auto constant = Def({V(4)}, {{V(4), C(kP), C(kC1)}});
  auto two_atoms = Def({V(5)}, {{V(5), V(6), V(7)}, {V(7), V(8), V(9)}});
  HeuristicOptions heur;
  heur.stop_var = true;
  heur.stop_tt = true;
  auto arm = [&heur](std::vector<cq::ConjunctiveQuery> defs) {
    return internal::ArmStopConditions(
        StateOf([&defs](cq::VarId) { return defs; }, 0, 0), heur);
  };
  const StopConditions with_tt = arm({constant, tt});
  EXPECT_FALSE(with_tt.var);
  EXPECT_FALSE(with_tt.tt);
  const StopConditions with_free = arm({constant, two_atoms});
  EXPECT_FALSE(with_free.var);
  EXPECT_TRUE(with_free.tt);
  const StopConditions with_constants = arm({constant});
  EXPECT_TRUE(with_constants.var);
  EXPECT_TRUE(with_constants.tt);
  heur.stop_var = false;
  EXPECT_FALSE(arm({constant}).var);
}

}  // namespace
}  // namespace rdfviews::vsel
