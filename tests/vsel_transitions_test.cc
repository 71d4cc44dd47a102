#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "cq/containment.h"
#include "engine/executor.h"
#include "engine/materializer.h"
#include "rdf/vocabulary.h"
#include "reform/reformulate.h"
#include "test_util.h"
#include "vsel/transitions.h"

namespace rdfviews::vsel {
namespace {

using rdfviews::testing::MustParse;
using rdfviews::testing::PaintersFixture;
using rdfviews::testing::RandomQuery;
using rdfviews::testing::RandomSchema;
using rdfviews::testing::RandomStore;

void ExpectStateAnswersWorkload(
    const State& state, const std::vector<cq::ConjunctiveQuery>& workload,
    const rdf::TripleStore& store, const std::string& context) {
  std::map<uint32_t, engine::Relation> mats;
  for (const View& v : state.views()) {
    mats[v.id] = engine::MaterializeView(v.def, v.Columns(), store);
  }
  auto resolver = [&](uint32_t id) -> const engine::Relation& {
    return mats.at(id);
  };
  for (size_t i = 0; i < workload.size(); ++i) {
    engine::Relation got = engine::Execute(*state.rewritings()[i], resolver);
    got.DedupRows();
    engine::Relation expected = engine::EvaluateQuery(workload[i], store);
    EXPECT_TRUE(expected.SameRowsAs(got))
        << context << "\nquery " << i << ": " << workload[i].ToString()
        << "\nstate:\n"
        << state.ToString();
  }
}

// ----------------------------------------------------------- Selection Cut

TEST(TransitionTest, SelectionCutAddsHeadVarAndSelection) {
  rdf::Dictionary dict;
  auto workload = std::vector<cq::ConjunctiveQuery>{
      MustParse("q(X) :- t(X, hasPainted, starryNight)", &dict)};
  State s0 = *MakeInitialState(workload);
  TransitionOptions topts;
  std::vector<Transition> scs =
      EnumerateTransitions(s0, TransitionKind::kSC, topts);
  ASSERT_EQ(scs.size(), 2u);  // property + object constants
  // Cut the object constant.
  State s1 = ApplyTransition(s0, scs[1]);
  ASSERT_EQ(s1.views().size(), 1u);
  EXPECT_EQ(s1.views()[0].def.head().size(), 2u);
  EXPECT_EQ(s1.views()[0].def.NumConstants(), 1u);
}

TEST(TransitionTest, SelectionCutPreservesAnswers) {
  PaintersFixture fx;
  auto workload = std::vector<cq::ConjunctiveQuery>{MustParse(
      "q(X) :- t(X, hasPainted, starryNight), t(X, isParentOf, Y)",
      &fx.dict)};
  State s0 = *MakeInitialState(workload);
  TransitionOptions topts;
  for (const Transition& t :
       EnumerateTransitions(s0, TransitionKind::kSC, topts)) {
    State s1 = ApplyTransition(s0, t);
    ExpectStateAnswersWorkload(s1, workload, fx.store, t.ToString());
  }
}

// ----------------------------------------------------------------- Join Cut

TEST(TransitionTest, JoinCutSplitsDisconnectedView) {
  rdf::Dictionary dict;
  auto workload = std::vector<cq::ConjunctiveQuery>{
      MustParse("q(Y, Z) :- t(X, Y, c1), t(X, Z, c2)", &dict)};
  State s0 = *MakeInitialState(workload);
  TransitionOptions topts;
  std::vector<Transition> jcs =
      EnumerateTransitions(s0, TransitionKind::kJC, topts);
  ASSERT_EQ(jcs.size(), 2u);  // one edge, two orientations
  State s1 = ApplyTransition(s0, jcs[0]);
  EXPECT_EQ(s1.views().size(), 2u);  // the view split (Figure 3, V1)
  for (const View& v : s1.views()) {
    EXPECT_EQ(v.def.len(), 1u);
    EXPECT_EQ(v.def.head().size(), 2u);
  }
}

TEST(TransitionTest, JoinCutKeepsConnectedViewWithSelection) {
  rdf::Dictionary dict;
  // Triangle: cutting one edge leaves the view connected.
  auto workload = std::vector<cq::ConjunctiveQuery>{MustParse(
      "q(X) :- t(X, p1, Y), t(Y, p2, Z), t(Z, p3, X)", &dict)};
  State s0 = *MakeInitialState(workload);
  TransitionOptions topts;
  std::vector<Transition> jcs =
      EnumerateTransitions(s0, TransitionKind::kJC, topts);
  EXPECT_EQ(jcs.size(), 6u);  // 3 edges x 2 orientations
  State s1 = ApplyTransition(s0, jcs[0]);
  EXPECT_EQ(s1.views().size(), 1u);
  // The fresh variable joined the head along with the cut variable.
  EXPECT_GE(s1.views()[0].def.head().size(), 3u);
}

TEST(TransitionTest, JoinCutPreservesAnswersBothCases) {
  PaintersFixture fx;
  auto workload = std::vector<cq::ConjunctiveQuery>{
      MustParse("q(X, Z) :- t(X, isParentOf, Y), t(Y, hasPainted, Z)",
                &fx.dict),
      MustParse("q2(X) :- t(X, hasPainted, Y), t(X, isParentOf, Z)",
                &fx.dict)};
  State s0 = *MakeInitialState(workload);
  TransitionOptions topts;
  for (const Transition& t :
       EnumerateTransitions(s0, TransitionKind::kJC, topts)) {
    State s1 = ApplyTransition(s0, t);
    ExpectStateAnswersWorkload(s1, workload, fx.store, t.ToString());
  }
}

TEST(TransitionTest, JoinCutOnIntraAtomEdge) {
  rdf::Dictionary dict;
  rdf::TripleStore store;
  rdf::TermId p = dict.Intern("p");
  store.Add(dict.Intern("a"), p, dict.Intern("a"));
  store.Add(dict.Intern("b"), p, dict.Intern("c"));
  store.Build(&dict);
  auto workload = std::vector<cq::ConjunctiveQuery>{
      MustParse("q(X) :- t(X, p, X)", &dict)};
  State s0 = *MakeInitialState(workload);
  TransitionOptions topts;
  std::vector<Transition> jcs =
      EnumerateTransitions(s0, TransitionKind::kJC, topts);
  ASSERT_EQ(jcs.size(), 2u);
  for (const Transition& t : jcs) {
    State s1 = ApplyTransition(s0, t);
    EXPECT_EQ(s1.views().size(), 1u);
    ExpectStateAnswersWorkload(s1, workload, store, t.ToString());
  }
}

// --------------------------------------------------------------- View Break

TEST(TransitionTest, ViewBreakRequiresThreeAtoms) {
  rdf::Dictionary dict;
  auto workload = std::vector<cq::ConjunctiveQuery>{
      MustParse("q(X, Z) :- t(X, p, Y), t(Y, q, Z)", &dict)};
  State s0 = *MakeInitialState(workload);
  TransitionOptions topts;
  EXPECT_TRUE(EnumerateTransitions(s0, TransitionKind::kVB, topts).empty());
}

TEST(TransitionTest, ViewBreakPartitionsAndOverlaps) {
  rdf::Dictionary dict;
  auto workload = std::vector<cq::ConjunctiveQuery>{MustParse(
      "q(X, Z) :- t(X, p1, Y), t(Y, p2, Z), t(Z, p3, W)", &dict)};
  State s0 = *MakeInitialState(workload);
  TransitionOptions partition_only;
  partition_only.vb_overlap = 0;
  std::vector<Transition> parts =
      EnumerateTransitions(s0, TransitionKind::kVB, partition_only);
  // Chain of 3: {0}/{1,2} and {0,1}/{2} are the connected partitions.
  EXPECT_EQ(parts.size(), 2u);
  TransitionOptions with_overlap;  // default overlap 1
  std::vector<Transition> all =
      EnumerateTransitions(s0, TransitionKind::kVB, with_overlap);
  EXPECT_GT(all.size(), parts.size());
}

TEST(TransitionTest, ViewBreakPreservesAnswers) {
  PaintersFixture fx;
  auto workload = std::vector<cq::ConjunctiveQuery>{MustParse(
      "q1(X, Z) :- t(X, hasPainted, starryNight), t(X, isParentOf, Y), "
      "t(Y, hasPainted, Z)",
      &fx.dict)};
  State s0 = *MakeInitialState(workload);
  TransitionOptions topts;
  std::vector<Transition> vbs =
      EnumerateTransitions(s0, TransitionKind::kVB, topts);
  EXPECT_GT(vbs.size(), 0u);
  for (const Transition& t : vbs) {
    State s1 = ApplyTransition(s0, t);
    EXPECT_EQ(s1.views().size(), 2u);
    ExpectStateAnswersWorkload(s1, workload, fx.store, t.ToString());
  }
}

// --------------------------------------------------------------- View Fusion

TEST(TransitionTest, ViewFusionMergesIsomorphicBodies) {
  rdf::Dictionary dict;
  auto workload = std::vector<cq::ConjunctiveQuery>{
      MustParse("q1(X) :- t(X, p, Y)", &dict),
      MustParse("q2(B) :- t(A, p, B)", &dict)};
  State s0 = *MakeInitialState(workload);
  TransitionOptions topts;
  std::vector<Transition> vfs =
      EnumerateTransitions(s0, TransitionKind::kVF, topts);
  ASSERT_EQ(vfs.size(), 1u);
  State s1 = ApplyTransition(s0, vfs[0]);
  EXPECT_EQ(s1.views().size(), 1u);
  // Fused head covers both original heads: subject (q1) and object (q2).
  EXPECT_EQ(s1.views()[0].def.head().size(), 2u);
}

TEST(TransitionTest, ViewFusionPreservesAnswers) {
  PaintersFixture fx;
  auto workload = std::vector<cq::ConjunctiveQuery>{
      MustParse("q1(X) :- t(X, hasPainted, Y)", &fx.dict),
      MustParse("q2(B) :- t(A, hasPainted, B)", &fx.dict)};
  State s0 = *MakeInitialState(workload);
  TransitionOptions topts;
  std::vector<Transition> vfs =
      EnumerateTransitions(s0, TransitionKind::kVF, topts);
  ASSERT_EQ(vfs.size(), 1u);
  State s1 = ApplyTransition(s0, vfs[0]);
  ExpectStateAnswersWorkload(s1, workload, fx.store, "VF");
}

TEST(TransitionTest, NoFusionForDifferentConstants) {
  rdf::Dictionary dict;
  auto workload = std::vector<cq::ConjunctiveQuery>{
      MustParse("q1(X) :- t(X, p, c1)", &dict),
      MustParse("q2(X) :- t(X, p, c2)", &dict)};
  State s0 = *MakeInitialState(workload);
  TransitionOptions topts;
  EXPECT_TRUE(EnumerateTransitions(s0, TransitionKind::kVF, topts).empty());
}

TEST(TransitionTest, AvfClosureFusesAll) {
  rdf::Dictionary dict;
  auto workload = std::vector<cq::ConjunctiveQuery>{
      MustParse("q1(X) :- t(X, p, Y)", &dict),
      MustParse("q2(X) :- t(X, p, Y)", &dict),
      MustParse("q3(Y) :- t(X, p, Y)", &dict)};
  State s0 = *MakeInitialState(workload);
  TransitionOptions topts;
  size_t steps = 0;
  State closed = AvfClosure(s0, topts, &steps);
  EXPECT_EQ(closed.views().size(), 1u);
  EXPECT_EQ(steps, 2u);
  EXPECT_EQ(closed.rewritings().size(), 3u);
}

// ------------------------------------------------ Figure 1 walkthrough

TEST(TransitionTest, Figure1Walkthrough) {
  PaintersFixture fx;
  auto workload = std::vector<cq::ConjunctiveQuery>{MustParse(
      "q1(X, Z) :- t(X, hasPainted, starryNight), t(X, isParentOf, Y), "
      "t(Y, hasPainted, Z)",
      &fx.dict)};
  State s0 = *MakeInitialState(workload);
  TransitionOptions topts;

  // S0 -> S1: overlapping view break v2 = {n1, n2}, v3 = {n2, n3}.
  Transition vb;
  vb.kind = TransitionKind::kVB;
  vb.view_idx = 0;
  vb.vb_mask_a = 0b011;
  vb.vb_mask_b = 0b110;
  State s1 = ApplyTransition(s0, vb);
  ASSERT_EQ(s1.views().size(), 2u);
  ExpectStateAnswersWorkload(s1, workload, fx.store, "S1");

  // S1 -> S2: selection cut on the starryNight constant of v2.
  std::vector<Transition> scs =
      EnumerateTransitions(s1, TransitionKind::kSC, topts);
  rdf::TermId starry = *fx.dict.Find("starryNight");
  Transition sc;
  bool found = false;
  for (const Transition& t : scs) {
    const View& v = s1.views()[t.view_idx];
    cq::Term term =
        v.def.atoms()[t.sc_occurrence.atom].at(t.sc_occurrence.column);
    if (term.is_const() && term.constant() == starry) {
      sc = t;
      found = true;
      break;
    }
  }
  ASSERT_TRUE(found);
  State s2 = ApplyTransition(s1, sc);
  ExpectStateAnswersWorkload(s2, workload, fx.store, "S2");

  // S2 -> S3: two join cuts split both 2-atom views into 4 single-atom
  // views (v5, v6, v7, v8 in the paper).
  State s3 = s2;
  for (int round = 0; round < 2; ++round) {
    std::vector<Transition> jcs =
        EnumerateTransitions(s3, TransitionKind::kJC, topts);
    bool applied = false;
    for (const Transition& t : jcs) {
      if (s3.views()[t.view_idx].def.len() == 2) {
        s3 = ApplyTransition(s3, t);
        applied = true;
        break;
      }
    }
    ASSERT_TRUE(applied);
  }
  ASSERT_EQ(s3.views().size(), 4u);
  ExpectStateAnswersWorkload(s3, workload, fx.store, "S3");

  // S3 -> S4: two view fusions (v5~v8 hasPainted, v6~v7 isParentOf).
  size_t steps = 0;
  State s4 = AvfClosure(s3, topts, &steps);
  EXPECT_EQ(steps, 2u);
  EXPECT_EQ(s4.views().size(), 2u);
  ExpectStateAnswersWorkload(s4, workload, fx.store, "S4");
}

// ---------------------------- Random-walk equivalence (the key invariant)

class TransitionWalkTest : public ::testing::TestWithParam<int> {};

TEST_P(TransitionWalkTest, RandomTransitionWalksPreserveEquivalence) {
  rdf::Dictionary dict;
  rdf::TripleStore store = RandomStore(&dict, 60, 10, 4, GetParam());
  Rng rng(GetParam() * 7 + 3);
  std::vector<cq::ConjunctiveQuery> workload;
  for (int i = 0; i < 2; ++i) {
    workload.push_back(RandomQuery(store, 2 + rng.Below(3), 2, rng.raw()));
    workload.back().set_name("q" + std::to_string(i));
  }
  Result<State> s0 = MakeInitialState(workload);
  ASSERT_TRUE(s0.ok()) << s0.status().ToString();

  TransitionOptions topts;
  State current = *s0;
  for (int step = 0; step < 10; ++step) {
    std::vector<Transition> all;
    for (TransitionKind kind :
         {TransitionKind::kVB, TransitionKind::kSC, TransitionKind::kJC,
          TransitionKind::kVF}) {
      std::vector<Transition> ts = EnumerateTransitions(current, kind, topts);
      all.insert(all.end(), ts.begin(), ts.end());
    }
    if (all.empty()) break;
    const Transition& t = all[rng.Below(all.size())];
    current = ApplyTransition(current, t);
    ExpectStateAnswersWorkload(current, workload, store,
                               "step " + std::to_string(step) + " " +
                                   t.ToString());
  }
}

/// The views of `state` with an id of at least `first_id` (a transition's
/// new views draw ids from the parent's counter) that cq::Minimize would
/// shrink, as text.
std::vector<std::string> NonMinimalViews(const State& state,
                                         uint32_t first_id) {
  std::vector<std::string> out;
  for (const View& v : state.views()) {
    if (v.id >= first_id &&
        cq::Minimize(v.def).atoms().size() != v.def.atoms().size()) {
      out.push_back(v.def.ToString());
    }
  }
  return out;
}

TEST_P(TransitionWalkTest, WalksReachOnlyMinimalViews) {
  // Random walks over all four transition kinds, with and without AVF
  // closing every state, from the plain and the pre-reformulated S0: the
  // successors drawn at every state a walk visits hold only minimal views,
  // as MakeSubView's comment argues.
  rdf::Dictionary dict;
  rdf::Schema schema = RandomSchema(&dict, 5, 4, GetParam());
  rdf::TripleStore store = RandomStore(&dict, 60, 10, 4, GetParam());
  Rng rng(GetParam() * 11 + 5);
  // A view whose VB sub-views fold unless their shared variables stay in
  // the head: {t(X, p0, Y), t(X, p0, Z)} without Z would fold onto one atom.
  std::vector<cq::ConjunctiveQuery> workload = {
      MustParse("qf(X, Y) :- t(X, p0, Y), t(X, p0, Z), t(Z, p1, W)", &dict)};
  for (int i = 0; i < 3; ++i) {
    cq::ConjunctiveQuery q =
        RandomQuery(store, 2 + rng.Below(3), 2, rng.raw());
    if (i != 1) {
      // An rdf:type atom lets the schema's class rules fire.
      cq::Atom type_atom;
      type_atom.s = cq::Term::Var(q.BodyVars()[0]);
      type_atom.p = cq::Term::Const(rdf::kRdfType);
      type_atom.o = cq::Term::Const(
          dict.Intern("c" + std::to_string(rng.Below(5))));
      q.mutable_atoms()->push_back(type_atom);
    }
    q.set_name("q" + std::to_string(i));
    workload.push_back(std::move(q));
  }
  std::vector<cq::UnionOfQueries> reformulated;
  for (const cq::ConjunctiveQuery& q : workload) {
    reform::ReformulationResult r = reform::Reformulate(q, schema);
    ASSERT_TRUE(r.complete);
    reformulated.push_back(std::move(r.ucq));
  }
  Result<State> plain = MakeInitialState(workload);
  Result<State> pre = MakeReformulatedInitialState(workload, reformulated);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  ASSERT_TRUE(pre.ok()) << pre.status().ToString();

  const TransitionOptions topts;
  size_t successors = 0;
  for (const State* s0 : {&*plain, &*pre}) {
    for (bool avf : {false, true}) {
      SCOPED_TRACE(std::string(s0 == &*plain ? "plain" : "pre") +
                   (avf ? " S0, AVF" : " S0"));
      size_t fused = 0;
      State current = avf ? AvfClosure(*s0, topts, &fused) : *s0;
      EXPECT_EQ(NonMinimalViews(current, 0), std::vector<std::string>{});
      for (int step = 0; step < 6; ++step) {
        std::vector<Transition> all;
        for (TransitionKind kind :
             {TransitionKind::kVB, TransitionKind::kSC, TransitionKind::kJC,
              TransitionKind::kVF}) {
          std::vector<Transition> ts =
              EnumerateTransitions(current, kind, topts);
          all.insert(all.end(), ts.begin(), ts.end());
        }
        if (all.empty()) break;
        // Up to 12 successors per visited state, drawn at random; the walk
        // continues from one of them.
        std::vector<State> next;
        for (size_t n = 0; n < std::min<size_t>(all.size(), 12); ++n) {
          const Transition& t = all[rng.Below(all.size())];
          next.push_back(ApplyTransition(current, t));
          if (avf) next.back() = AvfClosure(next.back(), topts, &fused);
          ++successors;
          EXPECT_EQ(NonMinimalViews(next.back(), current.next_view_id()),
                    std::vector<std::string>{})
              << "step " << step << " " << t.ToString();
        }
        current = std::move(next[rng.Below(next.size())]);
      }
    }
  }
  EXPECT_GT(successors, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TransitionWalkTest,
                         ::testing::Values(21, 42, 63, 84, 105, 126, 147,
                                           168));

}  // namespace
}  // namespace rdfviews::vsel
