// Incremental-state invariants of the copy-on-write search core:
//  - the fingerprint maintained by the state mutators equals a full
//    recomputation after any sequence of transitions;
//  - fingerprints agree with the (collision-free) string signatures on
//    duplicate detection;
//  - the id->index map stays in sync with the view storage;
//  - the memoized cost model is value-identical to the uncached reference;
//  - a re-based view inherits exactly the keys its offset def would get.
// All verified on randomized transition walks or searches.
#include <gtest/gtest.h>

#include <vector>

#include "common/random.h"
#include "rdf/statistics.h"
#include "test_util.h"
#include "vsel/cost_model.h"
#include "vsel/search.h"
#include "vsel/state.h"
#include "vsel/transitions.h"

namespace rdfviews::vsel {
namespace {

using rdfviews::testing::RandomQuery;
using rdfviews::testing::RandomStore;

class FingerprintWalkTest : public ::testing::TestWithParam<int> {};

void ExpectIndexMapInSync(const State& s) {
  for (size_t i = 0; i < s.views().size(); ++i) {
    EXPECT_EQ(s.ViewIndexById(s.views()[i].id), static_cast<int>(i));
  }
  EXPECT_EQ(s.ViewIndexById(0xdeadbeefu), -1);
}

TEST_P(FingerprintWalkTest, IncrementalFingerprintEqualsRecomputation) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  rdf::Dictionary dict;
  rdf::TripleStore store = RandomStore(&dict, 60, 8, 4, seed);
  Rng rng(seed * 31 + 7);

  std::vector<cq::ConjunctiveQuery> workload;
  for (int i = 0; i < 2; ++i) {
    workload.push_back(RandomQuery(store, 3, 2, rng.raw()));
    workload.back().set_name("q" + std::to_string(i));
  }
  State s = *MakeInitialState(workload);
  EXPECT_EQ(s.fingerprint(), s.RecomputeFingerprint());
  ExpectIndexMapInSync(s);

  rdf::Statistics stats(&store);
  CostModel model(&stats, CostWeights{});
  TransitionOptions topts;

  // Collected (fingerprint, signature) pairs along the walk: fingerprint
  // equality must coincide with signature equality.
  std::vector<std::pair<StateFingerprint, std::string>> trail;
  trail.emplace_back(s.fingerprint(), s.Signature());

  for (int step = 0; step < 25; ++step) {
    // Gather the applicable transitions of every kind and pick one.
    std::vector<Transition> all;
    for (TransitionKind kind : {TransitionKind::kVB, TransitionKind::kSC,
                                TransitionKind::kJC, TransitionKind::kVF}) {
      std::vector<Transition> ts = EnumerateTransitions(s, kind, topts);
      all.insert(all.end(), ts.begin(), ts.end());
    }
    if (all.empty()) break;
    const Transition& t = all[rng.Below(all.size())];
    State next = ApplyTransition(s, t);

    // The tentpole invariant: incremental == full recomputation.
    ASSERT_EQ(next.fingerprint(), next.RecomputeFingerprint())
        << "after " << t.ToString() << " at step " << step;
    ExpectIndexMapInSync(next);

    // The memoized cost equals the uncached reference, term for term.
    CostBreakdown cached = model.Breakdown(next);
    CostBreakdown reference = model.BreakdownUncached(next);
    EXPECT_DOUBLE_EQ(cached.vso, reference.vso);
    EXPECT_DOUBLE_EQ(cached.rec, reference.rec);
    EXPECT_DOUBLE_EQ(cached.vmc, reference.vmc);
    EXPECT_DOUBLE_EQ(cached.total, reference.total);
    // A second memoized evaluation (fully cache-hit) is stable.
    EXPECT_DOUBLE_EQ(model.Breakdown(next).total, cached.total);

    trail.emplace_back(next.fingerprint(), next.Signature());
    s = std::move(next);
  }

  for (size_t i = 0; i < trail.size(); ++i) {
    for (size_t j = i + 1; j < trail.size(); ++j) {
      EXPECT_EQ(trail[i].first == trail[j].first,
                trail[i].second == trail[j].second)
          << "fingerprint/signature disagreement between walk states " << i
          << " and " << j;
    }
  }
}

TEST_P(FingerprintWalkTest, FingerprintIsOrderIndependent) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  rdf::Dictionary dict;
  rdf::TripleStore store = RandomStore(&dict, 60, 8, 4, seed + 1000);
  Rng rng(seed * 13 + 1);

  std::vector<cq::ConjunctiveQuery> workload;
  for (int i = 0; i < 3; ++i) {
    workload.push_back(RandomQuery(store, 2, 2, rng.raw()));
    workload.back().set_name("q" + std::to_string(i));
  }
  State s = *MakeInitialState(workload);

  // Re-adding the same views in a different order yields the same
  // fingerprint (the multiset digest ignores slot order)...
  State shuffled;
  for (size_t i = s.views().size(); i > 0; --i) {
    shuffled.AddView(s.views().ptr(i - 1));
  }
  EXPECT_EQ(shuffled.fingerprint(), s.fingerprint());

  // ...but dropping or duplicating a view changes it.
  State dropped;
  for (size_t i = 0; i + 1 < s.views().size(); ++i) {
    dropped.AddView(s.views().ptr(i));
  }
  EXPECT_NE(dropped.fingerprint(), s.fingerprint());
  // A structurally identical copy under a fresh id (ids are unique within a
  // state) still counts double in the multiset digest.
  View clone;
  clone.id = s.next_view_id();
  clone.def = s.views()[0].def;
  State doubled = s;
  doubled.AddView(MakeView(std::move(clone)));
  EXPECT_NE(doubled.fingerprint(), s.fingerprint());

  // Removal is the exact inverse of addition.
  doubled.RemoveView(doubled.views().size() - 1);
  EXPECT_EQ(doubled.fingerprint(), s.fingerprint());
  EXPECT_EQ(doubled.fingerprint(), doubled.RecomputeFingerprint());
  ExpectIndexMapInSync(doubled);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FingerprintWalkTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88));

// Merge re-bases each partition's views into fresh ids and a shifted
// variable range. View::Rebased copies the memoized keys instead of
// recomputing them; each copied key must equal what a stack View holding
// the offset def computes lazily, without the identity cache.
TEST(RebasedViewTest, InheritsTheKeysOfItsOffsetDef) {
  for (uint64_t seed : {11u, 22u, 33u}) {
    rdf::Dictionary dict;
    rdf::TripleStore store = RandomStore(&dict, 60, 8, 4, seed + 2000);
    Rng rng(seed * 17 + 5);
    std::vector<cq::ConjunctiveQuery> workload;
    for (int i = 0; i < 2; ++i) {
      workload.push_back(RandomQuery(store, 3, 2, rng.raw()));
      workload.back().set_name("q" + std::to_string(i));
    }
    State s0 = *MakeInitialState(workload);
    rdf::Statistics stats(&store);
    CostModel model(&stats, CostWeights{});
    SearchLimits limits;
    limits.max_states = 2000;
    Result<SearchResult> searched =
        RunSearch(StrategyKind::kDfs, s0, model, HeuristicOptions{}, limits);
    ASSERT_TRUE(searched.ok()) << searched.status().ToString();

    for (const State* s : {&s0, &searched->best}) {
      for (const View& v : s->views()) {
        const cq::ConjunctiveQuery source_def = v.def;
        for (cq::VarId offset : {0u, 7u, 1000u}) {
          const uint32_t id = v.id + 100;
          View rebased = v.Rebased(id, offset);
          View fresh;
          fresh.id = id;
          fresh.def = v.def;
          fresh.def.OffsetVars(offset);
          fresh.def.set_name(fresh.Name());

          EXPECT_EQ(rebased.id, id);
          EXPECT_EQ(rebased.def, fresh.def);
          EXPECT_EQ(rebased.def.name(), fresh.def.name());
          EXPECT_EQ(rebased.CanonicalKey(), fresh.CanonicalKey());
          EXPECT_EQ(rebased.BodyKey(), fresh.BodyKey());
          EXPECT_EQ(rebased.StructuralHash(), fresh.StructuralHash());
          EXPECT_EQ(rebased.CostHash(), fresh.CostHash());
          EXPECT_EQ(rebased.CostBodyHash(), fresh.CostBodyHash());
        }
        EXPECT_EQ(v.def, source_def);
        EXPECT_EQ(v.def.name(), source_def.name());
      }
    }
  }
}

// The raw estimators are atom-order-sensitive (join-reduction factors and
// widths anchor on literal first occurrences), so the interner must NOT
// serve one view's estimate for a canonically-equal view whose atoms are
// ordered differently: the cost-cache keys preserve literal atom order.
TEST(CostCacheKeyTest, ReorderedAtomsAreCachedSeparately) {
  rdf::Dictionary dict;
  rdf::TripleStore store;
  auto add = [&](const std::string& s, const std::string& p,
                 const std::string& o) {
    store.Add(dict.Intern(s), dict.Intern(p), dict.Intern(o));
  };
  // Highly skewed per-property cardinalities so that the anchor choice in
  // the join-reduction formula matters.
  for (int i = 0; i < 25; ++i) {
    add("s" + std::to_string(i), "p1", "o" + std::to_string(i));
  }
  for (int i = 0; i < 5; ++i) {
    add("s" + std::to_string(i), "p2", "o" + std::to_string(i));
  }
  add("s0", "p3", "o0");
  store.Build(&dict);
  rdf::Statistics stats(&store);
  CostModel model(&stats, CostWeights{});

  cq::ConjunctiveQuery forward = rdfviews::testing::MustParse(
      "v(X) :- t(X, p1, Y1), t(X, p2, Y2), t(X, p3, Y3)", &dict);
  cq::ConjunctiveQuery reversed = rdfviews::testing::MustParse(
      "v(X) :- t(X, p3, Y3), t(X, p2, Y2), t(X, p1, Y1)", &dict);

  View vf;
  vf.id = 0;
  vf.def = forward;
  View vr;
  vr.id = 1;
  vr.def = reversed;

  // Same canonical body (isomorphic up to atom order)...
  ASSERT_EQ(vf.BodyKey(), vr.BodyKey());
  // ...but the raw estimates differ in this skewed store, which is exactly
  // why the cache keys must be order-sensitive.
  ASSERT_NE(model.ViewCardinality(vf.def), model.ViewCardinality(vr.def));
  EXPECT_NE(vf.CostBodyHash(), vr.CostBodyHash());

  // Warm the cache with the forward view, then demand the reversed one:
  // each must get its own exact raw-estimator value.
  EXPECT_DOUBLE_EQ(model.CachedViewCardinality(vf),
                   model.ViewCardinality(vf.def));
  EXPECT_DOUBLE_EQ(model.CachedViewCardinality(vr),
                   model.ViewCardinality(vr.def));
  EXPECT_DOUBLE_EQ(model.CachedViewBytes(vf), model.ViewBytes(vf));
  EXPECT_DOUBLE_EQ(model.CachedViewBytes(vr), model.ViewBytes(vr));

  // Renaming-insensitivity still holds: the same literal order under fresh
  // variable names shares the cache entry.
  cq::ConjunctiveQuery renamed = rdfviews::testing::MustParse(
      "v(A) :- t(A, p1, B1), t(A, p2, B2), t(A, p3, B3)", &dict);
  View vn;
  vn.id = 2;
  vn.def = renamed;
  EXPECT_EQ(vn.CostBodyHash(), vf.CostBodyHash());
  EXPECT_EQ(vn.CostHash(), vf.CostHash());
}

}  // namespace
}  // namespace rdfviews::vsel
