// Pins the REC term of hand-built rewritings to committed bit patterns.
// CostModel::EstimateExpr divides a join's cardinality by one factor per
// natural join key, in the iteration order of its per-node distinct-value
// maps, so the order in which a map was filled and copied decides the last
// bits of the estimate. The rewritings below join views sharing three to
// five natural keys, under select, rename, arrange, project and union
// nodes; an estimator that fills, copies or walks those maps in another
// order, or with another bucket count, changes at least one pinned term.
//
// On a mismatch the failure message prints the row the run produced, in
// the table's own syntax.
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "rdf/statistics.h"
#include "rdfviews.h"

namespace rdfviews::vsel {
namespace {

using engine::ArrangeCol;
using engine::Condition;
using engine::Expr;
using engine::ExprPtr;

// Variables of the hand-built views; views sharing a name join on it.
// Many ids share a bucket of a 13-bucket table (a fresh map's first size):
// x, y and a; z, u, k2, k3 and k4; b, c and d. A map with another bucket
// count iterates them in another order.
constexpr cq::VarId kX = 1;
constexpr cq::VarId kW = 2;
constexpr cq::VarId kZ = 3;
constexpr cq::VarId kB = 5;
constexpr cq::VarId kE = 8;
constexpr cq::VarId kY = 14;
constexpr cq::VarId kU = 16;
constexpr cq::VarId kC = 18;
constexpr cq::VarId kD = 31;
constexpr cq::VarId kA = 40;
// Keys of the small views, whose distinct-value bounds are their own
// fractional estimates.
constexpr cq::VarId kK1 = 41;
constexpr cq::VarId kK2 = 29;
constexpr cq::VarId kK3 = 42;
constexpr cq::VarId kK4 = 55;
constexpr cq::VarId kK5 = 6;
// The amplifier views' variables, shared with no other view.
constexpr cq::VarId kAmplifierVars = 100;
constexpr int kAmplifiers = 4;
// The index of the first amplifier among the state's views.
constexpr size_t kFirstAmplifier = 9;
// Fresh names for renames and arranges.
constexpr cq::VarId kX2 = 53;
constexpr cq::VarId kZ2 = 68;
constexpr cq::VarId kOut = 9;

struct Expected {
  const char* name;
  uint64_t rec_bits;
};

// clang-format off
constexpr Expected kExpected[] = {
    {"join3", 0x41c81ecd77692b0b},
    {"join3_join4", 0x415f00ef7f730f9f},
    {"join4_join3", 0x412865091e9ec727},
    {"join4_small", 0x4118119f5c1bab37},
    {"join5_chain", 0x40f20035cc2657ca},
    {"select_join", 0x41212bbf4e9698cf},
    {"rename_join", 0x4162d4e1a7ff7bf3},
    {"arrange_join", 0x41890afe47907a77},
    {"arrange_join_small", 0x4178838b75d723d3},
    {"small_join3", 0x41546a7d49477c11},
    {"small_join3_swapped", 0x41546a7d49477c11},
    {"small_select_join3", 0x413243209178b420},
    {"union", 0x41cbc00f5c0e54b1},
};
// clang-format on

uint64_t Bits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

class RecTermBitsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Subjects, properties and objects come from vocabularies of different
    // sizes, so a variable's distinct-value bound depends on the column it
    // first occurs in.
    Rng rng(911);
    for (int i = 0; i < 600; ++i) {
      store_.Add(Id("s" + std::to_string(rng.Below(41))),
                 Id("p" + std::to_string(rng.Below(7))),
                 Id("o" + std::to_string(rng.Below(17))));
    }
    store_.Build(&dict_);
    stats_ = std::make_unique<rdf::Statistics>(&store_);
    // vA and vB share the natural keys x, y and z, and with vC the key w
    // as well; each key's first occurrence is in another column, so each
    // divides a join by another bound. vD and vE carry constants, so their
    // estimates are small.
    AddView({kX, kZ, kY, kA},  // vA
            {{V(kX), C("p0"), V(kY)}, {V(kY), V(kZ), V(kA)}});
    AddView({kY, kX, kZ, kB, kW},  // vB
            {{V(kB), C("p1"), V(kY)}, {V(kX), C("p2"), V(kB)},
             {V(kB), V(kZ), V(kW)}});
    AddView({kW, kU, kX, kY, kZ, kC},  // vC
            {{V(kU), C("p3"), V(kW)}, {V(kW), C("p4"), V(kX)},
             {V(kX), V(kY), V(kC)}, {V(kC), V(kZ), V(kU)}});
    AddView({kD, kE, kX},  // vD
            {{V(kD), C("p0"), C("o3")}, {V(kD), C("p1"), V(kE)},
             {V(kE), C("p2"), V(kX)}});
    AddView({kU, kW, kZ, kY, kX},  // vE
            {{V(kX), C("p6"), C("o5")}, {V(kY), C("p5"), V(kX)},
             {V(kZ), C("p4"), V(kY)}, {V(kW), C("p3"), V(kZ)},
             {V(kU), C("p2"), V(kW)}});
    // Four small views: P x Q and S x T join on k1, k2 and k3, each bounded
    // by another small view's estimate.
    AddView({kK1, kK4},  // vP
            {{V(kK1), C("p0"), C("o2")}, {V(kK1), C("p1"), V(kK4)}});
    AddView({kK2, kK3},  // vQ
            {{V(kK2), C("p2"), C("o4")}, {V(kK2), C("p3"), V(kK3)}});
    AddView({kK3, kK1},  // vS
            {{V(kK1), C("p4"), C("o6")}, {V(kK3), C("p5"), V(kK1)}});
    AddView({kK2, kK5},  // vT
            {{V(kK2), C("p6"), C("o8")}, {V(kK5), C("p0"), V(kK2)}});
    // The amplifiers share no variable with any view: each one joined to a
    // side of a join multiplies the join's estimate by its own.
    for (int i = 0; i < kAmplifiers; ++i) {
      const cq::VarId g = kAmplifierVars + 2 * i;
      AddView({g, g + 1}, {{V(g), C("p5"), V(g + 1)}});
    }
  }

  static cq::Term V(cq::VarId v) { return cq::Term::Var(v); }
  cq::Term C(const std::string& lexical) {
    return cq::Term::Const(Id(lexical));
  }
  rdf::TermId Id(const std::string& lexical) { return dict_.Intern(lexical); }

  void AddView(const std::vector<cq::VarId>& head,
               std::vector<cq::Atom> atoms) {
    std::vector<cq::Term> head_terms;
    for (cq::VarId v : head) head_terms.push_back(V(v));
    View v;
    v.id = state_.FreshViewId();
    v.def = cq::ConjunctiveQuery("v", std::move(head_terms),
                                 std::move(atoms));
    v.def.set_name(v.Name());
    ASSERT_TRUE(v.def.Validate().ok()) << v.def.ToString();
    state_.AddView(MakeView(std::move(v)));
  }

  ExprPtr Scan(size_t idx) const {
    const View& v = state_.views()[idx];
    return Expr::Scan(v.id, v.Columns());
  }

  /// The rewritings whose REC terms are pinned, by name.
  std::vector<std::pair<std::string, ExprPtr>> Rewritings() {
    std::vector<std::pair<std::string, ExprPtr>> out;
    const ExprPtr a = Scan(0);
    const ExprPtr b = Scan(1);
    const ExprPtr c = Scan(2);
    const ExprPtr d = Scan(3);
    const ExprPtr e = Scan(4);
    // `left` times two amplifiers joined with `right` times two others: the
    // join's estimate dominates the REC term, so its last bits reach the
    // term's.
    auto keyed = [this](ExprPtr left, ExprPtr right,
                        std::vector<std::pair<cq::VarId, cq::VarId>> pairs) {
      for (int i = 0; i < kAmplifiers; ++i) {
        ExprPtr& side = i < kAmplifiers / 2 ? left : right;
        side = Expr::Join(std::move(side), Scan(kFirstAmplifier + i), {});
      }
      return Expr::Join(std::move(left), std::move(right), std::move(pairs));
    };
    // Three natural keys: x, y, z.
    out.emplace_back("join3", Expr::Project(keyed(a, b, {}), {kX, kA, kW}));
    // Four natural keys (x, y, z, w) over a three-key join.
    const ExprPtr ab = Expr::Join(a, b, {});
    const ExprPtr abc = Expr::Join(ab, c, {});
    out.emplace_back("join3_join4",
                     Expr::Project(keyed(ab, c, {}), {kX, kC}));
    // The other association, with an explicit pair next to the keys.
    out.emplace_back("join4_join3",
                     keyed(a, Expr::Join(b, c, {{kB, kC}}), {}));
    // A small side bounds the keys' distinct values.
    out.emplace_back("join4_small", keyed(ab, e, {}));
    out.emplace_back("join5_chain", keyed(e, Expr::Join(d, abc, {}), {}));
    // Selections under and over the joins.
    const ExprPtr sel_b = Expr::Select(
        b, {Condition::Eq(kB, Id("s7")), Condition::EqVar(kY, kZ)});
    out.emplace_back(
        "select_join",
        Expr::Select(keyed(Expr::Join(a, sel_b, {}), c, {}),
                     {Condition::Eq(kX, Id("s2")), Condition::EqVar(kA, kC)}));
    // Renames: the renamed side joins on the keys it keeps, and explicit
    // pairs join the renamed keys back.
    const ExprPtr ren_a = Expr::Rename(a, {{kX, kX2}, {kA, kOut}, {kZ, kZ2}});
    out.emplace_back(
        "rename_join",
        keyed(Expr::Join(ren_a, b, {{kX2, kX}}), c, {{kZ2, kZ}}));
    // Arranges: a constant column, copied keys and a renamed one.
    const ExprPtr arr_c = Expr::Arrange(
        c, {ArrangeCol{false, kX, 0, kX}, ArrangeCol{false, kY, 0, kY},
            ArrangeCol{true, 0, Id("o1"), kOut},
            ArrangeCol{false, kW, 0, kW}, ArrangeCol{false, kZ, 0, kZ2}});
    out.emplace_back("arrange_join", keyed(ab, arr_c, {}));
    out.emplace_back("arrange_join_small",
                     keyed(Expr::Join(arr_c, d, {}), ab, {}));
    // Fractional bounds: the small views' estimates.
    const ExprPtr pq = Expr::Join(Scan(5), Scan(6), {});
    const ExprPtr st = Expr::Join(Scan(7), Scan(8), {});
    out.emplace_back("small_join3", keyed(pq, st, {}));
    out.emplace_back("small_join3_swapped", keyed(st, pq, {}));
    out.emplace_back(
        "small_select_join3",
        keyed(Expr::Select(pq, {Condition::Eq(kK4, Id("o3"))}), st, {}));
    // A union of shapes like the above.
    out.emplace_back(
        "union",
        Expr::Union({Expr::Project(keyed(ab, c, {}), {kX, kY}),
                     Expr::Project(keyed(Expr::Join(ren_a, sel_b, {}), c, {}),
                                   {kX, kY}),
                     Expr::Project(keyed(arr_c, Expr::Join(a, d, {}), {}),
                                   {kX, kY})}));
    return out;
  }

  rdf::Dictionary dict_;
  rdf::TripleStore store_;
  std::unique_ptr<rdf::Statistics> stats_;
  State state_;
};

TEST_F(RecTermBitsTest, RecTermsMatchCommittedBits) {
  size_t checked = 0;
  for (const auto& [name, rewriting] : Rewritings()) {
    // One rewriting per state: its REC is exactly the rewriting's term.
    State s = state_;
    s.SetRewritings({rewriting});
    CostModel model(stats_.get(), CostWeights{});
    const double uncached = model.Rec(s);
    const double cached = model.Breakdown(s).rec;
    char row[128];
    std::snprintf(row, sizeof(row), "{\"%s\", 0x%016" PRIx64 "},",
                  name.c_str(), Bits(uncached));
    SCOPED_TRACE(row);
    EXPECT_GT(uncached, 0.0);
    EXPECT_EQ(Bits(cached), Bits(uncached));
    const Expected* e = nullptr;
    for (const Expected& x : kExpected) {
      if (name == x.name) e = &x;
    }
    if (e == nullptr) {
      ADD_FAILURE() << "no committed row; this run: " << row;
      continue;
    }
    EXPECT_EQ(Bits(uncached), e->rec_bits);
    ++checked;
  }
  EXPECT_EQ(checked, std::size(kExpected));
}

}  // namespace
}  // namespace rdfviews::vsel
