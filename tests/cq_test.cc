#include <gtest/gtest.h>

#include <algorithm>

#include "cq/canonical.h"
#include "cq/containment.h"
#include "cq/parser.h"
#include "cq/query.h"
#include "cq/ucq.h"
#include "rdf/vocabulary.h"
#include "test_util.h"

namespace rdfviews::cq {
namespace {

using rdfviews::testing::MustParse;

// -------------------------------------------------------------------- Parser

TEST(ParserTest, PaperRunningExampleQ1) {
  rdf::Dictionary dict;
  ConjunctiveQuery q = MustParse(
      "q1(X, Z) :- t(X, hasPainted, starryNight), t(X, isParentOf, Y), "
      "t(Y, hasPainted, Z)",
      &dict);
  EXPECT_EQ(q.name(), "q1");
  EXPECT_EQ(q.len(), 3u);
  EXPECT_EQ(q.head().size(), 2u);
  EXPECT_EQ(q.NumConstants(), 4u);  // 3 properties + starryNight
  EXPECT_EQ(q.ExistentialVars().size(), 1u);  // Y
}

TEST(ParserTest, VariablesAreUppercaseOrQuestionMarked) {
  rdf::Dictionary dict;
  ConjunctiveQuery q =
      MustParse("q(X) :- t(X, p, lowercase), t(X, q, ?also_var)", &dict);
  EXPECT_EQ(q.BodyVars().size(), 2u);
  EXPECT_EQ(q.NumConstants(), 3u);
}

TEST(ParserTest, QuotedLiteralsAndUris) {
  rdf::Dictionary dict;
  ConjunctiveQuery q = MustParse(
      "q(X) :- t(X, <http://ex.org/name>, \"Jane\")", &dict);
  EXPECT_EQ(q.atoms()[0].p.is_const(), true);
  EXPECT_EQ(dict.Kind(q.atoms()[0].o.constant()), rdf::TermKind::kLiteral);
}

TEST(ParserTest, RdfTypeNormalization) {
  rdf::Dictionary dict;
  ConjunctiveQuery q = MustParse(
      "q(X) :- t(X, <http://www.w3.org/1999/02/22-rdf-syntax-ns#type>, c)",
      &dict);
  EXPECT_EQ(q.atoms()[0].p.constant(), rdf::kRdfType);
}

TEST(ParserTest, RejectsMalformedQueries) {
  rdf::Dictionary dict;
  EXPECT_FALSE(ParseDatalog("q(X) :- ", &dict).ok());
  EXPECT_FALSE(ParseDatalog("q(X) t(X, p, o)", &dict).ok());
  EXPECT_FALSE(ParseDatalog("q(X) :- s(X, p, o)", &dict).ok());
  // Head variable not in body.
  EXPECT_FALSE(ParseDatalog("q(Z) :- t(X, p, Y)", &dict).ok());
  // Three constants in one atom.
  EXPECT_FALSE(ParseDatalog("q(X) :- t(a, b, c), t(X, p, a)", &dict).ok());
}

TEST(ParserTest, ProgramParsesMultipleQueries) {
  rdf::Dictionary dict;
  auto r = ParseDatalogProgram(
      "# workload\n"
      "q1(X) :- t(X, p, o1)\n"
      "q2(X, Y) :- t(X, p, Y),\n"
      "            t(Y, q, o2)\n",
      &dict);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->size(), 2u);
  EXPECT_EQ((*r)[0].name(), "q1");
  EXPECT_EQ((*r)[1].len(), 2u);
}

TEST(ParserTest, SparqlBasicGraphPattern) {
  rdf::Dictionary dict;
  auto r = ParseSparql(
      "SELECT ?x ?z WHERE { ?x hasPainted starryNight . "
      "?x isParentOf ?y . ?y hasPainted ?z }",
      &dict);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->len(), 3u);
  EXPECT_EQ(r->head().size(), 2u);
}

TEST(ParserTest, SparqlAKeyword) {
  rdf::Dictionary dict;
  auto r = ParseSparql("SELECT ?x WHERE { ?x a painting }", &dict);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->atoms()[0].p.constant(), rdf::kRdfType);
}

TEST(ParserTest, SparqlRejectsUnboundSelect) {
  rdf::Dictionary dict;
  EXPECT_FALSE(ParseSparql("SELECT ?z WHERE { ?x p ?y }", &dict).ok());
}

TEST(ParserTest, SparqlAndDatalogAgree) {
  rdf::Dictionary dict;
  ConjunctiveQuery a = MustParse("q(X) :- t(X, p, c)", &dict);
  auto b = ParseSparql("SELECT ?x WHERE { ?x p c }", &dict);
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(AreEquivalent(a, *b));
}

// --------------------------------------------------------------------- Query

TEST(QueryTest, ConnectedComponents) {
  rdf::Dictionary dict;
  ConjunctiveQuery q =
      MustParse("q(X, A) :- t(X, p, Y), t(Y, q, Z), t(A, r, B)", &dict);
  auto comps = q.ConnectedComponents();
  EXPECT_EQ(comps.size(), 2u);
  EXPECT_TRUE(q.HasCartesianProduct());
  auto split = q.SplitIntoConnectedQueries();
  ASSERT_EQ(split.size(), 2u);
  EXPECT_EQ(split[0].len() + split[1].len(), 3u);
}

TEST(QueryTest, SubstituteBindsEverywhere) {
  rdf::Dictionary dict;
  ConjunctiveQuery q = MustParse("q(X, Y) :- t(X, p, Y), t(Y, q, X)", &dict);
  VarId y = q.head()[1].var();
  rdf::TermId c = dict.Intern("c");
  q.Substitute(y, Term::Const(c));
  EXPECT_TRUE(q.head()[1].is_const());
  EXPECT_EQ(q.atoms()[0].o.constant(), c);
  EXPECT_EQ(q.atoms()[1].s.constant(), c);
}

TEST(QueryTest, VarOccurrencesTracksAll) {
  rdf::Dictionary dict;
  ConjunctiveQuery q =
      MustParse("q(X) :- t(X, p, Y), t(X, q, Z), t(Z, r, X)", &dict);
  auto occs = q.VarOccurrences();
  VarId x = q.head()[0].var();
  EXPECT_EQ(occs[x].size(), 3u);
}

TEST(QueryTest, OffsetVars) {
  rdf::Dictionary dict;
  ConjunctiveQuery q = MustParse("q(X) :- t(X, p, Y)", &dict);
  VarId before = q.MaxVarId();
  q.OffsetVars(100);
  EXPECT_EQ(q.MaxVarId(), before + 100);
}

TEST(QueryTest, ToStringShowsStructure) {
  rdf::Dictionary dict;
  ConjunctiveQuery q = MustParse("q(X) :- t(X, hasPainted, starryNight)",
                                 &dict);
  std::string s = q.ToString(&dict);
  EXPECT_NE(s.find("hasPainted"), std::string::npos);
  EXPECT_NE(s.find("starryNight"), std::string::npos);
  EXPECT_NE(s.find(":-"), std::string::npos);
}

// --------------------------------------------------------------- Containment

TEST(ContainmentTest, IdentityMapping) {
  rdf::Dictionary dict;
  ConjunctiveQuery q = MustParse("q(X) :- t(X, p, Y), t(Y, q, Z)", &dict);
  EXPECT_TRUE(Contains(q, q));
  EXPECT_TRUE(AreEquivalent(q, q));
}

TEST(ContainmentTest, MoreSpecificIsContained) {
  rdf::Dictionary dict;
  ConjunctiveQuery general = MustParse("q(X) :- t(X, p, Y)", &dict);
  ConjunctiveQuery specific = MustParse("q(X) :- t(X, p, c)", &dict);
  EXPECT_TRUE(Contains(general, specific));   // specific ⊑ general
  EXPECT_FALSE(Contains(specific, general));
}

TEST(ContainmentTest, HeadsMustAlign) {
  rdf::Dictionary dict;
  ConjunctiveQuery a = MustParse("q(X) :- t(X, p, Y)", &dict);
  ConjunctiveQuery b = MustParse("q(Y) :- t(X, p, Y)", &dict);
  EXPECT_FALSE(Contains(a, b));
  EXPECT_FALSE(Contains(b, a));
}

TEST(ContainmentTest, EquivalentUpToRenaming) {
  rdf::Dictionary dict;
  ConjunctiveQuery a = MustParse("q(X) :- t(X, p, Y), t(Y, p, Z)", &dict);
  ConjunctiveQuery b = MustParse("q(A) :- t(B, p, C), t(A, p, B)", &dict);
  EXPECT_TRUE(AreEquivalent(a, b));
}

TEST(ContainmentTest, ChainFoldsIntoCycle) {
  rdf::Dictionary dict;
  // The 2-chain maps homomorphically into the 1-loop.
  ConjunctiveQuery chain = MustParse("q(X) :- t(X, p, Y), t(Y, p, Z)", &dict);
  ConjunctiveQuery loop = MustParse("q(X) :- t(X, p, X)", &dict);
  EXPECT_TRUE(Contains(chain, loop));  // loop ⊑ chain
  EXPECT_FALSE(Contains(loop, chain));
}

TEST(MinimizeTest, RedundantAtomRemoved) {
  rdf::Dictionary dict;
  // t(X, p, Z) folds onto t(X, p, Y): redundant.
  ConjunctiveQuery q = MustParse("q(X) :- t(X, p, Y), t(X, p, Z)", &dict);
  ConjunctiveQuery m = Minimize(q);
  EXPECT_EQ(m.len(), 1u);
  EXPECT_TRUE(AreEquivalent(q, m));
  EXPECT_TRUE(IsMinimal(m));
}

TEST(MinimizeTest, HeadVariablesBlockFolding) {
  rdf::Dictionary dict;
  // Y and Z are both head vars: nothing can fold.
  ConjunctiveQuery q = MustParse("q(X, Y, Z) :- t(X, p, Y), t(X, p, Z)",
                                 &dict);
  EXPECT_EQ(Minimize(q).len(), 2u);
  EXPECT_TRUE(IsMinimal(q));
}

TEST(MinimizeTest, LongChainWithConstant) {
  rdf::Dictionary dict;
  ConjunctiveQuery q = MustParse(
      "q(X) :- t(X, p, Y), t(X, p, Z), t(Z, q, c), t(Y, q, c)", &dict);
  ConjunctiveQuery m = Minimize(q);
  EXPECT_EQ(m.len(), 2u);
  EXPECT_TRUE(AreEquivalent(q, m));
}

// ----------------------------------------------------------------- Canonical

TEST(CanonicalTest, InvariantUnderRenamingAndPermutation) {
  rdf::Dictionary dict;
  ConjunctiveQuery a = MustParse(
      "q(X) :- t(X, p1, Y), t(Y, p2, Z), t(X, p3, Z)", &dict);
  ConjunctiveQuery b = MustParse(
      "q(A) :- t(A, p3, C), t(B, p2, C), t(A, p1, B)", &dict);
  EXPECT_EQ(CanonicalString(a, true), CanonicalString(b, true));
  EXPECT_EQ(CanonicalString(a, false), CanonicalString(b, false));
}

TEST(CanonicalTest, DistinguishesNonIsomorphic) {
  rdf::Dictionary dict;
  ConjunctiveQuery a = MustParse("q(X) :- t(X, p, Y), t(Y, p, Z)", &dict);
  ConjunctiveQuery b = MustParse("q(X) :- t(X, p, Y), t(Z, p, Y)", &dict);
  EXPECT_NE(CanonicalString(a, true), CanonicalString(b, true));
}

TEST(CanonicalTest, HeadMattersOnlyWhenIncluded) {
  rdf::Dictionary dict;
  ConjunctiveQuery a = MustParse("q(X) :- t(X, p, Y)", &dict);
  ConjunctiveQuery b = MustParse("q(Y) :- t(X, p, Y)", &dict);
  EXPECT_EQ(CanonicalString(a, false), CanonicalString(b, false));
  EXPECT_NE(CanonicalString(a, true), CanonicalString(b, true));
}

TEST(CanonicalTest, VarMapRealizesIsomorphism) {
  rdf::Dictionary dict;
  ConjunctiveQuery a = MustParse("q(X) :- t(X, p, Y), t(Y, q, c)", &dict);
  ConjunctiveQuery b = MustParse("q(B) :- t(A, q, c), t(B, p, A)", &dict);
  CanonicalForm fa = Canonicalize(a, false);
  CanonicalForm fb = Canonicalize(b, false);
  ASSERT_EQ(fa.repr, fb.repr);
  // Compose: b var -> canonical index -> a var must map B (head of b) to X.
  std::unordered_map<uint32_t, VarId> inv;
  for (const auto& [var, idx] : fa.var_map) inv[idx] = var;
  VarId b_head = b.head()[0].var();
  EXPECT_EQ(inv.at(fb.var_map.at(b_head)), a.head()[0].var());
}

/// Canonical forms pinned to committed strings: the repr and the variable
/// map (sorted "var:index" pairs) of each query, with and without the head.
/// Covers constants, a variable repeated inside one atom, head and non-head
/// variables, symmetric atoms that need backtracking, and the empty body.
struct PinnedCanonicalForm {
  const char* query;  // datalog; empty = the empty body
  bool include_head;
  const char* repr;
  const char* var_map;
};

// clang-format off
constexpr PinnedCanonicalForm kPinnedCanonicalForms[] = {
    {"q(X) :- t(X, p, Y)", true, "t(H0,#8,V1);|head:H0,", "0:0,1:1"},
    {"q(X) :- t(X, p, Y)", false, "t(V0,#8,V1);", "0:0,1:1"},
    {"q(X) :- t(X, p, c)", true, "t(H0,#8,#9);|head:H0,", "0:0"},
    {"q(X) :- t(X, p, c)", false, "t(V0,#8,#9);", "0:0"},
    {"q(X) :- t(X, p, X)", true, "t(H0,#8,H0);|head:H0,", "0:0"},
    {"q(X) :- t(X, p, X)", false, "t(V0,#8,V0);", "0:0"},
    {"q(X, Y) :- t(X, X, Y), t(Y, p, Y)", true, "t(H0,H0,H1);t(H1,#8,H1);|head:H0,H1,", "0:0,1:1"},
    {"q(X, Y) :- t(X, X, Y), t(Y, p, Y)", false, "t(V0,V0,V1);t(V1,#8,V1);", "0:0,1:1"},
    {"q(X) :- t(X, p1, Y), t(Y, p2, Z), t(X, p3, Z)", true, "t(V0,#11,V1);t(H2,#10,V0);t(H2,#12,V1);|head:H2,", "0:2,1:0,2:1"},
    {"q(X) :- t(X, p1, Y), t(Y, p2, Z), t(X, p3, Z)", false, "t(V0,#10,V1);t(V0,#12,V2);t(V1,#11,V2);", "0:0,1:1,2:2"},
    {"q(X) :- t(X, p, Y), t(Y, p, Z), t(Z, p, X)", true, "t(V0,#8,V1);t(V1,#8,H2);t(H2,#8,V0);|head:H2,", "0:2,1:0,2:1"},
    {"q(X) :- t(X, p, Y), t(Y, p, Z), t(Z, p, X)", false, "t(V0,#8,V1);t(V1,#8,V2);t(V2,#8,V0);", "0:0,1:1,2:2"},
    {"q(X, Y) :- t(X, p, Y), t(Y, p, X)", true, "t(H0,#8,H1);t(H1,#8,H0);|head:H0,H1,", "0:0,1:1"},
    {"q(X, Y) :- t(X, p, Y), t(Y, p, X)", false, "t(V0,#8,V1);t(V1,#8,V0);", "0:0,1:1"},
    {"q(X) :- t(X, p, Y), t(X, p, Z)", true, "t(H0,#8,V1);t(H0,#8,V2);|head:H0,", "0:0,1:1,2:2"},
    {"q(X) :- t(X, p, Y), t(X, p, Z)", false, "t(V0,#8,V1);t(V0,#8,V2);", "0:0,1:1,2:2"},
    {"q(A, B) :- t(A, p, B), t(C, p, B), t(C, q, d)", true, "t(V0,#13,#14);t(V0,#8,H1);t(H2,#8,H1);|head:H1,H2,", "0:2,1:1,2:0"},
    {"q(A, B) :- t(A, p, B), t(C, p, B), t(C, q, d)", false, "t(V0,#8,V1);t(V2,#13,#14);t(V2,#8,V1);", "0:0,1:1,2:2"},
    {"q(X) :- t(X, p, Y), t(Y, q, c), t(Z, p, Y), t(Z, q, c)", true, "t(V0,#13,#9);t(V0,#8,V1);t(V1,#13,#9);t(H2,#8,V1);|head:H2,", "0:2,1:1,2:0"},
    {"q(X) :- t(X, p, Y), t(Y, q, c), t(Z, p, Y), t(Z, q, c)", false, "t(V0,#8,V1);t(V2,#13,#9);t(V2,#8,V1);t(V1,#13,#9);", "0:0,1:1,2:2"},
    {"", true, "|head:", ""},
    {"", false, "", ""},
};
// clang-format on

std::string RenderVarMap(const CanonicalForm& form) {
  std::vector<std::pair<VarId, uint32_t>> entries(form.var_map.begin(),
                                                  form.var_map.end());
  std::sort(entries.begin(), entries.end());
  std::string out;
  for (const auto& [var, idx] : entries) {
    if (!out.empty()) out += ",";
    out += std::to_string(var) + ":" + std::to_string(idx);
  }
  return out;
}

TEST(CanonicalTest, FormsMatchCommittedStrings) {
  rdf::Dictionary dict;
  for (const PinnedCanonicalForm& pin : kPinnedCanonicalForms) {
    const std::string text = pin.query;
    ConjunctiveQuery q =
        text.empty() ? ConjunctiveQuery() : MustParse(text, &dict);
    CanonicalForm form = Canonicalize(q, pin.include_head);
    SCOPED_TRACE("{\"" + text + "\", " +
                 (pin.include_head ? "true" : "false") + ", \"" + form.repr +
                 "\", \"" + RenderVarMap(form) + "\"},");
    EXPECT_EQ(form.repr, pin.repr);
    EXPECT_EQ(RenderVarMap(form), pin.var_map);
  }
}

class CanonicalPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(CanonicalPropertyTest, RandomRenamedPermutedQueriesAgree) {
  rdf::Dictionary dict;
  rdf::TripleStore store =
      rdfviews::testing::RandomStore(&dict, 60, 10, 4, GetParam());
  Rng rng(GetParam() * 97 + 5);
  for (int trial = 0; trial < 20; ++trial) {
    ConjunctiveQuery q = rdfviews::testing::RandomQuery(
        store, 2 + rng.Below(5), 2, rng.raw());
    // Random bijective renaming + atom permutation.
    ConjunctiveQuery renamed = q;
    std::unordered_map<VarId, VarId> mapping;
    std::vector<VarId> vars = q.BodyVars();
    std::vector<VarId> targets;
    for (size_t i = 0; i < vars.size(); ++i) {
      targets.push_back(1000 + static_cast<VarId>(i));
    }
    rng.Shuffle(&targets);
    for (size_t i = 0; i < vars.size(); ++i) mapping[vars[i]] = targets[i];
    renamed.RenameVars(mapping);
    rng.Shuffle(renamed.mutable_atoms());
    EXPECT_EQ(CanonicalString(q, true), CanonicalString(renamed, true))
        << q.ToString() << "\nvs\n"
        << renamed.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CanonicalPropertyTest,
                         ::testing::Values(10, 20, 30, 40, 50));

// ----------------------------------------------------------------------- UCQ

TEST(UcqTest, DeduplicatesUpToRenaming) {
  rdf::Dictionary dict;
  UnionOfQueries u("u");
  EXPECT_TRUE(u.Add(MustParse("q(X) :- t(X, p, Y)", &dict)));
  EXPECT_FALSE(u.Add(MustParse("q(A) :- t(A, p, B)", &dict)));
  EXPECT_TRUE(u.Add(MustParse("q(X) :- t(X, p, c)", &dict)));
  EXPECT_EQ(u.size(), 2u);
}

TEST(UcqTest, TotalsForTable3) {
  rdf::Dictionary dict;
  UnionOfQueries u("u");
  u.Add(MustParse("q(X) :- t(X, p, c1), t(X, q, Y)", &dict));
  u.Add(MustParse("q(X) :- t(X, r, c2)", &dict));
  EXPECT_EQ(u.TotalAtoms(), 3u);
  EXPECT_EQ(u.TotalConstants(), 5u);
}

TEST(UcqTest, HeadConstantsCountedInTotals) {
  rdf::Dictionary dict;
  ConjunctiveQuery q = MustParse("q(X, Y) :- t(X, p, Y)", &dict);
  q.Substitute(q.head()[1].var(), Term::Const(dict.Intern("c")));
  UnionOfQueries u("u");
  u.Add(q);
  EXPECT_EQ(u.TotalConstants(), 3u);  // p + two c occurrences (head + body)
}

TEST(UcqTest, DistinguishesHeadOrder) {
  rdf::Dictionary dict;
  UnionOfQueries u("u");
  EXPECT_TRUE(u.Add(MustParse("q(X, Y) :- t(X, p, Y)", &dict)));
  EXPECT_TRUE(u.Add(MustParse("q(Y, X) :- t(X, p, Y)", &dict)));
  EXPECT_EQ(u.size(), 2u);
}

}  // namespace
}  // namespace rdfviews::cq
