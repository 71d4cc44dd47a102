// Tests for the persistence layer (src/vsel/serialize/): property-style
// round-trips of expressions / queries / states / partition outcomes /
// recommendations over randomized workloads for all four Sec. 5
// strategies, rejection of truncated, corrupted, version-skewed,
// foreign-identity and wrong-key blobs, the two cache backends, and
// warm-starting a TuningSession from a DirCacheBackend directory in a
// fresh "process" (a cold session object sharing nothing but the cache
// root). The "Parallel"-named suites — concurrent sessions sharing one
// directory, concurrent Put/Get on one backend — run under the TSan CI
// job.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common/hash.h"
#include "test_util.h"
#include "vsel/pipeline/pipeline.h"
#include "vsel/selector.h"
#include "vsel/serialize/partition_cache.h"
#include "vsel/serialize/serialize.h"
#include "vsel/session/session.h"
#include "workload/generator.h"

namespace rdfviews::vsel::serialize {
namespace {

namespace fs = std::filesystem;
using rdfviews::testing::MustParse;

/// A fresh, empty scratch directory under the test temp root.
std::string TempCacheDir(const std::string& name) {
  fs::path dir = fs::path(::testing::TempDir()) / ("rdfviews_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

/// Re-seals a blob whose bytes were deliberately patched: recomputes the
/// trailing 128-bit digest so the tamper is *not* reported as corruption
/// (the tests below patch version / identity fields and want the specific
/// rejection, not the checksum's). `checksum` is the envelope's digest;
/// format version 1 sealed with HashBytes128.
void ResealBlob(std::string* bytes,
                Hash128 (*checksum)(const void*, size_t) = ChecksumBytes128) {
  ASSERT_GE(bytes->size(), 16u);
  Hash128 sum = checksum(bytes->data(), bytes->size() - 16);
  for (int i = 0; i < 8; ++i) {
    (*bytes)[bytes->size() - 16 + i] =
        static_cast<char>((sum.lo >> (8 * i)) & 0xff);
    (*bytes)[bytes->size() - 8 + i] =
        static_cast<char>((sum.hi >> (8 * i)) & 0xff);
  }
}

std::vector<std::string> RewritingStrings(const State& s) {
  std::vector<std::string> out;
  out.reserve(s.rewritings().size());
  for (const engine::ExprPtr& e : s.rewritings()) out.push_back(e->ToString());
  return out;
}

/// The small multi-family workload of the session tests: three
/// constant-disjoint families plus a delta dirtying one and opening a new
/// one. Small enough that every strategy exhausts its space.
struct Fixture {
  rdf::Dictionary dict;
  std::vector<cq::ConjunctiveQuery> initial;
  std::vector<cq::ConjunctiveQuery> delta;
  rdf::TripleStore store;

  Fixture() {
    initial = {
        MustParse("q1(X, Z) :- t(X, a:p1, Y), t(Y, a:p2, Z)", &dict),
        MustParse("q2(X) :- t(X, a:p1, a:c1)", &dict),
        MustParse("q3(X, Y) :- t(X, b:p1, Y), t(Y, b:p2, b:c1)", &dict),
        MustParse("q4(X) :- t(X, c:p1, c:c1)", &dict),
    };
    delta = {
        MustParse("q5(X) :- t(X, a:p2, a:c2)", &dict),
        MustParse("q6(X, Y) :- t(X, d:p1, Y), t(X, d:p2, d:c1)", &dict),
    };
    std::vector<cq::ConjunctiveQuery> all = initial;
    all.insert(all.end(), delta.begin(), delta.end());
    store = workload::GenerateStoreForWorkload(all, &dict, 3000, 42);
  }

  TuningConfig Options(StrategyKind strategy) const {
    TuningConfig options;
    options.strategy = strategy;
    options.auto_calibrate_cm = false;
    return options;
  }

  std::vector<cq::ConjunctiveQuery> All() const {
    std::vector<cq::ConjunctiveQuery> all = initial;
    all.insert(all.end(), delta.begin(), delta.end());
    return all;
  }
};

/// Runs the pipeline stages up to search and returns (plan keys, results,
/// cost model's identity inputs) for round-trip scrutiny. The returned
/// ingest points at `workload`'s queries.
struct SearchedPartitions {
  pipeline::PartitionPlan plan;
  std::vector<pipeline::PartitionSearchResult> results;
  std::shared_ptr<CostModel> cost_model;
  Result<pipeline::IngestResult> ingest = Status::Internal("not run");
};

SearchedPartitions RunPartitionSearches(
    const rdf::TripleStore& store, const rdf::Dictionary& dict,
    const std::vector<cq::ConjunctiveQuery>& workload,
    const TuningConfig& options) {
  SearchedPartitions out;
  out.ingest = pipeline::Ingest(&store, &dict, nullptr, workload, options);
  EXPECT_TRUE(out.ingest.ok()) << out.ingest.status().ToString();
  out.plan = pipeline::PartitionWorkload(*out.ingest, options);
  out.cost_model =
      std::make_shared<CostModel>(out.ingest->stats, options.weights);
  Result<std::vector<pipeline::PartitionOutcome>> searches =
      pipeline::SearchPartitions(*out.ingest, out.plan,
                                 out.cost_model.get(), options);
  EXPECT_TRUE(searches.ok()) << searches.status().ToString();
  for (pipeline::PartitionOutcome& o : *searches) {
    EXPECT_TRUE(o.ok()) << o.error.ToString();
    out.results.push_back(std::move(o.result));
  }
  return out;
}

// ---- Building-block round-trips --------------------------------------------

TEST(SerializeExprTest, RoundTripCoversEveryNodeKind) {
  engine::ExprPtr scan1 = engine::Expr::Scan(7, {1, 2, 3});
  engine::ExprPtr scan2 = engine::Expr::Scan(9, {4, 5});
  engine::ExprPtr select = engine::Expr::Select(
      scan1,
      {engine::Condition::Eq(2, 77), engine::Condition::EqVar(1, 3)});
  engine::ExprPtr join = engine::Expr::Join(select, scan2, {{3, 4}});
  engine::ExprPtr rename = engine::Expr::Rename(join, {{5, 11}, {1, 12}});
  engine::ExprPtr project = engine::Expr::Project(rename, {12, 11});
  engine::ExprPtr arranged = engine::Expr::Arrange(
      project, {engine::ArrangeCol{false, 12, 0, 20},
                engine::ArrangeCol{true, 0, 42, 21}});
  engine::ExprPtr tree =
      engine::Expr::Union({arranged, engine::Expr::Project(scan2, {4})});

  ByteWriter w;
  SerializeExpr(tree, &w);
  ByteReader r(w.bytes());
  Result<engine::ExprPtr> back = DeserializeExpr(&r);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ((*back)->ToString(), tree->ToString());
}

TEST(SerializeExprTest, ArrangeWideSpecOverSmallChildRoundTrips) {
  // Regression: the Arrange count-plausibility bound must be the exact
  // 9-byte wire size of an ArrangeCol; an over-estimate rejected valid
  // blobs whose trailing node was a wide Arrange over a small subtree.
  std::vector<engine::ArrangeCol> spec;
  for (uint32_t i = 0; i < 12; ++i) {
    spec.push_back(engine::ArrangeCol{i % 2 == 0, 1, i, 100 + i});
  }
  engine::ExprPtr tree =
      engine::Expr::Arrange(engine::Expr::Scan(1, {1}), spec);
  ByteWriter w;
  SerializeExpr(tree, &w);
  ByteReader r(w.bytes());
  Result<engine::ExprPtr> back = DeserializeExpr(&r);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ((*back)->ToString(), tree->ToString());
}

TEST(SerializeExprTest, DeterministicBytesForRenameMaps) {
  // unordered_map iteration order may differ between equal maps built in
  // different orders; the encoder must still emit identical bytes.
  std::unordered_map<cq::VarId, cq::VarId> forward;
  for (cq::VarId v = 0; v < 32; ++v) forward[v] = v + 100;
  std::unordered_map<cq::VarId, cq::VarId> backward;
  for (cq::VarId v = 32; v-- > 0;) backward[v] = v + 100;
  engine::ExprPtr scan = engine::Expr::Scan(1, {0, 1});
  ByteWriter w1;
  SerializeExpr(engine::Expr::Rename(scan, forward), &w1);
  ByteWriter w2;
  SerializeExpr(engine::Expr::Rename(scan, backward), &w2);
  EXPECT_EQ(w1.bytes(), w2.bytes());
}

TEST(SerializeQueryTest, RoundTripRandomQueries) {
  rdf::Dictionary dict;
  rdf::TripleStore store =
      rdfviews::testing::RandomStore(&dict, 400, 40, 8, 7);
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    cq::ConjunctiveQuery q = rdfviews::testing::RandomQuery(
        store, /*num_atoms=*/3, /*head_vars=*/2, seed);
    ByteWriter w;
    SerializeQuery(q, &w);
    ByteReader r(w.bytes());
    Result<cq::ConjunctiveQuery> back = DeserializeQuery(&r);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_TRUE(r.AtEnd());
    EXPECT_EQ(*back, q);
    EXPECT_EQ(back->name(), q.name());
  }
}

// DeserializeUnion's structural rejections, fed with disjuncts written by
// SerializeQuery under a hand-written union header.
std::string UnionBytes(const std::vector<cq::ConjunctiveQuery>& disjuncts) {
  ByteWriter w;
  w.Str("v0");
  w.U64(disjuncts.size());
  for (const cq::ConjunctiveQuery& q : disjuncts) SerializeQuery(q, &w);
  return w.bytes();
}

TEST(SerializeUnionTest, DuplicateDisjunctIsRejected) {
  rdf::Dictionary dict;
  cq::ConjunctiveQuery q =
      MustParse("v0(X, Z) :- t(X, a:p1, Y), t(Y, a:p2, Z)", &dict);
  cq::ConjunctiveQuery other =
      MustParse("v0(X, Z) :- t(X, a:p1, Y), t(Y, a:p3, Z)", &dict);
  // The renamed copy comes second, so it is checked against the index
  // built lazily for the first disjunct.
  cq::ConjunctiveQuery renamed = q;
  renamed.OffsetVars(10);
  ASSERT_FALSE(renamed == q);

  const std::string distinct_bytes = UnionBytes({q, other});
  ByteReader distinct(distinct_bytes);
  Result<cq::UnionOfQueries> ok = DeserializeUnion(&distinct);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_TRUE(distinct.AtEnd());
  EXPECT_EQ(ok->size(), 2u);

  const std::string dup_bytes = UnionBytes({q, renamed});
  ByteReader dup(dup_bytes);
  Result<cq::UnionOfQueries> back = DeserializeUnion(&dup);
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.status().code(), StatusCode::kParseError);
  EXPECT_NE(back.status().message().find("duplicate disjunct"),
            std::string::npos)
      << back.status().ToString();
}

TEST(SerializeUnionTest, MismatchedArityIsRejected) {
  rdf::Dictionary dict;
  cq::ConjunctiveQuery binary =
      MustParse("v0(X, Z) :- t(X, a:p1, Y), t(Y, a:p2, Z)", &dict);
  cq::ConjunctiveQuery unary = MustParse("v0(X) :- t(X, a:p1, a:c1)", &dict);
  const std::string bytes = UnionBytes({binary, unary});
  ByteReader r(bytes);
  Result<cq::UnionOfQueries> back = DeserializeUnion(&r);
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.status().code(), StatusCode::kParseError);
  EXPECT_NE(back.status().message().find("mismatched arities"),
            std::string::npos)
      << back.status().ToString();
}

TEST(SerializeStatsTest, RoundTripAllFields) {
  SearchStats stats;
  stats.created = 101;
  stats.duplicates = 7;
  stats.discarded = 13;
  stats.explored = 88;
  stats.transitions_applied = 240;
  stats.initial_cost = 1234.5;
  stats.best_cost = 99.25;
  stats.best_trace = {{0.1, 1000.0}, {0.5, 99.25}};
  stats.completed = true;
  stats.time_exhausted = true;
  stats.elapsed_sec = 0.75;

  ByteWriter w;
  SerializeStats(stats, &w);
  ByteReader r(w.bytes());
  Result<SearchStats> back = DeserializeStats(&r);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(back->created, stats.created);
  EXPECT_EQ(back->duplicates, stats.duplicates);
  EXPECT_EQ(back->discarded, stats.discarded);
  EXPECT_EQ(back->explored, stats.explored);
  EXPECT_EQ(back->transitions_applied, stats.transitions_applied);
  EXPECT_EQ(back->initial_cost, stats.initial_cost);
  EXPECT_EQ(back->best_cost, stats.best_cost);
  EXPECT_EQ(back->best_trace, stats.best_trace);
  EXPECT_EQ(back->completed, stats.completed);
  EXPECT_EQ(back->memory_exhausted, stats.memory_exhausted);
  EXPECT_EQ(back->time_exhausted, stats.time_exhausted);
  EXPECT_EQ(back->cancelled, stats.cancelled);
  EXPECT_EQ(back->elapsed_sec, stats.elapsed_sec);
}

// ---- State and partition-outcome round-trips over real searches ------------

class SerializeStrategyTest : public ::testing::TestWithParam<StrategyKind> {
};

TEST_P(SerializeStrategyTest, StateRoundTripPreservesIdentityAndCost) {
  Fixture fx;
  TuningConfig options = fx.Options(GetParam());
  const std::vector<cq::ConjunctiveQuery> workload = fx.All();
  SearchedPartitions searched =
      RunPartitionSearches(fx.store, fx.dict, workload, options);
  ASSERT_FALSE(searched.results.empty());
  for (const pipeline::PartitionSearchResult& pr : searched.results) {
    const State& best = pr.search.best;
    ByteWriter w;
    SerializeState(best, &w);
    ByteReader r(w.bytes());
    Result<State> back = DeserializeState(&r);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_TRUE(r.AtEnd());
    EXPECT_EQ(back->Signature(), best.Signature());
    EXPECT_EQ(back->fingerprint(), best.fingerprint());
    EXPECT_EQ(back->next_var(), best.next_var());
    EXPECT_EQ(back->next_view_id(), best.next_view_id());
    EXPECT_EQ(RewritingStrings(*back), RewritingStrings(best));
    // The deserialized state is cost-cold; re-costing it through the same
    // model must land exactly on the persisted cost.
    EXPECT_NEAR(searched.cost_model->StateCost(*back),
                pr.search.stats.best_cost,
                1e-9 * (1.0 + std::abs(pr.search.stats.best_cost)));
  }
}

TEST_P(SerializeStrategyTest, PartitionOutcomeRoundTripRandomizedWorkloads) {
  for (uint64_t seed = 1; seed <= 2; ++seed) {
    rdf::Dictionary dict;
    workload::WorkloadSpec spec;
    spec.num_queries = 6;
    spec.atoms_per_query = 2;
    spec.shape = workload::QueryShape::kMixed;
    spec.commonality = workload::Commonality::kHigh;
    spec.partition_groups = 3;
    spec.seed = seed;
    std::vector<cq::ConjunctiveQuery> queries =
        workload::GenerateWorkload(spec, &dict);
    rdf::TripleStore store =
        workload::GenerateStoreForWorkload(queries, &dict, 800, seed);

    TuningConfig options;
    options.strategy = GetParam();
    options.auto_calibrate_cm = false;
    // Bound the exhaustive strategies: truncated outcomes round-trip just
    // as well, and this test is about the bytes, not the search.
    options.limits.max_states = 4000;
    options.limits.time_budget_sec = 2.0;
    SearchedPartitions searched =
        RunPartitionSearches(store, dict, queries, options);
    CacheIdentity identity = ComputeCacheIdentity(store, options);
    for (size_t p = 0; p < searched.results.size(); ++p) {
      const std::string& key = searched.plan.group_keys[p];
      std::string bytes =
          SerializePartitionOutcome(key, searched.results[p], identity);
      EXPECT_EQ(*PeekPartitionOutcomeKey(bytes), key);
      Result<pipeline::PartitionSearchResult> back =
          DeserializePartitionOutcome(bytes, key, identity);
      ASSERT_TRUE(back.ok()) << back.status().ToString();
      EXPECT_EQ(back->search.best.Signature(),
                searched.results[p].search.best.Signature());
      EXPECT_EQ(back->search.stats.best_cost,
                searched.results[p].search.stats.best_cost);
      EXPECT_EQ(back->search.stats.completed,
                searched.results[p].search.stats.completed);
      EXPECT_EQ(back->initial_cost, searched.results[p].initial_cost);
      EXPECT_EQ(back->search.stats.best_trace,
                searched.results[p].search.stats.best_trace);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, SerializeStrategyTest,
                         ::testing::Values(StrategyKind::kExNaive,
                                           StrategyKind::kExStr,
                                           StrategyKind::kDfs,
                                           StrategyKind::kGstr),
                         [](const auto& info) {
                           return StrategyName(info.param);
                         });

TEST(SerializeStateTest, UnionArrangeRewritingsRoundTrip) {
  // The pre-reformulation initial states carry union rewritings with
  // Arrange nodes (disjunct head constants re-inserted positionally); the
  // schema validation must accept these shapes.
  State s;
  cq::VarId a = s.FreshVar();
  cq::VarId b = s.FreshVar();
  View v;
  v.id = s.FreshViewId();
  v.def = cq::ConjunctiveQuery(
      "v0", {cq::Term::Var(a)},
      {cq::Atom{cq::Term::Var(a), cq::Term::Const(7), cq::Term::Var(b)}});
  s.AddView(MakeView(std::move(v)));
  engine::ExprPtr scan = engine::Expr::Scan(0, {a});
  engine::ExprPtr arranged = engine::Expr::Arrange(
      scan, {engine::ArrangeCol{false, a, 0, a},
             engine::ArrangeCol{true, 0, 42, b}});
  s.AddRewriting(engine::Expr::Union({arranged, arranged}));

  ByteWriter w;
  SerializeState(s, &w);
  ByteReader r(w.bytes());
  Result<State> back = DeserializeState(&r);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->Signature(), s.Signature());
  EXPECT_EQ(RewritingStrings(*back), RewritingStrings(s));
}

// ---- Rejection paths -------------------------------------------------------

class SerializeRejectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    options_ = fx_.Options(StrategyKind::kDfs);
    searched_ = RunPartitionSearches(fx_.store, fx_.dict, fx_.initial,
                                     options_);
    ASSERT_FALSE(searched_.results.empty());
    identity_ = ComputeCacheIdentity(fx_.store, options_);
    key_ = searched_.plan.group_keys[0];
    bytes_ = SerializePartitionOutcome(key_, searched_.results[0], identity_);
  }

  Fixture fx_;
  TuningConfig options_;
  SearchedPartitions searched_;
  CacheIdentity identity_;
  std::string key_;
  std::string bytes_;
};

TEST_F(SerializeRejectionTest, EveryTruncationIsRejected) {
  for (size_t len = 0; len < bytes_.size(); ++len) {
    Result<pipeline::PartitionSearchResult> back = DeserializePartitionOutcome(
        std::string_view(bytes_).substr(0, len), key_, identity_);
    EXPECT_FALSE(back.ok()) << "prefix of " << len << " bytes accepted";
    EXPECT_EQ(back.status().code(), StatusCode::kParseError);
  }
}

TEST_F(SerializeRejectionTest, EveryByteFlipIsRejected) {
  for (size_t i = 0; i < bytes_.size(); ++i) {
    std::string tampered = bytes_;
    tampered[i] = static_cast<char>(tampered[i] ^ 0x5a);
    Result<pipeline::PartitionSearchResult> back =
        DeserializePartitionOutcome(tampered, key_, identity_);
    EXPECT_FALSE(back.ok()) << "flip at byte " << i << " accepted";
  }
}

TEST_F(SerializeRejectionTest, FormatVersionMismatchIsRejected) {
  std::string skewed = bytes_;
  skewed[4] = static_cast<char>(kFormatVersion + 1);  // version u32, LE
  ResealBlob(&skewed);
  Result<pipeline::PartitionSearchResult> back =
      DeserializePartitionOutcome(skewed, key_, identity_);
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.status().code(), StatusCode::kParseError);
  EXPECT_NE(back.status().message().find("version"), std::string::npos);
}

TEST_F(SerializeRejectionTest, ForeignIdentityIsRejected) {
  CacheIdentity other = identity_;
  other.store_tag ^= 1;
  EXPECT_EQ(DeserializePartitionOutcome(bytes_, key_, other).status().code(),
            StatusCode::kInvalidArgument);
  other = identity_;
  other.config_tag ^= 1;
  EXPECT_EQ(DeserializePartitionOutcome(bytes_, key_, other).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(SerializeRejectionTest, WrongCanonicalKeyIsRejected) {
  Result<pipeline::PartitionSearchResult> back =
      DeserializePartitionOutcome(bytes_, key_ + "x", identity_);
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.status().code(), StatusCode::kInvalidArgument);
  // An empty expectation accepts any embedded key.
  EXPECT_TRUE(DeserializePartitionOutcome(bytes_, "", identity_).ok());
}

TEST_F(SerializeRejectionTest, ConfigTagSeparatesOptionFlavors) {
  TuningConfig other = options_;
  other.strategy = StrategyKind::kGstr;
  EXPECT_NE(ComputeCacheIdentity(fx_.store, other).config_tag,
            identity_.config_tag);
  other = options_;
  other.weights.cm *= 2;
  EXPECT_NE(ComputeCacheIdentity(fx_.store, other).config_tag,
            identity_.config_tag);
  other = options_;
  other.heuristics.stop_var = !other.heuristics.stop_var;
  EXPECT_NE(ComputeCacheIdentity(fx_.store, other).config_tag,
            identity_.config_tag);
  // Limits are excluded on purpose: a completed search's best is
  // budget-independent.
  other = options_;
  other.limits.time_budget_sec = 123;
  other.limits.max_states = 77;
  EXPECT_EQ(ComputeCacheIdentity(fx_.store, other).config_tag,
            identity_.config_tag);
}

TEST_F(SerializeRejectionTest, ImplausibleIdCountersAreRejected) {
  // The checksum is integrity, not authenticity: a well-formed blob whose
  // id counters do not dominate the ids in use must still be rejected —
  // the merge stage offsets by next_var / next_view_id and would silently
  // collide ids otherwise.
  State lying = searched_.results[0].search.best;
  lying.set_next_var(0);
  ByteWriter w1;
  SerializeState(lying, &w1);
  ByteReader r1(w1.bytes());
  EXPECT_EQ(DeserializeState(&r1).status().code(), StatusCode::kParseError);

  State lying2 = searched_.results[0].search.best;
  lying2.set_next_view_id(0);
  ByteWriter w2;
  SerializeState(lying2, &w2);
  ByteReader r2(w2.bytes());
  EXPECT_EQ(DeserializeState(&r2).status().code(), StatusCode::kParseError);
}

TEST(DirCacheBackendTest, FormatVersionOneEntryIsARejectedMissAndOverwritten) {
  Fixture fx;
  TuningConfig options = fx.Options(StrategyKind::kDfs);
  SearchedPartitions searched =
      RunPartitionSearches(fx.store, fx.dict, fx.initial, options);
  ASSERT_FALSE(searched.results.empty());
  CacheIdentity identity = ComputeCacheIdentity(fx.store, options);
  const std::string dir = TempCacheDir("format_v1");
  DirCacheBackend backend(dir, identity);
  const std::string& key = searched.plan.group_keys[0];
  ASSERT_TRUE(backend.Put(key, searched.results[0]).ok());
  fs::path entry;
  for (const fs::directory_entry& e : fs::directory_iterator(dir)) {
    if (e.path().extension() == ".rvpo") entry = e.path();
  }
  ASSERT_FALSE(entry.empty());

  // Rewrite the entry as a version-1 file: version field 1, sealed with
  // the version-1 checksum.
  std::string bytes = SerializePartitionOutcome(key, searched.results[0],
                                                identity);
  bytes[4] = 1;  // version u32, LE
  ResealBlob(&bytes, HashBytes128);
  {
    std::FILE* f = std::fopen(entry.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
    std::fclose(f);
  }
  PartitionCacheBackend::Fetched hit;
  Status miss = backend.Get(key, &hit);
  EXPECT_EQ(miss.code(), StatusCode::kNotFound);
  EXPECT_NE(miss.message().find("version 1"), std::string::npos)
      << miss.ToString();
  EXPECT_EQ(backend.counters().rejected, 1u);

  // The partition's fresh result overwrites the stale file in place.
  ASSERT_TRUE(backend.Put(key, searched.results[0]).ok());
  EXPECT_EQ(backend.Size(), 1u);
  ASSERT_TRUE(backend.Get(key, &hit).ok());
  EXPECT_EQ(hit.result.search.best.Signature(),
            searched.results[0].search.best.Signature());
}

TEST(DirCacheBackendTest, ClearSweepsOrphanedTempFiles) {
  const std::string dir = TempCacheDir("orphaned_tmp");
  DirCacheBackend backend(dir, CacheIdentity{1, 2});
  {
    std::FILE* f = std::fopen((dir + "/deadbeef.rvpo.4242.0.tmp").c_str(),
                              "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("half-written", f);
    std::fclose(f);
  }
  EXPECT_EQ(backend.Size(), 0u);  // orphans are not entries
  backend.Clear();
  EXPECT_TRUE(fs::is_empty(dir));
}

// ---- Recommendation round-trip ---------------------------------------------

TEST(SerializeRecommendationTest, RoundTripMatchesOriginal) {
  Fixture fx;
  TuningConfig options = fx.Options(StrategyKind::kDfs);
  ViewSelector selector(&fx.store, &fx.dict);
  Result<Recommendation> rec = selector.Recommend(fx.All(), options);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();

  CacheIdentity identity = ComputeCacheIdentity(fx.store, options);
  std::string bytes = SerializeRecommendation(*rec, identity);
  Result<Recommendation> back = DeserializeRecommendation(bytes, identity);
  ASSERT_TRUE(back.ok()) << back.status().ToString();

  EXPECT_EQ(back->entailment, rec->entailment);
  EXPECT_EQ(back->view_ids, rec->view_ids);
  EXPECT_EQ(back->view_columns, rec->view_columns);
  ASSERT_EQ(back->view_definitions.size(), rec->view_definitions.size());
  for (size_t i = 0; i < rec->view_definitions.size(); ++i) {
    EXPECT_EQ(back->view_definitions[i].ToString(),
              rec->view_definitions[i].ToString());
  }
  ASSERT_EQ(back->rewritings.size(), rec->rewritings.size());
  for (size_t i = 0; i < rec->rewritings.size(); ++i) {
    EXPECT_EQ(back->rewritings[i]->ToString(), rec->rewritings[i]->ToString());
  }
  EXPECT_EQ(back->best_state.Signature(), rec->best_state.Signature());
  EXPECT_EQ(back->stats.best_cost, rec->stats.best_cost);
  EXPECT_EQ(back->stats.initial_cost, rec->stats.initial_cost);

  // The store does not travel: the plain load carries none (AnswerQuery
  // over reloaded views needs none), and the loader re-attaches one passed
  // in (required before Materialize).
  EXPECT_EQ(back->materialization_store, nullptr);
  Result<Recommendation> attached = DeserializeRecommendation(
      bytes, identity, rec->materialization_store);
  ASSERT_TRUE(attached.ok());
  EXPECT_EQ(attached->materialization_store, rec->materialization_store);

  // Tampering and identity skew are rejected like partition outcomes.
  std::string tampered = bytes;
  tampered[tampered.size() / 2] ^= 0x40;
  EXPECT_FALSE(DeserializeRecommendation(tampered, identity).ok());
  CacheIdentity other = identity;
  other.store_tag ^= 7;
  EXPECT_EQ(DeserializeRecommendation(bytes, other).status().code(),
            StatusCode::kInvalidArgument);

  // A well-formed blob whose rewriting scans a view absent from view_ids
  // must fail the load, not crash the client's first AnswerQuery.
  Recommendation dangling = *rec;
  dangling.rewritings[0] = engine::Expr::Scan(999999, {1, 2});
  Result<Recommendation> bad = DeserializeRecommendation(
      SerializeRecommendation(dangling, identity), identity);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kParseError);

  // Same for schema-inconsistent operators over *valid* scans: a union of
  // mismatched widths (and friends) would fatally assert in the executor.
  size_t wide = rec->rewritings.size();
  for (size_t i = 0; i < rec->rewritings.size(); ++i) {
    if (rec->rewritings[i]->OutputColumns().size() >= 2) wide = i;
  }
  ASSERT_LT(wide, rec->rewritings.size());
  Recommendation skewed = *rec;
  const engine::ExprPtr& r0 = rec->rewritings[wide];
  skewed.rewritings[wide] = engine::Expr::Union(
      {engine::Expr::Project(r0, {r0->OutputColumns()[0]}), r0});
  Result<Recommendation> bad2 = DeserializeRecommendation(
      SerializeRecommendation(skewed, identity), identity);
  ASSERT_FALSE(bad2.ok());
  EXPECT_EQ(bad2.status().code(), StatusCode::kParseError);

  // ...and a projection naming a column its input does not produce.
  Recommendation ghost = *rec;
  ghost.rewritings[wide] = engine::Expr::Project(r0, {1u << 30});
  Result<Recommendation> bad3 = DeserializeRecommendation(
      SerializeRecommendation(ghost, identity), identity);
  ASSERT_FALSE(bad3.ok());
  EXPECT_EQ(bad3.status().code(), StatusCode::kParseError);
}

// ---- Cache backends --------------------------------------------------------

TEST(InMemoryCacheBackendTest, LruTrimEvictsOldestFirst) {
  Fixture fx;
  TuningConfig options = fx.Options(StrategyKind::kGstr);
  SearchedPartitions searched =
      RunPartitionSearches(fx.store, fx.dict, fx.initial, options);
  ASSERT_FALSE(searched.results.empty());
  const pipeline::PartitionSearchResult& sample = searched.results[0];

  InMemoryCacheBackend backend;
  backend.Put("a", sample);
  backend.Put("b", sample);
  backend.Put("c", sample);
  EXPECT_EQ(backend.Size(), 3u);
  PartitionCacheBackend::Fetched fetched;
  // Touch "a" so "b" becomes the least recently used.
  EXPECT_TRUE(backend.Get("a", &fetched).ok());
  backend.Trim(2);
  EXPECT_EQ(backend.Size(), 2u);
  EXPECT_TRUE(backend.Get("a", &fetched).ok());
  EXPECT_EQ(backend.Get("b", &fetched).code(), StatusCode::kNotFound);
  EXPECT_TRUE(backend.Get("c", &fetched).ok());
  backend.Clear();
  EXPECT_EQ(backend.Size(), 0u);
}

TEST(DirCacheBackendTest, PutGetRoundTripAndBestEffortMisses) {
  Fixture fx;
  TuningConfig options = fx.Options(StrategyKind::kDfs);
  SearchedPartitions searched =
      RunPartitionSearches(fx.store, fx.dict, fx.initial, options);
  CacheIdentity identity = ComputeCacheIdentity(fx.store, options);
  const std::string dir = TempCacheDir("dir_backend");
  DirCacheBackend backend(dir, identity);

  const std::string& key = searched.plan.group_keys[0];
  PartitionCacheBackend::Fetched hit;
  EXPECT_EQ(backend.Get(key, &hit).code(), StatusCode::kNotFound);
  EXPECT_TRUE(backend.Put(key, searched.results[0]).ok());
  EXPECT_EQ(backend.Size(), 1u);
  ASSERT_TRUE(backend.Get(key, &hit).ok());
  EXPECT_TRUE(hit.needs_rehydration);
  EXPECT_EQ(hit.result.search.best.Signature(),
            searched.results[0].search.best.Signature());

  // A foreign-identity backend on the same directory sees only misses —
  // the identity salts the file names, so it does not even read (let alone
  // later overwrite) this backend's entries.
  CacheIdentity other = identity;
  other.config_tag ^= 99;
  DirCacheBackend foreign(dir, other);
  EXPECT_EQ(foreign.Get(key, &hit).code(), StatusCode::kNotFound);
  EXPECT_EQ(foreign.counters().rejected, 0u);

  // Corrupting the entry file degrades it to a miss, not an error.
  fs::path entry;
  for (const fs::directory_entry& e : fs::directory_iterator(dir)) {
    if (e.path().extension() == ".rvpo") entry = e.path();
  }
  ASSERT_FALSE(entry.empty());
  {
    std::FILE* f = std::fopen(entry.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 60, SEEK_SET);
    std::fputc(0x7f, f);
    std::fclose(f);
  }
  // Corrupt entries report NotFound (re-searchable), never a storage error.
  EXPECT_EQ(backend.Get(key, &hit).code(), StatusCode::kNotFound);
  EXPECT_GE(backend.counters().rejected, 1u);

  // Differently configured jobs coexist in one root: the foreign Put
  // lands beside (not over) this backend's entry.
  backend.Put(key, searched.results[0]);
  foreign.Put(key, searched.results[0]);
  EXPECT_EQ(backend.Size(), 2u);
  ASSERT_TRUE(backend.Get(key, &hit).ok());
  ASSERT_TRUE(foreign.Get(key, &hit).ok());

  // Clear removes the entry files (all identities).
  backend.Clear();
  EXPECT_EQ(backend.Size(), 0u);
}

// ---- Warm-starting sessions from a shared directory ------------------------

class WarmStartTest : public ::testing::TestWithParam<StrategyKind> {};

TEST_P(WarmStartTest, FreshSessionReusesEveryCleanPartition) {
  Fixture fx;
  TuningConfig options = fx.Options(GetParam());
  options.cache.cache_dir = TempCacheDir(
      std::string("warm_start_") + StrategyName(GetParam()));

  // "Process 1": tune from scratch, persisting every completed partition.
  {
    TuningSession session(&fx.store, &fx.dict, options);
    Result<Recommendation> rec = session.Update(fx.initial);
    ASSERT_TRUE(rec.ok()) << rec.status().ToString();
    EXPECT_EQ(rec->pipeline.partitions_searched,
              rec->pipeline.num_partitions);
    EXPECT_GT(session.cached_partitions(), 0u);
  }

  // "Process 2": a cold session sharing nothing but the directory must
  // re-search 0 clean partitions and land on the exact from-scratch
  // recommendation (the acceptance bar of the warm-start CI smoke). The
  // scratch baseline runs cache-less — Recommend wraps a TuningSession, so
  // it would otherwise read the directory too.
  TuningConfig scratch_options = options;
  scratch_options.cache.cache_dir.clear();
  ViewSelector selector(&fx.store, &fx.dict);
  Result<Recommendation> scratch =
      selector.Recommend(fx.initial, scratch_options);
  ASSERT_TRUE(scratch.ok());
  TuningSession warm(&fx.store, &fx.dict, options);
  Result<Recommendation> rec = warm.Update(fx.initial);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_EQ(rec->pipeline.partitions_searched, 0u);
  EXPECT_EQ(rec->pipeline.partitions_reused, rec->pipeline.num_partitions);
  EXPECT_EQ(rec->pipeline.partitions_rehydrated,
            rec->pipeline.num_partitions);
  EXPECT_EQ(rec->best_state.Signature(), scratch->best_state.Signature());
  EXPECT_NEAR(rec->stats.best_cost, scratch->stats.best_cost,
              1e-9 * (1.0 + std::abs(scratch->stats.best_cost)));

  // The delta dirties only its own partitions; the warm ones stay served
  // from the directory.
  Result<Recommendation> updated = warm.Update(fx.delta);
  ASSERT_TRUE(updated.ok()) << updated.status().ToString();
  EXPECT_EQ(updated->pipeline.partitions_reused, 2u);
  EXPECT_EQ(updated->pipeline.partitions_searched, 2u);
  Result<Recommendation> scratch_all =
      selector.Recommend(fx.All(), scratch_options);
  ASSERT_TRUE(scratch_all.ok());
  EXPECT_EQ(updated->best_state.Signature(),
            scratch_all->best_state.Signature());
  EXPECT_NEAR(updated->stats.best_cost, scratch_all->stats.best_cost,
              1e-9 * (1.0 + std::abs(scratch_all->stats.best_cost)));
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, WarmStartTest,
                         ::testing::Values(StrategyKind::kExNaive,
                                           StrategyKind::kExStr,
                                           StrategyKind::kDfs,
                                           StrategyKind::kGstr),
                         [](const auto& info) {
                           return StrategyName(info.param);
                         });

TEST(WarmStartTest, ForeignConfigurationSharesNothing) {
  Fixture fx;
  TuningConfig options = fx.Options(StrategyKind::kDfs);
  options.cache.cache_dir = TempCacheDir("warm_start_foreign");
  {
    TuningSession session(&fx.store, &fx.dict, options);
    ASSERT_TRUE(session.Update(fx.initial).ok());
  }
  // Same directory, different strategy: every entry is identity-rejected
  // and every partition re-searched.
  TuningConfig other = fx.Options(StrategyKind::kGstr);
  other.cache.cache_dir = options.cache.cache_dir;
  TuningSession session(&fx.store, &fx.dict, other);
  Result<Recommendation> rec = session.Update(fx.initial);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->pipeline.partitions_reused, 0u);
  EXPECT_EQ(rec->pipeline.partitions_searched, rec->pipeline.num_partitions);
}

TEST(WarmStartTest, SharedInMemoryBackendIsolatesConfigurations) {
  // Canonical workload keys are option-independent; the session's
  // identity salt must keep differently-configured sessions sharing one
  // backend *object* from consuming each other's outcomes (a DFS optimum
  // is not a GSTR optimum).
  Fixture fx;
  auto backend = std::make_shared<InMemoryCacheBackend>();
  TuningConfig dfs = fx.Options(StrategyKind::kDfs);
  TuningSession a(&fx.store, &fx.dict, dfs, nullptr, backend);
  ASSERT_TRUE(a.Update(fx.initial).ok());
  EXPECT_GT(backend->Size(), 0u);

  TuningConfig gstr = fx.Options(StrategyKind::kGstr);
  TuningSession b(&fx.store, &fx.dict, gstr, nullptr, backend);
  Result<Recommendation> rec = b.Update(fx.initial);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->pipeline.partitions_reused, 0u);
  EXPECT_EQ(rec->pipeline.partitions_searched, rec->pipeline.num_partitions);

  // Same configuration, same backend: a sibling session shares fully.
  TuningSession c(&fx.store, &fx.dict, dfs, nullptr, backend);
  Result<Recommendation> warm = c.Update(fx.initial);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm->pipeline.partitions_searched, 0u);
}

TEST(WarmStartTest, CalibrationOnDefersWarmStartToSecondUpdate) {
  Fixture fx;
  TuningConfig options = fx.Options(StrategyKind::kDfs);
  options.auto_calibrate_cm = true;
  options.cache.cache_dir = TempCacheDir("warm_start_calibrated");
  {
    TuningSession session(&fx.store, &fx.dict, options);
    ASSERT_TRUE(session.Update(fx.initial).ok());
  }
  // A fresh session's first update must ignore the warm directory: cm
  // calibration needs every partition's S0, and the persisted costs carry
  // weights this model has not derived yet. The re-searched outcomes are
  // re-persisted under the (identical, deterministic) calibrated weights,
  // so the *second* update warm-starts.
  TuningSession session(&fx.store, &fx.dict, options);
  Result<Recommendation> first = session.Update(fx.initial);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->pipeline.partitions_searched,
            first->pipeline.num_partitions);
  Result<Recommendation> second = session.Recommend();
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->pipeline.partitions_searched, 0u);
  EXPECT_NEAR(second->stats.best_cost, first->stats.best_cost,
              1e-9 * (1.0 + std::abs(first->stats.best_cost)));
}

TEST(WarmStartTest, RehydrationRejectionIsCountedAndRecovered) {
  Fixture fx;
  TuningConfig options = fx.Options(StrategyKind::kDfs);
  options.cache.cache_dir = TempCacheDir("warm_start_rehydration_reject");

  // Poison the directory under the *same* identity: partition 1's outcome
  // (1 member query) filed under partition 0's key (2 member queries). It
  // decodes fine — only the session's rehydration checks can catch the
  // structural misfit, discard it, and count it.
  SearchedPartitions searched =
      RunPartitionSearches(fx.store, fx.dict, fx.initial, options);
  ASSERT_GE(searched.results.size(), 2u);
  ASSERT_NE(searched.plan.groups[0].size(), searched.plan.groups[1].size());
  CacheIdentity identity = ComputeCacheIdentity(fx.store, options);
  DirCacheBackend seeder(options.cache.cache_dir, identity);
  // Sessions address the backend through identity-salted keys.
  seeder.Put(IdentityKeyBytes(identity) + searched.plan.group_keys[0],
             searched.results[1]);

  TuningSession session(&fx.store, &fx.dict, options);
  Result<Recommendation> rec = session.Update(fx.initial);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_EQ(session.cache_backend().counters().rehydration_rejected, 1u);
  // The poisoned partition was simply re-searched: the recommendation is
  // still the from-scratch one.
  EXPECT_EQ(rec->pipeline.partitions_searched, rec->pipeline.num_partitions);
  TuningConfig scratch_options = options;
  scratch_options.cache.cache_dir.clear();
  ViewSelector selector(&fx.store, &fx.dict);
  Result<Recommendation> scratch =
      selector.Recommend(fx.initial, scratch_options);
  ASSERT_TRUE(scratch.ok());
  EXPECT_EQ(rec->best_state.Signature(), scratch->best_state.Signature());
}

TEST(WarmStartTest, InvalidateCachedResultsRemovesEntryFiles) {
  Fixture fx;
  TuningConfig options = fx.Options(StrategyKind::kDfs);
  options.cache.cache_dir = TempCacheDir("warm_start_invalidate");
  TuningSession session(&fx.store, &fx.dict, options);
  ASSERT_TRUE(session.Update(fx.initial).ok());
  EXPECT_GT(session.cached_partitions(), 0u);
  session.InvalidateCachedResults();
  EXPECT_EQ(session.cached_partitions(), 0u);
  Result<Recommendation> rec = session.Recommend();
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->pipeline.partitions_searched, rec->pipeline.num_partitions);
}

// ---- Concurrency (TSan-covered: suites named "Parallel") -------------------

TEST(SerializeParallelTest, ConcurrentSessionsShareOneDirectory) {
  Fixture fx;
  TuningConfig options = fx.Options(StrategyKind::kDfs);
  options.cache.cache_dir = TempCacheDir("parallel_shared_dir");

  // Several sessions race over the same cold directory: contention must
  // never corrupt or block (at worst both search and one rename wins).
  constexpr int kSessions = 4;
  std::vector<double> costs(kSessions, 0);
  std::atomic<int> failures{0};
  {
    std::vector<std::thread> threads;
    threads.reserve(kSessions);
    for (int i = 0; i < kSessions; ++i) {
      threads.emplace_back([&, i] {
        TuningSession session(&fx.store, &fx.dict, options);
        Result<Recommendation> rec = session.Update(fx.initial);
        if (!rec.ok()) {
          failures.fetch_add(1);
          return;
        }
        costs[i] = rec->stats.best_cost;
      });
    }
    for (std::thread& t : threads) t.join();
  }
  ASSERT_EQ(failures.load(), 0);
  for (int i = 1; i < kSessions; ++i) {
    EXPECT_NEAR(costs[i], costs[0], 1e-9 * (1.0 + std::abs(costs[0])));
  }

  // The directory now holds every completed partition: a late joiner
  // reuses all of them.
  TuningSession late(&fx.store, &fx.dict, options);
  Result<Recommendation> rec = late.Update(fx.initial);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->pipeline.partitions_searched, 0u);
  EXPECT_NEAR(rec->stats.best_cost, costs[0],
              1e-9 * (1.0 + std::abs(costs[0])));
}

TEST(SerializeParallelTest, ConcurrentPutGetOnOneBackend) {
  Fixture fx;
  TuningConfig options = fx.Options(StrategyKind::kDfs);
  SearchedPartitions searched =
      RunPartitionSearches(fx.store, fx.dict, fx.initial, options);
  ASSERT_GE(searched.results.size(), 2u);
  CacheIdentity identity = ComputeCacheIdentity(fx.store, options);
  DirCacheBackend backend(TempCacheDir("parallel_put_get"), identity);

  constexpr int kThreads = 4;
  constexpr int kRounds = 25;
  std::atomic<int> bad{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        size_t p = static_cast<size_t>((t + round) % 2);
        const std::string& key = searched.plan.group_keys[p];
        backend.Put(key, searched.results[p]);
        PartitionCacheBackend::Fetched hit;
        // A racing rename may momentarily hide the file; what is never
        // allowed is serving bytes that decode to the wrong outcome.
        if (backend.Get(key, &hit).ok() &&
            hit.result.search.best.Signature() !=
                searched.results[p].search.best.Signature()) {
          bad.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(bad.load(), 0);
  EXPECT_EQ(backend.counters().store_failures, 0u);
}

}  // namespace
}  // namespace rdfviews::vsel::serialize
