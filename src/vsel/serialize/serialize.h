// Versioned binary serialization of search results: engine::Expr trees,
// Views, States, per-partition search outcomes, and full Recommendations.
//
// This is the persistence half of the ROADMAP's "distributed sessions"
// item: a TuningSession's partition results are self-contained and keyed by
// renaming-insensitive canonical workload keys, so once an outcome
// round-trips through bytes, shipping (key, bytes) pairs to a shared cache
// directory — or to a remote worker — lets a fleet of tuning nodes (or
// successive CI runs) reuse each other's completed searches.
//
// Format properties:
//   - *Versioned.* Every top-level blob starts with a magic + format
//     version; readers reject unknown versions (ParseError) instead of
//     misinterpreting bytes.
//   - *Endianness-stable.* All integers are explicit little-endian and
//     doubles travel as IEEE-754 bit patterns (see binary_io.h), so blobs
//     written on one host load on any other.
//   - *Identity-tagged.* Top-level blobs embed a CacheIdentity — the
//     measured store's statistics tag (rdf::SnapshotStoreTag) plus a hash
//     of every option that shapes a search outcome (strategy, heuristics,
//     cost weights, entailment mode). Loading under a different identity is
//     rejected (InvalidArgument), exactly like rdf::LoadSnapshot refusing a
//     snapshot measured on a different store.
//   - *Checksummed.* Top-level blobs end with a 128-bit digest of the
//     preceding bytes, so corruption anywhere in the payload is detected
//     (ParseError) rather than half-trusted. Structural validation (view
//     ids resolvable from every rewriting scan, union arities consistent)
//     backstops the checksum for logic errors.
//
// Deserialized states are *structurally* complete but cost-cold: their
// per-state cost caches are empty and their views are fresh objects. The
// session re-interns them through its live CostModel (which registers every
// view in the ViewInterner) and re-costs the state, asserting the result
// equals the persisted cost — a drifted store or weight configuration that
// slipped past the identity tag is caught there and the entry discarded.
#ifndef RDFVIEWS_VSEL_SERIALIZE_SERIALIZE_H_
#define RDFVIEWS_VSEL_SERIALIZE_SERIALIZE_H_

#include <memory>
#include <string>
#include <string_view>

#include "common/status.h"
#include "cq/query.h"
#include "rdf/triple_store.h"
#include "cq/ucq.h"
#include "engine/expr.h"
#include "vsel/pipeline/pipeline.h"
#include "vsel/selector.h"
#include "vsel/serialize/binary_io.h"
#include "vsel/state.h"
#include "vsel/view.h"

namespace rdfviews::vsel::serialize {

/// Current format version of every top-level blob (partition outcomes and
/// recommendations). Bump on any encoding change; readers reject other
/// versions. Version 2 seals blobs with ChecksumBytes128 (version 1 used
/// HashBytes128).
inline constexpr uint32_t kFormatVersion = 2;

/// The identity a persisted search outcome is only valid under.
struct CacheIdentity {
  /// rdf::SnapshotStoreTag of the store the statistics were measured on
  /// (the raw store; entailment-derived stores follow deterministically
  /// from it and the schema, and drift is additionally caught by the
  /// re-cost assertion on load).
  uint64_t store_tag = 0;
  /// Hash of the options that shape a completed search's best state:
  /// strategy, heuristics, cost weights, entailment mode, and the cm
  /// auto-calibration flag. Search *limits* are deliberately excluded — a
  /// completed (space-exhausted) search finds the same best under any
  /// budget.
  uint64_t config_tag = 0;

  friend bool operator==(const CacheIdentity&,
                         const CacheIdentity&) = default;
};

/// Computes the identity for a (store, options) environment.
CacheIdentity ComputeCacheIdentity(const rdf::TripleStore& store,
                                   const TuningConfig& options);

/// The identity as 16 raw little-endian bytes (store_tag and config_tag
/// interleaved): the canonical salt sessions prepend to cache keys and
/// DirCacheBackend folds into entry file names, so every component that
/// must address the same key space derives it from this one function.
std::string IdentityKeyBytes(const CacheIdentity& identity);

// ---- Building blocks (exposed for the round-trip test suites) -------------

void SerializeQuery(const cq::ConjunctiveQuery& q, ByteWriter* w);
Result<cq::ConjunctiveQuery> DeserializeQuery(ByteReader* r);

void SerializeUnion(const cq::UnionOfQueries& u, ByteWriter* w);
Result<cq::UnionOfQueries> DeserializeUnion(ByteReader* r);

void SerializeExpr(const engine::ExprPtr& expr, ByteWriter* w);
Result<engine::ExprPtr> DeserializeExpr(ByteReader* r);

void SerializeView(const View& v, ByteWriter* w);
Result<ViewPtr> DeserializeView(ByteReader* r);

/// States serialize as views + rewritings + id counters; the fingerprint,
/// the id->slot index and the memoized per-view keys are rebuilt on load
/// (they are pure functions of the definitions). Deserialization validates
/// that view ids are unique and that every rewriting scan resolves to a
/// view of the state, so downstream costing can not hit a dangling id.
void SerializeState(const State& s, ByteWriter* w);
Result<State> DeserializeState(ByteReader* r);

void SerializeStats(const SearchStats& stats, ByteWriter* w);
Result<SearchStats> DeserializeStats(ByteReader* r);

/// The wire-transportable subset of TuningConfig: every deterministic
/// scalar knob that shapes a search outcome (strategy, heuristics, limits,
/// weights, calibration, entailment, partitioning, robustness, tracing).
/// Process-local fields deliberately do NOT travel: the stop token, the
/// progress callback and the partition executor (live objects), and the
/// SessionCacheOptions block (a remote client must not dictate the
/// server's storage paths or backend policy — the owner of the session
/// picks those). This single wire form is what both the vseld open-session
/// verb and the fleet dispatch-partition verb carry. Deserialization
/// validates enum ranges, so a hostile frame cannot smuggle an
/// out-of-range strategy or entailment mode into a switch.
void SerializeTuningConfig(const TuningConfig& config, ByteWriter* w);
Result<TuningConfig> DeserializeTuningConfig(ByteReader* r);

// ---- Top-level blobs -------------------------------------------------------

/// One completed partition search, tagged with its canonical workload key.
std::string SerializePartitionOutcome(
    std::string_view key, const pipeline::PartitionSearchResult& outcome,
    const CacheIdentity& identity);

/// Loads a partition outcome. NotFound-style misses are the caller's
/// concern; this fails with ParseError on truncation / corruption /
/// version mismatch, and InvalidArgument when the identity or the embedded
/// canonical key does not match the expectation (`expected_key` empty
/// accepts any key).
Result<pipeline::PartitionSearchResult> DeserializePartitionOutcome(
    std::string_view bytes, std::string_view expected_key,
    const CacheIdentity& identity);

/// The canonical key embedded in a serialized partition outcome (for cache
/// directory listings / debugging). Fails like DeserializePartitionOutcome
/// but without decoding the payload.
Result<std::string> PeekPartitionOutcomeKey(std::string_view bytes);

/// A full Recommendation: view definitions, columns, ids, rewritings, best
/// state, stats and entailment mode. The materialization store and the
/// observability counters do not travel — counters restart at zero, and
/// the loader re-attaches the store through the `materialization_store`
/// parameter (required before vsel::Materialize; derive the expected
/// identity from the same store via ComputeCacheIdentity so a foreign
/// attachment is rejected up front). A null store is fine for clients that
/// only execute rewritings over already-materialized relations
/// (vsel::AnswerQuery), the offline-client deployment.
std::string SerializeRecommendation(const Recommendation& rec,
                                    const CacheIdentity& identity);
Result<Recommendation> DeserializeRecommendation(
    std::string_view bytes, const CacheIdentity& identity,
    std::shared_ptr<const rdf::TripleStore> materialization_store = nullptr);

/// SerializeRecommendation with the wall-clock-dependent stats fields
/// (elapsed_sec, the timestamped best_trace) normalized away: two runs
/// that found the same best state produce byte-identical canonical blobs.
/// The vseld end-to-end parity gate compares a daemon-served
/// recommendation against an in-process one through this form.
std::string SerializeRecommendationCanonical(const Recommendation& rec,
                                             const CacheIdentity& identity);

}  // namespace rdfviews::vsel::serialize

#endif  // RDFVIEWS_VSEL_SERIALIZE_SERIALIZE_H_
