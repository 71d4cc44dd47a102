#include "vsel/serialize/serialize.h"

#include <algorithm>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "rdf/statistics.h"

namespace rdfviews::vsel::serialize {

namespace {

constexpr uint32_t kPartitionOutcomeMagic = 0x4F505652;  // "RVPO"
constexpr uint32_t kRecommendationMagic = 0x43525652;    // "RVRC"

/// Guard against stack exhaustion on hostile expression nesting: real
/// rewritings are a few levels deep (select/project over joins of scans);
/// anything deeper than this in a file is rejected as corrupt.
constexpr int kMaxExprDepth = 4096;

void SerializeTerm(const cq::Term& t, ByteWriter* w) {
  w->U8(t.is_var() ? 0 : 1);
  w->U32(t.is_var() ? t.var() : t.constant());
}

cq::Term DeserializeTerm(ByteReader* r) {
  uint8_t tag = r->U8();
  uint32_t value = r->U32();
  return tag == 0 ? cq::Term::Var(value)
                  : cq::Term::Const(static_cast<rdf::TermId>(value));
}

void SerializeCondition(const engine::Condition& c, ByteWriter* w) {
  w->U32(c.lhs);
  w->U8(c.rhs_is_const ? 1 : 0);
  w->U32(c.rhs_is_const ? c.const_rhs : c.var_rhs);
}

engine::Condition DeserializeCondition(ByteReader* r) {
  cq::VarId lhs = r->U32();
  bool is_const = r->U8() != 0;
  uint32_t rhs = r->U32();
  return is_const ? engine::Condition::Eq(lhs, rhs)
                  : engine::Condition::EqVar(lhs, rhs);
}

Result<engine::ExprPtr> DeserializeExprAtDepth(ByteReader* r, int depth);

Result<std::vector<engine::ExprPtr>> DeserializeChildren(ByteReader* r,
                                                         int depth,
                                                         uint64_t count) {
  std::vector<engine::ExprPtr> children;
  children.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    Result<engine::ExprPtr> child = DeserializeExprAtDepth(r, depth);
    if (!child.ok()) return child.status();
    children.push_back(std::move(*child));
  }
  return children;
}

Result<engine::ExprPtr> DeserializeExprAtDepth(ByteReader* r, int depth) {
  if (depth > kMaxExprDepth) {
    return Status::ParseError("expression nesting exceeds " +
                              std::to_string(kMaxExprDepth));
  }
  const uint8_t kind = r->U8();
  if (r->failed()) return Status::ParseError("truncated expression");
  switch (static_cast<engine::Expr::Kind>(kind)) {
    case engine::Expr::Kind::kScan: {
      uint32_t view_id = r->U32();
      uint64_t n = r->Count(4);
      std::vector<cq::VarId> columns;
      columns.reserve(n);
      for (uint64_t i = 0; i < n; ++i) columns.push_back(r->U32());
      if (r->failed()) return Status::ParseError("truncated scan");
      return engine::Expr::Scan(view_id, std::move(columns));
    }
    case engine::Expr::Kind::kSelect: {
      uint64_t n = r->Count(9);
      std::vector<engine::Condition> conditions;
      conditions.reserve(n);
      for (uint64_t i = 0; i < n; ++i) {
        conditions.push_back(DeserializeCondition(r));
      }
      Result<engine::ExprPtr> child = DeserializeExprAtDepth(r, depth + 1);
      if (!child.ok()) return child.status();
      if (r->failed()) return Status::ParseError("truncated select");
      return engine::Expr::Select(std::move(*child), std::move(conditions));
    }
    case engine::Expr::Kind::kProject: {
      uint64_t n = r->Count(4);
      std::vector<cq::VarId> columns;
      columns.reserve(n);
      for (uint64_t i = 0; i < n; ++i) columns.push_back(r->U32());
      Result<engine::ExprPtr> child = DeserializeExprAtDepth(r, depth + 1);
      if (!child.ok()) return child.status();
      if (r->failed()) return Status::ParseError("truncated project");
      return engine::Expr::Project(std::move(*child), std::move(columns));
    }
    case engine::Expr::Kind::kJoin: {
      uint64_t n = r->Count(8);
      std::vector<std::pair<cq::VarId, cq::VarId>> pairs;
      pairs.reserve(n);
      for (uint64_t i = 0; i < n; ++i) {
        cq::VarId a = r->U32();
        cq::VarId b = r->U32();
        pairs.emplace_back(a, b);
      }
      Result<engine::ExprPtr> left = DeserializeExprAtDepth(r, depth + 1);
      if (!left.ok()) return left.status();
      Result<engine::ExprPtr> right = DeserializeExprAtDepth(r, depth + 1);
      if (!right.ok()) return right.status();
      if (r->failed()) return Status::ParseError("truncated join");
      return engine::Expr::Join(std::move(*left), std::move(*right),
                                std::move(pairs));
    }
    case engine::Expr::Kind::kRename: {
      uint64_t n = r->Count(8);
      std::unordered_map<cq::VarId, cq::VarId> mapping;
      mapping.reserve(n);
      for (uint64_t i = 0; i < n; ++i) {
        cq::VarId from = r->U32();
        cq::VarId to = r->U32();
        if (!mapping.emplace(from, to).second) {
          return Status::ParseError("duplicate rename source column");
        }
      }
      Result<engine::ExprPtr> child = DeserializeExprAtDepth(r, depth + 1);
      if (!child.ok()) return child.status();
      if (r->failed()) return Status::ParseError("truncated rename");
      return engine::Expr::Rename(std::move(*child), std::move(mapping));
    }
    case engine::Expr::Kind::kUnion: {
      uint64_t n = r->Count(1);
      if (n == 0) return Status::ParseError("union with no children");
      Result<std::vector<engine::ExprPtr>> children =
          DeserializeChildren(r, depth + 1, n);
      if (!children.ok()) return children.status();
      return engine::Expr::Union(std::move(*children));
    }
    case engine::Expr::Kind::kArrange: {
      uint64_t n = r->Count(9);  // exact wire size: U8 + U32 + U32
      std::vector<engine::ArrangeCol> spec;
      spec.reserve(n);
      for (uint64_t i = 0; i < n; ++i) {
        engine::ArrangeCol col;
        col.is_const = r->U8() != 0;
        uint32_t payload = r->U32();
        if (col.is_const) {
          col.value = payload;
        } else {
          col.source = payload;
        }
        col.output_name = r->U32();
        spec.push_back(col);
      }
      Result<engine::ExprPtr> child = DeserializeExprAtDepth(r, depth + 1);
      if (!child.ok()) return child.status();
      if (r->failed()) return Status::ParseError("truncated arrange");
      return engine::Expr::Arrange(std::move(*child), std::move(spec));
    }
  }
  return Status::ParseError("unknown expression kind " +
                            std::to_string(kind));
}

/// Largest variable id named anywhere in an expression tree (scan and
/// project columns, condition operands, join pairs, rename endpoints,
/// arrange sources and outputs). Used to validate persisted id counters.
void MaxVarInExpr(const engine::Expr& e, bool* any, cq::VarId* max_var) {
  auto note = [&](cq::VarId v) {
    if (!*any || v > *max_var) *max_var = v;
    *any = true;
  };
  switch (e.kind()) {
    case engine::Expr::Kind::kScan:
      for (cq::VarId c : e.scan_columns()) note(c);
      break;
    case engine::Expr::Kind::kSelect:
      for (const engine::Condition& c : e.conditions()) {
        note(c.lhs);
        if (!c.rhs_is_const) note(c.var_rhs);
      }
      break;
    case engine::Expr::Kind::kProject:
      for (cq::VarId c : e.project_columns()) note(c);
      break;
    case engine::Expr::Kind::kJoin:
      for (const auto& [a, b] : e.join_pairs()) {
        note(a);
        note(b);
      }
      break;
    case engine::Expr::Kind::kRename:
      for (const auto& [from, to] : e.rename_map()) {
        note(from);
        note(to);
      }
      break;
    case engine::Expr::Kind::kUnion:
      break;
    case engine::Expr::Kind::kArrange:
      for (const engine::ArrangeCol& col : e.arrange_spec()) {
        if (!col.is_const) note(col.source);
        note(col.output_name);
      }
      break;
  }
  for (const engine::ExprPtr& child : e.children()) {
    MaxVarInExpr(*child, any, max_var);
  }
}

/// Bottom-up schema check of a deserialized expression: every operator's
/// referenced columns must resolve in its input's output schema and union
/// children must agree on width — exactly the invariants the executor
/// fatally asserts (engine/executor.cc), which for a fabricated blob must
/// surface as a bad file at load time, not a crash in the consumer.
/// Returns the node's output columns (mirroring Expr::OutputColumns).
/// Depth is bounded: the tree came out of DeserializeExprAtDepth.
Result<std::vector<cq::VarId>> ValidateExprSchema(const engine::Expr& e) {
  auto has = [](const std::vector<cq::VarId>& cols, cq::VarId v) {
    return std::find(cols.begin(), cols.end(), v) != cols.end();
  };
  switch (e.kind()) {
    case engine::Expr::Kind::kScan:
      return e.scan_columns();
    case engine::Expr::Kind::kSelect: {
      Result<std::vector<cq::VarId>> child = ValidateExprSchema(*e.child());
      if (!child.ok()) return child.status();
      for (const engine::Condition& c : e.conditions()) {
        if (!has(*child, c.lhs) ||
            (!c.rhs_is_const && !has(*child, c.var_rhs))) {
          return Status::ParseError(
              "selection on a column absent from its input");
        }
      }
      return child;
    }
    case engine::Expr::Kind::kProject: {
      Result<std::vector<cq::VarId>> child = ValidateExprSchema(*e.child());
      if (!child.ok()) return child.status();
      for (cq::VarId c : e.project_columns()) {
        if (!has(*child, c)) {
          return Status::ParseError(
              "projection on a column absent from its input");
        }
      }
      return e.project_columns();
    }
    case engine::Expr::Kind::kJoin: {
      Result<std::vector<cq::VarId>> left = ValidateExprSchema(*e.left());
      if (!left.ok()) return left.status();
      Result<std::vector<cq::VarId>> right = ValidateExprSchema(*e.right());
      if (!right.ok()) return right.status();
      for (const auto& [a, b] : e.join_pairs()) {
        if (!has(*left, a) || !has(*right, b)) {
          return Status::ParseError(
              "join pair on columns absent from its inputs");
        }
      }
      std::vector<cq::VarId> cols = std::move(*left);
      for (cq::VarId c : *right) {
        if (!has(cols, c)) cols.push_back(c);
      }
      return cols;
    }
    case engine::Expr::Kind::kRename: {
      Result<std::vector<cq::VarId>> child = ValidateExprSchema(*e.child());
      if (!child.ok()) return child.status();
      for (cq::VarId& c : *child) {
        auto it = e.rename_map().find(c);
        if (it != e.rename_map().end()) c = it->second;
      }
      return child;
    }
    case engine::Expr::Kind::kUnion: {
      Result<std::vector<cq::VarId>> first =
          ValidateExprSchema(*e.children()[0]);
      if (!first.ok()) return first.status();
      for (size_t i = 1; i < e.children().size(); ++i) {
        Result<std::vector<cq::VarId>> part =
            ValidateExprSchema(*e.children()[i]);
        if (!part.ok()) return part.status();
        if (part->size() != first->size()) {
          return Status::ParseError("union children with mismatched widths");
        }
      }
      return first;
    }
    case engine::Expr::Kind::kArrange: {
      Result<std::vector<cq::VarId>> child = ValidateExprSchema(*e.child());
      if (!child.ok()) return child.status();
      std::vector<cq::VarId> cols;
      cols.reserve(e.arrange_spec().size());
      for (const engine::ArrangeCol& col : e.arrange_spec()) {
        if (!col.is_const && !has(*child, col.source)) {
          return Status::ParseError(
              "arrange on a column absent from its input");
        }
        cols.push_back(col.output_name);
      }
      return cols;
    }
  }
  return Status::ParseError("unknown expression kind");
}

/// Appends the 128-bit digest of everything written so far, sealing the
/// blob against corruption.
std::string SealBlob(ByteWriter w) {
  const std::string& body = w.bytes();
  Hash128 sum = ChecksumBytes128(body.data(), body.size());
  w.U64(sum.lo);
  w.U64(sum.hi);
  return w.TakeBytes();
}

/// Validates the common blob envelope: magic, format version, checksum and
/// identity, in an order that reports the most specific failure (a wrong
/// magic is "not one of ours", a wrong version is a format skew, a checksum
/// mismatch is corruption, a wrong identity is a different environment).
/// `identity == nullptr` skips the identity comparison (the peek path).
/// On success returns a reader positioned at the payload, spanning
/// everything between the header and the trailing digest.
Result<ByteReader> OpenBlob(std::string_view bytes, uint32_t magic,
                            const CacheIdentity* identity,
                            const char* what) {
  // Header (8) + identity (16) + checksum (16).
  if (bytes.size() < 40) {
    return Status::ParseError(std::string("truncated ") + what);
  }
  ByteReader header(bytes);
  if (header.U32() != magic) {
    return Status::ParseError(std::string("not a serialized ") + what);
  }
  uint32_t version = header.U32();
  if (version != kFormatVersion) {
    return Status::ParseError(
        std::string(what) + " format version " + std::to_string(version) +
        " (this build reads " + std::to_string(kFormatVersion) + ")");
  }
  Hash128 sum =
      ChecksumBytes128(bytes.data(), bytes.size() - 2 * sizeof(uint64_t));
  ByteReader tail(bytes.substr(bytes.size() - 2 * sizeof(uint64_t)));
  Hash128 stored{tail.U64(), tail.U64()};
  if (stored != sum) {
    return Status::ParseError(std::string("corrupted ") + what +
                              " (checksum mismatch)");
  }
  uint64_t store_tag = header.U64();
  uint64_t config_tag = header.U64();
  if (identity != nullptr && (store_tag != identity->store_tag ||
                              config_tag != identity->config_tag)) {
    return Status::InvalidArgument(
        std::string(what) +
        " was produced under a different store / configuration identity");
  }
  return ByteReader(
      bytes.substr(header.pos(), bytes.size() - header.pos() - 16));
}

void WriteBlobHeader(uint32_t magic, const CacheIdentity& identity,
                     ByteWriter* w) {
  w->U32(magic);
  w->U32(kFormatVersion);
  w->U64(identity.store_tag);
  w->U64(identity.config_tag);
}

}  // namespace

CacheIdentity ComputeCacheIdentity(const rdf::TripleStore& store,
                                   const TuningConfig& options) {
  CacheIdentity id;
  id.store_tag = rdf::SnapshotStoreTag(store);
  size_t seed = 0x52445643;  // "RDVC"
  HashCombine(&seed, static_cast<size_t>(options.strategy));
  HashCombine(&seed, options.heuristics.avf);
  HashCombine(&seed, options.heuristics.stop_var);
  HashCombine(&seed, options.heuristics.stop_tt);
  HashCombine(&seed, static_cast<size_t>(options.heuristics.vb_overlap));
  auto combine_double = [&seed](double v) {
    uint64_t bits;
    __builtin_memcpy(&bits, &v, sizeof(bits));
    HashCombine(&seed, static_cast<size_t>(bits));
  };
  combine_double(options.weights.cs);
  combine_double(options.weights.cr);
  combine_double(options.weights.cm);
  combine_double(options.weights.c1);
  combine_double(options.weights.c2);
  combine_double(options.weights.f);
  HashCombine(&seed, static_cast<size_t>(options.entailment));
  HashCombine(&seed, options.auto_calibrate_cm);
  id.config_tag = Mix64(static_cast<uint64_t>(seed));
  return id;
}

std::string IdentityKeyBytes(const CacheIdentity& identity) {
  std::string bytes;
  bytes.reserve(16);
  for (int i = 0; i < 8; ++i) {
    bytes.push_back(
        static_cast<char>((identity.store_tag >> (8 * i)) & 0xff));
    bytes.push_back(
        static_cast<char>((identity.config_tag >> (8 * i)) & 0xff));
  }
  return bytes;
}

void SerializeQuery(const cq::ConjunctiveQuery& q, ByteWriter* w) {
  w->Str(q.name());
  w->U64(q.head().size());
  for (const cq::Term& t : q.head()) SerializeTerm(t, w);
  w->U64(q.atoms().size());
  for (const cq::Atom& a : q.atoms()) {
    SerializeTerm(a.s, w);
    SerializeTerm(a.p, w);
    SerializeTerm(a.o, w);
  }
}

Result<cq::ConjunctiveQuery> DeserializeQuery(ByteReader* r) {
  std::string name = r->Str();
  uint64_t num_head = r->Count(5);
  std::vector<cq::Term> head;
  head.reserve(num_head);
  for (uint64_t i = 0; i < num_head; ++i) head.push_back(DeserializeTerm(r));
  uint64_t num_atoms = r->Count(15);
  std::vector<cq::Atom> atoms;
  atoms.reserve(num_atoms);
  for (uint64_t i = 0; i < num_atoms; ++i) {
    cq::Atom a;
    a.s = DeserializeTerm(r);
    a.p = DeserializeTerm(r);
    a.o = DeserializeTerm(r);
    atoms.push_back(a);
  }
  if (r->failed()) return Status::ParseError("truncated query");
  return cq::ConjunctiveQuery(std::move(name), std::move(head),
                              std::move(atoms));
}

void SerializeUnion(const cq::UnionOfQueries& u, ByteWriter* w) {
  w->Str(u.name());
  w->U64(u.size());
  for (const cq::ConjunctiveQuery& q : u.disjuncts()) SerializeQuery(q, w);
}

Result<cq::UnionOfQueries> DeserializeUnion(ByteReader* r) {
  std::string name = r->Str();
  uint64_t n = r->Count(16);
  cq::UnionOfQueries u(std::move(name));
  size_t arity = 0;
  for (uint64_t i = 0; i < n; ++i) {
    Result<cq::ConjunctiveQuery> q = DeserializeQuery(r);
    if (!q.ok()) return q.status();
    if (i == 0) {
      arity = q->head().size();
    } else if (q->head().size() != arity) {
      return Status::ParseError("union disjuncts with mismatched arities");
    }
    if (!u.Add(std::move(*q))) {
      return Status::ParseError("duplicate disjunct in serialized union");
    }
  }
  return u;
}

void SerializeExpr(const engine::ExprPtr& expr, ByteWriter* w) {
  const engine::Expr& e = *expr;
  w->U8(static_cast<uint8_t>(e.kind()));
  switch (e.kind()) {
    case engine::Expr::Kind::kScan:
      w->U32(e.view_id());
      w->U64(e.scan_columns().size());
      for (cq::VarId c : e.scan_columns()) w->U32(c);
      return;
    case engine::Expr::Kind::kSelect:
      w->U64(e.conditions().size());
      for (const engine::Condition& c : e.conditions()) {
        SerializeCondition(c, w);
      }
      SerializeExpr(e.child(), w);
      return;
    case engine::Expr::Kind::kProject:
      w->U64(e.project_columns().size());
      for (cq::VarId c : e.project_columns()) w->U32(c);
      SerializeExpr(e.child(), w);
      return;
    case engine::Expr::Kind::kJoin:
      w->U64(e.join_pairs().size());
      for (const auto& [a, b] : e.join_pairs()) {
        w->U32(a);
        w->U32(b);
      }
      SerializeExpr(e.left(), w);
      SerializeExpr(e.right(), w);
      return;
    case engine::Expr::Kind::kRename: {
      // Hash-map iteration order is not deterministic; write sorted so the
      // same tree always yields the same bytes (stable checksums and
      // content-addressed dedup downstream).
      std::vector<std::pair<cq::VarId, cq::VarId>> entries(
          e.rename_map().begin(), e.rename_map().end());
      std::sort(entries.begin(), entries.end());
      w->U64(entries.size());
      for (const auto& [from, to] : entries) {
        w->U32(from);
        w->U32(to);
      }
      SerializeExpr(e.child(), w);
      return;
    }
    case engine::Expr::Kind::kUnion:
      w->U64(e.children().size());
      for (const engine::ExprPtr& child : e.children()) {
        SerializeExpr(child, w);
      }
      return;
    case engine::Expr::Kind::kArrange:
      w->U64(e.arrange_spec().size());
      for (const engine::ArrangeCol& col : e.arrange_spec()) {
        w->U8(col.is_const ? 1 : 0);
        w->U32(col.is_const ? static_cast<uint32_t>(col.value) : col.source);
        w->U32(col.output_name);
      }
      SerializeExpr(e.child(), w);
      return;
  }
}

Result<engine::ExprPtr> DeserializeExpr(ByteReader* r) {
  return DeserializeExprAtDepth(r, 0);
}

void SerializeView(const View& v, ByteWriter* w) {
  w->U32(v.id);
  SerializeQuery(v.def, w);
}

Result<ViewPtr> DeserializeView(ByteReader* r) {
  View v;
  v.id = r->U32();
  Result<cq::ConjunctiveQuery> def = DeserializeQuery(r);
  if (!def.ok()) return def.status();
  v.def = std::move(*def);
  // A view's head must be distinct variables (its relation's column names);
  // the def must be a well-formed query, or costing / canonicalization
  // downstream would trip invariants instead of reporting a bad file.
  std::unordered_set<cq::VarId> head_vars;
  for (const cq::Term& t : v.def.head()) {
    if (t.is_const() || !head_vars.insert(t.var()).second) {
      return Status::ParseError("view head is not distinct variables");
    }
  }
  Status valid = v.def.Validate();
  if (!valid.ok()) {
    return Status::ParseError("invalid view definition: " + valid.message());
  }
  return MakeView(std::move(v));
}

void SerializeState(const State& s, ByteWriter* w) {
  w->U64(s.views().size());
  for (const View& v : s.views()) SerializeView(v, w);
  w->U64(s.rewritings().size());
  for (const engine::ExprPtr& e : s.rewritings()) SerializeExpr(e, w);
  w->U32(s.next_var());
  w->U32(s.next_view_id());
}

Result<State> DeserializeState(ByteReader* r) {
  State s;
  uint64_t num_views = r->Count(16);
  for (uint64_t i = 0; i < num_views; ++i) {
    Result<ViewPtr> v = DeserializeView(r);
    if (!v.ok()) return v.status();
    if (s.ViewIndexById((*v)->id) >= 0) {
      return Status::ParseError("duplicate view id in serialized state");
    }
    s.AddView(std::move(*v));
  }
  uint64_t num_rewritings = r->Count(2);
  std::vector<engine::ExprPtr> rewritings;
  rewritings.reserve(num_rewritings);
  for (uint64_t i = 0; i < num_rewritings; ++i) {
    Result<engine::ExprPtr> e = DeserializeExpr(r);
    if (!e.ok()) return e.status();
    // Every scan must resolve to a view of this state *and* carry exactly
    // that view's column count — costing and merge re-basing would chase
    // dangling ids otherwise, and the executor fatally asserts relation
    // width against scan width.
    bool dangling = false;
    (*e)->ForEachScan([&](const engine::Expr& scan) {
      int idx = s.ViewIndexById(scan.view_id());
      if (idx < 0 ||
          scan.scan_columns().size() !=
              s.views()[static_cast<size_t>(idx)].def.head().size()) {
        dangling = true;
      }
    });
    if (dangling) {
      return Status::ParseError(
          "rewriting scan does not match any state view");
    }
    Result<std::vector<cq::VarId>> schema = ValidateExprSchema(**e);
    if (!schema.ok()) return schema.status();
    rewritings.push_back(std::move(*e));
  }
  s.SetRewritings(std::move(rewritings));
  s.set_next_var(r->U32());
  s.set_next_view_id(r->U32());
  if (r->failed()) return Status::ParseError("truncated state");
  // The id counters must dominate every id actually used — the merge stage
  // offsets later partitions by next_var / allocates ids from next_view_id,
  // so a too-small fabricated counter (the checksum is integrity, not
  // authenticity) would silently collide ids across partitions — and must
  // not exceed the used ids by more than a generous slack either, or a
  // huge fabricated counter would wrap the merge stage's uint32 offset
  // accumulation instead of failing here. Legitimate states carry at most
  // a few hundred discarded-intermediate allocations above their max used
  // id (search depth x vars per transition), far under the slack.
  constexpr uint64_t kMaxIdSlack = 1u << 20;
  bool any_var = false;
  cq::VarId max_var = 0;
  uint32_t max_view_id = 0;
  for (const View& v : s.views()) {
    cq::VarId m = v.def.MaxVarId();
    if (m > 0 || !v.def.BodyVars().empty() || !v.def.HeadVars().empty()) {
      if (!any_var || m > max_var) max_var = m;
      any_var = true;
    }
    max_view_id = std::max(max_view_id, v.id);
    if (v.id >= s.next_view_id()) {
      return Status::ParseError("state view id beyond next_view_id");
    }
  }
  for (const engine::ExprPtr& e : s.rewritings()) {
    MaxVarInExpr(*e, &any_var, &max_var);
  }
  if (any_var && max_var >= s.next_var()) {
    return Status::ParseError("state variable id beyond next_var");
  }
  if (s.next_var() > static_cast<uint64_t>(any_var ? max_var : 0) +
                         kMaxIdSlack ||
      s.next_view_id() > static_cast<uint64_t>(max_view_id) + kMaxIdSlack) {
    return Status::ParseError("implausibly large state id counter");
  }
  return s;
}

namespace {

/// SerializeStats; `canonical` writes an empty best_trace and a zero
/// elapsed_sec in place of the wall-clock-dependent fields.
void WriteStats(const SearchStats& stats, bool canonical, ByteWriter* w) {
  w->U64(stats.created);
  w->U64(stats.duplicates);
  w->U64(stats.discarded);
  w->U64(stats.explored);
  w->U64(stats.transitions_applied);
  w->F64(stats.initial_cost);
  w->F64(stats.best_cost);
  if (canonical) {
    w->U64(0);
  } else {
    w->U64(stats.best_trace.size());
    for (const auto& [t, cost] : stats.best_trace) {
      w->F64(t);
      w->F64(cost);
    }
  }
  uint8_t flags = 0;
  if (stats.completed) flags |= 1;
  if (stats.memory_exhausted) flags |= 2;
  if (stats.time_exhausted) flags |= 4;
  if (stats.cancelled) flags |= 8;
  w->U8(flags);
  w->F64(canonical ? 0.0 : stats.elapsed_sec);
}

}  // namespace

void SerializeStats(const SearchStats& stats, ByteWriter* w) {
  WriteStats(stats, /*canonical=*/false, w);
}

Result<SearchStats> DeserializeStats(ByteReader* r) {
  SearchStats stats;
  stats.created = r->U64();
  stats.duplicates = r->U64();
  stats.discarded = r->U64();
  stats.explored = r->U64();
  stats.transitions_applied = r->U64();
  stats.initial_cost = r->F64();
  stats.best_cost = r->F64();
  uint64_t trace = r->Count(16);
  stats.best_trace.reserve(trace);
  for (uint64_t i = 0; i < trace; ++i) {
    double t = r->F64();
    double cost = r->F64();
    stats.best_trace.emplace_back(t, cost);
  }
  uint8_t flags = r->U8();
  stats.completed = (flags & 1) != 0;
  stats.memory_exhausted = (flags & 2) != 0;
  stats.time_exhausted = (flags & 4) != 0;
  stats.cancelled = (flags & 8) != 0;
  stats.elapsed_sec = r->F64();
  if (r->failed()) return Status::ParseError("truncated search stats");
  return stats;
}

std::string SerializePartitionOutcome(
    std::string_view key, const pipeline::PartitionSearchResult& outcome,
    const CacheIdentity& identity) {
  ByteWriter w;
  WriteBlobHeader(kPartitionOutcomeMagic, identity, &w);
  w.Str(key);
  w.F64(outcome.initial_cost);
  SerializeStats(outcome.search.stats, &w);
  SerializeState(outcome.search.best, &w);
  return SealBlob(std::move(w));
}

Result<pipeline::PartitionSearchResult> DeserializePartitionOutcome(
    std::string_view bytes, std::string_view expected_key,
    const CacheIdentity& identity) {
  Result<ByteReader> payload = OpenBlob(bytes, kPartitionOutcomeMagic,
                                        &identity, "partition outcome");
  if (!payload.ok()) return payload.status();
  ByteReader& r = *payload;
  std::string key = r.Str();
  if (r.failed()) return Status::ParseError("truncated partition outcome");
  if (!expected_key.empty() && key != expected_key) {
    return Status::InvalidArgument(
        "partition outcome holds a different canonical workload key");
  }
  pipeline::PartitionSearchResult outcome;
  outcome.initial_cost = r.F64();
  Result<SearchStats> stats = DeserializeStats(&r);
  if (!stats.ok()) return stats.status();
  outcome.search.stats = std::move(*stats);
  Result<State> best = DeserializeState(&r);
  if (!best.ok()) return best.status();
  outcome.search.best = std::move(*best);
  if (!r.AtEnd()) {
    return Status::ParseError("trailing bytes after partition outcome");
  }
  return outcome;
}

Result<std::string> PeekPartitionOutcomeKey(std::string_view bytes) {
  // Peeking must not trust unvalidated bytes either: the full envelope
  // check runs, minus the identity comparison (any identity peeks).
  Result<ByteReader> payload = OpenBlob(bytes, kPartitionOutcomeMagic,
                                        /*identity=*/nullptr,
                                        "partition outcome");
  if (!payload.ok()) return payload.status();
  std::string key = payload->Str();
  if (payload->failed()) {
    return Status::ParseError("truncated partition outcome");
  }
  return key;
}

namespace {

std::string WriteRecommendation(const Recommendation& rec,
                                const CacheIdentity& identity,
                                bool canonical) {
  ByteWriter w;
  WriteBlobHeader(kRecommendationMagic, identity, &w);
  w.U8(static_cast<uint8_t>(rec.entailment));
  w.U64(rec.view_definitions.size());
  for (size_t i = 0; i < rec.view_definitions.size(); ++i) {
    w.U32(rec.view_ids[i]);
    w.U64(rec.view_columns[i].size());
    for (cq::VarId c : rec.view_columns[i]) w.U32(c);
    SerializeUnion(rec.view_definitions[i], &w);
  }
  w.U64(rec.rewritings.size());
  for (const engine::ExprPtr& e : rec.rewritings) SerializeExpr(e, &w);
  SerializeState(rec.best_state, &w);
  WriteStats(rec.stats, canonical, &w);
  return SealBlob(std::move(w));
}

}  // namespace

std::string SerializeRecommendation(const Recommendation& rec,
                                    const CacheIdentity& identity) {
  return WriteRecommendation(rec, identity, /*canonical=*/false);
}

Result<Recommendation> DeserializeRecommendation(
    std::string_view bytes, const CacheIdentity& identity,
    std::shared_ptr<const rdf::TripleStore> materialization_store) {
  Result<ByteReader> payload =
      OpenBlob(bytes, kRecommendationMagic, &identity, "recommendation");
  if (!payload.ok()) return payload.status();
  ByteReader& r = *payload;
  Recommendation rec;
  rec.materialization_store = std::move(materialization_store);
  uint8_t entailment = r.U8();
  if (entailment > static_cast<uint8_t>(EntailmentMode::kPostReformulate)) {
    return Status::ParseError("unknown entailment mode in recommendation");
  }
  rec.entailment = static_cast<EntailmentMode>(entailment);
  uint64_t num_views = r.Count(32);
  rec.view_definitions.reserve(num_views);
  rec.view_columns.reserve(num_views);
  rec.view_ids.reserve(num_views);
  for (uint64_t i = 0; i < num_views; ++i) {
    rec.view_ids.push_back(r.U32());
    uint64_t num_cols = r.Count(4);
    std::vector<cq::VarId> cols;
    cols.reserve(num_cols);
    for (uint64_t c = 0; c < num_cols; ++c) cols.push_back(r.U32());
    rec.view_columns.push_back(std::move(cols));
    Result<cq::UnionOfQueries> u = DeserializeUnion(&r);
    if (!u.ok()) return u.status();
    // The materializer asserts each view relation's width against
    // view_columns, and evaluates at least one disjunct: both must be
    // load-time rejections for a tampered blob, not client crashes.
    if (u->empty()) {
      return Status::ParseError("recommendation view with no disjuncts");
    }
    if (u->disjuncts()[0].head().size() != rec.view_columns.back().size()) {
      return Status::ParseError(
          "recommendation view columns do not match its definition arity");
    }
    rec.view_definitions.push_back(std::move(*u));
  }
  uint64_t num_rewritings = r.Count(2);
  rec.rewritings.reserve(num_rewritings);
  std::unordered_map<uint32_t, size_t> view_widths;
  for (size_t i = 0; i < rec.view_ids.size(); ++i) {
    // Mirrors DeserializeState: duplicate ids would let the width map
    // collapse entries and wave a wrong-width scan past the check below.
    if (!view_widths.try_emplace(rec.view_ids[i],
                                 rec.view_columns[i].size())
             .second) {
      return Status::ParseError("duplicate view id in recommendation");
    }
  }
  for (uint64_t i = 0; i < num_rewritings; ++i) {
    Result<engine::ExprPtr> e = DeserializeExpr(&r);
    if (!e.ok()) return e.status();
    // The client executes these over MaterializedViews addressed by
    // rec.view_ids, and the executor fatally asserts each scanned
    // relation's width: an unresolvable or wrong-width scan must be a bad
    // file here, not a crash in the client.
    bool dangling = false;
    (*e)->ForEachScan([&](const engine::Expr& scan) {
      auto it = view_widths.find(scan.view_id());
      if (it == view_widths.end() ||
          scan.scan_columns().size() != it->second) {
        dangling = true;
      }
    });
    if (dangling) {
      return Status::ParseError(
          "rewriting scan does not match any recommendation view");
    }
    Result<std::vector<cq::VarId>> schema = ValidateExprSchema(**e);
    if (!schema.ok()) return schema.status();
    rec.rewritings.push_back(std::move(*e));
  }
  Result<State> best = DeserializeState(&r);
  if (!best.ok()) return best.status();
  rec.best_state = std::move(*best);
  Result<SearchStats> stats = DeserializeStats(&r);
  if (!stats.ok()) return stats.status();
  rec.stats = std::move(*stats);
  if (!r.AtEnd()) {
    return Status::ParseError("trailing bytes after recommendation");
  }
  return rec;
}

std::string SerializeRecommendationCanonical(const Recommendation& rec,
                                             const CacheIdentity& identity) {
  return WriteRecommendation(rec, identity, /*canonical=*/true);
}

void SerializeTuningConfig(const TuningConfig& o, ByteWriter* w) {
  w->U8(static_cast<uint8_t>(o.strategy));
  w->U8(o.heuristics.avf ? 1 : 0);
  w->U8(o.heuristics.stop_var ? 1 : 0);
  w->U8(o.heuristics.stop_tt ? 1 : 0);
  w->U32(static_cast<uint32_t>(o.heuristics.vb_overlap));
  w->F64(o.limits.time_budget_sec);
  w->U64(o.limits.max_states);
  w->U64(o.limits.num_threads);
  w->F64(o.weights.cs);
  w->F64(o.weights.cr);
  w->F64(o.weights.cm);
  w->F64(o.weights.c1);
  w->F64(o.weights.c2);
  w->F64(o.weights.f);
  w->U8(o.auto_calibrate_cm ? 1 : 0);
  w->U8(static_cast<uint8_t>(o.entailment));
  w->U8(o.partition.enabled ? 1 : 0);
  w->U64(o.robust.retry.max_attempts);
  w->F64(o.robust.partition_deadline_sec);
  w->U8(o.telemetry.trace ? 1 : 0);
}

Result<TuningConfig> DeserializeTuningConfig(ByteReader* r) {
  TuningConfig o;
  uint8_t strategy = r->U8();
  if (strategy > static_cast<uint8_t>(StrategyKind::kHeuristic21)) {
    return Status::ParseError("options hold an unknown strategy kind");
  }
  o.strategy = static_cast<StrategyKind>(strategy);
  o.heuristics.avf = r->U8() != 0;
  o.heuristics.stop_var = r->U8() != 0;
  o.heuristics.stop_tt = r->U8() != 0;
  o.heuristics.vb_overlap = static_cast<int>(r->U32());
  o.limits.time_budget_sec = r->F64();
  o.limits.max_states = r->U64();
  o.limits.num_threads = r->U64();
  o.weights.cs = r->F64();
  o.weights.cr = r->F64();
  o.weights.cm = r->F64();
  o.weights.c1 = r->F64();
  o.weights.c2 = r->F64();
  o.weights.f = r->F64();
  o.auto_calibrate_cm = r->U8() != 0;
  uint8_t entailment = r->U8();
  if (entailment > static_cast<uint8_t>(EntailmentMode::kPostReformulate)) {
    return Status::ParseError("options hold an unknown entailment mode");
  }
  o.entailment = static_cast<EntailmentMode>(entailment);
  o.partition.enabled = r->U8() != 0;
  o.robust.retry.max_attempts = r->U64();
  o.robust.partition_deadline_sec = r->F64();
  o.telemetry.trace = r->U8() != 0;
  if (r->failed()) return Status::ParseError("truncated options");
  return o;
}

}  // namespace rdfviews::vsel::serialize
