// Offline client: exporting a view set to disk.
//
// Demonstrates the paper's motivating deployment where the views are stored
// *at the client* and the application runs with no connection to the
// database server: views are selected, materialized, written out as
// N-Triples-style files — and the *recommendation itself* (view
// definitions, columns, rewritings) travels as one identity-tagged
// serialized blob (vsel::serialize::SerializeRecommendation), so the
// client re-loads everything from files and answers the workload without
// the store or the server-side Recommendation object.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "cq/parser.h"
#include "engine/evaluator.h"
#include "engine/executor.h"
#include "rdf/ntriples.h"
#include "vsel/selector.h"
#include "vsel/serialize/serialize.h"
#include "workload/barton.h"
#include "workload/generator.h"

using namespace rdfviews;

int main() {
  // --- Server side. --------------------------------------------------------
  rdf::Dictionary dict;
  workload::BartonSchema barton = workload::BuildBartonSchema(&dict);
  workload::BartonDataOptions dopts;
  dopts.num_triples = 8000;
  rdf::TripleStore store = workload::GenerateBartonData(barton, &dict, dopts);

  workload::WorkloadSpec spec;
  spec.num_queries = 3;
  spec.atoms_per_query = 4;
  spec.shape = workload::QueryShape::kMixed;
  std::vector<cq::ConjunctiveQuery> queries =
      workload::GenerateSatisfiableWorkload(spec, store, &dict);

  vsel::ViewSelector selector(&store, &dict, &barton.schema);
  vsel::TuningConfig options;
  options.entailment = vsel::EntailmentMode::kPostReformulate;
  options.limits.time_budget_sec = 2.0;
  Result<vsel::Recommendation> rec = selector.Recommend(queries, options);
  if (!rec.ok()) {
    std::printf("selection failed: %s\n", rec.status().ToString().c_str());
    return 1;
  }
  vsel::MaterializedViews views = vsel::Materialize(*rec);

  // --- Export each view extent as one flat file. ---------------------------
  std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "rdfviews_offline_client";
  std::filesystem::create_directories(dir);
  for (size_t i = 0; i < views.relations.size(); ++i) {
    const engine::Relation& rel = views.relations[i];
    std::ofstream out(dir / ("v" + std::to_string(views.view_ids[i]) +
                             ".tsv"));
    for (size_t r = 0; r < rel.NumRows(); ++r) {
      for (size_t c = 0; c < rel.width(); ++c) {
        out << (c > 0 ? "\t" : "") << dict.Lexical(rel.At(r, c));
      }
      out << "\n";
    }
  }
  // The recommendation blob rides along with the extents: versioned,
  // checksummed, tagged with the (store, options) identity.
  vsel::serialize::CacheIdentity identity =
      vsel::serialize::ComputeCacheIdentity(store, options);
  {
    std::ofstream out(dir / "recommendation.rvrc", std::ios::binary);
    out << vsel::serialize::SerializeRecommendation(*rec, identity);
  }
  std::printf("exported %zu views (%zu bytes) + recommendation blob to %s\n",
              views.relations.size(), views.TotalBytes(), dir.c_str());

  // --- Client side: reload the files and answer without the store. ---------
  std::string blob;
  {
    std::ifstream in(dir / "recommendation.rvrc", std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    blob = ss.str();
  }
  Result<vsel::Recommendation> shipped =
      vsel::serialize::DeserializeRecommendation(blob, identity);
  if (!shipped.ok()) {
    std::printf("recommendation reload failed: %s\n",
                shipped.status().ToString().c_str());
    return 1;
  }
  vsel::MaterializedViews reloaded;
  reloaded.view_ids = views.view_ids;
  for (size_t i = 0; i < views.view_ids.size(); ++i) {
    const engine::Relation& original = views.relations[i];
    engine::Relation rel(original.columns());
    std::ifstream in(dir /
                     ("v" + std::to_string(views.view_ids[i]) + ".tsv"));
    std::string line;
    while (std::getline(in, line)) {
      std::vector<rdf::TermId> row;
      size_t start = 0;
      while (start <= line.size()) {
        size_t tab = line.find('\t', start);
        std::string cell = tab == std::string::npos
                               ? line.substr(start)
                               : line.substr(start, tab - start);
        row.push_back(dict.Intern(cell));
        if (tab == std::string::npos) break;
        start = tab + 1;
      }
      if (row.size() == rel.width()) rel.AppendRow(row);
    }
    reloaded.relations.push_back(std::move(rel));
  }

  bool all_match = true;
  for (size_t i = 0; i < queries.size(); ++i) {
    engine::Relation offline = vsel::AnswerQuery(*shipped, reloaded, i);
    engine::Relation online = vsel::AnswerQuery(*rec, views, i);
    bool match = offline.SameRowsAs(online);
    all_match = all_match && match;
    std::printf("%s: %zu answers from re-loaded views%s\n",
                queries[i].name().c_str(), offline.NumRows(),
                match ? "" : "  [MISMATCH]");
  }
  std::printf(all_match ? "\noffline client reproduces all answers without "
                          "touching the database.\n"
                        : "\nBUG: offline answers diverged.\n");
  return all_match ? 0 : 1;
}
