// Museum catalog: RDF entailment and post-reformulation (Sec. 4).
//
// A small museum database with an RDF Schema:
//   painting  subClassOf  picture,   picture subClassOf masterpiece,
//   isExpIn   subPropertyOf isLocatIn,  hasPainted domain painter / range
//   painting.
// The workload asks for pictures and locations; the *explicit* triples only
// ever mention paintings and isExpIn, so every answer depends on implicit
// triples. The example contrasts the three entailment strategies of the
// paper — saturation, pre-reformulation, post-reformulation — and shows
// they return the same answers while materializing different view sets.
#include <cstdio>

#include "cq/parser.h"
#include "engine/evaluator.h"
#include "rdf/saturation.h"
#include "vsel/selector.h"

using namespace rdfviews;

int main() {
  rdf::Dictionary dict;
  rdf::Schema schema;
  auto cls = [&](const char* a, const char* b) {
    schema.AddSubClassOf(dict.Intern(a), dict.Intern(b));
  };
  auto prop = [&](const char* a, const char* b) {
    schema.AddSubPropertyOf(dict.Intern(a), dict.Intern(b));
  };
  cls("painting", "picture");
  cls("picture", "masterpiece");
  prop("isExpIn", "isLocatIn");
  schema.AddDomain(dict.Intern("hasPainted"), dict.Intern("painter"));
  schema.AddRange(dict.Intern("hasPainted"), dict.Intern("painting"));

  rdf::TripleStore store;
  auto add = [&](const char* s, const char* p, const char* o) {
    store.Add(dict.Intern(s), dict.Intern(p), dict.Intern(o));
  };
  add("starryNight", "rdf:type", "painting");
  add("guernica", "rdf:type", "painting");
  add("davidStatue", "rdf:type", "masterpiece");
  add("starryNight", "isExpIn", "moma");
  add("guernica", "isExpIn", "reinaSofia");
  add("vanGogh", "hasPainted", "irises");  // implies irises is a painting
  store.Build(&dict);

  std::printf("explicit triples: %zu, implicit (RDFS): %llu\n\n",
              store.size(),
              (unsigned long long)rdf::CountImplicitTriples(store, schema));

  std::vector<cq::ConjunctiveQuery> workload;
  const char* queries[] = {
      // All pictures: only satisfied through painting ⊑ picture.
      "pictures(X) :- t(X, rdf:type, picture)",
      // Locations: only satisfied through isExpIn ⊑ isLocatIn.
      "located(X, L) :- t(X, isLocatIn, L)",
      // Painters: only satisfied through the domain of hasPainted.
      "painters(P) :- t(P, rdf:type, painter)",
  };
  for (const char* text : queries) {
    auto q = cq::ParseDatalog(text, &dict);
    if (!q.ok()) {
      std::printf("parse error: %s\n", q.status().ToString().c_str());
      return 1;
    }
    workload.push_back(std::move(*q));
  }

  vsel::ViewSelector selector(&store, &dict, &schema);
  for (vsel::EntailmentMode mode :
       {vsel::EntailmentMode::kSaturate, vsel::EntailmentMode::kPreReformulate,
        vsel::EntailmentMode::kPostReformulate}) {
    vsel::TuningConfig options;
    options.entailment = mode;
    options.limits.time_budget_sec = 2.0;
    auto rec = selector.Recommend(workload, options);
    if (!rec.ok()) {
      std::printf("%s failed: %s\n", vsel::EntailmentModeName(mode),
                  rec.status().ToString().c_str());
      return 1;
    }
    vsel::MaterializedViews views = vsel::Materialize(*rec);
    std::printf("=== %s: %zu views, %zu bytes ===\n",
                vsel::EntailmentModeName(mode), views.relations.size(),
                views.TotalBytes());
    for (size_t i = 0; i < workload.size(); ++i) {
      engine::Relation answer = vsel::AnswerQuery(*rec, views, i);
      std::printf("  %s ->", workload[i].name().c_str());
      for (size_t r = 0; r < answer.NumRows(); ++r) {
        std::printf(" %s", dict.Lexical(answer.At(r, 0)).c_str());
      }
      std::printf("\n");
    }
    std::printf("\n");
  }
  std::printf(
      "All three modes return identical answers; saturation materializes\n"
      "over the saturated store, while the reformulation modes leave the\n"
      "database untouched (Sec. 4.3).\n");
  return 0;
}
