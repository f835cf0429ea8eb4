// A tour of the VirtualEarthObservatory facade: the four tiers of the
// paper's Figure 2 behind one object, plus the features beyond the basic
// demo scenarios — SPARQL aggregation over the product catalog, temporal
// (strdf:period) filters on hotspot valid time, and the interactive
// semantic annotation loop of the service tier (analyst corrections
// propagated by relevance feedback).

#include <cstdio>
#include <filesystem>

#include "core/observatory.h"
#include "eo/scene.h"
#include "linkeddata/generators.h"
#include "mining/annotation_service.h"
#include "mining/features.h"

namespace fs = std::filesystem;
using namespace teleios;

int main() {
  std::string dir =
      (fs::temp_directory_path() / "teleios_observatory_tour").string();
  fs::create_directories(dir);

  // Two acquisitions, one day apart.
  eo::Scene morning, next_day;
  {
    eo::SceneSpec spec;
    spec.width = 128;
    spec.height = 128;
    spec.num_fires = 5;
    spec.name = "msg_0825";
    morning = *eo::GenerateScene(spec);
    (void)vault::WriteTer(morning.ToTerRaster(), dir + "/msg_0825.ter");
    spec.seed = 43;
    spec.name = "msg_0826";
    spec.acquisition_time += 86400;  // 2007-08-26
    next_day = *eo::GenerateScene(spec);
    (void)vault::WriteTer(next_day.ToTerRaster(), dir + "/msg_0826.ter");
  }

  core::VirtualEarthObservatory veo;
  auto attached = veo.AttachArchive(dir);
  std::printf("attached %zu products\n", *attached);
  (void)veo.LoadLinkedData(*linkeddata::GenerateCoastline(morning));

  // Run the chain on both acquisitions.
  noa::ChainConfig config;
  config.classifier.kind = noa::ClassifierKind::kContextual;
  auto run1 = veo.RunFireChain("msg_0825", config);
  auto run2 = veo.RunFireChain("msg_0826", config);
  std::printf("hotspots: %zu on 08-25, %zu on 08-26\n",
              run1->hotspots.size(), run2->hotspots.size());

  // SPARQL aggregation over the catalog: hotspots per product.
  std::printf("\n-- hotspots per product (SPARQL GROUP BY) --\n");
  auto counts = veo.StSparql(
      "SELECT ?p (count(*) AS ?n) (avg(?c) AS ?conf) WHERE { "
      "?h a noa:Hotspot ; noa:derivedFromProduct ?p ; "
      "noa:hasConfidence ?c } GROUP BY ?p ORDER BY ?p");
  std::printf("%s", counts->ToString().c_str());

  // Temporal filter: only detections whose valid time falls on Aug 25.
  std::printf("\n-- hotspots valid during 2007-08-25 (strdf:period) --\n");
  auto aug25 = veo.StSparql(
      "SELECT (count(*) AS ?n) WHERE { ?h a noa:Hotspot ; "
      "noa:hasValidTime ?vt . FILTER(strdf:during(?vt, "
      "\"[2007-08-25T00:00:00, 2007-08-25T23:59:59]\"^^strdf:period)) }");
  std::printf("%s", aug25->ToString().c_str());

  // Interactive semantic annotation (service tier): automatic concepts,
  // one analyst correction, relevance-feedback propagation.
  std::printf("\n-- interactive semantic annotation --\n");
  auto patches = *mining::CutPatches(morning, 16);
  mining::AnnotationService service;
  (void)service.Annotate(patches, 6);
  std::string before = service.annotations()[0].concept_iri;
  std::printf("patch 0 auto-annotated as %s\n",
              before.substr(before.find('#') + 1).c_str());
  // The analyst relabels two cloud-contaminated patches.
  size_t fixed = 0;
  for (size_t i = 0; i < patches.size() && fixed < 2; ++i) {
    if (patches[i].features[11] > 0.5) {  // cloud fraction
      (void)service.Correct(
          i, "http://teleios.di.uoa.gr/ontologies/noaOntology.owl#Cloud");
      ++fixed;
    }
  }
  if (fixed > 0) {
    auto changed = service.Propagate(3);
    std::printf("%zu corrections propagated to %zu similar patches\n",
                service.corrections(), changed.ok() ? *changed : 0);
  }
  auto published = veo.PublishAnnotations(service, "msg_0825");
  std::printf("published %zu annotation triples\n",
              published.ok() ? *published : 0);

  // SQL over the same catalog.
  std::printf("\n-- product catalog (SQL) --\n");
  auto products = veo.Sql(
      "SELECT id, level FROM products ORDER BY id");
  std::printf("%s", products->ToString().c_str());

  // Query profiling: PROFILE returns the span tree instead of the rows.
  std::printf("\n-- PROFILE SELECT (span tree) --\n");
  auto profile = veo.Sql("PROFILE SELECT id, level FROM products ORDER BY id");
  std::printf("%s", profile->ToString().c_str());

  // Everything above left a metrics trail; this is what an operator
  // would scrape from a /metrics endpoint.
  std::printf("\n-- process metrics (Prometheus text exposition) --\n");
  std::printf("%s", veo.MetricsText().c_str());
  return 0;
}
