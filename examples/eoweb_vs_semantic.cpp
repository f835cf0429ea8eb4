// The paper's §1 argument, side by side. An EOWEB-NG-style interface
// offers "a hierarchical organization of available products ... together
// with a temporal and geographic selection menu" — domain concepts like
// 'forest fire' are not archive metadata, so they cannot be search
// criteria. TELEIOS closes that gap: the same archive, enriched with
// concepts and linked data, answers semantic requests.
//
// Part 1 emulates the EOWEB workflow over the relational catalog (SQL:
// category + time + bounding box). Part 2 runs the semantic requests
// EOWEB cannot express (stSPARQL over concepts, confidence, distance to
// linked-data entities) and exports the knowledge base as Turtle.

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
      (fs::temp_directory_path() / "teleios_eoweb_vs_semantic").string();
  fs::create_directories(dir);
  eo::SceneSpec spec;
  spec.width = 128;
  spec.height = 128;
  spec.num_fires = 5;
  spec.name = "msg_0825";
  auto scene = eo::GenerateScene(spec);
  (void)vault::WriteTer(scene->ToTerRaster(), dir + "/msg_0825.ter");

  core::VirtualEarthObservatory veo;
  (void)veo.AttachArchive(dir);

  // ----- Part 1: the EOWEB-NG workflow (what today's archives offer) ----
  std::printf("===== EOWEB-style search (SQL over archive metadata) =====\n");
  std::printf("category tree:\n");
  std::printf("  + High Resolution Optical Data\n");
  std::printf("  + Synthetic Aperture Radar Data\n");
  std::printf("  + Meteosat Second Generation  <- selected\n");
  auto eoweb = veo.Sql(
      "SELECT name, acq_time, footprint FROM vault_rasters "
      "WHERE sensor = 'SEVIRI' AND acq_time >= 1188000000 "
      "AND acq_time < 1188086400");
  std::printf("%s", eoweb->ToString().c_str());
  std::printf("-> the archive can answer WHEN and WHERE, but 'forest "
              "fire' or 'near an archaeological site'\n   are not "
              "metadata: those requests cannot even be expressed.\n\n");

  // ----- Part 2: the TELEIOS workflow -----------------------------------
  std::printf("===== TELEIOS semantic search (stSPARQL) =====\n");
  // Derive knowledge: hotspots via the NOA chain, concepts via KDD,
  // sites from linked data.
  noa::ChainConfig config;
  config.classifier.kind = noa::ClassifierKind::kContextual;
  auto run = veo.RunFireChain("msg_0825", config);
  auto patches = *mining::CutPatches(*scene, 8);
  mining::AnnotationService annotations;
  (void)annotations.Annotate(patches, 8, 7);
  (void)veo.PublishAnnotations(annotations, "msg_0825");
  (void)veo.LoadLinkedData(
      *linkeddata::GenerateArchaeologicalSites(*scene, 30, 11));

  std::printf("[1] products containing fire hotspots with confidence > 0.6:\n");
  auto q1 = veo.StSparql(
      "SELECT DISTINCT ?product WHERE { ?h a noa:Hotspot ; "
      "noa:derivedFromProduct ?product ; noa:hasConfidence ?c . "
      "FILTER(?c > 0.6) }");
  std::printf("%s\n", q1->ToString().c_str());

  std::printf("[2] landcover concepts detected in the scene (GROUP BY):\n");
  auto q2 = veo.StSparql(
      "SELECT ?concept (count(*) AS ?patches) WHERE { ?p a noa:Patch ; "
      "noa:hasConcept ?concept } GROUP BY ?concept ORDER BY ?concept");
  std::printf("%s\n", q2->ToString().c_str());

  std::printf("[3] hotspots within 2km of an archaeological site "
              "(impossible in EOWEB):\n");
  auto q3 = veo.StSparql(
      "PREFIX dbo: <http://dbpedia.org/ontology/> "
      "SELECT ?h ?label WHERE { ?h a noa:Hotspot ; noa:hasGeometry ?hg . "
      "?s a dbo:ArchaeologicalSite ; rdfs:label ?label ; "
      "strdf:hasGeometry ?sg . "
      "FILTER(strdf:geodesicDistance(?hg, ?sg) < 2000.0) }");
  std::printf("%s\n", q3->ToString().c_str());

  // The knowledge base is plain linked data: export it.
  std::string ttl = dir + "/knowledge_base.ttl";
  (void)veo.strabon().SaveTurtleFile(ttl);
  std::printf("knowledge base exported as linked data: %s (%zu triples)\n",
              ttl.c_str(), veo.strabon().size());
  return 0;
}
