// Demo scenario 2b (paper §4): automatic generation of fire maps
// enriched with relevant geo-information available as open linked data —
// "of paramount importance to NOA, since the creation of such maps in the
// past has been a time-consuming manual process." Every layer of the map
// is the result of an stSPARQL query; output is an SVG file plus an
// ASCII rendering for the terminal.

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "core/observatory.h"
#include "eo/scene.h"
#include "linkeddata/generators.h"
#include "noa/chain.h"
#include "noa/mapping.h"
#include "noa/refinement.h"

namespace fs = std::filesystem;
using namespace teleios;

int main() {
  std::string dir =
      (fs::temp_directory_path() / "teleios_rapid_mapping").string();
  fs::create_directories(dir);

  eo::SceneSpec spec;
  spec.width = 160;
  spec.height = 160;
  spec.num_fires = 6;
  spec.name = "msg_scene";
  auto scene = eo::GenerateScene(spec);
  (void)vault::WriteTer(scene->ToTerRaster(), dir + "/msg_scene.ter");

  core::VirtualEarthObservatory veo;
  (void)veo.AttachArchive(dir);

  // Open linked data layers (synthetic GeoNames / LinkedGeoData / OSM).
  (void)veo.LoadLinkedData(*linkeddata::GenerateCoastline(*scene));
  (void)veo.LoadLinkedData(*linkeddata::GenerateTowns(*scene, 12, 3));
  (void)veo.LoadLinkedData(*linkeddata::GenerateRoads(*scene, 10, 5));

  // Detect + refine hotspots.
  noa::ChainConfig config;
  config.classifier.kind = noa::ClassifierKind::kThreshold;
  config.classifier.threshold_kelvin = 315.0;
  auto result = veo.RunFireChain("msg_scene", config);
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 1;
  }
  (void)veo.Refine(result->product_id);

  // Compose the map: each layer is an stSPARQL query.
  noa::RapidMapper mapper = veo.MakeMapper();
  (void)mapper.AddQueryLayer(
      "landmass", "#9fbf8f", '.',
      "SELECT ?g WHERE { ?x a noa:LandArea ; noa:hasGeometry ?g }");
  (void)mapper.AddQueryLayer(
      "roads", "#8a7a5a", '-',
      "PREFIX lgd: <http://linkedgeodata.org/ontology/> "
      "SELECT ?g WHERE { ?w a lgd:HighwayThing ; strdf:hasGeometry ?g }");
  (void)mapper.AddQueryLayer(
      "towns", "#2244cc", 'o',
      "PREFIX geonames: <http://www.geonames.org/ontology#> "
      "SELECT ?g ?n WHERE { ?t a geonames:Feature ; strdf:hasGeometry ?g ; "
      "geonames:name ?n . ?t geonames:population ?p . FILTER(?p > 20000) }");
  (void)mapper.AddQueryLayer(
      "fire hotspots", "#dd2200", '#',
      "SELECT ?g WHERE { ?h a noa:Hotspot ; noa:hasGeometry ?g }");

  std::string svg_path = dir + "/fire_map.svg";
  {
    std::ofstream os(svg_path);
    os << mapper.RenderSvg(900, 760);
  }
  std::printf("%s\n", mapper.RenderAscii(76, 34).c_str());
  std::printf("SVG fire map written to %s\n", svg_path.c_str());
  std::printf("layers: %zu (each backed by one stSPARQL query)\n",
              mapper.layers().size());
  return 0;
}
