// The paper's §1 headline information request, answered end-to-end:
//
//   "Find an image taken by a Meteosat second generation satellite on
//    August 25, 2007 which covers the area of Peloponnese and contains
//    hotspots corresponding to forest fires located within 2km from a
//    major archaeological site."
//
// This is impossible in a traditional EO interface (EOWEB-NG) because
// 'forest fire' and 'archaeological site' are not archive metadata. Here
// the fire hotspots come from the NOA chain, the sites from a (synthetic)
// DBpedia-like linked data source, and one stSPARQL query joins them.

#include <cstdio>
#include <filesystem>

#include "core/observatory.h"
#include "eo/scene.h"
#include "linkeddata/generators.h"
#include "noa/chain.h"

namespace fs = std::filesystem;
using namespace teleios;

int main() {
  std::string dir =
      (fs::temp_directory_path() / "teleios_archaeology").string();
  fs::create_directories(dir);

  // The Peloponnese scene of 2007-08-25 (the default footprint + time).
  eo::SceneSpec spec;
  spec.width = 160;
  spec.height = 160;
  spec.num_fires = 8;
  spec.name = "msg_peloponnese_20070825";
  auto scene = eo::GenerateScene(spec);
  (void)vault::WriteTer(scene->ToTerRaster(),
                        dir + "/msg_peloponnese_20070825.ter");

  core::VirtualEarthObservatory veo;
  (void)veo.AttachArchive(dir);

  // Register the Level-1 product (its triples, with no hotspots) and
  // derive hotspots with the NOA chain.
  auto header = veo.vault().GetRasterHeader("msg_peloponnese_20070825");
  (void)veo.LoadLinkedData(*noa::RenderProductTurtle(
      eo::MetadataFromHeader(*header, eo::ProductLevel::kL1), {}));
  noa::ChainConfig config;
  config.classifier.kind = noa::ClassifierKind::kContextual;
  auto result = veo.RunFireChain("msg_peloponnese_20070825", config);
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 1;
  }
  std::printf("chain produced %zu hotspots\n", result->hotspots.size());

  // Linked open data: archaeological sites (DBpedia-like).
  auto sites = linkeddata::GenerateArchaeologicalSites(*scene, 40, 11);
  (void)veo.LoadLinkedData(*sites);

  // The headline query, in one stSPARQL statement.
  const char* query = R"sparql(
PREFIX dbo: <http://dbpedia.org/ontology/>
SELECT DISTINCT ?product ?site ?label
WHERE {
  ?product a noa:Product ;
           noa:producedBySatellite "Meteosat-9" ;
           noa:hasAcquisitionTime ?t ;
           noa:hasGeometry ?pg .
  ?hotspot a noa:Hotspot ;
           noa:derivedFromProduct ?l2 ;
           noa:hasGeometry ?hg .
  ?l2 noa:wasDerivedFrom ?product .
  ?site a dbo:ArchaeologicalSite ;
        rdfs:label ?label ;
        strdf:hasGeometry ?sg .
  FILTER(?t >= "2007-08-25T00:00:00"^^xsd:dateTime)
  FILTER(?t < "2007-08-26T00:00:00"^^xsd:dateTime)
  FILTER(strdf:contains(?pg, "POINT (22.2 37.3)"^^strdf:WKT))
  FILTER(strdf:geodesicDistance(?hg, ?sg) < 2000.0)
}
ORDER BY ?label
)sparql";
  std::printf("\nheadline stSPARQL query:\n%s\n", query);
  auto answers = veo.StSparql(query);
  if (!answers.ok()) {
    std::fprintf(stderr, "%s\n", answers.status().ToString().c_str());
    return 1;
  }
  std::printf("answers (%zu):\n%s", answers->num_rows(),
              answers->ToString(50).c_str());
  if (answers->num_rows() == 0) {
    std::printf("(no site within 2km of a hotspot in this synthetic draw;"
                " rerun with more fires/sites)\n");
  }
  return 0;
}
