// E6 — the paper's §1 headline information request: "Find an image taken
// by a Meteosat second generation satellite on August 25, 2007 which
// covers the area of Peloponnese and contains hotspots corresponding to
// forest fires located within 2km from a major archaeological site."
// Impossible in an EOWEB-like interface; one stSPARQL query in TELEIOS.
// The harness measures that query with and without the spatial index and
// across linked-data sizes.

#include <benchmark/benchmark.h>

#include <filesystem>

#include "eo/ontology.h"
#include "eo/scene.h"
#include "linkeddata/generators.h"
#include "noa/chain.h"

namespace {

namespace fs = std::filesystem;

using teleios::eo::GenerateScene;
using teleios::eo::SceneSpec;

/// The headline query (geodesic distance in meters).
const char* kHeadlineQuery = R"(
PREFIX dbo: <http://dbpedia.org/ontology/>
SELECT DISTINCT ?product ?hotspot ?site
WHERE {
  ?product a noa:Product ;
           noa:producedBySatellite "Meteosat-9" ;
           noa:hasAcquisitionTime ?t .
  ?hotspot a noa:Hotspot ;
           noa:derivedFromProduct ?l2 ;
           noa:hasGeometry ?hg .
  ?l2 noa:wasDerivedFrom ?product .
  ?site a dbo:ArchaeologicalSite ;
        strdf:hasGeometry ?sg .
  FILTER(?t >= "2007-08-25T00:00:00"^^xsd:dateTime)
  FILTER(?t < "2007-08-26T00:00:00"^^xsd:dateTime)
  FILTER(strdf:geodesicDistance(?hg, ?sg) < 2000.0)
}
)";

struct Observatory {
  std::string dir;
  teleios::storage::Catalog catalog;
  std::unique_ptr<teleios::vault::DataVault> vault;
  std::unique_ptr<teleios::sciql::SciQlEngine> sciql;
  teleios::strabon::Strabon strabon;

  explicit Observatory(int sites) {
    dir = (fs::temp_directory_path() /
           ("teleios_bench_headline_" + std::to_string(sites)))
              .string();
    fs::create_directories(dir);
    SceneSpec spec;
    spec.width = 128;
    spec.height = 128;
    spec.seed = 42;
    spec.num_fires = 6;
    spec.name = "msg-20070825";
    auto scene = GenerateScene(spec);
    (void)teleios::vault::WriteTer(scene->ToTerRaster(), dir + "/s.ter");
    vault = std::make_unique<teleios::vault::DataVault>(&catalog);
    (void)vault->Attach(dir);
    sciql = std::make_unique<teleios::sciql::SciQlEngine>(&catalog);
    (void)strabon.LoadTurtle(teleios::eo::OntologyTurtle());
    // Register the L1 product + run the chain to get hotspots.
    auto header = *vault->GetRasterHeader("msg-20070825");
    (void)teleios::eo::RegisterProductTriples(
        teleios::eo::MetadataFromHeader(header, teleios::eo::ProductLevel::kL1),
        &strabon);
    teleios::noa::ProcessingChain chain(vault.get(), sciql.get(), &strabon,
                                        &catalog);
    teleios::noa::ChainConfig config;
    config.classifier.kind = teleios::noa::ClassifierKind::kContextual;
    (void)chain.Run("msg-20070825", config);
    // Linked data: archaeological sites (the join target) + towns.
    auto site_turtle =
        teleios::linkeddata::GenerateArchaeologicalSites(*scene, sites, 2);
    (void)strabon.LoadTurtle(*site_turtle);
    auto towns = teleios::linkeddata::GenerateTowns(*scene, sites, 3);
    (void)strabon.LoadTurtle(*towns);
  }
};

void HeadlineQuery(benchmark::State& state, bool use_index) {
  Observatory obs(static_cast<int>(state.range(0)));
  obs.strabon.set_spatial_index_enabled(use_index);
  (void)obs.strabon.Select(kHeadlineQuery);  // warm caches
  for (auto _ : state) {
    auto r = obs.strabon.Select(kHeadlineQuery);
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      return;
    }
    state.counters["answers"] = static_cast<double>(r->num_rows());
    benchmark::DoNotOptimize(r->num_rows());
  }
}

void BM_HeadlineQueryIndexed(benchmark::State& state) {
  HeadlineQuery(state, true);
}
void BM_HeadlineQueryScan(benchmark::State& state) {
  HeadlineQuery(state, false);
}
BENCHMARK(BM_HeadlineQueryIndexed)->Arg(20)->Arg(100)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_HeadlineQueryScan)->Arg(20)->Arg(100)->Unit(benchmark::kMillisecond);

/// Product discovery by time window only (the EOWEB-style query TELEIOS
/// subsumes) — for scale comparison with the semantic query above.
void BM_TimeWindowOnly(benchmark::State& state) {
  Observatory obs(100);
  const char* query =
      "SELECT ?product WHERE { ?product a noa:Product ; "
      "noa:hasAcquisitionTime ?t . "
      "FILTER(?t >= \"2007-08-25T00:00:00\"^^xsd:dateTime) "
      "FILTER(?t < \"2007-08-26T00:00:00\"^^xsd:dateTime) }";
  for (auto _ : state) {
    auto r = obs.strabon.Select(query);
    benchmark::DoNotOptimize(r->num_rows());
  }
}
BENCHMARK(BM_TimeWindowOnly);

}  // namespace
