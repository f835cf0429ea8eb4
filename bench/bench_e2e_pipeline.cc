// E1 / E2 — Figures 1 and 2: the full data-to-knowledge pipeline through
// all four architecture tiers. One iteration = ingest (vault) -> content
// extraction (patches + features) -> knowledge discovery (k-means
// concepts) -> semantic annotation (stRDF) -> NOA chain products ->
// refinement -> enriched map. The per-tier counters make the tier
// breakdown visible, reproducing the architecture figures as a measured
// pipeline rather than a diagram.

#include <benchmark/benchmark.h>

#include <chrono>
#include <filesystem>

#include "core/observatory.h"
#include "eo/scene.h"
#include "linkeddata/generators.h"
#include "mining/annotation_service.h"
#include "noa/chain.h"
#include "noa/mapping.h"

namespace {

namespace fs = std::filesystem;

using Clock = std::chrono::steady_clock;

double MillisSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

void BM_FullObservatoryPipeline(benchmark::State& state) {
  std::string dir =
      (fs::temp_directory_path() / "teleios_bench_e2e").string();
  fs::create_directories(dir);
  teleios::eo::SceneSpec spec;
  spec.width = static_cast<int>(state.range(0));
  spec.height = static_cast<int>(state.range(0));
  spec.seed = 42;
  spec.num_fires = 5;
  spec.name = "msg";
  auto scene = *teleios::eo::GenerateScene(spec);
  (void)teleios::vault::WriteTer(scene.ToTerRaster(), dir + "/msg.ter");

  for (auto _ : state) {
    // --- ingestion tier --------------------------------------------------
    auto t0 = Clock::now();
    teleios::core::VirtualEarthObservatory veo;
    (void)veo.AttachArchive(dir);
    auto coast = teleios::linkeddata::GenerateCoastline(scene);
    (void)veo.LoadLinkedData(*coast);
    auto towns = teleios::linkeddata::GenerateTowns(scene, 10, 3);
    (void)veo.LoadLinkedData(*towns);
    state.counters["t_ingest_ms"] = MillisSince(t0);

    // --- content extraction + knowledge discovery ------------------------
    auto t1 = Clock::now();
    auto patches = *teleios::mining::CutPatches(scene, 8);
    teleios::mining::AnnotationService annotations;
    (void)annotations.Annotate(patches, 8, 7);
    (void)veo.PublishAnnotations(annotations, "msg");
    state.counters["t_kdd_ms"] = MillisSince(t1);

    // --- service tier: NOA chain + refinement ----------------------------
    auto t2 = Clock::now();
    teleios::noa::ChainConfig config;
    config.classifier.kind = teleios::noa::ClassifierKind::kThreshold;
    config.classifier.threshold_kelvin = 315.0;
    auto result = veo.RunFireChain("msg", config);
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      return;
    }
    auto report = veo.Refine(result->product_id);
    state.counters["t_chain_ms"] = MillisSince(t2);

    // --- application tier: rapid map --------------------------------------
    auto t3 = Clock::now();
    teleios::noa::RapidMapper mapper = veo.MakeMapper();
    (void)mapper.AddQueryLayer(
        "land", "#88aa66", '.',
        "SELECT ?g WHERE { ?x a noa:LandArea ; noa:hasGeometry ?g }");
    (void)mapper.AddQueryLayer(
        "hotspots", "#dd2200", '#',
        "SELECT ?g WHERE { ?h a noa:Hotspot ; noa:hasGeometry ?g }");
    (void)mapper.AddQueryLayer(
        "towns", "#2244cc", 'o',
        "PREFIX geonames: <http://www.geonames.org/ontology#> "
        "SELECT ?g ?n WHERE { ?t a geonames:Feature ; strdf:hasGeometry ?g "
        "; geonames:name ?n }");
    std::string svg = mapper.RenderSvg();
    state.counters["t_map_ms"] = MillisSince(t3);

    state.counters["hotspots"] =
        static_cast<double>(result->hotspots.size());
    state.counters["refined"] =
        report.ok() ? static_cast<double>(report->hotspots_refined) : -1;
    state.counters["annotations"] =
        static_cast<double>(annotations.annotations().size());
    state.counters["triples"] = static_cast<double>(veo.strabon().size());
    benchmark::DoNotOptimize(svg.size());
  }
}
BENCHMARK(BM_FullObservatoryPipeline)
    ->Arg(96)
    ->Arg(128)
    ->Unit(benchmark::kMillisecond);

}  // namespace
