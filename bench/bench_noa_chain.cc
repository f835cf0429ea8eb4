// E3 — demo scenario 1 (Figure 3): the NOA fire-monitoring processing
// chain (ingestion -> crop -> georeference -> classify -> hotspot
// shapefiles). The harness times the chain end-to-end for both
// classification submodules and reports per-step timings, reproducing the
// scenario's "compare chains with different classifiers" capability.

#include <benchmark/benchmark.h>

#include <filesystem>

#include "core/observatory.h"
#include "eo/scene.h"
#include "noa/chain.h"

namespace {

namespace fs = std::filesystem;

using teleios::eo::GenerateScene;
using teleios::eo::SceneSpec;
using teleios::noa::ChainConfig;
using teleios::noa::ClassifierKind;

struct ChainEnv {
  std::string dir;
  teleios::core::VirtualEarthObservatory veo;

  explicit ChainEnv(int size) {
    dir = (fs::temp_directory_path() /
           ("teleios_bench_chain_" + std::to_string(size)))
              .string();
    fs::create_directories(dir);
    SceneSpec spec;
    spec.width = size;
    spec.height = size;
    spec.seed = 42;
    spec.name = "scene" + std::to_string(size);
    auto scene = GenerateScene(spec);
    (void)teleios::vault::WriteTer(scene->ToTerRaster(),
                                   dir + "/scene.ter");
    (void)veo.AttachArchive(dir);
  }
};

void RunChain(benchmark::State& state, ClassifierKind kind) {
  ChainEnv env(static_cast<int>(state.range(0)));
  ChainConfig config;
  config.classifier.kind = kind;
  std::string raster = "scene" + std::to_string(state.range(0));
  for (auto _ : state) {
    auto result = env.veo.RunFireChain(raster, config);
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(result->hotspots.size());
    state.counters["hotspots"] =
        static_cast<double>(result->hotspots.size());
    for (const auto& timing : result->timings) {
      state.counters[timing.step] = timing.millis;
    }
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) *
                          state.range(0));
}

void BM_ChainThreshold(benchmark::State& state) {
  RunChain(state, ClassifierKind::kThreshold);
}
void BM_ChainContextual(benchmark::State& state) {
  RunChain(state, ClassifierKind::kContextual);
}
BENCHMARK(BM_ChainThreshold)->Arg(96)->Arg(192)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ChainContextual)->Arg(96)->Arg(192)->Unit(benchmark::kMillisecond);

/// Cropped chain run: scenario 1's "use a subset of the raw data".
void BM_ChainCropped(benchmark::State& state) {
  ChainEnv env(192);
  ChainConfig config;
  config.classifier.kind = ClassifierKind::kContextual;
  config.has_crop = true;
  config.crop_x0 = 0;
  config.crop_y0 = 0;
  config.crop_x1 = static_cast<int>(state.range(0));
  config.crop_y1 = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto result = env.veo.RunFireChain("scene192", config);
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(result->hotspots.size());
  }
}
BENCHMARK(BM_ChainCropped)->Arg(48)->Arg(96)->Arg(192)->Unit(benchmark::kMillisecond);

/// Catalog search over prior runs (scenario 1's product discovery).
void BM_CatalogSearchPriorRuns(benchmark::State& state) {
  ChainEnv env(96);
  ChainConfig a;
  a.classifier.kind = ClassifierKind::kThreshold;
  ChainConfig b;
  b.classifier.kind = ClassifierKind::kContextual;
  (void)env.veo.RunFireChain("scene96", a);
  (void)env.veo.RunFireChain("scene96", b);
  for (auto _ : state) {
    auto r = env.veo.strabon().Select(
        "SELECT ?p ?lvl WHERE { ?p a noa:Product ; "
        "noa:hasProcessingLevel ?lvl ; noa:wasDerivedFrom ?raw . }");
    benchmark::DoNotOptimize(r->num_rows());
  }
}
BENCHMARK(BM_CatalogSearchPriorRuns);

}  // namespace
