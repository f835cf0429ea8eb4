// E4 — demo scenario 2: improving thematic accuracy via stSPARQL
// refinement. The harness runs the naive threshold chain (which produces
// sea false alarms from sun glint and coastal plume leakage), refines it
// against the coastline layer, and reports precision before/after. Shape
// to reproduce: precision improves, recall is preserved, and refinement
// cost scales with the number of hotspots, not the image.

#include <benchmark/benchmark.h>

#include <filesystem>
#include <memory>

#include "core/observatory.h"
#include "eo/scene.h"
#include "linkeddata/generators.h"
#include "noa/chain.h"
#include "noa/refinement.h"

namespace {

namespace fs = std::filesystem;

using teleios::eo::GenerateScene;
using teleios::eo::Scene;
using teleios::eo::SceneSpec;
using teleios::noa::ChainConfig;
using teleios::noa::ClassifierKind;

using teleios::core::VirtualEarthObservatory;

struct RefineEnv {
  std::string dir;
  Scene scene;

  explicit RefineEnv(int fires) {
    dir = (fs::temp_directory_path() /
           ("teleios_bench_refine_" + std::to_string(fires)))
              .string();
    fs::create_directories(dir);
    SceneSpec spec;
    spec.width = 128;
    spec.height = 128;
    spec.seed = 42;
    spec.num_fires = fires;
    spec.num_glints = 3 + fires / 2;
    spec.name = "scene";
    scene = *GenerateScene(spec);
    (void)teleios::vault::WriteTer(scene.ToTerRaster(), dir + "/scene.ter");
  }

  /// Attaches the scene to `veo`, loads the coastline and runs the naive
  /// chain; returns the product id. A fresh observatory per call keeps
  /// refinement repeatable.
  std::string Prepare(VirtualEarthObservatory* veo) {
    (void)veo->AttachArchive(dir);
    auto coast = teleios::linkeddata::GenerateCoastline(scene);
    (void)veo->LoadLinkedData(*coast);
    ChainConfig config;
    config.classifier.kind = ClassifierKind::kThreshold;
    config.classifier.threshold_kelvin = 315.0;
    auto result = veo->RunFireChain("scene", config);
    return result.ok() ? result->product_id : "";
  }
};

void BM_RefinementPass(benchmark::State& state) {
  RefineEnv env(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    state.PauseTiming();
    auto veo = std::make_unique<VirtualEarthObservatory>();
    std::string product = env.Prepare(veo.get());
    state.ResumeTiming();
    auto report = veo->Refine(product);
    if (!report.ok()) {
      state.SkipWithError(report.status().ToString().c_str());
      return;
    }
    state.counters["examined"] =
        static_cast<double>(report->hotspots_examined);
    state.counters["refined"] =
        static_cast<double>(report->hotspots_refined);
    state.counters["removed"] =
        static_cast<double>(report->hotspots_removed);
  }
}
BENCHMARK(BM_RefinementPass)->Arg(2)->Arg(6)->Arg(12)->Unit(benchmark::kMillisecond);

/// The accuracy table: precision/recall before and after refinement.
void BM_ThematicAccuracy(benchmark::State& state) {
  RefineEnv env(6);
  for (auto _ : state) {
    VirtualEarthObservatory veo;
    std::string product = env.Prepare(&veo);
    auto truth = env.scene.GroundTruthFires();
    auto before =
        *teleios::noa::FetchHotspotGeometries(&veo.strabon(), product);
    auto acc_before =
        *teleios::noa::ScoreHotspotsAgainstTruth(before, truth);
    (void)veo.Refine(product);
    auto after =
        *teleios::noa::FetchHotspotGeometries(&veo.strabon(), product);
    auto acc_after = *teleios::noa::ScoreHotspotsAgainstTruth(after, truth);
    state.counters["precision_before"] = acc_before.precision;
    state.counters["precision_after"] = acc_after.precision;
    state.counters["recall_before"] = acc_before.recall;
    state.counters["recall_after"] = acc_after.recall;
    benchmark::DoNotOptimize(acc_after.precision);
  }
}
BENCHMARK(BM_ThematicAccuracy)->Iterations(3)->Unit(benchmark::kMillisecond);

}  // namespace
