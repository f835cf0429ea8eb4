// Demo scenario 1 (paper §4, "The NOA processing chain"): run the NOA
// fire-monitoring chain — (a) ingestion, (b) cropping, (c) georeference,
// (d) classification, (e) hotspot shapefile generation — over a synthetic
// MSG/SEVIRI scene, with two different classification submodules, and
// compare their products (pixel precision/recall against the seeded
// ground truth). Also shows the SciQL statement implementing the chain
// and the stSPARQL catalog search over prior executions.

#include <cstdio>
#include <filesystem>

#include "core/observatory.h"
#include "eo/scene.h"
#include "noa/chain.h"
#include "noa/classification.h"

namespace fs = std::filesystem;
using namespace teleios;

int main() {
  std::string dir =
      (fs::temp_directory_path() / "teleios_fire_monitoring").string();
  fs::create_directories(dir);

  // A SEVIRI-like scene with seeded fires, clouds and sun glint.
  eo::SceneSpec spec;
  spec.width = 160;
  spec.height = 160;
  spec.num_fires = 6;
  spec.name = "msg_scene";
  auto scene = eo::GenerateScene(spec);
  (void)vault::WriteTer(scene->ToTerRaster(), dir + "/msg_scene.ter");

  core::VirtualEarthObservatory veo;
  (void)veo.AttachArchive(dir);

  // Two chain configurations differing in the classification submodule.
  noa::ChainConfig threshold;
  threshold.classifier.kind = noa::ClassifierKind::kThreshold;
  threshold.classifier.threshold_kelvin = 315.0;
  threshold.output_dir = dir;
  noa::ChainConfig contextual = threshold;
  contextual.classifier.kind = noa::ClassifierKind::kContextual;

  for (const noa::ChainConfig& config : {threshold, contextual}) {
    std::printf("=== chain with %s classifier ===\n",
                noa::ClassifierKindName(config.classifier.kind));
    std::printf("SciQL: %s\n",
                noa::ProcessingChain::ClassificationSciQl("msg_scene",
                                                          config)
                    .c_str());
    auto result = veo.RunFireChain("msg_scene", config);
    if (!result.ok()) {
      std::fprintf(stderr, "chain: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
    for (const auto& t : result->timings) {
      std::printf("  %-28s %8.2f ms\n", t.step.c_str(), t.millis);
    }
    std::printf("  hotspots: %zu  shapefile: %s\n",
                result->hotspots.size(), result->vec_path.c_str());
    // Score against ground truth for the comparison.
    auto mask = noa::ClassifyFirePixels(*scene, config.classifier);
    noa::PixelScore score = noa::ScoreMask(*scene, *mask);
    std::printf("  precision %.3f  recall %.3f  f1 %.3f\n",
                score.Precision(), score.Recall(), score.F1());
  }

  // Scenario 1's product discovery: search prior runs via stSPARQL.
  std::printf("=== catalog of generated products (stSPARQL) ===\n");
  auto products = veo.StSparql(
      "SELECT ?id ?lvl WHERE { ?p a noa:Product ; noa:hasProductId ?id ; "
      "noa:hasProcessingLevel ?lvl . } ORDER BY ?id");
  std::printf("%s", products->ToString().c_str());
  return 0;
}
