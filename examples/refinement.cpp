// Demo scenario 2 (paper §4, "Improving generated products"): the
// thematic accuracy of the hotspot shapefiles is improved by an stSPARQL
// post-processing step that compares them with auxiliary geospatial RDF
// (the coastline) and removes geometry that cannot be burning (sea).
// The user is shown the stSPARQL UPDATE statements and the effect of each
// step — exactly what the paper demonstrates.

#include <cstdio>
#include <filesystem>

#include "core/observatory.h"
#include "eo/scene.h"
#include "linkeddata/generators.h"
#include "noa/chain.h"
#include "noa/refinement.h"

namespace fs = std::filesystem;
using namespace teleios;

int main() {
  std::string dir =
      (fs::temp_directory_path() / "teleios_refinement").string();
  fs::create_directories(dir);

  eo::SceneSpec spec;
  spec.width = 160;
  spec.height = 160;
  spec.num_fires = 5;
  spec.num_glints = 5;  // sun glint => false alarms over the sea
  spec.name = "msg_scene";
  auto scene = eo::GenerateScene(spec);
  (void)vault::WriteTer(scene->ToTerRaster(), dir + "/msg_scene.ter");

  core::VirtualEarthObservatory veo;
  (void)veo.AttachArchive(dir);

  // Auxiliary geospatial data: the coastline layer (land + sea regions),
  // published as stRDF like any other linked data source.
  auto coastline = linkeddata::GenerateCoastline(*scene);
  (void)veo.LoadLinkedData(*coastline);

  // The naive threshold chain: fooled by glint and coastal plume leakage.
  noa::ChainConfig config;
  config.classifier.kind = noa::ClassifierKind::kThreshold;
  config.classifier.threshold_kelvin = 315.0;
  auto result = veo.RunFireChain("msg_scene", config);
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 1;
  }

  geo::Geometry truth = scene->GroundTruthFires();
  auto before =
      noa::FetchHotspotGeometries(&veo.strabon(), result->product_id);
  auto acc_before = noa::ScoreHotspotsAgainstTruth(*before, truth);
  std::printf("before refinement: %zu hotspots, precision %.3f, recall "
              "%.3f\n",
              before->size(), acc_before->precision, acc_before->recall);

  auto report = veo.Refine(result->product_id);
  if (!report.ok()) {
    std::fprintf(stderr, "%s\n", report.status().ToString().c_str());
    return 1;
  }
  std::printf("\nstSPARQL statements executed:\n");
  for (const std::string& stmt : report->statements) {
    std::printf("---\n%s\n", stmt.c_str());
  }
  std::printf("---\nexamined %zu, clipped %zu, rejected %zu, area removed "
              "%.6f deg^2\n",
              report->hotspots_examined, report->hotspots_refined,
              report->hotspots_removed, report->area_removed);

  auto after =
      noa::FetchHotspotGeometries(&veo.strabon(), result->product_id);
  auto acc_after = noa::ScoreHotspotsAgainstTruth(*after, truth);
  std::printf("\nafter refinement:  %zu hotspots, precision %.3f, recall "
              "%.3f\n",
              after->size(), acc_after->precision, acc_after->recall);
  std::printf("thematic accuracy (precision) improved by %.1f%%\n",
              100.0 * (acc_after->precision - acc_before->precision));
  return 0;
}
