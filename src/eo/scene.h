#ifndef TELEIOS_EO_SCENE_H_
#define TELEIOS_EO_SCENE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "geo/crs.h"
#include "geo/geometry.h"
#include "vault/formats.h"

namespace teleios::eo {

/// Ground-truth fire event seeded into a synthetic scene.
struct FireEvent {
  double center_col = 0;  // pixel coordinates
  double center_row = 0;
  double radius = 2.0;    // pixels
  double intensity = 60;  // Kelvin above background at the center (3.9um)
};

/// Parameters of the synthetic MSG/SEVIRI-like scene generator. The
/// default footprint covers the Peloponnese (the paper's demo region) at
/// SEVIRI-like low spatial resolution — the resolution is what produces
/// the mixed coastline pixels that the refinement scenario must clean up.
struct SceneSpec {
  int width = 128;
  int height = 128;
  uint64_t seed = 42;
  int num_fires = 4;
  /// Sun-glint events over the sea: bright 3.9um spots with no 10.8um
  /// echo — the classic false-alarm source for naive threshold fire
  /// detection, and exactly what the stSPARQL refinement step removes.
  int num_glints = 3;
  double cloud_cover = 0.08;   // fraction of sky
  double sea_level = 0.48;     // landmask threshold on the noise field
  // Footprint (lon/lat degrees), default Peloponnese.
  double lon_min = 21.0;
  double lon_max = 23.5;
  double lat_min = 36.2;
  double lat_max = 38.5;
  int64_t acquisition_time = 1188036000;  // 2007-08-25T10:00:00 UTC
  std::string name = "MSG2-SEVIRI-scene";
};

/// A synthetic Level-1-style multiband scene plus ground truth.
struct Scene {
  SceneSpec spec;
  geo::GeoTransform transform;
  // Bands, row-major (row*width + col):
  std::vector<double> vis006;  // visible reflectance [0,1]
  std::vector<double> nir016;  // near-IR reflectance [0,1]
  std::vector<double> tir039;  // 3.9um brightness temperature (K)
  std::vector<double> tir108;  // 10.8um brightness temperature (K)
  std::vector<uint8_t> landmask;  // 1 = land
  std::vector<uint8_t> cloudmask; // 1 = cloud
  std::vector<FireEvent> fires;   // ground truth

  size_t PixelCount() const {
    return static_cast<size_t>(spec.width) * spec.height;
  }

  /// World coordinates of a pixel center.
  geo::Point PixelCenter(double col, double row) const {
    return transform.PixelToWorld(col + 0.5, row + 0.5);
  }

  /// Packs the scene as a .ter raster (bands VIS006, NIR016, IR039,
  /// IR108, plus LANDMASK/CLOUDMASK as 0/1 bands).
  vault::TerRaster ToTerRaster() const;

  /// Ground-truth fire footprint (union of per-event circles) in world
  /// coordinates — the reference for thematic-accuracy scoring.
  geo::Geometry GroundTruthFires() const;
};

/// Deterministic synthetic scene generator (value-noise terrain, diurnal
/// thermal field, gaussian fire plumes, noise-blob clouds).
Result<Scene> GenerateScene(const SceneSpec& spec);

/// Rebuilds a Scene from a .ter raster previously written with
/// Scene::ToTerRaster (bands VIS006/NIR016/IR039/IR108 required; masks
/// default to all-land / no-cloud when absent), copying the four
/// radiometric planes and the two masks. Ground-truth fires are not
/// recoverable from a raster and stay empty.
Result<Scene> SceneFromRaster(const vault::TerRaster& raster);

/// Coarse land polygon(s) extracted from the landmask (marching squares
/// on the mask at `step`-pixel resolution), in world coordinates. Used to
/// derive the synthetic coastline linked-data layer.
geo::Geometry LandPolygons(const Scene& scene, int step = 4);

}  // namespace teleios::eo

#endif  // TELEIOS_EO_SCENE_H_
