#ifndef TELEIOS_NOA_HOTSPOT_H_
#define TELEIOS_NOA_HOTSPOT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "eo/scene.h"
#include "geo/geometry.h"
#include "vault/formats.h"

namespace teleios::noa {

/// A detected fire hotspot: one connected component of fire pixels,
/// polygonized and georeferenced — the unit of the shapefile products the
/// NOA chain delivers.
struct Hotspot {
  int64_t id = 0;
  geo::Geometry geometry;    // world coordinates (lon/lat)
  int64_t pixel_count = 0;
  double max_t39 = 0;        // peak 3.9um brightness temperature
  double confidence = 0;     // heuristic 0..1
  int64_t detected_at = 0;   // acquisition time
};

/// Extracts hotspots from a fire mask over a `width` x `height` raster:
/// 4-connected components >= `min_pixels`, boundary polygonization,
/// georeferencing through `transform`. `ir039` is the raster's 3.9um
/// band (width * height pixels, row-major), which rates each hotspot.
Result<std::vector<Hotspot>> ExtractHotspots(
    int width, int height, const geo::GeoTransform& transform,
    int64_t acquisition_time, const double* ir039,
    const std::vector<uint8_t>& fire_mask, int min_pixels = 1);

/// ExtractHotspots over a scene's size, transform, time and 3.9um plane.
Result<std::vector<Hotspot>> ExtractHotspots(
    const eo::Scene& scene, const std::vector<uint8_t>& fire_mask,
    int min_pixels = 1);

/// Packs hotspots as a .vec product ("shapefile" in the paper's terms).
vault::VecFile HotspotsToVec(const std::vector<Hotspot>& hotspots,
                             const std::string& product_name);

/// Reads hotspots back from a .vec product.
Result<std::vector<Hotspot>> HotspotsFromVec(const vault::VecFile& file);

/// Connected-component labelling (4-connectivity); returns labels >=1 per
/// pixel (0 = background) and the number of components.
size_t LabelComponents(const std::vector<uint8_t>& mask, int width,
                       int height, std::vector<int32_t>* labels);

}  // namespace teleios::noa

#endif  // TELEIOS_NOA_HOTSPOT_H_
