#ifndef TELEIOS_NOA_REFINEMENT_H_
#define TELEIOS_NOA_REFINEMENT_H_

#include <functional>
#include <string>
#include <vector>

#include "common/status.h"
#include "eo/scene.h"
#include "geo/geometry.h"
#include "strabon/strabon.h"

namespace teleios::noa {

/// Statistics of a refinement pass (demo scenario 2: improving the
/// thematic accuracy of the hotspot shapefiles).
struct RefinementReport {
  size_t hotspots_examined = 0;
  size_t hotspots_refined = 0;   // geometry clipped by the sea
  size_t hotspots_removed = 0;   // entirely at sea
  double area_removed = 0;       // square degrees clipped away
  /// The stSPARQL statements executed, in order (demo scenario 2 shows
  /// these to the user).
  std::vector<std::string> statements;
};

/// Runs one stSPARQL update and answers the number of triples it added
/// and removed. The observatory commits it through its write path.
using UpdateRunner = std::function<Result<size_t>(const std::string& update)>;

/// Refines the hotspot products of `product_id` in `strabon` against the
/// sea geometry published by the coastline linked-data layer
/// (noa:sea noa:hasGeometry ...): hotspot geometry intersecting the sea
/// is replaced by its strdf:difference with the sea, and hotspots that
/// end up empty are retyped as noa:RejectedHotspot. All edits are
/// stSPARQL UPDATE statements, exactly as the paper's post-processing
/// step describes, and run through `update`, in order; the reads query
/// `strabon` directly.
Result<RefinementReport> RefineHotspots(strabon::Strabon* strabon,
                                        const std::string& product_id,
                                        const UpdateRunner& update);

/// Thematic accuracy of a hotspot product against ground truth: the
/// fraction of total hotspot area that overlaps true fire circles
/// (precision) and the fraction of fire area covered (recall).
struct ThematicAccuracy {
  double precision = 0;
  double recall = 0;
};

Result<ThematicAccuracy> ScoreHotspotsAgainstTruth(
    const std::vector<geo::Geometry>& hotspot_geometries,
    const geo::Geometry& ground_truth);

/// Fetches the (current) geometries of all noa:Hotspot instances of a
/// product from Strabon.
Result<std::vector<geo::Geometry>> FetchHotspotGeometries(
    strabon::Strabon* strabon, const std::string& product_id);

}  // namespace teleios::noa

#endif  // TELEIOS_NOA_REFINEMENT_H_
