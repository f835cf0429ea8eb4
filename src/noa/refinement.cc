#include "noa/refinement.h"

#include "common/strings.h"
#include "eo/product.h"
#include "geo/clip.h"
#include "geo/predicates.h"
#include "geo/wkt.h"

namespace teleios::noa {

namespace {

std::string ProductIri(const std::string& product_id) {
  return std::string(eo::kNoaNs) + "product/" + product_id;
}

}  // namespace

Result<std::vector<geo::Geometry>> FetchHotspotGeometries(
    strabon::Strabon* strabon, const std::string& product_id) {
  std::string query =
      "SELECT ?g WHERE { ?h a noa:Hotspot ; "
      "noa:derivedFromProduct <" +
      ProductIri(product_id) +
      "> ; noa:hasGeometry ?g . }";
  TELEIOS_ASSIGN_OR_RETURN(storage::Table solutions, strabon->Select(query));
  std::vector<geo::Geometry> out;
  for (size_t r = 0; r < solutions.num_rows(); ++r) {
    rdf::TermId id = strabon::Binding(solutions, "g", r);
    if (id == rdf::kNoTerm) continue;
    const rdf::Term& term = strabon->store().dict().At(id);
    TELEIOS_ASSIGN_OR_RETURN(geo::Geometry g, geo::ParseWkt(term.lexical));
    out.push_back(std::move(g));
  }
  return out;
}

Result<RefinementReport> RefineHotspots(strabon::Strabon* strabon,
                                        const std::string& product_id) {
  RefinementReport report;

  // Fetch the sea geometry from the coastline linked-data layer.
  std::string sea_query =
      "SELECT ?g WHERE { ?sea a noa:Sea ; noa:hasGeometry ?g . }";
  TELEIOS_ASSIGN_OR_RETURN(storage::Table sea_solutions,
                           strabon->Select(sea_query));
  rdf::TermId sea = sea_solutions.num_rows() == 0
                        ? rdf::kNoTerm
                        : strabon::Binding(sea_solutions, "g", 0);
  if (sea == rdf::kNoTerm) {
    return Status::NotFound(
        "no noa:Sea geometry loaded; load the coastline layer first");
  }
  const std::string sea_wkt = strabon->store().dict().At(sea).lexical;
  std::string sea_literal = "\"" + sea_wkt + "\"^^strdf:WKT";

  TELEIOS_ASSIGN_OR_RETURN(std::vector<geo::Geometry> before,
                           FetchHotspotGeometries(strabon, product_id));
  report.hotspots_examined = before.size();
  double area_before = 0;
  for (const geo::Geometry& g : before) area_before += g.Area();

  // Statement 1 (the paper's refinement post-processing step): replace
  // geometry that leaks over the coastline with its difference from the
  // sea.
  std::string product_iri = ProductIri(product_id);
  std::string refine_update =
      "DELETE { ?h noa:hasGeometry ?g } "
      "INSERT { ?h noa:hasGeometry ?ng . ?h noa:refinedGeometry ?ng } "
      "WHERE { ?h a noa:Hotspot ; noa:derivedFromProduct <" +
      product_iri +
      "> ; noa:hasGeometry ?g . "
      "BIND(strdf:difference(?g, " + sea_literal + ") AS ?ng) "
      "FILTER(strdf:intersects(?g, " + sea_literal + ")) }";
  report.statements.push_back(refine_update);
  TELEIOS_ASSIGN_OR_RETURN(size_t refined_edits,
                           strabon->Update(refine_update));
  // Each refined hotspot contributes one delete + two inserts.
  report.hotspots_refined = refined_edits / 3;

  // Statement 2: hotspots whose refined geometry is empty were entirely
  // at sea -> reject them.
  std::string reject_update =
      "DELETE { ?h a noa:Hotspot } "
      "INSERT { ?h a noa:RejectedHotspot } "
      "WHERE { ?h a noa:Hotspot ; noa:derivedFromProduct <" +
      product_iri +
      "> ; noa:hasGeometry ?g . FILTER(strdf:isEmpty(?g)) }";
  report.statements.push_back(reject_update);
  TELEIOS_ASSIGN_OR_RETURN(size_t rejected_edits,
                           strabon->Update(reject_update));
  report.hotspots_removed = rejected_edits / 2;

  TELEIOS_ASSIGN_OR_RETURN(std::vector<geo::Geometry> after,
                           FetchHotspotGeometries(strabon, product_id));
  double area_after = 0;
  for (const geo::Geometry& g : after) area_after += g.Area();
  report.area_removed = area_before - area_after;
  return report;
}

Result<ThematicAccuracy> ScoreHotspotsAgainstTruth(
    const std::vector<geo::Geometry>& hotspot_geometries,
    const geo::Geometry& ground_truth) {
  ThematicAccuracy accuracy;
  double truth_area = ground_truth.Area();
  double hotspot_area = 0;
  double overlap_area = 0;
  for (const geo::Geometry& h : hotspot_geometries) {
    if (h.IsEmpty()) continue;
    hotspot_area += h.Area();
    if (ground_truth.IsEmpty()) continue;
    if (!geo::Intersects(h, ground_truth)) continue;
    TELEIOS_ASSIGN_OR_RETURN(geo::Geometry overlap,
                             geo::Intersection(h, ground_truth));
    overlap_area += overlap.Area();
  }
  accuracy.precision = hotspot_area > 0 ? overlap_area / hotspot_area : 0.0;
  accuracy.recall = truth_area > 0 ? overlap_area / truth_area : 0.0;
  return accuracy;
}

}  // namespace teleios::noa
