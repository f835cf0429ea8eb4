#ifndef TELEIOS_STRABON_SPATIAL_FUNCTIONS_H_
#define TELEIOS_STRABON_SPATIAL_FUNCTIONS_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "geo/geometry.h"
#include "rdf/term.h"

namespace teleios::strabon {

/// Parsed-WKT cache: stSPARQL FILTERs evaluate the same geometry literals
/// for every candidate binding; parsing each WKT once is the difference
/// between O(n) and O(n * |wkt|) filter evaluation.
class GeometryCache {
 public:
  /// Parses (or fetches) the geometry of a strdf:WKT literal; any other
  /// term is a TypeError. The spatial index holds exactly these literals,
  /// so FILTERs see the same geometries with the index on and off.
  Result<const geo::Geometry*> Get(const rdf::Term& term);

  size_t size() const { return cache_.size(); }

 private:
  std::unordered_map<std::string, geo::Geometry> cache_;
};

/// True if `iri` is an stSPARQL spatial function (strdf: namespace).
bool IsSpatialFunction(const std::string& iri);

/// Kind of spatial relation a function tests, for index acceleration.
enum class SpatialRelation {
  kNone,        // not a boolean relation (distance, area, constructors)
  kIntersects,  // intersects / anyInteract
  kContains,
  kWithin,
  kDisjoint,
};

SpatialRelation RelationOf(const std::string& iri);

/// Kind of distance a function measures, for index acceleration.
enum class DistanceKind {
  kNone,
  kPlanar,    // distance: in the coordinates' units
  kGeodesic,  // geodesicDistance: metres (geo::GeodesicDistanceMeters)
};

DistanceKind DistanceOf(const std::string& iri);

/// Evaluates an strdf: function over ground terms. Boolean relations
/// return xsd:boolean literals; constructive ops (buffer, union,
/// intersection, difference, envelope, centroid) return strdf:WKT
/// literals; metrics (distance, geodesicDistance, area) return
/// xsd:double.
Result<rdf::Term> EvalSpatialFunction(const std::string& iri,
                                      const std::vector<rdf::Term>& args,
                                      GeometryCache* cache);

}  // namespace teleios::strabon

#endif  // TELEIOS_STRABON_SPATIAL_FUNCTIONS_H_
