#include "strabon/spatial_functions.h"

#include "common/strings.h"
#include "geo/clip.h"
#include "obs/metrics.h"
#include "geo/crs.h"
#include "geo/predicates.h"
#include "geo/wkt.h"

namespace teleios::strabon {

using geo::Geometry;
using rdf::Term;

namespace {

constexpr const char* kStrdfNs = "http://strdf.di.uoa.gr/ontology#";
/// The forthcoming OGC standard the paper anticipates (§1): GeoSPARQL
/// function namespace, accepted as an alias of the strdf: functions.
constexpr const char* kGeofNs = "http://www.opengis.net/def/function/geosparql/";

/// Local name of a spatial-function IRI, lower-cased and normalized to
/// the strdf vocabulary ("" if the IRI is in neither namespace).
/// GeoSPARQL simple-feature names (sfIntersects, sfWithin, ...) map to
/// their strdf equivalents.
std::string StrdfLocal(const std::string& iri) {
  std::string local;
  if (StrStartsWith(iri, kStrdfNs)) {
    local = StrLower(iri.substr(std::string(kStrdfNs).size()));
  } else if (StrStartsWith(iri, kGeofNs)) {
    local = StrLower(iri.substr(std::string(kGeofNs).size()));
    if (StrStartsWith(local, "sf")) local = local.substr(2);
    if (local == "equals") local = "equals";
  } else {
    return "";
  }
  return local;
}

}  // namespace

Result<const Geometry*> GeometryCache::Get(const Term& term) {
  if (!term.IsWkt()) {
    return Status::TypeError("expected a strdf:WKT literal, got " +
                             term.ToNTriples());
  }
  // FILTER evaluation hits this per candidate binding; cache the counters.
  static auto* hits = obs::MetricsRegistry::Global().GetCounter(
      "teleios_strabon_wkt_cache_hits_total");
  static auto* parses = obs::MetricsRegistry::Global().GetCounter(
      "teleios_strabon_wkt_parses_total");
  auto it = cache_.find(term.lexical);
  if (it != cache_.end()) {
    hits->Inc();
    return &it->second;
  }
  parses->Inc();
  TELEIOS_ASSIGN_OR_RETURN(Geometry g, geo::ParseWkt(term.lexical));
  auto [pos, _] = cache_.emplace(term.lexical, std::move(g));
  return &pos->second;
}

bool IsSpatialFunction(const std::string& iri) {
  return !StrdfLocal(iri).empty();
}

SpatialRelation RelationOf(const std::string& iri) {
  std::string local = StrdfLocal(iri);
  if (local == "intersects" || local == "anyinteract") {
    return SpatialRelation::kIntersects;
  }
  if (local == "contains") return SpatialRelation::kContains;
  if (local == "within" || local == "inside") return SpatialRelation::kWithin;
  if (local == "disjoint") return SpatialRelation::kDisjoint;
  return SpatialRelation::kNone;
}

DistanceKind DistanceOf(const std::string& iri) {
  std::string local = StrdfLocal(iri);
  if (local == "distance") return DistanceKind::kPlanar;
  if (local == "geodesicdistance") return DistanceKind::kGeodesic;
  return DistanceKind::kNone;
}

Result<Term> EvalSpatialFunction(const std::string& iri,
                                 const std::vector<Term>& args,
                                 GeometryCache* cache) {
  std::string local = StrdfLocal(iri);
  if (local.empty()) {
    return Status::NotFound("not an strdf function: " + iri);
  }
  GeometryCache fallback;
  if (cache == nullptr) cache = &fallback;
  auto need = [&](size_t n) -> Status {
    if (args.size() != n) {
      return Status::InvalidArgument("strdf:" + local + " expects " +
                                     std::to_string(n) + " argument(s)");
    }
    return Status::OK();
  };

  // Binary boolean relations.
  SpatialRelation rel = RelationOf(iri);
  if (rel != SpatialRelation::kNone) {
    TELEIOS_RETURN_IF_ERROR(need(2));
    TELEIOS_ASSIGN_OR_RETURN(const Geometry* a, cache->Get(args[0]));
    TELEIOS_ASSIGN_OR_RETURN(const Geometry* b, cache->Get(args[1]));
    bool result = false;
    switch (rel) {
      case SpatialRelation::kIntersects:
        result = geo::Intersects(*a, *b);
        break;
      case SpatialRelation::kContains:
        result = geo::Contains(*a, *b);
        break;
      case SpatialRelation::kWithin:
        result = geo::Within(*a, *b);
        break;
      case SpatialRelation::kDisjoint:
        result = geo::Disjoint(*a, *b);
        break;
      case SpatialRelation::kNone:
        break;
    }
    return Term::BooleanLiteral(result);
  }
  if (local == "equals") {
    TELEIOS_RETURN_IF_ERROR(need(2));
    TELEIOS_ASSIGN_OR_RETURN(const Geometry* a, cache->Get(args[0]));
    TELEIOS_ASSIGN_OR_RETURN(const Geometry* b, cache->Get(args[1]));
    return Term::BooleanLiteral(geo::Contains(*a, *b) &&
                                geo::Contains(*b, *a));
  }
  if (local == "distance") {
    TELEIOS_RETURN_IF_ERROR(need(2));
    TELEIOS_ASSIGN_OR_RETURN(const Geometry* a, cache->Get(args[0]));
    TELEIOS_ASSIGN_OR_RETURN(const Geometry* b, cache->Get(args[1]));
    return Term::DoubleLiteral(geo::Distance(*a, *b));
  }
  if (local == "geodesicdistance") {
    TELEIOS_RETURN_IF_ERROR(need(2));
    TELEIOS_ASSIGN_OR_RETURN(const Geometry* a, cache->Get(args[0]));
    TELEIOS_ASSIGN_OR_RETURN(const Geometry* b, cache->Get(args[1]));
    return Term::DoubleLiteral(geo::GeodesicDistanceMeters(*a, *b));
  }
  if (local == "area") {
    TELEIOS_RETURN_IF_ERROR(need(1));
    TELEIOS_ASSIGN_OR_RETURN(const Geometry* a, cache->Get(args[0]));
    return Term::DoubleLiteral(a->Area());
  }
  if (local == "buffer") {
    TELEIOS_RETURN_IF_ERROR(need(2));
    TELEIOS_ASSIGN_OR_RETURN(const Geometry* a, cache->Get(args[0]));
    TELEIOS_ASSIGN_OR_RETURN(double d, ParseDouble(args[1].lexical));
    return Term::WktLiteral(geo::WriteWkt(geo::Buffer(*a, d)));
  }
  if (local == "envelope") {
    TELEIOS_RETURN_IF_ERROR(need(1));
    TELEIOS_ASSIGN_OR_RETURN(const Geometry* a, cache->Get(args[0]));
    geo::Envelope e = a->GetEnvelope();
    return Term::WktLiteral(geo::WriteWkt(
        Geometry::MakeBox(e.min_x, e.min_y, e.max_x, e.max_y)));
  }
  if (local == "centroid") {
    TELEIOS_RETURN_IF_ERROR(need(1));
    TELEIOS_ASSIGN_OR_RETURN(const Geometry* a, cache->Get(args[0]));
    geo::Point c = a->Centroid();
    return Term::WktLiteral(geo::WriteWkt(Geometry::MakePoint(c.x, c.y)));
  }
  if (local == "union" || local == "intersection" || local == "difference") {
    TELEIOS_RETURN_IF_ERROR(need(2));
    TELEIOS_ASSIGN_OR_RETURN(const Geometry* a, cache->Get(args[0]));
    TELEIOS_ASSIGN_OR_RETURN(const Geometry* b, cache->Get(args[1]));
    geo::BooleanOp op = local == "union"
                            ? geo::BooleanOp::kUnion
                            : (local == "intersection"
                                   ? geo::BooleanOp::kIntersection
                                   : geo::BooleanOp::kDifference);
    TELEIOS_ASSIGN_OR_RETURN(Geometry result, geo::PolygonBoolean(*a, *b, op));
    return Term::WktLiteral(geo::WriteWkt(result));
  }
  if (local == "convexhull") {
    TELEIOS_RETURN_IF_ERROR(need(1));
    TELEIOS_ASSIGN_OR_RETURN(const Geometry* a, cache->Get(args[0]));
    return Term::WktLiteral(geo::WriteWkt(geo::ConvexHull(*a)));
  }
  if (local == "isempty") {
    TELEIOS_RETURN_IF_ERROR(need(1));
    TELEIOS_ASSIGN_OR_RETURN(const Geometry* a, cache->Get(args[0]));
    return Term::BooleanLiteral(a->IsEmpty());
  }
  return Status::NotFound("unknown strdf function strdf:" + local);
}

}  // namespace teleios::strabon
