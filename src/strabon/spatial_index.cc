#include "strabon/spatial_index.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/strings.h"
#include "geo/crs.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace teleios::strabon {

using rdf::Term;
using rdf::TermId;

namespace {

/// geo's relations count a point within 1e-9 of a boundary as on it, so a
/// related geometry's envelope can miss the other's by that much.
constexpr double kRelationTolerance = 1e-9;

/// Degrees to grow a probe envelope by so that it meets the envelope of
/// every geometry within `distance` of the probe: `distance` itself for
/// planar distances; for geodesic metres, `distance` over the smallest
/// metres-per-degree scale geo::GeodesicDistanceMeters can apply between
/// geometries within the latitudes of `probe` and `indexed` (infinite when
/// that span reaches a pole).
double SearchMargin(double distance, bool geodesic,
                    const geo::Envelope& probe, const geo::Envelope& indexed) {
  // Headroom for rounding: the FILTER compares the distance as rendered
  // by Term::DoubleLiteral, to 10 significant digits.
  const double d = std::max(0.0, distance) * (1 + 1e-6);
  if (!geodesic) return d;
  // GeodesicDistanceMeters(a, b) = deg(a, b) * M * sqrt(cos(lat)), with
  // deg the planar distance in degrees, M = R * pi / 180 metres per
  // degree and lat the mean latitude of the two envelope centres. lat lies
  // in the span of both envelopes, and cos is smallest at the largest
  // |latitude| there, so a distance below d needs deg below d over that
  // smallest scale.
  geo::Envelope span = probe;
  span.Expand(indexed);
  double max_abs_lat =
      std::max(std::fabs(span.min_y), std::fabs(span.max_y));
  double cos_lat = std::cos(max_abs_lat * M_PI / 180.0);
  if (!(cos_lat > 0)) return std::numeric_limits<double>::infinity();
  return d / (geo::kEarthRadiusMeters * M_PI / 180.0 * std::sqrt(cos_lat));
}

}  // namespace

void SpatialIndex::Refresh(const rdf::TripleStore& store,
                           GeometryCache* cache) {
  const TermId n = store.dict().size();
  if (scanned_ == n) return;
  const bool bulk = rtree_.size() == 0;
  obs::TraceSpan span(bulk ? "rtree.build" : "rtree.insert",
                      bulk ? obs::MetricsRegistry::Global().GetHistogram(
                                 "teleios_strabon_index_build_millis")
                           : nullptr);
  std::vector<geo::RTree::Entry> entries;
  for (TermId id = scanned_; id < n; ++id) {
    const Term& t = store.dict().At(id);
    if (!t.IsWkt()) continue;
    auto g = cache->Get(t);
    if (!g.ok()) continue;  // malformed WKT literals are simply not indexed
    entries.push_back({(*g)->GetEnvelope(), id});
    extent_.Expand(entries.back().box);
  }
  scanned_ = n;
  span.SetAttr("inserted", std::to_string(entries.size()));
  if (entries.empty()) return;
  if (bulk) {
    obs::Count("teleios_strabon_index_builds_total");
    rtree_.BulkLoad(std::move(entries));
  } else {
    obs::Count("teleios_strabon_index_inserts_total", entries.size());
    for (const geo::RTree::Entry& e : entries) rtree_.Insert(e.box, e.id);
  }
  obs::SetGauge("teleios_strabon_indexed_geometries",
                static_cast<double>(rtree_.size()));
}

std::vector<TermId> SpatialIndex::Query(const geo::Envelope& box) const {
  std::vector<TermId> ids;
  for (int64_t id : rtree_.Query(box)) ids.push_back(static_cast<TermId>(id));
  std::sort(ids.begin(), ids.end());
  return ids;
}

geo::Envelope SpatialRestriction::Around(const geo::Envelope& probe_box,
                                         const geo::Envelope& indexed) const {
  double m = SearchMargin(distance, geodesic, probe_box, indexed);
  return {probe_box.min_x - m, probe_box.min_y - m, probe_box.max_x + m,
          probe_box.max_y + m};
}

std::vector<SpatialRestriction> RestrictionsOf(const SparqlExprPtr& filter,
                                               GeometryCache* cache) {
  // rel(x, y), or dist(x, y) < d / dist(x, y) <= d.
  const SparqlExpr* call = filter.get();
  SpatialRestriction r;
  r.distance = kRelationTolerance;
  if (filter->kind == SparqlExprKind::kBinary &&
      (filter->op == SparqlBinaryOp::kLt ||
       filter->op == SparqlBinaryOp::kLe)) {
    const SparqlExprPtr& bound = filter->args[1];
    call = filter->args[0].get();
    if (call->kind != SparqlExprKind::kCall ||
        bound->kind != SparqlExprKind::kTerm ||
        !bound->term.IsNumeric()) {
      return {};
    }
    DistanceKind kind = DistanceOf(call->function);
    if (kind == DistanceKind::kNone) return {};
    auto d = ParseDouble(bound->term.lexical);
    if (!d.ok()) return {};
    r.distance = *d;
    r.geodesic = kind == DistanceKind::kGeodesic;
  } else if (filter->kind != SparqlExprKind::kCall ||
             RelationOf(filter->function) == SpatialRelation::kNone ||
             RelationOf(filter->function) == SpatialRelation::kDisjoint) {
    return {};
  }
  if (call->args.size() != 2) return {};
  const SparqlExpr& x = *call->args[0];
  const SparqlExpr& y = *call->args[1];
  if (x.kind == SparqlExprKind::kVar && y.kind == SparqlExprKind::kVar) {
    if (x.var == y.var) return {};
    SpatialRestriction other = r;
    r.var = x.var;
    r.partner = y.var;
    other.var = y.var;
    other.partner = x.var;
    return {r, other};
  }
  const SparqlExpr* var = &x;
  const SparqlExpr* constant = &y;
  if (y.kind == SparqlExprKind::kVar) std::swap(var, constant);
  if (var->kind != SparqlExprKind::kVar ||
      constant->kind != SparqlExprKind::kTerm) {
    return {};
  }
  auto g = cache->Get(constant->term);
  if (!g.ok()) return {};
  r.var = var->var;
  r.probe = (*g)->GetEnvelope();
  return {r};
}

bool HasSpatialRestriction(const GroupPattern& group, GeometryCache* cache) {
  for (const SparqlExprPtr& f : group.filters) {
    if (!RestrictionsOf(f, cache).empty()) return true;
  }
  for (const GroupPattern& g : group.optionals) {
    if (HasSpatialRestriction(g, cache)) return true;
  }
  for (const UnionPattern& u : group.unions) {
    if (HasSpatialRestriction(*u.left, cache) ||
        HasSpatialRestriction(*u.right, cache)) {
      return true;
    }
  }
  return false;
}

}  // namespace teleios::strabon
