#include "geo/crs.h"

#include <cmath>

#include "geo/predicates.h"

namespace teleios::geo {

namespace {
constexpr double kDegToRad = M_PI / 180.0;
constexpr double kWebMercatorMax = 20037508.342789244;
}  // namespace

Point Wgs84ToWebMercator(const Point& lonlat) {
  double x = lonlat.x * kWebMercatorMax / 180.0;
  double lat = std::fmax(-85.05112878, std::fmin(85.05112878, lonlat.y));
  double y = std::log(std::tan((90.0 + lat) * kDegToRad / 2.0)) / kDegToRad;
  y = y * kWebMercatorMax / 180.0;
  return {x, y};
}

Point WebMercatorToWgs84(const Point& xy) {
  double lon = xy.x / kWebMercatorMax * 180.0;
  double lat = xy.y / kWebMercatorMax * 180.0;
  lat = 2.0 * std::atan(std::exp(lat * kDegToRad)) / kDegToRad - 90.0;
  return {lon, lat};
}

double HaversineMeters(const Point& a, const Point& b) {
  double phi1 = a.y * kDegToRad;
  double phi2 = b.y * kDegToRad;
  double dphi = (b.y - a.y) * kDegToRad;
  double dlam = (b.x - a.x) * kDegToRad;
  double h = std::sin(dphi / 2) * std::sin(dphi / 2) +
             std::cos(phi1) * std::cos(phi2) * std::sin(dlam / 2) *
                 std::sin(dlam / 2);
  return 2.0 * kEarthRadiusMeters * std::asin(std::sqrt(std::fmin(1.0, h)));
}

double GeodesicDistanceMeters(const Geometry& a, const Geometry& b) {
  // Planar distance in degrees, scaled by the metric at the mean latitude.
  double deg = Distance(a, b);
  // Touching geometries, or an empty one (infinitely far, as in Distance).
  if (deg == 0.0 || std::isinf(deg)) return deg;
  double lat = (a.GetEnvelope().Center().y + b.GetEnvelope().Center().y) / 2;
  double meters_per_deg_lat = kEarthRadiusMeters * kDegToRad;
  double meters_per_deg_lon = meters_per_deg_lat * std::cos(lat * kDegToRad);
  // Use the geometric mean of the two scales as an isotropic approximation.
  double scale = std::sqrt(meters_per_deg_lat * meters_per_deg_lon);
  return deg * scale;
}

Point GeoTransform::PixelToWorld(double col, double row) const {
  return {origin_x + col * pixel_w + row * rot_x,
          origin_y + col * rot_y + row * pixel_h};
}

Result<Point> GeoTransform::WorldToPixel(const Point& world) const {
  double det = pixel_w * pixel_h - rot_x * rot_y;
  if (std::fabs(det) < 1e-30) {
    return Status::InvalidArgument("singular geotransform");
  }
  double dx = world.x - origin_x;
  double dy = world.y - origin_y;
  return Point{(dx * pixel_h - dy * rot_x) / det,
               (dy * pixel_w - dx * rot_y) / det};
}

namespace {
Ring TransformRing(const Ring& ring, const GeoTransform& t) {
  Ring out;
  out.reserve(ring.size());
  for (const Point& p : ring) out.push_back(t.PixelToWorld(p.x, p.y));
  return out;
}
}  // namespace

Geometry TransformGeometry(const Geometry& g, const GeoTransform& t) {
  switch (g.kind()) {
    case GeometryKind::kEmpty:
      return g;
    case GeometryKind::kPoint: {
      Point p = t.PixelToWorld(g.AsPoint().x, g.AsPoint().y);
      return Geometry::MakePoint(p.x, p.y);
    }
    case GeometryKind::kMultiPoint: {
      std::vector<Point> pts;
      for (const Point& p : g.points()) pts.push_back(t.PixelToWorld(p.x, p.y));
      return Geometry::MakeMultiPoint(std::move(pts));
    }
    case GeometryKind::kLineString:
    case GeometryKind::kMultiLineString: {
      std::vector<LineString> lines;
      for (const LineString& l : g.lines()) {
        lines.push_back({TransformRing(l.points, t)});
      }
      if (g.kind() == GeometryKind::kLineString) {
        return Geometry::MakeLineString(std::move(lines[0].points));
      }
      return Geometry::MakeMultiLineString(std::move(lines));
    }
    case GeometryKind::kPolygon:
    case GeometryKind::kMultiPolygon: {
      std::vector<Polygon> polys;
      for (const Polygon& poly : g.polygons()) {
        Polygon out;
        out.outer = TransformRing(poly.outer, t);
        for (const Ring& h : poly.holes) out.holes.push_back(TransformRing(h, t));
        polys.push_back(std::move(out));
      }
      if (g.kind() == GeometryKind::kPolygon) {
        return Geometry::MakePolygon(std::move(polys[0]));
      }
      return Geometry::MakeMultiPolygon(std::move(polys));
    }
  }
  return g;
}

}  // namespace teleios::geo
