#include "noa/mapping.h"

#include <algorithm>
#include <sstream>

#include "common/strings.h"
#include "geo/predicates.h"
#include "geo/wkt.h"

namespace teleios::noa {

Status RapidMapper::AddQueryLayer(const std::string& name,
                                  const std::string& color, char glyph,
                                  const std::string& query) {
  TELEIOS_ASSIGN_OR_RETURN(storage::Table solutions, strabon_->Select(query));
  MapLayer layer;
  layer.name = name;
  layer.color = color;
  layer.glyph = glyph;
  // The first column is the geometry, the second (if any) its label.
  auto term_at = [&](size_t col, size_t row) -> rdf::TermId {
    return col < solutions.num_columns() ? solutions.column(col).GetInt64(row)
                                         : rdf::kNoTerm;
  };
  for (size_t r = 0; r < solutions.num_rows(); ++r) {
    if (term_at(0, r) == rdf::kNoTerm) continue;
    const rdf::Term& term = strabon_->store().dict().At(term_at(0, r));
    auto g = geo::ParseWkt(term.lexical);
    if (!g.ok() || g->IsEmpty()) continue;
    layer.geometries.push_back(std::move(*g));
    std::string label;
    if (term_at(1, r) != rdf::kNoTerm) {
      label = strabon_->store().dict().At(term_at(1, r)).lexical;
    }
    layer.labels.push_back(std::move(label));
  }
  layers_.push_back(std::move(layer));
  return Status::OK();
}

void RapidMapper::AddLayer(MapLayer layer) {
  layers_.push_back(std::move(layer));
}

geo::Envelope RapidMapper::Extent() const {
  geo::Envelope extent = geo::Envelope::Empty();
  for (const MapLayer& layer : layers_) {
    for (const geo::Geometry& g : layer.geometries) {
      extent.Expand(g.GetEnvelope());
    }
  }
  if (extent.IsEmpty()) return {0, 0, 1, 1};
  double margin_x = std::max(1e-6, extent.Width() * 0.03);
  double margin_y = std::max(1e-6, extent.Height() * 0.03);
  extent.min_x -= margin_x;
  extent.max_x += margin_x;
  extent.min_y -= margin_y;
  extent.max_y += margin_y;
  return extent;
}

namespace {

struct Projector {
  geo::Envelope extent;
  double width;
  double height;

  /// World -> SVG pixel (y flipped).
  geo::Point Map(const geo::Point& p) const {
    double x = (p.x - extent.min_x) / extent.Width() * width;
    double y = (1.0 - (p.y - extent.min_y) / extent.Height()) * height;
    return {x, y};
  }
};

void SvgRing(std::ostringstream& os, const geo::Ring& ring,
             const Projector& proj) {
  for (size_t i = 0; i < ring.size(); ++i) {
    geo::Point p = proj.Map(ring[i]);
    os << (i == 0 ? "M" : "L") << StrFormat("%.1f %.1f ", p.x, p.y);
  }
  os << "Z ";
}

}  // namespace

std::string RapidMapper::RenderSvg(int width, int height) const {
  Projector proj{Extent(), static_cast<double>(width),
                 static_cast<double>(height - 60)};
  std::ostringstream os;
  os << "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"" << width
     << "\" height=\"" << height << "\" viewBox=\"0 0 " << width << " "
     << height << "\">\n";
  os << "<rect width=\"" << width << "\" height=\"" << height
     << "\" fill=\"#eef6fb\"/>\n";
  for (const MapLayer& layer : layers_) {
    os << "<g id=\"" << layer.name << "\">\n";
    for (size_t i = 0; i < layer.geometries.size(); ++i) {
      const geo::Geometry& g = layer.geometries[i];
      switch (g.kind()) {
        case geo::GeometryKind::kPoint:
        case geo::GeometryKind::kMultiPoint: {
          for (const geo::Point& p : g.points()) {
            geo::Point m = proj.Map(p);
            os << "<circle cx=\"" << StrFormat("%.1f", m.x) << "\" cy=\""
               << StrFormat("%.1f", m.y) << "\" r=\"4\" fill=\""
               << layer.color << "\"/>\n";
            if (i < layer.labels.size() && !layer.labels[i].empty()) {
              os << "<text x=\"" << StrFormat("%.1f", m.x + 6) << "\" y=\""
                 << StrFormat("%.1f", m.y - 4)
                 << "\" font-size=\"10\" fill=\"#333\">" << layer.labels[i]
                 << "</text>\n";
            }
          }
          break;
        }
        case geo::GeometryKind::kLineString:
        case geo::GeometryKind::kMultiLineString: {
          for (const geo::LineString& line : g.lines()) {
            os << "<polyline fill=\"none\" stroke=\"" << layer.color
               << "\" stroke-width=\"1.5\" points=\"";
            for (const geo::Point& p : line.points) {
              geo::Point m = proj.Map(p);
              os << StrFormat("%.1f,%.1f ", m.x, m.y);
            }
            os << "\"/>\n";
          }
          break;
        }
        case geo::GeometryKind::kPolygon:
        case geo::GeometryKind::kMultiPolygon: {
          os << "<path fill=\"" << layer.color
             << "\" fill-opacity=\"0.55\" fill-rule=\"evenodd\" stroke=\""
             << layer.color << "\" d=\"";
          for (const geo::Polygon& poly : g.polygons()) {
            SvgRing(os, poly.outer, proj);
            for (const geo::Ring& hole : poly.holes) {
              SvgRing(os, hole, proj);
            }
          }
          os << "\"/>\n";
          break;
        }
        case geo::GeometryKind::kEmpty:
          break;
      }
    }
    os << "</g>\n";
  }
  // Legend.
  int ly = height - 44;
  int lx = 10;
  for (const MapLayer& layer : layers_) {
    os << "<rect x=\"" << lx << "\" y=\"" << ly
       << "\" width=\"12\" height=\"12\" fill=\"" << layer.color << "\"/>\n"
       << "<text x=\"" << lx + 16 << "\" y=\"" << ly + 10
       << "\" font-size=\"11\" fill=\"#222\">" << layer.name << "</text>\n";
    lx += 16 + static_cast<int>(layer.name.size()) * 7 + 14;
  }
  os << "</svg>\n";
  return os.str();
}

std::string RapidMapper::RenderAscii(int cols, int rows) const {
  geo::Envelope extent = Extent();
  std::vector<std::string> grid(static_cast<size_t>(rows),
                                std::string(static_cast<size_t>(cols), ' '));
  auto plot = [&](const geo::Point& p, char glyph) {
    int c = static_cast<int>((p.x - extent.min_x) / extent.Width() * cols);
    int r = static_cast<int>((1.0 - (p.y - extent.min_y) / extent.Height()) *
                             rows);
    if (c >= 0 && c < cols && r >= 0 && r < rows) {
      grid[static_cast<size_t>(r)][static_cast<size_t>(c)] = glyph;
    }
  };
  for (const MapLayer& layer : layers_) {
    for (const geo::Geometry& g : layer.geometries) {
      for (const geo::Point& p : g.points()) plot(p, layer.glyph);
      for (const geo::LineString& line : g.lines()) {
        for (const geo::Point& p : line.points) plot(p, layer.glyph);
      }
      // Polygons: plot cell centers that fall inside.
      if (!g.polygons().empty()) {
        for (int r = 0; r < rows; ++r) {
          for (int c = 0; c < cols; ++c) {
            double x = extent.min_x +
                       (static_cast<double>(c) + 0.5) / cols * extent.Width();
            double y = extent.min_y + (1.0 - (static_cast<double>(r) + 0.5) /
                                                 rows) *
                                          extent.Height();
            for (const geo::Polygon& poly : g.polygons()) {
              if (geo::PointInPolygon({x, y}, poly)) {
                grid[static_cast<size_t>(r)][static_cast<size_t>(c)] =
                    layer.glyph;
                break;
              }
            }
          }
        }
      }
    }
  }
  std::ostringstream os;
  os << "+" << std::string(static_cast<size_t>(cols), '-') << "+\n";
  for (const std::string& row : grid) os << "|" << row << "|\n";
  os << "+" << std::string(static_cast<size_t>(cols), '-') << "+\n";
  for (const MapLayer& layer : layers_) {
    os << layer.glyph << " = " << layer.name << "  ";
  }
  os << "\n";
  return os.str();
}

}  // namespace teleios::noa
