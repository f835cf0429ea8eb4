#include "noa/hotspot.h"

#include <algorithm>

#include "common/strings.h"
#include "geo/polygonize.h"
#include "geo/wkt.h"

namespace teleios::noa {

size_t LabelComponents(const std::vector<uint8_t>& mask, int width,
                       int height, std::vector<int32_t>* labels) {
  labels->assign(mask.size(), 0);
  int32_t next = 0;
  std::vector<size_t> stack;
  for (size_t start = 0; start < mask.size(); ++start) {
    if (!mask[start] || (*labels)[start] != 0) continue;
    ++next;
    stack.push_back(start);
    (*labels)[start] = next;
    while (!stack.empty()) {
      size_t i = stack.back();
      stack.pop_back();
      int c = static_cast<int>(i % width);
      int r = static_cast<int>(i / width);
      const int dc[4] = {1, -1, 0, 0};
      const int dr[4] = {0, 0, 1, -1};
      for (int k = 0; k < 4; ++k) {
        int cc = c + dc[k];
        int rr = r + dr[k];
        if (cc < 0 || rr < 0 || cc >= width || rr >= height) continue;
        size_t j = static_cast<size_t>(rr) * width + cc;
        if (mask[j] && (*labels)[j] == 0) {
          (*labels)[j] = next;
          stack.push_back(j);
        }
      }
    }
  }
  return static_cast<size_t>(next);
}

Result<std::vector<Hotspot>> ExtractHotspots(
    int width, int height, const geo::GeoTransform& transform,
    int64_t acquisition_time, const double* ir039,
    const std::vector<uint8_t>& fire_mask, int min_pixels) {
  if (fire_mask.size() !=
      static_cast<size_t>(width) * static_cast<size_t>(height)) {
    return Status::InvalidArgument("mask size mismatch");
  }
  std::vector<int32_t> labels;
  size_t count = LabelComponents(fire_mask, width, height, &labels);

  std::vector<Hotspot> hotspots;
  for (size_t comp = 1; comp <= count; ++comp) {
    std::vector<uint8_t> comp_mask(fire_mask.size(), 0);
    int64_t pixels = 0;
    double max_t39 = 0;
    for (size_t i = 0; i < labels.size(); ++i) {
      if (labels[i] == static_cast<int32_t>(comp)) {
        comp_mask[i] = 1;
        ++pixels;
        max_t39 = std::max(max_t39, ir039[i]);
      }
    }
    if (pixels < min_pixels) continue;
    std::vector<geo::Polygon> pixel_polys =
        geo::PolygonizeMask(comp_mask, width, height);
    // Georeference every vertex.
    std::vector<geo::Polygon> world;
    for (geo::Polygon& poly : pixel_polys) {
      geo::Polygon out;
      auto map_ring = [&](const geo::Ring& ring) {
        geo::Ring r;
        for (const geo::Point& p : ring) {
          r.push_back(transform.PixelToWorld(p.x, p.y));
        }
        return r;
      };
      out.outer = map_ring(poly.outer);
      for (const geo::Ring& hole : poly.holes) {
        out.holes.push_back(map_ring(hole));
      }
      world.push_back(std::move(out));
    }
    Hotspot hotspot;
    hotspot.id = static_cast<int64_t>(hotspots.size()) + 1;
    hotspot.geometry = geo::Geometry::MakeMultiPolygon(std::move(world));
    hotspot.pixel_count = pixels;
    hotspot.max_t39 = max_t39;
    // Confidence: saturating function of peak temperature over 310K.
    hotspot.confidence =
        std::clamp((max_t39 - 310.0) / 40.0, 0.05, 0.99);
    hotspot.detected_at = acquisition_time;
    hotspots.push_back(std::move(hotspot));
  }
  return hotspots;
}

Result<std::vector<Hotspot>> ExtractHotspots(
    const eo::Scene& scene, const std::vector<uint8_t>& fire_mask,
    int min_pixels) {
  if (scene.tir039.size() != scene.PixelCount()) {
    return Status::InvalidArgument("3.9um plane size mismatch");
  }
  return ExtractHotspots(scene.spec.width, scene.spec.height, scene.transform,
                         scene.spec.acquisition_time, scene.tir039.data(),
                         fire_mask, min_pixels);
}

vault::VecFile HotspotsToVec(const std::vector<Hotspot>& hotspots,
                             const std::string& product_name) {
  vault::VecFile file;
  file.name = product_name;
  for (const Hotspot& hotspot : hotspots) {
    vault::VecFeature feature;
    feature.id = hotspot.id;
    feature.attributes["pixel_count"] = std::to_string(hotspot.pixel_count);
    feature.attributes["max_t39"] = StrFormat("%.2f", hotspot.max_t39);
    feature.attributes["confidence"] = StrFormat("%.3f", hotspot.confidence);
    feature.attributes["detected_at"] = std::to_string(hotspot.detected_at);
    feature.geometry = hotspot.geometry;
    file.features.push_back(std::move(feature));
  }
  return file;
}

Result<std::vector<Hotspot>> HotspotsFromVec(const vault::VecFile& file) {
  std::vector<Hotspot> hotspots;
  for (const vault::VecFeature& feature : file.features) {
    Hotspot hotspot;
    hotspot.id = feature.id;
    hotspot.geometry = feature.geometry;
    auto get = [&](const char* key) -> Result<double> {
      auto it = feature.attributes.find(key);
      if (it == feature.attributes.end()) {
        return Status::NotFound(std::string("missing attribute ") + key);
      }
      return ParseDouble(it->second);
    };
    TELEIOS_ASSIGN_OR_RETURN(double pixels, get("pixel_count"));
    TELEIOS_ASSIGN_OR_RETURN(hotspot.max_t39, get("max_t39"));
    TELEIOS_ASSIGN_OR_RETURN(hotspot.confidence, get("confidence"));
    TELEIOS_ASSIGN_OR_RETURN(double at, get("detected_at"));
    hotspot.pixel_count = static_cast<int64_t>(pixels);
    hotspot.detected_at = static_cast<int64_t>(at);
    hotspots.push_back(std::move(hotspot));
  }
  return hotspots;
}

}  // namespace teleios::noa
