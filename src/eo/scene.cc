#include "eo/scene.h"

#include <algorithm>
#include <cmath>

#include "geo/polygonize.h"

namespace teleios::eo {

namespace {

/// Small deterministic PRNG (xorshift64*).
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed ? seed : 0x9e3779b97f4a7c15ull) {}

  uint64_t Next() {
    state_ ^= state_ >> 12;
    state_ ^= state_ << 25;
    state_ ^= state_ >> 27;
    return state_ * 0x2545f4914f6cdd1dull;
  }

  /// Uniform in [0, 1).
  double Uniform() {
    return static_cast<double>(Next() >> 11) / 9007199254740992.0;
  }

 private:
  uint64_t state_;
};

/// Hash-based lattice value in [0,1) for octaved value noise.
double LatticeValue(uint64_t seed, int64_t x, int64_t y) {
  uint64_t h = seed;
  h ^= static_cast<uint64_t>(x) * 0x9e3779b97f4a7c15ull;
  h ^= static_cast<uint64_t>(y) * 0xc2b2ae3d27d4eb4full;
  h ^= h >> 29;
  h *= 0xbf58476d1ce4e5b9ull;
  h ^= h >> 32;
  return static_cast<double>(h >> 11) / 9007199254740992.0;
}

double SmoothStep(double t) { return t * t * (3 - 2 * t); }

/// One octave of value noise at frequency `freq` cells across the image.
double ValueNoise(uint64_t seed, double u, double v, double freq) {
  double x = u * freq;
  double y = v * freq;
  int64_t x0 = static_cast<int64_t>(std::floor(x));
  int64_t y0 = static_cast<int64_t>(std::floor(y));
  double fx = SmoothStep(x - static_cast<double>(x0));
  double fy = SmoothStep(y - static_cast<double>(y0));
  double v00 = LatticeValue(seed, x0, y0);
  double v10 = LatticeValue(seed, x0 + 1, y0);
  double v01 = LatticeValue(seed, x0, y0 + 1);
  double v11 = LatticeValue(seed, x0 + 1, y0 + 1);
  return (v00 * (1 - fx) + v10 * fx) * (1 - fy) +
         (v01 * (1 - fx) + v11 * fx) * fy;
}

/// Fractal (octaved) value noise in [0,1].
double Fractal(uint64_t seed, double u, double v, int octaves) {
  double sum = 0;
  double amp = 0.5;
  double freq = 4.0;
  double norm = 0;
  for (int o = 0; o < octaves; ++o) {
    sum += amp * ValueNoise(seed + static_cast<uint64_t>(o) * 1013u, u, v,
                            freq);
    norm += amp;
    amp *= 0.5;
    freq *= 2.0;
  }
  return sum / norm;
}

}  // namespace

Result<Scene> GenerateScene(const SceneSpec& spec) {
  if (spec.width <= 0 || spec.height <= 0) {
    return Status::InvalidArgument("non-positive scene size");
  }
  Scene scene;
  scene.spec = spec;
  scene.transform.origin_x = spec.lon_min;
  scene.transform.origin_y = spec.lat_max;
  scene.transform.pixel_w = (spec.lon_max - spec.lon_min) / spec.width;
  scene.transform.pixel_h = -(spec.lat_max - spec.lat_min) / spec.height;

  size_t n = scene.PixelCount();
  scene.vis006.resize(n);
  scene.nir016.resize(n);
  scene.tir039.resize(n);
  scene.tir108.resize(n);
  scene.landmask.resize(n);
  scene.cloudmask.resize(n);

  Rng rng(spec.seed);
  uint64_t terrain_seed = rng.Next();
  uint64_t veg_seed = rng.Next();
  uint64_t cloud_seed = rng.Next();
  uint64_t temp_seed = rng.Next();

  // Elevation field with a westward land bias (Peloponnese-like: land
  // mass with ragged coastline, sea to the east/south).
  std::vector<double> elevation(n);
  for (int r = 0; r < spec.height; ++r) {
    for (int c = 0; c < spec.width; ++c) {
      double u = static_cast<double>(c) / spec.width;
      double v = static_cast<double>(r) / spec.height;
      double noise = Fractal(terrain_seed, u, v, 5);
      double cx = u - 0.42;
      double cy = v - 0.45;
      double radial = 1.0 - 1.4 * std::sqrt(cx * cx + cy * cy);
      elevation[static_cast<size_t>(r) * spec.width + c] =
          0.55 * noise + 0.45 * std::max(0.0, radial);
    }
  }
  for (size_t i = 0; i < n; ++i) {
    scene.landmask[i] = elevation[i] > spec.sea_level ? 1 : 0;
  }

  // Clouds: threshold a smoother noise field at the requested coverage.
  {
    std::vector<double> cloud_field(n);
    for (int r = 0; r < spec.height; ++r) {
      for (int c = 0; c < spec.width; ++c) {
        double u = static_cast<double>(c) / spec.width;
        double v = static_cast<double>(r) / spec.height;
        cloud_field[static_cast<size_t>(r) * spec.width + c] =
            Fractal(cloud_seed, u, v, 3);
      }
    }
    std::vector<double> sorted = cloud_field;
    std::sort(sorted.begin(), sorted.end());
    double cover = std::clamp(spec.cloud_cover, 0.0, 0.95);
    double threshold =
        sorted[static_cast<size_t>((1.0 - cover) * (n - 1))];
    for (size_t i = 0; i < n; ++i) {
      scene.cloudmask[i] = cloud_field[i] > threshold ? 1 : 0;
    }
  }

  // Radiometry.
  for (int r = 0; r < spec.height; ++r) {
    for (int c = 0; c < spec.width; ++c) {
      size_t i = static_cast<size_t>(r) * spec.width + c;
      double u = static_cast<double>(c) / spec.width;
      double v = static_cast<double>(r) / spec.height;
      bool land = scene.landmask[i] != 0;
      double tnoise = Fractal(temp_seed, u, v, 4) - 0.5;
      double veg = Fractal(veg_seed, u, v, 4);
      if (land) {
        // Summer daytime land: warm, variable.
        scene.tir108[i] = 302.0 + 8.0 * tnoise - 12.0 * elevation[i];
        scene.vis006[i] = 0.12 + 0.18 * veg;
        scene.nir016[i] = 0.20 + 0.35 * veg;
      } else {
        scene.tir108[i] = 293.0 + 2.0 * tnoise;
        scene.vis006[i] = 0.04 + 0.02 * veg;
        scene.nir016[i] = 0.02 + 0.01 * veg;
      }
      // 3.9um tracks 10.8um closely in the absence of fire (small solar
      // component on land).
      scene.tir039[i] = scene.tir108[i] + (land ? 2.5 : 0.5) + 1.0 * tnoise;
      if (scene.cloudmask[i]) {
        scene.vis006[i] = 0.65 + 0.2 * veg;
        scene.nir016[i] = 0.55 + 0.2 * veg;
        scene.tir108[i] = 262.0 + 6.0 * tnoise;
        scene.tir039[i] = 264.0 + 6.0 * tnoise;
      }
    }
  }

  // Fires: on cloud-free land, away from the border. The gaussian plume
  // on the 3.9um band (weak echo at 10.8um) reproduces the SEVIRI fire
  // signature, and plume tails crossing the coastline produce the false
  // positives the refinement step removes.
  int placed = 0;
  int attempts = 0;
  while (placed < spec.num_fires && attempts < 10000) {
    ++attempts;
    int c = 4 + static_cast<int>(rng.Uniform() * (spec.width - 8));
    int r = 4 + static_cast<int>(rng.Uniform() * (spec.height - 8));
    size_t i = static_cast<size_t>(r) * spec.width + c;
    if (!scene.landmask[i] || scene.cloudmask[i]) continue;
    FireEvent fire;
    fire.center_col = c + rng.Uniform();
    fire.center_row = r + rng.Uniform();
    fire.radius = 1.5 + rng.Uniform() * 2.5;
    fire.intensity = 40.0 + rng.Uniform() * 40.0;
    scene.fires.push_back(fire);
    ++placed;
  }
  // Sun glint: hot-looking 3.9um spots over cloud-free sea. These fool
  // the absolute-threshold classifier (they exceed typical fire
  // thresholds) but not the contextual one (landmask rejection), and the
  // hotspots they produce are the ones semantic refinement removes.
  {
    int glints = 0;
    int glint_attempts = 0;
    while (glints < spec.num_glints && glint_attempts < 10000) {
      ++glint_attempts;
      int c = 4 + static_cast<int>(rng.Uniform() * (spec.width - 8));
      int r = 4 + static_cast<int>(rng.Uniform() * (spec.height - 8));
      size_t i = static_cast<size_t>(r) * spec.width + c;
      if (scene.landmask[i] || scene.cloudmask[i]) continue;
      double radius = 1.2 + rng.Uniform() * 1.8;
      double intensity = 30.0 + rng.Uniform() * 25.0;
      int r0 = std::max(0, r - static_cast<int>(4 * radius));
      int r1 = std::min(spec.height - 1, r + static_cast<int>(4 * radius));
      int c0 = std::max(0, c - static_cast<int>(4 * radius));
      int c1 = std::min(spec.width - 1, c + static_cast<int>(4 * radius));
      for (int rr = r0; rr <= r1; ++rr) {
        for (int cc = c0; cc <= c1; ++cc) {
          double dx = cc - c;
          double dy = rr - r;
          double g = std::exp(-(dx * dx + dy * dy) / (2.0 * radius * radius));
          size_t j = static_cast<size_t>(rr) * spec.width + cc;
          scene.tir039[j] += intensity * g;  // no 10.8um echo
          scene.vis006[j] += 0.2 * g;
        }
      }
      ++glints;
    }
  }

  for (const FireEvent& fire : scene.fires) {
    int r0 = std::max(0, static_cast<int>(fire.center_row - 4 * fire.radius));
    int r1 = std::min(spec.height - 1,
                      static_cast<int>(fire.center_row + 4 * fire.radius));
    int c0 = std::max(0, static_cast<int>(fire.center_col - 4 * fire.radius));
    int c1 = std::min(spec.width - 1,
                      static_cast<int>(fire.center_col + 4 * fire.radius));
    for (int r = r0; r <= r1; ++r) {
      for (int c = c0; c <= c1; ++c) {
        double dx = (c + 0.5) - fire.center_col;
        double dy = (r + 0.5) - fire.center_row;
        double g = std::exp(-(dx * dx + dy * dy) /
                            (2.0 * fire.radius * fire.radius));
        size_t i = static_cast<size_t>(r) * spec.width + c;
        scene.tir039[i] += fire.intensity * g;
        scene.tir108[i] += 0.18 * fire.intensity * g;
      }
    }
  }
  return scene;
}

Result<Scene> SceneFromRaster(const vault::TerRaster& raster) {
  if (raster.bands.size() != raster.band_names.size()) {
    return Status::InvalidArgument("band name/payload arity mismatch");
  }
  for (const std::vector<double>& b : raster.bands) {
    if (b.size() != raster.PixelCount()) {
      return Status::InvalidArgument("band payload size mismatch");
    }
  }
  Scene scene;
  scene.spec.width = raster.width;
  scene.spec.height = raster.height;
  scene.spec.acquisition_time = raster.acquisition_time;
  scene.spec.name = raster.name;
  scene.transform = raster.transform;
  geo::Point tl = raster.transform.PixelToWorld(0, 0);
  geo::Point br = raster.transform.PixelToWorld(raster.width, raster.height);
  scene.spec.lon_min = std::min(tl.x, br.x);
  scene.spec.lon_max = std::max(tl.x, br.x);
  scene.spec.lat_min = std::min(tl.y, br.y);
  scene.spec.lat_max = std::max(tl.y, br.y);

  auto band = [&](const char* name) -> const std::vector<double>* {
    int i = raster.BandIndex(name);
    return i < 0 ? nullptr : &raster.bands[static_cast<size_t>(i)];
  };
  auto copy = [&](const char* name, std::vector<double>* plane) -> Status {
    const std::vector<double>* pixels = band(name);
    if (pixels == nullptr) {
      return Status::NotFound(std::string("raster lacks band ") + name);
    }
    *plane = *pixels;
    return Status::OK();
  };
  TELEIOS_RETURN_IF_ERROR(copy("VIS006", &scene.vis006));
  TELEIOS_RETURN_IF_ERROR(copy("NIR016", &scene.nir016));
  TELEIOS_RETURN_IF_ERROR(copy("IR039", &scene.tir039));
  TELEIOS_RETURN_IF_ERROR(copy("IR108", &scene.tir108));
  auto mask = [&](const char* name, uint8_t absent,
                  std::vector<uint8_t>* plane) {
    const std::vector<double>* pixels = band(name);
    plane->assign(scene.PixelCount(), absent);
    if (pixels == nullptr) return;
    const double* src = pixels->data();
    uint8_t* dst = plane->data();
    for (size_t i = 0; i < plane->size(); ++i) dst[i] = src[i] > 0.5 ? 1 : 0;
  };
  mask("LANDMASK", 1, &scene.landmask);
  mask("CLOUDMASK", 0, &scene.cloudmask);
  return scene;
}

vault::TerRaster Scene::ToTerRaster() const {
  vault::TerRaster raster;
  raster.name = spec.name;
  raster.satellite = "Meteosat-9";
  raster.sensor = "SEVIRI";
  raster.width = spec.width;
  raster.height = spec.height;
  raster.acquisition_time = spec.acquisition_time;
  raster.transform = transform;
  raster.band_names = {"VIS006", "NIR016", "IR039", "IR108", "LANDMASK",
                       "CLOUDMASK"};
  raster.bands.resize(6);
  raster.bands[0] = vis006;
  raster.bands[1] = nir016;
  raster.bands[2] = tir039;
  raster.bands[3] = tir108;
  raster.bands[4].assign(landmask.begin(), landmask.end());
  raster.bands[5].assign(cloudmask.begin(), cloudmask.end());
  return raster;
}

geo::Geometry Scene::GroundTruthFires() const {
  std::vector<geo::Polygon> polys;
  for (const FireEvent& fire : fires) {
    geo::Ring ring;
    for (int k = 0; k < 16; ++k) {
      double t = 2.0 * M_PI * k / 16.0;
      double col = fire.center_col + fire.radius * std::cos(t);
      double row = fire.center_row + fire.radius * std::sin(t);
      ring.push_back(transform.PixelToWorld(col, row));
    }
    polys.push_back({std::move(ring), {}});
  }
  return geo::Geometry::MakeMultiPolygon(std::move(polys));
}

geo::Geometry LandPolygons(const Scene& scene, int step) {
  int w = (scene.spec.width + step - 1) / step;
  int h = (scene.spec.height + step - 1) / step;
  std::vector<uint8_t> coarse(static_cast<size_t>(w) * h, 0);
  for (int r = 0; r < h; ++r) {
    for (int c = 0; c < w; ++c) {
      int land = 0;
      int total = 0;
      for (int rr = r * step; rr < std::min((r + 1) * step, scene.spec.height);
           ++rr) {
        for (int cc = c * step;
             cc < std::min((c + 1) * step, scene.spec.width); ++cc) {
          land += scene.landmask[static_cast<size_t>(rr) * scene.spec.width +
                                 cc];
          ++total;
        }
      }
      coarse[static_cast<size_t>(r) * w + c] =
          (total > 0 && land * 2 >= total) ? 1 : 0;
    }
  }
  std::vector<geo::Polygon> pixel_polys = geo::PolygonizeMask(coarse, w, h);
  // Scale back to full-resolution pixels, then to world coordinates.
  std::vector<geo::Polygon> world;
  for (geo::Polygon& poly : pixel_polys) {
    geo::Polygon out;
    auto map_ring = [&](const geo::Ring& ring) {
      geo::Ring r;
      for (const geo::Point& p : ring) {
        r.push_back(scene.transform.PixelToWorld(p.x * step, p.y * step));
      }
      return r;
    };
    out.outer = map_ring(poly.outer);
    for (const geo::Ring& hole : poly.holes) {
      out.holes.push_back(map_ring(hole));
    }
    world.push_back(std::move(out));
  }
  return geo::Geometry::MakeMultiPolygon(std::move(world));
}

}  // namespace teleios::eo
