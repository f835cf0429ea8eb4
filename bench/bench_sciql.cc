// E7 — SciQL claim ([9], Zhang et al.): image processing expressed in the
// declarative array language vs. a hand-written "file-at-a-time" baseline
// loop over raw pixels. The paper's claim is qualitative (same operations,
// declarative, optimizable in the DBMS); the shape to reproduce is that
// in-engine SciQL stays within a small constant factor of the raw loop
// while slab (crop) evaluation scales with the slab, not the image.

#include <benchmark/benchmark.h>

#include "array/array_ops.h"
#include "eo/scene.h"
#include "sciql/sciql_engine.h"

namespace {

using teleios::array::ArrayPtr;
using teleios::eo::GenerateScene;
using teleios::eo::Scene;
using teleios::eo::SceneSpec;

Scene BenchScene(int size) {
  SceneSpec spec;
  spec.width = size;
  spec.height = size;
  spec.seed = 42;
  auto scene = GenerateScene(spec);
  return *scene;
}

/// Baseline: classification as a raw C++ loop over the band buffer (what
/// a file-based processing chain would do after decoding).
void BM_ClassifyRawLoop(benchmark::State& state) {
  Scene scene = BenchScene(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    int64_t hits = 0;
    for (size_t i = 0; i < scene.PixelCount(); ++i) {
      if (scene.tir039[i] - scene.tir108[i] > 10.0 &&
          scene.tir039[i] > 308.0 && !scene.cloudmask[i] &&
          scene.landmask[i]) {
        ++hits;
      }
    }
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(scene.PixelCount()));
}
BENCHMARK(BM_ClassifyRawLoop)->Arg(128)->Arg(256);

/// The same classification as a SciQL SELECT through the engine.
void BM_ClassifySciQl(benchmark::State& state) {
  Scene scene = BenchScene(static_cast<int>(state.range(0)));
  teleios::sciql::SciQlEngine engine;
  auto raster = scene.ToTerRaster();
  std::vector<teleios::storage::Field> attrs;
  for (auto& b : raster.band_names) {
    attrs.push_back({b, teleios::storage::ColumnType::kFloat64});
  }
  auto arr = *teleios::array::Array::Create(
      "img", {{"y", 0, scene.spec.height}, {"x", 0, scene.spec.width}},
      attrs);
  for (size_t b = 0; b < raster.bands.size(); ++b) {
    double* dst = *arr->MutableDoubles(b);
    std::copy(raster.bands[b].begin(), raster.bands[b].end(), dst);
  }
  (void)engine.RegisterArray(arr);
  for (auto _ : state) {
    auto r = engine.Execute(
        "SELECT count(*) AS n FROM img WHERE IR039 - IR108 > 10 and "
        "IR039 > 308 and CLOUDMASK < 0.5 and LANDMASK > 0.5");
    benchmark::DoNotOptimize(r->num_rows());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(scene.PixelCount()));
}
BENCHMARK(BM_ClassifySciQl)->Arg(128)->Arg(256);

/// Slab (crop) evaluation cost scales with the slab size, not the array.
void BM_SciQlSlabSelect(benchmark::State& state) {
  Scene scene = BenchScene(256);
  teleios::sciql::SciQlEngine engine;
  auto raster = scene.ToTerRaster();
  std::vector<teleios::storage::Field> attrs;
  for (auto& b : raster.band_names) {
    attrs.push_back({b, teleios::storage::ColumnType::kFloat64});
  }
  auto arr = *teleios::array::Array::Create("img", {{"y", 0, 256},
                                                    {"x", 0, 256}},
                                            attrs);
  for (size_t b = 0; b < raster.bands.size(); ++b) {
    double* dst = *arr->MutableDoubles(b);
    std::copy(raster.bands[b].begin(), raster.bands[b].end(), dst);
  }
  (void)engine.RegisterArray(arr);
  int64_t slab = state.range(0);
  std::string stmt = "SELECT count(*) AS n FROM img[0:" +
                     std::to_string(slab) + ", 0:" + std::to_string(slab) +
                     "] WHERE IR039 > 310";
  for (auto _ : state) {
    auto r = engine.Execute(stmt);
    benchmark::DoNotOptimize(r->num_rows());
  }
  state.SetItemsProcessed(state.iterations() * slab * slab);
}
BENCHMARK(BM_SciQlSlabSelect)->Arg(32)->Arg(64)->Arg(128)->Arg(256);

/// A cell-wise UPDATE whose WHERE keeps 9% of the cells; SET v = v writes
/// every kept cell back unchanged, so each iteration does the same work.
void BM_SciQlUpdateWhere(benchmark::State& state) {
  const int64_t size = state.range(0);
  teleios::sciql::SciQlEngine engine;
  auto arr = *teleios::array::Array::Create(
      "img", {{"y", 0, size}, {"x", 0, size}},
      {{"v", teleios::storage::ColumnType::kFloat64}});
  double* v = *arr->MutableDoubles(0);
  for (size_t i = 0; i < arr->num_cells(); ++i) {
    v[i] = static_cast<double>((i * 37) % 100);
  }
  (void)engine.RegisterArray(arr);
  for (auto _ : state) {
    auto r = engine.Execute("UPDATE img SET v = v WHERE v > 90");
    benchmark::DoNotOptimize(r->num_rows());
  }
  state.SetItemsProcessed(state.iterations() * size * size);
}
BENCHMARK(BM_SciQlUpdateWhere)->Arg(256);

/// Array kernel primitives the NOA chain uses.
void BM_TileAggregate(benchmark::State& state) {
  Scene scene = BenchScene(256);
  auto arr = *teleios::array::Array::Create(
      "band", {{"y", 0, 256}, {"x", 0, 256}},
      {{"v", teleios::storage::ColumnType::kFloat64}});
  double* dst = *arr->MutableDoubles(0);
  std::copy(scene.tir039.begin(), scene.tir039.end(), dst);
  for (auto _ : state) {
    auto tiles =
        teleios::array::TileAggregate2D(*arr, 0, state.range(0),
                                        state.range(0), "max");
    benchmark::DoNotOptimize((*tiles)->num_cells());
  }
}
BENCHMARK(BM_TileAggregate)->Arg(8)->Arg(32);

void BM_Convolve3x3(benchmark::State& state) {
  auto arr = *teleios::array::Array::Create(
      "band", {{"y", 0, state.range(0)}, {"x", 0, state.range(0)}},
      {{"v", teleios::storage::ColumnType::kFloat64}});
  std::vector<double> box(9, 1.0 / 9.0);
  for (auto _ : state) {
    auto out = teleios::array::Convolve2D(*arr, 0, box, 3);
    benchmark::DoNotOptimize((*out)->num_cells());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) *
                          state.range(0));
}
BENCHMARK(BM_Convolve3x3)->Arg(128)->Arg(256);

void BM_Resample2D(benchmark::State& state) {
  Scene scene = BenchScene(256);
  auto arr = *teleios::array::Array::Create(
      "band", {{"y", 0, 256}, {"x", 0, 256}},
      {{"v", teleios::storage::ColumnType::kFloat64}});
  double* dst = *arr->MutableDoubles(0);
  std::copy(scene.tir108.begin(), scene.tir108.end(), dst);
  bool bilinear = state.range(0) == 1;
  for (auto _ : state) {
    auto out = teleios::array::Resample2D(
        *arr, 512, 512,
        bilinear ? teleios::array::ResampleKernel::kBilinear
                 : teleios::array::ResampleKernel::kNearest);
    benchmark::DoNotOptimize((*out)->num_cells());
  }
}
BENCHMARK(BM_Resample2D)->Arg(0)->Arg(1);

}  // namespace
