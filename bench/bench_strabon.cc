// E9 — Strabon claim ([5, 7]): semantic geospatial queries at scale over
// the column-store backend. Shapes to reproduce: dictionary-encoded bulk
// load scales linearly; BGP matching uses the permutation indexes; the
// R-tree turns spatial selections from O(n) scans into output-sensitive
// lookups, with the gap widening as the store grows.

#include <benchmark/benchmark.h>

#include <sstream>

#include "common/strings.h"
#include "strabon/strabon.h"

namespace {

using teleios::StrFormat;
using teleios::strabon::Strabon;

/// Synthetic geospatial RDF: `n` features in a 100x100 world, each with a
/// type, a name and a small polygon geometry.
std::string FeatureTurtle(int n, uint64_t seed) {
  std::ostringstream os;
  os << "@prefix ex: <http://example.org/> .\n"
     << "@prefix strdf: <http://strdf.di.uoa.gr/ontology#> .\n";
  uint64_t state = seed ? seed : 1;
  auto uniform = [&]() {
    state ^= state >> 12;
    state ^= state << 25;
    state ^= state >> 27;
    return static_cast<double>((state * 0x2545f4914f6cdd1dull) >> 11) /
           9007199254740992.0;
  };
  for (int i = 0; i < n; ++i) {
    double x = uniform() * 100;
    double y = uniform() * 100;
    os << "ex:f" << i << " a ex:Feature ; ex:name \"feature" << i
       << "\" ; ex:geo " << '"'
       << StrFormat("POLYGON ((%.4f %.4f, %.4f %.4f, %.4f %.4f, %.4f %.4f, "
                    "%.4f %.4f))",
                    x, y, x + 0.5, y, x + 0.5, y + 0.5, x, y + 0.5, x, y)
       << "\"^^strdf:WKT .\n";
  }
  return os.str();
}

void BM_BulkLoadTurtle(benchmark::State& state) {
  std::string turtle = FeatureTurtle(static_cast<int>(state.range(0)), 7);
  for (auto _ : state) {
    Strabon strabon;
    auto n = strabon.LoadTurtle(turtle);
    benchmark::DoNotOptimize(*n);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * 3);
}
BENCHMARK(BM_BulkLoadTurtle)->Arg(1000)->Arg(10000);

void BM_BgpJoin(benchmark::State& state) {
  Strabon strabon;
  (void)strabon.LoadTurtle(FeatureTurtle(static_cast<int>(state.range(0)), 7));
  for (auto _ : state) {
    auto r = strabon.Select(
        "PREFIX ex: <http://example.org/> "
        "SELECT ?f ?n WHERE { ?f a ex:Feature ; ex:name ?n . }");
    benchmark::DoNotOptimize(r->num_rows());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BgpJoin)->Arg(1000)->Arg(10000);

/// Selective BGP: bound object, should use the OSP index.
void BM_BgpBoundObject(benchmark::State& state) {
  Strabon strabon;
  (void)strabon.LoadTurtle(FeatureTurtle(static_cast<int>(state.range(0)), 7));
  for (auto _ : state) {
    auto r = strabon.Select(
        "PREFIX ex: <http://example.org/> "
        "SELECT ?f WHERE { ?f ex:name \"feature17\" . }");
    benchmark::DoNotOptimize(r->num_rows());
  }
}
BENCHMARK(BM_BgpBoundObject)->Arg(1000)->Arg(10000);

/// The headline comparison: spatial selection (small query window) with
/// the R-tree on vs off. Expect the indexed run to win and the gap to
/// grow with store size.
void SpatialSelection(benchmark::State& state, bool use_index) {
  Strabon strabon;
  (void)strabon.LoadTurtle(FeatureTurtle(static_cast<int>(state.range(0)), 7));
  strabon.set_spatial_index_enabled(use_index);
  const std::string query =
      "PREFIX ex: <http://example.org/> "
      "SELECT ?f WHERE { ?f ex:geo ?g . "
      "FILTER(strdf:intersects(?g, \"POLYGON ((10 10, 14 10, 14 14, 10 14, "
      "10 10))\"^^strdf:WKT)) }";
  // Warm the index / geometry cache outside the timed region.
  (void)strabon.Select(query);
  for (auto _ : state) {
    auto r = strabon.Select(query);
    benchmark::DoNotOptimize(r->num_rows());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_SpatialSelectionScan(benchmark::State& state) {
  SpatialSelection(state, false);
}
void BM_SpatialSelectionRtree(benchmark::State& state) {
  SpatialSelection(state, true);
}
BENCHMARK(BM_SpatialSelectionScan)->Arg(1000)->Arg(5000)->Arg(20000);
BENCHMARK(BM_SpatialSelectionRtree)->Arg(1000)->Arg(5000)->Arg(20000);

/// Distance-based selection ("within d of point"), R-tree assisted.
void BM_DistanceSelection(benchmark::State& state) {
  Strabon strabon;
  (void)strabon.LoadTurtle(FeatureTurtle(10000, 7));
  strabon.set_spatial_index_enabled(state.range(0) == 1);
  const std::string query =
      "PREFIX ex: <http://example.org/> "
      "SELECT ?f WHERE { ?f ex:geo ?g . "
      "FILTER(strdf:distance(?g, \"POINT (50 50)\"^^strdf:WKT) < 3.0) }";
  (void)strabon.Select(query);
  for (auto _ : state) {
    auto r = strabon.Select(query);
    benchmark::DoNotOptimize(r->num_rows());
  }
}
BENCHMARK(BM_DistanceSelection)->Arg(0)->Arg(1);

/// stSPARQL update throughput (the refinement workload's primitive).
void BM_DeleteInsertWhere(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    Strabon strabon;
    (void)strabon.LoadTurtle(FeatureTurtle(2000, 7));
    state.ResumeTiming();
    auto n = strabon.Update(
        "PREFIX ex: <http://example.org/> "
        "DELETE { ?f a ex:Feature } INSERT { ?f a ex:Checked } "
        "WHERE { ?f a ex:Feature ; ex:geo ?g . "
        "FILTER(strdf:intersects(?g, \"POLYGON ((0 0, 50 0, 50 50, 0 50, 0 "
        "0))\"^^strdf:WKT)) }");
    benchmark::DoNotOptimize(*n);
  }
}
BENCHMARK(BM_DeleteInsertWhere)->Unit(benchmark::kMillisecond);

/// A write followed by a spatial read, at growing store sizes: one INSERT
/// DATA of a new feature, then an intersects SELECT. The read merges the
/// insert into the permutations and the R-tree; neither cost should grow
/// with a full re-sort or rebuild of the store.
void BM_InsertThenSpatialQuery(benchmark::State& state) {
  Strabon strabon;
  (void)strabon.LoadTurtle(FeatureTurtle(static_cast<int>(state.range(0)), 7));
  const std::string query =
      "PREFIX ex: <http://example.org/> "
      "SELECT ?f WHERE { ?f ex:geo ?g . "
      "FILTER(strdf:intersects(?g, \"POLYGON ((10 10, 14 10, 14 14, 10 14, "
      "10 10))\"^^strdf:WKT)) }";
  (void)strabon.Select(query);
  int64_t i = 0;
  for (auto _ : state) {
    double x = static_cast<double>(i % 97);
    double y = static_cast<double>(i / 97 % 97);
    auto n = strabon.Update(StrFormat(
        "PREFIX ex: <http://example.org/> "
        "INSERT DATA { ex:new%lld ex:geo \"POLYGON ((%.1f %.1f, %.1f %.1f, "
        "%.1f %.1f, %.1f %.1f, %.1f %.1f))\"^^strdf:WKT }",
        static_cast<long long>(i), x, y, x + 0.5, y, x + 0.5, y + 0.5, x,
        y + 0.5, x, y));
    auto r = strabon.Select(query);
    benchmark::DoNotOptimize(*n);
    benchmark::DoNotOptimize(r->num_rows());
    ++i;
  }
}
BENCHMARK(BM_InsertThenSpatialQuery)->Arg(1000)->Arg(10000)->Arg(100000);

}  // namespace
