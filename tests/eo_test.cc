#include <gtest/gtest.h>

#include "eo/ontology.h"
#include "eo/product.h"
#include "eo/scene.h"
#include "geo/predicates.h"
#include "rdf/turtle.h"
#include "strabon/strabon.h"

namespace teleios::eo {
namespace {

SceneSpec SmallSpec() {
  SceneSpec spec;
  spec.width = 64;
  spec.height = 64;
  spec.seed = 99;
  spec.num_fires = 3;
  return spec;
}

TEST(SceneTest, DeterministicUnderSeed) {
  auto a = GenerateScene(SmallSpec());
  auto b = GenerateScene(SmallSpec());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->tir039, b->tir039);
  EXPECT_EQ(a->landmask, b->landmask);
  SceneSpec other = SmallSpec();
  other.seed = 100;
  auto c = GenerateScene(other);
  ASSERT_TRUE(c.ok());
  EXPECT_NE(a->tir039, c->tir039);
}

TEST(SceneTest, HasLandAndSea) {
  auto scene = GenerateScene(SmallSpec());
  ASSERT_TRUE(scene.ok());
  size_t land = 0;
  for (uint8_t v : scene->landmask) land += v;
  EXPECT_GT(land, scene->PixelCount() / 10);
  EXPECT_LT(land, scene->PixelCount() * 9 / 10);
}

TEST(SceneTest, FiresAreHotOnLand) {
  auto scene = GenerateScene(SmallSpec());
  ASSERT_TRUE(scene.ok());
  ASSERT_EQ(scene->fires.size(), 3u);
  for (const FireEvent& fire : scene->fires) {
    size_t i = static_cast<size_t>(fire.center_row) * scene->spec.width +
               static_cast<size_t>(fire.center_col);
    EXPECT_EQ(scene->landmask[i], 1);
    // Fire pixels show the SEVIRI signature: T3.9 much greater than T10.8.
    EXPECT_GT(scene->tir039[i] - scene->tir108[i], 15.0);
  }
}

TEST(SceneTest, CloudCoverTracksSpec) {
  SceneSpec spec = SmallSpec();
  spec.cloud_cover = 0.25;
  auto scene = GenerateScene(spec);
  ASSERT_TRUE(scene.ok());
  size_t clouds = 0;
  for (uint8_t v : scene->cloudmask) clouds += v;
  double frac = static_cast<double>(clouds) / scene->PixelCount();
  EXPECT_NEAR(frac, 0.25, 0.07);
}

TEST(SceneTest, SeaColderThanLand) {
  auto scene = GenerateScene(SmallSpec());
  ASSERT_TRUE(scene.ok());
  double land_sum = 0, sea_sum = 0;
  size_t land_n = 0, sea_n = 0;
  for (size_t i = 0; i < scene->PixelCount(); ++i) {
    if (scene->cloudmask[i]) continue;
    if (scene->landmask[i]) {
      land_sum += scene->tir108[i];
      ++land_n;
    } else {
      sea_sum += scene->tir108[i];
      ++sea_n;
    }
  }
  ASSERT_GT(land_n, 0u);
  ASSERT_GT(sea_n, 0u);
  EXPECT_GT(land_sum / land_n, sea_sum / sea_n);
}

TEST(SceneTest, GeoreferencingCoversFootprint) {
  auto scene = GenerateScene(SmallSpec());
  ASSERT_TRUE(scene.ok());
  geo::Point tl = scene->transform.PixelToWorld(0, 0);
  geo::Point br = scene->transform.PixelToWorld(scene->spec.width,
                                                scene->spec.height);
  EXPECT_DOUBLE_EQ(tl.x, scene->spec.lon_min);
  EXPECT_DOUBLE_EQ(tl.y, scene->spec.lat_max);
  EXPECT_NEAR(br.x, scene->spec.lon_max, 1e-9);
  EXPECT_NEAR(br.y, scene->spec.lat_min, 1e-9);
}

TEST(SceneTest, RasterRoundTrip) {
  auto scene = GenerateScene(SmallSpec());
  ASSERT_TRUE(scene.ok());
  vault::TerRaster raster = scene->ToTerRaster();
  EXPECT_EQ(raster.band_names.size(), 6u);
  auto back = SceneFromRaster(raster);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->tir039, scene->tir039);
  EXPECT_EQ(back->landmask, scene->landmask);
  EXPECT_EQ(back->spec.acquisition_time, scene->spec.acquisition_time);
}

TEST(SceneTest, SceneFromRasterRequiresBands) {
  vault::TerRaster raster;
  raster.width = 2;
  raster.height = 2;
  raster.band_names = {"VIS006"};
  raster.bands = {{1, 2, 3, 4}};
  EXPECT_FALSE(SceneFromRaster(raster).ok());
}

TEST(SceneTest, GroundTruthFiresNonEmpty) {
  auto scene = GenerateScene(SmallSpec());
  ASSERT_TRUE(scene.ok());
  geo::Geometry truth = scene->GroundTruthFires();
  EXPECT_FALSE(truth.IsEmpty());
  EXPECT_GT(truth.Area(), 0.0);
}

TEST(SceneTest, LandPolygonsMatchMaskRoughly) {
  auto scene = GenerateScene(SmallSpec());
  ASSERT_TRUE(scene.ok());
  geo::Geometry land = LandPolygons(*scene, 4);
  ASSERT_FALSE(land.IsEmpty());
  // Compare polygon area against the landmask fraction of footprint area.
  size_t land_cells = 0;
  for (uint8_t v : scene->landmask) land_cells += v;
  double frac = static_cast<double>(land_cells) / scene->PixelCount();
  double footprint = (scene->spec.lon_max - scene->spec.lon_min) *
                     (scene->spec.lat_max - scene->spec.lat_min);
  EXPECT_NEAR(land.Area() / footprint, frac, 0.15);
}

TEST(ProductTest, MetadataFromHeader) {
  vault::TerHeader header;
  header.name = "MSG2-x";
  header.satellite = "Meteosat-9";
  header.sensor = "SEVIRI";
  header.width = 10;
  header.height = 10;
  header.acquisition_time = 1187997600;
  header.transform = {21, 38.5, 0.01, -0.01, 0, 0};
  header.path = "/tmp/x.ter";
  ProductMetadata meta = MetadataFromHeader(header, ProductLevel::kL1);
  EXPECT_EQ(meta.id, "MSG2-x");
  EXPECT_EQ(meta.level, ProductLevel::kL1);
  EXPECT_NE(meta.footprint_wkt.find("POLYGON"), std::string::npos);
}

TEST(ProductTest, RegisterRowAndTriples) {
  ProductMetadata meta;
  meta.id = "p1";
  meta.satellite = "Meteosat-9";
  meta.sensor = "SEVIRI";
  meta.level = ProductLevel::kL2;
  meta.acquisition_time = 1187997600;
  meta.footprint_wkt = "POLYGON ((21 36, 23 36, 23 38, 21 38, 21 36))";
  meta.derived_from = "p0";

  storage::Catalog catalog;
  ASSERT_TRUE(RegisterProductRow(meta, &catalog).ok());
  ASSERT_TRUE(RegisterProductRow(meta, &catalog).ok());  // appends again
  auto table = catalog.GetTable("products");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ((*table)->num_rows(), 2u);

  strabon::Strabon strabon;
  ASSERT_TRUE(RegisterProductTriples(meta, &strabon).ok());
  auto found = strabon.Select(
      "SELECT ?p WHERE { ?p a noa:Product ; noa:hasProcessingLevel \"L2\" ; "
      "noa:wasDerivedFrom ?parent . }");
  ASSERT_TRUE(found.ok()) << found.status().ToString();
  EXPECT_EQ(found->num_rows(), 1u);
}

TEST(OntologyTest, ParsesAndHasClasses) {
  rdf::TripleStore store;
  auto added = rdf::ParseTurtle(OntologyTurtle(), &store);
  ASSERT_TRUE(added.ok()) << added.status().ToString();
  EXPECT_GT(*added, 30u);
}

TEST(OntologyTest, RdfsClosureInfersTypes) {
  rdf::TripleStore store;
  ASSERT_TRUE(rdf::ParseTurtle(OntologyTurtle(), &store).ok());
  // Add an instance typed as the most specific class.
  std::string ns(kNoaNs);
  store.Add(rdf::Term::Iri(ns + "h1"), rdf::Term::Iri(rdf::kRdfType),
            rdf::Term::Iri(ns + "Hotspot"));
  size_t inferred = MaterializeRdfsClosure(&store);
  EXPECT_GT(inferred, 0u);
  // Hotspot subClassOf Fire subClassOf Event: h1 must now be an Event.
  auto events = store.Match(rdf::Term::Iri(ns + "h1"),
                            rdf::Term::Iri(rdf::kRdfType),
                            rdf::Term::Iri(ns + "Event"));
  EXPECT_EQ(events.size(), 1u);
}

TEST(OntologyTest, SubPropertyInheritance) {
  rdf::TripleStore store;
  ASSERT_TRUE(rdf::ParseTurtle(OntologyTurtle(), &store).ok());
  std::string ns(kNoaNs);
  // refinedGeometry subPropertyOf hasGeometry.
  store.Add(rdf::Term::Iri(ns + "h1"), rdf::Term::Iri(ns + "refinedGeometry"),
            rdf::Term::WktLiteral("POINT (1 1)"));
  MaterializeRdfsClosure(&store);
  auto generic = store.Match(rdf::Term::Iri(ns + "h1"),
                             rdf::Term::Iri(ns + "hasGeometry"),
                             std::nullopt);
  EXPECT_EQ(generic.size(), 1u);
}

TEST(OntologyTest, SuperClassesQuery) {
  rdf::TripleStore store;
  ASSERT_TRUE(rdf::ParseTurtle(OntologyTurtle(), &store).ok());
  std::string ns(kNoaNs);
  auto supers = SuperClassesOf(store, ns + "Sea");
  // Sea -> WaterBody -> Region.
  EXPECT_EQ(supers.size(), 2u);
  EXPECT_TRUE(SuperClassesOf(store, ns + "NoSuchClass").empty());
}

/// Sweep: scenes of several sizes keep basic radiometric invariants.
class SceneSweep : public ::testing::TestWithParam<int> {};

TEST_P(SceneSweep, RadiometryInRange) {
  SceneSpec spec = SmallSpec();
  spec.width = spec.height = GetParam();
  auto scene = GenerateScene(spec);
  ASSERT_TRUE(scene.ok());
  for (size_t i = 0; i < scene->PixelCount(); ++i) {
    EXPECT_GE(scene->vis006[i], 0.0);
    EXPECT_LE(scene->vis006[i], 1.2);
    EXPECT_GT(scene->tir108[i], 200.0);
    EXPECT_LT(scene->tir108[i], 400.0);
    EXPECT_GT(scene->tir039[i], 200.0);
    EXPECT_LT(scene->tir039[i], 450.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, SceneSweep, ::testing::Values(16, 48, 96));

}  // namespace
}  // namespace teleios::eo
