#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <set>

#include "core/observatory.h"
#include "eo/product.h"
#include "eo/scene.h"
#include "linkeddata/generators.h"
#include "geo/predicates.h"
#include "geo/wkt.h"
#include "io/fault_injection.h"
#include "io/filesystem.h"
#include "noa/burned_area.h"
#include "noa/chain.h"
#include "noa/classification.h"
#include "noa/hotspot.h"
#include "noa/mapping.h"
#include "noa/refinement.h"
#include "obs/metrics.h"
#include "storage/catalog.h"
#include "vault/formats.h"

namespace teleios::noa {
namespace {

namespace fs = std::filesystem;

eo::Scene TestScene(uint64_t seed = 42, int size = 96) {
  eo::SceneSpec spec;
  spec.width = size;
  spec.height = size;
  spec.seed = seed;
  spec.num_fires = 4;
  auto scene = eo::GenerateScene(spec);
  EXPECT_TRUE(scene.ok());
  return *scene;
}

TEST(ClassificationTest, ThresholdFindsSeededFires) {
  eo::Scene scene = TestScene();
  ClassifierConfig config;
  config.kind = ClassifierKind::kThreshold;
  auto mask = ClassifyFirePixels(scene, config);
  ASSERT_TRUE(mask.ok());
  PixelScore score = ScoreMask(scene, *mask);
  EXPECT_GT(score.true_positive, 0);
  EXPECT_GT(score.Recall(), 0.3);
}

TEST(ClassificationTest, ContextualBeatsThresholdOnPrecision) {
  eo::Scene scene = TestScene();
  ClassifierConfig threshold;
  threshold.kind = ClassifierKind::kThreshold;
  threshold.threshold_kelvin = 312.0;  // aggressive: many false alarms
  ClassifierConfig contextual;
  contextual.kind = ClassifierKind::kContextual;
  auto mask_t = ClassifyFirePixels(scene, threshold);
  auto mask_c = ClassifyFirePixels(scene, contextual);
  ASSERT_TRUE(mask_t.ok());
  ASSERT_TRUE(mask_c.ok());
  PixelScore st = ScoreMask(scene, *mask_t);
  PixelScore sc = ScoreMask(scene, *mask_c);
  EXPECT_GE(sc.Precision(), st.Precision());
  EXPECT_GT(sc.F1(), 0.3);
}

TEST(ComponentsTest, LabelsConnectedRegions) {
  // Two components: an L and a separate dot.
  std::vector<uint8_t> mask = {
      1, 1, 0, 0,
      1, 0, 0, 1,
      0, 0, 0, 0,
  };
  std::vector<int32_t> labels;
  size_t count = LabelComponents(mask, 4, 3, &labels);
  EXPECT_EQ(count, 2u);
  EXPECT_EQ(labels[0], labels[1]);
  EXPECT_EQ(labels[0], labels[4]);
  EXPECT_NE(labels[0], labels[7]);
  EXPECT_EQ(labels[2], 0);
}

TEST(HotspotTest, ExtractGeoreferencesPolygons) {
  eo::Scene scene = TestScene();
  ClassifierConfig config;
  config.kind = ClassifierKind::kContextual;
  auto mask = ClassifyFirePixels(scene, config);
  ASSERT_TRUE(mask.ok());
  auto hotspots = ExtractHotspots(scene, *mask, 1);
  ASSERT_TRUE(hotspots.ok());
  ASSERT_GT(hotspots->size(), 0u);
  geo::Envelope footprint{scene.spec.lon_min, scene.spec.lat_min,
                          scene.spec.lon_max, scene.spec.lat_max};
  for (const Hotspot& h : *hotspots) {
    EXPECT_FALSE(h.geometry.IsEmpty());
    EXPECT_GT(h.pixel_count, 0);
    EXPECT_GT(h.max_t39, 300.0);
    EXPECT_GT(h.confidence, 0.0);
    EXPECT_TRUE(footprint.Contains(h.geometry.GetEnvelope().Center()));
  }
}

TEST(HotspotTest, MinPixelsFilters) {
  eo::Scene scene = TestScene();
  ClassifierConfig config;
  config.kind = ClassifierKind::kContextual;
  auto mask = ClassifyFirePixels(scene, config);
  ASSERT_TRUE(mask.ok());
  auto all = ExtractHotspots(scene, *mask, 1);
  auto big = ExtractHotspots(scene, *mask, 5);
  ASSERT_TRUE(all.ok());
  ASSERT_TRUE(big.ok());
  EXPECT_LE(big->size(), all->size());
}

TEST(HotspotTest, VecRoundTrip) {
  eo::Scene scene = TestScene();
  ClassifierConfig config;
  config.kind = ClassifierKind::kContextual;
  auto mask = ClassifyFirePixels(scene, config);
  auto hotspots = ExtractHotspots(scene, *mask, 1);
  ASSERT_TRUE(hotspots.ok());
  vault::VecFile vec = HotspotsToVec(*hotspots, "test-product");
  auto back = HotspotsFromVec(vec);
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->size(), hotspots->size());
  for (size_t i = 0; i < back->size(); ++i) {
    EXPECT_EQ((*back)[i].pixel_count, (*hotspots)[i].pixel_count);
    EXPECT_NEAR((*back)[i].confidence, (*hotspots)[i].confidence, 1e-3);
  }
}

/// The chain behind the facade: RunFireChain publishes each product
/// through the observatory's write path into `catalog_` and `strabon_`.
class ChainTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("noa_test_" + std::to_string(::getpid()));
    fs::create_directories(dir_);
    scene_ = TestScene();
    ASSERT_TRUE(vault::WriteTer(scene_.ToTerRaster(),
                                (dir_ / "scene.ter").string())
                    .ok());
    ASSERT_TRUE(veo_.AttachArchive(dir_.string()).ok());
    ASSERT_TRUE(veo_.ontology_status().ok());
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
  eo::Scene scene_;
  core::VirtualEarthObservatory veo_;
  storage::Catalog& catalog_ = veo_.catalog();
  strabon::Strabon& strabon_ = veo_.strabon();
};

TEST_F(ChainTest, EndToEndRun) {
  ChainConfig config;
  config.classifier.kind = ClassifierKind::kContextual;
  config.output_dir = dir_.string();
  auto result = veo_.RunFireChain("MSG2-SEVIRI-scene", config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->hotspots.size(), 0u);
  EXPECT_EQ(result->timings.size(), 4u);
  EXPECT_FALSE(result->vec_path.empty());
  EXPECT_TRUE(fs::exists(result->vec_path));
  // The L2 product is in the relational catalog...
  auto products = catalog_.GetTable("products");
  ASSERT_TRUE(products.ok());
  EXPECT_EQ((*products)->num_rows(), 1u);
  // ...and its hotspots are queryable in Strabon.
  auto found = strabon_.Select(
      "SELECT ?h WHERE { ?h a noa:Hotspot ; noa:hasGeometry ?g }");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(found->num_rows(), result->hotspots.size());
}

TEST_F(ChainTest, MatchesTheSceneOracle) {
  // The chain rates hotspots from the ingested array's 3.9um band; the
  // oracle classifies and extracts straight from the generated scene.
  for (ClassifierKind kind :
       {ClassifierKind::kThreshold, ClassifierKind::kContextual}) {
    ChainConfig config;
    config.classifier.kind = kind;
    config.classifier.threshold_kelvin = 315.0;
    auto result = veo_.RunFireChain("MSG2-SEVIRI-scene", config);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    auto mask = ClassifyFirePixels(scene_, config.classifier);
    ASSERT_TRUE(mask.ok());
    auto oracle = ExtractHotspots(scene_, *mask, config.min_pixels);
    ASSERT_TRUE(oracle.ok());
    ASSERT_GT(oracle->size(), 0u);
    ASSERT_EQ(result->hotspots.size(), oracle->size());
    for (size_t i = 0; i < oracle->size(); ++i) {
      const Hotspot& got = result->hotspots[i];
      const Hotspot& want = (*oracle)[i];
      EXPECT_EQ(got.pixel_count, want.pixel_count) << i;
      EXPECT_EQ(got.max_t39, want.max_t39) << i;
      EXPECT_EQ(got.confidence, want.confidence) << i;
      EXPECT_EQ(got.detected_at, want.detected_at) << i;
      EXPECT_EQ(geo::WriteWkt(got.geometry), geo::WriteWkt(want.geometry)) << i;
    }
  }
}

/// The store's triples as N-Triples lines.
std::set<std::string> TripleLines(const strabon::Strabon& store) {
  std::set<std::string> lines;
  const auto& dict = store.store().dict();
  for (const rdf::Triple& t : store.store().Match(rdf::TriplePattern{})) {
    lines.insert(dict.At(t.s).ToNTriples() + " " + dict.At(t.p).ToNTriples() +
                 " " + dict.At(t.o).ToNTriples());
  }
  return lines;
}

// The product the chain hands its publisher lands through the facade's
// write path with exactly the terms the chain computed: the triples and
// the `products` row eo::RegisterProductTriples and eo::RegisterProductRow
// make of the raster's L2 metadata, every triple PublishHotspots renders
// of the chain's hotspots, and WKT literals equal to geo::WriteWkt of
// their geometry.
TEST_F(ChainTest, PublishesExactlyTheChainsTerms) {
  const size_t before = strabon_.size();
  ChainConfig config;
  config.classifier.kind = ClassifierKind::kContextual;
  auto result = veo_.RunFireChain("MSG2-SEVIRI-scene", config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_FALSE(result->hotspots.empty());
  auto header = veo_.vault().GetRasterHeader("MSG2-SEVIRI-scene");
  ASSERT_TRUE(header.ok()) << header.status().ToString();
  eo::ProductMetadata meta;
  meta.id = result->product_id;
  meta.satellite = header->satellite;
  meta.sensor = header->sensor;
  meta.level = eo::ProductLevel::kL2;
  meta.acquisition_time = header->acquisition_time;
  meta.footprint_wkt = header->FootprintWkt();
  meta.derived_from = "MSG2-SEVIRI-scene";
  strabon::Strabon expected;
  ASSERT_TRUE(eo::RegisterProductTriples(meta, &expected).ok());
  ASSERT_TRUE(
      PublishHotspots(result->hotspots, result->product_id, &expected).ok());
  // Every triple about the product or one of its hotspots, and no other:
  // the store grew by exactly the expected triples.
  const std::string product_iri =
      std::string(eo::kNoaNs) + "product/" + result->product_id;
  const std::string hotspot_prefix =
      std::string(eo::kNoaNs) + "hotspot/" + result->product_id + "/";
  std::set<std::string> published;
  for (const std::string& triple : TripleLines(strabon_)) {
    if (triple.rfind("<" + product_iri + ">", 0) == 0 ||
        triple.rfind("<" + hotspot_prefix, 0) == 0) {
      published.insert(triple);
    }
  }
  EXPECT_EQ(published, TripleLines(expected));
  EXPECT_EQ(strabon_.size() - before, expected.size());
  const auto& dict = strabon_.store().dict();
  for (const Hotspot& hotspot : result->hotspots) {
    auto geometry = strabon_.Select(
        "SELECT ?g WHERE { <" + std::string(eo::kNoaNs) + "hotspot/" +
        result->product_id + "/" + std::to_string(hotspot.id) +
        "> noa:hasGeometry ?g }");
    ASSERT_TRUE(geometry.ok()) << geometry.status().ToString();
    ASSERT_EQ(geometry->num_rows(), 1u);
    EXPECT_EQ(dict.At(strabon::Binding(*geometry, "g", 0)).lexical,
              geo::WriteWkt(hotspot.geometry));
  }
  storage::Catalog reference;
  ASSERT_TRUE(eo::RegisterProductRow(meta, &reference).ok());
  auto want = reference.GetTable("products");
  ASSERT_TRUE(want.ok());
  auto products = catalog_.GetTable("products");
  ASSERT_TRUE(products.ok());
  ASSERT_EQ((*products)->num_rows(), 1u);
  ASSERT_EQ((*products)->num_columns(), (*want)->num_columns());
  for (size_t c = 0; c < (*want)->num_columns(); ++c) {
    EXPECT_EQ((*products)->Get(0, c).ToString(), (*want)->Get(0, c).ToString())
        << "column " << c;
  }
}

// A `products` table of another shape refuses the product's row, and
// then the product publishes nothing: no triple of it or its hotspots.
TEST_F(ChainTest, RefusedRowPublishesNoTriples) {
  ASSERT_TRUE(veo_.Sql("CREATE TABLE products (id INT)").ok());
  const size_t before = strabon_.size();
  ChainConfig config;
  config.classifier.kind = ClassifierKind::kContextual;
  auto result = veo_.RunFireChain("MSG2-SEVIRI-scene", config);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
      << result.status().ToString();
  EXPECT_EQ(strabon_.size(), before);
}

/// The real file system, except that the first two writers of a `.vec`
/// temp file each wait, once it is open, until the other has opened one
/// too (or two seconds pass), so two exports of one product overlap. It
/// counts the renames that fail.
class OverlappingExports : public io::PosixFileSystem {
 public:
  Result<std::unique_ptr<io::WritableFile>> NewWritableFile(
      const std::string& path) override {
    auto file = io::PosixFileSystem::NewWritableFile(path);
    if (path.find(".vec.") != std::string::npos) {
      std::unique_lock<std::mutex> lock(mu_);
      ++opened_;
      cv_.notify_all();
      cv_.wait_for(lock, std::chrono::seconds(2), [&] { return opened_ >= 2; });
    }
    return file;
  }
  Status Rename(const std::string& from, const std::string& to) override {
    Status st = io::PosixFileSystem::Rename(from, to);
    if (!st.ok()) ++failed_renames;
    return st;
  }

  std::atomic<int> failed_renames{0};

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int opened_ = 0;
};

// One raster listed twice exports one product path from two batch
// products at once: each export writes its own temp file, so both
// renames land, neither export is retried, and the file decodes whole.
TEST_F(ChainTest, DuplicateRastersExportOneProductConcurrently) {
  OverlappingExports overlapping;
  io::ScopedFileSystem scoped(&overlapping);
  ChainConfig config;
  config.classifier.kind = ClassifierKind::kContextual;
  config.output_dir = (dir_ / "out").string();
  fs::create_directories(config.output_dir);
  auto batch = veo_.RunFireChainBatch(
      {"MSG2-SEVIRI-scene", "MSG2-SEVIRI-scene"}, config);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  EXPECT_TRUE(batch->failures.empty());
  ASSERT_EQ(batch->product_ids.size(), 2u);
  EXPECT_EQ(batch->product_ids[0], batch->product_ids[1]);
  EXPECT_EQ(overlapping.failed_renames, 0);
  auto vec = vault::ReadVec(config.output_dir + "/" + batch->product_ids[0] +
                            ".vec");
  ASSERT_TRUE(vec.ok()) << vec.status().ToString();
  auto hotspots = HotspotsFromVec(*vec);
  ASSERT_TRUE(hotspots.ok()) << hotspots.status().ToString();
  EXPECT_EQ(2 * hotspots->size(), batch->hotspots.size());
}

TEST_F(ChainTest, HotspotsCarryValidTimePeriods) {
  ChainConfig config;
  config.classifier.kind = ClassifierKind::kContextual;
  auto result = veo_.RunFireChain("MSG2-SEVIRI-scene", config);
  ASSERT_TRUE(result.ok());
  ASSERT_GT(result->hotspots.size(), 0u);
  // Temporal stSPARQL: hotspots whose valid time lies within Aug 25.
  auto found = strabon_.Select(
      "SELECT ?h WHERE { ?h a noa:Hotspot ; noa:hasValidTime ?vt . "
      "FILTER(strdf:during(?vt, \"[2007-08-25T00:00:00, "
      "2007-08-25T23:59:59]\"^^strdf:period)) }");
  ASSERT_TRUE(found.ok()) << found.status().ToString();
  EXPECT_EQ(found->num_rows(), result->hotspots.size());
}

TEST_F(ChainTest, AggregateHotspotsPerProduct) {
  ChainConfig a;
  a.classifier.kind = ClassifierKind::kThreshold;
  a.classifier.threshold_kelvin = 315.0;
  ChainConfig b;
  b.classifier.kind = ClassifierKind::kContextual;
  auto ra = veo_.RunFireChain("MSG2-SEVIRI-scene", a);
  auto rb = veo_.RunFireChain("MSG2-SEVIRI-scene", b);
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  // SPARQL aggregation: hotspots per product.
  auto counts = strabon_.Select(
      "SELECT ?p (count(*) AS ?n) WHERE { ?h a noa:Hotspot ; "
      "noa:derivedFromProduct ?p } GROUP BY ?p ORDER BY ?p");
  ASSERT_TRUE(counts.ok()) << counts.status().ToString();
  ASSERT_EQ(counts->num_rows(), 2u);
  const auto& dict = strabon_.store().dict();
  int64_t total = 0;
  for (size_t row = 0; row < counts->num_rows(); ++row) {
    total += std::stoll(dict.At(counts->column(1).GetInt64(row)).lexical);
  }
  EXPECT_EQ(total, static_cast<int64_t>(ra->hotspots.size() +
                                        rb->hotspots.size()));
}

TEST_F(ChainTest, SciQlStatementIsReal) {
  ChainConfig config;
  config.classifier.kind = ClassifierKind::kThreshold;
  std::string stmt =
      ProcessingChain::ClassificationSciQl("MSG2-SEVIRI-scene", config);
  EXPECT_NE(stmt.find("SELECT y, x FROM \"MSG2-SEVIRI-scene\""),
            std::string::npos);
  auto result = veo_.RunFireChain("MSG2-SEVIRI-scene", config);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->sciql.size(), 1u);
}

TEST_F(ChainTest, CropRestrictsHotspots) {
  ChainConfig full;
  full.classifier.kind = ClassifierKind::kContextual;
  auto all = veo_.RunFireChain("MSG2-SEVIRI-scene", full);
  ASSERT_TRUE(all.ok());
  ASSERT_GT(all->hotspots.size(), 0u);
  // Crop to a corner that excludes at least one hotspot.
  ChainConfig cropped = full;
  cropped.has_crop = true;
  cropped.crop_x0 = 0;
  cropped.crop_y0 = 0;
  cropped.crop_x1 = scene_.spec.width / 2;
  cropped.crop_y1 = scene_.spec.height / 2;
  // Re-run under a new product id by using the other classifier name.
  auto partial = veo_.RunFireChain("MSG2-SEVIRI-scene", cropped);
  // Second run with same product id: product row appended, fine.
  ASSERT_TRUE(partial.ok()) << partial.status().ToString();
  EXPECT_LE(partial->hotspots.size(), all->hotspots.size());
}

TEST_F(ChainTest, TwoClassifiersProduceComparableProducts) {
  ChainConfig a;
  a.classifier.kind = ClassifierKind::kThreshold;
  a.classifier.threshold_kelvin = 312.0;
  ChainConfig b;
  b.classifier.kind = ClassifierKind::kContextual;
  auto ra = veo_.RunFireChain("MSG2-SEVIRI-scene", a);
  auto rb = veo_.RunFireChain("MSG2-SEVIRI-scene", b);
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  EXPECT_NE(ra->product_id, rb->product_id);
  // Scenario 1's comparison: catalog lets the user search prior runs.
  auto products = catalog_.GetTable("products");
  ASSERT_TRUE(products.ok());
  EXPECT_EQ((*products)->num_rows(), 2u);
}

TEST_F(ChainTest, BatchCompletesPastCorruptProduct) {
  // A second attached scene whose payload gets corrupted on disk: the
  // batch must finish the healthy product, record the failure, and count
  // it in teleios_noa_products_failed_total.
  eo::Scene second = TestScene(7);
  vault::TerRaster r = second.ToTerRaster();
  r.name = "scene-b";
  std::string bad_path = (dir_ / "zz_b.ter").string();
  ASSERT_TRUE(vault::WriteTer(r, bad_path).ok());
  ASSERT_TRUE(veo_.vault().AttachFile(bad_path).ok());
  {
    std::fstream f(bad_path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(-5, std::ios::end);
    char c;
    f.get(c);
    f.seekp(-5, std::ios::end);
    f.put(static_cast<char>(c ^ 0x08));
  }
  uint64_t failed_before = obs::MetricsRegistry::Global()
                               .GetCounter("teleios_noa_products_failed_total")
                               ->value();

  ChainConfig config;
  config.classifier.kind = ClassifierKind::kContextual;
  config.output_dir = dir_.string();
  auto batch =
      veo_.RunFireChainBatch({"MSG2-SEVIRI-scene", "scene-b"}, config);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(batch->product_ids.size(), 1u);
  EXPECT_NE(batch->product_ids[0].find("MSG2-SEVIRI-scene"),
            std::string::npos);
  ASSERT_EQ(batch->failures.size(), 1u);
  EXPECT_EQ(batch->failures[0].raster, "scene-b");
  EXPECT_EQ(batch->failures[0].status.code(), StatusCode::kDataLoss);
  EXPECT_GT(batch->hotspots.size(), 0u);
  EXPECT_EQ(obs::MetricsRegistry::Global()
                .GetCounter("teleios_noa_products_failed_total")
                ->value(),
            failed_before + 1);
  // The healthy product made it into the catalog; the corrupt one did not.
  auto products = catalog_.GetTable("products");
  ASSERT_TRUE(products.ok());
  EXPECT_EQ((*products)->num_rows(), 1u);
}

TEST_F(ChainTest, ReadsTheRasterPayloadOnce) {
  // The filesystem operations one read of the attached file costs...
  io::FaultInjectingFileSystem counting(io::GetFileSystem());
  io::ScopedFileSystem scoped(&counting);
  ASSERT_TRUE(vault::ReadTer((dir_ / "scene.ter").string()).ok());
  const uint64_t one_read = counting.ops();
  ASSERT_GT(one_read, 0u);
  // ...are all a chain run over the freshly attached raster costs: the
  // vault's ingestion is the only read, and the scene georeferencing
  // uses is mapped from the array it ingested.
  ChainConfig config;
  config.classifier.kind = ClassifierKind::kContextual;
  auto result = veo_.RunFireChain("MSG2-SEVIRI-scene", config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->hotspots.size(), 0u);
  EXPECT_EQ(counting.ops() - one_read, one_read);
}

TEST_F(ChainTest, CroppedRunCountsOnlyTheSlabsCells) {
  obs::Counter* classified = obs::MetricsRegistry::Global().GetCounter(
      "teleios_noa_pixels_classified_total");
  ChainConfig config;
  config.classifier.kind = ClassifierKind::kContextual;
  uint64_t before = classified->value();
  ASSERT_TRUE(veo_.RunFireChain("MSG2-SEVIRI-scene", config).ok());
  EXPECT_EQ(classified->value() - before, scene_.PixelCount());
  // A crop reaching past the bottom edge: SciQL clamps the slab to the
  // raster, and so does the count.
  config.has_crop = true;
  config.crop_x0 = 10;
  config.crop_x1 = 40;
  config.crop_y0 = scene_.spec.height - 16;
  config.crop_y1 = scene_.spec.height + 50;
  before = classified->value();
  ASSERT_TRUE(veo_.RunFireChain("MSG2-SEVIRI-scene", config).ok());
  EXPECT_EQ(classified->value() - before, 30u * 16u);
}

class RefinementTest : public ChainTest {
 protected:
  void SetUp() override {
    ChainTest::SetUp();
    // Load coastline so the sea geometry exists.
    auto coast = linkeddata::GenerateCoastline(scene_);
    ASSERT_TRUE(coast.ok()) << coast.status().ToString();
    ASSERT_TRUE(veo_.LoadLinkedData(*coast).ok());
    // Produce hotspots with the naive classifier (sea leakage likely).
    ChainConfig config;
    config.classifier.kind = ClassifierKind::kThreshold;
    config.classifier.threshold_kelvin = 315.0;
    auto result = veo_.RunFireChain("MSG2-SEVIRI-scene", config);
    ASSERT_TRUE(result.ok());
    product_id_ = result->product_id;
    hotspot_count_ = result->hotspots.size();
  }

  std::string product_id_;
  size_t hotspot_count_ = 0;
};

TEST_F(RefinementTest, RefinementRunsAndReports) {
  auto report = veo_.Refine(product_id_);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->hotspots_examined, hotspot_count_);
  EXPECT_EQ(report->statements.size(), 2u);
  EXPECT_NE(report->statements[0].find("strdf:difference"),
            std::string::npos);
  EXPECT_GE(report->area_removed, 0.0);
}

TEST_F(RefinementTest, ThematicAccuracyDoesNotDegrade) {
  auto before = FetchHotspotGeometries(&strabon_, product_id_);
  ASSERT_TRUE(before.ok());
  auto acc_before =
      ScoreHotspotsAgainstTruth(*before, scene_.GroundTruthFires());
  ASSERT_TRUE(acc_before.ok());
  auto report = veo_.Refine(product_id_);
  ASSERT_TRUE(report.ok());
  auto after = FetchHotspotGeometries(&strabon_, product_id_);
  ASSERT_TRUE(after.ok());
  auto acc_after =
      ScoreHotspotsAgainstTruth(*after, scene_.GroundTruthFires());
  ASSERT_TRUE(acc_after.ok());
  // Clipping to land can only remove non-fire (sea) area, so precision
  // must not drop.
  EXPECT_GE(acc_after->precision + 1e-9, acc_before->precision);
}

TEST_F(RefinementTest, RequiresCoastlineLayer) {
  strabon::Strabon empty;
  bool updated = false;
  EXPECT_FALSE(RefineHotspots(&empty, product_id_,
                              [&](const std::string&) -> Result<size_t> {
                                updated = true;
                                return size_t{0};
                              })
                   .ok());
  EXPECT_FALSE(updated);
}

TEST_F(RefinementTest, RapidMapRendersAllLayers) {
  auto towns = linkeddata::GenerateTowns(scene_, 5, 1);
  ASSERT_TRUE(towns.ok());
  ASSERT_TRUE(veo_.LoadLinkedData(*towns).ok());
  RapidMapper mapper(&strabon_);
  ASSERT_TRUE(mapper
                  .AddQueryLayer("land", "#88aa66", '.',
                                 "SELECT ?g WHERE { ?x a noa:LandArea ; "
                                 "noa:hasGeometry ?g }")
                  .ok());
  ASSERT_TRUE(mapper
                  .AddQueryLayer(
                      "hotspots", "#dd2200", '#',
                      "SELECT ?g WHERE { ?h a noa:Hotspot ; "
                      "noa:hasGeometry ?g }")
                  .ok());
  ASSERT_TRUE(
      mapper
          .AddQueryLayer("towns", "#2244cc", 'o',
                         "PREFIX geonames: <http://www.geonames.org/"
                         "ontology#> SELECT ?g ?n WHERE { ?t a "
                         "geonames:Feature ; strdf:hasGeometry ?g ; "
                         "geonames:name ?n }")
          .ok());
  EXPECT_EQ(mapper.layers().size(), 3u);
  std::string svg = mapper.RenderSvg();
  EXPECT_NE(svg.find("<svg"), std::string::npos);
  EXPECT_NE(svg.find("hotspots"), std::string::npos);
  std::string ascii = mapper.RenderAscii(40, 20);
  EXPECT_NE(ascii.find('o'), std::string::npos);
  EXPECT_NE(ascii.find('.'), std::string::npos);
}

TEST_F(ChainTest, BurnedAreaAggregatesWindow) {
  ChainConfig config;
  config.classifier.kind = ClassifierKind::kContextual;
  auto result = veo_.RunFireChain("MSG2-SEVIRI-scene", config);
  ASSERT_TRUE(result.ok());
  ASSERT_GT(result->hotspots.size(), 0u);
  int64_t t = scene_.spec.acquisition_time;
  auto burned = MapBurnedArea(&strabon_, "aug25", t - 3600, t + 3600);
  ASSERT_TRUE(burned.ok()) << burned.status().ToString();
  EXPECT_EQ(burned->hotspots_merged, result->hotspots.size());
  EXPECT_GT(burned->area, 0.0);
  // Each hotspot footprint lies within the dissolved burned area.
  for (const Hotspot& h : result->hotspots) {
    EXPECT_TRUE(geo::Intersects(burned->geometry, h.geometry));
  }
  // The product is queryable, typed, timed and with provenance.
  auto found = strabon_.Select(
      "SELECT ?b ?p WHERE { ?b a noa:BurnedArea ; noa:hasValidTime ?vt ; "
      "noa:derivedFromProduct ?p . }");
  ASSERT_TRUE(found.ok()) << found.status().ToString();
  EXPECT_EQ(found->num_rows(), 1u);
}

TEST_F(ChainTest, BurnedAreaEmptyWindow) {
  ChainConfig config;
  config.classifier.kind = ClassifierKind::kContextual;
  ASSERT_TRUE(veo_.RunFireChain("MSG2-SEVIRI-scene", config).ok());
  // A window a year earlier matches nothing.
  int64_t t = scene_.spec.acquisition_time - 365 * 86400;
  auto burned = MapBurnedArea(&strabon_, "empty", t, t + 3600);
  ASSERT_TRUE(burned.ok()) << burned.status().ToString();
  EXPECT_EQ(burned->hotspots_merged, 0u);
  EXPECT_TRUE(burned->geometry.IsEmpty());
  EXPECT_FALSE(
      MapBurnedArea(&strabon_, "bad", t + 10, t).ok());  // inverted window
}

TEST(LinkedDataTest, GeneratorsEmitParseableTurtle) {
  eo::Scene scene = TestScene(5, 64);
  strabon::Strabon strabon;
  auto towns = linkeddata::GenerateTowns(scene, 8, 2);
  ASSERT_TRUE(towns.ok());
  ASSERT_TRUE(strabon.LoadTurtle(*towns).ok());
  auto sites = linkeddata::GenerateArchaeologicalSites(scene, 5, 2);
  ASSERT_TRUE(sites.ok());
  ASSERT_TRUE(strabon.LoadTurtle(*sites).ok());
  auto roads = linkeddata::GenerateRoads(scene, 6, 2);
  ASSERT_TRUE(roads.ok());
  ASSERT_TRUE(strabon.LoadTurtle(*roads).ok());
  auto landcover = linkeddata::GenerateLandCover(scene, 16);
  ASSERT_TRUE(landcover.ok());
  ASSERT_TRUE(strabon.LoadTurtle(*landcover).ok());
  auto count = strabon.Select("SELECT ?s WHERE { ?s ?p ?o }");
  ASSERT_TRUE(count.ok());
  EXPECT_GT(count->num_rows(), 50u);
  // Towns landed on land pixels.
  auto town_geos = strabon.Select(
      "PREFIX geonames: <http://www.geonames.org/ontology#> "
      "SELECT ?g WHERE { ?t a geonames:Feature ; strdf:hasGeometry ?g }");
  ASSERT_TRUE(town_geos.ok());
  EXPECT_EQ(town_geos->num_rows(), 8u);
}

}  // namespace
}  // namespace teleios::noa
