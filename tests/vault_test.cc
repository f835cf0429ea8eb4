#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "core/observatory.h"
#include "eo/scene.h"
#include "governor/memory_budget.h"
#include "vault/formats.h"
#include "vault/vault.h"

namespace teleios::vault {
namespace {

namespace fs = std::filesystem;

class VaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("vault_test_" + std::to_string(::getpid()));
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  TerRaster MakeRaster(const std::string& name, int w = 8, int h = 6) {
    TerRaster r;
    r.name = name;
    r.satellite = "Meteosat-9";
    r.sensor = "SEVIRI";
    r.width = w;
    r.height = h;
    r.acquisition_time = 1187997600;
    r.transform = {21.0, 38.5, 0.01, -0.01, 0, 0};
    r.band_names = {"IR039", "IR108"};
    r.bands.resize(2);
    for (auto& band : r.bands) {
      band.resize(static_cast<size_t>(w) * h);
      for (size_t i = 0; i < band.size(); ++i) {
        band[i] = 290.0 + static_cast<double>(i % 17);
      }
    }
    return r;
  }

  fs::path dir_;
};

TEST_F(VaultTest, TerRoundTrip) {
  TerRaster r = MakeRaster("msg1");
  std::string path = (dir_ / "msg1.ter").string();
  ASSERT_TRUE(WriteTer(r, path).ok());
  auto loaded = ReadTer(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->name, "msg1");
  EXPECT_EQ(loaded->width, 8);
  EXPECT_EQ(loaded->band_names.size(), 2u);
  EXPECT_DOUBLE_EQ(loaded->bands[0][5], r.bands[0][5]);
  // Full geotransform round trip (a field-order bug here once broke all
  // product footprints).
  EXPECT_DOUBLE_EQ(loaded->transform.origin_x, 21.0);
  EXPECT_DOUBLE_EQ(loaded->transform.origin_y, 38.5);
  EXPECT_DOUBLE_EQ(loaded->transform.pixel_w, 0.01);
  EXPECT_DOUBLE_EQ(loaded->transform.pixel_h, -0.01);
  EXPECT_DOUBLE_EQ(loaded->transform.rot_x, 0.0);
  EXPECT_DOUBLE_EQ(loaded->transform.rot_y, 0.0);
}

TEST_F(VaultTest, TerHeaderOnlyReadsNoPayload) {
  TerRaster r = MakeRaster("msg2", 64, 64);
  std::string path = (dir_ / "msg2.ter").string();
  ASSERT_TRUE(WriteTer(r, path).ok());
  auto header = ReadTerHeader(path);
  ASSERT_TRUE(header.ok());
  EXPECT_EQ(header->name, "msg2");
  EXPECT_EQ(header->width, 64);
  EXPECT_EQ(header->band_names.size(), 2u);
  EXPECT_EQ(header->path, path);
  EXPECT_NE(header->FootprintWkt().find("POLYGON"), std::string::npos);
}

TEST_F(VaultTest, TerRejectsGarbage) {
  std::string path = (dir_ / "junk.ter").string();
  {
    std::ofstream os(path);
    os << "garbage";
  }
  EXPECT_FALSE(ReadTer(path).ok());
  EXPECT_FALSE(ReadTerHeader(path).ok());
}

TEST_F(VaultTest, VecRoundTripWithEscapes) {
  VecFile file;
  file.name = "hotspots";
  VecFeature f;
  f.id = 7;
  f.attributes["label"] = "fire; near |pipe| a=b";
  f.attributes["conf"] = "0.93";
  f.geometry = geo::Geometry::MakeBox(21, 37, 22, 38);
  file.features.push_back(f);
  std::string path = (dir_ / "h.vec").string();
  ASSERT_TRUE(WriteVec(file, path).ok());
  auto loaded = ReadVec(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->name, "hotspots");
  ASSERT_EQ(loaded->features.size(), 1u);
  EXPECT_EQ(loaded->features[0].id, 7);
  EXPECT_EQ(loaded->features[0].attributes.at("label"),
            "fire; near |pipe| a=b");
  EXPECT_DOUBLE_EQ(loaded->features[0].geometry.Area(), 1.0);
}

TEST_F(VaultTest, AttachHarvestsMetadataWithoutIngest) {
  ASSERT_TRUE(WriteTer(MakeRaster("a"), (dir_ / "a.ter").string()).ok());
  ASSERT_TRUE(WriteTer(MakeRaster("b"), (dir_ / "b.ter").string()).ok());
  storage::Catalog catalog;
  DataVault vault(&catalog);
  auto attached = vault.Attach(dir_.string());
  ASSERT_TRUE(attached.ok()) << attached.status().ToString();
  EXPECT_EQ(*attached, 2u);
  EXPECT_EQ(vault.stats().rasters_ingested, 0u);  // lazy!
  // Metadata is queryable immediately.
  auto table = catalog.GetTable("vault_rasters");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ((*table)->num_rows(), 2u);
  EXPECT_EQ(vault.RasterNames().size(), 2u);
}

TEST_F(VaultTest, LazyIngestOnFirstTouchThenCached) {
  ASSERT_TRUE(WriteTer(MakeRaster("a"), (dir_ / "a.ter").string()).ok());
  storage::Catalog catalog;
  DataVault vault(&catalog);
  ASSERT_TRUE(vault.Attach(dir_.string()).ok());
  auto arr = vault.GetRasterArray("a");
  ASSERT_TRUE(arr.ok()) << arr.status().ToString();
  EXPECT_EQ(vault.stats().rasters_ingested, 1u);
  EXPECT_EQ(vault.stats().cache_hits, 0u);
  EXPECT_EQ((*arr)->num_cells(), 48u);
  EXPECT_EQ((*arr)->num_attributes(), 2u);
  // Second touch is a cache hit, not a re-ingest.
  auto again = vault.GetRasterArray("a");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(vault.stats().rasters_ingested, 1u);
  EXPECT_EQ(vault.stats().cache_hits, 1u);
  EXPECT_EQ(arr->get(), again->get());
}

TEST_F(VaultTest, BandArrayIngestsSingleBand) {
  ASSERT_TRUE(WriteTer(MakeRaster("a"), (dir_ / "a.ter").string()).ok());
  storage::Catalog catalog;
  DataVault vault(&catalog);
  ASSERT_TRUE(vault.Attach(dir_.string()).ok());
  auto band = vault.GetBandArray("a", "IR108");
  ASSERT_TRUE(band.ok());
  EXPECT_EQ((*band)->num_attributes(), 1u);
  EXPECT_FALSE(vault.GetBandArray("a", "NOPE").ok());
}

TEST_F(VaultTest, IngestChargesThePayloadOnce) {
  // The array adopts the decoded bands, so ingestion needs room for the
  // payload once — not for the payload plus a copy of it.
  TerRaster raster = MakeRaster("a");
  ASSERT_TRUE(WriteTer(raster, (dir_ / "a.ter").string()).ok());
  storage::Catalog catalog;
  DataVault vault(&catalog);
  ASSERT_TRUE(vault.Attach(dir_.string()).ok());
  const size_t payload = raster.PixelCount() * 2 * sizeof(double);
  governor::MemoryBudget exact("exact", payload);
  {
    governor::ScopedBudget scope(&exact);
    auto arr = vault.GetRasterArray("a");
    ASSERT_TRUE(arr.ok()) << arr.status().ToString();
    EXPECT_DOUBLE_EQ((*arr)->GetLinear(20, 1).AsFloat64(), raster.bands[1][20]);
    auto band = vault.GetBandArray("a", "IR108");
    ASSERT_TRUE(band.ok()) << band.status().ToString();
    EXPECT_DOUBLE_EQ((*band)->GetLinear(20, 0).AsFloat64(),
                     raster.bands[1][20]);
  }
  EXPECT_EQ(exact.used(), 0u);
  EXPECT_EQ(exact.peak(), payload);
}

TEST_F(VaultTest, EvictionForcesReingest) {
  ASSERT_TRUE(WriteTer(MakeRaster("a"), (dir_ / "a.ter").string()).ok());
  storage::Catalog catalog;
  DataVault vault(&catalog);
  ASSERT_TRUE(vault.Attach(dir_.string()).ok());
  ASSERT_TRUE(vault.GetRasterArray("a").ok());
  vault.EvictCache();
  ASSERT_TRUE(vault.GetRasterArray("a").ok());
  EXPECT_EQ(vault.stats().rasters_ingested, 2u);
}

TEST_F(VaultTest, IngestAllIsEager) {
  ASSERT_TRUE(WriteTer(MakeRaster("a"), (dir_ / "a.ter").string()).ok());
  ASSERT_TRUE(WriteTer(MakeRaster("b"), (dir_ / "b.ter").string()).ok());
  storage::Catalog catalog;
  DataVault vault(&catalog);
  ASSERT_TRUE(vault.Attach(dir_.string()).ok());
  ASSERT_TRUE(vault.IngestAll().ok());
  EXPECT_EQ(vault.stats().rasters_ingested, 2u);
}

TEST_F(VaultTest, AttachVectors) {
  VecFile file;
  file.name = "coast";
  VecFeature f;
  f.id = 1;
  f.geometry = geo::Geometry::MakeBox(0, 0, 1, 1);
  file.features.push_back(f);
  ASSERT_TRUE(WriteVec(file, (dir_ / "coast.vec").string()).ok());
  storage::Catalog catalog;
  DataVault vault(&catalog);
  ASSERT_TRUE(vault.Attach(dir_.string()).ok());
  EXPECT_EQ(vault.VectorNames().size(), 1u);
  auto loaded = vault.GetVector("coast");
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->features.size(), 1u);
  auto table = catalog.GetTable("vault_vectors");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ((*table)->num_rows(), 1u);
}

TEST_F(VaultTest, AttachCsvBecomesCatalogTable) {
  {
    std::ofstream os(dir_ / "stations.csv");
    os << "station,lat,lon,elevation\n";
    os << "Kalamata,37.07,22.03,6\n";
    os << "Tripoli,37.53,22.40,652\n";
  }
  storage::Catalog catalog;
  DataVault vault(&catalog);
  auto attached = vault.Attach(dir_.string());
  ASSERT_TRUE(attached.ok()) << attached.status().ToString();
  EXPECT_EQ(*attached, 1u);
  auto table = catalog.GetTable("stations");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ((*table)->num_rows(), 2u);
  EXPECT_EQ((*table)->schema().field(0).type,
            storage::ColumnType::kString);
  EXPECT_EQ((*table)->schema().field(3).type,
            storage::ColumnType::kInt64);
  // Duplicate attach reports AlreadyExists (skipped by Attach).
  EXPECT_EQ(vault.AttachFile((dir_ / "stations.csv").string()).code(),
            StatusCode::kAlreadyExists);
}

TEST_F(VaultTest, ErrorsSurface) {
  storage::Catalog catalog;
  DataVault vault(&catalog);
  EXPECT_FALSE(vault.Attach((dir_ / "nope").string()).ok());
  EXPECT_FALSE(vault.GetRasterArray("missing").ok());
  EXPECT_FALSE(vault.GetVector("missing").ok());
  EXPECT_FALSE(vault.AttachFile((dir_ / "x.txt").string()).ok());
}

TEST_F(VaultTest, AttachSkipsAndRecordsCorruptFiles) {
  ASSERT_TRUE(WriteTer(MakeRaster("good"), (dir_ / "a_good.ter").string()).ok());
  {
    std::ofstream os(dir_ / "b_junk.ter");
    os << "this is not a raster";
  }
  ASSERT_TRUE(WriteTer(MakeRaster("also"), (dir_ / "c_also.ter").string()).ok());
  storage::Catalog catalog;
  DataVault vault(&catalog);
  auto attached = vault.Attach(dir_.string());
  ASSERT_TRUE(attached.ok()) << attached.status().ToString();
  EXPECT_EQ(*attached, 2u);  // the corrupt file did not abort the scan
  ASSERT_EQ(vault.attach_failures().size(), 1u);
  EXPECT_NE(vault.attach_failures()[0].path.find("b_junk.ter"),
            std::string::npos);
  EXPECT_FALSE(vault.attach_failures()[0].status.ok());
  EXPECT_EQ(vault.stats().attach_failures, 1u);
  EXPECT_EQ(vault.RasterNames().size(), 2u);
}

TEST_F(VaultTest, CorruptPayloadQuarantinesThenHeals) {
  TerRaster r = MakeRaster("a");
  std::string path = (dir_ / "a.ter").string();
  ASSERT_TRUE(WriteTer(r, path).ok());
  storage::Catalog catalog;
  DataVault vault(&catalog);
  vault.set_ingest_retry({/*max_attempts=*/2});
  ASSERT_TRUE(vault.Attach(dir_.string()).ok());

  // Corrupt one pixel byte behind the vault's back (header stays valid,
  // so attach-time metadata is fine but ingestion must catch it).
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(-9, std::ios::end);
    char c;
    f.seekg(-9, std::ios::end);
    f.get(c);
    f.seekp(-9, std::ios::end);
    f.put(static_cast<char>(c ^ 0x20));
  }
  auto arr = vault.GetRasterArray("a");
  ASSERT_FALSE(arr.ok());
  EXPECT_EQ(arr.status().code(), StatusCode::kDataLoss);
  ASSERT_EQ(vault.QuarantinedNames().size(), 1u);
  EXPECT_EQ(vault.stats().ingest_failures, 1u);
  // Quarantined: fails fast with a sticky status mentioning quarantine.
  auto again = vault.GetRasterArray("a");
  ASSERT_FALSE(again.ok());
  EXPECT_NE(again.status().message().find("quarantined"), std::string::npos);

  // Heal with the file still corrupt: header reads fine... but the
  // payload CRC still fails, so it re-quarantines on next touch.
  EXPECT_EQ(vault.Heal(), 1u);
  EXPECT_FALSE(vault.GetRasterArray("a").ok());
  ASSERT_EQ(vault.QuarantinedNames().size(), 1u);

  // Re-export the product, heal, and ingestion recovers.
  ASSERT_TRUE(WriteTer(r, path).ok());
  EXPECT_EQ(vault.Heal(), 1u);
  auto recovered = vault.GetRasterArray("a");
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_TRUE(vault.QuarantinedNames().empty());
}

// Quarantine is durable state: a quarantined raster stays quarantined
// across a restart (via WAL replay), and Heal() clears it durably.
TEST_F(VaultTest, QuarantineSurvivesReopenAndHealClearsDurably) {
  fs::path archive = dir_ / "archive";
  fs::create_directories(archive);
  TerRaster r = MakeRaster("a");
  std::string path = (archive / "a.ter").string();
  ASSERT_TRUE(WriteTer(r, path).ok());
  const std::string db = (dir_ / "db").string();

  {
    core::VirtualEarthObservatory veo;
    ASSERT_TRUE(veo.Open(db).ok());
    veo.vault().set_ingest_retry({/*max_attempts=*/1});
    ASSERT_TRUE(veo.AttachArchive(archive.string()).ok());
    // Corrupt a payload byte behind the vault's back; the next ingest
    // quarantines, and the transition mirrors into the WAL.
    {
      std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
      char c;
      f.seekg(-9, std::ios::end);
      f.get(c);
      f.seekp(-9, std::ios::end);
      f.put(static_cast<char>(c ^ 0x20));
    }
    ASSERT_FALSE(veo.vault().GetRasterArray("a").ok());
    ASSERT_EQ(veo.vault().QuarantinedNames().size(), 1u);
  }
  {
    // Restart: the attachment AND the quarantine come back; the sticky
    // status fails fast without re-reading the bad payload.
    core::VirtualEarthObservatory veo;
    ASSERT_TRUE(veo.Open(db).ok());
    ASSERT_EQ(veo.vault().QuarantinedNames().size(), 1u);
    auto arr = veo.vault().GetRasterArray("a");
    ASSERT_FALSE(arr.ok());
    EXPECT_NE(arr.status().message().find("quarantined"), std::string::npos)
        << arr.status().ToString();
    // Repair the file and heal: the clear is durable too.
    ASSERT_TRUE(WriteTer(r, path).ok());
    EXPECT_EQ(veo.vault().Heal(), 1u);
    EXPECT_TRUE(veo.vault().QuarantinedNames().empty());
  }
  {
    core::VirtualEarthObservatory veo;
    ASSERT_TRUE(veo.Open(db).ok());
    EXPECT_TRUE(veo.vault().QuarantinedNames().empty());
    auto recovered = veo.vault().GetRasterArray("a");
    EXPECT_TRUE(recovered.ok()) << recovered.status().ToString();
    // The attachment itself also recovered: metadata is queryable.
    auto names = veo.Sql("SELECT name FROM vault_rasters");
    ASSERT_TRUE(names.ok());
    EXPECT_EQ(names->num_rows(), 1u);
  }
}

TEST_F(VaultTest, SceneRasterIntegration) {
  eo::SceneSpec spec;
  spec.width = 32;
  spec.height = 32;
  auto scene = eo::GenerateScene(spec);
  ASSERT_TRUE(scene.ok());
  ASSERT_TRUE(
      WriteTer(scene->ToTerRaster(), (dir_ / "scene.ter").string()).ok());
  storage::Catalog catalog;
  DataVault vault(&catalog);
  ASSERT_TRUE(vault.Attach(dir_.string()).ok());
  auto arr = vault.GetRasterArray("MSG2-SEVIRI-scene");
  ASSERT_TRUE(arr.ok());
  EXPECT_EQ((*arr)->num_attributes(), 6u);  // 4 bands + 2 masks
}

}  // namespace
}  // namespace teleios::vault
