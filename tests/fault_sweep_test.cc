// The headline robustness harness: for every k, inject a fault at the
// k-th I/O operation during each end-to-end scenario (raster write and
// read, archive attach, raster ingest) and require that the system
// (a) never crashes, (b) surfaces a clean error Status, and (c) recovers
// to a consistent state once the fault clears — for crash-mode write
// faults, the file on disk is always the complete old or complete new
// version, never a hybrid. Crashes while the catalog is checkpointed
// are swept by tests/recovery_sweep_test.cc.

#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "eo/scene.h"
#include "io/fault_injection.h"
#include "io/filesystem.h"
#include "storage/catalog.h"
#include "vault/formats.h"
#include "vault/vault.h"

namespace teleios {
namespace {

namespace stdfs = std::filesystem;

class FaultSweepTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = stdfs::temp_directory_path() /
           ("fault_sweep_" + std::to_string(::getpid()));
    stdfs::create_directories(dir_);
    faulty_ = std::make_unique<io::FaultInjectingFileSystem>(&posix_);
    prev_ = io::SetFileSystem(faulty_.get());
  }
  void TearDown() override {
    io::SetFileSystem(prev_);
    stdfs::remove_all(dir_);
  }

  std::string Path(const std::string& name) { return (dir_ / name).string(); }

  static vault::TerRaster MakeRaster(const std::string& name) {
    vault::TerRaster r;
    r.name = name;
    r.satellite = "Meteosat-9";
    r.sensor = "SEVIRI";
    r.width = 16;
    r.height = 12;
    r.acquisition_time = 1187997600;
    r.transform = {21.0, 38.5, 0.01, -0.01, 0, 0};
    r.band_names = {"IR039", "IR108"};
    r.bands.assign(2, std::vector<double>(16 * 12, 300.0));
    return r;
  }

  stdfs::path dir_;
  io::PosixFileSystem posix_;
  std::unique_ptr<io::FaultInjectingFileSystem> faulty_;
  io::FileSystem* prev_ = nullptr;
};

// Crash sweep over WriteTer + bit-flip sweep over ReadTer.
TEST_F(FaultSweepTest, TerWriteAndReadSweep) {
  const std::string path = Path("scene.ter");
  ASSERT_TRUE(vault::WriteTer(MakeRaster("old"), path).ok());

  io::FaultSpec probe;
  probe.inject_at = 0;
  faulty_->Arm(probe);
  ASSERT_TRUE(vault::WriteTer(MakeRaster("new"), path).ok());
  uint64_t write_ops = faulty_->ops();
  ASSERT_TRUE(vault::WriteTer(MakeRaster("old"), path).ok());

  for (uint64_t k = 1; k <= write_ops; ++k) {
    io::FaultSpec spec;
    spec.inject_at = k;
    spec.crash = true;
    faulty_->Arm(spec);
    Status st = vault::WriteTer(MakeRaster("new"), path);
    faulty_->Disarm();
    auto back = vault::ReadTer(path);
    ASSERT_TRUE(back.ok()) << "fault at op " << k;
    if (st.ok()) {
      EXPECT_EQ(back->name, "new") << "fault at op " << k;
    } else {
      EXPECT_TRUE(back->name == "old" || back->name == "new")
          << "fault at op " << k;
    }
    if (back->name == "new") {
      ASSERT_TRUE(vault::WriteTer(MakeRaster("old"), path).ok());
    }
  }

  probe.reads_only = true;
  faulty_->Arm(probe);
  ASSERT_TRUE(vault::ReadTer(path).ok());
  uint64_t read_ops = faulty_->ops();
  for (uint64_t k = 1; k <= read_ops; ++k) {
    io::FaultSpec spec;
    spec.kind = io::FaultKind::kBitFlip;
    spec.reads_only = true;
    spec.inject_at = k;
    spec.seed = 7 * k + 1;
    faulty_->Arm(spec);
    auto r = vault::ReadTer(path);
    uint64_t flipped = faulty_->bits_flipped();
    faulty_->Disarm();
    if (r.ok()) {
      EXPECT_EQ(flipped, 0u)
          << "flip at read op " << k << " was not detected";
      continue;
    }
    EXPECT_TRUE(r.status().code() == StatusCode::kDataLoss ||
                r.status().code() == StatusCode::kParseError)
        << r.status().ToString();
  }
}

// Fault at every op during an archive attach + full ingest: clean Status,
// and once the fault clears the same vault instance can still serve what
// it attached (retry/quarantine must not wedge it).
TEST_F(FaultSweepTest, AttachAndIngestSweepSurvives) {
  ASSERT_TRUE(vault::WriteTer(MakeRaster("a"), Path("a.ter")).ok());
  ASSERT_TRUE(vault::WriteTer(MakeRaster("b"), Path("b.ter")).ok());

  io::FaultSpec probe;
  probe.inject_at = 0;
  faulty_->Arm(probe);
  {
    storage::Catalog catalog;
    vault::DataVault vault(&catalog);
    ASSERT_TRUE(vault.Attach(dir_.string()).ok());
    ASSERT_TRUE(vault.IngestAll().ok());
  }
  uint64_t total_ops = faulty_->ops();
  ASSERT_GT(total_ops, 4u);

  for (uint64_t k = 1; k <= total_ops; ++k) {
    io::FaultSpec spec;
    spec.inject_at = k;
    faulty_->Arm(spec);
    storage::Catalog catalog;
    vault::DataVault vault(&catalog);
    vault.set_ingest_retry({/*max_attempts=*/1});
    auto attached = vault.Attach(dir_.string());
    Status ingest = attached.ok() ? vault.IngestAll() : attached.status();
    faulty_->Disarm();
    // Whatever happened, it was a clean Status; after the fault clears,
    // healing + re-ingest must fully recover.
    (void)ingest;
    if (attached.ok() && *attached == 2) {
      vault.Heal();
      vault.EvictCache();
      EXPECT_TRUE(vault.IngestAll().ok()) << "fault at op " << k;
    }
  }
}

}  // namespace
}  // namespace teleios
