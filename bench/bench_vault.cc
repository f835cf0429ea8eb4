// E8 — Data Vault claim ([6], Ivanova/Kersten/Manegold): the symbiosis of
// DBMS and file repository. Shape to reproduce: attaching an archive
// (metadata harvest) is orders of magnitude cheaper than eager ingestion;
// first payload touch pays the ingestion cost once; subsequent touches hit
// the cache. The archive never needs to be fully loaded to answer
// metadata queries.

#include <benchmark/benchmark.h>

#include <filesystem>
#include <vector>

#include "common/crc32c.h"
#include "eo/scene.h"
#include "io/fault_injection.h"
#include "io/filesystem.h"
#include "relational/sql_engine.h"
#include "vault/vault.h"

namespace {

namespace fs = std::filesystem;

using teleios::eo::GenerateScene;
using teleios::eo::SceneSpec;
using teleios::storage::Catalog;
using teleios::vault::DataVault;

/// Builds an archive of `count` rasters of `size`^2 pixels; returns dir.
std::string BuildArchive(int count, int size) {
  static std::string dir;
  static int built_count = -1;
  static int built_size = -1;
  if (built_count == count && built_size == size) return dir;
  dir = (fs::temp_directory_path() /
         ("teleios_bench_vault_" + std::to_string(count) + "_" +
          std::to_string(size)))
            .string();
  fs::create_directories(dir);
  for (int i = 0; i < count; ++i) {
    SceneSpec spec;
    spec.width = size;
    spec.height = size;
    spec.seed = 42 + static_cast<uint64_t>(i);
    spec.name = "scene_" + std::to_string(i);
    auto scene = GenerateScene(spec);
    (void)teleios::vault::WriteTer(
        scene->ToTerRaster(), dir + "/scene_" + std::to_string(i) + ".ter");
  }
  built_count = count;
  built_size = size;
  return dir;
}

/// Attach only: the vault's lazy path (metadata harvest, no payload IO).
void BM_AttachLazy(benchmark::State& state) {
  std::string dir = BuildArchive(static_cast<int>(state.range(0)), 128);
  for (auto _ : state) {
    Catalog catalog;
    DataVault vault(&catalog);
    auto n = vault.Attach(dir);
    benchmark::DoNotOptimize(*n);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_AttachLazy)->Arg(4)->Arg(16);

/// Attach + eager full ingestion: the non-vault baseline.
void BM_AttachEager(benchmark::State& state) {
  std::string dir = BuildArchive(static_cast<int>(state.range(0)), 128);
  for (auto _ : state) {
    Catalog catalog;
    DataVault vault(&catalog);
    (void)vault.Attach(dir);
    (void)vault.IngestAll();
    benchmark::DoNotOptimize(vault.stats().bytes_ingested);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_AttachEager)->Arg(4)->Arg(16);

/// Metadata query latency straight after attach — the vault's selling
/// point: queryable archive without payload ingestion.
void BM_MetadataQueryAfterAttach(benchmark::State& state) {
  std::string dir = BuildArchive(16, 128);
  Catalog catalog;
  DataVault vault(&catalog);
  (void)vault.Attach(dir);
  teleios::relational::SqlEngine engine(&catalog);
  for (auto _ : state) {
    auto r = engine.Execute(
        "SELECT name, width, height FROM vault_rasters WHERE bands >= 6 "
        "ORDER BY name");
    benchmark::DoNotOptimize(r->num_rows());
  }
}
BENCHMARK(BM_MetadataQueryAfterAttach);

/// First touch (ingest) vs cached touch of one raster.
void BM_FirstTouch(benchmark::State& state) {
  std::string dir = BuildArchive(4, 128);
  for (auto _ : state) {
    Catalog catalog;
    DataVault vault(&catalog);
    (void)vault.Attach(dir);
    auto arr = vault.GetRasterArray("scene_0");
    benchmark::DoNotOptimize((*arr)->num_cells());
  }
}
BENCHMARK(BM_FirstTouch);

void BM_CachedTouch(benchmark::State& state) {
  std::string dir = BuildArchive(4, 128);
  Catalog catalog;
  DataVault vault(&catalog);
  (void)vault.Attach(dir);
  (void)vault.GetRasterArray("scene_0");
  for (auto _ : state) {
    auto arr = vault.GetRasterArray("scene_0");
    benchmark::DoNotOptimize((*arr)->num_cells());
  }
}
BENCHMARK(BM_CachedTouch);

/// Single-band lazy ingestion (partial payload).
void BM_BandTouch(benchmark::State& state) {
  std::string dir = BuildArchive(4, 128);
  for (auto _ : state) {
    Catalog catalog;
    DataVault vault(&catalog);
    (void)vault.Attach(dir);
    auto arr = vault.GetBandArray("scene_1", "IR039");
    benchmark::DoNotOptimize((*arr)->num_cells());
  }
}
BENCHMARK(BM_BandTouch);

/// Eager ingestion under a periodic read-fault rate (arg = one injected
/// fault per N read ops; 0 = fault-free baseline), with the vault's
/// bounded retry absorbing the transients. Measures the robustness tax.
void BM_IngestWithFaultRate(benchmark::State& state) {
  std::string dir = BuildArchive(4, 128);
  teleios::io::PosixFileSystem posix;
  teleios::io::FaultInjectingFileSystem faulty(&posix);
  teleios::io::FileSystem* prev = teleios::io::SetFileSystem(&faulty);
  const uint64_t every_n = static_cast<uint64_t>(state.range(0));
  uint64_t faults = 0;
  uint64_t failed_runs = 0;
  for (auto _ : state) {
    teleios::io::FaultSpec spec;
    spec.kind = teleios::io::FaultKind::kIoError;
    spec.reads_only = true;
    spec.inject_at = every_n ? 1 : 0;
    spec.every_n = every_n;
    faulty.Arm(spec);
    Catalog catalog;
    DataVault vault(&catalog);
    teleios::io::RetryPolicy retry;
    retry.max_attempts = 3;
    vault.set_ingest_retry(retry);
    (void)vault.Attach(dir);
    if (!vault.IngestAll().ok()) ++failed_runs;
    faults += faulty.faults_injected();
    benchmark::DoNotOptimize(vault.stats().bytes_ingested);
  }
  faulty.Disarm();
  teleios::io::SetFileSystem(prev);
  state.counters["faults_per_iter"] =
      benchmark::Counter(static_cast<double>(faults),
                         benchmark::Counter::kAvgIterations);
  state.counters["failed_runs"] = static_cast<double>(failed_runs);
}
BENCHMARK(BM_IngestWithFaultRate)->Arg(0)->Arg(256)->Arg(64);

/// The checksum every verified read pays, per payload byte: the
/// dispatched kernel (the SSE4.2 instruction where the CPU has it)
/// against the portable table loop it falls back to.
void Crc32cOver(benchmark::State& state,
                uint32_t (*extend)(uint32_t, const void*, size_t)) {
  std::vector<uint8_t> data(static_cast<size_t>(state.range(0)));
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>(i * 2654435761u >> 13);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(extend(0, data.data(), data.size()));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
void BM_Crc32c(benchmark::State& state) {
  Crc32cOver(state, teleios::Crc32cExtend);
}
void BM_Crc32cPortable(benchmark::State& state) {
  Crc32cOver(state, teleios::Crc32cExtendPortable);
}
BENCHMARK(BM_Crc32c)->Arg(4096)->Arg(2 << 20);
BENCHMARK(BM_Crc32cPortable)->Arg(4096)->Arg(2 << 20);

}  // namespace
