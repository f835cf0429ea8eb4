// E17 — durability overhead: what the write-ahead log costs per durable
// mutation. Shape to reproduce: per-record append+fsync latency is
// dominated by the fsync; batching appends under one sync (group
// commit) amortizes it almost linearly; replay on recovery is
// sequential-read fast (orders of magnitude above the append path); a
// facade write pays the same fsync when durable and microseconds of
// governance and apply either way.

#include <benchmark/benchmark.h>
#include <unistd.h>

#include <filesystem>
#include <string>

#include "core/observatory.h"
#include "io/filesystem.h"
#include "io/wal.h"

namespace {

namespace fs = std::filesystem;

using teleios::Status;
using teleios::io::ReplayWal;
using teleios::io::WalRecord;
using teleios::io::WalWriter;

std::string FreshDir(const std::string& tag) {
  std::string dir = (fs::temp_directory_path() /
                     ("teleios_bench_wal_" + tag + "_" +
                      std::to_string(::getpid())))
                        .string();
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::string Payload(size_t bytes) { return std::string(bytes, 'x'); }

/// One record per sync: the floor for acked-per-mutation durability.
void BM_AppendFsyncPerRecord(benchmark::State& state) {
  std::string dir = FreshDir("per_record");
  auto writer = WalWriter::Open(dir, 1, 0, {});
  std::string body = Payload(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(*(*writer)->Append(1, body));
    Status st = (*writer)->Sync();
    if (!st.ok()) state.SkipWithError(st.ToString().c_str());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
  (*writer).reset();
  fs::remove_all(dir);
}

/// Group commit: `range(0)` records buffered under one fsync.
void BM_GroupCommit(benchmark::State& state) {
  std::string dir = FreshDir("group");
  auto writer = WalWriter::Open(dir, 1, 0, {});
  std::string body = Payload(256);
  for (auto _ : state) {
    for (int64_t i = 0; i < state.range(0); ++i) {
      benchmark::DoNotOptimize(*(*writer)->Append(1, body));
    }
    Status st = (*writer)->Sync();
    if (!st.ok()) state.SkipWithError(st.ToString().c_str());
  }
  // Throughput in records, not bytes: the interesting ratio is records
  // acked per fsync.
  state.SetItemsProcessed(state.iterations() * state.range(0));
  (*writer).reset();
  fs::remove_all(dir);
}

/// Replay rate over a pre-built log of `range(0)` records.
void BM_Replay(benchmark::State& state) {
  std::string dir = FreshDir("replay");
  {
    auto writer = WalWriter::Open(dir, 1, 0, {});
    std::string body = Payload(256);
    for (int64_t i = 0; i < state.range(0); ++i) {
      (void)*(*writer)->Append(1, body);
    }
    (void)(*writer)->Sync();
  }
  for (auto _ : state) {
    uint64_t seen = 0;
    auto stats = ReplayWal(dir, [&](const WalRecord& r) {
      seen += r.payload.size();
      return teleios::Status::OK();
    });
    if (!stats.ok()) state.SkipWithError(stats.status().ToString().c_str());
    benchmark::DoNotOptimize(seen);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  fs::remove_all(dir);
}

/// One facade write end to end — facade, governor, commit, apply — as a
/// wire session sends it. range(0): 0 = a 4-row SQL INSERT, 1 = an
/// stSPARQL INSERT DATA of one hotspot; range(1): 0 = in memory,
/// 1 = durable (append + fsync per write, no automatic checkpoint).
void BM_FacadeWrite(benchmark::State& state) {
  const bool sparql = state.range(0) == 1;
  const bool durable = state.range(1) == 1;
  std::string dir = FreshDir("facade");
  {
    teleios::core::VirtualEarthObservatory veo;
    teleios::core::DurabilityOptions options;
    options.checkpoint_bytes = 0;
    if (durable && !veo.Open(dir, options).ok()) {
      state.SkipWithError("open failed");
    }
    if (!veo.Sql("CREATE TABLE w (id VARCHAR, t BIGINT, v DOUBLE)").ok()) {
      state.SkipWithError("create failed");
    }
    int64_t i = 0;
    for (auto _ : state) {
      const std::string n = std::to_string(++i);
      auto written =
          sparql ? veo.StSparql(
                       "INSERT DATA { noa:h" + n +
                       " a noa:Hotspot ; noa:hasGeometry \"POINT (21." + n +
                       " 37.5)\"^^strdf:WKT ; noa:hasConfidence 0.5 }")
                 : veo.Sql("INSERT INTO w VALUES ('a" + n + "', " + n +
                           ", 0.5), ('b" + n + "', " + n + ", 1.5), ('c" + n +
                           "', " + n + ", 2.5), ('d" + n + "', " + n +
                           ", 3.5)");
      if (!written.ok()) {
        state.SkipWithError(written.status().ToString().c_str());
        break;
      }
      benchmark::DoNotOptimize(written);
    }
  }
  fs::remove_all(dir);
}

}  // namespace

BENCHMARK(BM_FacadeWrite)
    ->Args({0, 0})
    ->Args({1, 0})
    ->Args({0, 1})
    ->Args({1, 1});
BENCHMARK(BM_AppendFsyncPerRecord)->Arg(64)->Arg(1024)->Arg(16384);
BENCHMARK(BM_GroupCommit)->Arg(1)->Arg(8)->Arg(64)->Arg(512);
BENCHMARK(BM_Replay)->Arg(1000)->Arg(10000);
