// E18 — network service layer: what the wire adds on top of in-process
// execution. A connections × pipelining sweep (1/8/64 connections, 1/4
// in-flight statements each) over loopback measures burst round-trip
// percentiles (p50/p95/p99, reported as counters) and streamed-row
// throughput, bounding the protocol tax: framing + CRC, session
// accounting, budget-charged chunking, and the thread-per-connection
// handoff. Run with --json to diff ns_per_op across changes.
//
// BM_ServerRoundTrip is the fixed cost of one statement on one idle
// connection: a PING round trip, and a 1-row SQL SELECT over the wire
// next to the same SELECT through the in-process facade.
//
// E20 — the retry tax: BM_ServerFaultRate runs the same streamed query
// through a ResilientClient while the fault-injecting transport kills
// every N-th transport op (cells N = 0/32/128/512; 0 = clean wire).
// p50 shows the fault-free fast path is untouched; p95/p99 absorb the
// reconnect + replay cost. `--fault-rate=N` (consumed by bench_main,
// exported as TELEIOS_BENCH_FAULT_RATE) overrides N in every cell.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/observatory.h"
#include "governor/admission.h"
#include "server/client.h"
#include "server/fault_transport.h"
#include "server/resilient_client.h"
#include "server/server.h"
#include "server/transport.h"
#include "storage/table.h"

namespace {

namespace core = teleios::core;
namespace server = teleios::server;
namespace storage = teleios::storage;

constexpr size_t kRowsPerQuery = 256;

/// p-th percentile (nearest-rank) of an unsorted sample, in the
/// sample's unit.
double Percentile(std::vector<double> sample, double p) {
  if (sample.empty()) return 0;
  std::sort(sample.begin(), sample.end());
  size_t rank = static_cast<size_t>(p * static_cast<double>(sample.size()));
  return sample[std::min(rank, sample.size() - 1)];
}

/// One sweep cell: `connections` persistent clients, each sending
/// `in_flight` pipelined QUERYs per round and draining the streamed
/// results. One benchmark iteration is one such round across all
/// connections, so ns_per_op reads as round latency; per-burst
/// round-trips feed the percentile counters.
void BM_ServerSweep(benchmark::State& state) {
  const int connections = static_cast<int>(state.range(0));
  const int in_flight = static_cast<int>(state.range(1));

  core::VirtualEarthObservatory veo;
  auto table = std::make_shared<storage::Table>(
      storage::Schema({{"x", storage::ColumnType::kInt64}}));
  for (size_t i = 0; i < kRowsPerQuery; ++i) {
    table->column(0).AppendInt64(static_cast<int64_t>(i));
  }
  if (!veo.catalog().CreateTable("bench_rows", table).ok()) {
    state.SkipWithError("CreateTable failed");
    return;
  }
  teleios::governor::AdmissionConfig admission;
  admission.max_concurrent = 16;
  admission.max_queue = 512;
  veo.SetAdmissionConfig(admission);

  server::ServerConfig config;
  config.port = 0;
  config.max_sessions = connections + 8;
  config.chunk_rows = 128;
  server::TeleiosServer srv(&veo, config);
  if (!srv.Start().ok()) {
    state.SkipWithError("server Start failed");
    return;
  }

  std::vector<server::Client> clients;
  clients.reserve(static_cast<size_t>(connections));
  for (int i = 0; i < connections; ++i) {
    auto client = server::Client::Connect("127.0.0.1", srv.port());
    if (!client.ok()) {
      state.SkipWithError("client Connect failed");
      (void)srv.Shutdown();
      return;
    }
    clients.push_back(std::move(client).value());
  }

  const std::string query = "SELECT x FROM bench_rows";

  // Round barrier: the measured thread bumps `generation`, every worker
  // runs one burst, the last one done wakes the measurer.
  std::mutex mu;
  std::condition_variable cv;
  uint64_t generation = 0;
  int done = 0;
  bool quit = false;
  std::atomic<uint64_t> rows_streamed{0};
  std::atomic<bool> failed{false};
  std::mutex lat_mu;
  std::vector<double> burst_micros;

  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(connections));
  for (int c = 0; c < connections; ++c) {
    workers.emplace_back([&, c] {
      uint64_t seen = 0;
      for (;;) {
        {
          std::unique_lock<std::mutex> lock(mu);
          cv.wait(lock, [&] { return quit || generation != seen; });
          if (quit) return;
          seen = generation;
        }
        auto start = std::chrono::steady_clock::now();
        bool burst_ok = true;
        for (int q = 0; q < in_flight && burst_ok; ++q) {
          burst_ok = clients[c].SendQuery(server::Lang::kSql, query).ok();
        }
        for (int q = 0; q < in_flight && burst_ok; ++q) {
          auto result = clients[c].ReadResult();
          burst_ok = result.ok();
          if (burst_ok) rows_streamed += result->num_rows();
        }
        if (!burst_ok) failed = true;
        double micros = std::chrono::duration<double, std::micro>(
                            std::chrono::steady_clock::now() - start)
                            .count();
        {
          std::lock_guard<std::mutex> lock(lat_mu);
          burst_micros.push_back(micros);
        }
        {
          std::lock_guard<std::mutex> lock(mu);
          if (++done == connections) cv.notify_all();
        }
      }
    });
  }

  for (auto _ : state) {
    {
      std::lock_guard<std::mutex> lock(mu);
      done = 0;
      ++generation;
    }
    cv.notify_all();
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return done == connections; });
  }

  {
    std::lock_guard<std::mutex> lock(mu);
    quit = true;
  }
  cv.notify_all();
  for (std::thread& t : workers) t.join();
  for (server::Client& client : clients) (void)client.Goodbye();
  if (failed) state.SkipWithError("a burst failed mid-benchmark");
  if (!srv.Shutdown().ok()) state.SkipWithError("Shutdown failed");

  state.SetItemsProcessed(state.iterations() * connections * in_flight);
  state.counters["rtt_p50_us"] = Percentile(burst_micros, 0.50);
  state.counters["rtt_p95_us"] = Percentile(burst_micros, 0.95);
  state.counters["rtt_p99_us"] = Percentile(burst_micros, 0.99);
  state.counters["rows_per_s"] = benchmark::Counter(
      static_cast<double>(rows_streamed.load()), benchmark::Counter::kIsRate);
}

BENCHMARK(BM_ServerSweep)
    ->ArgNames({"conns", "inflight"})
    ->Args({1, 1})
    ->Args({1, 4})
    ->Args({8, 1})
    ->Args({8, 4})
    ->Args({64, 1})
    ->Args({64, 4})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/// One statement at a time on one connection: range(0) = 0 round-trips a
/// PING, 1 a SELECT that answers one row. For the SELECT, `facade_p50_us`
/// is the same statement through the in-process facade, so `rtt_p50_us`
/// minus it is what the wire adds.
void BM_ServerRoundTrip(benchmark::State& state) {
  const bool select = state.range(0) == 1;
  core::VirtualEarthObservatory veo;
  auto table = std::make_shared<storage::Table>(
      storage::Schema({{"x", storage::ColumnType::kInt64}}));
  for (size_t i = 0; i < kRowsPerQuery; ++i) {
    table->column(0).AppendInt64(static_cast<int64_t>(i));
  }
  if (!veo.catalog().CreateTable("bench_rows", table).ok()) {
    state.SkipWithError("CreateTable failed");
    return;
  }
  server::ServerConfig config;
  config.port = 0;
  server::TeleiosServer srv(&veo, config);
  if (!srv.Start().ok()) {
    state.SkipWithError("server Start failed");
    return;
  }
  auto client = server::Client::Connect("127.0.0.1", srv.port());
  if (!client.ok()) {
    state.SkipWithError("client Connect failed");
    (void)srv.Shutdown();
    return;
  }

  const std::string query = "SELECT x FROM bench_rows WHERE x = 7";
  auto micros_since = [](std::chrono::steady_clock::time_point start) {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - start)
        .count();
  };
  std::vector<double> rtt_micros;
  bool failed = false;
  for (auto _ : state) {
    auto start = std::chrono::steady_clock::now();
    if (select) {
      auto result = client->Query(server::Lang::kSql, query);
      failed = !result.ok() || result->num_rows() != 1;
    } else {
      failed = !client->Ping().ok();
    }
    rtt_micros.push_back(micros_since(start));
    if (failed) break;
  }
  if (select && !failed) {
    std::vector<double> facade_micros;
    for (int i = 0; i < 2000 && !failed; ++i) {
      auto start = std::chrono::steady_clock::now();
      failed = !veo.Sql(query).ok();
      facade_micros.push_back(micros_since(start));
    }
    state.counters["facade_p50_us"] = Percentile(facade_micros, 0.50);
  }
  (void)client->Goodbye();
  if (failed) state.SkipWithError("a round trip failed");
  if (!srv.Shutdown().ok()) state.SkipWithError("Shutdown failed");
  state.counters["rtt_p50_us"] = Percentile(rtt_micros, 0.50);
  state.counters["rtt_p99_us"] = Percentile(rtt_micros, 0.99);
}

BENCHMARK(BM_ServerRoundTrip)
    ->ArgName("select")
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();

/// One resilient client querying through a transport that injects a
/// disconnect every `every_n` ops (state.range(0); 0 disables). Each
/// iteration is one streamed SELECT; per-query round-trips feed the
/// percentile counters, and the client's own telemetry reports the
/// retry/reconnect cost the faults induced.
void BM_ServerFaultRate(benchmark::State& state) {
  uint64_t every_n = static_cast<uint64_t>(state.range(0));
  if (const char* override_rate = std::getenv("TELEIOS_BENCH_FAULT_RATE")) {
    every_n = static_cast<uint64_t>(std::strtoull(override_rate, nullptr, 10));
  }

  core::VirtualEarthObservatory veo;
  auto table = std::make_shared<storage::Table>(
      storage::Schema({{"x", storage::ColumnType::kInt64}}));
  for (size_t i = 0; i < kRowsPerQuery; ++i) {
    table->column(0).AppendInt64(static_cast<int64_t>(i));
  }
  if (!veo.catalog().CreateTable("bench_rows", table).ok()) {
    state.SkipWithError("CreateTable failed");
    return;
  }
  teleios::governor::AdmissionConfig admission;
  admission.max_concurrent = 16;
  admission.max_queue = 512;
  veo.SetAdmissionConfig(admission);

  server::ServerConfig config;
  config.port = 0;
  config.max_sessions = 8;
  config.chunk_rows = 128;
  server::TeleiosServer srv(&veo, config);
  if (!srv.Start().ok()) {
    state.SkipWithError("server Start failed");
    return;
  }

  // Installed after Start so only client-side ops (connect, handshake,
  // query write, stream reads) are faulted; the server keeps its real
  // listener. The period must exceed one query's op cost (~10) or no
  // retry could ever finish.
  server::FaultInjectingTransport faulty;
  server::ScopedTransport scope(&faulty);
  if (every_n > 0) {
    server::TransportFaultSpec spec;
    spec.kind = server::TransportFaultKind::kDisconnect;
    spec.inject_at = every_n;
    spec.every_n = every_n;
    faulty.Arm(spec);
  }

  server::ResilientClientOptions options;
  options.retry.max_attempts = 8;
  options.retry.base_backoff_ms = 1;
  options.retry.max_backoff_ms = 10;
  options.retry.jitter_seed = 7;
  server::ResilientClient client("127.0.0.1", srv.port(), options);

  const std::string query = "SELECT x FROM bench_rows";
  std::vector<double> query_micros;
  uint64_t rows_streamed = 0;
  bool failed = false;
  for (auto _ : state) {
    auto start = std::chrono::steady_clock::now();
    auto result = client.Query(server::Lang::kSql, query);
    double micros = std::chrono::duration<double, std::micro>(
                        std::chrono::steady_clock::now() - start)
                        .count();
    if (!result.ok()) {
      failed = true;
      break;
    }
    rows_streamed += result->num_rows();
    query_micros.push_back(micros);
  }

  faulty.Disarm();
  (void)client.Goodbye();
  if (failed) state.SkipWithError("a query exhausted its retries");
  if (!srv.Shutdown().ok()) state.SkipWithError("Shutdown failed");

  state.SetItemsProcessed(state.iterations());
  state.counters["rtt_p50_us"] = Percentile(query_micros, 0.50);
  state.counters["rtt_p95_us"] = Percentile(query_micros, 0.95);
  state.counters["rtt_p99_us"] = Percentile(query_micros, 0.99);
  state.counters["retries"] = static_cast<double>(client.retries());
  state.counters["reconnects"] = static_cast<double>(client.reconnects());
  state.counters["faults"] = static_cast<double>(faulty.faults_injected());
  state.counters["rows_per_s"] = benchmark::Counter(
      static_cast<double>(rows_streamed), benchmark::Counter::kIsRate);
}

BENCHMARK(BM_ServerFaultRate)
    ->ArgName("every_n")
    ->Arg(0)
    ->Arg(32)
    ->Arg(128)
    ->Arg(512)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace
