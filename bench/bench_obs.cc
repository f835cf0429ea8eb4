// E16 — introspection overheads: what the query lifecycle ledger, the
// event ring, the trace export and a sys.* snapshot cost. The registry
// and event log sit on every governed statement's path, so their
// per-operation tax bounds how cheap a statement can ever be; the
// sys.queries materialization cost bounds how aggressively an operator
// can poll a live system. Run with --json to diff ns_per_op.

#include <benchmark/benchmark.h>

#include <string>
#include <utility>
#include <vector>

#include "core/observatory.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "obs/query_registry.h"
#include "obs/trace_export.h"

namespace {

namespace core = teleios::core;
namespace obs = teleios::obs;

/// The full ledger round trip every governed statement pays:
/// Start -> MarkRunning -> Finish (untraced).
void BM_RegistryLifecycle(benchmark::State& state) {
  obs::IntrospectionConfig config;
  config.slow_query_millis = -1;
  obs::ActiveQueryRegistry registry(config);
  for (auto _ : state) {
    obs::QueryGuard guard =
        registry.Start("bench", "SELECT 1", nullptr);
    registry.MarkRunning(guard, 0.0);
    registry.Finish(std::move(guard), teleios::StatusCode::kOk, 1, 0, "");
  }
  state.SetItemsProcessed(state.iterations());
}

/// One structured event into a private ring (no sink).
void BM_EventPost(benchmark::State& state) {
  obs::EventLog log(512);
  for (auto _ : state) {
    log.Post("bench.event", {{"id", "42"}, {"tier", "sql"}});
  }
  state.SetItemsProcessed(state.iterations());
}

/// Snapshotting sys.queries with state.range(0) statements in flight —
/// the cost an operator's monitoring poll imposes on the system.
void BM_ActiveSnapshot(benchmark::State& state) {
  obs::ActiveQueryRegistry registry;
  std::vector<obs::QueryGuard> live;
  for (int i = 0; i < state.range(0); ++i) {
    live.push_back(registry.Start(
        "bench", "SELECT x FROM t WHERE x > " + std::to_string(i), nullptr));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(registry.Active());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  for (obs::QueryGuard& guard : live) {
    registry.Finish(std::move(guard), teleios::StatusCode::kCancelled, -1, 0,
                    "");
  }
}

/// A governed SELECT over sys.queries through the facade — the
/// end-to-end price of one monitoring statement, parse to table.
void BM_SysQueriesThroughSql(benchmark::State& state) {
  core::VirtualEarthObservatory veo;
  for (auto _ : state) {
    auto r = veo.Sql("SELECT id, tier, state FROM sys.queries");
    benchmark::DoNotOptimize(r.ok());
  }
  state.SetItemsProcessed(state.iterations());
}

/// Builds a balanced span tree of state.range(0) nodes.
obs::SpanNode MakeTree(int nodes) {
  obs::SpanNode root;
  root.name = "root";
  root.millis = 10.0;
  root.attrs.emplace_back("status", "OK");
  int made = 1;
  for (int child = 0; made < nodes; ++child) {
    obs::SpanNode c;
    c.name = "child" + std::to_string(child);
    c.millis = 1.0;
    c.start_millis = child * 0.125;
    ++made;
    for (int leaf = 0; leaf < 3 && made < nodes; ++leaf, ++made) {
      obs::SpanNode l;
      l.name = "leaf" + std::to_string(leaf);
      l.millis = 0.25;
      c.children.push_back(std::move(l));
    }
    root.children.push_back(std::move(c));
  }
  return root;
}

/// Span tree -> Chrome trace-event JSON (the export every sampled or
/// PROFILEd statement pays at Finish).
void BM_TraceExport(benchmark::State& state) {
  obs::SpanNode tree = MakeTree(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(obs::ToChromeTraceJson(tree));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

/// Flattening every registry series into sys.metrics rows.
void BM_MetricsSamples(benchmark::State& state) {
  obs::MetricsRegistry registry;
  for (int i = 0; i < 64; ++i) {
    registry.GetCounter("bench_c" + std::to_string(i) + "_total")->Inc();
    registry.GetGauge("bench_g" + std::to_string(i))->Set(i);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(registry.Samples());
  }
  state.SetItemsProcessed(state.iterations() * 128);
}

BENCHMARK(BM_RegistryLifecycle);
BENCHMARK(BM_EventPost);
BENCHMARK(BM_ActiveSnapshot)->Arg(4)->Arg(64);
BENCHMARK(BM_SysQueriesThroughSql);
BENCHMARK(BM_TraceExport)->Arg(16)->Arg(256);
BENCHMARK(BM_MetricsSamples);

}  // namespace
