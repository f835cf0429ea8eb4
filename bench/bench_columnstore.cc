// E10 — column-store substrate characterization: scan, selection,
// hash join, group-aggregate throughput and the effect of dictionary
// encoding on string columns. These are the MonetDB-style primitives the
// entire TELEIOS database tier sits on.

#include <benchmark/benchmark.h>

#include <memory>

#include "relational/sql_engine.h"
#include "storage/catalog.h"

namespace {

using teleios::Value;
using teleios::storage::Catalog;
using teleios::storage::Column;
using teleios::storage::ColumnType;
using teleios::storage::Schema;
using teleios::storage::Table;
using teleios::storage::TablePtr;

/// Deterministic observation table: id, station (8 distinct), temp.
TablePtr MakeObservations(int64_t rows) {
  auto table = std::make_shared<Table>(
      Schema({{"id", ColumnType::kInt64},
              {"station", ColumnType::kString},
              {"temp", ColumnType::kFloat64}}));
  static const char* kStations[] = {"athens", "sparta",   "patras",
                                    "argos",  "tripoli",  "kalamata",
                                    "corinth", "nafplio"};
  for (int64_t i = 0; i < rows; ++i) {
    table->column(0).AppendInt64(i);
    table->column(1).AppendString(kStations[i % 8]);
    table->column(2).AppendFloat64(280.0 + static_cast<double>((i * 37) % 600) / 10.0);
  }
  return table;
}

void BM_ScanSum(benchmark::State& state) {
  TablePtr table = MakeObservations(state.range(0));
  const Column& temp = table->column(2);
  for (auto _ : state) {
    double sum = 0;
    const auto& data = temp.doubles();
    for (double v : data) sum += v;
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ScanSum)->Arg(10000)->Arg(100000)->Arg(1000000);

void BM_SqlSelection(benchmark::State& state) {
  Catalog catalog;
  (void)catalog.CreateTable("obs", MakeObservations(state.range(0)));
  teleios::relational::SqlEngine engine(&catalog);
  for (auto _ : state) {
    auto r = engine.Execute("SELECT id FROM obs WHERE temp > 330.0");
    benchmark::DoNotOptimize(r->num_rows());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SqlSelection)->Arg(10000)->Arg(100000);

void BM_SqlAggregate(benchmark::State& state) {
  Catalog catalog;
  (void)catalog.CreateTable("obs", MakeObservations(state.range(0)));
  teleios::relational::SqlEngine engine(&catalog);
  for (auto _ : state) {
    auto r = engine.Execute(
        "SELECT station, avg(temp) AS t, count(*) AS n FROM obs GROUP BY "
        "station");
    benchmark::DoNotOptimize(r->num_rows());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SqlAggregate)->Arg(10000)->Arg(100000);

void BM_SqlJoin(benchmark::State& state) {
  Catalog catalog;
  (void)catalog.CreateTable("obs", MakeObservations(state.range(0)));
  auto stations = std::make_shared<Table>(
      Schema({{"station", ColumnType::kString},
              {"region", ColumnType::kString}}));
  static const char* kStations[] = {"athens", "sparta",   "patras",
                                    "argos",  "tripoli",  "kalamata",
                                    "corinth", "nafplio"};
  for (const char* s : kStations) {
    stations->column(0).AppendString(s);
    stations->column(1).AppendString("peloponnese");
  }
  (void)catalog.CreateTable("stations", stations);
  teleios::relational::SqlEngine engine(&catalog);
  for (auto _ : state) {
    auto r = engine.Execute(
        "SELECT region, count(*) AS n FROM obs JOIN stations ON "
        "obs.station = stations.station GROUP BY region");
    benchmark::DoNotOptimize(r->num_rows());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SqlJoin)->Arg(10000)->Arg(100000);

/// The write path: one UPDATE and one DELETE against a 5-column table,
/// selected with the SELECT kernel. The UPDATE changes one row (the
/// "SELECT id FROM obs WHERE id = 4242" of the same WHERE is its read
/// twin); the DELETE matches no row.
TablePtr MakeWideObservations(int64_t rows) {
  TablePtr table = MakeObservations(rows);
  Column quality(ColumnType::kInt64);
  Column valid(ColumnType::kBool);
  for (int64_t i = 0; i < rows; ++i) {
    quality.AppendInt64(i % 5);
    valid.AppendBool(i % 3 != 0);
  }
  table->AddColumn("quality", std::move(quality));
  table->AddColumn("valid", std::move(valid));
  return table;
}

void BM_SqlUpdateOneRow(benchmark::State& state) {
  Catalog catalog;
  (void)catalog.CreateTable("obs", MakeWideObservations(state.range(0)));
  teleios::relational::SqlEngine engine(&catalog);
  for (auto _ : state) {
    auto r = engine.Execute("UPDATE obs SET temp = temp + 1 WHERE id = 4242");
    benchmark::DoNotOptimize(r->num_rows());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SqlUpdateOneRow)->Arg(100000);

void BM_SqlDeleteNone(benchmark::State& state) {
  Catalog catalog;
  (void)catalog.CreateTable("obs", MakeWideObservations(state.range(0)));
  teleios::relational::SqlEngine engine(&catalog);
  for (auto _ : state) {
    auto r = engine.Execute("DELETE FROM obs WHERE id < 0");
    benchmark::DoNotOptimize(r->num_rows());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SqlDeleteNone)->Arg(100000);

/// An IN list over a string-id table, through the engine: the read-back a
/// durable_writes cycle runs after its INSERT. The four literals compile
/// to one dictionary-code set tested per row.
void BM_SqlInList(benchmark::State& state) {
  const int64_t rows = state.range(0);
  auto products = std::make_shared<Table>(Schema(
      {{"id", ColumnType::kString}, {"acq_time", ColumnType::kInt64}}));
  for (int64_t i = 0; i < rows; ++i) {
    products->column(0).AppendString("P" + std::to_string(i));
    products->column(1).AppendInt64(1188036000 + i * 900);
  }
  Catalog catalog;
  (void)catalog.CreateTable("products", products);
  teleios::relational::SqlEngine engine(&catalog);
  std::string in_list;
  for (int64_t k = 1; k <= 4; ++k) {
    in_list += (k > 1 ? ", 'P" : "'P") + std::to_string(rows * k / 5) + "'";
  }
  const std::string sql =
      "SELECT id, acq_time FROM products WHERE id IN (" + in_list + ")";
  for (auto _ : state) {
    auto r = engine.Execute(sql);
    benchmark::DoNotOptimize(r->num_rows());
  }
  state.SetItemsProcessed(state.iterations() * rows);
}
BENCHMARK(BM_SqlInList)->Arg(4000)->Arg(100000);

/// Dictionary encoding: append throughput and memory for low-cardinality
/// strings vs unique strings.
void BM_DictionaryEncodedAppend(benchmark::State& state) {
  bool low_cardinality = state.range(0) == 1;
  for (auto _ : state) {
    Column col(ColumnType::kString);
    for (int i = 0; i < 50000; ++i) {
      col.AppendString(low_cardinality
                           ? "station_" + std::to_string(i % 16)
                           : "station_" + std::to_string(i));
    }
    state.counters["dict_entries"] =
        static_cast<double>(col.dict().size());
    state.counters["mem_bytes"] = static_cast<double>(col.MemoryUsage());
    benchmark::DoNotOptimize(col.size());
  }
  state.SetItemsProcessed(state.iterations() * 50000);
}
BENCHMARK(BM_DictionaryEncodedAppend)
    ->Arg(1)   // low cardinality: dictionary pays off
    ->Arg(0);  // unique strings: dictionary overhead visible

/// Vectorized-selection ablation (the MonetDB-style design choice): the
/// same predicate through the vectorized path vs the row-wise
/// interpreter.
void BM_FilterVectorized(benchmark::State& state) {
  TablePtr table = MakeObservations(state.range(0));
  auto pred = teleios::relational::Expr::Binary(
      teleios::relational::BinaryOp::kAnd,
      teleios::relational::Expr::Binary(
          teleios::relational::BinaryOp::kGt,
          teleios::relational::Expr::ColumnRef("temp"),
          teleios::relational::Expr::Literal(Value(330.0))),
      teleios::relational::Expr::Binary(
          teleios::relational::BinaryOp::kEq,
          teleios::relational::Expr::ColumnRef("station"),
          teleios::relational::Expr::Literal(Value("sparta"))));
  for (auto _ : state) {
    auto sel = teleios::relational::FilterIndices(*table, pred);
    benchmark::DoNotOptimize(sel->size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FilterVectorized)->Arg(100000)->Arg(1000000);

void BM_FilterInterpreted(benchmark::State& state) {
  TablePtr table = MakeObservations(state.range(0));
  auto pred = teleios::relational::Expr::Binary(
      teleios::relational::BinaryOp::kAnd,
      teleios::relational::Expr::Binary(
          teleios::relational::BinaryOp::kGt,
          teleios::relational::Expr::ColumnRef("temp"),
          teleios::relational::Expr::Literal(Value(330.0))),
      teleios::relational::Expr::Binary(
          teleios::relational::BinaryOp::kEq,
          teleios::relational::Expr::ColumnRef("station"),
          teleios::relational::Expr::Literal(Value("sparta"))));
  for (auto _ : state) {
    auto sel =
        teleios::relational::FilterIndicesInterpreted(*table, pred);
    benchmark::DoNotOptimize(sel->size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FilterInterpreted)->Arg(100000)->Arg(1000000);

/// Predicate pushdown ablation (DESIGN.md design-choice bench): the same
/// join query with selective filter, measured against the planner that
/// pushes it below the join. Both run through the engine; the "nopush"
/// variant simulates no pushdown by filtering after a cross-ish join via
/// a post-hoc HAVING-style filter.
void BM_JoinWithPushdown(benchmark::State& state) {
  Catalog catalog;
  (void)catalog.CreateTable("obs", MakeObservations(100000));
  auto tags = std::make_shared<Table>(Schema({{"id", ColumnType::kInt64},
                                              {"tag", ColumnType::kString}}));
  for (int64_t i = 0; i < 100000; i += 10) {
    tags->column(0).AppendInt64(i);
    tags->column(1).AppendString(i % 20 == 0 ? "hot" : "cold");
  }
  (void)catalog.CreateTable("tags", tags);
  teleios::relational::SqlEngine engine(&catalog);
  for (auto _ : state) {
    // temp > 339 is ~1% selective and pushed below the join.
    auto r = engine.Execute(
        "SELECT tag, count(*) AS n FROM obs JOIN tags ON obs.id = tags.id "
        "WHERE temp > 339.0 GROUP BY tag");
    benchmark::DoNotOptimize(r->num_rows());
  }
}
BENCHMARK(BM_JoinWithPushdown);

}  // namespace
