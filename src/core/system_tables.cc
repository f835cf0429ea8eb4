#include "core/system_tables.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "exec/thread_pool.h"
#include "governor/circuit_breaker.h"
#include "governor/memory_budget.h"
#include "obs/event_log.h"
#include "obs/metrics.h"

namespace teleios::core {

using storage::ColumnType;
using storage::Schema;
using storage::Table;
using storage::TablePtr;

namespace {

const char* const kTableNames[] = {
    "sys.breakers", "sys.budgets", "sys.events",  "sys.metrics",
    "sys.pools",    "sys.queries", "sys.query_log", "sys.wal",
};

/// size_t byte counts surface as int64; kUnlimited becomes -1 so WHERE
/// clauses can tell "uncapped" from "huge".
int64_t BytesColumn(size_t bytes) {
  return bytes == governor::MemoryBudget::kUnlimited
             ? -1
             : static_cast<int64_t>(bytes);
}

TablePtr QueriesTable(const obs::ActiveQueryRegistry& registry) {
  auto table = std::make_shared<Table>(
      Schema({{"id", ColumnType::kInt64},
              {"tier", ColumnType::kString},
              {"statement", ColumnType::kString},
              {"state", ColumnType::kString},
              {"start_unix_millis", ColumnType::kInt64},
              {"queued_millis", ColumnType::kFloat64},
              {"elapsed_millis", ColumnType::kFloat64}}));
  for (const obs::ActiveQuery& q : registry.Active()) {
    table->column(0).AppendInt64(static_cast<int64_t>(q.id));
    table->column(1).AppendString(q.tier);
    table->column(2).AppendString(q.statement);
    table->column(3).AppendString(obs::QueryStateName(q.state));
    table->column(4).AppendInt64(q.start_unix_millis);
    table->column(5).AppendFloat64(q.queued_millis);
    table->column(6).AppendFloat64(q.elapsed_millis);
  }
  return table;
}

TablePtr QueryLogTable(const obs::ActiveQueryRegistry& registry) {
  auto table = std::make_shared<Table>(
      Schema({{"id", ColumnType::kInt64},
              {"tier", ColumnType::kString},
              {"statement", ColumnType::kString},
              {"status", ColumnType::kString},
              {"rows", ColumnType::kInt64},
              {"latency_millis", ColumnType::kFloat64},
              {"queued_millis", ColumnType::kFloat64},
              {"peak_budget_bytes", ColumnType::kInt64},
              {"end_unix_millis", ColumnType::kInt64},
              {"trace_json", ColumnType::kString}}));
  for (const obs::QueryCompletion& c : registry.Log()) {
    table->column(0).AppendInt64(static_cast<int64_t>(c.id));
    table->column(1).AppendString(c.tier);
    table->column(2).AppendString(c.statement);
    table->column(3).AppendString(c.status);
    table->column(4).AppendInt64(c.rows);
    table->column(5).AppendFloat64(c.latency_millis);
    table->column(6).AppendFloat64(c.queued_millis);
    table->column(7).AppendInt64(static_cast<int64_t>(c.peak_budget_bytes));
    table->column(8).AppendInt64(c.end_unix_millis);
    table->column(9).AppendString(c.trace_json);
  }
  return table;
}

TablePtr MetricsTable() {
  auto table = std::make_shared<Table>(Schema({{"name", ColumnType::kString},
                                               {"kind", ColumnType::kString},
                                               {"value",
                                                ColumnType::kFloat64}}));
  for (const obs::MetricSample& sample :
       obs::MetricsRegistry::Global().Samples()) {
    table->column(0).AppendString(sample.name);
    table->column(1).AppendString(sample.kind);
    table->column(2).AppendFloat64(sample.value);
  }
  return table;
}

TablePtr BudgetsTable() {
  auto table = std::make_shared<Table>(
      Schema({{"name", ColumnType::kString},
              {"parent", ColumnType::kString},
              {"limit_bytes", ColumnType::kInt64},
              {"used_bytes", ColumnType::kInt64},
              {"peak_bytes", ColumnType::kInt64}}));
  for (const governor::BudgetStats& b : governor::AllBudgetStats()) {
    table->column(0).AppendString(b.name);
    table->column(1).AppendString(b.parent);
    table->column(2).AppendInt64(BytesColumn(b.limit));
    table->column(3).AppendInt64(static_cast<int64_t>(b.used));
    table->column(4).AppendInt64(static_cast<int64_t>(b.peak));
  }
  return table;
}

TablePtr BreakersTable() {
  auto table = std::make_shared<Table>(Schema({{"name", ColumnType::kString},
                                               {"state", ColumnType::kString},
                                               {"trips",
                                                ColumnType::kInt64}}));
  for (const governor::BreakerStats& b : governor::AllBreakerStats()) {
    table->column(0).AppendString(b.name);
    table->column(1).AppendString(governor::CircuitBreaker::StateName(b.state));
    table->column(2).AppendInt64(static_cast<int64_t>(b.trips));
  }
  return table;
}

TablePtr PoolsTable() {
  auto table = std::make_shared<Table>(
      Schema({{"name", ColumnType::kString},
              {"workers", ColumnType::kInt64},
              {"parallelism", ColumnType::kInt64},
              {"queued", ColumnType::kInt64},
              {"busy", ColumnType::kInt64},
              {"tasks_total", ColumnType::kInt64}}));
  // The global pool runs every parallel operator's morsels, so its
  // health is what capacity questions ask about.
  exec::ThreadPool::Stats stats = exec::ThreadPool::Global().Snapshot();
  table->column(0).AppendString(stats.name);
  table->column(1).AppendInt64(stats.workers);
  table->column(2).AppendInt64(stats.parallelism);
  table->column(3).AppendInt64(static_cast<int64_t>(stats.queued));
  table->column(4).AppendInt64(stats.busy);
  table->column(5).AppendInt64(static_cast<int64_t>(stats.tasks_total));
  return table;
}

TablePtr EventsTable() {
  auto table = std::make_shared<Table>(
      Schema({{"unix_millis", ColumnType::kInt64},
              {"type", ColumnType::kString},
              {"json", ColumnType::kString}}));
  for (const obs::Event& event : obs::EventLog::Global().Snapshot()) {
    table->column(0).AppendInt64(event.unix_millis);
    table->column(1).AppendString(event.type);
    table->column(2).AppendString(event.ToJson());
  }
  return table;
}

TablePtr WalTable(DurabilityManager* durability) {
  auto table = std::make_shared<Table>(
      Schema({{"dir", ColumnType::kString},
              {"wal_bytes", ColumnType::kInt64},
              {"segment_seq", ColumnType::kInt64},
              {"last_lsn", ColumnType::kInt64},
              {"synced_lsn", ColumnType::kInt64},
              {"appends_total", ColumnType::kInt64},
              {"syncs_total", ColumnType::kInt64},
              {"rotations_total", ColumnType::kInt64},
              {"checkpoints_total", ColumnType::kInt64},
              {"checkpoint_lsn", ColumnType::kInt64},
              {"recovered", ColumnType::kInt64},
              {"recovery_records_replayed", ColumnType::kInt64},
              {"recovery_records_applied", ColumnType::kInt64},
              {"recovery_records_skipped", ColumnType::kInt64},
              {"recovery_tail_dropped", ColumnType::kInt64},
              {"recovery_replay_errors", ColumnType::kInt64}}));
  // One row per durable observatory; none when running in-memory only.
  if (durability == nullptr) return table;
  DurabilityStats stats = durability->stats();
  if (!stats.durable) return table;
  table->column(0).AppendString(durability->dir());
  table->column(1).AppendInt64(static_cast<int64_t>(stats.wal.total_bytes));
  table->column(2).AppendInt64(static_cast<int64_t>(stats.wal.segment_seq));
  table->column(3).AppendInt64(static_cast<int64_t>(stats.wal.last_lsn));
  table->column(4).AppendInt64(static_cast<int64_t>(stats.wal.synced_lsn));
  table->column(5).AppendInt64(static_cast<int64_t>(stats.wal.appends_total));
  table->column(6).AppendInt64(static_cast<int64_t>(stats.wal.syncs_total));
  table->column(7).AppendInt64(
      static_cast<int64_t>(stats.wal.rotations_total));
  table->column(8).AppendInt64(static_cast<int64_t>(stats.checkpoints));
  table->column(9).AppendInt64(static_cast<int64_t>(stats.checkpoint_lsn));
  table->column(10).AppendInt64(stats.recovery.recovered ? 1 : 0);
  table->column(11).AppendInt64(
      static_cast<int64_t>(stats.recovery.records_replayed));
  table->column(12).AppendInt64(
      static_cast<int64_t>(stats.recovery.records_applied));
  table->column(13).AppendInt64(
      static_cast<int64_t>(stats.recovery.records_skipped));
  table->column(14).AppendInt64(
      static_cast<int64_t>(stats.recovery.tail_records_dropped));
  table->column(15).AppendInt64(
      static_cast<int64_t>(stats.recovery.replay_errors));
  return table;
}

}  // namespace

bool SystemTables::Serves(const std::string& name) const {
  if (std::find(std::begin(kTableNames), std::end(kTableNames), name) !=
      std::end(kTableNames)) {
    return true;
  }
  return extra_ != nullptr && extra_->Serves(name);
}

std::vector<std::string> SystemTables::TableNames() const {
  std::vector<std::string> names(std::begin(kTableNames),
                                 std::end(kTableNames));
  if (extra_ != nullptr) {
    for (std::string& name : extra_->TableNames()) {
      names.push_back(std::move(name));
    }
  }
  return names;
}

Result<TablePtr> SystemTables::Materialize(const std::string& name) {
  if (name == "sys.queries") return QueriesTable(*registry_);
  if (name == "sys.query_log") return QueryLogTable(*registry_);
  if (name == "sys.metrics") return MetricsTable();
  if (name == "sys.budgets") return BudgetsTable();
  if (name == "sys.breakers") return BreakersTable();
  if (name == "sys.pools") return PoolsTable();
  if (name == "sys.events") return EventsTable();
  if (name == "sys.wal") return WalTable(durability_);
  if (extra_ != nullptr && extra_->Serves(name)) {
    return extra_->Materialize(name);
  }
  return Status::NotFound("no system table named '" + name + "'");
}

}  // namespace teleios::core
