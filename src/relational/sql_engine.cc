#include "relational/sql_engine.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "relational/evaluator.h"
#include "relational/operators.h"
#include "relational/sql_planner.h"

namespace teleios::relational {

using storage::Column;
using storage::Field;
using storage::Schema;
using storage::Table;
using storage::TablePtr;

namespace {

Table AffectedRows(int64_t n) {
  Table t{Schema({{"affected", storage::ColumnType::kInt64}})};
  t.column(0).AppendInt64(n);
  return t;
}

/// The rows of `table` that `where` selects: the SELECT kernel, in the
/// same `filter` span.
Result<storage::SelectionVector> SelectRows(const Table& table,
                                            const ExprPtr& where) {
  obs::TraceSpan filter_span("filter");
  if (obs::TraceActive()) {
    filter_span.SetAttr("path", FilterPath(table, where));
  }
  TELEIOS_ASSIGN_OR_RETURN(storage::SelectionVector rows,
                           FilterIndices(table, where));
  filter_span.SetAttr("rows", std::to_string(rows.size()));
  return rows;
}

}  // namespace

Result<Statement> SqlEngine::Parse(const std::string& sql) {
  obs::TraceSpan parse_span("parse");
  return ParseSql(sql);
}

Result<Table> SqlEngine::Execute(const std::string& sql) {
  return Execute(Parse(sql));
}

Result<Table> SqlEngine::Execute(const Result<Statement>& parsed) {
  obs::Count("teleios_sql_statements_total");
  obs::TraceSpan statement_span("sql.statement",
                                obs::MetricsRegistry::Global().GetHistogram(
                                    "teleios_sql_execute_millis"));
  Result<Table> result =
      parsed.ok() ? ExecuteStatement(*parsed) : Result<Table>(parsed.status());
  if (result.ok()) {
    obs::Count("teleios_sql_result_rows_total", result->num_rows());
  } else {
    obs::Count(obs::WithLabel("teleios_sql_errors_total", "code",
                              StatusCodeName(result.status().code())));
  }
  return result;
}

Result<Table> SqlEngine::ExecuteStatement(const Statement& stmt) {
  if (const auto* select = std::get_if<SelectStatement>(&stmt)) {
    // Serve `sys.*` references through an overlay catalog: a cheap copy
    // of the base (shared table pointers) plus a fresh snapshot of every
    // served table this statement touches, materialized at execute time.
    if (virtual_tables_ != nullptr) {
      std::vector<const std::string*> names;
      names.push_back(&select->from.name);
      for (const JoinClause& join : select->joins) {
        names.push_back(&join.table.name);
      }
      storage::Catalog overlay;
      std::vector<std::string> materialized;
      for (const std::string* name : names) {
        if (!virtual_tables_->Serves(*name)) continue;
        if (materialized.empty()) overlay = *catalog_;
        if (std::find(materialized.begin(), materialized.end(), *name) !=
            materialized.end()) {
          continue;  // self-join: one snapshot per statement
        }
        TELEIOS_ASSIGN_OR_RETURN(TablePtr table,
                                 virtual_tables_->Materialize(*name));
        // The provider shadows any stored table of the same name.
        if (overlay.HasTable(*name)) {
          TELEIOS_RETURN_IF_ERROR(overlay.DropTable(*name));
        }
        TELEIOS_RETURN_IF_ERROR(overlay.CreateTable(*name, std::move(table)));
        materialized.push_back(*name);
      }
      if (!materialized.empty()) return ExecuteSelect(*select, overlay);
    }
    return ExecuteSelect(*select, *catalog_);  // emits its own execute span
  }
  obs::TraceSpan exec_span("execute");
  if (const auto* create = std::get_if<CreateTableStatement>(&stmt)) {
    auto table = std::make_shared<Table>(Schema(create->fields));
    TELEIOS_RETURN_IF_ERROR(catalog_->CreateTable(create->name, table));
    return AffectedRows(0);
  }
  if (const auto* drop = std::get_if<DropTableStatement>(&stmt)) {
    TELEIOS_RETURN_IF_ERROR(catalog_->DropTable(drop->name));
    return AffectedRows(0);
  }
  if (const auto* insert = std::get_if<InsertStatement>(&stmt)) {
    TELEIOS_ASSIGN_OR_RETURN(TablePtr table, catalog_->GetTable(insert->table));
    // Map provided column order to schema order.
    std::vector<int> slots;
    if (insert->columns.empty()) {
      for (size_t i = 0; i < table->num_columns(); ++i) {
        slots.push_back(static_cast<int>(i));
      }
    } else {
      for (const std::string& c : insert->columns) {
        int idx = table->schema().FieldIndex(c);
        if (idx < 0) return Status::NotFound("no column '" + c + "'");
        slots.push_back(idx);
      }
    }
    for (const auto& row_exprs : insert->rows) {
      if (row_exprs.size() != slots.size()) {
        return Status::InvalidArgument("INSERT arity mismatch");
      }
      std::vector<Value> row(table->num_columns());  // defaults to NULL
      for (size_t i = 0; i < slots.size(); ++i) {
        TELEIOS_ASSIGN_OR_RETURN(row[slots[i]],
                                 EvaluateConstant(row_exprs[i]));
      }
      TELEIOS_RETURN_IF_ERROR(table->AppendRow(row));
    }
    return AffectedRows(static_cast<int64_t>(insert->rows.size()));
  }
  if (const auto* del = std::get_if<DeleteStatement>(&stmt)) {
    TELEIOS_ASSIGN_OR_RETURN(TablePtr table, catalog_->GetTable(del->table));
    size_t removed = table->num_rows();  // no WHERE: every row
    storage::SelectionVector keep;       // the rows WHERE does not select
    if (del->where) {
      TELEIOS_ASSIGN_OR_RETURN(storage::SelectionVector hits,
                               SelectRows(*table, del->where));
      removed = hits.size();
      if (removed > 0) {
        keep.reserve(table->num_rows() - removed);
        auto hit = hits.begin();
        for (uint32_t r = 0; r < table->num_rows(); ++r) {
          if (hit != hits.end() && *hit == r) {
            ++hit;
          } else {
            keep.push_back(r);
          }
        }
      }
    }
    if (removed > 0) *table = table->Take(keep);
    return AffectedRows(static_cast<int64_t>(removed));
  }
  if (const auto* update = std::get_if<UpdateStatement>(&stmt)) {
    TELEIOS_ASSIGN_OR_RETURN(TablePtr table,
                             catalog_->GetTable(update->table));
    std::vector<Assignment> assignments;
    for (const auto& [col, expr] : update->assignments) {
      int idx = table->schema().FieldIndex(col);
      if (idx < 0) return Status::NotFound("no column '" + col + "'");
      assignments.push_back({static_cast<size_t>(idx), expr});
    }
    storage::SelectionVector hits;
    const storage::SelectionVector* rows = nullptr;  // every row
    if (update->where) {
      TELEIOS_ASSIGN_OR_RETURN(hits, SelectRows(*table, update->where));
      rows = &hits;
    }
    // The values go into copies of the columns; the table takes them only
    // once every value is written, so a failed UPDATE changes nothing.
    TELEIOS_ASSIGN_OR_RETURN(
        std::vector<Column> columns,
        SetAssignments(*table, rows, assignments, nullptr, table->columns()));
    for (const Assignment& a : assignments) {
      table->column(a.column) = columns[a.column];
    }
    return AffectedRows(static_cast<int64_t>(
        rows != nullptr ? hits.size() : table->num_rows()));
  }
  return Status::Internal("unhandled statement variant");
}

}  // namespace teleios::relational
