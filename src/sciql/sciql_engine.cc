#include "sciql/sciql_engine.h"

#include <algorithm>

#include "array/array_ops.h"
#include "common/strings.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "relational/evaluator.h"
#include "relational/operators.h"
#include "relational/sql_planner.h"

namespace teleios::sciql {

using array::Array;
using array::ArrayPtr;
using array::Range;
using relational::ExprPtr;
using relational::SelectStatement;
using storage::ColumnType;
using storage::SelectionVector;
using storage::Table;

namespace {

Table AffectedRows(int64_t n) {
  Table t{storage::Schema({{"affected", ColumnType::kInt64}})};
  t.column(0).AppendInt64(n);
  return t;
}

/// True when every column `expr` references binds in `schema` at a field
/// index >= `first`.
bool BindsFrom(const ExprPtr& expr, const storage::Schema& schema,
               int first) {
  std::vector<std::string> refs;
  relational::CollectColumnRefs(expr, &refs);
  for (const std::string& ref : refs) {
    if (relational::ResolveField(schema, ref) < first) return false;
  }
  return true;
}

/// True when one of `refs` names a dimension of `arr`.
bool NamesADimension(const std::vector<std::string>& refs, const Array& arr) {
  const storage::Schema cells = arr.CellSchema();
  return std::any_of(refs.begin(), refs.end(), [&](const std::string& ref) {
    int field = relational::ResolveField(cells, ref);
    return field >= 0 && field < static_cast<int>(arr.num_dims());
  });
}

/// True when the statement names a dimension of `arr` — or selects `*` or
/// joins, whose output columns depend on every column of the source.
bool NeedsDimensions(const SelectStatement& stmt, const Array& arr) {
  if (!stmt.joins.empty()) return true;
  std::vector<std::string> refs;
  for (const relational::SelectItem& item : stmt.items) {
    if (item.is_star) return true;
    relational::CollectColumnRefs(item.expr, &refs);
  }
  relational::CollectColumnRefs(stmt.where, &refs);
  for (const ExprPtr& g : stmt.group_by) relational::CollectColumnRefs(g, &refs);
  relational::CollectColumnRefs(stmt.having, &refs);
  for (const relational::OrderItem& o : stmt.order_by) refs.push_back(o.column);
  return NamesADimension(refs, arr);
}

/// The cells of an array a statement reads: their linear ids, ascending,
/// or every cell in row-major order when `all`.
struct Cells {
  bool all = true;
  SelectionVector ids;
};

/// The cells of `slab` (every cell when it is empty); the ids are
/// enumerated, and charged through `charges`, only when the slab is not
/// the whole array. ClampSlab's errors: InvalidArgument on an arity
/// mismatch, OutOfRange when the slab misses the array.
Result<Cells> CellsOfSlab(
    const Array& arr, const std::vector<std::pair<int64_t, int64_t>>& slab,
    std::vector<governor::BudgetCharge>* charges) {
  Cells cells;
  if (slab.empty()) return cells;
  std::vector<Range> ranges;
  for (const auto& [start, end] : slab) ranges.push_back({start, end});
  TELEIOS_ASSIGN_OR_RETURN(std::vector<array::Dimension> dims,
                           array::ClampSlab(arr, ranges));
  size_t count = 1;
  for (const array::Dimension& d : dims) count *= static_cast<size_t>(d.size);
  if (count < arr.num_cells()) {
    TELEIOS_ASSIGN_OR_RETURN(
        governor::BudgetCharge charge,
        governor::ChargeCurrent(count * sizeof(uint32_t), "sciql slab cells"));
    charges->push_back(std::move(charge));
    cells.ids = array::SlabCells(arr, dims);
    cells.all = false;
  }
  return cells;
}

/// The table of `cells`: a BIGINT column per dimension when `dims`, then
/// the attributes gathered at the cells — or shared when `all`. What it
/// builds is charged through `charges` and counted in
/// teleios_sciql_cells_materialized_total.
Result<Table> CellTable(const Array& arr, const Cells& cells, bool dims,
                        std::vector<governor::BudgetCharge>* charges) {
  const size_t rows = cells.all ? arr.num_cells() : cells.ids.size();
  const size_t built_columns =
      (dims ? arr.num_dims() : 0) + (cells.all ? 0 : arr.num_attributes());
  // At most 8 bytes and a validity byte per built cell.
  TELEIOS_ASSIGN_OR_RETURN(
      governor::BudgetCharge charge,
      governor::ChargeCurrent(rows * built_columns * (sizeof(int64_t) + 1),
                              "sciql materialized cells"));
  charges->push_back(std::move(charge));
  std::vector<storage::Field> fields = arr.CellSchema().fields();
  if (!dims) fields.erase(fields.begin(), fields.begin() + arr.num_dims());
  Table table{storage::Schema(std::move(fields))};
  const SelectionVector* ids = cells.all ? nullptr : &cells.ids;
  size_t col = 0;
  for (size_t d = 0; dims && d < arr.num_dims(); ++d) {
    table.column(col++) = arr.Coordinates(d, ids);
  }
  for (size_t a = 0; a < arr.num_attributes(); ++a) {
    table.column(col++) =
        cells.all ? arr.column(a) : arr.column(a).Take(cells.ids);
  }
  obs::Count("teleios_sciql_cells_materialized_total",
             dims || !cells.all ? rows : 0);
  return table;
}

/// The WHERE conjuncts of a single-source SELECT that can run on the
/// array's attribute columns before any cell is materialized, AND-ed in
/// their original order (null when there are none). The relational plan
/// re-applies the whole WHERE, so the pre-filter only has to drop no row
/// the WHERE keeps and fail exactly when the WHERE would: `where` is
/// evaluated left to right with short-circuit AND, so a conjunct joins
/// when it references attributes only and every conjunct before it either
/// joined or can never fail (it compiles to a vectorized comparison) — and
/// a conjunct that can fail joins only behind an unbroken run of joined
/// ones. `cells` is the dims+attrs schema with no rows.
ExprPtr PrefilterConjuncts(const ExprPtr& where, const Table& cells,
                           int num_dims, size_t* count) {
  *count = 0;
  // A WHERE that does not bind fails in the plan before any row is
  // tested; evaluating part of it first could fail differently.
  if (!BindsFrom(where, cells.schema(), 0)) return nullptr;
  std::vector<ExprPtr> conjuncts;
  relational::SplitConjuncts(where, &conjuncts);
  std::vector<ExprPtr> joined;
  bool gap = false;        // a conjunct before this one stayed behind
  bool risky_gap = false;  // ...and it can fail
  for (const ExprPtr& c : conjuncts) {
    bool safe = relational::IsVectorizablePredicate(cells, c);
    if (BindsFrom(c, cells.schema(), num_dims) && !risky_gap &&
        (!gap || safe)) {
      joined.push_back(c);
      continue;
    }
    gap = true;
    risky_gap = risky_gap || !safe;
  }
  *count = joined.size();
  return relational::AndTogether(joined);
}

}  // namespace

Status SciQlEngine::RegisterArray(ArrayPtr array) {
  WriterMutexLock lock(arrays_mu_);
  if (arrays_.count(array->name())) {
    return Status::AlreadyExists("array '" + array->name() +
                                 "' already exists");
  }
  arrays_[array->name()] = std::move(array);
  return Status::OK();
}

Result<ArrayPtr> SciQlEngine::GetArray(const std::string& name) const {
  ReaderMutexLock lock(arrays_mu_);
  auto it = arrays_.find(name);
  if (it == arrays_.end()) {
    return Status::NotFound("array '" + name + "' does not exist");
  }
  return it->second;
}

bool SciQlEngine::HasArray(const std::string& name) const {
  ReaderMutexLock lock(arrays_mu_);
  return arrays_.count(name) > 0;
}

Status SciQlEngine::DropArray(const std::string& name) {
  WriterMutexLock lock(arrays_mu_);
  if (!arrays_.erase(name)) {
    return Status::NotFound("array '" + name + "' does not exist");
  }
  return Status::OK();
}

Result<Table> SciQlEngine::Execute(const std::string& statement) {
  obs::Count("teleios_sciql_statements_total");
  obs::TraceSpan statement_span("sciql.statement",
                                obs::MetricsRegistry::Global().GetHistogram(
                                    "teleios_sciql_execute_millis"));
  Result<Table> result = ParseAndExecute(statement);
  if (result.ok()) {
    obs::Count("teleios_sciql_result_rows_total", result->num_rows());
  } else {
    obs::Count(obs::WithLabel("teleios_sciql_errors_total", "code",
                              StatusCodeName(result.status().code())));
  }
  return result;
}

Result<Table> SciQlEngine::ParseAndExecute(const std::string& statement) {
  SciQlStatement stmt;
  {
    obs::TraceSpan parse_span("parse");
    TELEIOS_ASSIGN_OR_RETURN(stmt, ParseSciQl(statement));
  }
  if (const auto* create = std::get_if<CreateArrayStatement>(&stmt)) {
    TELEIOS_ASSIGN_OR_RETURN(
        ArrayPtr arr, Array::Create(create->name, create->dims,
                                    create->attributes, create->defaults));
    TELEIOS_RETURN_IF_ERROR(RegisterArray(std::move(arr)));
    return AffectedRows(0);
  }
  if (const auto* drop = std::get_if<DropArrayStatement>(&stmt)) {
    TELEIOS_RETURN_IF_ERROR(DropArray(drop->name));
    return AffectedRows(0);
  }
  if (const auto* update = std::get_if<UpdateArrayStatement>(&stmt)) {
    return ExecuteUpdate(*update);
  }
  return ExecuteSelect(std::get<SelectStatement>(stmt));
}

Status SciQlEngine::MaterializeArray(
    const SelectStatement& stmt, const relational::TableRef& ref,
    const Array& arr, storage::Catalog* scratch,
    std::vector<governor::BudgetCharge>* charges) {
  obs::TraceSpan span("materialize");
  span.SetAttr("array", ref.name);
  // The cells the statement reads: the slab's, narrowed by the
  // attribute-only conjuncts.
  TELEIOS_ASSIGN_OR_RETURN(Cells cells, CellsOfSlab(arr, ref.slab, charges));
  const int num_dims = static_cast<int>(arr.num_dims());
  // The dims+attrs schema, with no rows: what the plan would bind to.
  const Table probe{arr.CellSchema()};
  size_t prefiltered = 0;
  if (stmt.joins.empty() && stmt.where != nullptr) {
    ExprPtr pre =
        PrefilterConjuncts(stmt.where, probe, num_dims, &prefiltered);
    if (pre != nullptr) {
      TELEIOS_ASSIGN_OR_RETURN(Table attributes,
                               CellTable(arr, Cells{}, false, charges));
      const SelectionVector* candidates = cells.all ? nullptr : &cells.ids;
      TELEIOS_ASSIGN_OR_RETURN(
          cells.ids, relational::FilterIndices(attributes, pre, candidates));
      cells.all = cells.all && cells.ids.size() == arr.num_cells();
    }
  }
  // Build what the statement reads: dimension columns when it names one,
  // attributes gathered at the selected cells — or shared when no cell
  // was dropped.
  const bool dims = NeedsDimensions(stmt, arr);
  TELEIOS_ASSIGN_OR_RETURN(Table table, CellTable(arr, cells, dims, charges));
  span.SetAttr("cells",
               std::to_string(dims || !cells.all ? table.num_rows() : 0));
  span.SetAttr("prefiltered", std::to_string(prefiltered));
  span.SetAttr("dimensions", dims ? "built" : "not referenced");
  return scratch->CreateTable(ref.name,
                              std::make_shared<Table>(std::move(table)));
}

Status SciQlEngine::MaterializeSources(
    const SelectStatement& stmt, storage::Catalog* scratch,
    std::vector<governor::BudgetCharge>* charges) {
  // Referenced arrays become dims+attrs tables (late: see
  // MaterializeArray); plain tables pass through from the relational
  // catalog.
  auto add_source = [&](const relational::TableRef& ref) -> Status {
    if (scratch->HasTable(ref.name)) return Status::OK();
    ArrayPtr arr;
    {
      ReaderMutexLock lock(arrays_mu_);
      auto it = arrays_.find(ref.name);
      if (it != arrays_.end()) arr = it->second;
    }
    if (arr != nullptr) {
      return MaterializeArray(stmt, ref, *arr, scratch, charges);
    }
    if (!ref.slab.empty()) {
      return Status::InvalidArgument("slab on non-array '" + ref.name + "'");
    }
    if (virtual_tables_ != nullptr && virtual_tables_->Serves(ref.name)) {
      TELEIOS_ASSIGN_OR_RETURN(storage::TablePtr snapshot,
                               virtual_tables_->Materialize(ref.name));
      return scratch->CreateTable(ref.name, std::move(snapshot));
    }
    if (tables_ != nullptr) {
      auto table = tables_->GetTable(ref.name);
      if (table.ok()) return scratch->CreateTable(ref.name, *table);
    }
    return Status::NotFound("no array or table named '" + ref.name + "'");
  };
  TELEIOS_RETURN_IF_ERROR(add_source(stmt.from));
  for (const auto& join : stmt.joins) {
    TELEIOS_RETURN_IF_ERROR(add_source(join.table));
  }
  return Status::OK();
}

Result<Table> SciQlEngine::ExecuteSelect(const SelectStatement& stmt) {
  storage::Catalog scratch;
  // What materialization built stays charged until the statement ends.
  std::vector<governor::BudgetCharge> charges;
  TELEIOS_RETURN_IF_ERROR(MaterializeSources(stmt, &scratch, &charges));
  return relational::ExecuteSelect(stmt, scratch);
}

Result<Table> SciQlEngine::ExecuteUpdate(const UpdateArrayStatement& stmt) {
  obs::TraceSpan exec_span("execute");
  exec_span.SetAttr("array", stmt.name);
  TELEIOS_ASSIGN_OR_RETURN(ArrayPtr arr, GetArray(stmt.name));
  if (!stmt.slab.empty() && stmt.slab.size() != arr->num_dims()) {
    return Status::InvalidArgument("slab arity mismatch");
  }
  std::vector<relational::Assignment> assignments;
  std::vector<std::string> refs;
  relational::CollectColumnRefs(stmt.where, &refs);
  for (const auto& [col, expr] : stmt.assignments) {
    int a = arr->AttributeIndex(col);
    if (a < 0) {
      return Status::NotFound("array '" + stmt.name +
                              "' has no attribute '" + col + "'");
    }
    assignments.push_back({static_cast<size_t>(a), expr});
    relational::CollectColumnRefs(expr, &refs);
  }
  // The cells are built as a SELECT of the slab builds them, so the two
  // agree on which cells a WHERE names. A slab that misses the array
  // names no cell (a SELECT of it is OutOfRange).
  std::vector<governor::BudgetCharge> charges;
  Result<Cells> cells = CellsOfSlab(*arr, stmt.slab, &charges);
  if (cells.status().code() == StatusCode::kOutOfRange) return AffectedRows(0);
  TELEIOS_RETURN_IF_ERROR(cells.status());
  const bool dims = NamesADimension(refs, *arr);
  Table table;
  {
    obs::TraceSpan span("materialize");
    TELEIOS_ASSIGN_OR_RETURN(table, CellTable(*arr, *cells, dims, &charges));
    span.SetAttr("dimensions", dims ? "built" : "not referenced");
  }
  SelectionVector hits;
  const SelectionVector* rows = nullptr;  // every cell of the slab
  if (stmt.where != nullptr) {
    obs::TraceSpan filter_span("filter");
    if (obs::TraceActive()) {
      filter_span.SetAttr("path", relational::FilterPath(table, stmt.where));
    }
    TELEIOS_ASSIGN_OR_RETURN(hits,
                             relational::FilterIndices(table, stmt.where));
    filter_span.SetAttr("rows", std::to_string(hits.size()));
    rows = &hits;
  }
  // The values go into copies of the attribute columns — row r of the
  // table at cell r, or at cell ids[r] when the slab listed them — which
  // replace the array's only once every value is written: a failed UPDATE
  // changes nothing.
  TELEIOS_ASSIGN_OR_RETURN(
      std::vector<storage::Column> columns,
      relational::SetAssignments(table, rows, assignments,
                                 cells->all ? nullptr : &cells->ids,
                                 arr->columns()));
  TELEIOS_RETURN_IF_ERROR(arr->ReplaceColumns(std::move(columns)));
  return AffectedRows(
      static_cast<int64_t>(rows != nullptr ? hits.size() : table.num_rows()));
}

}  // namespace teleios::sciql
