#include "sciql/sciql_engine.h"

#include <algorithm>
#include <sstream>

#include "array/array_ops.h"
#include "common/cancellation.h"
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

/// True when the statement names one of the first `num_dims` fields of
/// `cells` (the dimensions) — or selects `*` or joins, whose output
/// columns depend on every column of the source.
bool NeedsDimensions(const SelectStatement& stmt,
                     const storage::Schema& cells, int num_dims) {
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
  return std::any_of(refs.begin(), refs.end(), [&](const std::string& ref) {
    int field = relational::ResolveField(cells, ref);
    return field >= 0 && field < num_dims;
  });
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

std::vector<std::string> SciQlEngine::ArrayNames() const {
  ReaderMutexLock lock(arrays_mu_);
  std::vector<std::string> names;
  for (const auto& [name, _] : arrays_) names.push_back(name);
  return names;
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
    std::vector<governor::BudgetCharge>* charges,
    std::vector<std::string>* notes) {
  obs::TraceSpan span("materialize");
  span.SetAttr("array", ref.name);
  // The cells the statement reads: the slab's (enumerated only when it
  // is not the whole array), narrowed by the attribute-only conjuncts.
  // `all` stands for every cell in row-major order.
  std::string slab_text;
  bool all = true;
  SelectionVector cells;
  if (!ref.slab.empty()) {
    std::vector<Range> slab;
    for (const auto& [start, end] : ref.slab) {
      slab.push_back({start, end});
      slab_text += (slab_text.empty() ? "" : ", ") + std::to_string(start) +
                   ":" + std::to_string(end);
    }
    TELEIOS_ASSIGN_OR_RETURN(std::vector<array::Dimension> dims,
                             array::ClampSlab(arr, slab));
    size_t count = 1;
    for (const array::Dimension& d : dims) {
      count *= static_cast<size_t>(d.size);
    }
    if (count < arr.num_cells()) {
      TELEIOS_ASSIGN_OR_RETURN(
          governor::BudgetCharge charge,
          governor::ChargeCurrent(count * sizeof(uint32_t), "sciql slab cells"));
      charges->push_back(std::move(charge));
      cells = array::SlabCells(arr, dims);
      all = false;
    }
  }
  // The dims+attrs schema, with no rows: what the plan would bind to.
  const int num_dims = static_cast<int>(arr.num_dims());
  std::vector<storage::Field> fields;
  for (const array::Dimension& d : arr.dims()) {
    fields.push_back({d.name, ColumnType::kInt64});
  }
  for (size_t a = 0; a < arr.num_attributes(); ++a) {
    fields.push_back(arr.attribute(a));
  }
  const Table probe{storage::Schema(fields)};
  size_t prefiltered = 0;
  if (stmt.joins.empty() && stmt.where != nullptr) {
    ExprPtr pre =
        PrefilterConjuncts(stmt.where, probe, num_dims, &prefiltered);
    if (pre != nullptr) {
      Table attributes{storage::Schema(
          std::vector<storage::Field>(fields.begin() + num_dims, fields.end()))};
      for (size_t a = 0; a < arr.num_attributes(); ++a) {
        attributes.column(a) = arr.column(a);
      }
      // Tested the way the plan will test the whole WHERE, so the two
      // agree cell for cell (they differ on NaN).
      const SelectionVector* candidates = all ? nullptr : &cells;
      TELEIOS_ASSIGN_OR_RETURN(
          cells, relational::IsVectorizablePredicate(probe, stmt.where)
                     ? relational::FilterIndices(attributes, pre, candidates)
                     : relational::FilterIndicesInterpreted(attributes, pre,
                                                            candidates));
      all = all && cells.size() == arr.num_cells();
    }
  }
  // Build what the statement reads: dimension columns when it names one,
  // attributes gathered at the selected cells — or shared when no cell
  // was dropped.
  const bool dims = NeedsDimensions(stmt, probe.schema(), num_dims);
  const size_t rows = all ? arr.num_cells() : cells.size();
  const size_t built_columns =
      (dims ? arr.num_dims() : 0) + (all ? 0 : arr.num_attributes());
  // At most 8 bytes and a validity byte per built cell.
  TELEIOS_ASSIGN_OR_RETURN(
      governor::BudgetCharge charge,
      governor::ChargeCurrent(rows * built_columns * (sizeof(int64_t) + 1),
                              "sciql materialized cells"));
  charges->push_back(std::move(charge));
  if (!dims) fields.erase(fields.begin(), fields.begin() + num_dims);
  auto table = std::make_shared<Table>(storage::Schema(std::move(fields)));
  size_t col = 0;
  if (dims) {
    for (size_t d = 0; d < arr.num_dims(); ++d) {
      table->column(col++) = arr.Coordinates(d, all ? nullptr : &cells);
    }
  }
  for (size_t a = 0; a < arr.num_attributes(); ++a) {
    table->column(col++) = all ? arr.column(a) : arr.column(a).Take(cells);
  }
  const size_t built = dims || !all ? rows : 0;
  obs::Count("teleios_sciql_cells_materialized_total", built);
  span.SetAttr("cells", std::to_string(built));
  span.SetAttr("prefiltered", std::to_string(prefiltered));
  span.SetAttr("dimensions", dims ? "built" : "not referenced");
  if (notes != nullptr) {
    notes->push_back(
        "materialize array '" + ref.name + "'" +
        (slab_text.empty() ? std::string(" (full extent)")
                           : " slab [" + slab_text + "]") +
        " -> " + std::to_string(rows) + " cell rows (" +
        std::to_string(prefiltered) + " conjuncts pre-filtered; dimensions " +
        (dims ? "built" : "not referenced") + "; " +
        (all ? "attributes shared" : "attributes gathered") + ")");
  }
  return scratch->CreateTable(ref.name, std::move(table));
}

Status SciQlEngine::MaterializeSources(
    const SelectStatement& stmt, storage::Catalog* scratch,
    std::vector<governor::BudgetCharge>* charges,
    std::vector<std::string>* notes) {
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
      return MaterializeArray(stmt, ref, *arr, scratch, charges, notes);
    }
    if (!ref.slab.empty()) {
      return Status::InvalidArgument("slab on non-array '" + ref.name + "'");
    }
    if (virtual_tables_ != nullptr && virtual_tables_->Serves(ref.name)) {
      TELEIOS_ASSIGN_OR_RETURN(storage::TablePtr snapshot,
                               virtual_tables_->Materialize(ref.name));
      if (notes != nullptr) {
        notes->push_back("materialize virtual table '" + ref.name + "'");
      }
      return scratch->CreateTable(ref.name, std::move(snapshot));
    }
    if (tables_ != nullptr) {
      auto table = tables_->GetTable(ref.name);
      if (table.ok()) {
        if (notes != nullptr) {
          notes->push_back("pass through table '" + ref.name +
                           "' from the relational catalog");
        }
        return scratch->CreateTable(ref.name, *table);
      }
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
  TELEIOS_RETURN_IF_ERROR(MaterializeSources(stmt, &scratch, &charges, nullptr));
  return relational::ExecuteSelect(stmt, scratch);
}

Result<std::string> SciQlEngine::Explain(const std::string& statement) {
  TELEIOS_ASSIGN_OR_RETURN(SciQlStatement stmt, ParseSciQl(statement));
  const auto* select = std::get_if<SelectStatement>(&stmt);
  if (select == nullptr) {
    return Status::InvalidArgument("EXPLAIN supports SELECT only");
  }
  storage::Catalog scratch;
  std::vector<governor::BudgetCharge> charges;
  std::vector<std::string> notes;
  TELEIOS_RETURN_IF_ERROR(
      MaterializeSources(*select, &scratch, &charges, &notes));
  std::ostringstream os;
  for (const std::string& note : notes) os << note << "\n";
  os << "lowered relational plan:\n";
  TELEIOS_ASSIGN_OR_RETURN(std::string plan,
                           relational::ExplainSelect(*select, scratch));
  os << plan;
  return os.str();
}

Result<Table> SciQlEngine::ExecuteUpdate(const UpdateArrayStatement& stmt) {
  obs::TraceSpan exec_span("execute");
  exec_span.SetAttr("array", stmt.name);
  TELEIOS_ASSIGN_OR_RETURN(ArrayPtr arr, GetArray(stmt.name));
  if (!stmt.slab.empty() && stmt.slab.size() != arr->num_dims()) {
    return Status::InvalidArgument("slab arity mismatch");
  }
  // Resolve assignment targets.
  std::vector<int> targets;
  for (const auto& [col, _] : stmt.assignments) {
    int a = arr->AttributeIndex(col);
    if (a < 0) {
      return Status::NotFound("array '" + stmt.name +
                              "' has no attribute '" + col + "'");
    }
    targets.push_back(a);
  }
  // Cell resolver: dims + attributes by name.
  size_t cell = 0;
  std::vector<int64_t> coords(arr->num_dims());
  auto resolver = [&](const std::string& name) -> Result<Value> {
    int d = arr->DimensionIndex(name);
    if (d >= 0) return Value(coords[d]);
    int a = arr->AttributeIndex(name);
    if (a >= 0) return arr->GetLinear(cell, static_cast<size_t>(a));
    return Status::NotFound("unknown cell reference '" + name + "'");
  };
  // Every new value is evaluated and staged before any is written, so an
  // UPDATE that fails or is cancelled part-way changes nothing. The token
  // is polled every kPollCells cells; the staging is charged as it grows,
  // doubling from kPollCells cells.
  constexpr size_t kPollCells = 1024;
  const CancellationToken* cancel = CurrentCancel();
  const size_t width = targets.size();
  std::vector<uint32_t> staged_cells;
  std::vector<Value> staged;
  std::vector<governor::BudgetCharge> charges;
  size_t charged_cells = 0;
  for (cell = 0; cell < arr->num_cells(); ++cell) {
    if (cancel != nullptr && cell % kPollCells == 0) {
      TELEIOS_RETURN_IF_ERROR(cancel->Check());
    }
    coords = arr->CoordsOf(cell);
    bool in_slab = true;
    for (size_t d = 0; d < stmt.slab.size(); ++d) {
      if (coords[d] < stmt.slab[d].first || coords[d] >= stmt.slab[d].second) {
        in_slab = false;
        break;
      }
    }
    if (!in_slab) continue;
    if (stmt.where) {
      TELEIOS_ASSIGN_OR_RETURN(Value cond,
                               relational::Evaluate(stmt.where, resolver));
      if (!cond.Truthy()) continue;
    }
    if (staged_cells.size() == charged_cells) {
      size_t more = std::max<size_t>(charged_cells, kPollCells);
      TELEIOS_ASSIGN_OR_RETURN(
          governor::BudgetCharge charge,
          governor::ChargeCurrent(
              more * (sizeof(uint32_t) + width * sizeof(Value)),
              "sciql update staged values"));
      charges.push_back(std::move(charge));
      charged_cells += more;
    }
    // All right-hand sides see the old cells (simultaneous update).
    staged_cells.push_back(static_cast<uint32_t>(cell));
    for (const auto& [_, expr] : stmt.assignments) {
      TELEIOS_ASSIGN_OR_RETURN(Value v, relational::Evaluate(expr, resolver));
      staged.push_back(std::move(v));
    }
  }
  for (size_t i = 0; i < staged_cells.size(); ++i) {
    for (size_t t = 0; t < width; ++t) {
      TELEIOS_RETURN_IF_ERROR(arr->SetLinear(staged_cells[i],
                                             static_cast<size_t>(targets[t]),
                                             staged[i * width + t]));
    }
  }
  return AffectedRows(static_cast<int64_t>(staged_cells.size()));
}

}  // namespace teleios::sciql
