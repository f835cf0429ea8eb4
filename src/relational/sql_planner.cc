#include "relational/sql_planner.h"

#include <algorithm>
#include <functional>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace teleios::relational {

using storage::Table;

namespace {

/// Strips a "qualifier." prefix.
std::string BareName(const std::string& name) {
  size_t dot = name.find('.');
  return dot == std::string::npos ? name : name.substr(dot + 1);
}

/// Qualifier part of a column ref, or "".
std::string Qualifier(const std::string& name) {
  size_t dot = name.find('.');
  return dot == std::string::npos ? std::string() : name.substr(0, dot);
}

/// True if every column referenced by `expr` exists in `schema` and any
/// qualifier matches `names` (table name or alias).
bool ResolvableAgainst(const ExprPtr& expr, const storage::Schema& schema,
                       const std::vector<std::string>& names) {
  std::vector<std::string> cols;
  CollectColumnRefs(expr, &cols);
  for (const std::string& c : cols) {
    std::string q = Qualifier(c);
    if (!q.empty() &&
        std::find(names.begin(), names.end(), q) == names.end()) {
      return false;
    }
    if (schema.FieldIndex(BareName(c)) < 0 && schema.FieldIndex(c) < 0) {
      return false;
    }
  }
  return true;
}

struct JoinKeys {
  std::vector<std::string> left;
  std::vector<std::string> right;
  std::vector<ExprPtr> residue;  // non-equality conditions
};

/// Decomposes an ON condition into equality key pairs between the two
/// sides plus residue.
JoinKeys DecomposeJoinCondition(const ExprPtr& cond,
                                const storage::Schema& left_schema,
                                const storage::Schema& right_schema) {
  JoinKeys keys;
  std::vector<ExprPtr> conjuncts;
  SplitConjuncts(cond, &conjuncts);
  for (const ExprPtr& c : conjuncts) {
    if (c->kind == ExprKind::kBinary && c->binary_op == BinaryOp::kEq &&
        c->children[0]->kind == ExprKind::kColumnRef &&
        c->children[1]->kind == ExprKind::kColumnRef) {
      std::string a = BareName(c->children[0]->column);
      std::string b = BareName(c->children[1]->column);
      if (left_schema.FieldIndex(a) >= 0 && right_schema.FieldIndex(b) >= 0) {
        keys.left.push_back(a);
        keys.right.push_back(b);
        continue;
      }
      if (left_schema.FieldIndex(b) >= 0 && right_schema.FieldIndex(a) >= 0) {
        keys.left.push_back(b);
        keys.right.push_back(a);
        continue;
      }
    }
    keys.residue.push_back(c);
  }
  return keys;
}

/// Rewrites every occurrence of subtree `target` (matched structurally via
/// ToString) with a column reference to `alias`.
ExprPtr RewriteSubtree(const ExprPtr& expr, const std::string& target_str,
                       const std::string& alias) {
  if (expr->ToString() == target_str) return Expr::ColumnRef(alias);
  if (expr->children.empty()) return expr;
  auto copy = std::make_shared<Expr>(*expr);
  for (ExprPtr& c : copy->children) {
    c = RewriteSubtree(c, target_str, alias);
  }
  return copy;
}

Result<Table> RunSelect(const SelectStatement& stmt,
                        const storage::Catalog& catalog) {
  std::vector<ExprPtr> conjuncts;
  {
    obs::TraceSpan plan_span("plan");
    if (stmt.where) SplitConjuncts(stmt.where, &conjuncts);
    plan_span.SetAttr("conjuncts", std::to_string(conjuncts.size()));
    plan_span.SetAttr("joins", std::to_string(stmt.joins.size()));
  }

  // --- FROM + pushdown + joins -------------------------------------------
  // Catalog tables are read in place: every operator reads its input and
  // writes a new table, so operator outputs are the only copies made.
  auto scan = [&](const std::string& name) -> Result<storage::TablePtr> {
    obs::TraceSpan scan_span("scan");
    scan_span.SetAttr("table", name);
    TELEIOS_ASSIGN_OR_RETURN(storage::TablePtr table, catalog.GetTable(name));
    scan_span.SetAttr("rows", std::to_string(table->num_rows()));
    obs::Count("teleios_relational_scans_total");
    return table;
  };
  auto filter = [&](const Table& input, const ExprPtr& predicate,
                    const char* side) -> Result<Table> {
    obs::TraceSpan filter_span("filter");
    if (side != nullptr) filter_span.SetAttr("side", side);
    if (obs::TraceActive()) {
      filter_span.SetAttr("path", FilterPath(input, predicate));
    }
    TELEIOS_ASSIGN_OR_RETURN(Table out, Filter(input, predicate));
    filter_span.SetAttr("rows", std::to_string(out.num_rows()));
    return out;
  };
  // Removes and returns the conjuncts that only reference `schema`.
  auto take_pushable = [&](const storage::Schema& schema,
                           const std::vector<std::string>& names) {
    std::vector<ExprPtr> pushed;
    std::vector<ExprPtr> rest;
    for (const ExprPtr& c : conjuncts) {
      (ResolvableAgainst(c, schema, names) ? pushed : rest).push_back(c);
    }
    conjuncts = std::move(rest);
    return pushed;
  };

  TELEIOS_ASSIGN_OR_RETURN(storage::TablePtr base_ptr, scan(stmt.from.name));
  const Table* current = base_ptr.get();
  Table owned;  // the latest operator output once `current` points here
  auto produce = [&](Table t) {
    owned = std::move(t);
    current = &owned;
  };
  if (!stmt.joins.empty()) {
    std::vector<std::string> left_names = {stmt.from.name};
    if (!stmt.from.alias.empty()) left_names.push_back(stmt.from.alias);
    std::vector<ExprPtr> pushed = take_pushable(current->schema(), left_names);
    if (!pushed.empty()) {
      TELEIOS_ASSIGN_OR_RETURN(Table left,
                               filter(*current, AndTogether(pushed), "left"));
      produce(std::move(left));
    }
    for (const JoinClause& join : stmt.joins) {
      TELEIOS_ASSIGN_OR_RETURN(storage::TablePtr right_ptr,
                               scan(join.table.name));
      const Table* right = right_ptr.get();
      Table right_filtered;
      std::vector<std::string> right_names = {join.table.name};
      if (!join.table.alias.empty()) right_names.push_back(join.table.alias);
      // Push right-side conjuncts below inner joins; below a left outer
      // join they would drop rows the join must keep NULL-extended.
      if (join.type == JoinType::kInner) {
        pushed = take_pushable(right->schema(), right_names);
        if (!pushed.empty()) {
          TELEIOS_ASSIGN_OR_RETURN(
              right_filtered, filter(*right, AndTogether(pushed), "right"));
          right = &right_filtered;
        }
      }
      JoinKeys keys = DecomposeJoinCondition(join.condition, current->schema(),
                                             right->schema());
      if (keys.left.empty()) {
        return Status::Unimplemented(
            "join requires at least one equality condition between the two "
            "tables: " +
            join.condition->ToString());
      }
      {
        obs::TraceSpan join_span("hash join");
        join_span.SetAttr("right", join.table.name);
        TELEIOS_ASSIGN_OR_RETURN(
            Table joined,
            HashJoin(*current, *right, keys.left, keys.right, join.type));
        join_span.SetAttr("rows", std::to_string(joined.num_rows()));
        produce(std::move(joined));
      }
      if (!keys.residue.empty()) {
        TELEIOS_ASSIGN_OR_RETURN(
            Table residual,
            filter(*current, AndTogether(keys.residue), "residue"));
        produce(std::move(residual));
      }
      left_names.insert(left_names.end(), right_names.begin(),
                        right_names.end());
    }
  }
  if (!conjuncts.empty()) {
    TELEIOS_ASSIGN_OR_RETURN(
        Table filtered, filter(*current, AndTogether(conjuncts), nullptr));
    produce(std::move(filtered));
  }

  // --- aggregation or plain projection -----------------------------------
  bool has_aggregate =
      !stmt.group_by.empty() ||
      std::any_of(stmt.items.begin(), stmt.items.end(),
                  [](const SelectItem& it) {
                    return !it.is_star && ContainsAggregate(it.expr);
                  });

  Table output;
  auto project = [&](const Table& input,
                     const std::vector<ProjectItem>& items) -> Result<Table> {
    obs::TraceSpan project_span("project");
    project_span.SetAttr("columns", std::to_string(items.size()));
    return ProjectCompute(input, items);
  };
  if (has_aggregate) {
    // Materialize non-trivial group expressions as columns.
    std::vector<std::string> group_names;
    {
      std::vector<ProjectItem> pre;
      for (size_t c = 0; c < current->num_columns(); ++c) {
        const std::string& name = current->schema().field(c).name;
        pre.push_back({Expr::ColumnRef(name), name});
      }
      int gi = 0;
      for (const ExprPtr& g : stmt.group_by) {
        if (g->kind == ExprKind::kColumnRef) {
          group_names.push_back(BareName(g->column));
        } else {
          std::string name = "_g" + std::to_string(gi++);
          pre.push_back({g, name});
          group_names.push_back(name);
        }
      }
      if (gi > 0) {
        TELEIOS_ASSIGN_OR_RETURN(Table grouped, project(*current, pre));
        produce(std::move(grouped));
      }
    }
    // Select items: group columns or aggregate calls.
    std::vector<AggregateItem> aggs;
    struct OutputItem {
      bool from_group;
      std::string name;   // group column or aggregate alias
      std::string alias;  // output name
    };
    std::vector<OutputItem> outputs;
    for (const SelectItem& item : stmt.items) {
      if (item.is_star) {
        return Status::InvalidArgument("SELECT * with GROUP BY");
      }
      if (ContainsAggregate(item.expr)) {
        if (item.expr->kind != ExprKind::kFunction ||
            !IsAggregateFunction(item.expr->function)) {
          return Status::Unimplemented(
              "aggregate must be a direct function call: " +
              item.expr->ToString());
        }
        AggregateItem agg;
        agg.function = item.expr->function;
        agg.argument =
            item.expr->children.empty() ? nullptr : item.expr->children[0];
        agg.alias = item.alias;
        aggs.push_back(agg);
        outputs.push_back({false, item.alias, item.alias});
      } else {
        // Must match a group expression.
        std::string bare = item.expr->kind == ExprKind::kColumnRef
                               ? BareName(item.expr->column)
                               : item.expr->ToString();
        auto it = std::find(group_names.begin(), group_names.end(), bare);
        if (it == group_names.end()) {
          // Try structural match against the original group expressions.
          bool found = false;
          for (size_t g = 0; g < stmt.group_by.size(); ++g) {
            if (stmt.group_by[g]->ToString() == item.expr->ToString()) {
              bare = group_names[g];
              found = true;
              break;
            }
          }
          if (!found) {
            return Status::InvalidArgument(
                "non-aggregate select item not in GROUP BY: " +
                item.expr->ToString());
          }
        }
        outputs.push_back({true, bare, item.alias});
      }
    }
    // HAVING may reference aggregates; materialize them too.
    ExprPtr having = stmt.having;
    if (having) {
      std::vector<ExprPtr> agg_calls;
      std::function<void(const ExprPtr&)> collect = [&](const ExprPtr& e) {
        if (e->kind == ExprKind::kFunction && IsAggregateFunction(e->function)) {
          agg_calls.push_back(e);
          return;
        }
        for (const ExprPtr& c : e->children) collect(c);
      };
      collect(having);
      for (const ExprPtr& call : agg_calls) {
        std::string call_str = call->ToString();
        // Reuse an existing aggregate when the select list already has it.
        std::string alias;
        for (size_t i = 0; i < stmt.items.size(); ++i) {
          if (!stmt.items[i].is_star &&
              stmt.items[i].expr->ToString() == call_str) {
            alias = stmt.items[i].alias;
            break;
          }
        }
        if (alias.empty()) {
          alias = "_h" + std::to_string(aggs.size());
          AggregateItem agg;
          agg.function = call->function;
          agg.argument = call->children.empty() ? nullptr : call->children[0];
          agg.alias = alias;
          aggs.push_back(agg);
        }
        having = RewriteSubtree(having, call_str, alias);
      }
    }
    Table agg_out;
    {
      obs::TraceSpan agg_span("aggregate");
      TELEIOS_ASSIGN_OR_RETURN(agg_out,
                               GroupAggregate(*current, group_names, aggs));
      agg_span.SetAttr("groups", std::to_string(agg_out.num_rows()));
    }
    if (having) {
      TELEIOS_ASSIGN_OR_RETURN(agg_out, filter(agg_out, having, "having"));
    }
    // Final projection to requested output order / names.
    std::vector<ProjectItem> proj;
    for (const OutputItem& o : outputs) {
      proj.push_back({Expr::ColumnRef(o.name), o.alias});
    }
    TELEIOS_ASSIGN_OR_RETURN(output, project(agg_out, proj));
  } else if (stmt.items.size() == 1 && stmt.items[0].is_star) {
    obs::TraceSpan project_span("project");
    output = *current;
  } else {
    std::vector<ProjectItem> proj;
    for (const SelectItem& item : stmt.items) {
      if (item.is_star) {
        for (size_t c = 0; c < current->num_columns(); ++c) {
          const std::string& name = current->schema().field(c).name;
          proj.push_back({Expr::ColumnRef(name), name});
        }
      } else {
        proj.push_back({item.expr, item.alias});
      }
    }
    TELEIOS_ASSIGN_OR_RETURN(output, project(*current, proj));
  }

  if (stmt.distinct) {
    obs::TraceSpan distinct_span("distinct");
    TELEIOS_ASSIGN_OR_RETURN(output, Distinct(output));
    distinct_span.SetAttr("rows", std::to_string(output.num_rows()));
  }
  if (!stmt.order_by.empty()) {
    std::vector<SortKey> keys;
    for (const OrderItem& o : stmt.order_by) {
      keys.push_back({o.column, o.descending});
    }
    obs::TraceSpan sort_span("sort");
    TELEIOS_ASSIGN_OR_RETURN(output, Sort(output, keys));
  }
  if (stmt.limit >= 0 || stmt.offset > 0) {
    size_t limit = stmt.limit >= 0 ? static_cast<size_t>(stmt.limit)
                                   : output.num_rows();
    obs::TraceSpan limit_span("limit");
    output = Limit(output, limit, static_cast<size_t>(stmt.offset));
  }
  return output;
}

}  // namespace

Result<Table> ExecuteSelect(const SelectStatement& stmt,
                            const storage::Catalog& catalog) {
  obs::TraceSpan exec_span("execute");
  Result<Table> result = RunSelect(stmt, catalog);
  if (result.ok()) {
    exec_span.SetAttr("rows", std::to_string(result->num_rows()));
    obs::Count("teleios_relational_rows_emitted_total", result->num_rows());
  }
  return result;
}

}  // namespace teleios::relational
