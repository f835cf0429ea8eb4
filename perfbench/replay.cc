#include "replay.h"

#include <variant>

#include "relational/operators.h"
#include "relational/sql_engine.h"
#include "relational/sql_parser.h"
#include "sciql/sciql_parser.h"
#include "strabon/sparql_parser.h"

namespace perfbench {

namespace relational = teleios::relational;
using storage::Table;

namespace {

std::string Unqualified(const std::string& column) {
  size_t dot = column.rfind('.');
  return dot == std::string::npos ? column : column.substr(dot + 1);
}

/// The top-level conjuncts of `e`.
void Conjuncts(const relational::ExprPtr& e,
               std::vector<relational::ExprPtr>* out) {
  if (e->kind == relational::ExprKind::kBinary &&
      e->binary_op == relational::BinaryOp::kAnd) {
    for (const relational::ExprPtr& c : e->children) Conjuncts(c, out);
    return;
  }
  out->push_back(e);
}

/// True when every column `e` names is qualified with `table`.
bool OnlyOn(const relational::ExprPtr& e, const std::string& table) {
  if (e->kind == relational::ExprKind::kColumnRef) {
    return e->column.rfind(table + ".", 0) == 0;
  }
  for (const relational::ExprPtr& c : e->children) {
    if (!OnlyOn(c, table)) return false;
  }
  return true;
}

/// The SQL operators a SELECT of the benchmark's shapes runs, called
/// directly on the catalog tables: filter + take, filter + group
/// aggregate, or the WHERE conjuncts of each side pushed below a hash
/// join on the ON equality, as the engine plans it.
void ReplayOperators(World& w, const relational::SelectStatement& select,
                     Tracer* tr, uint64_t request, uint64_t parent) {
  storage::TablePtr base =
      Must(w.veo->catalog().GetTable(select.from.name), "replay table");
  Timed(tr, "storage.table_copy", parent, request, nullptr, [&] {
    Table copy = *base;
    return copy.num_rows();
  });
  if (!select.joins.empty()) {
    const relational::JoinClause& join = select.joins[0];
    storage::TablePtr right =
        Must(w.veo->catalog().GetTable(join.table.name), "replay join table");
    const relational::ExprPtr& on = join.condition;
    if (on == nullptr || on->children.size() != 2) return;
    std::string lk = Unqualified(on->children[0]->column);
    std::string rk = Unqualified(on->children[1]->column);
    if (base->schema().FieldIndex(lk) < 0) std::swap(lk, rk);
    std::vector<relational::ExprPtr> conjuncts;
    if (select.where != nullptr) Conjuncts(select.where, &conjuncts);
    auto pushed_down = [&](const Table& table, const std::string& name) {
      relational::ExprPtr pred;
      for (const relational::ExprPtr& c : conjuncts) {
        if (!OnlyOn(c, name)) continue;
        pred = pred == nullptr ? c
                               : relational::Expr::Binary(
                                     relational::BinaryOp::kAnd, pred, c);
      }
      if (pred == nullptr) return table;
      return Timed(tr, "relational.filter", parent, request, nullptr, [&] {
        return Must(relational::Filter(table, pred), "replay join filter");
      });
    };
    Table left = pushed_down(*base, select.from.name);
    Table right_rows = pushed_down(*right, join.table.name);
    Timed(tr, "relational.join", parent, request, nullptr, [&] {
      return relational::HashJoin(left, right_rows, {lk}, {rk}).ok();
    });
    return;
  }
  if (!select.group_by.empty()) {
    std::vector<std::string> groups;
    for (const relational::ExprPtr& g : select.group_by) {
      groups.push_back(g->column);
    }
    std::vector<relational::AggregateItem> aggs;
    for (const relational::SelectItem& item : select.items) {
      if (item.expr == nullptr || !relational::ContainsAggregate(item.expr)) {
        continue;
      }
      relational::ExprPtr arg =
          item.expr->children.empty() ? nullptr : item.expr->children[0];
      aggs.push_back({item.expr->function, arg, item.alias});
    }
    Table filtered = select.where == nullptr
                         ? *base
                         : Timed(tr, "relational.filter", parent, request,
                                 nullptr, [&] {
                                   return Must(relational::Filter(*base,
                                                                  select.where),
                                               "replay filter");
                                 });
    Timed(tr, "relational.aggregate", parent, request, nullptr, [&] {
      return relational::GroupAggregate(filtered, groups, aggs).ok();
    });
    return;
  }
  if (select.where != nullptr) {
    Timed(tr, "relational.filter", parent, request, nullptr, [&] {
      auto sel = relational::FilterIndices(*base, select.where);
      return sel.ok() ? base->Take(*sel).num_rows() : 0;
    });
  }
}

}  // namespace

void ReplayDown(World& w, const Stmt& st, Tracer* tr, uint64_t request,
                uint64_t parent) {
  core::VirtualEarthObservatory& veo = *w.veo;
  uint64_t facade = 0;
  uint64_t engine = 0;
  Clock::time_point t0;
  switch (st.lang) {
    case server::Lang::kSql: {
      Timed(tr, "core.facade", parent, request, &facade,
            [&] { return veo.Sql(st.text).ok(); });
      relational::SqlEngine bare(&veo.catalog());
      t0 = Clock::now();
      (void)bare.Execute(st.text);
      engine = tr->Record("relational.engine", facade, request, t0,
                          Clock::now(), /*opaque=*/true);
      auto parsed = Timed(tr, "relational.parse", engine, request, nullptr,
                          [&] { return relational::ParseSql(st.text); });
      if (parsed.ok() &&
          std::holds_alternative<relational::SelectStatement>(*parsed)) {
        ReplayOperators(w, std::get<relational::SelectStatement>(*parsed), tr,
                        request, engine);
      }
      break;
    }
    case server::Lang::kSciQl: {
      Timed(tr, "core.facade", parent, request, &facade,
            [&] { return veo.SciQl(st.text).ok(); });
      t0 = Clock::now();
      (void)veo.sciql().Execute(st.text);
      engine = tr->Record("sciql.engine", facade, request, t0, Clock::now(),
                          /*opaque=*/true);
      auto parsed = Timed(tr, "sciql.parse", engine, request, nullptr,
                          [&] { return teleios::sciql::ParseSciQl(st.text); });
      if (!parsed.ok() ||
          !std::holds_alternative<relational::SelectStatement>(*parsed)) {
        break;
      }
      const auto& select = std::get<relational::SelectStatement>(*parsed);
      // A slab statement materializes only its slab, which the public
      // array API cannot do; its materialization stays unaccounted.
      if (!select.from.slab.empty()) break;
      auto array = veo.sciql().GetArray(select.from.name);
      if (!array.ok()) break;
      Table cells = Timed(tr, "sciql.materialize", engine, request, nullptr,
                          [&] { return (*array)->ToTable(); });
      if (select.where != nullptr) {
        Timed(tr, "relational.filter", engine, request, nullptr, [&] {
          auto sel = relational::FilterIndices(cells, select.where);
          return sel.ok() ? sel->size() : 0;
        });
      }
      break;
    }
    case server::Lang::kStSparql: {
      Timed(tr, "core.facade", parent, request, &facade,
            [&] { return veo.StSparql(st.text).ok(); });
      t0 = Clock::now();
      (void)veo.strabon().Query(st.text);
      engine = tr->Record("strabon.engine", facade, request, t0, Clock::now(),
                          /*opaque=*/true);
      Timed(tr, "strabon.parse", engine, request, nullptr, [&] {
        return teleios::strabon::ParseSparql(st.text).ok();
      });
      break;
    }
  }
}

void ReplayWrite(World& w, const Stmt& st, Tracer* tr, uint64_t request,
                 uint64_t parent) {
  if (w.scratch_wal == nullptr) {
    w.scratch_wal = Must(teleios::io::WalWriter::Open(
                             MakeWorkDir(w.dir, "scratch_wal"), 1, 0, {}),
                         "scratch wal");
  }
  Timed(tr, "io.wal_sync", parent, request, nullptr, [&] {
    return w.scratch_wal->Append(1, st.text).ok() && w.scratch_wal->Sync().ok();
  });
  if (st.lang == server::Lang::kSql) {
    Timed(tr, "relational.parse", parent, request, nullptr,
          [&] { return relational::ParseSql(st.text).ok(); });
  } else {
    Timed(tr, "strabon.parse", parent, request, nullptr, [&] {
      return teleios::strabon::ParseSparql(st.text).ok();
    });
  }
}

}  // namespace perfbench
