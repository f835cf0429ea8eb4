#include "strabon/strabon.h"

#include <algorithm>
#include <numeric>

#include "common/strings.h"
#include "io/filesystem.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "relational/operators.h"

namespace teleios::strabon {

using rdf::kNoTerm;
using rdf::Term;
using rdf::TermId;
using rdf::Triple;
using storage::Column;
using storage::SelectionVector;
using storage::Table;

Result<size_t> Strabon::LoadTurtle(const std::string& text) {
  return rdf::ParseTurtle(text, &store_);
}

Result<size_t> Strabon::LoadTurtleFile(const std::string& path) {
  TELEIOS_ASSIGN_OR_RETURN(std::string text,
                           io::GetFileSystem()->ReadFile(path));
  return LoadTurtle(text);
}

void Strabon::Add(const Term& s, const Term& p, const Term& o) {
  store_.Add(s, p, o);
  static auto* added = obs::MetricsRegistry::Global().GetCounter(
      "teleios_strabon_triples_added_total");
  added->Inc();
}

const SpatialIndex* Strabon::IndexFor(const GroupPattern& where) {
  if (!spatial_index_enabled_ || !HasSpatialRestriction(where, &cache_)) {
    return nullptr;
  }
  index_.Refresh(store_, &cache_);
  return &index_;
}

namespace {

bool ContainsAggregateExpr(const SparqlExprPtr& e) {
  if (!e) return false;
  if (IsAggregateCall(e)) return true;
  for (const SparqlExprPtr& a : e->args) {
    if (ContainsAggregateExpr(a)) return true;
  }
  return false;
}

}  // namespace

/// GROUP BY + aggregate projection over a solution set: the relational
/// grouping kernel forms the groups, and each aggregate folds its group's
/// values with SPARQL's term semantics.
static Result<Table> AggregateSolutions(const SparqlQuery& query,
                                        const Table& solutions,
                                        SparqlEvaluator* eval,
                                        rdf::TermDictionary* dict) {
  // Plain projected variables must be grouping variables.
  for (const std::string& v : query.variables) {
    if (std::find(query.group_by.begin(), query.group_by.end(), v) ==
        query.group_by.end()) {
      return Status::InvalidArgument("variable ?" + v +
                                     " must appear in GROUP BY");
    }
  }
  // A grouping variable no solution binds is unbound in every row, so it
  // splits no group.
  std::vector<size_t> keys;
  for (const std::string& g : query.group_by) {
    int col = solutions.schema().FieldIndex(g);
    if (col >= 0) keys.push_back(static_cast<size_t>(col));
  }
  TELEIOS_ASSIGN_OR_RETURN(relational::Grouping grouping,
                           relational::GroupRows(solutions, keys));
  // Without GROUP BY, no solutions still make one (empty) group.
  size_t ngroups = grouping.first_rows.size();
  if (ngroups == 0 && query.group_by.empty()) ngroups = 1;
  std::vector<std::vector<uint32_t>> members(ngroups);  // ascending rows
  for (size_t r = 0; r < grouping.group_of.size(); ++r) {
    members[grouping.group_of[r]].push_back(static_cast<uint32_t>(r));
  }

  // The value of a computed projection over a group's rows; kNoTerm when
  // there is none.
  auto fold = [&](const SparqlExprPtr& expr,
                  const std::vector<uint32_t>& rows) -> Result<TermId> {
    if (!IsAggregateCall(expr)) {
      // Non-aggregate computed projection: evaluate on the group's first
      // member (its value is constant over the group when it only uses
      // grouping variables).
      if (rows.empty()) return kNoTerm;
      auto v = eval->EvalExpr(expr, solutions, rows[0]);
      return v.ok() ? dict->Intern(*v) : kNoTerm;
    }
    std::string fn = StrLower(expr->function);
    if (fn == "count") {
      int64_t n = 0;
      if (expr->args.empty()) {
        n = static_cast<int64_t>(rows.size());
      } else {
        for (uint32_t r : rows) {
          if (eval->EvalExpr(expr->args[0], solutions, r).ok()) ++n;
        }
      }
      return dict->Intern(Term::IntegerLiteral(n));
    }
    if (expr->args.size() != 1) {
      return Status::InvalidArgument(fn + " expects one argument");
    }
    if (fn == "sum" || fn == "avg") {
      double sum = 0;
      int64_t n = 0;
      for (uint32_t r : rows) {
        auto v = eval->EvalExpr(expr->args[0], solutions, r);
        if (!v.ok()) continue;
        auto d = ParseDouble(v->lexical);
        if (!d.ok()) continue;
        sum += *d;
        ++n;
      }
      if (fn == "avg" && n > 0) sum /= static_cast<double>(n);
      return dict->Intern(Term::DoubleLiteral(sum));
    }
    // min / max
    bool seen = false;
    Term best;
    for (uint32_t r : rows) {
      auto v = eval->EvalExpr(expr->args[0], solutions, r);
      if (!v.ok()) continue;
      int cmp = seen ? SparqlEvaluator::CompareTerms(*v, best) : 0;
      if (!seen || (fn == "min" && cmp < 0) || (fn == "max" && cmp > 0)) {
        best = std::move(*v);
        seen = true;
      }
    }
    return seen ? dict->Intern(best) : kNoTerm;
  };

  const size_t nvars = query.variables.size();
  std::vector<std::vector<int64_t>> columns(
      nvars + query.computed.size(), std::vector<int64_t>(ngroups, kNoTerm));
  for (size_t g = 0; g < ngroups; ++g) {
    const std::vector<uint32_t>& rows = members[g];
    for (size_t v = 0; v < nvars && !rows.empty(); ++v) {
      columns[v][g] = Binding(solutions, query.variables[v], rows[0]);
    }
    for (size_t c = 0; c < query.computed.size(); ++c) {
      TELEIOS_ASSIGN_OR_RETURN(columns[nvars + c][g],
                               fold(query.computed[c].expr, rows));
    }
  }

  Table out = Table().Take(SelectionVector(ngroups));  // one row per group
  for (size_t c = 0; c < columns.size(); ++c) {
    out.AddColumn(c < nvars ? query.variables[c]
                            : query.computed[c - nvars].name,
                  Column::FromInts(std::move(columns[c])));
  }
  return out;
}

/// The printable form of a solution table: one VARCHAR column per
/// variable, IRIs and literals by their lexical form (no angle brackets or
/// quotes), NULL where unbound. The row count is the solutions', columns
/// or not: a true ASK is one row of none.
static Table LexicalTable(const Table& solutions,
                          const rdf::TermDictionary& dict) {
  Table out = solutions.ProjectIndices({});
  for (size_t c = 0; c < solutions.num_columns(); ++c) {
    Column column(storage::ColumnType::kString);
    for (int64_t id : solutions.column(c).ints()) {
      if (id == kNoTerm) {
        column.AppendNull();
      } else {
        column.AppendString(dict.At(static_cast<TermId>(id)).lexical);
      }
    }
    out.AddColumn(solutions.schema().field(c).name, std::move(column));
  }
  return out;
}

Result<Table> Strabon::RunQuery(const SparqlQuery& query) {
  const SpatialIndex* index = nullptr;
  {
    obs::TraceSpan plan_span("plan");
    index = IndexFor(query.where);
    plan_span.SetAttr("spatial_index", index != nullptr ? "used" : "unused");
  }
  obs::TraceSpan exec_span("execute");
  SparqlEvaluator eval(&store_, &cache_, index);
  Table solutions;
  {
    obs::TraceSpan match_span("match");
    TELEIOS_ASSIGN_OR_RETURN(solutions, eval.EvalGroup(query.where));
    match_span.SetAttr("solutions", std::to_string(solutions.num_rows()));
    match_span.SetAttr("bgp_rows", std::to_string(eval.rows_built()));
    if (eval.join_probes() > 0) {
      match_span.SetAttr("spatial_join_probes",
                         std::to_string(eval.join_probes()));
      match_span.SetAttr("spatial_join_candidates",
                         std::to_string(eval.join_candidates()));
    }
  }

  if (query.is_ask) return solutions;

  // Aggregation / computed projections.
  bool has_aggregate = !query.group_by.empty();
  for (const SparqlProjection& p : query.computed) {
    if (ContainsAggregateExpr(p.expr)) has_aggregate = true;
  }
  if (has_aggregate) {
    obs::TraceSpan agg_span("aggregate");
    TELEIOS_ASSIGN_OR_RETURN(
        solutions,
        AggregateSolutions(query, solutions, &eval, &store_.dict()));
    agg_span.SetAttr("groups", std::to_string(solutions.num_rows()));
  } else {
    // Row-wise computed projections (BIND-like).
    for (const SparqlProjection& p : query.computed) {
      TELEIOS_RETURN_IF_ERROR(eval.Bind(p.name, p.expr, &solutions));
    }
  }

  // ORDER BY: a stable sort of row ids under SPARQL term order, applied
  // with one gather.
  if (!query.order_by.empty()) {
    obs::TraceSpan sort_span("sort");
    const size_t n = solutions.num_rows();
    const size_t nkeys = query.order_by.size();
    std::vector<Term> keys(n * nkeys);
    for (size_t r = 0; r < n; ++r) {
      for (size_t k = 0; k < nkeys; ++k) {
        auto v = eval.EvalExpr(query.order_by[k].expr, solutions, r);
        if (v.ok()) keys[r * nkeys + k] = std::move(*v);
      }
    }
    SelectionVector order(n);
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
      for (size_t k = 0; k < nkeys; ++k) {
        int c = SparqlEvaluator::CompareTerms(keys[a * nkeys + k],
                                              keys[b * nkeys + k]);
        if (c != 0) return query.order_by[k].descending ? c > 0 : c < 0;
      }
      return false;
    });
    solutions = solutions.Take(order);
  }

  // Projection (aggregation above already projects).
  if (!has_aggregate &&
      (!query.variables.empty() || !query.computed.empty())) {
    std::vector<std::string> vars = query.variables;
    for (const SparqlProjection& p : query.computed) vars.push_back(p.name);
    solutions = WithVars(solutions, vars);
  }
  if (query.distinct) {
    TELEIOS_ASSIGN_OR_RETURN(solutions, relational::Distinct(solutions));
  }
  if (query.offset > 0 || query.limit >= 0) {
    solutions = relational::Limit(
        solutions,
        query.limit >= 0 ? static_cast<size_t>(query.limit) : SIZE_MAX,
        static_cast<size_t>(query.offset));
  }
  return solutions;
}

Result<SparqlStatement> Strabon::Parse(const std::string& sparql) {
  obs::TraceSpan parse_span("parse");
  return ParseSparql(sparql);
}

Result<Table> Strabon::Solutions(const Result<SparqlStatement>& parsed) {
  TELEIOS_RETURN_IF_ERROR(parsed.status());
  const auto* query = std::get_if<SparqlQuery>(&*parsed);
  if (query == nullptr) {
    return Status::InvalidArgument("expected a SELECT/ASK query");
  }
  return RunQuery(*query);
}

Result<Table> Strabon::Select(const std::string& sparql) {
  return Solutions(Parse(sparql));
}

Result<Table> Strabon::Query(const std::string& sparql) {
  return Query(Parse(sparql));
}

Result<Table> Strabon::Query(const Result<SparqlStatement>& parsed) {
  obs::Count("teleios_strabon_queries_total");
  obs::TraceSpan query_span("sparql.query",
                            obs::MetricsRegistry::Global().GetHistogram(
                                "teleios_strabon_query_millis"));
  Result<Table> solutions = Solutions(parsed);
  if (!solutions.ok()) {
    obs::Count(obs::WithLabel("teleios_strabon_errors_total", "code",
                              StatusCodeName(solutions.status().code())));
    return solutions.status();
  }
  obs::Count("teleios_strabon_result_rows_total", solutions->num_rows());
  return LexicalTable(*solutions, store_.dict());
}

Result<bool> Strabon::Ask(const std::string& sparql) {
  TELEIOS_ASSIGN_OR_RETURN(Table solutions, Select(sparql));
  return solutions.num_rows() > 0;
}

namespace {

/// Instantiates a template triple for one solution; false when a variable
/// is unbound (the instantiation is skipped, per SPARQL Update).
bool Instantiate(const TriplePatternAst& tmpl, const Table& solutions,
                 size_t row, rdf::TripleStore* store, Triple* out) {
  auto resolve = [&](const PatternNode& n, TermId* id) {
    *id = n.is_var ? Binding(solutions, n.var, row)
                   : store->dict().Intern(n.term);
    return *id != kNoTerm;
  };
  return resolve(tmpl.s, &out->s) && resolve(tmpl.p, &out->p) &&
         resolve(tmpl.o, &out->o);
}

}  // namespace

Result<size_t> Strabon::RunUpdate(const SparqlUpdate& update) {
  size_t affected = 0;
  switch (update.kind) {
    case SparqlUpdate::Kind::kInsertData: {
      for (const TriplePatternAst& t : update.insert_templates) {
        if (t.s.is_var || t.p.is_var || t.o.is_var) {
          return Status::InvalidArgument(
              "INSERT DATA requires ground triples");
        }
        store_.Add(t.s.term, t.p.term, t.o.term);
        ++affected;
      }
      return affected;
    }
    case SparqlUpdate::Kind::kDeleteData: {
      std::vector<Triple> to_delete;
      for (const TriplePatternAst& t : update.delete_templates) {
        if (t.s.is_var || t.p.is_var || t.o.is_var) {
          return Status::InvalidArgument(
              "DELETE DATA requires ground triples");
        }
        // A term never interned looks up as kNoTerm, which no stored
        // triple holds.
        to_delete.push_back({store_.dict().Lookup(t.s.term),
                             store_.dict().Lookup(t.p.term),
                             store_.dict().Lookup(t.o.term)});
      }
      return store_.Erase(std::move(to_delete));
    }
    case SparqlUpdate::Kind::kModify:
    case SparqlUpdate::Kind::kDeleteWhere: {
      SparqlEvaluator eval(&store_, &cache_, IndexFor(update.where));
      TELEIOS_ASSIGN_OR_RETURN(Table solutions, eval.EvalGroup(update.where));
      std::vector<Triple> to_delete;
      std::vector<Triple> to_insert;
      for (size_t r = 0; r < solutions.num_rows(); ++r) {
        for (const TriplePatternAst& t : update.delete_templates) {
          Triple triple;
          if (Instantiate(t, solutions, r, &store_, &triple)) {
            to_delete.push_back(triple);
          }
        }
        for (const TriplePatternAst& t : update.insert_templates) {
          Triple triple;
          if (Instantiate(t, solutions, r, &store_, &triple)) {
            to_insert.push_back(triple);
          }
        }
      }
      affected += store_.Erase(std::move(to_delete));
      for (const Triple& t : to_insert) {
        store_.AddEncoded(t);
        ++affected;
      }
      return affected;
    }
  }
  return Status::Internal("unhandled update kind");
}

Result<size_t> Strabon::Update(const std::string& sparql) {
  return Update(Parse(sparql));
}

Result<size_t> Strabon::Update(const Result<SparqlStatement>& parsed) {
  obs::Count("teleios_strabon_updates_total");
  TELEIOS_RETURN_IF_ERROR(parsed.status());
  const auto* update = std::get_if<SparqlUpdate>(&*parsed);
  if (update == nullptr) {
    return Status::InvalidArgument("expected an update statement");
  }
  obs::TraceSpan exec_span("execute");
  Result<size_t> affected = RunUpdate(*update);
  if (!affected.ok()) {
    obs::Count(obs::WithLabel("teleios_strabon_errors_total", "code",
                              StatusCodeName(affected.status().code())));
  }
  return affected;
}

std::string Strabon::ToTurtle() const {
  return rdf::WriteTurtle(store_, DefaultPrefixes());
}

Status Strabon::SaveTurtleFile(const std::string& path) const {
  return io::GetFileSystem()->WriteFileAtomic(path, ToTurtle());
}

}  // namespace teleios::strabon
