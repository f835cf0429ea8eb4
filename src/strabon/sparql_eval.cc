#include "strabon/sparql_eval.h"

#include <algorithm>
#include <cmath>
#include <regex>
#include <unordered_map>
#include <unordered_set>

#include "common/strings.h"
#include "obs/metrics.h"
#include "strabon/temporal.h"

namespace teleios::strabon {

using rdf::kNoTerm;
using rdf::Term;
using rdf::TermId;
using rdf::TriplePattern;

int SolutionSet::VarIndex(const std::string& name) const {
  for (size_t i = 0; i < vars.size(); ++i) {
    if (vars[i] == name) return static_cast<int>(i);
  }
  return -1;
}

int SolutionSet::AddVar(const std::string& name) {
  int idx = VarIndex(name);
  if (idx >= 0) return idx;
  vars.push_back(name);
  for (auto& row : rows) row.push_back(kNoTerm);
  return static_cast<int>(vars.size() - 1);
}

storage::Table SolutionSet::ToTable(const rdf::TermDictionary& dict) const {
  std::vector<storage::Field> fields;
  for (const std::string& v : vars) {
    fields.push_back({v, storage::ColumnType::kString});
  }
  storage::Table out{storage::Schema(std::move(fields))};
  for (const auto& row : rows) {
    for (size_t c = 0; c < vars.size(); ++c) {
      if (row[c] == kNoTerm) {
        out.column(c).AppendNull();
      } else {
        out.column(c).AppendString(dict.At(row[c]).lexical);
      }
    }
  }
  return out;
}

namespace {

Result<double> NumericValue(const Term& t) {
  if (!t.IsLiteral()) {
    return Status::TypeError("not a literal: " + t.ToNTriples());
  }
  return ParseDouble(t.lexical);
}

bool IsDateTime(const Term& t) {
  return t.IsLiteral() && t.datatype == rdf::kXsdDateTime;
}

/// Adds the variables `e` reads to `vars`, each once.
void CollectVars(const SparqlExpr& e, std::vector<std::string>* vars) {
  if (e.kind == SparqlExprKind::kVar &&
      std::find(vars->begin(), vars->end(), e.var) == vars->end()) {
    vars->push_back(e.var);
  }
  for (const SparqlExprPtr& a : e.args) CollectVars(*a, vars);
}

}  // namespace

Result<bool> SparqlEvaluator::EffectiveBooleanValue(const Term& term) {
  if (!term.IsLiteral()) {
    return Status::TypeError("EBV of non-literal");
  }
  if (term.datatype == rdf::kXsdBoolean) return term.lexical == "true";
  if (term.IsNumeric()) {
    TELEIOS_ASSIGN_OR_RETURN(double v, NumericValue(term));
    return v != 0.0;
  }
  if (term.datatype.empty()) return !term.lexical.empty();
  return Status::TypeError("EBV of typed literal " + term.ToNTriples());
}

int SparqlEvaluator::CompareTerms(const Term& a, const Term& b) {
  if (a.IsNumeric() && b.IsNumeric()) {
    double x = NumericValue(a).value_or(0);
    double y = NumericValue(b).value_or(0);
    return x < y ? -1 : (x > y ? 1 : 0);
  }
  if (IsDateTime(a) && IsDateTime(b)) {
    auto x = ParseDateTime(a.lexical);
    auto y = ParseDateTime(b.lexical);
    if (x.ok() && y.ok()) {
      return *x < *y ? -1 : (*x > *y ? 1 : 0);
    }
  }
  // Kind order: blanks < IRIs < literals (SPARQL's ordering), then
  // lexical.
  auto rank = [](const Term& t) {
    switch (t.kind) {
      case rdf::TermKind::kBlank:
        return 0;
      case rdf::TermKind::kIri:
        return 1;
      case rdf::TermKind::kLiteral:
        return 2;
    }
    return 3;
  };
  if (rank(a) != rank(b)) return rank(a) < rank(b) ? -1 : 1;
  int c = a.lexical.compare(b.lexical);
  if (c != 0) return c < 0 ? -1 : 1;
  c = a.datatype.compare(b.datatype);
  if (c != 0) return c < 0 ? -1 : 1;
  c = a.lang.compare(b.lang);
  return c < 0 ? -1 : (c > 0 ? 1 : 0);
}

Result<SolutionSet> SparqlEvaluator::EvalBasicGraphPattern(
    const std::vector<TriplePatternAst>& triples,
    const std::vector<PushedFilter>& filters) {
  SolutionSet solutions;
  solutions.rows.push_back({});  // the empty solution

  std::vector<const TriplePatternAst*> remaining;
  for (const auto& t : triples) remaining.push_back(&t);
  std::unordered_set<std::string> bound_vars;
  std::vector<bool> applied(filters.size(), false);
  std::vector<SpatialRestriction> restrictions;
  if (index_ != nullptr) {
    for (const PushedFilter& f : filters) {
      for (SpatialRestriction& r : RestrictionsOf(f.expr, cache_)) {
        restrictions.push_back(std::move(r));
      }
    }
  }

  auto ground_count = [](const TriplePatternAst& t) {
    return (t.s.is_var ? 0 : 1) + (t.p.is_var ? 0 : 1) +
           (t.o.is_var ? 0 : 1);
  };
  auto is_var = [](const PatternNode& n, const std::string& var) {
    return n.is_var && n.var == var;
  };
  auto shares_var = [&](const TriplePatternAst& t) {
    return (t.s.is_var && bound_vars.count(t.s.var)) ||
           (t.p.is_var && bound_vars.count(t.p.var)) ||
           (t.o.is_var && bound_vars.count(t.o.var));
  };
  // The first restriction on a still unbound variable of `t` whose
  // partner, if it has one, is bound.
  auto restriction_of =
      [&](const TriplePatternAst& t) -> const SpatialRestriction* {
    for (const SpatialRestriction& r : restrictions) {
      if ((is_var(t.s, r.var) || is_var(t.p, r.var) || is_var(t.o, r.var)) &&
          !bound_vars.count(r.var) &&
          (r.partner.empty() || bound_vars.count(r.partner))) {
        return &r;
      }
    }
    return nullptr;
  };
  auto joined = [&](const TriplePatternAst& t) {
    const SpatialRestriction* r = restriction_of(t);
    return r != nullptr && !r->partner.empty();
  };

  size_t probes = 0;
  size_t probe_candidates = 0;
  while (!remaining.empty()) {
    // Greedy pattern order: most ground positions first, then patterns
    // sharing a variable with what is bound, or joined to it by a spatial
    // FILTER.
    size_t best = 0;
    int best_score = -1;
    for (size_t i = 0; i < remaining.size(); ++i) {
      const TriplePatternAst& t = *remaining[i];
      int score = ground_count(t) * 2 + (shares_var(t) || joined(t) ? 3 : 0);
      if (score > best_score) {
        best_score = score;
        best = i;
      }
    }
    const TriplePatternAst& pat = *remaining[best];
    remaining.erase(remaining.begin() + static_cast<long>(best));

    // Resolve ground terms once; unknown ground term -> no matches.
    auto resolve = [&](const PatternNode& n) -> std::optional<TermId> {
      if (n.is_var) return std::nullopt;
      TermId id = store_->dict().Lookup(n.term);
      return id;  // kNoTerm if unknown
    };
    std::optional<TermId> gs = resolve(pat.s);
    std::optional<TermId> gp = resolve(pat.p);
    std::optional<TermId> go = resolve(pat.o);
    bool impossible = (gs && *gs == kNoTerm) || (gp && *gp == kNoTerm) ||
                      (go && *go == kNoTerm);

    // A restricted variable binds only the R-tree's candidates (ascending
    // ids). As the object under a bound predicate and an unbound subject,
    // each candidate is a seek of the (p, o) prefix instead of a scan of
    // the predicate; elsewhere the few matches are checked against the
    // candidates. Either way they keep the order a scan gives them.
    const SpatialRestriction* restriction = restriction_of(pat);
    bool seek = restriction != nullptr && is_var(pat.o, restriction->var) &&
                pat.s.is_var && !bound_vars.count(pat.s.var) &&
                pat.s.var != restriction->var &&
                !is_var(pat.p, restriction->var) &&
                (gp || bound_vars.count(pat.p.var));
    std::vector<TermId> candidates;
    if (restriction != nullptr && restriction->partner.empty()) {
      obs::Count("teleios_strabon_rtree_probes_total");
      candidates = index_->Query(
          restriction->Around(restriction->probe, index_->extent()));
    }
    int partner = restriction != nullptr && !restriction->partner.empty()
                      ? solutions.VarIndex(restriction->partner)
                      : -1;

    // Ensure variable columns exist.
    int si = pat.s.is_var ? solutions.AddVar(pat.s.var) : -1;
    int pi = pat.p.is_var ? solutions.AddVar(pat.p.var) : -1;
    int oi = pat.o.is_var ? solutions.AddVar(pat.o.var) : -1;
    if (pat.s.is_var) bound_vars.insert(pat.s.var);
    if (pat.p.is_var) bound_vars.insert(pat.p.var);
    if (pat.o.is_var) bound_vars.insert(pat.o.var);

    std::vector<std::vector<TermId>> next_rows;
    std::vector<rdf::Triple> matches;  // one row's, reused across rows
    for (const auto& row : solutions.rows) {
      if (impossible) break;  // an unknown ground term matches nothing
      TriplePattern query;
      if (gs) query.s = *gs;
      else if (row[si] != kNoTerm) query.s = row[si];
      if (gp) query.p = *gp;
      else if (row[pi] != kNoTerm) query.p = row[pi];
      if (go) query.o = *go;
      else if (row[oi] != kNoTerm) query.o = row[oi];

      if (partner >= 0) {
        // Spatial join: the candidates near this row's partner geometry.
        ++probes;
        auto g = cache_->Get(store_->dict().At(row[partner]));
        candidates.clear();
        if (g.ok()) {
          candidates = index_->Query(
              restriction->Around((*g)->GetEnvelope(), index_->extent()));
        }
        probe_candidates += candidates.size();
      }
      auto admits = [&](const PatternNode& n, TermId id) {
        return seek || !is_var(n, restriction->var) ||
               std::binary_search(candidates.begin(), candidates.end(), id);
      };
      auto extend = [&](const rdf::Triple& t) {
        // Repeated-variable consistency (e.g. ?x ?p ?x).
        if (si >= 0 && pi >= 0 && pat.s.var == pat.p.var && t.s != t.p) {
          return;
        }
        if (si >= 0 && oi >= 0 && pat.s.var == pat.o.var && t.s != t.o) {
          return;
        }
        if (pi >= 0 && oi >= 0 && pat.p.var == pat.o.var && t.p != t.o) {
          return;
        }
        if (restriction != nullptr &&
            !(admits(pat.s, t.s) && admits(pat.p, t.p) &&
              admits(pat.o, t.o))) {
          return;
        }
        std::vector<TermId> extended = row;
        if (si >= 0) extended[si] = t.s;
        if (pi >= 0) extended[pi] = t.p;
        if (oi >= 0) extended[oi] = t.o;
        next_rows.push_back(std::move(extended));
      };
      matches.clear();
      if (seek) {
        for (TermId c : candidates) {
          query.o = c;
          store_->Match(query, &matches);
        }
      } else {
        store_->Match(query, &matches);
      }
      for (const rdf::Triple& t : matches) extend(t);
    }
    solutions.rows = std::move(next_rows);
    rows_built_ += solutions.rows.size();

    // The FILTERs whose last variable this pattern bound.
    for (size_t f = 0; f < filters.size(); ++f) {
      if (applied[f] ||
          !std::all_of(filters[f].vars.begin(), filters[f].vars.end(),
                       [&](const std::string& v) {
                         return bound_vars.count(v) > 0;
                       })) {
        continue;
      }
      applied[f] = true;
      TELEIOS_RETURN_IF_ERROR(ApplyFilter(filters[f].expr, &solutions));
    }
    if (solutions.rows.empty()) break;
  }
  if (probes > 0) {
    join_probes_ += probes;
    join_candidates_ += probe_candidates;
    obs::Count("teleios_strabon_spatial_join_probes_total", probes);
    obs::Count("teleios_strabon_spatial_join_candidates_total",
               probe_candidates);
  }
  return solutions;
}

Result<SolutionSet> SparqlEvaluator::Join(const SolutionSet& left,
                                          const SolutionSet& right,
                                          bool left_outer) {
  // Shared variables.
  std::vector<std::pair<int, int>> shared;
  for (size_t i = 0; i < left.vars.size(); ++i) {
    int j = right.VarIndex(left.vars[i]);
    if (j >= 0) shared.emplace_back(static_cast<int>(i), j);
  }
  SolutionSet out;
  out.vars = left.vars;
  std::vector<int> right_extra;  // right columns not in left
  for (size_t j = 0; j < right.vars.size(); ++j) {
    if (left.VarIndex(right.vars[j]) < 0) {
      right_extra.push_back(static_cast<int>(j));
      out.vars.push_back(right.vars[j]);
    }
  }
  // Hash the right side on shared vars.
  std::unordered_map<std::string, std::vector<size_t>> index;
  auto key_of_right = [&](size_t r) {
    std::string key;
    for (const auto& [li, rj] : shared) {
      key += std::to_string(right.rows[r][rj]) + "|";
    }
    return key;
  };
  for (size_t r = 0; r < right.rows.size(); ++r) {
    index[key_of_right(r)].push_back(r);
  }
  auto key_of_left = [&](size_t r) {
    std::string key;
    for (const auto& [li, rj] : shared) {
      key += std::to_string(left.rows[r][li]) + "|";
    }
    return key;
  };
  for (size_t r = 0; r < left.rows.size(); ++r) {
    const std::vector<size_t>* matches = nullptr;
    auto it = index.find(key_of_left(r));
    if (it != index.end()) matches = &it->second;
    bool any = false;
    if (matches) {
      for (size_t rr : *matches) {
        // Compatibility also requires unbound-side handling; with
        // kNoTerm encoded in the key this is exact-match semantics,
        // which suffices for our pattern shapes.
        std::vector<TermId> row = left.rows[r];
        for (int j : right_extra) row.push_back(right.rows[rr][j]);
        out.rows.push_back(std::move(row));
        any = true;
      }
    }
    if (!any && left_outer) {
      std::vector<TermId> row = left.rows[r];
      row.resize(out.vars.size(), kNoTerm);
      out.rows.push_back(std::move(row));
    }
  }
  return out;
}

Status SparqlEvaluator::ApplyFilter(const SparqlExprPtr& filter,
                                    SolutionSet* solutions) {
  std::vector<std::vector<TermId>> kept;
  for (size_t r = 0; r < solutions->rows.size(); ++r) {
    auto value = EvalExpr(filter, *solutions, r);
    if (!value.ok()) continue;  // evaluation error -> row dropped
    auto ebv = EffectiveBooleanValue(*value);
    if (ebv.ok() && *ebv) kept.push_back(std::move(solutions->rows[r]));
  }
  solutions->rows = std::move(kept);
  return Status::OK();
}

Result<SolutionSet> SparqlEvaluator::EvalGroup(const GroupPattern& group) {
  // A FILTER over variables that the group's triple patterns all bind, and
  // no BIND reassigns, runs inside the BGP right after the last of them is
  // bound: the UNION and OPTIONAL joins keep each BGP row's bindings as
  // they are, so it drops the same rows there as at the end. Every other
  // FILTER runs at the end, after the BINDs.
  std::unordered_set<std::string> bgp_vars;
  for (const TriplePatternAst& t : group.triples) {
    for (const PatternNode* n : {&t.s, &t.p, &t.o}) {
      if (n->is_var) bgp_vars.insert(n->var);
    }
  }
  for (const BindClause& bind : group.binds) bgp_vars.erase(bind.var);
  std::vector<PushedFilter> pushed;
  std::vector<SparqlExprPtr> last;
  for (const SparqlExprPtr& f : group.filters) {
    PushedFilter p{f, {}};
    CollectVars(*f, &p.vars);
    bool early = !p.vars.empty() &&
                 std::all_of(p.vars.begin(), p.vars.end(),
                             [&](const std::string& v) {
                               return bgp_vars.count(v) > 0;
                             });
    if (early) {
      pushed.push_back(std::move(p));
    } else {
      last.push_back(f);
    }
  }
  TELEIOS_ASSIGN_OR_RETURN(SolutionSet solutions,
                           EvalBasicGraphPattern(group.triples, pushed));
  for (const UnionPattern& u : group.unions) {
    TELEIOS_ASSIGN_OR_RETURN(SolutionSet lhs, EvalGroup(*u.left));
    TELEIOS_ASSIGN_OR_RETURN(SolutionSet rhs, EvalGroup(*u.right));
    // Union: same solution space; concatenate aligning variables.
    SolutionSet merged;
    merged.vars = lhs.vars;
    for (const std::string& v : rhs.vars) merged.AddVar(v);
    for (const auto& row : lhs.rows) {
      std::vector<TermId> r = row;
      r.resize(merged.vars.size(), kNoTerm);
      merged.rows.push_back(std::move(r));
    }
    for (const auto& row : rhs.rows) {
      std::vector<TermId> r(merged.vars.size(), kNoTerm);
      for (size_t j = 0; j < rhs.vars.size(); ++j) {
        r[static_cast<size_t>(merged.VarIndex(rhs.vars[j]))] = row[j];
      }
      merged.rows.push_back(std::move(r));
    }
    TELEIOS_ASSIGN_OR_RETURN(solutions, Join(solutions, merged, false));
  }
  for (const GroupPattern& opt : group.optionals) {
    TELEIOS_ASSIGN_OR_RETURN(SolutionSet rhs, EvalGroup(opt));
    TELEIOS_ASSIGN_OR_RETURN(solutions, Join(solutions, rhs, true));
  }
  for (const BindClause& bind : group.binds) {
    int col = solutions.AddVar(bind.var);
    for (size_t r = 0; r < solutions.rows.size(); ++r) {
      auto value = EvalExpr(bind.expr, solutions, r);
      if (value.ok()) {
        TermId id = const_cast<rdf::TripleStore*>(store_)->dict().Intern(
            *value);
        solutions.rows[r][col] = id;
      }
    }
  }
  for (const SparqlExprPtr& filter : last) {
    TELEIOS_RETURN_IF_ERROR(ApplyFilter(filter, &solutions));
  }
  return solutions;
}

Result<Term> SparqlEvaluator::EvalExpr(const SparqlExprPtr& expr,
                                       const SolutionSet& solutions,
                                       size_t row) {
  switch (expr->kind) {
    case SparqlExprKind::kTerm:
      return expr->term;
    case SparqlExprKind::kVar: {
      int idx = solutions.VarIndex(expr->var);
      if (idx < 0 || solutions.rows[row][idx] == kNoTerm) {
        return Status::NotFound("unbound variable ?" + expr->var);
      }
      return store_->dict().At(solutions.rows[row][idx]);
    }
    case SparqlExprKind::kUnary: {
      if (expr->negate) {
        auto v = EvalExpr(expr->args[0], solutions, row);
        if (!v.ok()) return v.status();
        TELEIOS_ASSIGN_OR_RETURN(bool b, EffectiveBooleanValue(*v));
        return Term::BooleanLiteral(!b);
      }
      TELEIOS_ASSIGN_OR_RETURN(Term v, EvalExpr(expr->args[0], solutions, row));
      TELEIOS_ASSIGN_OR_RETURN(double x, NumericValue(v));
      return Term::DoubleLiteral(-x);
    }
    case SparqlExprKind::kBinary: {
      if (expr->op == SparqlBinaryOp::kAnd || expr->op == SparqlBinaryOp::kOr) {
        auto lhs = EvalExpr(expr->args[0], solutions, row);
        bool lv = false;
        bool l_ok = lhs.ok();
        if (l_ok) {
          auto b = EffectiveBooleanValue(*lhs);
          l_ok = b.ok();
          if (b.ok()) lv = *b;
        }
        if (expr->op == SparqlBinaryOp::kAnd && l_ok && !lv) {
          return Term::BooleanLiteral(false);
        }
        if (expr->op == SparqlBinaryOp::kOr && l_ok && lv) {
          return Term::BooleanLiteral(true);
        }
        auto rhs = EvalExpr(expr->args[1], solutions, row);
        bool rv = false;
        bool r_ok = rhs.ok();
        if (r_ok) {
          auto b = EffectiveBooleanValue(*rhs);
          r_ok = b.ok();
          if (b.ok()) rv = *b;
        }
        if (!l_ok && !r_ok) return Status::TypeError("boolean error");
        if (expr->op == SparqlBinaryOp::kAnd) {
          if (!l_ok || !r_ok) {
            // error && true -> error; error && false -> false
            if ((l_ok && !lv) || (r_ok && !rv)) {
              return Term::BooleanLiteral(false);
            }
            return Status::TypeError("boolean error");
          }
          return Term::BooleanLiteral(lv && rv);
        }
        if (!l_ok || !r_ok) {
          if ((l_ok && lv) || (r_ok && rv)) return Term::BooleanLiteral(true);
          return Status::TypeError("boolean error");
        }
        return Term::BooleanLiteral(lv || rv);
      }
      TELEIOS_ASSIGN_OR_RETURN(Term lhs,
                               EvalExpr(expr->args[0], solutions, row));
      TELEIOS_ASSIGN_OR_RETURN(Term rhs,
                               EvalExpr(expr->args[1], solutions, row));
      switch (expr->op) {
        case SparqlBinaryOp::kEq:
          return Term::BooleanLiteral(CompareTerms(lhs, rhs) == 0);
        case SparqlBinaryOp::kNe:
          return Term::BooleanLiteral(CompareTerms(lhs, rhs) != 0);
        case SparqlBinaryOp::kLt:
          return Term::BooleanLiteral(CompareTerms(lhs, rhs) < 0);
        case SparqlBinaryOp::kLe:
          return Term::BooleanLiteral(CompareTerms(lhs, rhs) <= 0);
        case SparqlBinaryOp::kGt:
          return Term::BooleanLiteral(CompareTerms(lhs, rhs) > 0);
        case SparqlBinaryOp::kGe:
          return Term::BooleanLiteral(CompareTerms(lhs, rhs) >= 0);
        default: {
          TELEIOS_ASSIGN_OR_RETURN(double x, NumericValue(lhs));
          TELEIOS_ASSIGN_OR_RETURN(double y, NumericValue(rhs));
          bool both_int = lhs.datatype == rdf::kXsdInteger &&
                          rhs.datatype == rdf::kXsdInteger;
          double r = 0;
          switch (expr->op) {
            case SparqlBinaryOp::kAdd:
              r = x + y;
              break;
            case SparqlBinaryOp::kSub:
              r = x - y;
              break;
            case SparqlBinaryOp::kMul:
              r = x * y;
              break;
            case SparqlBinaryOp::kDiv:
              if (y == 0) return Status::InvalidArgument("division by zero");
              r = x / y;
              both_int = false;
              break;
            default:
              return Status::Internal("bad binary op");
          }
          if (both_int) {
            return Term::IntegerLiteral(static_cast<int64_t>(r));
          }
          return Term::DoubleLiteral(r);
        }
      }
    }
    case SparqlExprKind::kCall: {
      const std::string& fn = expr->function;
      // BOUND takes a variable, not a value.
      if (StrEqualsIgnoreCase(fn, "bound")) {
        if (expr->args.size() != 1 ||
            expr->args[0]->kind != SparqlExprKind::kVar) {
          return Status::InvalidArgument("BOUND expects a variable");
        }
        int idx = solutions.VarIndex(expr->args[0]->var);
        bool bound = idx >= 0 && solutions.rows[row][idx] != kNoTerm;
        return Term::BooleanLiteral(bound);
      }
      std::vector<Term> args;
      args.reserve(expr->args.size());
      for (const SparqlExprPtr& a : expr->args) {
        TELEIOS_ASSIGN_OR_RETURN(Term v, EvalExpr(a, solutions, row));
        args.push_back(std::move(v));
      }
      if (IsTemporalFunction(fn)) return EvalTemporalFunction(fn, args);
      if (IsSpatialFunction(fn)) return EvalSpatialFunction(fn, args, cache_);
      // Builtins by lower-cased bare name.
      std::string name = StrLower(fn);
      auto need = [&](size_t n) -> Status {
        if (args.size() != n) {
          return Status::InvalidArgument(name + " expects " +
                                         std::to_string(n) + " argument(s)");
        }
        return Status::OK();
      };
      if (name == "str") {
        TELEIOS_RETURN_IF_ERROR(need(1));
        return Term::Literal(args[0].lexical);
      }
      if (name == "lang") {
        TELEIOS_RETURN_IF_ERROR(need(1));
        return Term::Literal(args[0].lang);
      }
      if (name == "datatype") {
        TELEIOS_RETURN_IF_ERROR(need(1));
        return Term::Iri(args[0].datatype.empty()
                             ? "http://www.w3.org/2001/XMLSchema#string"
                             : args[0].datatype);
      }
      if (name == "isiri" || name == "isuri") {
        TELEIOS_RETURN_IF_ERROR(need(1));
        return Term::BooleanLiteral(args[0].IsIri());
      }
      if (name == "isliteral") {
        TELEIOS_RETURN_IF_ERROR(need(1));
        return Term::BooleanLiteral(args[0].IsLiteral());
      }
      if (name == "isblank") {
        TELEIOS_RETURN_IF_ERROR(need(1));
        return Term::BooleanLiteral(args[0].IsBlank());
      }
      if (name == "regex") {
        if (args.size() < 2) {
          return Status::InvalidArgument("REGEX expects 2-3 arguments");
        }
        auto flags = std::regex::ECMAScript;
        if (args.size() == 3 &&
            args[2].lexical.find('i') != std::string::npos) {
          flags |= std::regex::icase;
        }
        std::regex re(args[1].lexical, flags);
        return Term::BooleanLiteral(std::regex_search(args[0].lexical, re));
      }
      if (name == "contains") {
        TELEIOS_RETURN_IF_ERROR(need(2));
        return Term::BooleanLiteral(args[0].lexical.find(args[1].lexical) !=
                                    std::string::npos);
      }
      if (name == "strstarts") {
        TELEIOS_RETURN_IF_ERROR(need(2));
        return Term::BooleanLiteral(
            StrStartsWith(args[0].lexical, args[1].lexical));
      }
      if (name == "strends") {
        TELEIOS_RETURN_IF_ERROR(need(2));
        return Term::BooleanLiteral(
            StrEndsWith(args[0].lexical, args[1].lexical));
      }
      if (name == "strlen") {
        TELEIOS_RETURN_IF_ERROR(need(1));
        return Term::IntegerLiteral(
            static_cast<int64_t>(args[0].lexical.size()));
      }
      if (name == "concat") {
        std::string out;
        for (const Term& a : args) out += a.lexical;
        return Term::Literal(std::move(out));
      }
      if (name == "abs") {
        TELEIOS_RETURN_IF_ERROR(need(1));
        TELEIOS_ASSIGN_OR_RETURN(double x, NumericValue(args[0]));
        return Term::DoubleLiteral(std::fabs(x));
      }
      if (name == "floor" || name == "ceil" || name == "round") {
        TELEIOS_RETURN_IF_ERROR(need(1));
        TELEIOS_ASSIGN_OR_RETURN(double x, NumericValue(args[0]));
        double r = name == "floor" ? std::floor(x)
                                   : (name == "ceil" ? std::ceil(x)
                                                     : std::round(x));
        return Term::IntegerLiteral(static_cast<int64_t>(r));
      }
      return Status::NotFound("unknown function '" + fn + "'");
    }
  }
  return Status::Internal("bad SPARQL expression kind");
}

}  // namespace teleios::strabon
