#include "strabon/sparql_eval.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "common/strings.h"
#include "obs/metrics.h"
#include "relational/operators.h"
#include "strabon/temporal.h"

namespace teleios::strabon {

using rdf::kNoTerm;
using rdf::Term;
using rdf::TermId;
using rdf::TriplePattern;
using storage::Column;
using storage::SelectionVector;
using storage::Table;

/// Rows between polls of the cancellation token, and the smallest
/// solution growth charged to the budget at once.
constexpr size_t kPollRows = 1024;

/// Expression nodes evaluated between polls of the cancellation token
/// by FILTER and BIND: a stride in work, so a row that runs 48 REGEXes
/// waits no longer for its poll than a row that compares two numbers.
constexpr size_t kPollNodes = 1024;

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

/// The SPARQL join of two solution sets on their shared variables (an
/// unbound variable matches only unbound), a cross product when they share
/// none: `left`'s columns, then `right`'s other ones. `optional` keeps
/// every left row, with `right`'s variables unbound where nothing matched.
Result<Table> JoinSolutions(const Table& left, const Table& right,
                            bool optional) {
  std::vector<std::string> shared;
  std::vector<size_t> keep;
  for (size_t c = 0; c < left.num_columns(); ++c) {
    const std::string& var = left.schema().field(c).name;
    if (right.schema().FieldIndex(var) >= 0) shared.push_back(var);
    keep.push_back(c);
  }
  for (size_t c = 0; c < right.num_columns(); ++c) {
    if (left.schema().FieldIndex(right.schema().field(c).name) < 0) {
      keep.push_back(left.num_columns() + c);
    }
  }
  TELEIOS_ASSIGN_OR_RETURN(
      Table joined,
      relational::HashJoin(left, right, shared, shared,
                           optional ? relational::JoinType::kLeftOuter
                                    : relational::JoinType::kInner));
  Table out = joined.ProjectIndices(keep);
  for (size_t c = left.num_columns(); optional && c < out.num_columns(); ++c) {
    const Column& col = out.column(c);
    std::vector<int64_t> ids = col.ints();
    for (size_t r = 0; r < ids.size(); ++r) {
      if (col.IsNull(r)) ids[r] = kNoTerm;
    }
    out.column(c) = Column::FromInts(std::move(ids));
  }
  return out;
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

TermId Binding(const Table& solutions, const std::string& var, size_t row) {
  int col = solutions.schema().FieldIndex(var);
  if (col < 0) return kNoTerm;
  return static_cast<TermId>(solutions.column(col).GetInt64(row));
}

Table WithVars(const Table& solutions, const std::vector<std::string>& vars) {
  Table out = solutions.ProjectIndices({});
  for (const std::string& var : vars) {
    int col = solutions.schema().FieldIndex(var);
    out.AddColumn(var, col >= 0 ? solutions.column(col)
                                : Column::FromInts(std::vector<int64_t>(
                                      solutions.num_rows(), kNoTerm)));
  }
  return out;
}

Status SparqlEvaluator::Poll(size_t row) const {
  if (cancel_ == nullptr || row % kPollRows != 0) return Status::OK();
  return cancel_->Check();
}

Status SparqlEvaluator::PollWork() {
  if (cancel_ == nullptr || evaluated_ < next_poll_) return Status::OK();
  next_poll_ = evaluated_ + kPollNodes;
  return cancel_->Check();
}

Result<const std::regex*> SparqlEvaluator::CompiledRegex(
    const std::string& pattern, bool icase) {
  auto [it, fresh] = regexes_.try_emplace({pattern, icase});
  if (fresh) {
    try {
      it->second.emplace(pattern, icase ? std::regex::ECMAScript |
                                              std::regex::icase
                                        : std::regex::ECMAScript);
    } catch (const std::regex_error&) {
      // Left empty: every row that uses the pattern fails alike.
    }
  }
  if (!it->second) {
    return Status::InvalidArgument("REGEX: invalid pattern '" + pattern +
                                   "'");
  }
  return &*it->second;
}

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

Result<Table> SparqlEvaluator::EvalBasicGraphPattern(
    const std::vector<TriplePatternAst>& triples,
    const std::vector<PushedFilter>& filters) {
  Table solutions;
  TELEIOS_RETURN_IF_ERROR(solutions.AppendRow({}));  // the empty solution

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

    // Ground terms resolve once; an unknown one matches nothing.
    const PatternNode* nodes[3] = {&pat.s, &pat.p, &pat.o};
    std::optional<TermId> at[3];  // the positions a row's match fixes
    bool impossible = false;
    for (int k = 0; k < 3; ++k) {
      if (nodes[k]->is_var) continue;
      at[k] = store_->dict().Lookup(nodes[k]->term);
      impossible = impossible || *at[k] == kNoTerm;
    }

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
                (at[1] || bound_vars.count(pat.p.var));
    std::vector<TermId> candidates;
    if (restriction != nullptr && restriction->partner.empty()) {
      obs::Count("teleios_strabon_rtree_probes_total");
      candidates = index_->Query(
          restriction->Around(restriction->probe, index_->extent()));
    }
    int partner = restriction != nullptr && !restriction->partner.empty()
                      ? solutions.schema().FieldIndex(restriction->partner)
                      : -1;

    // Each variable position reads the column that binds it, or binds a new
    // variable (the first position naming it supplies its value). A match
    // must repeat a repeated variable's term (e.g. ?x ?p ?x), and a
    // restricted variable takes only the R-tree's candidates.
    const int64_t* bound_ids[3] = {nullptr, nullptr, nullptr};
    int same_as[3] = {-1, -1, -1};
    bool restricted[3] = {false, false, false};
    std::vector<std::string> new_vars;
    std::vector<int> new_pos;
    for (int k = 0; k < 3; ++k) {
      if (!nodes[k]->is_var) continue;
      const std::string& var = nodes[k]->var;
      for (int b = 0; b < k; ++b) {
        if (nodes[b]->is_var && nodes[b]->var == var) same_as[k] = b;
      }
      restricted[k] =
          restriction != nullptr && !seek && var == restriction->var;
      int col = solutions.schema().FieldIndex(var);
      if (col >= 0) {
        bound_ids[k] = solutions.column(col).ints().data();
      } else if (std::find(new_vars.begin(), new_vars.end(), var) ==
                 new_vars.end()) {
        new_vars.push_back(var);
        new_pos.push_back(k);
      }
      bound_vars.insert(var);
    }

    // The surviving parent row of every match, and the new variables'
    // values; the growth is charged as it happens.
    SelectionVector parents;
    std::vector<std::vector<int64_t>> values(new_vars.size());
    const size_t row_bytes =
        sizeof(uint32_t) +
        (solutions.num_columns() + new_vars.size()) * (sizeof(int64_t) + 1);
    size_t polled = 0;  // output rows when the token was last polled
    std::vector<rdf::Triple> matches;  // one row's, reused across rows
    const size_t rows = impossible ? 0 : solutions.num_rows();
    for (size_t r = 0; r < rows; ++r) {
      TELEIOS_RETURN_IF_ERROR(Poll(r));
      for (int k = 0; k < 3; ++k) {
        if (bound_ids[k] != nullptr) at[k] = bound_ids[k][r];
      }
      TriplePattern query{at[0], at[1], at[2]};

      if (partner >= 0) {
        // Spatial join: the candidates near this row's partner geometry.
        ++probes;
        auto g = cache_->Get(store_->dict().At(
            static_cast<TermId>(solutions.column(partner).GetInt64(r))));
        candidates.clear();
        if (g.ok()) {
          candidates = index_->Query(
              restriction->Around((*g)->GetEnvelope(), index_->extent()));
        }
        probe_candidates += candidates.size();
      }
      matches.clear();
      if (seek) {
        for (TermId c : candidates) {
          query.o = c;
          store_->Match(query, &matches);
        }
      } else {
        store_->Match(query, &matches);
      }
      for (const rdf::Triple& t : matches) {
        const TermId v[3] = {t.s, t.p, t.o};
        bool keep = true;
        for (int k = 0; k < 3 && keep; ++k) {
          keep = (same_as[k] < 0 || v[k] == v[same_as[k]]) &&
                 (!restricted[k] || std::binary_search(candidates.begin(),
                                                       candidates.end(), v[k]));
        }
        if (!keep) continue;
        parents.push_back(static_cast<uint32_t>(r));
        for (size_t j = 0; j < new_vars.size(); ++j) {
          values[j].push_back(v[new_pos[j]]);
        }
      }
      while (parents.size() * row_bytes > charged_) {
        size_t more = std::max(charged_, kPollRows * row_bytes);
        TELEIOS_ASSIGN_OR_RETURN(
            governor::BudgetCharge charge,
            governor::ChargeCurrent(more, "stsparql solutions"));
        charges_.push_back(std::move(charge));
        charged_ += more;
      }
      if (parents.size() >= polled + kPollRows) {
        polled = parents.size();
        if (cancel_ != nullptr) TELEIOS_RETURN_IF_ERROR(cancel_->Check());
      }
    }
    // A step that matched every row once, in order, keeps its columns.
    bool each_once = parents.size() == solutions.num_rows();
    for (size_t i = 0; each_once && i < parents.size(); ++i) {
      each_once = parents[i] == i;
    }
    if (!each_once) solutions = solutions.Take(parents);
    for (size_t j = 0; j < new_vars.size(); ++j) {
      solutions.AddColumn(new_vars[j], Column::FromInts(std::move(values[j])));
    }
    rows_built_ += solutions.num_rows();

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
    if (solutions.num_rows() == 0) break;
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

Status SparqlEvaluator::ApplyFilter(const SparqlExprPtr& filter,
                                    Table* solutions) {
  SelectionVector kept;
  for (size_t r = 0; r < solutions->num_rows(); ++r) {
    TELEIOS_RETURN_IF_ERROR(PollWork());
    auto value = EvalExpr(filter, *solutions, r);
    if (!value.ok()) continue;  // evaluation error -> row dropped
    auto ebv = EffectiveBooleanValue(*value);
    if (ebv.ok() && *ebv) kept.push_back(static_cast<uint32_t>(r));
  }
  if (kept.size() < solutions->num_rows()) *solutions = solutions->Take(kept);
  return Status::OK();
}

Status SparqlEvaluator::Bind(const std::string& var, const SparqlExprPtr& expr,
                             Table* solutions) {
  int col = solutions->schema().FieldIndex(var);
  std::vector<int64_t> ids = col >= 0 ? solutions->column(col).ints()
                                      : std::vector<int64_t>(
                                            solutions->num_rows(), kNoTerm);
  for (size_t r = 0; r < ids.size(); ++r) {
    TELEIOS_RETURN_IF_ERROR(PollWork());
    auto value = EvalExpr(expr, *solutions, r);
    if (value.ok()) {
      ids[r] = const_cast<rdf::TripleStore*>(store_)->dict().Intern(*value);
    }
  }
  if (col >= 0) {
    solutions->column(col) = Column::FromInts(std::move(ids));
  } else {
    solutions->AddColumn(var, Column::FromInts(std::move(ids)));
  }
  return Status::OK();
}

Result<Table> SparqlEvaluator::EvalGroup(const GroupPattern& group) {
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
  TELEIOS_ASSIGN_OR_RETURN(Table solutions,
                           EvalBasicGraphPattern(group.triples, pushed));
  for (const UnionPattern& u : group.unions) {
    TELEIOS_ASSIGN_OR_RETURN(Table lhs, EvalGroup(*u.left));
    TELEIOS_ASSIGN_OR_RETURN(Table rhs, EvalGroup(*u.right));
    // Both branches' rows over all their variables, the left's first; a
    // variable only one branch binds is unbound in the other's rows.
    std::vector<std::string> vars;
    for (const Table* branch : {&lhs, &rhs}) {
      for (const storage::Field& f : branch->schema().fields()) {
        if (std::find(vars.begin(), vars.end(), f.name) == vars.end()) {
          vars.push_back(f.name);
        }
      }
    }
    Table both = WithVars(lhs, vars);
    TELEIOS_RETURN_IF_ERROR(both.AppendTable(WithVars(rhs, vars)));
    TELEIOS_ASSIGN_OR_RETURN(solutions, JoinSolutions(solutions, both, false));
  }
  for (const GroupPattern& opt : group.optionals) {
    TELEIOS_ASSIGN_OR_RETURN(Table rhs, EvalGroup(opt));
    TELEIOS_ASSIGN_OR_RETURN(solutions, JoinSolutions(solutions, rhs, true));
  }
  for (const BindClause& bind : group.binds) {
    TELEIOS_RETURN_IF_ERROR(Bind(bind.var, bind.expr, &solutions));
  }
  for (const SparqlExprPtr& filter : last) {
    TELEIOS_RETURN_IF_ERROR(ApplyFilter(filter, &solutions));
  }
  return solutions;
}

Result<Term> SparqlEvaluator::EvalExpr(const SparqlExprPtr& expr,
                                       const Table& solutions, size_t row) {
  ++evaluated_;
  switch (expr->kind) {
    case SparqlExprKind::kTerm:
      return expr->term;
    case SparqlExprKind::kVar: {
      TermId id = Binding(solutions, expr->var, row);
      if (id == kNoTerm) {
        return Status::NotFound("unbound variable ?" + expr->var);
      }
      return store_->dict().At(id);
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
        return Term::BooleanLiteral(
            Binding(solutions, expr->args[0]->var, row) != kNoTerm);
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
        const bool icase = args.size() == 3 &&
                           args[2].lexical.find('i') != std::string::npos;
        TELEIOS_ASSIGN_OR_RETURN(const std::regex* re,
                                 CompiledRegex(args[1].lexical, icase));
        try {
          return Term::BooleanLiteral(std::regex_search(args[0].lexical, *re));
        } catch (const std::regex_error& e) {
          return Status::InvalidArgument(std::string("REGEX: ") + e.what());
        }
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
