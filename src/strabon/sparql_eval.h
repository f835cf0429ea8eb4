#ifndef TELEIOS_STRABON_SPARQL_EVAL_H_
#define TELEIOS_STRABON_SPARQL_EVAL_H_

#include <map>
#include <optional>
#include <regex>
#include <string>
#include <utility>
#include <vector>

#include "common/cancellation.h"
#include "common/status.h"
#include "governor/memory_budget.h"
#include "rdf/triple_store.h"
#include "storage/table.h"
#include "strabon/spatial_functions.h"
#include "strabon/spatial_index.h"
#include "strabon/sparql_algebra.h"

namespace teleios::strabon {

/// Evaluates group graph patterns against a triple store. A set of
/// solutions is a storage::Table of term ids: one BIGINT column per
/// variable, named by it, with rdf::kNoTerm (an ordinary value, not NULL)
/// where the variable is unbound, so that joins, DISTINCT and grouping on
/// the relational kernels match unbound with unbound.
///
/// The evaluator polls the thread's cancellation token and charges the
/// solutions its basic graph patterns build to the thread's memory
/// budget; the charges last as long as the evaluator.
class SparqlEvaluator {
 public:
  /// `store`, `geometry_cache` and `index` must outlive the evaluator.
  /// With a null `index` every spatial FILTER is evaluated by scan;
  /// otherwise `index` must be refreshed for the store's current state.
  SparqlEvaluator(const rdf::TripleStore* store, GeometryCache* geometry_cache,
                  const SpatialIndex* index = nullptr)
      : store_(store),
        cache_(geometry_cache),
        index_(index),
        cancel_(CurrentCancel()) {}

  Result<storage::Table> EvalGroup(const GroupPattern& group);

  /// Rows the basic graph patterns built, summed over their steps.
  size_t rows_built() const { return rows_built_; }
  /// R-tree lookups of spatial joins, and the candidates they returned.
  size_t join_probes() const { return join_probes_; }
  size_t join_candidates() const { return join_candidates_; }

  /// Evaluates an expression for row `row` of `solutions`. Unbound
  /// variables and type mismatches produce an error Status (which FILTER
  /// treats as false, per SPARQL semantics).
  Result<rdf::Term> EvalExpr(const SparqlExprPtr& expr,
                             const storage::Table& solutions, size_t row);

  /// Binds `var` in every row to the interned value of `expr`; a row where
  /// `expr` fails keeps its binding (unbound when `var` is new).
  Status Bind(const std::string& var, const SparqlExprPtr& expr,
              storage::Table* solutions);

  /// SPARQL effective boolean value of a term.
  static Result<bool> EffectiveBooleanValue(const rdf::Term& term);

  /// Total order over terms for ORDER BY / comparisons: numeric literals
  /// by value, dateTimes chronologically, strings lexically, IRIs/blanks
  /// by lexical form. Returns <0, 0, >0.
  static int CompareTerms(const rdf::Term& a, const rdf::Term& b);

 private:
  /// A FILTER run inside a BGP, with the variables it waits for.
  struct PushedFilter {
    SparqlExprPtr expr;
    std::vector<std::string> vars;
  };

  Result<storage::Table> EvalBasicGraphPattern(
      const std::vector<TriplePatternAst>& triples,
      const std::vector<PushedFilter>& filters);
  Status ApplyFilter(const SparqlExprPtr& filter, storage::Table* solutions);
  /// Polls the cancellation token on every kPollRows-th row of a basic
  /// graph pattern.
  Status Poll(size_t row) const;
  /// Polls the cancellation token once kPollNodes more expression nodes
  /// were evaluated since the last poll (and on the first call): FILTER
  /// and BIND call it per row, so the gap between polls is bounded by
  /// evaluation work, not by a row count.
  Status PollWork();
  /// REGEX's compiled `pattern`, compiled on its first use in this
  /// statement; an error when it does not compile.
  Result<const std::regex*> CompiledRegex(const std::string& pattern,
                                          bool icase);

  const rdf::TripleStore* store_;
  GeometryCache* cache_;
  const SpatialIndex* index_;
  const CancellationToken* cancel_;
  /// The budget charged for the largest table a BGP step built, doubling
  /// from kPollRows rows.
  std::vector<governor::BudgetCharge> charges_;
  size_t charged_ = 0;
  size_t rows_built_ = 0;
  /// Expression nodes EvalExpr evaluated, and the count at which
  /// PollWork polls next.
  size_t evaluated_ = 0;
  size_t next_poll_ = 0;
  size_t join_probes_ = 0;
  size_t join_candidates_ = 0;
  /// Keyed by (pattern, icase); nullopt for a pattern that failed.
  std::map<std::pair<std::string, bool>, std::optional<std::regex>> regexes_;
};

/// The term id `solutions` binds `var` to in `row`; kNoTerm when unbound.
rdf::TermId Binding(const storage::Table& solutions, const std::string& var,
                    size_t row);

/// `solutions` with exactly the columns `vars`, in that order (shared, not
/// copied); a variable it lacks is unbound in every row.
storage::Table WithVars(const storage::Table& solutions,
                        const std::vector<std::string>& vars);

}  // namespace teleios::strabon

#endif  // TELEIOS_STRABON_SPARQL_EVAL_H_
