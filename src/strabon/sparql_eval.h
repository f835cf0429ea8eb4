#ifndef TELEIOS_STRABON_SPARQL_EVAL_H_
#define TELEIOS_STRABON_SPARQL_EVAL_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "rdf/triple_store.h"
#include "storage/table.h"
#include "strabon/spatial_functions.h"
#include "strabon/spatial_index.h"
#include "strabon/sparql_algebra.h"

namespace teleios::strabon {

/// A set of SPARQL solutions: named variables, rows of term ids
/// (rdf::kNoTerm = unbound).
struct SolutionSet {
  std::vector<std::string> vars;
  std::vector<std::vector<rdf::TermId>> rows;

  int VarIndex(const std::string& name) const;
  /// Adds a variable column (unbound in existing rows); returns its index.
  int AddVar(const std::string& name);

  /// Pretty table: one VARCHAR column per variable, IRIs/literals printed
  /// without angle brackets or quotes.
  storage::Table ToTable(const rdf::TermDictionary& dict) const;
};

/// Evaluates group graph patterns against a triple store.
class SparqlEvaluator {
 public:
  /// `store`, `geometry_cache` and `index` must outlive the evaluator.
  /// With a null `index` every spatial FILTER is evaluated by scan;
  /// otherwise `index` must be refreshed for the store's current state.
  SparqlEvaluator(const rdf::TripleStore* store, GeometryCache* geometry_cache,
                  const SpatialIndex* index = nullptr)
      : store_(store), cache_(geometry_cache), index_(index) {}

  Result<SolutionSet> EvalGroup(const GroupPattern& group);

  /// Rows the basic graph patterns built, summed over their steps.
  size_t rows_built() const { return rows_built_; }
  /// R-tree lookups of spatial joins, and the candidates they returned.
  size_t join_probes() const { return join_probes_; }
  size_t join_candidates() const { return join_candidates_; }

  /// Evaluates an expression for row `row` of `solutions`. Unbound
  /// variables and type mismatches produce an error Status (which FILTER
  /// treats as false, per SPARQL semantics).
  Result<rdf::Term> EvalExpr(const SparqlExprPtr& expr,
                             const SolutionSet& solutions, size_t row);

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

  Result<SolutionSet> EvalBasicGraphPattern(
      const std::vector<TriplePatternAst>& triples,
      const std::vector<PushedFilter>& filters);
  Result<SolutionSet> Join(const SolutionSet& left, const SolutionSet& right,
                           bool left_outer);
  Status ApplyFilter(const SparqlExprPtr& filter, SolutionSet* solutions);

  const rdf::TripleStore* store_;
  GeometryCache* cache_;
  const SpatialIndex* index_;
  size_t rows_built_ = 0;
  size_t join_probes_ = 0;
  size_t join_candidates_ = 0;
};

}  // namespace teleios::strabon

#endif  // TELEIOS_STRABON_SPARQL_EVAL_H_
