#ifndef TELEIOS_RELATIONAL_OPERATORS_H_
#define TELEIOS_RELATIONAL_OPERATORS_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "relational/evaluator.h"
#include "relational/expression.h"
#include "storage/table.h"

namespace teleios::relational {

/// Rows of `table` for which `predicate` is truthy (candidate list),
/// ascending. Given `candidates` (ascending row ids), only those rows are
/// tested — MonetDB's candidate-list input to a selection.
///
/// A predicate whose every leaf is a simple comparison (column vs
/// constant, column vs column, column difference vs constant, a string
/// column = / <> / IN string literals by dictionary code, a bool column),
/// under any AND, OR and NOT, compiles to a tree evaluated on the raw
/// typed vectors — the MonetDB-style vectorized selection path. Anything
/// else runs whole on the row-wise expression interpreter.
Result<storage::SelectionVector> FilterIndices(
    const storage::Table& table, const ExprPtr& predicate,
    const storage::SelectionVector* candidates = nullptr);

/// The row-wise interpreter path only (no vectorization) — exposed for
/// the ablation benchmark; produces identical results to FilterIndices.
Result<storage::SelectionVector> FilterIndicesInterpreted(
    const storage::Table& table, const ExprPtr& predicate,
    const storage::SelectionVector* candidates = nullptr);

/// True if FilterIndices would take the vectorized path for `predicate`
/// against `table`; such a predicate cannot fail (SciQL's prefilter).
bool IsVectorizablePredicate(const storage::Table& table,
                             const ExprPtr& predicate);

/// That path by name, as PROFILE's `filter` spans show it: "vectorized"
/// or "interpreted".
const char* FilterPath(const storage::Table& table, const ExprPtr& predicate);

/// Materialized filter.
Result<storage::Table> Filter(const storage::Table& table,
                              const ExprPtr& predicate);

/// One output column to compute in Project: expression + output name.
struct ProjectItem {
  ExprPtr expr;
  std::string alias;
};

/// Computes one output column per item. A column-reference item passes
/// its column through with the declared type; a computed item's type is
/// inferred from its first non-null value (defaulting to DOUBLE).
Result<storage::Table> ProjectCompute(const storage::Table& table,
                                      const std::vector<ProjectItem>& items);

/// One SET of an UPDATE: the value of `expr` goes into column `column`.
struct Assignment {
  size_t column;
  ExprPtr expr;
};

/// The write half of an UPDATE: `columns` (copies, which share payloads
/// until written) with each assignment's value for row r of `table` set
/// at `to[r]` (at r when `to` is null), for the rows `rows` (every row
/// when null); assignments to one column apply in order. Values see
/// `table` as it stands, are evaluated in morsels that poll the current
/// cancellation token, and are staged, charged to the current budget,
/// before any is set; a value its column cannot hold is a TypeError.
Result<std::vector<storage::Column>> SetAssignments(
    const storage::Table& table, const storage::SelectionVector* rows,
    const std::vector<Assignment>& assignments,
    const storage::SelectionVector* to, std::vector<storage::Column> columns);

enum class JoinType { kInner, kLeftOuter };

/// Hash join on equality of `left_keys[i]` = `right_keys[i]`, where key
/// equality is the WHERE clause's `=` (an int64 meets a double as a
/// double; a string never equals a number; NULL and NaN keys never
/// match); with no keys every pair matches (the cross product). Output
/// rows follow left row order, each left row's matches in right row
/// order. Column name clashes in the output are disambiguated with a "r_"
/// prefix.
Result<storage::Table> HashJoin(const storage::Table& left,
                                const storage::Table& right,
                                const std::vector<std::string>& left_keys,
                                const std::vector<std::string>& right_keys,
                                JoinType type = JoinType::kInner);

/// One aggregate to compute in GroupAggregate.
struct AggregateItem {
  std::string function;  // count/sum/avg/min/max (lower case)
  ExprPtr argument;      // nullptr for count(*)
  std::string alias;
};

/// Hash group-by over `group_columns` computing `aggregates`. An empty
/// group list computes global aggregates (one output row). Keys group by
/// `=` (-0.0 with 0.0); NULL keys form one group, and NaN keys another.
Result<storage::Table> GroupAggregate(
    const storage::Table& table, const std::vector<std::string>& group_columns,
    const std::vector<AggregateItem>& aggregates);

struct SortKey {
  std::string column;
  bool descending = false;
};

/// Stable sort by the given keys (NULLs first).
Result<storage::Table> Sort(const storage::Table& table,
                            const std::vector<SortKey>& keys);

/// Rows [offset, offset+limit).
storage::Table Limit(const storage::Table& table, size_t limit,
                     size_t offset = 0);

/// Rows grouped by equal keys in the columns at `columns` (`=` equality,
/// -0.0 with 0.0; NULL keys form one group, NaN keys another): each row's
/// group id, numbered in order of first appearance, and each group's first
/// row. No columns put every row in one group. The key index is charged to
/// the current budget up front, and the current cancellation token is
/// polled as rows go in.
struct Grouping {
  std::vector<uint32_t> group_of;
  storage::SelectionVector first_rows;
};
Result<Grouping> GroupRows(const storage::Table& table,
                           const std::vector<size_t>& columns);

/// Removes duplicate rows (first occurrence kept).
Result<storage::Table> Distinct(const storage::Table& table);

}  // namespace teleios::relational

#endif  // TELEIOS_RELATIONAL_OPERATORS_H_
