#ifndef TELEIOS_RELATIONAL_EVALUATOR_H_
#define TELEIOS_RELATIONAL_EVALUATOR_H_

#include <functional>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/value.h"
#include "relational/expression.h"
#include "storage/table.h"

namespace teleios::relational {

/// Resolves a column name to a Value for the current row; used to bind
/// expression trees against arbitrary row providers (tables, SciQL cells,
/// SPARQL solutions).
using ColumnResolver =
    std::function<Result<Value>(const std::string& name)>;

/// Evaluates `expr` with column refs resolved by `resolver`.
///
/// Semantics (SQL-ish): arithmetic promotes int->double when mixed; any
/// NULL operand yields NULL for arithmetic and comparisons; AND/OR use
/// two-valued truthiness over non-null values with NULL treated as false.
/// Scalar functions: abs, sqrt, floor, ceil, round, ln, exp, pow, least,
/// greatest, length, lower, upper, substr, concat, coalesce, if.
Result<Value> Evaluate(const ExprPtr& expr, const ColumnResolver& resolver);

/// The field a column reference `name` binds to in `schema`: `name`
/// itself, else `name` past a "qualifier." prefix; -1 when neither exists.
int ResolveField(const storage::Schema& schema, const std::string& name);

/// An expression pre-bound to a table schema: column refs are resolved to
/// column indices once, making per-row evaluation cheap.
class BoundExpr {
 public:
  /// Binds against `table`'s schema. An unknown column is an error unless
  /// it can be resolved by dropping a "qualifier." prefix.
  static Result<BoundExpr> Bind(const ExprPtr& expr,
                                const storage::Table& table);

  /// Evaluates for row `row` of the bound table.
  Result<Value> Eval(const storage::Table& table, size_t row) const;

 private:
  struct Node {
    ExprKind kind;
    Value literal;
    int column_index = -1;
    UnaryOp unary_op = UnaryOp::kNeg;
    BinaryOp binary_op = BinaryOp::kAdd;
    std::string function;
    std::vector<int> children;  // indices into nodes_
  };

  Result<int> BindNode(const ExprPtr& expr, const storage::Table& table);
  Result<Value> EvalNode(int idx, const storage::Table& table,
                         size_t row) const;

  std::vector<Node> nodes_;
  int root_ = -1;
};

/// SQL LIKE with % and _ wildcards.
bool LikeMatch(const std::string& text, const std::string& pattern);

/// Applies a binary operator to two scalar values.
Result<Value> ApplyBinary(BinaryOp op, const Value& lhs, const Value& rhs);

/// Applies a scalar (non-aggregate) function.
Result<Value> ApplyFunction(const std::string& name,
                            const std::vector<Value>& args);

}  // namespace teleios::relational

#endif  // TELEIOS_RELATIONAL_EVALUATOR_H_
