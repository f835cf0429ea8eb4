#ifndef TELEIOS_RELATIONAL_EVALUATOR_H_
#define TELEIOS_RELATIONAL_EVALUATOR_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "common/value.h"
#include "relational/expression.h"
#include "storage/table.h"

namespace teleios::relational {

/// Evaluates an expression that references no column (an INSERT value, a
/// SciQL DEFAULT): SQL-ish semantics as BoundExpr. A column reference is
/// InvalidArgument.
Result<Value> EvaluateConstant(const ExprPtr& expr);

/// The field a column reference `name` binds to in `schema`: `name`
/// itself, else `name` past a "qualifier." prefix; -1 when neither exists.
int ResolveField(const storage::Schema& schema, const std::string& name);

/// An expression pre-bound to a table schema: column refs are resolved to
/// column indices once, making per-row evaluation cheap. Arithmetic stays
/// in int64 between int64s and is double otherwise; a NULL operand gives
/// NULL; numbers compare as CompareScalars does, exactly between int64s;
/// NOT, AND and OR are SQL's three-valued logic (NOT NULL is NULL, FALSE
/// AND NULL is FALSE, TRUE OR NULL is TRUE, otherwise a NULL operand gives
/// NULL), and a WHERE keeps only the rows it makes TRUE.
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

/// `a cmp b` for a comparison operator; for doubles the IEEE answer (a NaN
/// operand makes every comparison false but <>). The one comparison
/// behind both the interpreted and the vectorized WHERE; forced inline
/// because the vectorized filter calls it once per row, and GCC at -O2
/// otherwise leaves some of those calls out of line.
template <typename T>
[[gnu::always_inline]] inline bool CompareScalars(BinaryOp cmp, T a, T b) {
  switch (cmp) {
    case BinaryOp::kEq:
      return a == b;
    case BinaryOp::kNe:
      return a != b;
    case BinaryOp::kLt:
      return a < b;
    case BinaryOp::kLe:
      return a <= b;
    case BinaryOp::kGt:
      return a > b;
    case BinaryOp::kGe:
      return a >= b;
    default:
      return false;
  }
}

}  // namespace teleios::relational

#endif  // TELEIOS_RELATIONAL_EVALUATOR_H_
