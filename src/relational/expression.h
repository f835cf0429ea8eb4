#ifndef TELEIOS_RELATIONAL_EXPRESSION_H_
#define TELEIOS_RELATIONAL_EXPRESSION_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/value.h"

namespace teleios::relational {

enum class ExprKind {
  kLiteral,
  kColumnRef,
  kUnary,
  kBinary,
  kFunction,
};

enum class UnaryOp { kNeg, kNot };

enum class BinaryOp {
  kAdd,
  kSub,
  kMul,
  kDiv,
  kMod,
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  kAnd,
  kOr,
  kLike,
};

const char* BinaryOpName(BinaryOp op);

struct Expr;
using ExprPtr = std::shared_ptr<const Expr>;

/// Immutable expression tree node, shared by the SQL and SciQL front ends.
struct Expr {
  ExprKind kind;

  // kLiteral
  Value literal;

  // kColumnRef: optionally qualified "table.column".
  std::string column;

  // kUnary / kBinary
  UnaryOp unary_op = UnaryOp::kNeg;
  BinaryOp binary_op = BinaryOp::kAdd;

  // kFunction: lower-cased name.
  std::string function;

  std::vector<ExprPtr> children;

  static ExprPtr Literal(Value v);
  static ExprPtr ColumnRef(std::string name);
  static ExprPtr Unary(UnaryOp op, ExprPtr operand);
  static ExprPtr Binary(BinaryOp op, ExprPtr lhs, ExprPtr rhs);
  static ExprPtr Function(std::string name, std::vector<ExprPtr> args);

  /// SQL-ish rendering for debugging and plan explanation.
  std::string ToString() const;
};

/// True when `name` is one of the SQL aggregate functions
/// (count/sum/avg/min/max).
bool IsAggregateFunction(const std::string& name);

/// True when the tree contains an aggregate function call.
bool ContainsAggregate(const ExprPtr& expr);

/// Collects the distinct column names referenced by the tree.
void CollectColumnRefs(const ExprPtr& expr, std::vector<std::string>* out);

/// Appends the AND-ed factors of `expr` to `out`, left to right.
void SplitConjuncts(const ExprPtr& expr, std::vector<ExprPtr>* out);

/// `exprs` AND-ed together left to right; null when empty.
ExprPtr AndTogether(const std::vector<ExprPtr>& exprs);

}  // namespace teleios::relational

#endif  // TELEIOS_RELATIONAL_EXPRESSION_H_
