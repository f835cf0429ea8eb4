#include "relational/expression.h"

#include <algorithm>

#include "common/strings.h"

namespace teleios::relational {

const char* BinaryOpName(BinaryOp op) {
  switch (op) {
    case BinaryOp::kAdd:
      return "+";
    case BinaryOp::kSub:
      return "-";
    case BinaryOp::kMul:
      return "*";
    case BinaryOp::kDiv:
      return "/";
    case BinaryOp::kMod:
      return "%";
    case BinaryOp::kEq:
      return "=";
    case BinaryOp::kNe:
      return "<>";
    case BinaryOp::kLt:
      return "<";
    case BinaryOp::kLe:
      return "<=";
    case BinaryOp::kGt:
      return ">";
    case BinaryOp::kGe:
      return ">=";
    case BinaryOp::kAnd:
      return "AND";
    case BinaryOp::kOr:
      return "OR";
    case BinaryOp::kLike:
      return "LIKE";
  }
  return "?";
}

ExprPtr Expr::Literal(Value v) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kLiteral;
  e->literal = std::move(v);
  return e;
}

ExprPtr Expr::ColumnRef(std::string name) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kColumnRef;
  e->column = std::move(name);
  return e;
}

ExprPtr Expr::Unary(UnaryOp op, ExprPtr operand) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kUnary;
  e->unary_op = op;
  e->children.push_back(std::move(operand));
  return e;
}

ExprPtr Expr::Binary(BinaryOp op, ExprPtr lhs, ExprPtr rhs) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kBinary;
  e->binary_op = op;
  e->children.push_back(std::move(lhs));
  e->children.push_back(std::move(rhs));
  return e;
}

ExprPtr Expr::Function(std::string name, std::vector<ExprPtr> args) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kFunction;
  e->function = StrLower(name);
  e->children = std::move(args);
  return e;
}

std::string Expr::ToString() const {
  switch (kind) {
    case ExprKind::kLiteral:
      return literal.type() == ValueType::kString
                 ? "'" + literal.ToString() + "'"
                 : literal.ToString();
    case ExprKind::kColumnRef:
      return column;
    case ExprKind::kUnary:
      return (unary_op == UnaryOp::kNeg ? "-" : "NOT ") +
             children[0]->ToString();
    case ExprKind::kBinary:
      return "(" + children[0]->ToString() + " " +
             BinaryOpName(binary_op) + " " + children[1]->ToString() + ")";
    case ExprKind::kFunction: {
      std::string s = function + "(";
      for (size_t i = 0; i < children.size(); ++i) {
        if (i) s += ", ";
        s += children[i]->ToString();
      }
      return s + ")";
    }
  }
  return "?";
}

void SplitConjuncts(const ExprPtr& expr, std::vector<ExprPtr>* out) {
  if (expr->kind == ExprKind::kBinary && expr->binary_op == BinaryOp::kAnd) {
    SplitConjuncts(expr->children[0], out);
    SplitConjuncts(expr->children[1], out);
    return;
  }
  out->push_back(expr);
}

ExprPtr AndTogether(const std::vector<ExprPtr>& exprs) {
  ExprPtr acc;
  for (const ExprPtr& e : exprs) {
    acc = acc ? Expr::Binary(BinaryOp::kAnd, acc, e) : e;
  }
  return acc;
}

bool IsAggregateFunction(const std::string& name) {
  return name == "count" || name == "sum" || name == "avg" ||
         name == "min" || name == "max";
}

bool ContainsAggregate(const ExprPtr& expr) {
  if (!expr) return false;
  if (expr->kind == ExprKind::kFunction && IsAggregateFunction(expr->function)) {
    return true;
  }
  return std::any_of(expr->children.begin(), expr->children.end(),
                     [](const ExprPtr& c) { return ContainsAggregate(c); });
}

void CollectColumnRefs(const ExprPtr& expr, std::vector<std::string>* out) {
  if (!expr) return;
  if (expr->kind == ExprKind::kColumnRef) {
    if (std::find(out->begin(), out->end(), expr->column) == out->end()) {
      out->push_back(expr->column);
    }
  }
  for (const ExprPtr& c : expr->children) CollectColumnRefs(c, out);
}

}  // namespace teleios::relational
