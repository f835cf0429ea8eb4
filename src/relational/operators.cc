#include "relational/operators.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>

#include "exec/parallel_for.h"
#include "governor/memory_budget.h"

namespace teleios::relational {

using storage::Column;
using storage::ColumnType;
using storage::Field;
using storage::Schema;
using storage::SelectionVector;
using storage::Table;

namespace {

/// One leaf of a compiled WHERE. Shapes:
///   kColConst:  col CMP constant            (numeric or bool column)
///   kColCol:    colA CMP colB               (numeric columns)
///   kDiffConst: (colA - colB) CMP constant  (numeric columns)
///   kCodeIn:    string col = or <> a set of dictionary codes: what
///               `col = 'x'`, `col <> 'x'` and `col IN ('x', ...)` compile
///               to (literals the dictionary lacks match no row)
///   kBoolCol:   bare bool column reference
/// A row passes a leaf when every column the leaf reads is valid there and
/// the test holds. A negated leaf (a NOT pushed down onto it) keeps the
/// rows whose columns are valid and where the test fails: NOT of NULL is
/// NULL, which a WHERE drops, as in the interpreter's three-valued logic.
struct Leaf {
  enum class Kind { kColConst, kColCol, kDiffConst, kCodeIn, kBoolCol };
  Kind kind;
  BinaryOp cmp = BinaryOp::kEq;
  int col_a = -1;
  int col_b = -1;
  double constant = 0;
  /// An integer literal also as an int64: a BIGINT column, or the
  /// difference of two, meets it exactly, as the interpreter does.
  bool int_constant = false;
  int64_t int_value = 0;
  /// kCodeIn: the codes of the literals, distinct once the tree is
  /// compiled; a set of two or more also as one bit per dictionary code.
  std::vector<int32_t> codes;
  std::vector<uint64_t> members;
  bool negate = false;
};

/// A compiled WHERE: one leaf, or an AND or OR of nodes in source order.
struct PredNode {
  enum class Kind { kLeaf, kAnd, kOr };
  Kind kind = Kind::kLeaf;
  Leaf leaf;
  std::vector<PredNode> children;
};

bool IsNumericColumn(const Table& table, int col) {
  ColumnType t = table.column(static_cast<size_t>(col)).type();
  return t == ColumnType::kInt64 || t == ColumnType::kFloat64 ||
         t == ColumnType::kBool;
}

double NumericAt(const Column& col, size_t row) {
  switch (col.type()) {
    case ColumnType::kInt64:
      return static_cast<double>(col.GetInt64(row));
    case ColumnType::kFloat64:
      return col.GetFloat64(row);
    case ColumnType::kBool:
      return col.GetBool(row) ? 1.0 : 0.0;
    case ColumnType::kString:
      return 0.0;
  }
  return 0.0;
}

bool IsComparison(BinaryOp op) {
  return op == BinaryOp::kEq || op == BinaryOp::kNe || op == BinaryOp::kLt ||
         op == BinaryOp::kLe || op == BinaryOp::kGt || op == BinaryOp::kGe;
}

int ResolveColumn(const Table& table, const ExprPtr& e) {
  if (e->kind != ExprKind::kColumnRef) return -1;
  return ResolveField(table.schema(), e->column);
}

/// Reads a numeric literal, or a unary minus over one (how the parser
/// reads a negative number: its literal is never negative, so negating
/// an int64 cannot overflow), into `out`'s constant.
bool NumericLiteral(const ExprPtr& e, Leaf* out) {
  if (e->kind == ExprKind::kUnary && e->unary_op == UnaryOp::kNeg) {
    if (e->children[0]->kind != ExprKind::kLiteral ||
        !NumericLiteral(e->children[0], out)) {
      return false;
    }
    out->constant = -out->constant;
    out->int_value = -out->int_value;
    return true;
  }
  if (e->kind != ExprKind::kLiteral) return false;
  auto d = e->literal.ToDouble();
  if (!d.ok()) return false;
  out->constant = *d;
  out->int_constant = e->literal.type() == ValueType::kInt64;
  if (out->int_constant) out->int_value = e->literal.AsInt64();
  return true;
}

bool BothInt64(const Column& a, const Column& b) {
  return a.type() == ColumnType::kInt64 && b.type() == ColumnType::kInt64;
}

/// a - b in int64, wrapping where the interpreter's subtraction would
/// overflow.
int64_t Int64Difference(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) -
                              static_cast<uint64_t>(b));
}

/// Tries to compile one leaf; false if the shape is unsupported.
bool CompileLeaf(const Table& table, const ExprPtr& e, Leaf* out) {
  // Bare bool column.
  if (e->kind == ExprKind::kColumnRef) {
    int col = ResolveColumn(table, e);
    if (col < 0 ||
        table.column(static_cast<size_t>(col)).type() != ColumnType::kBool) {
      return false;
    }
    out->kind = Leaf::Kind::kBoolCol;
    out->col_a = col;
    return true;
  }
  if (e->kind != ExprKind::kBinary || !IsComparison(e->binary_op)) {
    return false;
  }
  const ExprPtr& lhs = e->children[0];
  const ExprPtr& rhs = e->children[1];
  // String equality: col = 'x' / col <> 'x' (either side).
  auto try_str = [&](const ExprPtr& col_e, const ExprPtr& lit_e) {
    if (e->binary_op != BinaryOp::kEq && e->binary_op != BinaryOp::kNe) {
      return false;
    }
    int col = ResolveColumn(table, col_e);
    if (col < 0 || table.column(static_cast<size_t>(col)).type() !=
                       ColumnType::kString) {
      return false;
    }
    if (lit_e->kind != ExprKind::kLiteral ||
        lit_e->literal.type() != ValueType::kString) {
      return false;
    }
    out->kind = Leaf::Kind::kCodeIn;
    out->cmp = e->binary_op;
    out->col_a = col;
    int32_t code = table.column(static_cast<size_t>(col))
                       .dict()
                       .Lookup(lit_e->literal.AsString());
    if (code != storage::Dictionary::kInvalidCode) out->codes.push_back(code);
    return true;
  };
  if (try_str(lhs, rhs) || try_str(rhs, lhs)) return true;

  // col CMP const / const CMP col.
  int col = ResolveColumn(table, lhs);
  if (col >= 0 && IsNumericColumn(table, col) && NumericLiteral(rhs, out)) {
    out->kind = Leaf::Kind::kColConst;
    out->cmp = e->binary_op;
    out->col_a = col;
    return true;
  }
  col = ResolveColumn(table, rhs);
  if (col >= 0 && IsNumericColumn(table, col) && NumericLiteral(lhs, out)) {
    // Mirror the comparison: const CMP col == col CMP' const.
    BinaryOp mirrored = e->binary_op;
    switch (e->binary_op) {
      case BinaryOp::kLt:
        mirrored = BinaryOp::kGt;
        break;
      case BinaryOp::kLe:
        mirrored = BinaryOp::kGe;
        break;
      case BinaryOp::kGt:
        mirrored = BinaryOp::kLt;
        break;
      case BinaryOp::kGe:
        mirrored = BinaryOp::kLe;
        break;
      default:
        break;
    }
    out->kind = Leaf::Kind::kColConst;
    out->cmp = mirrored;
    out->col_a = col;
    return true;
  }
  // colA CMP colB.
  int col_a = ResolveColumn(table, lhs);
  int col_b = ResolveColumn(table, rhs);
  if (col_a >= 0 && col_b >= 0 && IsNumericColumn(table, col_a) &&
      IsNumericColumn(table, col_b)) {
    out->kind = Leaf::Kind::kColCol;
    out->cmp = e->binary_op;
    out->col_a = col_a;
    out->col_b = col_b;
    return true;
  }
  // (colA - colB) CMP const.
  if (lhs->kind == ExprKind::kBinary && lhs->binary_op == BinaryOp::kSub &&
      NumericLiteral(rhs, out)) {
    int a = ResolveColumn(table, lhs->children[0]);
    int b = ResolveColumn(table, lhs->children[1]);
    if (a >= 0 && b >= 0 && IsNumericColumn(table, a) &&
        IsNumericColumn(table, b)) {
      out->kind = Leaf::Kind::kDiffConst;
      out->cmp = e->binary_op;
      out->col_a = a;
      out->col_b = b;
      return true;
    }
  }
  return false;
}

/// True when code-set leaves `a` and `b` act, inside a node of kind
/// `kind`, as one leaf over the union of their codes: in an OR when a
/// larger set keeps more rows (`=`, or `<>` under a NOT), in an AND when
/// it keeps fewer (`<>`, or `=` under a NOT, which NOT IN gives).
bool Foldable(const Leaf& a, const Leaf& b, PredNode::Kind kind) {
  if (a.kind != Leaf::Kind::kCodeIn || b.kind != Leaf::Kind::kCodeIn ||
      a.col_a != b.col_a || a.cmp != b.cmp || a.negate != b.negate) {
    return false;
  }
  const bool grows = (a.cmp == BinaryOp::kEq) != a.negate;
  return grows == (kind == PredNode::Kind::kOr);
}

/// Compiles `e`, under a NOT when `negate`, into `out`; false when some
/// leaf has no compiled form. NOT is pushed down to the leaves by De
/// Morgan's laws; nested ANDs (ORs) flatten into one node, in source
/// order, and its foldable code-set leaves merge into the first of them.
bool CompileNode(const Table& table, const ExprPtr& e, bool negate,
                 PredNode* out) {
  if (e->kind == ExprKind::kUnary && e->unary_op == UnaryOp::kNot) {
    return CompileNode(table, e->children[0], !negate, out);
  }
  if (e->kind != ExprKind::kBinary ||
      (e->binary_op != BinaryOp::kAnd && e->binary_op != BinaryOp::kOr)) {
    out->kind = PredNode::Kind::kLeaf;
    out->leaf.negate = negate;
    return CompileLeaf(table, e, &out->leaf);
  }
  out->kind = (e->binary_op == BinaryOp::kAnd) != negate
                  ? PredNode::Kind::kAnd
                  : PredNode::Kind::kOr;
  for (const ExprPtr& side : e->children) {
    PredNode child;
    if (!CompileNode(table, side, negate, &child)) return false;
    std::vector<PredNode> parts;
    if (child.kind == out->kind) {
      parts = std::move(child.children);
    } else {
      parts.push_back(std::move(child));
    }
    for (PredNode& part : parts) {
      auto into = std::find_if(
          out->children.begin(), out->children.end(), [&](const PredNode& c) {
            return c.kind == PredNode::Kind::kLeaf &&
                   part.kind == PredNode::Kind::kLeaf &&
                   Foldable(c.leaf, part.leaf, out->kind);
          });
      if (into == out->children.end()) {
        out->children.push_back(std::move(part));
      } else {
        std::vector<int32_t>& codes = into->leaf.codes;
        codes.insert(codes.end(), part.leaf.codes.begin(),
                     part.leaf.codes.end());
      }
    }
  }
  if (out->children.size() == 1) {
    PredNode only = std::move(out->children.front());
    *out = std::move(only);
  }
  return true;
}

/// Makes every code-set leaf's codes distinct, and gives a set of two or
/// more its bit set.
void BuildMembers(const Table& table, PredNode* node) {
  for (PredNode& child : node->children) BuildMembers(table, &child);
  Leaf& leaf = node->leaf;
  if (node->kind != PredNode::Kind::kLeaf ||
      leaf.kind != Leaf::Kind::kCodeIn) {
    return;
  }
  std::sort(leaf.codes.begin(), leaf.codes.end());
  leaf.codes.erase(std::unique(leaf.codes.begin(), leaf.codes.end()),
                   leaf.codes.end());
  if (leaf.codes.size() < 2) return;
  const int32_t size =
      table.column(static_cast<size_t>(leaf.col_a)).dict().size();
  leaf.members.assign(static_cast<size_t>(size + 63) / 64, 0);
  for (int32_t code : leaf.codes) {
    leaf.members[static_cast<size_t>(code) / 64] |= uint64_t{1}
                                                    << (code % 64);
  }
}

/// Compiles the whole WHERE; false when any leaf has no compiled form, so
/// the interpreter runs all of it.
bool CompilePredicate(const Table& table, const ExprPtr& predicate,
                      PredNode* root) {
  if (!CompileNode(table, predicate, false, root)) return false;
  BuildMembers(table, root);
  return true;
}

/// The deepest nesting of OR nodes in `node`.
size_t OrDepth(const PredNode& node) {
  size_t deepest = 0;
  for (const PredNode& child : node.children) {
    deepest = std::max(deepest, OrDepth(child));
  }
  return deepest + (node.kind == PredNode::Kind::kOr ? 1 : 0);
}

/// Narrows `sel` in place, in order, to the rows whose `valid_a` and
/// `valid_b` bytes are set and that pass `test` (that fail it, when
/// `negate`): one loop per typed test, which captures pointers and
/// constants by value so they stay in registers across the output stores.
/// A one-column leaf passes its column's validity twice.
template <typename Test>
void Keep(SelectionVector* sel, const uint8_t* valid_a,
          const uint8_t* valid_b, bool negate, Test test) {
  uint32_t* rows = sel->data();
  size_t kept = 0;
  for (size_t i = 0, n = sel->size(); i < n; ++i) {
    const uint32_t r = rows[i];
    rows[kept] = r;
    kept += valid_a[r] && valid_b[r] && (test(r) != negate);
  }
  sel->resize(kept);
}

/// Applies one compiled leaf on the raw vectors.
void ApplyLeaf(const Table& table, const Leaf& leaf, SelectionVector* sel) {
  const Column& a = table.column(static_cast<size_t>(leaf.col_a));
  const Column& b = table.column(
      static_cast<size_t>(leaf.col_b >= 0 ? leaf.col_b : leaf.col_a));
  const uint8_t* valid_a = a.validity().data();
  const uint8_t* valid_b = b.validity().data();
  const double* da = a.doubles().data();
  const double* db = b.doubles().data();
  const int64_t* ia = a.ints().data();
  const int64_t* ib = b.ints().data();
  const BinaryOp cmp = leaf.cmp;
  const double k = leaf.constant;
  const int64_t ik = leaf.int_value;
  const bool negate = leaf.negate;
  switch (leaf.kind) {
    case Leaf::Kind::kColConst:
      if (a.type() == ColumnType::kFloat64) {
        Keep(sel, valid_a, valid_b, negate, [=](uint32_t r) {
          return CompareScalars(cmp, da[r], k);
        });
      } else if (a.type() == ColumnType::kInt64 && leaf.int_constant) {
        Keep(sel, valid_a, valid_b, negate, [=](uint32_t r) {
          return CompareScalars(cmp, ia[r], ik);
        });
      } else {
        Keep(sel, valid_a, valid_b, negate, [=, &a](uint32_t r) {
          return CompareScalars(cmp, NumericAt(a, r), k);
        });
      }
      break;
    case Leaf::Kind::kColCol:
      if (BothInt64(a, b)) {
        Keep(sel, valid_a, valid_b, negate, [=](uint32_t r) {
          return CompareScalars(cmp, ia[r], ib[r]);
        });
      } else {
        Keep(sel, valid_a, valid_b, negate, [=, &a, &b](uint32_t r) {
          return CompareScalars(cmp, NumericAt(a, r), NumericAt(b, r));
        });
      }
      break;
    case Leaf::Kind::kDiffConst:
      if (a.type() == ColumnType::kFloat64 &&
          b.type() == ColumnType::kFloat64) {
        Keep(sel, valid_a, valid_b, negate, [=](uint32_t r) {
          return CompareScalars(cmp, da[r] - db[r], k);
        });
      } else if (BothInt64(a, b) && leaf.int_constant) {
        // Subtracted in int64, as the interpreter does.
        Keep(sel, valid_a, valid_b, negate, [=](uint32_t r) {
          return CompareScalars(cmp, Int64Difference(ia[r], ib[r]), ik);
        });
      } else if (BothInt64(a, b)) {
        Keep(sel, valid_a, valid_b, negate, [=](uint32_t r) {
          return CompareScalars(
              cmp, static_cast<double>(Int64Difference(ia[r], ib[r])), k);
        });
      } else {
        Keep(sel, valid_a, valid_b, negate, [=, &a, &b](uint32_t r) {
          return CompareScalars(cmp, NumericAt(a, r) - NumericAt(b, r), k);
        });
      }
      break;
    case Leaf::Kind::kCodeIn: {
      const int32_t* codes = a.codes().data();
      const bool outside = cmp == BinaryOp::kNe;
      if (leaf.members.empty()) {
        // No code or one: a compare costs less than a bit test.
        const int32_t code = leaf.codes.empty()
                                 ? storage::Dictionary::kInvalidCode
                                 : leaf.codes.front();
        Keep(sel, valid_a, valid_b, negate, [=](uint32_t r) {
          return (codes[r] == code) != outside;
        });
        break;
      }
      const uint64_t* members = leaf.members.data();
      Keep(sel, valid_a, valid_b, negate, [=](uint32_t r) {
        const uint32_t code = static_cast<uint32_t>(codes[r]);
        return ((members[code / 64] >> (code % 64)) & 1) != outside;
      });
      break;
    }
    case Leaf::Kind::kBoolCol:
      Keep(sel, valid_a, valid_b, negate, [&a](uint32_t r) { return a.GetBool(r); });
      break;
  }
}

/// Narrows `sel` (ascending rows) to the rows `node` accepts, in order.
/// An AND narrows through its children in turn. An OR tests each branch
/// only on the rows no earlier branch accepted, so the accepted sets are
/// disjoint, and merges them back into row order.
void ApplyNode(const Table& table, const PredNode& node,
               SelectionVector* sel) {
  switch (node.kind) {
    case PredNode::Kind::kLeaf:
      ApplyLeaf(table, node.leaf, sel);
      return;
    case PredNode::Kind::kAnd:
      for (const PredNode& child : node.children) {
        if (sel->empty()) return;
        ApplyNode(table, child, sel);
      }
      return;
    case PredNode::Kind::kOr: {
      SelectionVector rest = std::move(*sel);
      SelectionVector accepted, hits, merged;
      for (const PredNode& child : node.children) {
        if (rest.empty()) break;
        hits = rest;
        ApplyNode(table, child, &hits);
        if (hits.empty()) continue;
        // `hits` is an ordered subset of `rest`: drop it from `rest`.
        size_t kept = 0;
        for (size_t i = 0, h = 0; i < rest.size(); ++i) {
          if (h < hits.size() && hits[h] == rest[i]) {
            ++h;
          } else {
            rest[kept++] = rest[i];
          }
        }
        rest.resize(kept);
        merged.resize(accepted.size() + hits.size());
        std::merge(accepted.begin(), accepted.end(), hits.begin(), hits.end(),
                   merged.begin());
        accepted.swap(merged);
      }
      *sel = std::move(accepted);
      return;
    }
  }
}

}  // namespace

bool IsVectorizablePredicate(const Table& table, const ExprPtr& predicate) {
  PredNode root;
  return CompileNode(table, predicate, false, &root);
}

const char* FilterPath(const Table& table, const ExprPtr& predicate) {
  return IsVectorizablePredicate(table, predicate) ? "vectorized"
                                                   : "interpreted";
}

namespace {

/// Concatenates per-morsel selections in morsel-index order — exactly
/// the row order a serial scan would produce.
SelectionVector MergeSelections(std::vector<SelectionVector>& partials) {
  size_t total = 0;
  for (const SelectionVector& p : partials) total += p.size();
  SelectionVector sel;
  sel.reserve(total);
  for (SelectionVector& p : partials) {
    sel.insert(sel.end(), p.begin(), p.end());
  }
  return sel;
}

/// Row `i` of the rows a filter tests: `candidates[i]`, or `i` itself.
uint32_t CandidateRow(const SelectionVector* candidates, size_t i) {
  return candidates != nullptr ? (*candidates)[i] : static_cast<uint32_t>(i);
}

}  // namespace

Result<SelectionVector> FilterIndicesInterpreted(
    const Table& table, const ExprPtr& predicate,
    const SelectionVector* candidates) {
  TELEIOS_ASSIGN_OR_RETURN(BoundExpr bound,
                           BoundExpr::Bind(predicate, table));
  const size_t n =
      candidates != nullptr ? candidates->size() : table.num_rows();
  // Worst case the partials plus their merged copy hold every row index.
  TELEIOS_ASSIGN_OR_RETURN(
      governor::BudgetCharge charge,
      governor::ChargeCurrent(n * 2 * sizeof(uint32_t),
                              "filter selection vectors"));
  exec::ParallelOptions opts;
  opts.label = "exec.filter";
  exec::MorselPlan plan = exec::PlanMorsels(n, opts.grain);
  std::vector<SelectionVector> partials(plan.count);
  TELEIOS_RETURN_IF_ERROR(exec::ParallelFor(
      n, opts, [&](size_t morsel, size_t begin, size_t end) -> Status {
        SelectionVector& sel = partials[morsel];
        for (size_t i = begin; i < end; ++i) {
          uint32_t r = CandidateRow(candidates, i);
          TELEIOS_ASSIGN_OR_RETURN(Value v, bound.Eval(table, r));
          if (v.Truthy()) sel.push_back(r);
        }
        return Status::OK();
      }));
  return MergeSelections(partials);
}

Result<SelectionVector> FilterIndices(const Table& table,
                                      const ExprPtr& predicate,
                                      const SelectionVector* candidates) {
  PredNode root;
  if (!CompilePredicate(table, predicate, &root)) {
    return FilterIndicesInterpreted(table, predicate, candidates);
  }
  const size_t n =
      candidates != nullptr ? candidates->size() : table.num_rows();
  // Worst case the partials plus their merged copy hold every row index,
  // and each level of ORs a branch's hits, the rows it accepted so far
  // and their merge.
  TELEIOS_ASSIGN_OR_RETURN(
      governor::BudgetCharge charge,
      governor::ChargeCurrent(n * (2 + 3 * OrDepth(root)) * sizeof(uint32_t),
                              "filter selection vectors"));
  exec::ParallelOptions opts;
  opts.label = "exec.filter";
  exec::MorselPlan plan = exec::PlanMorsels(n, opts.grain);
  std::vector<SelectionVector> partials(plan.count);
  TELEIOS_RETURN_IF_ERROR(exec::ParallelFor(
      n, opts, [&](size_t morsel, size_t begin, size_t end) -> Status {
        SelectionVector& sel = partials[morsel];
        if (candidates != nullptr) {
          sel.assign(candidates->begin() + static_cast<ptrdiff_t>(begin),
                     candidates->begin() + static_cast<ptrdiff_t>(end));
        } else {
          sel.resize(end - begin);
          std::iota(sel.begin(), sel.end(), static_cast<uint32_t>(begin));
        }
        ApplyNode(table, root, &sel);
        return Status::OK();
      }));
  return MergeSelections(partials);
}

Result<Table> Filter(const Table& table, const ExprPtr& predicate) {
  TELEIOS_ASSIGN_OR_RETURN(SelectionVector sel,
                           FilterIndices(table, predicate));
  return table.Take(sel);
}

namespace {

ColumnType InferColumnType(const std::vector<Value>& values) {
  for (const Value& v : values) {
    if (v.is_null()) continue;
    auto ct = storage::ColumnTypeForValue(v.type());
    if (ct.ok()) return *ct;
  }
  return ColumnType::kFloat64;
}

// --- typed keys ------------------------------------------------------------
//
// HashJoin, GroupAggregate and Distinct key a row by one 64-bit word per key
// column, chosen so that key equality is the WHERE clause's `=`:
//   kInt     int64 by value, bool as 0/1;
//   kDouble  the bits of the value as a double — an int64 or bool that meets
//            a double in a join converts first, as `=` compares them — with
//            -0.0 folded into 0.0 and every NaN into one NaN;
//   kCode    a string's dictionary code, translated into the build side's
//            dictionary when a join's two columns do not share one.
// A NULL cell encodes as 0 and sets its column's bit in the trailing
// null-mask words, so NULL keys group together; a join skips every row
// whose mask is non-zero, so NULL keys never join. A join's NaN sets the
// bit too, since `=` calls NaN equal to nothing; grouping keeps one NaN.

enum class KeyKind { kInt, kDouble, kCode };

struct KeyColumn {
  const Column* column;
  KeyKind kind;
  /// Probe-side code -> build-side code (kInvalidCode when absent there).
  const std::vector<int32_t>* translate = nullptr;
  /// A join key: a NaN marks its row like a NULL.
  bool nan_is_null = false;
};

/// A column keyed by its own type.
KeyColumn OwnKey(const Column& column) {
  if (column.type() == ColumnType::kFloat64) return {&column, KeyKind::kDouble};
  if (column.type() == ColumnType::kString) return {&column, KeyKind::kCode};
  return {&column, KeyKind::kInt};
}

/// Words per encoded key: one per column, then the null mask.
size_t KeyWidth(size_t columns) { return columns + (columns + 63) / 64; }

bool HasNullKey(const uint64_t* key, size_t columns) {
  for (size_t w = columns; w < KeyWidth(columns); ++w) {
    if (key[w] != 0) return true;
  }
  return false;
}

uint64_t DoubleWord(double d) {
  if (d == 0.0) d = 0.0;
  if (std::isnan(d)) d = std::numeric_limits<double>::quiet_NaN();
  uint64_t word;
  std::memcpy(&word, &d, sizeof(word));
  return word;
}

uint64_t CodeWord(int32_t code) {
  return static_cast<uint32_t>(code);
}

/// Encodes the keys of rows [begin, end) into `words`, KeyWidth words per
/// row, one key column at a time.
void EncodeKeys(const std::vector<KeyColumn>& keys, size_t begin, size_t end,
                uint64_t* words) {
  const size_t width = KeyWidth(keys.size());
  const size_t rows = end - begin;
  std::fill(words, words + rows * width, 0);
  for (size_t k = 0; k < keys.size(); ++k) {
    const Column& col = *keys[k].column;
    const uint64_t null_bit = uint64_t{1} << (k % 64);
    const size_t mask_word = keys.size() + k / 64;
    auto each = [&](auto word_of) {
      for (size_t i = 0; i < rows; ++i) {
        if (col.IsNull(begin + i)) {
          words[i * width + mask_word] |= null_bit;
        } else {
          words[i * width + k] = word_of(begin + i);
        }
      }
    };
    switch (keys[k].kind) {
      case KeyKind::kInt:
        if (col.type() == ColumnType::kBool) {
          each([&](size_t r) -> uint64_t { return col.GetBool(r) ? 1 : 0; });
        } else {
          const int64_t* data = col.ints().data();
          each([&](size_t r) { return static_cast<uint64_t>(data[r]); });
        }
        break;
      case KeyKind::kDouble:
        if (col.type() == ColumnType::kFloat64) {
          const double* data = col.doubles().data();
          each([&](size_t r) { return DoubleWord(data[r]); });
          if (keys[k].nan_is_null) {
            for (size_t i = 0; i < rows; ++i) {
              if (std::isnan(data[begin + i])) {
                words[i * width + mask_word] |= null_bit;
              }
            }
          }
        } else {
          each([&](size_t r) { return DoubleWord(NumericAt(col, r)); });
        }
        break;
      case KeyKind::kCode: {
        const int32_t* codes = col.codes().data();
        if (keys[k].translate != nullptr) {
          const int32_t* to = keys[k].translate->data();
          each([&](size_t r) { return CodeWord(to[codes[r]]); });
        } else {
          each([&](size_t r) { return CodeWord(codes[r]); });
        }
        break;
      }
    }
  }
}

uint64_t HashKey(const uint64_t* key, size_t width) {
  uint64_t h = width;
  for (size_t i = 0; i < width; ++i) {
    // splitmix64 over the running state.
    h += key[i] + 0x9E3779B97F4A7C15ull;
    h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9ull;
    h = (h ^ (h >> 27)) * 0x94D049BB133111EBull;
    h ^= h >> 31;
  }
  return h;
}

/// Rows encoded per batch where a whole side is walked serially.
constexpr size_t kKeyBatch = 4096;

/// Open-addressing map from fixed-width keys to dense ids in first-insert
/// order. Keys live in one flat vector, so an insert appends words to
/// pre-grown storage instead of allocating a node.
class KeyIndex {
 public:
  static constexpr uint32_t kAbsent = UINT32_MAX;

  /// Worst-case bytes per key at `width` words: the key, its hash and up
  /// to four slots (the table doubles at half load).
  static size_t BytesPerKey(size_t width) {
    return (width + 1) * sizeof(uint64_t) + 4 * sizeof(uint32_t);
  }

  explicit KeyIndex(size_t width = 0, size_t expected = 0) : width_(width) {
    size_t slots = 16;
    while (slots < expected * 2) slots <<= 1;
    slots_.assign(slots, kAbsent);
    keys_.reserve(expected * width);
    hashes_.reserve(expected);
  }

  size_t size() const { return hashes_.size(); }
  const uint64_t* key(uint32_t id) const {
    return keys_.data() + static_cast<size_t>(id) * width_;
  }

  /// Id of `key`, inserted as the next id when new.
  uint32_t Insert(const uint64_t* key, bool* inserted) {
    if ((size() + 1) * 2 > slots_.size()) Grow();
    uint64_t hash = HashKey(key, width_);
    size_t s = Probe(key, hash);
    *inserted = slots_[s] == kAbsent;
    if (*inserted) {
      slots_[s] = static_cast<uint32_t>(size());
      keys_.insert(keys_.end(), key, key + width_);
      hashes_.push_back(hash);
    }
    return slots_[s];
  }

  /// Id of `key`, or kAbsent.
  uint32_t Find(const uint64_t* key) const {
    return slots_[Probe(key, HashKey(key, width_))];
  }

 private:
  /// The slot holding `key`, or the empty slot where it would go.
  size_t Probe(const uint64_t* key, uint64_t hash) const {
    const size_t mask = slots_.size() - 1;
    for (size_t s = hash & mask;; s = (s + 1) & mask) {
      uint32_t id = slots_[s];
      if (id == kAbsent || (hashes_[id] == hash &&
                            std::equal(key, key + width_, this->key(id)))) {
        return s;
      }
    }
  }

  void Grow() {
    slots_.assign(slots_.size() * 2, kAbsent);
    const size_t mask = slots_.size() - 1;
    for (uint32_t id = 0; id < size(); ++id) {
      size_t s = hashes_[id] & mask;
      while (slots_[s] != kAbsent) s = (s + 1) & mask;
      slots_[s] = id;
    }
  }

  size_t width_;
  std::vector<uint64_t> keys_;
  std::vector<uint64_t> hashes_;
  std::vector<uint32_t> slots_;
};

}  // namespace

Result<Table> ProjectCompute(const Table& table,
                             const std::vector<ProjectItem>& items) {
  // Column references pass through with their declared type (a copy that
  // shares the dictionary); only computed items go through BoundExpr.
  std::vector<int> source(items.size(), -1);
  std::vector<BoundExpr> bound;
  for (size_t i = 0; i < items.size(); ++i) {
    source[i] = ResolveColumn(table, items[i].expr);
    if (source[i] >= 0) continue;
    TELEIOS_ASSIGN_OR_RETURN(BoundExpr b,
                             BoundExpr::Bind(items[i].expr, table));
    bound.push_back(std::move(b));
  }
  std::vector<std::vector<Value>> results(bound.size());
  for (auto& column : results) column.resize(table.num_rows());
  if (!bound.empty()) {
    exec::ParallelOptions opts;
    opts.label = "exec.project";
    TELEIOS_RETURN_IF_ERROR(exec::ParallelFor(
        table.num_rows(), opts,
        [&](size_t, size_t begin, size_t end) -> Status {
          for (size_t r = begin; r < end; ++r) {
            for (size_t j = 0; j < bound.size(); ++j) {
              TELEIOS_ASSIGN_OR_RETURN(Value v, bound[j].Eval(table, r));
              results[j][r] = std::move(v);
            }
          }
          return Status::OK();
        }));
  }
  std::vector<Field> fields;
  for (size_t i = 0, j = 0; i < items.size(); ++i) {
    ColumnType type = source[i] >= 0
                          ? table.schema().field(source[i]).type
                          : InferColumnType(results[j++]);
    fields.push_back({items[i].alias, type});
  }
  Table out{Schema(std::move(fields))};
  for (size_t i = 0, j = 0; i < items.size(); ++i) {
    if (source[i] >= 0) {
      out.column(i) = table.column(static_cast<size_t>(source[i]));
      continue;
    }
    Column& column = out.column(i);
    column.Reserve(table.num_rows());
    for (const Value& v : results[j++]) {
      TELEIOS_RETURN_IF_ERROR(column.Append(v));
    }
  }
  return out;
}

Result<std::vector<Column>> SetAssignments(
    const Table& table, const SelectionVector* rows,
    const std::vector<Assignment>& assignments, const SelectionVector* to,
    std::vector<Column> columns) {
  const size_t n = rows != nullptr ? rows->size() : table.num_rows();
  std::vector<BoundExpr> bound;
  size_t copied = 0;  // what the first write to each copy unshares
  for (const Assignment& a : assignments) {
    TELEIOS_ASSIGN_OR_RETURN(BoundExpr b, BoundExpr::Bind(a.expr, table));
    bound.push_back(std::move(b));
    if (n > 0) copied += columns[a.column].MemoryUsage();
  }
  const size_t width = bound.size();
  TELEIOS_ASSIGN_OR_RETURN(
      governor::BudgetCharge charge,
      governor::ChargeCurrent(n * width * sizeof(Value) + copied,
                              "update staged values"));
  std::vector<Value> staged(n * width);
  exec::ParallelOptions opts;
  opts.label = "exec.update";
  TELEIOS_RETURN_IF_ERROR(exec::ParallelFor(
      n, opts, [&](size_t, size_t begin, size_t end) -> Status {
        for (size_t i = begin; i < end; ++i) {
          const uint32_t r = CandidateRow(rows, i);
          for (size_t j = 0; j < width; ++j) {
            TELEIOS_ASSIGN_OR_RETURN(staged[i * width + j],
                                     bound[j].Eval(table, r));
          }
        }
        return Status::OK();
      }));
  for (size_t j = 0; j < width; ++j) {
    Column& column = columns[assignments[j].column];
    for (size_t i = 0; i < n; ++i) {
      const uint32_t r = CandidateRow(rows, i);
      TELEIOS_RETURN_IF_ERROR(
          column.Set(to != nullptr ? (*to)[r] : r, staged[i * width + j]));
    }
  }
  return columns;
}

Result<Table> HashJoin(const Table& left, const Table& right,
                       const std::vector<std::string>& left_keys,
                       const std::vector<std::string>& right_keys,
                       JoinType type) {
  if (left_keys.size() != right_keys.size()) {
    return Status::InvalidArgument("join key arity mismatch");
  }
  std::vector<int> lcols, rcols;
  for (const std::string& k : left_keys) {
    int i = left.schema().FieldIndex(k);
    if (i < 0) return Status::NotFound("join key '" + k + "' not in left");
    lcols.push_back(i);
  }
  for (const std::string& k : right_keys) {
    int i = right.schema().FieldIndex(k);
    if (i < 0) return Status::NotFound("join key '" + k + "' not in right");
    rcols.push_back(i);
  }

  // One key kind per pair; a string never equals a number, so such a pair
  // leaves every probe row unmatched. The right side is the build side.
  const size_t nkeys = lcols.size();
  const size_t width = KeyWidth(nkeys);
  std::vector<KeyColumn> probe_keys, build_keys;
  std::vector<std::vector<int32_t>> translations(nkeys);
  bool comparable = true;
  size_t translate_bytes = 0;
  for (size_t k = 0; k < nkeys; ++k) {
    const Column& lc = left.column(static_cast<size_t>(lcols[k]));
    const Column& rc = right.column(static_cast<size_t>(rcols[k]));
    bool lstr = lc.type() == ColumnType::kString;
    bool rstr = rc.type() == ColumnType::kString;
    KeyKind kind = KeyKind::kInt;
    if (lstr != rstr) {
      comparable = false;
    } else if (lstr) {
      kind = KeyKind::kCode;
      if (&lc.dict() != &rc.dict()) {
        translate_bytes += lc.dict().size() * sizeof(int32_t);
      }
    } else if (lc.type() == ColumnType::kFloat64 ||
               rc.type() == ColumnType::kFloat64) {
      kind = KeyKind::kDouble;
    }
    probe_keys.push_back({&lc, kind, nullptr, true});
    build_keys.push_back({&rc, kind, nullptr, true});
  }

  const size_t nl = left.num_rows();
  const size_t nr = comparable ? right.num_rows() : 0;
  TELEIOS_ASSIGN_OR_RETURN(
      governor::BudgetCharge build_charge,
      governor::ChargeCurrent(
          nr * (KeyIndex::BytesPerKey(width) + 3 * sizeof(uint32_t)) +
              kKeyBatch * width * sizeof(uint64_t) + translate_bytes +
              nl * sizeof(uint32_t),
          "hash join build table"));

  // Probe-side string codes translate into the build side's dictionary
  // once per distinct code; a shared dictionary needs no translation.
  for (size_t k = 0; comparable && k < nkeys; ++k) {
    const Column& lc = *probe_keys[k].column;
    const Column& rc = *build_keys[k].column;
    if (probe_keys[k].kind != KeyKind::kCode || &lc.dict() == &rc.dict()) {
      continue;
    }
    constexpr int32_t kUntranslated = -2;
    std::vector<int32_t>& to = translations[k];
    to.assign(static_cast<size_t>(lc.dict().size()), kUntranslated);
    const int32_t* codes = lc.codes().data();
    for (size_t r = 0; r < nl; ++r) {
      if (lc.IsNull(r) || to[codes[r]] != kUntranslated) continue;
      to[codes[r]] = rc.dict().Lookup(lc.dict().At(codes[r]));
    }
    probe_keys[k].translate = &to;
  }

  // Build: each distinct key's rows are chained through `next`. Rows are
  // inserted last to first, so every chain lists its rows in order.
  KeyIndex index(width, nr);
  std::vector<uint32_t> head;   // per key: its first row
  std::vector<uint32_t> count;  // per key: its number of rows
  std::vector<uint32_t> next(nr, storage::kNullRow);
  head.reserve(nr);
  count.reserve(nr);
  std::vector<uint64_t> words(std::min(nr, kKeyBatch) * width);
  for (size_t end = nr; end > 0;) {
    size_t begin = end > kKeyBatch ? end - kKeyBatch : 0;
    EncodeKeys(build_keys, begin, end, words.data());
    for (size_t r = end; r-- > begin;) {
      const uint64_t* key = words.data() + (r - begin) * width;
      if (HasNullKey(key, nkeys)) continue;
      bool inserted = false;
      uint32_t id = index.Insert(key, &inserted);
      if (inserted) {
        head.push_back(storage::kNullRow);
        count.push_back(0);
      }
      next[r] = head[id];
      head[id] = static_cast<uint32_t>(r);
      ++count[id];
    }
    end = begin;
  }

  // Probe, pass 1: each left row's key, and each morsel's pair count (a
  // left outer miss pairs its row with kNullRow).
  exec::ParallelOptions opts;
  opts.label = "exec.join";
  exec::MorselPlan plan = exec::PlanMorsels(nl, opts.grain);
  std::vector<uint32_t> key_of(nl, KeyIndex::kAbsent);
  std::vector<size_t> pairs_before(plan.count + 1, 0);
  TELEIOS_RETURN_IF_ERROR(exec::ParallelFor(
      nl, opts, [&](size_t morsel, size_t begin, size_t end) -> Status {
        std::vector<uint64_t> probe((end - begin) * width);
        if (comparable) EncodeKeys(probe_keys, begin, end, probe.data());
        size_t pairs = 0;
        for (size_t r = begin; r < end; ++r) {
          const uint64_t* key = probe.data() + (r - begin) * width;
          if (comparable && !HasNullKey(key, nkeys)) {
            key_of[r] = index.Find(key);
          }
          if (key_of[r] != KeyIndex::kAbsent) {
            pairs += count[key_of[r]];
          } else if (type == JoinType::kLeftOuter) {
            ++pairs;
          }
        }
        pairs_before[morsel + 1] = pairs;
        return Status::OK();
      }));
  for (size_t m = 0; m < plan.count; ++m) {
    pairs_before[m + 1] += pairs_before[m];
  }

  // Pass 2: every morsel writes its pairs at its offset, so the pairs come
  // out in left row order with each row's matches in right row order.
  const size_t total = pairs_before[plan.count];
  TELEIOS_ASSIGN_OR_RETURN(
      governor::BudgetCharge pairs_charge,
      governor::ChargeCurrent(2 * total * sizeof(uint32_t),
                              "hash join pairs"));
  SelectionVector left_rows(total), right_rows(total);
  TELEIOS_RETURN_IF_ERROR(exec::ParallelFor(
      nl, opts, [&](size_t morsel, size_t begin, size_t end) -> Status {
        size_t at = pairs_before[morsel];
        for (size_t r = begin; r < end; ++r) {
          if (key_of[r] != KeyIndex::kAbsent) {
            for (uint32_t b = head[key_of[r]]; b != storage::kNullRow;
                 b = next[b]) {
              left_rows[at] = static_cast<uint32_t>(r);
              right_rows[at++] = b;
            }
          } else if (type == JoinType::kLeftOuter) {
            left_rows[at] = static_cast<uint32_t>(r);
            right_rows[at++] = storage::kNullRow;
          }
        }
        return Status::OK();
      }));

  // All left columns, then right columns with clash rename.
  Table out = left.Take(left_rows);
  for (size_t c = 0; c < right.num_columns(); ++c) {
    const std::string& name = right.schema().field(c).name;
    bool clash = left.schema().FieldIndex(name) >= 0;
    out.AddColumn(clash ? "r_" + name : name, right.column(c).Take(right_rows));
  }
  return out;
}

namespace {

/// How an aggregate reads its argument: typed off a column where the
/// argument is a plain column reference, through BoundExpr otherwise.
enum class AggInput { kCountRows, kCountColumn, kInt64, kFloat64, kValue };

struct AggState {
  int64_t count = 0;
  double sum = 0.0;
  bool sum_is_int = true;
  int64_t isum = 0;
  bool seen = false;
  Value min, max;              // kValue
  int64_t imin = 0, imax = 0;  // kInt64
  double dmin = 0, dmax = 0;   // kFloat64

  void Update(const Value& v) {
    if (v.is_null()) return;
    ++count;
    auto d = v.ToDouble();
    if (d.ok()) {
      sum += *d;
      if (v.type() == ValueType::kInt64) {
        isum += v.AsInt64();
      } else {
        sum_is_int = false;
      }
    }
    if (!seen || v.Compare(min) < 0) min = v;
    if (!seen || v.Compare(max) > 0) max = v;
    seen = true;
  }

  void UpdateInt64(int64_t v) {
    ++count;
    sum += static_cast<double>(v);
    isum += v;
    if (!seen || v < imin) imin = v;
    if (!seen || v > imax) imax = v;
    seen = true;
  }

  void UpdateFloat64(double v) {
    ++count;
    sum += v;
    sum_is_int = false;
    if (!seen || v < dmin) dmin = v;
    if (!seen || v > dmax) dmax = v;
    seen = true;
  }

  /// Folds a later morsel's partial state into this one. Partials are
  /// merged in morsel-index order, so the floating-point accumulation
  /// order is fixed by the morsel plan — identical at any thread count.
  void Merge(const AggState& later) {
    count += later.count;
    sum += later.sum;
    isum += later.isum;
    sum_is_int = sum_is_int && later.sum_is_int;
    if (later.seen) {
      if (!seen || later.min.Compare(min) < 0) min = later.min;
      if (!seen || later.max.Compare(max) > 0) max = later.max;
      if (!seen || later.imin < imin) imin = later.imin;
      if (!seen || later.imax > imax) imax = later.imax;
      if (!seen || later.dmin < dmin) dmin = later.dmin;
      if (!seen || later.dmax > dmax) dmax = later.dmax;
      seen = true;
    }
  }

  Result<Value> Finish(const std::string& fn, AggInput input) const {
    if (fn == "count") return Value(count);
    if (!seen) return Value();  // empty group -> NULL (except count)
    if (fn == "sum") return sum_is_int ? Value(isum) : Value(sum);
    if (fn == "avg") return Value(sum / static_cast<double>(count));
    if (fn == "min" || fn == "max") {
      bool lo = fn == "min";
      if (input == AggInput::kInt64) return Value(lo ? imin : imax);
      if (input == AggInput::kFloat64) return Value(lo ? dmin : dmax);
      return lo ? min : max;
    }
    return Status::NotFound("unknown aggregate '" + fn + "'");
  }
};

struct AggPlan {
  AggInput input = AggInput::kValue;
  const Column* column = nullptr;
  BoundExpr bound;
};

}  // namespace

Result<Table> GroupAggregate(const Table& table,
                             const std::vector<std::string>& group_columns,
                             const std::vector<AggregateItem>& aggregates) {
  std::vector<int> gcols;
  std::vector<KeyColumn> keys;
  for (const std::string& g : group_columns) {
    int i = table.schema().FieldIndex(g);
    if (i < 0) return Status::NotFound("group column '" + g + "' not found");
    gcols.push_back(i);
    const Column& col = table.column(static_cast<size_t>(i));
    keys.push_back(OwnKey(col));
  }
  std::vector<AggPlan> plans(aggregates.size());
  for (size_t a = 0; a < aggregates.size(); ++a) {
    const AggregateItem& item = aggregates[a];
    AggPlan& plan = plans[a];
    if (item.argument == nullptr && item.function == "count") {
      plan.input = AggInput::kCountRows;
      continue;
    }
    int col = item.argument ? ResolveColumn(table, item.argument) : -1;
    if (col >= 0) {
      plan.column = &table.column(static_cast<size_t>(col));
      if (item.function == "count") {
        plan.input = AggInput::kCountColumn;
      } else if (plan.column->type() == ColumnType::kInt64) {
        plan.input = AggInput::kInt64;
      } else if (plan.column->type() == ColumnType::kFloat64) {
        plan.input = AggInput::kFloat64;
      }
      if (plan.input != AggInput::kValue) continue;
    }
    // Any other argument is evaluated per row; a bare aggregate() counts
    // each row as the value 1.
    ExprPtr arg = item.argument ? item.argument
                                : Expr::Literal(Value(int64_t{1}));
    TELEIOS_ASSIGN_OR_RETURN(plan.bound, BoundExpr::Bind(arg, table));
  }
  const size_t width = KeyWidth(keys.size());
  const size_t naggs = aggregates.size();

  struct Partial {
    KeyIndex groups;
    std::vector<uint32_t> first_row;  // per group, in first-seen order
    std::vector<AggState> states;     // naggs per group
  };

  // Reserve for the worst case — every row its own group (its key, slots,
  // first row, group id and one state per aggregate) — so an aggregation
  // too big for the budget is refused up front instead of dying mid-build.
  TELEIOS_ASSIGN_OR_RETURN(
      governor::BudgetCharge charge,
      governor::ChargeCurrent(
          table.num_rows() * (KeyIndex::BytesPerKey(width) +
                              2 * sizeof(uint32_t) + naggs * sizeof(AggState)),
          "group-aggregate hash tables"));

  // Morsel-parallel pre-aggregation: each morsel numbers its own groups,
  // then the partials fold together in morsel-index order, which
  // reproduces the serial first-seen group order and accumulation order.
  exec::ParallelOptions opts;
  opts.label = "exec.aggregate";
  exec::MorselPlan plan = exec::PlanMorsels(table.num_rows(), opts.grain);
  std::vector<Partial> partials(plan.count);
  TELEIOS_RETURN_IF_ERROR(exec::ParallelFor(
      table.num_rows(), opts,
      [&](size_t morsel, size_t begin, size_t end) -> Status {
        Partial& part = partials[morsel];
        part.groups = KeyIndex(width);
        const size_t rows = end - begin;
        std::vector<uint64_t> words(rows * width);
        EncodeKeys(keys, begin, end, words.data());
        std::vector<uint32_t> group_of(rows);
        for (size_t i = 0; i < rows; ++i) {
          const uint64_t* key = words.data() + i * width;
          bool inserted = false;
          group_of[i] = part.groups.Insert(key, &inserted);
          if (inserted) {
            part.first_row.push_back(static_cast<uint32_t>(begin + i));
            part.states.resize(part.states.size() + naggs);
          }
        }
        for (size_t a = 0; a < naggs; ++a) {
          const AggPlan& p = plans[a];
          auto state = [&](size_t i) -> AggState& {
            return part.states[group_of[i] * naggs + a];
          };
          // Runs update(state, row) for the rows whose argument is not NULL.
          auto each_valid = [&](auto update) {
            for (size_t i = 0; i < rows; ++i) {
              if (!p.column->IsNull(begin + i)) update(state(i), begin + i);
            }
          };
          switch (p.input) {
            case AggInput::kCountRows:
              for (size_t i = 0; i < rows; ++i) ++state(i).count;
              break;
            case AggInput::kCountColumn:
              each_valid([](AggState& s, size_t) { ++s.count; });
              break;
            case AggInput::kInt64: {
              const int64_t* data = p.column->ints().data();
              each_valid(
                  [&](AggState& s, size_t r) { s.UpdateInt64(data[r]); });
              break;
            }
            case AggInput::kFloat64: {
              const double* data = p.column->doubles().data();
              each_valid(
                  [&](AggState& s, size_t r) { s.UpdateFloat64(data[r]); });
              break;
            }
            case AggInput::kValue:
              for (size_t i = 0; i < rows; ++i) {
                TELEIOS_ASSIGN_OR_RETURN(Value v,
                                         p.bound.Eval(table, begin + i));
                state(i).Update(v);
              }
              break;
          }
        }
        return Status::OK();
      }));

  KeyIndex groups(width);
  SelectionVector first_rows;
  std::vector<AggState> states;
  for (Partial& part : partials) {
    for (uint32_t g = 0; g < part.groups.size(); ++g) {
      bool inserted = false;
      uint32_t id = groups.Insert(part.groups.key(g), &inserted);
      AggState* incoming = part.states.data() + g * naggs;
      if (inserted) {
        first_rows.push_back(part.first_row[g]);
        states.insert(states.end(), incoming, incoming + naggs);
      } else {
        for (size_t a = 0; a < naggs; ++a) {
          states[id * naggs + a].Merge(incoming[a]);
        }
      }
    }
  }

  // Global aggregate over an empty input still yields one row.
  const size_t ngroups = gcols.empty() ? 1 : first_rows.size();
  states.resize(ngroups * naggs);

  std::vector<std::vector<Value>> agg_values(naggs);
  for (size_t a = 0; a < naggs; ++a) {
    agg_values[a].reserve(ngroups);
    for (size_t g = 0; g < ngroups; ++g) {
      TELEIOS_ASSIGN_OR_RETURN(Value v, states[g * naggs + a].Finish(
                                            aggregates[a].function,
                                            plans[a].input));
      agg_values[a].push_back(std::move(v));
    }
  }

  std::vector<Field> fields;
  for (int c : gcols) fields.push_back(table.schema().field(c));
  for (size_t a = 0; a < naggs; ++a) {
    const std::string& fn = aggregates[a].function;
    ColumnType t = InferColumnType(agg_values[a]);
    if (fn == "count") {
      t = ColumnType::kInt64;
    } else if (plans[a].input == AggInput::kInt64) {
      t = fn == "avg" ? ColumnType::kFloat64 : ColumnType::kInt64;
    } else if (plans[a].input == AggInput::kFloat64) {
      t = ColumnType::kFloat64;
    }
    fields.push_back({aggregates[a].alias, t});
  }
  Table out{Schema(std::move(fields))};
  for (size_t c = 0; c < gcols.size(); ++c) {
    out.column(c) =
        table.column(static_cast<size_t>(gcols[c])).Take(first_rows);
  }
  for (size_t a = 0; a < naggs; ++a) {
    Column& column = out.column(gcols.size() + a);
    for (const Value& v : agg_values[a]) {
      TELEIOS_RETURN_IF_ERROR(column.Append(v));
    }
  }
  return out;
}

Result<Table> Sort(const Table& table, const std::vector<SortKey>& keys) {
  std::vector<int> cols;
  for (const SortKey& k : keys) {
    int i = table.schema().FieldIndex(k.column);
    if (i < 0) return Status::NotFound("sort column '" + k.column + "' not found");
    cols.push_back(i);
  }
  // The permutation vector plus stable_sort's temporary buffer.
  TELEIOS_ASSIGN_OR_RETURN(
      governor::BudgetCharge charge,
      governor::ChargeCurrent(table.num_rows() * 2 * sizeof(uint32_t),
                              "sort selection"));
  SelectionVector sel(table.num_rows());
  for (size_t i = 0; i < sel.size(); ++i) sel[i] = static_cast<uint32_t>(i);
  std::stable_sort(sel.begin(), sel.end(), [&](uint32_t a, uint32_t b) {
    for (size_t k = 0; k < keys.size(); ++k) {
      int c = table.Get(a, cols[k]).Compare(table.Get(b, cols[k]));
      if (c != 0) return keys[k].descending ? c > 0 : c < 0;
    }
    return false;
  });
  return table.Take(sel);
}

Table Limit(const Table& table, size_t limit, size_t offset) {
  SelectionVector sel;
  for (size_t r = offset; r < table.num_rows() && sel.size() < limit; ++r) {
    sel.push_back(static_cast<uint32_t>(r));
  }
  return table.Take(sel);
}

Result<Grouping> GroupRows(const Table& table,
                           const std::vector<size_t>& columns) {
  std::vector<KeyColumn> keys;
  for (size_t c : columns) keys.push_back(OwnKey(table.column(c)));
  const size_t n = table.num_rows();
  const size_t width = KeyWidth(keys.size());
  TELEIOS_ASSIGN_OR_RETURN(
      governor::BudgetCharge charge,
      governor::ChargeCurrent(
          n * (KeyIndex::BytesPerKey(width) + 2 * sizeof(uint32_t)) +
              kKeyBatch * width * sizeof(uint64_t),
          "grouping hash table"));
  const CancellationToken* cancel = CurrentCancel();
  KeyIndex index(width);
  Grouping out;
  out.group_of.resize(n);
  std::vector<uint64_t> words(std::min(n, kKeyBatch) * width);
  for (size_t begin = 0; begin < n; begin += kKeyBatch) {
    if (cancel != nullptr) TELEIOS_RETURN_IF_ERROR(cancel->Check());
    size_t end = std::min(n, begin + kKeyBatch);
    EncodeKeys(keys, begin, end, words.data());
    for (size_t r = begin; r < end; ++r) {
      bool inserted = false;
      out.group_of[r] =
          index.Insert(words.data() + (r - begin) * width, &inserted);
      if (inserted) out.first_rows.push_back(static_cast<uint32_t>(r));
    }
  }
  return out;
}

Result<Table> Distinct(const Table& table) {
  std::vector<size_t> columns(table.num_columns());
  std::iota(columns.begin(), columns.end(), 0);
  TELEIOS_ASSIGN_OR_RETURN(Grouping grouping, GroupRows(table, columns));
  return table.Take(grouping.first_rows);
}

}  // namespace teleios::relational
