#include <gtest/gtest.h>

#include <cmath>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "common/cancellation.h"
#include "exec/thread_pool.h"
#include "governor/fault_injection.h"
#include "governor/memory_budget.h"
#include "relational/evaluator.h"
#include "relational/expression.h"
#include "relational/operators.h"
#include "relational/sql_parser.h"

namespace teleios::relational {
namespace {

using storage::ColumnType;
using storage::Schema;
using storage::Table;

Table Sensors() {
  Table t{Schema({{"id", ColumnType::kInt64},
                  {"band", ColumnType::kString},
                  {"temp", ColumnType::kFloat64}})};
  EXPECT_TRUE(t.AppendRow({Value(int64_t{1}), Value("IR039"), Value(320.0)}).ok());
  EXPECT_TRUE(t.AppendRow({Value(int64_t{2}), Value("IR108"), Value(295.5)}).ok());
  EXPECT_TRUE(t.AppendRow({Value(int64_t{3}), Value("IR039"), Value(305.0)}).ok());
  EXPECT_TRUE(t.AppendRow({Value(int64_t{4}), Value("VIS006"), Value()}).ok());
  return t;
}

TEST(ExpressionTest, BuildAndPrint) {
  ExprPtr e = Expr::Binary(BinaryOp::kGt, Expr::ColumnRef("temp"),
                           Expr::Literal(Value(300.0)));
  EXPECT_EQ(e->ToString(), "(temp > 300)");
  EXPECT_FALSE(ContainsAggregate(e));
  std::vector<std::string> cols;
  CollectColumnRefs(e, &cols);
  ASSERT_EQ(cols.size(), 1u);
  EXPECT_EQ(cols[0], "temp");
}

TEST(ExpressionTest, AggregateDetection) {
  ExprPtr agg = Expr::Function("sum", {Expr::ColumnRef("temp")});
  EXPECT_TRUE(ContainsAggregate(agg));
  EXPECT_TRUE(IsAggregateFunction("count"));
  EXPECT_FALSE(IsAggregateFunction("sqrt"));
}

TEST(EvaluatorTest, Arithmetic) {
  auto lit = [](double d) { return Expr::Literal(Value(d)); };
  ExprPtr e = Expr::Binary(BinaryOp::kAdd, lit(2),
                           Expr::Binary(BinaryOp::kMul, lit(3), lit(4)));
  auto v = EvaluateConstant(e);
  ASSERT_TRUE(v.ok());
  EXPECT_DOUBLE_EQ(v->AsFloat64(), 14.0);
}

TEST(EvaluatorTest, IntegerDivisionStaysInt) {
  ExprPtr e = Expr::Binary(BinaryOp::kDiv, Expr::Literal(Value(int64_t{7})),
                           Expr::Literal(Value(int64_t{2})));
  auto v = EvaluateConstant(e);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->type(), ValueType::kInt64);
  EXPECT_EQ(v->AsInt64(), 3);
}

TEST(EvaluatorTest, DivisionByZeroErrors) {
  ExprPtr e = Expr::Binary(BinaryOp::kDiv, Expr::Literal(Value(int64_t{1})),
                           Expr::Literal(Value(int64_t{0})));
  EXPECT_FALSE(EvaluateConstant(e).ok());
}

TEST(EvaluatorTest, NullPropagatesThroughComparison) {
  ExprPtr e = Expr::Binary(BinaryOp::kLt, Expr::Literal(Value()),
                           Expr::Literal(Value(int64_t{1})));
  auto v = EvaluateConstant(e);
  ASSERT_TRUE(v.ok());
  EXPECT_TRUE(v->is_null());
}

TEST(EvaluatorTest, LikeMatching) {
  EXPECT_TRUE(LikeMatch("IR039", "IR%"));
  EXPECT_TRUE(LikeMatch("IR039", "IR_39"));
  EXPECT_FALSE(LikeMatch("VIS006", "IR%"));
  EXPECT_TRUE(LikeMatch("", "%"));
  EXPECT_TRUE(LikeMatch("abc", "%c"));
  EXPECT_FALSE(LikeMatch("abc", "%d"));
  EXPECT_TRUE(LikeMatch("a%b", "a%b"));  // % in text matched by literal path
}

TEST(EvaluatorTest, ScalarFunctions) {
  auto eval = [](ExprPtr e) { return EvaluateConstant(e); };
  EXPECT_DOUBLE_EQ(
      eval(Expr::Function("sqrt", {Expr::Literal(Value(9.0))}))->AsFloat64(),
      3.0);
  EXPECT_EQ(
      eval(Expr::Function("floor", {Expr::Literal(Value(2.9))}))->AsInt64(),
      2);
  EXPECT_EQ(eval(Expr::Function("upper", {Expr::Literal(Value("abc"))}))
                ->AsString(),
            "ABC");
  EXPECT_EQ(eval(Expr::Function("coalesce",
                                {Expr::Literal(Value()),
                                 Expr::Literal(Value(int64_t{5}))}))
                ->AsInt64(),
            5);
  EXPECT_EQ(eval(Expr::Function(
                     "if", {Expr::Literal(Value(false)),
                            Expr::Literal(Value(int64_t{1})),
                            Expr::Literal(Value(int64_t{2}))}))
                ->AsInt64(),
            2);
  EXPECT_EQ(eval(Expr::Function("substr", {Expr::Literal(Value("teleios")),
                                           Expr::Literal(Value(int64_t{2})),
                                           Expr::Literal(Value(int64_t{3}))}))
                ->AsString(),
            "ele");
}

TEST(BoundExprTest, BindsColumnsOnce) {
  Table t = Sensors();
  ExprPtr e = Expr::Binary(BinaryOp::kGt, Expr::ColumnRef("temp"),
                           Expr::Literal(Value(300.0)));
  auto bound = BoundExpr::Bind(e, t);
  ASSERT_TRUE(bound.ok());
  EXPECT_TRUE(bound->Eval(t, 0)->Truthy());
  EXPECT_FALSE(bound->Eval(t, 1)->Truthy());
  EXPECT_FALSE(BoundExpr::Bind(Expr::ColumnRef("nope"), t).ok());
}

TEST(BoundExprTest, QualifiedNameFallback) {
  Table t = Sensors();
  auto bound = BoundExpr::Bind(Expr::ColumnRef("s.temp"), t);
  ASSERT_TRUE(bound.ok());
  EXPECT_DOUBLE_EQ(bound->Eval(t, 0)->AsFloat64(), 320.0);
}

TEST(OperatorsTest, FilterKeepsMatchingRows) {
  Table t = Sensors();
  ExprPtr pred = Expr::Binary(
      BinaryOp::kAnd,
      Expr::Binary(BinaryOp::kEq, Expr::ColumnRef("band"),
                   Expr::Literal(Value("IR039"))),
      Expr::Binary(BinaryOp::kGt, Expr::ColumnRef("temp"),
                   Expr::Literal(Value(310.0))));
  auto out = Filter(t, pred);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->num_rows(), 1u);
  EXPECT_EQ(out->Get(0, 0), Value(int64_t{1}));
}

TEST(OperatorsTest, FilterNullIsFalse) {
  Table t = Sensors();
  ExprPtr pred = Expr::Binary(BinaryOp::kGt, Expr::ColumnRef("temp"),
                              Expr::Literal(Value(0.0)));
  auto out = Filter(t, pred);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->num_rows(), 3u);  // the NULL temp row is dropped
}

TEST(OperatorsTest, ProjectComputeInfersTypes) {
  Table t = Sensors();
  auto out = ProjectCompute(
      t, {{Expr::Binary(BinaryOp::kMul, Expr::ColumnRef("id"),
                        Expr::Literal(Value(int64_t{10}))),
           "id10"},
          {Expr::ColumnRef("band"), "b"}});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->schema().field(0).type, ColumnType::kInt64);
  EXPECT_EQ(out->schema().field(1).type, ColumnType::kString);
  EXPECT_EQ(out->Get(2, 0), Value(int64_t{30}));
}

Table Bands() {
  Table t{Schema({{"band", ColumnType::kString},
                  {"wavelength", ColumnType::kFloat64}})};
  EXPECT_TRUE(t.AppendRow({Value("IR039"), Value(3.9)}).ok());
  EXPECT_TRUE(t.AppendRow({Value("IR108"), Value(10.8)}).ok());
  return t;
}

TEST(OperatorsTest, HashJoinInner) {
  auto out = HashJoin(Sensors(), Bands(), {"band"}, {"band"});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->num_rows(), 3u);  // VIS006 has no match
  // Clashing column renamed.
  EXPECT_GE(out->schema().FieldIndex("r_band"), 0);
}

TEST(OperatorsTest, HashJoinLeftOuter) {
  auto out = HashJoin(Sensors(), Bands(), {"band"}, {"band"},
                      JoinType::kLeftOuter);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->num_rows(), 4u);
  // The VIS006 row has NULL wavelength.
  int wl = out->schema().FieldIndex("wavelength");
  ASSERT_GE(wl, 0);
  bool found_null = false;
  for (size_t r = 0; r < out->num_rows(); ++r) {
    if (out->Get(r, static_cast<size_t>(wl)).is_null()) found_null = true;
  }
  EXPECT_TRUE(found_null);
}

TEST(OperatorsTest, HashJoinNullKeysNeverMatch) {
  Table left{Schema({{"k", ColumnType::kInt64}})};
  ASSERT_TRUE(left.AppendRow({Value()}).ok());
  Table right{Schema({{"k", ColumnType::kInt64}})};
  ASSERT_TRUE(right.AppendRow({Value()}).ok());
  auto out = HashJoin(left, right, {"k"}, {"k"});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->num_rows(), 0u);
}

TEST(OperatorsTest, GroupAggregate) {
  auto out = GroupAggregate(
      Sensors(), {"band"},
      {{"count", nullptr, "n"},
       {"avg", Expr::ColumnRef("temp"), "avg_temp"},
       {"max", Expr::ColumnRef("temp"), "max_temp"}});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->num_rows(), 3u);
  // Row order follows first appearance: IR039 first.
  EXPECT_EQ(out->Get(0, 0), Value("IR039"));
  EXPECT_EQ(out->Get(0, 1), Value(int64_t{2}));
  EXPECT_DOUBLE_EQ(out->Get(0, 2).AsFloat64(), 312.5);
  EXPECT_DOUBLE_EQ(out->Get(0, 3).AsFloat64(), 320.0);
  // VIS006 group: count(*)=1 but avg over NULL = NULL.
  EXPECT_EQ(out->Get(2, 1), Value(int64_t{1}));
  EXPECT_TRUE(out->Get(2, 2).is_null());
}

TEST(OperatorsTest, GlobalAggregateOnEmptyInput) {
  Table t{Schema({{"x", ColumnType::kInt64}})};
  auto out = GroupAggregate(t, {}, {{"count", nullptr, "n"}});
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->num_rows(), 1u);
  EXPECT_EQ(out->Get(0, 0), Value(int64_t{0}));
}

TEST(OperatorsTest, SumStaysIntegerForIntInput) {
  Table t{Schema({{"x", ColumnType::kInt64}})};
  ASSERT_TRUE(t.AppendRow({Value(int64_t{2})}).ok());
  ASSERT_TRUE(t.AppendRow({Value(int64_t{3})}).ok());
  auto out = GroupAggregate(t, {}, {{"sum", Expr::ColumnRef("x"), "s"}});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->Get(0, 0), Value(int64_t{5}));
}

TEST(OperatorsTest, SortMultiKey) {
  auto out = Sort(Sensors(), {{"band", false}, {"temp", true}});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->Get(0, 1), Value("IR039"));
  EXPECT_DOUBLE_EQ(out->Get(0, 2).AsFloat64(), 320.0);  // desc within band
  EXPECT_DOUBLE_EQ(out->Get(1, 2).AsFloat64(), 305.0);
}

TEST(OperatorsTest, SortIsStable) {
  Table t{Schema({{"k", ColumnType::kInt64}, {"seq", ColumnType::kInt64}})};
  for (int64_t i = 0; i < 20; ++i) {
    ASSERT_TRUE(t.AppendRow({Value(i % 3), Value(i)}).ok());
  }
  auto out = Sort(t, {{"k", false}});
  ASSERT_TRUE(out.ok());
  // Within equal keys, original order (seq ascending) is preserved.
  int64_t prev_key = -1, prev_seq = -1;
  for (size_t r = 0; r < out->num_rows(); ++r) {
    int64_t k = out->Get(r, 0).AsInt64();
    int64_t seq = out->Get(r, 1).AsInt64();
    if (k == prev_key) EXPECT_GT(seq, prev_seq);
    prev_key = k;
    prev_seq = seq;
  }
}

TEST(OperatorsTest, SortNullsFirst) {
  auto out = Sort(Sensors(), {{"temp", false}});
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->Get(0, 2).is_null());
}

TEST(OperatorsTest, LimitOffset) {
  Table t = Sensors();
  Table window = Limit(t, 2, 1);
  ASSERT_EQ(window.num_rows(), 2u);
  EXPECT_EQ(window.Get(0, 0), Value(int64_t{2}));
}

TEST(OperatorsTest, Distinct) {
  Table t{Schema({{"x", ColumnType::kInt64}})};
  for (int64_t v : {1, 2, 1, 3, 2}) {
    ASSERT_TRUE(t.AppendRow({Value(v)}).ok());
  }
  Table d = *Distinct(t);
  ASSERT_EQ(d.num_rows(), 3u);
  EXPECT_EQ(d.Get(0, 0), Value(int64_t{1}));
  EXPECT_EQ(d.Get(2, 0), Value(int64_t{3}));
}

/// The WHERE of `SELECT * FROM t WHERE <where>`.
ExprPtr ParseWhere(const std::string& where) {
  auto stmt = ParseSql("SELECT * FROM t WHERE " + where);
  EXPECT_TRUE(stmt.ok()) << where << ": " << stmt.status().ToString();
  return stmt.ok() ? std::get<SelectStatement>(*stmt).where : nullptr;
}

TEST(VectorizedFilterTest, RecognizesSimpleShapes) {
  Table t = Sensors();
  auto col_const = Expr::Binary(BinaryOp::kGt, Expr::ColumnRef("temp"),
                                Expr::Literal(Value(300.0)));
  EXPECT_TRUE(IsVectorizablePredicate(t, col_const));
  auto str_eq = Expr::Binary(BinaryOp::kEq, Expr::ColumnRef("band"),
                             Expr::Literal(Value("IR039")));
  EXPECT_TRUE(IsVectorizablePredicate(t, str_eq));
  auto conj = Expr::Binary(BinaryOp::kAnd, col_const, str_eq);
  EXPECT_TRUE(IsVectorizablePredicate(t, conj));
  auto diff = Expr::Binary(
      BinaryOp::kGt,
      Expr::Binary(BinaryOp::kSub, Expr::ColumnRef("temp"),
                   Expr::ColumnRef("id")),
      Expr::Literal(Value(100.0)));
  EXPECT_TRUE(IsVectorizablePredicate(t, diff));
  // LIKE and function calls are not vectorizable -> interpreter fallback.
  auto like = Expr::Binary(BinaryOp::kLike, Expr::ColumnRef("band"),
                           Expr::Literal(Value("IR%")));
  EXPECT_FALSE(IsVectorizablePredicate(t, like));
  auto fn = Expr::Function("sqrt", {Expr::ColumnRef("temp")});
  EXPECT_FALSE(IsVectorizablePredicate(t, fn));
  // Whole trees compile when every leaf does: IN lists, NOT IN, OR of
  // mixed leaves and NOT over an AND, pushed down to the leaves.
  for (const char* where :
       {"band IN ('IR039', 'VIS006', 'IR039', 'NOT_IN_DICT')",
        "band NOT IN ('IR039', 'IR108')", "id IN (1, 4, 9.5)",
        "temp > 310 OR band = 'IR108' OR id - id = 0",
        "NOT (temp > 300 AND band <> 'IR039')",
        "NOT (id < 2 OR NOT (temp >= 305.0)) AND band IN ('IR039')",
        "temp > -1", "id = -9007199254740993", "id IN (-1, 4)"}) {
    EXPECT_TRUE(IsVectorizablePredicate(t, ParseWhere(where))) << where;
  }
  // One leaf the kernels cannot run keeps the whole WHERE interpreted.
  for (const char* where :
       {"band LIKE 'IR%' OR temp > 300", "temp IS NULL",
        "NOT (temp IS NULL) AND id = 1", "band IN ('IR039', NULL)",
        "id IN (1, 'IR039')", "temp > 300 OR sqrt(temp) > 17",
        "NOT (id % 2 = 0)", "id * 2 > 3 AND band = 'IR039'"}) {
    EXPECT_FALSE(IsVectorizablePredicate(t, ParseWhere(where))) << where;
  }
}

TEST(VectorizedFilterTest, MatchesInterpreterOnAllShapes) {
  Table t = Sensors();
  // A second BIGINT column, and rows where the two paths could part: NaN,
  // -0.0 and 0.0, NULLs, and int64 values about +-2^53, past which a
  // double no longer holds every integer (k - id stays in int64 range).
  storage::Column k(ColumnType::kInt64);
  for (int64_t v : {1, 3, 2, 4}) k.AppendInt64(v);
  t.AddColumn("k", std::move(k));
  const int64_t big = int64_t{1} << 53;
  const double nan = std::nan("");
  const std::vector<std::vector<Value>> edge_rows = {
      {Value(big), Value("IR039"), Value(nan), Value(big + 1)},
      {Value(big + 1), Value("IR108"), Value(-0.0), Value(big)},
      {Value(-big), Value("VIS006"), Value(0.0), Value(-big - 1)},
      {Value(-big - 1), Value(), Value(1.0), Value(-big)},
      {Value(), Value("IR039"), Value(nan), Value(int64_t{5})},
      {Value(int64_t{7}), Value("IR108"), Value(), Value()},
  };
  for (const std::vector<Value>& row : edge_rows) {
    ASSERT_TRUE(t.AppendRow(row).ok());
  }
  auto col = [](const char* name) { return Expr::ColumnRef(name); };
  auto lit = [](Value v) { return Expr::Literal(std::move(v)); };
  std::vector<ExprPtr> predicates = {
      Expr::Binary(BinaryOp::kGt, Expr::ColumnRef("temp"),
                   Expr::Literal(Value(300.0))),
      Expr::Binary(BinaryOp::kLe, Expr::Literal(Value(300.0)),
                   Expr::ColumnRef("temp")),  // mirrored constant side
      Expr::Binary(BinaryOp::kEq, Expr::ColumnRef("band"),
                   Expr::Literal(Value("IR039"))),
      Expr::Binary(BinaryOp::kNe, Expr::ColumnRef("band"),
                   Expr::Literal(Value("IR039"))),
      Expr::Binary(BinaryOp::kEq, Expr::ColumnRef("band"),
                   Expr::Literal(Value("NOT_IN_DICT"))),
      Expr::Binary(BinaryOp::kLt, Expr::ColumnRef("id"),
                   Expr::ColumnRef("temp")),
      Expr::Binary(
          BinaryOp::kGt,
          Expr::Binary(BinaryOp::kSub, Expr::ColumnRef("temp"),
                       Expr::ColumnRef("id")),
          Expr::Literal(Value(300.0))),
  };
  // Conjunction of the first two as well.
  predicates.push_back(Expr::Binary(BinaryOp::kAnd, predicates[0],
                                    predicates[2]));
  // int64 against int64 exactly: a literal, a column, a difference.
  for (BinaryOp op : {BinaryOp::kEq, BinaryOp::kNe, BinaryOp::kLt,
                      BinaryOp::kGe}) {
    predicates.push_back(Expr::Binary(op, col("id"), lit(Value(big + 1))));
    predicates.push_back(Expr::Binary(op, lit(Value(-big)), col("id")));
    predicates.push_back(Expr::Binary(op, col("id"), col("k")));
    predicates.push_back(Expr::Binary(
        op, Expr::Binary(BinaryOp::kSub, col("k"), col("id")),
        lit(Value(int64_t{0}))));
    predicates.push_back(Expr::Binary(
        op, Expr::Binary(BinaryOp::kSub, col("k"), col("id")),
        lit(Value(0.5))));
    predicates.push_back(Expr::Binary(op, col("id"), lit(Value(9.0e15))));
    // NaN, -0.0 and 0.0 under IEEE rules.
    predicates.push_back(Expr::Binary(op, col("temp"), lit(Value(1.0))));
    predicates.push_back(Expr::Binary(op, col("temp"), lit(Value(-0.0))));
    predicates.push_back(Expr::Binary(op, col("temp"), col("id")));
    predicates.push_back(Expr::Binary(
        op, Expr::Binary(BinaryOp::kSub, col("temp"), col("k")),
        lit(Value(int64_t{0}))));
  }
  // Whole trees over the same rows: IN lists, NOT IN, OR and NOT, where
  // a negated leaf keeps NULL rows and NaN rows as the interpreter does.
  for (const char* where :
       {"band IN ('IR039', 'VIS006', 'IR039', 'NOT_IN_DICT')",
        "band NOT IN ('IR039', 'NOT_IN_DICT')", "NOT (temp < 1)",
        "NOT (temp <> temp)", "temp = 0.0 OR temp < 1.5 OR band = 'IR108'",
        "NOT (id < 9007199254740993 AND k - id >= 0)",
        "id IN (9007199254740993, 7, 5) OR NOT (temp >= 0.0)",
        "NOT (band = 'IR039' OR k - id = 1) AND temp - k < 1000"}) {
    ExprPtr p = ParseWhere(where);
    ASSERT_TRUE(IsVectorizablePredicate(t, p)) << where;
    predicates.push_back(p);
  }
  for (const ExprPtr& p : predicates) {
    auto fast = FilterIndices(t, p);
    auto slow = FilterIndicesInterpreted(t, p);
    ASSERT_TRUE(fast.ok()) << p->ToString();
    ASSERT_TRUE(slow.ok()) << p->ToString();
    EXPECT_EQ(*fast, *slow) << p->ToString();
  }
}

class ThreadsGuard {
 public:
  ~ThreadsGuard() {
    exec::ThreadPool::SetGlobalThreads(exec::ThreadPool::DefaultThreads());
  }
};

/// Seeded random WHERE trees for the compiled-tree differential: AND, OR
/// and NOT up to `depth` levels over every leaf shape the kernels compile.
class TreeMaker {
 public:
  explicit TreeMaker(uint64_t seed) : state_(seed) {}

  ExprPtr Tree(int depth) {
    const uint64_t pick = depth == 0 ? 0 : Below(5);
    if (pick <= 1) return Leaf();
    if (pick == 2) return Expr::Unary(UnaryOp::kNot, Tree(depth - 1));
    ExprPtr lhs = Tree(depth - 1);
    ExprPtr rhs = Tree(depth - 1);
    return Expr::Binary(pick == 3 ? BinaryOp::kAnd : BinaryOp::kOr, lhs, rhs);
  }

 private:
  uint64_t Below(uint64_t n) {
    state_ ^= state_ << 13;
    state_ ^= state_ >> 7;
    state_ ^= state_ << 17;
    return state_ % n;
  }
  BinaryOp Cmp() {
    static const BinaryOp kOps[] = {BinaryOp::kEq, BinaryOp::kNe,
                                    BinaryOp::kLt, BinaryOp::kLe,
                                    BinaryOp::kGt, BinaryOp::kGe};
    return kOps[Below(6)];
  }
  static ExprPtr Col(const char* name) { return Expr::ColumnRef(name); }
  /// A negative constant half the time as the parser builds it: a unary
  /// minus over the positive literal.
  template <typename T>
  ExprPtr Constant(T v) {
    if (!std::signbit(static_cast<double>(v)) || Below(2) == 0) {
      return Expr::Literal(Value(v));
    }
    return Expr::Unary(UnaryOp::kNeg, Expr::Literal(Value(-v)));
  }
  ExprPtr IntLit() {
    const int64_t big = int64_t{1} << 53;
    const int64_t kInts[] = {0, 1, 3, -4, big, big + 1, -big - 1};
    return Constant(kInts[Below(7)]);
  }
  ExprPtr NumLit() {
    const double kDoubles[] = {0.0, -0.0, 1.0, 1.5, -2.5, std::nan("")};
    return Below(3) == 0 ? IntLit() : Constant(kDoubles[Below(6)]);
  }
  ExprPtr StrLit() {
    const char* kWords[] = {"a", "b", "ab", "ba", "missing"};
    return Expr::Literal(Value(kWords[Below(5)]));
  }
  /// `s IN (...)` as the parser builds it: `=` tests OR-ed left to
  /// right, duplicates and literals the dictionary lacks included.
  ExprPtr InList() {
    ExprPtr any;
    for (uint64_t n = 1 + Below(4); n-- > 0;) {
      ExprPtr eq = Expr::Binary(BinaryOp::kEq, Col("s"), StrLit());
      any = any ? Expr::Binary(BinaryOp::kOr, any, eq) : eq;
    }
    return Below(3) == 0 ? Expr::Unary(UnaryOp::kNot, any) : any;
  }
  ExprPtr Leaf() {
    const char* kNumbers[] = {"i", "k", "d", "e", "f"};
    const char* a = kNumbers[Below(5)];
    const char* b = kNumbers[Below(5)];
    const BinaryOp op = Cmp();
    const ExprPtr number = NumLit();
    switch (Below(8)) {
      case 0:
        return Expr::Binary(op, Col(a), number);
      case 1:
        return Expr::Binary(op, number, Col(a));
      case 2:
        return Expr::Binary(op, Col(a), Col(b));
      case 3:
        return Expr::Binary(
            op, Expr::Binary(BinaryOp::kSub, Col(a), Col(b)), number);
      case 4: {
        const BinaryOp eq = Below(2) == 0 ? BinaryOp::kEq : BinaryOp::kNe;
        const ExprPtr word = StrLit();
        return Below(2) == 0 ? Expr::Binary(eq, Col("s"), word)
                             : Expr::Binary(eq, word, Col("s"));
      }
      case 5:
        return Col("f");
      default:
        return InList();
    }
  }

  uint64_t state_;
};

/// i, k BIGINT about 0 and +-2^53, d, e DOUBLE with NaN and +-0.0, f BOOL
/// and s VARCHAR, each NULL one time in eight.
Table TreeTable(size_t rows) {
  Table t{Schema({{"i", ColumnType::kInt64},
                  {"k", ColumnType::kInt64},
                  {"d", ColumnType::kFloat64},
                  {"e", ColumnType::kFloat64},
                  {"f", ColumnType::kBool},
                  {"s", ColumnType::kString}})};
  const int64_t big = int64_t{1} << 53;
  const int64_t ints[] = {0, 1, 3, -4, big, big + 1, -big - 1, 2};
  const double doubles[] = {std::nan(""), -0.0, 0.0,  1.0,
                            1.5,          -2.5, 3.0, 1e300};
  const char* words[] = {"a", "b", "ab", "ba"};
  uint64_t state = 0x2545F4914F6CDD1Dull;
  auto below = [&](uint64_t n) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return (state >> 33) % n;
  };
  for (size_t r = 0; r < rows; ++r) {
    auto maybe = [&](Value v) { return below(8) == 0 ? Value() : v; };
    EXPECT_TRUE(t.AppendRow({maybe(Value(ints[below(8)])),
                             maybe(Value(ints[below(8)])),
                             maybe(Value(doubles[below(8)])),
                             maybe(Value(doubles[below(8)])),
                             maybe(Value(below(2) == 0)),
                             maybe(Value(words[below(4)]))})
                    .ok());
  }
  return t;
}

TEST(VectorizedFilterTest, RandomTreesMatchInterpreter) {
  ThreadsGuard guard;
  // Three morsels of rows, two of candidates.
  const Table t = TreeTable(10000);
  storage::SelectionVector candidates;
  for (uint32_t r = 0; r < t.num_rows(); ++r) {
    if (r % 3 != 1) candidates.push_back(r);
  }
  TreeMaker maker(0x9E3779B97F4A7C15ull);
  for (int n = 0; n < 200; ++n) {
    const ExprPtr tree = maker.Tree(1 + n % 4);
    const std::string what = tree->ToString();
    ASSERT_TRUE(IsVectorizablePredicate(t, tree)) << what;
    exec::ThreadPool::SetGlobalThreads(1);
    auto all = FilterIndicesInterpreted(t, tree);
    auto some = FilterIndicesInterpreted(t, tree, &candidates);
    ASSERT_TRUE(all.ok() && some.ok()) << what;
    for (int threads : {1, 2, 8}) {
      exec::ThreadPool::SetGlobalThreads(threads);
      auto fast_all = FilterIndices(t, tree);
      auto fast_some = FilterIndices(t, tree, &candidates);
      ASSERT_TRUE(fast_all.ok() && fast_some.ok()) << what;
      ASSERT_EQ(*fast_all, *all) << what << " at " << threads << " threads";
      ASSERT_EQ(*fast_some, *some)
          << what << " over candidates at " << threads << " threads";
    }
  }
}

/// Property sweep: filter + take round trip preserves values for varying
/// table sizes.
class FilterSweep : public ::testing::TestWithParam<int> {};

TEST_P(FilterSweep, ThresholdCountsMatchBruteForce) {
  int n = GetParam();
  Table t{Schema({{"v", ColumnType::kInt64}})};
  int expected = 0;
  for (int i = 0; i < n; ++i) {
    int64_t v = (i * 37) % 101;
    if (v > 50) ++expected;
    ASSERT_TRUE(t.AppendRow({Value(v)}).ok());
  }
  auto out = Filter(t, Expr::Binary(BinaryOp::kGt, Expr::ColumnRef("v"),
                                    Expr::Literal(Value(int64_t{50}))));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->num_rows(), static_cast<size_t>(expected));
}

INSTANTIATE_TEST_SUITE_P(Sizes, FilterSweep,
                         ::testing::Values(0, 1, 10, 257, 4096));

// ---------------------------------------------------------------------------
// HashJoin under the governor

/// `rows` rows of k = i % `domain`, so every key repeats.
Table KeyTable(size_t rows, int64_t domain) {
  Table t{Schema({{"k", ColumnType::kInt64}})};
  for (size_t i = 0; i < rows; ++i) {
    t.column(0).AppendInt64(static_cast<int64_t>(i) % domain);
  }
  return t;
}

TEST(HashJoinGovernorTest, TightBudgetRefusesWithTheBalanceBackAtZero) {
  Table left = KeyTable(10000, 100);
  Table right = KeyTable(1000, 100);  // 10 matches per left row
  for (size_t limit : {size_t{1024}, size_t{400} << 10}) {
    // 1 KiB refuses the build table, 400 KiB the 100k pairs.
    governor::MemoryBudget tight("tight", limit);
    {
      governor::ScopedBudget scope(&tight);
      auto refused = HashJoin(left, right, {"k"}, {"k"});
      ASSERT_FALSE(refused.ok()) << limit;
      EXPECT_EQ(refused.status().code(), StatusCode::kResourceExhausted);
    }
    EXPECT_EQ(tight.used(), 0u) << limit;
  }
  governor::MemoryBudget roomy("roomy", 64u << 20);
  {
    governor::ScopedBudget scope(&roomy);
    auto joined = HashJoin(left, right, {"k"}, {"k"});
    ASSERT_TRUE(joined.ok()) << joined.status().ToString();
    EXPECT_EQ(joined->num_rows(), 100000u);
  }
  EXPECT_EQ(roomy.used(), 0u);
}

TEST(HashJoinGovernorTest, EveryRefusedReservationFailsCleanly) {
  Table left = KeyTable(9000, 50);
  Table right = KeyTable(300, 50);
  governor::MemoryBudget root("sweep-root", governor::MemoryBudget::kUnlimited);
  governor::FaultInjectingBudget injector(&root);
  governor::ScopedBudget scope(&injector);
  auto baseline = HashJoin(left, right, {"k"}, {"k"}, JoinType::kLeftOuter);
  ASSERT_TRUE(baseline.ok());
  const uint64_t reservations = injector.reservations();
  ASSERT_GE(reservations, 2u) << "the build table and the pairs are charged";
  std::cout << "[sweep] " << reservations << " reservations\n";
  for (uint64_t k = 1; k <= reservations; ++k) {
    governor::BudgetFaultSpec spec;
    spec.inject_at = k;
    injector.Arm(spec);
    auto starved = HashJoin(left, right, {"k"}, {"k"}, JoinType::kLeftOuter);
    ASSERT_FALSE(starved.ok()) << "k=" << k;
    EXPECT_EQ(starved.status().code(), StatusCode::kResourceExhausted);
    EXPECT_EQ(root.used(), 0u) << "k=" << k;
  }
  injector.Disarm();
  auto again = HashJoin(left, right, {"k"}, {"k"}, JoinType::kLeftOuter);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->ToString(100000), baseline->ToString(100000));
}

TEST(HashJoinGovernorTest, CancelledTokenStopsTheProbe) {
  Table left = KeyTable(10000, 100);
  Table right = KeyTable(1000, 100);
  CancellationToken token;
  token.Cancel();
  ScopedCancel scope(&token);
  auto cancelled = HashJoin(left, right, {"k"}, {"k"});
  ASSERT_FALSE(cancelled.ok());
  EXPECT_EQ(cancelled.status().code(), StatusCode::kCancelled);
}

// ---------------------------------------------------------------------------
// Differential: typed keys against reference implementations

/// Seeded tables whose key columns repeat from a small domain and hold
/// NULLs: i BIGINT, d DOUBLE (integral values, halves, 0.0, -0.0 and NaN),
/// b BOOL, s VARCHAR, and payloads v BIGINT and w DOUBLE.
Table RandomTable(size_t rows, uint64_t seed) {
  Table t{Schema({{"i", ColumnType::kInt64},
                  {"d", ColumnType::kFloat64},
                  {"b", ColumnType::kBool},
                  {"s", ColumnType::kString},
                  {"v", ColumnType::kInt64},
                  {"w", ColumnType::kFloat64}})};
  uint64_t state = seed;
  auto next = [&](uint64_t n) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<int64_t>((state >> 33) % n);
  };
  for (size_t r = 0; r < rows; ++r) {
    std::vector<Value> row;
    for (int c = 0; c < 6; ++c) {
      if (next(8) == 0) {
        row.emplace_back();
        continue;
      }
      int64_t k = next(40) - 20;
      switch (c) {
        case 0:
        case 4:
          row.emplace_back(k);
          break;
        case 1:
          if (k == 19) {
            row.emplace_back(std::nan(""));
            break;
          }
          [[fallthrough]];
        case 5:
          row.emplace_back(k == 0   ? (next(2) ? -0.0 : 0.0)
                           : k % 3 == 0 ? static_cast<double>(k) + 0.5
                                        : static_cast<double>(k));
          break;
        case 2:
          row.emplace_back(k % 2 == 0);
          break;
        default:
          row.emplace_back("s" + std::to_string(k));
      }
    }
    EXPECT_TRUE(t.AppendRow(row).ok());
  }
  return t;
}

std::vector<int> Columns(const Table& t,
                         const std::vector<std::string>& names) {
  std::vector<int> cols;
  for (const std::string& n : names) cols.push_back(t.schema().FieldIndex(n));
  return cols;
}

std::vector<Value> RowValues(const Table& t, size_t row,
                             const std::vector<int>& cols) {
  std::vector<Value> values;
  for (int c : cols) values.push_back(t.Get(row, static_cast<size_t>(c)));
  return values;
}

bool IsNaN(const Value& v) {
  return v.type() == ValueType::kFloat64 && std::isnan(v.AsFloat64());
}

/// Orders key tuples by Value::Compare, so NULLs are one key and -0.0
/// equals 0.0, as `=` has it; every NaN is one key, after the numbers.
struct KeyLess {
  bool operator()(const std::vector<Value>& a,
                  const std::vector<Value>& b) const {
    for (size_t i = 0; i < a.size(); ++i) {
      int c = IsNaN(a[i]) || IsNaN(b[i])
                  ? static_cast<int>(IsNaN(a[i])) - IsNaN(b[i])
                  : a[i].Compare(b[i]);
      if (c != 0) return c < 0;
    }
    return false;
  }
};

/// Nested-loop join: a pair joins when every key pair is equal under
/// WHERE's `=`: non-NULL, not NaN and equal under Compare.
Table ReferenceJoin(const Table& left, const Table& right,
                    const std::vector<std::string>& lkeys,
                    const std::vector<std::string>& rkeys, JoinType type) {
  std::vector<storage::Field> fields = left.schema().fields();
  for (storage::Field f : right.schema().fields()) {
    if (left.schema().FieldIndex(f.name) >= 0) f.name = "r_" + f.name;
    fields.push_back(f);
  }
  Table out{Schema(fields)};
  std::vector<int> lc = Columns(left, lkeys), rc = Columns(right, rkeys);
  std::vector<std::vector<Value>> rvals;
  for (size_t r = 0; r < right.num_rows(); ++r) {
    rvals.push_back(RowValues(right, r, rc));
  }
  for (size_t l = 0; l < left.num_rows(); ++l) {
    std::vector<Value> lval = RowValues(left, l, lc);
    std::vector<Value> row;
    for (size_t c = 0; c < left.num_columns(); ++c) {
      row.push_back(left.Get(l, c));
    }
    bool matched = false;
    for (size_t r = 0; r < right.num_rows(); ++r) {
      bool equal = true;
      for (size_t k = 0; k < lval.size() && equal; ++k) {
        equal = !lval[k].is_null() && !rvals[r][k].is_null() &&
                !IsNaN(lval[k]) && !IsNaN(rvals[r][k]) &&
                lval[k].Compare(rvals[r][k]) == 0;
      }
      if (!equal) continue;
      matched = true;
      std::vector<Value> joined = row;
      for (size_t c = 0; c < right.num_columns(); ++c) {
        joined.push_back(right.Get(r, c));
      }
      EXPECT_TRUE(out.AppendRow(joined).ok());
    }
    if (!matched && type == JoinType::kLeftOuter) {
      row.resize(out.num_columns());
      EXPECT_TRUE(out.AppendRow(row).ok());
    }
  }
  return out;
}

/// std::map group-by computing, per group in first-seen order, the group
/// columns' first-row values, count(*), count(v), sum(v), min(w), max(w),
/// sum(w) and sum(v * 2).
Table ReferenceGroupBy(const Table& t, const std::vector<std::string>& groups) {
  std::vector<int> gc = Columns(t, groups);
  std::map<std::vector<Value>, size_t, KeyLess> index;
  std::vector<size_t> first;
  struct Acc {
    int64_t rows = 0, nv = 0, sv = 0, sv2 = 0;
    double sw = 0;
    bool seen_v = false, seen_w = false;
    Value lo, hi;
  };
  std::vector<Acc> acc;
  size_t v = 4, w = 5;
  for (size_t r = 0; r < t.num_rows(); ++r) {
    auto [it, fresh] = index.emplace(RowValues(t, r, gc), first.size());
    if (fresh) {
      first.push_back(r);
      acc.emplace_back();
    }
    Acc& a = acc[it->second];
    ++a.rows;
    if (!t.column(v).IsNull(r)) {
      ++a.nv;
      a.sv += t.column(v).GetInt64(r);
      a.sv2 += 2 * t.column(v).GetInt64(r);
      a.seen_v = true;
    }
    if (!t.column(w).IsNull(r)) {
      Value x = t.Get(r, w);
      if (!a.seen_w || x.Compare(a.lo) < 0) a.lo = x;
      if (!a.seen_w || x.Compare(a.hi) > 0) a.hi = x;
      a.sw += x.AsFloat64();
      a.seen_w = true;
    }
  }
  if (groups.empty() && acc.empty()) {
    first.push_back(0);
    acc.emplace_back();
  }
  std::vector<storage::Field> fields;
  for (int c : gc) fields.push_back(t.schema().field(c));
  for (const char* name : {"n", "nv", "sv", "lo", "hi", "sw", "sv2"}) {
    fields.push_back({name, ColumnType::kInt64});
  }
  fields[gc.size() + 3].type = fields[gc.size() + 4].type =
      fields[gc.size() + 5].type = ColumnType::kFloat64;
  // sum(v * 2) goes through the interpreter, whose result type is read off
  // the values: DOUBLE when every group's sum is NULL.
  bool any_v = false;
  for (const Acc& a : acc) any_v = any_v || a.seen_v;
  if (!any_v) fields[gc.size() + 6].type = ColumnType::kFloat64;
  Table out{Schema(fields)};
  for (size_t g = 0; g < acc.size(); ++g) {
    std::vector<Value> row = RowValues(t, first[g], gc);
    const Acc& a = acc[g];
    row.emplace_back(a.rows);
    row.emplace_back(a.nv);
    row.push_back(a.seen_v ? Value(a.sv) : Value());
    row.push_back(a.lo);
    row.push_back(a.hi);
    row.push_back(a.seen_w ? Value(a.sw) : Value());
    row.push_back(a.seen_v ? Value(a.sv2) : Value());
    EXPECT_TRUE(out.AppendRow(row).ok());
  }
  return out;
}

const std::vector<AggregateItem>& DifferentialAggregates() {
  static const std::vector<AggregateItem> kAggs = {
      {"count", nullptr, "n"},
      {"count", Expr::ColumnRef("v"), "nv"},
      {"sum", Expr::ColumnRef("v"), "sv"},
      {"min", Expr::ColumnRef("w"), "lo"},
      {"max", Expr::ColumnRef("w"), "hi"},
      {"sum", Expr::ColumnRef("w"), "sw"},
      {"sum",
       Expr::Binary(BinaryOp::kMul, Expr::ColumnRef("v"),
                    Expr::Literal(Value(int64_t{2}))),
       "sv2"},
  };
  return kAggs;
}

Table ReferenceDistinct(const Table& t) {
  std::vector<int> all(t.num_columns());
  for (size_t c = 0; c < all.size(); ++c) all[c] = static_cast<int>(c);
  std::map<std::vector<Value>, bool, KeyLess> seen;
  storage::SelectionVector keep;
  for (size_t r = 0; r < t.num_rows(); ++r) {
    if (seen.emplace(RowValues(t, r, all), true).second) {
      keep.push_back(static_cast<uint32_t>(r));
    }
  }
  return t.Take(keep);
}

/// Same shape, and every cell of the same type and equal under Compare.
void ExpectSameTable(const Table& got, const Table& want,
                     const std::string& what) {
  ASSERT_EQ(got.schema().ToString(), want.schema().ToString()) << what;
  ASSERT_EQ(got.num_rows(), want.num_rows()) << what;
  for (size_t r = 0; r < got.num_rows(); ++r) {
    for (size_t c = 0; c < got.num_columns(); ++c) {
      Value a = got.Get(r, c), b = want.Get(r, c);
      ASSERT_TRUE(a.type() == b.type() && a.Compare(b) == 0)
          << what << ": row " << r << " column " << c << " is "
          << a.ToString() << ", want " << b.ToString();
    }
  }
}

TEST(DifferentialTest, TypedOperatorsMatchReferenceAtAnyThreadCount) {
  ThreadsGuard guard;
  // Two morsels on the probe / group side; right tables have their own
  // dictionaries except `shared`, which is gathered from `left`.
  const Table left = RandomTable(5000, 11);
  const Table right = RandomTable(120, 29);
  storage::SelectionVector pick;
  for (uint32_t r = 0; r < 120; ++r) pick.push_back((r * 37) % 5000);
  const Table shared = left.Take(pick);
  struct JoinCase {
    const Table* right;
    std::vector<std::string> lkeys, rkeys;
  };
  const std::vector<JoinCase> joins = {
      {&right, {"i"}, {"i"}},           {&right, {"d"}, {"d"}},
      {&right, {"b"}, {"b"}},           {&right, {"s"}, {"s"}},
      {&shared, {"s"}, {"s"}},          {&right, {"i"}, {"d"}},
      {&right, {"d"}, {"i"}},           {&right, {"b"}, {"i"}},
      {&right, {"i", "s"}, {"i", "s"}}, {&shared, {"s", "d"}, {"s", "i"}},
      {&right, {"d", "b"}, {"i", "b"}}, {&right, {"s"}, {"i"}},
  };
  const std::vector<std::vector<std::string>> groupings = {
      {}, {"i"}, {"d"}, {"b"}, {"s"}, {"s", "d", "b"}, {"i", "s"}};
  const Table empty = RandomTable(0, 1);

  std::vector<Table> want_joins;
  for (const JoinCase& j : joins) {
    for (JoinType type : {JoinType::kInner, JoinType::kLeftOuter}) {
      want_joins.push_back(
          ReferenceJoin(left, *j.right, j.lkeys, j.rkeys, type));
    }
  }
  std::vector<Table> want_groups;
  for (const auto& g : groupings) {
    want_groups.push_back(ReferenceGroupBy(left, g));
  }
  for (int threads : {1, 2, 8}) {
    exec::ThreadPool::SetGlobalThreads(threads);
    const std::string at = " at " + std::to_string(threads) + " threads";
    size_t n = 0;
    for (const JoinCase& j : joins) {
      for (JoinType type : {JoinType::kInner, JoinType::kLeftOuter}) {
        std::string what = "join " + j.lkeys[0] + "=" + j.rkeys[0] + " #" +
                           std::to_string(n) + at;
        auto got = HashJoin(left, *j.right, j.lkeys, j.rkeys, type);
        ASSERT_TRUE(got.ok()) << what << ": " << got.status().ToString();
        ExpectSameTable(*got, want_joins[n++], what);
      }
    }
    for (size_t g = 0; g < groupings.size(); ++g) {
      std::string what = "group by #" + std::to_string(g) + at;
      auto got = GroupAggregate(left, groupings[g], DifferentialAggregates());
      ASSERT_TRUE(got.ok()) << what << ": " << got.status().ToString();
      ExpectSameTable(*got, want_groups[g], what);
    }
    auto none = GroupAggregate(empty, {}, DifferentialAggregates());
    ASSERT_TRUE(none.ok());
    ExpectSameTable(*none, ReferenceGroupBy(empty, {}), "empty" + at);
    for (const auto& cols : {std::vector<std::string>{"i", "s"},
                             std::vector<std::string>{"d", "b"},
                             std::vector<std::string>{"i", "d", "b", "s"}}) {
      auto projected = left.Project(cols);
      ASSERT_TRUE(projected.ok());
      ExpectSameTable(*Distinct(*projected), ReferenceDistinct(*projected),
                      "distinct" + at);
    }
  }
}

}  // namespace
}  // namespace teleios::relational
