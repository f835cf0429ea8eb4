#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>

#include "common/cancellation.h"
#include "exec/thread_pool.h"
#include "governor/memory_budget.h"
#include "obs/metrics.h"
#include "relational/operators.h"
#include "relational/sql_planner.h"
#include "sciql/sciql_engine.h"
#include "sciql/sciql_parser.h"

namespace teleios::sciql {
namespace {

using storage::Table;

TEST(SciQlParserTest, CreateArray) {
  auto stmt = ParseSciQl(
      "CREATE ARRAY img (y INT DIMENSION [0:64], x INT DIMENSION [0:128], "
      "v DOUBLE DEFAULT 0.0, m INT)");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  const auto& c = std::get<CreateArrayStatement>(*stmt);
  EXPECT_EQ(c.name, "img");
  ASSERT_EQ(c.dims.size(), 2u);
  EXPECT_EQ(c.dims[1].size, 128);
  ASSERT_EQ(c.attributes.size(), 2u);
  EXPECT_DOUBLE_EQ(c.defaults[0].AsFloat64(), 0.0);
  EXPECT_TRUE(c.defaults[1].is_null());
}

TEST(SciQlParserTest, RejectsNonIntegerDimension) {
  EXPECT_FALSE(
      ParseSciQl("CREATE ARRAY a (x DOUBLE DIMENSION [0:4], v DOUBLE)").ok());
  EXPECT_FALSE(
      ParseSciQl("CREATE ARRAY a (x INT DIMENSION [4:4], v DOUBLE)").ok());
}

TEST(SciQlParserTest, UpdateWithSlab) {
  auto stmt = ParseSciQl("UPDATE img[0:10, 20:30] SET v = v * 2 WHERE v > 5");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  const auto& u = std::get<UpdateArrayStatement>(*stmt);
  ASSERT_EQ(u.slab.size(), 2u);
  EXPECT_EQ(u.slab[1].first, 20);
  ASSERT_EQ(u.assignments.size(), 1u);
  EXPECT_NE(u.where, nullptr);
}

class SciQlEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    engine_ = std::make_unique<SciQlEngine>(&tables_);
    Exec("CREATE ARRAY img (y INT DIMENSION [0:4], x INT DIMENSION [0:4], "
         "v DOUBLE DEFAULT 0.0)");
    // Paint a ramp: v = y*10 + x.
    Exec("UPDATE img SET v = y * 10 + x");
  }

  Table Exec(const std::string& stmt) {
    auto r = engine_->Execute(stmt);
    EXPECT_TRUE(r.ok()) << stmt << " -> " << r.status().ToString();
    return r.ok() ? *r : Table();
  }

  storage::Catalog tables_;
  std::unique_ptr<SciQlEngine> engine_;
};

TEST_F(SciQlEngineTest, CreateRegistersArray) {
  EXPECT_TRUE(engine_->HasArray("img"));
  auto arr = engine_->GetArray("img");
  ASSERT_TRUE(arr.ok());
  EXPECT_EQ((*arr)->num_cells(), 16u);
}

TEST_F(SciQlEngineTest, CellwiseUpdateSeesDims) {
  auto arr = engine_->GetArray("img");
  EXPECT_DOUBLE_EQ((*arr)->Get({2, 3}, 0).AsFloat64(), 23.0);
}

TEST_F(SciQlEngineTest, SelectOverCells) {
  Table t = Exec("SELECT y, x, v FROM img WHERE v > 25 ORDER BY v DESC");
  ASSERT_GT(t.num_rows(), 0u);
  EXPECT_DOUBLE_EQ(t.Get(0, 2).AsFloat64(), 33.0);
}

TEST_F(SciQlEngineTest, SlabSelect) {
  Table t = Exec("SELECT v FROM img[1:3, 1:3]");
  EXPECT_EQ(t.num_rows(), 4u);
}

TEST_F(SciQlEngineTest, StructuralTilingViaGroupBy) {
  // SciQL structural grouping: 2x2 tiles via integer division on dims.
  Table t = Exec(
      "SELECT y / 2 AS ty, x / 2 AS tx, max(v) AS m FROM img "
      "GROUP BY y / 2, x / 2 ORDER BY ty, tx");
  ASSERT_EQ(t.num_rows(), 4u);
  EXPECT_DOUBLE_EQ(t.Get(0, 2).AsFloat64(), 11.0);
  EXPECT_DOUBLE_EQ(t.Get(3, 2).AsFloat64(), 33.0);
}

TEST_F(SciQlEngineTest, UpdateSlabOnly) {
  Exec("UPDATE img[0:1, 0:4] SET v = -1");
  auto arr = engine_->GetArray("img");
  EXPECT_DOUBLE_EQ((*arr)->Get({0, 2}, 0).AsFloat64(), -1.0);
  EXPECT_DOUBLE_EQ((*arr)->Get({1, 2}, 0).AsFloat64(), 12.0);
}

TEST_F(SciQlEngineTest, UpdateWhere) {
  Table affected = Exec("UPDATE img SET v = 0 WHERE v > 30");
  EXPECT_EQ(affected.Get(0, 0), Value(int64_t{3}));  // 31, 32, 33
}

TEST_F(SciQlEngineTest, SimultaneousAssignmentSemantics) {
  Exec("CREATE ARRAY two (x INT DIMENSION [0:2], a DOUBLE DEFAULT 1.0, "
       "b DOUBLE DEFAULT 2.0)");
  // a and b must swap using the OLD values of each other.
  Exec("UPDATE two SET a = b, b = a");
  auto arr = engine_->GetArray("two");
  EXPECT_DOUBLE_EQ((*arr)->Get({0}, 0).AsFloat64(), 2.0);
  EXPECT_DOUBLE_EQ((*arr)->Get({0}, 1).AsFloat64(), 1.0);
}

TEST_F(SciQlEngineTest, JoinArrayWithRelationalTable) {
  // The SciQL symbiosis claim: arrays and tables mixed in one query.
  {
    auto table = std::make_shared<Table>(storage::Schema(
        {{"y", storage::ColumnType::kInt64},
         {"label", storage::ColumnType::kString}}));
    ASSERT_TRUE(
        table->AppendRow({Value(int64_t{0}), Value("north")}).ok());
    ASSERT_TRUE(
        table->AppendRow({Value(int64_t{3}), Value("south")}).ok());
    ASSERT_TRUE(tables_.CreateTable("rows", table).ok());
  }
  Table t = Exec(
      "SELECT label, max(v) AS m FROM img JOIN rows ON img.y = rows.y "
      "GROUP BY label ORDER BY label");
  ASSERT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.Get(0, 0), Value("north"));
  EXPECT_DOUBLE_EQ(t.Get(0, 1).AsFloat64(), 3.0);
  EXPECT_DOUBLE_EQ(t.Get(1, 1).AsFloat64(), 33.0);
}

TEST_F(SciQlEngineTest, DropArray) {
  Exec("DROP ARRAY img");
  EXPECT_FALSE(engine_->HasArray("img"));
  EXPECT_FALSE(engine_->Execute("SELECT v FROM img").ok());
}

TEST_F(SciQlEngineTest, ErrorsSurface) {
  EXPECT_FALSE(engine_->Execute("SELECT v FROM missing").ok());
  EXPECT_FALSE(engine_->Execute("UPDATE img SET nope = 1").ok());
  EXPECT_FALSE(
      engine_->Execute("CREATE ARRAY img (x INT DIMENSION [0:2], v DOUBLE)")
          .ok());  // duplicate name
}

/// Image-processing flavored sweep: thresholding via SciQL counts match a
/// direct scan for several thresholds.
class ThresholdSweep : public ::testing::TestWithParam<double> {};

TEST_P(ThresholdSweep, SciQlCountMatchesDirect) {
  storage::Catalog tables;
  SciQlEngine engine(&tables);
  ASSERT_TRUE(engine
                  .Execute("CREATE ARRAY a (y INT DIMENSION [0:8], x INT "
                           "DIMENSION [0:8], v DOUBLE DEFAULT 0.0)")
                  .ok());
  ASSERT_TRUE(engine.Execute("UPDATE a SET v = (y * 8 + x) % 13").ok());
  double threshold = GetParam();
  auto out = engine.Execute("SELECT count(*) AS n FROM a WHERE v > " +
                            std::to_string(threshold));
  ASSERT_TRUE(out.ok());
  auto arr = engine.GetArray("a");
  int64_t expected = 0;
  for (size_t i = 0; i < (*arr)->num_cells(); ++i) {
    if ((*arr)->GetLinear(i, 0).AsFloat64() > threshold) ++expected;
  }
  EXPECT_EQ(out->Get(0, 0), Value(expected));
}

INSTANTIATE_TEST_SUITE_P(Thresholds, ThresholdSweep,
                         ::testing::Values(-1.0, 0.0, 5.5, 12.0, 99.0));

// ---------------------------------------------------------------------------
// Governance: the cells a statement builds are charged, and UPDATE stops
// when its token does — changing nothing.

class SciQlGovernanceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(engine_
                    .Execute("CREATE ARRAY img (y INT DIMENSION [0:512], "
                             "x INT DIMENSION [0:512], v DOUBLE DEFAULT 0.5)")
                    .ok());
    ASSERT_TRUE(engine_.Execute("UPDATE img[0:4, 0:512] SET v = x").ok());
  }

  /// Order-sensitive digest of every cell of `img`.
  double Checksum() {
    auto arr = engine_.GetArray("img");
    EXPECT_TRUE(arr.ok());
    double sum = 0;
    for (size_t i = 0; i < (*arr)->num_cells(); ++i) {
      Value v = (*arr)->GetLinear(i, 0);
      sum += v.is_null() ? -7.0 * static_cast<double>(i)
                         : v.AsFloat64() * static_cast<double>(i % 97 + 1);
    }
    return sum;
  }

  storage::Catalog tables_;
  SciQlEngine engine_{&tables_};
};

TEST_F(SciQlGovernanceTest, SelectChargesTheCellsItBuilds) {
  governor::MemoryBudget tiny("tiny", 16);
  {
    governor::ScopedBudget scope(&tiny);
    auto starved = engine_.Execute("SELECT y, x FROM img");
    ASSERT_FALSE(starved.ok()) << starved->num_rows() << " rows";
    EXPECT_EQ(starved.status().code(), StatusCode::kResourceExhausted);
    // Shared attribute columns cost nothing: no cell is built.
    auto shared = engine_.Execute("SELECT v FROM img");
    ASSERT_TRUE(shared.ok()) << shared.status().ToString();
    EXPECT_EQ(shared->num_rows(), 512u * 512u);
  }
  EXPECT_EQ(tiny.used(), 0u);
  governor::MemoryBudget roomy("roomy", 64u << 20);
  {
    governor::ScopedBudget scope(&roomy);
    auto cells = engine_.Execute("SELECT y, x FROM img");
    ASSERT_TRUE(cells.ok()) << cells.status().ToString();
    EXPECT_EQ(cells->num_rows(), 512u * 512u);
    auto slab = engine_.Execute("SELECT v FROM img[10:20, 30:40] WHERE v > 0");
    ASSERT_TRUE(slab.ok()) << slab.status().ToString();
    EXPECT_EQ(slab->num_rows(), 100u);
  }
  EXPECT_EQ(roomy.used(), 0u);
  EXPECT_GE(roomy.peak(), 512u * 512u * 2 * sizeof(int64_t));
}

TEST_F(SciQlGovernanceTest, UpdateStopsOnACancelledToken) {
  const double before = Checksum();
  CancellationToken token;
  token.Cancel();
  {
    ScopedCancel scope(&token);
    auto update = engine_.Execute("UPDATE img SET v = v + 1");
    ASSERT_FALSE(update.ok());
    EXPECT_EQ(update.status().code(), StatusCode::kCancelled);
  }
  EXPECT_EQ(Checksum(), before);
}

TEST_F(SciQlGovernanceTest, UpdateStopsAtAnExpiredDeadline) {
  const double before = Checksum();
  CancellationToken token;
  token.SetDeadline(std::chrono::steady_clock::now() -
                    std::chrono::milliseconds(1));
  {
    ScopedCancel scope(&token);
    auto update = engine_.Execute("UPDATE img SET v = v * 2 WHERE x > 3");
    ASSERT_FALSE(update.ok());
    EXPECT_EQ(update.status().code(), StatusCode::kDeadlineExceeded);
  }
  EXPECT_EQ(Checksum(), before);
}

TEST_F(SciQlGovernanceTest, FailedUpdateChangesNothing) {
  const double before = Checksum();
  // Integer division by zero at x = 100, long after the first cells.
  auto update = engine_.Execute("UPDATE img SET v = 1 / (x - 100)");
  ASSERT_FALSE(update.ok());
  EXPECT_EQ(update.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Checksum(), before);
  auto applied = engine_.Execute("UPDATE img[0:2, 0:8] SET v = x + y");
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  EXPECT_EQ(applied->Get(0, 0), Value(int64_t{16}));
  EXPECT_DOUBLE_EQ((*engine_.GetArray("img"))->Get({1, 7}, 0).AsFloat64(), 8.0);
}

TEST_F(SciQlGovernanceTest, MixedTypeUpdateChangesNothing) {
  const double before = Checksum();
  // 'oops' fails only when written into the DOUBLE attribute, at x = 3,
  // after the values of cells x = 0..2 were computed.
  auto update = engine_.Execute("UPDATE img SET v = if(x > 2, 'oops', 100.0)");
  ASSERT_FALSE(update.ok());
  EXPECT_EQ(update.status().code(), StatusCode::kTypeError);
  EXPECT_EQ(Checksum(), before);
}

// ---------------------------------------------------------------------------
// Differential: late materialization against Array::ToTable() +
// relational::ExecuteSelect on seeded arrays, slabs and statements.

class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed * 0x9E3779B97F4A7C15ull + 1) {}
  int Below(int n) {
    state_ ^= state_ << 13;
    state_ ^= state_ >> 7;
    state_ ^= state_ << 17;
    return static_cast<int>(state_ % static_cast<uint64_t>(n));
  }

 private:
  uint64_t state_;
};

/// 1-3 dimensions with non-zero starts; bool/int/double/string attributes
/// with about one NULL cell in seven.
array::ArrayPtr RandomArray(Rng& rng) {
  const int nd = 1 + rng.Below(3);
  static const char* kNames[] = {"z", "y", "x"};
  std::vector<array::Dimension> dims;
  for (int d = 0; d < nd; ++d) {
    dims.push_back({kNames[3 - nd + d], rng.Below(11) - 5,
                    1 + rng.Below(nd == 1 ? 24 : 7)});
  }
  auto made = array::Array::Create(
      "a", dims,
      {{"b", storage::ColumnType::kBool},
       {"i", storage::ColumnType::kInt64},
       {"d", storage::ColumnType::kFloat64},
       {"s", storage::ColumnType::kString}});
  EXPECT_TRUE(made.ok());
  array::ArrayPtr arr = *made;
  static const char* kWords[] = {"p", "q", "r", "qq"};
  for (size_t c = 0; c < arr->num_cells(); ++c) {
    for (size_t a = 0; a < 4; ++a) {
      Value v;
      if (rng.Below(7) != 0) {
        switch (a) {
          case 0:
            v = Value(rng.Below(2) == 0);
            break;
          case 1:
            v = Value(int64_t{rng.Below(9) - 4});
            break;
          case 2:
            v = Value(static_cast<double>(rng.Below(200) - 100) / 10.0);
            break;
          default:
            v = Value(kWords[rng.Below(4)]);
            break;
        }
      }
      EXPECT_TRUE(arr->SetLinear(c, a, v).ok());
    }
  }
  return arr;
}

/// "" (no slab) or "[lo:hi, ...]": inside the array, clamped past its
/// edges, or empty on one dimension.
std::string RandomSlab(Rng& rng, const array::Array& arr) {
  const int kind = rng.Below(10);
  if (kind < 3) return "";
  const int empty_dim = kind == 9 ? rng.Below(static_cast<int>(arr.num_dims())) : -1;
  std::string out = "[";
  for (size_t d = 0; d < arr.num_dims(); ++d) {
    const array::Dimension& dim = arr.dims()[d];
    const int64_t end = dim.start + dim.size;
    int64_t lo, hi;
    if (static_cast<int>(d) == empty_dim) {
      lo = end + rng.Below(3);
      hi = lo + 1 + rng.Below(3);
    } else if (kind < 7) {
      lo = dim.start + rng.Below(static_cast<int>(dim.size));
      hi = lo + 1 + rng.Below(static_cast<int>(end - lo));
    } else {
      lo = dim.start - 1 - rng.Below(3);
      hi = end - rng.Below(static_cast<int>(dim.size)) + rng.Below(2) * 4;
    }
    out += (d ? ", " : "") + std::to_string(lo) + ":" + std::to_string(hi);
  }
  return out + "]";
}

/// A WHERE of 0-3 conjuncts; `attr_only` reports whether every conjunct
/// references attributes only.
std::string RandomWhere(Rng& rng, const array::Array& arr, bool* attr_only) {
  *attr_only = true;
  const int n = rng.Below(4);
  if (n == 0) return "";
  auto dim = [&] {
    return arr.dims()[static_cast<size_t>(
                          rng.Below(static_cast<int>(arr.num_dims())))]
        .name;
  };
  auto num = [&] { return std::to_string(rng.Below(9) - 4); };
  std::string where;
  for (int c = 0; c < n; ++c) {
    std::string conjunct;
    const int shape = rng.Below(20);
    if (shape < 14) {
      const std::string attribute_only[] = {
          "d > " + num(),        "i <= " + num(),
          "s = 'q'",             "s <> 'p'",
          "b",                   "d - i > " + num(),
          "d > i",               "NOT (i > " + num() + ")",
          "abs(d) > " + num(),   "coalesce(i, 0) >= " + num(),
          "length(s) > 1",       "i * 2 < d",
          "1 / i > 0",           "sqrt(d) > 1"};
      conjunct = attribute_only[shape];
    } else {
      *attr_only = false;
      const std::string with_dims[] = {
          dim() + " >= " + num(),
          dim() + " < " + num(),
          "(" + dim() + " > " + num() + " OR d > " + num() + ")",
          "NOT (" + dim() + " = " + num() + ")",
          dim() + " + i > " + num(),
          "(" + dim() + " < 0 OR s = 'r')"};
      conjunct = with_dims[shape - 14];
    }
    where += (c ? " AND " : " WHERE ") + conjunct;
  }
  return where;
}

/// The reference: the whole array as a table, the slab applied as a
/// coordinate filter, then the relational engine.
Result<Table> Reference(const array::Array& arr,
                        const relational::SelectStatement& stmt,
                        const storage::Catalog& tables) {
  Table cells = arr.ToTable();
  if (!stmt.from.slab.empty()) {
    if (stmt.from.slab.size() != arr.num_dims()) {
      return Status::InvalidArgument("slab arity mismatch");
    }
    std::vector<std::pair<int64_t, int64_t>> bounds;
    for (size_t d = 0; d < arr.num_dims(); ++d) {
      const array::Dimension& dim = arr.dims()[d];
      int64_t lo = std::max(stmt.from.slab[d].first, dim.start);
      int64_t hi = std::min(stmt.from.slab[d].second, dim.start + dim.size);
      if (lo >= hi) {
        return Status::OutOfRange("empty slab on dimension '" + dim.name +
                                  "'");
      }
      bounds.emplace_back(lo, hi);
    }
    storage::SelectionVector keep;
    for (size_t r = 0; r < cells.num_rows(); ++r) {
      bool inside = true;
      for (size_t d = 0; d < bounds.size(); ++d) {
        int64_t c = cells.column(d).GetInt64(r);
        inside = inside && c >= bounds[d].first && c < bounds[d].second;
      }
      if (inside) keep.push_back(static_cast<uint32_t>(r));
    }
    cells = cells.Take(keep);
  }
  storage::Catalog catalog;
  TELEIOS_RETURN_IF_ERROR(
      catalog.CreateTable("a", std::make_shared<Table>(std::move(cells))));
  TELEIOS_ASSIGN_OR_RETURN(storage::TablePtr r, tables.GetTable("r"));
  TELEIOS_RETURN_IF_ERROR(catalog.CreateTable("r", r));
  return relational::ExecuteSelect(stmt, catalog);
}

TEST(SciQlThreeValuedLogicTest, NegationDropsNullCells) {
  // As in SQL: NOT of a NULL cell's test is NULL, which a WHERE drops.
  storage::Catalog tables;
  SciQlEngine engine(&tables);
  auto made = array::Array::Create(
      "a", {{"x", 0, 4}},
      {{"i", storage::ColumnType::kInt64}, {"s", storage::ColumnType::kString}});
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  const std::vector<std::pair<Value, Value>> cells = {
      {Value(int64_t{1}), Value("a")},
      {Value(int64_t{2}), Value("b")},
      {Value(), Value()},
      {Value(int64_t{3}), Value("ab")}};
  for (size_t c = 0; c < cells.size(); ++c) {
    ASSERT_TRUE((*made)->SetLinear(c, 0, cells[c].first).ok());
    ASSERT_TRUE((*made)->SetLinear(c, 1, cells[c].second).ok());
  }
  ASSERT_TRUE(engine.RegisterArray(*made).ok());
  auto xs = [&](const std::string& where) {
    std::vector<int64_t> out;
    auto t = engine.Execute("SELECT x FROM a WHERE " + where);
    EXPECT_TRUE(t.ok()) << where << ": " << t.status().ToString();
    for (size_t r = 0; t.ok() && r < t->num_rows(); ++r) {
      out.push_back(t->Get(r, 0).AsInt64());
    }
    return out;
  };
  using Xs = std::vector<int64_t>;
  EXPECT_EQ(xs("s NOT IN ('a')"), (Xs{1, 3}));
  EXPECT_EQ(xs("NOT (i = 1)"), (Xs{1, 3}));
  EXPECT_EQ(xs("NOT (s LIKE 'a%')"), (Xs{1}));
  EXPECT_EQ(xs("NOT (x = 0 OR i > 2)"), (Xs{1}));
}

TEST(SciQlDifferentialTest, LateMaterializationMatchesTheFullTable) {
  obs::Counter* built = obs::MetricsRegistry::Global().GetCounter(
      "teleios_sciql_cells_materialized_total");
  size_t compared = 0, failed_alike = 0, counted = 0;
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    Rng rng(seed);
    storage::Catalog tables;
    auto labels = std::make_shared<Table>(storage::Schema(
        {{"k", storage::ColumnType::kInt64},
         {"label", storage::ColumnType::kString}}));
    for (int k = -6; k <= 6; k += 2) {
      ASSERT_TRUE(labels
                      ->AppendRow({Value(int64_t{k}),
                                   Value("row" + std::to_string(k))})
                      .ok());
    }
    ASSERT_TRUE(tables.CreateTable("r", labels).ok());
    SciQlEngine engine(&tables);
    array::ArrayPtr arr = RandomArray(rng);
    ASSERT_TRUE(engine.RegisterArray(arr).ok());
    const std::string first = arr->dims().front().name;
    const std::string last = arr->dims().back().name;
    for (int t = 0; t < 8; ++t) {
      bool attr_only = false;
      const std::string slab = RandomSlab(rng, *arr);
      const std::string where = RandomWhere(rng, *arr, &attr_only);
      // Whether the statement names a dimension (so they are built).
      bool dims = true;
      std::string text;
      switch (t) {
        case 0:
          text = "SELECT * FROM a" + slab + where;
          break;
        case 1:
          text = "SELECT count(*) AS n FROM a" + slab + where;
          dims = !attr_only;
          break;
        case 2:
          text = "SELECT i, d FROM a" + slab + where;
          dims = !attr_only;
          break;
        case 3:
          text = "SELECT " + first + ", s FROM a" + slab + where +
                 " ORDER BY s, " + first + " LIMIT 7";
          break;
        case 4:
          text = "SELECT " + last + " / 2 AS t, count(*) AS n, max(d) AS m, "
                 "min(i) AS lo FROM a" + slab + where + " GROUP BY " + last +
                 " / 2 ORDER BY t";
          break;
        case 5:
          text = "SELECT a.i, a.d, r.label FROM a" + slab + " JOIN r ON a." +
                 first + " = r.k" + where;
          break;
        case 6:
          text = "SELECT d, b FROM a" + slab + where +
                 " ORDER BY d DESC LIMIT 3";
          dims = !attr_only;
          break;
        default:
          text = "SELECT " + last + " FROM a" + slab + where;
          break;
      }
      SCOPED_TRACE("seed " + std::to_string(seed) + ": " + text);
      auto parsed = ParseSciQl(text);
      ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
      const auto& stmt = std::get<relational::SelectStatement>(*parsed);
      Result<Table> expected = Reference(*arr, stmt, tables);
      const uint64_t built_before = built->value();
      Result<Table> got = engine.Execute(text);
      const uint64_t built_cells = built->value() - built_before;
      ASSERT_EQ(got.ok(), expected.ok())
          << "got " << got.status().ToString() << ", expected "
          << expected.status().ToString();
      if (!got.ok()) {
        EXPECT_EQ(got.status().ToString(), expected.status().ToString());
        ++failed_alike;
        continue;
      }
      EXPECT_EQ(got->ToString(1 << 20), expected->ToString(1 << 20));
      ++compared;
      // An attribute-only WHERE runs wholly before materialization: only
      // the cells it keeps are built (none when every cell survives and
      // no dimension is named, as the attribute columns are shared).
      if (attr_only && stmt.joins.empty()) {
        auto whole = ParseSciQl("SELECT * FROM a" + slab);
        ASSERT_TRUE(whole.ok());
        Result<Table> in_slab = Reference(
            *arr, std::get<relational::SelectStatement>(*whole), tables);
        ASSERT_TRUE(in_slab.ok());
        size_t kept = in_slab->num_rows();
        if (stmt.where != nullptr) {
          auto sel = relational::FilterIndices(*in_slab, stmt.where);
          ASSERT_TRUE(sel.ok()) << sel.status().ToString();
          kept = sel->size();
        }
        const bool all = kept == arr->num_cells();
        EXPECT_EQ(built_cells, dims || !all ? kept : 0u);
        ++counted;
      }
    }
  }
  // The seeds reach every outcome the test distinguishes.
  EXPECT_GT(compared, 300u);
  EXPECT_GT(failed_alike, 20u);
  EXPECT_GT(counted, 80u);
}

TEST(SciQlDifferentialTest, UpdateChangesExactlyTheCellsSelectReturns) {
  struct ThreadsGuard {
    ~ThreadsGuard() {
      exec::ThreadPool::SetGlobalThreads(exec::ThreadPool::DefaultThreads());
    }
  } guard;
  size_t updated = 0, failed_alike = 0, missed = 0;
  for (int threads : {1, 2, 8}) {
    exec::ThreadPool::SetGlobalThreads(threads);
    for (uint64_t seed = 1; seed <= 40; ++seed) {
      Rng rng(seed);
      storage::Catalog tables;
      auto keys = std::make_shared<Table>(
          storage::Schema({{"k", storage::ColumnType::kInt64}}));
      ASSERT_TRUE(tables.CreateTable("r", keys).ok());
      SciQlEngine engine(&tables);
      array::ArrayPtr arr = RandomArray(rng);
      ASSERT_TRUE(engine.RegisterArray(arr).ok());
      std::string dims;
      for (const array::Dimension& d : arr->dims()) {
        dims += (dims.empty() ? "" : ", ") + d.name;
      }
      const std::string last = arr->dims().back().name;
      for (int t = 0; t < 6; ++t) {
        bool attr_only = false;
        const std::string slab = RandomSlab(rng, *arr);
        const std::string where = RandomWhere(rng, *arr, &attr_only);
        // Odd trials also write a value that names a dimension.
        const std::string set =
            " SET s = 'hit'" + (t % 2 ? ", i = " + last + " + 1000" : "");
        const std::string text = "UPDATE a" + slab + set + where;
        SCOPED_TRACE("seed " + std::to_string(seed) + " at " +
                     std::to_string(threads) + " threads: " + text);
        auto parsed = ParseSciQl("SELECT " + dims + " FROM a" + slab + where);
        ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
        // The cells a SELECT returns, by the reference.
        Result<Table> expected = Reference(
            *arr, std::get<relational::SelectStatement>(*parsed), tables);
        const Table before = arr->ToTable();  // shares the old cells
        Result<Table> got = engine.Execute(text);
        std::vector<bool> hit(arr->num_cells(), false);
        if (expected.ok()) {
          ASSERT_TRUE(got.ok()) << got.status().ToString();
          ASSERT_EQ(got->Get(0, 0),
                    Value(static_cast<int64_t>(expected->num_rows())));
          for (size_t r = 0; r < expected->num_rows(); ++r) {
            std::vector<int64_t> coords;
            for (size_t d = 0; d < arr->num_dims(); ++d) {
              coords.push_back(expected->Get(r, d).AsInt64());
            }
            auto cell = arr->LinearIndex(coords);
            ASSERT_TRUE(cell.ok());
            hit[*cell] = true;
          }
          ++updated;
        } else if (expected.status().code() == StatusCode::kOutOfRange) {
          // A slab that misses the array: no cell to update.
          ASSERT_TRUE(got.ok()) << got.status().ToString();
          EXPECT_EQ(got->Get(0, 0), Value(int64_t{0}));
          ++missed;
        } else {
          ASSERT_FALSE(got.ok());
          EXPECT_EQ(got.status().ToString(), expected.status().ToString());
          ++failed_alike;
        }
        const size_t nd = arr->num_dims();
        for (size_t c = 0; c < arr->num_cells(); ++c) {
          for (size_t a = 0; a < arr->num_attributes(); ++a) {
            const Value now = arr->GetLinear(c, a);
            const Value old = before.Get(c, nd + a);
            if (hit[c] && arr->attribute(a).name == "s") {
              ASSERT_EQ(now, Value("hit")) << "cell " << c;
            } else if (hit[c] && t % 2 && arr->attribute(a).name == "i") {
              ASSERT_EQ(now, Value(before.Get(c, nd - 1).AsInt64() + 1000))
                  << "cell " << c;
            } else {
              ASSERT_EQ(now.ToString(), old.ToString())
                  << "cell " << c << " attribute " << a;
            }
          }
        }
      }
    }
  }
  EXPECT_GT(updated, 400u);
  EXPECT_GT(failed_alike, 30u);
  EXPECT_GT(missed, 10u);
}

}  // namespace
}  // namespace teleios::sciql
