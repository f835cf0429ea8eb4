#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "exec/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "relational/operators.h"
#include "relational/sql_engine.h"
#include "relational/sql_lexer.h"
#include "relational/sql_parser.h"

namespace teleios::relational {
namespace {

using storage::Catalog;
using storage::Table;

TEST(SqlLexerTest, TokenKinds) {
  auto tokens = LexSql("SELECT x, 'it''s' FROM t WHERE y >= 3.5 -- c\n");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].type, TokenType::kIdentifier);
  EXPECT_EQ((*tokens)[0].text, "SELECT");
  EXPECT_EQ((*tokens)[3].type, TokenType::kString);
  EXPECT_EQ((*tokens)[3].text, "it's");
  // ... WHERE y >= 3.5
  bool saw_ge = false;
  bool saw_float = false;
  for (const Token& t : *tokens) {
    if (t.type == TokenType::kSymbol && t.text == ">=") saw_ge = true;
    if (t.type == TokenType::kFloat && t.float_value == 3.5) saw_float = true;
  }
  EXPECT_TRUE(saw_ge);
  EXPECT_TRUE(saw_float);
}

TEST(SqlLexerTest, RejectsUnterminatedString) {
  EXPECT_FALSE(LexSql("SELECT 'oops").ok());
}

TEST(SqlLexerTest, RejectsUnknownCharacter) {
  EXPECT_FALSE(LexSql("SELECT \x01").ok());
}

TEST(SqlParserTest, SelectClauses) {
  auto stmt = ParseSql(
      "SELECT band, avg(temp) AS t FROM sensors WHERE temp > 300 "
      "GROUP BY band HAVING count(*) > 1 ORDER BY t DESC LIMIT 5 OFFSET 2");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  const auto& s = std::get<SelectStatement>(*stmt);
  EXPECT_EQ(s.items.size(), 2u);
  EXPECT_EQ(s.items[1].alias, "t");
  EXPECT_NE(s.where, nullptr);
  EXPECT_EQ(s.group_by.size(), 1u);
  EXPECT_NE(s.having, nullptr);
  ASSERT_EQ(s.order_by.size(), 1u);
  EXPECT_TRUE(s.order_by[0].descending);
  EXPECT_EQ(s.limit, 5);
  EXPECT_EQ(s.offset, 2);
}

TEST(SqlParserTest, JoinAndAlias) {
  auto stmt = ParseSql(
      "SELECT a.x FROM t1 a JOIN t2 AS b ON a.x = b.y LEFT JOIN t3 ON "
      "t1.x = t3.z");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  const auto& s = std::get<SelectStatement>(*stmt);
  EXPECT_EQ(s.from.alias, "a");
  ASSERT_EQ(s.joins.size(), 2u);
  EXPECT_EQ(s.joins[0].table.alias, "b");
  EXPECT_EQ(s.joins[1].type, JoinType::kLeftOuter);
}

TEST(SqlParserTest, InBetweenIsNull) {
  auto stmt = ParseSql(
      "SELECT * FROM t WHERE a IN (1, 2) AND b BETWEEN 3 AND 4 AND c IS "
      "NOT NULL");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
}

TEST(SqlParserTest, RejectsTrailingGarbage) {
  EXPECT_FALSE(ParseSql("SELECT * FROM t zz vv").ok());
  EXPECT_FALSE(ParseSql("FROB TABLE x").ok());
}

TEST(SqlParserTest, SlabOnTableRef) {
  auto stmt = ParseSql("SELECT * FROM img[0:10, 5:20]");
  ASSERT_TRUE(stmt.ok());
  const auto& s = std::get<SelectStatement>(*stmt);
  ASSERT_EQ(s.from.slab.size(), 2u);
  EXPECT_EQ(s.from.slab[0].first, 0);
  EXPECT_EQ(s.from.slab[1].second, 20);
}

class SqlEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    engine_ = std::make_unique<SqlEngine>(&catalog_);
    Exec("CREATE TABLE obs (id INT, station VARCHAR, temp DOUBLE)");
    Exec("INSERT INTO obs VALUES (1, 'athens', 33.5), (2, 'sparta', 36.0), "
         "(3, 'athens', 31.0), (4, 'patras', NULL)");
  }

  Table Exec(const std::string& sql) {
    auto r = engine_->Execute(sql);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
    return r.ok() ? *r : Table();
  }

  /// The span tree of running `sql`: the plan PROFILE shows.
  obs::SpanNode Profile(const std::string& sql) {
    obs::ScopedTrace trace("statement");
    Exec(sql);
    return trace.Finish();
  }

  Catalog catalog_;
  std::unique_ptr<SqlEngine> engine_;
};

TEST_F(SqlEngineTest, SelectStar) {
  Table t = Exec("SELECT * FROM obs");
  EXPECT_EQ(t.num_rows(), 4u);
  EXPECT_EQ(t.num_columns(), 3u);
}

TEST_F(SqlEngineTest, NegationDropsNullRows) {
  // SQL's three-valued logic: NOT of NULL is NULL and a WHERE keeps only
  // TRUE rows, so a negated test never returns the rows where its column
  // is NULL — on the compiled kernels (NOT IN, NOT =) as in the
  // interpreter (NOT LIKE).
  Exec("CREATE TABLE n (x VARCHAR, i INT)");
  Exec("INSERT INTO n VALUES ('a', 1), ('b', 2), (NULL, NULL), ('ab', 3)");
  auto ids = [&](const std::string& where) {
    Table t = Exec("SELECT i FROM n WHERE " + where);
    std::vector<int64_t> out;
    for (size_t r = 0; r < t.num_rows(); ++r) {
      out.push_back(t.Get(r, 0).AsInt64());
    }
    return out;
  };
  using Ids = std::vector<int64_t>;
  EXPECT_EQ(ids("x NOT IN ('a')"), (Ids{2, 3}));
  EXPECT_EQ(ids("NOT (i = 1)"), (Ids{2, 3}));
  EXPECT_EQ(ids("NOT (x LIKE 'a%')"), (Ids{2}));
  // FALSE AND NULL is FALSE, TRUE OR NULL is TRUE; otherwise NULL stays
  // NULL through AND, OR and NOT.
  EXPECT_EQ(ids("NOT (x = 'a' AND i = 5)"), (Ids{1, 2, 3}));
  EXPECT_EQ(ids("NOT (x = 'zz' OR i > 2)"), (Ids{1, 2}));
  EXPECT_EQ(ids("NOT (x LIKE 'zz%' OR i > 2)"), (Ids{1, 2}));
  EXPECT_EQ(ids("x = 'b' OR NOT (i = 1)"), (Ids{2, 3}));
  // In a select list, NOT of NULL reads NULL.
  Table negated = Exec("SELECT NOT (i = 1) AS v FROM n");
  ASSERT_EQ(negated.num_rows(), 4u);
  EXPECT_FALSE(negated.Get(0, 0).AsBool());
  EXPECT_TRUE(negated.Get(1, 0).AsBool());
  EXPECT_TRUE(negated.Get(2, 0).is_null());
}

TEST_F(SqlEngineTest, WhereProjection) {
  Table t = Exec("SELECT station, temp FROM obs WHERE temp > 32");
  ASSERT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.Get(0, 0), Value("athens"));
  EXPECT_EQ(t.Get(1, 0), Value("sparta"));
}

TEST_F(SqlEngineTest, ComputedColumns) {
  Table t = Exec("SELECT id * 2 AS twice FROM obs WHERE id = 3");
  ASSERT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.Get(0, 0), Value(int64_t{6}));
}

TEST_F(SqlEngineTest, GroupByHaving) {
  Table t = Exec(
      "SELECT station, count(*) AS n, avg(temp) AS t FROM obs "
      "GROUP BY station HAVING count(*) > 1");
  ASSERT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.Get(0, 0), Value("athens"));
  EXPECT_EQ(t.Get(0, 1), Value(int64_t{2}));
  EXPECT_DOUBLE_EQ(t.Get(0, 2).AsFloat64(), 32.25);
}

TEST_F(SqlEngineTest, GroupByExpression) {
  Table t = Exec("SELECT id / 2 AS half, count(*) AS n FROM obs GROUP BY "
                 "id / 2 ORDER BY half");
  EXPECT_EQ(t.num_rows(), 3u);  // halves: 0, 1, 2
}

TEST_F(SqlEngineTest, OrderLimit) {
  Table t = Exec("SELECT id FROM obs ORDER BY id DESC LIMIT 2");
  ASSERT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.Get(0, 0), Value(int64_t{4}));
  EXPECT_EQ(t.Get(1, 0), Value(int64_t{3}));
}

TEST_F(SqlEngineTest, Distinct) {
  Table t = Exec("SELECT DISTINCT station FROM obs");
  EXPECT_EQ(t.num_rows(), 3u);
}

TEST_F(SqlEngineTest, JoinWithPushdown) {
  Exec("CREATE TABLE stations (station VARCHAR, region VARCHAR)");
  Exec("INSERT INTO stations VALUES ('athens', 'attica'), "
       "('sparta', 'laconia')");
  Table t = Exec(
      "SELECT region, temp FROM obs JOIN stations ON obs.station = "
      "stations.station WHERE temp > 32");
  ASSERT_EQ(t.num_rows(), 2u);
  obs::SpanNode plan = Profile(
      "SELECT region, temp FROM obs JOIN stations ON obs.station = "
      "stations.station WHERE temp > 32");
  const obs::SpanNode* pushdown = plan.Find("filter");
  ASSERT_NE(pushdown, nullptr) << plan.Render();
  EXPECT_EQ(pushdown->Attr("side"), "left") << plan.Render();
  const obs::SpanNode* join = plan.Find("hash join");
  ASSERT_NE(join, nullptr) << plan.Render();
  EXPECT_EQ(join->Attr("right"), "stations");
}

TEST_F(SqlEngineTest, LeftJoinKeepsUnmatched) {
  Exec("CREATE TABLE notes (station VARCHAR, note VARCHAR)");
  Exec("INSERT INTO notes VALUES ('athens', 'hot')");
  Table t = Exec(
      "SELECT obs.station, note FROM obs LEFT JOIN notes ON obs.station = "
      "notes.station");
  EXPECT_EQ(t.num_rows(), 4u);
}

TEST_F(SqlEngineTest, InsertSubsetColumns) {
  Exec("INSERT INTO obs (id, station) VALUES (9, 'argos')");
  Table t = Exec("SELECT temp FROM obs WHERE id = 9");
  ASSERT_EQ(t.num_rows(), 1u);
  EXPECT_TRUE(t.Get(0, 0).is_null());
}

TEST_F(SqlEngineTest, UpdateWithWhere) {
  Table affected = Exec("UPDATE obs SET temp = temp + 1 WHERE station = "
                        "'athens'");
  EXPECT_EQ(affected.Get(0, 0), Value(int64_t{2}));
  Table t = Exec("SELECT temp FROM obs WHERE id = 1");
  EXPECT_DOUBLE_EQ(t.Get(0, 0).AsFloat64(), 34.5);
}

TEST_F(SqlEngineTest, DeleteWithWhere) {
  Table affected = Exec("DELETE FROM obs WHERE temp IS NULL");
  EXPECT_EQ(affected.Get(0, 0), Value(int64_t{1}));
  EXPECT_EQ(Exec("SELECT * FROM obs").num_rows(), 3u);
}

TEST_F(SqlEngineTest, FailedUpdateChangesNothing) {
  auto table = catalog_.GetTable("obs");
  ASSERT_TRUE(table.ok());
  const std::string before = Exec("SELECT * FROM obs").ToString(100);
  const double* temps = (*table)->column(2).doubles().data();
  // 'oops' fails only when written into the DOUBLE column, at the third
  // row, after the first two values were computed.
  auto mixed =
      engine_->Execute("UPDATE obs SET temp = if(id > 2, 'oops', 1.0)");
  ASSERT_FALSE(mixed.ok());
  EXPECT_EQ(mixed.status().code(), StatusCode::kTypeError);
  // Integer division by zero at the third row.
  auto divided = engine_->Execute(
      "UPDATE obs SET station = 'x', id = 10 / (id - 3) WHERE id > 0");
  ASSERT_FALSE(divided.ok());
  EXPECT_EQ(divided.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Exec("SELECT * FROM obs").ToString(100), before);
  // The table kept its very buffers.
  EXPECT_EQ((*table)->column(2).doubles().data(), temps);
}

TEST_F(SqlEngineTest, UpdateAssignsSimultaneouslyAndKeepsTheDictionary) {
  auto table = catalog_.GetTable("obs");
  ASSERT_TRUE(table.ok());
  const storage::Dictionary* dict = &(*table)->column(1).dict();
  Table affected = Exec(
      "UPDATE obs SET id = id + 10, temp = id, station = 'argos' "
      "WHERE station = 'athens'");
  EXPECT_EQ(affected.Get(0, 0), Value(int64_t{2}));
  // Every right-hand side read the row as it was.
  Table t = Exec("SELECT id, station, temp FROM obs ORDER BY id");
  ASSERT_EQ(t.num_rows(), 4u);
  EXPECT_EQ(t.Get(2, 0), Value(int64_t{11}));
  EXPECT_EQ(t.Get(2, 1), Value("argos"));
  EXPECT_EQ(t.Get(2, 2), Value(1.0));
  EXPECT_EQ(t.Get(3, 0), Value(int64_t{13}));
  EXPECT_EQ(t.Get(3, 2), Value(3.0));
  // The new string went into the table's own dictionary, as INSERT does.
  EXPECT_EQ(&(*table)->column(1).dict(), dict);
}

TEST_F(SqlEngineTest, DropTable) {
  Exec("DROP TABLE obs");
  EXPECT_FALSE(engine_->Execute("SELECT * FROM obs").ok());
}

TEST_F(SqlEngineTest, ErrorsSurfaceCleanly) {
  EXPECT_EQ(engine_->Execute("SELECT nope FROM obs").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(engine_->Execute("SELECT * FROM missing").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(engine_->Execute("CREATE TABLE obs (x INT)").status().code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(engine_->Execute("SELECT FROM obs").status().code(),
            StatusCode::kParseError);
}

TEST_F(SqlEngineTest, StringFunctionsInQueries) {
  Table t = Exec("SELECT upper(station) AS s FROM obs WHERE id = 1");
  EXPECT_EQ(t.Get(0, 0), Value("ATHENS"));
}

TEST_F(SqlEngineTest, LikeInWhere) {
  Table t = Exec("SELECT id FROM obs WHERE station LIKE 'a%'");
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST_F(SqlEngineTest, BetweenAndInEndToEnd) {
  Table between = Exec("SELECT id FROM obs WHERE temp BETWEEN 31 AND 34");
  EXPECT_EQ(between.num_rows(), 2u);  // 33.5 and 31.0
  Table in_list = Exec(
      "SELECT id FROM obs WHERE station IN ('sparta', 'patras') ORDER BY id");
  ASSERT_EQ(in_list.num_rows(), 2u);
  EXPECT_EQ(in_list.Get(0, 0), Value(int64_t{2}));
  Table not_in = Exec("SELECT id FROM obs WHERE station NOT IN ('athens')");
  EXPECT_EQ(not_in.num_rows(), 2u);
}

TEST_F(SqlEngineTest, ExplainShowsVectorizedFilter) {
  auto filter_path = [&](const std::string& sql) -> std::string {
    obs::SpanNode plan = Profile(sql);
    const obs::SpanNode* filter = plan.Find("filter");
    return filter == nullptr ? "no filter span" : filter->Attr("path");
  };
  EXPECT_EQ(filter_path("SELECT id FROM obs WHERE temp > 32"), "vectorized");
  EXPECT_EQ(filter_path("SELECT id FROM obs WHERE station IN "
                        "('athens', 'patras', 'nowhere')"),
            "vectorized");
  EXPECT_EQ(filter_path("SELECT id FROM obs WHERE station LIKE 'a%'"),
            "interpreted");
}

TEST_F(SqlEngineTest, DoubleKeysApartPastTenDigitsStayApart) {
  Exec("CREATE TABLE d (x DOUBLE)");
  Exec("INSERT INTO d VALUES (1.00000000001), (1.00000000002), "
       "(1.00000000001)");
  Table groups = Exec("SELECT x, count(*) AS n FROM d GROUP BY x");
  ASSERT_EQ(groups.num_rows(), 2u);
  EXPECT_EQ(groups.Get(0, 1), Value(int64_t{2}));
  EXPECT_EQ(groups.Get(1, 1), Value(int64_t{1}));
  EXPECT_EQ(Exec("SELECT DISTINCT x FROM d").num_rows(), 2u);
}

TEST_F(SqlEngineTest, NegativeZeroGroupsWithZero) {
  Exec("CREATE TABLE z (x DOUBLE)");
  Exec("INSERT INTO z VALUES (0.0), (-0.0), (0.0)");
  // WHERE says -0.0 = 0.0, so GROUP BY and DISTINCT see one value.
  EXPECT_EQ(Exec("SELECT x FROM z WHERE x = 0.0").num_rows(), 3u);
  Table groups = Exec("SELECT x, count(*) AS n FROM z GROUP BY x");
  ASSERT_EQ(groups.num_rows(), 1u);
  EXPECT_EQ(groups.Get(0, 1), Value(int64_t{3}));
  EXPECT_EQ(Exec("SELECT DISTINCT x FROM z").num_rows(), 1u);
}

TEST_F(SqlEngineTest, JoinKeysMatchWhereEquality) {
  Exec("CREATE TABLE a (i INT, x DOUBLE)");
  Exec("CREATE TABLE b (d DOUBLE, y DOUBLE)");
  Exec("INSERT INTO a VALUES (1, 1.00000000001)");
  Exec("INSERT INTO b VALUES (1.0, 1.00000000002)");
  // The doubles differ past ten digits: WHERE rejects them, so must ON.
  EXPECT_EQ(Exec("SELECT i FROM a WHERE x = 1.00000000002").num_rows(), 0u);
  EXPECT_EQ(Exec("SELECT i FROM a JOIN b ON a.x = b.y").num_rows(), 0u);
  // An INT64 key meets an equal DOUBLE key, as WHERE does.
  EXPECT_EQ(Exec("SELECT i FROM a WHERE i = 1.0").num_rows(), 1u);
  EXPECT_EQ(Exec("SELECT i FROM a JOIN b ON a.i = b.d").num_rows(), 1u);
  // NaN equals nothing under WHERE's `=`, NaN included, so a NaN key
  // joins no row; GROUP BY and DISTINCT keep the NaN rows as one group.
  const double nan = std::nan("");
  storage::TablePtr a = *catalog_.GetTable("a");
  storage::TablePtr b = *catalog_.GetTable("b");
  ASSERT_TRUE(a->AppendRow({Value(int64_t{2}), Value(nan)}).ok());
  ASSERT_TRUE(a->AppendRow({Value(int64_t{3}), Value(nan)}).ok());
  ASSERT_TRUE(b->AppendRow({Value(nan), Value(nan)}).ok());
  EXPECT_EQ(Exec("SELECT i FROM a WHERE x = x").num_rows(), 1u);
  EXPECT_EQ(Exec("SELECT i FROM a JOIN b ON a.x = b.y").num_rows(), 0u);
  EXPECT_EQ(Exec("SELECT i FROM a JOIN b ON a.x = b.d").num_rows(), 0u);
  EXPECT_EQ(Exec("SELECT i FROM a JOIN b ON a.i = b.d").num_rows(), 1u);
  EXPECT_EQ(Exec("SELECT x, count(*) AS n FROM a GROUP BY x").num_rows(), 2u);
  EXPECT_EQ(Exec("SELECT DISTINCT x FROM a").num_rows(), 2u);
}

TEST_F(SqlEngineTest, ProjectionKeepsDeclaredTypes) {
  Exec("CREATE TABLE t (id VARCHAR, n BIGINT)");
  Exec("INSERT INTO t VALUES ('a', 1), ('b', NULL)");
  Table empty = Exec("SELECT id, n FROM t WHERE id = 'zzz'");
  EXPECT_EQ(empty.num_rows(), 0u);
  EXPECT_EQ(empty.schema().ToString(), "(id VARCHAR, n BIGINT)");
  Table nulls = Exec("SELECT n FROM t WHERE id = 'b'");
  ASSERT_EQ(nulls.num_rows(), 1u);
  EXPECT_EQ(nulls.schema().ToString(), "(n BIGINT)");
}

/// Archive metadata in the shape analysts query over the wire: products
/// (string ids) and hotspots that reference them.
void AddArchiveTables(Catalog* catalog, size_t products, size_t hotspots) {
  static const char* kSatellites[] = {"MSG1", "MSG2", "TERRA", "AQUA"};
  static const char* kLevels[] = {"L0", "L1", "L2"};
  auto p = std::make_shared<Table>(
      storage::Schema({{"id", storage::ColumnType::kString},
                       {"satellite", storage::ColumnType::kString},
                       {"level", storage::ColumnType::kString},
                       {"acq_time", storage::ColumnType::kInt64}}));
  for (size_t i = 0; i < products; ++i) {
    p->column(0).AppendString("P" + std::to_string(100000 + i));
    p->column(1).AppendString(kSatellites[(i * 7) % 4]);
    p->column(2).AppendString(kLevels[(i * 5) % 3]);
    p->column(3).AppendInt64(static_cast<int64_t>(1000 + 60 * i));
  }
  auto h = std::make_shared<Table>(
      storage::Schema({{"id", storage::ColumnType::kInt64},
                       {"product_id", storage::ColumnType::kString},
                       {"confidence", storage::ColumnType::kFloat64}}));
  for (size_t j = 0; j < hotspots; ++j) {
    h->column(0).AppendInt64(static_cast<int64_t>(j));
    h->column(1).AppendString("P" +
                              std::to_string(100000 + (j * 37) % products));
    h->column(2).AppendFloat64(static_cast<double>(j % 100) / 100.0);
  }
  ASSERT_TRUE(catalog->CreateTable("products", p).ok());
  ASSERT_TRUE(catalog->CreateTable("hotspots", h).ok());
}

/// Point lookup, range, group-aggregate and join — the SQL classes of the
/// wire benchmark's analysts.
const std::vector<std::string>& ArchiveReads() {
  static const std::vector<std::string> kReads = {
      "SELECT id, satellite, level, acq_time FROM products WHERE id = "
      "'P100042'",
      "SELECT id, acq_time FROM products WHERE acq_time >= 7000 AND "
      "acq_time < 300000",
      "SELECT satellite, level, count(*) AS n, max(acq_time) AS latest FROM "
      "products WHERE acq_time >= 200000 GROUP BY satellite, level",
      "SELECT count(*) AS n FROM hotspots JOIN products ON "
      "hotspots.product_id = products.id WHERE products.satellite = 'MSG2' "
      "AND hotspots.confidence > 0.5",
  };
  return kReads;
}

TEST(ArchiveReadsTest, ReadShapesInternNothing) {
  Catalog catalog;
  AddArchiveTables(&catalog, 10000, 2000);
  SqlEngine engine(&catalog);
  obs::Counter* interned = obs::MetricsRegistry::Global().GetCounter(
      "teleios_storage_dict_interned_total");
  obs::Counter* hits = obs::MetricsRegistry::Global().GetCounter(
      "teleios_storage_dict_hits_total");
  const uint64_t interned_before = interned->value();
  const uint64_t hits_before = hits->value();
  for (const std::string& sql : ArchiveReads()) {
    auto result = engine.Execute(sql);
    ASSERT_TRUE(result.ok()) << sql << " -> " << result.status().ToString();
    EXPECT_GT(result->num_rows(), 0u) << sql;
  }
  // Outputs gather codes and share the source dictionaries.
  EXPECT_EQ(interned->value(), interned_before);
  EXPECT_EQ(hits->value(), hits_before);
}

TEST(ArchiveReadsTest, ConcurrentReadersSeeSerialResults) {
  Catalog catalog;
  AddArchiveTables(&catalog, 10000, 2000);
  SqlEngine engine(&catalog);
  const std::vector<std::string>& reads = ArchiveReads();
  std::vector<std::string> expected;
  for (const std::string& sql : reads) {
    auto result = engine.Execute(sql);
    ASSERT_TRUE(result.ok()) << sql << " -> " << result.status().ToString();
    expected.push_back(result->ToString(100000));
  }
  // Readers share the catalog tables and, through every gathered result,
  // their dictionaries; none may intern into them.
  std::atomic<int> mismatches{0};
  std::vector<std::thread> readers;
  for (size_t t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      for (size_t i = 0; i < 12; ++i) {
        size_t k = (t + i) % reads.size();
        auto result = engine.Execute(reads[k]);
        if (!result.ok() || result->ToString(100000) != expected[k]) {
          ++mismatches;
        }
      }
    });
  }
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(mismatches.load(), 0);
}

/// Parameterized aggregate correctness sweep against a closed form.
class AggregateSweep : public ::testing::TestWithParam<int> {};

TEST_P(AggregateSweep, SumOfFirstN) {
  int n = GetParam();
  Catalog catalog;
  SqlEngine engine(&catalog);
  ASSERT_TRUE(engine.Execute("CREATE TABLE seq (v INT)").ok());
  for (int i = 1; i <= n; ++i) {
    ASSERT_TRUE(engine
                    .Execute("INSERT INTO seq VALUES (" +
                             std::to_string(i) + ")")
                    .ok());
  }
  auto out = engine.Execute("SELECT sum(v) AS s, count(*) AS c FROM seq");
  ASSERT_TRUE(out.ok());
  if (n == 0) {
    EXPECT_TRUE(out->Get(0, 0).is_null());
  } else {
    EXPECT_EQ(out->Get(0, 0), Value(int64_t{n} * (n + 1) / 2));
  }
  EXPECT_EQ(out->Get(0, 1), Value(int64_t{n}));
}

INSTANTIATE_TEST_SUITE_P(Sizes, AggregateSweep,
                         ::testing::Values(0, 1, 2, 10, 100));

// ---------------------------------------------------------------------------
// Writes select with the SELECT kernel: UPDATE and DELETE touch exactly the
// rows a SELECT with the same WHERE returns.

/// 10,000 seeded rows (three filter morsels): a row id `rid`; BIGINTs `i`
/// and `k` from a small domain plus values about +-2^53; a DOUBLE `d` with
/// NaN, -0.0, 0.0 and halves; a VARCHAR `s`; a BOOL `f`; an all-NULL
/// BIGINT `mark`. About one cell in eight of i, k, d, s and f is NULL.
storage::TablePtr WriteTable() {
  auto t = std::make_shared<Table>(storage::Schema(
      {{"rid", storage::ColumnType::kInt64},
       {"i", storage::ColumnType::kInt64},
       {"k", storage::ColumnType::kInt64},
       {"d", storage::ColumnType::kFloat64},
       {"s", storage::ColumnType::kString},
       {"f", storage::ColumnType::kBool},
       {"mark", storage::ColumnType::kInt64}}));
  const int64_t big = int64_t{1} << 53;
  const int64_t ints[] = {0, 1, 2, 3, -4, big, big + 1, -big, -big - 1};
  const double doubles[] = {std::nan(""), -0.0, 0.0, 1.0, 1.5, -2.5, 3.0};
  const char* words[] = {"a", "b", "ab", "ba"};
  uint64_t state = 0x9E3779B97F4A7C15ull;
  auto below = [&](uint64_t n) {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state % n;
  };
  for (int64_t r = 0; r < 10000; ++r) {
    auto maybe = [&](Value v) { return below(8) == 0 ? Value() : v; };
    EXPECT_TRUE(t->AppendRow({Value(r), maybe(Value(ints[below(9)])),
                              maybe(Value(ints[below(9)])),
                              maybe(Value(doubles[below(7)])),
                              maybe(Value(words[below(4)])),
                              maybe(Value(below(2) == 0)), Value()})
                    .ok());
  }
  return t;
}

/// WHEREs the kernels compile whole (the first kCompiledWheres), then ones
/// the interpreter runs.
constexpr size_t kCompiledWheres = 26;
const std::vector<std::string>& WriteWheres() {
  static const std::vector<std::string> kWheres = {
      "i = 9007199254740993", "i >= 9007199254740992", "i = k", "i < k",
      "k - i > 0", "k - i = 1", "d = 0.0", "d <> 1.5", "d < 1", "d = i",
      "d <> d", "s = 'b'", "s <> 'a'", "f", "d > 0 AND i < 100",
      "rid < 5000 AND s = 'ab' AND f", "d = 1.0 OR k < 0", "NOT (d > 0)",
      "d >= 0 OR d < 0", "s IN ('a', 'ba', 'a', 'zz')",
      "s NOT IN ('b', 'zz')", "i IN (0, 9007199254740993, 3)",
      "NOT (f AND d < 1.5) OR s = 'ab'",
      "NOT (s IN ('a', 'b') OR k - i <= 0) AND rid >= 100",
      "i = -9007199254740993", "d < -1",
      // Interpreted.
      "abs(i) > 5", "s LIKE 'a%'", "i % 3 = 1", "coalesce(d, -1.0) < 0",
      "s IS NULL", "i * 2 > k",
      "s IN ('a', NULL)", "NOT (s LIKE 'a%') OR d > 1"};
  return kWheres;
}

/// Row r of `t` rendered cell by cell (NaN-safe).
std::string RowText(const Table& t, size_t r) {
  std::string out;
  for (size_t c = 0; c < t.num_columns(); ++c) {
    out += t.Get(r, c).ToString() + "|";
  }
  return out;
}

TEST(SqlWriteDifferentialTest, WritesTouchExactlyTheRowsSelectReturns) {
  struct ThreadsGuard {
    ~ThreadsGuard() {
      exec::ThreadPool::SetGlobalThreads(exec::ThreadPool::DefaultThreads());
    }
  } guard;
  const storage::TablePtr original = WriteTable();
  const size_t mark = 6, s = 4;
  for (int threads : {1, 2, 8}) {
    exec::ThreadPool::SetGlobalThreads(threads);
    for (size_t w = 0; w < WriteWheres().size(); ++w) {
      const std::string& where = WriteWheres()[w];
      SCOPED_TRACE(where + " at " + std::to_string(threads) + " threads");
      Catalog catalog;
      SqlEngine engine(&catalog);
      // A copy shares the cells until a write unshares them.
      auto table = std::make_shared<Table>(*original);
      ASSERT_TRUE(catalog.CreateTable("t", table).ok());
      auto selected = engine.Execute("SELECT rid FROM t WHERE " + where);
      ASSERT_TRUE(selected.ok()) << selected.status().ToString();
      auto counted =
          engine.Execute("SELECT count(*) AS n FROM t WHERE " + where);
      ASSERT_TRUE(counted.ok());
      ASSERT_EQ(counted->Get(0, 0),
                Value(static_cast<int64_t>(selected->num_rows())));
      // The SELECT kernel against the row-wise interpreter.
      auto parsed = ParseSql("SELECT rid FROM t WHERE " + where);
      ASSERT_TRUE(parsed.ok());
      const ExprPtr& tree = std::get<SelectStatement>(*parsed).where;
      ASSERT_EQ(IsVectorizablePredicate(*original, tree), w < kCompiledWheres);
      auto oracle = FilterIndicesInterpreted(*original, tree);
      ASSERT_TRUE(oracle.ok());
      std::vector<bool> hit(original->num_rows(), false);
      ASSERT_EQ(selected->num_rows(), oracle->size());
      for (size_t i = 0; i < oracle->size(); ++i) {
        ASSERT_EQ(selected->Get(i, 0),
                  Value(static_cast<int64_t>((*oracle)[i])));
        hit[(*oracle)[i]] = true;
      }

      auto updated =
          engine.Execute("UPDATE t SET mark = rid, s = 'hit' WHERE " + where);
      ASSERT_TRUE(updated.ok()) << updated.status().ToString();
      EXPECT_EQ(updated->Get(0, 0), counted->Get(0, 0));
      for (size_t r = 0; r < original->num_rows(); ++r) {
        if (!hit[r]) {
          ASSERT_EQ(RowText(*table, r), RowText(*original, r)) << r;
          continue;
        }
        ASSERT_EQ(table->Get(r, mark), Value(static_cast<int64_t>(r))) << r;
        ASSERT_EQ(table->Get(r, s), Value("hit")) << r;
        // No other column changed.
        ASSERT_EQ(RowText(table->ProjectIndices({0, 1, 2, 3, 5}), r),
                  RowText(original->ProjectIndices({0, 1, 2, 3, 5}), r))
            << r;
      }

      ASSERT_TRUE(catalog.DropTable("t").ok());
      ASSERT_TRUE(
          catalog.CreateTable("t", std::make_shared<Table>(*original)).ok());
      auto deleted = engine.Execute("DELETE FROM t WHERE " + where);
      ASSERT_TRUE(deleted.ok()) << deleted.status().ToString();
      EXPECT_EQ(deleted->Get(0, 0), counted->Get(0, 0));
      auto left = catalog.GetTable("t");
      ASSERT_TRUE(left.ok());
      size_t kept = 0;
      for (size_t r = 0; r < original->num_rows(); ++r) {
        if (hit[r]) continue;
        ASSERT_LT(kept, (*left)->num_rows());
        ASSERT_EQ(RowText(**left, kept), RowText(*original, r)) << r;
        ++kept;
      }
      EXPECT_EQ(kept, (*left)->num_rows());
    }
  }
}

}  // namespace
}  // namespace teleios::relational
