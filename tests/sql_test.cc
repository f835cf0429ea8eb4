#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
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

  Catalog catalog_;
  std::unique_ptr<SqlEngine> engine_;
};

TEST_F(SqlEngineTest, SelectStar) {
  Table t = Exec("SELECT * FROM obs");
  EXPECT_EQ(t.num_rows(), 4u);
  EXPECT_EQ(t.num_columns(), 3u);
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
  auto plan = engine_->Explain(
      "SELECT region, temp FROM obs JOIN stations ON obs.station = "
      "stations.station WHERE temp > 32");
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->find("pushdown"), std::string::npos)
      << "expected pushdown in plan:\n"
      << *plan;
  EXPECT_NE(plan->find("hash join"), std::string::npos);
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
  auto plan = engine_->Explain("SELECT id FROM obs WHERE temp > 32");
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->find("[vectorized]"), std::string::npos) << *plan;
  auto interpreted =
      engine_->Explain("SELECT id FROM obs WHERE station LIKE 'a%'");
  ASSERT_TRUE(interpreted.ok());
  EXPECT_NE(interpreted->find("[interpreted]"), std::string::npos)
      << *interpreted;
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

}  // namespace
}  // namespace teleios::relational
