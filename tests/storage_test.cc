#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <thread>
#include <vector>

#include "io/codec.h"
#include "io/filesystem.h"
#include "storage/catalog.h"
#include "storage/column.h"
#include "storage/dictionary.h"
#include "storage/persistence.h"
#include "storage/table.h"

namespace teleios::storage {
namespace {

TEST(DictionaryTest, InternIsIdempotent) {
  Dictionary dict;
  int32_t a = dict.Intern("forest");
  int32_t b = dict.Intern("sea");
  EXPECT_EQ(dict.Intern("forest"), a);
  EXPECT_NE(a, b);
  EXPECT_EQ(dict.size(), 2);
  EXPECT_EQ(dict.At(a), "forest");
}

TEST(DictionaryTest, LookupMissing) {
  Dictionary dict;
  dict.Intern("x");
  EXPECT_EQ(dict.Lookup("y"), Dictionary::kInvalidCode);
  EXPECT_EQ(dict.Lookup("x"), 0);
}

TEST(DictionaryTest, ManyStringsStayStable) {
  Dictionary dict;
  std::vector<int32_t> codes;
  for (int i = 0; i < 5000; ++i) {
    codes.push_back(dict.Intern("value_" + std::to_string(i)));
  }
  for (int i = 0; i < 5000; ++i) {
    EXPECT_EQ(dict.At(codes[i]), "value_" + std::to_string(i));
    EXPECT_EQ(dict.Lookup("value_" + std::to_string(i)), codes[i]);
  }
  EXPECT_GT(dict.MemoryUsage(), 0u);
}

TEST(ColumnTest, AppendAndGetTyped) {
  Column col(ColumnType::kInt64);
  col.AppendInt64(10);
  col.AppendNull();
  col.AppendInt64(-3);
  ASSERT_EQ(col.size(), 3u);
  EXPECT_EQ(col.GetInt64(0), 10);
  EXPECT_TRUE(col.IsNull(1));
  EXPECT_EQ(col.Get(2), Value(int64_t{-3}));
  EXPECT_TRUE(col.Get(1).is_null());
}

TEST(ColumnTest, AppendValueCoercesNumerics) {
  Column col(ColumnType::kFloat64);
  ASSERT_TRUE(col.Append(Value(int64_t{3})).ok());
  EXPECT_DOUBLE_EQ(col.GetFloat64(0), 3.0);
  EXPECT_FALSE(col.Append(Value("no")).ok());
}

TEST(ColumnTest, StringsAreDictionaryEncoded) {
  Column col(ColumnType::kString);
  col.AppendString("fire");
  col.AppendString("water");
  col.AppendString("fire");
  EXPECT_EQ(col.GetStringCode(0), col.GetStringCode(2));
  EXPECT_NE(col.GetStringCode(0), col.GetStringCode(1));
  EXPECT_EQ(col.dict().size(), 2);
  EXPECT_EQ(col.GetString(2), "fire");
}

TEST(ColumnTest, SetOverwrites) {
  Column col(ColumnType::kInt64);
  col.AppendInt64(1);
  ASSERT_TRUE(col.Set(0, Value(int64_t{9})).ok());
  EXPECT_EQ(col.GetInt64(0), 9);
  ASSERT_TRUE(col.Set(0, Value()).ok());
  EXPECT_TRUE(col.IsNull(0));
  EXPECT_FALSE(col.Set(5, Value(int64_t{1})).ok());
}

TEST(ColumnTest, TakeSelectsRows) {
  Column col(ColumnType::kString);
  col.AppendString("a");
  col.AppendNull();
  col.AppendString("c");
  Column taken = col.Take({2, 0});
  ASSERT_EQ(taken.size(), 2u);
  EXPECT_EQ(taken.GetString(0), "c");
  EXPECT_EQ(taken.GetString(1), "a");
}

// ---------------------------------------------------------------------------
// Copy-on-write payloads

/// Renders every cell, NULLs included, so two columns compare cell by cell.
std::string Cells(const Column& col) {
  std::string out;
  for (size_t r = 0; r < col.size(); ++r) out += col.Get(r).ToString() + ";";
  return out;
}

TEST(ColumnCowTest, EveryMutatorLeavesTheOtherCopyAlone) {
  struct Mutator {
    ColumnType type;
    std::function<void(Column*)> apply;
  };
  const std::vector<std::pair<std::string, Mutator>> mutators = {
      {"Append", {ColumnType::kFloat64,
                  [](Column* c) { ASSERT_TRUE(c->Append(Value(9.0)).ok()); }}},
      {"AppendN", {ColumnType::kFloat64,
                   [](Column* c) {
                     ASSERT_TRUE(c->AppendN(Value(9.0), 3).ok());
                   }}},
      {"AppendBool", {ColumnType::kBool,
                      [](Column* c) { c->AppendBool(true); }}},
      {"AppendInt64", {ColumnType::kInt64,
                       [](Column* c) { c->AppendInt64(9); }}},
      {"AppendFloat64", {ColumnType::kFloat64,
                         [](Column* c) { c->AppendFloat64(9.0); }}},
      {"AppendString", {ColumnType::kString,
                        [](Column* c) { c->AppendString("z"); }}},
      {"AppendNull", {ColumnType::kInt64, [](Column* c) { c->AppendNull(); }}},
      {"Set", {ColumnType::kString,
               [](Column* c) { ASSERT_TRUE(c->Set(0, Value("z")).ok()); }}},
      {"SetNull", {ColumnType::kInt64,
                   [](Column* c) { ASSERT_TRUE(c->Set(1, Value()).ok()); }}},
      {"Reserve", {ColumnType::kFloat64, [](Column* c) { c->Reserve(4096); }}},
      {"mutable_doubles", {ColumnType::kFloat64,
                           [](Column* c) { c->mutable_doubles()[0] = 9.0; }}},
  };
  for (const auto& [name, m] : mutators) {
    SCOPED_TRACE(name);
    Column original(m.type);
    for (int i = 0; i < 3; ++i) {
      Value v;
      switch (m.type) {
        case ColumnType::kBool:
          v = Value(i % 2 == 0);
          break;
        case ColumnType::kInt64:
          v = Value(int64_t{i});
          break;
        case ColumnType::kFloat64:
          v = Value(static_cast<double>(i));
          break;
        case ColumnType::kString:
          v = Value(std::string(1, static_cast<char>('a' + i)));
          break;
      }
      ASSERT_TRUE(original.Append(v).ok());
    }
    const std::string before = Cells(original);
    const void* payload = original.type() == ColumnType::kFloat64
                              ? static_cast<const void*>(
                                    original.doubles().data())
                              : nullptr;
    Column copy = original;
    m.apply(&copy);
    EXPECT_EQ(Cells(original), before);
    if (payload != nullptr) {
      EXPECT_EQ(original.doubles().data(), payload);
      EXPECT_NE(copy.doubles().data(), payload);
    }
    // And the other way round: the copy is unaffected by the original.
    Column second = original;
    const std::string second_before = Cells(second);
    m.apply(&original);
    EXPECT_EQ(Cells(second), second_before);
  }
}

TEST(ColumnCowTest, AppendNFillsLikeRepeatedAppends) {
  for (const Value& v : {Value(2.5), Value(int64_t{7}), Value(), Value("s"),
                         Value(true)}) {
    for (ColumnType type : {ColumnType::kBool, ColumnType::kInt64,
                            ColumnType::kFloat64, ColumnType::kString}) {
      Column bulk(type);
      Column one_by_one(type);
      Status bulk_status = bulk.AppendN(v, 5);
      Status last = Status::OK();
      for (int i = 0; i < 5; ++i) last = one_by_one.Append(v);
      EXPECT_EQ(bulk_status.code(), last.code()) << v.ToString();
      EXPECT_EQ(Cells(bulk), Cells(one_by_one)) << v.ToString();
    }
  }
}

TEST(ColumnCowTest, TableCopySharesBuffers) {
  Table t{Schema({{"v", ColumnType::kFloat64}, {"s", ColumnType::kString}})};
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(t.AppendRow({Value(i * 0.5), Value("x")}).ok());
  }
  Table copy = t;
  EXPECT_EQ(copy.column(0).doubles().data(), t.column(0).doubles().data());
  EXPECT_EQ(copy.column(1).codes().data(), t.column(1).codes().data());
  // A write to the copy unshares only the column it writes.
  ASSERT_TRUE(copy.AppendRow({Value(1.0), Value("y")}).ok());
  EXPECT_NE(copy.column(0).doubles().data(), t.column(0).doubles().data());
  EXPECT_EQ(t.num_rows(), 100u);
  EXPECT_EQ(copy.num_rows(), 101u);
}

TEST(ColumnCowTest, TakeOutputIsUnshared) {
  Column col(ColumnType::kInt64);
  for (int i = 0; i < 10; ++i) col.AppendInt64(i);
  Column all = col.Take({0, 1, 2, 3, 4, 5, 6, 7, 8, 9});
  EXPECT_NE(all.ints().data(), col.ints().data());
  // The gather owns its payload: writing to it copies nothing.
  const int64_t* gathered = all.ints().data();
  ASSERT_TRUE(all.Set(0, Value(int64_t{99})).ok());
  EXPECT_EQ(all.ints().data(), gathered);
  EXPECT_EQ(col.GetInt64(0), 0);
}

TEST(ColumnCowTest, MutableDoublesUnsharesFromATable) {
  Column col = Column::FromDoubles({1.0, 2.0, 3.0});
  Table t{Schema({{"v", ColumnType::kFloat64}})};
  t.column(0) = col;
  ASSERT_EQ(t.column(0).doubles().data(), col.doubles().data());
  col.mutable_doubles()[1] = 20.0;
  EXPECT_DOUBLE_EQ(t.column(0).GetFloat64(1), 2.0);
  EXPECT_DOUBLE_EQ(col.GetFloat64(1), 20.0);
  EXPECT_NE(t.column(0).doubles().data(), col.doubles().data());
}

TEST(ColumnCowTest, FromDoublesAdoptsTheVector) {
  std::vector<double> values = {1.5, 2.5};
  const double* data = values.data();
  Column col = Column::FromDoubles(std::move(values));
  EXPECT_EQ(col.doubles().data(), data);
  ASSERT_EQ(col.size(), 2u);
  EXPECT_FALSE(col.IsNull(1));
  Column ints = Column::FromInts({4, 5, 6});
  EXPECT_EQ(Cells(ints), "4;5;6;");
}

TEST(ColumnCowTest, ReadersOfASharedColumnNeverSeeAWritersCopy) {
  // Readers copy and scan one shared column while a writer appends to its
  // own copy; under TSan this proves the unshare never touches the cells
  // the readers scan.
  Column shared(ColumnType::kFloat64);
  double expected = 0;
  for (int i = 0; i < 4096; ++i) {
    shared.AppendFloat64(i);
    expected += i;
  }
  std::vector<std::thread> threads;
  std::vector<int> mismatches(4, 0);
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 50; ++round) {
        Column mine = shared;
        double sum = 0;
        for (double v : mine.doubles()) sum += v;
        if (sum != expected || mine.size() != 4096) ++mismatches[t];
      }
    });
  }
  Column writer = shared;
  threads.emplace_back([&] {
    for (int i = 0; i < 20000; ++i) writer.AppendFloat64(-1.0);
    ASSERT_TRUE(writer.Set(0, Value(-5.0)).ok());
  });
  for (std::thread& t : threads) t.join();
  for (int m : mismatches) EXPECT_EQ(m, 0);
  EXPECT_EQ(writer.size(), 4096u + 20000u);
  EXPECT_EQ(shared.size(), 4096u);
  EXPECT_DOUBLE_EQ(shared.GetFloat64(0), 0.0);
}

Table MakePeople() {
  Table t{Schema({{"name", ColumnType::kString},
                  {"age", ColumnType::kInt64}})};
  EXPECT_TRUE(t.AppendRow({Value("ada"), Value(int64_t{36})}).ok());
  EXPECT_TRUE(t.AppendRow({Value("bob"), Value(int64_t{25})}).ok());
  EXPECT_TRUE(t.AppendRow({Value("cy"), Value()}).ok());
  return t;
}

TEST(TableTest, SchemaAndRows) {
  Table t = MakePeople();
  EXPECT_EQ(t.num_rows(), 3u);
  EXPECT_EQ(t.num_columns(), 2u);
  EXPECT_EQ(t.schema().FieldIndex("age"), 1);
  EXPECT_EQ(t.schema().FieldIndex("nope"), -1);
  EXPECT_EQ(t.Get(0, 0), Value("ada"));
  EXPECT_TRUE(t.Get(2, 1).is_null());
}

TEST(TableTest, ArityMismatchRejected) {
  Table t = MakePeople();
  EXPECT_FALSE(t.AppendRow({Value("x")}).ok());
}

TEST(TableTest, ColumnByName) {
  Table t = MakePeople();
  ASSERT_TRUE(t.ColumnByName("name").ok());
  EXPECT_FALSE(t.ColumnByName("zzz").ok());
}

TEST(TableTest, Project) {
  Table t = MakePeople();
  auto projected = t.Project({"age"});
  ASSERT_TRUE(projected.ok());
  EXPECT_EQ(projected->num_columns(), 1u);
  EXPECT_EQ(projected->Get(1, 0), Value(int64_t{25}));
  EXPECT_FALSE(t.Project({"missing"}).ok());
}

TEST(TableTest, TakeAndAppendTable) {
  Table t = MakePeople();
  Table taken = t.Take({1});
  ASSERT_EQ(taken.num_rows(), 1u);
  ASSERT_TRUE(taken.AppendTable(t).ok());
  EXPECT_EQ(taken.num_rows(), 4u);
  EXPECT_EQ(taken.Get(0, 0), Value("bob"));
}

TEST(TableTest, ToStringTruncates) {
  Table t = MakePeople();
  std::string s = t.ToString(2);
  EXPECT_NE(s.find("ada"), std::string::npos);
  EXPECT_NE(s.find("3 rows total"), std::string::npos);
}

TEST(CatalogTest, CreateGetDrop) {
  Catalog catalog;
  auto t = std::make_shared<Table>(MakePeople());
  ASSERT_TRUE(catalog.CreateTable("people", t).ok());
  EXPECT_TRUE(catalog.HasTable("people"));
  EXPECT_FALSE(catalog.CreateTable("people", t).ok());  // duplicate
  ASSERT_TRUE(catalog.GetTable("people").ok());
  EXPECT_FALSE(catalog.GetTable("nope").ok());
  EXPECT_EQ(catalog.TableNames().size(), 1u);
  ASSERT_TRUE(catalog.DropTable("people").ok());
  EXPECT_FALSE(catalog.DropTable("people").ok());
}

class PersistenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = std::filesystem::temp_directory_path() /
            ("persistence_test_" + std::to_string(::getpid()) + ".csv");
  }
  void TearDown() override { std::filesystem::remove(path_); }
  std::filesystem::path path_;
};

TEST_F(PersistenceTest, RoundTripAllTypes) {
  Table t{Schema({{"b", ColumnType::kBool},
                  {"i", ColumnType::kInt64},
                  {"f", ColumnType::kFloat64},
                  {"s", ColumnType::kString}})};
  ASSERT_TRUE(t.AppendRow({Value(true), Value(int64_t{-7}), Value(1.25),
                           Value("hello, | world")})
                  .ok());
  ASSERT_TRUE(t.AppendRow({Value(), Value(), Value(), Value()}).ok());
  auto loaded = DecodeTelt(EncodeTelt(t));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->num_rows(), 2u);
  EXPECT_EQ(loaded->Get(0, 0), Value(true));
  EXPECT_EQ(loaded->Get(0, 1), Value(int64_t{-7}));
  EXPECT_EQ(loaded->Get(0, 3), Value("hello, | world"));
  for (size_t c = 0; c < 4; ++c) {
    EXPECT_TRUE(loaded->Get(1, c).is_null());
  }
}

TEST_F(PersistenceTest, RejectsGarbage) {
  EXPECT_FALSE(DecodeTelt("not a telt image").ok());
}

TEST_F(PersistenceTest, CsvRoundTripInfersTypes) {
  {
    std::ofstream os(path_);
    os << "name,count,score\n"
          "\"alpha, \"\"quoted\"\"\",3,1.5\n"
          ",-2,\n";
  }
  auto loaded = ReadCsv(path_.string());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->num_rows(), 2u);
  EXPECT_EQ(loaded->schema().field(0).type, ColumnType::kString);
  EXPECT_EQ(loaded->schema().field(1).type, ColumnType::kInt64);
  EXPECT_EQ(loaded->schema().field(2).type, ColumnType::kFloat64);
  EXPECT_EQ(loaded->Get(0, 0), Value("alpha, \"quoted\""));
  EXPECT_EQ(loaded->Get(1, 1), Value(int64_t{-2}));
  EXPECT_TRUE(loaded->Get(1, 0).is_null());
  EXPECT_TRUE(loaded->Get(1, 2).is_null());
}

TEST_F(PersistenceTest, CsvErrors) {
  {
    std::ofstream os(path_);
    os << "a,b\n1,2,3\n";  // arity mismatch
  }
  EXPECT_FALSE(ReadCsv(path_.string()).ok());
  {
    std::ofstream os(path_);
    os << "a,b\n\"dangling,2\n";
  }
  EXPECT_FALSE(ReadCsv(path_.string()).ok());
  EXPECT_FALSE(ReadCsv((path_.string() + ".missing")).ok());
}

namespace {

/// Hand-crafts a TELT v2 image: magic + version + header block + column
/// blocks (each a checksummed io block), for bounds-validation tests.
std::string CraftTelt(uint32_t ncols, uint64_t nrows, uint32_t col_type,
                      const std::vector<std::string>& column_payloads) {
  std::string image = "TELT";
  io::PutU32(&image, 2);
  std::string header;
  io::PutU32(&header, ncols);
  io::PutU64(&header, nrows);
  for (uint32_t c = 0; c < ncols; ++c) {
    io::PutStr(&header, "c" + std::to_string(c));
    io::PutU32(&header, col_type);
  }
  io::AppendBlockTo(&image, header);
  for (const std::string& payload : column_payloads) {
    io::AppendBlockTo(&image, payload);
  }
  return image;
}

}  // namespace

TEST_F(PersistenceTest, RejectsOutOfRangeDictionaryCode) {
  std::string col;
  col.push_back('\1');        // row 0 valid
  io::PutU32(&col, 1);        // dict size 1
  io::PutStr(&col, "only");   // dict entry 0
  io::PutI32(&col, 7);        // code 7: out of range
  auto r = DecodeTelt(
      CraftTelt(1, 1, static_cast<uint32_t>(ColumnType::kString), {col}));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
  EXPECT_NE(r.status().message().find("out of range"), std::string::npos);
}

TEST_F(PersistenceTest, RejectsImplausibleDictionarySize) {
  std::string col;
  col.push_back('\1');
  io::PutU32(&col, 0x7fffffff);  // claims 2G dictionary entries
  auto r = DecodeTelt(
      CraftTelt(1, 1, static_cast<uint32_t>(ColumnType::kString), {col}));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
}

TEST_F(PersistenceTest, RejectsImplausibleCounts) {
  // Row count beyond the block cap.
  auto r = DecodeTelt(CraftTelt(
      1, (1ull << 30) + 1, static_cast<uint32_t>(ColumnType::kInt64), {}));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
  // Column count beyond the cap.
  std::string image = "TELT";
  io::PutU32(&image, 2);
  std::string header;
  io::PutU32(&header, (1u << 16) + 1);
  io::PutU64(&header, 0);
  io::AppendBlockTo(&image, header);
  auto r2 = DecodeTelt(image);
  ASSERT_FALSE(r2.ok());
  EXPECT_EQ(r2.status().code(), StatusCode::kParseError);
  // Invalid column type tag.
  auto r3 = DecodeTelt(CraftTelt(1, 0, 99, {std::string()}));
  ASSERT_FALSE(r3.ok());
  EXPECT_EQ(r3.status().code(), StatusCode::kParseError);
}

TEST_F(PersistenceTest, CorruptByteIsDataLoss) {
  Table t{Schema({{"i", ColumnType::kInt64}})};
  ASSERT_TRUE(t.AppendRow({Value(int64_t{42})}).ok());
  std::string corrupt = EncodeTelt(t);
  corrupt[corrupt.size() - 3] ^= 0x40;  // a payload byte of the column
  auto r = DecodeTelt(corrupt);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDataLoss);
}

TEST(MemoryUsageTest, GrowsWithData) {
  Table t{Schema({{"x", ColumnType::kInt64}})};
  size_t empty = t.MemoryUsage();
  for (int i = 0; i < 10000; ++i) {
    ASSERT_TRUE(t.AppendRow({Value(int64_t{i})}).ok());
  }
  EXPECT_GT(t.MemoryUsage(), empty + 10000 * sizeof(int64_t) / 2);
}

}  // namespace
}  // namespace teleios::storage
