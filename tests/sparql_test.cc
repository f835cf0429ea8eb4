#include <gtest/gtest.h>

#include <filesystem>

#include "strabon/sparql_parser.h"
#include "strabon/strabon.h"

namespace teleios::strabon {
namespace {

using rdf::Term;

const char* kData = R"(
@prefix ex: <http://example.org/> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
ex:f1 a ex:Hotspot ; ex:conf 0.9 ; ex:in ex:laconia .
ex:f2 a ex:Hotspot ; ex:conf 0.4 ; ex:in ex:arcadia .
ex:f3 a ex:Hotspot ; ex:conf 0.7 .
ex:t1 a ex:Town ; ex:name "Sparta" ; ex:in ex:laconia .
ex:t2 a ex:Town ; ex:name "Tripoli" ; ex:in ex:arcadia .
ex:laconia ex:name "Laconia" .
)";

class SparqlTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto loaded = strabon_.LoadTurtle(kData);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  }

  storage::Table Run(const std::string& q) {
    auto r = strabon_.Select("PREFIX ex: <http://example.org/> " + q);
    EXPECT_TRUE(r.ok()) << q << " -> " << r.status().ToString();
    return r.ok() ? *r : storage::Table{};
  }

  Strabon strabon_;
};

TEST_F(SparqlTest, ParserRecognizesForms) {
  EXPECT_TRUE(std::holds_alternative<SparqlQuery>(
      *ParseSparql("SELECT * WHERE { ?s ?p ?o }")));
  EXPECT_TRUE(std::holds_alternative<SparqlQuery>(
      *ParseSparql("ASK { ?s ?p ?o }")));
  EXPECT_TRUE(std::holds_alternative<SparqlUpdate>(*ParseSparql(
      "INSERT DATA { <http://x/a> <http://x/b> <http://x/c> }")));
  EXPECT_FALSE(ParseSparql("SELECT WHERE").ok());
  EXPECT_FALSE(ParseSparql("SELECT ?x WHERE { ?x }").ok());
}

TEST_F(SparqlTest, BasicGraphPattern) {
  storage::Table s = Run("SELECT ?f WHERE { ?f a ex:Hotspot }");
  EXPECT_EQ(s.num_rows(), 3u);
}

TEST_F(SparqlTest, MultiPatternJoin) {
  storage::Table s = Run(
      "SELECT ?f ?t WHERE { ?f a ex:Hotspot ; ex:in ?r . "
      "?t a ex:Town ; ex:in ?r . }");
  EXPECT_EQ(s.num_rows(), 2u);  // (f1,t1) and (f2,t2)
}

TEST_F(SparqlTest, FilterNumericComparison) {
  storage::Table s = Run(
      "SELECT ?f WHERE { ?f a ex:Hotspot ; ex:conf ?c . FILTER(?c > 0.5) }");
  EXPECT_EQ(s.num_rows(), 2u);
}

TEST_F(SparqlTest, FilterBooleanConnectives) {
  storage::Table s = Run(
      "SELECT ?f WHERE { ?f a ex:Hotspot ; ex:conf ?c . "
      "FILTER(?c > 0.8 || ?c < 0.5) }");
  EXPECT_EQ(s.num_rows(), 2u);
  s = Run(
      "SELECT ?f WHERE { ?f a ex:Hotspot ; ex:conf ?c . "
      "FILTER(!(?c > 0.5)) }");
  EXPECT_EQ(s.num_rows(), 1u);
}

TEST_F(SparqlTest, OptionalKeepsUnmatched) {
  storage::Table s = Run(
      "SELECT ?f ?r WHERE { ?f a ex:Hotspot . OPTIONAL { ?f ex:in ?r } }");
  EXPECT_EQ(s.num_rows(), 3u);
  int r_idx = s.schema().FieldIndex("r");
  ASSERT_GE(r_idx, 0);
  int unbound = 0;
  for (size_t row = 0; row < s.num_rows(); ++row) {
    if (s.column(static_cast<size_t>(r_idx)).GetInt64(row) == rdf::kNoTerm) {
      ++unbound;
    }
  }
  EXPECT_EQ(unbound, 1);  // f3 has no region
}

TEST_F(SparqlTest, BoundFilterOverOptional) {
  storage::Table s = Run(
      "SELECT ?f WHERE { ?f a ex:Hotspot . OPTIONAL { ?f ex:in ?r } "
      "FILTER(!bound(?r)) }");
  ASSERT_EQ(s.num_rows(), 1u);
}

TEST_F(SparqlTest, Union) {
  storage::Table s = Run(
      "SELECT ?x WHERE { { ?x a ex:Hotspot } UNION { ?x a ex:Town } }");
  EXPECT_EQ(s.num_rows(), 5u);
}

TEST_F(SparqlTest, BindComputesValues) {
  storage::Table s = Run(
      "SELECT ?f ?double WHERE { ?f ex:conf ?c . "
      "BIND(?c * 2 AS ?double) } ORDER BY ?double");
  ASSERT_EQ(s.num_rows(), 3u);
  int idx = s.schema().FieldIndex("double");
  const Term& smallest = strabon_.store().dict().At(
      s.column(static_cast<size_t>(idx)).GetInt64(0));
  EXPECT_DOUBLE_EQ(std::stod(smallest.lexical), 0.8);
}

TEST_F(SparqlTest, OrderLimitOffsetDistinct) {
  storage::Table s = Run(
      "SELECT DISTINCT ?r WHERE { ?x ex:in ?r } ORDER BY ?r LIMIT 1");
  ASSERT_EQ(s.num_rows(), 1u);
  storage::Table s2 = Run(
      "SELECT DISTINCT ?r WHERE { ?x ex:in ?r } ORDER BY ?r LIMIT 1 "
      "OFFSET 1");
  ASSERT_EQ(s2.num_rows(), 1u);
  EXPECT_NE(s.column(0).GetInt64(0), s2.column(0).GetInt64(0));
}

TEST_F(SparqlTest, OrderByDescExpression) {
  storage::Table s = Run(
      "SELECT ?f ?c WHERE { ?f ex:conf ?c } ORDER BY DESC(?c)");
  ASSERT_EQ(s.num_rows(), 3u);
  const Term& top = strabon_.store().dict().At(s.column(1).GetInt64(0));
  EXPECT_DOUBLE_EQ(std::stod(top.lexical), 0.9);
}

TEST_F(SparqlTest, StringBuiltins) {
  storage::Table s = Run(
      "SELECT ?t WHERE { ?t ex:name ?n . FILTER(strstarts(?n, \"Spar\")) }");
  EXPECT_EQ(s.num_rows(), 1u);
  s = Run("SELECT ?t WHERE { ?t ex:name ?n . FILTER(regex(?n, \"^tri\", "
          "\"i\")) }");
  EXPECT_EQ(s.num_rows(), 1u);
  s = Run("SELECT ?t WHERE { ?t ex:name ?n . FILTER(strlen(?n) = 6) }");
  EXPECT_EQ(s.num_rows(), 1u);  // Sparta
}

TEST_F(SparqlTest, AskQueries) {
  auto yes = strabon_.Ask(
      "PREFIX ex: <http://example.org/> ASK { ex:f1 a ex:Hotspot }");
  ASSERT_TRUE(yes.ok());
  EXPECT_TRUE(*yes);
  auto no = strabon_.Ask(
      "PREFIX ex: <http://example.org/> ASK { ex:t1 a ex:Hotspot }");
  ASSERT_TRUE(no.ok());
  EXPECT_FALSE(*no);
}

TEST_F(SparqlTest, AskThroughQueryIsARowCount) {
  // A ground ASK binds no variable: true is one row of no columns.
  auto yes = strabon_.Query(
      "PREFIX ex: <http://example.org/> ASK { ex:f1 a ex:Hotspot }");
  ASSERT_TRUE(yes.ok());
  EXPECT_EQ(yes->num_columns(), 0u);
  EXPECT_EQ(yes->num_rows(), 1u);
  auto no = strabon_.Query(
      "PREFIX ex: <http://example.org/> ASK { ex:t1 a ex:Hotspot }");
  ASSERT_TRUE(no.ok());
  EXPECT_EQ(no->num_rows(), 0u);
}

TEST_F(SparqlTest, QueryReturnsTable) {
  auto table = strabon_.Query(
      "PREFIX ex: <http://example.org/> SELECT ?n WHERE { ?t ex:name ?n } "
      "ORDER BY ?n");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->num_rows(), 3u);
  EXPECT_EQ(table->Get(0, 0), Value("Laconia"));
}

TEST_F(SparqlTest, InsertDataUpdate) {
  size_t before = strabon_.store().Match(rdf::TriplePattern{}).size();
  auto n = strabon_.Update(
      "PREFIX ex: <http://example.org/> "
      "INSERT DATA { ex:f4 a ex:Hotspot ; ex:conf 0.2 . }");
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  EXPECT_EQ(*n, 2u);
  EXPECT_EQ(strabon_.store().Match(rdf::TriplePattern{}).size(), before + 2);
}

TEST_F(SparqlTest, DeleteDataUpdate) {
  auto n = strabon_.Update(
      "PREFIX ex: <http://example.org/> "
      "DELETE DATA { ex:f3 a ex:Hotspot . }");
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 1u);
  storage::Table s = Run("SELECT ?f WHERE { ?f a ex:Hotspot }");
  EXPECT_EQ(s.num_rows(), 2u);
}

TEST_F(SparqlTest, DeleteInsertWhere) {
  // Reclassify low-confidence hotspots.
  auto n = strabon_.Update(
      "PREFIX ex: <http://example.org/> "
      "DELETE { ?f a ex:Hotspot } INSERT { ?f a ex:Candidate } "
      "WHERE { ?f a ex:Hotspot ; ex:conf ?c . FILTER(?c < 0.5) }");
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  EXPECT_EQ(*n, 2u);  // one delete + one insert
  EXPECT_EQ(Run("SELECT ?f WHERE { ?f a ex:Hotspot }").num_rows(), 2u);
  EXPECT_EQ(Run("SELECT ?f WHERE { ?f a ex:Candidate }").num_rows(), 1u);
}

TEST_F(SparqlTest, DeleteWhereShorthand) {
  auto n = strabon_.Update(
      "PREFIX ex: <http://example.org/> "
      "DELETE WHERE { ?f ex:conf ?c }");
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 3u);
  EXPECT_EQ(Run("SELECT ?f WHERE { ?f ex:conf ?c }").num_rows(), 0u);
}

TEST_F(SparqlTest, RepeatedVariableInPattern) {
  ASSERT_TRUE(strabon_
                  .Update("PREFIX ex: <http://example.org/> INSERT DATA { "
                          "ex:self ex:links ex:self }")
                  .ok());
  storage::Table s = Run("SELECT ?x WHERE { ?x ex:links ?x }");
  ASSERT_EQ(s.num_rows(), 1u);
}

TEST_F(SparqlTest, EmptyResultNotError) {
  storage::Table s = Run("SELECT ?x WHERE { ?x a ex:Volcano }");
  EXPECT_TRUE(s.num_rows() == 0);
}

TEST_F(SparqlTest, CountStarGlobal) {
  storage::Table s = Run(
      "SELECT (count(*) AS ?n) WHERE { ?f a ex:Hotspot }");
  ASSERT_EQ(s.num_rows(), 1u);
  ASSERT_EQ(s.num_columns(), 1u);
  EXPECT_EQ(s.schema().field(0).name, "n");
  EXPECT_EQ(strabon_.store().dict().At(s.column(0).GetInt64(0)).lexical, "3");
}

TEST_F(SparqlTest, CountStarEmptyMatchIsZero) {
  storage::Table s = Run("SELECT (count(*) AS ?n) WHERE { ?f a ex:Volcano }");
  ASSERT_EQ(s.num_rows(), 1u);
  EXPECT_EQ(strabon_.store().dict().At(s.column(0).GetInt64(0)).lexical, "0");
}

TEST_F(SparqlTest, GroupByWithAggregates) {
  storage::Table s = Run(
      "SELECT ?r (count(*) AS ?n) (max(?c) AS ?top) WHERE { "
      "?f a ex:Hotspot ; ex:in ?r ; ex:conf ?c } GROUP BY ?r "
      "ORDER BY ?r");
  ASSERT_EQ(s.num_rows(), 2u);
  ASSERT_EQ(s.num_columns(), 3u);
  const auto& dict = strabon_.store().dict();
  // arcadia first alphabetically... IRIs compare lexically.
  EXPECT_NE(dict.At(s.column(0).GetInt64(0)).lexical.find("arcadia"),
            std::string::npos);
  EXPECT_EQ(dict.At(s.column(1).GetInt64(0)).lexical, "1");
  EXPECT_DOUBLE_EQ(std::stod(dict.At(s.column(2).GetInt64(0)).lexical), 0.4);
  EXPECT_EQ(dict.At(s.column(1).GetInt64(1)).lexical, "1");
  EXPECT_DOUBLE_EQ(std::stod(dict.At(s.column(2).GetInt64(1)).lexical), 0.9);
}

TEST_F(SparqlTest, SumAvgAggregates) {
  storage::Table s = Run(
      "SELECT (sum(?c) AS ?total) (avg(?c) AS ?mean) WHERE { "
      "?f ex:conf ?c }");
  ASSERT_EQ(s.num_rows(), 1u);
  const auto& dict = strabon_.store().dict();
  EXPECT_NEAR(std::stod(dict.At(s.column(0).GetInt64(0)).lexical), 2.0, 1e-9);
  EXPECT_NEAR(std::stod(dict.At(s.column(1).GetInt64(0)).lexical), 2.0 / 3, 1e-9);
}

TEST_F(SparqlTest, NonGroupedVariableRejected) {
  auto r = strabon_.Select(
      "PREFIX ex: <http://example.org/> "
      "SELECT ?f (count(*) AS ?n) WHERE { ?f a ex:Hotspot }");
  EXPECT_FALSE(r.ok());
}

TEST_F(SparqlTest, ComputedProjectionWithoutAggregate) {
  storage::Table s = Run(
      "SELECT ?f (?c * 10 AS ?scaled) WHERE { ?f ex:conf ?c } "
      "ORDER BY DESC(?scaled) LIMIT 1");
  ASSERT_EQ(s.num_rows(), 1u);
  EXPECT_NEAR(
      std::stod(strabon_.store().dict().At(s.column(1).GetInt64(0)).lexical), 9.0,
      1e-9);
}

TEST_F(SparqlTest, TurtleExportReloads) {
  std::string turtle = strabon_.ToTurtle();
  Strabon reloaded;
  auto n = reloaded.LoadTurtle(turtle);
  ASSERT_TRUE(n.ok()) << n.status().ToString() << "\n" << turtle;
  EXPECT_EQ(reloaded.store().Match(rdf::TriplePattern{}).size(),
            strabon_.store().Match(rdf::TriplePattern{}).size());
}

TEST_F(SparqlTest, TurtleFileSaveAndLoad) {
  std::string path =
      (std::filesystem::temp_directory_path() /
       ("strabon_export_" + std::to_string(::getpid()) + ".ttl"))
          .string();
  ASSERT_TRUE(strabon_.SaveTurtleFile(path).ok());
  Strabon reloaded;
  auto n = reloaded.LoadTurtleFile(path);
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  EXPECT_EQ(reloaded.store().Match(rdf::TriplePattern{}).size(),
            strabon_.store().Match(rdf::TriplePattern{}).size());
  std::filesystem::remove(path);
  EXPECT_FALSE(reloaded.LoadTurtleFile(path).ok());  // gone
}

}  // namespace
}  // namespace teleios::strabon
