#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <set>
#include <sstream>
#include <tuple>

#include "common/strings.h"
#include "geo/crs.h"
#include "obs/metrics.h"
#include "strabon/spatial_functions.h"
#include "strabon/strabon.h"
#include "strabon/temporal.h"

namespace teleios::strabon {
namespace {

using rdf::Term;

TEST(SpatialFunctionsTest, RelationsOverWktLiterals) {
  GeometryCache cache;
  Term box_a = Term::WktLiteral("POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0))");
  Term box_b = Term::WktLiteral("POLYGON ((5 5, 15 5, 15 15, 5 15, 5 5))");
  Term far = Term::WktLiteral("POINT (100 100)");
  const std::string ns = "http://strdf.di.uoa.gr/ontology#";
  auto eval = [&](const std::string& fn, const Term& x, const Term& y) {
    auto r = EvalSpatialFunction(ns + fn, {x, y}, &cache);
    EXPECT_TRUE(r.ok()) << fn << ": " << r.status().ToString();
    return r.ok() && r->lexical == "true";
  };
  EXPECT_TRUE(eval("intersects", box_a, box_b));
  EXPECT_TRUE(eval("anyInteract", box_a, box_b));
  EXPECT_FALSE(eval("intersects", box_a, far));
  EXPECT_TRUE(eval("disjoint", box_a, far));
  EXPECT_TRUE(eval("contains", box_a,
                   Term::WktLiteral("POINT (3 3)")));
  EXPECT_TRUE(eval("within", Term::WktLiteral("POINT (3 3)"), box_a));
}

TEST(SpatialFunctionsTest, MetricsAndConstructors) {
  GeometryCache cache;
  const std::string ns = "http://strdf.di.uoa.gr/ontology#";
  Term a = Term::WktLiteral("POINT (0 0)");
  Term b = Term::WktLiteral("POINT (3 4)");
  auto dist = EvalSpatialFunction(ns + "distance", {a, b}, &cache);
  ASSERT_TRUE(dist.ok());
  EXPECT_DOUBLE_EQ(*ParseDouble(dist->lexical), 5.0);

  Term box = Term::WktLiteral("POLYGON ((0 0, 4 0, 4 3, 0 3, 0 0))");
  auto area = EvalSpatialFunction(ns + "area", {box}, &cache);
  ASSERT_TRUE(area.ok());
  EXPECT_DOUBLE_EQ(*ParseDouble(area->lexical), 12.0);

  auto buffered = EvalSpatialFunction(
      ns + "buffer", {a, Term::DoubleLiteral(1.0)}, &cache);
  ASSERT_TRUE(buffered.ok());
  EXPECT_TRUE(buffered->IsWkt());

  auto centroid = EvalSpatialFunction(ns + "centroid", {box}, &cache);
  ASSERT_TRUE(centroid.ok());
  EXPECT_NE(centroid->lexical.find("POINT"), std::string::npos);

  auto envelope = EvalSpatialFunction(ns + "envelope", {box}, &cache);
  ASSERT_TRUE(envelope.ok());
  EXPECT_NE(envelope->lexical.find("POLYGON"), std::string::npos);
}

TEST(SpatialFunctionsTest, BooleanConstructiveOps) {
  GeometryCache cache;
  const std::string ns = "http://strdf.di.uoa.gr/ontology#";
  Term a = Term::WktLiteral("POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0))");
  Term b = Term::WktLiteral("POLYGON ((5 5, 15 5, 15 15, 5 15, 5 5))");
  auto diff = EvalSpatialFunction(ns + "difference", {a, b}, &cache);
  ASSERT_TRUE(diff.ok()) << diff.status().ToString();
  auto diff_area =
      EvalSpatialFunction(ns + "area", {*diff}, &cache);
  ASSERT_TRUE(diff_area.ok());
  EXPECT_NEAR(*ParseDouble(diff_area->lexical), 75.0, 1e-6);
}

TEST(SpatialFunctionsTest, ErrorsAreClean) {
  GeometryCache cache;
  const std::string ns = "http://strdf.di.uoa.gr/ontology#";
  EXPECT_FALSE(EvalSpatialFunction(ns + "nosuch",
                                   {Term::WktLiteral("POINT (0 0)")},
                                   &cache)
                   .ok());
  EXPECT_FALSE(EvalSpatialFunction(ns + "intersects",
                                   {Term::WktLiteral("POINT (0 0)")},
                                   &cache)
                   .ok());  // arity
  EXPECT_FALSE(EvalSpatialFunction(
                   ns + "area", {Term::Literal("POLYGON ((oops")}, &cache)
                   .ok());
}

TEST(SpatialFunctionsTest, GeoSparqlNamespaceAlias) {
  // The paper anticipates GeoSPARQL (§1); geof: simple-feature functions
  // are accepted as aliases of the strdf: vocabulary.
  GeometryCache cache;
  const std::string geof = "http://www.opengis.net/def/function/geosparql/";
  Term box = Term::WktLiteral("POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0))");
  Term pt = Term::WktLiteral("POINT (5 5)");
  EXPECT_TRUE(IsSpatialFunction(geof + "sfIntersects"));
  auto r = EvalSpatialFunction(geof + "sfContains", {box, pt}, &cache);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->lexical, "true");
  auto d = EvalSpatialFunction(geof + "distance",
                               {pt, Term::WktLiteral("POINT (5 9)")},
                               &cache);
  ASSERT_TRUE(d.ok());
  EXPECT_DOUBLE_EQ(*ParseDouble(d->lexical), 4.0);
  EXPECT_EQ(RelationOf(geof + "sfWithin"), SpatialRelation::kWithin);
}

TEST(TemporalTest, DateTimeParseFormatRoundTrip) {
  auto t = ParseDateTime("2007-08-25T14:30:05");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(FormatDateTime(*t), "2007-08-25T14:30:05");
  auto date_only = ParseDateTime("2007-08-25");
  ASSERT_TRUE(date_only.ok());
  EXPECT_EQ(*t - *date_only, 14 * 3600 + 30 * 60 + 5);
  EXPECT_FALSE(ParseDateTime("not-a-date").ok());
  EXPECT_FALSE(ParseDateTime("2007-13-01").ok());
}

TEST(TemporalTest, LeapYearHandling) {
  auto feb29 = ParseDateTime("2008-02-29T00:00:00");
  ASSERT_TRUE(feb29.ok());
  auto mar1 = ParseDateTime("2008-03-01T00:00:00");
  ASSERT_TRUE(mar1.ok());
  EXPECT_EQ(*mar1 - *feb29, 86400);
  EXPECT_EQ(FormatDateTime(*feb29), "2008-02-29T00:00:00");
}

TEST(TemporalTest, PeriodLiterals) {
  auto p = ParsePeriod("[2007-08-25T00:00:00, 2007-08-26T00:00:00]");
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->end - p->start, 86400);
  EXPECT_FALSE(ParsePeriod("2007-08-25").ok());
  EXPECT_FALSE(
      ParsePeriod("[2007-08-26T00:00:00, 2007-08-25T00:00:00]").ok());
  Term lit = PeriodLiteral(p->start, p->end);
  EXPECT_EQ(lit.datatype, rdf::kStrdfPeriod);
  auto back = ParsePeriod(lit.lexical);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->start, p->start);
}

TEST(TemporalTest, AllenRelations) {
  const std::string ns = "http://strdf.di.uoa.gr/ontology#";
  Term aug25 = PeriodLiteral(*ParseDateTime("2007-08-25T00:00:00"),
                             *ParseDateTime("2007-08-26T00:00:00"));
  Term aug = PeriodLiteral(*ParseDateTime("2007-08-01T00:00:00"),
                           *ParseDateTime("2007-09-01T00:00:00"));
  Term july = PeriodLiteral(*ParseDateTime("2007-07-01T00:00:00"),
                            *ParseDateTime("2007-08-01T00:00:00"));
  auto check = [&](const std::string& fn, const Term& x, const Term& y,
                   bool expected) {
    auto r = EvalTemporalFunction(ns + fn, {x, y});
    ASSERT_TRUE(r.ok()) << fn << ": " << r.status().ToString();
    EXPECT_EQ(r->lexical == "true", expected) << fn;
  };
  check("during", aug25, aug, true);
  check("during", aug, aug25, false);
  check("periodContains", aug, aug25, true);
  check("before", july, aug25, true);  // july ends before Aug 25 starts
  check("before", july, aug, false);   // july meets aug (shared instant)
  check("after", aug25, july, true);
  check("overlaps", aug25, aug, true);
  check("meets", july, aug, true);
  check("periodIntersects", july, aug25, false);
}

TEST(TemporalTest, DateTimeAsInstantaneousPeriod) {
  const std::string ns = "http://strdf.di.uoa.gr/ontology#";
  Term instant =
      Term::Literal("2007-08-25T12:00:00", rdf::kXsdDateTime);
  Term day = PeriodLiteral(*ParseDateTime("2007-08-25T00:00:00"),
                           *ParseDateTime("2007-08-26T00:00:00"));
  auto r = EvalTemporalFunction(ns + "during", {instant, day});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->lexical, "true");
}

class StSparqlTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Three hotspots, one over the sea; a sea polygon; one town.
    ASSERT_TRUE(strabon_
                    .LoadTurtle(R"ttl(
@prefix noa: <http://teleios.di.uoa.gr/ontologies/noaOntology.owl#> .
@prefix strdf: <http://strdf.di.uoa.gr/ontology#> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
noa:h1 a noa:Hotspot ;
  noa:hasGeometry "POLYGON ((1 1, 2 1, 2 2, 1 2, 1 1))"^^strdf:WKT ;
  noa:detectedAt "2007-08-25T10:00:00"^^xsd:dateTime .
noa:h2 a noa:Hotspot ;
  noa:hasGeometry "POLYGON ((8 8, 9 8, 9 9, 8 9, 8 8))"^^strdf:WKT ;
  noa:detectedAt "2007-08-26T10:00:00"^^xsd:dateTime .
noa:h3 a noa:Hotspot ;
  noa:hasGeometry "POLYGON ((20 20, 21 20, 21 21, 20 21, 20 20))"^^strdf:WKT ;
  noa:detectedAt "2007-08-25T15:00:00"^^xsd:dateTime .
noa:town a noa:Town ;
  noa:hasGeometry "POINT (2.5 1.5)"^^strdf:WKT .
)ttl")
                    .ok());
  }

  size_t Count(const std::string& query) {
    auto r = strabon_.Select(query);
    EXPECT_TRUE(r.ok()) << query << " -> " << r.status().ToString();
    return r.ok() ? r->num_rows() : 0;
  }

  Strabon strabon_;
};

TEST_F(StSparqlTest, SpatialSelectionWithinBox) {
  std::string q =
      "SELECT ?h WHERE { ?h a noa:Hotspot ; noa:hasGeometry ?g . "
      "FILTER(strdf:within(?g, \"POLYGON ((0 0, 10 0, 10 10, 0 10, 0 "
      "0))\"^^strdf:WKT)) }";
  EXPECT_EQ(Count(q), 2u);
}

TEST_F(StSparqlTest, SpatialIndexAndScanAgree) {
  std::string q =
      "SELECT ?h WHERE { ?h a noa:Hotspot ; noa:hasGeometry ?g . "
      "FILTER(strdf:intersects(?g, \"POLYGON ((0 0, 5 0, 5 5, 0 5, 0 "
      "0))\"^^strdf:WKT)) }";
  strabon_.set_spatial_index_enabled(true);
  size_t with_index = Count(q);
  strabon_.set_spatial_index_enabled(false);
  size_t without_index = Count(q);
  EXPECT_EQ(with_index, without_index);
  EXPECT_EQ(with_index, 1u);
  strabon_.set_spatial_index_enabled(true);
  EXPECT_GT(strabon_.indexed_geometries(), 0u);
}

TEST_F(StSparqlTest, DistanceFilter) {
  std::string q =
      "SELECT ?h WHERE { ?h a noa:Hotspot ; noa:hasGeometry ?g . "
      "FILTER(strdf:distance(?g, \"POINT (2.5 1.5)\"^^strdf:WKT) < 1.0) }";
  EXPECT_EQ(Count(q), 1u);  // h1 is 0.5 away, h2 ~8.7, h3 far
}

TEST_F(StSparqlTest, SpatialJoinBetweenVariables) {
  std::string q =
      "SELECT ?h ?t WHERE { ?h a noa:Hotspot ; noa:hasGeometry ?hg . "
      "?t a noa:Town ; noa:hasGeometry ?tg . "
      "FILTER(strdf:distance(?hg, ?tg) < 1.0) }";
  EXPECT_EQ(Count(q), 1u);
}

TEST_F(StSparqlTest, TemporalFilter) {
  std::string q =
      "SELECT ?h WHERE { ?h a noa:Hotspot ; noa:detectedAt ?t . "
      "FILTER(?t >= \"2007-08-25T00:00:00\"^^xsd:dateTime && "
      "?t < \"2007-08-26T00:00:00\"^^xsd:dateTime) }";
  EXPECT_EQ(Count(q), 2u);
}

TEST_F(StSparqlTest, TemporalPeriodFunctionInFilter) {
  std::string q =
      "SELECT ?h WHERE { ?h a noa:Hotspot ; noa:detectedAt ?t . "
      "FILTER(strdf:during(?t, \"[2007-08-25T00:00:00, "
      "2007-08-25T23:59:59]\"^^strdf:period)) }";
  EXPECT_EQ(Count(q), 2u);
}

TEST_F(StSparqlTest, BindSpatialConstructor) {
  std::string q =
      "SELECT ?h ?a WHERE { ?h a noa:Hotspot ; noa:hasGeometry ?g . "
      "BIND(strdf:area(?g) AS ?a) FILTER(?a > 0.5) }";
  EXPECT_EQ(Count(q), 3u);  // all unit squares have area 1
}

TEST_F(StSparqlTest, SpatialIndexSeesPostUpdateGeometries) {
  std::string window =
      "\"POLYGON ((40 40, 50 40, 50 50, 40 50, 40 40))\"^^strdf:WKT";
  std::string query =
      "SELECT ?h WHERE { ?h a noa:Hotspot ; noa:hasGeometry ?g . "
      "FILTER(strdf:within(?g, " + window + ")) }";
  // Warm the index: nothing in the window yet.
  EXPECT_EQ(Count(query), 0u);
  // Insert a new hotspot inside the window; the R-tree must take the new
  // geometry in, not serve stale candidates.
  ASSERT_TRUE(strabon_
                  .Update("INSERT DATA { noa:h4 a noa:Hotspot ; "
                          "noa:hasGeometry \"POLYGON ((44 44, 45 44, 45 "
                          "45, 44 45, 44 44))\"^^strdf:WKT }")
                  .ok());
  EXPECT_EQ(Count(query), 1u);
}

TEST_F(StSparqlTest, GeometryUpdateViaDifference) {
  // The refinement idiom: replace a geometry by its difference with a
  // mask region.
  auto n = strabon_.Update(
      "DELETE { ?h noa:hasGeometry ?g } "
      "INSERT { ?h noa:hasGeometry ?ng } "
      "WHERE { ?h a noa:Hotspot ; noa:hasGeometry ?g . "
      "BIND(strdf:difference(?g, \"POLYGON ((1.5 0, 3 0, 3 3, 1.5 3, 1.5 "
      "0))\"^^strdf:WKT) AS ?ng) "
      "FILTER(strdf:intersects(?g, \"POLYGON ((1.5 0, 3 0, 3 3, 1.5 3, 1.5 "
      "0))\"^^strdf:WKT)) }");
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  EXPECT_EQ(*n, 2u);  // h1: one delete + one insert
  // h1's new geometry has half the area.
  auto r = strabon_.Select(
      "SELECT ?g WHERE { noa:h1 noa:hasGeometry ?g }");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->num_rows(), 1u);
  GeometryCache cache;
  auto geom = cache.Get(strabon_.store().dict().At(r->column(0).GetInt64(0)));
  ASSERT_TRUE(geom.ok());
  EXPECT_NEAR((*geom)->Area(), 0.5, 1e-6);
}

TEST(StrabonUpdateTest, DeleteDataCountsADuplicateAddOnce) {
  Strabon strabon;
  const Term s = Term::Iri("http://example.org/s");
  const Term p = Term::Iri("http://example.org/p");
  const Term o = Term::Iri("http://example.org/o");
  strabon.Add(s, p, o);
  strabon.Add(s, p, o);
  EXPECT_EQ(strabon.size(), 1u);
  auto n = strabon.Update(
      "DELETE DATA { <http://example.org/s> <http://example.org/p> "
      "<http://example.org/o> }");
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  EXPECT_EQ(*n, 1u);
  EXPECT_EQ(strabon.size(), 0u);
}

/// A SELECT's rows as N-Triples tuples, sorted: rows compared as a
/// multiset.
std::vector<std::string> SortedRows(Strabon* strabon, const std::string& q) {
  auto r = strabon->Select(q);
  EXPECT_TRUE(r.ok()) << q << " -> " << r.status().ToString();
  std::vector<std::string> rows;
  if (!r.ok()) return rows;
  for (size_t row = 0; row < r->num_rows(); ++row) {
    std::string line;
    for (size_t c = 0; c < r->num_columns(); ++c) {
      rdf::TermId id = r->column(c).GetInt64(row);
      line += id == rdf::kNoTerm ? "UNBOUND"
                                 : strabon->store().dict().At(id).ToNTriples();
      line += " ";
    }
    rows.push_back(line);
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// Runs `q` with the spatial index on and off; the rows must agree as a
/// multiset. Returns them.
std::vector<std::string> IndexedAndScanned(Strabon* strabon,
                                           const std::string& q) {
  strabon->set_spatial_index_enabled(false);
  std::vector<std::string> scanned = SortedRows(strabon, q);
  strabon->set_spatial_index_enabled(true);
  std::vector<std::string> indexed = SortedRows(strabon, q);
  EXPECT_EQ(indexed, scanned) << q;
  return indexed;
}

TEST_F(StSparqlTest, GeodesicDistanceIndexKeepsNearThresholdAnswers) {
  // 0.017975 degrees of longitude on the equator is 1998.7 m by
  // geo::GeodesicDistanceMeters (111 195 m per degree).
  ASSERT_TRUE(strabon_
                  .Update("INSERT DATA { noa:near noa:hasGeometry "
                          "\"POINT (0.017975 0)\"^^strdf:WKT }")
                  .ok());
  std::string q =
      "SELECT ?x WHERE { ?x noa:hasGeometry ?g . "
      "FILTER(strdf:geodesicDistance(?g, \"POINT (0 0)\"^^strdf:WKT) < "
      "2000.0) }";
  std::vector<std::string> rows = IndexedAndScanned(&strabon_, q);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_NE(rows[0].find("noa"), std::string::npos);
}

TEST_F(StSparqlTest, OnlyStrdfWktLiteralsAreGeometries) {
  // The same polygon as a plain literal and typed strdf:WKT: the R-tree
  // indexes only typed literals, so the scan must not read the plain one
  // as a geometry either.
  ASSERT_TRUE(strabon_
                  .LoadTurtle(R"ttl(
@prefix noa: <http://teleios.di.uoa.gr/ontologies/noaOntology.owl#> .
@prefix strdf: <http://strdf.di.uoa.gr/ontology#> .
noa:plain noa:hasGeometry "POLYGON ((0 0, 1 0, 1 1, 0 1, 0 0))" .
noa:typed noa:hasGeometry "POLYGON ((0 0, 1 0, 1 1, 0 1, 0 0))"^^strdf:WKT .
)ttl")
                  .ok());
  std::string q =
      "SELECT ?x WHERE { ?x noa:hasGeometry ?g . "
      "FILTER(strdf:intersects(?g, \"POINT (0.5 0.5)\"^^strdf:WKT)) }";
  std::vector<std::string> rows = IndexedAndScanned(&strabon_, q);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_NE(rows[0].find("#typed>"), std::string::npos) << rows[0];
  EXPECT_FALSE(
      GeometryCache()
          .Get(Term::Literal("POLYGON ((0 0, 1 0, 1 1, 0 1, 0 0))"))
          .ok());
}

TEST_F(StSparqlTest, FilterOverOptionalOnlyVariableRunsLast) {
  // ?t is bound only inside the OPTIONAL: the FILTER sees the joined rows.
  std::string q =
      "SELECT ?h ?t WHERE { ?h a noa:Hotspot . "
      "OPTIONAL { ?h noa:detectedAt ?t } "
      "FILTER(?t >= \"2007-08-25T12:00:00\"^^xsd:dateTime) }";
  EXPECT_EQ(IndexedAndScanned(&strabon_, q).size(), 2u);  // h2, h3
}

TEST_F(StSparqlTest, FilterOverBindVariableRunsAfterBind) {
  std::string area =
      "SELECT ?h WHERE { ?h a noa:Hotspot ; noa:hasGeometry ?g . "
      "BIND(strdf:area(?g) AS ?a) FILTER(?a > 0.5) }";
  EXPECT_EQ(IndexedAndScanned(&strabon_, area).size(), 3u);
  // A BIND that rebinds a BGP variable: the FILTER reads the BIND's value.
  std::string rebound =
      "SELECT ?h WHERE { ?h a noa:Hotspot ; noa:detectedAt ?t . "
      "BIND(\"x\" AS ?t) FILTER(?t = \"x\") }";
  EXPECT_EQ(IndexedAndScanned(&strabon_, rebound).size(), 3u);
}

TEST_F(StSparqlTest, FilterInsideOptionalGroup) {
  std::string q =
      "SELECT ?h ?t WHERE { ?h a noa:Hotspot . "
      "OPTIONAL { ?h noa:detectedAt ?t "
      "FILTER(?t < \"2007-08-26T00:00:00\"^^xsd:dateTime) } }";
  std::vector<std::string> rows = IndexedAndScanned(&strabon_, q);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(std::count_if(rows.begin(), rows.end(),
                          [](const std::string& r) {
                            return r.find("UNBOUND") != std::string::npos;
                          }),
            1);  // h2 was detected on the 26th
}

TEST_F(StSparqlTest, BoundFilters) {
  std::string unbound_optional =
      "SELECT ?h WHERE { ?h a noa:Hotspot . "
      "OPTIONAL { ?h noa:near ?x } FILTER(!bound(?x)) }";
  EXPECT_EQ(IndexedAndScanned(&strabon_, unbound_optional).size(), 3u);
  std::string bound_bgp =
      "SELECT ?h WHERE { ?h a noa:Hotspot ; noa:hasGeometry ?g . "
      "FILTER(bound(?g) && strdf:intersects(?g, \"POLYGON ((0 0, 5 0, 5 5, "
      "0 5, 0 0))\"^^strdf:WKT)) }";
  EXPECT_EQ(IndexedAndScanned(&strabon_, bound_bgp).size(), 1u);
}

TEST_F(StSparqlTest, RefinementUpdateSameWithIndexOnAndOff) {
  // The refinement idiom, whose FILTER runs before its BIND: the store the
  // update leaves must not depend on the index.
  const std::string update =
      "DELETE { ?h noa:hasGeometry ?g } "
      "INSERT { ?h noa:hasGeometry ?ng . ?h noa:refinedGeometry ?ng } "
      "WHERE { ?h a noa:Hotspot ; noa:hasGeometry ?g . "
      "BIND(strdf:difference(?g, \"POLYGON ((1.5 0, 9 0, 9 8.5, 1.5 8.5, "
      "1.5 0))\"^^strdf:WKT) AS ?ng) "
      "FILTER(strdf:intersects(?g, \"POLYGON ((1.5 0, 9 0, 9 8.5, 1.5 8.5, "
      "1.5 0))\"^^strdf:WKT)) }";
  const std::string all = "SELECT ?s ?p ?o WHERE { ?s ?p ?o }";
  std::vector<std::string> after[2];
  for (bool use_index : {false, true}) {
    Strabon strabon;
    ASSERT_TRUE(strabon.LoadTurtle(strabon_.ToTurtle()).ok());
    strabon.set_spatial_index_enabled(use_index);
    auto n = strabon.Update(update);
    ASSERT_TRUE(n.ok()) << n.status().ToString();
    EXPECT_EQ(*n, 6u);  // h1 and h2: one delete + two inserts each
    after[use_index] = SortedRows(&strabon, all);
  }
  EXPECT_EQ(after[0], after[1]);
}

/// Deterministic xorshift64* stream for the differential test.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  double Uniform() {
    state_ ^= state_ >> 12;
    state_ ^= state_ << 25;
    state_ ^= state_ >> 27;
    return static_cast<double>((state_ * 0x2545f4914f6cdd1dull) >> 11) /
           9007199254740992.0;
  }

 private:
  uint64_t state_;
};

constexpr double kMetres = 2000.0;
constexpr double kDegrees = 0.02;

std::string Wkt(double x, double y, double size) {
  if (size == 0) return StrFormat("POINT (%.9f %.9f)", x, y);
  return StrFormat(
      "POLYGON ((%.9f %.9f, %.9f %.9f, %.9f %.9f, %.9f %.9f, %.9f %.9f))", x,
      y, x + size, y, x + size, y + size, x, y + size, x, y);
}

/// A point placed within 0.1% of a distance threshold from an anchor.
struct NearPair {
  std::string anchor;   // WKT of the anchor point
  std::string partner;  // IRI of the other point, as N-Triples
  bool geodesic;        // which threshold: kMetres or kDegrees
  bool answer;          // inside the threshold and a strdf:WKT literal
};

/// Seeded features around latitude `lat0`: points and small boxes, most
/// typed strdf:WKT and some plain, one empty geometry, and near pairs on
/// either side of the thresholds.
std::string DifferentialTurtle(uint64_t seed, double lat0,
                               std::vector<NearPair>* near) {
  Rng rng(seed);
  std::ostringstream ttl;
  ttl << "@prefix ex: <http://example.org/> .\n"
      << "@prefix strdf: <http://strdf.di.uoa.gr/ontology#> .\n";
  int n = 0;
  auto feature = [&](const std::string& wkt, bool typed) {
    ttl << "ex:f" << n << " ex:geo \"" << wkt << "\""
        << (typed ? "^^strdf:WKT" : "") << " .\n";
    return "<http://example.org/f" + std::to_string(n++) + ">";
  };
  for (int i = 0; i < 60; ++i) {
    double size = rng.Uniform() < 0.5 ? 0 : 0.002 + rng.Uniform() * 0.02;
    feature(Wkt(rng.Uniform() * 0.3, lat0 + rng.Uniform() * 0.3, size),
            rng.Uniform() < 0.85);
  }
  feature("GEOMETRYCOLLECTION EMPTY", true);
  const double metres_per_degree = geo::kEarthRadiusMeters * M_PI / 180.0;
  for (int i = 0; i < 12; ++i) {
    double x = rng.Uniform() * 0.3;
    double y = lat0 + rng.Uniform() * 0.3;
    // A relative offset of 1e-5 to 1e-3, outward for even i.
    double off = (i % 2 == 0 ? 1 : -1) * (1e-5 + rng.Uniform() * 9.9e-4);
    bool typed = i % 3 != 2;
    std::string anchor = Wkt(x, y, 0);
    feature(anchor, true);
    // The geodesic distance to a point d degrees east or north is
    // d * M * sqrt(cos(mean latitude)); solve for d by fixed point.
    bool north = i % 4 < 2;
    double d = 0;
    for (int k = 0; k < 8; ++k) {
      double mean_lat = y + (north ? d / 2 : 0);
      d = kMetres * (1 + off) /
          (metres_per_degree * std::sqrt(std::cos(mean_lat * M_PI / 180.0)));
    }
    std::string geodesic = north ? Wkt(x, y + d, 0) : Wkt(x + d, y, 0);
    near->push_back({anchor, feature(geodesic, typed), true, off < 0 && typed});
    std::string planar = Wkt(x, y + kDegrees * (1 - off), 0);
    near->push_back({anchor, feature(planar, typed), false, off > 0 && typed});
  }
  return ttl.str();
}

TEST(SpatialIndexDifferentialTest, IndexAndScanAgreeOnEveryShape) {
  const std::string prefix = "PREFIX ex: <http://example.org/> ";
  const std::string metres = StrFormat("%.1f", kMetres);
  const std::string degrees = StrFormat("%.2f", kDegrees);
  for (double lat0 : {0.0, 60.0}) {
    SCOPED_TRACE("latitude " + std::to_string(lat0));
    Strabon strabon;
    std::vector<NearPair> near;
    ASSERT_TRUE(strabon
                    .LoadTurtle(DifferentialTurtle(
                        static_cast<uint64_t>(lat0) + 17, lat0, &near))
                    .ok());
    // Variable against constant: each near pair's partner is an answer
    // exactly when it is inside the threshold and typed.
    const std::string one = prefix + "SELECT ?a WHERE { ?a ex:geo ?g . ";
    for (const NearPair& pair : near) {
      std::string lit = "\"" + pair.anchor + "\"^^strdf:WKT";
      std::string filter =
          pair.geodesic ? "FILTER(strdf:geodesicDistance(?g, " + lit +
                              ") < " + metres + ") }"
                        : "FILTER(strdf:distance(" + lit + ", ?g) <= " +
                              degrees + ") }";
      std::vector<std::string> rows = IndexedAndScanned(&strabon, one + filter);
      bool found = std::find(rows.begin(), rows.end(), pair.partner + " ") !=
                   rows.end();
      EXPECT_EQ(found, pair.answer) << filter << " " << pair.partner;
    }
    for (const NearPair& pair : near) {
      std::string lit = "\"" + pair.anchor + "\"^^strdf:WKT";
      IndexedAndScanned(&strabon, one + "FILTER(strdf:geodesicDistance(" +
                                      lit + ", ?g) <= " + metres + ") }");
      IndexedAndScanned(&strabon, one + "FILTER(strdf:distance(?g, " + lit +
                                      ") < " + degrees + ") }");
    }
    Rng rng(99);
    for (int i = 0; i < 8; ++i) {
      std::string box =
          "\"" +
          Wkt(rng.Uniform() * 0.25, lat0 + rng.Uniform() * 0.25,
              0.01 + rng.Uniform() * 0.05) +
          "\"^^strdf:WKT";
      IndexedAndScanned(&strabon,
                        one + "FILTER(strdf:intersects(?g, " + box + ")) }");
      IndexedAndScanned(&strabon,
                        one + "FILTER(strdf:within(?g, " + box + ")) }");
      IndexedAndScanned(&strabon,
                        one + "FILTER(strdf:contains(" + box + ", ?g)) }");
      IndexedAndScanned(&strabon, one + "FILTER(strdf:contains(?g, \"" +
                                      Wkt(rng.Uniform() * 0.3,
                                          lat0 + rng.Uniform() * 0.3, 0) +
                                      "\"^^strdf:WKT)) }");
    }
    // Variable against variable: every answering near pair is among the
    // joined rows.
    const std::string pairs =
        prefix + "SELECT ?a ?b WHERE { ?a ex:geo ?ga . ?b ex:geo ?gb . ";
    std::vector<std::string> geodesic = IndexedAndScanned(
        &strabon, pairs + "FILTER(strdf:geodesicDistance(?ga, ?gb) < " +
                      metres + ") }");
    std::vector<std::string> planar = IndexedAndScanned(
        &strabon,
        pairs + "FILTER(strdf:distance(?ga, ?gb) <= " + degrees + ") }");
    size_t answering = 0;
    for (const NearPair& pair : near) {
      if (!pair.answer) continue;
      ++answering;
      const std::vector<std::string>& rows = pair.geodesic ? geodesic : planar;
      EXPECT_TRUE(std::any_of(
          rows.begin(), rows.end(),
          [&](const std::string& r) { return r.find(pair.partner) == 0; }))
          << pair.partner;
    }
    EXPECT_GT(answering, 4u);
    IndexedAndScanned(&strabon, pairs +
                                    "FILTER(strdf:geodesicDistance(?ga, ?gb) "
                                    "<= " + metres + ") }");
    IndexedAndScanned(&strabon, pairs + "FILTER(strdf:distance(?gb, ?ga) < " +
                                    degrees + ") }");
    for (const char* rel : {"intersects", "within", "contains"}) {
      IndexedAndScanned(&strabon, pairs + "FILTER(strdf:" + rel +
                                      "(?ga, ?gb)) }");
    }
  }
}

TEST(SpatialIndexDifferentialTest, IndexFollowsInsertsAndDeletes) {
  const std::string prefix =
      "PREFIX ex: <http://example.org/> "
      "PREFIX strdf: <http://strdf.di.uoa.gr/ontology#> ";
  const std::string metres = StrFormat("%.1f", kMetres);
  const std::string degrees = StrFormat("%.2f", kDegrees);
  std::vector<NearPair> near;
  Strabon strabon;
  ASSERT_TRUE(strabon.LoadTurtle(DifferentialTurtle(29, 38.0, &near)).ok());
  obs::Counter* builds = obs::MetricsRegistry::Global().GetCounter(
      "teleios_strabon_index_builds_total");
  obs::Counter* inserts = obs::MetricsRegistry::Global().GetCounter(
      "teleios_strabon_index_inserts_total");
  Rng rng(41);
  auto literal = [&](double size) {
    return "\"" +
           Wkt(rng.Uniform() * 0.3, 38.0 + rng.Uniform() * 0.3, size) +
           "\"^^strdf:WKT";
  };
  auto check = [&]() {
    const std::string one = prefix + "SELECT ?a WHERE { ?a ex:geo ?g . ";
    IndexedAndScanned(&strabon, one + "FILTER(strdf:intersects(?g, " +
                                    literal(0.05) + ")) }");
    IndexedAndScanned(&strabon, one + "FILTER(strdf:geodesicDistance(?g, " +
                                    literal(0) + ") < " + metres + ") }");
    IndexedAndScanned(&strabon, one + "FILTER(strdf:distance(" + literal(0) +
                                    ", ?g) <= " + degrees + ") }");
    IndexedAndScanned(&strabon, prefix +
                                    "SELECT ?a ?b WHERE { ?a ex:geo ?ga . "
                                    "?b ex:geo ?gb . FILTER(strdf:distance("
                                    "?ga, ?gb) < " + degrees + ") }");
  };
  check();  // the first indexed query bulk-loads the tree
  const uint64_t builds_after_load = builds->value();
  const uint64_t inserts_after_load = inserts->value();
  const size_t indexed_after_load = strabon.indexed_geometries();
  // Inserted (subject, literal) pairs still stored, and the literal
  // last deleted, which a later insert reuses under a new subject.
  std::vector<std::pair<std::string, std::string>> live;
  std::string deleted;
  for (int step = 0; step < 24; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    std::string update;
    switch (step % 4) {
      case 0: {  // a new feature: a point, a box, or a reused literal
        std::string lit = !deleted.empty() && step % 8 == 0
                              ? deleted
                              : literal(step % 8 == 4 ? 0 : 0.01);
        live.push_back({"ex:n" + std::to_string(step), lit});
        update = "INSERT DATA { " + live.back().first + " ex:geo " + lit +
                 " }";
        break;
      }
      case 1:  // drop one loaded feature's geometry
        update = "DELETE WHERE { ex:f" + std::to_string(step * 3) +
                 " ex:geo ?g }";
        break;
      case 2:  // move a loaded feature to a new geometry
        update = "DELETE { ?f ex:geo ?g } INSERT { ?f ex:geo " +
                 literal(0.005) + " } WHERE { ?f ex:geo ?g . FILTER(?f = ex:f" +
                 std::to_string(step * 2 + 1) + ") }";
        break;
      default:  // delete the newest inserted feature's geometry
        update = "DELETE DATA { " + live.back().first + " ex:geo " +
                 live.back().second + " }";
        deleted = live.back().second;
        live.pop_back();
        break;
    }
    auto n = strabon.Update(prefix + update);
    ASSERT_TRUE(n.ok()) << update << " -> " << n.status().ToString();
    EXPECT_EQ(*n, step % 4 == 2 ? 2u : 1u) << update;
    check();
  }
  // Every write after the load reached the tree as inserts.
  EXPECT_EQ(builds->value(), builds_after_load);
  EXPECT_GT(inserts->value(), inserts_after_load);
  EXPECT_GT(strabon.indexed_geometries(), indexed_after_load);
}

/// The permutation a TripleStore::Match of `pattern` walks (see Match), as
/// a key over a triple.
std::array<rdf::TermId, 3> PermutationKey(const rdf::TriplePattern& pattern,
                                         const rdf::Triple& t) {
  if (pattern.s && (pattern.p || !pattern.o)) return {t.s, t.p, t.o};
  if (pattern.p) return {t.p, t.o, t.s};
  if (pattern.o) return {t.o, t.s, t.p};
  return {t.s, t.p, t.o};
}

struct TripleLess {
  bool operator()(const rdf::Triple& a, const rdf::Triple& b) const {
    return std::tie(a.s, a.p, a.o) < std::tie(b.s, b.p, b.o);
  }
};

TEST(TripleStoreDifferentialTest, DeltaPathsMatchASetReference) {
  Strabon strabon;
  rdf::TripleStore& store = strabon.store();
  std::set<rdf::Triple, TripleLess> reference;
  const std::string ns = "http://example.org/";
  auto name = [&](char kind, int i) { return ns + kind + std::to_string(i); };
  auto nt = [&](char kind, int i) { return "<" + name(kind, i) + ">"; };
  // Ids for every term a step can name, including ones never stored.
  std::vector<rdf::TermId> ids[3];
  const int kinds[3] = {6, 4, 6};  // subjects, predicates, objects
  for (int k = 0; k < 3; ++k) {
    for (int i = 0; i < kinds[k]; ++i) {
      ids[k].push_back(store.dict().Intern(Term::Iri(name("spo"[k], i))));
    }
  }
  Rng rng(2024);
  auto pick = [&](size_t n) {
    return static_cast<int>(rng.Uniform() * static_cast<double>(n));
  };
  struct Picked {
    int s, p, o;
  };
  auto random_triple = [&]() { return Picked{pick(6), pick(4), pick(6)}; };
  auto encode = [&](const Picked& t) {
    return rdf::Triple{ids[0][t.s], ids[1][t.p], ids[2][t.o]};
  };
  auto ground = [&](const Picked& t) {
    return nt('s', t.s) + " " + nt('p', t.p) + " " + nt('o', t.o) + " . ";
  };
  auto matches = [](const rdf::TriplePattern& pat, const rdf::Triple& t) {
    return (!pat.s || *pat.s == t.s) && (!pat.p || *pat.p == t.p) &&
           (!pat.o || *pat.o == t.o);
  };
  auto check = [&](int step) {
    SCOPED_TRACE("step " + std::to_string(step));
    // size() first: the writes since the last read are still pending.
    ASSERT_EQ(store.size(), reference.size());
    for (int shape = 0; shape < 8; ++shape) {
      rdf::TriplePattern pat;
      if (shape & 1) pat.s = ids[0][pick(6)];
      if (shape & 2) pat.p = ids[1][pick(4)];
      if (shape & 4) pat.o = ids[2][pick(6)];
      std::vector<rdf::Triple> expected;
      for (const rdf::Triple& t : reference) {
        if (matches(pat, t)) expected.push_back(t);
      }
      std::sort(expected.begin(), expected.end(),
                [&](const rdf::Triple& a, const rdf::Triple& b) {
                  return PermutationKey(pat, a) < PermutationKey(pat, b);
                });
      EXPECT_EQ(store.Match(pat), expected) << "shape " << shape;
    }
  };
  // Several writes of any kind between reads, so a read folds a mixed
  // delta into a non-empty store.
  for (int step = 0; step < 600; ++step) {
    int op = pick(8);
    if (op <= 1) {  // a few adds, duplicates included
      for (int k = pick(4); k >= 0; --k) {
        Picked t = random_triple();
        if (op == 0) {
          store.Add(Term::Iri(name('s', t.s)), Term::Iri(name('p', t.p)),
                    Term::Iri(name('o', t.o)));
        } else {
          store.AddEncoded(encode(t));
        }
        reference.insert(encode(t));
      }
    } else if (op == 2) {  // Remove(pattern) with one or two positions bound
      Picked t = random_triple();
      rdf::TriplePattern pat;
      pat.p = ids[1][t.p];
      if (pick(2) == 0) pat.s = ids[0][t.s];
      size_t removed = std::erase_if(
          reference, [&](const rdf::Triple& r) { return matches(pat, r); });
      EXPECT_EQ(store.Remove(pat), removed);
    } else if (op == 3) {  // batch erase: present, absent and repeated
      std::vector<rdf::Triple> batch;
      for (int k = pick(6); k >= 0; --k) {
        batch.push_back(encode(random_triple()));
      }
      batch.push_back(batch.front());
      size_t present = 0;
      for (const rdf::Triple& t : batch) present += reference.erase(t);
      EXPECT_EQ(store.Erase(batch), present);
    } else if (op == 4 || op == 5) {  // INSERT DATA / DELETE DATA
      std::string data;
      std::set<rdf::Triple, TripleLess> named;
      for (int k = pick(3); k >= 0; --k) {
        Picked t = random_triple();
        data += ground(t);
        named.insert(encode(t));
      }
      size_t deleted = 0;
      for (const rdf::Triple& t : named) {
        if (op == 4) {
          reference.insert(t);
        } else {
          deleted += reference.erase(t);
        }
      }
      auto n = strabon.Update((op == 4 ? "INSERT" : "DELETE") +
                              std::string(" DATA { ") + data + "}");
      ASSERT_TRUE(n.ok()) << n.status().ToString();
      if (op == 5) {
        EXPECT_EQ(*n, deleted);
      }
    } else if (op == 6) {  // DELETE/INSERT WHERE: move a predicate's triples
      int from = pick(4);
      int to = pick(4);
      std::vector<rdf::Triple> moved;
      for (const rdf::Triple& t : reference) {
        if (t.p == ids[1][from]) moved.push_back(t);
      }
      for (const rdf::Triple& t : moved) reference.erase(t);
      for (const rdf::Triple& t : moved) {
        reference.insert({t.s, ids[1][to], t.o});
      }
      auto n = strabon.Update("DELETE { ?s " + nt('p', from) + " ?o } " +
                              "INSERT { ?s " + nt('p', to) + " ?o } " +
                              "WHERE { ?s " + nt('p', from) + " ?o }");
      ASSERT_TRUE(n.ok()) << n.status().ToString();
      EXPECT_EQ(*n, 2 * moved.size());
    } else {
      check(step);
    }
  }
  check(600);
  EXPECT_GT(reference.size(), 0u);
}

}  // namespace
}  // namespace teleios::strabon
