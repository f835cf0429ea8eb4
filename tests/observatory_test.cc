#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "core/observatory.h"
#include "eo/product.h"
#include "eo/scene.h"
#include "geo/crs.h"
#include "geo/predicates.h"
#include "geo/wkt.h"
#include "linkeddata/generators.h"
#include "obs/metrics.h"
#include "rdf/turtle.h"
#include "strabon/temporal.h"

namespace teleios::core {
namespace {

namespace fs = std::filesystem;

/// Span names of a PROFILE result table (column 0).
std::set<std::string> SpanNames(const storage::Table& profile) {
  std::set<std::string> names;
  for (size_t r = 0; r < profile.num_rows(); ++r) {
    names.insert(profile.Get(r, 0).AsString());
  }
  return names;
}

/// Value of the first `name value` line in a text exposition ("-1" when
/// the series is absent).
int64_t ExpositionValue(const std::string& text, const std::string& series) {
  size_t pos = 0;
  while ((pos = text.find(series + " ", pos)) != std::string::npos) {
    if (pos == 0 || text[pos - 1] == '\n') {
      return std::stoll(text.substr(pos + series.size() + 1));
    }
    pos += series.size();
  }
  return -1;
}

/// The paper's §1 headline request as one stSPARQL query: hotspots in a
/// Meteosat-9 product of 25 Aug 2007 covering a Peloponnese point, within
/// 2 km of an archaeological site.
const char* const kHeadlineQuery = R"sparql(
PREFIX dbo: <http://dbpedia.org/ontology/>
SELECT ?product ?hotspot ?site WHERE {
  ?product a noa:Product ;
           noa:producedBySatellite "Meteosat-9" ;
           noa:hasAcquisitionTime ?t ;
           noa:hasGeometry ?pg .
  ?hotspot a noa:Hotspot ;
           noa:derivedFromProduct ?l2 ;
           noa:hasGeometry ?hg .
  ?l2 noa:wasDerivedFrom ?product .
  ?site a dbo:ArchaeologicalSite ;
        strdf:hasGeometry ?sg .
  FILTER(?t >= "2007-08-25T00:00:00"^^xsd:dateTime)
  FILTER(?t < "2007-08-26T00:00:00"^^xsd:dateTime)
  FILTER(strdf:contains(?pg, "POINT (22.2 37.3)"^^strdf:WKT))
  FILTER(strdf:geodesicDistance(?hg, ?sg) < 2000.0)
})sparql";

class ObservatoryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("observatory_test_" + std::to_string(::getpid()));
    fs::create_directories(dir_);
    eo::SceneSpec spec;
    spec.width = 96;
    spec.height = 96;
    spec.num_fires = 4;
    spec.name = "msg";
    scene_ = *eo::GenerateScene(spec);
    ASSERT_TRUE(vault::WriteTer(scene_.ToTerRaster(),
                                (dir_ / "msg.ter").string())
                    .ok());
  }
  void TearDown() override { fs::remove_all(dir_); }

  /// The headline's world: the scene's L1 product, one contextual chain
  /// run over it, and `sites` generated archaeological sites, whose Turtle
  /// goes to `site_turtle`.
  noa::ChainResult LoadHeadlineWorld(int sites, std::string* site_turtle) {
    EXPECT_TRUE(veo_.AttachArchive(dir_.string()).ok());
    auto header = veo_.vault().GetRasterHeader("msg");
    EXPECT_TRUE(header.ok()) << header.status().ToString();
    if (!header.ok()) return {};
    l1_ = eo::MetadataFromHeader(*header, eo::ProductLevel::kL1);
    EXPECT_TRUE(eo::RegisterProductTriples(l1_, &veo_.strabon()).ok());
    noa::ChainConfig config;
    config.classifier.kind = noa::ClassifierKind::kContextual;
    auto chain = veo_.RunFireChain("msg", config);
    EXPECT_TRUE(chain.ok()) << chain.status().ToString();
    auto turtle = linkeddata::GenerateArchaeologicalSites(scene_, sites, 5);
    EXPECT_TRUE(turtle.ok()) << turtle.status().ToString();
    if (!chain.ok() || !turtle.ok()) return {};
    *site_turtle = *turtle;
    EXPECT_TRUE(veo_.LoadLinkedData(*site_turtle).ok());
    return *chain;
  }

  fs::path dir_;
  eo::ProductMetadata l1_;
  eo::Scene scene_;
  VirtualEarthObservatory veo_;
};

TEST_F(ObservatoryTest, OntologyPreloaded) {
  auto classes = veo_.StSparql(
      "SELECT ?c WHERE { ?c a <http://www.w3.org/2002/07/owl#Class> }");
  ASSERT_TRUE(classes.ok());
  EXPECT_GT(classes->num_rows(), 10u);
}

TEST_F(ObservatoryTest, OntologyLoadOutcomeIsObservable) {
  // Regression: the constructor used to drop the Status of the
  // compiled-in ontology load entirely; it is now kept sticky so a
  // failure would be visible to callers instead of manifesting as
  // mysteriously empty taxonomy queries.
  EXPECT_TRUE(veo_.ontology_status().ok());
}

TEST_F(ObservatoryTest, AttachAndQueryMetadata) {
  auto n = veo_.AttachArchive(dir_.string());
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 1u);
  auto meta = veo_.Sql("SELECT name FROM vault_rasters");
  ASSERT_TRUE(meta.ok());
  EXPECT_EQ(meta->num_rows(), 1u);
}

TEST_F(ObservatoryTest, SciQlAfterRegister) {
  ASSERT_TRUE(veo_.AttachArchive(dir_.string()).ok());
  ASSERT_TRUE(veo_.RegisterRaster("msg").ok());
  ASSERT_TRUE(veo_.RegisterRaster("msg").ok());  // idempotent
  auto r = veo_.SciQl("SELECT count(*) AS n FROM msg WHERE LANDMASK > 0.5");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(r->Get(0, 0).AsInt64(), 0);
}

TEST_F(ObservatoryTest, FullScenarioThroughFacade) {
  ASSERT_TRUE(veo_.AttachArchive(dir_.string()).ok());
  ASSERT_TRUE(
      veo_.LoadLinkedData(*linkeddata::GenerateCoastline(scene_)).ok());
  noa::ChainConfig config;
  config.classifier.kind = noa::ClassifierKind::kThreshold;
  config.classifier.threshold_kelvin = 315.0;
  auto result = veo_.RunFireChain("msg", config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  auto report = veo_.Refine(result->product_id);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->hotspots_examined, result->hotspots.size());
  // Products visible to SQL and stSPARQL.
  auto sql_products = veo_.Sql("SELECT id FROM products");
  ASSERT_TRUE(sql_products.ok());
  EXPECT_EQ(sql_products->num_rows(), 1u);
  auto rdf_products =
      veo_.StSparql("SELECT ?p WHERE { ?p a noa:Product }");
  ASSERT_TRUE(rdf_products.ok());
  EXPECT_EQ(rdf_products->num_rows(), 1u);
  // A map over the same store renders.
  auto mapper = veo_.MakeMapper();
  ASSERT_TRUE(mapper
                  .AddQueryLayer("hotspots", "#dd2200", '#',
                                 "SELECT ?g WHERE { ?h a noa:Hotspot ; "
                                 "noa:hasGeometry ?g }")
                  .ok());
  EXPECT_NE(mapper.RenderSvg().find("<svg"), std::string::npos);
}

TEST_F(ObservatoryTest, UpdateThroughFacade) {
  auto n = veo_.StSparqlUpdate(
      "INSERT DATA { <http://x/a> a noa:Hotspot }");
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 1u);
  auto hot = veo_.StSparql("SELECT ?h WHERE { ?h a noa:Hotspot }");
  ASSERT_TRUE(hot.ok());
  EXPECT_EQ(hot->num_rows(), 1u);
}

TEST_F(ObservatoryTest, ErrorsSurface) {
  EXPECT_FALSE(veo_.RegisterRaster("missing").ok());
  EXPECT_FALSE(veo_.Sql("SELECT * FROM nope").ok());
  EXPECT_FALSE(veo_.Refine("no-such-product").ok());
}

TEST_F(ObservatoryTest, InvalidRegexPatternIsAFilterError) {
  ASSERT_TRUE(veo_.LoadLinkedData("@prefix ex: <http://example.org/> .\n"
                                  "ex:a ex:name \"alpha\" .\n")
                  .ok());
  // A pattern that does not compile is an evaluation error in every row,
  // which FILTER treats as false: no row passes, and nothing throws.
  auto bad = veo_.StSparql(
      "SELECT ?s WHERE { ?s ?p ?o . FILTER(regex(str(?o), \"(\")) }");
  ASSERT_TRUE(bad.ok()) << bad.status().ToString();
  EXPECT_EQ(bad->num_rows(), 0u);
  // One pattern compiled with and without the "i" flag in one statement.
  auto good = veo_.StSparql(
      "PREFIX ex: <http://example.org/> SELECT ?s WHERE { ?s ex:name ?o . "
      "FILTER(regex(?o, \"^AL\", \"i\") && !regex(?o, \"^AL\")) }");
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  EXPECT_EQ(good->num_rows(), 1u);
}

TEST_F(ObservatoryTest, ProfileSqlReturnsSpanTree) {
  ASSERT_TRUE(veo_.AttachArchive(dir_.string()).ok());
  auto profile = veo_.Sql("PROFILE SELECT name FROM vault_rasters");
  ASSERT_TRUE(profile.ok()) << profile.status().ToString();
  ASSERT_EQ(profile->schema().field(0).name, "span");
  std::set<std::string> names = SpanNames(*profile);
  EXPECT_TRUE(names.count("sql"));
  EXPECT_TRUE(names.count("parse"));
  EXPECT_TRUE(names.count("plan"));
  EXPECT_TRUE(names.count("execute"));
  // Root row: depth 0, result cardinality in the detail column.
  EXPECT_EQ(profile->Get(0, 0).AsString(), "sql");
  EXPECT_EQ(profile->Get(0, 1).AsInt64(), 0);
  EXPECT_NE(profile->Get(0, 3).AsString().find("rows=1"), std::string::npos);
  // PROFILE is case-insensitive; errors still surface as errors.
  EXPECT_TRUE(veo_.Sql("profile SELECT name FROM vault_rasters").ok());
  EXPECT_FALSE(veo_.Sql("PROFILE SELECT * FROM nope").ok());
}

TEST_F(ObservatoryTest, ProfileJoinShowsEveryOperatorUnderExecute) {
  for (const char* sql :
       {"CREATE TABLE products (id VARCHAR, satellite VARCHAR)",
        "CREATE TABLE hotspots (product_id VARCHAR, confidence DOUBLE)",
        "INSERT INTO products VALUES ('p1', 'MSG2'), ('p2', 'TERRA')",
        "INSERT INTO hotspots VALUES ('p1', 0.9), ('p1', 0.2), ('p2', 0.8)"}) {
    ASSERT_TRUE(veo_.Sql(sql).ok()) << sql;
  }
  auto profile = veo_.Sql(
      "PROFILE SELECT count(*) AS n FROM hotspots JOIN products ON "
      "hotspots.product_id = products.id WHERE products.satellite = 'MSG2' "
      "AND hotspots.confidence > 0.5");
  ASSERT_TRUE(profile.ok()) << profile.status().ToString();
  // The direct children of `execute`, in order, with their details.
  std::vector<std::string> children;
  int64_t execute_depth = -1;
  for (size_t r = 0; r < profile->num_rows(); ++r) {
    std::string name = profile->Get(r, 0).AsString();
    int64_t depth = profile->Get(r, 1).AsInt64();
    if (execute_depth < 0) {
      if (name == "execute") execute_depth = depth;
      continue;
    }
    if (depth <= execute_depth) break;
    if (depth > execute_depth + 1) continue;
    children.push_back(name == "filter"
                           ? name + " " + profile->Get(r, 3).AsString()
                           : name);
  }
  // Both pushdown filters run in their own span below the join.
  ASSERT_EQ(children.size(), 8u);
  EXPECT_EQ(children[0], "plan");
  EXPECT_EQ(children[1], "scan");
  EXPECT_EQ(children[2].rfind("filter side=left", 0), 0u) << children[2];
  EXPECT_EQ(children[3], "scan");
  EXPECT_EQ(children[4].rfind("filter side=right", 0), 0u) << children[4];
  EXPECT_EQ(children[5], "hash join");
  EXPECT_EQ(children[6], "aggregate");
  EXPECT_EQ(children[7], "project");
}

TEST_F(ObservatoryTest, ProfileShowsWhichFilterPathRan) {
  for (const char* sql :
       {"CREATE TABLE products (id VARCHAR, satellite VARCHAR)",
        "INSERT INTO products VALUES ('p1', 'MSG2'), ('p2', 'TERRA'), "
        "('p3', 'MSG2')"}) {
    ASSERT_TRUE(veo_.Sql(sql).ok()) << sql;
  }
  // The detail of the first `filter` span.
  auto filter_detail = [&](const std::string& sql) -> std::string {
    auto profile = veo_.Sql("PROFILE " + sql);
    EXPECT_TRUE(profile.ok()) << sql << ": " << profile.status().ToString();
    for (size_t r = 0; profile.ok() && r < profile->num_rows(); ++r) {
      if (profile->Get(r, 0).AsString() == "filter") {
        return profile->Get(r, 3).AsString();
      }
    }
    return "no filter span";
  };
  std::string in_list = filter_detail(
      "SELECT id FROM products WHERE id IN ('p1', 'p3', 'p9')");
  EXPECT_NE(in_list.find("path=vectorized"), std::string::npos) << in_list;
  EXPECT_NE(in_list.find("rows=2"), std::string::npos) << in_list;
  std::string like =
      filter_detail("SELECT id FROM products WHERE satellite LIKE 'MSG%'");
  EXPECT_NE(like.find("path=interpreted"), std::string::npos) << like;
}

TEST_F(ObservatoryTest, ProfileSciQlReturnsSpanTree) {
  ASSERT_TRUE(veo_.AttachArchive(dir_.string()).ok());
  ASSERT_TRUE(veo_.RegisterRaster("msg").ok());
  auto profile =
      veo_.SciQl("PROFILE SELECT y, x FROM \"msg\"[0:8, 0:8] WHERE IR039 > 0");
  ASSERT_TRUE(profile.ok()) << profile.status().ToString();
  std::set<std::string> names = SpanNames(*profile);
  EXPECT_TRUE(names.count("sciql"));
  EXPECT_TRUE(names.count("parse"));
  EXPECT_TRUE(names.count("materialize"));
  EXPECT_TRUE(names.count("plan"));
  EXPECT_TRUE(names.count("execute"));
}

TEST_F(ObservatoryTest, ProfileStSparqlReturnsSpanTree) {
  auto profile = veo_.StSparql(
      "PROFILE SELECT ?c WHERE { ?c a <http://www.w3.org/2002/07/owl#Class> "
      "}");
  ASSERT_TRUE(profile.ok()) << profile.status().ToString();
  std::set<std::string> names = SpanNames(*profile);
  EXPECT_TRUE(names.count("stsparql"));
  EXPECT_TRUE(names.count("parse"));
  EXPECT_TRUE(names.count("plan"));
  EXPECT_TRUE(names.count("execute"));
}

TEST_F(ObservatoryTest, HeadlineQueryMatchesBruteForceOracle) {
  std::string site_turtle;
  noa::ChainResult chain = LoadHeadlineWorld(400, &site_turtle);
  ASSERT_FALSE(chain.hotspots.empty());

  // The oracle reads no stSPARQL: the product's conditions from its
  // metadata, the sites from their own parse of the Turtle, and every
  // hotspot x site pair through GeodesicDistanceMeters.
  const std::string ns = eo::kNoaNs;
  auto footprint = geo::ParseWkt(l1_.footprint_wkt);
  ASSERT_TRUE(footprint.ok());
  ASSERT_EQ(l1_.satellite, "Meteosat-9");
  ASSERT_GE(l1_.acquisition_time,
            *strabon::ParseDateTime("2007-08-25T00:00:00"));
  ASSERT_LT(l1_.acquisition_time,
            *strabon::ParseDateTime("2007-08-26T00:00:00"));
  ASSERT_TRUE(
      geo::Contains(*footprint, geo::Geometry::MakePoint(22.2, 37.3)));
  rdf::TripleStore sites;
  ASSERT_TRUE(rdf::ParseTurtle(site_turtle, &sites).ok());
  std::vector<std::pair<std::string, geo::Geometry>> site_geometries;
  for (const rdf::Triple& t : sites.Match(
           std::nullopt,
           rdf::Term::Iri("http://strdf.di.uoa.gr/ontology#hasGeometry"),
           std::nullopt)) {
    auto g = geo::ParseWkt(sites.dict().At(t.o).lexical);
    ASSERT_TRUE(g.ok());
    site_geometries.emplace_back(sites.dict().At(t.s).lexical, *g);
  }
  ASSERT_EQ(site_geometries.size(), 400u);
  std::vector<std::string> expected;
  for (const noa::Hotspot& h : chain.hotspots) {
    // The geometry as stored: the hotspot's WKT literal, parsed back.
    auto hg = geo::ParseWkt(geo::WriteWkt(h.geometry));
    ASSERT_TRUE(hg.ok());
    for (const auto& [site, sg] : site_geometries) {
      if (geo::GeodesicDistanceMeters(*hg, sg) < 2000.0) {
        expected.push_back(ns + "product/" + l1_.id + " " + ns + "hotspot/" +
                           chain.product_id + "/" + std::to_string(h.id) +
                           " " + site);
      }
    }
  }
  std::sort(expected.begin(), expected.end());
  ASSERT_FALSE(expected.empty());

  for (bool use_index : {true, false}) {
    SCOPED_TRACE(use_index ? "index on" : "index off");
    veo_.strabon().set_spatial_index_enabled(use_index);
    auto r = veo_.strabon().Select(kHeadlineQuery);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    std::vector<std::string> got;
    for (size_t row = 0; row < r->num_rows(); ++row) {
      std::string line;
      for (size_t c = 0; c < r->num_columns(); ++c) {
        if (!line.empty()) line += " ";
        line += veo_.strabon().store().dict().At(r->column(c).GetInt64(row))
                    .lexical;
      }
      got.push_back(line);
    }
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, expected);
  }
}

TEST_F(ObservatoryTest, ProfileHeadlineShowsTheSpatialJoin) {
  const int kSites = 200;
  std::string site_turtle;
  noa::ChainResult chain = LoadHeadlineWorld(kSites, &site_turtle);
  ASSERT_FALSE(chain.hotspots.empty());
  auto profile = veo_.StSparql(std::string("PROFILE ") + kHeadlineQuery);
  ASSERT_TRUE(profile.ok()) << profile.status().ToString();
  std::string detail;
  for (size_t r = 0; r < profile->num_rows(); ++r) {
    if (profile->Get(r, 0).AsString() == "match") {
      detail = profile->Get(r, 3).AsString();
    }
  }
  // The BGP joins each hotspot to the sites near it through the R-tree;
  // it no longer builds the hotspot x site cross product.
  size_t pos = detail.find("bgp_rows=");
  ASSERT_NE(pos, std::string::npos) << detail;
  size_t bgp_rows = std::stoull(detail.substr(pos + 9));
  EXPECT_LT(bgp_rows, chain.hotspots.size() * kSites) << detail;
  EXPECT_NE(detail.find("spatial_join_probes=" +
                        std::to_string(chain.hotspots.size())),
            std::string::npos)
      << detail;
}

TEST_F(ObservatoryTest, FireChainPopulatesMetrics) {
  obs::MetricsRegistry::Global().Reset();
  ASSERT_TRUE(veo_.AttachArchive(dir_.string()).ok());
  noa::ChainConfig config;
  config.classifier.kind = noa::ClassifierKind::kThreshold;
  config.classifier.threshold_kelvin = 315.0;
  auto result = veo_.RunFireChain("msg", config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // The chain trace drives the timings and records the tier spans.
  EXPECT_EQ(result->trace.name, "noa.chain");
  ASSERT_EQ(result->timings.size(), 4u);
  EXPECT_EQ(result->timings[0].step, "ingestion");
  EXPECT_EQ(result->timings[1].step, "crop+classify (SciQL)");
  EXPECT_NE(result->trace.Find("vault.ingest"), nullptr);
  EXPECT_NE(result->trace.Find("sciql.statement"), nullptr);
  // MetricsText() reports nonzero ingest/classification/extraction work.
  std::string text = veo_.MetricsText();
  EXPECT_GT(ExpositionValue(text, "teleios_vault_rasters_ingested_total"), 0);
  EXPECT_GT(ExpositionValue(text, "teleios_noa_fire_pixels_total"), 0);
  EXPECT_GT(ExpositionValue(text, "teleios_noa_hotspots_extracted_total"), 0);
  EXPECT_GT(ExpositionValue(text, "teleios_noa_chain_runs_total"), 0);
  EXPECT_GT(
      ExpositionValue(
          text, "teleios_noa_stage_millis_count{stage=\"classification\"}"),
      0);
  EXPECT_NE(text.find("teleios_noa_chain_millis"), std::string::npos);
}

}  // namespace
}  // namespace teleios::core
