#include <algorithm>
#include <cmath>
#include <cstdio>

#include "eo/product.h"
#include "linkeddata/generators.h"
#include "noa/chain.h"
#include "obs/metrics.h"
#include "strabon/temporal.h"
#include "vault/formats.h"
#include "workloads.h"

namespace perfbench {

using storage::ColumnType;
using storage::Schema;
using storage::Table;

namespace {

const char* const kSatellites[] = {"Meteosat-8", "Meteosat-9", "Meteosat-10",
                                   "NOAA-18",    "Terra",      "Aqua"};
const char* const kLevels[] = {"L0", "L1", "L2"};
constexpr int kNumSatellites = 6;
constexpr int kNumLevels = 3;
/// Generated products are acquired from 2011 on, one a minute, so none
/// falls on the scene's 2007 acquisition and the chain's own product row
/// never enters a generated range.
constexpr int64_t kProductEpoch = 1293840000;

std::string ProductId(size_t i) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "P%07zu", i);
  return buf;
}

std::string Box(double lon0, double lat0, double lon1, double lat1) {
  char buf[200];
  std::snprintf(buf, sizeof(buf),
                "POLYGON ((%.4f %.4f, %.4f %.4f, %.4f %.4f, %.4f %.4f, "
                "%.4f %.4f))",
                lon0, lat0, lon1, lat0, lon1, lat1, lon0, lat1, lon0, lat0);
  return buf;
}

std::string Str(int64_t v) { return std::to_string(v); }

/// Column index by name; throws when the result lost the column.
size_t Col(const Table& t, const std::string& name) {
  int i = t.schema().FieldIndex(name);
  if (i < 0) throw BenchError("result has no column " + name);
  return static_cast<size_t>(i);
}

/// Generator-side view of the products and hotspots tables.
struct Generated {
  std::vector<int64_t> acq;  // ascending
  std::vector<int> sat;
  std::vector<int> level;
  std::vector<size_t> hot_product;
  std::vector<double> hot_conf;
};

Generated GenerateTables(const ReadSizes& sizes, uint64_t seed,
                         core::VirtualEarthObservatory* veo) {
  Rng rng(seed * 7919 + 11);
  Generated g;
  auto products = std::make_shared<Table>(Schema({
      {"id", ColumnType::kString},
      {"satellite", ColumnType::kString},
      {"sensor", ColumnType::kString},
      {"level", ColumnType::kString},
      {"acq_time", ColumnType::kInt64},
      {"footprint", ColumnType::kString},
      {"path", ColumnType::kString},
      {"derived_from", ColumnType::kString},
  }));
  for (size_t i = 0; i < sizes.products; ++i) {
    int sat = static_cast<int>(rng.Below(kNumSatellites));
    int level = static_cast<int>(rng.Below(kNumLevels));
    int64_t acq = kProductEpoch + static_cast<int64_t>(i) * 60 +
                  static_cast<int64_t>(rng.Below(60));
    double lon = 19.0 + rng.Uniform() * 8.0;
    double lat = 34.0 + rng.Uniform() * 7.0;
    std::string id = ProductId(i);
    products->column(0).AppendString(id);
    products->column(1).AppendString(kSatellites[sat]);
    products->column(2).AppendString(sat < 3 ? "SEVIRI" : "MODIS");
    products->column(3).AppendString(kLevels[level]);
    products->column(4).AppendInt64(acq);
    products->column(5).AppendString(Box(lon, lat, lon + 2.5, lat + 2.3));
    products->column(6).AppendString("/archive/" + id + ".ter");
    products->column(7).AppendString(
        level == 0 || i == 0 ? "" : ProductId(rng.Below(i)));
    g.acq.push_back(acq);
    g.sat.push_back(sat);
    g.level.push_back(level);
  }
  Must(veo->catalog().CreateTable("products", products), "create products");

  auto hotspots = std::make_shared<Table>(Schema({
      {"id", ColumnType::kInt64},
      {"product_id", ColumnType::kString},
      {"lon", ColumnType::kFloat64},
      {"lat", ColumnType::kFloat64},
      {"confidence", ColumnType::kFloat64},
      {"detected_at", ColumnType::kInt64},
  }));
  for (size_t i = 0; i < sizes.hotspots; ++i) {
    size_t p = rng.Below(sizes.products);
    double conf = std::round(rng.Uniform() * 1000.0) / 1000.0;
    hotspots->column(0).AppendInt64(static_cast<int64_t>(i));
    hotspots->column(1).AppendString(ProductId(p));
    hotspots->column(2).AppendFloat64(21.0 + rng.Uniform() * 2.5);
    hotspots->column(3).AppendFloat64(36.2 + rng.Uniform() * 2.3);
    hotspots->column(4).AppendFloat64(conf);
    hotspots->column(5).AppendInt64(g.acq[p]);
    g.hot_product.push_back(p);
    g.hot_conf.push_back(conf);
  }
  Must(veo->catalog().CreateTable("hotspots", hotspots), "create hotspots");
  return g;
}

void AddSqlPools(const ReadSizes& sizes, uint64_t seed, const Generated& g,
                 World* w) {
  Rng rng(seed * 104729 + 3);
  const size_t n = sizes.products;

  for (int i = 0; i < 256; ++i) {
    size_t k = rng.Below(n);
    int64_t acq = g.acq[k];
    std::string sat = kSatellites[g.sat[k]];
    w->pools["lookup"].push_back(
        {"lookup", server::Lang::kSql,
         "SELECT id, satellite, level, acq_time FROM products WHERE id = '" +
             ProductId(k) + "'",
         [acq, sat](const Table& t) -> std::string {
           if (t.num_rows() != 1) return "lookup rows " + Str(t.num_rows());
           if (t.Get(0, Col(t, "acq_time")).AsInt64() != acq ||
               t.Get(0, Col(t, "satellite")).ToString() != sat) {
             return "lookup row differs from the generator";
           }
           return "";
         }});
  }

  for (int i = 0; i < 64; ++i) {
    // Windows of 2-20 hours: 120 to 1200 rows.
    int64_t lo = kProductEpoch +
                 static_cast<int64_t>(rng.Below(n > 1300 ? n - 1300 : 1)) * 60;
    int64_t hi = lo + 7200 + static_cast<int64_t>(rng.Below(64800));
    size_t expect =
        static_cast<size_t>(std::lower_bound(g.acq.begin(), g.acq.end(), hi) -
                            std::lower_bound(g.acq.begin(), g.acq.end(), lo));
    w->pools["range"].push_back(
        {"range", server::Lang::kSql,
         "SELECT id, acq_time FROM products WHERE acq_time >= " + Str(lo) +
             " AND acq_time < " + Str(hi),
         [lo, hi, expect](const Table& t) -> std::string {
           if (t.num_rows() != expect) {
             return "range rows " + Str(t.num_rows()) + " != " + Str(expect);
           }
           size_t c = Col(t, "acq_time");
           for (size_t r = 0; r < t.num_rows(); ++r) {
             int64_t v = t.column(c).GetInt64(r);
             if (v < lo || v >= hi) return "range row outside its window";
           }
           return "";
         }});
  }

  for (int i = 0; i < 8; ++i) {
    // Dashboards over the latest 5-25% of the archive, one window drawn
    // from each eighth of that span so every seed's pool costs the same.
    int64_t from =
        kProductEpoch +
        static_cast<int64_t>(static_cast<double>(n) *
                             (0.75 + 0.2 * (i + rng.Uniform()) / 8.0)) * 60;
    std::map<std::string, std::pair<int64_t, int64_t>> expect;
    for (size_t k = 0; k < n; ++k) {
      if (g.acq[k] < from) continue;
      auto& [count, latest] =
          expect[std::string(kSatellites[g.sat[k]]) + "/" + kLevels[g.level[k]]];
      ++count;
      latest = std::max(latest, g.acq[k]);
    }
    w->pools["aggregate"].push_back(
        {"aggregate", server::Lang::kSql,
         "SELECT satellite, level, count(*) AS n, max(acq_time) AS latest "
         "FROM products WHERE acq_time >= " +
             Str(from) + " GROUP BY satellite, level",
         [expect](const Table& t) -> std::string {
           if (t.num_rows() != expect.size()) {
             return "aggregate groups " + Str(t.num_rows());
           }
           size_t cs = Col(t, "satellite"), cl = Col(t, "level"),
                  cn = Col(t, "n"), cm = Col(t, "latest");
           for (size_t r = 0; r < t.num_rows(); ++r) {
             auto it = expect.find(t.Get(r, cs).ToString() + "/" +
                                   t.Get(r, cl).ToString());
             if (it == expect.end() ||
                 t.Get(r, cn).AsInt64() != it->second.first ||
                 t.Get(r, cm).AsInt64() != it->second.second) {
               return "aggregate group differs from the generator";
             }
           }
           return "";
         }});
  }

  for (int i = 0; i < 12; ++i) {
    // Every satellite in turn and one threshold from each twelfth of
    // 0-0.9, so every seed's pool costs the same.
    int sat = i % kNumSatellites;
    double conf = std::round((i + rng.Uniform()) / 12.0 * 900.0) / 1000.0;
    int64_t expect = 0;
    for (size_t h = 0; h < g.hot_product.size(); ++h) {
      if (g.sat[g.hot_product[h]] == sat && g.hot_conf[h] > conf) ++expect;
    }
    char conf_text[32];
    std::snprintf(conf_text, sizeof(conf_text), "%.3f", conf);
    w->pools["join"].push_back(
        {"join", server::Lang::kSql,
         std::string("SELECT count(*) AS n FROM hotspots JOIN products ON "
                     "hotspots.product_id = products.id WHERE "
                     "products.satellite = '") +
             kSatellites[sat] + "' AND hotspots.confidence > " + conf_text,
         [expect](const Table& t) -> std::string {
           if (t.num_rows() != 1 || t.Get(0, 0).AsInt64() != expect) {
             return "join count differs from the generator (" + Str(expect) +
                    ")";
           }
           return "";
         }});
  }
}

void AddSciQlPools(uint64_t seed, World* w) {
  Rng rng(seed * 15485863 + 5);
  const teleios::eo::Scene& s = w->scene;
  const int size = s.spec.width;
  for (int i = 0; i < 8; ++i) {
    teleios::noa::ChainConfig config;
    config.classifier.kind = teleios::noa::ClassifierKind::kContextual;
    config.classifier.diff_kelvin = 6.0 + static_cast<double>(i);
    config.classifier.min_t39 = 300.0 + 2.0 * static_cast<double>(rng.Below(5));
    // Oracle: the same predicate as a raw loop over the scene bands.
    int64_t expect = 0;
    int64_t coord_sum = 0;
    for (size_t p = 0; p < s.PixelCount(); ++p) {
      double cloud = s.cloudmask[p], land = s.landmask[p];
      if (s.tir039[p] - s.tir108[p] > config.classifier.diff_kelvin &&
          s.tir039[p] > config.classifier.min_t39 && cloud < 0.5 &&
          land > 0.5) {
        ++expect;
        coord_sum += static_cast<int64_t>(p);
      }
    }
    w->pools["classify"].push_back(
        {"classify", server::Lang::kSciQl,
         teleios::noa::ProcessingChain::ClassificationSciQl(w->raster, config),
         [expect, coord_sum, size](const Table& t) -> std::string {
           if (static_cast<int64_t>(t.num_rows()) != expect) {
             return "classify count " + Str(t.num_rows()) + " != raw loop " +
                    Str(expect);
           }
           size_t cy = Col(t, "y"), cx = Col(t, "x");
           int64_t sum = 0;
           for (size_t r = 0; r < t.num_rows(); ++r) {
             sum += t.column(cy).GetInt64(r) * size + t.column(cx).GetInt64(r);
           }
           if (sum != coord_sum) return "classify pixels differ from raw loop";
           return "";
         }});
  }
  const int crop = std::min(64, size);
  for (int i = 0; i < 32; ++i) {
    int y0 = static_cast<int>(rng.Below(static_cast<uint64_t>(size - crop + 1)));
    int x0 = static_cast<int>(rng.Below(static_cast<uint64_t>(size - crop + 1)));
    double expect_sum = 0;
    for (int y = y0; y < y0 + crop; ++y) {
      for (int x = x0; x < x0 + crop; ++x) {
        expect_sum += s.tir039[static_cast<size_t>(y) * size + x];
      }
    }
    char text[200];
    std::snprintf(text, sizeof(text),
                  "SELECT y, x, IR039, IR108 FROM \"%s\"[%d:%d, %d:%d]",
                  w->raster.c_str(), y0, y0 + crop, x0, x0 + crop);
    const size_t cells = static_cast<size_t>(crop) * crop;
    w->pools["crop"].push_back(
        {"crop", server::Lang::kSciQl, text,
         [expect_sum, cells](const Table& t) -> std::string {
           if (t.num_rows() != cells) return "crop cells " + Str(t.num_rows());
           size_t c = Col(t, "IR039");
           double sum = 0;
           for (size_t r = 0; r < t.num_rows(); ++r) {
             sum += t.column(c).GetFloat64(r);
           }
           if (std::fabs(sum - expect_sum) > 1e-6 * std::fabs(expect_sum)) {
             return "crop IR039 sum differs from raw loop";
           }
           return "";
         }});
  }
}

/// stSPARQL oracles are an in-process reference run at set-up: the wire
/// result must fingerprint like the direct Strabon::Query result.
void AddStSparqlPool(World* w, const std::string& cls,
                     const std::vector<std::string>& queries) {
  for (const std::string& q : queries) {
    Table reference = Must(w->veo->strabon().Query(q), "reference " + cls);
    TableFingerprint expect = Fingerprint(reference);
    w->pools[cls].push_back(
        {cls, server::Lang::kStSparql, q,
         [expect, cls](const Table& t) -> std::string {
           TableFingerprint got = Fingerprint(t);
           if (got != expect) {
             return cls + " answers differ from the reference run (" +
                    Str(got.rows) + " vs " + Str(expect.rows) + " rows)";
           }
           return "";
         }});
  }
}

}  // namespace

const char* const kPrefixes =
    "PREFIX dbo: <http://dbpedia.org/ontology/>\n"
    "PREFIX geonames: <http://www.geonames.org/ontology#>\n";

std::string HeadlineQuery() {
  return std::string(kPrefixes) + R"sparql(SELECT DISTINCT ?product ?site ?label
WHERE {
  ?product a noa:Product ;
           noa:producedBySatellite "Meteosat-9" ;
           noa:hasAcquisitionTime ?t ;
           noa:hasGeometry ?pg .
  ?hotspot a noa:Hotspot ;
           noa:derivedFromProduct ?l2 ;
           noa:hasGeometry ?hg .
  ?l2 noa:wasDerivedFrom ?product .
  ?site a dbo:ArchaeologicalSite ;
        rdfs:label ?label ;
        strdf:hasGeometry ?sg .
  FILTER(?t >= "2007-08-25T00:00:00"^^xsd:dateTime)
  FILTER(?t < "2007-08-26T00:00:00"^^xsd:dateTime)
  FILTER(strdf:contains(?pg, "POINT (22.2 37.3)"^^strdf:WKT))
  FILTER(strdf:geodesicDistance(?hg, ?sg) < 2000.0)
}
ORDER BY ?label)sparql";
}

World::~World() {
  if (server != nullptr) (void)server->Shutdown();
}

void World::StartServer() {
  server::ServerConfig config = server::ServerConfig::FromEnv();
  config.port = 0;  // ephemeral loopback port
  server = std::make_unique<server::TeleiosServer>(veo.get(), config);
  Must(server->Start(), "server start");
}

server::Client World::Connect() const {
  return Must(server::Client::Connect("127.0.0.1", server->port()),
              "client connect");
}

std::unique_ptr<World> BuildReadWorld(const ReadSizes& sizes, uint64_t seed,
                                      const std::string& dir,
                                      const std::string& name) {
  auto w = std::make_unique<World>();
  w->name = name;
  w->dir = dir;
  w->veo = std::make_unique<core::VirtualEarthObservatory>();
  core::VirtualEarthObservatory& veo = *w->veo;
  Must(veo.ontology_status(), "ontology");

  Generated g = GenerateTables(sizes, seed, &veo);

  // The six-band SEVIRI-like scene, attached through the vault. It is the
  // same for every seed: the headline query pairs every hotspot the chain
  // finds in it with every site, so a seeded scene would make its cost,
  // and connection 0's share of the traffic, vary from seed to seed. The
  // seed still picks the tables, the sites, the towns and the statements.
  teleios::eo::SceneSpec spec;
  spec.width = spec.height = sizes.raster;
  spec.seed = 7;
  spec.num_fires = 8;
  spec.name = "wr_scene";
  w->scene = Must(teleios::eo::GenerateScene(spec), "scene");
  std::string archive = MakeWorkDir(dir, "archive");
  Must(teleios::vault::WriteTer(w->scene.ToTerRaster(),
                                archive + "/wr_scene.ter"),
       "write scene");
  Must(veo.AttachArchive(archive), "attach");
  Must(veo.RegisterRaster("wr_scene"), "register raster");
  w->raster = "wr_scene";

  // The stRDF store: the L1 product, one chain run, sites and towns.
  teleios::vault::TerHeader header =
      Must(veo.vault().GetRasterHeader("wr_scene"), "header");
  Must(teleios::eo::RegisterProductTriples(
           teleios::eo::MetadataFromHeader(header,
                                           teleios::eo::ProductLevel::kL1),
           &veo.strabon()),
       "L1 triples");
  teleios::noa::ChainConfig chain;
  chain.classifier.kind = teleios::noa::ClassifierKind::kContextual;
  w->chain_product = Must(veo.RunFireChain("wr_scene", chain), "chain run")
                         .product_id;
  Must(veo.LoadLinkedData(Must(
           teleios::linkeddata::GenerateCoastline(w->scene), "coastline")),
       "load coastline");
  Must(veo.LoadLinkedData(Must(teleios::linkeddata::GenerateArchaeologicalSites(
                                   w->scene, sizes.sites, seed + 101),
                               "sites")),
       "load sites");
  Must(veo.LoadLinkedData(Must(
           teleios::linkeddata::GenerateTowns(w->scene, sizes.towns, seed + 202),
           "towns")),
       "load towns");
  w->has_headline = true;

  AddSqlPools(sizes, seed, g, w.get());
  AddSciQlPools(seed, w.get());

  AddStSparqlPool(w.get(), "headline", {HeadlineQuery()});
  Rng rng(seed * 2654435761u + 9);
  std::vector<std::string> windows;
  for (int i = 0; i < 8; ++i) {
    // Windows opening at midnight of 24-27 Aug 2007; those that reach
    // 25 Aug 10:00 find the scene's two products.
    int64_t day = 1188000000 + (static_cast<int64_t>(rng.Below(4)) - 1) * 86400;
    int64_t hours = 6 + static_cast<int64_t>(rng.Below(36));
    windows.push_back(
        "SELECT ?p ?t ?level WHERE { ?p a noa:Product ; "
        "noa:hasAcquisitionTime ?t ; noa:hasProcessingLevel ?level . "
        "FILTER(?t >= \"" + teleios::strabon::FormatDateTime(day) +
        "\"^^xsd:dateTime) FILTER(?t < \"" +
        teleios::strabon::FormatDateTime(day + hours * 3600) +
        "\"^^xsd:dateTime) } ORDER BY ?t");
  }
  AddStSparqlPool(w.get(), "window", windows);
  std::vector<std::string> areas;
  for (int i = 0; i < 16; ++i) {
    double lon = 21.0 + rng.Uniform() * 2.2;
    double lat = 36.2 + rng.Uniform() * 2.0;
    double span = 0.1 + rng.Uniform() * 0.4;
    areas.push_back(
        std::string(kPrefixes) +
        "SELECT ?f WHERE { ?f strdf:hasGeometry ?g . "
        "FILTER(strdf:intersects(?g, \"" +
        Box(lon, lat, lon + span, lat + span) + "\"^^strdf:WKT)) }");
  }
  AddStSparqlPool(w.get(), "intersects", areas);

  w->StartServer();
  return w;
}

Snapshot TakeSnapshot(World& world) {
  Snapshot snap;
  Table t = Must(world.veo->Sql("SELECT name, value FROM sys.metrics"),
                 "sys.metrics");
  for (size_t r = 0; r < t.num_rows(); ++r) {
    snap.metrics[t.column(0).GetString(r)] = t.column(1).GetFloat64(r);
  }
  snap.durability = world.veo->durability_stats();
  snap.vault = world.veo->vault().stats();
  return snap;
}

std::map<std::string, double> MetricDeltas(const Snapshot& before,
                                           const Snapshot& after) {
  std::map<std::string, double> out;
  for (const auto& [name, v] : after.metrics) {
    auto it = before.metrics.find(name);
    double d = v - (it == before.metrics.end() ? 0 : it->second);
    // Counters only: gauges and histogram quantiles are not additive.
    bool counter = name.find("_total") != std::string::npos ||
                   name.find("_count") != std::string::npos;
    if (counter && d != 0) out[name] = d;
  }
  return out;
}

double SumDeltas(const std::map<std::string, double>& deltas,
                 const std::string& prefix) {
  double sum = 0;
  for (const auto& [name, v] : deltas) {
    if (name.rfind(prefix, 0) == 0) sum += v;
  }
  return sum;
}

WktLookups ReadWktLookups() {
  teleios::obs::MetricsRegistry& registry = teleios::obs::MetricsRegistry::Global();
  return {static_cast<double>(
              registry.GetCounter("teleios_strabon_wkt_cache_hits_total")->value()),
          static_cast<double>(
              registry.GetCounter("teleios_strabon_wkt_parses_total")->value())};
}

void AddWktLookupsSince(const WktLookups& before, WktLookups* sum) {
  WktLookups now = ReadWktLookups();
  sum->hits += now.hits - before.hits;
  sum->parses += now.parses - before.parses;
}

Metric P50(const std::vector<double>& v, const std::string& unit) {
  return {Quantile(v, 0.5), unit, v.size(), "p50"};
}

Metric P99(const std::vector<double>& v) {
  return {Quantile(v, 0.99), "ms", v.size(),
          v.size() >= 1000 ? "p99" : "p99 (fewer than 10 samples beyond it)"};
}

}  // namespace perfbench
