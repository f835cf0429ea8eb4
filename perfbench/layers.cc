// Per-layer metrics of the traced runs. Each one times direct calls into
// a module's public functions, or reads the spans and counter snapshots
// of the workload's traced loop. A probe runs on the workload's own world
// when that world holds what it needs (its tables, raster, store, server
// or durable directory); otherwise on a small probe world built for the
// purpose, and the metric's note says so.

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "noa/chain.h"
#include "relational/operators.h"
#include "relational/sql_engine.h"
#include "relational/sql_parser.h"
#include "replay.h"
#include "server/protocol.h"
#include "strabon/sparql_parser.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace relational = teleios::relational;
using storage::Table;

/// Each probe repeats its call at least this often, and until it has
/// spent the budget or reached the cap.
constexpr int kMinReps = 5;
constexpr int kMaxReps = 200;
constexpr double kBudgetMs = 300;
/// Cycles the durable probe world runs for the io metrics.
constexpr uint64_t kProbeCycles = 1000;

template <typename Fn>
std::vector<double> Repeat(Fn&& fn, int max_reps = kMaxReps) {
  std::vector<double> ms;
  Clock::time_point begin = Clock::now();
  for (int i = 0; i < max_reps; ++i) {
    if (i >= kMinReps && MillisSince(begin) > kBudgetMs) break;
    Clock::time_point t0 = Clock::now();
    fn(i);
    ms.push_back(MillisSince(t0));
  }
  return ms;
}

/// The worlds the probes may run on: the workload's own, and small probe
/// worlds built on first use for what the own world lacks.
class Worlds {
 public:
  Worlds(const Options& opt, World& own) : opt_(opt), own_(own) {}

  /// A world with the read tables, statement pools, raster, headline
  /// store and server.
  World& Read() {
    if (!own_.pools.empty()) return own_;
    if (read_ == nullptr) {
      ReadSizes sizes;
      sizes.products = 20000;
      sizes.hotspots = 2000;
      sizes.raster = 128;
      read_ = BuildReadWorld(sizes, opt_.seed,
                             MakeWorkDir(opt_.workdir, "probe_read"), "probe");
    }
    return *read_;
  }
  World& WithServer() { return own_.server != nullptr ? own_ : Read(); }
  World& WithRaster() { return own_.raster.empty() ? Read() : own_; }

  /// A durable world that has run the durable_writes cycle for a while,
  /// with the counter deltas, writes and user bytes of that run.
  World& Durable(std::map<std::string, double>* deltas, double* writes,
                 double* user_bytes) {
    if (own_.durable) return own_;
    if (durable_ == nullptr) {
      durable_ = BuildWriteWorld(MakeWorkDir(opt_.workdir, "probe_durable"),
                                 kProbeCycles);
      Snapshot before = TakeSnapshot(*durable_);
      server::Client client = durable_->Connect();
      for (uint64_t c = 0; c < kProbeCycles; ++c) {
        WriteCycle cycle = MakeWriteCycle(opt_.seed, c, 4);
        for (const Stmt& st : cycle.stmts) {
          Must(client.Query(st.lang, st.text).status(), "durable probe");
        }
        durable_writes_ += 2;
        durable_user_bytes_ += static_cast<double>(cycle.user_bytes);
      }
      (void)client.Goodbye();
      durable_deltas_ = MetricDeltas(before, TakeSnapshot(*durable_));
    }
    *deltas = durable_deltas_;
    *writes = durable_writes_;
    *user_bytes = durable_user_bytes_;
    return *durable_;
  }

 private:
  const Options& opt_;
  World& own_;
  std::unique_ptr<World> read_;
  std::unique_ptr<World> durable_;
  std::map<std::string, double> durable_deltas_;
  double durable_writes_ = 0;
  double durable_user_bytes_ = 0;
};

/// Read statements to send over the wire: the first few of each class
/// of the world's pools, or the reads of the durable cycle.
std::vector<Stmt> WireReads(World& w, uint64_t seed) {
  std::vector<Stmt> out;
  for (const auto& [cls, pool] : w.pools) {
    for (size_t i = 0; i < std::min<size_t>(pool.size(), 4); ++i) {
      out.push_back(pool[i]);
    }
  }
  if (out.empty() && w.durable) {
    for (uint64_t c = 0; c < 8; ++c) {
      WriteCycle cycle = MakeWriteCycle(seed, c, 4);
      out.push_back(cycle.stmts[1]);
      out.push_back(cycle.stmts[3]);
    }
  }
  return out;
}

double SpanMs(const Span& s) { return s.end_ms - s.start_ms; }

double Mean(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) sum += x;
  return v.empty() ? 0 : sum / static_cast<double>(v.size());
}

/// Durations of the spans called `name`.
std::vector<double> SpanDurations(const std::vector<Span>& spans,
                                  const std::string& name) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (s.name == name) out.push_back(SpanMs(s));
  }
  return out;
}

/// Per request, the summed duration of the spans whose names are given.
std::vector<double> PerRequest(const std::vector<Span>& spans,
                               const std::vector<std::string>& names) {
  std::map<uint64_t, double> sum;
  for (const Span& s : spans) {
    if (std::find(names.begin(), names.end(), s.name) != names.end()) {
      sum[s.request] += SpanMs(s);
    }
  }
  std::vector<double> out;
  for (const auto& [req, ms] : sum) out.push_back(ms);
  return out;
}

Metric Med(const std::vector<double>& ms, const std::string& unit,
           double scale, const std::string& where) {
  return {Quantile(ms, 0.5) * scale, unit, ms.size(), "p50 on " + where};
}

Metric Ratio(double num, double den, const std::string& base,
             const std::string& where) {
  return {den > 0 ? num / den : 0, "ratio", 0,
          "base: " + base + " = " + JsonNumber(den) + " on " + where};
}

}  // namespace

void RunLayerProbes(const Options& opt, World& own, TraceContext& ctx,
                    RunResult* res) {
  Worlds worlds(opt, own);
  auto& m = res->per_layer;
  const std::vector<Span> loop_spans = ctx.tracer.Spans();

  // --- server -------------------------------------------------------------
  {
    World& w = worlds.WithServer();
    server::Client client = w.Connect();
    std::vector<double> ping =
        Repeat([&](int) { Must(client.Ping(), "ping"); }, 500);
    m["server.ping_rtt_us"] = Med(ping, "us", 1000, w.name);

    // Client round trip minus the statement's own sys.query_log latency,
    // on a quiet server, so the newest log record is this statement's.
    std::vector<Stmt> reads = WireReads(w, opt.seed);
    std::vector<double> overhead_us;
    double encode_ms = 0;
    double encode_rows = 0;
    for (int rep = 0; rep < 3; ++rep) {
      for (const Stmt& st : reads) {
        Clock::time_point t0 = Clock::now();
        Table t = Must(client.Query(st.lang, st.text), "overhead " + st.cls);
        double rtt_ms = MillisSince(t0);
        auto log = w.veo->introspection().Log();
        if (!log.empty() && log.back().statement == st.text) {
          overhead_us.push_back((rtt_ms - log.back().latency_millis) * 1000);
        }
        Clock::time_point e0 = Clock::now();
        std::string bytes = server::EncodeTable(t, w.server->config().chunk_rows);
        encode_ms += MillisSince(e0);
        encode_rows += static_cast<double>(t.num_rows());
      }
    }
    (void)client.Goodbye();
    m["server.overhead_us"] = Med(overhead_us, "us", 1, w.name);
    m["server.encode_ms_per_mrow"] = {
        encode_rows > 0 ? encode_ms / encode_rows * 1e6 : 0, "ms/Mrow", 0,
        "base: " + JsonNumber(encode_rows) + " result rows on " + w.name};
  }

  // --- governor -------------------------------------------------------------
  m["governor.queued_ms_p99"] = {Quantile(ctx.queued_ms, 0.99), "ms",
                                 ctx.queued_ms.size(),
                                 "p99 of sys.query_log queued_millis"};
  m["governor.shed_ratio"] =
      Ratio(ctx.shed, ctx.statements, "statements attempted", own.name);

  // --- core: the governed facade against a bare engine ----------------------
  {
    const std::string stmt = "SELECT count(*) AS n FROM products";
    relational::SqlEngine bare(&own.veo->catalog());
    std::vector<double> facade = Repeat(
        [&](int) { Must(own.veo->Sql(stmt).status(), "facade"); });
    std::vector<double> engine =
        Repeat([&](int) { Must(bare.Execute(stmt).status(), "bare engine"); });
    m["core.governed_us"] = {
        (Quantile(facade, 0.5) - Quantile(engine, 0.5)) * 1000, "us",
        facade.size(), "p50 facade - p50 bare engine on " + own.name};
  }

  // --- storage --------------------------------------------------------------
  {
    storage::TablePtr products =
        Must(own.veo->catalog().GetTable("products"), "products");
    std::vector<double> copy = Repeat([&](int) {
      Table t = *products;
      (void)t.num_rows();
    });
    m["storage.table_copy_ms"] = Med(copy, "ms", 1,
                                     own.name + " (" +
                                         std::to_string(products->num_rows()) +
                                         " rows)");
  }

  // --- relational -----------------------------------------------------------
  {
    World& r = worlds.Read();
    std::vector<std::string> sql;
    for (const auto& [cls, pool] : r.pools) {
      for (const Stmt& st : pool) {
        if (st.lang == server::Lang::kSql) sql.push_back(st.text);
      }
    }
    std::vector<double> parse = Repeat([&](int i) {
      Must(relational::ParseSql(sql[static_cast<size_t>(i) % sql.size()]).status(),
           "parse");
    });
    m["relational.parse_us"] = Med(parse, "us", 1000, r.name);
    relational::SqlEngine bare(&r.veo->catalog());
    for (const auto& [cls, name] :
         std::vector<std::pair<std::string, std::string>>{
             {"lookup", "relational.lookup_ms"},
             {"range", "relational.select_ms"},
             {"aggregate", "relational.aggregate_ms"},
             {"join", "relational.join_ms"}}) {
      const std::vector<Stmt>& pool = r.pools.at(cls);
      std::vector<double> ms = Repeat([&](int i) {
        Must(bare.Execute(pool[static_cast<size_t>(i) % pool.size()].text)
                 .status(),
             cls);
      });
      m[name] = Med(ms, "ms", 1, r.name);
    }
    storage::TablePtr products =
        Must(r.veo->catalog().GetTable("products"), "products");
    storage::TablePtr hotspots =
        Must(r.veo->catalog().GetTable("hotspots"), "hotspots");
    auto range = Must(relational::ParseSql(r.pools.at("range")[0].text), "parse");
    relational::ExprPtr where =
        std::get<relational::SelectStatement>(range).where;
    double rows = static_cast<double>(products->num_rows());
    std::vector<double> filter = Repeat(
        [&](int) { Must(relational::Filter(*products, where).status(), "filter"); });
    m["relational.filter_rows_per_s"] = {rows / (Quantile(filter, 0.5) / 1000),
                                         "rows/s", filter.size(),
                                         "p50 over products on " + r.name};
    std::vector<double> agg = Repeat([&](int) {
      Must(relational::GroupAggregate(*products, {"satellite", "level"},
                                      {{"count", nullptr, "n"}})
               .status(),
           "aggregate");
    });
    m["relational.aggregate_rows_per_s"] = {rows / (Quantile(agg, 0.5) / 1000),
                                            "rows/s", agg.size(),
                                            "p50 over products on " + r.name};
    double join_rows = rows + static_cast<double>(hotspots->num_rows());
    std::vector<double> join = Repeat([&](int) {
      Must(relational::HashJoin(*hotspots, *products, {"product_id"}, {"id"})
               .status(),
           "join");
    });
    m["relational.join_rows_per_s"] = {
        join_rows / (Quantile(join, 0.5) / 1000), "rows/s", join.size(),
        "p50, hotspots x products input rows on " + r.name};
  }

  // --- sciql / array --------------------------------------------------------
  {
    World& w = worlds.WithRaster();
    teleios::noa::ChainConfig config;
    config.classifier.kind = teleios::noa::ClassifierKind::kContextual;
    const std::string classify =
        teleios::noa::ProcessingChain::ClassificationSciQl(w.raster, config);
    std::vector<double> sciql = Repeat(
        [&](int) { Must(w.veo->sciql().Execute(classify).status(), "classify"); });
    m["sciql.classify_ms"] = Med(sciql, "ms", 1, w.name + " " + w.raster);
    std::vector<double> scan = Repeat([&](int) {
      Must(w.veo->sciql()
               .Execute("SELECT count(*) AS n FROM \"" + w.raster + "\"")
               .status(),
           "scan");
    });
    m["sciql.scan_ms"] = Med(scan, "ms", 1, w.name + " " + w.raster);
    const teleios::eo::Scene& s = w.scene;
    int64_t hits = 0;
    std::vector<double> raw = Repeat([&](int) {
      int64_t n = 0;
      for (size_t p = 0; p < s.PixelCount(); ++p) {
        double cloud = s.cloudmask[p], land = s.landmask[p];
        n += s.tir039[p] - s.tir108[p] > config.classifier.diff_kelvin &&
             s.tir039[p] > config.classifier.min_t39 && cloud < 0.5 &&
             land > 0.5;
      }
      hits = n;
    });
    m["sciql.raw_ratio"] = {Quantile(sciql, 0.5) / Quantile(raw, 0.5), "ratio",
                            raw.size(),
                            "base: raw loop p50 " +
                                JsonNumber(Quantile(raw, 0.5)) + " ms, " +
                                std::to_string(hits) + " fire pixels"};
  }

  // --- strabon --------------------------------------------------------------
  {
    const std::string headline = HeadlineQuery();
    std::vector<double> parse = Repeat([&](int) {
      Must(teleios::strabon::ParseSparql(headline).status(), "sparql parse");
    });
    m["strabon.parse_us"] = Med(parse, "us", 1000, "the headline query");
    World& h = own.has_headline ? own : worlds.Read();
    std::vector<double> q = Repeat(
        [&](int) { Must(h.veo->strabon().Query(headline).status(), "headline"); });
    m["strabon.headline_ms"] = Med(q, "ms", 1, h.name);

    // The loop's lookups less the replays' (a replay looks up literals its
    // operation has just cached).
    double hits = -ctx.replay_wkt.hits, parses = -ctx.replay_wkt.parses;
    for (const auto& [name, v] : ctx.deltas) {
      if (name == "teleios_strabon_wkt_cache_hits_total") hits += v;
      if (name == "teleios_strabon_wkt_parses_total") parses += v;
    }
    m["strabon.wkt_cache_hit_ratio"] =
        Ratio(hits, hits + parses, "WKT lookups of the loop's operations",
              own.name);

    // Updates and the reads right after them, which rebuild the spatial
    // index, against reads with no update in between.
    teleios::strabon::Strabon& store = own.veo->strabon();
    std::vector<double> update, after, steady;
    Rng rng(opt.seed * 977 + 1);
    for (int i = 0; i < 40; ++i) {
      double lon = 21.0 + rng.Uniform() * 2.0, lat = 36.3 + rng.Uniform() * 2.0;
      char wkt[160];
      std::snprintf(wkt, sizeof(wkt),
                    "POLYGON ((%.4f %.4f, %.4f %.4f, %.4f %.4f, %.4f %.4f, "
                    "%.4f %.4f))",
                    lon, lat, lon + 0.01, lat, lon + 0.01, lat + 0.01, lon,
                    lat + 0.01, lon, lat);
      std::string read =
          std::string("SELECT ?h WHERE { ?h a noa:Hotspot ; noa:hasGeometry ?g . "
                       "FILTER(strdf:intersects(?g, \"") +
          wkt + "\"^^strdf:WKT)) }";
      Clock::time_point t0 = Clock::now();
      Must(store.Update("INSERT DATA { noa:probe" + std::to_string(i) +
                        " a noa:Hotspot ; noa:hasGeometry \"" + wkt +
                        "\"^^strdf:WKT }")
               .status(),
           "probe update");
      Clock::time_point t1 = Clock::now();
      Must(store.Query(read).status(), "read after update");
      Clock::time_point t2 = Clock::now();
      Must(store.Query(read).status(), "steady read");
      Clock::time_point t3 = Clock::now();
      update.push_back(MillisBetween(t0, t1));
      after.push_back(MillisBetween(t1, t2));
      steady.push_back(MillisBetween(t2, t3));
    }
    std::string where = own.name + " (" + std::to_string(store.size()) +
                        " triples)";
    m["strabon.update_ms"] = Med(update, "ms", 1, where);
    m["strabon.read_after_update_ms"] = Med(after, "ms", 1, where);
    m["strabon.steady_read_ms"] = Med(steady, "ms", 1, where);
  }

  // --- vault ----------------------------------------------------------------
  {
    // Cumulative since the world was built, before the ingest probe
    // below evicts and re-reads.
    World* vw = &own;
    teleios::vault::VaultStats st = own.veo->vault().stats();
    if (st.cache_hits + st.rasters_ingested == 0) {
      vw = &worlds.Read();
      st = vw->veo->vault().stats();
    }
    m["vault.cache_hit_ratio"] = Ratio(
        static_cast<double>(st.cache_hits),
        static_cast<double>(st.cache_hits + st.rasters_ingested),
        "raster requests", vw->name);
    World& w = worlds.WithRaster();
    std::vector<double> ingest = Repeat([&](int) {
      w.veo->vault().EvictCache();
      Must(w.veo->vault().GetRasterArray(w.raster).status(), "ingest");
    }, 40);
    m["vault.ingest_ms"] = Med(ingest, "ms", 1, w.name + " " + w.raster);
  }

  // --- noa ------------------------------------------------------------------
  {
    std::vector<Span> spans = loop_spans;
    std::string where = own.name + " traced loop";
    World* w = &own;
    if (SpanDurations(spans, "noa.reread").empty()) {
      w = &worlds.WithRaster();
      where = w->name + " " + w->raster;
      Tracer local(true);
      Repeat([&](int) {
        ReplayChain(*w, w->raster, w->raster + "-probe", &local, 0, 0);
      }, 20);
      for (int i = 0; i < 5; ++i) {
        Clock::time_point t0 = Clock::now();
        Must(w->veo->Refine(w->chain_product).status(), "refine");
        local.Record("noa.refine", 0, 0, t0, Clock::now());
        MapRun map;
        Must(MapProduct(*w, w->chain_product, &map), "map");
        RecordMap(*w, map, &local, local.NewRequest(), 0);
      }
      spans = local.Spans();
    }
    m["noa.reread_ms"] = Med(SpanDurations(spans, "noa.reread"), "ms", 1, where);
    m["noa.extract_ms"] =
        Med(SpanDurations(spans, "noa.extract"), "ms", 1, where);
    m["noa.publish_ms"] =
        Med(SpanDurations(spans, "noa.publish"), "ms", 1, where);
    m["noa.refine_ms"] = Med(SpanDurations(spans, "noa.refine"), "ms", 1, where);
    m["noa.map_ms"] =
        Med(PerRequest(spans, {"noa.map_layers", "noa.render"}), "ms", 1, where);
  }

  // --- io -------------------------------------------------------------------
  {
    std::map<std::string, double> deltas = ctx.deltas;
    double writes = ctx.io_writes, user_bytes = ctx.io_user_bytes;
    World& d = worlds.Durable(&deltas, &writes, &user_bytes);
    auto delta = [&](const std::string& name) {
      auto it = deltas.find(name);
      return it == deltas.end() ? 0.0 : it->second;
    };
    WriteCycle cycle = MakeWriteCycle(opt.seed, 0, 4);
    auto wal = Must(teleios::io::WalWriter::Open(
                        MakeWorkDir(own.dir, "probe_wal"), 1, 0, {}),
                    "probe wal");
    std::vector<double> sync = Repeat([&](int i) {
      const std::string& body = cycle.stmts[i % 2 == 0 ? 0 : 2].text;
      Must(wal->Append(1, body).status(), "wal append");
      Must(wal->Sync(), "wal sync");
    });
    m["io.wal_sync_us"] = Med(sync, "us", 1000,
                              "records of " + std::to_string(cycle.user_bytes / 2) +
                                  " bytes on average");
    m["io.wal_syncs_per_write"] =
        Ratio(delta("teleios_wal_syncs_total"), writes, "acked writes", d.name);
    m["io.wal_bytes_per_user_byte"] =
        Ratio(delta("teleios_wal_bytes_synced_total"), user_bytes,
              "acked statement bytes", d.name);
    m["io.checkpoints"] = {delta("teleios_wal_checkpoints_total"), "count", 0,
                           "auto-checkpoints in " + JsonNumber(writes) +
                               " writes on " + d.name};
    std::vector<double> checkpoint = Repeat(
        [&](int) { Must(d.veo->Checkpoint(), "checkpoint"); }, 5);
    m["io.checkpoint_ms"] = Med(checkpoint, "ms", 1, d.name);
  }

  // --- obs: what tracing costs, and what the spans leave unexplained --------
  {
    // Traced operations run to the end of their span recording and
    // replays. Class by class, their mean time against the untraced
    // operations', each class weighted by its operations in the loop.
    double with = 0, without = 0;
    size_t ops_compared = 0;
    for (const auto& [cls, t] : ctx.traced.by_class()) {
      auto u = ctx.untraced.by_class().find(cls);
      if (t.empty() || u == ctx.untraced.by_class().end() || u->second.empty()) {
        continue;
      }
      double n = static_cast<double>(t.size() + u->second.size());
      with += n * Mean(t);
      without += n * Mean(u->second);
      ops_compared += t.size() + u->second.size();
    }
    m["obs.tracing_overhead_pct"] = {
        without > 0 ? (with / without - 1) * 100 : 0, "%", ops_compared,
        "traced vs untraced operations of the loop, mean per class"};
    std::map<std::string, double> self = SelfTimeByLayer(loop_spans);
    double total = 0;
    size_t ops = 0;
    for (const Span& s : loop_spans) {
      if (s.parent == 0) {
        total += SpanMs(s);
        ++ops;
      }
    }
    m["obs.unaccounted_pct"] = {
        total > 0 ? self["unaccounted"] / total * 100 : 0, "%", ops,
        "share of traced operation time no span explains"};
    JsonObject split;
    for (const auto& [layer, ms] : self) {
      double per_op = ops > 0 ? ms / static_cast<double>(ops) : 0;
      split.Num(layer + "_ms_per_op", per_op);
      std::printf("split %-12s %10.4f ms/op %6.2f%%\n", layer.c_str(), per_op,
                  total > 0 ? ms / total * 100 : 0);
    }
    res->record.Add("layer_split", split.Render())
        .Num("traced_ops", static_cast<double>(ops));
    WriteSpans(loop_spans, opt.results_dir + "/" + opt.workload + "-seed" +
                               std::to_string(opt.seed) + "-spans.jsonl");
  }
}

}  // namespace perfbench
