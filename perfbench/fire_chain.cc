// fire_chain: the NOA operational fire-monitoring service, in-process and
// sequential. One operation maps one scene: RunFireChain with the
// contextual classifier and a .vec export, Refine against the coastline,
// then a three-layer RapidMapper::RenderSvg (land, hotspots, towns). Each
// operation takes the next distinct 192² scene of a seeded pool attached
// at set-up, so every product is new. The store and catalog grow with
// every scene, so the run is sized by operation count, not by duration:
// both sides of a comparison end in the same state.

#include <algorithm>
#include <cstdio>

#include <unistd.h>

#include "linkeddata/generators.h"
#include "eo/product.h"
#include "noa/chain.h"
#include "vault/formats.h"
#include "workloads.h"

namespace perfbench {

namespace {

/// The run is sized by operation count: rounds of kPoolScenes scenes,
/// each round on a fresh observatory, one round per kSecondsPerRound of
/// --seconds (about that long on a 4-core machine). Every round maps
/// the same pool, so both sides of a comparison end in the same state,
/// and five rounds put ten samples beyond p99. The vault caches every
/// scene it ingests, which bounds the pool by memory.
constexpr size_t kPoolScenes = 200;
constexpr int kSecondsPerRound = 6;
constexpr int kSetupsPerRound = 5;
/// The speed gauge is sampled after every kScenesPerSegment scenes.
constexpr size_t kScenesPerSegment = 100;
constexpr int kSceneSize = 192;
constexpr int kTowns = 60;

struct SceneOutcome {
  std::string product;
  size_t hotspots = 0;
  size_t examined = 0, refined = 0, removed = 0;
  size_t mapped = 0;  // hotspot geometries on the map
  double ms = 0;      // scene-to-map latency
};

teleios::noa::ChainConfig ChainConfigFor(const World& w) {
  teleios::noa::ChainConfig config;
  config.classifier.kind = teleios::noa::ClassifierKind::kContextual;
  config.output_dir = w.dir + "/vec";
  return config;
}

std::string SceneName(size_t i) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "fc_%04zu", i);
  return buf;
}

/// The region's geography: the coastline and towns every map draws on
/// come from this one scene, the same for every seed, so a seed changes
/// the acquisitions but not the region.
teleios::eo::Scene RegionScene() {
  teleios::eo::SceneSpec spec;
  spec.width = spec.height = kSceneSize;
  spec.name = "region";
  return Must(teleios::eo::GenerateScene(spec), "region scene");
}

/// Loads the auxiliary linked data every fire map draws on.
void LoadLinkedData(core::VirtualEarthObservatory* veo,
                    const teleios::eo::Scene& region) {
  Must(veo->LoadLinkedData(
           Must(teleios::linkeddata::GenerateCoastline(region), "coastline")),
       "load coastline");
  Must(veo->LoadLinkedData(Must(
           teleios::linkeddata::GenerateTowns(region, kTowns, 303), "towns")),
       "load towns");
}

/// The scene pool: `count` distinct 192² scenes written to `archive`,
/// one SEVIRI repeat cycle (15 min) apart from 25 Aug 2007. Returns the
/// raster names; `first` receives the first scene.
std::vector<std::string> WriteScenePool(size_t count, uint64_t seed,
                                        const std::string& archive,
                                        teleios::eo::Scene* first) {
  Rng rng(seed * 48271 + 17);
  std::vector<std::string> names;
  for (size_t i = 0; i < count; ++i) {
    teleios::eo::SceneSpec spec;
    spec.width = spec.height = kSceneSize;
    spec.seed = rng.Next();
    spec.num_fires = 4 + static_cast<int>(rng.Below(6));
    spec.name = SceneName(i);
    spec.acquisition_time += static_cast<int64_t>(i) * 900;
    teleios::eo::Scene scene = Must(teleios::eo::GenerateScene(spec), "scene");
    Must(teleios::vault::WriteTer(scene.ToTerRaster(),
                                  archive + "/" + spec.name + ".ter"),
         "write scene");
    if (i == 0) *first = std::move(scene);
    names.push_back(spec.name);
  }
  // Flush the pool now, so its writeback does not run under the timed
  // loop.
  ::sync();
  return names;
}

/// A fresh observatory with the pool attached and the linked data loaded.
std::unique_ptr<World> BuildChainWorld(const std::string& archive,
                                       const std::vector<std::string>& scenes,
                                       const teleios::eo::Scene& first,
                                       const teleios::eo::Scene& region,
                                       const std::string& dir) {
  auto w = std::make_unique<World>();
  w->name = "fire_chain";
  w->dir = dir;
  w->scene = first;
  w->scenes = scenes;
  w->veo = std::make_unique<core::VirtualEarthObservatory>();
  Must(w->veo->ontology_status(), "ontology");
  MakeWorkDir(dir, "vec");
  Must(w->veo->AttachArchive(archive), "attach");
  LoadLinkedData(w->veo.get(), region);
  return w;
}

/// Maps one scene through the facade; `outcome` records what the
/// verification compares. Spans go to `tracer` when it is enabled, and
/// the geometry lookups of the replays under them to `replay_wkt`.
teleios::Status MapScene(World& w, const std::string& scene, Tracer* tracer,
                         WktLookups* replay_wkt, SceneOutcome* outcome) {
  core::VirtualEarthObservatory& veo = *w.veo;
  uint64_t request = tracer->enabled() ? tracer->NewRequest() : 0;
  Clock::time_point t0 = Clock::now();
  auto chain = veo.RunFireChain(scene, ChainConfigFor(w));
  Clock::time_point t1 = Clock::now();
  if (!chain.ok()) return chain.status();
  outcome->product = chain->product_id;
  outcome->hotspots = chain->hotspots.size();
  auto report = veo.Refine(chain->product_id);
  Clock::time_point t2 = Clock::now();
  if (!report.ok()) return report.status();
  outcome->examined = report->hotspots_examined;
  outcome->refined = report->hotspots_refined;
  outcome->removed = report->hotspots_removed;
  MapRun map;
  TELEIOS_RETURN_IF_ERROR(MapProduct(w, chain->product_id, &map));
  outcome->mapped = map.mapped;
  outcome->ms = MillisBetween(t0, map.rendered);
  if (tracer->enabled()) {
    // Replays run after the operation's clock stopped.
    WktLookups before = ReadWktLookups();
    uint64_t op = tracer->Record("bench.op", 0, request, t0, map.rendered);
    uint64_t c = tracer->Record("core.fire_chain", op, request, t0, t1,
                                /*opaque=*/true);
    ReplayChain(w, scene, chain->product_id, tracer, request, c);
    tracer->Record("noa.refine", op, request, t1, t2, /*opaque=*/true);
    RecordMap(w, map, tracer, request, op);
    AddWktLookupsSince(before, replay_wkt);
  }
  return teleios::Status::OK();
}

}  // namespace

void ReplayChain(World& w, const std::string& scene, const std::string& product,
                 Tracer* tr, uint64_t request, uint64_t parent) {
  core::VirtualEarthObservatory& veo = *w.veo;
  Timed(tr, "vault.ingest", parent, request, nullptr, [&] {
    veo.vault().EvictCache();
    return veo.vault().GetRasterArray(scene).ok();
  });
  auto header = veo.vault().GetRasterHeader(scene);
  if (!header.ok()) return;
  auto planes = Timed(tr, "noa.reread", parent, request, nullptr,
                      [&]() -> teleios::Result<teleios::eo::Scene> {
                        auto raster = teleios::vault::ReadTer(header->path);
                        if (!raster.ok()) return raster.status();
                        return teleios::eo::SceneFromRaster(*raster);
                      });
  if (!planes.ok()) return;
  auto cells = Timed(tr, "sciql.classify", parent, request, nullptr, [&] {
    return veo.sciql().Execute(teleios::noa::ProcessingChain::ClassificationSciQl(
        scene, ChainConfigFor(w)));
  });
  if (!cells.ok()) return;
  auto hotspots = Timed(tr, "noa.extract", parent, request, nullptr, [&] {
    std::vector<uint8_t> mask(planes->PixelCount(), 0);
    const storage::Column& ys = cells->column(0);
    const storage::Column& xs = cells->column(1);
    for (size_t r = 0; r < cells->num_rows(); ++r) {
      mask[static_cast<size_t>(ys.GetInt64(r)) * planes->spec.width +
           static_cast<size_t>(xs.GetInt64(r))] = 1;
    }
    return teleios::noa::ExtractHotspots(*planes, mask, 1);
  });
  if (!hotspots.ok()) return;
  Timed(tr, "vault.export", parent, request, nullptr, [&] {
    return teleios::vault::WriteVec(
               teleios::noa::HotspotsToVec(*hotspots, product),
               w.dir + "/replay.vec")
        .ok();
  });
  Timed(tr, "noa.publish", parent, request, nullptr, [&] {
    storage::Catalog catalog;
    teleios::strabon::Strabon store;
    teleios::eo::ProductMetadata meta = teleios::eo::MetadataFromHeader(
        *header, teleios::eo::ProductLevel::kL2);
    meta.id = product;
    meta.derived_from = scene;
    return teleios::eo::RegisterProductRow(meta, &catalog).ok() &&
           teleios::eo::RegisterProductTriples(meta, &store).ok() &&
           teleios::noa::PublishHotspots(*hotspots, product, &store).ok();
  });
}

teleios::Status MapProduct(World& w, const std::string& product,
                           MapRun* run) {
  core::VirtualEarthObservatory& veo = *w.veo;
  const std::string layers[3][2] = {
      {"land", "SELECT ?g WHERE { ?l a noa:LandArea ; noa:hasGeometry ?g }"},
      {"hotspots",
       "SELECT ?g WHERE { ?h a noa:Hotspot ; noa:derivedFromProduct <" +
           std::string(teleios::eo::kNoaNs) + "product/" + product +
           "> ; noa:hasGeometry ?g }"},
      {"towns", std::string(kPrefixes) +
                    "SELECT ?g ?n WHERE { ?t a geonames:Feature ; "
                    "geonames:name ?n ; strdf:hasGeometry ?g }"}};
  run->start = Clock::now();
  teleios::noa::RapidMapper mapper = veo.MakeMapper();
  for (const auto& [name, query] : layers) {
    TELEIOS_RETURN_IF_ERROR(mapper.AddQueryLayer(name, "#cc0000", '*', query));
    run->queries.push_back(query);
  }
  run->layered = Clock::now();
  std::string svg = mapper.RenderSvg();
  run->rendered = Clock::now();
  if (svg.find("</svg>") == std::string::npos) {
    return teleios::Status::Internal("map is not a complete SVG document");
  }
  run->mapped = mapper.layers()[1].geometries.size();
  return teleios::Status::OK();
}

void RecordMap(World& w, const MapRun& run, Tracer* tr, uint64_t request,
               uint64_t parent) {
  // AddQueryLayer is a Strabon query plus WKT parsing per layer; the
  // replayed queries leave the parsing unaccounted.
  uint64_t q = tr->Record("noa.map_layers", parent, request, run.start,
                          run.layered, /*opaque=*/true);
  for (const std::string& query : run.queries) {
    Timed(tr, "strabon.query", q, request, nullptr,
          [&] { return w.veo->strabon().Query(query).ok(); });
  }
  tr->Record("noa.render", parent, request, run.layered, run.rendered);
}

RunResult RunFireChain(const Options& opt) {
  RunResult res;
  const int rounds = std::max(1, opt.seconds / kSecondsPerRound);
  // The input files are generated once. Each round attaches them to a
  // fresh observatory, loads the linked data and maps one extra scene,
  // which warms the chain, the mapper and the caches up (its set-up),
  // then maps the pool.
  const std::string archive = MakeWorkDir(opt.workdir, "archive");
  teleios::eo::Scene first;
  std::vector<std::string> scenes =
      WriteScenePool(kPoolScenes + 1, opt.seed, archive, &first);
  const teleios::eo::Scene region = RegionScene();
  TraceContext ctx;
  Tracer untraced(false);
  std::vector<double> setup_s, setup_ref_s;  // as measured; at reference speed
  std::vector<double> lat, lat_ref;  // as measured; at the reference speed
  std::vector<std::vector<SceneOutcome>> outcomes;
  std::map<std::string, double> d;
  teleios::vault::VaultStats vault;
  double elapsed_s = 0, elapsed_ref_s = 0;
  std::vector<double> round_p50;
  std::unique_ptr<World> w;
  for (int r = 0; r < rounds; ++r) {
    // A set-up takes tens of milliseconds, so it is repeated and the
    // median kept; the last one's world runs the round. Like the loop's
    // times, set-up times are scaled to the speed gauge's reference speed.
    const size_t setup_mark = res.gauge.Sample();
    std::vector<double> round_setup_s;
    for (int i = 0; i < kSetupsPerRound; ++i) {
      w.reset();
      Clock::time_point t0 = Clock::now();
      w = BuildChainWorld(archive, scenes, first, region,
                          MakeWorkDir(opt.workdir, "fire_chain"));
      SceneOutcome warm;
      Must(MapScene(*w, w->scenes.back(), &untraced, nullptr, &warm),
           "warm-up scene");
      w->chain_product = warm.product;
      round_setup_s.push_back(MillisSince(t0) / 1000.0);
    }

    Snapshot before = TakeSnapshot(*w);
    outcomes.emplace_back(kPoolScenes);
    size_t mark = res.gauge.Sample();
    setup_s.insert(setup_s.end(), round_setup_s.begin(), round_setup_s.end());
    for (double s : res.gauge.Scaled(round_setup_s, setup_mark, mark)) {
      setup_ref_s.push_back(s);
    }
    std::vector<double> segment;  // latencies since the last gauge sample
    Clock::time_point start = Clock::now();
    for (size_t i = 0; i < kPoolScenes; ++i) {
      if (i > 0 && i % kScenesPerSegment == 0) {
        // Close the segment: time it, read the gauge, restart the clock.
        const double segment_s = MillisSince(start) / 1000.0;
        size_t next = res.gauge.Sample();
        const double scale = res.gauge.TimeScale(mark, next);
        mark = next;
        elapsed_s += segment_s;
        elapsed_ref_s += segment_s * scale;
        for (double ms : segment) lat_ref.push_back(ms * scale);
        segment.clear();
        start = Clock::now();
      }
      const bool traced = opt.trace && i % 2 == 1;
      ++res.attempted;
      SceneOutcome& got = outcomes.back()[i];
      Clock::time_point t0 = Clock::now();
      teleios::Status st =
          MapScene(*w, w->scenes[i], traced ? &ctx.tracer : &untraced,
                   &ctx.replay_wkt, &got);
      if (!st.ok()) {
        res.Fail(w->scenes[i] + ": " + st.ToString());
        got.product.clear();
        continue;
      }
      lat.push_back(got.ms);
      segment.push_back(got.ms);
      if (opt.trace) {
        (traced ? ctx.traced : ctx.untraced).Add("scene", MillisSince(t0));
      }
    }
    const double segment_s = MillisSince(start) / 1000.0;
    const double scale = res.gauge.TimeScale(mark, res.gauge.Sample());
    elapsed_s += segment_s;
    elapsed_ref_s += segment_s * scale;
    for (double ms : segment) lat_ref.push_back(ms * scale);
    round_p50.push_back(Quantile(
        std::vector<double>(lat.end() - static_cast<long>(std::min(lat.size(), kPoolScenes)),
                            lat.end()),
        0.5));
    Snapshot after = TakeSnapshot(*w);
    for (const auto& [name, v] : MetricDeltas(before, after)) d[name] += v;
    vault.rasters_ingested +=
        after.vault.rasters_ingested - before.vault.rasters_ingested;
    vault.cache_hits += after.vault.cache_hits - before.vault.cache_hits;
    vault.bytes_ingested += after.vault.bytes_ingested - before.vault.bytes_ingested;
    if (opt.trace) {
      for (const auto& rec : w->veo->introspection().Log()) {
        ctx.queued_ms.push_back(rec.queued_millis);
      }
    }
  }

  // Read before the oracle below builds its own observatory.
  const double peak_rss_mb = PeakRssMb();

  // Oracle: a reference run of every scene in a fresh observatory over
  // the same archive and linked data must find the same hotspots and
  // refine them the same way in every round; the map must show the
  // hotspots refinement kept.
  {
    core::VirtualEarthObservatory ref;
    Must(ref.AttachArchive(archive), "reference attach");
    LoadLinkedData(&ref, region);
    teleios::noa::ChainConfig config;
    config.classifier.kind = teleios::noa::ClassifierKind::kContextual;
    for (size_t i = 0; i < kPoolScenes; ++i) {
      auto chain = ref.RunFireChain(w->scenes[i], config);
      auto report = chain.ok() ? ref.Refine(chain->product_id)
                               : teleios::Result<teleios::noa::RefinementReport>(
                                     chain.status());
      // The reference keeps one scene's raster in memory at a time.
      ref.vault().EvictCache();
      (void)ref.sciql().DropArray(w->scenes[i]);
      if (!report.ok()) {
        res.Fail(w->scenes[i] + ": reference run: " + report.status().ToString());
        continue;
      }
      for (const std::vector<SceneOutcome>& round : outcomes) {
        const SceneOutcome& got = round[i];
        if (got.product.empty()) continue;  // already counted as failed
        if (chain->hotspots.size() != got.hotspots ||
            report->hotspots_examined != got.examined ||
            report->hotspots_refined != got.refined ||
            report->hotspots_removed != got.removed ||
            got.mapped != got.hotspots - got.removed) {
          res.Fail(w->scenes[i] + ": hotspots/refinement/map differ from the "
                   "reference run");
        }
      }
    }
  }

  auto& m = res.end_to_end;
  m["setup_s"] = {Quantile(setup_ref_s, 0.5), "s", setup_ref_s.size(),
                  "median of round set-ups at the reference speed"};
  m["setup_s_measured"] = {Quantile(setup_s, 0.5), "s", setup_s.size(),
                           "median of round set-ups"};
  m["ops_per_s"] = {static_cast<double>(lat.size()) / elapsed_s, "1/s",
                    lat.size(), "scenes mapped"};
  m["ops_per_s_ref"] = {static_cast<double>(lat.size()) / elapsed_ref_s, "1/s",
                        lat.size(), "ops_per_s at the reference speed"};
  m["latency_p50_ms"] = P50(lat);
  m["latency_p50_ms_ref"] = {Quantile(lat_ref, 0.5), "ms", lat_ref.size(),
                             "p50 at the reference speed"};
  m["latency_p99_ms"] = P99(lat);
  m["peak_rss_mb"] = {peak_rss_mb, "MB", 0, "VmHWM after the last round"};
  m["error_rate"] = {static_cast<double>(res.failed) /
                         static_cast<double>(std::max<uint64_t>(res.attempted, 1)),
                     "ratio", res.attempted, "base: scenes attempted"};

  size_t hotspots = 0, removed = 0;
  for (const SceneOutcome& o : outcomes.back()) {
    hotspots += o.hotspots;
    removed += o.removed;
  }
  JsonObject deltas;
  for (const auto& [name, v] : d) deltas.Num(name, v);
  JsonObject rounds_p50;
  for (size_t r = 0; r < round_p50.size(); ++r) {
    rounds_p50.Num("round" + std::to_string(r), round_p50[r]);
  }
  res.record.Add("round_p50_ms", rounds_p50.Render())
      .Add("counter_deltas", deltas.Render())
      .Add("vault", JsonObject()
                        .Num("rasters_ingested",
                             static_cast<double>(vault.rasters_ingested))
                        .Num("cache_hits", static_cast<double>(vault.cache_hits))
                        .Num("bytes_ingested",
                             static_cast<double>(vault.bytes_ingested))
                        .Render())
      .Add("state",
           JsonObject()
               .Num("rounds", rounds)
               .Num("scenes_per_round", static_cast<double>(kPoolScenes))
               .Num("hotspots", static_cast<double>(hotspots))
               .Num("hotspots_removed", static_cast<double>(removed))
               .Num("products_rows",
                    static_cast<double>(
                        Must(w->veo->catalog().GetTable("products"), "products")
                            ->num_rows()))
               .Num("triples", static_cast<double>(w->veo->strabon().size()))
               .Render());

  if (opt.trace) {
    ctx.deltas = d;
    ctx.shed = SumDeltas(d, "teleios_governor_rejected_total");
    ctx.statements = static_cast<double>(res.attempted);
    // The first scene's array and bands serve the SciQL probes.
    w->raster = w->scenes[0];
    RunLayerProbes(opt, *w, ctx, &res);
  }
  return res;
}

}  // namespace perfbench
