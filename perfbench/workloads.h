// The observatory benchmark's workloads and the world each one runs in.
//
// Every workload drives the observatory only through public entry
// points: server::Client against an in-process TeleiosServer on
// loopback, and the VirtualEarthObservatory facade. Governor, WAL and
// thread settings stay at their defaults (the run record states them).

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/observatory.h"
#include "eo/scene.h"
#include "io/wal.h"
#include "server/client.h"
#include "server/server.h"
#include "util.h"

namespace perfbench {

namespace core = teleios::core;
namespace server = teleios::server;
namespace storage = teleios::storage;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string workdir;      // scratch space inside the checkout
  std::string results_dir;  // run record + spans
};

/// One statement the benchmark sends, with the check its result must
/// pass. `check` returns "" when the result is right, else what is wrong.
struct Stmt {
  std::string cls;
  server::Lang lang = server::Lang::kSql;
  std::string text;
  std::function<std::string(const storage::Table&)> check;
};

/// Sizes of the read world (wire_reads at full size; the traced runs of
/// the other workloads build a small one for layers they do not touch).
struct ReadSizes {
  size_t products = 100000;
  size_t hotspots = 10000;
  int raster = 256;
  int sites = 100;
  int towns = 100;
};

/// An observatory plus everything a workload or a per-layer probe needs
/// to know about what was loaded into it.
struct World {
  std::string name;  // "wire_reads", "fire_chain", "durable_writes", "probe"
  std::string dir;
  std::unique_ptr<core::VirtualEarthObservatory> veo;
  std::unique_ptr<server::TeleiosServer> server;

  // Every world has a "products" table with the schema the chain's
  // product registration uses; the read worlds also have "hotspots".
  // A six-band scene registered as a SciQL array, with its bands kept
  // for raw-loop oracles.
  std::string raster;
  teleios::eo::Scene scene;
  // The stRDF store holds a chain run plus archaeological sites, so the
  // §1 headline query has answers to find.
  bool has_headline = false;
  // The product of the chain run the store holds ("" if none).
  std::string chain_product;
  // Statement pools by class, built with their oracles at set-up.
  std::map<std::string, std::vector<Stmt>> pools;
  // Fire-chain scene pool (attached rasters, not yet processed).
  std::vector<std::string> scenes;
  bool durable = false;
  /// Scratch log the traced runs append replayed writes to.
  std::unique_ptr<teleios::io::WalWriter> scratch_wal;

  World() = default;
  World(const World&) = delete;
  World& operator=(const World&) = delete;
  ~World();

  /// Starts the loopback server with its default configuration.
  void StartServer();
  server::Client Connect() const;
};

/// PREFIX lines for the linked-data vocabularies the generators use.
extern const char* const kPrefixes;
/// The paper's §1 request: Meteosat-9 images of 25 Aug 2007 over the
/// Peloponnese with hotspots within 2 km of an archaeological site.
std::string HeadlineQuery();

/// Builds the read world: products/hotspots tables, the 256² scene, one
/// chain run plus sites and towns in the store, and every class pool
/// with oracles computed from the generator or an in-process reference.
std::unique_ptr<World> BuildReadWorld(const ReadSizes& sizes, uint64_t seed,
                                      const std::string& dir,
                                      const std::string& name);

/// Counter snapshot at a workload boundary: sys.metrics read through SQL,
/// plus the durability and vault statistics.
struct Snapshot {
  std::map<std::string, double> metrics;
  core::DurabilityStats durability;
  teleios::vault::VaultStats vault;
};
Snapshot TakeSnapshot(World& world);
/// after − before for every sys.metrics series that moved.
std::map<std::string, double> MetricDeltas(const Snapshot& before,
                                           const Snapshot& after);
/// Sum of the deltas of every series whose name starts with `prefix`.
double SumDeltas(const std::map<std::string, double>& deltas,
                 const std::string& prefix);

/// Geometry-literal lookups of every Strabon store in the process: WKT
/// cache hits and parses (the teleios_strabon_wkt_* counters).
struct WktLookups {
  double hits = 0;
  double parses = 0;
};
WktLookups ReadWktLookups();
/// Adds the lookups made since `before` to `*sum`.
void AddWktLookupsSince(const WktLookups& before, WktLookups* sum);

/// What one run reports.
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  /// Extra run-record fields, pre-rendered JSON.
  JsonObject record;
  /// The machine's speed, sampled between the run's rounds.
  SpeedGauge gauge;
  std::vector<std::string> failures;  // first few, for the log

  void Fail(const std::string& what) {
    ++failed;
    if (failures.size() < 20) failures.push_back(what);
  }
};

/// Tracing-related state shared by a workload's traced loop and the
/// per-layer probes that follow it.
struct TraceContext {
  Tracer tracer{true};
  // Operation time by class, for the operations the loop traced (up to
  // the end of their span recording and replays) and for the others.
  LatencyLog traced;
  LatencyLog untraced;
  // Geometry lookups the replays made, kept out of the loop's WKT ratio.
  WktLookups replay_wkt;
  std::vector<double> queued_ms;    // sys.query_log admission waits
  double shed = 0;                  // statements the governor refused
  double statements = 0;            // governed statements attempted
  // sys.metrics counter deltas over the loop.
  std::map<std::string, double> deltas;
  // durable_writes: acknowledged mutations and their statement bytes.
  double io_writes = 0;
  double io_user_bytes = 0;
};

RunResult RunWireReads(const Options& opt);
RunResult RunFireChain(const Options& opt);
RunResult RunDurableWrites(const Options& opt);

/// The per-layer probes: every per-layer metric, measured on `own` when
/// it holds what the probe needs and on a small probe world otherwise.
/// `trace` carries the spans of the workload's traced loop.
void RunLayerProbes(const Options& opt, World& own, TraceContext& trace,
                    RunResult* result);

/// Replays the fire chain's stages for `scene` through their public
/// functions (ingestion after a cache eviction, raster re-read, SciQL
/// classification, hotspot extraction, .vec export, publication into a
/// scratch catalog and store), recording one span per stage.
void ReplayChain(World& w, const std::string& scene, const std::string& product,
                 Tracer* tr, uint64_t request, uint64_t parent);

/// One three-layer fire map (land, the product's hotspots, towns).
struct MapRun {
  Clock::time_point start, layered, rendered;
  std::vector<std::string> queries;  // the layers' stSPARQL
  size_t mapped = 0;                 // hotspot geometries drawn
};
teleios::Status MapProduct(World& w, const std::string& product, MapRun* run);
/// Records a map's spans, replaying its layer queries under them.
void RecordMap(World& w, const MapRun& run, Tracer* tr, uint64_t request,
               uint64_t parent);

/// The durable_writes world for a run of `cycles` write cycles: an
/// observatory Opened in `dir`, the write table, and the server.
std::unique_ptr<World> BuildWriteWorld(const std::string& dir,
                                       uint64_t cycles);
/// Durability options for a run of `cycles` write cycles: a checkpoint
/// threshold that gives the run several checkpoints.
core::DurabilityOptions DurableOptions(uint64_t cycles);

/// Durable-writes statements, shared by the workload and the io probe.
struct WriteCycle {
  std::vector<Stmt> stmts;  // insert, select, triple insert, intersects
  std::vector<std::string> product_ids;
  std::string hotspot_iri;
  size_t user_bytes = 0;  // bytes of the two mutating statements
};
WriteCycle MakeWriteCycle(uint64_t seed, uint64_t cycle, int rows);
/// Latency summary helpers used by every workload.
Metric P50(const std::vector<double>& v, const std::string& unit = "ms");
/// p99, noting when fewer than ten samples lie beyond it.
Metric P99(const std::vector<double>& v);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
