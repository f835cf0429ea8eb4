// durable_writes: one connection to a server over an observatory Opened
// in a scratch directory. Each cycle runs, in order, an SQL INSERT of
// product rows, a SELECT of those rows by id, an stSPARQL INSERT DATA of
// a hotspot with a WKT polygon and a time, and an strdf:intersects
// selection over that hotspot's area. Every acknowledgement is one WAL
// append + fsync, the program's only flush policy. The checkpoint
// threshold is small enough that every round completes several
// checkpoints. After each round a fresh observatory recovers from a copy
// of the round's directory and must hold every acknowledged row and
// triple.
//
// One connection only: a reader beside a writer on the same table or
// store races today (ROADMAP.md, open item 1).

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <set>

#include "replay.h"
#include "strabon/temporal.h"
#include "workloads.h"

namespace perfbench {

namespace {

/// The state grows with every cycle, so the run is sized by cycle count:
/// rounds of kCyclesPerRound cycles, each on a fresh durable world, one
/// round per kSecondsPerRound of --seconds (a round takes about that long
/// on a 4-core machine). Every round writes
/// the same statements, so both sides of a comparison end in the same
/// state, and pooling rounds averages out the machine's slow spells.
constexpr uint64_t kCyclesPerRound = 1000;
constexpr int kSecondsPerRound = 6;
constexpr int kSetupsPerRound = 5;
/// The speed gauge is sampled after every kCyclesPerSegment cycles.
constexpr uint64_t kCyclesPerSegment = 500;
constexpr int kRowsPerInsert = 4;
/// The auto-checkpoint threshold, per cycle the run will make. A cycle
/// logs about 850 bytes and grows the store's Turtle dump, which every
/// checkpoint carries forward into the fresh log, by about 320 bytes.
/// Once that dump passes the threshold, every write checkpoints; 400
/// bytes per cycle keeps the run clear of that and gives it about three
/// checkpoints.
constexpr uint64_t kCheckpointBytesPerCycle = 400;

const char* const kCreateProducts =
    "CREATE TABLE products (id VARCHAR, satellite VARCHAR, sensor VARCHAR, "
    "level VARCHAR, acq_time BIGINT, footprint VARCHAR, path VARCHAR, "
    "derived_from VARCHAR)";

std::string Box(double lon, double lat, double span) {
  char buf[200];
  std::snprintf(buf, sizeof(buf),
                "POLYGON ((%.5f %.5f, %.5f %.5f, %.5f %.5f, %.5f %.5f, "
                "%.5f %.5f))",
                lon, lat, lon + span, lat, lon + span, lat + span, lon,
                lat + span, lon, lat);
  return buf;
}

/// The local name of an IRI ("...#dw7_12" -> "dw7_12").
std::string LocalName(const std::string& iri) {
  size_t cut = iri.find_last_of("#/");
  return cut == std::string::npos ? iri : iri.substr(cut + 1);
}

}  // namespace

core::DurabilityOptions DurableOptions(uint64_t cycles) {
  core::DurabilityOptions options;
  options.checkpoint_bytes = kCheckpointBytesPerCycle * cycles;
  return options;
}

std::unique_ptr<World> BuildWriteWorld(const std::string& dir,
                                       uint64_t cycles) {
  auto w = std::make_unique<World>();
  w->name = "durable_writes";
  w->dir = dir;
  w->durable = true;
  w->veo = std::make_unique<core::VirtualEarthObservatory>();
  Must(w->veo->ontology_status(), "ontology");
  Must(w->veo->Open(MakeWorkDir(dir, "durable"), DurableOptions(cycles)),
       "open");
  // Logged like any other mutation, so recovery rebuilds the table.
  Must(w->veo->Sql(kCreateProducts), "create products");
  w->StartServer();
  return w;
}

namespace {

struct Acked {
  std::vector<std::string> rows;
  std::vector<std::string> hotspots;
  size_t user_bytes = 0;
};

/// Runs one statement, timing it; returns "" or what went wrong.
std::string RunStmt(server::Client* client, const Stmt& st, double* ms,
                    Clock::time_point* t0, Clock::time_point* t1) {
  *t0 = Clock::now();
  auto r = client->Query(st.lang, st.text);
  *t1 = Clock::now();
  *ms = MillisBetween(*t0, *t1);
  if (!r.ok()) return st.cls + ": " + r.status().ToString();
  try {
    std::string bad = st.check(*r);
    return bad.empty() ? "" : st.cls + ": " + bad;
  } catch (const std::exception& e) {
    return st.cls + ": result check threw: " + e.what();
  }
}

/// Opens a fresh observatory on a copy of `dir` taken after the last
/// acknowledgement (every ack was fsynced, so the copy is what a crash
/// at that point leaves), and checks every acknowledged row and triple.
double RecoverAndVerify(const std::string& dir, const std::string& copy,
                        uint64_t cycles, const Acked& acked, RunResult* res) {
  std::filesystem::copy(dir, copy, std::filesystem::copy_options::recursive);
  core::VirtualEarthObservatory veo;
  Clock::time_point t0 = Clock::now();
  Must(veo.Open(copy, DurableOptions(cycles)), "recovery open");
  double seconds = MillisSince(t0) / 1000.0;

  storage::Table rows = Must(veo.Sql("SELECT id FROM products"), "recovered rows");
  std::set<std::string> have;
  for (size_t r = 0; r < rows.num_rows(); ++r) {
    have.insert(rows.column(0).GetString(r));
  }
  size_t missing = 0;
  for (const std::string& id : acked.rows) missing += have.count(id) == 0;
  storage::Table hot = Must(
      veo.StSparql("SELECT ?h WHERE { ?h a noa:Hotspot }"), "recovered triples");
  std::set<std::string> hot_have;
  for (size_t r = 0; r < hot.num_rows(); ++r) {
    hot_have.insert(LocalName(hot.column(0).GetString(r)));
  }
  for (const std::string& name : acked.hotspots) {
    missing += hot_have.count(name) == 0;
  }
  if (missing > 0) {
    res->correct = false;
    res->failures.push_back("recovery lost " + std::to_string(missing) +
                            " acknowledged rows or hotspots");
  }
  RemoveDir(copy);
  return seconds;
}

}  // namespace

WriteCycle MakeWriteCycle(uint64_t seed, uint64_t cycle, int rows) {
  Rng rng(seed * 2862933555777941757ull + cycle);
  WriteCycle c;
  std::string values;
  std::string in_list;
  for (int k = 0; k < rows; ++k) {
    std::string id = "W" + std::to_string(seed) + "-" + std::to_string(cycle) +
                     "-" + std::to_string(k);
    double lon = 21.0 + rng.Uniform() * 2.2;
    double lat = 36.2 + rng.Uniform() * 2.0;
    if (k > 0) {
      values += ", ";
      in_list += ", ";
    }
    values += "('" + id + "', 'Meteosat-9', 'SEVIRI', 'L2', " +
              std::to_string(1188036000 + static_cast<int64_t>(cycle) * 900) +
              ", '" + Box(lon, lat, 0.05) + "', '/archive/" + id +
              ".vec', '')";
    in_list += "'" + id + "'";
    c.product_ids.push_back(id);
  }
  std::vector<std::string> ids = c.product_ids;
  c.stmts.push_back({"insert", server::Lang::kSql,
                     "INSERT INTO products VALUES " + values,
                     [](const storage::Table&) { return std::string(); }});
  c.stmts.push_back(
      {"select", server::Lang::kSql,
       "SELECT id, acq_time FROM products WHERE id IN (" + in_list + ")",
       [ids](const storage::Table& t) -> std::string {
         std::set<std::string> got;
         for (size_t r = 0; r < t.num_rows(); ++r) {
           got.insert(t.column(0).GetString(r));
         }
         for (const std::string& id : ids) {
           if (got.count(id) == 0) return "read misses its write " + id;
         }
         return t.num_rows() == ids.size() ? "" : "read sees extra rows";
       }});

  double lon = 21.0 + rng.Uniform() * 2.2;
  double lat = 36.2 + rng.Uniform() * 2.0;
  char conf[32];
  std::snprintf(conf, sizeof(conf), "%.3f", rng.Uniform());
  c.hotspot_iri = "dw" + std::to_string(seed) + "_" + std::to_string(cycle);
  std::string iri = "noa:" + c.hotspot_iri;
  c.stmts.push_back(
      {"triple_insert", server::Lang::kStSparql,
       "INSERT DATA { " + iri + " a noa:Hotspot ; noa:hasGeometry \"" +
           Box(lon, lat, 0.02) + "\"^^strdf:WKT ; noa:detectedAt \"" +
           teleios::strabon::FormatDateTime(1188036000 +
                                            static_cast<int64_t>(cycle) * 900) +
           "\"^^xsd:dateTime ; noa:hasConfidence " + conf + " }",
       [](const storage::Table& t) -> std::string {
         return t.num_rows() == 1 && t.Get(0, 0).AsInt64() > 0
                    ? ""
                    : "triple insert added nothing";
       }});
  std::string needle = c.hotspot_iri;
  c.stmts.push_back(
      {"intersects", server::Lang::kStSparql,
       "SELECT ?h WHERE { ?h a noa:Hotspot ; noa:hasGeometry ?g . "
       "FILTER(strdf:intersects(?g, \"" +
           Box(lon + 0.005, lat + 0.005, 0.01) + "\"^^strdf:WKT)) }",
       [needle](const storage::Table& t) -> std::string {
         for (size_t r = 0; r < t.num_rows(); ++r) {
           if (LocalName(t.column(0).GetString(r)) == needle) return "";
         }
         return "intersects misses the hotspot just written";
       }});
  c.user_bytes = c.stmts[0].text.size() + c.stmts[2].text.size();
  return c;
}

namespace {

/// What one round (a fresh durable world and its cycles) leaves behind.
struct Round {
  LatencyLog lat;
  LatencyLog lat_ref;  // at the speed gauge's reference speed
  Acked acked;
  double elapsed_s = 0;
  double elapsed_ref_s = 0;
  double peak_rss_mb = 0;  // VmHWM at the end of the round's loop
  std::vector<double> setup_s;
  std::vector<double> setup_ref_s;  // at the speed gauge's reference speed
  double recovery_s = 0;
  uint64_t disk_bytes = 0;
  size_t wal_segments = 0;
  size_t triples = 0;
  std::map<std::string, double> deltas;
  uint64_t checkpoints = 0;
  uint64_t wal_syncs = 0;
};

void AddTo(std::map<std::string, double>* acc,
           const std::map<std::string, double>& d) {
  for (const auto& [name, v] : d) (*acc)[name] += v;
}

/// One round: set up a fresh durable world, run its cycles, then check
/// recovery from a copy of its directory. The last round's world is
/// handed back through `keep` for the per-layer probes.
Round RunRound(const Options& opt, int round, TraceContext* ctx,
               RunResult* res, std::unique_ptr<World>* keep) {
  Round out;
  std::unique_ptr<World> w;
  // A set-up is a few fsyncs, so it is repeated and the median kept; the
  // last one's world runs the round. Like the loop's times, set-up times
  // are scaled to the speed gauge's reference speed.
  const size_t setup_mark = res->gauge.Sample();
  for (int i = 0; i < kSetupsPerRound; ++i) {
    w.reset();
    Clock::time_point t0 = Clock::now();
    w = BuildWriteWorld(MakeWorkDir(opt.workdir, "durable_writes"),
                        kCyclesPerRound);
    // Warm-up: one cycle under a name no timed cycle uses.
    server::Client client = w->Connect();
    WriteCycle warm = MakeWriteCycle(opt.seed + 1000000, 0, kRowsPerInsert);
    for (const Stmt& st : warm.stmts) {
      double ms;
      Clock::time_point a, b;
      std::string bad = RunStmt(&client, st, &ms, &a, &b);
      if (!bad.empty()) throw BenchError("warm-up " + bad);
    }
    (void)client.Goodbye();
    out.setup_s.push_back(MillisSince(t0) / 1000.0);
  }

  Tracer untraced(false);
  server::Client client = w->Connect();
  Snapshot before = TakeSnapshot(*w);
  size_t mark = res->gauge.Sample();
  out.setup_ref_s = res->gauge.Scaled(out.setup_s, setup_mark, mark);
  LatencyLog segment;  // latencies since the last gauge sample
  Clock::time_point start = Clock::now();
  // Closes a segment: times it, reads the gauge, restarts the clock.
  auto close_segment = [&] {
    const double segment_s = MillisSince(start) / 1000.0;
    size_t next = res->gauge.Sample();
    const double scale = res->gauge.TimeScale(mark, next);
    mark = next;
    out.elapsed_s += segment_s;
    out.elapsed_ref_s += segment_s * scale;
    out.lat.Merge(segment);
    out.lat_ref.MergeScaled(segment, scale);
    segment = LatencyLog();
    start = Clock::now();
  };
  // Every round writes the same statements: the seed picks them, the
  // round does not.
  for (uint64_t c = 0; c < kCyclesPerRound; ++c) {
    if (c > 0 && c % kCyclesPerSegment == 0) close_segment();
    const bool traced = opt.trace && c % 2 == 1;
    Tracer* tracer = traced ? &ctx->tracer : &untraced;
    WriteCycle cycle = MakeWriteCycle(opt.seed, c, kRowsPerInsert);
    for (size_t s = 0; s < cycle.stmts.size(); ++s) {
      const Stmt& st = cycle.stmts[s];
      ++res->attempted;
      double ms = 0;
      Clock::time_point t1, t2;
      std::string bad = RunStmt(&client, st, &ms, &t1, &t2);
      if (!bad.empty()) {
        res->Fail("round " + std::to_string(round) + ": " + bad);
        continue;
      }
      segment.Add(st.cls, ms);
      if (s == 0) {
        out.acked.rows.insert(out.acked.rows.end(), cycle.product_ids.begin(),
                              cycle.product_ids.end());
        out.acked.user_bytes += st.text.size();
      } else if (s == 2) {
        out.acked.hotspots.push_back(cycle.hotspot_iri);
        out.acked.user_bytes += st.text.size();
      }
      if (!opt.trace) continue;
      if (traced) {
        uint64_t request = tracer->NewRequest();
        bool write = s == 0 || s == 2;
        // A write cannot be replayed without applying it twice: what the
        // WAL probe and the parse below do not cover stays unaccounted.
        uint64_t wire =
            tracer->Record("server.query", 0, request, t1, t2, write);
        WktLookups before = ReadWktLookups();
        if (write) {
          ReplayWrite(*w, st, tracer, request, wire);
        } else {
          ReplayDown(*w, st, tracer, request, wire);
        }
        AddWktLookupsSince(before, &ctx->replay_wkt);
      }
      (traced ? ctx->traced : ctx->untraced).Add(st.cls, MillisSince(t1));
    }
  }
  out.peak_rss_mb = PeakRssMb();
  close_segment();
  Snapshot after = TakeSnapshot(*w);
  (void)client.Goodbye();
  out.deltas = MetricDeltas(before, after);
  if (w->scratch_wal != nullptr) {
    // The traced loop's replayed writes went to a scratch log: keep only
    // the observatory's own log in the io counters.
    teleios::io::WalWriter::Stats scratch = w->scratch_wal->stats();
    out.deltas["teleios_wal_syncs_total"] -=
        static_cast<double>(scratch.syncs_total);
    out.deltas["teleios_wal_bytes_synced_total"] -=
        static_cast<double>(scratch.total_bytes);
  }
  out.checkpoints = after.durability.checkpoints - before.durability.checkpoints;
  out.wal_syncs =
      after.durability.wal.syncs_total - before.durability.wal.syncs_total;
  if (opt.trace) {
    for (const auto& rec : w->veo->introspection().Log()) {
      ctx->queued_ms.push_back(rec.queued_millis);
    }
  }

  std::string durable_dir = w->dir + "/durable";
  out.disk_bytes = DirBytes(durable_dir);
  std::error_code ec;
  for (const auto& e :
       std::filesystem::directory_iterator(durable_dir + "/wal", ec)) {
    out.wal_segments += e.is_regular_file() ? 1 : 0;
  }
  out.triples = w->veo->strabon().size();
  out.recovery_s = RecoverAndVerify(durable_dir, w->dir + "/recovered",
                                    kCyclesPerRound, out.acked, res);
  *keep = std::move(w);
  return out;
}

}  // namespace

RunResult RunDurableWrites(const Options& opt) {
  RunResult res;
  const int rounds = std::max(1, opt.seconds / kSecondsPerRound);
  TraceContext ctx;
  std::unique_ptr<World> w;
  std::vector<Round> done;
  for (int r = 0; r < rounds; ++r) {
    w.reset();
    done.push_back(RunRound(opt, r, &ctx, &res, &w));
  }

  LatencyLog lat, lat_ref;
  std::vector<double> setup_s, setup_ref_s, recovery_s, disk_ratio;
  std::map<std::string, double> d;
  double elapsed_s = 0, elapsed_ref_s = 0;
  size_t user_bytes = 0;
  uint64_t checkpoints = 0, wal_syncs = 0;
  for (const Round& r : done) {
    lat.Merge(r.lat);
    lat_ref.Merge(r.lat_ref);
    setup_s.insert(setup_s.end(), r.setup_s.begin(), r.setup_s.end());
    setup_ref_s.insert(setup_ref_s.end(), r.setup_ref_s.begin(),
                       r.setup_ref_s.end());
    recovery_s.push_back(r.recovery_s);
    disk_ratio.push_back(static_cast<double>(r.disk_bytes) /
                         static_cast<double>(r.acked.user_bytes));
    AddTo(&d, r.deltas);
    elapsed_s += r.elapsed_s;
    elapsed_ref_s += r.elapsed_ref_s;
    user_bytes += r.acked.user_bytes;
    checkpoints += r.checkpoints;
    wal_syncs += r.wal_syncs;
  }
  std::vector<double> all = lat.All();
  std::vector<double> writes = lat.Classes({"insert", "triple_insert"});
  auto& m = res.end_to_end;
  m["setup_s"] = {Quantile(setup_ref_s, 0.5), "s", setup_ref_s.size(),
                  "median of round set-ups at the reference speed"};
  m["setup_s_measured"] = {Quantile(setup_s, 0.5), "s", setup_s.size(),
                           "median of round set-ups"};
  m["ops_per_s"] = {static_cast<double>(all.size()) / elapsed_s, "1/s",
                    all.size(), "statements completed"};
  m["ops_per_s_ref"] = {static_cast<double>(all.size()) / elapsed_ref_s, "1/s",
                        all.size(), "ops_per_s at the reference speed"};
  // Reads take about three times as long as writes and each class is a
  // quarter of the statements, so the pooled p50 falls in the gap between
  // them and jumps with either side's tail. The mean of the four classes'
  // p50s (a cycle's median cost per statement) moves smoothly instead.
  auto class_p50_mean = [](const LatencyLog& log) {
    double sum = 0;
    for (const auto& [cls, v] : log.by_class()) sum += Quantile(v, 0.5);
    return sum / static_cast<double>(std::max<size_t>(log.by_class().size(), 1));
  };
  m["latency_p50_ms"] = {class_p50_mean(lat), "ms", all.size(),
                         "mean of the statement classes' p50s"};
  m["latency_p50_ms_ref"] = {class_p50_mean(lat_ref), "ms", all.size(),
                             "latency_p50_ms at the reference speed"};
  m["latency_p99_ms"] = P99(all);
  // Every round repeats the same work in a fresh world, but the process
  // keeps some of each freed world resident, by an amount that differs
  // from run to run; the first round's peak is the workload's own.
  m["peak_rss_mb"] = {done.front().peak_rss_mb, "MB", 0,
                      "VmHWM at the end of the first round's loop"};
  m["error_rate"] = {static_cast<double>(res.failed) /
                         static_cast<double>(std::max<uint64_t>(res.attempted, 1)),
                     "ratio", res.attempted, "base: statements attempted"};
  m["write_p50_ms"] = P50(writes);
  m["write_p99_ms"] = P99(writes);
  m["read_after_write_p50_ms"] = P50(lat.Classes({"select", "intersects"}));
  m["disk_bytes_per_user_byte"] = {
      Quantile(disk_ratio, 0.5), "ratio", disk_ratio.size(),
      "median of rounds; base: " + std::to_string(done.back().acked.user_bytes) +
          " acked statement bytes per round"};
  m["recovery_s"] = {Quantile(recovery_s, 0.5), "s", recovery_s.size(),
                     "median of per-round reopens"};

  JsonObject deltas;
  for (const auto& [name, v] : d) deltas.Num(name, v);
  JsonObject classes;
  for (const auto& [cls, v] : lat.by_class()) {
    classes.Add(cls, JsonObject()
                         .Num("samples", static_cast<double>(v.size()))
                         .Num("p50_ms", Quantile(v, 0.5))
                         .Num("p99_ms", Quantile(v, 0.99))
                         .Render());
  }
  const Round& last = done.back();
  res.record.Add("classes", classes.Render())
      .Add("counter_deltas", deltas.Render())
      .Add("durability",
           JsonObject()
               .Num("rounds", rounds)
               .Num("cycles_per_round", kCyclesPerRound)
               .Num("checkpoint_bytes",
                    static_cast<double>(
                        DurableOptions(kCyclesPerRound).checkpoint_bytes))
               .Num("checkpoints", static_cast<double>(checkpoints))
               .Num("wal_syncs", static_cast<double>(wal_syncs))
               .Render())
      .Add("state",
           JsonObject()
               .Num("products_rows", static_cast<double>(last.acked.rows.size()))
               .Num("triples", static_cast<double>(last.triples))
               .Num("wal_segments", static_cast<double>(last.wal_segments))
               .Num("durable_dir_bytes", static_cast<double>(last.disk_bytes))
               .Render());

  if (opt.trace) {
    ctx.deltas = d;
    ctx.shed = SumDeltas(d, "teleios_governor_rejected_total");
    ctx.statements = static_cast<double>(res.attempted);
    ctx.io_writes = static_cast<double>(writes.size());
    ctx.io_user_bytes = static_cast<double>(user_bytes);
    RunLayerProbes(opt, *w, ctx, &res);
  }
  return res;
}

}  // namespace perfbench
