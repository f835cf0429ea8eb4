// wire_reads: analysts querying over the binary protocol, closed loop on
// four connections (every caller waits for its reply before sending the
// next request). Connections 1-3 send SQL and SciQL; connection 0 sends
// all of the stSPARQL. The run is split into rounds of equal length: in
// each round the four connections start together and send until the
// round's deadline, so all four are busy for all of the measured time.
// Nothing is written, so the run can be sized by time.
//
// stSPARQL stays on one connection and the workload has no writes on
// purpose: concurrent stSPARQL readers, and any reader/writer pair on
// one table, crash or race today (ROADMAP.md, open item 1: Strabon's
// geometry cache and R-tree and the catalog's columns are mutated
// without a lock). Widen the mix once readers read snapshots.

#include <algorithm>
#include <atomic>
#include <thread>

#include "obs/query_registry.h"
#include "replay.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr int kConnections = 4;
constexpr int kSetupRepeats = 3;
/// Short rounds, so the speed gauge sampled between them follows the
/// machine closely.
constexpr int kRounds = 10;

/// The classes each connection draws from. No measured mix of analyst
/// traffic exists to weight them by, so every class has the same share
/// of its connection's operations: each block of a connection's schedule
/// holds each of its classes once, in a seeded order.
const std::vector<std::string> kAnalystClasses = {
    "lookup", "range", "aggregate", "join", "classify", "crop"};
const std::vector<std::string> kStSparqlClasses = {"headline", "window",
                                                   "intersects"};
const std::vector<std::string> kSqlClasses = {"lookup", "range", "aggregate",
                                              "join"};
const std::vector<std::string> kSciQlClasses = {"classify", "crop"};

/// A connection's seeded stream of statements.
class Schedule {
 public:
  Schedule(const World& w, int conn, uint64_t seed)
      : w_(w),
        classes_(conn == 0 ? kStSparqlClasses : kAnalystClasses),
        rng_(seed * 1000003 + static_cast<uint64_t>(conn)) {
    // The 16 intersects areas are reused unevenly: area k is drawn with
    // weight 1/(k+1).
    for (size_t k = 0; k < w.pools.at("intersects").size(); ++k) {
      area_weights_.push_back(1.0 / static_cast<double>(k + 1));
    }
  }

  const Stmt& Next() {
    if (next_ == block_.size()) {
      block_ = classes_;
      for (size_t i = block_.size(); i > 1; --i) {
        std::swap(block_[i - 1], block_[rng_.Below(i)]);
      }
      next_ = 0;
    }
    const std::string& cls = block_[next_++];
    const std::vector<Stmt>& pool = w_.pools.at(cls);
    return pool[cls == "intersects" ? rng_.Pick(area_weights_)
                                    : rng_.Below(pool.size())];
  }

 private:
  const World& w_;
  const std::vector<std::string>& classes_;
  Rng rng_;
  std::vector<double> area_weights_;
  std::vector<std::string> block_;
  size_t next_ = 0;
};

/// "" when `result` passes the statement's check, else the mismatch.
std::string Verify(const Stmt& st, const teleios::Result<storage::Table>& r) {
  if (!r.ok()) return st.cls + ": " + r.status().ToString();
  try {
    std::string bad = st.check(*r);
    return bad.empty() ? "" : st.cls + ": " + bad;
  } catch (const std::exception& e) {
    return st.cls + ": result check threw: " + e.what();
  }
}

/// One statement of every class over the wire, checked.
void Warmup(World& w) {
  server::Client client = w.Connect();
  for (const auto& [cls, pool] : w.pools) {
    std::string bad = Verify(pool[0], client.Query(pool[0].lang, pool[0].text));
    if (!bad.empty()) throw BenchError("warm-up " + bad);
  }
  (void)client.Goodbye();
}

/// What one connection did over the whole run.
struct ConnOut {
  uint64_t attempted = 0;
  RunResult fails;  // only Fail() is used
  LatencyLog traced, untraced;
  WktLookups replay_wkt;
};

/// What one connection did in one round.
struct RoundOut {
  LatencyLog lat;
  uint64_t in_time = 0;  // replies that arrived by the round's deadline
};

void ConnectionLoop(World& w, Schedule* schedule, Clock::time_point deadline,
                    Tracer* tracer, server::Client* client, ConnOut* out,
                    RoundOut* round) {
  while (Clock::now() < deadline) {
    const Stmt& st = schedule->Next();
    const bool traced = tracer->enabled() && out->attempted % 2 == 1;
    ++out->attempted;
    Clock::time_point t0 = Clock::now();
    auto result = client->Query(st.lang, st.text);
    Clock::time_point t1 = Clock::now();
    std::string bad = Verify(st, result);
    if (!bad.empty()) {
      out->fails.Fail(bad);
      continue;
    }
    round->lat.Add(st.cls, MillisBetween(t0, t1));
    round->in_time += t1 <= deadline;
    if (!tracer->enabled()) continue;
    if (traced) {
      uint64_t request = tracer->NewRequest();
      uint64_t wire = tracer->Record("server.query", 0, request, t0, t1);
      // Only stSPARQL replays look geometry literals up, and only this
      // connection sends stSPARQL, so the counters move for the replay
      // alone while it runs.
      const bool geo = st.lang == server::Lang::kStSparql;
      WktLookups before = geo ? ReadWktLookups() : WktLookups{};
      ReplayDown(w, st, tracer, request, wire);
      if (geo) AddWktLookupsSince(before, &out->replay_wkt);
    }
    (traced ? out->traced : out->untraced).Add(st.cls, MillisSince(t0));
  }
}

}  // namespace

RunResult RunWireReads(const Options& opt) {
  RunResult res;
  std::vector<double> setup_s;
  // Times one set-up of the read world: generation, load and warm-up.
  auto set_up = [&](const std::string& dir) {
    Clock::time_point t0 = Clock::now();
    std::unique_ptr<World> world = BuildReadWorld(
        ReadSizes{}, opt.seed, MakeWorkDir(opt.workdir, dir), "wire_reads");
    Warmup(*world);
    setup_s.push_back(MillisSince(t0) / 1000.0);
    return world;
  };
  // The measured world is set up first. The other set-ups, which make
  // setup_s a median, run after the loop: the memory a freed world leaves
  // with the allocator differs from run to run and would move the loop's
  // resident set. Like the loop's times, set-up times are scaled to the
  // speed gauge's reference speed by the readings around them.
  const size_t setup_mark = res.gauge.Sample();
  std::unique_ptr<World> w = set_up("wire_reads");

  TraceContext ctx;
  Tracer untraced(false);
  Tracer* tracer = opt.trace ? &ctx.tracer : &untraced;
  std::vector<server::Client> clients;
  std::vector<Schedule> schedules;
  for (int c = 0; c < kConnections; ++c) {
    clients.push_back(w->Connect());
    schedules.emplace_back(*w, c, opt.seed);
  }

  const auto round_length = std::chrono::milliseconds(
      std::max(1, opt.seconds * 1000 / kRounds));
  const double round_s =
      std::chrono::duration<double>(round_length).count();
  Snapshot before = TakeSnapshot(*w);
  std::vector<ConnOut> outs(kConnections);
  LatencyLog lat, lat_ref;  // as measured; at the gauge's reference speed
  uint64_t in_time_total = 0;
  double ref_s = 0;  // the rounds' length at the reference speed
  std::vector<double> round_ops_per_s, round_p50, round_scale, round_rss_mb;
  uint64_t last_logged = 0;  // newest sys.query_log record harvested
  size_t mark = res.gauge.Sample();
  std::vector<double> setup_ref_s = res.gauge.Scaled(setup_s, setup_mark, mark);
  for (int r = 0; r < kRounds; ++r) {
    std::vector<RoundOut> round(kConnections);
    std::atomic<int> running{kConnections};
    const Clock::time_point deadline = Clock::now() + round_length;
    std::vector<std::thread> threads;
    for (size_t c = 0; c < kConnections; ++c) {
      threads.emplace_back([&, c] {
        ConnectionLoop(*w, &schedules[c], deadline, tracer, &clients[c],
                       &outs[c], &round[c]);
        --running;
      });
    }
    // While the round runs, sample the resident memory and, when traced,
    // harvest sys.query_log's ring so no completion record is pushed out
    // before it is read.
    double rss_mb = 0;
    while (running > 0) {
      rss_mb = std::max(rss_mb, RssMb());
      if (opt.trace) {
        for (const auto& rec : w->veo->introspection().Log()) {
          if (rec.id > last_logged) {
            ctx.queued_ms.push_back(rec.queued_millis);
            last_logged = rec.id;
          }
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    round_rss_mb.push_back(rss_mb);
    for (std::thread& t : threads) t.join();
    LatencyLog merged;
    uint64_t in_time = 0;
    for (const RoundOut& o : round) {
      merged.Merge(o.lat);
      in_time += o.in_time;
    }
    size_t next = res.gauge.Sample();
    const double scale = res.gauge.TimeScale(mark, next);
    mark = next;
    lat.Merge(merged);
    lat_ref.MergeScaled(merged, scale);
    in_time_total += in_time;
    ref_s += round_s * scale;
    round_ops_per_s.push_back(static_cast<double>(in_time) / round_s);
    round_p50.push_back(merged.BalancedQuantile(0.5));
    round_scale.push_back(scale);
  }
  Snapshot after = TakeSnapshot(*w);
  for (server::Client& c : clients) (void)c.Goodbye();
  for (int i = 1; i < kSetupRepeats; ++i) set_up("setup");
  const std::vector<double> later(setup_s.begin() + 1, setup_s.end());
  for (double s : res.gauge.Scaled(later, mark, res.gauge.Sample())) {
    setup_ref_s.push_back(s);
  }

  for (ConnOut& o : outs) {
    res.attempted += o.attempted;
    res.failed += o.fails.failed;
    res.failures.insert(res.failures.end(), o.fails.failures.begin(),
                        o.fails.failures.end());
    ctx.traced.Merge(o.traced);
    ctx.untraced.Merge(o.untraced);
    ctx.replay_wkt.hits += o.replay_wkt.hits;
    ctx.replay_wkt.parses += o.replay_wkt.parses;
  }
  std::vector<double> all = lat.All();
  // The classes run at different speeds, so their shares of the
  // operations follow the machine; the latency figures weigh every class
  // the same, so they do not move when one connection's share does.
  // Both headline figures pool every round, and each has a twin at the
  // speed gauge's reference speed (every round's times scaled by the
  // gauge readings around it).
  const std::string balanced = "p50, every class weighted the same";
  auto& m = res.end_to_end;
  m["setup_s"] = {Quantile(setup_ref_s, 0.5), "s", setup_ref_s.size(),
                  "median of set-ups at the reference speed"};
  m["setup_s_measured"] = {Quantile(setup_s, 0.5), "s", setup_s.size(),
                           "median of set-ups"};
  m["ops_per_s"] = {static_cast<double>(in_time_total) /
                        (round_s * static_cast<double>(kRounds)),
                    "1/s", all.size(), "replies within their round"};
  m["ops_per_s_ref"] = {static_cast<double>(in_time_total) / ref_s, "1/s",
                        all.size(), "ops_per_s at the reference speed"};
  m["latency_p50_ms"] = {lat.BalancedQuantile(0.5), "ms", all.size(), balanced};
  m["latency_p50_ms_ref"] = {lat_ref.BalancedQuantile(0.5), "ms", all.size(),
                             balanced + ", at the reference speed"};
  m["latency_p99_ms"] = P99(all);
  // How many big results the three analyst connections hold at one
  // moment is down to chance, so the process's all-time peak (VmHWM)
  // varies from run to run; each round's peak, sampled every 5 ms, and
  // their median over the rounds, varies much less.
  m["peak_rss_mb"] = {Quantile(round_rss_mb, 0.5), "MB", round_rss_mb.size(),
                      "median of rounds' peak VmRSS; VmHWM " +
                          std::to_string(PeakRssMb())};
  m["error_rate"] = {static_cast<double>(res.failed) /
                         static_cast<double>(std::max<uint64_t>(res.attempted, 1)),
                     "ratio", res.attempted, "base: operations attempted"};
  m["sql_p50_ms"] = {lat.BalancedQuantile(0.5, kSqlClasses), "ms",
                     lat.Classes(kSqlClasses).size(), balanced};
  m["sciql_p50_ms"] = {lat.BalancedQuantile(0.5, kSciQlClasses), "ms",
                       lat.Classes(kSciQlClasses).size(), balanced};
  m["stsparql_p50_ms"] = {lat.BalancedQuantile(0.5, kStSparqlClasses), "ms",
                          lat.Classes(kStSparqlClasses).size(), balanced};

  JsonObject classes;
  for (const auto& [cls, v] : lat.by_class()) {
    classes.Add(cls, JsonObject()
                         .Num("samples", static_cast<double>(v.size()))
                         .Num("p50_ms", Quantile(v, 0.5))
                         .Num("p99_ms", Quantile(v, 0.99))
                         .Render());
  }
  res.record.Add("classes", classes.Render());
  JsonObject rounds;
  for (size_t r = 0; r < round_p50.size(); ++r) {
    rounds.Add("round" + std::to_string(r),
               JsonObject()
                   .Num("ops_per_s", round_ops_per_s[r])
                   .Num("p50_ms", round_p50[r])
                   .Num("time_scale", round_scale[r])
                   .Num("peak_rss_mb", round_rss_mb[r])
                   .Render());
  }
  res.record.Add("rounds", rounds.Render());
  JsonObject conns;
  for (size_t c = 0; c < outs.size(); ++c) {
    conns.Num("conn" + std::to_string(c), static_cast<double>(outs[c].attempted));
  }
  res.record.Add("operations_per_connection", conns.Render());
  JsonObject deltas;
  auto d = MetricDeltas(before, after);
  for (const auto& [name, v] : d) deltas.Num(name, v);
  res.record.Add("counter_deltas", deltas.Render());
  res.record.Add(
      "state", JsonObject()
                   .Num("products_rows", static_cast<double>(
                       Must(w->veo->catalog().GetTable("products"), "products")
                           ->num_rows()))
                   .Num("hotspots_rows", static_cast<double>(
                       Must(w->veo->catalog().GetTable("hotspots"), "hotspots")
                           ->num_rows()))
                   .Num("triples", static_cast<double>(w->veo->strabon().size()))
                   .Render());

  if (opt.trace) {
    ctx.deltas = d;
    ctx.shed = SumDeltas(d, "teleios_governor_rejected_total");
    ctx.statements = static_cast<double>(res.attempted);
    RunLayerProbes(opt, *w, ctx, &res);
  }
  return res;
}

}  // namespace perfbench
