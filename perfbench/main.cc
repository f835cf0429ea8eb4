// The observatory benchmark. Usage:
//
//   perfbench --workload wire_reads|fire_chain|durable_writes --seed N
//             --seconds S --trace 0|1 --workdir DIR --results DIR
//   perfbench --reference-work   (one speed-gauge reading; see util.h)
//
// Prints one human-readable line per metric (name, value, unit, sample
// count) and, as its last line, one JSON object with the keys correct,
// attempted, failed and metrics. --trace 0 reports the end-to-end metrics
// (tracing off); --trace 1 runs the workload again with the benchmark's
// own spans and reports the per-layer metrics. The run record (settings,
// samples, counter deltas, state sizes) and, when traced, the spans are
// written under --results.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <thread>

#include "governor/admission.h"
#include "workloads.h"

namespace perfbench {
namespace {

/// The end-to-end metrics every workload reports in its result line;
/// the rest of each workload's metrics are printed and recorded only.
/// Set-up time, throughput and latency go in at the speed gauge's
/// reference speed (util.h): as measured, they follow the speed of a
/// shared host, which changes by 20-40% within minutes, more than any
/// useful bound. setup_s keeps its plain name; setup_s_measured is the
/// time as measured.
/// latency_p99_ms stays out too: a few slow rounds decide the top 1%.
const char* const kResultMetrics[] = {"setup_s", "ops_per_s_ref",
                                      "latency_p50_ms_ref", "peak_rss_mb"};

/// Every TELEIOS_* environment setting the library reads, as seen by
/// this run ("default" when unset).
JsonObject EffectiveSettings() {
  static const char* const kVars[] = {
      "TELEIOS_THREADS",          "TELEIOS_MAX_CONCURRENT_QUERIES",
      "TELEIOS_MEMORY_BUDGET",    "TELEIOS_WAL_CHECKPOINT_BYTES",
      "TELEIOS_TRACE_SAMPLE",     "TELEIOS_SLOW_QUERY_MS",
      "TELEIOS_QUERY_LOG_CAPACITY", "TELEIOS_EVENT_LOG_CAPACITY",
      "TELEIOS_EVENT_LOG_PATH",   "TELEIOS_LOG_LEVEL",
      "TELEIOS_AUTH_TOKEN",       "TELEIOS_SESSION_MEMORY_BUDGET",
      "TELEIOS_SERVER_MAX_SESSIONS", "TELEIOS_SERVER_CHUNK_ROWS",
      "TELEIOS_SERVER_LEASE_MS",  "TELEIOS_SERVER_WRITE_TIMEOUT_MS",
      "TELEIOS_SERVER_DEDUP_WINDOW", "TELEIOS_SERVER_BACKLOG"};
  JsonObject env;
  for (const char* var : kVars) {
    const char* v = std::getenv(var);
    env.Str(var, v == nullptr ? "default" : v);
  }
  return env;
}

JsonObject RunSettings(const Options& opt) {
  teleios::governor::AdmissionConfig admission =
      teleios::governor::AdmissionConfig::FromEnv();
  server::ServerConfig srv = server::ServerConfig::FromEnv();
  JsonObject s;
  s.Str("workload", opt.workload)
      .Num("seed", static_cast<double>(opt.seed))
      .Num("seconds", opt.seconds)
      .Num("trace", opt.trace ? 1 : 0)
      .Num("nproc", std::thread::hardware_concurrency())
      .Str("compiler", __VERSION__)
      .Str("build_type", PERFBENCH_BUILD_TYPE)
      .Add("teleios_env", EffectiveSettings().Render())
      .Add("admission", JsonObject()
                            .Num("max_concurrent", admission.max_concurrent)
                            .Num("max_queue", admission.max_queue)
                            .Num("max_wait_ms", static_cast<double>(
                                                    admission.max_wait.count()))
                            .Render())
      .Add("server", JsonObject()
                         .Num("max_sessions", srv.max_sessions)
                         .Num("chunk_rows", static_cast<double>(srv.chunk_rows))
                         .Render())
      .Str("flush_policy",
           "every acknowledged durable mutation is one WAL append + fsync "
           "(the program's only policy)");
  return s;
}

int Main(int argc, char** argv) {
  if (argc == 2 && std::string(argv[1]) == SpeedGauge::kFlag) {
    std::printf("%.6f\n", SpeedGauge::RunReferenceWork());
    return 0;
  }
  SpeedGauge::SetProgram(argv[0]);
  Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    std::string val = argv[i + 1];
    if (key == "--workload") {
      opt.workload = val;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::atoi(val.c_str());
    } else if (key == "--trace") {
      opt.trace = val == "1";
    } else if (key == "--workdir") {
      opt.workdir = val;
    } else if (key == "--results") {
      opt.results_dir = val;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", key.c_str());
      return 2;
    }
  }
  if (opt.seconds < 1 || opt.workdir.empty() || opt.results_dir.empty()) {
    std::fprintf(stderr, "need --seconds >= 1, --workdir and --results\n");
    return 2;
  }
  std::filesystem::create_directories(opt.results_dir);
  std::string tag = opt.workload + "-seed" + std::to_string(opt.seed) +
                    "-trace" + (opt.trace ? "1" : "0");
  opt.workdir = MakeWorkDir(opt.workdir, tag);

  RunResult res;
  try {
    if (opt.workload == "wire_reads") {
      res = RunWireReads(opt);
    } else if (opt.workload == "fire_chain") {
      res = RunFireChain(opt);
    } else if (opt.workload == "durable_writes") {
      res = RunDurableWrites(opt);
    } else {
      std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "benchmark failed: %s\n", e.what());
    RemoveDir(opt.workdir);
    return 1;
  }
  RemoveDir(opt.workdir);
  if (res.failed > 0) res.correct = false;

  for (const std::string& f : res.failures) {
    std::fprintf(stderr, "failed: %s\n", f.c_str());
  }
  const auto& shown = opt.trace ? res.per_layer : res.end_to_end;
  JsonObject samples;
  for (const auto& [name, m] : shown) {
    std::printf("%-32s %14.6g %-8s n=%-8zu %s\n", name.c_str(), m.value,
                m.unit.c_str(), m.samples, m.note.c_str());
    samples.Add(name, JsonObject()
                          .Num("value", m.value)
                          .Str("unit", m.unit)
                          .Num("samples", static_cast<double>(m.samples))
                          .Str("note", m.note)
                          .Render());
  }

  JsonObject metrics;
  if (opt.trace) {
    for (const auto& [name, m] : res.per_layer) {
      metrics.Add(name, JsonObject().Num("value", m.value).Str("unit", m.unit).Render());
    }
  } else {
    for (const char* name : kResultMetrics) {
      const Metric& m = res.end_to_end.at(name);
      metrics.Add(name, JsonObject().Num("value", m.value).Str("unit", m.unit).Render());
    }
  }

  JsonObject record = RunSettings(opt);
  record.Add("correct", res.correct ? "true" : "false")
      .Num("attempted", static_cast<double>(res.attempted))
      .Num("failed", static_cast<double>(res.failed))
      .Add("metrics", samples.Render())
      .Add("speed_gauge",
           JsonObject()
               .Num("reference_ms", SpeedGauge::kReferenceMs)
               .Add("samples_ms", JsonArray(res.gauge.samples_ms()))
               .Render())
      .Add("workload_record", res.record.Render());
  std::ofstream(opt.results_dir + "/" + tag + ".json") << record.Render() << "\n";

  JsonObject line;
  line.Add("correct", res.correct ? "true" : "false")
      .Num("attempted", static_cast<double>(res.attempted))
      .Num("failed", static_cast<double>(res.failed))
      .Add("metrics", metrics.Render());
  std::printf("%s\n", line.Render().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
