// Shared benchmark driver: Google Benchmark's default console output,
// plus a --json[=path] flag that instead emits one JSON object per
// benchmark run, newline-delimited:
//
//   {"name": "BM_Scan/1024", "iters": 4096, "ns_per_op": 1234.5,
//    "counters": {"items_per_second": 8.3e+08}}
//
// (one line per run; `counters` holds the benchmark's user counters, such
// as items_per_second or answers, as the console shows them) so CI and
// scripts can diff perf numbers without parsing tables.
//
// --fault-rate=N is consumed here too (exported as
// TELEIOS_BENCH_FAULT_RATE): fault-aware benchmarks like
// BM_ServerFaultRate read it to override their injected-fault period.

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <ostream>
#include <string>
#include <vector>

#include "obs/event_log.h"

namespace {

using teleios::obs::JsonEscapeString;

class JsonLinesReporter : public benchmark::BenchmarkReporter {
 public:
  explicit JsonLinesReporter(std::ostream* os) : os_(os) {}

  bool ReportContext(const Context&) override { return true; }

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      // Aggregates (mean/median/stddev of --benchmark_repetitions) would
      // double-count the iteration runs.
      if (run.run_type == Run::RT_Aggregate) continue;
      double ns_per_op =
          run.iterations > 0
              ? run.real_accumulated_time /
                    static_cast<double>(run.iterations) * 1e9
              : 0;
      *os_ << "{\"name\": \"" << JsonEscapeString(run.benchmark_name())
           << "\", \"iters\": " << run.iterations
           << ", \"ns_per_op\": " << ns_per_op << ", \"counters\": {";
      // User counters as reported (rates already divided by the time).
      const char* sep = "";
      for (const auto& [name, counter] : run.counters) {
        *os_ << sep << "\"" << JsonEscapeString(name) << "\": ";
        if (std::isfinite(counter.value)) {
          *os_ << counter.value;
        } else {
          *os_ << "null";
        }
        sep = ", ";
      }
      *os_ << "}}\n";
    }
  }

 private:
  std::ostream* os_;
};

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  std::string json_path;
  // Consume --json[=path] before Google Benchmark sees the arguments.
  std::vector<char*> passthrough;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json = true;
      json_path = argv[i] + 7;
    } else if (std::strncmp(argv[i], "--fault-rate=", 13) == 0) {
      ::setenv("TELEIOS_BENCH_FAULT_RATE", argv[i] + 13, /*overwrite=*/1);
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  int pass_argc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&pass_argc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(pass_argc,
                                             passthrough.data())) {
    return 1;
  }
  if (json) {
    std::ofstream file;
    std::ostream* os = &std::cout;
    if (!json_path.empty()) {
      file.open(json_path);
      if (!file) {
        std::cerr << "cannot open " << json_path << " for writing\n";
        return 1;
      }
      os = &file;
    }
    JsonLinesReporter reporter(os);
    benchmark::RunSpecifiedBenchmarks(&reporter);
  } else {
    benchmark::RunSpecifiedBenchmarks();
  }
  benchmark::Shutdown();
  return 0;
}
