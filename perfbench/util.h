// Shared helpers of the observatory benchmark: seeded randomness, timing,
// percentiles, the benchmark's own span recorder and a minimal JSON writer
// for the run record.

#ifndef PERFBENCH_UTIL_H_
#define PERFBENCH_UTIL_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "storage/table.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MillisBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double MillisSince(Clock::time_point t0) {
  return MillisBetween(t0, Clock::now());
}

/// Set-up and verification failures abort the run: the benchmark then
/// exits non-zero without printing a result line.
struct BenchError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

inline void Must(const teleios::Status& st, const std::string& what) {
  if (!st.ok()) throw BenchError(what + ": " + st.ToString());
}
template <typename T>
T Must(teleios::Result<T> r, const std::string& what) {
  if (!r.ok()) throw BenchError(what + ": " + r.status().ToString());
  return std::move(r).value();
}

/// splitmix64: every input the program sees derives from --seed through
/// one of these.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  /// Uniform integer in [0, n).
  uint64_t Below(uint64_t n) { return Next() % n; }
  /// Index drawn with probability proportional to weights[i].
  size_t Pick(const std::vector<double>& weights);

 private:
  uint64_t state_;
};

/// Quantile by linear interpolation between closest ranks; 0 for an
/// empty sample.
double Quantile(std::vector<double> sample, double q);

/// Peak resident set size of this process (VmHWM), in MiB.
double PeakRssMb();
/// Current resident set size of this process (VmRSS), in MiB.
double RssMb();

/// Quotes and escapes a string for JSON.
std::string JsonString(const std::string& s);
/// A finite double rendered with all its digits.
std::string JsonNumber(double v);
/// A JSON array of numbers.
std::string JsonArray(const std::vector<double>& v);

/// Insertion-ordered JSON object writer (values are pre-rendered JSON).
class JsonObject {
 public:
  JsonObject& Add(const std::string& key, const std::string& raw_json) {
    fields_.emplace_back(key, raw_json);
    return *this;
  }
  JsonObject& Num(const std::string& key, double v) {
    return Add(key, JsonNumber(v));
  }
  JsonObject& Str(const std::string& key, const std::string& v) {
    return Add(key, JsonString(v));
  }
  std::string Render() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// One reported metric: its value, unit, and how many samples stand
/// behind it (0 for single measurements and ratios of counters).
struct Metric {
  double value = 0;
  std::string unit;
  size_t samples = 0;
  /// Free-form provenance: the percentile, the base of a ratio, or the
  /// world a per-layer probe ran on.
  std::string note;
};

/// Latencies of completed operations keyed by class ("lookup",
/// "headline", "insert", ...), plus each class's language.
class LatencyLog {
 public:
  void Add(const std::string& cls, double ms) { by_class_[cls].push_back(ms); }
  void Merge(const LatencyLog& other);
  /// Merges `other` with every sample multiplied by `factor`.
  void MergeScaled(const LatencyLog& other, double factor);
  std::vector<double> All() const;
  std::vector<double> Classes(const std::vector<std::string>& classes) const;
  /// Quantile `q` of the mix in which each of `classes` (every class when
  /// empty) weighs the same whatever its sample count: a sample counts
  /// 1/(samples of its class). 0 when there is no sample.
  double BalancedQuantile(double q,
                          const std::vector<std::string>& classes = {}) const;
  const std::map<std::string, std::vector<double>>& by_class() const {
    return by_class_;
  }

 private:
  std::map<std::string, std::vector<double>> by_class_;
};

/// The benchmark's own trace: spans recorded around the public calls it
/// makes, kept in memory and written out when the run ends. Parents are
/// logical: a replayed lower-layer call is the child of the upper-layer
/// call it re-executes, although it runs after it.
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;   // 0 = root
  uint64_t request = 0;  // operation the span belongs to
  std::string name;      // "<layer>.<what>"
  double start_ms = 0;   // since the tracer's epoch
  double end_ms = 0;
  /// Time this span does not cover with children cannot be attributed
  /// to its layer (the call is opaque below its public entry point), so
  /// it is reported as unaccounted.
  bool opaque = false;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}
  bool enabled() const { return enabled_; }

  /// Records a finished span; returns its id (0 when disabled).
  uint64_t Record(const std::string& name, uint64_t parent, uint64_t request,
                  Clock::time_point start, Clock::time_point end,
                  bool opaque = false);
  /// A fresh request id.
  uint64_t NewRequest();

  std::vector<Span> Spans() const;

 private:
  const bool enabled_;
  const Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  uint64_t next_id_ = 1;
  uint64_t next_request_ = 1;
};

/// Times `fn` and records it as a span; returns fn's result.
template <typename Fn>
auto Timed(Tracer* tracer, const std::string& name, uint64_t parent,
           uint64_t request, uint64_t* span_id, Fn&& fn) {
  Clock::time_point start = Clock::now();
  auto result = fn();
  uint64_t id =
      tracer->Record(name, parent, request, start, Clock::now(), false);
  if (span_id != nullptr) *span_id = id;
  return result;
}

/// Self time per layer over all spans: each span's duration minus its
/// children's, credited to the layer named before the first '.' of the
/// span name, or to "unaccounted" for opaque spans. Values in ms.
std::map<std::string, double> SelfTimeByLayer(const std::vector<Span>& spans);

/// Writes spans as JSON lines (name, id, parent, request, start, end).
void WriteSpans(const std::vector<Span>& spans, const std::string& path);

/// Canonical fingerprint of a result table: row count plus a hash of
/// its rows rendered and sorted, so results compare independent of row
/// order.
struct TableFingerprint {
  size_t rows = 0;
  uint64_t hash = 0;
  bool operator==(const TableFingerprint& o) const {
    return rows == o.rows && hash == o.hash;
  }
  bool operator!=(const TableFingerprint& o) const { return !(*this == o); }
};
TableFingerprint Fingerprint(const teleios::storage::Table& table);

/// The machine's current speed, read off a fixed piece of reference work
/// that never calls the program: a random walk and a scan over memory
/// larger than the caches, hash-table builds and probes, a sort, and
/// number formatting and parsing, run by one thread per core at once.
///
/// On a host whose cores are shared with other tenants, the machine runs
/// 20-40% slower for seconds to minutes at a time, and every time a run
/// measures follows it. A workload samples the gauge around its set-ups
/// and at the ends of short segments of its measured loop; a time
/// measured between samples a and b, times TimeScale(a, b), is that time
/// on the machine at its reference speed. The workloads report both.
class SpeedGauge {
 public:
  /// The reference work's time per thread, in ms, on a 4-core x86-64 VM
  /// (gcc 12, RelWithDebInfo) at its usual speed.
  static constexpr double kReferenceMs = 32.0;
  /// The flag that makes the benchmark binary run the reference work
  /// once and print its time.
  static constexpr const char* kFlag = "--reference-work";

  /// The benchmark binary, which Sample() starts with kFlag.
  static void SetProgram(const std::string& path);
  /// Runs the reference work here, one thread per core (at most 4), and
  /// returns the mean time per thread in ms.
  static double RunReferenceWork();

  /// Times the reference work in a child process, so that its memory
  /// stays out of this process's peak RSS, and returns the sample's index.
  size_t Sample();
  /// kReferenceMs over the mean of samples a and b: below 1 when the
  /// machine ran slow between them.
  double TimeScale(size_t a, size_t b) const;
  /// `times`, measured between samples a and b, at the reference speed.
  std::vector<double> Scaled(std::vector<double> times, size_t a, size_t b) const;
  const std::vector<double>& samples_ms() const { return samples_ms_; }

 private:
  std::vector<double> samples_ms_;
};

/// Creates `base`/`name` afresh (removing any leftover of an earlier
/// run) and returns its path.
std::string MakeWorkDir(const std::string& base, const std::string& name);
void RemoveDir(const std::string& dir);
/// Total bytes of the regular files under `dir`.
uint64_t DirBytes(const std::string& dir);

}  // namespace perfbench

#endif  // PERFBENCH_UTIL_H_
