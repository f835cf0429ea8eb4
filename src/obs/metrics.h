#ifndef TELEIOS_OBS_METRICS_H_
#define TELEIOS_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_annotations.h"

namespace teleios::obs {

/// Monotonically increasing event count (thread-safe).
class Counter {
 public:
  void Inc(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// A settable instantaneous value (thread-safe).
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  void Add(double delta) {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + delta,
                                         std::memory_order_relaxed)) {
    }
  }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0};
};

/// Bucketed distribution (latencies in milliseconds by default) with
/// quantile estimation by linear interpolation inside the hit bucket.
/// Observations above the last bound land in an overflow bucket whose
/// quantiles clamp to the last bound.
class Histogram {
 public:
  /// `bounds` are ascending inclusive upper bucket bounds.
  explicit Histogram(std::vector<double> bounds = DefaultLatencyBounds());

  void Observe(double v);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  /// Estimated value at quantile `q` in [0, 1]; 0 when empty.
  double Quantile(double q) const;

  void Reset();

  const std::vector<double>& bounds() const { return bounds_; }

  /// Exponential millisecond bounds from 1us to 10s.
  static std::vector<double> DefaultLatencyBounds();

 private:
  std::vector<double> bounds_;
  std::vector<std::atomic<uint64_t>> buckets_;  // bounds_.size() + overflow
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0};
};

/// One flattened metric reading, for programmatic consumers (the
/// `sys.metrics` virtual table). Histograms flatten into derived series
/// (`<name>_count`, `<name>_sum`, `<name>_p50/p95/p99`).
struct MetricSample {
  std::string name;  ///< full series name, labels included
  std::string kind;  ///< "counter" | "gauge" | "histogram"
  double value = 0;
};

/// Process-wide registry of named metrics. Metric pointers are stable for
/// the registry's lifetime (callers may cache them in function-local
/// statics on hot paths); Reset() zeroes values without invalidating
/// pointers.
///
/// Naming convention: `teleios_<tier>_<name>`, with counters suffixed
/// `_total` and latency histograms suffixed `_millis`. Labeled series
/// embed Prometheus-style labels in the name, e.g.
/// `teleios_sql_errors_total{code="ParseError"}` (see WithLabel()).
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  /// Returns the named metric, creating it on first use.
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name);

  /// Attaches Prometheus `# HELP` text to a metric family. `base_name`
  /// is the series name without labels; newlines and backslashes are
  /// escaped at exposition time.
  void SetHelp(const std::string& base_name, std::string help);

  /// Prometheus text exposition format: every family gets exactly one
  /// `# TYPE` line (and a `# HELP` line when SetHelp was called), then
  /// one `name value` line per series; histograms expose
  /// `{quantile=...}`, `_sum`, `_count` as a summary.
  std::string TextExposition() const;

  /// Every series as a flat name/kind/value list, sorted by kind then
  /// name (the order of the text exposition). Backs `sys.metrics`.
  std::vector<MetricSample> Samples() const;

  /// Zeroes every metric (tests); registered pointers stay valid.
  void Reset();

 private:
  /// Refreshes computed metrics (process uptime) before a read-out.
  void RefreshComputedLocked() const TELEIOS_REQUIRES(mu_);

  mutable Mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_
      TELEIOS_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_
      TELEIOS_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_
      TELEIOS_GUARDED_BY(mu_);
  std::map<std::string, std::string> help_ TELEIOS_GUARDED_BY(mu_);
};

/// `WithLabel("x_total", "code", "ParseError")` -> `x_total{code="ParseError"}`.
/// Applied to a name that already carries labels, appends to them:
/// `WithLabel("x{a="1"}", "b", "2")` -> `x{a="1",b="2"}`. Label values are
/// escaped per the Prometheus text format (backslash, quote, newline).
std::string WithLabel(const std::string& name, const std::string& key,
                      const std::string& value);

/// Seconds since the process (first Global() touch) started.
double ProcessUptimeSeconds();

// --- call-site helpers (all route to MetricsRegistry::Global()) -----------

void Count(const std::string& name, uint64_t n = 1);
void SetGauge(const std::string& name, double v);
void Observe(const std::string& name, double v);

}  // namespace teleios::obs

#endif  // TELEIOS_OBS_METRICS_H_
