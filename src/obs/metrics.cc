#include "obs/metrics.h"

#include <algorithm>
#include <chrono>
#include <sstream>

namespace teleios::obs {

namespace {

/// Renders a double without trailing-zero noise ("12", "0.125").
std::string NumberToString(double v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

/// Metric name without the trailing {label=...} part.
std::string BaseName(const std::string& name) {
  size_t brace = name.find('{');
  return brace == std::string::npos ? name : name.substr(0, brace);
}

/// Labels part of a series name including braces, or "".
std::string Labels(const std::string& name) {
  size_t brace = name.find('{');
  return brace == std::string::npos ? std::string() : name.substr(brace);
}

/// Prometheus text-format escaping for label values: backslash, double
/// quote, and newline must be backslash-escaped.
std::string EscapeLabelValue(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '"') {
      out += "\\\"";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out.push_back(c);
    }
  }
  return out;
}

/// Prometheus text-format escaping for `# HELP` text: backslash and
/// newline only (quotes are legal there).
std::string EscapeHelp(const std::string& help) {
  std::string out;
  out.reserve(help.size());
  for (char c : help) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out.push_back(c);
    }
  }
  return out;
}

/// `series("x{a="b"}", "_sum", "")` -> `x_sum{a="b"}`;
/// `series("x", "", "quantile=\"0.5\"")` -> `x{quantile="0.5"}`.
std::string Series(const std::string& name, const std::string& suffix,
                   const std::string& extra_label) {
  std::string labels = Labels(name);
  if (!extra_label.empty()) {
    labels = labels.empty()
                 ? "{" + extra_label + "}"
                 : labels.substr(0, labels.size() - 1) + "," + extra_label +
                       "}";
  }
  return BaseName(name) + suffix + labels;
}

}  // namespace

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), buckets_(bounds_.size() + 1) {}

std::vector<double> Histogram::DefaultLatencyBounds() {
  // 1-2-5 per decade, 0.001ms (1us) .. 10000ms (10s).
  std::vector<double> bounds;
  for (double decade = 0.001; decade < 10000.5; decade *= 10) {
    bounds.push_back(decade);
    bounds.push_back(decade * 2);
    bounds.push_back(decade * 5);
  }
  return bounds;
}

void Histogram::Observe(double v) {
  size_t i = static_cast<size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), v) - bounds_.begin());
  buckets_[i].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double cur = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(cur, cur + v,
                                     std::memory_order_relaxed)) {
  }
}

double Histogram::Quantile(double q) const {
  uint64_t n = count();
  if (n == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  double rank = q * static_cast<double>(n);
  uint64_t cumulative = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    uint64_t in_bucket = buckets_[i].load(std::memory_order_relaxed);
    if (in_bucket == 0) continue;
    if (static_cast<double>(cumulative + in_bucket) >= rank) {
      if (i >= bounds_.size()) return bounds_.back();  // overflow bucket
      double lo = i == 0 ? 0 : bounds_[i - 1];
      double hi = bounds_[i];
      double into = (rank - static_cast<double>(cumulative)) /
                    static_cast<double>(in_bucket);
      return lo + (hi - lo) * into;
    }
    cumulative += in_bucket;
  }
  return bounds_.empty() ? 0 : bounds_.back();
}

void Histogram::Reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = [] {
    auto* r = new MetricsRegistry();
    ProcessUptimeSeconds();  // anchor the uptime epoch
    r->GetGauge("teleios_process_uptime_seconds");
    r->SetHelp("teleios_process_uptime_seconds",
               "Seconds since process metrics initialization.");
    // Build-info idiom: a constant-1 gauge whose labels carry the facts.
#if defined(__VERSION__)
    const char* compiler = __VERSION__;
#else
    const char* compiler = "unknown";
#endif
    std::string info = WithLabel(
        WithLabel("teleios_build_info", "compiler", compiler), "std",
        std::to_string(__cplusplus));
    r->GetGauge(info)->Set(1);
    r->SetHelp("teleios_build_info",
               "Constant 1; labels identify the build toolchain.");
    return r;
  }();
  return *registry;
}

void MetricsRegistry::SetHelp(const std::string& base_name, std::string help) {
  MutexLock lock(mu_);
  help_[base_name] = std::move(help);
}

void MetricsRegistry::RefreshComputedLocked() const {
  // Computed metrics only exist in the global registry; instance
  // registries (tests) skip this by not having the series.
  auto it = gauges_.find("teleios_process_uptime_seconds");
  if (it != gauges_.end()) it->second->Set(ProcessUptimeSeconds());
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  MutexLock lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  MutexLock lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name) {
  MutexLock lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return slot.get();
}

std::string MetricsRegistry::TextExposition() const {
  MutexLock lock(mu_);
  RefreshComputedLocked();
  std::ostringstream os;
  // One HELP (when registered) + one TYPE line per family. Maps are
  // name-sorted, so a family's series are adjacent and last_base
  // suffices for the dedupe.
  auto family_header = [&](const std::string& base, const char* type) {
    auto help = help_.find(base);
    if (help != help_.end()) {
      os << "# HELP " << base << " " << EscapeHelp(help->second) << "\n";
    }
    os << "# TYPE " << base << " " << type << "\n";
  };
  std::string last_base;
  for (const auto& [name, counter] : counters_) {
    std::string base = BaseName(name);
    if (base != last_base) {
      family_header(base, "counter");
      last_base = base;
    }
    os << name << " " << counter->value() << "\n";
  }
  last_base.clear();
  for (const auto& [name, gauge] : gauges_) {
    std::string base = BaseName(name);
    if (base != last_base) {
      family_header(base, "gauge");
      last_base = base;
    }
    os << name << " " << NumberToString(gauge->value()) << "\n";
  }
  last_base.clear();
  for (const auto& [name, hist] : histograms_) {
    std::string base = BaseName(name);
    if (base != last_base) {
      family_header(base, "summary");
      last_base = base;
    }
    for (double q : {0.5, 0.95, 0.99}) {
      os << Series(name, "", "quantile=\"" + NumberToString(q) + "\"") << " "
         << NumberToString(hist->Quantile(q)) << "\n";
    }
    os << Series(name, "_sum", "") << " " << NumberToString(hist->sum())
       << "\n";
    os << Series(name, "_count", "") << " " << hist->count() << "\n";
  }
  return os.str();
}

std::vector<MetricSample> MetricsRegistry::Samples() const {
  MutexLock lock(mu_);
  RefreshComputedLocked();
  std::vector<MetricSample> out;
  out.reserve(counters_.size() + gauges_.size() + histograms_.size() * 5);
  for (const auto& [name, counter] : counters_) {
    out.push_back({name, "counter", static_cast<double>(counter->value())});
  }
  for (const auto& [name, gauge] : gauges_) {
    out.push_back({name, "gauge", gauge->value()});
  }
  for (const auto& [name, hist] : histograms_) {
    out.push_back({Series(name, "_count", ""), "histogram",
                   static_cast<double>(hist->count())});
    out.push_back({Series(name, "_sum", ""), "histogram", hist->sum()});
    out.push_back({Series(name, "_p50", ""), "histogram", hist->Quantile(0.5)});
    out.push_back(
        {Series(name, "_p95", ""), "histogram", hist->Quantile(0.95)});
    out.push_back(
        {Series(name, "_p99", ""), "histogram", hist->Quantile(0.99)});
  }
  return out;
}

void MetricsRegistry::Reset() {
  MutexLock lock(mu_);
  for (auto& [_, c] : counters_) c->Reset();
  for (auto& [_, g] : gauges_) g->Reset();
  for (auto& [_, h] : histograms_) h->Reset();
}

std::string WithLabel(const std::string& name, const std::string& key,
                      const std::string& value) {
  std::string pair = key + "=\"" + EscapeLabelValue(value) + "\"";
  if (!name.empty() && name.back() == '}') {
    return name.substr(0, name.size() - 1) + "," + pair + "}";
  }
  return name + "{" + pair + "}";
}

double ProcessUptimeSeconds() {
  static const std::chrono::steady_clock::time_point start =
      std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

void Count(const std::string& name, uint64_t n) {
  MetricsRegistry::Global().GetCounter(name)->Inc(n);
}

void SetGauge(const std::string& name, double v) {
  MetricsRegistry::Global().GetGauge(name)->Set(v);
}

void Observe(const std::string& name, double v) {
  MetricsRegistry::Global().GetHistogram(name)->Observe(v);
}

}  // namespace teleios::obs
