#include "util.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <thread>
#include <unordered_map>

#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

extern char** environ;

namespace perfbench {

namespace fs = std::filesystem;

size_t Rng::Pick(const std::vector<double>& weights) {
  double total = 0;
  for (double w : weights) total += w;
  double x = Uniform() * total;
  for (size_t i = 0; i < weights.size(); ++i) {
    if (x < weights[i]) return i;
    x -= weights[i];
  }
  return weights.size() - 1;
}

double Quantile(std::vector<double> sample, double q) {
  if (sample.empty()) return 0;
  std::sort(sample.begin(), sample.end());
  double pos = q * static_cast<double>(sample.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, sample.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return sample[lo] + (sample[hi] - sample[lo]) * frac;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

double RssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonArray(const std::vector<double>& v) {
  std::string out = "[";
  for (size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonNumber(v[i]);
  }
  return out + "]";
}

std::string JsonObject::Render() const {
  std::string out = "{";
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(fields_[i].first) + ": " + fields_[i].second;
  }
  return out + "}";
}

void LatencyLog::Merge(const LatencyLog& other) {
  for (const auto& [cls, v] : other.by_class_) {
    auto& dst = by_class_[cls];
    dst.insert(dst.end(), v.begin(), v.end());
  }
}

void LatencyLog::MergeScaled(const LatencyLog& other, double factor) {
  for (const auto& [cls, v] : other.by_class_) {
    auto& dst = by_class_[cls];
    for (double ms : v) dst.push_back(ms * factor);
  }
}

std::vector<double> LatencyLog::All() const {
  std::vector<double> out;
  for (const auto& [cls, v] : by_class_) out.insert(out.end(), v.begin(), v.end());
  return out;
}

std::vector<double> LatencyLog::Classes(
    const std::vector<std::string>& classes) const {
  std::vector<double> out;
  for (const std::string& cls : classes) {
    auto it = by_class_.find(cls);
    if (it != by_class_.end()) {
      out.insert(out.end(), it->second.begin(), it->second.end());
    }
  }
  return out;
}

double LatencyLog::BalancedQuantile(
    double q, const std::vector<std::string>& classes) const {
  std::vector<std::pair<double, double>> weighted;  // (ms, weight)
  double total = 0;
  for (const auto& [cls, v] : by_class_) {
    if (v.empty() || (!classes.empty() && std::find(classes.begin(), classes.end(),
                                                    cls) == classes.end())) {
      continue;
    }
    for (double ms : v) {
      weighted.emplace_back(ms, 1.0 / static_cast<double>(v.size()));
    }
    total += 1;
  }
  if (weighted.empty()) return 0;
  std::sort(weighted.begin(), weighted.end());
  double cumulative = 0;
  for (const auto& [ms, weight] : weighted) {
    cumulative += weight;
    if (cumulative >= q * total) return ms;
  }
  return weighted.back().first;
}

uint64_t Tracer::Record(const std::string& name, uint64_t parent,
                        uint64_t request, Clock::time_point start,
                        Clock::time_point end, bool opaque) {
  if (!enabled_) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  Span span;
  span.id = next_id_++;
  span.parent = parent;
  span.request = request;
  span.name = name;
  span.start_ms = MillisBetween(epoch_, start);
  span.end_ms = MillisBetween(epoch_, end);
  span.opaque = opaque;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

uint64_t Tracer::NewRequest() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_request_++;
}

std::vector<Span> Tracer::Spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::map<std::string, double> SelfTimeByLayer(const std::vector<Span>& spans) {
  std::map<uint64_t, double> child_ms;
  for (const Span& s : spans) {
    if (s.parent != 0) child_ms[s.parent] += s.end_ms - s.start_ms;
  }
  std::map<std::string, double> out;
  for (const Span& s : spans) {
    double self = (s.end_ms - s.start_ms) - child_ms[s.id];
    std::string layer = s.name.substr(0, s.name.find('.'));
    if (s.opaque) {
      // The children are the replayed parts; the residual is work below
      // the public entry point that the benchmark cannot see.
      out["unaccounted"] += self;
    } else {
      out[layer] += self;
    }
  }
  return out;
}

void WriteSpans(const std::vector<Span>& spans, const std::string& path) {
  std::ofstream out(path);
  for (const Span& s : spans) {
    JsonObject o;
    o.Str("name", s.name)
        .Num("id", static_cast<double>(s.id))
        .Num("parent", static_cast<double>(s.parent))
        .Num("request", static_cast<double>(s.request))
        .Num("start_ms", s.start_ms)
        .Num("end_ms", s.end_ms)
        .Add("opaque", s.opaque ? "true" : "false");
    out << o.Render() << "\n";
  }
}

TableFingerprint Fingerprint(const teleios::storage::Table& table) {
  std::vector<std::string> rows;
  rows.reserve(table.num_rows());
  for (size_t r = 0; r < table.num_rows(); ++r) {
    std::string row;
    for (size_t c = 0; c < table.num_columns(); ++c) {
      row += table.Get(r, c).ToString();
      row += '\x1f';
    }
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end());
  uint64_t h = 1469598103934665603ull;
  for (const std::string& row : rows) {
    h ^= std::hash<std::string>()(row);
    h *= 1099511628211ull;
  }
  return {table.num_rows(), h};
}

namespace {

/// One thread's reference work; returns its time in ms.
double ReferenceWork(uint64_t salt) {
  constexpr size_t kWalk = size_t{1} << 22;  // 16 MiB of uint32_t
  std::vector<uint32_t> next(kWalk);
  // One cycle through every slot (Sattolo), so the walk defeats caches.
  Rng rng(salt);
  for (size_t i = 0; i < kWalk; ++i) next[i] = static_cast<uint32_t>(i);
  for (size_t i = kWalk - 1; i > 0; --i) std::swap(next[i], next[rng.Below(i)]);
  std::vector<double> keys(100000);
  for (double& k : keys) k = rng.Uniform();

  // Repeated, so that one reading averages out brief hiccups.
  constexpr int kRepeats = 3;
  Clock::time_point t0 = Clock::now();
  uint64_t sink = 0;
  for (int rep = 0; rep < kRepeats; ++rep) {
    uint32_t at = static_cast<uint32_t>(rep);
    for (int step = 0; step < 100000; ++step) at = next[at];
    sink += at;
    for (uint32_t v : next) sink += v;
    std::unordered_map<uint64_t, uint64_t> table;
    for (size_t i = 0; i < 50000; ++i) table[next[i + rep]] = i;
    for (size_t i = 0; i < 100000; ++i) {
      auto it = table.find(next[kWalk - 1 - i]);
      if (it != table.end()) sink += it->second;
    }
    std::vector<double> sorted = keys;
    std::sort(sorted.begin(), sorted.end());
    sink += static_cast<uint64_t>(sorted[sorted.size() / 2] * 1e6);
    char buf[32];
    for (size_t i = 0; i < 30000; ++i) {
      std::snprintf(buf, sizeof(buf), "%.6f", keys[i + rep]);
      sink += static_cast<uint64_t>(std::strtod(buf, nullptr) * 1e6);
    }
  }
  double ms = MillisSince(t0) / kRepeats;
  // Keeps the work observable, so the compiler cannot drop it.
  if (sink == 42) std::fprintf(stderr, "%s", "");
  return ms;
}


std::string& GaugeProgram() {
  static std::string path;
  return path;
}

}  // namespace

void SpeedGauge::SetProgram(const std::string& path) { GaugeProgram() = path; }

double SpeedGauge::RunReferenceWork() {
  const unsigned threads = std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
  std::vector<double> ms(threads);
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&ms, t] { ms[t] = ReferenceWork(t + 1); });
  }
  for (std::thread& t : pool) t.join();
  double sum = 0;
  for (double v : ms) sum += v;
  return sum / threads;
}

size_t SpeedGauge::Sample() {
  const std::string& program = GaugeProgram();
  int out[2];
  if (program.empty() || ::pipe(out) != 0) {
    throw BenchError("speed gauge: no program to run");
  }
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, out[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, out[0]);
  std::string flag = kFlag;
  char* argv[] = {const_cast<char*>(program.c_str()), flag.data(), nullptr};
  pid_t pid = 0;
  int spawned = posix_spawn(&pid, program.c_str(), &actions, nullptr, argv, environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(out[1]);
  std::string text;
  char buf[256];
  ssize_t n;
  while (spawned == 0 && (n = ::read(out[0], buf, sizeof(buf))) > 0) {
    text.append(buf, static_cast<size_t>(n));
  }
  ::close(out[0]);
  int status = 0;
  if (spawned == 0) ::waitpid(pid, &status, 0);
  double ms = std::strtod(text.c_str(), nullptr);
  if (spawned != 0 || !WIFEXITED(status) || WEXITSTATUS(status) != 0 || !(ms > 0)) {
    throw BenchError("speed gauge: reference work failed");
  }
  samples_ms_.push_back(ms);
  return samples_ms_.size() - 1;
}

double SpeedGauge::TimeScale(size_t a, size_t b) const {
  return kReferenceMs / ((samples_ms_.at(a) + samples_ms_.at(b)) / 2);
}

std::vector<double> SpeedGauge::Scaled(std::vector<double> times, size_t a,
                                       size_t b) const {
  const double scale = TimeScale(a, b);
  for (double& t : times) t *= scale;
  return times;
}

std::string MakeWorkDir(const std::string& base, const std::string& name) {
  fs::path dir = fs::path(base) / name;
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);
  if (ec) throw BenchError("cannot create " + dir.string() + ": " + ec.message());
  return dir.string();
}

void RemoveDir(const std::string& dir) {
  std::error_code ec;
  fs::remove_all(dir, ec);
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (auto it = fs::recursive_directory_iterator(dir, ec);
       !ec && it != fs::recursive_directory_iterator(); it.increment(ec)) {
    if (it->is_regular_file(ec)) total += it->file_size(ec);
  }
  return total;
}

}  // namespace perfbench
