#include <gtest/gtest.h>

#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/event_log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_export.h"

namespace teleios::obs {
namespace {

TEST(Counter, IncrementsAndResets) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Inc();
  c.Inc(41);
  EXPECT_EQ(c.value(), 42u);
  c.Reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Counter, ConcurrentIncrementsAreExact) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) c.Inc();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST(Gauge, SetAndAdd) {
  Gauge g;
  g.Set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.Add(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), 1.5);
  g.Reset();
  EXPECT_DOUBLE_EQ(g.value(), 0);
}

TEST(Histogram, CountsSumAndBuckets) {
  Histogram h({1, 2, 5});
  h.Observe(0.5);
  h.Observe(1.5);
  h.Observe(4);
  h.Observe(100);  // overflow bucket
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 106.0);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.sum(), 0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 0);
}

TEST(Histogram, QuantilesOnKnownDistribution) {
  // Buckets every 10 up to 1000; observe 1..1000 uniformly, so the
  // interpolated quantile must sit within one bucket width of the truth.
  std::vector<double> bounds;
  for (double b = 10; b <= 1000; b += 10) bounds.push_back(b);
  Histogram h(bounds);
  for (int v = 1; v <= 1000; ++v) h.Observe(v);
  EXPECT_NEAR(h.Quantile(0.5), 500, 10);
  EXPECT_NEAR(h.Quantile(0.95), 950, 10);
  EXPECT_NEAR(h.Quantile(0.99), 990, 10);
  // Quantiles are clamped to the observed range.
  EXPECT_NEAR(h.Quantile(0.0), 0, 10);
  EXPECT_NEAR(h.Quantile(1.0), 1000, 10);
}

TEST(Histogram, OverflowClampsToLastBound) {
  Histogram h({1, 2});
  h.Observe(1000);
  h.Observe(2000);
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 2);
}

TEST(Registry, ReturnsStablePointers) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("x_total");
  a->Inc(7);
  // Same name, same counter; Reset zeroes but never invalidates.
  EXPECT_EQ(registry.GetCounter("x_total"), a);
  registry.Reset();
  EXPECT_EQ(a->value(), 0u);
  EXPECT_EQ(registry.GetCounter("x_total"), a);
}

TEST(Registry, TextExposition) {
  MetricsRegistry registry;
  registry.GetCounter("teleios_t_requests_total")->Inc(3);
  registry.GetCounter(WithLabel("teleios_t_errors_total", "code", "IoError"))
      ->Inc();
  registry.GetGauge("teleios_t_indexed")->Set(12);
  Histogram* h = registry.GetHistogram(
      WithLabel("teleios_t_latency_millis", "op", "scan"));
  h->Observe(3);
  h->Observe(5);
  std::string text = registry.TextExposition();
  EXPECT_NE(text.find("# TYPE teleios_t_requests_total counter\n"
                      "teleios_t_requests_total 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("teleios_t_errors_total{code=\"IoError\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE teleios_t_indexed gauge\nteleios_t_indexed 12"),
            std::string::npos);
  // Summary series place labels before the quantile and suffixes on the
  // base name, Prometheus style.
  EXPECT_NE(
      text.find("teleios_t_latency_millis{op=\"scan\",quantile=\"0.5\"}"),
      std::string::npos);
  EXPECT_NE(text.find("teleios_t_latency_millis_sum{op=\"scan\"} 8"),
            std::string::npos);
  EXPECT_NE(text.find("teleios_t_latency_millis_count{op=\"scan\"} 2"),
            std::string::npos);
}

TEST(Trace, SpansNestInCreationOrder) {
  ScopedTrace trace("request");
  {
    TraceSpan outer("parse");
    outer.SetAttr("statements", "1");
  }
  {
    TraceSpan outer("execute");
    { TraceSpan inner("scan"); }
    { TraceSpan inner("filter"); }
  }
  SpanNode root = trace.Finish();
  EXPECT_EQ(root.name, "request");
  ASSERT_EQ(root.children.size(), 2u);
  EXPECT_EQ(root.children[0].name, "parse");
  EXPECT_EQ(root.children[0].Attr("statements"), "1");
  ASSERT_EQ(root.children[1].children.size(), 2u);
  EXPECT_EQ(root.children[1].children[0].name, "scan");
  EXPECT_EQ(root.children[1].children[1].name, "filter");
  // DFS lookup and rendering see the whole tree.
  EXPECT_NE(root.Find("filter"), nullptr);
  EXPECT_EQ(root.Find("no-such-span"), nullptr);
  std::string rendered = root.Render();
  EXPECT_NE(rendered.find("request"), std::string::npos);
  EXPECT_NE(rendered.find("    filter"), std::string::npos);
}

TEST(Trace, InnerTraceBecomesSpanOfOuter) {
  ScopedTrace outer("outer");
  {
    ScopedTrace inner("inner");
    { TraceSpan s("work"); }
  }
  SpanNode root = outer.Finish();
  ASSERT_EQ(root.children.size(), 1u);
  EXPECT_EQ(root.children[0].name, "inner");
  ASSERT_EQ(root.children[0].children.size(), 1u);
  EXPECT_EQ(root.children[0].children[0].name, "work");
}

TEST(Trace, SpanIsNoOpWithoutActiveTrace) {
  TraceSpan span("orphan");
  span.SetAttr("k", "v");  // must not crash
  EXPECT_FALSE(TraceActive());
  EXPECT_GE(span.ElapsedMillis(), 0);
}

TEST(Trace, SpanFeedsHistogramEvenWithoutTrace) {
  Histogram h({1000000});
  { TraceSpan span("timed", &h); }
  EXPECT_EQ(h.count(), 1u);
}

TEST(Trace, FinishIsIdempotent) {
  ScopedTrace trace("t");
  { TraceSpan s("a"); }
  SpanNode first = trace.Finish();
  SpanNode second = trace.Finish();
  EXPECT_EQ(first.children.size(), 1u);
  EXPECT_EQ(second.children.size(), 1u);
}

// Prometheus text-format conformance: escaping and family headers.

TEST(Registry, LabelValuesAreEscapedInExposition) {
  MetricsRegistry registry;
  registry.GetCounter(WithLabel("esc_total", "path", "a\"b\\c\nd"))->Inc();
  std::string text = registry.TextExposition();
  EXPECT_NE(text.find("esc_total{path=\"a\\\"b\\\\c\\nd\"} 1"),
            std::string::npos)
      << text;
}

TEST(Registry, HelpTextIsEscapedAndEmittedOncePerFamily) {
  MetricsRegistry registry;
  registry.SetHelp("helped_total", "first line\nsecond \\ line");
  registry.GetCounter(WithLabel("helped_total", "code", "a"))->Inc();
  registry.GetCounter(WithLabel("helped_total", "code", "b"))->Inc();
  std::string text = registry.TextExposition();
  std::string help = "# HELP helped_total first line\\nsecond \\\\ line\n";
  size_t first = text.find(help);
  ASSERT_NE(first, std::string::npos) << text;
  EXPECT_EQ(text.find(help, first + 1), std::string::npos)
      << "one HELP per family, not per series";
  EXPECT_EQ(text.find("# TYPE helped_total counter", first),
            text.find(help) + help.size())
      << "TYPE follows HELP";
}

TEST(Registry, EveryFamilyHasExactlyOneTypeLine) {
  MetricsRegistry registry;
  registry.GetCounter("fam_a_total")->Inc();
  registry.GetCounter(WithLabel("fam_a_total", "code", "x"))->Inc();
  registry.GetGauge("fam_b")->Set(1);
  registry.GetHistogram(WithLabel("fam_c_millis", "op", "scan"))->Observe(2);
  registry.GetHistogram(WithLabel("fam_c_millis", "op", "sort"))->Observe(3);

  std::set<std::string> typed;
  std::istringstream lines(registry.TextExposition());
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("# TYPE ", 0) == 0) {
      std::string family = line.substr(7, line.find(' ', 7) - 7);
      EXPECT_TRUE(typed.insert(family).second)
          << "duplicate # TYPE for " << family;
      continue;
    }
    if (line.empty() || line[0] == '#') continue;
    // Every sample belongs to a family announced by a preceding TYPE.
    std::string name = line.substr(0, line.find_first_of("{ "));
    for (const char* suffix : {"_sum", "_count"}) {
      size_t at = name.size() > strlen(suffix)
                      ? name.rfind(suffix)
                      : std::string::npos;
      if (at != std::string::npos && at == name.size() - strlen(suffix) &&
          typed.count(name.substr(0, at))) {
        name = name.substr(0, at);
      }
    }
    EXPECT_TRUE(typed.count(name)) << "sample before its TYPE: " << line;
  }
}

TEST(Registry, UptimeAndBuildInfoAreExposedGlobally) {
  // Process-level series live only in the global registry; instance
  // registries (like this test's locals elsewhere) never invent them.
  std::string text = MetricsRegistry::Global().TextExposition();
  EXPECT_NE(text.find("# TYPE teleios_process_uptime_seconds gauge"),
            std::string::npos);
  EXPECT_NE(text.find("teleios_build_info{compiler="), std::string::npos);
  EXPECT_GT(ProcessUptimeSeconds(), 0.0);

  MetricsRegistry local;
  local.GetCounter("anything_total")->Inc();
  EXPECT_EQ(local.TextExposition().find("teleios_process_uptime_seconds"),
            std::string::npos);
}

// Structured event log: ring bounds, JSON rendering, JSONL sink.

TEST(EventLog, RingDropsOldestAndCountsEverything) {
  EventLog log(3);
  for (int i = 0; i < 5; ++i) {
    log.Post("e" + std::to_string(i), {{"i", std::to_string(i)}});
  }
  std::vector<Event> window = log.Snapshot();
  ASSERT_EQ(window.size(), 3u);
  EXPECT_EQ(window.front().type, "e2");
  EXPECT_EQ(window.back().type, "e4");
  EXPECT_EQ(log.posted_total(), 5u);
  EXPECT_EQ(log.dropped_total(), 2u);
}

TEST(EventLog, ToJsonEscapesFieldValues) {
  Event event;
  event.unix_millis = 7;
  event.type = "test.event";
  event.fields = {{"msg", "say \"hi\"\n"}};
  EXPECT_EQ(event.ToJson(),
            "{\"ts_millis\": 7, \"type\": \"test.event\", "
            "\"msg\": \"say \\\"hi\\\"\\n\"}");
}

TEST(EventLog, JsonlSinkMirrorsEvents) {
  namespace fs = std::filesystem;
  fs::path path = fs::temp_directory_path() /
                  ("event_sink_" + std::to_string(::getpid()) + ".jsonl");
  EventLog log(8);
  ASSERT_TRUE(log.SetSinkPath(path.string()).ok());
  log.Post("sink.a", {{"k", "v"}});
  log.Post("sink.b", {});
  ASSERT_TRUE(log.SetSinkPath("").ok());  // close and flush

  std::ifstream in(path);
  std::string line;
  std::vector<std::string> lines;
  while (std::getline(in, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("\"type\": \"sink.a\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"k\": \"v\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"type\": \"sink.b\""), std::string::npos);
  fs::remove(path);
}

// Chrome trace-event export.

TEST(TraceExport, GoldenOutputForAFixedTree) {
  SpanNode root;
  root.name = "sql";
  root.millis = 12.375;
  root.attrs = {{"status", "OK"}, {"rows", "4"}};
  SpanNode admit;
  admit.name = "governor.admit";
  admit.millis = 0.25;
  SpanNode scan;
  scan.name = "exec.filter";
  scan.millis = 11.5;
  scan.start_millis = 0.5;
  // A span attr named "depth" gives way to the nesting depth.
  scan.attrs = {{"depth", "99"},
                {"note", "quote \" back\\slash\nnew\tline\x01"}};
  SpanNode morsel;
  morsel.name = "morsel";
  morsel.millis = 1.0625;
  morsel.start_millis = 1.0 / 3.0;  // needs all 17 digits
  scan.children.push_back(morsel);
  root.children.push_back(admit);
  root.children.push_back(scan);

  EXPECT_EQ(
      ToChromeTraceJson(root),
      "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n"
      "{\"name\": \"sql\", \"ph\": \"X\", \"ts\": 0, \"dur\": 12375, "
      "\"pid\": 1, \"tid\": 1, \"args\": {\"depth\": 0, "
      "\"status\": \"OK\", \"rows\": \"4\"}},\n"
      "{\"name\": \"governor.admit\", \"ph\": \"X\", \"ts\": 0, "
      "\"dur\": 250, \"pid\": 1, \"tid\": 1, \"args\": {\"depth\": 1}},\n"
      "{\"name\": \"exec.filter\", \"ph\": \"X\", \"ts\": 500, "
      "\"dur\": 11500, \"pid\": 1, \"tid\": 1, \"args\": {\"depth\": 1, "
      "\"note\": \"quote \\\" back\\\\slash\\nnew\\tline\\u0001\"}},\n"
      "{\"name\": \"morsel\", \"ph\": \"X\", "
      "\"ts\": 333.33333333333331, \"dur\": 1062.5, \"pid\": 1, "
      "\"tid\": 1, \"args\": {\"depth\": 2}}\n"
      "]}");
}

// Race-audit stress tests: run these under TELEIOS_SANITIZE=thread
// (scripts/check.sh pass 4). Counters/gauges/histogram buckets are
// atomics; registry creation and exposition take the registry mutex;
// traces are thread-local, so concurrent per-thread traces never share
// span state.

TEST(ThreadSafety, ConcurrentMetricUpdatesAndExposition) {
  constexpr int kThreads = 8;
  constexpr int kIters = 2000;
  MetricsRegistry& registry = MetricsRegistry::Global();
  Counter* counter = registry.GetCounter("obs_stress_counter_total");
  counter->Reset();
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, counter, t] {
      // Same-name lookups race with creation of per-thread names.
      Gauge* gauge = registry.GetGauge("obs_stress_gauge");
      Histogram* histo = registry.GetHistogram(
          WithLabel("obs_stress_millis", "thread", std::to_string(t)));
      for (int i = 0; i < kIters; ++i) {
        counter->Inc();
        gauge->Add(1.0);
        gauge->Add(-1.0);
        histo->Observe(static_cast<double>(i % 13));
        if (i % 500 == 0) {
          // Exposition concurrent with updates must stay well-formed.
          std::string text = registry.TextExposition();
          EXPECT_NE(text.find("obs_stress_counter_total"),
                    std::string::npos);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(counter->value(),
            static_cast<uint64_t>(kThreads) * kIters);
  EXPECT_EQ(registry.GetGauge("obs_stress_gauge")->value(), 0.0);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(registry
                  .GetHistogram(WithLabel("obs_stress_millis", "thread",
                                          std::to_string(t)))
                  ->count(),
              static_cast<uint64_t>(kIters));
  }
}

TEST(ThreadSafety, PerThreadTracesStayIsolated) {
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (int round = 0; round < 50; ++round) {
        ScopedTrace trace("stress" + std::to_string(t));
        {
          TraceSpan outer("outer");
          outer.SetAttr("thread", std::to_string(t));
          TraceSpan inner("inner");
        }
        SpanNode root = trace.Finish();
        ASSERT_EQ(root.children.size(), 1u);
        ASSERT_EQ(root.children[0].children.size(), 1u);
      }
    });
  }
  for (std::thread& t : threads) t.join();
}

}  // namespace
}  // namespace teleios::obs
