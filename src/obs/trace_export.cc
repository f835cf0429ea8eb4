#include "obs/trace_export.h"

#include <cstdio>

#include "obs/event_log.h"

namespace teleios::obs {

namespace {

/// Full-precision double rendering: ts/dur keep every bit of the span's
/// timing.
std::string DoubleToJson(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void AppendEvent(const SpanNode& node, int depth, bool* first,
                 std::string* out) {
  if (!*first) *out += ",\n";
  *first = false;
  *out += R"({"name": ")" + JsonEscapeString(node.name) +
          R"(", "ph": "X", "ts": )" + DoubleToJson(node.start_millis * 1000.0) +
          ", \"dur\": " + DoubleToJson(node.millis * 1000.0) +
          R"(, "pid": 1, "tid": 1, "args": {"depth": )" +
          std::to_string(depth);
  for (const auto& [k, v] : node.attrs) {
    if (k == "depth") continue;  // reserved for the nesting depth
    *out += ", \"" + JsonEscapeString(k) + "\": \"" + JsonEscapeString(v) +
            "\"";
  }
  *out += "}}";
  for (const SpanNode& child : node.children) {
    AppendEvent(child, depth + 1, first, out);
  }
}

}  // namespace

std::string ToChromeTraceJson(const SpanNode& root) {
  std::string out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  bool first = true;
  AppendEvent(root, 0, &first, &out);
  out += "\n]}";
  return out;
}

}  // namespace teleios::obs
