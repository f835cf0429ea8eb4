#ifndef TELEIOS_OBS_TRACE_EXPORT_H_
#define TELEIOS_OBS_TRACE_EXPORT_H_

#include <string>

#include "obs/trace.h"

namespace teleios::obs {

/// Serializes a finished span tree as Chrome trace-event JSON (the
/// `chrome://tracing` / Perfetto "JSON Array Format"): one complete
/// event (`"ph": "X"`) per span, pre-order, with microsecond `ts`
/// derived from SpanNode::start_millis and `dur` from millis. Span
/// attributes ride in `args`, alongside a `depth` arg that records the
/// nesting without relying on float timestamp containment.
///
/// This is the PROFILE/export interchange format: sampled traces in
/// `sys.query_log` store it, and a saved file loads directly into
/// about://tracing or `perfetto.dev`.
std::string ToChromeTraceJson(const SpanNode& root);

}  // namespace teleios::obs

#endif  // TELEIOS_OBS_TRACE_EXPORT_H_
