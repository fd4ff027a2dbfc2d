// Exporters for the observability layer.
//
// write_chrome_trace renders a Tracer's tracks and events as Chrome
// trace-event JSON (the object form: {"displayTimeUnit", "traceEvents"}),
// loadable in Perfetto (https://ui.perfetto.dev) and chrome://tracing.
// Timestamps are exported in microseconds (the format's native unit);
// virtual nanoseconds are preserved exactly as fractional values.
//
// write_metrics_csv renders a Registry snapshot as "metric,field,value"
// rows (see obs/registry.hpp for the flattening rules).
#pragma once

#include <iosfwd>
#include <string>

#include "obs/registry.hpp"
#include "obs/trace.hpp"

namespace strings::obs {

/// Emits the trace as Chrome trace-event JSON. Metadata events name every
/// process and thread; complete ("X"), instant ("i"), and counter ("C")
/// events carry the collected data. Each GPU's `util` counter is derived
/// here from its KL/H2D/D2H spans: 1 over their union, 0 elsewhere.
void write_chrome_trace(const Tracer& tracer, std::ostream& os);

/// Convenience: write_chrome_trace to `path`. Returns false (and writes
/// nothing) when the file cannot be opened.
bool write_chrome_trace_file(const Tracer& tracer, const std::string& path);

/// Emits the registry snapshot as CSV.
void write_metrics_csv(const Registry& registry, std::ostream& os);

/// Convenience: write_metrics_csv to `path`; false if unopenable.
bool write_metrics_csv_file(const Registry& registry, const std::string& path);

}  // namespace strings::obs
