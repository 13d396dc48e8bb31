// Prometheus text-exposition writer over a MetricsRegistry snapshot.
//
// The registry's dotted metric names and `name{key="value"}` label keys
// (obs/metrics.hpp) are mapped onto the exposition format (version
// 0.0.4, the text format every Prometheus scraper and promtool accept):
//
//   * base names are sanitized to [a-zA-Z_:][a-zA-Z0-9_:]* — dots (and
//     anything else illegal) become underscores — and prefixed
//     `pargreedy_`, so `engine.batches{engine="mis"}` exports as
//     `pargreedy_engine_batches{engine="mis"}`;
//   * counters and gauges map to their own types; log2 histograms map to
//     a `summary` (quantile labels from the bucket percentiles + _sum +
//     _count) — the repo's histograms are percentile-shaped, and a
//     summary is the exposition type that carries percentiles verbatim;
//   * every series of one base name is grouped under a single # TYPE
//     line, labeled and unlabeled series together, as the format
//     requires.
//
// Like every exporter here this is a pull-side rendering of relaxed
// atomic reads: it never blocks metric writers.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace pargreedy::obs {

/// A registry key's exported spelling: sanitized, `pargreedy_`-prefixed
/// base name with the label part re-attached ("" labels => bare name).
std::string prometheus_series_name(const std::string& registry_key);

/// Renders `samples` (a MetricsRegistry::snapshot()) as Prometheus text
/// exposition. Ends with a newline.
void write_prometheus(std::ostream& out,
                      const std::vector<MetricSample>& samples);

/// The global registry's snapshot in exposition format.
void write_prometheus(std::ostream& out);

/// write_prometheus() to `path` via temp file + rename. False on I/O
/// failure.
bool write_prometheus_file(const std::string& path);

}  // namespace pargreedy::obs
