// The metric catalog (names and units, in BENCHMARK.json order) and the
// printed forms of a Report: the human-readable lines and the final JSON
// result line.
#pragma once

#include <string>
#include <vector>

#include "bench.h"

namespace perfbench {

struct MetricDef {
  const char* name;
  const char* unit;
};

/// End-to-end metrics reported by every untraced run.
const std::vector<MetricDef>& EndToEndMetrics();
/// End-to-end figures that are printed but are not benchmark metrics
/// (README.md says why): the latency median, which jumps between the hit
/// and the miss latency when the hit rate is near one half; write
/// latency, whose median swings by a quarter between runs at rtt 0; and
/// the two that must read 0 (they gate `correct` and `failed` instead).
const std::vector<MetricDef>& ExtraMetrics();
/// Per-layer metrics reported by every traced run.
const std::vector<MetricDef>& PerLayerMetrics();

/// Human-readable report: every metric of the run's kind by name, value
/// and unit ("n/a" where the workload does not run the layer), the
/// extras, notes and check outcomes.
std::string HumanReport(const Options& opts, const Report& report);

/// The final stdout line: {"correct", "attempted", "failed", "metrics"}.
/// Metrics the workload does not produce are reported as 0.
std::string ResultJson(const Options& opts, const Report& report);

}  // namespace perfbench
