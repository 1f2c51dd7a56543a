#include "report.h"

#include <cstdio>

namespace perfbench {

std::string CacheSizeNote(size_t cache_bytes, size_t db_bytes) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "cache %.1f MB of %.1f MB data",
                static_cast<double>(cache_bytes) / 1e6,
                static_cast<double>(db_bytes) / 1e6);
  return buf;
}

const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> kDefs = {
      {"qps", "1/s"},
      {"mean_us", "us"},
      {"p99_us", "us"},
      {"hit_rate", "ratio"},
      {"remote_stmts_per_query", "stmts/query"},
      {"wan_trips_per_query", "trips/query"},
      {"cpu_us_per_query", "us"},
      {"setup_s", "s"},
      {"peak_rss_mb", "MiB"},
  };
  return kDefs;
}

const std::vector<MetricDef>& ExtraMetrics() {
  static const std::vector<MetricDef> kDefs = {
      {"p50_us", "us"},
      {"write_p50_us", "us"},
      {"write_p99_us", "us"},
      {"error_rate", "ratio"},
      {"stale_reads", "count"},
  };
  return kDefs;
}

const std::vector<MetricDef>& PerLayerMetrics() {
  static const std::vector<MetricDef> kDefs = {
      {"sql.admit_us.p50", "us"},
      {"sql.admit_us.p99", "us"},
      {"sql.fast_path_ratio", "ratio"},
      {"db.exec_us.p50", "us"},
      {"db.exec_us.p99", "us"},
      {"db.write_exec_us.p50", "us"},
      {"db.rows_examined_per_stmt", "rows/stmt"},
      {"db.rows_examined_per_row_returned", "ratio"},
      {"rt.pool_queue_wait_us.p50", "us"},
      {"rt.pool_queue_wait_us.p99", "us"},
      {"rt.gateway_handoff_us.p50", "us"},
      {"rt.gateway_handoff_us.p99", "us"},
      {"rt.batch_size.p50", "stmts"},
      {"rt.statements_per_trip", "stmts/trip"},
      {"rt.pool_rejected_predictive", "count"},
      {"core.learn_lock_wait_us.p99", "us"},
      {"core.learn_us.mean", "us"},
      {"core.predict_decide_us.mean", "us"},
      {"core.predictions_per_query", "1/query"},
      {"core.prediction_hit_ratio", "ratio"},
      {"core.predictions_skipped_per_query", "1/query"},
      {"core.predictions_shed_per_query", "1/query"},
      {"core.coalesced_per_read", "ratio"},
      {"core.fdqs_discovered", "count"},
      {"core.fdqs_invalidated", "count"},
      {"cache.get_us.p50", "us"},
      {"cache.put_us.p50", "us"},
      {"cache.hit_ratio", "ratio"},
      {"cache.evictions_per_put", "ratio"},
      {"cache.fill_ratio", "ratio"},
      {"sim.events_per_query", "events/query"},
      {"sim.wall_us_per_event", "us"},
      {"net.remote_attempts_per_query", "attempts/query"},
      {"obs.tracing_overhead_pct", "%"},
  };
  return kDefs;
}

namespace {

const std::vector<MetricDef>& ReportedMetrics(const Options& opts) {
  return opts.trace ? PerLayerMetrics() : EndToEndMetrics();
}

std::string Number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void AppendLine(std::string* out, const MetricDef& d, const Report& r) {
  char line[200];
  auto it = r.metrics.find(d.name);
  if (it == r.metrics.end()) {
    std::snprintf(line, sizeof(line), "  %-36s %16s\n", d.name, "n/a");
  } else {
    std::snprintf(line, sizeof(line), "  %-36s %16.6g %s\n", d.name,
                  it->second, d.unit);
  }
  *out += line;
}

}  // namespace

std::string HumanReport(const Options& opts, const Report& report) {
  std::string out = "perfbench workload=" + opts.workload +
                    " seed=" + std::to_string(opts.seed) +
                    " seconds=" + Number(opts.seconds) +
                    " trace=" + (opts.trace ? "1" : "0") + "\n";
  for (const auto& d : ReportedMetrics(opts)) AppendLine(&out, d, report);
  if (!opts.trace) {
    for (const auto& d : ExtraMetrics()) AppendLine(&out, d, report);
  }
  for (const auto& n : report.notes) out += "  note: " + n + "\n";
  out += "  attempted=" + std::to_string(report.attempted) +
         " failed=" + std::to_string(report.failed) + "\n";
  if (report.check_failures.empty()) {
    out += "  checks: all passed\n";
  } else {
    for (const auto& f : report.check_failures) {
      out += "  CHECK FAILED: " + f + "\n";
    }
  }
  return out;
}

std::string ResultJson(const Options& opts, const Report& report) {
  std::string out = "{\"correct\": ";
  out += report.check_failures.empty() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(report.attempted);
  out += ", \"failed\": " + std::to_string(report.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& d : ReportedMetrics(opts)) {
    auto it = report.metrics.find(d.name);
    const double v = it == report.metrics.end() ? 0.0 : it->second;
    if (!first) out += ", ";
    first = false;
    out.append("\"").append(d.name).append("\": {\"value\": ");
    out.append(Number(v)).append(", \"unit\": \"").append(d.unit);
    out.append("\"}");
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
