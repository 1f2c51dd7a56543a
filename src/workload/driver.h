// Experiment driver: builds the full simulated testbed (database, WAN,
// cache(s), middleware instance(s), clients) and runs one measured
// experiment, reproducing the paper's experimental phases:
//   - Fido: offline training on traces 2x the experiment length (4.1)
//   - Memcached: a cache warm-up period before measurement (4.1)
//   - Apollo: cold start, online learning
// Statistics are reported as deltas over the measurement window.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "cache/kv_cache.h"
#include "core/config.h"
#include "net/remote_database.h"
#include "obs/observability.h"
#include "workload/workload.h"

namespace apollo::workload {

enum class SystemType { kApollo, kMemcached, kFido };

std::string SystemTypeName(SystemType t);

struct RunConfig {
  SystemType system = SystemType::kApollo;
  int num_clients = 20;
  util::SimDuration duration = util::Minutes(20);
  util::SimDuration warmup = 0;  // cache warm period before measurement
  double fido_training_factor = 2.0;  // training trace length / duration

  net::RemoteDbConfig remote;
  core::ApolloConfig apollo;

  /// Cache budget per middleware instance; 0 = 5% of database size.
  size_t cache_bytes = 0;
  /// When cache_bytes is 0 and this is > 0, the budget is cache_ratio x
  /// database size instead of the 5% default (the cache-to-DB sweep knob
  /// of bench/cache_policy.cc — the DB size is only known inside the run).
  double cache_ratio = 0.0;
  int num_instances = 1;

  util::SimDuration bucket_width = util::Minutes(4);
  /// Keep per-bucket histograms so RunMetrics::Timeline reports p99 per
  /// bucket (used by the outage-recovery bench).
  bool bucket_percentiles = false;
  /// Sampling interval for the fault/degradation time series in
  /// RunResult::samples; 0 disables sampling.
  util::SimDuration sample_interval = 0;
  uint64_t seed = 1;

  /// Workload-shift experiment: behaviours switch to this workload at
  /// measure_start + switch_at. The second workload's tables must already
  /// be distinct (use table_prefix).
  Workload* switch_to = nullptr;
  util::SimDuration switch_at = 0;

  /// Prediction-lifecycle tracing (obs::TraceLog). Disabled by default:
  /// Record() is a single branch then, so fully-instrumented runs stay
  /// within the <2% overhead budget.
  bool enable_trace = false;
  size_t trace_capacity = 8192;
  /// When non-empty, the trace ring is exported as JSONL here at run end.
  std::string trace_jsonl_path;
};

/// One point of the degradation time series (RunConfig::sample_interval).
/// Counter fields are deltas over the preceding interval.
struct IntervalSample {
  double minute_end = 0.0;  // minutes since measurement start
  uint64_t queries = 0;     // client reads+writes completing the interval
  double hit_rate = 0.0;    // cache hit rate over the interval
  uint64_t retries = 0;
  uint64_t timeouts = 0;
  uint64_t breaker_opens = 0;
  uint64_t shed_predictions = 0;
  uint64_t shed_adq_reloads = 0;
  uint64_t remote_errors = 0;
  uint64_t client_errors = 0;  // errors that reached a client callback

  // Mean per-query latency breakdown over the interval (simulated ms),
  // from the registry-backed mw*.latency.* histograms.
  double mean_wan_ms = 0.0;    // remote round trips / remote trip count
  double mean_cache_ms = 0.0;  // cache round trips / client read count
};

struct RunResult {
  std::string system_name;
  int num_clients = 0;
  std::shared_ptr<RunMetrics> metrics;  // measured-phase response times

  // Deltas over the measurement window.
  core::MiddlewareStats mw;
  cache::CacheStats cache_stats;
  net::RemoteDbStats remote;
  db::DatabaseStats db;

  /// Errors delivered to client callbacks during measurement (absorbed
  /// retries do not count; this is the client-visible failure count).
  uint64_t client_visible_errors = 0;

  /// Degradation time series (empty unless sample_interval > 0).
  std::vector<IntervalSample> samples;

  size_t learning_bytes = 0;  // engine learning state at end of run
  size_t db_bytes = 0;        // database size (cache sizing context)
  size_t cache_capacity = 0;
  uint64_t sim_events = 0;

  /// The run's observability bundle (metrics registry + trace ring). All
  /// middleware/cache/remote instruments live here, prefixed "mw<k>.",
  /// "cache<k>." and "remote."; the legacy stats fields above are deltas
  /// assembled from it.
  std::shared_ptr<obs::Observability> obs;

  double MeanMs() const { return metrics ? metrics->MeanMs() : 0.0; }
  double PercentileMs(double p) const {
    return metrics ? metrics->PercentileMs(p) : 0.0;
  }
};

/// Runs one experiment configuration on a fresh database.
RunResult RunExperiment(Workload& workload, const RunConfig& config);

}  // namespace apollo::workload
