// Middleware: the interface clients submit queries to.
//
// Two implementations reproduce the paper's experimental configurations:
//   - ApolloMiddleware     : the paper's predictive framework; with
//                            `enable_prediction` off it is the Memcached
//                            passive result cache
//   - fido::FidoMiddleware : the Fido baseline prediction engine, an
//                            ApolloMiddleware with the engine off
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "common/result_set.h"
#include "util/result.h"

namespace apollo::core {

using ClientId = int;

/// Counters reported by the experiments (overheads, prediction activity).
/// Thin snapshot view over the registry-backed "mw*.*" counters (the
/// obs::MetricsRegistry is the source of truth; see
/// ApolloMiddleware::stats).
struct MiddlewareStats {
  uint64_t queries = 0;
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t cache_hits = 0;    // client reads served from the cache
  uint64_t cache_misses = 0;  // client reads that went remote (or waited)
  uint64_t coalesced_waits = 0;  // client reads served by subscribing to an
                                 // in-flight execution (pub-sub, 3.3)
  uint64_t parse_errors = 0;

  // Prediction activity.
  uint64_t predictions_issued = 0;
  uint64_t predictions_skipped_cached = 0;
  uint64_t predictions_skipped_inflight = 0;
  uint64_t predictions_skipped_fresh = 0;  // freshness-model veto (3.4.1)
  uint64_t predictions_skipped_invalid = 0;
  uint64_t predictions_skipped_incomplete = 0;  // source row/column missing
  uint64_t adq_reloads = 0;

  // Degradation (shed-predictions-first while the WAN path is unhealthy).
  uint64_t shed_predictions = 0;  // predictive executions dropped
  uint64_t shed_adq_reloads = 0;  // ADQ reload passes skipped
  uint64_t subscriber_fallbacks = 0;  // client reads re-issued with their own
                                      // retry budget after an in-flight
                                      // leader died on a transport fault

  // Learning structures.
  uint64_t fdqs_discovered = 0;
  uint64_t fdqs_invalidated = 0;

  // Real (wall-clock) overhead instrumentation, paper Section 4.2.1.
  double find_fdq_wall_us = 0.0;
  uint64_t find_fdq_calls = 0;
  double construct_fdq_wall_us = 0.0;
  uint64_t construct_fdq_calls = 0;
};

class Middleware {
 public:
  using QueryCallback =
      std::function<void(util::Result<common::ResultSetPtr>)>;

  virtual ~Middleware() = default;

  /// Submits one SQL query on behalf of `client`. The callback fires in
  /// simulated time when the result is available at the client.
  virtual void SubmitQuery(ClientId client, const std::string& sql,
                           QueryCallback callback) = 0;

  virtual const MiddlewareStats& stats() const = 0;
  virtual std::string name() const = 0;

  /// Approximate bytes of learning state (overhead reporting); 0 for
  /// non-learning configurations.
  virtual size_t LearningStateBytes() const { return 0; }
};

}  // namespace apollo::core
