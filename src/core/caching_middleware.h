// CachingMiddleware: the shared edge-node machinery (paper Section 3).
//
// Implements everything except prediction: per-client sessions, the
// shared versioned LRU cache read through core::ReadProtocol (version-
// vector consistency, 3.2; publish-subscribe single flight, 3.3), the
// middleware service station (CPU model), and remote execution.
// Instantiated directly it *is* the Memcached experimental configuration;
// ApolloMiddleware and FidoMiddleware subclass it and add their prediction
// engines through the OnQueryCompleted / OnPredictionCompleted hooks.
#pragma once

#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "cache/kv_cache.h"
#include "cache/version_vector.h"
#include "core/client_session.h"
#include "core/config.h"
#include "core/middleware.h"
#include "core/query_stream.h"
#include "core/read_protocol.h"
#include "net/remote_database.h"
#include "obs/observability.h"
#include "sim/service_station.h"
#include "sql/template.h"
#include "sql/template_cache.h"
#include "util/status.h"

namespace apollo::persist {
struct LearnedState;
struct RestoreStats;
}  // namespace apollo::persist

namespace apollo::core {

class PredictionEngine;

class CachingMiddleware : public Middleware {
 public:
  /// `obs` is the per-run observability bundle (a private one is created
  /// when null); `metric_prefix` qualifies instrument names when several
  /// instances share one registry (e.g. "mw0.").
  CachingMiddleware(sim::EventLoop* loop, net::RemoteDatabase* remote,
                    cache::KvCache* cache, ApolloConfig config,
                    obs::Observability* obs = nullptr,
                    const std::string& metric_prefix = "mw.");

  void SubmitQuery(ClientId client, const std::string& sql,
                   QueryCallback callback) override;

  /// Assembles the legacy stats view from the registry counters.
  const MiddlewareStats& stats() const override;
  std::string name() const override { return "memcached"; }

  obs::Observability& observability() { return *obs_; }
  const obs::Observability& observability() const { return *obs_; }

  const sim::ServiceStationStats& engine_station_stats() const {
    return station_.stats();
  }
  const sql::TemplateCache& template_cache() const { return tcache_; }
  cache::KvCache* result_cache() { return cache_; }
  const ApolloConfig& config() const { return config_; }
  /// The session of `client`, or null if it never issued a query.
  const ClientSession* FindSession(ClientId client) const;

  // ---- Crash-tolerant learned state (src/persist/, DESIGN.md §11) ----
  //
  // Checkpoint/Restore serialize the *learning* state only — templates,
  // per-session transition graphs and satisfied-dependency sets, plus the
  // prediction engine's parameter mappings and FDQ/ADQ graph. Cached
  // result sets, version vectors, recent results and last-seen times are
  // deliberately excluded: a restored process starts with an empty cache
  // and empty sessions vectors, so no stale result can ever be served.
  // Defined in src/persist/middleware_persist.cc (apollo_persist).

  /// Serializes the learning state to `path` atomically (tmp + fsync +
  /// rename). Safe to call at any point between event-loop callbacks.
  /// Every transition window already closed by now is folded into the
  /// graphs first, so a snapshot omits only still-open windows (which a
  /// restart legitimately loses).
  virtual util::Status Checkpoint(const std::string& path);

  /// Restores learning state from `path` with per-section validation.
  /// Corrupt, truncated or unknown sections are skipped with a trace
  /// event while intact ones load (partial recovery); the call fails only
  /// when the file is missing or its header is unusable. `stats`
  /// (optional) receives section and entry counts.
  virtual util::Status Restore(const std::string& path,
                               persist::RestoreStats* stats = nullptr);

  /// The correlation learner, or null for hosts without one (Memcached,
  /// Fido).
  virtual PredictionEngine* prediction_engine() { return nullptr; }

 protected:
  /// Everything known about a query that just completed at the client.
  struct CompletedQuery : ObservedQuery {
    std::string canonical_text;
  };

  /// Hook: a *client* query finished (result already delivered). Learning
  /// subclasses run their prediction routine here. Runs at the completion
  /// simulated time.
  virtual void OnQueryCompleted(ClientSession& session,
                                const CompletedQuery& query) {
    (void)session;
    (void)query;
  }

  /// Hook: a predictive execution issued via PredictiveExecute finished
  /// and its result is cached. Used for pipelining.
  virtual void OnPredictionCompleted(ClientSession& session,
                                     uint64_t template_id,
                                     common::ResultSetPtr result,
                                     int depth) {
    (void)session;
    (void)template_id;
    (void)result;
    (void)depth;
  }

  /// Issues a predictive execution of `sql` on behalf of `session`.
  /// Skips (with stats) when a compatible result is cached or the query is
  /// already in flight. The result is cached and published; `depth` is the
  /// pipeline depth for the completion hook. `template_id` may be 0 when
  /// the caller predicts raw instances (Fido). `probability` is the
  /// transition probability that motivated the prediction; it rides into
  /// the cache entry so cost-aware eviction can weigh confidence
  /// (DESIGN.md §13). 1.0 when the caller has no estimate.
  void PredictiveExecute(ClientSession& session, uint64_t template_id,
                         const std::string& sql, int depth,
                         double probability = 1.0);

  /// Admits one query through the template cache (lex fast path with full
  /// parse fallback), recording the real admission cost into the
  /// admit_fast/admit_full wall histograms.
  util::Result<sql::AdmittedQuery> AdmitQuery(const std::string& sql);

  ClientSession& SessionFor(ClientId client);

  /// Shorthand for recording a prediction-lifecycle trace event.
  void Trace(obs::TraceEventType type, const ClientSession& session,
             uint64_t template_id,
             obs::SkipReason reason = obs::SkipReason::kNone,
             uint64_t aux = 0) {
    if (obs_->trace.enabled()) {
      obs_->trace.Record(type, session.id, template_id, reason, aux);
    }
  }

  sim::EventLoop* loop_;
  net::RemoteDatabase* remote_;
  cache::KvCache* cache_;
  ApolloConfig config_;
  sim::ServiceStation station_;
  ReadProtocol protocol_;
  /// The template catalog: admission fast path, prepared statements and
  /// per-template statistics (DESIGN.md Section 10). Steady state admits
  /// without building an AST.
  sql::TemplateCache tcache_;
  std::unordered_map<ClientId, std::unique_ptr<ClientSession>> sessions_;

  /// Registry-backed instruments; MiddlewareStats is assembled from these
  /// on demand (stats()).
  std::unique_ptr<obs::Observability> owned_obs_;  // fallback when none given
  obs::Observability* obs_;
  struct Counters {
    obs::Counter* queries;
    obs::Counter* reads;
    obs::Counter* writes;
    obs::Counter* cache_hits;
    obs::Counter* cache_misses;
    obs::Counter* coalesced_waits;
    obs::Counter* parse_errors;
    obs::Counter* predictions_issued;
    obs::Counter* predictions_skipped_cached;
    obs::Counter* predictions_skipped_inflight;
    obs::Counter* predictions_skipped_fresh;
    obs::Counter* predictions_skipped_invalid;
    obs::Counter* predictions_skipped_incomplete;
    obs::Counter* adq_reloads;
    obs::Counter* shed_predictions;
    obs::Counter* shed_adq_reloads;
    obs::Counter* subscriber_fallbacks;
    obs::Counter* fdqs_discovered;
    obs::Counter* fdqs_invalidated;
    obs::Counter* find_fdq_calls;
    obs::Counter* construct_fdq_calls;
    obs::Gauge* find_fdq_wall_us;       // real time, not simulated
    obs::Gauge* construct_fdq_wall_us;  // real time, not simulated
    /// Pruned-learning-state counters; zero while the caps are off.
    obs::Counter* learning_pruned_edges;
    obs::Counter* learning_pruned_pairs;
  };
  Counters c_{};
  /// Per-query latency breakdown (DESIGN.md Section 8): simulated cache
  /// round trip and WAN time per client read, and real (wall) time spent
  /// in the learning / predict-decide stages per completed query.
  struct LatencyBreakdown {
    obs::HistogramMetric* cache_us;            // simulated, per client read
    obs::HistogramMetric* wan_us;              // simulated, per remote trip
    obs::HistogramMetric* learn_wall_us;       // wall, per learning pass
    obs::HistogramMetric* predict_wall_us;     // wall, per predict-decide
    obs::HistogramMetric* admit_fast_wall_us;  // wall, lex fast-path admits
    obs::HistogramMetric* admit_full_wall_us;  // wall, full-parse admits
  };
  LatencyBreakdown lat_{};

 private:
  mutable MiddlewareStats stats_view_;

  /// Where this host keeps its learned state, for the shared snapshot
  /// code. Defined in src/persist/middleware_persist.cc.
  persist::LearnedState LearnedStateView();

  void ProcessQuery(ClientId client, const std::string& sql,
                    QueryCallback callback);
  void ExecuteRead(ClientSession& session, sql::AdmittedQuery adm,
                   QueryCallback callback);
  /// Issues a remote read on behalf of a client. When `publish` is set the
  /// caller is the in-flight leader for the key and the outcome (success or
  /// failure) is published to its subscribers; subscriber fallbacks pass
  /// false and keep their result private.
  void RemoteRead(ClientSession& session, sql::AdmittedQuery adm,
                  QueryCallback callback, bool publish);
  void ExecuteWrite(ClientSession& session, sql::AdmittedQuery adm,
                    QueryCallback callback);
  void FinishRead(ClientSession& session, const sql::AdmittedQuery& adm,
                  common::ResultSetPtr result, util::SimDuration remote_time,
                  QueryCallback callback);
};

}  // namespace apollo::core
