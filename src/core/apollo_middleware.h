// ApolloMiddleware: the edge-node middleware on the simulator (paper
// Sections 2-3), and the only event-loop host.
//
// Per-client sessions, the shared versioned LRU cache read through
// core::ReadProtocol (version-vector consistency, 3.2; publish-subscribe
// single flight, 3.3), the middleware service station (CPU model), remote
// execution, and the predictive framework. The learning and prediction
// decisions (Algorithms 1-4, pipelining, the 3.4.1 freshness model and
// 3.4.2 ADQ reload) live in core::PredictionEngine, shared with the rt
// runtime; this class feeds the engine each completed query at simulated
// time and executes every decided prediction immediately.
//
// With `enable_prediction` off the engine is never consulted and the host
// is the paper's Memcached configuration, as rt::ConcurrentApollo is.
// fido::FidoMiddleware derives from it with the engine forced off and
// runs its own predictor through the OnQueryCompleted hook.
#pragma once

#include <memory>
#include <string>
#include <unordered_map>

#include "cache/kv_cache.h"
#include "core/client_session.h"
#include "core/config.h"
#include "core/middleware.h"
#include "core/prediction_engine.h"
#include "core/read_protocol.h"
#include "net/remote_database.h"
#include "obs/observability.h"
#include "sim/service_station.h"
#include "sql/template_cache.h"
#include "util/status.h"

namespace apollo::persist {
struct LearnedState;
struct RestoreStats;
}  // namespace apollo::persist

namespace apollo::core {

class ApolloMiddleware : public Middleware {
 public:
  /// `obs` is the per-run observability bundle (a private one is created
  /// when null); `metric_prefix` qualifies instrument names when several
  /// instances share one registry (e.g. "mw0.").
  ApolloMiddleware(sim::EventLoop* loop, net::RemoteDatabase* remote,
                   cache::KvCache* cache, ApolloConfig config,
                   obs::Observability* obs = nullptr,
                   const std::string& metric_prefix = "mw.");

  void SubmitQuery(ClientId client, const std::string& sql,
                   QueryCallback callback) override;

  /// Assembles the legacy stats view from the registry counters.
  const MiddlewareStats& stats() const override;
  std::string name() const override {
    return config_.enable_prediction ? "apollo" : "memcached";
  }
  /// 0 with prediction off: nothing is learned.
  size_t LearningStateBytes() const override;

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

  /// The correlation learner, or null with prediction off (Memcached,
  /// Fido).
  PredictionEngine* prediction_engine() {
    return config_.enable_prediction ? &engine_ : nullptr;
  }

  // ---- Crash-tolerant learned state (src/persist/, DESIGN.md §11) ----
  //
  // Checkpoint/Restore serialize the *learning* state only — templates,
  // per-session transition graphs and satisfied-dependency sets, plus the
  // prediction engine's parameter mappings and FDQ/ADQ graph when
  // prediction is on. Cached result sets, version vectors, recent results
  // and last-seen times are deliberately excluded: a restored process
  // starts with an empty cache and empty sessions vectors, so no stale
  // result can ever be served. Defined in src/persist/middleware_persist.cc
  // (apollo_persist).

  /// Serializes the learning state to `path` atomically (tmp + fsync +
  /// rename). Safe to call at any point between event-loop callbacks.
  /// Every transition window already closed by now is folded into the
  /// graphs first, so a snapshot omits only still-open windows (which a
  /// restart legitimately loses).
  util::Status Checkpoint(const std::string& path);

  /// Restores learning state from `path` with per-section validation.
  /// Corrupt, truncated or unknown sections are skipped with a trace
  /// event while intact ones load (partial recovery); the call fails only
  /// when the file is missing or its header is unusable. `stats`
  /// (optional) receives section and entry counts.
  util::Status Restore(const std::string& path,
                       persist::RestoreStats* stats = nullptr);

 protected:
  /// Everything known about a query that just completed at the client.
  struct CompletedQuery : ObservedQuery {
    std::string canonical_text;
  };

  /// Hook: a *client* query finished (result already delivered); runs at
  /// the completion simulated time. Feeds the prediction engine when
  /// prediction is on. Fido replaces it with its own predictor.
  virtual void OnQueryCompleted(ClientSession& session,
                                const CompletedQuery& query);

  /// Issues a predictive execution of `sql` on behalf of `session`.
  /// Skips (with stats) when a compatible result is cached or the query is
  /// already in flight. The result is cached and published; `depth` is the
  /// pipeline depth for pipelining. `template_id` may be 0 when the caller
  /// predicts raw instances (Fido). `probability` is the transition
  /// probability that motivated the prediction; it rides into the cache
  /// entry so cost-aware eviction can weigh confidence (DESIGN.md §13).
  /// 1.0 when the caller has no estimate.
  void PredictiveExecute(ClientSession& session, uint64_t template_id,
                         const std::string& sql, int depth,
                         double probability = 1.0);

 private:
  /// Round trip to the shared cache (Memcached on a nearby machine).
  static constexpr util::SimDuration kCacheLatency = util::Micros(400);

  /// Sink that hands each decided prediction to PredictiveExecute.
  class IssueNow final : public PredictionSink {
   public:
    IssueNow(ApolloMiddleware* mw, ClientSession* session)
        : mw_(mw), session_(session) {}
    void Issue(const PredictionItem& item) override {
      mw_->PredictiveExecute(*session_, item.template_id, item.sql,
                             item.depth, item.probability);
    }
    // Never called: this host learns only from completed queries.
    void Defer(Fdq*) override {}

   private:
    ApolloMiddleware* mw_;
    ClientSession* session_;
  };

  /// Registers this host's instruments (in export order) and returns the
  /// ones the engine borrows. Runs from `engine_`'s initializer.
  PredictionEngine::Instruments RegisterInstruments(const std::string& p);

  /// A predictive execution issued via PredictiveExecute finished and its
  /// result is cached: pipelining, when prediction is on.
  void OnPredictionCompleted(ClientSession& session, uint64_t template_id,
                             common::ResultSetPtr result, int depth);

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
  /// Declared after the instruments it borrows (RegisterInstruments).
  PredictionEngine engine_;

  mutable MiddlewareStats stats_view_;
};

}  // namespace apollo::core
