#include "core/caching_middleware.h"

#include <chrono>
#include <utility>

namespace apollo::core {

namespace {
double WallMicrosSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - t0)
             .count() /
         1000.0;
}
}  // namespace

CachingMiddleware::CachingMiddleware(sim::EventLoop* loop,
                                     net::RemoteDatabase* remote,
                                     cache::KvCache* cache,
                                     ApolloConfig config,
                                     obs::Observability* obs,
                                     const std::string& metric_prefix)
    : loop_(loop),
      remote_(remote),
      cache_(cache),
      config_(std::move(config)),
      station_(loop, config_.engine_servers) {
  if (obs == nullptr) {
    owned_obs_ = std::make_unique<obs::Observability>();
    obs = owned_obs_.get();
    obs->trace.set_clock([loop]() { return loop->now(); });
  }
  obs_ = obs;
  obs::MetricsRegistry& m = obs_->metrics;
  const std::string& p = metric_prefix;
  c_.queries = m.RegisterCounter(p + "queries");
  c_.reads = m.RegisterCounter(p + "reads");
  c_.writes = m.RegisterCounter(p + "writes");
  c_.cache_hits = m.RegisterCounter(p + "cache_hits");
  c_.cache_misses = m.RegisterCounter(p + "cache_misses");
  c_.coalesced_waits = m.RegisterCounter(p + "coalesced_waits");
  c_.parse_errors = m.RegisterCounter(p + "parse_errors");
  c_.predictions_issued = m.RegisterCounter(p + "predictions_issued");
  c_.predictions_skipped_cached =
      m.RegisterCounter(p + "predictions_skipped_cached");
  c_.predictions_skipped_inflight =
      m.RegisterCounter(p + "predictions_skipped_inflight");
  c_.predictions_skipped_fresh =
      m.RegisterCounter(p + "predictions_skipped_fresh");
  c_.predictions_skipped_invalid =
      m.RegisterCounter(p + "predictions_skipped_invalid");
  c_.predictions_skipped_incomplete =
      m.RegisterCounter(p + "predictions_skipped_incomplete");
  c_.adq_reloads = m.RegisterCounter(p + "adq_reloads");
  c_.shed_predictions = m.RegisterCounter(p + "shed_predictions");
  c_.shed_adq_reloads = m.RegisterCounter(p + "shed_adq_reloads");
  c_.subscriber_fallbacks = m.RegisterCounter(p + "subscriber_fallbacks");
  c_.fdqs_discovered = m.RegisterCounter(p + "fdqs_discovered");
  c_.fdqs_invalidated = m.RegisterCounter(p + "fdqs_invalidated");
  c_.find_fdq_calls = m.RegisterCounter(p + "find_fdq_calls");
  c_.construct_fdq_calls = m.RegisterCounter(p + "construct_fdq_calls");
  c_.find_fdq_wall_us = m.RegisterGauge(p + "find_fdq_wall_us");
  c_.construct_fdq_wall_us = m.RegisterGauge(p + "construct_fdq_wall_us");
  lat_.cache_us = m.RegisterHistogram(p + "latency.cache_us");
  lat_.wan_us = m.RegisterHistogram(p + "latency.wan_us");
  lat_.learn_wall_us = m.RegisterHistogram(p + "latency.learn_wall_us");
  lat_.predict_wall_us =
      m.RegisterHistogram(p + "latency.predict_decide_wall_us");
  lat_.admit_fast_wall_us =
      m.RegisterHistogram(p + "latency.admit_fast_wall_us");
  lat_.admit_full_wall_us =
      m.RegisterHistogram(p + "latency.admit_full_wall_us");
  c_.learning_pruned_edges = m.RegisterCounter(p + "learning_pruned_edges");
  c_.learning_pruned_pairs = m.RegisterCounter(p + "learning_pruned_pairs");
}

util::Result<sql::AdmittedQuery> CachingMiddleware::AdmitQuery(
    const std::string& sql) {
  const auto t0 = std::chrono::steady_clock::now();
  auto adm = tcache_.Admit(sql);
  const double wall = WallMicrosSince(t0);
  if (adm.ok() && adm->via_fast_path) {
    lat_.admit_fast_wall_us->Record(wall);
  } else {
    lat_.admit_full_wall_us->Record(wall);
  }
  return adm;
}

const MiddlewareStats& CachingMiddleware::stats() const {
  MiddlewareStats& s = stats_view_;
  s.queries = c_.queries->Value();
  s.reads = c_.reads->Value();
  s.writes = c_.writes->Value();
  s.cache_hits = c_.cache_hits->Value();
  s.cache_misses = c_.cache_misses->Value();
  s.coalesced_waits = c_.coalesced_waits->Value();
  s.parse_errors = c_.parse_errors->Value();
  s.predictions_issued = c_.predictions_issued->Value();
  s.predictions_skipped_cached = c_.predictions_skipped_cached->Value();
  s.predictions_skipped_inflight = c_.predictions_skipped_inflight->Value();
  s.predictions_skipped_fresh = c_.predictions_skipped_fresh->Value();
  s.predictions_skipped_invalid = c_.predictions_skipped_invalid->Value();
  s.predictions_skipped_incomplete =
      c_.predictions_skipped_incomplete->Value();
  s.adq_reloads = c_.adq_reloads->Value();
  s.shed_predictions = c_.shed_predictions->Value();
  s.shed_adq_reloads = c_.shed_adq_reloads->Value();
  s.subscriber_fallbacks = c_.subscriber_fallbacks->Value();
  s.fdqs_discovered = c_.fdqs_discovered->Value();
  s.fdqs_invalidated = c_.fdqs_invalidated->Value();
  s.find_fdq_calls = c_.find_fdq_calls->Value();
  s.construct_fdq_calls = c_.construct_fdq_calls->Value();
  s.find_fdq_wall_us = c_.find_fdq_wall_us->Value();
  s.construct_fdq_wall_us = c_.construct_fdq_wall_us->Value();
  return s;
}

ClientSession& CachingMiddleware::SessionFor(ClientId client) {
  auto it = sessions_.find(client);
  if (it == sessions_.end()) {
    it = sessions_
             .emplace(client,
                      std::make_unique<ClientSession>(client, config_))
             .first;
    it->second->stream.SetPruneCounter(c_.learning_pruned_edges);
  }
  return *it->second;
}

void CachingMiddleware::SubmitQuery(ClientId client, const std::string& sql,
                                    QueryCallback callback) {
  c_.queries->Inc();
  // All middleware processing consumes edge-node CPU.
  station_.Submit(config_.engine_overhead_per_query,
                  [this, client, sql, callback = std::move(callback)]() {
                    ProcessQuery(client, sql, std::move(callback));
                  });
}

void CachingMiddleware::ProcessQuery(ClientId client, const std::string& sql,
                                     QueryCallback callback) {
  auto adm = AdmitQuery(sql);
  if (!adm.ok()) {
    c_.parse_errors->Inc();
    callback(adm.status());
    return;
  }
  ClientSession& session = SessionFor(client);
  util::SimTime submit_time = loop_->now();
  if (adm->read_only()) {
    ExecuteRead(session, std::move(*adm), std::move(callback), submit_time);
  } else {
    ExecuteWrite(session, std::move(*adm), std::move(callback),
                 submit_time);
  }
}

void CachingMiddleware::FinishRead(ClientSession& session,
                                   const sql::AdmittedQuery& adm,
                                   common::ResultSetPtr result,
                                   util::SimDuration remote_time,
                                   QueryCallback callback) {
  if (remote_time > 0) adm.tpl->RecordExecution(remote_time);
  // Latency breakdown: every client read pays one cache round trip; reads
  // that went remote additionally record the observed WAN time.
  lat_.cache_us->Record(config_.cache_latency);
  if (remote_time > 0) lat_.wan_us->Record(remote_time);
  callback(result);
  CompletedQuery cq;
  cq.tpl = adm.tpl.get();
  cq.canonical_text = adm.canonical_text;
  cq.params = adm.params;
  cq.result = std::move(result);
  OnQueryCompleted(session, cq);
}

void CachingMiddleware::ExecuteRead(ClientSession& session,
                                    sql::AdmittedQuery adm,
                                    QueryCallback callback,
                                    util::SimTime submit_time) {
  c_.reads->Inc();
  tcache_.BumpObservations(*adm.tpl);
  if (adm.tpl->observations == 1) {
    Trace(obs::TraceEventType::kTemplateDiscovered, session,
          adm.fingerprint());
  }

  // One round trip to the shared cache.
  loop_->After(config_.cache_latency, [this, &session,
                                       adm = std::move(adm),
                                       callback = std::move(callback),
                                       submit_time]() mutable {
    auto entry = cache_->GetCompatible(adm.canonical_text, session.vv,
                                       adm.tables_read());
    if (entry.has_value()) {
      c_.cache_hits->Inc();
      session.vv.MergeMax(entry->stamp, adm.tables_read());
      FinishRead(session, adm, entry->result, /*remote_time=*/0,
                 std::move(callback));
      return;
    }
    c_.cache_misses->Inc();
    const std::string key = adm.canonical_text;

    if (config_.enable_pubsub_dedup) {
      bool leader = inflight_.BeginOrSubscribe(
          key,
          [this, &session, adm, callback](
              const util::Result<common::ResultSetPtr>& result,
              const cache::VersionVector& stamp) {
            c_.coalesced_waits->Inc();
            if (!result.ok()) {
              if (result.status().IsRetryable()) {
                // The leader died on a transport fault — often a predictive
                // execution, which carries no retry budget. Client queries
                // keep theirs: re-issue privately instead of inheriting the
                // leader's failure.
                c_.subscriber_fallbacks->Inc();
                RemoteRead(session, adm, callback, /*publish=*/false);
                return;
              }
              callback(result.status());
              return;
            }
            // The leader's read may have executed at the remote before this
            // session's latest write landed there; accept its result only
            // if the stamp dominates the session's vector on every table
            // read, or a pre-write row leaks past read-your-writes.
            if (!stamp.DominatesFor(session.vv, adm.tables_read())) {
              c_.subscriber_fallbacks->Inc();
              RemoteRead(session, adm, callback, /*publish=*/false);
              return;
            }
            for (const auto& t : adm.tables_read()) {
              session.vv.AdvanceTo(t, stamp.Get(t));
            }
            FinishRead(session, adm, result.value(), /*remote_time=*/0,
                       callback);
          });
      if (!leader) return;  // subscribed; the leader will publish
    }

    (void)submit_time;
    RemoteRead(session, std::move(adm), std::move(callback),
               /*publish=*/true);
  });
}

void CachingMiddleware::RemoteRead(ClientSession& session,
                                   sql::AdmittedQuery adm,
                                   QueryCallback callback, bool publish) {
  const std::string key = adm.canonical_text;
  util::SimTime t0 = loop_->now();
  // Prepared path when the template round-trips through the parser and all
  // placeholders are bound; the remote edge then executes the cached
  // statement without re-parsing. Copies are taken before the lambda
  // capture moves `adm` (argument evaluation order is unspecified).
  const bool prepared = adm.preparable();
  sql::CachedTemplatePtr tpl = adm.tpl;
  std::vector<common::Value> params = adm.params;
  auto on_done = [this, &session, adm = std::move(adm), key,
                  callback = std::move(callback), publish,
                  t0](util::Result<common::ResultSetPtr> result,
                      std::unordered_map<std::string, uint64_t> versions)
      mutable {
    if (!result.ok()) {
      callback(result.status());
      if (publish) inflight_.Complete(key, result, {});
      return;
    }
    cache::VersionVector stamp;
    for (const auto& [t, v] : versions) stamp.Set(t, v);
    util::SimDuration remote_time = loop_->now() - t0;
    // The round trip this entry just paid is the miss cost a future hit
    // saves; cost-aware eviction (DESIGN.md §13) weighs it.
    cache::KvCache::PutAttrs attrs;
    attrs.template_id = adm.fingerprint();
    attrs.miss_cost_us = static_cast<double>(remote_time);
    cache_->Put(key, *result, stamp, attrs);
    for (const auto& t : adm.tables_read()) {
      session.vv.AdvanceTo(t, stamp.Get(t));
    }
    common::ResultSetPtr rs = *result;
    if (publish) inflight_.Complete(key, result, stamp);
    FinishRead(session, adm, std::move(rs), remote_time,
               std::move(callback));
  };
  if (prepared) {
    remote_->ExecutePrepared(std::move(tpl), std::move(params),
                             std::move(on_done));
  } else {
    remote_->Execute(key, std::move(on_done));
  }
}

void CachingMiddleware::ExecuteWrite(ClientSession& session,
                                     sql::AdmittedQuery adm,
                                     QueryCallback callback,
                                     util::SimTime submit_time) {
  c_.writes->Inc();
  (void)submit_time;
  tcache_.BumpObservations(*adm.tpl);
  if (adm.tpl->observations == 1) {
    Trace(obs::TraceEventType::kTemplateDiscovered, session,
          adm.fingerprint());
  }
  util::SimTime t0 = loop_->now();
  // Copies before the call: the lambda capture moves `adm`, and function
  // argument evaluation order is unspecified.
  const bool prepared = adm.preparable();
  const std::string sql_text = adm.canonical_text;
  sql::CachedTemplatePtr tpl = adm.tpl;
  std::vector<common::Value> params = adm.params;
  auto on_done = [this, &session, adm = std::move(adm),
                  callback = std::move(callback),
                  t0](util::Result<common::ResultSetPtr> result,
                      std::unordered_map<std::string, uint64_t> versions)
      mutable {
    if (!result.ok()) {
      callback(result.status());
      return;
    }
    // The client has now observed the post-write versions of every
    // table the statement touched (paper 3.2).
    for (const auto& [t, v] : versions) session.vv.AdvanceTo(t, v);
    util::SimDuration remote_time = loop_->now() - t0;
    lat_.wan_us->Record(remote_time);
    adm.tpl->RecordExecution(remote_time);
    callback(*result);
    CompletedQuery cq;
    cq.tpl = adm.tpl.get();
    cq.canonical_text = adm.canonical_text;
    cq.params = adm.params;
    OnQueryCompleted(session, cq);
  };
  if (prepared) {
    remote_->ExecutePrepared(std::move(tpl), std::move(params),
                             std::move(on_done));
  } else {
    remote_->Execute(sql_text, std::move(on_done));
  }
}

void CachingMiddleware::PredictiveExecute(ClientSession& session,
                                          uint64_t template_id,
                                          const std::string& sql, int depth,
                                          double probability) {
  // Degraded WAN path: shed optional load before it consumes anything.
  // AllowPredictive admits one prediction as the breaker's half-open probe.
  if (!remote_->AllowPredictive()) {
    c_.shed_predictions->Inc();
    Trace(obs::TraceEventType::kPredictionSkipped, session, template_id,
          obs::SkipReason::kShed, static_cast<uint64_t>(depth));
    return;
  }
  auto adm = AdmitQuery(sql);
  if (!adm.ok() || !adm->read_only()) {
    c_.predictions_skipped_invalid->Inc();
    Trace(obs::TraceEventType::kPredictionSkipped, session, template_id,
          obs::SkipReason::kInvalidSql, static_cast<uint64_t>(depth));
    return;
  }
  const std::string key = adm->canonical_text;
  // Never predictively execute what is already usable from the cache
  // (paper Section 4.3).
  if (cache_->ContainsCompatible(key, session.vv, adm->tables_read())) {
    c_.predictions_skipped_cached->Inc();
    Trace(obs::TraceEventType::kPredictionSkipped, session, template_id,
          obs::SkipReason::kCached, static_cast<uint64_t>(depth));
    return;
  }
  if (config_.enable_pubsub_dedup) {
    bool leader = inflight_.BeginOrSubscribe(
        key, [this, &session, template_id, depth](
                 const util::Result<common::ResultSetPtr>& result,
                 const cache::VersionVector& stamp) {
          (void)stamp;
          if (result.ok()) {
            OnPredictionCompleted(session, template_id, result.value(),
                                  depth);
          }
        });
    if (!leader) {
      c_.predictions_skipped_inflight->Inc();
      Trace(obs::TraceEventType::kPredictionSkipped, session, template_id,
            obs::SkipReason::kInflight, static_cast<uint64_t>(depth));
      return;
    }
  }
  c_.predictions_issued->Inc();
  Trace(obs::TraceEventType::kPredictionIssued, session, template_id,
        obs::SkipReason::kNone, static_cast<uint64_t>(depth));
  station_.Submit(
      config_.engine_overhead_per_prediction,
      [this, &session, template_id, sql, key, depth, probability,
       adm = std::move(*adm)]() mutable {
        util::SimTime t0 = loop_->now();
        auto on_done =
            [this, &session, template_id, key, depth, probability,
             t0](util::Result<common::ResultSetPtr> result,
                 std::unordered_map<std::string, uint64_t> versions) {
              if (!result.ok()) {
                inflight_.Complete(key, result, {});
                return;
              }
              cache::VersionVector stamp;
              for (const auto& [t, v] : versions) stamp.Set(t, v);
              cache::KvCache::PutAttrs attrs;
              attrs.predicted = true;
              attrs.template_id = template_id;
              attrs.miss_cost_us = static_cast<double>(loop_->now() - t0);
              attrs.probability = probability;
              cache_->Put(key, *result, stamp, attrs);
              Trace(obs::TraceEventType::kPredictionCached, session,
                    template_id, obs::SkipReason::kNone,
                    static_cast<uint64_t>(depth));
              const sql::CachedTemplate* tpl =
                  tcache_.GetByFingerprint(template_id);
              if (tpl != nullptr) tpl->RecordExecution(loop_->now() - t0);
              common::ResultSetPtr rs = *result;
              inflight_.Complete(key, result, stamp);
              OnPredictionCompleted(session, template_id, std::move(rs),
                                    depth);
            };
        if (adm.preparable()) {
          remote_->ExecutePrepared(adm.tpl, std::move(adm.params),
                                   std::move(on_done),
                                   /*predictive=*/true);
        } else {
          remote_->Execute(sql, std::move(on_done), /*predictive=*/true);
        }
      });
}

}  // namespace apollo::core
