#include "core/apollo_middleware.h"

#include <chrono>
#include <utility>

#include "util/wall_clock.h"

namespace apollo::core {

namespace {
/// The private bundle of a host built without one (null when `given` is
/// set), its trace stamped with the loop's simulated clock.
std::unique_ptr<obs::Observability> OwnObservability(obs::Observability* given,
                                                     sim::EventLoop* loop) {
  if (given != nullptr) return nullptr;
  auto owned = std::make_unique<obs::Observability>();
  owned->trace.set_clock([loop]() { return loop->now(); });
  return owned;
}
}  // namespace

ApolloMiddleware::ApolloMiddleware(sim::EventLoop* loop,
                                   net::RemoteDatabase* remote,
                                   cache::KvCache* cache, ApolloConfig config,
                                   obs::Observability* obs,
                                   const std::string& metric_prefix)
    : loop_(loop),
      remote_(remote),
      cache_(cache),
      config_(std::move(config)),
      station_(loop, config_.engine_servers),
      protocol_(cache, config_.enable_pubsub_dedup),
      owned_obs_(OwnObservability(obs, loop)),
      obs_(obs != nullptr ? obs : owned_obs_.get()),
      engine_(config_, &tcache_, RegisterInstruments(metric_prefix)) {
  engine_.mapper().SetPruneCounter(c_.learning_pruned_pairs);
}

PredictionEngine::Instruments ApolloMiddleware::RegisterInstruments(
    const std::string& p) {
  obs::MetricsRegistry& m = obs_->metrics;
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
  return {.fdqs_discovered = c_.fdqs_discovered,
          .fdqs_invalidated = c_.fdqs_invalidated,
          .adq_reloads = c_.adq_reloads,
          .skipped_fresh = c_.predictions_skipped_fresh,
          .skipped_incomplete = c_.predictions_skipped_incomplete,
          .skipped_invalid = c_.predictions_skipped_invalid,
          .find_fdq_calls = c_.find_fdq_calls,
          .construct_fdq_calls = c_.construct_fdq_calls,
          .find_fdq_wall_us = c_.find_fdq_wall_us,
          .construct_fdq_wall_us = c_.construct_fdq_wall_us,
          .trace = &obs_->trace};
}

util::Result<sql::AdmittedQuery> ApolloMiddleware::AdmitQuery(
    const std::string& sql) {
  const auto t0 = std::chrono::steady_clock::now();
  auto adm = tcache_.Admit(sql);
  const double wall = util::WallMicrosSince(t0);
  if (adm.ok() && adm->via_fast_path) {
    lat_.admit_fast_wall_us->Record(wall);
  } else {
    lat_.admit_full_wall_us->Record(wall);
  }
  return adm;
}

const MiddlewareStats& ApolloMiddleware::stats() const {
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

size_t ApolloMiddleware::LearningStateBytes() const {
  if (!config_.enable_prediction) return 0;
  size_t total = engine_.ApproximateBytes() + tcache_.ApproximateBytes();
  for (const auto& [_, session] : sessions_) {
    total += session->stream.ApproximateBytes();
    total += session->satisfied.size() * 64;
  }
  return total;
}

ClientSession& ApolloMiddleware::SessionFor(ClientId client) {
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

const ClientSession* ApolloMiddleware::FindSession(ClientId client) const {
  auto it = sessions_.find(client);
  return it == sessions_.end() ? nullptr : it->second.get();
}

void ApolloMiddleware::SubmitQuery(ClientId client, const std::string& sql,
                                   QueryCallback callback) {
  c_.queries->Inc();
  // All middleware processing consumes edge-node CPU.
  station_.Submit(config_.engine_overhead_per_query,
                  [this, client, sql, callback = std::move(callback)]() {
                    ProcessQuery(client, sql, std::move(callback));
                  });
}

void ApolloMiddleware::ProcessQuery(ClientId client, const std::string& sql,
                                    QueryCallback callback) {
  auto adm = AdmitQuery(sql);
  if (!adm.ok()) {
    c_.parse_errors->Inc();
    callback(adm.status());
    return;
  }
  ClientSession& session = SessionFor(client);
  if (adm->read_only()) {
    ExecuteRead(session, std::move(*adm), std::move(callback));
  } else {
    ExecuteWrite(session, std::move(*adm), std::move(callback));
  }
}

void ApolloMiddleware::FinishRead(ClientSession& session,
                                  const sql::AdmittedQuery& adm,
                                  common::ResultSetPtr result,
                                  util::SimDuration remote_time,
                                  QueryCallback callback) {
  if (remote_time > 0) adm.tpl->RecordExecution(remote_time);
  // Latency breakdown: every client read pays one cache round trip; reads
  // that went remote additionally record the observed WAN time.
  lat_.cache_us->Record(kCacheLatency);
  if (remote_time > 0) lat_.wan_us->Record(remote_time);
  callback(result);
  CompletedQuery cq;
  cq.tpl = adm.tpl.get();
  cq.canonical_text = adm.canonical_text;
  cq.params = adm.params;
  cq.result = std::move(result);
  OnQueryCompleted(session, cq);
}

void ApolloMiddleware::ExecuteRead(ClientSession& session,
                                   sql::AdmittedQuery adm,
                                   QueryCallback callback) {
  c_.reads->Inc();
  tcache_.BumpObservations(*adm.tpl);
  if (adm.tpl->observations == 1) {
    Trace(obs::TraceEventType::kTemplateDiscovered, session,
          adm.fingerprint());
  }

  // One round trip to the shared cache.
  loop_->After(kCacheLatency, [this, &session, adm = std::move(adm),
                               callback = std::move(callback)]() mutable {
    auto entry = cache_->GetCompatible(adm.canonical_text, session.vv,
                                       adm.tables_read());
    if (entry.has_value()) {
      c_.cache_hits->Inc();
      ReadProtocol::Observe(session.vv, entry->stamp, adm.tables_read());
      FinishRead(session, adm, entry->result, /*remote_time=*/0,
                 std::move(callback));
      return;
    }
    c_.cache_misses->Inc();
    const bool leader = protocol_.LeadOrSubscribe(
        adm.canonical_text,
        [this, &session, adm, callback](
            const util::Result<common::ResultSetPtr>& result,
            const cache::VersionVector& stamp) {
          c_.coalesced_waits->Inc();
          const auto verdict = ReadProtocol::OnPublished(
              session.vv, result, stamp, adm.tables_read());
          if (verdict == ReadProtocol::Verdict::kReRead) {
            c_.subscriber_fallbacks->Inc();
            RemoteRead(session, adm, callback, /*publish=*/false);
          } else if (verdict == ReadProtocol::Verdict::kFail) {
            callback(result.status());
          } else {
            FinishRead(session, adm, result.value(), /*remote_time=*/0,
                       callback);
          }
        });
    if (!leader) return;  // subscribed; the leader will publish
    RemoteRead(session, std::move(adm), std::move(callback),
               /*publish=*/true);
  });
}

void ApolloMiddleware::RemoteRead(ClientSession& session,
                                  sql::AdmittedQuery adm,
                                  QueryCallback callback, bool publish) {
  const util::SimTime t0 = loop_->now();
  remote_->Execute(
      adm, [this, &session, adm, callback = std::move(callback), publish, t0](
               util::Result<common::ResultSetPtr> result,
               std::unordered_map<std::string, uint64_t> versions) mutable {
        const std::string& key = adm.canonical_text;
        if (!result.ok()) {
          callback(result.status());
          if (publish) protocol_.Publish(key, result, {});
          return;
        }
        const util::SimDuration remote_time = loop_->now() - t0;
        const cache::VersionVector stamp = protocol_.Fill(
            adm, *result, versions, remote_time, loop_->now());
        ReadProtocol::Observe(session.vv, stamp, adm.tables_read());
        if (publish) protocol_.Publish(key, result, stamp);
        FinishRead(session, adm, *result, remote_time, std::move(callback));
      });
}

void ApolloMiddleware::ExecuteWrite(ClientSession& session,
                                    sql::AdmittedQuery adm,
                                    QueryCallback callback) {
  c_.writes->Inc();
  tcache_.BumpObservations(*adm.tpl);
  if (adm.tpl->observations == 1) {
    Trace(obs::TraceEventType::kTemplateDiscovered, session,
          adm.fingerprint());
  }
  const util::SimTime t0 = loop_->now();
  remote_->Execute(
      adm, [this, &session, adm, callback = std::move(callback), t0](
               util::Result<common::ResultSetPtr> result,
               std::unordered_map<std::string, uint64_t> versions) {
        if (!result.ok()) {
          callback(result.status());
          return;
        }
        ReadProtocol::OnWriteAck(session.vv, versions);
        util::SimDuration remote_time = loop_->now() - t0;
        lat_.wan_us->Record(remote_time);
        adm.tpl->RecordExecution(remote_time);
        callback(*result);
        CompletedQuery cq;
        cq.tpl = adm.tpl.get();
        cq.canonical_text = adm.canonical_text;
        cq.params = adm.params;
        OnQueryCompleted(session, cq);
      });
}

void ApolloMiddleware::OnQueryCompleted(ClientSession& session,
                                        const CompletedQuery& q) {
  if (!config_.enable_prediction) return;  // Memcached configuration
  const util::SimTime now = loop_->now();
  const auto learn_t0 = std::chrono::steady_clock::now();
  for (uint64_t fdq : engine_.Learn(session, q, now)) {
    for (auto& [_, other] : sessions_) other->satisfied.erase(fdq);
  }
  lat_.learn_wall_us->Record(
      static_cast<int64_t>(util::WallMicrosSince(learn_t0)));

  const auto predict_t0 = std::chrono::steady_clock::now();
  IssueNow sink(this, &session);
  engine_.Predict(session, q, now, sink);
  if (!q.read_only() && config_.enable_adq_reload) {
    // Reload storms are the worst load to send into a degraded link; drop
    // the whole pass (the next write after recovery re-triggers it).
    if (remote_->Degraded()) {
      c_.shed_adq_reloads->Inc();
      Trace(obs::TraceEventType::kPredictionSkipped, session, q.template_id(),
            obs::SkipReason::kShed);
    } else {
      engine_.ReloadAdqs(session, q, now, sink);
    }
  }
  lat_.predict_wall_us->Record(
      static_cast<int64_t>(util::WallMicrosSince(predict_t0)));
}

void ApolloMiddleware::OnPredictionCompleted(ClientSession& session,
                                             uint64_t template_id,
                                             common::ResultSetPtr result,
                                             int depth) {
  if (!config_.enable_prediction) return;
  IssueNow sink(this, &session);
  engine_.OnPredictionCompleted(session, template_id, std::move(result),
                                depth, loop_->now(), sink);
}

void ApolloMiddleware::PredictiveExecute(ClientSession& session,
                                         uint64_t template_id,
                                         const std::string& sql, int depth,
                                         double probability) {
  const auto skip = [&](obs::Counter* counter, obs::SkipReason reason) {
    counter->Inc();
    Trace(obs::TraceEventType::kPredictionSkipped, session, template_id,
          reason, static_cast<uint64_t>(depth));
  };
  // Degraded WAN path: shed optional load before it consumes anything.
  // AllowPredictive admits one prediction as the breaker's half-open probe.
  if (!remote_->AllowPredictive()) {
    skip(c_.shed_predictions, obs::SkipReason::kShed);
    return;
  }
  auto adm = AdmitQuery(sql);
  switch (protocol_.AdmitPrediction(
      adm, session.vv,
      [this, &session, template_id, depth](const common::ResultSetPtr& rs) {
        OnPredictionCompleted(session, template_id, rs, depth);
      })) {
    case ReadProtocol::Admission::kNotRead:
      skip(c_.predictions_skipped_invalid, obs::SkipReason::kInvalidSql);
      return;
    case ReadProtocol::Admission::kCached:
      skip(c_.predictions_skipped_cached, obs::SkipReason::kCached);
      return;
    case ReadProtocol::Admission::kInFlight:
      skip(c_.predictions_skipped_inflight, obs::SkipReason::kInflight);
      return;
    case ReadProtocol::Admission::kAdmit:
      break;
  }
  c_.predictions_issued->Inc();
  Trace(obs::TraceEventType::kPredictionIssued, session, template_id,
        obs::SkipReason::kNone, static_cast<uint64_t>(depth));
  station_.Submit(
      config_.engine_overhead_per_prediction,
      [this, &session, template_id, depth, probability,
       adm = std::move(*adm)]() {
        const util::SimTime t0 = loop_->now();
        remote_->Execute(
            adm,
            [this, &session, template_id, key = adm.canonical_text, depth,
             probability, t0](
                util::Result<common::ResultSetPtr> result,
                std::unordered_map<std::string, uint64_t> versions) {
              if (!result.ok()) {
                protocol_.Publish(key, result, {});
                return;
              }
              const util::SimDuration remote_time = loop_->now() - t0;
              const cache::VersionVector stamp = protocol_.FillPredicted(
                  key, template_id, probability, *result, versions,
                  remote_time, loop_->now());
              Trace(obs::TraceEventType::kPredictionCached, session,
                    template_id, obs::SkipReason::kNone,
                    static_cast<uint64_t>(depth));
              const sql::CachedTemplate* tpl =
                  tcache_.GetByFingerprint(template_id);
              if (tpl != nullptr) tpl->RecordExecution(remote_time);
              protocol_.Publish(key, result, stamp);
              OnPredictionCompleted(session, template_id, *result, depth);
            },
            /*predictive=*/true);
      });
}

}  // namespace apollo::core
