#include "core/apollo_middleware.h"

#include <chrono>

namespace apollo::core {

namespace {
double WallMicrosSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - t0)
             .count() /
         1000.0;
}
}  // namespace

ApolloMiddleware::ApolloMiddleware(sim::EventLoop* loop,
                                   net::RemoteDatabase* remote,
                                   cache::KvCache* cache, ApolloConfig config,
                                   obs::Observability* obs,
                                   const std::string& metric_prefix)
    : CachingMiddleware(loop, remote, cache, std::move(config), obs,
                        metric_prefix),
      engine_(config_, &tcache_,
              {.fdqs_discovered = c_.fdqs_discovered,
               .fdqs_invalidated = c_.fdqs_invalidated,
               .adq_reloads = c_.adq_reloads,
               .skipped_fresh = c_.predictions_skipped_fresh,
               .skipped_incomplete = c_.predictions_skipped_incomplete,
               .skipped_invalid = c_.predictions_skipped_invalid,
               .find_fdq_calls = c_.find_fdq_calls,
               .construct_fdq_calls = c_.construct_fdq_calls,
               .find_fdq_wall_us = c_.find_fdq_wall_us,
               .construct_fdq_wall_us = c_.construct_fdq_wall_us,
               .trace = &obs_->trace}) {
  engine_.mapper().SetPruneCounter(c_.learning_pruned_pairs);
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
      static_cast<int64_t>(WallMicrosSince(learn_t0)));

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
      static_cast<int64_t>(WallMicrosSince(predict_t0)));
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

size_t ApolloMiddleware::LearningStateBytes() const {
  size_t total = engine_.ApproximateBytes() + tcache_.ApproximateBytes();
  for (const auto& [_, session] : sessions_) {
    total += session->stream.ApproximateBytes();
    total += session->satisfied.size() * 64;
  }
  return total;
}

}  // namespace apollo::core
