// ApolloMiddleware: the paper's predictive caching engine (Sections 2-3)
// on the simulator.
//
// Extends CachingMiddleware with the full framework. The learning and
// prediction decisions (Algorithms 1-4, pipelining, the 3.4.1 freshness
// model and 3.4.2 ADQ reload) live in core::PredictionEngine, shared with
// the rt runtime; this class hosts it on the event loop: it feeds the
// engine each completed query at simulated time and executes every
// decided prediction immediately.
#pragma once

#include "core/caching_middleware.h"
#include "core/prediction_engine.h"

namespace apollo::core {

/// The simulator host of the PredictionEngine: every decided prediction
/// is executed at once through PredictiveExecute.
class ApolloMiddleware : public CachingMiddleware {
 public:
  ApolloMiddleware(sim::EventLoop* loop, net::RemoteDatabase* remote,
                   cache::KvCache* cache, ApolloConfig config,
                   obs::Observability* obs = nullptr,
                   const std::string& metric_prefix = "mw.");

  std::string name() const override {
    return config_.enable_prediction ? "apollo" : "memcached";
  }

  size_t LearningStateBytes() const override;

  PredictionEngine* prediction_engine() override { return &engine_; }

 protected:
  void OnQueryCompleted(ClientSession& session,
                        const CompletedQuery& query) override;
  void OnPredictionCompleted(ClientSession& session, uint64_t template_id,
                             common::ResultSetPtr result,
                             int depth) override;

 private:
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

  PredictionEngine engine_;
};

}  // namespace apollo::core
