// FidoMiddleware: the Fido predictive cache baseline (Palmer & Zdonik,
// VLDB'91), as configured in the paper's Section 4.1.
//
// Fido operates on individual query *instances*, not templates: an
// associative memory trained offline on client traces maps a recent-history
// prefix to the query instances that followed it in training. At runtime it
// predicts up to kMaxPredictions instances per matched prefix and
// prefetches their results. Because it cannot generalize across parameters,
// it only helps when the exact same parameterized queries recur — the
// behaviour the paper contrasts with Apollo.
//
// It is the event-loop host with Apollo's engine forced off (so it is
// Memcached plus this predictor) and replaces the OnQueryCompleted hook.
#pragma once

#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/apollo_middleware.h"

namespace apollo::fido {

class FidoMiddleware : public core::ApolloMiddleware {
 public:
  /// `config.enable_prediction` is ignored: Apollo's engine stays off.
  FidoMiddleware(sim::EventLoop* loop, net::RemoteDatabase* remote,
                 cache::KvCache* cache, core::ApolloConfig config,
                 obs::Observability* obs = nullptr,
                 const std::string& metric_prefix = "mw.");

  std::string name() const override { return "fido"; }

  /// Offline training on per-client traces of canonical query texts
  /// (the paper trains Fido on traces twice the experiment length).
  void Train(const std::vector<std::vector<std::string>>& traces);

  size_t LearningStateBytes() const override;

  size_t num_patterns() const {
    return unigram_.size() + bigram_.size();
  }

 protected:
  void OnQueryCompleted(core::ClientSession& session,
                        const CompletedQuery& query) override;

 private:
  /// Continuations kept (and predicted) per prefix (paper 4.1).
  static constexpr size_t kMaxPredictions = 10;

  struct Continuations {
    // query instance -> occurrence count (compacted to a ranked list).
    std::unordered_map<std::string, uint32_t> counts;
    std::vector<std::string> ranked;  // top kMaxPredictions after Train
  };

  void Compact(std::unordered_map<uint64_t, Continuations>* store);
  void PredictFrom(core::ClientSession& session,
                   const Continuations& continuations);

  // prefix hash (last query / last two queries) -> continuations.
  std::unordered_map<uint64_t, Continuations> unigram_;
  std::unordered_map<uint64_t, Continuations> bigram_;
  // Per-client recent instance history (hashes).
  std::unordered_map<core::ClientId, std::deque<uint64_t>> history_;
};

}  // namespace apollo::fido
