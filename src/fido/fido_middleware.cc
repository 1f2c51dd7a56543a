#include "fido/fido_middleware.h"

#include <algorithm>

#include "util/hash.h"

namespace apollo::fido {

namespace {
uint64_t BigramKey(uint64_t a, uint64_t b) {
  return util::HashCombine(a, b);
}

core::ApolloConfig WithoutEngine(core::ApolloConfig config) {
  config.enable_prediction = false;
  return config;
}
}  // namespace

FidoMiddleware::FidoMiddleware(sim::EventLoop* loop,
                               net::RemoteDatabase* remote,
                               cache::KvCache* cache,
                               core::ApolloConfig config,
                               obs::Observability* obs,
                               const std::string& metric_prefix)
    : core::ApolloMiddleware(loop, remote, cache,
                             WithoutEngine(std::move(config)), obs,
                             metric_prefix) {}

void FidoMiddleware::Train(
    const std::vector<std::vector<std::string>>& traces) {
  for (const auto& trace : traces) {
    uint64_t prev1 = 0;
    uint64_t prev2 = 0;
    bool has1 = false;
    bool has2 = false;
    for (const auto& q : trace) {
      uint64_t h = util::Hash64(q);
      if (has1) {
        ++unigram_[prev1].counts[q];
      }
      if (has2) {
        ++bigram_[BigramKey(prev2, prev1)].counts[q];
      }
      prev2 = prev1;
      has2 = has1;
      prev1 = h;
      has1 = true;
    }
  }
  Compact(&unigram_);
  Compact(&bigram_);
}

void FidoMiddleware::Compact(
    std::unordered_map<uint64_t, Continuations>* store) {
  for (auto& [_, cont] : *store) {
    std::vector<std::pair<uint32_t, const std::string*>> ranked;
    ranked.reserve(cont.counts.size());
    for (const auto& [q, n] : cont.counts) ranked.emplace_back(n, &q);
    std::sort(ranked.begin(), ranked.end(),
              [](const auto& a, const auto& b) {
                if (a.first != b.first) return a.first > b.first;
                return *a.second < *b.second;  // deterministic tie-break
              });
    cont.ranked.clear();
    for (size_t i = 0; i < ranked.size() && i < kMaxPredictions; ++i) {
      cont.ranked.push_back(*ranked[i].second);
    }
    cont.counts.clear();
  }
}

void FidoMiddleware::PredictFrom(core::ClientSession& session,
                                 const Continuations& continuations) {
  for (const auto& sql : continuations.ranked) {
    PredictiveExecute(session, /*template_id=*/0, sql, /*depth=*/0);
  }
}

void FidoMiddleware::OnQueryCompleted(core::ClientSession& session,
                                      const CompletedQuery& query) {
  auto& hist = history_[session.id];
  uint64_t h = util::Hash64(query.canonical_text);
  hist.push_back(h);
  while (hist.size() > 4) hist.pop_front();

  // Prefer the longer (more specific) prefix match.
  if (hist.size() >= 2) {
    auto it = bigram_.find(BigramKey(hist[hist.size() - 2], hist.back()));
    if (it != bigram_.end() && !it->second.ranked.empty()) {
      PredictFrom(session, it->second);
      return;
    }
  }
  auto it = unigram_.find(hist.back());
  if (it != unigram_.end() && !it->second.ranked.empty()) {
    PredictFrom(session, it->second);
  }
}

size_t FidoMiddleware::LearningStateBytes() const {
  size_t total = sizeof(*this);
  auto add = [&](const std::unordered_map<uint64_t, Continuations>& store) {
    for (const auto& [_, c] : store) {
      total += 32;
      for (const auto& q : c.ranked) total += q.size() + 32;
    }
  };
  add(unigram_);
  add(bigram_);
  return total;
}

}  // namespace apollo::fido
