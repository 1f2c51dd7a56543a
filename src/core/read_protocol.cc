#include "core/read_protocol.h"

#include <utility>

namespace apollo::core {

bool ReadProtocol::LeadOrSubscribe(const std::string& key, Waiter waiter) {
  if (!single_flight_) return true;
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = inflight_.try_emplace(key);
  if (!inserted) it->second.push_back(std::move(waiter));
  return inserted;
}

ReadProtocol::Verdict ReadProtocol::OnPublished(
    cache::VersionVector& vv, const Outcome& result,
    const cache::VersionVector& stamp,
    const std::vector<std::string>& tables) {
  if (!result.ok()) {
    // A transport fault, often on a prediction with no retry budget: a
    // client read keeps its own budget instead of inheriting the failure.
    return result.status().IsRetryable() ? Verdict::kReRead : Verdict::kFail;
  }
  // Accepting a trailing stamp would leak a pre-write row past
  // read-your-writes.
  if (!stamp.DominatesFor(vv, tables)) return Verdict::kReRead;
  Observe(vv, stamp, tables);
  return Verdict::kAccept;
}

cache::VersionVector ReadProtocol::Fill(const sql::AdmittedQuery& adm,
                                        const common::ResultSetPtr& result,
                                        const Versions& versions,
                                        util::SimDuration miss_cost,
                                        util::SimTime now) {
  return Put(adm.canonical_text, result, versions,
             {.template_id = adm.fingerprint(),
              .put_time_us = now,
              .miss_cost_us = static_cast<double>(miss_cost)});
}

cache::VersionVector ReadProtocol::FillPredicted(
    const std::string& key, uint64_t template_id, double probability,
    const common::ResultSetPtr& result, const Versions& versions,
    util::SimDuration miss_cost, util::SimTime now) {
  return Put(key, result, versions,
             {.predicted = true,
              .template_id = template_id,
              .put_time_us = now,
              .miss_cost_us = static_cast<double>(miss_cost),
              .probability = probability});
}

void ReadProtocol::Publish(const std::string& key, const Outcome& result,
                           const cache::VersionVector& stamp) {
  std::vector<Waiter> waiters;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = inflight_.find(key);
    if (it == inflight_.end()) return;
    // Racing callers see the key free the moment its waiters are detached.
    waiters = std::move(it->second);
    inflight_.erase(it);
  }
  for (auto& w : waiters) w(result, stamp);
}

cache::VersionVector ReadProtocol::Put(const std::string& key,
                                       const common::ResultSetPtr& result,
                                       const Versions& versions,
                                       const cache::KvCache::PutAttrs& attrs) {
  cache::VersionVector stamp;
  for (const auto& [t, v] : versions) stamp.Set(t, v);
  cache_->Put(key, result, stamp, attrs);
  return stamp;
}

}  // namespace apollo::core
