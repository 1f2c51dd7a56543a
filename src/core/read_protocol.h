// ReadProtocol: the read path of paper Sections 3.2-3.3, the one copy both
// hosts (ApolloMiddleware, rt::ConcurrentApollo) call (DESIGN.md §16).
//
// Session consistency: a cache entry's stamp (the table versions its
// result reflects) must dominate the session's version vector on every
// table read. A hit, the session's own fill and an accepted publication
// advance the vector to the stamp the session has now seen; a write ack
// advances it to the post-write versions.
//
// Single flight: at most one copy of a read executes at a time; later
// arrivals subscribe to the leader's outcome. Election is atomic under an
// internal mutex. Publish detaches the waiters under it and runs them on
// the calling thread outside it, so a waiter may lead the same key again.
//
// Observe, OnPublished and OnWriteAck read or advance a session's vector:
// they take no lock and run under whatever guards the vector in the host
// (the runtime's session.mu). Fills and admission take only leaf locks
// (cache shards, the single-flight table). Publish runs subscriber code,
// which may take host locks: call it with no session lock held. Fills,
// Observe and Publish are separate calls so a host keeps its own locking
// and its order of traces and callbacks.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cache/kv_cache.h"
#include "cache/version_vector.h"
#include "common/result_set.h"
#include "sql/template_cache.h"
#include "util/result.h"
#include "util/sim_time.h"

namespace apollo::core {

class ReadProtocol {
 public:
  using Outcome = util::Result<common::ResultSetPtr>;
  /// Per-table versions the remote reported for one execution.
  using Versions = std::unordered_map<std::string, uint64_t>;
  /// A subscriber: the leader's outcome and its stamp (empty on failure).
  using Waiter =
      std::function<void(const Outcome&, const cache::VersionVector&)>;

  /// With `single_flight` off (ApolloConfig::enable_pubsub_dedup) every
  /// caller leads and nothing subscribes.
  ReadProtocol(cache::KvCache* cache, bool single_flight)
      : cache_(cache), single_flight_(single_flight) {}

  /// A cache hit, or the session's own fill: the session has now seen
  /// `stamp` on `tables`.
  static void Observe(cache::VersionVector& vv,
                      const cache::VersionVector& stamp,
                      const std::vector<std::string>& tables) {
    vv.MergeMax(stamp, tables);
  }

  /// A write ack: the session has now seen the post-write versions.
  static void OnWriteAck(cache::VersionVector& vv, const Versions& versions) {
    for (const auto& [t, v] : versions) vv.AdvanceTo(t, v);
  }

  /// A client read missed the cache. True: the caller leads and must
  /// Publish its outcome, success or failure. False: `waiter` subscribed.
  bool LeadOrSubscribe(const std::string& key, Waiter waiter);

  enum class Verdict { kAccept, kReRead, kFail };
  /// A subscriber's verdict on a published outcome. Accepted only if it
  /// succeeded and `stamp` dominates `vv` on `tables`, which then advances
  /// `vv`. A retryable failure or a trailing stamp (the leader read before
  /// this session's latest write) is a private re-read.
  static Verdict OnPublished(cache::VersionVector& vv, const Outcome& result,
                             const cache::VersionVector& stamp,
                             const std::vector<std::string>& tables);

  /// A client's remote read landed: puts `result` stamped from `versions`,
  /// with its `miss_cost` (the round trip a later hit saves) and put time
  /// `now`. Returns the stamp, for the session to Observe and the leader
  /// to Publish.
  cache::VersionVector Fill(const sql::AdmittedQuery& adm,
                            const common::ResultSetPtr& result,
                            const Versions& versions,
                            util::SimDuration miss_cost, util::SimTime now);

  enum class Admission { kAdmit, kNotRead, kCached, kInFlight };
  /// A prediction (`adm` is its admitted SQL) runs only if it is a read,
  /// not cached against `vv_check` and not in flight. kAdmit makes the
  /// caller its leader; kInFlight subscribes `on_landed(ResultSetPtr)`,
  /// which runs with the leader's result if that succeeds.
  template <typename OnLanded>
  Admission AdmitPrediction(const util::Result<sql::AdmittedQuery>& adm,
                            const cache::VersionVector& vv_check,
                            OnLanded on_landed) {
    if (!adm.ok() || !adm->read_only()) return Admission::kNotRead;
    // Never predictively execute what is already usable from the cache
    // (paper Section 4.3).
    if (cache_->ContainsCompatible(adm->canonical_text, vv_check,
                                   adm->tables_read())) {
      return Admission::kCached;
    }
    const bool leader = LeadOrSubscribe(
        adm->canonical_text,
        [on_landed = std::move(on_landed)](const Outcome& result,
                                           const cache::VersionVector&) {
          if (result.ok()) on_landed(result.value());
        });
    return leader ? Admission::kAdmit : Admission::kInFlight;
  }

  /// A prediction landed: puts `result` as predicted, with its transition
  /// `probability`, `miss_cost` and put time `now`. Returns the stamp to
  /// Publish.
  cache::VersionVector FillPredicted(const std::string& key,
                                     uint64_t template_id, double probability,
                                     const common::ResultSetPtr& result,
                                     const Versions& versions,
                                     util::SimDuration miss_cost,
                                     util::SimTime now);

  /// Hands the leader's outcome to every subscriber of `key` and frees the
  /// key. No-op for a key nobody leads.
  void Publish(const std::string& key, const Outcome& result,
               const cache::VersionVector& stamp);

  bool InFlight(const std::string& key) const {
    std::lock_guard<std::mutex> lock(mu_);
    return inflight_.count(key) > 0;
  }
  size_t num_inflight() const {
    std::lock_guard<std::mutex> lock(mu_);
    return inflight_.size();
  }

 private:
  cache::VersionVector Put(const std::string& key,
                           const common::ResultSetPtr& result,
                           const Versions& versions,
                           const cache::KvCache::PutAttrs& attrs);

  cache::KvCache* cache_;
  const bool single_flight_;
  mutable std::mutex mu_;
  std::unordered_map<std::string, std::vector<Waiter>> inflight_;
};

}  // namespace apollo::core
