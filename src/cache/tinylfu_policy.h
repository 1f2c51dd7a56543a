// TinyLfuPolicy: per-shard W-TinyLFU admission state for the KvCache
// (DESIGN.md Section 13).
//
// Owns the shard's Count-Min-Sketch and the aging counter, and computes
// the admission score the eviction path compares: a window-LRU candidate
// is admitted to the main segment only if its score is at least the main
// victim's (new >= victim => admit, TinyLFU's tie-goes-to-the-newcomer
// rule, which lets the cache adapt to phase changes).
//
// Scores:
//   kTinyLfu     — estimated frequency alone (classic TinyLFU).
//   kTinyLfuCost — frequency x miss-cost x confidence: the Apollo twist.
//                  A predictively-fetched entry's value is the WAN round
//                  trip it saves times the probability the client actually
//                  issues the query, so admission weighs both; demand
//                  entries keep confidence 1.
//
// Not thread-safe; the KvCache calls it under the owning shard's mutex.
#pragma once

#include <cstdint>

#include "cache/cache_policy.h"
#include "cache/count_min_sketch.h"

namespace apollo::cache {

class TinyLfuPolicy {
 public:
  /// Count-Min-Sketch geometry per shard: `kSketchDepth` rows of
  /// `kSketchWidth` saturating 8-bit counters.
  static constexpr size_t kSketchWidth = 4096;
  static constexpr size_t kSketchDepth = 4;

  /// `shard_capacity` is the owning shard's byte budget; it sizes the
  /// admission window and the auto aging interval.
  TinyLfuPolicy(const KvCacheOptions& options, size_t shard_capacity);

  /// Records one access (client lookup or demand fill) to the key.
  /// Returns true when the record triggered a sketch halving (aging), so
  /// the caller can count it.
  bool RecordAccess(uint64_t key_hash);

  /// Estimated access frequency of the key under the current sketch.
  uint32_t Frequency(uint64_t key_hash) const { return sketch_.Estimate(key_hash); }

  /// Admission/eviction score of an entry. `miss_cost_us` is the observed
  /// remote round trip that produced the entry (0 = unknown, falls back to
  /// the configured default); `probability` is the prediction confidence
  /// (ignored for demand entries).
  double Score(uint64_t key_hash, bool predicted, double miss_cost_us,
               double probability) const;

  /// Bytes of the shard budget reserved for the admission window.
  size_t window_capacity() const { return window_capacity_; }
  CachePolicy policy() const { return options_.policy; }

 private:
  KvCacheOptions options_;
  size_t window_capacity_;
  size_t reset_adds_;  // halve the sketch after this many accesses
  size_t adds_since_reset_ = 0;
  CountMinSketch sketch_;
};

}  // namespace apollo::cache
