#include "cache/tinylfu_policy.h"

#include <algorithm>

namespace apollo::cache {

const char* CachePolicyName(CachePolicy policy) {
  switch (policy) {
    case CachePolicy::kLru: return "lru";
    case CachePolicy::kTinyLfu: return "tinylfu";
    case CachePolicy::kTinyLfuCost: return "tinylfu_cost";
  }
  return "unknown";
}

TinyLfuPolicy::TinyLfuPolicy(const KvCacheOptions& options,
                             size_t shard_capacity)
    : options_(options),
      sketch_(kSketchWidth, kSketchDepth) {
  double fraction = std::clamp(options_.window_fraction, 0.0, 1.0);
  window_capacity_ = static_cast<size_t>(
      static_cast<double>(shard_capacity) * fraction);
  // Leave the main segment at least half the shard: a window consuming
  // everything would make admission vacuous.
  window_capacity_ = std::min(window_capacity_, shard_capacity / 2);
  // Aging interval: roughly 10x the shard's entry population (assuming
  // ~256-byte entries), floored so tiny test shards still age eventually.
  reset_adds_ = options_.sketch_reset_adds != 0
                    ? options_.sketch_reset_adds
                    : std::max<size_t>(1024, 10 * (shard_capacity / 256));
}

bool TinyLfuPolicy::RecordAccess(uint64_t key_hash) {
  sketch_.Add(key_hash);
  if (++adds_since_reset_ >= reset_adds_) {
    sketch_.Halve();
    adds_since_reset_ = 0;
    return true;
  }
  return false;
}

double TinyLfuPolicy::Score(uint64_t key_hash, bool predicted,
                            double miss_cost_us, double probability) const {
  // +1 so a never-seen key still ranks by cost instead of flattening to 0.
  const double freq = static_cast<double>(sketch_.Estimate(key_hash)) + 1.0;
  if (options_.policy != CachePolicy::kTinyLfuCost) return freq;
  double cost = miss_cost_us > 0.0 ? miss_cost_us
                                   : options_.default_miss_cost_us;
  // Confidence floor keeps a cold transition graph from zeroing the score
  // of every early prediction.
  double confidence =
      predicted ? std::clamp(probability, 0.01, 1.0) : 1.0;
  return freq * cost * confidence;
}

}  // namespace apollo::cache
