// KvCache: the Memcached stand-in — a sharded, byte-budgeted cache of
// versioned query result sets.
//
// A key (canonical query text) may hold several entries with different
// version stamps; GetCompatible returns the usable entry that minimizes the
// client's version-vector advance (paper Section 3.3: "use the earliest
// version"). Eviction runs one of three policies (DESIGN.md Section 13):
// the default per-shard global LRU, W-TinyLFU (a small admission window
// feeding a Count-Min-Sketch-guarded main segment), or W-TinyLFU with
// Apollo's cost-aware score (frequency x observed miss cost x prediction
// confidence). The total byte budget is split exactly across shards
// (base + 1 for the first capacity % num_shards shards), so
// stats().bytes_used never exceeds capacity_bytes; entries too large to
// ever fit their shard are rejected up front (oversize_rejected) instead
// of churning through an insert-then-self-evict cycle.
//
// Hit/miss/put/eviction counters live in the per-run obs::MetricsRegistry
// (one accumulation cell per shard, summed on read); CacheStats is a thin
// snapshot view kept for compatibility. Entries remember whether they were
// inserted by a predictive execution so the cache can emit the tail of the
// prediction lifecycle into the obs::TraceLog: prediction_hit when a
// client read is served by a predicted entry, prediction_evicted /
// prediction_wasted when one leaves the cache with / without ever serving
// a hit — including entries dropped by Clear(), so wasted-prediction
// accounting stays complete across resets.
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "cache/cache_policy.h"
#include "cache/tinylfu_policy.h"
#include "cache/version_vector.h"
#include "common/result_set.h"
#include "obs/observability.h"

namespace apollo::cache {

/// Thin snapshot view over the registry-backed cache counters (the
/// obs::MetricsRegistry is the source of truth; see KvCache::stats).
struct CacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t puts = 0;
  uint64_t evictions = 0;
  uint64_t bytes_used = 0;
  uint64_t entries = 0;
  /// Entries rejected up front because they could never fit their shard.
  uint64_t oversize_rejected = 0;
  /// TinyLFU policies only (0 under kLru): window candidates denied entry
  /// to the main segment, sketch halvings, and the eviction split by
  /// segment (evictions == evictions_window + evictions_main then).
  uint64_t admission_rejected = 0;
  uint64_t sketch_resets = 0;
  uint64_t evictions_window = 0;
  uint64_t evictions_main = 0;

  double HitRate() const {
    uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) /
                                  static_cast<double>(total);
  }
};

/// A cached result with its version stamp.
struct CacheEntry {
  common::ResultSetPtr result;
  VersionVector stamp;
};

class KvCache {
 public:
  /// Insert-time attributes beyond the payload itself. The cost fields
  /// feed cost-aware TinyLFU scoring and are ignored under kLru.
  struct PutAttrs {
    /// Marks results inserted by a predictive execution (prediction
    /// lifecycle tracing + confidence-weighted scoring).
    bool predicted = false;
    /// Labels the entry's trace events (0 if unknown).
    uint64_t template_id = 0;
    /// Wall clock at insert (caller-defined epoch; 0 = unknown). Bounds
    /// how long the entry may later be served stale — entries with
    /// put_time 0 are never served by GetStaleWithin.
    int64_t put_time_us = 0;
    /// Observed cost of the miss this entry absorbs: the remote round
    /// trip (in microseconds) that produced the result. 0 = unobserved
    /// (scoring falls back to KvCacheOptions::default_miss_cost_us).
    double miss_cost_us = 0.0;
    /// Transition probability of the prediction that fetched this entry;
    /// ignored for demand (non-predicted) entries.
    double probability = 1.0;
  };

  /// `capacity_bytes` is the total budget across all shards, split
  /// exactly (the first capacity % num_shards shards get one extra byte).
  /// `obs` is the per-run observability bundle (a private one is created
  /// when null); `metric_prefix` qualifies instrument names when several
  /// caches share one registry (e.g. "cache0."). `options` selects the
  /// eviction policy; the default is the legacy LRU.
  explicit KvCache(size_t capacity_bytes, size_t num_shards = 8,
                   obs::Observability* obs = nullptr,
                   const std::string& metric_prefix = "cache.",
                   const KvCacheOptions& options = {});

  /// Looks up `key`. Among entries whose stamp dominates `client_vv` on
  /// `tables`, returns the one with minimal distance from `client_vv`
  /// (ties: least-recently stored). Bumps recency on hit and records the
  /// access in the shard's frequency sketch (TinyLFU policies). Keys are
  /// taken as string_view and looked up heterogeneously — no temporary
  /// std::string is built on the read path.
  std::optional<CacheEntry> GetCompatible(
      std::string_view key, const VersionVector& client_vv,
      const std::vector<std::string>& tables);

  /// Returns any entry for `key` regardless of versions (plain-Memcached
  /// behaviour, used by baselines that skip session checks). Prefers the
  /// most-recently-used entry for the key.
  std::optional<CacheEntry> GetAny(std::string_view key);

  /// Inserts an entry. If an entry whose stamp maps exactly the same
  /// tables to the same versions already exists for this key, it is
  /// replaced (same data, refreshed). Entries that could never fit their
  /// shard are rejected up front (counted in oversize_rejected, no
  /// departure trace — the entry never lived).
  void Put(const std::string& key, common::ResultSetPtr result,
           VersionVector stamp, const PutAttrs& attrs);

  /// Legacy positional form (no cost attributes).
  void Put(const std::string& key, common::ResultSetPtr result,
           VersionVector stamp, bool predicted = false,
           uint64_t template_id = 0, int64_t put_time_us = 0) {
    PutAttrs attrs;
    attrs.predicted = predicted;
    attrs.template_id = template_id;
    attrs.put_time_us = put_time_us;
    Put(key, std::move(result), std::move(stamp), attrs);
  }

  /// Brownout serve-stale-within-bound lookup (DESIGN.md Section 12):
  /// among entries for `key` whose stamp still dominates `floor_vv` on
  /// `tables` (the session's OWN writes — read-your-writes holds even
  /// stale) and whose put_time is >= `min_put_time_us` (age bound),
  /// returns the freshest by put_time. Stats-NEUTRAL: no hit/miss counter
  /// moves and no recency bump, so enabling brownout cannot skew the cache
  /// metrics the benches compare; callers account the stale serve in their
  /// own instruments.
  std::optional<CacheEntry> GetStaleWithin(
      std::string_view key, const VersionVector& floor_vv,
      const std::vector<std::string>& tables, int64_t min_put_time_us) const;

  /// True if a compatible entry exists (no recency bump, no stats change).
  bool ContainsCompatible(std::string_view key,
                          const VersionVector& client_vv,
                          const std::vector<std::string>& tables) const;

  /// Drops every entry. Predicted entries still emit their departure
  /// trace (prediction_evicted / prediction_wasted) so wasted-prediction
  /// accounting survives resets; counters other than the trace are
  /// untouched (no evictions are charged).
  void Clear();

  /// Every resident copy as "key @ {t:v, ...}" (its stamp), sorted.
  /// Takes each shard lock in turn — test/parity use only.
  std::vector<std::string> StampsForTest() const;

  /// Assembles the legacy stats view from the registry counters.
  CacheStats stats() const;
  size_t capacity_bytes() const { return capacity_bytes_; }
  size_t num_shards() const { return shards_.size(); }
  CachePolicy policy() const { return options_.policy; }

 private:
  /// Which segment a node currently lives in. Under kLru everything stays
  /// in the window list (the legacy single LRU).
  enum class Segment : uint8_t { kWindow, kMain };

  struct Node {
    std::string key;
    uint64_t key_hash = 0;  // Hash64(key); feeds shard pick + sketch
    CacheEntry entry;
    size_t bytes = 0;
    bool predicted = false;     // inserted by a predictive execution
    /// A newer same-key version dominating this one is resident: evict
    /// first (TinyLFU policies only; kLru lets stale versions age out).
    bool superseded = false;
    Segment segment = Segment::kWindow;
    uint64_t hits = 0;          // times this entry served a read
    uint64_t template_id = 0;   // trace label (0 if unknown)
    uint64_t last_use = 0;      // shard use_seq at last touch (MRU order)
    int64_t put_time_us = 0;    // wall clock at insert (0 = unknown)
    double miss_cost_us = 0.0;  // observed remote trip (0 = unknown)
    double probability = 1.0;   // prediction confidence
  };
  using LruList = std::list<Node>;

  /// Transparent hash so the per-shard key map accepts std::string_view
  /// lookups (C++20 heterogeneous find) without materializing a string.
  struct KeyHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const noexcept {
      return std::hash<std::string_view>{}(s);
    }
  };

  struct Shard {
    mutable std::mutex mu;
    LruList window;  // front = most recent; the only list under kLru
    LruList main;    // TinyLFU main segment (empty under kLru)
    std::unordered_map<std::string, std::vector<LruList::iterator>, KeyHash,
                       std::equal_to<>>
        map;
    size_t capacity = 0;  // this shard's exact byte budget
    size_t window_bytes = 0;
    size_t main_bytes = 0;
    uint64_t use_seq = 0;  // bumped on every touch; orders entries per key
    /// Admission state (sketch + scoring); null under kLru.
    std::unique_ptr<TinyLfuPolicy> policy;
  };

  size_t ShardIndexFor(std::string_view key) const;
  const Shard& ShardFor(std::string_view key) const;

  /// Largest entry the shard could ever hold: the whole shard under kLru,
  /// the main segment under TinyLFU (window residents must eventually be
  /// admitted or die).
  size_t MaxEntryBytes(const Shard& shard) const;
  size_t& SegmentBytes(Shard& shard, Segment segment) const {
    return segment == Segment::kMain ? shard.main_bytes
                                     : shard.window_bytes;
  }
  /// Bumps recency within the node's segment list.
  void Touch(Shard& shard, LruList::iterator it);
  /// Feeds one access into the shard's sketch (TinyLFU only), counting
  /// halvings.
  void RecordAccess(Shard& shard, size_t shard_index, uint64_t key_hash);
  double ScoreOf(const Shard& shard, const Node& node) const;
  /// Removes `it` from its segment list, the key map, and the byte
  /// accounting; charges the total (TinyLFU callers add the segment
  /// counter).
  void EvictNode(Shard& shard, size_t shard_index, LruList::iterator it);
  /// Restores the shard's capacity invariants after an insert or replace:
  /// legacy tail eviction under kLru; window-overflow admission against
  /// the sketch-scored main victim under TinyLFU.
  void MaintainCapacity(Shard& shard, size_t shard_index);
  /// Records the lifecycle trace event for an entry leaving the cache.
  void TraceDeparture(const Node& node);

  size_t capacity_bytes_;
  KvCacheOptions options_;
  std::vector<std::unique_ptr<Shard>> shards_;

  std::unique_ptr<obs::Observability> owned_obs_;  // fallback when none given
  obs::Observability* obs_;
  obs::Counter* hits_;
  obs::Counter* misses_;
  obs::Counter* puts_;
  obs::Counter* evictions_;
  obs::Counter* oversize_rejected_;
  /// Registered under every policy; only TinyLFU moves them.
  obs::Counter* admission_rejected_;
  obs::Counter* sketch_resets_;
  obs::Counter* evictions_window_;
  obs::Counter* evictions_main_;
};

}  // namespace apollo::cache
