// CachePolicy: which admission/eviction scheme the KvCache runs
// (DESIGN.md Section 13).
//
//   kLru         — legacy per-shard global LRU (the default; behaviour and
//                  exported instruments are unchanged from earlier builds).
//   kTinyLfu     — W-TinyLFU: a small windowed LRU feeding a main segment
//                  guarded by Count-Min-Sketch frequency admission
//                  (new >= victim => admit), with periodic sketch halving.
//   kTinyLfuCost — W-TinyLFU with Apollo's cost-aware score: an entry is
//                  worth frequency x miss_cost_us x (predicted ?
//                  transition_probability : 1), so a high-confidence
//                  predictive prefetch that saves a WAN round trip outlives
//                  an equally-recent cold one-off.
#pragma once

#include <cstddef>

namespace apollo::cache {

enum class CachePolicy {
  kLru,
  kTinyLfu,
  kTinyLfuCost,
};

/// Short stable name for reports and bench JSON ("lru", "tinylfu",
/// "tinylfu_cost").
const char* CachePolicyName(CachePolicy policy);

/// Construction-time knobs for the KvCache eviction path. Only consulted
/// when `policy` != kLru (the LRU path has no tunables).
struct KvCacheOptions {
  CachePolicy policy = CachePolicy::kLru;

  /// Fraction of each shard's byte budget given to the admission window.
  /// May be smaller than one entry: the window then acts as a pass-through
  /// and every insert faces frequency admission immediately (plain
  /// TinyLFU-admitting-LRU), which is the right degeneration for tiny
  /// caches.
  double window_fraction = 0.01;

  /// Sketch aging: after this many recorded accesses per shard every
  /// counter is halved, so stale popularity decays (TinyLFU's "reset").
  /// 0 = auto-scale with the shard budget.
  size_t sketch_reset_adds = 0;

  /// Miss cost assumed for entries inserted without an observed remote
  /// round trip (cost-aware scoring only).
  double default_miss_cost_us = 1000.0;
};

}  // namespace apollo::cache
