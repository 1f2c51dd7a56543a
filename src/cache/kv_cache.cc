#include "cache/kv_cache.h"

#include <algorithm>
#include <cassert>

#include "util/hash.h"

namespace apollo::cache {

KvCache::KvCache(size_t capacity_bytes, size_t num_shards,
                 obs::Observability* obs, const std::string& metric_prefix,
                 const KvCacheOptions& options)
    : capacity_bytes_(capacity_bytes), options_(options) {
  if (num_shards == 0) num_shards = 1;
  // Split the budget exactly: base share per shard, the remainder spread
  // one byte each over the first shards. Shard budgets sum to
  // capacity_bytes, so the cache can never hold more than its budget
  // (the old max(1, capacity / num_shards) both leaked the remainder and
  // over-committed when capacity < num_shards).
  const size_t base = capacity_bytes / num_shards;
  const size_t remainder = capacity_bytes % num_shards;
  shards_.reserve(num_shards);
  for (size_t i = 0; i < num_shards; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->capacity = base + (i < remainder ? 1 : 0);
    if (options_.policy != CachePolicy::kLru) {
      shard->policy =
          std::make_unique<TinyLfuPolicy>(options_, shard->capacity);
    }
    shards_.push_back(std::move(shard));
  }
  if (obs == nullptr) {
    owned_obs_ = std::make_unique<obs::Observability>();
    obs = owned_obs_.get();
  }
  obs_ = obs;
  obs::MetricsRegistry& m = obs_->metrics;
  hits_ = m.RegisterCounter(metric_prefix + "hits", num_shards);
  misses_ = m.RegisterCounter(metric_prefix + "misses", num_shards);
  puts_ = m.RegisterCounter(metric_prefix + "puts", num_shards);
  evictions_ = m.RegisterCounter(metric_prefix + "evictions", num_shards);
  oversize_rejected_ =
      m.RegisterCounter(metric_prefix + "oversize_rejected", num_shards);
  admission_rejected_ =
      m.RegisterCounter(metric_prefix + "admission_rejected", num_shards);
  sketch_resets_ =
      m.RegisterCounter(metric_prefix + "sketch_resets", num_shards);
  evictions_window_ =
      m.RegisterCounter(metric_prefix + "evictions_window", num_shards);
  evictions_main_ =
      m.RegisterCounter(metric_prefix + "evictions_main", num_shards);
}

size_t KvCache::ShardIndexFor(std::string_view key) const {
  return util::Hash64(key) % shards_.size();
}

const KvCache::Shard& KvCache::ShardFor(std::string_view key) const {
  return *shards_[ShardIndexFor(key)];
}

size_t KvCache::MaxEntryBytes(const Shard& shard) const {
  if (shard.policy == nullptr) return shard.capacity;
  // A TinyLFU entry must eventually fit the main segment; letting a
  // bigger one into the window would only recreate the insert-then-
  // self-evict churn the oversize gate exists to stop.
  return shard.capacity - shard.policy->window_capacity();
}

void KvCache::Touch(Shard& shard, LruList::iterator it) {
  it->last_use = ++shard.use_seq;
  LruList& list = it->segment == Segment::kMain ? shard.main : shard.window;
  list.splice(list.begin(), list, it);
}

void KvCache::RecordAccess(Shard& shard, size_t shard_index,
                           uint64_t key_hash) {
  if (shard.policy == nullptr) return;
  if (shard.policy->RecordAccess(key_hash)) {
    sketch_resets_->Inc(1, shard_index);
  }
}

double KvCache::ScoreOf(const Shard& shard, const Node& node) const {
  // A superseded version has a strictly better replacement resident for
  // the same key: its key-level frequency must not protect it, or the
  // main segment fills with dead versions of hot keys (frequency
  // pinning, the classic failure of per-key admission in a versioned
  // cache).
  if (node.superseded) return 0.0;
  const double score = shard.policy->Score(
      node.key_hash, node.predicted, node.miss_cost_us, node.probability);
  // The cost-aware policy scores value DENSITY (GDSF-style): the cache
  // budget is bytes, so a 100-row result must be worth 100x a 1-row one
  // to displace it. Plain TinyLFU stays count-based (classic behaviour).
  if (options_.policy == CachePolicy::kTinyLfuCost) {
    return score / static_cast<double>(node.bytes == 0 ? 1 : node.bytes);
  }
  return score;
}

// True iff every table `old_stamp` vouches for is at least as fresh in
// `new_stamp`: any client the old entry could serve, the new one can too
// (the old version is dead weight under capacity pressure).
static bool Supersedes(const VersionVector& new_stamp,
                       const VersionVector& old_stamp) {
  for (const auto& [table, version] : old_stamp.entries()) {
    if (new_stamp.Get(table) < version) return false;
  }
  return true;
}

void KvCache::TraceDeparture(const Node& node) {
  if (!node.predicted || !obs_->trace.enabled()) return;
  obs_->trace.Record(node.hits > 0 ? obs::TraceEventType::kPredictionEvicted
                                   : obs::TraceEventType::kPredictionWasted,
                     /*client=*/-1, node.template_id,
                     obs::SkipReason::kNone, /*aux=*/node.hits);
}

std::optional<CacheEntry> KvCache::GetCompatible(
    std::string_view key, const VersionVector& client_vv,
    const std::vector<std::string>& tables) {
  const uint64_t key_hash = util::Hash64(key);
  const size_t idx = key_hash % shards_.size();
  Shard& shard = *shards_[idx];
  std::lock_guard lock(shard.mu);
  // TinyLFU counts the request stream: every client lookup feeds the
  // sketch, hit or miss, so admission sees true key popularity.
  RecordAccess(shard, idx, key_hash);
  auto it = shard.map.find(key);
  if (it == shard.map.end()) {
    misses_->Inc(1, idx);
    return std::nullopt;
  }
  bool found = false;
  LruList::iterator best;
  uint64_t best_distance = UINT64_MAX;
  for (auto node_it : it->second) {
    const CacheEntry& e = node_it->entry;
    if (!e.stamp.DominatesFor(client_vv, tables)) continue;
    uint64_t d = e.stamp.DistanceFrom(client_vv, tables);
    if (d < best_distance) {
      best_distance = d;
      best = node_it;
      found = true;
    }
  }
  if (!found) {
    misses_->Inc(1, idx);
    return std::nullopt;
  }
  hits_->Inc(1, idx);
  ++best->hits;
  if (best->predicted && obs_->trace.enabled()) {
    obs_->trace.Record(obs::TraceEventType::kPredictionHit, /*client=*/-1,
                       best->template_id, obs::SkipReason::kNone,
                       /*aux=*/best->hits);
  }
  Touch(shard, best);
  return best->entry;
}

std::optional<CacheEntry> KvCache::GetAny(std::string_view key) {
  const uint64_t key_hash = util::Hash64(key);
  const size_t idx = key_hash % shards_.size();
  Shard& shard = *shards_[idx];
  std::lock_guard lock(shard.mu);
  RecordAccess(shard, idx, key_hash);
  auto it = shard.map.find(key);
  if (it == shard.map.end() || it->second.empty()) {
    misses_->Inc(1, idx);
    return std::nullopt;
  }
  // Serve the key's most-recently-used entry (highest use_seq), not the
  // first-inserted one, so the bump below reinforces the true MRU.
  auto node_it = it->second.front();
  for (auto candidate : it->second) {
    if (candidate->last_use > node_it->last_use) node_it = candidate;
  }
  hits_->Inc(1, idx);
  ++node_it->hits;
  if (node_it->predicted && obs_->trace.enabled()) {
    obs_->trace.Record(obs::TraceEventType::kPredictionHit, /*client=*/-1,
                       node_it->template_id, obs::SkipReason::kNone,
                       /*aux=*/node_it->hits);
  }
  Touch(shard, node_it);
  return node_it->entry;
}

bool KvCache::ContainsCompatible(std::string_view key,
                                 const VersionVector& client_vv,
                                 const std::vector<std::string>& tables) const {
  const Shard& shard = ShardFor(key);
  std::lock_guard lock(shard.mu);
  auto it = shard.map.find(key);
  if (it == shard.map.end()) return false;
  for (auto node_it : it->second) {
    if (node_it->entry.stamp.DominatesFor(client_vv, tables)) return true;
  }
  return false;
}

std::optional<CacheEntry> KvCache::GetStaleWithin(
    std::string_view key, const VersionVector& floor_vv,
    const std::vector<std::string>& tables, int64_t min_put_time_us) const {
  const Shard& shard = ShardFor(key);
  std::lock_guard lock(shard.mu);
  auto it = shard.map.find(key);
  if (it == shard.map.end()) return std::nullopt;
  const Node* best = nullptr;
  for (auto node_it : it->second) {
    if (node_it->put_time_us <= 0 ||
        node_it->put_time_us < min_put_time_us) {
      continue;  // unknown age or older than the staleness bound
    }
    // The entry may be stale w.r.t. the session's full vector, but it must
    // still cover the session's own writes.
    if (!node_it->entry.stamp.DominatesFor(floor_vv, tables)) continue;
    if (best == nullptr || node_it->put_time_us > best->put_time_us) {
      best = &*node_it;
    }
  }
  if (best == nullptr) return std::nullopt;
  return best->entry;
}

void KvCache::Put(const std::string& key, common::ResultSetPtr result,
                  VersionVector stamp, const PutAttrs& attrs) {
  const uint64_t key_hash = util::Hash64(key);
  const size_t idx = key_hash % shards_.size();
  Shard& shard = *shards_[idx];
  std::lock_guard lock(shard.mu);
  size_t bytes = key.size() + (result ? result->ByteSize() : 0) + 64;

  // An entry that can never fit its shard is rejected up front: the old
  // path inserted it, immediately self-evicted it, and thereby charged a
  // put AND an eviction plus a spurious prediction_wasted trace for a
  // result that never had a chance to serve anyone.
  if (bytes > MaxEntryBytes(shard)) {
    oversize_rejected_->Inc(1, idx);
    return;
  }

  // Demand fills witness real client misses — feed the sketch so the
  // key's popularity includes them. Predicted fills are speculation, not
  // observed demand; their worth enters through the confidence-weighted
  // score instead.
  if (!attrs.predicted) RecordAccess(shard, idx, key_hash);

  auto& nodes = shard.map[key];
  // Replace an entry with an identical stamp (same data, refreshed). The
  // stamps must map exactly the same tables to the same versions —
  // comparing through Get() would treat distinct never-written tables
  // (all at implicit version 0) as equal and merge unrelated entries.
  for (auto node_it : nodes) {
    if (node_it->entry.stamp.SameEntries(stamp)) {
      // An unconsumed prediction overwritten in place never helped anyone.
      TraceDeparture(*node_it);
      SegmentBytes(shard, node_it->segment) -= node_it->bytes;
      node_it->entry.result = std::move(result);
      node_it->entry.stamp = std::move(stamp);
      node_it->bytes = bytes;
      node_it->predicted = attrs.predicted;
      node_it->hits = 0;
      node_it->template_id = attrs.template_id;
      node_it->put_time_us = attrs.put_time_us;
      node_it->miss_cost_us = attrs.miss_cost_us;
      node_it->probability = attrs.probability;
      SegmentBytes(shard, node_it->segment) += bytes;
      puts_->Inc(1, idx);
      Touch(shard, node_it);
      MaintainCapacity(shard, idx);
      return;
    }
  }
  Node node;
  node.key = key;
  node.key_hash = key_hash;
  node.entry = CacheEntry{std::move(result), std::move(stamp)};
  node.bytes = bytes;
  node.predicted = attrs.predicted;
  node.segment = Segment::kWindow;
  node.template_id = attrs.template_id;
  node.last_use = ++shard.use_seq;
  node.put_time_us = attrs.put_time_us;
  node.miss_cost_us = attrs.miss_cost_us;
  node.probability = attrs.probability;
  shard.window.push_front(std::move(node));
  nodes.push_back(shard.window.begin());
  shard.window_bytes += bytes;
  // TinyLFU policies demote versions this insert supersedes to their
  // segment's tail with score 0, so they are the next victims instead of
  // sitting in main protected by their key's frequency. (kLru keeps the
  // seed's behavior: stale versions simply age out.)
  if (shard.policy != nullptr) {
    const auto new_it = shard.window.begin();
    for (auto it : nodes) {
      if (it == new_it || it->superseded) continue;
      if (Supersedes(new_it->entry.stamp, it->entry.stamp)) {
        it->superseded = true;
        LruList& list =
            it->segment == Segment::kMain ? shard.main : shard.window;
        list.splice(list.end(), list, it);
      }
    }
  }
  puts_->Inc(1, idx);
  MaintainCapacity(shard, idx);
}

void KvCache::EvictNode(Shard& shard, size_t shard_index,
                        LruList::iterator it) {
  TraceDeparture(*it);
  auto map_it = shard.map.find(it->key);
  if (map_it != shard.map.end()) {
    auto& vec = map_it->second;
    vec.erase(std::remove(vec.begin(), vec.end(), it), vec.end());
    if (vec.empty()) shard.map.erase(map_it);
  }
  SegmentBytes(shard, it->segment) -= it->bytes;
  LruList& list = it->segment == Segment::kMain ? shard.main : shard.window;
  list.erase(it);
  evictions_->Inc(1, shard_index);
}

void KvCache::MaintainCapacity(Shard& shard, size_t shard_index) {
  if (shard.policy == nullptr) {
    // Legacy LRU: evict from the global (window) tail under the shard's
    // whole budget.
    while (shard.window_bytes > shard.capacity && !shard.window.empty()) {
      EvictNode(shard, shard_index, std::prev(shard.window.end()));
    }
    return;
  }
  const size_t window_cap = shard.policy->window_capacity();
  const size_t main_cap = shard.capacity - window_cap;
  // An in-place replacement can inflate a main resident past the budget.
  while (shard.main_bytes > main_cap && !shard.main.empty()) {
    EvictNode(shard, shard_index, std::prev(shard.main.end()));
    evictions_main_->Inc(1, shard_index);
  }
  // Window overflow: the LRU window candidate faces frequency admission
  // against the main tail victim. new >= victim => admit (evicting as
  // many victims as its bytes need); otherwise the candidate dies and
  // the incumbents stay.
  while (shard.window_bytes > window_cap && !shard.window.empty()) {
    auto candidate = std::prev(shard.window.end());
    const size_t cb = candidate->bytes;  // <= main_cap per the oversize gate
    bool admitted = true;
    while (shard.main_bytes + cb > main_cap && !shard.main.empty()) {
      auto victim = std::prev(shard.main.end());
      if (ScoreOf(shard, *candidate) >= ScoreOf(shard, *victim)) {
        EvictNode(shard, shard_index, victim);
        evictions_main_->Inc(1, shard_index);
      } else {
        admission_rejected_->Inc(1, shard_index);
        EvictNode(shard, shard_index, candidate);
        evictions_window_->Inc(1, shard_index);
        admitted = false;
        break;
      }
    }
    if (!admitted) continue;
    shard.window_bytes -= cb;
    shard.main_bytes += cb;
    candidate->segment = Segment::kMain;
    shard.main.splice(shard.main.begin(), shard.window, candidate);
  }
}

void KvCache::Clear() {
  for (auto& shard : shards_) {
    std::lock_guard lock(shard->mu);
    // Predicted entries dropped by a reset still end their lifecycle:
    // without the departure trace, wasted-prediction accounting
    // undercounted across Clear(). Non-predicted entries trace nothing
    // and no counters move, so the reset stays stats-neutral.
    for (const Node& node : shard->window) TraceDeparture(node);
    for (const Node& node : shard->main) TraceDeparture(node);
    shard->window.clear();
    shard->main.clear();
    shard->map.clear();
    shard->window_bytes = 0;
    shard->main_bytes = 0;
  }
}

std::vector<std::string> KvCache::StampsForTest() const {
  std::vector<std::string> out;
  for (const auto& shard : shards_) {
    std::lock_guard lock(shard->mu);
    for (const LruList* list : {&shard->window, &shard->main}) {
      for (const Node& node : *list) {
        out.push_back(node.key + " @ " + node.entry.stamp.ToString());
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

CacheStats KvCache::stats() const {
  CacheStats out;
  out.hits = hits_->Value();
  out.misses = misses_->Value();
  out.puts = puts_->Value();
  out.evictions = evictions_->Value();
  out.oversize_rejected = oversize_rejected_->Value();
  out.admission_rejected = admission_rejected_->Value();
  out.sketch_resets = sketch_resets_->Value();
  out.evictions_window = evictions_window_->Value();
  out.evictions_main = evictions_main_->Value();
  for (const auto& shard : shards_) {
    std::lock_guard lock(shard->mu);
    out.bytes_used += shard->window_bytes + shard->main_bytes;
    out.entries += shard->window.size() + shard->main.size();
  }
  assert(out.bytes_used <= capacity_bytes_);
  return out;
}

}  // namespace apollo::cache
