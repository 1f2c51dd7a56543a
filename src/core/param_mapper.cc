#include "core/param_mapper.h"

#include "util/hash.h"

namespace apollo::core {

uint64_t ParamMapper::PairKey(uint64_t src, uint64_t dst) {
  return util::HashCombine(src, dst);
}

bool ParamMapper::ObservePair(uint64_t src,
                              const common::ResultSet& src_result,
                              uint64_t dst,
                              const std::vector<common::Value>& dst_params) {
  if (dst_params.empty()) return false;
  if (src_result.empty() || src_result.num_columns() == 0) return false;
  if (src == dst) return false;

  // Bitmask of columns whose value set contains each parameter. Computed
  // before any lock: the result-set scan is the expensive part.
  const size_t ncols = std::min<size_t>(src_result.num_columns(), 64);
  std::vector<uint64_t> col_masks(dst_params.size(), 0);
  for (size_t p = 0; p < dst_params.size(); ++p) {
    const auto& param = dst_params[p];
    uint64_t mask = 0;
    for (size_t c = 0; c < ncols; ++c) {
      for (const auto& row : src_result.rows()) {
        if (row[c] == param) {
          mask |= (1ull << c);
          break;
        }
      }
    }
    col_masks[p] = mask;
  }

  {
    std::lock_guard<std::mutex> lock(srcs_mu_);
    srcs_of_[dst].insert(src);
  }

  uint64_t key = PairKey(src, dst);
  Stripe& stripe = StripeForKey(key);
  std::vector<std::pair<uint64_t, uint64_t>> evicted;
  bool disproven = false;
  {
    std::lock_guard<std::mutex> lock(stripe.mu);
    auto [it, inserted] = stripe.pairs.try_emplace(key);
    PairState& st = it->second;
    st.tick = ++stripe.tick;
    if (inserted) {
      st.src = src;
      st.dst = dst;
      if (stripe.pair_cap != 0 && stripe.pairs.size() > stripe.pair_cap) {
        PruneStripeLocked(stripe, key, &evicted);
      }
    }

    disproven = [&]() {
      if (!inserted && st.masks.size() != col_masks.size()) {
        // Parameter arity changed (should not happen for a fixed
        // template); treat as disproof.
        const bool was_confirmed = Confirmed(st);
        st.invalidated = true;
        return was_confirmed;
      }

      if (st.invalidated) return false;

      if (!st.confirmed) {
        // Verification window: strict intersection.
        if (inserted || st.observations == 0) {
          st.masks = col_masks;
          st.observations = 1;
        } else {
          for (size_t p = 0; p < st.masks.size(); ++p) {
            st.masks[p] &= col_masks[p];
          }
          ++st.observations;
        }
        if (!HasAnyMask(st)) {
          // The window died (often a cross-transaction interleaving);
          // restart it from the current observation.
          st.masks = col_masks;
          st.observations = HasAnyMask(st) ? 1 : 0;
          return false;
        }
        if (st.observations >= verification_period_) st.confirmed = true;
        return false;
      }

      // Confirmed: masks are frozen; track supports vs. violations.
      bool consistent = true;
      for (size_t p = 0; p < st.masks.size(); ++p) {
        if (st.masks[p] != 0 && (st.masks[p] & col_masks[p]) == 0) {
          consistent = false;
          break;
        }
      }
      if (consistent) {
        ++st.supports;
        return false;
      }
      ++st.violations;
      if (st.violations >= kMinViolations && st.violations > st.supports) {
        st.invalidated = true;
        return true;
      }
      return false;
    }();
  }
  if (!evicted.empty()) CleanReverseIndex(evicted);
  return disproven;
}

void ParamMapper::PruneStripeLocked(
    Stripe& s, uint64_t keep_key,
    std::vector<std::pair<uint64_t, uint64_t>>* evicted) {
  const size_t target = s.pair_cap - std::max<size_t>(1, s.pair_cap / 8);
  if (s.pairs.size() <= target) return;
  size_t evict = s.pairs.size() - target;

  struct Victim {
    uint32_t klass;     // 0 invalidated, 1 unconfirmed, 2 confirmed
    uint64_t evidence;  // observations + supports
    uint64_t tick;
    uint64_t key;
    uint64_t src;
    uint64_t dst;
  };
  std::vector<Victim> all;
  all.reserve(s.pairs.size());
  for (const auto& [key, st] : s.pairs) {
    if (key == keep_key) continue;  // never evict the pair just observed
    uint32_t klass = st.invalidated ? 0u : (st.confirmed ? 2u : 1u);
    all.push_back(Victim{klass,
                         static_cast<uint64_t>(st.observations) + st.supports,
                         st.tick, key, st.src, st.dst});
  }
  if (evict > all.size()) evict = all.size();
  // Evidence-weighted LRU: dead pairs first, then thin evidence, oldest
  // touch breaking ties; (src, dst) as a final deterministic tie-break.
  auto weaker = [](const Victim& a, const Victim& b) {
    if (a.klass != b.klass) return a.klass < b.klass;
    if (a.evidence != b.evidence) return a.evidence < b.evidence;
    if (a.tick != b.tick) return a.tick < b.tick;
    if (a.src != b.src) return a.src < b.src;
    return a.dst < b.dst;
  };
  std::nth_element(all.begin(), all.begin() + evict - 1, all.end(), weaker);
  std::sort(all.begin(), all.begin() + evict, weaker);
  for (size_t i = 0; i < evict; ++i) {
    s.pairs.erase(all[i].key);
    ++s.pruned;
    evicted->emplace_back(all[i].src, all[i].dst);
  }
  s.prune_counter->Inc(evict);
}

void ParamMapper::CleanReverseIndex(
    const std::vector<std::pair<uint64_t, uint64_t>>& evicted) {
  std::lock_guard<std::mutex> lock(srcs_mu_);
  for (const auto& [src, dst] : evicted) {
    auto it = srcs_of_.find(dst);
    if (it == srcs_of_.end()) continue;
    it->second.erase(src);
    if (it->second.empty()) srcs_of_.erase(it);
  }
}

ParamMapper::ParamSources ParamMapper::GetSources(uint64_t dst,
                                                  int num_params) const {
  ParamSources out;
  out.per_param.resize(static_cast<size_t>(num_params));
  std::vector<uint64_t> srcs;
  {
    std::lock_guard<std::mutex> lock(srcs_mu_);
    auto sit = srcs_of_.find(dst);
    if (sit == srcs_of_.end()) {
      out.complete = num_params == 0;
      return out;
    }
    srcs.assign(sit->second.begin(), sit->second.end());
  }
  for (uint64_t src : srcs) {
    uint64_t key = PairKey(src, dst);
    const Stripe& stripe = StripeForKey(key);
    std::lock_guard<std::mutex> lock(stripe.mu);
    auto pit = stripe.pairs.find(key);
    if (pit == stripe.pairs.end() || !Confirmed(pit->second)) continue;
    const PairState& st = pit->second;
    for (size_t p = 0;
         p < st.masks.size() && p < out.per_param.size(); ++p) {
      if (st.masks[p] == 0) continue;
      // Lowest surviving column is the canonical mapping.
      int col = __builtin_ctzll(st.masks[p]);
      out.per_param[p].push_back(SourceRef{src, col});
    }
  }
  out.complete = true;
  for (const auto& srcs_for_param : out.per_param) {
    if (srcs_for_param.empty()) {
      out.complete = false;
      break;
    }
  }
  return out;
}

bool ParamMapper::PairConfirmed(uint64_t src, uint64_t dst) const {
  uint64_t key = PairKey(src, dst);
  const Stripe& stripe = StripeForKey(key);
  std::lock_guard<std::mutex> lock(stripe.mu);
  auto it = stripe.pairs.find(key);
  return it != stripe.pairs.end() && Confirmed(it->second);
}

size_t ParamMapper::num_pairs() const {
  size_t n = 0;
  for (const auto& s : stripes_) {
    std::lock_guard<std::mutex> lock(s->mu);
    n += s->pairs.size();
  }
  return n;
}

uint64_t ParamMapper::pruned_pairs() const {
  uint64_t n = 0;
  for (const auto& s : stripes_) {
    std::lock_guard<std::mutex> lock(s->mu);
    n += s->pruned;
  }
  return n;
}

void ParamMapper::SetPruneCounter(obs::Counter* counter) {
  for (const auto& s : stripes_) {
    std::lock_guard<std::mutex> lock(s->mu);
    s->prune_counter = counter;
  }
}

ParamMapper::State ParamMapper::ExportState() const {
  State st;
  st.verification_period = verification_period_;
  for (const auto& s : stripes_) {
    std::lock_guard<std::mutex> lock(s->mu);
    for (const auto& [_, ps] : s->pairs) {
      ExportedPair ep;
      ep.src = ps.src;
      ep.dst = ps.dst;
      ep.observations = ps.observations;
      ep.masks = ps.masks;
      ep.confirmed = ps.confirmed;
      ep.invalidated = ps.invalidated;
      ep.supports = ps.supports;
      ep.violations = ps.violations;
      st.pairs.push_back(std::move(ep));
    }
  }
  std::sort(st.pairs.begin(), st.pairs.end(),
            [](const ExportedPair& a, const ExportedPair& b) {
              if (a.src != b.src) return a.src < b.src;
              return a.dst < b.dst;
            });
  return st;
}

void ParamMapper::ImportState(const State& state) {
  for (const ExportedPair& ep : state.pairs) {
    uint64_t key = PairKey(ep.src, ep.dst);
    Stripe& stripe = StripeForKey(key);
    {
      std::lock_guard<std::mutex> lock(stripe.mu);
      auto [it, inserted] = stripe.pairs.try_emplace(key);
      if (!inserted) continue;  // live observation wins over the snapshot
      PairState& ps = it->second;
      ps.src = ep.src;
      ps.dst = ep.dst;
      ps.observations = ep.observations;
      ps.masks = ep.masks;
      ps.confirmed = ep.confirmed;
      ps.invalidated = ep.invalidated;
      ps.supports = ep.supports;
      ps.violations = ep.violations;
      ps.tick = ++stripe.tick;
      // The cap applies to restored state too, but import never evicts
      // live pairs around it: oversize snapshots trim on the next
      // ObservePair insertion.
    }
    std::lock_guard<std::mutex> lock(srcs_mu_);
    srcs_of_[ep.dst].insert(ep.src);
  }
}

size_t ParamMapper::ApproximateBytes() const {
  size_t total = sizeof(*this);
  for (const auto& s : stripes_) {
    std::lock_guard<std::mutex> lock(s->mu);
    for (const auto& [_, st] : s->pairs) {
      total += 48 + st.masks.size() * 8;
    }
  }
  std::lock_guard<std::mutex> lock(srcs_mu_);
  for (const auto& [_, srcs] : srcs_of_) total += 32 + srcs.size() * 16;
  return total;
}

}  // namespace apollo::core
