// ParamMapper: discovers output-column -> input-parameter mappings between
// related query templates (paper Section 2.3).
//
// For each ordered template pair (src, dst) observed within delta-t, the
// mapper tracks, per dst parameter position, the set of src result columns
// whose values contained that parameter in EVERY observation so far (a
// shrinking bitmask). After `verification_period` observations a surviving
// column is a confirmed mapping; a later disproof invalidates the pair (and
// the engine disables FDQs built on it), per the paper's footnote 1.
//
// Thread safety: pair state is lock-striped by the (src, dst) edge key so
// concurrent workers observing different template pairs do not contend;
// the dst -> sources reverse index has its own mutex. No operation holds
// two locks at once — pruning collects its reverse-index cleanups under
// the stripe lock and applies them after releasing it.
//
// Bounded memory (DESIGN.md §11): an optional pair cap triggers
// evidence-weighted pruning per stripe — invalidated pairs go first, then
// unconfirmed, then confirmed, weakest evidence (observations + supports)
// and oldest touch first. With the cap at 0 (the default) behavior is
// byte-identical to the unbounded mapper.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/result_set.h"
#include "obs/metrics.h"

namespace apollo::core {

/// A confirmed "dst parameter p comes from column `col` of `src`" edge.
struct SourceRef {
  uint64_t src = 0;  // source template fingerprint
  int col = -1;      // column index in src's result set

  bool operator==(const SourceRef& o) const {
    return src == o.src && col == o.col;
  }
};

class ParamMapper {
 public:
  static constexpr size_t kDefaultStripes = 16;

  /// `max_pairs` caps the tracked (src, dst) pair count (0 = unbounded);
  /// each stripe gets an equal share.
  explicit ParamMapper(int verification_period,
                       size_t num_stripes = kDefaultStripes,
                       size_t max_pairs = 0)
      : verification_period_(verification_period) {
    if (num_stripes == 0) num_stripes = 1;
    stripes_.reserve(num_stripes);
    const size_t per_stripe_cap =
        max_pairs == 0 ? 0 : std::max<size_t>(1, max_pairs / num_stripes);
    for (size_t i = 0; i < num_stripes; ++i) {
      stripes_.push_back(std::make_unique<Stripe>());
      stripes_.back()->pair_cap = per_stripe_cap;
    }
  }

  /// Records one co-occurrence: `dst` executed with `dst_params` while
  /// `src`'s latest result set was `src_result`. Empty result sets are
  /// skipped (nothing can be inferred).
  ///
  /// During the verification window, candidate columns are intersected
  /// strictly (the paper: mappings "present in every execution"); a window
  /// that empties out restarts, since occasional cross-transaction
  /// interleavings can produce spurious mismatches. Once confirmed, the
  /// mapping is frozen ("we infer that these mappings always hold") and
  /// only *persistent* contradiction — more violations than supports, with
  /// a minimum count — disproves it (footnote 1). Returns true exactly
  /// when a confirmed mapping is disproven.
  bool ObservePair(uint64_t src, const common::ResultSet& src_result,
                   uint64_t dst, const std::vector<common::Value>& dst_params);

  /// Per-parameter confirmed sources feeding `dst` (positions with no
  /// confirmed source are empty). `complete` iff every position is fed.
  struct ParamSources {
    std::vector<std::vector<SourceRef>> per_param;
    bool complete = false;
  };
  ParamSources GetSources(uint64_t dst, int num_params) const;

  /// True if the (src,dst) pair has a confirmed mapping for at least one
  /// parameter position.
  bool PairConfirmed(uint64_t src, uint64_t dst) const;

  size_t num_pairs() const;
  size_t ApproximateBytes() const;

  /// Pairs evicted by the cap so far.
  uint64_t pruned_pairs() const;

  /// Counter bumped once per pruned pair (e.g. "learning_pruned_pairs");
  /// call before concurrent use. Until then prunes go to
  /// obs::UnexportedCounter() (pruned_pairs() counts them either way).
  void SetPruneCounter(obs::Counter* counter);

  // ---- Snapshot support (src/persist/, DESIGN.md §11) ----

  /// Canonical exported form: pairs sorted by (src, dst) so identical
  /// mapper contents always serialize to identical bytes. The
  /// verification-period counters (observations / supports / violations)
  /// travel with each pair so a restored mapper resumes mid-window.
  struct ExportedPair {
    uint64_t src = 0;
    uint64_t dst = 0;
    int32_t observations = 0;
    std::vector<uint64_t> masks;
    bool confirmed = false;
    bool invalidated = false;
    uint32_t supports = 0;
    uint32_t violations = 0;
  };
  struct State {
    int verification_period = 0;
    std::vector<ExportedPair> pairs;
  };

  State ExportState() const;

  /// Installs `state`'s pairs (skipping (src,dst) pairs already tracked)
  /// and rebuilds the reverse index. Typically called on a fresh mapper.
  void ImportState(const State& state);

  /// Violations needed (and exceeding supports) to disprove a confirmed
  /// mapping.
  static constexpr uint32_t kMinViolations = 4;

 private:
  struct PairState {
    uint64_t src = 0;  // retained for export and reverse-index cleanup
    uint64_t dst = 0;
    int observations = 0;
    std::vector<uint64_t> masks;  // per dst param: surviving src columns
    bool confirmed = false;
    bool invalidated = false;
    uint32_t supports = 0;    // post-confirmation consistent observations
    uint32_t violations = 0;  // post-confirmation contradictions
    uint64_t tick = 0;        // stripe tick at last observation (LRU)
  };
  // Pruning state lives in the stripes (not the mapper object) so the
  // mapper's sizeof — which feeds the learning-state byte estimate the
  // benches print — is unchanged whether or not a cap is configured.
  struct Stripe {
    mutable std::mutex mu;
    std::unordered_map<uint64_t, PairState> pairs;
    size_t pair_cap = 0;  // 0 = unbounded
    uint64_t tick = 0;
    uint64_t pruned = 0;
    obs::Counter* prune_counter = obs::UnexportedCounter();
  };

  static uint64_t PairKey(uint64_t src, uint64_t dst);
  static bool HasAnyMask(const PairState& st) {
    for (uint64_t m : st.masks) {
      if (m != 0) return true;
    }
    return false;
  }
  bool Confirmed(const PairState& st) const {
    return st.confirmed && !st.invalidated;
  }
  Stripe& StripeForKey(uint64_t key) {
    return *stripes_[key % stripes_.size()];
  }
  const Stripe& StripeForKey(uint64_t key) const {
    return *stripes_[key % stripes_.size()];
  }

  /// Batch-evicts the weakest pairs from `s` down to ~7/8 of its cap,
  /// never evicting `keep_key` (the pair just observed). Appends the
  /// (src, dst) of each victim to `evicted` so the caller can clean the
  /// reverse index after releasing s.mu. Caller holds s.mu.
  void PruneStripeLocked(Stripe& s, uint64_t keep_key,
                         std::vector<std::pair<uint64_t, uint64_t>>* evicted);
  /// Erases evicted (src, dst) pairs from srcs_of_ (takes srcs_mu_).
  void CleanReverseIndex(
      const std::vector<std::pair<uint64_t, uint64_t>>& evicted);

  int verification_period_;
  std::vector<std::unique_ptr<Stripe>> stripes_;
  // dst template -> src templates ever observed before it.
  mutable std::mutex srcs_mu_;
  std::unordered_map<uint64_t, std::unordered_set<uint64_t>> srcs_of_;
};

}  // namespace apollo::core
