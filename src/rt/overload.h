// Overload control for the concurrent runtime (DESIGN.md Section 12).
//
// Apollo's pipeline is deliberately speculative: one client query can fan
// out into pipelined predictive fetches and ADQ reloads, so under a demand
// spike the middleware amplifies its own load exactly when it can least
// afford to. The BrownoutController turns that cliff into a staircase of
// explicit degradation levels:
//
//   L0 kNormal             full service
//   L1 kShedLowUtility     predictions ranked by expected benefit
//                          (transition probability x observed miss cost);
//                          the bottom of the distribution is shed
//   L2 kShedAllSpeculation no predictive executions, no ADQ reloads, and
//                          background checkpoints are deferred
//   L3 kServeStale         cache hits may be served from entries that fail
//                          session freshness, bounded by age and by the
//                          session's own writes (read-your-writes holds)
//   L4 kReject             new client queries are rejected immediately
//                          (backpressure to the callers) so queues drain
//
// The control signal is CoDel-style queue sojourn time on the runtime's
// pool feed — the wall time a task spends between enqueue and
// dequeue — not queue length: length confounds capacity with burstiness,
// while a persistent standing sojourn above target is the definition of
// overload. Per evaluation interval the controller tracks the MINIMUM
// sojourn (even one fast pass proves the queue drained) and escalates one
// level when it stays above `target_sojourn`; it de-escalates one level
// when the interval minimum stays under `relief_sojourn` for a full
// `deescalate_dwell`. The target/relief gap, the dwell, and the
// one-step-at-a-time rule are the hysteresis that keeps transitions
// monotone during a spike instead of flapping.
// Only pool tasks feed the signal. At rtt 0 the gateway runs a client's
// statement on the client's own thread ("due now runs now", db_gateway.h),
// so there client load reaches the controller only through how long the
// predictive tasks queue, not through client statements.
//
// Every transition is counted (level_up/level_down), exported as a gauge,
// and recorded in the TraceLog (kBrownoutLevel, template_id = old level,
// aux = new level) so benches can assert the no-flapping contract.
//
// Thread safety: `level()` and the Should*/Allow* gates are lock-free
// reads of an atomic; RecordSojourn/RecordUtility take one short mutex
// (they run once per pool task / prediction decision, both of which cover
// a WAN round trip).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/observability.h"

namespace apollo::rt {

/// Degradation levels, ordered: higher sheds strictly more than lower.
enum class BrownoutLevel : int {
  kNormal = 0,
  kShedLowUtility = 1,
  kShedAllSpeculation = 2,
  kServeStale = 3,
  kReject = 4,
};

inline const char* BrownoutLevelName(BrownoutLevel level) {
  switch (level) {
    case BrownoutLevel::kNormal: return "normal";
    case BrownoutLevel::kShedLowUtility: return "shed_low_utility";
    case BrownoutLevel::kShedAllSpeculation: return "shed_all_speculation";
    case BrownoutLevel::kServeStale: return "serve_stale";
    case BrownoutLevel::kReject: return "reject";
  }
  return "unknown";
}

struct OverloadConfig {
  /// Master switch. Off (the default) runs no controller: no default
  /// deadline and none of the gates below.
  bool enabled = false;

  /// Default per-query budget stamped onto client queries that arrive
  /// without an explicit deadline (0 = no deadline). The gateway cancels
  /// work whose remaining budget cannot cover the WAN round trip instead
  /// of queueing it.
  std::chrono::microseconds default_deadline{0};

  // ---- Control loop (CoDel-style sojourn time) ----

  /// A standing queue sojourn above this escalates one level per interval.
  std::chrono::microseconds target_sojourn{2000};
  /// De-escalation requires an interval min sojourn under this (must be
  /// < target_sojourn: the gap is half the hysteresis).
  std::chrono::microseconds relief_sojourn{500};
  /// Evaluation interval: sojourn min/max are folded and the level
  /// reconsidered once per interval.
  std::chrono::microseconds interval{10'000};
  /// Minimum time at a level before stepping DOWN (the other half of the
  /// hysteresis; stepping up is never dwell-limited — relief can wait,
  /// overload cannot).
  std::chrono::microseconds deescalate_dwell{200'000};

  // ---- Utility-gated shedding (L1) ----

  /// At kShedLowUtility, predictions whose expected benefit falls in the
  /// bottom `shed_fraction` of the recently observed utility distribution
  /// are shed (0.5 sheds the bottom half).
  double shed_fraction = 0.5;
  /// How many recent utility observations feed the shedding quantile.
  size_t utility_window = 256;

  // ---- Serve-stale-within-bound (L3) ----

  /// Maximum age of a cache entry served in place of a miss at
  /// kServeStale. Entries older than this are never served stale.
  std::chrono::milliseconds stale_bound{1000};
};

class BrownoutController {
 public:
  /// `obs` may be null (a private bundle is created); instruments are
  /// registered under `metric_prefix` (e.g. "rt.overload.").
  explicit BrownoutController(OverloadConfig config,
                              obs::Observability* obs = nullptr,
                              const std::string& metric_prefix =
                                  "rt.overload.");

  BrownoutController(const BrownoutController&) = delete;
  BrownoutController& operator=(const BrownoutController&) = delete;

  BrownoutLevel level() const {
    return static_cast<BrownoutLevel>(
        level_.load(std::memory_order_relaxed));
  }

  // ---- Gates (lock-free; called on the hot paths) ----

  /// False once speculation is fully shed (>= kShedAllSpeculation).
  bool AllowSpeculation() const {
    return level() < BrownoutLevel::kShedAllSpeculation;
  }
  /// True when ADQ reload passes should be skipped.
  bool ShedAdqReloads() const { return !AllowSpeculation(); }
  /// True when cache reads may fall back to bounded-staleness serving.
  bool ServeStaleAllowed() const {
    return level() >= BrownoutLevel::kServeStale;
  }
  /// True when new client queries are rejected with backpressure.
  bool RejectClient() const { return level() >= BrownoutLevel::kReject; }
  /// True when background checkpoints should be deferred.
  bool DeferCheckpoints() const { return !AllowSpeculation(); }

  /// Utility-gated shedding decision for one candidate prediction whose
  /// expected benefit is `utility_us` (probability x observed miss cost,
  /// microseconds). Below kShedLowUtility nothing is shed; at
  /// kShedLowUtility the bottom `shed_fraction` of the recent utility
  /// distribution is shed; above it everything is (callers normally check
  /// AllowSpeculation first and never reach this).
  bool ShouldShedPrediction(double utility_us) const;

  // ---- Inputs ----

  /// One pool-task queue sojourn (enqueue -> dequeue wall time). Drives
  /// the control loop; ThreadPoolConfig::sojourn_callback feeds this.
  void RecordSojourn(int64_t sojourn_us);

  /// One observed prediction utility; feeds the shedding quantile.
  void RecordUtility(double utility_us);

  /// Advances the control loop's clock without a sojourn sample. Called
  /// on client-query admission: above kShedAllSpeculation the pool feed
  /// is empty by construction (speculation is what fills it; client
  /// round trips run inline), so sojourn samples alone would freeze the
  /// level exactly when de-escalation matters most. Empty elapsed
  /// intervals count as calm, which is what lets a rejecting node
  /// probe its way back down.
  void Tick();

  // ---- Introspection / tests ----

  uint64_t level_ups() const {
    return level_ups_.load(std::memory_order_relaxed);
  }
  uint64_t level_downs() const {
    return level_downs_.load(std::memory_order_relaxed);
  }
  /// Current L1 shedding threshold (microseconds of expected benefit).
  double utility_floor() const {
    return utility_floor_.load(std::memory_order_relaxed);
  }
  const OverloadConfig& config() const { return config_; }

  /// Test hook: pins the level (transitions still counted/traced). The
  /// control loop resumes from the pinned level on the next interval, so
  /// tests that pin should use long intervals or keep feeding sojourns
  /// consistent with the pinned level.
  void ForceLevel(BrownoutLevel level);

 private:
  using Clock = std::chrono::steady_clock;

  /// Applies a transition to `next` (one step), with metrics + trace.
  /// Caller holds mu_.
  void TransitionLocked(int next);
  /// Folds the closed interval into a level decision. Caller holds mu_.
  void EvaluateIntervalLocked(Clock::time_point now);
  /// Recomputes the L1 utility floor from the recent window. Caller
  /// holds mu_.
  void RecomputeUtilityFloorLocked();

  const OverloadConfig config_;
  std::unique_ptr<obs::Observability> owned_obs_;  // fallback when none given
  obs::Observability* obs_;

  std::atomic<int> level_{0};
  std::atomic<uint64_t> level_ups_{0};
  std::atomic<uint64_t> level_downs_{0};
  std::atomic<double> utility_floor_{0.0};

  std::mutex mu_;
  Clock::time_point interval_start_;
  Clock::time_point calm_since_;       // start of the current calm streak
  Clock::time_point last_transition_;
  int64_t interval_min_us_ = -1;  // -1: no samples this interval
  int64_t interval_max_us_ = 0;
  std::vector<double> utilities_;  // ring of recent utilities
  size_t utility_next_ = 0;
  bool utility_full_ = false;

  obs::Gauge* level_gauge_;
  obs::Counter* level_up_counter_;
  obs::Counter* level_down_counter_;
};

}  // namespace apollo::rt
