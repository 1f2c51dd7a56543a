#include "rt/overload.h"

#include <algorithm>

namespace apollo::rt {

namespace {
constexpr int kMaxLevel = static_cast<int>(BrownoutLevel::kReject);
}  // namespace

BrownoutController::BrownoutController(OverloadConfig config,
                                       obs::Observability* obs,
                                       const std::string& metric_prefix)
    : config_(std::move(config)),
      owned_obs_(obs == nullptr ? std::make_unique<obs::Observability>()
                                : nullptr),
      obs_(obs == nullptr ? owned_obs_.get() : obs) {
  const auto now = Clock::now();
  interval_start_ = now;
  calm_since_ = now;
  last_transition_ = now;
  utilities_.resize(std::max<size_t>(1, config_.utility_window));
  obs::MetricsRegistry& m = obs_->metrics;
  level_gauge_ = m.RegisterGauge(metric_prefix + "level");
  level_up_counter_ = m.RegisterCounter(metric_prefix + "level_up");
  level_down_counter_ = m.RegisterCounter(metric_prefix + "level_down");
}

bool BrownoutController::ShouldShedPrediction(double utility_us) const {
  const BrownoutLevel l = level();
  if (l < BrownoutLevel::kShedLowUtility) return false;
  if (l > BrownoutLevel::kShedLowUtility) return true;
  return utility_us < utility_floor_.load(std::memory_order_relaxed);
}

void BrownoutController::RecordSojourn(int64_t sojourn_us) {
  const auto now = Clock::now();
  std::lock_guard<std::mutex> lock(mu_);
  if (interval_min_us_ < 0 || sojourn_us < interval_min_us_) {
    interval_min_us_ = sojourn_us;
  }
  interval_max_us_ = std::max(interval_max_us_, sojourn_us);
  if (now - interval_start_ >= config_.interval) {
    EvaluateIntervalLocked(now);
  }
}

void BrownoutController::RecordUtility(double utility_us) {
  std::lock_guard<std::mutex> lock(mu_);
  utilities_[utility_next_] = utility_us;
  if (++utility_next_ == utilities_.size()) {
    utility_next_ = 0;
    utility_full_ = true;
    // Refresh the floor once per full window turn so L1 shedding stays
    // live even when the sojourn feed (the other recompute trigger) is
    // starved; amortized O(1) per observation.
    RecomputeUtilityFloorLocked();
  }
}

void BrownoutController::Tick() {
  const auto now = Clock::now();
  std::lock_guard<std::mutex> lock(mu_);
  if (now - interval_start_ >= config_.interval) {
    EvaluateIntervalLocked(now);
  }
}

void BrownoutController::EvaluateIntervalLocked(Clock::time_point now) {
  const bool had_samples = interval_min_us_ >= 0;
  const bool pressed =
      had_samples &&
      interval_min_us_ > config_.target_sojourn.count();
  // An empty interval is calm by definition: the pool drained everything
  // it was given (or was given nothing). A sampled interval is calm when
  // its MINIMUM sojourn dropped under relief — one fast dequeue proves
  // the standing queue is gone (the CoDel argument, both directions).
  // Judging calm by the interval max instead deadlocks recovery on busy
  // hosts: a single slow worker wakeup per interval — routine ms-scale
  // scheduler noise — would poison every interval into the neither-calm-
  // nor-pressed band and the level could never come back down.
  const bool calm =
      !had_samples || interval_min_us_ < config_.relief_sojourn.count();

  if (pressed) {
    calm_since_ = now;
    const int cur = level_.load(std::memory_order_relaxed);
    if (cur < kMaxLevel) TransitionLocked(cur + 1);
  } else if (calm) {
    const int cur = level_.load(std::memory_order_relaxed);
    if (cur > 0 && now - calm_since_ >= config_.deescalate_dwell &&
        now - last_transition_ >= config_.deescalate_dwell) {
      TransitionLocked(cur - 1);
    }
  } else {
    // Neither pressed nor calm: the queue is working but keeping up.
    // Hold the level and restart the calm streak.
    calm_since_ = now;
  }

  RecomputeUtilityFloorLocked();
  interval_start_ = now;
  interval_min_us_ = -1;
  interval_max_us_ = 0;
}

void BrownoutController::TransitionLocked(int next) {
  const int old = level_.load(std::memory_order_relaxed);
  if (next == old) return;
  level_.store(next, std::memory_order_relaxed);
  last_transition_ = Clock::now();
  if (next > old) {
    level_ups_.fetch_add(1, std::memory_order_relaxed);
    level_up_counter_->Inc();
  } else {
    level_downs_.fetch_add(1, std::memory_order_relaxed);
    level_down_counter_->Inc();
  }
  level_gauge_->Set(static_cast<double>(next));
  if (obs_->trace.enabled()) {
    obs_->trace.Record(obs::TraceEventType::kBrownoutLevel, /*client=*/-1,
                       /*template_id=*/static_cast<uint64_t>(old),
                       obs::SkipReason::kNone,
                       /*aux=*/static_cast<uint64_t>(next));
  }
}

void BrownoutController::RecomputeUtilityFloorLocked() {
  const size_t n = utility_full_ ? utilities_.size() : utility_next_;
  if (n == 0) {
    utility_floor_.store(0.0, std::memory_order_relaxed);
    return;
  }
  // nth_element over a scratch copy: n is the (small, fixed) window size.
  std::vector<double> scratch(utilities_.begin(),
                              utilities_.begin() + static_cast<long>(n));
  size_t k = static_cast<size_t>(config_.shed_fraction *
                                 static_cast<double>(n));
  if (k >= n) k = n - 1;
  std::nth_element(scratch.begin(), scratch.begin() + static_cast<long>(k),
                   scratch.end());
  utility_floor_.store(scratch[k], std::memory_order_relaxed);
}

void BrownoutController::ForceLevel(BrownoutLevel level) {
  std::lock_guard<std::mutex> lock(mu_);
  const int target = static_cast<int>(level);
  // Step through intermediate levels so the trace keeps its one-step
  // invariant even when tests pin levels directly.
  int cur = level_.load(std::memory_order_relaxed);
  while (cur != target) {
    cur += target > cur ? 1 : -1;
    TransitionLocked(cur);
  }
  calm_since_ = Clock::now();
}

}  // namespace apollo::rt
