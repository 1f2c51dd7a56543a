// Real (wall-clock) elapsed time, for the "(wall)" instruments.
//
// Simulated time never reads this clock; only overhead measurements do
// (paper Section 4.2.1), which is why their export lines are marked and
// filtered from deterministic-output diffs.
#pragma once

#include <chrono>

namespace apollo::util {

/// Microseconds of steady-clock time elapsed since `t0`, with sub-µs
/// precision (the FDQ-search gauges sum many sub-µs calls). Casting the
/// result to an integer truncates exactly as duration_cast<microseconds>
/// does.
inline double WallMicrosSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - t0)
             .count() /
         1000.0;
}

}  // namespace apollo::util
