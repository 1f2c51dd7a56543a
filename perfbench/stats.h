// Measurement helpers: exact percentiles, process CPU and memory, and the
// in-memory spans of a traced run with their self times.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Nanoseconds on the steady clock since the first call in the process.
int64_t NowNs();

/// User + system CPU seconds of the whole process (getrusage).
double CpuSeconds();

/// User + system CPU seconds of the calling thread (getrusage).
double ThreadCpuSeconds();

/// Peak resident set size of the process, in MiB.
double PeakRssMb();

/// Percentile `p` (0..100) of `values` with linear interpolation between
/// closest ranks; sorts `values` in place. 0 when empty.
double Percentile(std::vector<double>& values, double p);

/// Median of a copy of `values`.
double Median(std::vector<double> values);

/// num / den, or 0 when den is not positive.
inline double Ratio(double num, double den) {
  return den > 0 ? num / den : 0.0;
}

/// One timed interval at a layer boundary. Spans of one request share
/// `request`; `parent` is the id of the enclosing span (0 for a root).
struct Span {
  const char* name = "";  // static string
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request = 0;
};

/// Collects spans from any thread; kept in memory until the run ends.
class SpanRecorder {
 public:
  void Add(const char* name, int64_t start_ns, int64_t end_ns,
           uint64_t parent, uint64_t request);
  /// Reserves an id for a span whose children are recorded before it.
  uint64_t ReserveId();
  void AddWithId(const Span& span);
  std::vector<Span> Take();

 private:
  std::mutex mu_;
  uint64_t next_id_ = 1;
  std::vector<Span> spans_;
};

/// Self time of each span: its duration minus the part of its interval
/// covered by its children (children clipped to the parent, overlaps
/// counted once). Same order as `spans`; never negative.
std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans);

/// Per span name: count, total and self time, and the self-time median.
std::string SelfTimeTable(const std::vector<Span>& spans);

/// Writes the spans as one JSON object {"spans": [...]}; false on error.
bool WriteSpansJson(const std::string& path, const std::vector<Span>& spans);

}  // namespace perfbench
