// MetricsRegistry: the central store of named counters, gauges and
// histograms (DESIGN.md Section 8).
//
// Components register their instruments once (at construction) and keep
// the returned handle for increment-time access; nothing is looked up by
// name on the hot path. Counters may be sharded so concurrent writers
// (e.g. the KvCache's shards) accumulate into distinct cache lines and
// only reads pay the aggregation. The legacy stats structs
// (RemoteDbStats, MiddlewareStats, CacheStats) are assembled on demand
// from these instruments — the registry is the single source of truth.
//
// Export is deterministic: instruments appear in registration order.
// Instrument names containing "wall" hold real (wall-clock) measurements
// and are excluded from the deterministic export so bit-identical-output
// regression checks keep working (see tools/check.sh notes).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/histogram.h"

namespace apollo::obs {

/// Monotonic counter with optional per-shard accumulation cells.
class Counter {
 public:
  explicit Counter(size_t num_shards = 1)
      : cells_(num_shards == 0 ? 1 : num_shards) {}

  void Inc(uint64_t delta = 1, size_t shard = 0) {
    cells_[shard % cells_.size()].v.fetch_add(delta,
                                              std::memory_order_relaxed);
  }

  uint64_t Value() const {
    uint64_t total = 0;
    for (const auto& c : cells_) total += c.v.load(std::memory_order_relaxed);
    return total;
  }

  size_t num_shards() const { return cells_.size(); }

 private:
  struct alignas(64) Cell {
    std::atomic<uint64_t> v{0};
  };
  std::vector<Cell> cells_;
};

/// A counter no registry exports: the default target of count hooks that
/// a host redirects into its registry (the transition graphs' and param
/// mapper's prune counters), so a hook is never null.
Counter* UnexportedCounter();

/// Double-valued gauge; supports both Set (levels) and Add (accumulated
/// sums, e.g. wall-clock microseconds).
class Gauge {
 public:
  void Set(double v) { v_.store(v, std::memory_order_relaxed); }

  void Add(double delta) {
    double cur = v_.load(std::memory_order_relaxed);
    while (!v_.compare_exchange_weak(cur, cur + delta,
                                     std::memory_order_relaxed)) {
    }
  }

  double Value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Thread-safe wrapper over util::Histogram plus a running sum/count that
/// can be read cheaply (interval samplers diff the sum, final reports use
/// the full percentile set).
class HistogramMetric {
 public:
  void Record(int64_t value) {
    std::lock_guard lock(mu_);
    hist_.Record(value);
  }

  uint64_t Count() const {
    std::lock_guard lock(mu_);
    return hist_.count();
  }

  double Sum() const {
    std::lock_guard lock(mu_);
    return static_cast<double>(hist_.sum());
  }

  double Mean() const {
    std::lock_guard lock(mu_);
    return hist_.Mean();
  }

  int64_t Percentile(double p) const {
    std::lock_guard lock(mu_);
    return hist_.empty() ? 0 : hist_.Percentile(p);
  }

 private:
  mutable std::mutex mu_;
  util::Histogram hist_;
};

/// Which instruments an export includes. Wall-clock instruments (name
/// contains "wall") are nondeterministic between runs.
enum class ExportFilter { kDeterministic, kWallOnly, kAll };

class MetricsRegistry {
 public:
  /// Registration is idempotent: re-registering a name returns the
  /// existing instrument (shard count of the first registration wins).
  Counter* RegisterCounter(const std::string& name, size_t num_shards = 1);
  Gauge* RegisterGauge(const std::string& name);
  HistogramMetric* RegisterHistogram(const std::string& name);

  /// Lookup by exact name; nullptr if never registered.
  Counter* FindCounter(const std::string& name) const;
  Gauge* FindGauge(const std::string& name) const;
  HistogramMetric* FindHistogram(const std::string& name) const;

  /// One exported value (histograms expand to count/mean/p50/p99).
  struct Sample {
    std::string name;
    double value = 0.0;
  };
  std::vector<Sample> Snapshot(ExportFilter filter = ExportFilter::kAll) const;

  /// Compact single-line JSON object, instruments in registration order.
  std::string ToJson(ExportFilter filter = ExportFilter::kAll) const;

  size_t size() const;

 private:
  static bool IsWall(const std::string& name) {
    return name.find("wall") != std::string::npos;
  }

  mutable std::mutex mu_;
  std::vector<std::pair<std::string, std::unique_ptr<Counter>>> counters_;
  std::vector<std::pair<std::string, std::unique_ptr<Gauge>>> gauges_;
  std::vector<std::pair<std::string, std::unique_ptr<HistogramMetric>>>
      histograms_;
};

}  // namespace apollo::obs
