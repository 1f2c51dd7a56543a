#include "obs/metrics.h"

#include <cinttypes>
#include <cstdio>

namespace apollo::obs {

namespace {

template <typename Vec>
typename Vec::value_type::second_type::element_type* FindIn(
    const Vec& vec, const std::string& name) {
  for (const auto& [n, inst] : vec) {
    if (n == name) return inst.get();
  }
  return nullptr;
}

void AppendJsonNumber(std::string* out, double v) {
  char buf[64];
  // Counters and counts are integral; print them without a fraction so
  // the JSON is stable and readable.
  if (v == static_cast<double>(static_cast<int64_t>(v))) {
    std::snprintf(buf, sizeof(buf), "%" PRId64, static_cast<int64_t>(v));
  } else {
    std::snprintf(buf, sizeof(buf), "%.3f", v);
  }
  out->append(buf);
}

}  // namespace

Counter* UnexportedCounter() {
  static Counter counter;
  return &counter;
}

Counter* MetricsRegistry::RegisterCounter(const std::string& name,
                                          size_t num_shards) {
  std::lock_guard lock(mu_);
  if (Counter* existing = FindIn(counters_, name)) return existing;
  counters_.emplace_back(name, std::make_unique<Counter>(num_shards));
  return counters_.back().second.get();
}

Gauge* MetricsRegistry::RegisterGauge(const std::string& name) {
  std::lock_guard lock(mu_);
  if (Gauge* existing = FindIn(gauges_, name)) return existing;
  gauges_.emplace_back(name, std::make_unique<Gauge>());
  return gauges_.back().second.get();
}

HistogramMetric* MetricsRegistry::RegisterHistogram(const std::string& name) {
  std::lock_guard lock(mu_);
  if (HistogramMetric* existing = FindIn(histograms_, name)) return existing;
  histograms_.emplace_back(name, std::make_unique<HistogramMetric>());
  return histograms_.back().second.get();
}

Counter* MetricsRegistry::FindCounter(const std::string& name) const {
  std::lock_guard lock(mu_);
  return FindIn(counters_, name);
}

Gauge* MetricsRegistry::FindGauge(const std::string& name) const {
  std::lock_guard lock(mu_);
  return FindIn(gauges_, name);
}

HistogramMetric* MetricsRegistry::FindHistogram(
    const std::string& name) const {
  std::lock_guard lock(mu_);
  return FindIn(histograms_, name);
}

size_t MetricsRegistry::size() const {
  std::lock_guard lock(mu_);
  return counters_.size() + gauges_.size() + histograms_.size();
}

std::vector<MetricsRegistry::Sample> MetricsRegistry::Snapshot(
    ExportFilter filter) const {
  std::lock_guard lock(mu_);
  auto included = [filter](const std::string& name) {
    switch (filter) {
      case ExportFilter::kDeterministic: return !IsWall(name);
      case ExportFilter::kWallOnly: return IsWall(name);
      case ExportFilter::kAll: return true;
    }
    return true;
  };
  std::vector<Sample> out;
  for (const auto& [name, c] : counters_) {
    if (included(name)) {
      out.push_back({name, static_cast<double>(c->Value())});
    }
  }
  for (const auto& [name, g] : gauges_) {
    if (included(name)) out.push_back({name, g->Value()});
  }
  for (const auto& [name, h] : histograms_) {
    if (!included(name)) continue;
    out.push_back({name + ".count", static_cast<double>(h->Count())});
    out.push_back({name + ".mean", h->Mean()});
    out.push_back({name + ".p50", static_cast<double>(h->Percentile(50))});
    out.push_back({name + ".p99", static_cast<double>(h->Percentile(99))});
  }
  return out;
}

std::string MetricsRegistry::ToJson(ExportFilter filter) const {
  std::vector<Sample> samples = Snapshot(filter);
  std::string out = "{";
  for (size_t i = 0; i < samples.size(); ++i) {
    if (i > 0) out += ",";
    out += "\"" + samples[i].name + "\":";
    AppendJsonNumber(&out, samples[i].value);
  }
  out += "}";
  return out;
}

}  // namespace apollo::obs
