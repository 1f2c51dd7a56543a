#include "stats.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <unordered_map>

namespace perfbench {

int64_t NowNs() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

namespace {

double RusageSeconds(int who) {
  rusage ru{};
  getrusage(who, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

}  // namespace

double CpuSeconds() { return RusageSeconds(RUSAGE_SELF); }

double ThreadCpuSeconds() { return RusageSeconds(RUSAGE_THREAD); }

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double Percentile(std::vector<double>& values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::clamp(p, 0.0, 100.0) / 100.0 *
                      static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) { return Percentile(values, 50); }

void SpanRecorder::Add(const char* name, int64_t start_ns, int64_t end_ns,
                       uint64_t parent, uint64_t request) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, start_ns, end_ns, next_id_++, parent, request});
}

uint64_t SpanRecorder::ReserveId() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

void SpanRecorder::AddWithId(const Span& span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

std::vector<Span> SpanRecorder::Take() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> out;
  out.swap(spans_);
  return out;
}

std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, size_t> index;
  index.reserve(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<std::vector<size_t>> children(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent == 0) continue;
    auto it = index.find(spans[i].parent);
    if (it != index.end() && it->second != i) children[it->second].push_back(i);
  }
  std::vector<int64_t> self(spans.size(), 0);
  std::vector<std::pair<int64_t, int64_t>> iv;
  for (size_t i = 0; i < spans.size(); ++i) {
    const int64_t start = spans[i].start_ns;
    const int64_t end = std::max(start, spans[i].end_ns);
    iv.clear();
    for (size_t c : children[i]) {
      const int64_t cs = std::max(start, spans[c].start_ns);
      const int64_t ce = std::min(end, spans[c].end_ns);
      if (ce > cs) iv.emplace_back(cs, ce);
    }
    std::sort(iv.begin(), iv.end());
    int64_t covered = 0, cur_s = 0, cur_e = 0;
    bool open = false;
    for (const auto& [s, e] : iv) {
      if (open && s <= cur_e) {
        cur_e = std::max(cur_e, e);
        continue;
      }
      if (open) covered += cur_e - cur_s;
      cur_s = s;
      cur_e = e;
      open = true;
    }
    if (open) covered += cur_e - cur_s;
    self[i] = (end - start) - covered;
  }
  return self;
}

std::string SelfTimeTable(const std::vector<Span>& spans) {
  const std::vector<int64_t> self = SelfTimesNs(spans);
  struct Row {
    uint64_t count = 0;
    double total_us = 0, self_us = 0;
    std::vector<double> self_samples;
  };
  std::map<std::string, Row> rows;
  for (size_t i = 0; i < spans.size(); ++i) {
    Row& r = rows[spans[i].name];
    ++r.count;
    r.total_us +=
        static_cast<double>(spans[i].end_ns - spans[i].start_ns) / 1e3;
    r.self_us += static_cast<double>(self[i]) / 1e3;
    r.self_samples.push_back(static_cast<double>(self[i]) / 1e3);
  }
  std::string out =
      "span                     count     total_ms      self_ms  self_p50_us\n";
  char line[160];
  for (auto& [name, r] : rows) {
    std::snprintf(line, sizeof(line), "%-22s %8llu %12.3f %12.3f %12.3f\n",
                  name.c_str(), static_cast<unsigned long long>(r.count),
                  r.total_us / 1e3, r.self_us / 1e3,
                  Percentile(r.self_samples, 50));
    out += line;
  }
  return out;
}

bool WriteSpansJson(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"spans\":[\n", f);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"start_us\":%.3f,\"end_us\":%.3f,"
                 "\"id\":%llu,\"parent\":%llu,\"request\":%llu}",
                 i == 0 ? "" : ",\n", s.name,
                 static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.end_ns) / 1e3,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request));
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
