// The benchmark's own tests: metric names and units, seed determinism of
// the generated statement stream, a short smoke run of every workload
// (untraced and traced) that must pass all checks, and self times.
#include <gtest/gtest.h>

#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>

#include "bench.h"
#include "report.h"

namespace perfbench {
namespace {

std::vector<MetricDef> AllMetrics() {
  std::vector<MetricDef> all = EndToEndMetrics();
  all.insert(all.end(), ExtraMetrics().begin(), ExtraMetrics().end());
  all.insert(all.end(), PerLayerMetrics().begin(), PerLayerMetrics().end());
  return all;
}

TEST(MetricCatalog, NamesMatchPatternAndHaveUnits) {
  const std::regex name_re("[A-Za-z0-9_.-]+");
  const std::regex unit_re("[A-Za-z0-9_/%.-]{1,16}");
  std::set<std::string> seen;
  for (const auto& d : AllMetrics()) {
    EXPECT_TRUE(std::regex_match(d.name, name_re)) << d.name;
    EXPECT_TRUE(std::regex_match(d.unit, unit_re)) << d.name << " " << d.unit;
    EXPECT_TRUE(seen.insert(d.name).second) << "duplicate " << d.name;
  }
}

TEST(MetricCatalog, MatchesBenchmarkJson) {
  std::ifstream in(PERFBENCH_BENCHMARK_JSON);
  ASSERT_TRUE(in.good()) << PERFBENCH_BENCHMARK_JSON;
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();
  std::set<std::string> in_file;
  const std::regex name_re("\"name\"\\s*:\\s*\"([^\"]+)\"");
  for (std::sregex_iterator it(text.begin(), text.end(), name_re), end;
       it != end; ++it) {
    in_file.insert((*it)[1]);
  }
  std::set<std::string> expected(WorkloadNames().begin(),
                                 WorkloadNames().end());
  for (const auto& d : EndToEndMetrics()) expected.insert(d.name);
  for (const auto& d : PerLayerMetrics()) expected.insert(d.name);
  EXPECT_EQ(in_file, expected);
}

TEST(StreamGeneration, SameSeedSameStream) {
  for (const std::string w : {"tpcw-cpu", "tpcc-write"}) {
    const auto a = GenerateStream(w, 7, 48);
    const auto b = GenerateStream(w, 7, 48);
    const auto c = GenerateStream(w, 8, 48);
    ASSERT_GT(a.size(), 48u) << w;
    EXPECT_EQ(a, b) << w;
    EXPECT_NE(a, c) << w;
  }
}

TEST(SelfTime, ChildrenCoveredOnceAndClipped) {
  std::vector<Span> spans = {
      {"root", 0, 100, 1, 0, 1},   {"a", 10, 30, 2, 1, 1},
      {"b", 20, 50, 3, 1, 1},      {"late", 90, 150, 4, 1, 1},
      {"early", -20, 5, 5, 1, 1},  {"grandchild", 12, 40, 6, 2, 1},
  };
  const auto self = SelfTimesNs(spans);
  // Children cover [0,5] + [10,50] + [90,100] of the root's 100 ns.
  EXPECT_EQ(self[0], 100 - 5 - 40 - 10);
  EXPECT_EQ(self[1], 20 - 18);  // grandchild clipped to [12,30]
  for (int64_t s : self) EXPECT_GE(s, 0);
}

Options Smoke(const std::string& workload, bool trace) {
  Options o;
  o.workload = workload;
  o.seed = 3;
  o.seconds = 1.0;
  o.trace = trace;
  return o;
}

TEST(Smoke, EveryWorkloadPassesItsChecks) {
  for (const auto& w : WorkloadNames()) {
    for (bool trace : {false, true}) {
      const Report r = RunWorkload(Smoke(w, trace));
      EXPECT_TRUE(r.check_failures.empty())
          << w << " trace=" << trace << ": " << r.check_failures.front();
      EXPECT_GE(r.attempted, 1u) << w;
      EXPECT_EQ(r.failed, 0u) << w;
      EXPECT_EQ(r.metrics.at("stale_reads"), 0.0) << w;
      if (!trace) {
        for (const auto& d : EndToEndMetrics()) {
          ASSERT_TRUE(r.metrics.count(d.name)) << w << " lacks " << d.name;
          EXPECT_GT(r.metrics.at(d.name), 0.0) << w << " " << d.name;
        }
        continue;
      }
      for (const char* m : {"sql.admit_us.p50", "db.exec_us.p50",
                            "cache.get_us.p50", "rt.gateway_handoff_us.p50",
                            "core.predictions_per_query"}) {
        EXPECT_TRUE(r.metrics.count(m)) << w << " lacks " << m;
      }
      ASSERT_FALSE(r.spans.empty()) << w;
      for (int64_t s : SelfTimesNs(r.spans)) EXPECT_GE(s, 0) << w;
    }
  }
}

}  // namespace
}  // namespace perfbench
