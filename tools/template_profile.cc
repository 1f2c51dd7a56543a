// template_profile: where the executor's time goes, per statement template.
//
//   template_profile [--workload tpcw|tpcc] [--seed N]
//
// Records the client statement stream of a short simulated run (30 clients
// behind a TraceRecorder in front of a prediction-off ApolloMiddleware),
// then replays its first 3000 statements in order on freshly loaded full
// data: each one through TemplateCache::Admit and
// Database::ExecutePrepared (Database::Execute when the template has no
// prepared form), timing the execution alone. Prints one line per
// template, heaviest first: statements, total ms, µs per statement, rows
// examined per statement and share of the total, then the template text.
//
// The workloads are perfbench's: `tpcw` is its TPC-W data (seed 99 + N),
// `tpcc` its tpcc-write configuration (200 warehouses, half Payments).
// Defaults: tpcw, seed 1. The stream and the row counts are deterministic
// for a seed; the timings are this process's wall clock.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/apollo_middleware.h"
#include "sql/template_cache.h"
#include "workload/client_driver.h"
#include "workload/tpcc.h"
#include "workload/tpcw.h"
#include "workload/trace.h"

namespace {

using namespace apollo;  // tool-only brevity

constexpr int kClients = 30;
constexpr size_t kStatements = 3000;

// A copy of perfbench::MakeWorkload's tpcw and tpcc-write presets
// (perfbench/workloads.cc); keep the two in step.
std::unique_ptr<workload::Workload> MakeWorkload(const std::string& name,
                                                 uint64_t seed) {
  if (name == "tpcc") {
    workload::TpccConfig c;
    c.num_warehouses = 200;
    c.payment_fraction = 0.5;
    c.order_status_fraction = 0.25;
    c.seed = 77 + seed;
    return std::make_unique<workload::TpccWorkload>(c);
  }
  workload::TpcwConfig c;
  c.seed = 99 + seed;
  return std::make_unique<workload::TpcwWorkload>(c);
}

// Runs the workload on the simulator until kStatements client statements
// were submitted (or four simulated hours passed) and returns them.
util::Result<workload::Trace> Record(const std::string& name, uint64_t seed) {
  db::Database db;
  auto wl = MakeWorkload(name, seed);
  APOLLO_RETURN_NOT_OK(wl->Setup(&db));
  sim::EventLoop loop;
  net::RemoteDatabase remote(&loop, &db, net::RemoteDbConfig{});
  cache::KvCache cache(db.ApproximateDataBytes() / 20);
  core::ApolloConfig passive;
  passive.enable_prediction = false;  // the recorder only serves queries
  core::ApolloMiddleware inner(&loop, &remote, &cache, passive);
  workload::TraceRecorder recorder(&loop, &inner);
  const util::SimTime end = util::Minutes(240);
  std::vector<std::unique_ptr<workload::ClientDriver>> drivers;
  for (int i = 0; i < kClients; ++i) {
    drivers.push_back(std::make_unique<workload::ClientDriver>(
        &loop, &recorder, i, wl->MakeClient(i, seed * 1000 + i),
        seed * 2000 + i));
    drivers.back()->Start(end);
  }
  for (util::SimTime t = 0;
       recorder.trace().size() < kStatements && t < end;) {
    t += util::Seconds(10);
    loop.RunUntil(t);
  }
  workload::Trace trace = recorder.TakeTrace();
  if (trace.size() > kStatements) trace.resize(kStatements);
  return trace;
}

struct TemplateTotals {
  std::string text;
  uint64_t count = 0;
  uint64_t errors = 0;
  double ms = 0;
  uint64_t rows_examined = 0;
};

int Usage() {
  std::fprintf(stderr,
               "usage: template_profile [--workload tpcw|tpcc] [--seed N]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string name = "tpcw";
  uint64_t seed = 1;
  for (int i = 1; i < argc; ++i) {
    if (i + 1 >= argc) return Usage();
    const char* flag = argv[i];
    const char* value = argv[++i];
    if (std::strcmp(flag, "--workload") == 0) {
      name = value;
    } else if (std::strcmp(flag, "--seed") == 0) {
      seed = std::strtoull(value, nullptr, 10);
    } else {
      return Usage();
    }
  }
  if (name != "tpcw" && name != "tpcc") return Usage();

  auto trace = Record(name, seed);
  if (!trace.ok()) {
    std::fprintf(stderr, "recording failed: %s\n",
                 trace.status().ToString().c_str());
    return 1;
  }

  db::Database db;
  if (auto st = MakeWorkload(name, seed)->Setup(&db); !st.ok()) {
    std::fprintf(stderr, "setup failed: %s\n", st.ToString().c_str());
    return 1;
  }
  sql::TemplateCache tcache;
  std::map<uint64_t, TemplateTotals> by_template;
  TemplateTotals unadmitted{"<not admitted>"};
  double total_ms = 0;
  for (const workload::TraceEvent& e : *trace) {
    auto adm = tcache.Admit(e.sql);
    if (!adm.ok()) {
      ++unadmitted.count;
      ++unadmitted.errors;
      continue;
    }
    const uint64_t examined_before = db.stats().rows_examined;
    const auto t0 = std::chrono::steady_clock::now();
    auto rs = adm->preparable()
                  ? db.ExecutePrepared(*adm->tpl->statement, adm->params)
                  : db.Execute(e.sql);
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    TemplateTotals& t = by_template[adm->fingerprint()];
    if (t.count == 0) t.text = adm->template_text();
    ++t.count;
    t.errors += rs.ok() ? 0 : 1;
    t.ms += ms;
    t.rows_examined += db.stats().rows_examined - examined_before;
    total_ms += ms;
  }

  std::vector<const TemplateTotals*> rows;
  for (const auto& [_, t] : by_template) rows.push_back(&t);
  if (unadmitted.count > 0) rows.push_back(&unadmitted);
  std::stable_sort(rows.begin(), rows.end(),
                   [](const TemplateTotals* a, const TemplateTotals* b) {
                     return a->ms > b->ms;
                   });
  std::printf("template_profile: %s seed %llu, %zu statements, %zu "
              "templates, executor total %.1f ms\n",
              name.c_str(), static_cast<unsigned long long>(seed),
              trace->size(), by_template.size(), total_ms);
  std::printf("%6s %9s %6s %9s %10s %6s  %s\n", "share", "ms", "stmts",
              "us/stmt", "rows/stmt", "errors", "template");
  for (const TemplateTotals* t : rows) {
    const double n = static_cast<double>(t->count);
    std::printf("%5.1f%% %9.1f %6llu %9.1f %10.1f %6llu  %s\n",
                total_ms > 0 ? 100.0 * t->ms / total_ms : 0.0, t->ms,
                static_cast<unsigned long long>(t->count),
                1000.0 * t->ms / n,
                static_cast<double>(t->rows_examined) / n,
                static_cast<unsigned long long>(t->errors), t->text.c_str());
  }
  return 0;
}
