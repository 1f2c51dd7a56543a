// Workload selection and the helpers both workload families share.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "db/database.h"
#include "obs/trace_log.h"
#include "workload/tpcc.h"
#include "workload/tpcw.h"
#include "workload/workload.h"

namespace perfbench {

using namespace apollo;

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {"tpcw-wan", "tpcw-cpu",
                                                  "tpcc-write", "sim-tpcw"};
  return kNames;
}

Report RunWorkload(const Options& opts) {
  if (opts.workload == "sim-tpcw") return RunSimWorkload(opts);
  for (const auto& name : WorkloadNames()) {
    if (name == opts.workload) return RunRtWorkload(opts);
  }
  Report r;
  r.check_failures.push_back("unknown workload '" + opts.workload + "'");
  return r;
}

int SetupReps(const Options& opts) { return opts.trace ? 1 : 5; }

bool IsRead(const std::string& sql) { return sql.rfind("SELECT", 0) == 0; }

double TimeSetup(const std::string& workload, uint64_t seed) {
  db::Database db;
  auto wl = MakeWorkload(workload, seed);
  const double cpu0 = CpuSeconds();
  if (!wl->Setup(&db).ok()) return -1;
  return CpuSeconds() - cpu0;
}

uint64_t FirstPredictionHits(const obs::TraceLog& trace) {
  uint64_t n = 0;
  for (const auto& e : trace.Events()) {
    if (e.type == obs::TraceEventType::kPredictionHit && e.aux == 1) ++n;
  }
  return n;
}

std::unique_ptr<workload::Workload> MakeWorkload(const std::string& name,
                                                 uint64_t seed) {
  if (name == "tpcc-write") {
    workload::TpccConfig c;
    c.num_warehouses = 200;
    c.payment_fraction = 0.5;
    c.order_status_fraction = 0.25;  // Stock Level takes the rest
    c.seed = 77 + seed;
    return std::make_unique<workload::TpccWorkload>(c);
  }
  workload::TpcwConfig c;
  c.seed = 99 + seed;
  return std::make_unique<workload::TpcwWorkload>(c);
}

}  // namespace perfbench
