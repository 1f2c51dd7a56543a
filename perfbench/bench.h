// perfbench: the repository benchmark (README.md in this directory).
//
// One workload run produces a Report: end-to-end metrics from an untraced
// measurement window, per-layer metrics from a traced run (tracing toggled
// on alternate segments of the window, then a replay of the recorded
// statement stream through each layer's public entry point), the spans
// the traced run recorded, and the outcome of every correctness check.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "stats.h"

namespace apollo::obs {
class TraceLog;
}  // namespace apollo::obs
namespace apollo::workload {
class Workload;
}  // namespace apollo::workload

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  /// Length of the measurement window (rt workloads) or the wall budget
  /// the simulated duration is scaled from (sim-tpcw). The rt workloads
  /// warm up for 0.3 x seconds before the window.
  double seconds = 20;
  bool trace = false;
};

/// One client statement of a recorded stream, in submission order.
struct StreamEntry {
  uint64_t seq = 0;
  int session = 0;
  std::string sql;
};

struct Report {
  /// Metric name -> value; names and units come from the catalog
  /// (report.h). Metrics a workload cannot produce stay absent.
  std::map<std::string, double> metrics;
  /// Extra human-readable lines printed above the JSON result.
  std::vector<std::string> notes;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Empty when every correctness check passed.
  std::vector<std::string> check_failures;
  /// Spans of the traced run (empty when untraced).
  std::vector<Span> spans;
};

// --- Workload selection and shared helpers (workloads.cc) ---

/// Names of the workloads, in the order BENCHMARK.json lists them.
const std::vector<std::string>& WorkloadNames();

/// Runs `opts.workload`; an unknown name yields a check failure.
Report RunWorkload(const Options& opts);

/// The data set and client behaviours of workload `name`, generated from
/// `seed`: TPC-W (default scale) for the tpcw-* and sim-tpcw workloads,
/// TPC-C at 200 warehouses with half Payments for tpcc-write.
std::unique_ptr<apollo::workload::Workload> MakeWorkload(
    const std::string& name, uint64_t seed);

/// Set-ups a run times (1 when traced: setup_s is not reported then).
/// setup_s is their median; about half run before the window and half
/// after it, so a slow spell of the host moves fewer of them.
int SetupReps(const Options& opts);

/// Process CPU seconds to set up a fresh copy of the workload's data; negative
/// when the set-up fails.
double TimeSetup(const std::string& workload, uint64_t seed);

/// Predicted cache entries that served at least one client read: the
/// kPredictionHit events of `trace` that record an entry's first hit.
uint64_t FirstPredictionHits(const apollo::obs::TraceLog& trace);


/// True for statements that only read (the workloads' SQL is upper case).
bool IsRead(const std::string& sql);

/// "cache X MB of Y MB data" for the report (report.cc).
std::string CacheSizeNote(size_t cache_bytes, size_t db_bytes);

// --- Workload families (rt_workload.cc, sim_workload.cc) ---
Report RunRtWorkload(const Options& opts);
Report RunSimWorkload(const Options& opts);

/// The statements one generator thread's sessions issue over
/// `interactions` interactions when every statement runs directly on a
/// freshly set-up database, single-threaded. A pure function of
/// (workload, seed): the determinism test compares two calls.
std::vector<std::string> GenerateStream(const std::string& workload,
                                        uint64_t seed, int interactions);

// --- Layer replay (replay.cc) ---

/// Replays the first 3000 statements of `stream` in order on two
/// databases freshly set up as `opts.workload` with `opts.seed`, through
/// TemplateCache::Admit, Database::ExecutePrepared, KvCache::GetCompatible
/// and Put, DbGateway::ExecuteBatchAsync (rtt 0) and ThreadPool::Submit.
/// Adds the sql.*, db.exec/row metrics, cache.*_us and
/// rt.gateway_handoff_us metrics and the replay spans to `out`.
void ReplayLayers(const Options& opts, std::vector<StreamEntry> stream,
                  SpanRecorder* spans, Report* out);

}  // namespace perfbench
