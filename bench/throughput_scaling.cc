// Throughput scaling of the concurrent runtime (src/rt/): TPC-W
// queries/sec and tail latency vs. worker count.
//
// The figure-reproduction harnesses run the middleware on the
// deterministic simulator; this bench runs the same pipeline on real
// threads through rt::ConcurrentApollo. Each worker is one closed-loop
// TPC-W emulated browser (think time elided — we measure middleware
// capacity, not the spec's residence-time mix) driving interactions
// back-to-back for a fixed wall-clock window. The remote database round
// trip is a real sleep, so throughput scales by overlapping WAN waits
// across workers — the deployment property the runtime exists for.
//
// Output: one JSON line per worker count with qps and client-latency
// percentiles, then the full MetricsRegistry export (per-worker pool
// queue-wait and learn-lock-wait histograms included) for the largest
// run. See README "Throughput scaling bench".
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "db/database.h"
#include "rt/concurrent_apollo.h"
#include "sim/event_loop.h"
#include "workload/tpcw.h"
#include "workload/workload.h"

namespace apollo {
namespace {

/// Synchronous middleware shim: routes ClientContext::Query into
/// ConcurrentApollo::Execute on the calling worker thread and fires the
/// callback inline, so the unmodified TPC-W WorkloadClient state machines
/// drive the threaded runtime.
class RuntimeShim : public core::Middleware {
 public:
  RuntimeShim(rt::ConcurrentApollo* runtime, obs::HistogramMetric* latency_us,
              std::atomic<uint64_t>* completed)
      : runtime_(runtime), latency_us_(latency_us), completed_(completed) {}

  void SubmitQuery(core::ClientId client, const std::string& sql,
                   QueryCallback callback) override {
    auto t0 = std::chrono::steady_clock::now();
    auto result = runtime_->Execute(client, sql);
    auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
    latency_us_->Record(us);
    completed_->fetch_add(1, std::memory_order_relaxed);
    callback(std::move(result));
  }

  const core::MiddlewareStats& stats() const override { return stats_; }
  std::string name() const override { return "rt-shim"; }

 private:
  rt::ConcurrentApollo* runtime_;
  obs::HistogramMetric* latency_us_;
  std::atomic<uint64_t>* completed_;
  core::MiddlewareStats stats_;
};

struct Point {
  int workers = 0;
  double seconds = 0;
  uint64_t queries = 0;
  double qps = 0;
  int64_t p50_us = 0;
  int64_t p99_us = 0;
  uint64_t admit_fast = 0;      // lex fast-path admissions
  uint64_t admit_fallback = 0;  // full-parse admissions
  // Scaling-rework curve (DESIGN.md Section 14): WAN batching and
  // learn-shard contention for the same run.
  uint64_t batches = 0;          // coalesced WAN round trips
  uint64_t batch_statements = 0; // statements carried by those trips
  int64_t batch_size_p50 = 0;
  int64_t learn_wait_p50_us = 0;  // aggregate learn-lock wait
  int64_t learn_wait_p99_us = 0;
  int64_t shard_wait_p99_max_us = 0;  // worst per-shard p99
};

Point RunScale(int workers, std::chrono::milliseconds window,
               std::chrono::microseconds rtt, bool print_metrics) {
  db::Database db;
  // Real-thread runtime: wall clock is the figure of merit, so take the
  // better executor plan (the sim cost model keeps the legacy scan plan).
  db.set_semijoin_prefilter(true);
  workload::TpcwWorkload workload;
  auto status = workload.Setup(&db);
  if (!status.ok()) {
    std::fprintf(stderr, "setup failed: %s\n", status.message().c_str());
    std::exit(1);
  }

  rt::ConcurrentApolloConfig cfg;
  cfg.gateway.rtt = rtt;
  cfg.pool.num_threads = std::max(4, 2 * workers);
  cfg.pool.queue_capacity = 256;
  cfg.cache_bytes = db.ApproximateDataBytes() / 20;  // the 5% rule
  rt::ConcurrentApollo apollo(&db, cfg);
  auto* latency_us =
      apollo.observability().metrics.RegisterHistogram("bench.query_wall_us");
  std::atomic<uint64_t> completed{0};
  RuntimeShim shim(&apollo, latency_us, &completed);

  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  auto t0 = std::chrono::steady_clock::now();
  for (int w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      // Each worker owns one emulated browser; the loop/rng/context are
      // thread-local, everything behind the shim is shared.
      sim::EventLoop loop;
      util::Rng rng(1000 + static_cast<uint64_t>(w));
      auto client = workload.MakeClient(w, /*seed=*/7 * w + 1);
      workload::ClientContext ctx(&loop, &shim, w, &rng);
      while (!stop.load(std::memory_order_relaxed)) {
        bool finished = false;
        client->RunInteraction(ctx, [&finished] { finished = true; });
        if (!finished) {
          std::fprintf(stderr, "interaction did not complete inline\n");
          std::exit(1);
        }
      }
    });
  }
  std::this_thread::sleep_for(window);
  stop.store(true);
  for (auto& t : threads) t.join();
  double seconds = std::chrono::duration_cast<std::chrono::duration<double>>(
                       std::chrono::steady_clock::now() - t0)
                       .count();

  Point p;
  p.workers = workers;
  p.seconds = seconds;
  p.queries = completed.load();
  p.qps = static_cast<double>(p.queries) / seconds;
  p.p50_us = latency_us->Percentile(50);
  p.p99_us = latency_us->Percentile(99);
  p.admit_fast = apollo.template_cache().fast_hits();
  p.admit_fallback = apollo.template_cache().fallbacks();

  auto& m = apollo.observability().metrics;
  if (auto* c = m.FindCounter("rt.gateway.batches")) p.batches = c->Value();
  if (auto* c = m.FindCounter("rt.gateway.batch_statements")) {
    p.batch_statements = c->Value();
  }
  if (auto* h = m.FindHistogram("rt.gateway.batch_size")) {
    p.batch_size_p50 = h->Percentile(50);
  }
  if (auto* h = m.FindHistogram("rt.latency.learn_lock_wait_wall_us")) {
    p.learn_wait_p50_us = h->Percentile(50);
    p.learn_wait_p99_us = h->Percentile(99);
  }
  for (size_t i = 0; i < rt::ConcurrentApollo::kLearnShards; ++i) {
    auto* h = m.FindHistogram("rt.latency.learn_shard" + std::to_string(i) +
                              ".lock_wait_wall_us");
    p.shard_wait_p99_max_us =
        std::max(p.shard_wait_p99_max_us, h->Percentile(99));
  }

  if (print_metrics) {
    std::printf("%s\n",
                apollo.observability()
                    .metrics.ToJson(obs::ExportFilter::kAll)
                    .c_str());
  }
  apollo.Shutdown();
  return p;
}

}  // namespace
}  // namespace apollo

int main(int argc, char** argv) {
  // args: [window_ms] [rtt_us]. Default RTT is the paper's US-East ->
  // US-West WAN (~70 ms); shorter round trips shrink the overlap window
  // and with it the scaling headroom on few cores.
  std::chrono::milliseconds window(argc > 1 ? std::atoi(argv[1]) : 4000);
  std::chrono::microseconds rtt(argc > 2 ? std::atol(argv[2]) : 70000);

  std::vector<int> counts = {1, 2, 4, 8, 16, 32};
  int hw = static_cast<int>(std::thread::hardware_concurrency());
  if (hw > 0 &&
      std::find(counts.begin(), counts.end(), hw) == counts.end()) {
    counts.push_back(hw);
    std::sort(counts.begin(), counts.end());
  }

  std::printf("# throughput_scaling: TPC-W closed-loop, rtt=%ldus, "
              "window=%ldms\n",
              static_cast<long>(rtt.count()),
              static_cast<long>(window.count()));
  double qps1 = 0;
  std::string json = "[";
  for (size_t i = 0; i < counts.size(); ++i) {
    bool last = i + 1 == counts.size();
    apollo::Point p = apollo::RunScale(counts[i], window, rtt, last);
    if (p.workers == 1) qps1 = p.qps;
    char line[640];
    // Old schema fields stay verbatim (external plots key on them); the
    // batching/sharding curve fields are appended.
    std::snprintf(
        line, sizeof(line),
        "{\"bench\":\"throughput_scaling\",\"workers\":%d,"
        "\"seconds\":%.2f,\"queries\":%llu,\"qps\":%.1f,"
        "\"p50_us\":%lld,\"p99_us\":%lld,\"speedup_vs_1\":%.2f,"
        "\"admit_fast\":%llu,\"admit_fallback\":%llu,"
        "\"batches\":%llu,\"batch_statements\":%llu,"
        "\"batch_size_p50\":%lld,\"learn_wait_p50_us\":%lld,"
        "\"learn_wait_p99_us\":%lld,\"shard_wait_p99_max_us\":%lld}",
        p.workers, p.seconds, static_cast<unsigned long long>(p.queries),
        p.qps, static_cast<long long>(p.p50_us),
        static_cast<long long>(p.p99_us), qps1 > 0 ? p.qps / qps1 : 1.0,
        static_cast<unsigned long long>(p.admit_fast),
        static_cast<unsigned long long>(p.admit_fallback),
        static_cast<unsigned long long>(p.batches),
        static_cast<unsigned long long>(p.batch_statements),
        static_cast<long long>(p.batch_size_p50),
        static_cast<long long>(p.learn_wait_p50_us),
        static_cast<long long>(p.learn_wait_p99_us),
        static_cast<long long>(p.shard_wait_p99_max_us));
    std::printf("%s\n", line);
    std::fflush(stdout);
    if (i > 0) json += ",";
    json += line;
  }
  json += "]\n";
  // args: [window_ms] [rtt_us] [json_path]. Run from the repo root to land
  // the file there (see README "Throughput scaling bench").
  std::ofstream out(argc > 3 ? argv[3] : "BENCH_throughput.json");
  out << json;
  return 0;
}
