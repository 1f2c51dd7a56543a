// Trace capture & replay: record the exact query stream of a TPC-W run,
// save it to disk, then replay the identical stream against Apollo and
// against a passive cache — removing workload randomness from the
// comparison entirely.
//
// Run: ./build/examples/trace_replay [trace_path]
#include <cstdio>

#include "core/apollo_middleware.h"
#include "workload/client_driver.h"
#include "workload/tpcw.h"
#include "workload/trace.h"

using namespace apollo;

namespace {

workload::TpcwConfig SmallTpcw() {
  workload::TpcwConfig cfg;
  cfg.num_items = 2000;
  cfg.num_customers = 1500;
  cfg.num_authors = 500;
  cfg.num_orders = 1350;
  return cfg;
}

std::unique_ptr<net::RemoteDatabase> MakeRemote(sim::EventLoop* loop,
                                                db::Database* db) {
  net::RemoteDbConfig cfg;
  cfg.rtt = sim::LatencyModel::Constant(util::Millis(60));
  return std::make_unique<net::RemoteDatabase>(loop, db, cfg);
}

}  // namespace

int main(int argc, char** argv) {
  const std::string path = argc > 1 ? argv[1] : "/tmp/apollo_tpcw.trace";

  // ---- Phase 1: record a 5-minute, 10-client TPC-W run ----
  workload::Trace trace;
  {
    db::Database db;
    workload::TpcwWorkload tpcw(SmallTpcw());
    if (!tpcw.Setup(&db).ok()) return 1;
    sim::EventLoop loop;
    auto remote = MakeRemote(&loop, &db);
    cache::KvCache cache(8 << 20);
    core::ApolloConfig passive;
    passive.enable_prediction = false;  // the recorder only serves queries
    core::ApolloMiddleware inner(&loop, remote.get(), &cache, passive);
    workload::TraceRecorder recorder(&loop, &inner);
    std::vector<std::unique_ptr<workload::ClientDriver>> drivers;
    for (int i = 0; i < 10; ++i) {
      drivers.push_back(std::make_unique<workload::ClientDriver>(
          &loop, &recorder, i, tpcw.MakeClient(i, 900 + i), 1000 + i));
      drivers.back()->Start(util::Minutes(5));
    }
    loop.RunUntil(util::Minutes(6));
    trace = recorder.TakeTrace();
    if (!workload::SaveTrace(trace, path).ok()) return 1;
    std::printf("recorded %zu queries from 10 clients into %s\n",
                trace.size(), path.c_str());
  }

  // ---- Phase 2: replay the identical stream against both systems ----
  auto loaded = workload::LoadTrace(path);
  if (!loaded.ok()) {
    std::fprintf(stderr, "load failed: %s\n",
                 loaded.status().ToString().c_str());
    return 1;
  }
  for (bool predictive : {false, true}) {
    db::Database db;
    workload::TpcwWorkload tpcw(SmallTpcw());
    if (!tpcw.Setup(&db).ok()) return 1;
    sim::EventLoop loop;
    auto remote = MakeRemote(&loop, &db);
    cache::KvCache cache(8 << 20);
    core::ApolloConfig cfg;
    cfg.enable_prediction = predictive;
    core::ApolloMiddleware mw(&loop, remote.get(), &cache, cfg);
    workload::RunMetrics metrics(0, util::Minutes(1));
    workload::ReplayTrace(&loop, &mw, *loaded, &metrics, /*start=*/0);
    loop.Run();
    std::printf(
        "%-10s replay: mean %6.2f ms | p95 %7.2f ms | hit-rate %4.1f%% | "
        "predictions %llu\n",
        mw.name().c_str(), metrics.MeanMs(), metrics.PercentileMs(95),
        100.0 * cache.stats().HitRate(),
        static_cast<unsigned long long>(mw.stats().predictions_issued));
  }
  return 0;
}
