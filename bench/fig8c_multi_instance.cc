// Figure 8(c): horizontal scaling — 1 vs 2 vs 3 Apollo instances on weak
// (m4.xlarge-like, 4 vCPU) machines, 20..100 clients, each instance with a
// dedicated cache and a disjoint client partition.
//
// Paper shape: the 1-instance configuration saturates and its response
// time climbs steeply with client load; 2 instances hold out longer; 3
// instances stay flat. At low client counts the fewer-instance configs can
// be slightly better (more shared training data per engine).
//
// Two modes:
//
//   fig8c_multi_instance             simulated (default; byte-stable)
//   fig8c_multi_instance --cluster   real cluster runtime
//
// The default mode reproduces the figure on the discrete-event simulator:
// instances are modelled analytically (engine CPU overhead per query /
// prediction, disjoint static client partitions, no inter-instance
// traffic), which is exactly the paper's deployment but makes "instance"
// a queueing-model parameter rather than a running system.
//
// --cluster routes the same shape of experiment through the REAL
// multi-edge runtime (cluster::EdgeCluster): N edges each running its own
// rt::ConcurrentApollo on a private thread pool, sessions placed by
// rendezvous hashing, cross-edge invalidation links live. Documented
// divergences from the simulated mode:
//
//   - Latency axis: wall-clock through real threads and a synthetic
//     gateway RTT, not simulated engine-CPU milliseconds. Absolute
//     numbers are NOT comparable to the default mode or the paper, and
//     with the knee gone (below) neither is the shape.
//   - Partitioning: rendezvous hashing spreads sessions statistically
//     (roughly even), not the paper's exact disjoint thirds.
//   - Training data: edges learn independently (as in the paper), but
//     invalidation traffic flows over real links, which the simulated
//     mode does not model at all.
//   - Saturation knee: gone. The runtime's batched transport holds no
//     pool thread for a round trip, so the pool no longer caps an edge's
//     miss capacity, and 1, 2 and 3 edges stay flat across 20..100
//     clients. Only the simulated mode, with its calibrated 20 ms engine
//     overhead, shows the paper's knee.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "cluster/edge_cluster.h"
#include "db/database.h"

namespace {

using namespace apollo;

// --cluster mode: one correlated A->B chain family plus a slice of
// never-repeating lookups (unique key per issue, so each pays a full
// gateway round trip). Each unique miss blocks only its client thread
// while the round trip waits in the gateway's timer heap.
constexpr int kChains = 20;
constexpr int kKeys = 10;
constexpr double kUniqueFrac = 0.05;  // fraction of walks adding a miss
constexpr double kWarmS = 1.2;        // per combo per edge: learn/fill
constexpr double kMeasureS = 2.0;     // per combo: latency sampling window

void SetupChainDb(db::Database* db) {
  using common::ValueType;
  for (int t = 0; t < kChains; ++t) {
    const std::string ts = std::to_string(t);
    {
      db::Schema s("F8_A" + ts,
                   {{"A_ID", ValueType::kInt}, {"A_B_ID", ValueType::kInt}});
      s.AddIndex("PRIMARY", {"A_ID"});
      (void)db->CreateTable(std::move(s));
    }
    {
      db::Schema s("F8_B" + ts,
                   {{"B_ID", ValueType::kInt}, {"B_V", ValueType::kInt}});
      s.AddIndex("PRIMARY", {"B_ID"});
      (void)db->CreateTable(std::move(s));
    }
    for (int k = 1; k <= kKeys; ++k) {
      (void)db->GetTable("F8_A" + ts)
          ->Insert({common::Value::Int(k), common::Value::Int(100000 + k)});
      (void)db->GetTable("F8_B" + ts)
          ->Insert({common::Value::Int(100000 + k), common::Value::Int(3 * k)});
    }
  }
  db::Schema s("F8_V", {{"K", ValueType::kInt}, {"V", ValueType::kInt}});
  s.AddIndex("PRIMARY", {"K"});
  (void)db->CreateTable(std::move(s));
}

void RunClusterMode() {
  bench::PrintHeader(
      "Figure 8(c) [--cluster]: 1/2/3 real edges (cluster::EdgeCluster), "
      "wall-clock latency; not comparable to the simulated figure "
      "(see header comment)");
  for (int edges : {1, 2, 3}) {
    for (int clients : {20, 60, 100}) {
      db::Database db;
      SetupChainDb(&db);

      cluster::ClusterConfig cfg;
      cfg.num_edges = static_cast<size_t>(edges);
      cfg.seed = 42;
      cfg.edge.apollo = bench::PaperApolloConfig();
      cfg.edge.apollo.seed = 42 * 131;
      // WAN-ish gateway RTT so cache hits versus round trips dominate the
      // latency axis; a narrow pool models the paper's weak 4-vCPU hosts.
      cfg.edge.gateway.rtt = std::chrono::microseconds(20000);
      cfg.edge.pool.num_threads = 4;
      cfg.edge.pool.queue_capacity = 1024;
      cfg.edge.cache_bytes = db.ApproximateDataBytes();
      cluster::EdgeCluster cl(&db, cfg);

      std::atomic<bool> stop{false};
      std::atomic<bool> measuring{false};
      std::vector<std::vector<double>> lat_ms(
          static_cast<size_t>(clients));
      std::vector<std::thread> threads;
      for (int c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
          util::Rng rng(1000 + static_cast<uint64_t>(c));
          const uint64_t sid = static_cast<uint64_t>(c);
          uint64_t unique = (static_cast<uint64_t>(c) << 32) + 1;
          while (!stop.load(std::memory_order_relaxed)) {
            const int t = static_cast<int>(rng.UniformInt(0, kChains - 1));
            const int k = static_cast<int>(rng.UniformInt(1, kKeys));
            const std::string ts = std::to_string(t);
            std::vector<std::string> q = {
                "SELECT A_ID, A_B_ID FROM F8_A" + ts +
                    " WHERE A_ID = " + std::to_string(k),
                "SELECT B_V FROM F8_B" + ts +
                    " WHERE B_ID = " + std::to_string(100000 + k)};
            if (rng.UniformDouble(0.0, 1.0) < kUniqueFrac) {
              q.push_back("SELECT V FROM F8_V WHERE K = " +
                          std::to_string(unique++));
            }
            for (const auto& sql : q) {
              const auto t0 = std::chrono::steady_clock::now();
              auto r = cl.Execute(static_cast<core::ClientId>(sid), sql);
              const double ms =
                  std::chrono::duration_cast<std::chrono::duration<double>>(
                      std::chrono::steady_clock::now() - t0)
                      .count() *
                  1e3;
              if (r.ok() && measuring.load(std::memory_order_relaxed)) {
                lat_ms[static_cast<size_t>(c)].push_back(ms);
              }
            }
            // Client think time.
            std::this_thread::sleep_for(std::chrono::microseconds(
                rng.UniformInt(8000, 12000)));
          }
        });
      }
      // Per-edge training volume is what warms an edge; with N edges each
      // sees 1/N of the traffic, so scale the warm phase by N to compare
      // equally-trained configurations (the paper trains to steady state).
      std::this_thread::sleep_for(std::chrono::milliseconds(
          static_cast<int>(kWarmS * 1000 * edges)));
      measuring.store(true);
      std::this_thread::sleep_for(
          std::chrono::milliseconds(static_cast<int>(kMeasureS * 1000)));
      stop.store(true);
      for (auto& th : threads) th.join();
      cl.Shutdown();

      std::vector<double> all;
      for (auto& v : lat_ms) all.insert(all.end(), v.begin(), v.end());
      std::sort(all.begin(), all.end());
      double mean = 0;
      for (double v : all) mean += v;
      mean = all.empty() ? 0 : mean / static_cast<double>(all.size());
      const double p95 =
          all.empty() ? 0
                      : all[std::min(all.size() - 1,
                                     static_cast<size_t>(
                                         0.95 * static_cast<double>(
                                                    all.size())))];
      std::printf(
          "%d edge(s)    clients=%3d  mean=%7.2f ms  p95=%8.2f ms  "
          "(%zu samples)\n",
          edges, clients, mean, p95, all.size());
      std::fflush(stdout);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace apollo;
  bool cluster_mode = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--cluster") == 0) cluster_mode = true;
  }
  if (cluster_mode) {
    RunClusterMode();
    return 0;
  }
  bench::PrintHeader(
      "Figure 8(c): multiple Apollo instances (weak 4-core machines)");
  for (int instances : {1, 2, 3}) {
    for (int clients : {20, 60, 100}) {
      workload::TpcwWorkload tpcw;
      auto cfg = bench::BaseConfig(workload::SystemType::kApollo, clients,
                                   /*seed=*/42);
      cfg.num_instances = instances;
      // Weak m4.xlarge-class instance, modelled as one effective engine
      // worker with ~20 ms of middleware CPU per query (request handling,
      // session bookkeeping, learning): one instance approaches
      // saturation near 100 clients (~40 queries+predictions/s), which is
      // the knee the paper's Figure 8(c) shows; two and three instances
      // split the load and stay flat.
      cfg.apollo.engine_servers = 1;
      cfg.apollo.engine_overhead_per_query = util::Millis(20);
      cfg.apollo.engine_overhead_per_prediction = util::Millis(15);
      auto result = workload::RunExperiment(tpcw, cfg);
      std::printf("%d instance(s) clients=%3d  mean=%7.2f ms  p95=%8.2f ms\n",
                  instances, clients, result.MeanMs(),
                  result.PercentileMs(95));
      std::fflush(stdout);
      bench::PrintRunObservability(result);
    }
  }
  return 0;
}
