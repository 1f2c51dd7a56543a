// Cross-host differential test: one correlated trace through both hosts
// of core::PredictionEngine — the simulator's core::ApolloMiddleware on a
// sim::EventLoop, run to idle after each query, and the real-thread
// rt::ConcurrentApollo, drained after each query.
//
// With a single 60 s transition window and a trace far shorter than that
// (in simulated and in wall time) no window ever closes, so every decision
// depends on query order only, not on either host's clock. The hosts must
// then agree exactly: per-query results, the prediction items the engine
// emitted for each client query, the final cache keyset, and the
// discovery / invalidation / reload / issue counters. Run under TSan via
// `tools/check.sh --thread`.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cache/kv_cache.h"
#include "core/apollo_middleware.h"
#include "db/database.h"
#include "net/remote_database.h"
#include "rt/concurrent_apollo.h"
#include "sim/event_loop.h"

namespace apollo {
namespace {

using namespace std::chrono_literals;
using Trace = std::vector<std::pair<core::ClientId, std::string>>;

/// The A -> B -> C correlated schema: A's second column is a B key, B's
/// second column a C key.
void SeedDb(db::Database* db) {
  using common::Value;
  using common::ValueType;
  const std::pair<const char*, std::vector<db::ColumnDef>> tables[] = {
      {"A", {{"A_ID", ValueType::kInt}, {"A_B_ID", ValueType::kInt}}},
      {"B", {{"B_ID", ValueType::kInt}, {"B_C_ID", ValueType::kInt}}},
      {"C", {{"C_ID", ValueType::kInt}, {"C_V", ValueType::kInt}}}};
  for (const auto& [name, cols] : tables) {
    db::Schema s(name, cols);
    s.AddIndex("PRIMARY", {cols[0].name});
    ASSERT_TRUE(db->CreateTable(std::move(s)).ok());
  }
  for (int i = 1; i <= 200; ++i) {
    ASSERT_TRUE(
        db->GetTable("A")->Insert({Value::Int(i), Value::Int(1000 + i)}).ok());
    ASSERT_TRUE(db->GetTable("B")
                    ->Insert({Value::Int(1000 + i), Value::Int(2000 + i)})
                    .ok());
    ASSERT_TRUE(
        db->GetTable("C")->Insert({Value::Int(2000 + i), Value::Int(7 * i)})
            .ok());
  }
}

/// Four sessions walk their own A -> B -> C chains for six rounds, each
/// walk after a parameterless aggregate over C (an ADQ), with a write to C
/// after every round (invalidating C reads and reloading the ADQ), then
/// probe chains they have not seen.
Trace CorrelatedTrace() {
  Trace trace;
  auto walk = [&trace](core::ClientId client, int i) {
    trace.emplace_back(client, "SELECT COUNT(*) AS N FROM C");
    trace.emplace_back(client, "SELECT A_ID, A_B_ID FROM A WHERE A_ID = " +
                                   std::to_string(i));
    trace.emplace_back(client, "SELECT B_ID, B_C_ID FROM B WHERE B_ID = " +
                                   std::to_string(1000 + i));
    trace.emplace_back(client, "SELECT C_V FROM C WHERE C_ID = " +
                                   std::to_string(2000 + i));
  };
  for (int round = 1; round <= 6; ++round) {
    for (int client = 0; client < 4; ++client) walk(client, 40 * client + round);
    trace.emplace_back(0, "UPDATE C SET C_V = " + std::to_string(100 + round) +
                              " WHERE C_ID = " + std::to_string(2000 + round));
  }
  for (int client = 0; client < 4; ++client) walk(client, 40 * client + 7);
  return trace;
}

core::ApolloConfig EngineConfig() {
  core::ApolloConfig cfg;
  cfg.verification_period = 2;
  cfg.delta_ts = {util::Seconds(60)};
  return cfg;
}

std::string Describe(const util::Result<common::ResultSetPtr>& rs) {
  if (!rs.ok()) return "ERR";
  if (*rs == nullptr || (*rs)->num_rows() == 0) return "EMPTY";
  return std::to_string((*rs)->At(0, 0).AsInt());
}

/// Everything decision-visible about one host's replay.
struct HostRun {
  std::vector<std::string> results;
  /// Per client query: the items the engine emitted until the next client
  /// query, sorted (pipelined completions may land in any order).
  std::vector<std::vector<std::string>> items;
  std::vector<std::string> cache_keys;
  std::map<std::string, uint64_t> counters;
};

/// Collects the engine's decisions; called from whichever thread decides.
class DecisionLog {
 public:
  explicit DecisionLog(core::PredictionEngine& engine) {
    engine.SetDecisionObserver(
        [this](core::ClientId client, const core::PredictionItem& item) {
          std::lock_guard<std::mutex> lock(mu_);
          pending_.push_back(std::to_string(client) + "|" +
                             std::to_string(item.depth) + "|" +
                             std::to_string(item.template_id) + "|" +
                             std::to_string(item.probability) + "|" +
                             item.sql);
        });
  }
  std::vector<std::string> Take() {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::string> out = std::move(pending_);
    pending_.clear();
    std::sort(out.begin(), out.end());
    return out;
  }

 private:
  std::mutex mu_;
  std::vector<std::string> pending_;
};

HostRun RunSimHost(const Trace& trace) {
  db::Database db;
  SeedDb(&db);
  sim::EventLoop loop;
  net::RemoteDbConfig rcfg;
  rcfg.rtt = sim::LatencyModel::Constant(util::Micros(300));
  net::RemoteDatabase remote(&loop, &db, rcfg);
  cache::KvCache cache(32u << 20);  // no evictions: keysets stay exact
  core::ApolloMiddleware mw(&loop, &remote, &cache, EngineConfig());
  DecisionLog log(*mw.prediction_engine());

  HostRun run;
  for (const auto& [client, sql] : trace) {
    std::string result = "PENDING";
    mw.SubmitQuery(client, sql,
                   [&result](util::Result<common::ResultSetPtr> rs) {
                     result = Describe(rs);
                   });
    loop.Run();
    run.results.push_back(result);
    run.items.push_back(log.Take());
  }
  // The whole replay stays inside the window and the result TTL.
  EXPECT_LT(loop.now(), util::Seconds(30));
  run.cache_keys = cache.KeysForTest();
  const core::MiddlewareStats& s = mw.stats();
  run.counters = {{"fdqs_discovered", s.fdqs_discovered},
                  {"fdqs_invalidated", s.fdqs_invalidated},
                  {"adq_reloads", s.adq_reloads},
                  {"predictions_issued", s.predictions_issued}};
  return run;
}

/// Blocks until every async completion (and the learning it triggers) has
/// landed.
void Drain(rt::ConcurrentApollo& apollo) {
  for (int i = 0; i < 200000; ++i) {
    if (apollo.Quiescent()) return;
    std::this_thread::sleep_for(50us);
  }
  FAIL() << "runtime did not quiesce";
}

HostRun RunRtHost(const Trace& trace) {
  db::Database db;
  SeedDb(&db);
  rt::ConcurrentApolloConfig cfg;
  cfg.apollo = EngineConfig();
  cfg.pool.num_threads = 2;
  cfg.pool.queue_capacity = 256;
  cfg.gateway.rtt = 300us;
  cfg.cache_bytes = 32u << 20;
  rt::ConcurrentApollo apollo(&db, cfg);
  DecisionLog log(apollo.prediction_engine());

  HostRun run;
  const auto t0 = std::chrono::steady_clock::now();
  for (const auto& [client, sql] : trace) {
    run.results.push_back(Describe(apollo.Execute(client, sql)));
    Drain(apollo);
    run.items.push_back(log.Take());
  }
  EXPECT_LT(std::chrono::steady_clock::now() - t0, 30s);
  run.cache_keys = apollo.result_cache().KeysForTest();
  auto& m = apollo.observability().metrics;
  for (const char* name : {"fdqs_discovered", "fdqs_invalidated",
                           "adq_reloads", "predictions_issued"}) {
    run.counters[name] = m.FindCounter(std::string("rt.") + name)->Value();
  }
  apollo.Shutdown();
  return run;
}

TEST(CrossHostTest, SimAndRtHostsMakeIdenticalDecisions) {
  const Trace trace = CorrelatedTrace();
  const HostRun sim = RunSimHost(trace);
  const HostRun rt = RunRtHost(trace);

  // The learning must actually have produced predictions, invalidations
  // and reloads, or agreement is vacuous.
  ASSERT_GT(sim.counters.at("predictions_issued"), 0u);
  ASSERT_GT(sim.counters.at("fdqs_discovered"), 0u);
  ASSERT_GT(sim.counters.at("adq_reloads"), 0u);

  EXPECT_EQ(sim.results, rt.results);
  ASSERT_EQ(sim.items.size(), rt.items.size());
  for (size_t i = 0; i < sim.items.size(); ++i) {
    EXPECT_EQ(sim.items[i], rt.items[i])
        << "query " << i << ": " << trace[i].second;
  }
  EXPECT_EQ(sim.cache_keys, rt.cache_keys);
  EXPECT_EQ(sim.counters, rt.counters);
}

}  // namespace
}  // namespace apollo
