// Cross-host differential test: one correlated trace through both hosts
// of core::PredictionEngine — the simulator's core::ApolloMiddleware on a
// sim::EventLoop, run to idle after each query, and the real-thread
// rt::ConcurrentApollo, drained after each query.
//
// With a single 60 s transition window and a trace far shorter than that
// (in simulated and in wall time) no window ever closes, so every decision
// depends on query order only, not on either host's clock. The hosts must
// then agree exactly: per-query results, the prediction items the engine
// emitted for each client query, the final cache entries and their stamps,
// each session's version vector, and the discovery / invalidation /
// reload / issue counters.
//
// CrossHostConsistencyTest drives both hosts through one randomized,
// overlapping mix of reads and writes and checks the session guarantees
// of core::ReadProtocol on each: a session's vector never falls, and it
// never reads a value older than one it has seen or written. Run under
// TSan via `tools/check.sh --thread`.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <functional>
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
#include "util/rng.h"

namespace apollo {
namespace {

using namespace std::chrono_literals;
using Trace = std::vector<std::pair<core::ClientId, std::string>>;

constexpr core::ClientId kTraceClients = 4;

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
    for (core::ClientId client = 0; client < kTraceClients; ++client) {
      walk(client, 40 * client + round);
    }
    trace.emplace_back(0, "UPDATE C SET C_V = " + std::to_string(100 + round) +
                              " WHERE C_ID = " + std::to_string(2000 + round));
  }
  for (core::ClientId client = 0; client < kTraceClients; ++client) {
    walk(client, 40 * client + 7);
  }
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
  /// Resident entries as "key @ stamp" (KvCache::StampsForTest).
  std::vector<std::string> cache_stamps;
  /// Each client's version vector at the end of the trace.
  std::map<core::ClientId, std::string> session_vvs;
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
  run.cache_stamps = cache.StampsForTest();
  for (core::ClientId c = 0; c < kTraceClients; ++c) {
    const core::ClientSession* session = mw.FindSession(c);
    EXPECT_NE(session, nullptr);
    if (session != nullptr) run.session_vvs[c] = session->vv.ToString();
  }
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
  DecisionLog log(*apollo.prediction_engine());

  HostRun run;
  const auto t0 = std::chrono::steady_clock::now();
  for (const auto& [client, sql] : trace) {
    run.results.push_back(Describe(apollo.Execute(client, sql)));
    Drain(apollo);
    run.items.push_back(log.Take());
  }
  EXPECT_LT(std::chrono::steady_clock::now() - t0, 30s);
  run.cache_stamps = apollo.result_cache().StampsForTest();
  for (core::ClientId c = 0; c < kTraceClients; ++c) {
    cache::VersionVector vv;
    EXPECT_TRUE(apollo.ExportSessionVv(c, &vv));
    run.session_vvs[c] = vv.ToString();
  }
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
  EXPECT_EQ(sim.cache_stamps, rt.cache_stamps);
  EXPECT_EQ(sim.session_vvs, rt.session_vvs);
  EXPECT_EQ(sim.counters, rt.counters);
}

// ---------------------------------------------------------------------------
// Randomized consistency: overlapping sessions, reads and writes over A/B/C
// ---------------------------------------------------------------------------

constexpr core::ClientId kSessions = 6;
constexpr int kOpsPerSession = 300;

/// Session c is the only writer of C row 2001 + c and reads every such
/// row, so the rows' values grow in commit order and a session knows the
/// exact value of its own latest write.
int OwnRow(core::ClientId c) { return 2001 + static_cast<int>(c); }

struct Op {
  enum Kind { kReadC, kWriteC, kReadOther } kind;
  int c_id = 0;
  int64_t value = 0;  // kWriteC: the value written
  std::string sql;
};

/// One session's random query stream. A write is usually followed by a
/// read of the written row: read-your-writes is checked right where a
/// subscriber may still hold another session's pre-write result.
class SessionScript {
 public:
  SessionScript(core::ClientId client, uint64_t seed)
      : client_(client), rng_(seed) {}

  Op Next() {
    const double r = rng_.NextDouble();
    if (last_was_write_ || r < 0.15) return Read(OwnRow(client_));
    if (r < 0.4) {
      last_was_write_ = true;
      const int64_t value = 10000 + ++writes_;
      return {Op::kWriteC, OwnRow(client_), value,
              "UPDATE C SET C_V = " + std::to_string(value) +
                  " WHERE C_ID = " + std::to_string(OwnRow(client_))};
    }
    const int row =
        OwnRow(static_cast<core::ClientId>(rng_.UniformInt(0, kSessions - 1)));
    if (r < 0.9) return Read(row);
    return {Op::kReadOther, 0, 0,
            r < 0.95 ? "SELECT A_ID, A_B_ID FROM A WHERE A_ID = " +
                           std::to_string(row - 2000)
                     : "SELECT B_ID, B_C_ID FROM B WHERE B_ID = " +
                           std::to_string(row - 1000)};
  }
  /// Think time before the next query (simulator host).
  util::SimDuration Think() { return rng_.UniformInt(0, util::Millis(1)); }

 private:
  Op Read(int row) {
    last_was_write_ = false;
    return {Op::kReadC, row, 0,
            "SELECT C_V FROM C WHERE C_ID = " + std::to_string(row)};
  }

  core::ClientId client_;
  util::Rng rng_;
  bool last_was_write_ = false;
  int64_t writes_ = 0;
};

/// Checks one session's guarantees as its queries complete, in order.
class SessionOracle {
 public:
  /// `vv` is the session's vector right after the query completed.
  void Observe(const Op& op, const util::Result<common::ResultSetPtr>& rs,
               const cache::VersionVector& vv) {
    for (const auto& [table, version] : vv_.entries()) {
      if (vv.Get(table) < version) Violation(op, "vector fell on " + table);
    }
    vv_ = vv;
    if (!rs.ok()) return;
    int64_t& floor = floor_[op.c_id];
    if (op.kind == Op::kWriteC) {
      floor = op.value;
    } else if (op.kind == Op::kReadC) {
      ++reads_;
      const int64_t value = (*rs)->At(0, 0).AsInt();
      if (value < floor) {
        Violation(op, "read " + std::to_string(value) + ", already saw " +
                          std::to_string(floor));
      }
      floor = std::max(floor, value);
    }
  }

  const std::vector<std::string>& violations() const { return violations_; }
  int reads() const { return reads_; }

 private:
  void Violation(const Op& op, const std::string& what) {
    violations_.push_back(op.sql + ": " + what);
  }

  cache::VersionVector vv_;
  /// Per C row: the lowest C_V a read may still return.
  std::map<int, int64_t> floor_;
  std::vector<std::string> violations_;
  int reads_ = 0;
};

TEST(CrossHostConsistencyTest, SimHostKeepsReadYourWritesAndMonotonicReads) {
  db::Database db;
  SeedDb(&db);
  sim::EventLoop loop;
  net::RemoteDbConfig rcfg;
  // A wide RTT spread lets a leader's read land after another session's
  // later write and re-read: the trailing-stamp branch of the protocol.
  rcfg.rtt = sim::LatencyModel::Uniform(util::Micros(200), util::Millis(40));
  net::RemoteDatabase remote(&loop, &db, rcfg);
  cache::KvCache cache(32u << 20);
  core::ApolloMiddleware mw(&loop, &remote, &cache, EngineConfig());

  std::vector<SessionScript> scripts;
  std::vector<SessionOracle> oracles(kSessions);
  std::vector<int> issued(kSessions, 0);
  for (core::ClientId c = 0; c < kSessions; ++c) {
    scripts.emplace_back(c, 17 + c);
  }
  std::function<void(core::ClientId)> next = [&](core::ClientId c) {
    if (issued[c]++ == kOpsPerSession) return;
    const Op op = scripts[c].Next();
    loop.After(scripts[c].Think(), [&, c, op] {
      mw.SubmitQuery(c, op.sql,
                     [&, c, op](util::Result<common::ResultSetPtr> rs) {
                       oracles[c].Observe(op, rs, mw.FindSession(c)->vv);
                       next(c);
                     });
    });
  };
  for (core::ClientId c = 0; c < kSessions; ++c) next(c);
  loop.Run();

  for (core::ClientId c = 0; c < kSessions; ++c) {
    EXPECT_EQ(oracles[c].violations(), std::vector<std::string>{})
        << "session " << c;
    EXPECT_GT(oracles[c].reads(), kOpsPerSession / 3) << "session " << c;
  }
  // Reads overlapped: subscribers accepted published results and re-read
  // on trailing stamps.
  const core::MiddlewareStats& s = mw.stats();
  EXPECT_GT(s.coalesced_waits, 0u);
  EXPECT_GT(s.subscriber_fallbacks, 0u);
  EXPECT_GT(s.coalesced_waits, s.subscriber_fallbacks);
}

TEST(CrossHostConsistencyTest, RtHostKeepsReadYourWritesAndMonotonicReads) {
  db::Database db;
  SeedDb(&db);
  rt::ConcurrentApolloConfig cfg;
  cfg.apollo = EngineConfig();
  cfg.pool.num_threads = 2;
  cfg.gateway.rtt = 2ms;
  // Every 5th statement fails retryably: failed leaders make their
  // subscribers re-read privately.
  cfg.gateway.fail_every_n = 5;
  rt::ConcurrentApollo apollo(&db, cfg);

  std::vector<SessionOracle> oracles(kSessions);
  std::vector<std::thread> threads;
  for (core::ClientId c = 0; c < kSessions; ++c) {
    threads.emplace_back([&apollo, &oracles, c] {
      SessionScript script(c, 17 + c);
      for (int i = 0; i < kOpsPerSession; ++i) {
        const Op op = script.Next();
        const auto rs = apollo.Execute(c, op.sql);
        cache::VersionVector vv;
        apollo.ExportSessionVv(c, &vv);
        oracles[c].Observe(op, rs, vv);
      }
    });
  }
  for (auto& t : threads) t.join();
  apollo.Shutdown();

  for (core::ClientId c = 0; c < kSessions; ++c) {
    EXPECT_EQ(oracles[c].violations(), std::vector<std::string>{})
        << "session " << c;
    EXPECT_GT(oracles[c].reads(), 0) << "session " << c;
  }
  auto& m = apollo.observability().metrics;
  EXPECT_GT(m.FindCounter("rt.coalesced_waits")->Value(), 0u);
  EXPECT_GT(m.FindCounter("rt.subscriber_fallbacks")->Value(), 0u);
}

}  // namespace
}  // namespace apollo
