// Focused tests of prediction mechanics: the freshness model (3.4.1),
// pipeline depth limits (2.4), row fan-out, and source staleness.
#include <gtest/gtest.h>

#include "core/apollo_middleware.h"

namespace apollo::core {
namespace {

class PredictionTest : public ::testing::Test {
 protected:
  PredictionTest() : cache_(1 << 22) {}

  void SetUp() override {
    using common::Value;
    using common::ValueType;
    {
      db::Schema s("A", {{"A_ID", ValueType::kInt},
                         {"A_B_ID", ValueType::kInt}});
      s.AddIndex("PRIMARY", {"A_ID"});
      ASSERT_TRUE(db_.CreateTable(std::move(s)).ok());
    }
    {
      db::Schema s("B", {{"B_ID", ValueType::kInt},
                         {"B_C_ID", ValueType::kInt}});
      s.AddIndex("PRIMARY", {"B_ID"});
      ASSERT_TRUE(db_.CreateTable(std::move(s)).ok());
    }
    {
      db::Schema s("C", {{"C_ID", ValueType::kInt},
                         {"C_V", ValueType::kInt}});
      s.AddIndex("PRIMARY", {"C_ID"});
      ASSERT_TRUE(db_.CreateTable(std::move(s)).ok());
    }
    {
      db::Schema s("MULTI", {{"M_KEY", ValueType::kInt},
                             {"M_VAL", ValueType::kInt}});
      s.AddIndex("KEY", {"M_KEY"});
      ASSERT_TRUE(db_.CreateTable(std::move(s)).ok());
    }
    for (int i = 1; i <= 40; ++i) {
      ASSERT_TRUE(db_.GetTable("A")
                      ->Insert({common::Value::Int(i),
                                common::Value::Int(100 + i)})
                      .ok());
      ASSERT_TRUE(db_.GetTable("B")
                      ->Insert({common::Value::Int(100 + i),
                                common::Value::Int(200 + i)})
                      .ok());
      ASSERT_TRUE(db_.GetTable("C")
                      ->Insert({common::Value::Int(200 + i),
                                common::Value::Int(7 * i)})
                      .ok());
      // MULTI: each key maps to several rows (fan-out source).
      for (int r = 0; r < 3; ++r) {
        ASSERT_TRUE(db_.GetTable("MULTI")
                        ->Insert({common::Value::Int(i),
                                  common::Value::Int(1000 * i + r)})
                        .ok());
      }
    }
  }

  std::unique_ptr<net::RemoteDatabase> MakeRemote() {
    net::RemoteDbConfig cfg;
    cfg.rtt = sim::LatencyModel::Constant(util::Millis(50));
    return std::make_unique<net::RemoteDatabase>(&loop_, &db_, cfg);
  }

  ApolloConfig FastConfig() {
    ApolloConfig cfg;
    cfg.verification_period = 2;
    return cfg;
  }

  util::SimDuration RunQuery(Middleware& mw, const std::string& sql) {
    util::SimTime t0 = loop_.now();
    util::SimTime t_done = -1;
    mw.SubmitQuery(0, sql, [&](auto) { t_done = loop_.now(); });
    loop_.Run();
    EXPECT_GE(t_done, 0);
    return t_done - t0;
  }

  void Settle() { loop_.RunUntil(loop_.now() + util::Seconds(2)); }

  db::Database db_;
  sim::EventLoop loop_;
  cache::KvCache cache_;
};

// A -> B -> C chain: after learning, an execution of the A-query pipelines
// predictions through B into C.
TEST_F(PredictionTest, PipelineChainsThroughIntermediateResults) {
  auto remote = MakeRemote();
  ApolloMiddleware mw(&loop_, remote.get(), &cache_, FastConfig());
  auto round = [&](int i) {
    std::string s = std::to_string(i);
    RunQuery(mw, "SELECT A_ID, A_B_ID FROM A WHERE A_ID = " + s);
    RunQuery(mw, "SELECT B_ID, B_C_ID FROM B WHERE B_ID = " +
                     std::to_string(100 + i));
    RunQuery(mw, "SELECT C_V FROM C WHERE C_ID = " +
                     std::to_string(200 + i));
    Settle();
  };
  for (int i = 1; i <= 4; ++i) round(i);

  // Fresh round: submit only the A query; the B and C predictions should
  // land in the cache via pipelining without any client request.
  RunQuery(mw, "SELECT A_ID, A_B_ID FROM A WHERE A_ID = 10");
  Settle();
  auto tb = RunQuery(mw, "SELECT B_ID, B_C_ID FROM B WHERE B_ID = 110");
  auto tc = RunQuery(mw, "SELECT C_V FROM C WHERE C_ID = 210");
  EXPECT_LT(tb, util::Millis(5));
  EXPECT_LT(tc, util::Millis(5));
}

TEST_F(PredictionTest, PipeliningDisabledStopsAtFirstHop) {
  auto remote = MakeRemote();
  ApolloConfig cfg = FastConfig();
  cfg.enable_pipelining = false;
  ApolloMiddleware mw(&loop_, remote.get(), &cache_, cfg);
  auto round = [&](int i) {
    std::string s = std::to_string(i);
    RunQuery(mw, "SELECT A_ID, A_B_ID FROM A WHERE A_ID = " + s);
    RunQuery(mw, "SELECT B_ID, B_C_ID FROM B WHERE B_ID = " +
                     std::to_string(100 + i));
    RunQuery(mw, "SELECT C_V FROM C WHERE C_ID = " +
                     std::to_string(200 + i));
    Settle();
  };
  for (int i = 1; i <= 4; ++i) round(i);
  RunQuery(mw, "SELECT A_ID, A_B_ID FROM A WHERE A_ID = 11");
  Settle();
  // First hop (B) predicted from the client query itself, but the chained
  // C prediction (which requires feeding the predicted B result forward)
  // must not have happened yet: C's entry is absent before any client B
  // query for this round.
  EXPECT_FALSE(mw.result_cache()->GetAny(
      "SELECT C_V FROM C WHERE C_ID = 211").has_value());
  auto tb = RunQuery(mw, "SELECT B_ID, B_C_ID FROM B WHERE B_ID = 111");
  EXPECT_LT(tb, util::Millis(5));
}

TEST_F(PredictionTest, FanOutPredictsMultipleRows) {
  auto remote = MakeRemote();
  ApolloConfig cfg = FastConfig();
  cfg.max_fanout_rows = 3;
  ApolloMiddleware mw(&loop_, remote.get(), &cache_, cfg);
  // MULTI(key) returns 3 rows; the dependent query takes M_VAL as input.
  auto round = [&](int i, int row) {
    RunQuery(mw, "SELECT M_KEY, M_VAL FROM MULTI WHERE M_KEY = " +
                     std::to_string(i));
    // The client then queries one of the values (varying row) -> the
    // mapping to the M_VAL column is confirmed.
    RunQuery(mw, "SELECT C_ID FROM C WHERE C_V = " +
                     std::to_string(1000 * i + row) + " + 0");
    Settle();
  };
  // Use a simpler dependent: value-based lookup on MULTI itself.
  auto round2 = [&](int i, int row) {
    RunQuery(mw, "SELECT M_KEY, M_VAL FROM MULTI WHERE M_KEY = " +
                     std::to_string(i));
    RunQuery(mw, "SELECT M_KEY FROM MULTI WHERE M_VAL = " +
                     std::to_string(1000 * i + row));
    Settle();
  };
  (void)round;
  round2(1, 0);
  round2(2, 1);
  round2(3, 0);
  auto before = mw.stats().predictions_issued;
  RunQuery(mw, "SELECT M_KEY, M_VAL FROM MULTI WHERE M_KEY = 9");
  Settle();
  // All three rows of the source fan out into predictions.
  EXPECT_EQ(mw.stats().predictions_issued - before, 3u);
  for (int r = 0; r < 3; ++r) {
    auto t = RunQuery(mw, "SELECT M_KEY FROM MULTI WHERE M_VAL = " +
                              std::to_string(9000 + r));
    EXPECT_LT(t, util::Millis(5)) << "row " << r;
  }
}

TEST_F(PredictionTest, FreshnessModelVetoesLikelyInvalidatedPredictions) {
  auto remote = MakeRemote();
  ApolloConfig cfg = FastConfig();
  cfg.delta_ts = {util::Seconds(5), util::Seconds(15)};
  ApolloMiddleware mw(&loop_, remote.get(), &cache_, cfg);
  // Pattern: read A -> read B -> write B, repeatedly and quickly. The
  // transition graph learns that a B-write reliably follows an A-read, so
  // predicting the B-read is wasted work and gets vetoed.
  auto round = [&](int i) {
    std::string s = std::to_string(i);
    RunQuery(mw, "SELECT A_ID, A_B_ID FROM A WHERE A_ID = " + s);
    RunQuery(mw, "SELECT B_ID, B_C_ID FROM B WHERE B_ID = " +
                     std::to_string(100 + i));
    RunQuery(mw, "UPDATE B SET B_C_ID = B_C_ID + 1 WHERE B_ID = " +
                     std::to_string(100 + i));
    Settle();
  };
  for (int i = 1; i <= 10; ++i) round(i);
  EXPECT_GT(mw.stats().predictions_skipped_fresh, 0u);

  // The same pattern with the freshness check off predicts every time.
  sim::EventLoop loop2;
  // (fresh stack to avoid cross-contamination)
  cache::KvCache cache2(1 << 22);
  net::RemoteDbConfig rcfg;
  rcfg.rtt = sim::LatencyModel::Constant(util::Millis(50));
  net::RemoteDatabase remote2(&loop2, &db_, rcfg);
  ApolloConfig cfg2 = cfg;
  cfg2.enable_freshness_check = false;
  ApolloMiddleware mw2(&loop2, &remote2, &cache2, cfg2);
  auto run2 = [&](const std::string& sql) {
    mw2.SubmitQuery(0, sql, [](auto) {});
    loop2.Run();
  };
  for (int i = 1; i <= 10; ++i) {
    std::string s = std::to_string(i);
    run2("SELECT A_ID, A_B_ID FROM A WHERE A_ID = " + s);
    run2("SELECT B_ID, B_C_ID FROM B WHERE B_ID = " +
         std::to_string(100 + i));
    run2("UPDATE B SET B_C_ID = B_C_ID + 1 WHERE B_ID = " +
         std::to_string(100 + i));
    loop2.RunUntil(loop2.now() + util::Seconds(2));
  }
  EXPECT_EQ(mw2.stats().predictions_skipped_fresh, 0u);
  EXPECT_GT(mw2.stats().predictions_issued, mw.stats().predictions_issued);
}

TEST_F(PredictionTest, PipelineDepthLimitStopsChains) {
  auto remote = MakeRemote();
  ApolloConfig cfg = FastConfig();
  cfg.max_pipeline_depth = 0;  // the triggering hop only
  ApolloMiddleware mw(&loop_, remote.get(), &cache_, cfg);
  auto round = [&](int i) {
    std::string s = std::to_string(i);
    RunQuery(mw, "SELECT A_ID, A_B_ID FROM A WHERE A_ID = " + s);
    RunQuery(mw, "SELECT B_ID, B_C_ID FROM B WHERE B_ID = " +
                     std::to_string(100 + i));
    RunQuery(mw, "SELECT C_V FROM C WHERE C_ID = " +
                     std::to_string(200 + i));
    Settle();
  };
  for (int i = 1; i <= 4; ++i) round(i);
  RunQuery(mw, "SELECT A_ID, A_B_ID FROM A WHERE A_ID = 12");
  Settle();
  // Depth 0 allows the B prediction (triggered directly by a client
  // query) but not the chained C prediction (depth 1).
  EXPECT_TRUE(mw.result_cache()->GetAny(
      "SELECT B_ID, B_C_ID FROM B WHERE B_ID = 112").has_value());
  EXPECT_FALSE(mw.result_cache()->GetAny(
      "SELECT C_V FROM C WHERE C_ID = 212").has_value());
}

// Regression: when a mapping disproof removes an FDQ, any half-filled
// satisfied-dependency set for it must be dropped from every session.
// Before the fix the stale set survived, leaking state keyed by a dead
// FDQ id (and priming a bogus instant trigger on rediscovery).
TEST_F(PredictionTest, DisproofClearsSatisfiedDependencySets) {
  auto remote = MakeRemote();
  ApolloMiddleware mw(&loop_, remote.get(), &cache_, FastConfig());
  // Learn a two-dependency FDQ: the combined C query's first parameter
  // (200+i) comes from B.B_C_ID and its second (7*i) from the plain C
  // query's C_V column.
  auto round = [&](int i) {
    RunQuery(mw, "SELECT B_ID, B_C_ID FROM B WHERE B_ID = " +
                     std::to_string(100 + i));
    RunQuery(mw, "SELECT C_V FROM C WHERE C_ID = " +
                     std::to_string(200 + i));
    RunQuery(mw, "SELECT C_ID FROM C WHERE C_ID = " +
                     std::to_string(200 + i) +
                     " AND C_V = " + std::to_string(7 * i));
    Settle();
  };
  for (int i = 1; i <= 4; ++i) round(i);

  // A lone B execution satisfies one of the two dependencies: the set
  // persists, waiting for the plain C query.
  RunQuery(mw, "SELECT B_ID, B_C_ID FROM B WHERE B_ID = 110");
  Settle();
  const ClientSession* session = mw.FindSession(0);
  ASSERT_NE(session, nullptr);
  // The combined-C FDQ is the only one whose set can persist half-filled
  // (single-dependency FDQs fire and reset immediately): find its id.
  uint64_t fdq_id = 0;
  for (const auto& [id, sat] : session->satisfied) {
    if (!sat.empty()) {
      fdq_id = id;
      break;
    }
  }
  ASSERT_NE(fdq_id, 0u);

  // Now disprove the B -> combined-C mapping: fresh B results followed by
  // combined-C executions whose first parameter never matches.
  for (int j = 11; j <= 25 && mw.stats().fdqs_invalidated == 0; ++j) {
    RunQuery(mw, "SELECT B_ID, B_C_ID FROM B WHERE B_ID = " +
                     std::to_string(100 + j));
    RunQuery(mw, "SELECT C_ID FROM C WHERE C_ID = 999 AND C_V = 999");
    Settle();
  }
  ASSERT_GT(mw.stats().fdqs_invalidated, 0u);
  // The removed FDQ's satisfied set is gone — not merely emptied, and not
  // re-created by the B execution earlier in the disproof round.
  EXPECT_EQ(session->satisfied.count(fdq_id), 0u);
}

}  // namespace
}  // namespace apollo::core
