// End-to-end tests of the middleware stack on the simulated testbed:
// session consistency (3.2), publish-subscribe (3.3), predictive execution
// and pipelining (2.3-2.4), freshness vetoes (3.4.1), ADQ reload (3.4.2),
// and the Fido baseline.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "core/apollo_middleware.h"
#include "fido/fido_middleware.h"
#include "persist/snapshot.h"

namespace apollo::core {
namespace {

constexpr util::SimDuration kRtt = util::Millis(70);

class MiddlewareTest : public ::testing::Test {
 protected:
  MiddlewareTest() : cache_(1 << 22) {}

  void SetUp() override {
    using common::Value;
    using common::ValueType;
    {
      db::Schema s("CUSTOMER", {{"C_ID", ValueType::kInt},
                                {"C_UNAME", ValueType::kString}});
      s.AddIndex("PRIMARY", {"C_ID"});
      s.AddIndex("UNAME", {"C_UNAME"});
      ASSERT_TRUE(db_.CreateTable(std::move(s)).ok());
    }
    {
      db::Schema s("ORDERS", {{"O_ID", ValueType::kInt},
                              {"O_C_ID", ValueType::kInt},
                              {"O_TOTAL", ValueType::kDouble}});
      s.AddIndex("PRIMARY", {"O_ID"});
      s.AddIndex("CUST", {"O_C_ID"});
      ASSERT_TRUE(db_.CreateTable(std::move(s)).ok());
    }
    db::Table* c = db_.GetTable("CUSTOMER");
    db::Table* o = db_.GetTable("ORDERS");
    for (int i = 1; i <= 50; ++i) {
      ASSERT_TRUE(c->Insert({Value::Int(i),
                             Value::Str("user" + std::to_string(i))})
                      .ok());
      ASSERT_TRUE(o->Insert({Value::Int(1000 + i), Value::Int(i),
                             Value::Double(9.5)})
                      .ok());
    }
  }

  std::unique_ptr<net::RemoteDatabase> MakeRemote() {
    net::RemoteDbConfig cfg;
    cfg.rtt = sim::LatencyModel::Constant(kRtt);
    return std::make_unique<net::RemoteDatabase>(&loop_, &db_, cfg);
  }

  /// The Memcached configuration: the same host with prediction off.
  ApolloConfig MemcachedConfig() {
    ApolloConfig cfg;
    cfg.enable_prediction = false;
    return cfg;
  }

  ApolloConfig FastLearningConfig() {
    ApolloConfig cfg;
    cfg.verification_period = 2;
    return cfg;
  }

  /// Submits a query and runs the loop to completion; returns the
  /// response time.
  util::SimDuration RunQuery(Middleware& mw, ClientId client,
                             const std::string& sql,
                             common::ResultSetPtr* out = nullptr) {
    util::SimTime t0 = loop_.now();
    util::SimTime t_done = -1;
    mw.SubmitQuery(client, sql,
                   [&](util::Result<common::ResultSetPtr> rs) {
                     t_done = loop_.now();
                     if (out != nullptr) {
                       *out = rs.ok() ? *rs : nullptr;
                     }
                   });
    loop_.Run();
    EXPECT_GE(t_done, 0) << "query never completed: " << sql;
    return t_done - t0;
  }

  db::Database db_;
  sim::EventLoop loop_;
  cache::KvCache cache_;
};

TEST_F(MiddlewareTest, ReadThroughCachesResult) {
  auto remote = MakeRemote();
  ApolloMiddleware mw(&loop_, remote.get(), &cache_, MemcachedConfig());
  common::ResultSetPtr rs;
  auto first = RunQuery(mw, 0, "SELECT C_UNAME FROM CUSTOMER WHERE C_ID = 7",
                        &rs);
  ASSERT_TRUE(rs != nullptr);
  EXPECT_EQ(rs->At(0, 0).AsString(), "user7");
  EXPECT_GE(first, kRtt);

  auto second = RunQuery(mw, 0,
                         "SELECT C_UNAME FROM CUSTOMER WHERE C_ID = 7", &rs);
  EXPECT_LT(second, util::Millis(5));  // served from the edge cache
  EXPECT_EQ(rs->At(0, 0).AsString(), "user7");
  EXPECT_EQ(mw.stats().cache_hits, 1u);
}

TEST_F(MiddlewareTest, WhitespaceVariantsShareCacheEntries) {
  auto remote = MakeRemote();
  ApolloMiddleware mw(&loop_, remote.get(), &cache_, MemcachedConfig());
  RunQuery(mw, 0, "SELECT C_UNAME FROM CUSTOMER WHERE C_ID = 7");
  auto t = RunQuery(mw, 0,
                    "select   c_uname from customer where c_id=7");
  EXPECT_LT(t, util::Millis(5));  // canonicalization shares the entry
}

TEST_F(MiddlewareTest, OwnWriteInvalidatesOwnSessionOnly) {
  auto remote = MakeRemote();
  ApolloMiddleware mw(&loop_, remote.get(), &cache_, MemcachedConfig());
  const std::string q = "SELECT C_UNAME FROM CUSTOMER WHERE C_ID = 7";
  RunQuery(mw, /*client=*/0, q);
  RunQuery(mw, /*client=*/1, q);  // hit: shared cache
  EXPECT_EQ(mw.stats().cache_hits, 1u);

  // Client 0 writes CUSTOMER: its session floor rises past the entry.
  RunQuery(mw, 0,
           "UPDATE CUSTOMER SET C_UNAME = 'renamed7' WHERE C_ID = 7");
  common::ResultSetPtr rs;
  auto t0 = RunQuery(mw, 0, q, &rs);
  EXPECT_GE(t0, kRtt);  // forced back to the database
  EXPECT_EQ(rs->At(0, 0).AsString(), "renamed7");

  // Client 1 never observed the write; the old entry stays usable for it
  // (session consistency, paper 3.2) — but the refreshed entry also
  // qualifies; either way it's a local hit.
  auto t1 = RunQuery(mw, 1, q, &rs);
  EXPECT_LT(t1, util::Millis(5));
}

TEST_F(MiddlewareTest, PubSubCoalescesConcurrentReads) {
  auto remote = MakeRemote();
  ApolloMiddleware mw(&loop_, remote.get(), &cache_, MemcachedConfig());
  const std::string q = "SELECT C_UNAME FROM CUSTOMER WHERE C_ID = 3";
  int completions = 0;
  for (int client = 0; client < 5; ++client) {
    mw.SubmitQuery(client, q, [&](util::Result<common::ResultSetPtr> rs) {
      EXPECT_TRUE(rs.ok());
      ++completions;
    });
  }
  loop_.Run();
  EXPECT_EQ(completions, 5);
  EXPECT_EQ(remote->stats().queries, 1u);  // single remote execution
  EXPECT_EQ(mw.stats().coalesced_waits, 4u);
}

TEST_F(MiddlewareTest, PubSubDisabledExecutesIndependently) {
  auto remote = MakeRemote();
  ApolloConfig cfg = MemcachedConfig();
  cfg.enable_pubsub_dedup = false;
  ApolloMiddleware mw(&loop_, remote.get(), &cache_, cfg);
  const std::string q = "SELECT C_UNAME FROM CUSTOMER WHERE C_ID = 3";
  for (int client = 0; client < 3; ++client) {
    mw.SubmitQuery(client, q, [](auto) {});
  }
  loop_.Run();
  EXPECT_EQ(remote->stats().queries, 3u);
}

// Read-your-writes across single-flight: session 1 writes ORDERS while
// session 0's scan of ORDERS, which reached the remote before the write,
// is still in its long service time. Session 1's next read of the same
// text subscribes to that older scan; its pre-write result must not be
// served to the writer.
TEST_F(MiddlewareTest, SubscriberRejectsResultOlderThanOwnWrite) {
  net::RemoteDbConfig rcfg;
  rcfg.rtt = sim::LatencyModel::Constant(kRtt);
  // The 50-row scan takes 200 ms at the remote, the point write 4 ms.
  rcfg.exec_per_row = util::Millis(4);
  rcfg.exec_cap = util::Seconds(1);
  net::RemoteDatabase remote(&loop_, &db_, rcfg);
  ApolloMiddleware mw(&loop_, &remote, &cache_, MemcachedConfig());
  const std::string scan = "SELECT O_ID FROM ORDERS WHERE O_TOTAL > 10";

  mw.SubmitQuery(/*client=*/0, scan, [](auto rs) { EXPECT_TRUE(rs.ok()); });
  // The leader's scan reaches the remote at ~35 ms; the write leaves after.
  loop_.RunUntil(loop_.now() + util::Millis(40));
  common::ResultSetPtr seen;
  mw.SubmitQuery(
      /*client=*/1, "UPDATE ORDERS SET O_TOTAL = 20 WHERE O_ID = 1007",
      [&](util::Result<common::ResultSetPtr> w) {
        ASSERT_TRUE(w.ok());
        mw.SubmitQuery(/*client=*/1, scan,
                       [&](util::Result<common::ResultSetPtr> rs) {
                         ASSERT_TRUE(rs.ok());
                         seen = *rs;
                       });
      });
  loop_.Run();

  ASSERT_NE(seen, nullptr);
  EXPECT_EQ(mw.stats().coalesced_waits, 1u);
  EXPECT_EQ(mw.stats().subscriber_fallbacks, 1u);
  ASSERT_EQ(seen->num_rows(), 1u) << "the writer read its pre-write row";
  EXPECT_EQ(seen->At(0, 0).AsInt(), 1007);
}

TEST_F(MiddlewareTest, ParseErrorsPropagate) {
  auto remote = MakeRemote();
  ApolloMiddleware mw(&loop_, remote.get(), &cache_, MemcachedConfig());
  bool got_error = false;
  mw.SubmitQuery(0, "SELEC nonsense", [&](auto rs) {
    got_error = !rs.ok();
  });
  loop_.Run();
  EXPECT_TRUE(got_error);
  EXPECT_EQ(mw.stats().parse_errors, 1u);
}

// The quickstart pattern: login -> two sibling dependents. After the
// verification period Apollo prefetches both siblings in parallel, so the
// second one is a sub-millisecond cache hit.
class ApolloPipelineTest : public MiddlewareTest {
 protected:
  void RunRound(ApolloMiddleware& mw, int c, util::SimDuration* latest_rt,
                util::SimDuration* count_rt) {
    std::string suffix = std::to_string(c);
    RunQuery(mw, 0,
             "SELECT C_ID FROM CUSTOMER WHERE C_UNAME = 'user" + suffix +
                 "'");
    auto t1 = RunQuery(
        mw, 0, "SELECT MAX(O_ID) AS O_ID FROM ORDERS WHERE O_C_ID = " +
                   suffix);
    auto t2 = RunQuery(
        mw, 0, "SELECT COUNT(*) AS N FROM ORDERS WHERE O_C_ID = " + suffix);
    if (latest_rt != nullptr) *latest_rt = t1;
    if (count_rt != nullptr) *count_rt = t2;
    // Space rounds out so queued prediction work drains.
    loop_.RunUntil(loop_.now() + util::Seconds(2));
  }
};

TEST_F(ApolloPipelineTest, SiblingPredictionBecomesCacheHit) {
  auto remote = MakeRemote();
  ApolloMiddleware mw(&loop_, remote.get(), &cache_, FastLearningConfig());
  util::SimDuration latest = 0;
  util::SimDuration count = 0;
  for (int c = 1; c <= 5; ++c) RunRound(mw, c, &latest, &count);
  // Round 5 uses a never-before-seen parameter; only template-level
  // learning can prefetch it.
  EXPECT_LT(count, util::Millis(5));
  EXPECT_GT(mw.stats().predictions_issued, 0u);
  EXPECT_GE(mw.stats().fdqs_discovered, 2u);
  EXPECT_EQ(mw.stats().fdqs_invalidated, 0u);
}

TEST_F(ApolloPipelineTest, PredictionDisabledBehavesLikeMemcached) {
  auto remote = MakeRemote();
  ApolloConfig cfg = FastLearningConfig();
  cfg.enable_prediction = false;
  ApolloMiddleware mw(&loop_, remote.get(), &cache_, cfg);
  util::SimDuration count = 0;
  for (int c = 1; c <= 5; ++c) RunRound(mw, c, nullptr, &count);
  EXPECT_GE(count, kRtt);  // never predicted
  EXPECT_EQ(mw.stats().predictions_issued, 0u);
  EXPECT_EQ(mw.name(), "memcached");
  // Nothing is learned, and a snapshot carries no engine sections.
  EXPECT_EQ(mw.LearningStateBytes(), 0u);
  EXPECT_EQ(mw.prediction_engine(), nullptr);
  const std::string path = ::testing::TempDir() + "apollo_memcached.snap";
  ASSERT_TRUE(mw.Checkpoint(path).ok());
  std::ostringstream bytes;
  bytes << std::ifstream(path, std::ios::binary).rdbuf();
  std::remove(path.c_str());
  auto snap = persist::ParseSnapshot(bytes.str());
  ASSERT_TRUE(snap.ok());
  EXPECT_FALSE(snap->sections.empty());
  for (const auto& sec : snap->sections) {
    EXPECT_NE(sec.type, persist::kSectionParamMapper);
    EXPECT_NE(sec.type, persist::kSectionDependencyGraph);
  }
}

TEST_F(ApolloPipelineTest, SubscribedClientStillLearns) {
  auto remote = MakeRemote();
  ApolloMiddleware mw(&loop_, remote.get(), &cache_, FastLearningConfig());
  for (int c = 1; c <= 5; ++c) RunRound(mw, c, nullptr, nullptr);
  // Serial-chain predictions coalesce with the client's own queries via
  // pub-sub instead of racing them to the database.
  EXPECT_GT(mw.stats().coalesced_waits + mw.stats().cache_hits, 0u);
}

TEST_F(ApolloPipelineTest, AdqDiscoveredAndReloadedAfterWrite) {
  auto remote = MakeRemote();
  ApolloConfig cfg = FastLearningConfig();
  ApolloMiddleware mw(&loop_, remote.get(), &cache_, cfg);
  // A parameterless aggregate is an ADQ (paper Section 2.4).
  const std::string adq = "SELECT COUNT(*) AS N FROM ORDERS";
  RunQuery(mw, 0, adq);
  RunQuery(mw, 0, adq);
  ASSERT_GE(mw.prediction_engine()->dependency_graph().Adqs().size(), 1u);

  // A write to ORDERS triggers informed reload; afterwards the client
  // reads the refreshed count from the cache.
  RunQuery(mw, 0,
           "INSERT INTO ORDERS (O_ID, O_C_ID, O_TOTAL) VALUES (5000, 1, "
           "1.0)");
  loop_.RunUntil(loop_.now() + util::Seconds(2));
  EXPECT_GE(mw.stats().adq_reloads, 1u);
  common::ResultSetPtr rs;
  auto t = RunQuery(mw, 0, adq, &rs);
  EXPECT_LT(t, util::Millis(5));
  EXPECT_EQ(rs->At(0, 0).AsInt(), 51);  // fresh value, not the stale 50
}

TEST_F(ApolloPipelineTest, AdqReloadDisabledLeavesStaleMiss) {
  auto remote = MakeRemote();
  ApolloConfig cfg = FastLearningConfig();
  cfg.enable_adq_reload = false;
  ApolloMiddleware mw(&loop_, remote.get(), &cache_, cfg);
  const std::string adq = "SELECT COUNT(*) AS N FROM ORDERS";
  RunQuery(mw, 0, adq);
  RunQuery(mw, 0, adq);
  RunQuery(mw, 0,
           "INSERT INTO ORDERS (O_ID, O_C_ID, O_TOTAL) VALUES (5000, 1, "
           "1.0)");
  loop_.RunUntil(loop_.now() + util::Seconds(2));
  EXPECT_EQ(mw.stats().adq_reloads, 0u);
  auto t = RunQuery(mw, 0, adq);
  EXPECT_GE(t, kRtt);  // stale entry unusable, no reload happened
}

TEST_F(ApolloPipelineTest, HighAlphaSuppressesReloads) {
  auto remote = MakeRemote();
  ApolloConfig cfg = FastLearningConfig();
  cfg.alpha = 1e9;  // nothing is valuable enough
  ApolloMiddleware mw(&loop_, remote.get(), &cache_, cfg);
  const std::string adq = "SELECT COUNT(*) AS N FROM ORDERS";
  RunQuery(mw, 0, adq);
  RunQuery(mw, 0, adq);
  RunQuery(mw, 0,
           "INSERT INTO ORDERS (O_ID, O_C_ID, O_TOTAL) VALUES (5000, 1, "
           "1.0)");
  loop_.RunUntil(loop_.now() + util::Seconds(2));
  EXPECT_EQ(mw.stats().adq_reloads, 0u);
}

TEST_F(ApolloPipelineTest, MappingDisproofInvalidatesFdq) {
  auto remote = MakeRemote();
  ApolloConfig cfg = FastLearningConfig();
  ApolloMiddleware mw(&loop_, remote.get(), &cache_, cfg);
  // Establish a mapping login(c) -> orders(c) over the verification
  // period, then break it by querying orders for an unrelated customer.
  for (int c = 1; c <= 3; ++c) {
    RunQuery(mw, 0,
             "SELECT C_ID FROM CUSTOMER WHERE C_UNAME = 'user" +
                 std::to_string(c) + "'");
    RunQuery(mw, 0,
             "SELECT MAX(O_ID) AS O_ID FROM ORDERS WHERE O_C_ID = " +
                 std::to_string(c));
    loop_.RunUntil(loop_.now() + util::Seconds(2));
  }
  EXPECT_GE(mw.stats().fdqs_discovered, 1u);
  // Break the correlation persistently: login userX but ask for an
  // unrelated customer's orders. A single mismatch is tolerated (it may be
  // a stale attribution); repeated contradiction disproves the mapping.
  for (int i = 0; i < 8; ++i) {
    RunQuery(mw, 0, "SELECT C_ID FROM CUSTOMER WHERE C_UNAME = 'user" +
                        std::to_string(4 + i) + "'");
    RunQuery(mw, 0, "SELECT MAX(O_ID) AS O_ID FROM ORDERS WHERE O_C_ID = " +
                        std::to_string(40 - i));
    loop_.RunUntil(loop_.now() + util::Seconds(2));
  }
  EXPECT_GE(mw.stats().fdqs_invalidated, 1u);
  // Invalidated FDQs are never predicted again (paper footnote 1).
  auto before = mw.stats().predictions_issued;
  RunQuery(mw, 0, "SELECT C_ID FROM CUSTOMER WHERE C_UNAME = 'user5'");
  loop_.RunUntil(loop_.now() + util::Seconds(2));
  EXPECT_EQ(mw.stats().predictions_issued, before);
}

TEST_F(MiddlewareTest, FidoPredictsTrainedInstances) {
  auto remote = MakeRemote();
  fido::FidoMiddleware mw(&loop_, remote.get(), &cache_, ApolloConfig());
  const std::string a = "SELECT C_UNAME FROM CUSTOMER WHERE C_ID = 1";
  const std::string b = "SELECT O_TOTAL FROM ORDERS WHERE O_C_ID = 1";
  const std::string c = "SELECT O_TOTAL FROM ORDERS WHERE O_C_ID = 2";
  mw.Train({{a, b, a, b, a, b}});
  EXPECT_GT(mw.num_patterns(), 0u);

  // Seeing `a` triggers a prefetch of the trained `b` instance.
  RunQuery(mw, 0, a);
  loop_.RunUntil(loop_.now() + util::Seconds(1));
  EXPECT_EQ(mw.stats().predictions_issued, 1u);
  auto t = RunQuery(mw, 0, b);
  EXPECT_LT(t, util::Millis(5));

  // But an unseen *instance* of the same template gets no help — the
  // limitation the paper contrasts with Apollo.
  auto t2 = RunQuery(mw, 0, c);
  EXPECT_GE(t2, kRtt);
}

TEST_F(MiddlewareTest, FidoUntrainedMakesNoPredictions) {
  auto remote = MakeRemote();
  fido::FidoMiddleware mw(&loop_, remote.get(), &cache_, ApolloConfig());
  RunQuery(mw, 0, "SELECT C_UNAME FROM CUSTOMER WHERE C_ID = 1");
  RunQuery(mw, 0, "SELECT O_TOTAL FROM ORDERS WHERE O_C_ID = 1");
  EXPECT_EQ(mw.stats().predictions_issued, 0u);
}

TEST_F(MiddlewareTest, EngineStationQueuesUnderLoad) {
  auto remote = MakeRemote();
  ApolloConfig cfg = MemcachedConfig();
  cfg.engine_servers = 1;
  cfg.engine_overhead_per_query = util::Millis(5);
  ApolloMiddleware mw(&loop_, remote.get(), &cache_, cfg);
  // 4 concurrent queries through a single 5 ms-per-query core: the last
  // one waits 15 ms in the engine queue.
  std::vector<util::SimTime> done;
  for (int i = 0; i < 4; ++i) {
    mw.SubmitQuery(i, "SELECT C_UNAME FROM CUSTOMER WHERE C_ID = " +
                          std::to_string(i + 1),
                   [&](auto) { done.push_back(loop_.now()); });
  }
  loop_.Run();
  ASSERT_EQ(done.size(), 4u);
  EXPECT_GE(done.back() - done.front(), util::Millis(15) - util::Millis(1));
}

}  // namespace
}  // namespace apollo::core
