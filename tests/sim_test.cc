#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "net/remote_database.h"
#include "sim/event_loop.h"
#include "sim/latency_model.h"
#include "sim/service_station.h"
#include "sql/parser.h"

namespace apollo::sim {
namespace {

TEST(EventLoopTest, RunsInTimeOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.After(util::Millis(30), [&]() { order.push_back(3); });
  loop.After(util::Millis(10), [&]() { order.push_back(1); });
  loop.After(util::Millis(20), [&]() { order.push_back(2); });
  loop.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.now(), util::Millis(30));
}

TEST(EventLoopTest, FifoAtEqualTimes) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    loop.At(util::Millis(5), [&, i]() { order.push_back(i); });
  }
  loop.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventLoopTest, TasksCanScheduleTasks) {
  EventLoop loop;
  int fired = 0;
  loop.After(util::Millis(1), [&]() {
    ++fired;
    loop.After(util::Millis(1), [&]() { ++fired; });
  });
  loop.Run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(loop.now(), util::Millis(2));
}

TEST(EventLoopTest, RunUntilStopsAtDeadline) {
  EventLoop loop;
  int fired = 0;
  loop.After(util::Millis(10), [&]() { ++fired; });
  loop.After(util::Millis(100), [&]() { ++fired; });
  loop.RunUntil(util::Millis(50));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(loop.now(), util::Millis(50));
  loop.RunUntil(util::Millis(200));
  EXPECT_EQ(fired, 2);
}

TEST(EventLoopTest, PastTimesClampToNow) {
  EventLoop loop;
  loop.After(util::Millis(10), [&]() {
    loop.At(0, [&]() { EXPECT_EQ(loop.now(), util::Millis(10)); });
  });
  loop.Run();
}

TEST(LatencyModelTest, ConstantIsExact) {
  util::Rng rng(1);
  auto m = LatencyModel::Constant(util::Millis(70));
  for (int i = 0; i < 10; ++i) EXPECT_EQ(m.Sample(rng), util::Millis(70));
}

TEST(LatencyModelTest, UniformWithinBounds) {
  util::Rng rng(1);
  auto m = LatencyModel::Uniform(util::Millis(10), util::Millis(20));
  for (int i = 0; i < 1000; ++i) {
    auto v = m.Sample(rng);
    EXPECT_GE(v, util::Millis(10));
    EXPECT_LE(v, util::Millis(20));
  }
}

TEST(LatencyModelTest, LogNormalCentersOnMedian) {
  util::Rng rng(1);
  auto m = LatencyModel::LogNormal(util::Millis(70), 0.1);
  int below = 0;
  for (int i = 0; i < 2000; ++i) {
    if (m.Sample(rng) < util::Millis(70)) ++below;
  }
  EXPECT_NEAR(below, 1000, 120);
}

TEST(ServiceStationTest, ParallelServersNoQueueing) {
  EventLoop loop;
  ServiceStation station(&loop, 4);
  std::vector<util::SimTime> done;
  for (int i = 0; i < 4; ++i) {
    station.Submit(util::Millis(10), [&]() { done.push_back(loop.now()); });
  }
  loop.Run();
  for (auto t : done) EXPECT_EQ(t, util::Millis(10));
  EXPECT_EQ(station.stats().total_wait, 0);
}

TEST(ServiceStationTest, QueuesBeyondCapacity) {
  EventLoop loop;
  ServiceStation station(&loop, 1);
  std::vector<util::SimTime> done;
  for (int i = 0; i < 3; ++i) {
    station.Submit(util::Millis(10), [&]() { done.push_back(loop.now()); });
  }
  loop.Run();
  ASSERT_EQ(done.size(), 3u);
  EXPECT_EQ(done[0], util::Millis(10));
  EXPECT_EQ(done[1], util::Millis(20));
  EXPECT_EQ(done[2], util::Millis(30));
  EXPECT_EQ(station.stats().total_wait, util::Millis(30));  // 0 + 10 + 20
  EXPECT_EQ(station.stats().max_queue_depth, 2u);
}

class RemoteDatabaseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db::Schema s("T", {{"ID", common::ValueType::kInt},
                       {"V", common::ValueType::kString}});
    s.AddIndex("PRIMARY", {"ID"});
    ASSERT_TRUE(db_.CreateTable(std::move(s)).ok());
    ASSERT_TRUE(db_.Execute("INSERT INTO T (ID, V) VALUES (1, 'a')").ok());
  }
  db::Database db_;
  EventLoop loop_;
};

TEST_F(RemoteDatabaseTest, ChargesRoundTrip) {
  net::RemoteDbConfig cfg;
  cfg.rtt = LatencyModel::Constant(util::Millis(70));
  cfg.exec_base = util::Micros(100);
  cfg.exec_per_row = 0;
  net::RemoteDatabase remote(&loop_, &db_, cfg);

  util::SimTime completed = -1;
  remote.Execute("SELECT V FROM T WHERE ID = 1",
                 [&](util::Result<common::ResultSetPtr> rs, auto versions) {
                   ASSERT_TRUE(rs.ok());
                   EXPECT_EQ((*rs)->At(0, 0).AsString(), "a");
                   EXPECT_EQ(versions.at("T"), db_.TableVersion("T"));
                   completed = loop_.now();
                 });
  loop_.Run();
  EXPECT_EQ(completed, util::Millis(70) + util::Micros(100));
}

TEST_F(RemoteDatabaseTest, WriteBumpsVersionInCallback) {
  net::RemoteDbConfig cfg;
  cfg.rtt = LatencyModel::Constant(util::Millis(10));
  net::RemoteDatabase remote(&loop_, &db_, cfg);
  uint64_t v0 = db_.TableVersion("T");
  remote.Execute("UPDATE T SET V = 'b' WHERE ID = 1",
                 [&](util::Result<common::ResultSetPtr> rs, auto versions) {
                   ASSERT_TRUE(rs.ok());
                   EXPECT_EQ(versions.at("T"), v0 + 1);
                 });
  loop_.Run();
  EXPECT_EQ(db_.TableVersion("T"), v0 + 1);
}

TEST_F(RemoteDatabaseTest, ErrorsPropagate) {
  net::RemoteDbConfig cfg;
  net::RemoteDatabase remote(&loop_, &db_, cfg);
  bool saw_error = false;
  remote.Execute("SELECT broken FROM",
                 [&](util::Result<common::ResultSetPtr> rs, auto) {
                   saw_error = !rs.ok();
                 });
  loop_.Run();
  EXPECT_TRUE(saw_error);
  EXPECT_EQ(remote.stats().errors, 1u);
}

TEST_F(RemoteDatabaseTest, PredictiveTaggedInStats) {
  net::RemoteDbConfig cfg;
  net::RemoteDatabase remote(&loop_, &db_, cfg);
  remote.Execute("SELECT V FROM T WHERE ID = 1", [](auto, auto) {},
                 /*predictive=*/true);
  remote.Execute("SELECT V FROM T WHERE ID = 1", [](auto, auto) {});
  loop_.Run();
  EXPECT_EQ(remote.stats().queries, 2u);
  EXPECT_EQ(remote.stats().predictive_queries, 1u);
}

TEST_F(RemoteDatabaseTest, ServiceTimeScalesWithRowsExamined) {
  // Load more rows so a scan costs more than an index probe.
  for (int i = 2; i <= 1000; ++i) {
    ASSERT_TRUE(db_.Execute("INSERT INTO T (ID, V) VALUES (" +
                            std::to_string(i) + ", 'x')")
                    .ok());
  }
  net::RemoteDbConfig cfg;
  cfg.rtt = LatencyModel::Constant(0);
  cfg.exec_base = 0;
  cfg.exec_per_row = util::Micros(10);
  net::RemoteDatabase remote(&loop_, &db_, cfg);

  util::SimTime t_probe = -1;
  util::SimTime t_scan = -1;
  remote.Execute("SELECT V FROM T WHERE ID = 5",
                 [&](auto, auto) { t_probe = loop_.now(); });
  loop_.Run();
  util::SimTime base = loop_.now();
  remote.Execute("SELECT COUNT(*) AS N FROM T WHERE V = 'x'",
                 [&](auto, auto) { t_scan = loop_.now() - base; });
  loop_.Run();
  EXPECT_LT(t_probe, t_scan);
  EXPECT_EQ(t_probe, util::Micros(10));        // one row examined
  EXPECT_EQ(t_scan, util::Micros(10) * 1000);  // full scan
}

TEST_F(RemoteDatabaseTest, BoundedCostChargesLikeExactCounting) {
  // L.K = R.K with R's own filter: a semijoin pre-filter that keeps no L
  // row. The scan examines L's 10 rows, then one R probe per L row, so
  // cost_rows is 10 before the skipped-row walk and rises by one per
  // skipped row to 20.
  db::Schema l("L", {{"K", common::ValueType::kInt}});
  l.AddIndex("K_IDX", {"K"});
  ASSERT_TRUE(db_.CreateTable(std::move(l)).ok());
  db::Schema r("R", {{"K", common::ValueType::kInt},
                     {"TAG", common::ValueType::kString}});
  r.AddIndex("K_IDX", {"K"});
  ASSERT_TRUE(db_.CreateTable(std::move(r)).ok());
  for (int k = 1; k <= 10; ++k) {
    const std::string v = std::to_string(k);
    ASSERT_TRUE(db_.Execute("INSERT INTO L (K) VALUES (" + v + ")").ok());
    ASSERT_TRUE(
        db_.Execute("INSERT INTO R (K, TAG) VALUES (" + v + ", 'a')").ok());
  }
  ASSERT_TRUE(db_.Execute("INSERT INTO R (K, TAG) VALUES (99, 'z')").ok());
  const std::string q =
      "SELECT L.K FROM L, R WHERE L.K = R.K AND R.TAG = 'z'";
  auto stmt = sql::Parse(q);
  ASSERT_TRUE(stmt.ok());
  auto exact = db_.ExecuteStatement(**stmt, db::CostRows::kCount);
  ASSERT_TRUE(exact.ok());
  ASSERT_EQ((*exact)->cost_rows(), 20u);

  // (cap - base) / per_row = 14.5: counts from 15 on are charged the cap.
  // The walk crosses 14 and 15 one row at a time, so a bound of 14 (the
  // quotient rounded down) would stop there and charge 178 us, not 179.
  net::RemoteDbConfig cfg;
  cfg.rtt = LatencyModel::Constant(util::Millis(10));
  cfg.exec_base = util::Micros(150);
  cfg.exec_per_row = util::Micros(2);
  cfg.exec_cap = util::Micros(179);
  net::RemoteDatabase remote(&loop_, &db_, cfg);
  util::SimTime completed = -1;
  remote.Execute(q, [&](util::Result<common::ResultSetPtr> rs, auto) {
    ASSERT_TRUE(rs.ok());
    EXPECT_EQ((*rs)->num_rows(), 0u);
    completed = loop_.now();
  });
  loop_.Run();
  const util::SimDuration exact_service = std::min<util::SimDuration>(
      cfg.exec_base + static_cast<util::SimDuration>((*exact)->cost_rows()) *
                          cfg.exec_per_row,
      cfg.exec_cap);
  EXPECT_EQ(completed, util::Millis(10) + exact_service);
}

}  // namespace
}  // namespace apollo::sim
