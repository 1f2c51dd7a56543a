// Tests of the TPC-W / TPC-C workloads and the experiment driver.
#include <gtest/gtest.h>

#include <set>

#include "workload/client_driver.h"
#include "workload/driver.h"
#include "workload/tpcc.h"
#include "workload/tpcw.h"

namespace apollo::workload {
namespace {

TpcwConfig SmallTpcw() {
  TpcwConfig cfg;
  cfg.num_items = 500;
  cfg.num_customers = 400;
  cfg.num_authors = 100;
  cfg.num_orders = 360;
  return cfg;
}

TpccConfig SmallTpcc() {
  TpccConfig cfg;
  cfg.num_warehouses = 2;
  cfg.districts_per_warehouse = 3;
  cfg.customers_per_district = 30;
  cfg.num_items = 200;
  cfg.orders_per_district = 20;
  return cfg;
}

TEST(TpcwSetupTest, LoadsAllTables) {
  db::Database db;
  TpcwWorkload tpcw(SmallTpcw());
  ASSERT_TRUE(tpcw.Setup(&db).ok());
  EXPECT_EQ(db.GetTable("ITEM")->num_rows(), 500u);
  EXPECT_EQ(db.GetTable("CUSTOMER")->num_rows(), 400u);
  EXPECT_EQ(db.GetTable("ORDERS")->num_rows(), 360u);
  EXPECT_EQ(db.GetTable("COUNTRY")->num_rows(), 92u);
  EXPECT_GT(db.GetTable("ORDER_LINE")->num_rows(), 360u);
  EXPECT_GT(db.GetTable("CC_XACTS")->num_rows(), 0u);
}

TEST(TpcwSetupTest, ReferentialQueriesWork) {
  db::Database db;
  TpcwWorkload tpcw(SmallTpcw());
  ASSERT_TRUE(tpcw.Setup(&db).ok());
  // The Figure 2 chain works end-to-end against generated data.
  auto login = db.Execute(
      "SELECT C_ID FROM CUSTOMER WHERE C_UNAME = 'USER5' AND C_PASSWD = "
      "'PWD5'");
  ASSERT_TRUE(login.ok());
  ASSERT_EQ((*login)->num_rows(), 1u);
  EXPECT_EQ((*login)->At(0, 0).AsInt(), 5);
  auto join = db.Execute(
      "SELECT OL_I_ID, I_TITLE FROM ORDER_LINE, ITEM WHERE OL_I_ID = I_ID "
      "AND OL_O_ID = 1");
  ASSERT_TRUE(join.ok());
  EXPECT_GE((*join)->num_rows(), 1u);
}

TEST(TpcwSetupTest, TablePrefixIsolatesSchemas) {
  db::Database db;
  TpcwConfig a = SmallTpcw();
  TpcwConfig b = SmallTpcw();
  b.table_prefix = "X_";
  TpcwWorkload wa(a);
  TpcwWorkload wb(b);
  ASSERT_TRUE(wa.Setup(&db).ok());
  ASSERT_TRUE(wb.Setup(&db).ok());  // no clash
  EXPECT_NE(db.GetTable("X_ITEM"), nullptr);
}

TEST(TpcwSetupTest, OrderIdSequenceContinuesAfterInitialLoad) {
  TpcwWorkload tpcw(SmallTpcw());
  EXPECT_EQ(tpcw.CurrentMaxOrderId(), 360);
  EXPECT_EQ(tpcw.NextOrderId(), 361);
  EXPECT_EQ(tpcw.NextOrderId(), 362);
}

TEST(TpccSetupTest, LoadsScaledSchema) {
  db::Database db;
  TpccWorkload tpcc(SmallTpcc());
  ASSERT_TRUE(tpcc.Setup(&db).ok());
  EXPECT_EQ(db.GetTable("WAREHOUSE")->num_rows(), 2u);
  EXPECT_EQ(db.GetTable("DISTRICT")->num_rows(), 6u);
  EXPECT_EQ(db.GetTable("CUSTOMER")->num_rows(), 180u);
  EXPECT_EQ(db.GetTable("STOCK")->num_rows(), 400u);
  EXPECT_EQ(db.GetTable("ORDERS")->num_rows(), 120u);
}

TEST(TpccSetupTest, StockLevelChainWorks) {
  db::Database db;
  TpccWorkload tpcc(SmallTpcc());
  ASSERT_TRUE(tpcc.Setup(&db).ok());
  auto district = db.Execute(
      "SELECT D_W_ID, D_ID, D_NEXT_O_ID, D_NEXT_O_ID - 20 AS D_LOW_O_ID "
      "FROM DISTRICT WHERE D_W_ID = 1 AND D_ID = 1");
  ASSERT_TRUE(district.ok());
  ASSERT_EQ((*district)->num_rows(), 1u);
  int64_t next = (*district)->At(0, 2).AsInt();
  EXPECT_EQ(next, 21);
  EXPECT_EQ((*district)->At(0, 3).AsInt(), 1);
  auto items = db.Execute(
      "SELECT DISTINCT OL_W_ID, OL_I_ID FROM ORDER_LINE WHERE OL_W_ID = 1 "
      "AND OL_D_ID = 1 AND OL_O_ID >= 1 AND OL_O_ID < 21");
  ASSERT_TRUE(items.ok());
  EXPECT_GT((*items)->num_rows(), 0u);
}

/// Middleware stub executing directly against the database with a fixed
/// simulated delay — isolates client-behaviour tests from the full stack.
class DirectMiddleware : public core::Middleware {
 public:
  DirectMiddleware(sim::EventLoop* loop, db::Database* db)
      : loop_(loop), db_(db) {}

  void SubmitQuery(core::ClientId, const std::string& sql,
                   QueryCallback callback) override {
    ++stats_.queries;
    auto result = db_->Execute(sql);
    if (!result.ok()) {
      errors_.push_back(sql + " -> " + result.status().ToString());
    }
    loop_->After(util::Millis(1),
                 [result = std::move(result),
                  callback = std::move(callback)]() { callback(result); });
  }

  const core::MiddlewareStats& stats() const override { return stats_; }
  std::string name() const override { return "direct"; }
  const std::vector<std::string>& errors() const { return errors_; }

 private:
  sim::EventLoop* loop_;
  db::Database* db_;
  core::MiddlewareStats stats_;
  std::vector<std::string> errors_;
};

TEST(TpcwClientTest, InteractionsExecuteWithoutErrors) {
  db::Database db;
  TpcwWorkload tpcw(SmallTpcw());
  ASSERT_TRUE(tpcw.Setup(&db).ok());
  sim::EventLoop loop;
  DirectMiddleware mw(&loop, &db);
  std::vector<std::unique_ptr<ClientDriver>> drivers;
  for (int i = 0; i < 4; ++i) {
    drivers.push_back(std::make_unique<ClientDriver>(
        &loop, &mw, i, tpcw.MakeClient(i, 100 + i), 200 + i));
    drivers.back()->Start(util::Minutes(30));
  }
  loop.RunUntil(util::Minutes(31));
  EXPECT_GT(mw.stats().queries, 200u);
  EXPECT_TRUE(mw.errors().empty())
      << "first error: " << (mw.errors().empty() ? "" : mw.errors()[0]);
}

TEST(TpccClientTest, TransactionsExecuteWithoutErrors) {
  db::Database db;
  TpccWorkload tpcc(SmallTpcc());
  ASSERT_TRUE(tpcc.Setup(&db).ok());
  sim::EventLoop loop;
  DirectMiddleware mw(&loop, &db);
  std::vector<std::unique_ptr<ClientDriver>> drivers;
  for (int i = 0; i < 4; ++i) {
    drivers.push_back(std::make_unique<ClientDriver>(
        &loop, &mw, i, tpcc.MakeClient(i, 300 + i), 400 + i));
    drivers.back()->Start(util::Minutes(30));
  }
  loop.RunUntil(util::Minutes(31));
  EXPECT_GT(mw.stats().queries, 300u);
  EXPECT_TRUE(mw.errors().empty())
      << "first error: " << (mw.errors().empty() ? "" : mw.errors()[0]);
}

TEST(TpccClientTest, PaymentsActuallyWrite) {
  db::Database db;
  TpccWorkload tpcc(SmallTpcc());
  ASSERT_TRUE(tpcc.Setup(&db).ok());
  sim::EventLoop loop;
  DirectMiddleware mw(&loop, &db);
  auto driver = std::make_unique<ClientDriver>(&loop, &mw, 0,
                                               tpcc.MakeClient(0, 1), 2);
  uint64_t v0 = db.TableVersion("WAREHOUSE");
  driver->Start(util::Minutes(60));
  loop.RunUntil(util::Minutes(61));
  EXPECT_GT(db.TableVersion("WAREHOUSE"), v0);  // payments landed
  EXPECT_GT(db.GetTable("HISTORY")->num_rows(), 0u);
}

TEST(RunMetricsTest, TimelineBuckets) {
  RunMetrics metrics(/*origin=*/0, util::Minutes(4));
  metrics.Record(util::Minutes(1), util::Millis(100));
  metrics.Record(util::Minutes(2), util::Millis(200));
  metrics.Record(util::Minutes(5), util::Millis(50));
  auto timeline = metrics.Timeline();
  ASSERT_EQ(timeline.size(), 2u);
  EXPECT_DOUBLE_EQ(timeline[0].mean_ms, 150.0);
  EXPECT_DOUBLE_EQ(timeline[1].mean_ms, 50.0);
  EXPECT_DOUBLE_EQ(timeline[1].minute, 4.0);
  EXPECT_EQ(metrics.count(), 3u);
}

TEST(RunMetricsTest, WarmupSubmissionsExcludedFromHistogram) {
  // Regression: queries submitted before the measurement origin leaked
  // into the headline histogram (only the timeline buckets were gated),
  // skewing MeanMs/PercentileMs for warmed-up configurations.
  RunMetrics metrics(/*origin=*/util::Minutes(10), util::Minutes(4));
  metrics.Record(util::Minutes(1), util::Millis(500));   // warmup
  metrics.Record(util::Minutes(9), util::Millis(500));   // warmup
  metrics.Record(util::Minutes(11), util::Millis(100));  // measured
  metrics.Record(util::Minutes(12), util::Millis(200));  // measured
  EXPECT_EQ(metrics.count(), 2u);
  EXPECT_DOUBLE_EQ(metrics.MeanMs(), 150.0);
  auto timeline = metrics.Timeline();
  ASSERT_EQ(timeline.size(), 1u);
  EXPECT_EQ(timeline[0].count, 2u);
}

TEST(DriverTest, EndToEndSmoke) {
  TpcwWorkload tpcw(SmallTpcw());
  RunConfig cfg;
  cfg.system = SystemType::kApollo;
  cfg.num_clients = 5;
  cfg.duration = util::Minutes(3);
  cfg.remote.rtt = sim::LatencyModel::Constant(util::Millis(50));
  cfg.seed = 5;
  auto result = RunExperiment(tpcw, cfg);
  EXPECT_GT(result.metrics->count(), 50u);
  EXPECT_GT(result.MeanMs(), 0.0);
  EXPECT_GT(result.mw.queries, 0u);
  EXPECT_EQ(result.system_name, "apollo");
  EXPECT_GT(result.cache_capacity, 0u);
}

TEST(DriverTest, DeterministicAcrossRuns) {
  auto run = []() {
    TpcwWorkload tpcw(SmallTpcw());
    RunConfig cfg;
    cfg.system = SystemType::kApollo;
    cfg.num_clients = 4;
    cfg.duration = util::Minutes(2);
    cfg.seed = 11;
    return RunExperiment(tpcw, cfg);
  };
  auto a = run();
  auto b = run();
  EXPECT_EQ(a.metrics->count(), b.metrics->count());
  EXPECT_DOUBLE_EQ(a.MeanMs(), b.MeanMs());
  EXPECT_EQ(a.mw.predictions_issued, b.mw.predictions_issued);
}

TEST(DriverTest, SeedChangesRun) {
  auto run = [](uint64_t seed) {
    TpcwWorkload tpcw(SmallTpcw());
    RunConfig cfg;
    cfg.system = SystemType::kMemcached;
    cfg.num_clients = 4;
    cfg.duration = util::Minutes(2);
    cfg.seed = seed;
    return RunExperiment(tpcw, cfg);
  };
  auto a = run(1);
  auto b = run(2);
  EXPECT_NE(a.MeanMs(), b.MeanMs());
}

TEST(DriverTest, FidoTrainsBeforeMeasuring) {
  TpcwWorkload tpcw(SmallTpcw());
  RunConfig cfg;
  cfg.system = SystemType::kFido;
  cfg.num_clients = 3;
  cfg.duration = util::Minutes(2);
  cfg.fido_training_factor = 1.0;
  cfg.seed = 9;
  auto result = RunExperiment(tpcw, cfg);
  EXPECT_EQ(result.system_name, "fido");
  EXPECT_GT(result.metrics->count(), 0u);
}

TEST(DriverTest, WorkloadSwitchSwapsBehaviours) {
  TpccWorkload tpcc(SmallTpcc());
  TpcwConfig wcfg = SmallTpcw();
  wcfg.table_prefix = "TPCW_";
  TpcwWorkload tpcw(wcfg);
  RunConfig cfg;
  cfg.system = SystemType::kApollo;
  cfg.num_clients = 4;
  cfg.duration = util::Minutes(4);
  cfg.switch_to = &tpcw;
  cfg.switch_at = util::Minutes(2);
  cfg.bucket_width = util::Minutes(1);
  cfg.seed = 13;
  auto result = RunExperiment(tpcc, cfg);
  // Queries from both phases recorded.
  EXPECT_GE(result.metrics->Timeline().size(), 3u);
}

TEST(DriverTest, MultiInstancePartitionsClients) {
  TpcwWorkload tpcw(SmallTpcw());
  RunConfig cfg;
  cfg.system = SystemType::kApollo;
  cfg.num_clients = 6;
  cfg.num_instances = 3;
  cfg.duration = util::Minutes(2);
  cfg.seed = 17;
  auto result = RunExperiment(tpcw, cfg);
  EXPECT_GT(result.metrics->count(), 0u);
}

/// A workload whose database cannot be built.
class BrokenWorkload : public Workload {
 public:
  std::string name() const override { return "broken"; }
  util::Status Setup(db::Database*) override {
    return util::Status::Internal("disk full");
  }
  std::unique_ptr<WorkloadClient> MakeClient(int, uint64_t) override {
    return nullptr;
  }
};

// A failed setup must stop the run in every build type (an assert would
// vanish under NDEBUG and measure a half-built database), naming the
// workload and the failure.
TEST(DriverDeathTest, FailedSetupAborts) {
  BrokenWorkload broken;
  RunConfig cfg;
  cfg.num_clients = 1;
  cfg.duration = util::Minutes(1);
  EXPECT_DEATH(RunExperiment(broken, cfg),
               "broken workload setup failed.*disk full");
}

// The same for the workload a run switches to.
TEST(DriverDeathTest, FailedSwitchSetupAborts) {
  TpcwWorkload tpcw(SmallTpcw());
  BrokenWorkload broken;
  RunConfig cfg;
  cfg.num_clients = 1;
  cfg.duration = util::Minutes(1);
  cfg.switch_to = &broken;
  EXPECT_DEATH(RunExperiment(tpcw, cfg), "broken workload setup failed");
}

}  // namespace
}  // namespace apollo::workload
