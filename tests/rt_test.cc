// Tests for the parallel middleware runtime (src/rt/): promise/future,
// thread pool backpressure, and the ConcurrentApollo adapter's serving
// path — including the single-flight contention
// regression (of N racing submitters of one query, exactly one executes
// remotely). Run under TSan via tools/check.sh thread.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <future>
#include <latch>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cache/kv_cache.h"
#include "db/database.h"
#include "persist/snapshot.h"
#include "rt/concurrent_apollo.h"
#include "rt/db_gateway.h"
#include "rt/future.h"
#include "rt/thread_pool.h"

namespace apollo {
namespace {

// --------------------------------------------------------------------------
// Promise / Future
// --------------------------------------------------------------------------

TEST(FutureTest, SetBeforeGet) {
  rt::Promise<int> p;
  p.Set(42);
  EXPECT_TRUE(p.GetFuture().Ready());
  EXPECT_EQ(p.GetFuture().Get(), 42);
}

TEST(FutureTest, GetBlocksUntilSet) {
  rt::Promise<std::string> p;
  rt::Future<std::string> f = p.GetFuture();
  std::thread setter([&p] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    p.Set("done");
  });
  EXPECT_EQ(f.Get(), "done");
  setter.join();
}

TEST(FutureTest, SecondSetIgnored) {
  rt::Promise<int> p;
  p.Set(1);
  p.Set(2);
  EXPECT_EQ(p.GetFuture().Get(), 1);
}

TEST(FutureTest, CopyableIntoStdFunction) {
  rt::Promise<int> p;
  std::function<void()> fn = [p] { p.Set(9); };
  std::function<void()> copy = fn;
  copy();
  EXPECT_EQ(p.GetFuture().Get(), 9);
}

// --------------------------------------------------------------------------
// ThreadPool
// --------------------------------------------------------------------------

TEST(ThreadPoolTest, ExecutesAllClientTasks) {
  rt::ThreadPoolConfig cfg;
  cfg.num_threads = 4;
  cfg.queue_capacity = 16;
  rt::ThreadPool pool(cfg);
  std::atomic<int> ran{0};
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(pool.Submit(rt::TaskClass::kClient, [&] { ran.fetch_add(1); }));
  }
  pool.Shutdown();
  EXPECT_EQ(ran.load(), 100);
  EXPECT_EQ(pool.executed(), 100u);
}

TEST(ThreadPoolTest, PredictiveShedAtWatermark) {
  // One worker blocked on a gate; watermark 2 means the third queued
  // predictive task is rejected while client tasks still enqueue.
  rt::ThreadPoolConfig cfg;
  cfg.num_threads = 1;
  cfg.queue_capacity = 8;
  cfg.predictive_watermark = 2;
  rt::ThreadPool pool(cfg);
  std::mutex mu;
  std::condition_variable cv;
  bool started = false;
  bool release = false;
  ASSERT_TRUE(pool.Submit(rt::TaskClass::kClient, [&] {
    std::unique_lock<std::mutex> lock(mu);
    started = true;
    cv.notify_all();
    cv.wait(lock, [&] { return release; });
  }));
  // Wait until the worker holds the gate task, so no dequeue can lower
  // the depth below the watermark after the fill.
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return started; });
  }
  while (pool.queue_depth() < cfg.predictive_watermark) {
    if (!pool.Submit(rt::TaskClass::kPredictive, [] {})) break;
  }
  EXPECT_FALSE(pool.Submit(rt::TaskClass::kPredictive, [] {}));
  EXPECT_GE(pool.rejected_predictive(), 1u);
  // Client tasks are never shed by the watermark.
  EXPECT_TRUE(pool.Submit(rt::TaskClass::kClient, [] {}));
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  pool.Shutdown();
}

TEST(ThreadPoolTest, RecordsQueueWaitPerWorker) {
  obs::Observability obs;
  rt::ThreadPoolConfig cfg;
  cfg.num_threads = 2;
  cfg.queue_capacity = 8;
  rt::ThreadPool pool(cfg, &obs, "tp.");
  std::atomic<int> ran{0};
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(pool.Submit(rt::TaskClass::kClient, [&] { ran.fetch_add(1); }));
  }
  pool.Shutdown();
  uint64_t samples = 0;
  for (int w = 0; w < 2; ++w) {
    auto* h = obs.metrics.FindHistogram("tp.worker" + std::to_string(w) +
                                        ".queue_wait_wall_us");
    ASSERT_NE(h, nullptr);
    samples += h->Count();
  }
  EXPECT_EQ(samples, 20u);
}

// --------------------------------------------------------------------------
// ConcurrentApollo
// --------------------------------------------------------------------------

class ConcurrentApolloTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db::Schema s("ITEM", {{"I_ID", common::ValueType::kInt},
                          {"I_STOCK", common::ValueType::kInt}});
    s.AddIndex("PRIMARY", {"I_ID"});
    ASSERT_TRUE(db_.CreateTable(std::move(s)).ok());
    for (int i = 0; i < 100; ++i) {
      ASSERT_TRUE(db_.GetTable("ITEM")
                      ->Insert({common::Value::Int(i),
                                common::Value::Int(10 * i)})
                      .ok());
    }
  }

  rt::ConcurrentApolloConfig Config(std::chrono::microseconds rtt) {
    rt::ConcurrentApolloConfig cfg;
    cfg.pool.num_threads = 10;
    cfg.pool.queue_capacity = 64;
    cfg.gateway.rtt = rtt;
    return cfg;
  }

  db::Database db_;
};

TEST_F(ConcurrentApolloTest, ServesReadsAndWritesAcrossThreads) {
  rt::ConcurrentApollo apollo(&db_, Config(std::chrono::microseconds(200)));
  constexpr int kThreads = 8;
  constexpr int kQueriesEach = 40;
  std::atomic<int> failures{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kQueriesEach; ++i) {
        int id = (t * 7 + i) % 100;
        auto rs = apollo.Execute(
            t, "SELECT I_STOCK FROM ITEM WHERE I_ID = " + std::to_string(id));
        if (!rs.ok() || (*rs)->At(0, 0).AsInt() != 10 * id) failures.fetch_add(1);
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(failures.load(), 0);
  auto& m = apollo.observability().metrics;
  EXPECT_EQ(m.FindCounter("rt.queries")->Value(),
            static_cast<uint64_t>(kThreads * kQueriesEach));
  // Repeated ids across threads must hit the shared cache.
  EXPECT_GT(m.FindCounter("rt.cache_hits")->Value(), 0u);
  apollo.Shutdown();
}

TEST_F(ConcurrentApolloTest, ReadYourOwnWrites) {
  rt::ConcurrentApollo apollo(&db_, Config(std::chrono::microseconds(100)));
  // Client 0 seeds the cache with the old value; client 1 writes and must
  // then see its own write despite the stale cached entry.
  auto before = apollo.Execute(0, "SELECT I_STOCK FROM ITEM WHERE I_ID = 5");
  ASSERT_TRUE(before.ok());
  ASSERT_EQ((*before)->At(0, 0).AsInt(), 50);
  auto w = apollo.Execute(1, "UPDATE ITEM SET I_STOCK = 777 WHERE I_ID = 5");
  ASSERT_TRUE(w.ok());
  auto after = apollo.Execute(1, "SELECT I_STOCK FROM ITEM WHERE I_ID = 5");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ((*after)->At(0, 0).AsInt(), 777);
  apollo.Shutdown();
}

TEST_F(ConcurrentApolloTest, SingleFlightExactlyOneExecution) {
  // The single-flight regression: 8 sessions race the same uncached query
  // with a WAN round trip long enough that all arrive while the leader is
  // in flight. Exactly one remote execution must happen; everyone gets the
  // correct result.
  rt::ConcurrentApollo apollo(&db_, Config(std::chrono::milliseconds(80)));
  constexpr int kThreads = 8;
  const uint64_t reads_before = db_.stats().reads;

  std::mutex mu;
  std::condition_variable cv;
  int arrived = 0;
  bool go = false;
  std::atomic<int> failures{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      {
        std::unique_lock<std::mutex> lock(mu);
        if (++arrived == kThreads) {
          go = true;
          cv.notify_all();
        } else {
          cv.wait(lock, [&] { return go; });
        }
      }
      auto rs =
          apollo.Execute(t, "SELECT I_STOCK FROM ITEM WHERE I_ID = 42");
      if (!rs.ok() || (*rs)->At(0, 0).AsInt() != 420) failures.fetch_add(1);
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(failures.load(), 0);
  // One leader executed remotely; everyone else subscribed or hit the
  // cache the leader filled.
  EXPECT_EQ(db_.stats().reads - reads_before, 1u);
  auto& m = apollo.observability().metrics;
  EXPECT_EQ(m.FindCounter("rt.coalesced_waits")->Value() +
                m.FindCounter("rt.cache_hits")->Value(),
            static_cast<uint64_t>(kThreads - 1));
  apollo.Shutdown();
}

TEST_F(ConcurrentApolloTest, GatewayReadStampNeverNewerThanData) {
  // Version discipline: a read's stamp is snapshotted before execution,
  // so under concurrent writes Get(t) <= the table version at return.
  rt::DbGateway gw(&db_, {std::chrono::microseconds(0)});
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    int i = 0;
    while (!stop.load()) {
      (void)db_.Execute("UPDATE ITEM SET I_STOCK = " +
                        std::to_string(i++ % 1000) + " WHERE I_ID = 7");
    }
  });
  for (int i = 0; i < 200; ++i) {
    std::vector<rt::BatchStatement> stmts(1);
    stmts[0].sql = "SELECT I_STOCK FROM ITEM WHERE I_ID = 7";
    stmts[0].tables = {"ITEM"};
    auto rr = gw.ExecuteBatchAsync(/*pool=*/nullptr, std::move(stmts))[0]
                  .Take();
    ASSERT_TRUE(rr.result.ok());
    EXPECT_LE(rr.versions["ITEM"], db_.TableVersion("ITEM"));
  }
  stop.store(true);
  writer.join();
}

TEST_F(ConcurrentApolloTest, RttZeroServesClientsWithTheOnlyPoolWorkerHeld) {
  // At rtt 0 the gateway completes a client's batch on the client's own
  // thread, so the client path needs no pool worker at all.
  rt::ConcurrentApolloConfig cfg = Config(std::chrono::microseconds(0));
  cfg.pool.num_threads = 1;
  rt::ConcurrentApollo apollo(&db_, cfg);
  auto held = std::make_shared<std::latch>(1);
  auto release = std::make_shared<std::latch>(1);
  ASSERT_TRUE(apollo.pool().Submit(rt::TaskClass::kClient, [held, release] {
    held->count_down();
    release->wait();
  }));
  held->wait();
  auto client = std::async(std::launch::async, [&apollo] {
    auto r = apollo.Execute(0, "SELECT I_STOCK FROM ITEM WHERE I_ID = 9");
    auto w = apollo.Execute(1, "UPDATE ITEM SET I_STOCK = 5 WHERE I_ID = 9");
    return r.ok() && (*r)->At(0, 0).AsInt() == 90 && w.ok();
  });
  // Bounded wait, so a regression fails instead of hanging the suite.
  const bool answered =
      client.wait_for(std::chrono::seconds(10)) == std::future_status::ready;
  release->count_down();
  EXPECT_TRUE(answered) << "client path waited for the held pool worker";
  EXPECT_TRUE(client.get());
  apollo.Shutdown();
}

// --------------------------------------------------------------------------
// Crash-tolerant learned state in the runtime (DESIGN.md §11): the
// background checkpointer takes copy-then-write snapshots under the
// engine locks while 8 client threads keep executing. Run under TSan via
// tools/check.sh thread.
// --------------------------------------------------------------------------

class ConcurrentApolloPersistTest : public ConcurrentApolloTest {
 protected:
  std::string SnapshotPath(const char* name) {
    return ::testing::TempDir() + "apollo_rt_persist_" + name;
  }
};

TEST_F(ConcurrentApolloPersistTest, CheckpointerSnapshotsUnderLoad) {
  const std::string path = SnapshotPath("under_load.snap");
  std::remove(path.c_str());
  auto cfg = Config(std::chrono::microseconds(200));
  cfg.persist.path = path;
  cfg.persist.checkpoint_interval_ms = 5;
  {
    rt::ConcurrentApollo apollo(&db_, cfg);
    constexpr int kThreads = 8;
    std::atomic<int> failures{0};
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([&, t] {
        for (int i = 0; i < 60; ++i) {
          int id = (t * 11 + i) % 100;
          auto rs = apollo.Execute(
              t,
              "SELECT I_STOCK FROM ITEM WHERE I_ID = " + std::to_string(id));
          if (!rs.ok()) failures.fetch_add(1);
        }
      });
    }
    for (auto& w : workers) w.join();
    EXPECT_EQ(failures.load(), 0);
    // On-demand checkpoint races with the periodic one: both must be safe.
    EXPECT_TRUE(apollo.CheckpointNow().ok());
    apollo.Shutdown();
    auto& m = apollo.observability().metrics;
    EXPECT_GT(m.FindCounter("rt.persist.checkpoints")->Value(), 0);
    EXPECT_EQ(m.FindCounter("rt.persist.checkpoint_errors")->Value(), 0);
  }
  auto snap = persist::ReadSnapshotFile(path);
  ASSERT_TRUE(snap.ok());
  EXPECT_FALSE(snap->truncated);
  EXPECT_GE(snap->sections.size(), 4u);
  for (const auto& sec : snap->sections) EXPECT_TRUE(sec.crc_ok);
  std::remove(path.c_str());
}

TEST_F(ConcurrentApolloPersistTest, WarmRestartRestoresLearnedState) {
  const std::string path = SnapshotPath("warm.snap");
  std::remove(path.c_str());
  auto cfg = Config(std::chrono::microseconds(100));
  cfg.persist.path = path;  // interval 0: checkpoint only at shutdown
  size_t learned_templates = 0;
  {
    rt::ConcurrentApollo apollo(&db_, cfg);
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(apollo
                      .Execute(0, "SELECT I_STOCK FROM ITEM WHERE I_ID = " +
                                      std::to_string(i))
                      .ok());
    }
    learned_templates = apollo.template_cache().size();
    ASSERT_GT(learned_templates, 0u);
    apollo.Shutdown();  // writes the final snapshot
  }
  {
    rt::ConcurrentApollo apollo(&db_, cfg);  // restores at construction
    EXPECT_EQ(apollo.template_cache().size(), learned_templates);
    EXPECT_GT(apollo.template_cache().total_observations(), 0u);
    // The restored engine keeps serving correctly.
    auto rs = apollo.Execute(1, "SELECT I_STOCK FROM ITEM WHERE I_ID = 3");
    ASSERT_TRUE(rs.ok());
    EXPECT_EQ((*rs)->At(0, 0).AsInt(), 30);
    apollo.Shutdown();
  }
  std::remove(path.c_str());
}

TEST_F(ConcurrentApolloPersistTest, RestoreTolerantOfDamagedSnapshot) {
  const std::string path = SnapshotPath("damaged.snap");
  std::remove(path.c_str());
  auto cfg = Config(std::chrono::microseconds(100));
  cfg.persist.path = path;
  {
    rt::ConcurrentApollo apollo(&db_, cfg);
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(apollo
                      .Execute(0, "SELECT I_STOCK FROM ITEM WHERE I_ID = " +
                                      std::to_string(i))
                      .ok());
    }
    apollo.Shutdown();
  }
  // Flip the first payload byte of the second section: exactly that
  // section's CRC dies, everything else stays intact.
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good());
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  auto pristine = persist::ParseSnapshot(bytes);
  ASSERT_TRUE(pristine.ok());
  ASSERT_GE(pristine->sections.size(), 2u);
  size_t offset = persist::kHeaderBytes + persist::kSectionHeaderBytes +
                  pristine->sections[0].payload.size() +
                  persist::kSectionHeaderBytes;
  ASSERT_LT(offset, bytes.size());
  bytes[offset] ^= 0xFF;
  ASSERT_TRUE(persist::WriteFileAtomic(path, bytes).ok());
  {
    rt::ConcurrentApollo apollo(&db_, cfg);  // must construct, not crash
    persist::RestoreStats stats;
    // A second explicit restore reports the partial-recovery accounting.
    ASSERT_TRUE(apollo.RestoreNow(&stats).ok());
    EXPECT_EQ(stats.sections_corrupt, 1u);
    EXPECT_EQ(stats.sections_loaded, stats.sections_total - 1);
    auto rs = apollo.Execute(2, "SELECT I_STOCK FROM ITEM WHERE I_ID = 4");
    ASSERT_TRUE(rs.ok());
    EXPECT_EQ((*rs)->At(0, 0).AsInt(), 40);
    apollo.Shutdown();
  }
  std::remove(path.c_str());
}

// With prediction off the runtime is Memcached, as the simulator host is:
// its snapshots carry templates and sessions but no engine sections.
TEST_F(ConcurrentApolloPersistTest, PredictionOffSnapshotHasNoEngineSections) {
  auto cfg = Config(std::chrono::microseconds(50));
  cfg.apollo.enable_prediction = false;
  rt::ConcurrentApollo apollo(&db_, cfg);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(apollo
                    .Execute(0, "SELECT I_STOCK FROM ITEM WHERE I_ID = " +
                                    std::to_string(i))
                    .ok());
  }
  auto snap = persist::ParseSnapshot(apollo.SnapshotBytes());
  apollo.Shutdown();
  ASSERT_TRUE(snap.ok());
  EXPECT_FALSE(snap->sections.empty());
  for (const auto& sec : snap->sections) {
    EXPECT_NE(sec.type, persist::kSectionParamMapper);
    EXPECT_NE(sec.type, persist::kSectionDependencyGraph);
  }
}

// A prediction-off runtime has no engine, as the simulator host has none,
// and restoring a prediction-on snapshot skips the engine sections as
// known-but-not-kept rather than counting them unknown.
TEST_F(ConcurrentApolloPersistTest, PredictionOffHostSkipsEngineSections) {
  const std::string path = SnapshotPath("prediction_on.snap");
  std::remove(path.c_str());
  auto cfg = Config(std::chrono::microseconds(50));
  cfg.persist.path = path;
  {
    rt::ConcurrentApollo apollo(&db_, cfg);
    EXPECT_NE(apollo.prediction_engine(), nullptr);
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(apollo
                      .Execute(0, "SELECT I_STOCK FROM ITEM WHERE I_ID = " +
                                      std::to_string(i))
                      .ok());
    }
    apollo.Shutdown();  // writes the final snapshot
  }
  cfg.apollo.enable_prediction = false;
  {
    rt::ConcurrentApollo apollo(&db_, cfg);
    EXPECT_EQ(apollo.prediction_engine(), nullptr);
    persist::RestoreStats stats;
    ASSERT_TRUE(apollo.RestoreNow(&stats).ok());
    EXPECT_EQ(stats.sections_unknown, 0u);
    EXPECT_EQ(stats.sections_corrupt, 0u);
    EXPECT_EQ(stats.sections_skipped, 2u);
    EXPECT_EQ(stats.sections_loaded, stats.sections_total - 2);
    EXPECT_EQ(stats.pairs, 0u);
    EXPECT_EQ(stats.fdqs, 0u);
    apollo.Shutdown();
  }
  std::remove(path.c_str());
}

// --------------------------------------------------------------------------
// Instrument sets: every component registers the same instruments whatever
// its config, so exports from differently configured runs line up.
// --------------------------------------------------------------------------

std::set<std::string> InstrumentNames(const obs::MetricsRegistry& m) {
  std::set<std::string> names;
  for (const auto& sample : m.Snapshot()) names.insert(sample.name);
  return names;
}

class InstrumentSetTest : public ConcurrentApolloPersistTest {};

TEST_F(InstrumentSetTest, ConcurrentApolloSetDoesNotDependOnConfig) {
  obs::Observability plain_obs;
  rt::ConcurrentApollo plain(&db_, Config(std::chrono::microseconds(50)),
                             &plain_obs);

  const std::string path = SnapshotPath("instrument_set.snap");
  std::remove(path.c_str());
  auto cfg = Config(std::chrono::microseconds(50));
  cfg.overload.enabled = true;
  cfg.persist.path = path;
  cfg.apollo.max_transition_edges = 64;
  cfg.apollo.max_param_pairs = 64;
  obs::Observability full_obs;
  rt::ConcurrentApollo full(&db_, cfg, &full_obs);

  std::set<std::string> expected = InstrumentNames(plain_obs.metrics);
  // Only the BrownoutController, which exists with overload control on,
  // adds instruments of its own.
  expected.insert({"rt.overload.level", "rt.overload.level_up",
                   "rt.overload.level_down"});
  EXPECT_EQ(InstrumentNames(full_obs.metrics), expected);
  plain.Shutdown();
  full.Shutdown();
  std::remove(path.c_str());
}

TEST_F(InstrumentSetTest, KvCacheSetDoesNotDependOnPolicy) {
  obs::Observability lru_obs;
  cache::KvCache lru(1 << 16, 4, &lru_obs);
  obs::Observability cost_obs;
  cache::KvCacheOptions opt;
  opt.policy = cache::CachePolicy::kTinyLfuCost;
  cache::KvCache cost(1 << 16, 4, &cost_obs, "cache.", opt);
  EXPECT_EQ(InstrumentNames(lru_obs.metrics),
            InstrumentNames(cost_obs.metrics));
}

}  // namespace
}  // namespace apollo
