// Scaling-rework coverage (DESIGN.md Section 14): prediction accounting
// on the batched transport, gateway batch semantics (demultiplexing,
// per-sub-statement fault injection, deadline fail-fast, a batch due on
// arrival completing on the submitting thread), and 8-thread
// contention suites for the learn-shard table and the batched WAN
// transport (run under TSan via `tools/check.sh --thread`). Decision
// parity with the simulator host is tests/cross_host_test.cc.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <latch>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "db/database.h"
#include "rt/concurrent_apollo.h"
#include "rt/db_gateway.h"

namespace apollo {
namespace {

using namespace std::chrono_literals;

// --------------------------------------------------------------------------
// Shared fixture: the A -> B -> C correlated schema the prediction tests
// use, loaded wide enough for multi-session replays.
// --------------------------------------------------------------------------

class ScalingFixture : public ::testing::Test {
 protected:
  void SetUp() override { SeedDb(&db_); }

  static void SeedDb(db::Database* db) {
    using common::Value;
    using common::ValueType;
    {
      db::Schema s("A", {{"A_ID", ValueType::kInt},
                         {"A_B_ID", ValueType::kInt}});
      s.AddIndex("PRIMARY", {"A_ID"});
      ASSERT_TRUE(db->CreateTable(std::move(s)).ok());
    }
    {
      db::Schema s("B", {{"B_ID", ValueType::kInt},
                         {"B_C_ID", ValueType::kInt}});
      s.AddIndex("PRIMARY", {"B_ID"});
      ASSERT_TRUE(db->CreateTable(std::move(s)).ok());
    }
    {
      db::Schema s("C", {{"C_ID", ValueType::kInt},
                         {"C_V", ValueType::kInt}});
      s.AddIndex("PRIMARY", {"C_ID"});
      ASSERT_TRUE(db->CreateTable(std::move(s)).ok());
    }
    for (int i = 1; i <= 200; ++i) {
      ASSERT_TRUE(db->GetTable("A")
                      ->Insert({Value::Int(i), Value::Int(1000 + i)})
                      .ok());
      ASSERT_TRUE(db->GetTable("B")
                      ->Insert({Value::Int(1000 + i), Value::Int(2000 + i)})
                      .ok());
      ASSERT_TRUE(db->GetTable("C")
                      ->Insert({Value::Int(2000 + i), Value::Int(7 * i)})
                      .ok());
    }
  }

  /// Blocks until the runtime reports quiescence (all async completions,
  /// including the learning they trigger, have landed).
  static void Drain(rt::ConcurrentApollo& apollo) {
    for (int i = 0; i < 20000; ++i) {
      if (apollo.Quiescent()) return;
      std::this_thread::sleep_for(100us);
    }
    FAIL() << "runtime did not quiesce";
  }

  db::Database db_;
};

// --------------------------------------------------------------------------
// Prediction accounting: an item is issued only once it is armed onto a
// trip, so a skipped item never counts as both issued and skipped.
// --------------------------------------------------------------------------

class PredictionAccountingTest : public ScalingFixture {};

TEST_F(PredictionAccountingTest, CachedPredictionIsSkippedNotIssued) {
  rt::ConcurrentApolloConfig cfg;
  cfg.apollo.verification_period = 2;
  cfg.apollo.delta_ts = {util::Seconds(60)};
  cfg.gateway.rtt = std::chrono::microseconds(200);
  rt::ConcurrentApollo apollo(&db_, cfg);
  auto a_read = [](int i) {
    return "SELECT A_ID, A_B_ID FROM A WHERE A_ID = " + std::to_string(i);
  };
  auto b_read = [](int i) {
    return "SELECT B_ID, B_C_ID FROM B WHERE B_ID = " + std::to_string(1000 + i);
  };
  // Learn the A -> B mapping until B becomes an FDQ predicted from A.
  auto& m = apollo.observability().metrics;
  for (int i = 1; i <= 6; ++i) {
    ASSERT_TRUE(apollo.Execute(0, a_read(i)).ok());
    Drain(apollo);
    ASSERT_TRUE(apollo.Execute(0, b_read(i)).ok());
    Drain(apollo);
  }
  ASSERT_GT(m.FindCounter("rt.predictions_issued")->Value(), 0u);

  // B(50) is cached before A(50) makes the engine predict it.
  ASSERT_TRUE(apollo.Execute(1, b_read(50)).ok());
  Drain(apollo);
  const uint64_t issued = m.FindCounter("rt.predictions_issued")->Value();
  const uint64_t skipped = m.FindCounter("rt.predictions_skipped")->Value();
  ASSERT_TRUE(apollo.Execute(1, a_read(50)).ok());
  Drain(apollo);
  EXPECT_EQ(m.FindCounter("rt.predictions_issued")->Value(), issued);
  EXPECT_EQ(m.FindCounter("rt.predictions_skipped")->Value(), skipped + 1);
  apollo.Shutdown();
}

// --------------------------------------------------------------------------
// Gateway batch semantics
// --------------------------------------------------------------------------

class GatewayBatchTest : public ScalingFixture {};

TEST_F(GatewayBatchTest, BatchDemultiplexesPerStatementResults) {
  obs::Observability obs;
  rt::DbGateway gw(&db_, {.rtt = std::chrono::microseconds(500)}, &obs);
  std::vector<rt::BatchStatement> stmts;
  for (int i = 1; i <= 4; ++i) {
    rt::BatchStatement st;
    st.sql = "SELECT C_V FROM C WHERE C_ID = " + std::to_string(2000 + i);
    st.tables = {"C"};
    stmts.push_back(std::move(st));
  }
  auto futures = gw.ExecuteBatchAsync(/*pool=*/nullptr, std::move(stmts));
  ASSERT_EQ(futures.size(), 4u);
  for (int i = 1; i <= 4; ++i) {
    rt::RemoteResult rr = futures[i - 1].Take();
    ASSERT_TRUE(rr.result.ok());
    EXPECT_EQ((*rr.result)->At(0, 0).AsInt(), 7 * i);
    EXPECT_EQ(rr.versions.count("C"), 1u);
  }
  // One round trip carried all four statements.
  EXPECT_EQ(obs.metrics.FindCounter("rt.gateway.batches")->Value(), 1u);
  EXPECT_EQ(obs.metrics.FindCounter("rt.gateway.batch_statements")->Value(),
            4u);
  gw.Shutdown();
}

TEST_F(GatewayBatchTest, ReadAfterWriteInSameBatchSeesWrittenData) {
  // Through the heap (rtt 200 us) and due now on the submitting thread
  // (rtt 0) alike.
  for (int rtt_us : {200, 0}) {
    SCOPED_TRACE("rtt_us=" + std::to_string(rtt_us));
    const int64_t value = 4242 + rtt_us;
    rt::DbGateway gw(&db_, {.rtt = std::chrono::microseconds(rtt_us)});
    rt::BatchStatement write;
    write.sql = "UPDATE C SET C_V = " + std::to_string(value) +
                " WHERE C_ID = 2001";
    write.is_write = true;
    write.tables = {"C"};
    rt::BatchStatement read;
    read.sql = "SELECT C_V FROM C WHERE C_ID = 2001";
    read.tables = {"C"};
    std::vector<rt::BatchStatement> stmts;
    stmts.push_back(std::move(write));
    stmts.push_back(std::move(read));
    auto futures = gw.ExecuteBatchAsync(nullptr, std::move(stmts));
    rt::RemoteResult w = futures[0].Take();
    rt::RemoteResult r = futures[1].Take();
    ASSERT_TRUE(w.result.ok());
    ASSERT_TRUE(r.result.ok());
    EXPECT_EQ((*r.result)->At(0, 0).AsInt(), value);
    // The read's stamp covers the in-batch write (it executed after it).
    EXPECT_GE(r.versions.at("C"), w.versions.at("C"));
    gw.Shutdown();
  }
}

TEST_F(GatewayBatchTest, MidBatchFaultFailsOnlyAffectedSubStatements) {
  // Every 3rd statement faults: in a batch of 5 the 3rd statement (global
  // op counter 3) fails while its batch-mates complete normally.
  rt::DbGateway gw(&db_,
                   {.rtt = std::chrono::microseconds(200), .fail_every_n = 3});
  std::vector<rt::BatchStatement> stmts;
  for (int i = 1; i <= 5; ++i) {
    rt::BatchStatement st;
    st.sql = "SELECT C_V FROM C WHERE C_ID = " + std::to_string(2000 + i);
    st.tables = {"C"};
    stmts.push_back(std::move(st));
  }
  auto futures = gw.ExecuteBatchAsync(nullptr, std::move(stmts));
  int failed = 0;
  for (int i = 0; i < 5; ++i) {
    rt::RemoteResult rr = futures[i].Take();
    if (i == 2) {  // statement 3 of 5
      EXPECT_FALSE(rr.result.ok());
      EXPECT_EQ(rr.result.status().code(), util::StatusCode::kUnavailable);
      ++failed;
    } else {
      EXPECT_TRUE(rr.result.ok()) << "statement " << i;
      EXPECT_EQ((*rr.result)->At(0, 0).AsInt(), 7 * (i + 1));
    }
  }
  EXPECT_EQ(failed, 1);
  gw.Shutdown();
}

TEST_F(GatewayBatchTest, ExpiredDeadlineFailsWholeBatchFast) {
  rt::DbGateway gw(&db_, {.rtt = std::chrono::milliseconds(50)});
  std::vector<rt::BatchStatement> stmts(3);
  for (auto& st : stmts) {
    st.sql = "SELECT C_V FROM C WHERE C_ID = 2001";
    st.tables = {"C"};
  }
  const auto t0 = std::chrono::steady_clock::now();
  auto futures = gw.ExecuteBatchAsync(
      nullptr, std::move(stmts),
      std::chrono::steady_clock::now() + std::chrono::microseconds(100));
  for (auto& f : futures) {
    rt::RemoteResult rr = f.Take();
    ASSERT_FALSE(rr.result.ok());
    EXPECT_EQ(rr.result.status().code(),
              util::StatusCode::kDeadlineExceeded);
  }
  // Fail-fast: nowhere near the 50 ms round trip.
  EXPECT_LT(std::chrono::steady_clock::now() - t0,
            std::chrono::milliseconds(25));
  EXPECT_EQ(gw.pending_batches(), 0u);
  gw.Shutdown();
}

TEST_F(GatewayBatchTest, ThenContinuationsRunWithoutBlockingTake) {
  rt::DbGateway gw(&db_, {.rtt = std::chrono::microseconds(300)});
  rt::BatchStatement st;
  st.sql = "SELECT C_V FROM C WHERE C_ID = 2002";
  st.tables = {"C"};
  std::vector<rt::BatchStatement> stmts;
  stmts.push_back(std::move(st));
  std::atomic<int> seen{0};
  auto futures = gw.ExecuteBatchAsync(nullptr, std::move(stmts));
  futures[0].Then([&seen](const rt::RemoteResult& rr) {
    if (rr.result.ok() && (*rr.result)->At(0, 0).AsInt() == 14) seen = 1;
  });
  for (int i = 0; i < 10000 && seen.load() == 0; ++i) {
    std::this_thread::sleep_for(100us);
  }
  EXPECT_EQ(seen.load(), 1);
  gw.Shutdown();
}

// --------------------------------------------------------------------------
// Due now runs now: at rtt 0 a batch completes on the submitting thread.
// --------------------------------------------------------------------------

/// Occupies a one-worker pool's worker until destroyed, so no completion
/// routed through the pool can run meanwhile.
class HeldWorker {
 public:
  explicit HeldWorker(rt::ThreadPool& pool) {
    auto held = std::make_shared<std::latch>(1);
    if (!pool.Submit(rt::TaskClass::kClient,
                     [held, release = release_] {
                       held->count_down();
                       release->wait();
                     })) {
      ADD_FAILURE() << "the pool refused the task holding its worker";
      held->count_down();
    }
    held->wait();
  }
  ~HeldWorker() { release_->count_down(); }

 private:
  std::shared_ptr<std::latch> release_ = std::make_shared<std::latch>(1);
};

TEST_F(GatewayBatchTest, DueNowBatchCompletesOnTheSubmittingThread) {
  rt::ThreadPoolConfig pc;
  pc.num_threads = 1;
  rt::ThreadPool pool(pc);
  rt::DbGateway gw(&db_, {.rtt = std::chrono::microseconds(0)});
  {
    HeldWorker held(pool);
    std::vector<rt::BatchStatement> stmts;
    for (int i = 1; i <= 3; ++i) {
      rt::BatchStatement st;
      st.sql = "SELECT C_V FROM C WHERE C_ID = " + std::to_string(2000 + i);
      st.tables = {"C"};
      stmts.push_back(std::move(st));
    }
    auto futures = gw.ExecuteBatchAsync(&pool, std::move(stmts));
    // With the only pool worker held, a pool or timer hop could not have
    // run yet: every result is in before the call returned.
    for (int i = 1; i <= 3; ++i) {
      ASSERT_TRUE(futures[i - 1].Ready()) << "statement " << i;
      rt::RemoteResult rr = futures[i - 1].Take();
      ASSERT_TRUE(rr.result.ok());
      EXPECT_EQ((*rr.result)->At(0, 0).AsInt(), 7 * i);
    }
    EXPECT_EQ(gw.pending_batches(), 0u);
    EXPECT_EQ(gw.batches_accepted(), 1u);
    EXPECT_EQ(gw.batches_completed(), 1u);
  }
  gw.Shutdown();
  pool.Shutdown();
}

TEST_F(GatewayBatchTest, DueNowBatchAfterShutdownFailsUnavailable) {
  rt::DbGateway gw(&db_, {.rtt = std::chrono::microseconds(0)});
  gw.Shutdown();
  const uint64_t version = db_.TableVersion("C");
  std::vector<rt::BatchStatement> stmts(1);
  stmts[0].sql = "UPDATE C SET C_V = 1 WHERE C_ID = 2004";
  stmts[0].is_write = true;
  stmts[0].tables = {"C"};
  auto futures = gw.ExecuteBatchAsync(nullptr, std::move(stmts));
  rt::RemoteResult rr = futures[0].Take();
  ASSERT_FALSE(rr.result.ok());
  EXPECT_EQ(rr.result.status().code(), util::StatusCode::kUnavailable);
  // Nothing ran: the row and the table version are as before.
  auto check = db_.Execute("SELECT C_V FROM C WHERE C_ID = 2004");
  ASSERT_TRUE(check.ok());
  EXPECT_EQ((*check)->At(0, 0).AsInt(), 28);
  EXPECT_EQ(db_.TableVersion("C"), version);
  EXPECT_EQ(gw.batches_accepted(), 0u);
}

TEST_F(GatewayBatchTest, BatchWithRoundTripLeftStillGoesThroughHeapAndPool) {
  rt::ThreadPoolConfig pc;
  pc.num_threads = 1;
  rt::ThreadPool pool(pc);
  rt::DbGateway gw(&db_, {.rtt = std::chrono::microseconds(300)});
  std::vector<rt::Future<rt::RemoteResult>> futures;
  {
    HeldWorker held(pool);
    std::vector<rt::BatchStatement> stmts(2);
    for (auto& st : stmts) {
      st.sql = "SELECT C_V FROM C WHERE C_ID = 2005";
      st.tables = {"C"};
    }
    futures = gw.ExecuteBatchAsync(&pool, std::move(stmts));
    // The completion needs the held worker, however long this thread
    // is descheduled: nothing can be ready yet.
    for (const auto& f : futures) EXPECT_FALSE(f.Ready());
    EXPECT_EQ(gw.batches_accepted(), 1u);
    EXPECT_EQ(gw.batches_completed(), 0u);
  }
  for (auto& f : futures) {
    rt::RemoteResult rr = f.Take();
    ASSERT_TRUE(rr.result.ok());
    EXPECT_EQ((*rr.result)->At(0, 0).AsInt(), 35);
  }
  gw.Shutdown();
  pool.Shutdown();
  EXPECT_EQ(gw.batches_completed(), 1u);
}

// --------------------------------------------------------------------------
// Contention suites (8 threads; run under TSan via check.sh --thread)
// --------------------------------------------------------------------------

class ShardContentionTest : public ScalingFixture {};

TEST_F(ShardContentionTest, EightThreadsLearnAcrossShardsConcurrently) {
  rt::ConcurrentApolloConfig cfg;
  cfg.apollo.verification_period = 2;
  cfg.pool.num_threads = 8;
  cfg.pool.queue_capacity = 512;
  cfg.gateway.rtt = std::chrono::microseconds(200);
  rt::ConcurrentApollo apollo(&db_, cfg);
  // Session ids t % 4 + kLearnShards * (t / 4): 8 sessions over 4 learn
  // shards, two per shard, so there is in-shard contention too.
  constexpr auto kShards =
      static_cast<core::ClientId>(rt::ConcurrentApollo::kLearnShards);

  constexpr int kThreads = 8;
  constexpr int kRounds = 12;
  std::atomic<int> failures{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      const core::ClientId client = t % 4 + kShards * (t / 4);
      for (int round = 1; round <= kRounds; ++round) {
        const int i = 20 * t + round;
        for (const std::string& sql :
             {"SELECT A_ID, A_B_ID FROM A WHERE A_ID = " + std::to_string(i),
              "SELECT B_ID, B_C_ID FROM B WHERE B_ID = " +
                  std::to_string(1000 + i),
              "SELECT C_V FROM C WHERE C_ID = " + std::to_string(2000 + i)}) {
          if (!apollo.Execute(client, sql).ok()) failures.fetch_add(1);
        }
        if (round % 4 == 0) {
          if (!apollo
                   .Execute(client, "UPDATE C SET C_V = 1 WHERE C_ID = " +
                                        std::to_string(2000 + i))
                   .ok()) {
            failures.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(failures.load(), 0);
  auto& m = apollo.observability().metrics;
  EXPECT_EQ(m.FindCounter("rt.queries")->Value(),
            static_cast<uint64_t>(kThreads * kRounds * 3 + kThreads * 3));
  // The per-shard wait histograms saw the shared shards' acquisitions and
  // the aggregate saw every acquisition.
  EXPECT_GT(
      m.FindHistogram("rt.latency.learn_shard0.lock_wait_wall_us")->Count(),
      0u);
  EXPECT_GT(
      m.FindHistogram("rt.latency.learn_lock_wait_wall_us")->Count(), 0u);
  apollo.Shutdown();
}

class GatewayBatchContentionTest : public ScalingFixture {};

TEST_F(GatewayBatchContentionTest, ConcurrentBatchesAllComplete) {
  rt::ThreadPoolConfig pc;
  pc.num_threads = 4;
  pc.queue_capacity = 256;
  rt::ThreadPool pool(pc);
  rt::DbGateway gw(&db_, {.rtt = std::chrono::microseconds(300)});

  constexpr int kThreads = 8;
  constexpr int kBatchesEach = 10;
  std::atomic<int> failures{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int b = 0; b < kBatchesEach; ++b) {
        std::vector<rt::BatchStatement> stmts;
        const int n = 1 + (t + b) % 4;
        for (int i = 0; i < n; ++i) {
          rt::BatchStatement st;
          const int id = 2001 + (t * 17 + b * 3 + i) % 200;
          st.sql = "SELECT C_V FROM C WHERE C_ID = " + std::to_string(id);
          st.tables = {"C"};
          stmts.push_back(std::move(st));
        }
        auto futures = gw.ExecuteBatchAsync(&pool, std::move(stmts),
                                            rt::kNoDeadline,
                                            static_cast<uint64_t>(t));
        for (auto& f : futures) {
          rt::RemoteResult rr = f.Take();
          if (!rr.result.ok()) failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(gw.pending_batches(), 0u);
  gw.Shutdown();
  pool.Shutdown();
}

}  // namespace
}  // namespace apollo
