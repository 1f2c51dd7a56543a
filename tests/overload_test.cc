// Tests for overload control & graceful brownout (DESIGN.md Section 12):
// BrownoutController level machine + hysteresis, utility-gated shedding,
// SessionFairQueue round-robin semantics, deadline-aware admission,
// gateway fault injection, serve-stale-within-bound, and an 8-thread
// fault-injection soak that asserts per-session read-your-writes at every
// brownout level. The *ContentionTest and *SoakTest suites are in the TSan
// filter of tools/check.sh --thread.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "cache/kv_cache.h"
#include "cache/version_vector.h"
#include "common/result_set.h"
#include "db/database.h"
#include "rt/concurrent_apollo.h"
#include "rt/fair_queue.h"
#include "rt/overload.h"
#include "rt/thread_pool.h"
#include "util/status.h"

namespace apollo {
namespace {

using std::chrono::microseconds;
using std::chrono::milliseconds;

rt::OverloadConfig PinnedConfig() {
  // Interval so long the control loop never fires during a test: the
  // level stays wherever ForceLevel pinned it.
  rt::OverloadConfig cfg;
  cfg.enabled = true;
  cfg.interval = microseconds(3'600'000'000LL);
  return cfg;
}

// --------------------------------------------------------------------------
// BrownoutController: level machine, hysteresis, utility shedding
// --------------------------------------------------------------------------

TEST(BrownoutControllerTest, StartsNormalAndGatesFollowLevel) {
  rt::BrownoutController ctl(PinnedConfig());
  EXPECT_EQ(ctl.level(), rt::BrownoutLevel::kNormal);
  EXPECT_TRUE(ctl.AllowSpeculation());
  EXPECT_FALSE(ctl.ShedAdqReloads());
  EXPECT_FALSE(ctl.ServeStaleAllowed());
  EXPECT_FALSE(ctl.RejectClient());
  EXPECT_FALSE(ctl.DeferCheckpoints());

  ctl.ForceLevel(rt::BrownoutLevel::kShedLowUtility);
  EXPECT_TRUE(ctl.AllowSpeculation());

  ctl.ForceLevel(rt::BrownoutLevel::kShedAllSpeculation);
  EXPECT_FALSE(ctl.AllowSpeculation());
  EXPECT_TRUE(ctl.ShedAdqReloads());
  EXPECT_TRUE(ctl.DeferCheckpoints());
  EXPECT_FALSE(ctl.ServeStaleAllowed());

  ctl.ForceLevel(rt::BrownoutLevel::kServeStale);
  EXPECT_TRUE(ctl.ServeStaleAllowed());
  EXPECT_FALSE(ctl.RejectClient());

  ctl.ForceLevel(rt::BrownoutLevel::kReject);
  EXPECT_TRUE(ctl.RejectClient());
  EXPECT_TRUE(ctl.ServeStaleAllowed());
}

TEST(BrownoutControllerTest, ForceLevelStepsOneLevelAtATime) {
  rt::BrownoutController ctl(PinnedConfig());
  ctl.ForceLevel(rt::BrownoutLevel::kReject);
  EXPECT_EQ(ctl.level(), rt::BrownoutLevel::kReject);
  EXPECT_EQ(ctl.level_ups(), 4u);  // 0->1->2->3->4, never a skip
  ctl.ForceLevel(rt::BrownoutLevel::kNormal);
  EXPECT_EQ(ctl.level(), rt::BrownoutLevel::kNormal);
  EXPECT_EQ(ctl.level_downs(), 4u);
}

TEST(BrownoutControllerTest, EscalatesUnderStandingSojourn) {
  rt::OverloadConfig cfg;
  cfg.enabled = true;
  cfg.target_sojourn = microseconds(2000);
  cfg.relief_sojourn = microseconds(500);
  cfg.interval = microseconds(1000);
  cfg.deescalate_dwell = microseconds(50'000);
  rt::BrownoutController ctl(cfg);

  // Standing sojourn far above target: one escalation per elapsed
  // interval, up to the reject ceiling.
  auto deadline = std::chrono::steady_clock::now() + milliseconds(500);
  while (ctl.level() != rt::BrownoutLevel::kReject &&
         std::chrono::steady_clock::now() < deadline) {
    ctl.RecordSojourn(10'000);
    std::this_thread::sleep_for(microseconds(200));
  }
  EXPECT_EQ(ctl.level(), rt::BrownoutLevel::kReject);
  EXPECT_EQ(ctl.level_ups(), 4u);
  EXPECT_EQ(ctl.level_downs(), 0u);
}

TEST(BrownoutControllerTest, DeescalatesOnlyAfterCalmDwell) {
  rt::OverloadConfig cfg;
  cfg.enabled = true;
  cfg.target_sojourn = microseconds(2000);
  cfg.relief_sojourn = microseconds(500);
  cfg.interval = microseconds(1000);
  cfg.deescalate_dwell = microseconds(40'000);
  rt::BrownoutController ctl(cfg);

  auto escalate_deadline =
      std::chrono::steady_clock::now() + milliseconds(500);
  while (ctl.level() < rt::BrownoutLevel::kShedAllSpeculation &&
         std::chrono::steady_clock::now() < escalate_deadline) {
    ctl.RecordSojourn(10'000);
    std::this_thread::sleep_for(microseconds(200));
  }
  ASSERT_GE(ctl.level(), rt::BrownoutLevel::kShedAllSpeculation);
  const uint64_t ups = ctl.level_ups();

  // Calm traffic: de-escalation happens, but each step must wait out the
  // dwell — verify both recovery and pacing.
  const auto calm_start = std::chrono::steady_clock::now();
  auto relax_deadline = calm_start + milliseconds(2000);
  while (ctl.level() != rt::BrownoutLevel::kNormal &&
         std::chrono::steady_clock::now() < relax_deadline) {
    ctl.RecordSojourn(50);
    std::this_thread::sleep_for(microseconds(200));
  }
  const auto calm_elapsed = std::chrono::steady_clock::now() - calm_start;
  EXPECT_EQ(ctl.level(), rt::BrownoutLevel::kNormal);
  EXPECT_EQ(ctl.level_ups(), ups);  // no flapping while calm
  EXPECT_EQ(ctl.level_downs(), ups);
  // At least one dwell per downward step.
  EXPECT_GE(calm_elapsed, microseconds(40'000) * static_cast<int>(ups));
}

TEST(BrownoutControllerTest, UtilityFloorShedsBottomFraction) {
  rt::OverloadConfig cfg = PinnedConfig();
  cfg.shed_fraction = 0.5;
  cfg.utility_window = 100;
  rt::BrownoutController ctl(cfg);

  for (int i = 1; i <= 100; ++i) ctl.RecordUtility(static_cast<double>(i));

  // Below kShedLowUtility nothing is shed, whatever the utility.
  EXPECT_FALSE(ctl.ShouldShedPrediction(1.0));

  ctl.ForceLevel(rt::BrownoutLevel::kShedLowUtility);
  EXPECT_TRUE(ctl.ShouldShedPrediction(5.0));     // bottom half: shed
  EXPECT_FALSE(ctl.ShouldShedPrediction(95.0));   // top half: kept
  const double floor = ctl.utility_floor();
  EXPECT_GT(floor, 25.0);
  EXPECT_LT(floor, 75.0);

  // Above kShedLowUtility the caller gates on AllowSpeculation, but the
  // shed decision is still total.
  ctl.ForceLevel(rt::BrownoutLevel::kShedAllSpeculation);
  EXPECT_TRUE(ctl.ShouldShedPrediction(1e9));
}

// 8-thread contention: writers feed sojourns/utilities and pin levels
// while readers hammer the lock-free gates. Run under TSan via
// tools/check.sh --thread; the end-state invariant (ups - downs == level)
// catches lost transitions.
TEST(BrownoutContentionTest, ConcurrentFeedsAndGatesKeepInvariants) {
  rt::OverloadConfig cfg;
  cfg.enabled = true;
  cfg.target_sojourn = microseconds(1000);
  cfg.relief_sojourn = microseconds(200);
  cfg.interval = microseconds(500);
  cfg.deescalate_dwell = microseconds(2000);
  cfg.utility_window = 64;
  rt::BrownoutController ctl(cfg);

  constexpr int kThreads = 8;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> gate_reads{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      uint64_t local = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        switch (t % 4) {
          case 0:  // hot sojourns
            ctl.RecordSojourn(5000 + (local % 1000));
            break;
          case 1:  // calm sojourns
            ctl.RecordSojourn(10 + (local % 50));
            break;
          case 2:  // utilities + shed decisions
            ctl.RecordUtility(static_cast<double>(local % 1000));
            (void)ctl.ShouldShedPrediction(static_cast<double>(local % 997));
            break;
          default:  // gate readers
            if (ctl.AllowSpeculation()) ++local;
            if (ctl.ServeStaleAllowed()) ++local;
            if (ctl.RejectClient()) ++local;
            (void)ctl.utility_floor();
            break;
        }
        ++local;
      }
      gate_reads.fetch_add(local);
    });
  }
  std::this_thread::sleep_for(milliseconds(200));
  stop.store(true);
  for (auto& th : threads) th.join();

  const int level = static_cast<int>(ctl.level());
  EXPECT_GE(level, 0);
  EXPECT_LE(level, 4);
  EXPECT_EQ(ctl.level_ups() - ctl.level_downs(),
            static_cast<uint64_t>(level));
  EXPECT_GT(gate_reads.load(), 0u);
}

// --------------------------------------------------------------------------
// SessionFairQueue
// --------------------------------------------------------------------------

TEST(FairQueueTest, PerSessionFifoRoundRobinAcrossSessions) {
  rt::SessionFairQueue<int> q(64);
  // Hot session 1 floods first; sessions 2 and 3 then queue one item each.
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(q.TryPush(1, 100 + i));
  ASSERT_TRUE(q.TryPush(2, 200));
  ASSERT_TRUE(q.TryPush(3, 300));
  EXPECT_EQ(q.active_sessions(), 3u);

  // Fairness contract: the single-item sessions are served within the
  // first round (3 pops), not behind session 1's backlog.
  std::vector<int> first3;
  for (int i = 0; i < 3; ++i) {
    int v = 0;
    ASSERT_TRUE(q.Pop(&v));
    first3.push_back(v);
  }
  EXPECT_NE(std::find(first3.begin(), first3.end(), 200), first3.end());
  EXPECT_NE(std::find(first3.begin(), first3.end(), 300), first3.end());

  // Remaining pops drain session 1 in FIFO order.
  int expect = 0;
  for (int v : first3) {
    if (v >= 100 && v < 200) expect = v + 1;
  }
  if (expect == 0) expect = 100;
  int v = 0;
  while (q.size() > 0) {
    ASSERT_TRUE(q.Pop(&v));
    EXPECT_EQ(v, expect);
    ++expect;
  }
  EXPECT_EQ(expect, 110);
}

TEST(FairQueueTest, TryPushRespectsGlobalCapacity) {
  rt::SessionFairQueue<int> q(2);
  EXPECT_TRUE(q.TryPush(1, 1));
  EXPECT_TRUE(q.TryPush(2, 2));
  EXPECT_FALSE(q.TryPush(3, 3));  // capacity is global across sessions
  int v = 0;
  ASSERT_TRUE(q.Pop(&v));
  EXPECT_TRUE(q.TryPush(3, 3));
}

TEST(FairQueueTest, CloseDrainsThenStops) {
  rt::SessionFairQueue<int> q(8);
  ASSERT_TRUE(q.TryPush(7, 42));
  q.Close();
  EXPECT_FALSE(q.Push(9, 43));
  int v = 0;
  EXPECT_TRUE(q.Pop(&v));  // queued item still delivered
  EXPECT_EQ(v, 42);
  EXPECT_FALSE(q.Pop(&v));  // closed and drained
}

// 4 producers (distinct sessions) x 4 consumers; every item delivered
// exactly once and each session's sequence numbers arrive without gaps
// when re-sorted per consumer. Run under TSan.
TEST(FairQueueContentionTest, ManyProducersManyConsumersDeliverAll) {
  constexpr int kProducers = 4;
  constexpr int kConsumers = 4;
  constexpr int kPerProducer = 2000;
  rt::SessionFairQueue<std::pair<uint64_t, int>> q(128);

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(q.Push(static_cast<uint64_t>(p), {p, i}));
      }
    });
  }

  std::mutex agg_mu;
  std::unordered_map<uint64_t, std::vector<int>> delivered;
  std::vector<std::thread> consumers;
  for (int c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&] {
      std::pair<uint64_t, int> item;
      std::unordered_map<uint64_t, std::vector<int>> local;
      while (q.Pop(&item)) local[item.first].push_back(item.second);
      std::lock_guard<std::mutex> lock(agg_mu);
      for (auto& [s, v] : local) {
        delivered[s].insert(delivered[s].end(), v.begin(), v.end());
      }
    });
  }

  for (auto& t : producers) t.join();
  q.Close();
  for (auto& t : consumers) t.join();

  ASSERT_EQ(delivered.size(), static_cast<size_t>(kProducers));
  for (auto& [s, v] : delivered) {
    ASSERT_EQ(v.size(), static_cast<size_t>(kPerProducer)) << "session " << s;
    std::sort(v.begin(), v.end());
    for (int i = 0; i < kPerProducer; ++i) {
      ASSERT_EQ(v[i], i) << "session " << s;  // exactly once, no loss
    }
  }
}

TEST(FairQueueContentionTest, ThreadPoolRunsFairFeed) {
  rt::ThreadPoolConfig cfg;
  cfg.num_threads = 4;
  cfg.queue_capacity = 64;
  std::atomic<uint64_t> sojourns{0};
  cfg.sojourn_callback = [&](int64_t us) {
    EXPECT_GE(us, 0);
    sojourns.fetch_add(1);
  };
  std::atomic<int> ran{0};
  {
    rt::ThreadPool pool(cfg);
    for (int i = 0; i < 200; ++i) {
      pool.Submit(rt::TaskClass::kClient, /*session=*/i % 8,
                  [&] { ran.fetch_add(1); });
    }
    pool.Shutdown();
  }
  EXPECT_EQ(ran.load(), 200);
  EXPECT_EQ(sojourns.load(), 200u);
}

// --------------------------------------------------------------------------
// Deadline-aware admission + gateway fault injection
// --------------------------------------------------------------------------

class OverloadApolloTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db::Schema s("KV", {{"ID", common::ValueType::kInt},
                        {"V", common::ValueType::kInt}});
    s.AddIndex("PRIMARY", {"ID"});
    ASSERT_TRUE(db_.CreateTable(std::move(s)).ok());
    for (int i = 0; i < 32; ++i) {
      ASSERT_TRUE(db_.GetTable("KV")
                      ->Insert({common::Value::Int(i), common::Value::Int(0)})
                      .ok());
    }
  }

  rt::ConcurrentApolloConfig Config(microseconds rtt) {
    rt::ConcurrentApolloConfig cfg;
    cfg.pool.num_threads = 4;
    cfg.pool.queue_capacity = 64;
    cfg.gateway.rtt = rtt;
    cfg.overload = PinnedConfig();
    return cfg;
  }

  db::Database db_;
};

TEST_F(OverloadApolloTest, ExpiredDeadlineFailsFastWithoutPayingRtt) {
  rt::ConcurrentApollo apollo(&db_, Config(milliseconds(100)));
  const auto start = std::chrono::steady_clock::now();
  auto rs = apollo.Execute(1, "SELECT V FROM KV WHERE ID = 1",
                           std::chrono::steady_clock::now() - milliseconds(1));
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_FALSE(rs.ok());
  EXPECT_EQ(rs.status().code(), util::StatusCode::kDeadlineExceeded);
  // Fail-fast: far less than the 100 ms round trip.
  EXPECT_LT(elapsed, milliseconds(50));
  EXPECT_EQ(apollo.observability()
                .metrics.RegisterCounter("rt.overload.deadline_missed")
                ->Value(),
            1u);
}

TEST_F(OverloadApolloTest, DefaultDeadlineStampedWhenConfigured) {
  auto cfg = Config(milliseconds(50));
  cfg.overload.default_deadline = microseconds(100);  // << rtt
  rt::ConcurrentApollo apollo(&db_, cfg);
  auto rs = apollo.Execute(1, "SELECT V FROM KV WHERE ID = 2");
  ASSERT_FALSE(rs.ok());
  EXPECT_EQ(rs.status().code(), util::StatusCode::kDeadlineExceeded);
}

TEST_F(OverloadApolloTest, GatewayFaultInjectionFailsEveryNth) {
  auto cfg = Config(microseconds(100));
  cfg.gateway.fail_every_n = 3;
  cfg.apollo.enable_prediction = false;  // every Execute = one gateway op
  rt::ConcurrentApollo apollo(&db_, cfg);
  int unavailable = 0;
  for (int i = 0; i < 9; ++i) {
    auto rs = apollo.Execute(1, "UPDATE KV SET V = " + std::to_string(i) +
                                    " WHERE ID = 5");
    if (!rs.ok()) {
      EXPECT_EQ(rs.status().code(), util::StatusCode::kUnavailable);
      ++unavailable;
    }
  }
  EXPECT_EQ(unavailable, 3);  // ops 3, 6, 9
}

TEST_F(OverloadApolloTest, RejectLevelRefusesNewQueries) {
  rt::ConcurrentApollo apollo(&db_, Config(microseconds(200)));
  ASSERT_NE(apollo.brownout(), nullptr);
  apollo.brownout()->ForceLevel(rt::BrownoutLevel::kReject);
  auto rs = apollo.Execute(1, "SELECT V FROM KV WHERE ID = 3");
  ASSERT_FALSE(rs.ok());
  EXPECT_EQ(rs.status().code(), util::StatusCode::kUnavailable);
  apollo.brownout()->ForceLevel(rt::BrownoutLevel::kNormal);
  EXPECT_TRUE(apollo.Execute(1, "SELECT V FROM KV WHERE ID = 3").ok());
}

TEST_F(OverloadApolloTest, ServeStaleBoundedAndReadYourWrites) {
  auto cfg = Config(microseconds(500));
  cfg.overload.stale_bound = milliseconds(10'000);
  rt::ConcurrentApollo apollo(&db_, cfg);

  // Session 1 caches row 7; session 2's write elsewhere advances the KV
  // table version past the cached stamp once session 1 observes it.
  auto r1 = apollo.Execute(1, "SELECT V FROM KV WHERE ID = 7");
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(apollo.Execute(2, "UPDATE KV SET V = 99 WHERE ID = 8").ok());
  ASSERT_TRUE(apollo.Execute(1, "SELECT V FROM KV WHERE ID = 8").ok());

  // At kServeStale the old row-7 entry is served despite failing session
  // freshness (monotonic reads relaxed; session 1 never wrote KV).
  apollo.brownout()->ForceLevel(rt::BrownoutLevel::kServeStale);
  auto stale = apollo.Execute(1, "SELECT V FROM KV WHERE ID = 7");
  ASSERT_TRUE(stale.ok());
  EXPECT_EQ((*stale)->At(0, 0).AsInt(), 0);
  EXPECT_GE(apollo.observability()
                .metrics.RegisterCounter("rt.overload.stale_served")
                ->Value(),
            1u);

  // Read-your-writes still holds stale: after session 1 itself writes KV,
  // the pre-write entry may no longer be served.
  ASSERT_TRUE(apollo.Execute(1, "UPDATE KV SET V = 5 WHERE ID = 9").ok());
  const uint64_t stale_before = apollo.observability()
                                    .metrics
                                    .RegisterCounter("rt.overload.stale_served")
                                    ->Value();
  auto fresh = apollo.Execute(1, "SELECT V FROM KV WHERE ID = 7");
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(apollo.observability()
                .metrics.RegisterCounter("rt.overload.stale_served")
                ->Value(),
            stale_before);  // not served from the stale path
  apollo.brownout()->ForceLevel(rt::BrownoutLevel::kNormal);
}

TEST(KvCacheStaleTest, GetStaleWithinHonorsFloorAndAgeBound) {
  cache::KvCache kv(1 << 20, 1);
  auto rs = std::make_shared<common::ResultSet>();
  cache::VersionVector stamp;
  stamp.AdvanceTo("KV", 5);
  kv.Put("k", rs, stamp, false, 0, /*put_time_us=*/1000);

  cache::VersionVector empty_floor;
  // Fresh enough + empty floor: served.
  EXPECT_TRUE(kv.GetStaleWithin("k", empty_floor, {"KV"}, 500).has_value());
  // Entry older than the age bound: refused.
  EXPECT_FALSE(kv.GetStaleWithin("k", empty_floor, {"KV"}, 2000).has_value());
  // Floor above the entry's stamp (session wrote KV@6): refused.
  cache::VersionVector floor;
  floor.AdvanceTo("KV", 6);
  EXPECT_FALSE(kv.GetStaleWithin("k", floor, {"KV"}, 500).has_value());
  // put_time 0 entries are never served stale.
  kv.Put("k0", rs, stamp, false, 0, /*put_time_us=*/0);
  EXPECT_FALSE(kv.GetStaleWithin("k0", empty_floor, {"KV"}, 0).has_value());
}

// --------------------------------------------------------------------------
// Fault-injection + overload soak: read-your-writes at every level
// --------------------------------------------------------------------------

// 8 session threads each own one row and bump a private counter through
// the full middleware while (a) the gateway injects a transport fault
// every 7th op and (b) a cycler walks the brownout ladder 0->4->0. Every
// failure mode (injected fault, deadline, reject) fires before the DB op
// runs, so each thread knows the exact durable value of its row; every
// successful read must return it — per-session version-vector consistency
// (read-your-writes) at every brownout level, stale serving included.
// APOLLO_SOAK_MS extends the run (tools/check.sh --stress sets it).
TEST(OverloadSoakTest, ReadYourWritesHeldAtEveryBrownoutLevel) {
  int soak_ms = 2000;
  if (const char* env = std::getenv("APOLLO_SOAK_MS")) {
    soak_ms = std::max(100, std::atoi(env));
  }

  db::Database db;
  db::Schema s("KV", {{"ID", common::ValueType::kInt},
                      {"V", common::ValueType::kInt}});
  s.AddIndex("PRIMARY", {"ID"});
  ASSERT_TRUE(db.CreateTable(std::move(s)).ok());
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(db.GetTable("KV")
                    ->Insert({common::Value::Int(i), common::Value::Int(0)})
                    .ok());
  }

  rt::ConcurrentApolloConfig cfg;
  cfg.pool.num_threads = 4;
  cfg.pool.queue_capacity = 128;
  cfg.gateway.rtt = microseconds(500);
  cfg.gateway.fail_every_n = 7;
  cfg.overload = PinnedConfig();  // huge interval: cycler owns the level
  cfg.overload.default_deadline = microseconds(200'000);
  cfg.overload.stale_bound = milliseconds(5000);
  rt::ConcurrentApollo apollo(&db, cfg);
  ASSERT_NE(apollo.brownout(), nullptr);

  constexpr int kSessions = 8;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> violations{0};
  std::atomic<uint64_t> unexpected_errors{0};
  std::atomic<uint64_t> reads_ok{0};
  std::atomic<uint64_t> writes_ok{0};

  std::thread cycler([&] {
    static constexpr rt::BrownoutLevel kLadder[] = {
        rt::BrownoutLevel::kNormal,         rt::BrownoutLevel::kShedLowUtility,
        rt::BrownoutLevel::kShedAllSpeculation,
        rt::BrownoutLevel::kServeStale,     rt::BrownoutLevel::kReject,
        rt::BrownoutLevel::kServeStale,
        rt::BrownoutLevel::kShedAllSpeculation,
        rt::BrownoutLevel::kShedLowUtility};
    size_t i = 0;
    while (!stop.load()) {
      apollo.brownout()->ForceLevel(kLadder[i % (sizeof(kLadder) /
                                                 sizeof(kLadder[0]))]);
      ++i;
      std::this_thread::sleep_for(milliseconds(40));
    }
    apollo.brownout()->ForceLevel(rt::BrownoutLevel::kNormal);
  });

  std::vector<std::thread> workers;
  for (int w = 0; w < kSessions; ++w) {
    workers.emplace_back([&, w] {
      const core::ClientId client = w + 1;
      const std::string where = " WHERE ID = " + std::to_string(w);
      int64_t expected = 0;  // durable value of this session's row
      uint64_t iter = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        ++iter;
        if (iter % 5 == 0) {
          const int64_t next = expected + 1;
          auto rs = apollo.Execute(
              client, "UPDATE KV SET V = " + std::to_string(next) + where);
          if (rs.ok()) {
            expected = next;  // write durably applied
          } else if (!rs.status().IsRetryable()) {
            unexpected_errors.fetch_add(1);
          }
          // Retryable failure: admission/injection fired before the DB op
          // ran, so the durable value is unchanged.
        } else {
          auto rs = apollo.Execute(client, "SELECT V FROM KV" + where);
          if (rs.ok()) {
            reads_ok.fetch_add(1);
            if ((*rs)->At(0, 0).AsInt() != expected) {
              violations.fetch_add(1);
            }
          } else if (!rs.status().IsRetryable()) {
            unexpected_errors.fetch_add(1);
          }
        }
      }
      // Final check at kNormal: the middleware's view converged to the
      // session's durable counter.
      for (int attempt = 0; attempt < 50; ++attempt) {
        auto rs = apollo.Execute(client, "SELECT V FROM KV" + where);
        if (!rs.ok()) {
          // The cycler may not have restored kNormal yet; back off.
          std::this_thread::sleep_for(milliseconds(10));
          continue;
        }
        if ((*rs)->At(0, 0).AsInt() != expected) violations.fetch_add(1);
        writes_ok.fetch_add(expected > 0 ? 1 : 0);
        break;
      }
    });
  }

  std::this_thread::sleep_for(milliseconds(soak_ms));
  stop.store(true);
  cycler.join();
  for (auto& t : workers) t.join();

  EXPECT_EQ(violations.load(), 0u)
      << "read-your-writes violated under brownout";
  EXPECT_EQ(unexpected_errors.load(), 0u);
  EXPECT_GT(reads_ok.load(), 0u);
  EXPECT_GT(writes_ok.load(), 0u);  // every session committed >= 1 write
}

}  // namespace
}  // namespace apollo
