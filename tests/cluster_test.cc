// Tests for the multi-edge deployment layer (src/cluster/): rendezvous
// routing, fault-injectable links, the invalidation fan-out fault matrix
// (duplicates, reordering, crash mid-fan-out, partitions), gossip
// warm-start with corruption tolerance, and 8-thread contention suites
// for the router + fan-out. Run under TSan via tools/check.sh thread.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cluster/edge_cluster.h"
#include "cluster/edge_link.h"
#include "cluster/session_router.h"
#include "db/database.h"
#include "persist/snapshot.h"

namespace apollo {
namespace {

// --------------------------------------------------------------------------
// SessionRouter
// --------------------------------------------------------------------------

TEST(SessionRouterTest, DeterministicAndRoughlyBalanced) {
  cluster::SessionRouter r(3, /*seed=*/7);
  const std::vector<bool> all{true, true, true};
  std::vector<int> load(3, 0);
  for (uint64_t s = 0; s < 3000; ++s) {
    const int e = r.Route(s, all);
    ASSERT_GE(e, 0);
    ASSERT_LT(e, 3);
    EXPECT_EQ(e, r.Route(s, all));  // stateless + deterministic
    ++load[static_cast<size_t>(e)];
  }
  for (int e = 0; e < 3; ++e) {
    EXPECT_GT(load[static_cast<size_t>(e)], 700);  // ~1000 +- slack
    EXPECT_LT(load[static_cast<size_t>(e)], 1300);
  }
}

TEST(SessionRouterTest, FailoverMovesOnlyTheDeadEdgesSessions) {
  cluster::SessionRouter r(3, /*seed=*/7);
  const std::vector<bool> all{true, true, true};
  std::vector<bool> without1{true, false, true};
  int moved = 0;
  for (uint64_t s = 0; s < 2000; ++s) {
    const int home = r.Route(s, all);
    const int after = r.Route(s, without1);
    if (home == 1) {
      EXPECT_NE(after, 1);
      ++moved;
    } else {
      // Rendezvous property: sessions not homed on the dead edge stay put.
      EXPECT_EQ(after, home);
    }
    // Revival restores the original placement exactly.
    EXPECT_EQ(r.Route(s, all), home);
  }
  EXPECT_GT(moved, 0);
}

TEST(SessionRouterTest, RouteMatchesPreferenceOrder) {
  cluster::SessionRouter r(4, /*seed=*/99);
  for (uint64_t s = 0; s < 200; ++s) {
    const auto order = r.PreferenceOrder(s);
    ASSERT_EQ(order.size(), 4u);
    std::vector<bool> alive(4, true);
    EXPECT_EQ(r.Route(s, alive), order[0]);
    alive[static_cast<size_t>(order[0])] = false;
    EXPECT_EQ(r.Route(s, alive), order[1]);
    EXPECT_EQ(r.Route(s, std::vector<bool>(4, false)), -1);
  }
}

// --------------------------------------------------------------------------
// EdgeLink
// --------------------------------------------------------------------------

TEST(EdgeLinkTest, BackoffPacesRetriesAfterFailure) {
  cluster::EdgeLinkConfig cfg;
  cfg.backoff.initial = util::Millis(10);
  cfg.backoff.jitter = 0.0;
  cluster::EdgeLink link(cfg);
  // Receiver refuses: transport delivered but not acked -> failure.
  EXPECT_EQ(link.TrySend(0, [] { return false; }),
            cluster::EdgeLink::SendOutcome::kFailed);
  // Immediately after, the pacing window rejects without an attempt.
  EXPECT_EQ(link.TrySend(1, [] { return true; }),
            cluster::EdgeLink::SendOutcome::kBackoff);
  EXPECT_EQ(link.attempts(), 1u);
  // Past the delay the attempt goes through.
  EXPECT_EQ(link.TrySend(util::Millis(11), [] { return true; }),
            cluster::EdgeLink::SendOutcome::kSent);
  EXPECT_EQ(link.delivered(), 1u);
}

TEST(EdgeLinkTest, BreakerOpensThenProbeRecloses) {
  cluster::EdgeLinkConfig cfg;
  cfg.breaker.failure_threshold = 3;
  cfg.breaker.cooldown = util::Millis(100);
  cfg.backoff.initial = util::Micros(1);
  cfg.backoff.multiplier = 1.0;
  cfg.backoff.jitter = 0.0;
  cluster::EdgeLink link(cfg);
  util::SimTime now = 0;
  for (int i = 0; i < 3; ++i) {
    now += util::Millis(1);
    EXPECT_EQ(link.TrySend(now, [] { return false; }),
              cluster::EdgeLink::SendOutcome::kFailed);
  }
  EXPECT_EQ(link.breaker_state(), net::CircuitBreaker::State::kOpen);
  EXPECT_EQ(link.TrySend(now + util::Millis(1), [] { return true; }),
            cluster::EdgeLink::SendOutcome::kBreakerOpen);
  // After the cooldown the half-open probe is admitted and, on success,
  // the breaker recloses; traffic flows again.
  EXPECT_EQ(link.TrySend(now + util::Millis(200), [] { return true; }),
            cluster::EdgeLink::SendOutcome::kSent);
  EXPECT_EQ(link.breaker_state(), net::CircuitBreaker::State::kClosed);
  EXPECT_EQ(link.TrySend(now + util::Millis(201), [] { return true; }),
            cluster::EdgeLink::SendOutcome::kSent);
}

TEST(EdgeLinkTest, AckLossDeliversButReportsFailure) {
  cluster::EdgeLinkConfig cfg;
  cfg.ack_loss_rate = 1.0;
  cluster::EdgeLink link(cfg);
  bool delivered = false;
  EXPECT_EQ(link.TrySend(0, [&] {
              delivered = true;
              return true;
            }),
            cluster::EdgeLink::SendOutcome::kFailed);
  // The message landed; the sender just cannot know. Retransmission of
  // the same sequence number is what turns this into a duplicate the
  // receiver absorbs idempotently.
  EXPECT_TRUE(delivered);
  EXPECT_EQ(link.duplicates_forced(), 1u);
}

TEST(EdgeLinkTest, PartitionDropsDeliveries) {
  cluster::EdgeLinkConfig cfg;
  cfg.backoff.initial = util::Micros(1);
  cfg.backoff.multiplier = 1.0;
  cfg.backoff.jitter = 0.0;
  cfg.breaker.failure_threshold = 1 << 30;
  cluster::EdgeLink link(cfg);
  link.set_partitioned(true);
  bool delivered = false;
  EXPECT_EQ(link.TrySend(util::Millis(1),
                         [&] {
                           delivered = true;
                           return true;
                         }),
            cluster::EdgeLink::SendOutcome::kFailed);
  EXPECT_FALSE(delivered);
  link.set_partitioned(false);
  EXPECT_EQ(link.TrySend(util::Millis(10), [] { return true; }),
            cluster::EdgeLink::SendOutcome::kSent);
}

// --------------------------------------------------------------------------
// EdgeCluster
// --------------------------------------------------------------------------

class ClusterTest : public ::testing::Test {
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

  /// Deterministic cluster: no pump thread (tests call PumpOnce), clean
  /// links, short WAN.
  cluster::ClusterConfig Config(size_t edges) {
    cluster::ClusterConfig cfg;
    cfg.num_edges = edges;
    cfg.pump_interval_ms = 0;
    cfg.edge.pool.num_threads = 4;
    cfg.edge.pool.queue_capacity = 64;
    cfg.edge.gateway.rtt = std::chrono::microseconds(100);
    return cfg;
  }

  /// A session id routed to `edge` (and, if `not_edge` >= 0, still routed
  /// to a live edge != that one after `edge` dies — always findable).
  static uint64_t SessionOn(const cluster::EdgeCluster& cl, size_t edge) {
    for (uint64_t s = 1;; ++s) {
      if (cl.RouteOf(s) == static_cast<int>(edge)) return s;
    }
  }

  static int64_t ReadStock(cluster::EdgeCluster& cl, uint64_t sid, int id) {
    auto r = cl.Execute(static_cast<core::ClientId>(sid),
                        "SELECT I_STOCK FROM ITEM WHERE I_ID = " +
                            std::to_string(id));
    EXPECT_TRUE(r.ok());
    if (!r.ok() || (*r)->num_rows() != 1) return -1;
    return (*r)->At(0, 0).AsInt();
  }

  static void WriteStock(cluster::EdgeCluster& cl, uint64_t sid, int id,
                         int64_t v) {
    auto r = cl.Execute(static_cast<core::ClientId>(sid),
                        "UPDATE ITEM SET I_STOCK = " + std::to_string(v) +
                            " WHERE I_ID = " + std::to_string(id));
    ASSERT_TRUE(r.ok());
  }

  static void PumpUntilIdle(cluster::EdgeCluster& cl, int max_rounds = 2000) {
    for (int i = 0; i < max_rounds; ++i) {
      cl.PumpOnce();
      if (cl.ReplicationIdle()) return;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    FAIL() << "replication did not converge";
  }

  /// Polls ReplicationIdle without pumping the links: the edges' runtimes
  /// finish the async completions of the last query first.
  static bool EventuallyIdle(cluster::EdgeCluster& cl) {
    for (int i = 0; i < 2000; ++i) {
      if (cl.ReplicationIdle()) return true;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    return false;
  }

  db::Database db_;
};

TEST_F(ClusterTest, SingleEdgePassthrough) {
  cluster::EdgeCluster cl(&db_, Config(1));
  const uint64_t sid = 1;
  EXPECT_EQ(ReadStock(cl, sid, 5), 50);
  WriteStock(cl, sid, 5, 777);
  EXPECT_EQ(ReadStock(cl, sid, 5), 777);
  // No peers: the invalidation plane has nothing to do.
  EXPECT_EQ(cl.counters(0).invalidations_sent->Value(), 0u);
  EXPECT_TRUE(EventuallyIdle(cl));
}

TEST_F(ClusterTest, InvalidationFanOutBustsRemoteCaches) {
  cluster::EdgeCluster cl(&db_, Config(3));
  const uint64_t writer = SessionOn(cl, 0);
  const uint64_t reader = SessionOn(cl, 1);
  // Reader caches the old value on its own edge.
  EXPECT_EQ(ReadStock(cl, reader, 5), 50);
  EXPECT_EQ(ReadStock(cl, reader, 5), 50);
  WriteStock(cl, writer, 5, 777);
  PumpUntilIdle(cl);
  // The floor now carries ITEM's new version on every edge...
  for (size_t e = 0; e < 3; ++e) {
    EXPECT_GE(cl.FloorOf(e).Get("ITEM"), 1u) << "edge " << e;
  }
  // ...so the reader's cached entry fails the compatibility check and the
  // fresh value comes back.
  EXPECT_EQ(ReadStock(cl, reader, 5), 777);
  EXPECT_GT(cl.counters(1).invalidations_applied->Value(), 0u);
  EXPECT_GT(cl.counters(0).invalidations_sent->Value(), 0u);
}

TEST_F(ClusterTest, PartitionedEdgeFallsBackToVetoThenCatchesUp) {
  cluster::EdgeCluster cl(&db_, Config(3));
  const uint64_t writer = SessionOn(cl, 0);
  const uint64_t reader = SessionOn(cl, 1);
  EXPECT_EQ(ReadStock(cl, reader, 7), 70);
  cl.SetPartitioned(0, 1, true);
  WriteStock(cl, writer, 7, 111);
  // Give the pump a chance to (fail to) deliver across the partition.
  for (int i = 0; i < 20; ++i) cl.PumpOnce();
  // The partitioned reader is allowed its session-consistent cached view
  // (this is the documented degradation: missed invalidations cost
  // freshness, bounded by the session vector, never below it)...
  EXPECT_EQ(ReadStock(cl, reader, 7), 70);
  // ...and the writer always sees its own write.
  EXPECT_EQ(ReadStock(cl, writer, 7), 111);
  cl.SetPartitioned(0, 1, false);
  PumpUntilIdle(cl);
  EXPECT_EQ(ReadStock(cl, reader, 7), 111);
}

TEST_F(ClusterTest, FailoverCarriesReadYourWrites) {
  cluster::EdgeCluster cl(&db_, Config(3));
  const uint64_t sid = SessionOn(cl, 2);
  WriteStock(cl, sid, 9, 444);
  const uint64_t reroutes_before = cl.counters(0).reroutes->Value() +
                                   cl.counters(1).reroutes->Value();
  cl.CrashEdge(2);
  EXPECT_FALSE(cl.alive(2));
  EXPECT_NE(cl.RouteOf(sid), 2);
  // No invalidation ever flowed (the writer crashed before a pump), yet
  // the carried vector forces the new edge past any stale cache state.
  EXPECT_EQ(ReadStock(cl, sid, 9), 444);
  EXPECT_EQ(cl.counters(0).reroutes->Value() +
                cl.counters(1).reroutes->Value(),
            reroutes_before + 1);
}

TEST_F(ClusterTest, DuplicateDeliveryIsIdempotent) {
  cluster::EdgeCluster cl(&db_, Config(3));
  const std::vector<std::pair<std::string, uint64_t>> delta{{"ITEM", 4}};
  EXPECT_TRUE(cl.DeliverInvalidation(1, 0, /*seq=*/5, delta));
  EXPECT_EQ(cl.FloorOf(1).Get("ITEM"), 4u);
  const uint64_t applied = cl.counters(1).invalidations_applied->Value();
  // Exact retransmission: absorbed, counted, floor unchanged.
  EXPECT_TRUE(cl.DeliverInvalidation(1, 0, /*seq=*/5, delta));
  EXPECT_EQ(cl.counters(1).invalidations_duplicate->Value(), 1u);
  EXPECT_EQ(cl.FloorOf(1).Get("ITEM"), 4u);
  EXPECT_EQ(cl.counters(1).invalidation_gaps->Value(), 0u);
  EXPECT_GE(cl.counters(1).invalidations_applied->Value(), applied);
}

TEST_F(ClusterTest, ReorderedDeliveryCountsGapAndStillApplies) {
  cluster::EdgeCluster cl(&db_, Config(3));
  EXPECT_TRUE(cl.DeliverInvalidation(1, 0, /*seq=*/5, {{"ITEM", 2}}));
  // seq 6 lost; seq 7 arrives carrying the union (the protocol always
  // retransmits everything unacked, so later messages subsume lost ones).
  EXPECT_TRUE(cl.DeliverInvalidation(1, 0, /*seq=*/7, {{"ITEM", 6}}));
  EXPECT_EQ(cl.counters(1).invalidation_gaps->Value(), 1u);
  EXPECT_EQ(cl.FloorOf(1).Get("ITEM"), 6u);
  // An old message straggling in after the gap is a duplicate, and the
  // max-merge keeps the floor monotone.
  EXPECT_TRUE(cl.DeliverInvalidation(1, 0, /*seq=*/6, {{"ITEM", 4}}));
  EXPECT_EQ(cl.counters(1).invalidations_duplicate->Value(), 1u);
  EXPECT_EQ(cl.FloorOf(1).Get("ITEM"), 6u);
}

TEST_F(ClusterTest, CrashMidFanOutRetransmitsAfterRejoin) {
  cluster::ClusterConfig cfg = Config(3);
  cfg.gossip_on_restart = false;
  cfg.link.backoff.initial = util::Micros(1);
  cfg.link.backoff.multiplier = 1.0;
  cfg.link.backoff.jitter = 0.0;
  cfg.link.breaker.cooldown = util::Micros(10);
  cluster::EdgeCluster cl(&db_, cfg);
  const uint64_t writer = SessionOn(cl, 0);
  // Receiver dies before the fan-out reaches it: the write's delta stays
  // pending in the sender's outbox (at-least-once survives the crash).
  cl.CrashEdge(2);
  WriteStock(cl, writer, 3, 555);
  for (int i = 0; i < 10; ++i) cl.PumpOnce();
  EXPECT_EQ(cl.FloorOf(2).Get("ITEM"), 0u);
  // Idle deliberately ignores dead peers (a crashed edge would otherwise
  // pin it false forever); the unacked delta survives in the outbox.
  EXPECT_TRUE(EventuallyIdle(cl));
  ASSERT_TRUE(cl.RestartEdge(2, /*warm=*/0).ok());
  PumpUntilIdle(cl);
  EXPECT_GE(cl.FloorOf(2).Get("ITEM"), 1u);
}

TEST_F(ClusterTest, GossipWarmStartTransfersLearnedState) {
  cluster::ClusterConfig cfg = Config(3);
  cfg.link.backoff.initial = util::Micros(1);
  cluster::EdgeCluster cl(&db_, cfg);
  // Teach every surviving edge some templates.
  for (uint64_t s = 1; s <= 60; ++s) {
    (void)cl.Execute(static_cast<core::ClientId>(s),
                     "SELECT I_STOCK FROM ITEM WHERE I_ID = " +
                         std::to_string(s % 100));
  }
  cl.CrashEdge(1);
  persist::RestoreStats stats;
  ASSERT_TRUE(cl.RestartEdge(1, /*warm=*/1, &stats).ok());
  EXPECT_GT(stats.templates, 0u);
  EXPECT_EQ(stats.sections_corrupt, 0u);
  EXPECT_GT(cl.counters(1).gossip_bytes->Value(), 0u);
  // The rejoined edge serves immediately.
  const uint64_t sid = SessionOn(cl, 1);
  EXPECT_EQ(ReadStock(cl, sid, 5), 50);
}

TEST_F(ClusterTest, CorruptGossipSectionIsSkippedNotFatal) {
  cluster::ClusterConfig cfg = Config(3);
  cfg.link.backoff.initial = util::Micros(1);
  // Bit-flip mid-snapshot in transit: lands in some section's payload,
  // whose CRC then fails; the loader must skip it and keep the rest.
  cfg.gossip_mutator = [](std::string* bytes) {
    if (bytes->size() > 64) (*bytes)[bytes->size() / 2] ^= 0x40;
  };
  cluster::EdgeCluster cl(&db_, cfg);
  for (uint64_t s = 1; s <= 60; ++s) {
    (void)cl.Execute(static_cast<core::ClientId>(s),
                     "SELECT I_STOCK FROM ITEM WHERE I_ID = " +
                         std::to_string(s % 100));
  }
  cl.CrashEdge(1);
  persist::RestoreStats stats;
  ASSERT_TRUE(cl.RestartEdge(1, /*warm=*/1, &stats).ok());
  EXPECT_GE(stats.sections_corrupt, 1u);
  EXPECT_GE(stats.sections_loaded, 1u);
  // Still serving, still correct.
  const uint64_t sid = SessionOn(cl, 1);
  WriteStock(cl, sid, 11, 222);
  EXPECT_EQ(ReadStock(cl, sid, 11), 222);
}

TEST_F(ClusterTest, SameEdgeRestartNeverRegressesCarriedVectors) {
  // Regression test: a crash + restart of the same edge between two of a
  // session's queries must not let the fresh runtime's (empty) vector
  // leak back into the session's carried vector. If it does, a later
  // failover to an edge holding a pre-write cached entry — with the
  // invalidation floor blocked by a partition — serves stale.
  db::Schema s("OTHER", {{"O_ID", common::ValueType::kInt},
                         {"O_V", common::ValueType::kInt}});
  s.AddIndex("PRIMARY", {"O_ID"});
  ASSERT_TRUE(db_.CreateTable(std::move(s)).ok());
  ASSERT_TRUE(db_.GetTable("OTHER")
                  ->Insert({common::Value::Int(1), common::Value::Int(1)})
                  .ok());
  cluster::ClusterConfig cfg = Config(2);
  cfg.gossip_on_restart = false;
  cluster::EdgeCluster cl(&db_, cfg);
  const uint64_t writer = SessionOn(cl, 0);
  const uint64_t reader = SessionOn(cl, 1);
  // Edge 1 caches the pre-write row; no pump ever runs, so only the
  // writer's carried vector can keep it honest.
  EXPECT_EQ(ReadStock(cl, reader, 5), 50);
  WriteStock(cl, writer, 5, 777);
  cl.CrashEdge(0);
  ASSERT_TRUE(cl.RestartEdge(0, /*warm=*/0).ok());
  // Same edge, new generation: this query must re-import, and its export
  // (which knows nothing of ITEM) must not lower the carried vector.
  auto r = cl.Execute(static_cast<core::ClientId>(writer),
                      "SELECT O_V FROM OTHER WHERE O_ID = 1");
  ASSERT_TRUE(r.ok());
  cl.CrashEdge(0);
  // Failover lands on the edge with the stale cached entry.
  EXPECT_EQ(ReadStock(cl, writer, 5), 777);
}

TEST_F(ClusterTest, NoLiveEdgeIsTheDesignedReject) {
  cluster::ClusterConfig cfg = Config(2);
  cfg.gossip_on_restart = false;
  cluster::EdgeCluster cl(&db_, cfg);
  cl.CrashEdge(0);
  cl.CrashEdge(1);
  auto r = cl.Execute(1, "SELECT I_STOCK FROM ITEM WHERE I_ID = 1");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), util::StatusCode::kUnavailable);
  ASSERT_TRUE(cl.RestartEdge(0, /*warm=*/0).ok());
  EXPECT_EQ(ReadStock(cl, 1, 1), 10);
}

TEST_F(ClusterTest, RestartOfLiveEdgeRejected) {
  cluster::EdgeCluster cl(&db_, Config(2));
  EXPECT_FALSE(cl.RestartEdge(0).ok());
  cl.CrashEdge(0);
  cl.CrashEdge(0);  // idempotent
  ASSERT_TRUE(cl.RestartEdge(0, /*warm=*/0).ok());
  EXPECT_TRUE(cl.alive(0));
}

TEST_F(ClusterTest, PerEdgeCountersAreRegistered) {
  cluster::EdgeCluster cl(&db_, Config(2));
  auto& m = cl.observability().metrics;
  for (const char* name :
       {"cluster.e0.invalidations_sent", "cluster.e0.invalidations_applied",
        "cluster.e0.invalidations_duplicate", "cluster.e0.invalidation_gaps",
        "cluster.e0.gossip_bytes", "cluster.e0.reroutes",
        "cluster.e1.invalidations_sent", "cluster.e1.queries"}) {
    EXPECT_NE(m.FindCounter(name), nullptr) << name;
  }
}

// --------------------------------------------------------------------------
// Contention suites (8 threads; exercised under TSan by check.sh thread)
// --------------------------------------------------------------------------

TEST(ClusterContentionTest, RouterFanOutSurvivesCrashRestartChurn) {
  db::Database db;
  db::Schema s("ITEM", {{"I_ID", common::ValueType::kInt},
                        {"I_STOCK", common::ValueType::kInt}});
  s.AddIndex("PRIMARY", {"I_ID"});
  ASSERT_TRUE(db.CreateTable(std::move(s)).ok());
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(db.GetTable("ITEM")
                    ->Insert({common::Value::Int(i), common::Value::Int(0)})
                    .ok());
  }
  cluster::ClusterConfig cfg;
  cfg.num_edges = 3;
  cfg.pump_interval_ms = 1;  // background pump races the traffic
  cfg.gossip_on_restart = true;
  cfg.edge.pool.num_threads = 4;
  cfg.edge.pool.queue_capacity = 128;
  cfg.edge.gateway.rtt = std::chrono::microseconds(50);
  cfg.link.backoff.initial = util::Micros(10);
  cfg.link.breaker.cooldown = util::Millis(1);
  cluster::EdgeCluster cl(&db, cfg);

  constexpr int kThreads = 8;
  constexpr int kItersEach = 120;
  std::atomic<uint64_t> errors{0}, ryw_violations{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      // Each thread owns one writer session (disjoint row: read-your-
      // writes must hold through every crash/restart underneath it) and
      // sprays short-lived reader sessions across the router.
      const uint64_t wsid = 1000 + static_cast<uint64_t>(t);
      const int row = t;
      for (int i = 1; i <= kItersEach; ++i) {
        auto w = cl.Execute(static_cast<core::ClientId>(wsid),
                            "UPDATE ITEM SET I_STOCK = " + std::to_string(i) +
                                " WHERE I_ID = " + std::to_string(row));
        if (!w.ok()) {
          errors.fetch_add(1);
          continue;
        }
        auto r = cl.Execute(static_cast<core::ClientId>(wsid),
                            "SELECT I_STOCK FROM ITEM WHERE I_ID = " +
                                std::to_string(row));
        if (!r.ok()) {
          errors.fetch_add(1);
        } else if ((*r)->num_rows() != 1 ||
                   (*r)->At(0, 0).AsInt() != static_cast<int64_t>(i)) {
          ryw_violations.fetch_add(1);
        }
        const uint64_t drive_by =
            10000 + static_cast<uint64_t>(t) * kItersEach +
            static_cast<uint64_t>(i);
        auto d = cl.Execute(static_cast<core::ClientId>(drive_by),
                            "SELECT I_STOCK FROM ITEM WHERE I_ID = " +
                                std::to_string((7 * i + t) % 64));
        if (!d.ok()) errors.fetch_add(1);
      }
    });
  }
  // Churn: repeatedly crash and (gossip-)restart one edge at a time while
  // the 8 driver threads run. Never more than one edge down, so no
  // designed rejects are possible.
  for (int round = 0; round < 6; ++round) {
    const size_t victim = static_cast<size_t>(round) % 3;
    cl.CrashEdge(victim);
    std::this_thread::sleep_for(std::chrono::milliseconds(15));
    ASSERT_TRUE(cl.RestartEdge(victim).ok());
    if (round == 2) cl.SetPartitioned((victim + 1) % 3, (victim + 2) % 3, true);
    if (round == 3) {
      cl.SetPartitioned((victim + 2) % 3, (victim + 0) % 3, false);
      cl.SetPartitioned((victim + 0) % 3, (victim + 1) % 3, false);
      cl.SetPartitioned((victim + 1) % 3, (victim + 2) % 3, false);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(errors.load(), 0u);
  EXPECT_EQ(ryw_violations.load(), 0u);
  cl.Shutdown();
}

TEST(ClusterContentionTest, ConcurrentWritersConvergeFloorsEverywhere) {
  db::Database db;
  db::Schema s("ITEM", {{"I_ID", common::ValueType::kInt},
                        {"I_STOCK", common::ValueType::kInt}});
  s.AddIndex("PRIMARY", {"I_ID"});
  ASSERT_TRUE(db.CreateTable(std::move(s)).ok());
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(db.GetTable("ITEM")
                    ->Insert({common::Value::Int(i), common::Value::Int(0)})
                    .ok());
  }
  cluster::ClusterConfig cfg;
  cfg.num_edges = 3;
  cfg.pump_interval_ms = 1;
  cfg.edge.pool.num_threads = 4;
  cfg.edge.gateway.rtt = std::chrono::microseconds(50);
  cfg.link.ack_loss_rate = 0.05;  // manufacture duplicates under load
  cfg.link.backoff.initial = util::Micros(10);
  cluster::EdgeCluster cl(&db, cfg);

  constexpr int kThreads = 8;
  std::vector<std::thread> workers;
  std::atomic<uint64_t> errors{0};
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 1; i <= 60; ++i) {
        auto w = cl.Execute(
            static_cast<core::ClientId>(t),
            "UPDATE ITEM SET I_STOCK = " + std::to_string(i) +
                " WHERE I_ID = " + std::to_string((t * 8 + i) % 64));
        if (!w.ok()) errors.fetch_add(1);
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(errors.load(), 0u);
  // Background pump drains the outboxes; every edge's floor must converge
  // to the same ITEM version despite lost acks and duplicates.
  for (int i = 0; i < 4000 && !cl.ReplicationIdle(); ++i) {
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  ASSERT_TRUE(cl.ReplicationIdle());
  const uint64_t v0 = cl.FloorOf(0).Get("ITEM");
  EXPECT_GT(v0, 0u);
  EXPECT_EQ(cl.FloorOf(1).Get("ITEM"), v0);
  EXPECT_EQ(cl.FloorOf(2).Get("ITEM"), v0);
  const uint64_t dups = cl.counters(0).invalidations_duplicate->Value() +
                        cl.counters(1).invalidations_duplicate->Value() +
                        cl.counters(2).invalidations_duplicate->Value();
  EXPECT_GT(dups, 0u);  // ack loss really exercised the duplicate path
  cl.Shutdown();
}

}  // namespace
}  // namespace apollo
