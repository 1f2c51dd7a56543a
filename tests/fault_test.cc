// Tests of the chaos-hardened remote path: FaultInjector determinism,
// backoff bounds, circuit-breaker transitions, retry/timeout behavior of
// RemoteDatabase, error propagation through single flight, and the
// end-to-end shed-predictions-first degradation policy.
#include <gtest/gtest.h>

#include <vector>

#include "cache/kv_cache.h"
#include "core/apollo_middleware.h"
#include "core/read_protocol.h"
#include "db/database.h"
#include "net/circuit_breaker.h"
#include "net/remote_database.h"
#include "sim/event_loop.h"
#include "sim/fault_injector.h"
#include "util/backoff.h"
#include "workload/driver.h"
#include "workload/tpcw.h"

namespace apollo {
namespace {

// ---------------------------------------------------------------- injector

TEST(FaultInjectorTest, SeededDeterminism) {
  sim::FaultSchedule s;
  s.transient_error_rate = 0.3;
  s.latency_spike_rate = 0.2;
  s.latency_spike_multiplier = 5.0;
  s.latency_jitter = 0.1;
  sim::FaultInjector a(s, 99);
  sim::FaultInjector b(s, 99);
  bool any_transient = false;
  bool any_spike = false;
  for (int i = 0; i < 500; ++i) {
    auto da = a.OnAttempt(i);
    auto db = b.OnAttempt(i);
    EXPECT_EQ(da.transient_error, db.transient_error);
    EXPECT_DOUBLE_EQ(da.latency_multiplier, db.latency_multiplier);
    any_transient |= da.transient_error;
    any_spike |= da.latency_multiplier > 2.0;
  }
  EXPECT_TRUE(any_transient);
  EXPECT_TRUE(any_spike);
  EXPECT_EQ(a.stats().attempts_evaluated, 500u);
  EXPECT_GT(a.stats().transient_errors, 0u);
  EXPECT_GT(a.stats().latency_spikes, 0u);
}

TEST(FaultInjectorTest, EmptyScheduleInjectsNothing) {
  sim::FaultInjector inj({}, 7);
  EXPECT_FALSE(inj.enabled());
  for (int i = 0; i < 100; ++i) {
    auto d = inj.OnAttempt(i);
    EXPECT_FALSE(d.transient_error);
    EXPECT_DOUBLE_EQ(d.latency_multiplier, 1.0);
  }
  EXPECT_EQ(inj.stats().attempts_evaluated, 0u);
  EXPECT_FALSE(inj.InOutage(0));
}

TEST(FaultInjectorTest, OutageWindowBoundaries) {
  sim::FaultSchedule s;
  s.outages = {{util::Seconds(10), util::Seconds(20)},
               {util::Seconds(40), util::Seconds(41)}};
  sim::FaultInjector inj(s, 1);
  EXPECT_FALSE(inj.InOutage(util::Seconds(10) - 1));
  EXPECT_TRUE(inj.InOutage(util::Seconds(10)));
  EXPECT_TRUE(inj.InOutage(util::Seconds(15)));
  EXPECT_FALSE(inj.InOutage(util::Seconds(20)));  // [start, end)
  EXPECT_TRUE(inj.InOutage(util::Seconds(40)));
  EXPECT_FALSE(inj.InOutage(util::Seconds(50)));
}

// ----------------------------------------------------------------- backoff

TEST(BackoffTest, BaseSequenceGrowsGeometricallyAndCaps) {
  util::BackoffPolicy p;
  p.initial = util::Millis(10);
  p.multiplier = 2.0;
  p.cap = util::Millis(100);
  EXPECT_EQ(p.BaseDelay(0), util::Millis(10));
  EXPECT_EQ(p.BaseDelay(1), util::Millis(20));
  EXPECT_EQ(p.BaseDelay(2), util::Millis(40));
  EXPECT_EQ(p.BaseDelay(3), util::Millis(80));
  EXPECT_EQ(p.BaseDelay(4), util::Millis(100));  // capped
  EXPECT_EQ(p.BaseDelay(20), util::Millis(100));
}

TEST(BackoffTest, JitteredDelayStaysWithinBounds) {
  util::BackoffPolicy p;
  p.initial = util::Millis(10);
  p.multiplier = 2.0;
  p.cap = util::Seconds(1);
  p.jitter = 0.25;
  util::Rng rng(123);
  for (int attempt = 0; attempt < 8; ++attempt) {
    util::SimDuration base = p.BaseDelay(attempt);
    auto lo = static_cast<util::SimDuration>(0.75 * base);
    auto hi = static_cast<util::SimDuration>(1.25 * base);
    bool varied = false;
    util::SimDuration first = -1;
    for (int i = 0; i < 200; ++i) {
      util::SimDuration d = p.Delay(attempt, rng);
      EXPECT_GE(d, lo);
      EXPECT_LE(d, hi);
      if (first < 0) first = d;
      varied |= d != first;
    }
    EXPECT_TRUE(varied) << "jitter should vary the delay";
  }
}

TEST(BackoffTest, ZeroJitterIsDeterministic) {
  util::BackoffPolicy p;
  p.jitter = 0.0;
  util::Rng rng(5);
  EXPECT_EQ(p.Delay(0, rng), p.BaseDelay(0));
  EXPECT_EQ(p.Delay(3, rng), p.BaseDelay(3));
}

// ----------------------------------------------------------------- breaker

TEST(CircuitBreakerTest, OpensAfterConsecutiveFailures) {
  net::CircuitBreaker br({/*failure_threshold=*/3, util::Seconds(1)});
  EXPECT_TRUE(br.AllowOptional(0));
  EXPECT_FALSE(br.OnFailure(10));
  EXPECT_FALSE(br.OnFailure(20));
  EXPECT_TRUE(br.AllowOptional(25));  // still closed below threshold
  EXPECT_TRUE(br.OnFailure(30));      // third: opens
  EXPECT_EQ(br.state(), net::CircuitBreaker::State::kOpen);
  EXPECT_EQ(br.opens(), 1u);
  EXPECT_FALSE(br.AllowOptional(40));  // open, cooldown running
}

TEST(CircuitBreakerTest, SuccessResetsConsecutiveCount) {
  net::CircuitBreaker br({3, util::Seconds(1)});
  br.OnFailure(0);
  br.OnFailure(1);
  br.OnSuccess();
  EXPECT_FALSE(br.OnFailure(2));
  EXPECT_FALSE(br.OnFailure(3));
  EXPECT_EQ(br.state(), net::CircuitBreaker::State::kClosed);
}

TEST(CircuitBreakerTest, HalfOpenProbeLifecycle) {
  net::CircuitBreaker br({2, /*cooldown=*/util::Millis(100)});
  br.OnFailure(0);
  br.OnFailure(1);  // opens at t=1, cooldown until t=100'001
  EXPECT_FALSE(br.AllowOptional(util::Millis(50)));
  // Cooldown elapsed: half-open, exactly one probe admitted.
  EXPECT_TRUE(br.AllowOptional(util::Millis(200)));
  EXPECT_EQ(br.state(), net::CircuitBreaker::State::kHalfOpen);
  EXPECT_FALSE(br.AllowOptional(util::Millis(200)));  // probe outstanding

  // Probe fails: re-open for another cooldown.
  EXPECT_TRUE(br.OnFailure(util::Millis(250)));
  EXPECT_EQ(br.state(), net::CircuitBreaker::State::kOpen);
  EXPECT_EQ(br.opens(), 2u);
  EXPECT_FALSE(br.AllowOptional(util::Millis(300)));

  // Next probe succeeds: closed.
  EXPECT_TRUE(br.AllowOptional(util::Millis(400)));
  br.OnSuccess();
  EXPECT_EQ(br.state(), net::CircuitBreaker::State::kClosed);
  EXPECT_TRUE(br.AllowOptional(util::Millis(401)));
}

TEST(CircuitBreakerTest, FailuresWhileOpenExtendCooldown) {
  net::CircuitBreaker br({2, util::Millis(100)});
  br.OnFailure(0);
  br.OnFailure(1);  // open until ~101ms
  // A client failure at 90ms pushes the half-open point to 190ms.
  EXPECT_FALSE(br.OnFailure(util::Millis(90)));
  EXPECT_FALSE(br.AllowOptional(util::Millis(150)));
  EXPECT_TRUE(br.AllowOptional(util::Millis(200)));
}

// First simulated time at which the breaker admits a half-open probe
// after opening at t=0 (probed at 1ms granularity).
util::SimTime FirstProbeTime(net::CircuitBreakerConfig cfg) {
  net::CircuitBreaker br(cfg);
  for (int i = 0; i < cfg.failure_threshold; ++i) br.OnFailure(0);
  util::SimTime t = 0;
  while (!br.AllowOptional(t)) t += util::Millis(1);
  return t;
}

TEST(CircuitBreakerTest, ZeroJitterKeepsExactLegacyCooldown) {
  net::CircuitBreaker br({2, util::Millis(100)});
  br.OnFailure(0);
  br.OnFailure(0);  // opens at t=0, cooldown until exactly 100ms
  EXPECT_FALSE(br.AllowOptional(util::Millis(100) - 1));
  EXPECT_TRUE(br.AllowOptional(util::Millis(100)));
}

TEST(CircuitBreakerTest, JitteredProbeStaysWithinConfiguredBound) {
  net::CircuitBreakerConfig cfg;
  cfg.failure_threshold = 2;
  cfg.cooldown = util::Millis(100);
  cfg.probe_jitter = 0.5;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    cfg.jitter_seed = seed;
    const util::SimTime probe = FirstProbeTime(cfg);
    EXPECT_GE(probe, util::Millis(100)) << "seed " << seed;
    EXPECT_LE(probe, util::Millis(150) + util::Millis(1)) << "seed " << seed;
  }
}

TEST(CircuitBreakerTest, JitterDesynchronizesProbesAcrossSeeds) {
  net::CircuitBreakerConfig cfg;
  cfg.failure_threshold = 2;
  cfg.cooldown = util::Seconds(10);  // wide range: collisions unlikely
  cfg.probe_jitter = 1.0;

  bool any_differ = false;
  cfg.jitter_seed = 1;
  const util::SimTime first = FirstProbeTime(cfg);
  for (uint64_t seed = 2; seed <= 6 && !any_differ; ++seed) {
    cfg.jitter_seed = seed;
    any_differ = FirstProbeTime(cfg) != first;
  }
  EXPECT_TRUE(any_differ) << "all seeds produced identical probe times";

  // Same seed: deterministic.
  cfg.jitter_seed = 3;
  EXPECT_EQ(FirstProbeTime(cfg), FirstProbeTime(cfg));
}

// ------------------------------------------------- single flight (§3.3)

TEST(SingleFlightTest, FailedLeaderDeliversErrorToAllSubscribers) {
  core::ReadProtocol reg(/*cache=*/nullptr, /*single_flight=*/true);
  ASSERT_TRUE(reg.LeadOrSubscribe("k", nullptr));  // leader
  std::vector<util::Status> seen;
  for (int i = 0; i < 2; ++i) {
    ASSERT_FALSE(reg.LeadOrSubscribe(
        "k", [&seen](const util::Result<common::ResultSetPtr>& r,
                     const cache::VersionVector&) {
          ASSERT_FALSE(r.ok());
          seen.push_back(r.status());
        }));
  }
  EXPECT_TRUE(reg.InFlight("k"));
  util::Result<common::ResultSetPtr> failure(
      util::Status::Unavailable("link down"));
  reg.Publish("k", failure, {});
  ASSERT_EQ(seen.size(), 2u);
  for (const auto& st : seen) {
    EXPECT_EQ(st.code(), util::StatusCode::kUnavailable);
  }
  // The key is cleared: a new leader can begin immediately.
  EXPECT_FALSE(reg.InFlight("k"));
  EXPECT_TRUE(reg.LeadOrSubscribe("k", nullptr));
}

// ------------------------------------------------- remote database retries

class FaultyRemoteTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db::Schema s("T", {{"ID", common::ValueType::kInt},
                       {"V", common::ValueType::kString}});
    s.AddIndex("PRIMARY", {"ID"});
    ASSERT_TRUE(db_.CreateTable(std::move(s)).ok());
    ASSERT_TRUE(db_.Execute("INSERT INTO T (ID, V) VALUES (1, 'a')").ok());
  }
  net::RemoteDbConfig BaseCfg() {
    net::RemoteDbConfig cfg;
    cfg.rtt = sim::LatencyModel::Constant(util::Millis(10));
    cfg.backoff.jitter = 0.0;
    cfg.backoff.initial = util::Millis(100);
    return cfg;
  }
  db::Database db_;
  sim::EventLoop loop_;
};

TEST_F(FaultyRemoteTest, RetryBudgetExhaustionYieldsClientError) {
  auto cfg = BaseCfg();
  cfg.faults.transient_error_rate = 1.0;  // every attempt fails
  cfg.max_retries = 2;
  net::RemoteDatabase remote(&loop_, &db_, cfg);
  util::Status final_status;
  remote.Execute("SELECT V FROM T WHERE ID = 1",
                 [&](util::Result<common::ResultSetPtr> rs, auto) {
                   ASSERT_FALSE(rs.ok());
                   final_status = rs.status();
                 });
  loop_.Run();
  EXPECT_EQ(final_status.code(), util::StatusCode::kUnavailable);
  EXPECT_EQ(remote.stats().queries, 1u);
  EXPECT_EQ(remote.stats().attempts, 3u);  // 1 try + 2 retries
  EXPECT_EQ(remote.stats().retries, 2u);
  EXPECT_EQ(remote.stats().errors, 1u);
  EXPECT_EQ(remote.stats().client_errors, 1u);
  EXPECT_EQ(remote.stats().predictive_errors, 0u);
}

TEST_F(FaultyRemoteTest, RetriesAbsorbOutageOnceWindowCloses) {
  auto cfg = BaseCfg();
  cfg.faults.outages = {{0, util::Millis(200)}};
  cfg.max_retries = 3;
  net::RemoteDatabase remote(&loop_, &db_, cfg);
  bool ok = false;
  util::SimTime completed = -1;
  remote.Execute("SELECT V FROM T WHERE ID = 1",
                 [&](util::Result<common::ResultSetPtr> rs, auto) {
                   ok = rs.ok();
                   completed = loop_.now();
                 });
  loop_.Run();
  // Attempt 1 fails at 10 ms, retry at 110 ms fails at 120 ms, retry at
  // 320 ms arrives after the window and succeeds.
  EXPECT_TRUE(ok);
  EXPECT_GT(completed, util::Millis(200));
  EXPECT_EQ(remote.stats().retries, 2u);
  EXPECT_EQ(remote.stats().errors, 0u);
  EXPECT_EQ(remote.stats().client_errors, 0u);
  EXPECT_EQ(remote.fault_injector().stats().outage_rejections, 2u);
}

TEST_F(FaultyRemoteTest, PredictiveFailuresAccountedSeparately) {
  auto cfg = BaseCfg();
  cfg.faults.transient_error_rate = 1.0;
  cfg.max_retries = 2;
  cfg.predictive_max_retries = 0;  // predictions are not retried
  net::RemoteDatabase remote(&loop_, &db_, cfg);
  int failures = 0;
  remote.Execute("SELECT V FROM T WHERE ID = 1",
                 [&](util::Result<common::ResultSetPtr> rs, auto) {
                   if (!rs.ok()) ++failures;
                 },
                 /*predictive=*/true);
  loop_.Run();
  EXPECT_EQ(failures, 1);
  EXPECT_EQ(remote.stats().attempts, 1u);  // no retry budget
  EXPECT_EQ(remote.stats().predictive_errors, 1u);
  EXPECT_EQ(remote.stats().client_errors, 0u);
}

TEST_F(FaultyRemoteTest, TimeoutAbandonsSlowAttempt) {
  auto cfg = BaseCfg();
  cfg.rtt = sim::LatencyModel::Constant(util::Millis(100));
  cfg.query_timeout = util::Millis(50);
  cfg.max_retries = 0;
  net::RemoteDatabase remote(&loop_, &db_, cfg);
  util::Status final_status;
  util::SimTime completed = -1;
  remote.Execute("SELECT V FROM T WHERE ID = 1",
                 [&](util::Result<common::ResultSetPtr> rs, auto) {
                   ASSERT_FALSE(rs.ok());
                   final_status = rs.status();
                   completed = loop_.now();
                 });
  loop_.Run();
  EXPECT_EQ(final_status.code(), util::StatusCode::kDeadlineExceeded);
  EXPECT_EQ(completed, util::Millis(50));  // fails at the timeout, not rtt
  EXPECT_EQ(remote.stats().timeouts, 1u);
  // The abandoned attempt's real response still lands and is discarded.
  EXPECT_EQ(remote.stats().late_responses, 1u);
  EXPECT_EQ(remote.stats().client_errors, 1u);
}

TEST_F(FaultyRemoteTest, BreakerOpensUnderOutageAndRecloses) {
  auto cfg = BaseCfg();
  cfg.faults.outages = {{0, util::Seconds(1)}};
  cfg.max_retries = 0;
  cfg.breaker_failure_threshold = 3;
  cfg.breaker_cooldown = util::Millis(100);
  net::RemoteDatabase remote(&loop_, &db_, cfg);
  for (int i = 0; i < 3; ++i) {
    remote.Execute("SELECT V FROM T WHERE ID = 1", [](auto, auto) {});
  }
  loop_.RunUntil(util::Millis(50));
  EXPECT_EQ(remote.breaker().state(), net::CircuitBreaker::State::kOpen);
  EXPECT_EQ(remote.stats().breaker_opens, 1u);
  EXPECT_TRUE(remote.Degraded());
  EXPECT_FALSE(remote.AllowPredictive());

  // After the outage a client query succeeds and recloses the breaker.
  bool ok = false;
  loop_.At(util::Seconds(2), [&]() {
    remote.Execute("SELECT V FROM T WHERE ID = 1",
                   [&](util::Result<common::ResultSetPtr> rs, auto) {
                     ok = rs.ok();
                   });
  });
  loop_.Run();
  EXPECT_TRUE(ok);
  EXPECT_EQ(remote.breaker().state(), net::CircuitBreaker::State::kClosed);
  EXPECT_FALSE(remote.Degraded());
  EXPECT_TRUE(remote.AllowPredictive());
}

TEST_F(FaultyRemoteTest, TimeoutSpikeDegradesWithoutBreaker) {
  auto cfg = BaseCfg();
  cfg.rtt = sim::LatencyModel::Constant(util::Millis(200));
  cfg.query_timeout = util::Millis(50);
  cfg.max_retries = 0;
  cfg.timeout_spike_threshold = 2;
  cfg.timeout_spike_window = util::Seconds(10);
  cfg.breaker_failure_threshold = 100;  // breaker stays out of the way
  net::RemoteDatabase remote(&loop_, &db_, cfg);
  remote.Execute("SELECT V FROM T WHERE ID = 1", [](auto, auto) {});
  remote.Execute("SELECT V FROM T WHERE ID = 1", [](auto, auto) {});
  loop_.RunUntil(util::Millis(60));
  EXPECT_EQ(remote.stats().timeouts, 2u);
  EXPECT_EQ(remote.breaker().state(), net::CircuitBreaker::State::kClosed);
  EXPECT_TRUE(remote.Degraded());
  EXPECT_FALSE(remote.AllowPredictive());
  // Outside the spike window the path is healthy again.
  loop_.At(util::Seconds(30), [&]() {
    EXPECT_FALSE(remote.Degraded());
    EXPECT_TRUE(remote.AllowPredictive());
  });
  loop_.Run();
}

// ------------------------------------------------ subscriber fallback

// A client read that subscribed to an in-flight leader must not inherit the
// leader's transport failure: it falls back to its own remote attempt with
// the full client retry budget ("client queries keep retry budget").
TEST(SubscriberFallbackTest, SubscriberRetriesAfterLeaderTransportFailure) {
  db::Database db;
  db::Schema s("T", {{"ID", common::ValueType::kInt},
                     {"V", common::ValueType::kString}});
  s.AddIndex("PRIMARY", {"ID"});
  ASSERT_TRUE(db.CreateTable(std::move(s)).ok());
  ASSERT_TRUE(db.Execute("INSERT INTO T (ID, V) VALUES (1, 'a')").ok());

  sim::EventLoop loop;
  net::RemoteDbConfig rcfg;
  rcfg.rtt = sim::LatencyModel::Constant(util::Millis(10));
  rcfg.max_retries = 0;  // the leader's one attempt dies in the outage
  // Covers the leader's attempt (arrives ~5.5 ms in) but not the
  // subscriber's fallback attempt (~15.5 ms in).
  rcfg.faults.outages = {{0, util::Millis(8)}};
  net::RemoteDatabase remote(&loop, &db, rcfg);
  cache::KvCache cache(1 << 20);
  core::ApolloConfig memcached;
  memcached.enable_prediction = false;
  core::ApolloMiddleware mw(&loop, &remote, &cache, memcached);

  const std::string q = "SELECT V FROM T WHERE ID = 1";
  util::Status leader_status;
  bool subscriber_ok = false;
  mw.SubmitQuery(0, q, [&](util::Result<common::ResultSetPtr> rs) {
    leader_status = rs.ok() ? util::Status::OK() : rs.status();
  });
  loop.After(util::Millis(1), [&]() {
    mw.SubmitQuery(1, q, [&](util::Result<common::ResultSetPtr> rs) {
      subscriber_ok = rs.ok();
    });
  });
  loop.Run();

  EXPECT_EQ(leader_status.code(), util::StatusCode::kUnavailable);
  EXPECT_TRUE(subscriber_ok) << "subscriber must recover via fallback";
  EXPECT_EQ(mw.stats().coalesced_waits, 1u);
  EXPECT_EQ(mw.stats().subscriber_fallbacks, 1u);
  EXPECT_EQ(remote.stats().queries, 2u);  // leader + private fallback
  EXPECT_EQ(remote.stats().client_errors, 1u);
}

// ------------------------------------------------------------- end to end

workload::TpcwConfig SmallTpcw() {
  workload::TpcwConfig cfg;
  cfg.num_items = 500;
  cfg.num_customers = 400;
  cfg.num_authors = 100;
  cfg.num_orders = 360;
  return cfg;
}

TEST(FaultEndToEndTest, TransientErrorsFullyAbsorbedByRetries) {
  workload::TpcwWorkload tpcw(SmallTpcw());
  workload::RunConfig cfg;
  cfg.system = workload::SystemType::kApollo;
  cfg.num_clients = 5;
  cfg.duration = util::Minutes(2);
  cfg.seed = 11;
  cfg.remote.faults.transient_error_rate = 0.10;
  cfg.remote.query_timeout = util::Seconds(1);
  cfg.remote.max_retries = 4;
  auto result = workload::RunExperiment(tpcw, cfg);
  EXPECT_GT(result.mw.queries, 100u);
  EXPECT_GT(result.remote.retries, 0u) << "faults should force retries";
  EXPECT_EQ(result.client_visible_errors, 0u)
      << "a 10% transient-error rate must be absorbed by the retry budget";
}

TEST(FaultEndToEndTest, OutageShedsPredictiveLoadAndRecovers) {
  workload::TpcwWorkload tpcw(SmallTpcw());
  workload::RunConfig cfg;
  cfg.system = workload::SystemType::kApollo;
  cfg.num_clients = 20;
  cfg.duration = util::Minutes(4);
  cfg.seed = 11;
  cfg.sample_interval = util::Seconds(30);
  // Give Apollo 2.5 minutes to learn FDQs (so predictions are actually being
  // issued) before a 60 s outage.  The long cooldown keeps the breaker open
  // for the whole outage instead of converting predictive calls into
  // half-open probes every couple of seconds.
  cfg.remote.faults.outages = {{util::Seconds(150), util::Seconds(210)}};
  cfg.remote.query_timeout = util::Seconds(1);
  cfg.remote.breaker_failure_threshold = 4;
  cfg.remote.breaker_cooldown = util::Seconds(10);
  auto result = workload::RunExperiment(tpcw, cfg);
  EXPECT_GE(result.remote.breaker_opens, 1u);
  EXPECT_GT(result.mw.shed_predictions + result.mw.shed_adq_reloads, 0u)
      << "predictive load must be shed while the breaker is open";
  ASSERT_EQ(result.samples.size(), 8u);
  // The final interval (well after recovery) serves clients again with a
  // healthy hit rate and no client-visible errors.
  const auto& last = result.samples.back();
  EXPECT_GT(last.queries, 0u);
  EXPECT_EQ(last.client_errors, 0u);
  EXPECT_GT(last.hit_rate, 0.0);
}

TEST(FaultEndToEndTest, FaultFreeRunsMatchWithAndWithoutHardening) {
  // The retry/breaker machinery must be invisible when no faults are
  // injected: identical seeds give identical response-time histograms.
  workload::TpcwWorkload tpcw(SmallTpcw());
  workload::RunConfig cfg;
  cfg.system = workload::SystemType::kApollo;
  cfg.num_clients = 5;
  cfg.duration = util::Minutes(1);
  cfg.seed = 3;
  auto a = workload::RunExperiment(tpcw, cfg);
  workload::TpcwWorkload tpcw2(SmallTpcw());
  cfg.remote.max_retries = 9;  // different budget, but never exercised
  cfg.remote.breaker_failure_threshold = 2;
  auto b = workload::RunExperiment(tpcw2, cfg);
  EXPECT_EQ(a.metrics->count(), b.metrics->count());
  EXPECT_DOUBLE_EQ(a.MeanMs(), b.MeanMs());
  EXPECT_EQ(a.remote.retries, 0u);
  EXPECT_EQ(b.remote.retries, 0u);
  EXPECT_EQ(a.client_visible_errors, 0u);
}

}  // namespace
}  // namespace apollo
