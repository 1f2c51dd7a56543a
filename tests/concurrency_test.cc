// Multi-threaded stress tests. The benchmark driver runs single-threaded
// on the deterministic event loop, but the core data structures are
// mutex-protected because the real system is concurrent middleware; these
// tests exercise them under contention (run under TSan to verify).
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cache/kv_cache.h"
#include "cache/version_vector.h"
#include "core/dependency_graph.h"
#include "core/param_mapper.h"
#include "core/read_protocol.h"
#include "core/transition_graph.h"
#include "db/database.h"
#include "sql/template.h"
#include "sql/template_cache.h"

namespace apollo {
namespace {

class ConcurrentDatabaseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db::Schema s("T", {{"ID", common::ValueType::kInt},
                       {"K", common::ValueType::kInt},
                       {"V", common::ValueType::kInt}});
    s.AddIndex("PRIMARY", {"ID"});
    s.AddIndex("K_IDX", {"K"});
    ASSERT_TRUE(db_.CreateTable(std::move(s)).ok());
    for (int i = 0; i < 1000; ++i) {
      ASSERT_TRUE(db_.GetTable("T")
                      ->Insert({common::Value::Int(i),
                                common::Value::Int(i % 10),
                                common::Value::Int(0)})
                      .ok());
    }
  }
  db::Database db_;
};

TEST_F(ConcurrentDatabaseTest, ParallelReadsAreConsistent) {
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t]() {
      for (int i = 0; i < 300; ++i) {
        auto rs = db_.Execute("SELECT COUNT(*) AS N FROM T WHERE K = " +
                              std::to_string((t + i) % 10));
        if (!rs.ok() || (*rs)->At(0, 0).AsInt() != 100) {
          ++failures;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST_F(ConcurrentDatabaseTest, MixedReadWriteNoTornState) {
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  // Writers increment V for their own disjoint row ranges; readers verify
  // aggregate invariants never go backwards.
  for (int w = 0; w < 2; ++w) {
    threads.emplace_back([&, w]() {
      for (int i = 0; i < 200; ++i) {
        int id = w * 500 + (i % 500);
        auto rs = db_.Execute("UPDATE T SET V = V + 1 WHERE ID = " +
                              std::to_string(id));
        if (!rs.ok()) ++failures;
      }
    });
  }
  for (int r = 0; r < 4; ++r) {
    threads.emplace_back([&]() {
      int64_t last_sum = 0;
      for (int i = 0; i < 200; ++i) {
        auto rs = db_.Execute("SELECT SUM(V) AS S FROM T");
        if (!rs.ok()) {
          ++failures;
          continue;
        }
        int64_t sum = (*rs)->At(0, 0).is_null()
                          ? 0
                          : (*rs)->At(0, 0).AsInt();
        // Writers only increment: the sum must be monotone per reader.
        if (sum < last_sum) ++failures;
        last_sum = sum;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  auto total = db_.Execute("SELECT SUM(V) AS S FROM T");
  ASSERT_TRUE(total.ok());
  EXPECT_EQ((*total)->At(0, 0).AsInt(), 400);
}

TEST_F(ConcurrentDatabaseTest, VersionsMonotoneUnderConcurrentWrites) {
  std::vector<std::thread> threads;
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  threads.emplace_back([&]() {
    uint64_t last = 0;
    while (!stop.load()) {
      uint64_t v = db_.TableVersion("T");
      if (v < last) ++failures;
      last = v;
    }
  });
  for (int w = 0; w < 4; ++w) {
    threads.emplace_back([&, w]() {
      for (int i = 0; i < 100; ++i) {
        (void)db_.Execute("UPDATE T SET V = V + 1 WHERE ID = " +
                          std::to_string(w * 10 + i % 10));
      }
    });
  }
  for (size_t i = 1; i < threads.size(); ++i) threads[i].join();
  stop.store(true);
  threads[0].join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GE(db_.TableVersion("T"), 400u);
}

// ---------------------------------------------------------------------------
// Core-structure contention tests: the mutexes / stripes added for the
// concurrent runtime (src/rt/) must keep every invariant under 8-thread
// load. Run under TSan (tools/check.sh thread) to verify the locking.
// ---------------------------------------------------------------------------

common::ResultSetPtr OneCellResult(int64_t v) {
  auto rs = std::make_shared<common::ResultSet>(
      std::vector<std::string>{"C0"});
  rs->AddRow({common::Value::Int(v)});
  return rs;
}

TEST(KvCacheContentionTest, PutGetEvictUnderSmallBudget) {
  // A budget far below the working set forces constant eviction while 8
  // threads mix puts and gets; every returned entry must carry the value
  // its key was stored with.
  cache::KvCache cache(/*capacity_bytes=*/16 << 10, /*num_shards=*/8);
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      cache::VersionVector vv;
      for (int i = 0; i < 400; ++i) {
        int id = (t * 13 + i) % 64;
        std::string key = "k" + std::to_string(id);
        cache.Put(key, OneCellResult(id), vv);
        auto hit = cache.GetCompatible(key, vv, {"T"});
        if (hit && hit->result->At(0, 0).AsInt() != id) ++failures;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  auto stats = cache.stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LE(stats.bytes_used, cache.capacity_bytes());
}

// Same shape as PutGetEvictUnderSmallBudget but through the W-TinyLFU
// path: 8 threads hammer the window/main lists, the per-shard sketch,
// and the admission comparisons. TSan covers the locking; the value
// check covers map/list integrity across segment splices.
TEST(TinyLfuContentionTest, EightThreadsAdmissionAndEviction) {
  cache::KvCacheOptions opt;
  opt.policy = cache::CachePolicy::kTinyLfu;
  opt.sketch_reset_adds = 256;  // force frequent halvings under load
  cache::KvCache cache(/*capacity_bytes=*/16 << 10, /*num_shards=*/8,
                       nullptr, "cache.", opt);
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      cache::VersionVector vv;
      for (int i = 0; i < 400; ++i) {
        int id = (t * 13 + i) % 64;
        std::string key = "k" + std::to_string(id);
        cache.Put(key, OneCellResult(id), vv);
        auto hit = cache.GetCompatible(key, vv, {"T"});
        if (hit && hit->result->At(0, 0).AsInt() != id) ++failures;
        // Re-read a fixed hot key so admission sees a stable incumbent.
        cache.GetCompatible("k1", vv, {"T"});
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  auto stats = cache.stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_GT(stats.sketch_resets, 0u);
  EXPECT_LE(stats.bytes_used, cache.capacity_bytes());
}

// Cost-aware variant under contention: mixed predicted/demand puts with
// divergent costs and confidences race against reads and Clear().
TEST(TinyLfuContentionTest, CostScoringWithConcurrentClear) {
  cache::KvCacheOptions opt;
  opt.policy = cache::CachePolicy::kTinyLfuCost;
  cache::KvCache cache(/*capacity_bytes=*/16 << 10, /*num_shards=*/4,
                       nullptr, "cache.", opt);
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      cache::VersionVector vv;
      for (int i = 0; i < 300; ++i) {
        int id = (t * 7 + i) % 48;
        std::string key = "q" + std::to_string(id);
        cache::KvCache::PutAttrs attrs;
        attrs.predicted = (i % 2) == 0;
        attrs.template_id = static_cast<uint64_t>(id);
        attrs.miss_cost_us = (i % 3) == 0 ? 70000.0 : 500.0;
        attrs.probability = (i % 2) == 0 ? 0.9 : 0.1;
        cache.Put(key, OneCellResult(id), vv, attrs);
        auto hit = cache.GetCompatible(key, vv, {"T"});
        if (hit && hit->result->At(0, 0).AsInt() != id) ++failures;
        if (t == 0 && i % 128 == 0) cache.Clear();
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_LE(cache.stats().bytes_used, cache.capacity_bytes());
}

TEST(TemplateCatalogContentionTest, AdmitRecordBumpAcrossThreads) {
  sql::TemplateCache cache;
  constexpr int kThreads = 8;
  constexpr int kIters = 500;
  // Half the admissions collide on one shared template, half spread over
  // per-thread templates; every one must resolve to its stable entry.
  auto shared_sql = [](int i) {
    return "SELECT C0 FROM T WHERE ID = " + std::to_string(i);
  };
  auto own_sql = [](int t, int i) {
    return "SELECT C0 FROM T" + std::to_string(t) +
           " WHERE ID = " + std::to_string(i);
  };
  const uint64_t shared_fp = sql::Templatize(shared_sql(0))->fingerprint;
  std::vector<uint64_t> own_fp;
  for (int t = 0; t < kThreads; ++t) {
    own_fp.push_back(sql::Templatize(own_sql(t, 0))->fingerprint);
  }
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        const bool shared = i % 2 == 0;
        auto adm = cache.Admit(shared ? shared_sql(i) : own_sql(t, i));
        const uint64_t fp = shared ? shared_fp : own_fp[t];
        if (!adm.ok() || adm->fingerprint() != fp) {
          ++failures;
          continue;
        }
        cache.BumpObservations(*adm->tpl);
        adm->tpl->RecordExecution(1000 + i % 7);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(cache.size(), 1u + kThreads);
  EXPECT_EQ(cache.total_observations(), uint64_t{kThreads} * kIters);
  uint64_t executions = 0;
  const sql::CachedTemplate* shared = cache.GetByFingerprint(shared_fp);
  ASSERT_NE(shared, nullptr);
  executions += shared->executions.load();
  for (int t = 0; t < kThreads; ++t) {
    const sql::CachedTemplate* m = cache.GetByFingerprint(own_fp[t]);
    ASSERT_NE(m, nullptr);
    executions += m->executions.load();
  }
  EXPECT_EQ(executions, uint64_t{kThreads} * kIters);
  ASSERT_GT(shared->mean_exec_us.load(), 999.0);
  EXPECT_LT(shared->mean_exec_us.load(), 1007.0);
}

TEST(TransitionGraphContentionTest, EightWritersCountsExact) {
  core::TransitionGraph graph(/*delta_t=*/1000);
  constexpr int kThreads = 8;
  constexpr int kIters = 1000;
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  // Concurrent readers: probabilities must stay within [0, 1] while the
  // writers fold observations in.
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      while (!stop.load()) {
        double p = graph.TransitionProbability(1, 2);
        if (p < 0.0 || p > 1.0) ++failures;
        (void)graph.Successors(1, 0.0);
      }
    });
  }
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        // Shared vertex 1 plus a per-thread vertex: contended and
        // uncontended stripes in the same run.
        graph.AddVertexObservation(1);
        graph.AddEdgeObservation(1, 2);
        graph.AddVertexObservation(10 + static_cast<uint64_t>(t));
      }
    });
  }
  for (auto& th : writers) th.join();
  stop.store(true);
  for (auto& th : readers) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(graph.VertexCount(1), uint64_t{kThreads} * kIters);
  EXPECT_EQ(graph.EdgeCount(1, 2), uint64_t{kThreads} * kIters);
  EXPECT_DOUBLE_EQ(graph.TransitionProbability(1, 2), 1.0);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(graph.VertexCount(10 + static_cast<uint64_t>(t)),
              static_cast<uint64_t>(kIters));
  }
}

TEST(ParamMapperContentionTest, DistinctPairsConfirmIndependently) {
  core::ParamMapper mapper(/*verification_period=*/4);
  constexpr int kThreads = 8;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      uint64_t src = 1000 + static_cast<uint64_t>(t);
      uint64_t dst = 2000 + static_cast<uint64_t>(t);
      for (int i = 0; i < 50; ++i) {
        // dst's parameter always equals src's column 0: the mapping must
        // confirm and never disprove.
        auto rs = OneCellResult(t * 100 + i);
        if (mapper.ObservePair(src, *rs, dst,
                               {common::Value::Int(t * 100 + i)})) {
          ++failures;  // disproof of a consistent mapping
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  for (int t = 0; t < kThreads; ++t) {
    uint64_t src = 1000 + static_cast<uint64_t>(t);
    uint64_t dst = 2000 + static_cast<uint64_t>(t);
    EXPECT_TRUE(mapper.PairConfirmed(src, dst));
    auto sources = mapper.GetSources(dst, 1);
    ASSERT_TRUE(sources.complete);
    ASSERT_EQ(sources.per_param.size(), 1u);
    EXPECT_EQ(sources.per_param[0][0].src, src);
    EXPECT_EQ(sources.per_param[0][0].col, 0);
  }
}

TEST(DependencyGraphContentionTest, AddRemoveKeepsPointersValid) {
  core::DependencyGraph deps;
  constexpr int kThreads = 8;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      uint64_t id = 100 + static_cast<uint64_t>(t);
      for (int i = 0; i < 200; ++i) {
        // All FDQs depend on template 1; re-adding after Remove exercises
        // the retire-don't-free path while other threads walk the index.
        core::Fdq* f = deps.Add(id, {{/*src=*/1, /*col=*/0}});
        if (f == nullptr || f->id != id) {
          ++failures;
          continue;
        }
        for (core::Fdq* d : deps.DependentsOf(1)) {
          // Retired pointers must stay readable (never dangle).
          if (d->id < 100 || d->id >= 100 + kThreads) ++failures;
        }
        if (i % 3 == 0) deps.Remove(id);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  // Each id was re-added after its last Remove (i=198 is not divisible by
  // 3 ... final state depends on order), so just check structural sanity:
  // every surviving node is valid and queryable.
  for (int t = 0; t < kThreads; ++t) {
    uint64_t id = 100 + static_cast<uint64_t>(t);
    const core::Fdq* f = deps.Get(id);
    if (f != nullptr) {
      EXPECT_EQ(f->id, id);
      ASSERT_EQ(f->deps.size(), 1u);
      EXPECT_EQ(f->deps[0], 1u);
    }
  }
}

TEST(InflightContentionTest, ExactlyOneLeaderPerRound) {
  // Of 8 threads racing LeadOrSubscribe on one key, exactly one becomes
  // leader and executes; when it publishes, every subscriber's waiter runs
  // exactly once with the leader's result.
  core::ReadProtocol inflight(/*cache=*/nullptr, /*single_flight=*/true);
  std::atomic<uint64_t> subscribed{0};
  constexpr int kThreads = 8;
  constexpr int kRounds = 100;
  for (int round = 0; round < kRounds; ++round) {
    const std::string key = "q" + std::to_string(round);
    std::atomic<int> entered{0};
    std::atomic<int> leaders{0};
    std::atomic<int> delivered{0};
    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&] {
        bool leader = inflight.LeadOrSubscribe(
            key, [&](const util::Result<common::ResultSetPtr>& r,
                     const cache::VersionVector&) {
              if (!r.ok() || r.value()->At(0, 0).AsInt() != 7) ++failures;
              delivered.fetch_add(1);
            });
        if (!leader) subscribed.fetch_add(1);
        entered.fetch_add(1);
        if (leader) {
          leaders.fetch_add(1);
          // Simulate the remote round trip outlasting all arrivals: every
          // other thread must end up subscribed, never a second leader.
          while (entered.load() < kThreads) std::this_thread::yield();
          inflight.Publish(key, OneCellResult(7), cache::VersionVector());
        }
      });
    }
    for (auto& th : threads) th.join();
    ASSERT_EQ(leaders.load(), 1) << "round " << round;
    EXPECT_EQ(delivered.load(), kThreads - 1) << "round " << round;
    EXPECT_EQ(failures.load(), 0) << "round " << round;
    EXPECT_FALSE(inflight.InFlight(key));
  }
  EXPECT_EQ(subscribed.load(), uint64_t{kThreads - 1} * kRounds);
}

// ---------------------------------------------------------------------------
// Bounded-learning-memory contention (DESIGN.md §11): pruning runs inside
// the stripe locks while 8 writers and concurrent readers hammer the same
// structures. TSan (tools/check.sh thread) verifies race-freedom; the
// assertions verify the cap and that high-evidence state survives.
// ---------------------------------------------------------------------------

TEST(TransitionGraphPruneContentionTest, EightWritersStayUnderCap) {
  constexpr int kThreads = 8;
  constexpr int kIters = 2000;
  constexpr size_t kCap = 256;
  core::TransitionGraph graph(/*delta_t=*/1000, /*num_stripes=*/4, kCap);
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      while (!stop.load()) {
        double p = graph.TransitionProbability(1, 2);
        if (p < 0.0 || p > 1.0) ++failures;
        (void)graph.Successors(1, 0.0);
        (void)graph.num_edges();
        (void)graph.pruned_edges();
      }
    });
  }
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        // A hot edge every thread reinforces, plus a per-thread stream of
        // one-shot edges that constantly overflows the cap.
        graph.AddEdgeObservation(1, 2);
        uint64_t u = 100 + static_cast<uint64_t>(t) * kIters +
                     static_cast<uint64_t>(i);
        graph.AddEdgeObservation(u, u + 1);
      }
    });
  }
  for (auto& th : writers) th.join();
  stop.store(true);
  for (auto& th : readers) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_LE(graph.num_edges(), kCap);
  EXPECT_GT(graph.pruned_edges(), 0u);
  // The hot edge has kThreads * kIters observations: never a victim.
  EXPECT_EQ(graph.EdgeCount(1, 2), uint64_t{kThreads} * kIters);
}

TEST(ParamMapperPruneContentionTest, EightWritersStayNearCap) {
  constexpr int kThreads = 8;
  constexpr int kIters = 1500;
  constexpr size_t kCap = 256;
  core::ParamMapper mapper(/*verification_period=*/2, /*num_stripes=*/4,
                           kCap);
  // Confirm one mapping per thread before the flood so pruning has
  // confirmed pairs to protect.
  for (int t = 0; t < kThreads; ++t) {
    uint64_t src = 10 + static_cast<uint64_t>(t);
    for (int i = 0; i < 8; ++i) {
      auto rs = OneCellResult(t);
      mapper.ObservePair(src, *rs, src + 1000, {common::Value::Int(t)});
    }
    ASSERT_TRUE(mapper.PairConfirmed(src, src + 1000));
  }
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      while (!stop.load()) {
        (void)mapper.GetSources(1010, 1);
        (void)mapper.num_pairs();
        (void)mapper.pruned_pairs();
      }
    });
  }
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      // Keep the confirmed pair warm while flooding one-shot pairs
      // through the same stripes.
      uint64_t src = 10 + static_cast<uint64_t>(t);
      for (int i = 0; i < kIters; ++i) {
        auto rs = OneCellResult(t);
        mapper.ObservePair(src, *rs, src + 1000, {common::Value::Int(t)});
        uint64_t noise = 100000 + static_cast<uint64_t>(t) * kIters +
                         static_cast<uint64_t>(i);
        mapper.ObservePair(noise, *rs, noise + 1, {common::Value::Int(t)});
      }
    });
  }
  for (auto& th : writers) th.join();
  stop.store(true);
  for (auto& th : readers) th.join();
  // Pruning is per-stripe with a batch hysteresis, so allow one batch of
  // slack above the configured cap.
  EXPECT_LE(mapper.num_pairs(), kCap + kCap / 4);
  EXPECT_GT(mapper.pruned_pairs(), 0u);
  // Confirmed, continually-reinforced mappings must survive the flood.
  for (int t = 0; t < kThreads; ++t) {
    uint64_t src = 10 + static_cast<uint64_t>(t);
    EXPECT_TRUE(mapper.PairConfirmed(src, src + 1000)) << "thread " << t;
  }
}

}  // namespace
}  // namespace apollo
