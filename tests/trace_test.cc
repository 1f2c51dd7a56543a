// Tests for trace capture, (de)serialization, and replay.
#include <gtest/gtest.h>

#include <cstdio>

#include "core/apollo_middleware.h"
#include "workload/trace.h"

namespace apollo::workload {
namespace {

class TraceTest : public ::testing::Test {
 protected:
  TraceTest() : cache_(1 << 20) {}

  void SetUp() override {
    db::Schema s("T", {{"ID", common::ValueType::kInt},
                       {"V", common::ValueType::kString}});
    s.AddIndex("PRIMARY", {"ID"});
    ASSERT_TRUE(db_.CreateTable(std::move(s)).ok());
    for (int i = 1; i <= 20; ++i) {
      ASSERT_TRUE(db_.GetTable("T")
                      ->Insert({common::Value::Int(i),
                                common::Value::Str("v" + std::to_string(i))})
                      .ok());
    }
    net::RemoteDbConfig cfg;
    cfg.rtt = sim::LatencyModel::Constant(util::Millis(10));
    remote_ = std::make_unique<net::RemoteDatabase>(&loop_, &db_, cfg);
    core::ApolloConfig memcached;
    memcached.enable_prediction = false;
    inner_ = std::make_unique<core::ApolloMiddleware>(
        &loop_, remote_.get(), &cache_, memcached);
  }

  db::Database db_;
  sim::EventLoop loop_;
  cache::KvCache cache_;
  std::unique_ptr<net::RemoteDatabase> remote_;
  std::unique_ptr<core::ApolloMiddleware> inner_;
};

TEST_F(TraceTest, RecorderCapturesSubmissions) {
  TraceRecorder recorder(&loop_, inner_.get());
  loop_.After(util::Millis(5), [&]() {
    recorder.SubmitQuery(1, "SELECT V FROM T WHERE ID = 3", [](auto) {});
  });
  loop_.After(util::Millis(25), [&]() {
    recorder.SubmitQuery(2, "SELECT V FROM T WHERE ID = 4", [](auto) {});
  });
  loop_.Run();
  ASSERT_EQ(recorder.trace().size(), 2u);
  EXPECT_EQ(recorder.trace()[0].client, 1);
  EXPECT_EQ(recorder.trace()[0].time, util::Millis(5));
  EXPECT_EQ(recorder.trace()[1].sql, "SELECT V FROM T WHERE ID = 4");
}

TEST_F(TraceTest, SaveLoadRoundTrip) {
  Trace trace = {
      {0, 0, "SELECT V FROM T WHERE ID = 1"},
      {1, util::Millis(7), "SELECT V FROM T WHERE S = 'a b\tc'"},
      {0, util::Seconds(2), "UPDATE T SET V = 'x' WHERE ID = 2"},
  };
  // Tabs are not produced by our dialect printer; use a tab-free variant.
  trace[1].sql = "SELECT V FROM T WHERE V = 'a b c'";
  const std::string path = ::testing::TempDir() + "/trace_test.txt";
  ASSERT_TRUE(SaveTrace(trace, path).ok());
  auto loaded = LoadTrace(path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->size(), trace.size());
  for (size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ((*loaded)[i].client, trace[i].client);
    EXPECT_EQ((*loaded)[i].time, trace[i].time);
    EXPECT_EQ((*loaded)[i].sql, trace[i].sql);
  }
  std::remove(path.c_str());
}

TEST_F(TraceTest, LoadRejectsMalformedLines) {
  const std::string path = ::testing::TempDir() + "/bad_trace.txt";
  std::FILE* f = std::fopen(path.c_str(), "w");
  std::fprintf(f, "not a trace line\n");
  std::fclose(f);
  EXPECT_FALSE(LoadTrace(path).ok());
  std::remove(path.c_str());
}

TEST_F(TraceTest, ReplayPreservesRelativeTiming) {
  Trace trace = {
      {0, util::Seconds(100), "SELECT V FROM T WHERE ID = 1"},
      {0, util::Seconds(100) + util::Millis(500),
       "SELECT V FROM T WHERE ID = 2"},
  };
  RunMetrics metrics(0, util::Minutes(1));
  size_t n = ReplayTrace(&loop_, inner_.get(), trace, &metrics,
                         /*start=*/util::Millis(50));
  EXPECT_EQ(n, 2u);
  loop_.Run();
  EXPECT_EQ(metrics.count(), 2u);
  // Both queries were misses over a 10 ms RTT.
  EXPECT_GE(metrics.histogram().Min(), util::Millis(10));
}

TEST_F(TraceTest, PerClientSequencesGroupAndOrder) {
  Trace trace = {
      {1, 0, "q1"}, {2, 1, "q2"}, {1, 2, "q3"}, {2, 3, "q4"}, {1, 4, "q5"},
  };
  auto seqs = PerClientSequences(trace);
  ASSERT_EQ(seqs.size(), 2u);
  EXPECT_EQ(seqs[0], (std::vector<std::string>{"q1", "q3", "q5"}));
  EXPECT_EQ(seqs[1], (std::vector<std::string>{"q2", "q4"}));
}

TEST_F(TraceTest, RecorderFeedsFidoTraining) {
  TraceRecorder recorder(&loop_, inner_.get());
  for (int round = 0; round < 3; ++round) {
    loop_.After(util::Seconds(round), [&, round]() {
      recorder.SubmitQuery(0, "SELECT V FROM T WHERE ID = 1", [](auto) {});
    });
    loop_.After(util::Seconds(round) + util::Millis(100), [&]() {
      recorder.SubmitQuery(0, "SELECT V FROM T WHERE ID = 2", [](auto) {});
    });
  }
  loop_.Run();
  auto seqs = PerClientSequences(recorder.trace());
  ASSERT_EQ(seqs.size(), 1u);
  EXPECT_EQ(seqs[0].size(), 6u);
}

}  // namespace
}  // namespace apollo::workload
