#include <gtest/gtest.h>

#include <algorithm>

#include "core/dependency_graph.h"
#include "core/param_mapper.h"
#include "core/query_stream.h"
#include "core/read_protocol.h"
#include "core/transition_graph.h"

namespace apollo::core {
namespace {

using util::Seconds;

// ---- TransitionGraph ----

TEST(TransitionGraphTest, ProbabilityIsEdgeOverVertex) {
  TransitionGraph g(Seconds(15));
  g.AddVertexObservation(1);
  g.AddVertexObservation(1);
  g.AddEdgeObservation(1, 2);
  EXPECT_DOUBLE_EQ(g.TransitionProbability(1, 2), 0.5);
  EXPECT_DOUBLE_EQ(g.TransitionProbability(1, 3), 0.0);
  EXPECT_DOUBLE_EQ(g.TransitionProbability(9, 2), 0.0);
}

TEST(TransitionGraphTest, SuccessorsFilterByThreshold) {
  TransitionGraph g(Seconds(15));
  for (int i = 0; i < 100; ++i) g.AddVertexObservation(1);
  for (int i = 0; i < 60; ++i) g.AddEdgeObservation(1, 2);
  g.AddEdgeObservation(1, 3);  // 1%
  auto succ = g.Successors(1, 0.05);
  ASSERT_EQ(succ.size(), 1u);
  EXPECT_EQ(succ[0].first, 2u);
  EXPECT_NEAR(succ[0].second, 0.6, 1e-9);
  EXPECT_EQ(g.Successors(1, 0.005).size(), 2u);
}

TEST(TransitionGraphTest, SuccessorsIncludeExactThreshold) {
  // The paper's "related at tau" is P >= tau; a successor sitting exactly
  // at the threshold must be admitted (regression: the old strict > lost
  // boundary relationships, inconsistent with the freshness model's
  // boundary handling).
  TransitionGraph g(Seconds(15));
  for (int i = 0; i < 100; ++i) g.AddVertexObservation(1);
  for (int i = 0; i < 5; ++i) g.AddEdgeObservation(1, 2);  // exactly 5%
  auto succ = g.Successors(1, 0.05);
  ASSERT_EQ(succ.size(), 1u);
  EXPECT_EQ(succ[0].first, 2u);
}

TEST(TransitionGraphTest, ProbabilityMass) {
  TransitionGraph g(Seconds(1));
  g.AddVertexObservation(1);
  g.AddVertexObservation(1);
  g.AddEdgeObservation(1, 2);
  g.AddEdgeObservation(1, 3);
  double mass =
      g.SuccessorProbabilityMass(1, [](uint64_t t) { return t != 3; });
  EXPECT_DOUBLE_EQ(mass, 0.5);
}

// ---- QueryStream / Algorithm 1 ----

TEST(QueryStreamTest, WindowsCloseAfterDeltaT) {
  QueryStream stream({Seconds(10)}, 128);
  stream.Append(1, Seconds(0));
  stream.Append(2, Seconds(5));
  stream.Append(3, Seconds(30));

  // At t=5 nothing has closed yet.
  stream.Process(Seconds(5));
  EXPECT_EQ(stream.primary().VertexCount(1), 0u);

  // At t=11 the window of entry 1 has closed: edge 1->2 (within 10 s).
  stream.Process(Seconds(11));
  EXPECT_EQ(stream.primary().VertexCount(1), 1u);
  EXPECT_EQ(stream.primary().EdgeCount(1, 2), 1u);
  EXPECT_EQ(stream.primary().EdgeCount(1, 3), 0u);

  stream.Process(Seconds(50));
  EXPECT_EQ(stream.primary().VertexCount(2), 1u);
  EXPECT_EQ(stream.primary().EdgeCount(2, 3), 0u);  // 25 s apart
  EXPECT_EQ(stream.primary().VertexCount(3), 1u);
}

TEST(QueryStreamTest, MultipleGraphsDifferentWindows) {
  QueryStream stream({Seconds(1), Seconds(10)}, 128);
  stream.Append(1, Seconds(0));
  stream.Append(2, Seconds(5));
  stream.Process(Seconds(60));
  // Small window misses the 5 s gap; big window catches it.
  EXPECT_EQ(stream.graph(0).EdgeCount(1, 2), 0u);
  EXPECT_EQ(stream.graph(1).EdgeCount(1, 2), 1u);
}

TEST(QueryStreamTest, GraphCoveringPicksSmallestSufficient) {
  QueryStream stream({Seconds(1), Seconds(5), Seconds(15)}, 128);
  EXPECT_EQ(stream.GraphCovering(util::Millis(500)).delta_t(), Seconds(1));
  EXPECT_EQ(stream.GraphCovering(Seconds(2)).delta_t(), Seconds(5));
  EXPECT_EQ(stream.GraphCovering(Seconds(60)).delta_t(), Seconds(15));
}

TEST(QueryStreamTest, EntriesWithinWindow) {
  QueryStream stream({Seconds(10)}, 128);
  stream.Append(1, Seconds(0));
  stream.Append(2, Seconds(8));
  stream.Append(3, Seconds(9));
  auto recent = stream.EntriesWithin(Seconds(9), Seconds(5));
  ASSERT_EQ(recent.size(), 2u);
  EXPECT_EQ(recent[0].qt, 2u);
  EXPECT_EQ(recent[1].qt, 3u);
}

TEST(QueryStreamTest, RepeatedPatternYieldsHighProbability) {
  QueryStream stream({Seconds(15)}, 2048);
  util::SimTime t = 0;
  for (int i = 0; i < 50; ++i) {
    stream.Append(100, t);
    stream.Append(200, t + Seconds(1));
    t += Seconds(60);
  }
  stream.Process(t + Seconds(60));
  EXPECT_GT(stream.primary().TransitionProbability(100, 200), 0.9);
  // Reverse direction was never observed within the window.
  EXPECT_DOUBLE_EQ(stream.primary().TransitionProbability(200, 100), 0.0);
}

TEST(QueryStreamTest, TrimKeepsMemoryBounded) {
  QueryStream stream({Seconds(1)}, 64);
  for (int i = 0; i < 10000; ++i) {
    stream.Append(static_cast<uint64_t>(i % 7), Seconds(i));
    if (i % 100 == 0) stream.Process(Seconds(i));
  }
  stream.Process(Seconds(10001));
  EXPECT_LE(stream.size(), 128u);
}

// ---- ParamMapper (Section 2.3) ----

common::ResultSet MakeRs(const std::vector<std::string>& cols,
                         const std::vector<common::Row>& rows) {
  common::ResultSet rs(cols);
  for (const auto& r : rows) rs.AddRow(r);
  return rs;
}

TEST(ParamMapperTest, ConfirmsAfterVerificationPeriod) {
  ParamMapper mapper(/*verification_period=*/3);
  auto rs = MakeRs({"C_ID"}, {{common::Value::Int(7)}});
  std::vector<common::Value> params = {common::Value::Int(7)};

  mapper.ObservePair(1, rs, 2, params);
  EXPECT_FALSE(mapper.PairConfirmed(1, 2));  // only 1 observation
  mapper.ObservePair(1, rs, 2, params);
  EXPECT_FALSE(mapper.PairConfirmed(1, 2));
  mapper.ObservePair(1, rs, 2, params);
  EXPECT_TRUE(mapper.PairConfirmed(1, 2));

  auto sources = mapper.GetSources(2, 1);
  ASSERT_TRUE(sources.complete);
  ASSERT_EQ(sources.per_param[0].size(), 1u);
  EXPECT_EQ(sources.per_param[0][0].src, 1u);
  EXPECT_EQ(sources.per_param[0][0].col, 0);
}

TEST(ParamMapperTest, IntersectionNarrowsColumns) {
  ParamMapper mapper(2);
  // First observation: param 5 appears in both columns.
  auto rs1 = MakeRs({"A", "B"},
                    {{common::Value::Int(5), common::Value::Int(5)}});
  mapper.ObservePair(1, rs1, 2, {common::Value::Int(5)});
  // Second observation: only column B matches.
  auto rs2 = MakeRs({"A", "B"},
                    {{common::Value::Int(9), common::Value::Int(6)}});
  mapper.ObservePair(1, rs2, 2, {common::Value::Int(6)});
  auto sources = mapper.GetSources(2, 1);
  ASSERT_TRUE(sources.complete);
  EXPECT_EQ(sources.per_param[0][0].col, 1);
}

TEST(ParamMapperTest, CoincidenceDiesOut) {
  ParamMapper mapper(2);
  auto rs1 = MakeRs({"A"}, {{common::Value::Int(5)}});
  mapper.ObservePair(1, rs1, 2, {common::Value::Int(5)});
  auto rs2 = MakeRs({"A"}, {{common::Value::Int(5)}});
  mapper.ObservePair(1, rs2, 2, {common::Value::Int(99)});  // no match
  EXPECT_FALSE(mapper.PairConfirmed(1, 2));
  EXPECT_FALSE(mapper.GetSources(2, 1).complete);
}

TEST(ParamMapperTest, PersistentDisproofInvalidates) {
  ParamMapper mapper(2);
  auto rs = MakeRs({"A"}, {{common::Value::Int(5)}});
  mapper.ObservePair(1, rs, 2, {common::Value::Int(5)});
  EXPECT_FALSE(
      mapper.ObservePair(1, rs, 2, {common::Value::Int(5)}));  // confirmed
  EXPECT_TRUE(mapper.PairConfirmed(1, 2));
  // A single contradicting observation is tolerated (it may be a stale
  // cross-transaction attribution)...
  EXPECT_FALSE(mapper.ObservePair(1, rs, 2, {common::Value::Int(42)}));
  EXPECT_TRUE(mapper.PairConfirmed(1, 2));
  // ...but persistent contradiction disproves the mapping.
  bool disproven = false;
  for (uint32_t i = 0; i < ParamMapper::kMinViolations; ++i) {
    disproven |= mapper.ObservePair(1, rs, 2, {common::Value::Int(42)});
  }
  EXPECT_TRUE(disproven);
  EXPECT_FALSE(mapper.PairConfirmed(1, 2));
}

TEST(ParamMapperTest, OccasionalMismatchesToleratedWhenSupportDominates) {
  ParamMapper mapper(2);
  auto rs = MakeRs({"A"}, {{common::Value::Int(5)}});
  mapper.ObservePair(1, rs, 2, {common::Value::Int(5)});
  mapper.ObservePair(1, rs, 2, {common::Value::Int(5)});
  ASSERT_TRUE(mapper.PairConfirmed(1, 2));
  // Mix of supports and occasional violations: stays confirmed as long as
  // supports dominate.
  for (int round = 0; round < 20; ++round) {
    for (int s = 0; s < 3; ++s) {
      EXPECT_FALSE(mapper.ObservePair(1, rs, 2, {common::Value::Int(5)}));
    }
    EXPECT_FALSE(mapper.ObservePair(1, rs, 2, {common::Value::Int(42)}));
  }
  EXPECT_TRUE(mapper.PairConfirmed(1, 2));
}

TEST(ParamMapperTest, EmptiedVerificationWindowRestarts) {
  ParamMapper mapper(3);
  auto rs5 = MakeRs({"A"}, {{common::Value::Int(5)}});
  auto rs6 = MakeRs({"A"}, {{common::Value::Int(6)}});
  // First window dies on a mismatch...
  mapper.ObservePair(1, rs5, 2, {common::Value::Int(5)});
  mapper.ObservePair(1, rs5, 2, {common::Value::Int(99)});
  EXPECT_FALSE(mapper.PairConfirmed(1, 2));
  // ...but a clean run afterwards still confirms the mapping.
  mapper.ObservePair(1, rs5, 2, {common::Value::Int(5)});
  mapper.ObservePair(1, rs6, 2, {common::Value::Int(6)});
  mapper.ObservePair(1, rs5, 2, {common::Value::Int(5)});
  EXPECT_TRUE(mapper.PairConfirmed(1, 2));
}

TEST(ParamMapperTest, MatchesAnyRowOfColumn) {
  ParamMapper mapper(1);
  auto rs = MakeRs({"X"}, {{common::Value::Int(1)},
                           {common::Value::Int(2)},
                           {common::Value::Int(3)}});
  mapper.ObservePair(1, rs, 2, {common::Value::Int(3)});
  EXPECT_TRUE(mapper.PairConfirmed(1, 2));
}

TEST(ParamMapperTest, EmptyResultSetsSkipped) {
  ParamMapper mapper(1);
  common::ResultSet empty(std::vector<std::string>{"X"});
  mapper.ObservePair(1, empty, 2, {common::Value::Int(1)});
  EXPECT_FALSE(mapper.PairConfirmed(1, 2));
}

TEST(ParamMapperTest, MultipleParamsMultipleSources) {
  ParamMapper mapper(1);
  auto rs1 = MakeRs({"W"}, {{common::Value::Int(10)}});
  auto rs2 = MakeRs({"O"}, {{common::Value::Int(20)}});
  mapper.ObservePair(1, rs1, 3,
                     {common::Value::Int(10), common::Value::Int(20)});
  mapper.ObservePair(2, rs2, 3,
                     {common::Value::Int(10), common::Value::Int(20)});
  // Param 0 from template 1, param 1 from template 2... but template 1's
  // result didn't contain 20 and template 2's didn't contain 10.
  auto sources = mapper.GetSources(3, 2);
  ASSERT_TRUE(sources.complete);
  EXPECT_EQ(sources.per_param[0][0].src, 1u);
  EXPECT_EQ(sources.per_param[1][0].src, 2u);
}

// ---- DependencyGraph (FDQ/ADQ) ----

TEST(DependencyGraphTest, AddAndLookup) {
  DependencyGraph g;
  EXPECT_FALSE(g.Contains(10));
  Fdq* f = g.Add(10, {{5, 0}, {5, 1}});
  EXPECT_TRUE(g.Contains(10));
  EXPECT_EQ(f->deps, (std::vector<uint64_t>{5}));
  ASSERT_EQ(g.DependentsOf(5).size(), 1u);
  EXPECT_EQ(g.DependentsOf(5)[0]->id, 10u);
  EXPECT_TRUE(g.DependentsOf(999).empty());
}

TEST(DependencyGraphTest, ZeroParamIsAdq) {
  DependencyGraph g;
  Fdq* f = g.Add(1, {});
  EXPECT_TRUE(f->is_adq);
}

TEST(DependencyGraphTest, AdqPropagatesThroughHierarchy) {
  DependencyGraph g;
  // 2 depends on 1 before 1 is known: not ADQ yet.
  Fdq* f2 = g.Add(2, {{1, 0}});
  EXPECT_FALSE(f2->is_adq);
  // Registering 1 as a parameterless ADQ upgrades 2 (paper Section 3.1).
  g.Add(1, {});
  EXPECT_TRUE(f2->is_adq);
  // And a deeper dependent becomes ADQ immediately.
  Fdq* f3 = g.Add(3, {{2, 0}});
  EXPECT_TRUE(f3->is_adq);
}

TEST(DependencyGraphTest, NonAdqDependencyBlocksAdq) {
  DependencyGraph g;
  Fdq* f = g.Add(2, {{1, 0}});  // template 1 is a plain dependency query
  g.Add(3, {{2, 0}, {7, 0}});   // 7 unknown
  EXPECT_FALSE(f->is_adq);
  EXPECT_FALSE(g.Get(3)->is_adq);
}

TEST(DependencyGraphTest, CycleIsNotAdq) {
  DependencyGraph g;
  g.Add(1, {{2, 0}});
  g.Add(2, {{1, 0}});
  EXPECT_FALSE(g.Get(1)->is_adq);
  EXPECT_FALSE(g.Get(2)->is_adq);
}

TEST(DependencyGraphTest, InvalidateDisables) {
  DependencyGraph g;
  g.Add(1, {});
  EXPECT_EQ(g.Adqs().size(), 1u);
  g.Invalidate(1);
  EXPECT_TRUE(g.Get(1)->invalid);
  EXPECT_TRUE(g.Adqs().empty());
}

TEST(DependencyGraphTest, RemoveRevokesAdqTagsTransitively) {
  // 1 (parameterless ADQ) <- 2 <- 3 <- 4: removing 1 must untag the whole
  // chain, not just the direct dependent (regression: informed reload kept
  // executing hierarchies whose root was invalidated).
  DependencyGraph g;
  g.Add(1, {});
  g.Add(2, {{1, 0}});
  g.Add(3, {{2, 0}});
  g.Add(4, {{3, 0}});
  ASSERT_TRUE(g.Get(4)->is_adq);
  std::vector<uint64_t> revoked;
  g.Remove(1, &revoked);
  EXPECT_FALSE(g.Get(2)->is_adq);
  EXPECT_FALSE(g.Get(3)->is_adq);
  EXPECT_FALSE(g.Get(4)->is_adq);
  // The removed root was itself an ADQ, so all four ids are reported.
  std::sort(revoked.begin(), revoked.end());
  EXPECT_EQ(revoked, (std::vector<uint64_t>{1, 2, 3, 4}));
  EXPECT_TRUE(g.Adqs().empty());
}

TEST(DependencyGraphTest, InvalidateRevokesAdqTagsTransitively) {
  DependencyGraph g;
  g.Add(1, {});
  g.Add(2, {{1, 0}});
  g.Add(3, {{2, 0}});
  std::vector<uint64_t> revoked;
  g.Invalidate(2, &revoked);
  EXPECT_TRUE(g.Get(1)->is_adq);   // the root is untouched
  EXPECT_FALSE(g.Get(2)->is_adq);
  EXPECT_FALSE(g.Get(3)->is_adq);
  std::sort(revoked.begin(), revoked.end());
  EXPECT_EQ(revoked, (std::vector<uint64_t>{2, 3}));
}

TEST(DependencyGraphTest, AddReportsUpgradedDependents) {
  DependencyGraph g;
  g.Add(2, {{1, 0}});
  g.Add(3, {{2, 0}});
  std::vector<uint64_t> upgraded;
  Fdq* root = g.Add(1, {}, &upgraded);
  EXPECT_TRUE(root->is_adq);
  std::sort(upgraded.begin(), upgraded.end());
  // The root reports the *other* nodes its addition completed.
  EXPECT_EQ(upgraded, (std::vector<uint64_t>{2, 3}));
}

// ---- ReadProtocol: single flight (Section 3.3) ----

// Single flight never touches the cache, so these protocols have none.
TEST(InflightRegistryTest, FirstIsLeader) {
  ReadProtocol reg(/*cache=*/nullptr, /*single_flight=*/true);
  int fired = 0;
  int subscribed = 0;
  auto subscribe = [&] {
    const bool leader =
        reg.LeadOrSubscribe("k", [&](auto&, auto&) { ++fired; });
    if (!leader) ++subscribed;
    return leader;
  };
  EXPECT_TRUE(subscribe());
  EXPECT_FALSE(subscribe());
  EXPECT_FALSE(subscribe());
  EXPECT_EQ(subscribed, 2);
  EXPECT_TRUE(reg.InFlight("k"));

  auto rs = std::make_shared<common::ResultSet>();
  cache::VersionVector vv;
  reg.Publish("k", util::Result<common::ResultSetPtr>(rs), vv);
  // Only the two subscribers fire (the leader handles its own callback).
  EXPECT_EQ(fired, 2);
  EXPECT_FALSE(reg.InFlight("k"));
  // Key reusable afterwards.
  EXPECT_TRUE(reg.LeadOrSubscribe("k", [&](auto&, auto&) {}));
}

TEST(InflightRegistryTest, CompleteUnknownKeyIsNoop) {
  ReadProtocol reg(/*cache=*/nullptr, /*single_flight=*/true);
  cache::VersionVector vv;
  reg.Publish("nope", util::Status::Internal("x"), vv);  // no crash
}

TEST(InflightRegistryTest, ReentrantSubscribeDuringComplete) {
  ReadProtocol reg(/*cache=*/nullptr, /*single_flight=*/true);
  int outer = 0;
  bool leader_again = false;
  EXPECT_TRUE(reg.LeadOrSubscribe("k", [](auto&, auto&) {}));
  reg.LeadOrSubscribe("k", [&](auto&, auto&) {
    ++outer;
    // Re-submitting the same key during completion must become leader.
    leader_again = reg.LeadOrSubscribe("k", [](auto&, auto&) {});
  });
  auto rs = std::make_shared<common::ResultSet>();
  reg.Publish("k", util::Result<common::ResultSetPtr>(rs),
              cache::VersionVector());
  EXPECT_EQ(outer, 1);
  EXPECT_TRUE(leader_again);
}

TEST(ReadProtocolTest, SingleFlightOffMakesEveryCallerALeader) {
  ReadProtocol reg(/*cache=*/nullptr, /*single_flight=*/false);
  EXPECT_TRUE(reg.LeadOrSubscribe("k", [](auto&, auto&) {}));
  EXPECT_TRUE(reg.LeadOrSubscribe("k", [](auto&, auto&) {}));
  EXPECT_FALSE(reg.InFlight("k"));
}

// ---- ReadProtocol: session consistency (Section 3.2) ----

TEST(ReadProtocolTest, PublishedVerdictTable) {
  using Verdict = ReadProtocol::Verdict;
  const std::vector<std::string> tables = {"T"};
  const util::Result<common::ResultSetPtr> ok(
      std::make_shared<common::ResultSet>());
  cache::VersionVector vv;
  vv.Set("T", 5);
  vv.Set("U", 9);  // not read: never compared, never moved
  cache::VersionVector stale;
  stale.Set("T", 4);
  cache::VersionVector dominating;
  dominating.Set("T", 7);

  // A stamp trailing the session: the leader read before this session's
  // write. Re-read, vector unchanged.
  EXPECT_EQ(ReadProtocol::OnPublished(vv, ok, stale, tables),
            Verdict::kReRead);
  EXPECT_EQ(vv.Get("T"), 5u);
  // A retryable failure: re-read privately.
  EXPECT_EQ(ReadProtocol::OnPublished(
                vv, util::Status::Unavailable("link down"), {}, tables),
            Verdict::kReRead);
  EXPECT_EQ(vv.Get("T"), 5u);
  // Any other failure is the query's own: fail.
  EXPECT_EQ(ReadProtocol::OnPublished(
                vv, util::Status::InvalidArgument("bad query"), {}, tables),
            Verdict::kFail);
  EXPECT_EQ(vv.Get("T"), 5u);
  // A dominating stamp: accept, and the session has now seen it.
  EXPECT_EQ(ReadProtocol::OnPublished(vv, ok, dominating, tables),
            Verdict::kAccept);
  EXPECT_EQ(vv.Get("T"), 7u);
  EXPECT_EQ(vv.Get("U"), 9u);
  // An equal stamp dominates too.
  EXPECT_EQ(ReadProtocol::OnPublished(vv, ok, dominating, tables),
            Verdict::kAccept);
}

TEST(ReadProtocolTest, FillsStampTheCacheAndSessionsObserveThem) {
  cache::KvCache cache(1u << 20);
  ReadProtocol protocol(&cache, /*single_flight=*/true);
  sql::TemplateCache tcache;
  auto read = tcache.Admit("SELECT V FROM T WHERE ID = 1");
  ASSERT_TRUE(read.ok());
  const common::ResultSetPtr rs = std::make_shared<common::ResultSet>();

  // A client fill puts the result stamped with the remote's versions;
  // observing it advances the session on the tables read only.
  cache::VersionVector vv;
  const cache::VersionVector stamp = protocol.Fill(
      *read, rs, {{"T", 3}, {"X", 8}}, /*miss_cost=*/70, /*now=*/1);
  EXPECT_EQ(stamp.Get("T"), 3u);
  EXPECT_EQ(stamp.Get("X"), 8u);
  ReadProtocol::Observe(vv, stamp, read->tables_read());
  EXPECT_EQ(vv.Get("T"), 3u);
  EXPECT_EQ(vv.Get("X"), 0u);
  auto entry = cache.GetCompatible(read->canonical_text, vv, {"T"});
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->result, rs);

  // A hit observes the entry's stamp; a write ack advances every table
  // the write reported.
  cache::VersionVector other;
  ReadProtocol::Observe(other, entry->stamp, read->tables_read());
  EXPECT_EQ(other.Get("T"), 3u);
  ReadProtocol::OnWriteAck(other, {{"T", 4}, {"W", 2}});
  EXPECT_EQ(other.Get("T"), 4u);
  EXPECT_EQ(other.Get("W"), 2u);

  // Prediction admission: a write is refused, a compatible entry skips,
  // a trailing one does not; the first admission leads and the next one
  // subscribes until the leader publishes.
  auto noop = [](const common::ResultSetPtr&) {};
  auto write = tcache.Admit("UPDATE T SET V = 2 WHERE ID = 1");
  ASSERT_TRUE(write.ok());
  EXPECT_EQ(protocol.AdmitPrediction(write, vv, noop),
            ReadProtocol::Admission::kNotRead);
  EXPECT_EQ(protocol.AdmitPrediction(read, vv, noop),
            ReadProtocol::Admission::kCached);
  EXPECT_EQ(protocol.AdmitPrediction(read, other, noop),
            ReadProtocol::Admission::kAdmit);
  int landed = 0;
  EXPECT_EQ(protocol.AdmitPrediction(
                read, other, [&](const common::ResultSetPtr&) { ++landed; }),
            ReadProtocol::Admission::kInFlight);
  const cache::VersionVector predicted = protocol.FillPredicted(
      read->canonical_text, read->fingerprint(), /*probability=*/0.5, rs,
      {{"T", 4}}, /*miss_cost=*/70, /*now=*/2);
  protocol.Publish(read->canonical_text, util::Result<common::ResultSetPtr>(rs),
                   predicted);
  EXPECT_EQ(landed, 1);
  EXPECT_EQ(protocol.AdmitPrediction(read, other, noop),
            ReadProtocol::Admission::kCached);
}

}  // namespace
}  // namespace apollo::core
