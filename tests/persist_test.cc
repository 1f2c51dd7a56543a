// Crash-tolerant learned state (DESIGN.md §11): wire codec and CRC
// basics, snapshot framing, atomic write, round-trip byte-identity,
// restore determinism, partial recovery, and the corruption-fuzz
// guarantee that no bit flip or truncation at any byte offset can crash
// the loader.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "core/apollo_middleware.h"
#include "persist/crc32c.h"
#include "persist/snapshot.h"
#include "persist/state_codec.h"
#include "persist/wire.h"

namespace apollo {
namespace {

/// Per-test path: ctest runs each test as its own process, in parallel.
std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "apollo_persist_" +
         ::testing::UnitTest::GetInstance()->current_test_info()->name() +
         "_" + name;
}

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

TEST(Crc32cTest, KnownVector) {
  // The standard CRC-32C check value.
  EXPECT_EQ(persist::Crc32c("123456789"), 0xE3069283u);
  EXPECT_EQ(persist::Crc32c(""), 0u);
}

TEST(Crc32cTest, IncrementalMatchesOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  uint32_t crc = 0;
  for (char c : data) crc = persist::Crc32cExtend(crc, &c, 1);
  EXPECT_EQ(crc, persist::Crc32c(data));
}

TEST(WireTest, RoundTripAllTypes) {
  persist::ByteWriter w;
  w.U8(0xAB);
  w.U32(0xDEADBEEFu);
  w.U64(0x0123456789ABCDEFull);
  w.I64(-42);
  w.Dbl(3.14159);
  w.Str("hello");
  const std::string bytes = w.Take();

  persist::ByteReader r(bytes);
  EXPECT_EQ(r.U8(), 0xAB);
  EXPECT_EQ(r.U32(), 0xDEADBEEFu);
  EXPECT_EQ(r.U64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.I64(), -42);
  EXPECT_EQ(r.Dbl(), 3.14159);
  EXPECT_EQ(r.Str(), "hello");
  EXPECT_TRUE(r.Done());
}

TEST(WireTest, ReaderLatchesOnTruncation) {
  persist::ByteWriter w;
  w.U64(7);
  std::string bytes = w.Take();
  bytes.resize(5);  // cut the u64 short
  persist::ByteReader r(bytes);
  EXPECT_EQ(r.U64(), 0u);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.U32(), 0u);  // latched: later reads fail too
  EXPECT_FALSE(r.Done());
}

TEST(WireTest, CanHoldRejectsHostileCounts) {
  persist::ByteReader r(std::string(16, '\0'));
  EXPECT_TRUE(r.CanHold(2, 8));
  EXPECT_FALSE(r.CanHold(3, 8));
  EXPECT_FALSE(r.CanHold(0xFFFFFFFFu, 8));
}

TEST(SnapshotFormatTest, HeaderRejectsGarbage) {
  EXPECT_FALSE(persist::ParseSnapshot("").ok());
  EXPECT_FALSE(persist::ParseSnapshot("short").ok());
  std::string bad(64, 'X');
  EXPECT_FALSE(persist::ParseSnapshot(bad).ok());

  persist::SnapshotWriter w;
  w.AddSection(persist::kSectionTemplates, "payload");
  std::string bytes = w.Serialize(123);
  bytes[9] = 99;  // format_version -> unsupported
  EXPECT_FALSE(persist::ParseSnapshot(bytes).ok());
}

TEST(SnapshotFormatTest, SerializeParseRoundTrip) {
  persist::SnapshotWriter w;
  w.AddSection(persist::kSectionTemplates, "alpha");
  w.AddSection(persist::kSectionSessions, std::string("\0\1\2", 3));
  auto snap = persist::ParseSnapshot(w.Serialize(777));
  ASSERT_TRUE(snap.ok());
  EXPECT_EQ(snap->format_version, persist::kFormatVersion);
  EXPECT_EQ(snap->created_at_us, 777u);
  EXPECT_FALSE(snap->truncated);
  ASSERT_EQ(snap->sections.size(), 2u);
  EXPECT_EQ(snap->sections[0].type, persist::kSectionTemplates);
  EXPECT_TRUE(snap->sections[0].crc_ok);
  EXPECT_EQ(snap->sections[0].payload, "alpha");
  EXPECT_EQ(snap->sections[1].payload, std::string("\0\1\2", 3));
  EXPECT_TRUE(snap->sections[1].crc_ok);
}

TEST(SnapshotFormatTest, WriteAtomicReadBack) {
  const std::string path = TempPath("write_atomic.snap");
  std::remove(path.c_str());
  EXPECT_EQ(persist::ReadSnapshotFile(path).status().code(),
            util::StatusCode::kNotFound);

  persist::SnapshotWriter w;
  w.AddSection(persist::kSectionTemplates, "hello");
  ASSERT_TRUE(w.WriteAtomic(path, 42).ok());
  auto snap = persist::ReadSnapshotFile(path);
  ASSERT_TRUE(snap.ok());
  EXPECT_EQ(snap->created_at_us, 42u);
  ASSERT_EQ(snap->sections.size(), 1u);
  EXPECT_EQ(snap->sections[0].payload, "hello");

  // Overwrite is atomic too: the old image is fully replaced.
  persist::SnapshotWriter w2;
  w2.AddSection(persist::kSectionSessions, "bye");
  ASSERT_TRUE(w2.WriteAtomic(path, 43).ok());
  snap = persist::ReadSnapshotFile(path);
  ASSERT_TRUE(snap.ok());
  EXPECT_EQ(snap->created_at_us, 43u);
  ASSERT_EQ(snap->sections.size(), 1u);
  EXPECT_EQ(snap->sections[0].type, persist::kSectionSessions);
  std::remove(path.c_str());
}

TEST(SnapshotFormatTest, WriteAtomicFailsIntoMissingDirectory) {
  persist::SnapshotWriter w;
  w.AddSection(persist::kSectionTemplates, "x");
  EXPECT_FALSE(
      w.WriteAtomic("/nonexistent_dir_zz/sub/file.snap", 1).ok());
}

TEST(SnapshotFormatTest, SectionNames) {
  EXPECT_STREQ(persist::SectionName(persist::kSectionTemplates),
               "templates");
  EXPECT_STREQ(persist::SectionName(persist::kSectionParamMapper),
               "param_mapper");
  EXPECT_STREQ(persist::SectionName(persist::kSectionDependencyGraph),
               "dependency_graph");
  EXPECT_STREQ(persist::SectionName(persist::kSectionSessions), "sessions");
  EXPECT_STREQ(persist::SectionName(999), "unknown");
}

// ---------------------------------------------------------------------
// Middleware-level tests: a small TPC-W-like A -> B -> C chain workload
// (same shape as prediction_test.cc) drives real learning state into the
// engine, which is then checkpointed, damaged, restored, and replayed.
// ---------------------------------------------------------------------

class PersistMiddlewareTest : public ::testing::Test {
 protected:
  void SetUp() override {
    using common::ValueType;
    {
      db::Schema s("A",
                   {{"A_ID", ValueType::kInt}, {"A_B_ID", ValueType::kInt}});
      s.AddIndex("PRIMARY", {"A_ID"});
      ASSERT_TRUE(db_.CreateTable(std::move(s)).ok());
    }
    {
      db::Schema s("B",
                   {{"B_ID", ValueType::kInt}, {"B_C_ID", ValueType::kInt}});
      s.AddIndex("PRIMARY", {"B_ID"});
      ASSERT_TRUE(db_.CreateTable(std::move(s)).ok());
    }
    {
      db::Schema s("C",
                   {{"C_ID", ValueType::kInt}, {"C_V", ValueType::kInt}});
      s.AddIndex("PRIMARY", {"C_ID"});
      ASSERT_TRUE(db_.CreateTable(std::move(s)).ok());
    }
    for (int i = 1; i <= 40; ++i) {
      ASSERT_TRUE(db_.GetTable("A")
                      ->Insert({common::Value::Int(i),
                                common::Value::Int(100 + i)})
                      .ok());
      ASSERT_TRUE(db_.GetTable("B")
                      ->Insert({common::Value::Int(100 + i),
                                common::Value::Int(200 + i)})
                      .ok());
      ASSERT_TRUE(db_.GetTable("C")
                      ->Insert({common::Value::Int(200 + i),
                                common::Value::Int(7 * i)})
                      .ok());
    }
  }

  std::unique_ptr<net::RemoteDatabase> MakeRemote() {
    net::RemoteDbConfig cfg;
    cfg.rtt = sim::LatencyModel::Constant(util::Millis(50));
    return std::make_unique<net::RemoteDatabase>(&loop_, &db_, cfg);
  }

  core::ApolloConfig FastConfig() {
    core::ApolloConfig cfg;
    cfg.verification_period = 2;
    return cfg;
  }

  util::SimDuration RunQuery(core::Middleware& mw, core::ClientId client,
                             const std::string& sql) {
    util::SimTime t0 = loop_.now();
    util::SimTime t_done = -1;
    mw.SubmitQuery(client, sql, [&](auto) { t_done = loop_.now(); });
    loop_.Run();
    EXPECT_GE(t_done, 0);
    return t_done - t0;
  }

  void Settle() { loop_.RunUntil(loop_.now() + util::Seconds(2)); }

  /// Advances past the largest transition window so every observation
  /// can be folded into the graphs (Checkpoint processes closed windows,
  /// but windows still open at checkpoint time are legitimately lost —
  /// this removes that nondeterminism from state-equality assertions).
  void DrainWindows() { loop_.RunUntil(loop_.now() + util::Seconds(20)); }

  /// Drives the A -> B -> C chain for `rounds` rounds on `client`.
  void Learn(core::Middleware& mw, core::ClientId client, int rounds) {
    for (int i = 1; i <= rounds; ++i) {
      std::string s = std::to_string(i);
      RunQuery(mw, client, "SELECT A_ID, A_B_ID FROM A WHERE A_ID = " + s);
      RunQuery(mw, client, "SELECT B_ID, B_C_ID FROM B WHERE B_ID = " +
                               std::to_string(100 + i));
      RunQuery(mw, client,
               "SELECT C_V FROM C WHERE C_ID = " + std::to_string(200 + i));
      Settle();
    }
  }

  /// A learned middleware's snapshot image (via Checkpoint to a file).
  std::string LearnedSnapshotBytes(int rounds = 4) {
    auto remote = MakeRemote();
    cache::KvCache cache(1 << 22);
    core::ApolloMiddleware mw(&loop_, remote.get(), &cache, FastConfig());
    Learn(mw, 0, rounds);
    const std::string path = TempPath("learned.snap");
    EXPECT_TRUE(mw.Checkpoint(path).ok());
    std::string bytes = ReadFileOrDie(path);
    std::remove(path.c_str());
    return bytes;
  }

  db::Database db_;
  sim::EventLoop loop_;
};

TEST_F(PersistMiddlewareTest, SnapshotRestoreSnapshotIsByteIdentical) {
  auto remote = MakeRemote();
  cache::KvCache cache1(1 << 22);
  core::ApolloMiddleware mw1(&loop_, remote.get(), &cache1, FastConfig());
  Learn(mw1, 0, 4);
  // A second session so the sessions section carries more than one entry.
  Learn(mw1, 7, 2);

  const std::string p1 = TempPath("rt1.snap");
  const std::string p2 = TempPath("rt2.snap");
  ASSERT_TRUE(mw1.Checkpoint(p1).ok());

  cache::KvCache cache2(1 << 22);
  core::ApolloMiddleware mw2(&loop_, remote.get(), &cache2, FastConfig());
  persist::RestoreStats stats;
  ASSERT_TRUE(mw2.Restore(p1, &stats).ok());
  EXPECT_EQ(stats.sections_corrupt, 0u);
  EXPECT_EQ(stats.sections_unknown, 0u);
  EXPECT_EQ(stats.sections_loaded, stats.sections_total);
  EXPECT_EQ(stats.sessions, 2u);
  EXPECT_GT(stats.templates, 0u);
  ASSERT_TRUE(mw2.Checkpoint(p2).ok());

  std::string b1 = ReadFileOrDie(p1);
  std::string b2 = ReadFileOrDie(p2);
  ASSERT_GE(b1.size(), persist::kHeaderBytes);
  ASSERT_EQ(b1.size(), b2.size());
  // Everything after the header timestamp must match bit for bit.
  EXPECT_EQ(b1.substr(persist::kHeaderBytes), b2.substr(persist::kHeaderBytes));
  std::remove(p1.c_str());
  std::remove(p2.c_str());
}

TEST_F(PersistMiddlewareTest, RestoredStateReproducesPredictionDecisions) {
  auto remote = MakeRemote();
  cache::KvCache cache1(1 << 22);
  core::ApolloMiddleware mw1(&loop_, remote.get(), &cache1, FastConfig());
  Learn(mw1, 0, 4);
  DrainWindows();
  const std::string path = TempPath("decisions.snap");
  ASSERT_TRUE(mw1.Checkpoint(path).ok());

  // Fresh engine + restored learning: submitting only the A query must
  // pipeline predictions into B and C exactly as the original would.
  cache::KvCache cache2(1 << 22);
  core::ApolloMiddleware mw2(&loop_, remote.get(), &cache2, FastConfig());
  ASSERT_TRUE(mw2.Restore(path).ok());
  RunQuery(mw2, 0, "SELECT A_ID, A_B_ID FROM A WHERE A_ID = 10");
  Settle();
  auto tb = RunQuery(mw2, 0, "SELECT B_ID, B_C_ID FROM B WHERE B_ID = 110");
  auto tc = RunQuery(mw2, 0, "SELECT C_V FROM C WHERE C_ID = 210");
  EXPECT_LT(tb, util::Millis(5));
  EXPECT_LT(tc, util::Millis(5));
  Settle();

  // Replaying the same continuation on original and restored engines
  // leaves byte-identical learning state.
  RunQuery(mw1, 0, "SELECT A_ID, A_B_ID FROM A WHERE A_ID = 10");
  Settle();
  RunQuery(mw1, 0, "SELECT B_ID, B_C_ID FROM B WHERE B_ID = 110");
  RunQuery(mw1, 0, "SELECT C_V FROM C WHERE C_ID = 210");
  Settle();
  // The two replays ran at different loop times, so without a drain each
  // engine would have a different subset of replay windows closed at
  // checkpoint time.
  DrainWindows();
  const std::string p1 = TempPath("replay1.snap");
  const std::string p2 = TempPath("replay2.snap");
  ASSERT_TRUE(mw1.Checkpoint(p1).ok());
  ASSERT_TRUE(mw2.Checkpoint(p2).ok());
  std::string b1 = ReadFileOrDie(p1);
  std::string b2 = ReadFileOrDie(p2);
  ASSERT_GE(b1.size(), persist::kHeaderBytes);
  ASSERT_EQ(b1.size(), b2.size());
  EXPECT_EQ(b1.substr(persist::kHeaderBytes), b2.substr(persist::kHeaderBytes));
  std::remove(path.c_str());
  std::remove(p1.c_str());
  std::remove(p2.c_str());
}

// The template catalog travels in the snapshot: a restored template is
// found by fingerprint with its statistics before any query admits it,
// and its first admission joins that entry with a prepared statement
// and records the lex key, so the next repeat takes the fast path.
TEST_F(PersistMiddlewareTest, RestoredTemplateKeepsStatsAndJoinsAdmission) {
  auto remote = MakeRemote();
  cache::KvCache cache1(1 << 22);
  core::ApolloMiddleware mw1(&loop_, remote.get(), &cache1, FastConfig());
  Learn(mw1, 0, 4);
  const std::string c_query = "SELECT C_V FROM C WHERE C_ID = ";
  const uint64_t fp = sql::Templatize(c_query + "201")->fingerprint;
  const sql::CachedTemplate* learned =
      mw1.template_cache().GetByFingerprint(fp);
  ASSERT_NE(learned, nullptr);
  ASSERT_GT(learned->observations.load(), 0u);
  ASSERT_GT(learned->executions.load(), 0u);
  const std::string path = TempPath("catalog.snap");
  ASSERT_TRUE(mw1.Checkpoint(path).ok());

  cache::KvCache cache2(1 << 22);
  core::ApolloMiddleware mw2(&loop_, remote.get(), &cache2, FastConfig());
  ASSERT_TRUE(mw2.Restore(path).ok());
  const sql::TemplateCache& catalog = mw2.template_cache();
  const sql::CachedTemplate* restored = catalog.GetByFingerprint(fp);
  ASSERT_NE(restored, nullptr);
  EXPECT_EQ(restored->observations.load(), learned->observations.load());
  EXPECT_EQ(restored->executions.load(), learned->executions.load());
  EXPECT_EQ(restored->mean_exec_us.load(), learned->mean_exec_us.load());
  EXPECT_EQ(catalog.total_observations(),
            mw1.template_cache().total_observations());
  EXPECT_EQ(catalog.size(), mw1.template_cache().size());

  // Through the host: the first C query is a full parse that joins the
  // restored entry; the repeat takes the lex fast path.
  const uint64_t fallbacks = catalog.fallbacks();
  const uint64_t fast_hits = catalog.fast_hits();
  RunQuery(mw2, 0, c_query + "205");
  EXPECT_EQ(catalog.fallbacks(), fallbacks + 1);
  EXPECT_EQ(catalog.GetByFingerprint(fp), restored);
  EXPECT_EQ(restored->observations.load(), learned->observations.load() + 1);
  RunQuery(mw2, 0, c_query + "206");
  EXPECT_EQ(catalog.fast_hits(), fast_hits + 1);

  // The same image restored into a bare catalog: the first admission is
  // preparable, the repeat takes the fast path, both on the one entry.
  auto snap = persist::ReadSnapshotFile(path);
  ASSERT_TRUE(snap.ok());
  ASSERT_EQ(snap->sections[0].type, persist::kSectionTemplates);
  auto state = persist::DecodeTemplates(snap->sections[0].payload);
  ASSERT_TRUE(state.ok());
  sql::TemplateCache bare;
  bare.ImportState(*state);
  const sql::CachedTemplate* entry = bare.GetByFingerprint(fp);
  ASSERT_NE(entry, nullptr);
  auto first = bare.Admit(c_query + "207");
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->via_fast_path);
  EXPECT_TRUE(first->preparable());
  EXPECT_EQ(first->tpl.get(), entry);
  auto repeat = bare.Admit(c_query + "208");
  ASSERT_TRUE(repeat.ok());
  EXPECT_TRUE(repeat->via_fast_path);
  EXPECT_TRUE(repeat->preparable());
  EXPECT_EQ(repeat->tpl.get(), entry);
  EXPECT_EQ(entry->observations.load(), learned->observations.load());
  std::remove(path.c_str());
}

TEST_F(PersistMiddlewareTest, RestoreMissingFileIsNotFound) {
  auto remote = MakeRemote();
  cache::KvCache cache(1 << 22);
  core::ApolloMiddleware mw(&loop_, remote.get(), &cache, FastConfig());
  const std::string path = TempPath("does_not_exist.snap");
  std::remove(path.c_str());
  EXPECT_EQ(mw.Restore(path).code(), util::StatusCode::kNotFound);
}

TEST_F(PersistMiddlewareTest, PartialRecoveryLoadsIntactSections) {
  std::string bytes = LearnedSnapshotBytes();
  auto parsed = persist::ParseSnapshot(bytes);
  ASSERT_TRUE(parsed.ok());
  ASSERT_GE(parsed->sections.size(), 3u);

  // Corrupt exactly the param-mapper section's payload.
  size_t offset = persist::kHeaderBytes;
  bool corrupted = false;
  for (const auto& sec : parsed->sections) {
    if (sec.type == persist::kSectionParamMapper) {
      ASSERT_GT(sec.payload.size(), 0u);
      bytes[offset + persist::kSectionHeaderBytes] ^= 0xFF;
      corrupted = true;
      break;
    }
    offset += persist::kSectionHeaderBytes + sec.payload.size();
  }
  ASSERT_TRUE(corrupted);

  const std::string path = TempPath("partial.snap");
  ASSERT_TRUE(persist::WriteFileAtomic(path, bytes).ok());
  auto remote = MakeRemote();
  cache::KvCache cache(1 << 22);
  core::ApolloMiddleware mw(&loop_, remote.get(), &cache, FastConfig());
  persist::RestoreStats stats;
  ASSERT_TRUE(mw.Restore(path, &stats).ok());
  EXPECT_EQ(stats.sections_corrupt, 1u);
  EXPECT_EQ(stats.sections_loaded, stats.sections_total - 1);
  EXPECT_GT(stats.templates, 0u);  // intact sections still applied
  EXPECT_GT(stats.sessions, 0u);
  EXPECT_EQ(stats.pairs, 0u);  // the damaged one was skipped
  std::remove(path.c_str());
}

TEST_F(PersistMiddlewareTest, UnknownSectionIsSkippedNotFatal) {
  persist::SnapshotWriter w;
  w.AddSection(persist::kSectionTemplates,
               persist::EncodeTemplates(sql::TemplateCache::State{}));
  w.AddSection(4242, "mystery bytes from the future");
  const std::string path = TempPath("unknown.snap");
  ASSERT_TRUE(w.WriteAtomic(path, 1).ok());

  auto remote = MakeRemote();
  cache::KvCache cache(1 << 22);
  core::ApolloMiddleware mw(&loop_, remote.get(), &cache, FastConfig());
  persist::RestoreStats stats;
  ASSERT_TRUE(mw.Restore(path, &stats).ok());
  EXPECT_EQ(stats.sections_unknown, 1u);
  EXPECT_EQ(stats.sections_loaded, 1u);
  std::remove(path.c_str());
}

TEST_F(PersistMiddlewareTest, MemcachedHostSkipsEngineSections) {
  // A prediction-on snapshot restored into the prediction-off host: the
  // mapper and dependency-graph types are known, so they count as skipped,
  // not unknown.
  const std::string path = TempPath("to_memcached.snap");
  ASSERT_TRUE(persist::WriteFileAtomic(path, LearnedSnapshotBytes()).ok());
  auto remote = MakeRemote();
  cache::KvCache cache(1 << 22);
  core::ApolloConfig cfg = FastConfig();
  cfg.enable_prediction = false;
  core::ApolloMiddleware mw(&loop_, remote.get(), &cache, cfg);
  persist::RestoreStats stats;
  ASSERT_TRUE(mw.Restore(path, &stats).ok());
  EXPECT_EQ(stats.sections_unknown, 0u);
  EXPECT_EQ(stats.sections_corrupt, 0u);
  EXPECT_EQ(stats.sections_skipped, 2u);
  EXPECT_EQ(stats.sections_loaded, stats.sections_total - 2);
  EXPECT_GT(stats.templates, 0u);
  EXPECT_EQ(stats.pairs, 0u);
  EXPECT_EQ(stats.fdqs, 0u);
  std::remove(path.c_str());
}

TEST_F(PersistMiddlewareTest, TruncatedFileRecoversLeadingSections) {
  std::string bytes = LearnedSnapshotBytes();
  auto parsed = persist::ParseSnapshot(bytes);
  ASSERT_TRUE(parsed.ok());
  ASSERT_GE(parsed->sections.size(), 2u);
  // Keep the header + first section + half of the second.
  size_t keep = persist::kHeaderBytes + persist::kSectionHeaderBytes +
                parsed->sections[0].payload.size() +
                persist::kSectionHeaderBytes / 2;
  bytes.resize(keep);

  const std::string path = TempPath("truncated.snap");
  ASSERT_TRUE(persist::WriteFileAtomic(path, bytes).ok());
  auto remote = MakeRemote();
  cache::KvCache cache(1 << 22);
  core::ApolloMiddleware mw(&loop_, remote.get(), &cache, FastConfig());
  persist::RestoreStats stats;
  ASSERT_TRUE(mw.Restore(path, &stats).ok());
  EXPECT_TRUE(stats.truncated);
  EXPECT_EQ(stats.sections_total, 1u);
  EXPECT_EQ(stats.sections_loaded, 1u);
  std::remove(path.c_str());
}

// The loader-safety guarantee: a bit flip at EVERY byte offset and a
// truncation at EVERY length must never crash the parser, the decoders,
// or the full middleware restore path (run under ASan/UBSan in CI).
TEST_F(PersistMiddlewareTest, CorruptionFuzzBitFlipsNeverCrash) {
  const std::string pristine = LearnedSnapshotBytes(3);
  ASSERT_GT(pristine.size(), persist::kHeaderBytes);

  auto remote = MakeRemote();
  cache::KvCache cache(1 << 22);
  const std::string path = TempPath("fuzz.snap");
  for (size_t i = 0; i < pristine.size(); ++i) {
    std::string mutated = pristine;
    mutated[i] = static_cast<char>(mutated[i] ^ 0xFF);
    // Parse + decode every section regardless of CRC verdict: the
    // decoders themselves must be safe on arbitrary bytes.
    auto parsed = persist::ParseSnapshot(mutated);
    if (parsed.ok()) {
      for (const auto& sec : parsed->sections) {
        (void)persist::DecodeTemplates(sec.payload);
        (void)persist::DecodeParamMapper(sec.payload);
        (void)persist::DecodeDependencyGraph(sec.payload);
        (void)persist::DecodeSessions(sec.payload);
      }
    }
    // Full restore into a fresh engine must be crash-free too. Strided
    // (plus the whole header/first-section region) to keep the suite
    // fast under sanitizers; the decoders above run at every offset.
    if (i < 64 || i % 7 == 0) {
      ASSERT_TRUE(persist::WriteFileAtomic(path, mutated).ok());
      core::ApolloMiddleware mw(&loop_, remote.get(), &cache, FastConfig());
      persist::RestoreStats stats;
      util::Status s = mw.Restore(path, &stats);
      (void)s;  // any Status is fine; crashing is not
    }
  }
  std::remove(path.c_str());
}

TEST_F(PersistMiddlewareTest, CorruptionFuzzTruncationsNeverCrash) {
  const std::string pristine = LearnedSnapshotBytes(3);
  auto remote = MakeRemote();
  cache::KvCache cache(1 << 22);
  const std::string path = TempPath("fuzz_trunc.snap");
  for (size_t len = 0; len <= pristine.size(); ++len) {
    std::string cut = pristine.substr(0, len);
    auto parsed = persist::ParseSnapshot(cut);
    if (parsed.ok()) {
      for (const auto& sec : parsed->sections) {
        (void)persist::DecodeTemplates(sec.payload);
        (void)persist::DecodeParamMapper(sec.payload);
        (void)persist::DecodeDependencyGraph(sec.payload);
        (void)persist::DecodeSessions(sec.payload);
      }
    }
    if (len < 64 || len % 7 == 0 || len == pristine.size()) {
      ASSERT_TRUE(persist::WriteFileAtomic(path, cut).ok());
      core::ApolloMiddleware mw(&loop_, remote.get(), &cache, FastConfig());
      persist::RestoreStats stats;
      util::Status s = mw.Restore(path, &stats);
      (void)s;
    }
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Bounded learning memory.
// ---------------------------------------------------------------------

TEST(BoundedLearningTest, TransitionGraphHonorsEdgeCap) {
  core::TransitionGraph g(util::Seconds(15), /*num_stripes=*/4,
                          /*max_edges=*/64);
  // One heavy edge that must survive pruning.
  for (int i = 0; i < 200; ++i) g.AddEdgeObservation(1, 2);
  // A long tail of one-shot edges to blow past the cap.
  for (uint64_t t = 10; t < 1200; ++t) g.AddEdgeObservation(t, t + 1);
  EXPECT_LE(g.num_edges(), 64u);
  EXPECT_GT(g.pruned_edges(), 0u);
  EXPECT_EQ(g.EdgeCount(1, 2), 200u);  // evidence-weighted: kept
}

TEST(BoundedLearningTest, TransitionGraphUncappedNeverPrunes) {
  core::TransitionGraph g(util::Seconds(15));
  for (uint64_t t = 0; t < 5000; ++t) g.AddEdgeObservation(t, t + 1);
  EXPECT_EQ(g.num_edges(), 5000u);
  EXPECT_EQ(g.pruned_edges(), 0u);
}

TEST(BoundedLearningTest, ParamMapperHonorsPairCap) {
  core::ParamMapper mapper(/*verification_period=*/2, /*num_stripes=*/4,
                           /*max_pairs=*/64);
  common::ResultSet rs(std::vector<std::string>{"X"});
  rs.AddRow({common::Value::Int(5)});
  // One pair observed enough to confirm, then a long tail of one-shots.
  for (int i = 0; i < 10; ++i) {
    mapper.ObservePair(1, rs, 2, {common::Value::Int(5)});
  }
  EXPECT_TRUE(mapper.PairConfirmed(1, 2));
  for (uint64_t t = 100; t < 1500; ++t) {
    mapper.ObservePair(t, rs, t + 1, {common::Value::Int(5)});
  }
  EXPECT_LE(mapper.num_pairs(), 64u);
  EXPECT_GT(mapper.pruned_pairs(), 0u);
  // The confirmed pair outranks one-shot unconfirmed pairs.
  EXPECT_TRUE(mapper.PairConfirmed(1, 2));
}

TEST(BoundedLearningTest, PrunedEdgesCountedByMetric) {
  obs::MetricsRegistry m;
  obs::Counter* c = m.RegisterCounter("learning_pruned_edges");
  core::TransitionGraph g(util::Seconds(15), /*num_stripes=*/2,
                          /*max_edges=*/16);
  g.SetPruneCounter(c);
  for (uint64_t t = 0; t < 400; ++t) g.AddEdgeObservation(t, t + 1);
  EXPECT_GT(c->Value(), 0);
  EXPECT_EQ(static_cast<uint64_t>(c->Value()), g.pruned_edges());
}

// Codec round trips on hand-built states (no middleware involved).
TEST(StateCodecTest, EncodeDecodeRoundTrips) {
  core::ParamMapper::State ms;
  ms.verification_period = 3;
  core::ParamMapper::ExportedPair p;
  p.src = 11;
  p.dst = 22;
  p.observations = 2;
  p.masks = {0b101, 0};
  p.confirmed = true;
  p.supports = 7;
  p.violations = 1;
  ms.pairs.push_back(p);
  auto md = persist::DecodeParamMapper(persist::EncodeParamMapper(ms));
  ASSERT_TRUE(md.ok());
  ASSERT_EQ(md->pairs.size(), 1u);
  EXPECT_EQ(md->pairs[0].src, 11u);
  EXPECT_EQ(md->pairs[0].masks, (std::vector<uint64_t>{0b101, 0}));
  EXPECT_EQ(persist::EncodeParamMapper(*md), persist::EncodeParamMapper(ms));

  core::DependencyGraph::State ds;
  core::DependencyGraph::ExportedFdq f;
  f.id = 9;
  f.sources = {{5, 0}, {6, 1}};
  f.is_adq = true;
  ds.fdqs.push_back(f);
  auto dd = persist::DecodeDependencyGraph(persist::EncodeDependencyGraph(ds));
  ASSERT_TRUE(dd.ok());
  EXPECT_EQ(persist::EncodeDependencyGraph(*dd),
            persist::EncodeDependencyGraph(ds));

  // Trailing garbage must be rejected (byte-identity depends on it).
  std::string padded = persist::EncodeDependencyGraph(ds) + "x";
  EXPECT_FALSE(persist::DecodeDependencyGraph(padded).ok());
}

}  // namespace
}  // namespace apollo
