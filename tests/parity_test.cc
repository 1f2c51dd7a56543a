// Parity tests for the parse-once admission path (DESIGN.md Section 10).
//
// The lex fast path must be indistinguishable from the full parse+print
// route: identical fingerprints, identical parameter vectors (bit-identical,
// type included), identical canonical text — over the entire TPC-W and
// TPC-C statement corpus and under randomized literal mutation. The
// prepared execution path must likewise produce results bit-identical to
// executing the instantiated text, and the executor's probe plans must
// return the scan plan's cells and charge its cost.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/middleware.h"
#include "db/database.h"
#include "sim/event_loop.h"
#include "sql/fast_path.h"
#include "sql/parser.h"
#include "sql/template.h"
#include "sql/template_cache.h"
#include "util/sim_time.h"
#include "workload/client_driver.h"
#include "workload/tpcc.h"
#include "workload/tpcw.h"

namespace apollo {
namespace {

workload::TpcwConfig SmallTpcw() {
  workload::TpcwConfig cfg;
  cfg.num_items = 500;
  cfg.num_customers = 400;
  cfg.num_authors = 100;
  cfg.num_orders = 360;
  return cfg;
}

workload::TpccConfig SmallTpcc() {
  workload::TpccConfig cfg;
  cfg.num_warehouses = 2;
  cfg.districts_per_warehouse = 3;
  cfg.customers_per_district = 30;
  cfg.num_items = 200;
  cfg.orders_per_district = 20;
  return cfg;
}

/// Middleware stub that executes directly against the database (so the
/// workload advances with real data) and records every submitted SQL text
/// in submission order.
class RecordingMiddleware : public core::Middleware {
 public:
  RecordingMiddleware(sim::EventLoop* loop, db::Database* db)
      : loop_(loop), db_(db) {}

  void SubmitQuery(core::ClientId, const std::string& sql,
                   QueryCallback callback) override {
    ++stats_.queries;
    corpus_.push_back(sql);
    auto result = db_->Execute(sql);
    loop_->After(util::Millis(1),
                 [result = std::move(result),
                  callback = std::move(callback)]() { callback(result); });
  }

  const core::MiddlewareStats& stats() const override { return stats_; }
  std::string name() const override { return "recording"; }
  const std::vector<std::string>& corpus() const { return corpus_; }

 private:
  sim::EventLoop* loop_;
  db::Database* db_;
  core::MiddlewareStats stats_;
  std::vector<std::string> corpus_;
};

template <typename Workload>
std::vector<std::string> CollectCorpus(Workload& wl, db::Database* db,
                                       int base_seed) {
  sim::EventLoop loop;
  RecordingMiddleware mw(&loop, db);
  std::vector<std::unique_ptr<workload::ClientDriver>> drivers;
  for (int i = 0; i < 4; ++i) {
    drivers.push_back(std::make_unique<workload::ClientDriver>(
        &loop, &mw, i, wl.MakeClient(i, base_seed + i), base_seed + 100 + i));
    drivers.back()->Start(util::Minutes(30));
  }
  loop.RunUntil(util::Minutes(31));
  return mw.corpus();
}

/// The TPC-W statement stream (ordered, with duplicates) of a fresh
/// SmallTpcw() database, collected once and shared by every test here.
const std::vector<std::string>& TpcwCorpus() {
  static const std::vector<std::string>* corpus = [] {
    db::Database db;
    workload::TpcwWorkload tpcw(SmallTpcw());
    EXPECT_TRUE(tpcw.Setup(&db).ok());
    return new std::vector<std::string>(CollectCorpus(tpcw, &db, 100));
  }();
  return *corpus;
}

/// The TPC-C stream of a fresh SmallTpcc() database, likewise.
const std::vector<std::string>& TpccCorpus() {
  static const std::vector<std::string>* corpus = [] {
    db::Database db;
    workload::TpccWorkload tpcc(SmallTpcc());
    EXPECT_TRUE(tpcc.Setup(&db).ok());
    return new std::vector<std::string>(CollectCorpus(tpcc, &db, 300));
  }();
  return *corpus;
}

/// The full TPC-W + TPC-C statement stream.
const std::vector<std::string>& Corpus() {
  static const std::vector<std::string>* corpus = [] {
    auto* out = new std::vector<std::string>(TpcwCorpus());
    out->insert(out->end(), TpccCorpus().begin(), TpccCorpus().end());
    return out;
  }();
  return *corpus;
}

/// Bit-identical value comparison: Value::operator== is numerically lenient
/// (INT 3 == DOUBLE 3.0), so compare the type tag too.
bool SameValue(const common::Value& a, const common::Value& b) {
  return a.type() == b.type() && a == b;
}

bool SameParams(const std::vector<common::Value>& a,
                const std::vector<common::Value>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!SameValue(a[i], b[i])) return false;
  }
  return true;
}

std::string ParamsToString(const std::vector<common::Value>& p) {
  std::string out = "[";
  for (const auto& v : p) out += v.ToSqlLiteral() + ", ";
  return out + "]";
}

TEST(FastPathParityTest, CorpusFingerprintsAndParamsMatchFullParse) {
  sql::TemplateCache cache;
  std::unordered_set<std::string> seen;
  size_t unique = 0;
  size_t fast = 0;
  for (const std::string& q : Corpus()) {
    if (!seen.insert(q).second) continue;
    ++unique;
    auto full = sql::Templatize(q);
    ASSERT_TRUE(full.ok()) << q;

    // Wherever the scanner claims success, its literal extraction must be
    // bit-identical to the parser's — a divergence here would silently
    // disable the fast path for this template (Admit's SameParams guard).
    sql::LexTemplateResult lex;
    if (sql::LexTemplatize(q, &lex)) {
      EXPECT_TRUE(SameParams(lex.params, full->params))
          << q << "\n  lex:  " << ParamsToString(lex.params)
          << "\n  full: " << ParamsToString(full->params);
    }

    // First admission seeds the cache (possibly via full parse); the second
    // is the steady state the fast path serves.
    auto first = cache.Admit(q);
    ASSERT_TRUE(first.ok()) << q;
    auto second = cache.Admit(q);
    ASSERT_TRUE(second.ok()) << q;
    if (second->via_fast_path) ++fast;

    for (const auto* adm : {&*first, &*second}) {
      EXPECT_EQ(adm->fingerprint(), full->fingerprint) << q;
      EXPECT_EQ(adm->template_text(), full->template_text) << q;
      EXPECT_EQ(adm->canonical_text, full->canonical_text) << q;
      EXPECT_EQ(adm->num_placeholders(), full->num_placeholders) << q;
      EXPECT_EQ(adm->read_only(), full->read_only) << q;
      EXPECT_TRUE(SameParams(adm->params, full->params))
          << q << "\n  adm:  " << ParamsToString(adm->params)
          << "\n  full: " << ParamsToString(full->params);
    }
  }
  ASSERT_GT(unique, 50u);  // the corpus is meaningful
  // The fast path must carry the bulk of steady-state admissions; a low
  // ratio means the scanner is bailing (or being rejected) on common shapes.
  EXPECT_GE(static_cast<double>(fast), 0.8 * static_cast<double>(unique))
      << "fast=" << fast << " unique=" << unique;
}

TEST(FastPathParityTest, RandomizedLiteralMutationFuzz) {
  // Deterministic fuzz: take every corpus template, rebind its parameters
  // to random values (including quote-bearing strings and negatives), and
  // check the fast path still agrees with the full parse bit-for-bit.
  std::mt19937 rng(20260807u);
  std::uniform_int_distribution<int64_t> int_dist(-1000000, 1000000);
  std::uniform_real_distribution<double> dbl_dist(-1000.0, 1000.0);
  std::uniform_int_distribution<int> len_dist(0, 18);
  const std::string alphabet =
      "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 '_-%";
  std::uniform_int_distribution<size_t> chr_dist(0, alphabet.size() - 1);

  std::unordered_map<uint64_t, sql::TemplateInfo> templates;
  for (const std::string& q : Corpus()) {
    auto full = sql::Templatize(q);
    ASSERT_TRUE(full.ok()) << q;
    templates.emplace(full->fingerprint, std::move(*full));
  }
  ASSERT_GT(templates.size(), 10u);

  sql::TemplateCache cache;
  for (const auto& [fp, info] : templates) {
    if (info.params.empty()) continue;
    for (int iter = 0; iter < 20; ++iter) {
      std::vector<common::Value> mutated = info.params;
      for (auto& v : mutated) {
        switch (v.type()) {
          case common::ValueType::kInt:
            v = common::Value::Int(int_dist(rng));
            break;
          case common::ValueType::kDouble:
            v = common::Value::Double(dbl_dist(rng));
            break;
          case common::ValueType::kString: {
            std::string s;
            int n = len_dist(rng);
            for (int i = 0; i < n; ++i) s += alphabet[chr_dist(rng)];
            v = common::Value::Str(s);
            break;
          }
          case common::ValueType::kNull:
            break;  // NULL stays NULL
        }
      }
      auto inst = sql::Instantiate(info.template_text, mutated);
      ASSERT_TRUE(inst.ok()) << info.template_text;
      auto full = sql::Templatize(*inst);
      ASSERT_TRUE(full.ok()) << *inst;
      ASSERT_EQ(full->fingerprint, fp) << *inst;

      auto adm = cache.Admit(*inst);
      ASSERT_TRUE(adm.ok()) << *inst;
      EXPECT_EQ(adm->fingerprint(), full->fingerprint) << *inst;
      EXPECT_EQ(adm->canonical_text, full->canonical_text) << *inst;
      EXPECT_TRUE(SameParams(adm->params, full->params))
          << *inst << "\n  adm:  " << ParamsToString(adm->params)
          << "\n  full: " << ParamsToString(full->params);
    }
  }
}

/// Same columns, cells (type included) and affected_rows: what a client
/// sees, whichever plan produced it.
bool SameCells(const common::ResultSet& a, const common::ResultSet& b,
               std::string* why) {
  if (a.columns() != b.columns()) {
    *why = "columns differ";
    return false;
  }
  if (a.num_rows() != b.num_rows()) {
    *why = "row counts differ";
    return false;
  }
  for (size_t r = 0; r < a.num_rows(); ++r) {
    for (size_t c = 0; c < a.num_columns(); ++c) {
      if (!SameValue(a.At(r, c), b.At(r, c))) {
        *why = "cell (" + std::to_string(r) + "," + std::to_string(c) +
               ") differs";
        return false;
      }
    }
  }
  if (a.affected_rows() != b.affected_rows()) {
    *why = "affected_rows differ";
    return false;
  }
  return true;
}

/// SameCells plus the same rows_examined: the same plan ran.
bool SameResult(const common::ResultSet& a, const common::ResultSet& b,
                std::string* why) {
  if (!SameCells(a, b, why)) return false;
  if (a.rows_examined() != b.rows_examined()) {
    *why = "rows_examined differ";
    return false;
  }
  return true;
}

/// Replays the TPC-W statement stream against two identically seeded
/// databases — one executing SQL text, one executing through the prepared
/// path whenever the admission says it can — and requires bit-identical
/// results (cells, rows_examined, affected_rows) on every statement.
TEST(PreparedExecutionParityTest, ResultsBitIdenticalToTextExecution) {
  db::Database text_db;
  db::Database prep_db;
  workload::TpcwWorkload wa(SmallTpcw());
  workload::TpcwWorkload wb(SmallTpcw());
  ASSERT_TRUE(wa.Setup(&text_db).ok());
  ASSERT_TRUE(wb.Setup(&prep_db).ok());

  const std::vector<std::string>& corpus = TpcwCorpus();
  ASSERT_GT(corpus.size(), 200u);

  sql::TemplateCache cache;
  size_t prepared = 0;
  for (const std::string& q : corpus) {
    auto expected = text_db.Execute(q);
    auto adm = cache.Admit(q);
    ASSERT_TRUE(adm.ok()) << q;
    util::Result<common::ResultSetPtr> actual =
        adm->preparable()
            ? prep_db.ExecutePrepared(*adm->tpl->statement, adm->params)
            : prep_db.Execute(q);
    if (adm->preparable()) ++prepared;

    ASSERT_EQ(expected.ok(), actual.ok()) << q;
    if (!expected.ok()) continue;
    std::string why;
    EXPECT_TRUE(SameResult(**expected, **actual, &why)) << q << ": " << why;
  }
  // The prepared path must carry the bulk of the stream, or the no-reparse
  // contract is vacuous.
  EXPECT_GE(static_cast<double>(prepared),
            0.8 * static_cast<double>(corpus.size()))
      << "prepared=" << prepared << " corpus=" << corpus.size();
}

/// Replays a workload's statement stream against two identically seeded
/// databases, one running the probe plans (IN-list probes, the semijoin
/// pre-filter) the way the simulator does, prepared where admission
/// allows, and one running the reference scan plan from text. On every
/// statement the probe plan must return the same cells, examine no more
/// rows, and report a cost_rows equal to the scan plan's rows_examined.
/// Returns how many statements the probe plan examined fewer rows on.
template <typename Workload, typename Config>
size_t ExpectProbePlanParity(const Config& cfg,
                             const std::vector<std::string>& corpus) {
  constexpr auto kCount = db::CostRows::kCount;
  db::Database probe_db;
  db::Database scan_db;
  Workload wa(cfg);
  Workload wb(cfg);
  EXPECT_TRUE(wa.Setup(&probe_db).ok());
  EXPECT_TRUE(wb.Setup(&scan_db).ok());
  scan_db.set_semijoin_prefilter(false);

  sql::TemplateCache cache;
  size_t fewer = 0;
  for (const std::string& q : corpus) {
    auto stmt = sql::Parse(q);
    auto adm = cache.Admit(q);
    if (!stmt.ok() || !adm.ok()) {
      ADD_FAILURE() << "unparseable corpus statement: " << q;
      continue;
    }
    auto probe = adm->preparable()
                     ? probe_db.ExecutePrepared(*adm->tpl->statement,
                                                adm->params, kCount)
                     : probe_db.ExecuteStatement(**stmt, kCount);
    auto scan = scan_db.ExecuteStatement(**stmt, kCount);
    EXPECT_EQ(probe.ok(), scan.ok()) << q;
    if (!probe.ok() || !scan.ok()) continue;
    const common::ResultSet& p = **probe;
    const common::ResultSet& r = **scan;
    std::string why;
    EXPECT_TRUE(SameCells(r, p, &why)) << q << ": " << why;
    EXPECT_EQ(r.cost_rows(), r.rows_examined()) << q;
    EXPECT_EQ(p.cost_rows(), r.rows_examined()) << q;
    EXPECT_LE(p.rows_examined(), r.rows_examined()) << q;
    if (p.rows_examined() < r.rows_examined()) ++fewer;
  }
  return fewer;
}

TEST(ProbePlanParityTest, TpcwMatchesScanPlanAndItsCost) {
  ASSERT_GT(TpcwCorpus().size(), 200u);
  const size_t fewer = ExpectProbePlanParity<workload::TpcwWorkload>(
      SmallTpcw(), TpcwCorpus());
  // The IN-list item lookup and the author search take the probe plans;
  // without them the cost equality above would be vacuous.
  EXPECT_GT(fewer, 0u);
}

TEST(ProbePlanParityTest, TpccMatchesScanPlanAndItsCost) {
  // TPC-C's statements are index-driven, so no probe plan applies; the
  // replay checks that both plans and their counts still agree.
  ASSERT_GT(TpccCorpus().size(), 200u);
  ExpectProbePlanParity<workload::TpccWorkload>(SmallTpcc(), TpccCorpus());
}

}  // namespace
}  // namespace apollo
