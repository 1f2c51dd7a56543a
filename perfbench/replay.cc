// Layer replay: the traced run's client statements, in submission order,
// on two freshly set-up twin databases (same workload, same seed). Every
// statement goes through each layer's public entry point in turn, one
// span per call under a root span per statement:
//
//   sql.admit       TemplateCache::Admit
//   db.exec         Database::ExecutePrepared on twin A
//   cache.get/put   KvCache::GetCompatible, and Put on a miss, at the
//                   workload's cache budget (5% of the data)
//   rt.gateway      DbGateway::ExecuteBatchAsync at rtt 0 on twin B, then
//                   Future::Get
//   rt.pool.submit  ThreadPool::Submit of an empty task, waited for
//
// Both twins see the same statements in the same order, so the gateway's
// execution on B does the work db.exec timed on A: the gateway span minus
// that db.exec span is the gateway's hand-off cost. The two results must
// match, which checks the gateway's prepared path against the direct one.
#include <future>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench.h"
#include "cache/kv_cache.h"
#include "db/database.h"
#include "rt/db_gateway.h"
#include "rt/thread_pool.h"
#include "sql/template_cache.h"
#include "workload/workload.h"

namespace perfbench {

using namespace apollo;

namespace {

// Replay request ids start here, clear of the live run's.
constexpr uint64_t kReplayRequestBase = 1ull << 40;

// Statements replayed: enough for steady per-layer percentiles while the
// replay stays a few seconds of a traced run.
constexpr size_t kReplayStatements = 3000;

bool SameResult(const util::Result<common::ResultSetPtr>& a,
                const util::Result<common::ResultSetPtr>& b, bool read) {
  if (a.ok() != b.ok()) return false;
  if (!a.ok() || !read) return true;
  const common::ResultSetPtr& x = *a;
  const common::ResultSetPtr& y = *b;
  if (x == nullptr || y == nullptr) return x == y;
  return x->rows() == y->rows();
}

double Us(int64_t ns) { return static_cast<double>(ns) / 1e3; }

}  // namespace

void ReplayLayers(const Options& opts, std::vector<StreamEntry> stream,
                  SpanRecorder* spans, Report* out) {
  if (stream.size() > kReplayStatements) stream.resize(kReplayStatements);
  db::Database db_a, db_b;
  db_a.set_semijoin_prefilter(true);
  db_b.set_semijoin_prefilter(true);
  auto wl_a = MakeWorkload(opts.workload, opts.seed);
  auto wl_b = MakeWorkload(opts.workload, opts.seed);
  util::Status st = wl_a->Setup(&db_a);
  if (st.ok()) st = wl_b->Setup(&db_b);
  if (!st.ok()) {
    out->check_failures.push_back("replay setup failed: " + st.message());
    return;
  }

  obs::Observability obs;
  sql::TemplateCache tcache;
  cache::KvCache kv(db_a.ApproximateDataBytes() / 20, 8, &obs,
                    "replay.cache.");
  rt::ThreadPoolConfig pool_cfg;
  pool_cfg.num_threads = 4;
  rt::ThreadPool pool(pool_cfg, &obs, "replay.pool.");
  rt::DbGatewayConfig gw_cfg;
  gw_cfg.rtt = std::chrono::microseconds(0);
  rt::DbGateway gateway(&db_b, gw_cfg, &obs, "replay.gateway.");
  std::unordered_map<int, cache::VersionVector> session_vv;

  std::vector<double> admit_us, exec_us, write_exec_us, get_us, put_us,
      handoff_us;
  uint64_t fast = 0, admitted = 0, errors = 0, mismatches = 0;
  uint64_t read_rows_examined = 0, rows_returned = 0;

  for (size_t i = 0; i < stream.size(); ++i) {
    const StreamEntry& e = stream[i];
    const uint64_t req = kReplayRequestBase + i;
    const uint64_t root = spans->ReserveId();
    const int64_t root_t0 = NowNs();

    int64_t t0 = NowNs();
    auto adm = tcache.Admit(e.sql);
    int64_t t1 = NowNs();
    spans->Add("sql.admit", t0, t1, root, req);
    admit_us.push_back(Us(t1 - t0));
    if (!adm.ok()) {
      ++errors;
      spans->AddWithId(Span{"replay.stmt", root_t0, NowNs(), root, 0, req});
      continue;
    }
    ++admitted;
    if (adm->via_fast_path) ++fast;
    const bool read = adm->read_only();
    const auto& tables = read ? adm->tables_read() : adm->tables_written();

    const auto versions_before = db_a.VersionsOf(adm->tables_read());
    const uint64_t examined_before = db_a.stats().rows_examined;
    t0 = NowNs();
    auto ra = adm->preparable()
                  ? db_a.ExecutePrepared(*adm->tpl->statement, adm->params)
                  : db_a.Execute(e.sql);
    t1 = NowNs();
    const int64_t exec_ns = t1 - t0;
    spans->Add("db.exec", t0, t1, root, req);
    (read ? exec_us : write_exec_us).push_back(Us(exec_ns));
    if (!ra.ok()) ++errors;
    if (read && ra.ok() && *ra != nullptr) {
      read_rows_examined += db_a.stats().rows_examined - examined_before;
      rows_returned += (*ra)->num_rows();
    }

    cache::VersionVector& vv = session_vv[e.session];
    if (read && ra.ok()) {
      t0 = NowNs();
      auto hit = kv.GetCompatible(adm->canonical_text, vv, tables);
      t1 = NowNs();
      spans->Add("cache.get", t0, t1, root, req);
      get_us.push_back(Us(t1 - t0));
      if (hit) {
        vv.MergeMax(hit->stamp, tables);
      } else {
        cache::VersionVector stamp;
        for (const auto& [table, version] : versions_before) {
          stamp.Set(table, version);
        }
        cache::KvCache::PutAttrs attrs;
        attrs.template_id = adm->fingerprint();
        t0 = NowNs();
        kv.Put(adm->canonical_text, *ra, stamp, attrs);
        t1 = NowNs();
        spans->Add("cache.put", t0, t1, root, req);
        put_us.push_back(Us(t1 - t0));
        vv.MergeMax(stamp, tables);
      }
    } else if (ra.ok()) {
      for (const auto& [table, version] : db_a.VersionsOf(tables)) {
        vv.AdvanceTo(table, version);
      }
    }

    rt::BatchStatement bs;
    if (adm->preparable()) {
      bs.tpl = adm->tpl;
      bs.params = adm->params;
    } else {
      bs.sql = e.sql;
    }
    bs.is_write = !read;
    bs.tables = tables;
    std::vector<rt::BatchStatement> batch;
    batch.push_back(std::move(bs));
    t0 = NowNs();
    auto futures = gateway.ExecuteBatchAsync(&pool, std::move(batch));
    rt::RemoteResult rr = futures[0].Get();
    t1 = NowNs();
    spans->Add("rt.gateway", t0, t1, root, req);
    handoff_us.push_back(Us(t1 - t0 - exec_ns));
    if (!SameResult(ra, rr.result, read)) ++mismatches;

    std::promise<void> ran;
    auto done = ran.get_future();
    t0 = NowNs();
    if (pool.Submit(rt::TaskClass::kClient, [&ran] { ran.set_value(); })) {
      done.wait();
    }
    t1 = NowNs();
    spans->Add("rt.pool.submit", t0, t1, root, req);

    spans->AddWithId(Span{"replay.stmt", root_t0, NowNs(), root, 0, req});
  }
  gateway.Shutdown();
  pool.Shutdown();

  auto& m = out->metrics;
  m["sql.admit_us.p50"] = Percentile(admit_us, 50);
  m["sql.admit_us.p99"] = Percentile(admit_us, 99);
  if (admitted > 0) {
    m["sql.fast_path_ratio"] =
        Ratio(static_cast<double>(fast), static_cast<double>(admitted));
  }
  if (!exec_us.empty()) {
    m["db.exec_us.p50"] = Percentile(exec_us, 50);
    m["db.exec_us.p99"] = Percentile(exec_us, 99);
  }
  if (!write_exec_us.empty()) {
    m["db.write_exec_us.p50"] = Percentile(write_exec_us, 50);
  }
  if (rows_returned > 0) {
    m["db.rows_examined_per_row_returned"] =
        Ratio(static_cast<double>(read_rows_examined),
              static_cast<double>(rows_returned));
  }
  if (!get_us.empty()) m["cache.get_us.p50"] = Percentile(get_us, 50);
  if (!put_us.empty()) m["cache.put_us.p50"] = Percentile(put_us, 50);
  if (!handoff_us.empty()) {
    m["rt.gateway_handoff_us.p50"] = Percentile(handoff_us, 50);
    m["rt.gateway_handoff_us.p99"] = Percentile(handoff_us, 99);
  }
  out->notes.push_back("replay: " + std::to_string(stream.size()) +
                       " statements, " + std::to_string(errors) +
                       " failed on the direct path");
  if (stream.empty()) {
    out->check_failures.push_back("replay: no statements recorded");
  }
  if (mismatches != 0) {
    out->check_failures.push_back(
        "replay: " + std::to_string(mismatches) +
        " statements differ between the direct and gateway paths");
  }
}

}  // namespace perfbench
