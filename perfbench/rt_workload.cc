// The rt workloads: rt::ConcurrentApollo driven by a closed loop of
// generator threads that each round-robin 16 sessions, one interaction at
// a time, no think time. Execute blocks its caller, so a thread has at
// most one query outstanding and the loop is closed by construction.
// tpcc-write runs 4 threads (one per core), 64 sessions. At the 70 ms WAN
// 4 threads leave the system idle and yield too few queries for steady
// figures, so tpcw-wan runs 16 threads (256 sessions). At rtt 0, 4
// threads plus the runtime's 4 pool workers oversubscribe the 4 cores and
// throughput and tail latency swing by 12-16% between identical runs, so
// tpcw-cpu runs 2 threads (32 sessions). Every session waits for 15 other
// interactions between its own: that gap keeps interactions apart in the
// learner's transition windows. Sessions run back to back instead let the
// learner find spurious correlations and invalidate most FDQs.
//
// Eight resident probe sessions, spread over the first threads, check
// consistency on a table the benchmark creates. After every 16 of its
// interactions a thread that owns residents runs one probe step on the
// next of them: write its own row, read it back (read-your-writes), and
// read another resident's row, whose value only ever grows (monotonic
// reads). Probe statements count as attempted but not towards the
// workload's latency or throughput.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "db/database.h"
#include "rt/concurrent_apollo.h"
#include "sim/event_loop.h"
#include "workload/workload.h"

namespace perfbench {

using namespace apollo;

namespace {

constexpr int kSessionsPerThread = 16;
constexpr int kProbes = 8;
constexpr int kInteractionsPerProbe = 16;
constexpr int kProbeSessionBase = 1 << 20;  // clear of workload session ids
constexpr const char* kProbeTable = "PERFBENCH_PROBE";

int64_t RttUs(const std::string& name) {
  if (name == "tpcw-wan") return 70000;  // the paper's US-East/US-West WAN
  if (name == "tpcc-write") return 20000;  // one region over (Fig 8b)
  return 0;
}

int GeneratorThreads(const std::string& name) {
  if (name == "tpcw-wan") return 16;
  if (name == "tpcw-cpu") return 2;
  return 4;
}

util::Status SetupProbeTable(db::Database* db) {
  db::Schema s(kProbeTable, {{"K", common::ValueType::kInt},
                             {"V", common::ValueType::kInt}});
  s.AddIndex("PRIMARY", {"K"});
  auto st = db->CreateTable(std::move(s));
  if (!st.ok()) return st;
  for (int k = 0; k < kProbes; ++k) {
    st = db->GetTable(kProbeTable)->Insert(
        {common::Value::Int(k), common::Value::Int(0)});
    if (!st.ok()) return st;
  }
  return util::Status::OK();
}

/// Seeds of session `session`'s client behaviour and of its RNG.
uint64_t ClientSeed(uint64_t seed, int session) {
  return seed * 10007 + static_cast<uint64_t>(session);
}

uint64_t RngSeed(uint64_t seed, int session) {
  return seed * 733 + static_cast<uint64_t>(session);
}

/// One emulated client session of a generator thread.
struct GenSession {
  int id = 0;
  util::Rng rng;
  std::unique_ptr<workload::WorkloadClient> client;
  std::unique_ptr<workload::ClientContext> ctx;
};

/// The sessions of generator thread `thread`, bound to `middleware`.
std::vector<std::unique_ptr<GenSession>> MakeSessions(
    workload::Workload& wl, uint64_t seed, int thread, sim::EventLoop* loop,
    core::Middleware* middleware) {
  std::vector<std::unique_ptr<GenSession>> out;
  for (int s = 0; s < kSessionsPerThread; ++s) {
    auto g = std::make_unique<GenSession>();
    g->id = thread * kSessionsPerThread + s;
    g->rng = util::Rng(RngSeed(seed, g->id));
    g->client = wl.MakeClient(g->id, ClientSeed(seed, g->id));
    g->ctx = std::make_unique<workload::ClientContext>(loop, middleware,
                                                       g->id, &g->rng);
    out.push_back(std::move(g));
  }
  return out;
}

/// Runs one interaction; false if it did not complete inline (the shims
/// below complete every query synchronously).
bool RunInteraction(GenSession& g) {
  bool finished = false;
  g.client->RunInteraction(*g.ctx, [&finished] { finished = true; });
  return finished;
}

/// Executes statements directly on a database and records their text.
class DirectShim : public core::Middleware {
 public:
  DirectShim(db::Database* db, std::vector<std::string>* out)
      : db_(db), out_(out) {}
  void SubmitQuery(core::ClientId, const std::string& sql,
                   QueryCallback callback) override {
    out_->push_back(sql);
    callback(db_->Execute(sql));
  }
  const core::MiddlewareStats& stats() const override { return stats_; }
  std::string name() const override { return "perfbench-direct"; }

 private:
  db::Database* db_;
  std::vector<std::string>* out_;
  core::MiddlewareStats stats_;
};

/// Run-wide state the generator threads read.
struct Shared {
  /// -1 during warm-up and after the window; k inside window segment k.
  std::atomic<int> segment{-1};
  std::atomic<bool> traced{false};
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> seq{0};
  SpanRecorder* spans = nullptr;
};

struct SegmentStats {
  std::vector<double> read_us, write_us;
};

/// What one generator thread measured.
struct ThreadStats {
  std::vector<SegmentStats> segments;
  uint64_t attempted = 0, failed = 0, null_reads = 0;
  uint64_t stale_reads = 0;
  bool stalled = false;  // an interaction did not complete inline
  std::vector<StreamEntry> stream;
};

/// Routes a session's queries into ConcurrentApollo::Execute on the
/// calling generator thread and accounts them.
class LiveShim : public core::Middleware {
 public:
  LiveShim(rt::ConcurrentApollo* apollo, Shared* shared, ThreadStats* st)
      : apollo_(apollo), shared_(shared), st_(st) {}

  void SubmitQuery(core::ClientId client, const std::string& sql,
                   QueryCallback callback) override {
    const int seg = shared_->segment.load(std::memory_order_relaxed);
    const bool traced =
        seg >= 0 && shared_->traced.load(std::memory_order_relaxed);
    const uint64_t seq =
        traced ? shared_->seq.fetch_add(1, std::memory_order_relaxed) : 0;
    const int64_t t0 = NowNs();
    auto result = apollo_->Execute(client, sql);
    const int64_t t1 = NowNs();
    const bool read = IsRead(sql);
    ++st_->attempted;
    if (!result.ok()) {
      ++st_->failed;
    } else if (read && *result == nullptr) {
      ++st_->null_reads;
    }
    if (seg >= 0) {
      auto& s = st_->segments[static_cast<size_t>(seg)];
      (read ? s.read_us : s.write_us)
          .push_back(static_cast<double>(t1 - t0) / 1e3);
    }
    if (traced) {
      shared_->spans->Add("rt.execute", t0, t1, 0, seq + 1);
      st_->stream.push_back(StreamEntry{seq, client, sql});
    }
    callback(std::move(result));
  }
  const core::MiddlewareStats& stats() const override { return stats_; }
  std::string name() const override { return "perfbench-live"; }

 private:
  rt::ConcurrentApollo* apollo_;
  Shared* shared_;
  ThreadStats* st_;
  core::MiddlewareStats stats_;
};

/// A resident probe session: owns one probe row and remembers the
/// highest value it has read from every row.
struct Probe {
  int session = 0;
  int key = 0;
  int64_t value = 0;
  std::vector<int64_t> last_seen = std::vector<int64_t>(kProbes, 0);
};

void RunProbe(rt::ConcurrentApollo* apollo, Probe& p, util::Rng& rng,
              ThreadStats* st) {
  auto exec = [&](const std::string& sql) -> common::ResultSetPtr {
    auto r = apollo->Execute(p.session, sql);
    ++st->attempted;
    if (!r.ok()) {
      ++st->failed;
      return nullptr;
    }
    return *r;
  };
  auto read_value = [&](int key, int64_t* out) {
    auto rs = exec(std::string("SELECT V FROM ") + kProbeTable +
                   " WHERE K = " + std::to_string(key));
    if (rs == nullptr || rs->num_rows() != 1) {
      ++st->null_reads;
      return false;
    }
    *out = rs->At(0, 0).AsInt();
    return true;
  };
  const int64_t val = ++p.value;
  (void)exec(std::string("UPDATE ") + kProbeTable +
             " SET V = " + std::to_string(val) +
             " WHERE K = " + std::to_string(p.key));
  int64_t v = 0;
  // Read-your-writes: the row has one writer, this session.
  if (read_value(p.key, &v) && v != val) ++st->stale_reads;
  p.last_seen[static_cast<size_t>(p.key)] = val;
  // Monotonic reads: row values only grow, so reading less than this
  // session already saw for the row is a stale serve.
  const int other = static_cast<int>(rng.UniformInt(0, kProbes - 1));
  if (read_value(other, &v)) {
    int64_t& seen = p.last_seen[static_cast<size_t>(other)];
    if (v < seen) ++st->stale_reads;
    seen = std::max(seen, v);
  }
}

uint64_t CounterValue(const obs::MetricsRegistry& m, const std::string& n) {
  const obs::Counter* c = m.FindCounter(n);
  return c == nullptr ? 0 : c->Value();
}

/// Registry counters, database and cache stats at one instant.
struct Snap {
  std::map<std::string, uint64_t> c;
  db::DatabaseStats db;
  cache::CacheStats cache;
  double cpu_s = 0;
  int64_t t_ns = 0;
};

Snap TakeSnap(rt::ConcurrentApollo& apollo, db::Database& db) {
  static const char* kCounters[] = {
      "queries", "reads", "writes", "cache_hits", "cache_misses",
      "coalesced_waits", "predictions_issued", "predictions_shed",
      "predictions_skipped", "fdqs_discovered", "fdqs_invalidated",
      "gateway.batches", "gateway.batch_statements",
      "pool.rejected_predictive"};
  Snap s;
  for (const char* n : kCounters) {
    s.c[n] = CounterValue(apollo.observability().metrics,
                          std::string("rt.") + n);
  }
  s.db = db.stats();
  s.cache = apollo.result_cache().stats();
  s.cpu_s = CpuSeconds();
  s.t_ns = NowNs();
  return s;
}

/// Whether window segment `k` runs with tracing on.
bool Traced(const Options& opts, int k) { return opts.trace && k % 2 == 1; }

void SleepSeconds(double s) {
  std::this_thread::sleep_for(std::chrono::duration<double>(s));
}

}  // namespace

std::vector<std::string> GenerateStream(const std::string& workload,
                                        uint64_t seed, int interactions) {
  std::vector<std::string> out;
  db::Database db;
  auto wl = MakeWorkload(workload, seed);
  if (!wl->Setup(&db).ok()) return out;
  sim::EventLoop loop;
  DirectShim shim(&db, &out);
  auto sessions = MakeSessions(*wl, seed, /*thread=*/0, &loop, &shim);
  for (int i = 0; i < interactions; ++i) {
    if (!RunInteraction(*sessions[static_cast<size_t>(i) % sessions.size()])) {
      out.push_back("<interaction did not complete inline>");
      break;
    }
  }
  return out;
}

Report RunRtWorkload(const Options& opts) {
  Report rep;
  const std::string& name = opts.workload;

  // ---- Set-up: the first half of the timed set-ups runs now (the last
  // copy is kept), the rest after the window. ----
  const int setup_reps = SetupReps(opts);
  std::vector<double> setup_s;
  for (int i = 1; i < (setup_reps + 1) / 2; ++i) {
    setup_s.push_back(TimeSetup(name, opts.seed));
  }
  auto db = std::make_unique<db::Database>();
  db->set_semijoin_prefilter(true);
  auto wl = MakeWorkload(name, opts.seed);
  const double setup_cpu0 = CpuSeconds();
  util::Status st = wl->Setup(db.get());
  setup_s.push_back(CpuSeconds() - setup_cpu0);
  if (st.ok()) st = SetupProbeTable(db.get());
  if (!st.ok()) {
    rep.check_failures.push_back("setup failed: " + st.message());
    return rep;
  }

  // ---- Runtime: defaults except 4 pool threads, a 5% cache and the
  // workload's round trip. ----
  obs::Observability obs(opts.trace ? (1u << 20) : 8192);
  obs.trace.set_clock([] { return NowNs() / 1000; });
  rt::ConcurrentApolloConfig cfg;
  cfg.gateway.rtt = std::chrono::microseconds(RttUs(name));
  cfg.pool.num_threads = 4;
  cfg.cache_bytes = db->ApproximateDataBytes() / 20;
  rep.notes.push_back(
      CacheSizeNote(cfg.cache_bytes, db->ApproximateDataBytes()));
  auto apollo = std::make_unique<rt::ConcurrentApollo>(db.get(), cfg, &obs);

  SpanRecorder spans;
  Shared shared;
  shared.spans = &spans;
  // Untraced: ten segments, so qps and CPU per query can be medians that
  // shrug off a burst of outside load. Traced: four, tracing on the odd
  // ones, so the overhead compares interleaved halves of one warm run.
  const int num_segments = opts.trace ? 4 : 10;
  const double seg_s = opts.seconds / num_segments;
  const int num_threads = GeneratorThreads(name);
  std::vector<ThreadStats> stats(static_cast<size_t>(num_threads));
  for (auto& s : stats) s.segments.resize(num_segments);

  std::vector<std::thread> threads;
  for (int t = 0; t < num_threads; ++t) {
    threads.emplace_back([&, t] {
      ThreadStats* st = &stats[static_cast<size_t>(t)];
      sim::EventLoop loop;
      LiveShim shim(apollo.get(), &shared, st);
      auto sessions = MakeSessions(*wl, opts.seed, t, &loop, &shim);
      std::vector<Probe> probes;
      for (int key = t; key < kProbes; key += num_threads) {
        probes.emplace_back();
        probes.back().key = key;
        probes.back().session = kProbeSessionBase + key;
      }
      util::Rng probe_rng(opts.seed * 1117 + static_cast<uint64_t>(t));
      for (uint64_t n = 0; !shared.stop.load(std::memory_order_relaxed);) {
        if (!RunInteraction(*sessions[n % sessions.size()])) {
          st->stalled = true;
          return;
        }
        if (++n % kInteractionsPerProbe == 0 && !probes.empty()) {
          RunProbe(apollo.get(),
                   probes[n / kInteractionsPerProbe % probes.size()],
                   probe_rng, st);
        }
      }
    });
  }

  SleepSeconds(0.3 * opts.seconds);
  // snaps[k] is taken as segment k starts; the last one ends the window.
  std::vector<Snap> snaps;
  for (int k = 0; k < num_segments; ++k) {
    const bool traced = Traced(opts, k);
    obs.trace.set_enabled(traced);
    shared.traced.store(traced);
    snaps.push_back(TakeSnap(*apollo, *db));
    shared.segment.store(k);
    SleepSeconds(seg_s);
  }
  shared.segment.store(-1);
  shared.traced.store(false);
  obs.trace.set_enabled(false);
  snaps.push_back(TakeSnap(*apollo, *db));
  shared.stop.store(true);
  for (auto& t : threads) t.join();
  const Snap& base = snaps.front();
  const Snap& end = snaps.back();

  // ---- End-to-end ----
  std::vector<double> all_us, write_us, seg_queries(num_segments, 0);
  std::vector<StreamEntry> stream;
  uint64_t null_reads = 0, stale = 0;
  for (auto& st : stats) {
    rep.attempted += st.attempted;
    rep.failed += st.failed;
    null_reads += st.null_reads;
    stale += st.stale_reads;
    if (st.stalled) {
      rep.check_failures.push_back("an interaction did not complete");
    }
    for (int k = 0; k < num_segments; ++k) {
      const auto& s = st.segments[static_cast<size_t>(k)];
      all_us.insert(all_us.end(), s.read_us.begin(), s.read_us.end());
      all_us.insert(all_us.end(), s.write_us.begin(), s.write_us.end());
      write_us.insert(write_us.end(), s.write_us.begin(), s.write_us.end());
      seg_queries[static_cast<size_t>(k)] +=
          static_cast<double>(s.read_us.size() + s.write_us.size());
    }
    stream.insert(stream.end(), st.stream.begin(), st.stream.end());
  }
  std::vector<double> seg_cpu(num_segments), seg_qps, seg_cpu_per_query;
  for (size_t k = 0; k < seg_cpu.size(); ++k) {
    seg_cpu[k] = snaps[k + 1].cpu_s - snaps[k].cpu_s;
    const double wall_s =
        static_cast<double>(snaps[k + 1].t_ns - snaps[k].t_ns) / 1e9;
    if (Traced(opts, static_cast<int>(k))) continue;
    seg_qps.push_back(Ratio(seg_queries[k], wall_s));
    seg_cpu_per_query.push_back(Ratio(seg_cpu[k] * 1e6, seg_queries[k]));
  }
  const double queries = static_cast<double>(all_us.size());
  auto d = [&](const char* n) {
    return static_cast<double>(end.c.at(n) - base.c.at(n));
  };
  const double rt_queries = d("queries");
  rep.metrics["qps"] = Median(seg_qps);
  double sum_us = 0;
  for (double us : all_us) sum_us += us;
  rep.metrics["mean_us"] = Ratio(sum_us, queries);
  rep.metrics["p50_us"] = Percentile(all_us, 50);
  rep.metrics["p99_us"] = Percentile(all_us, 99);
  if (!write_us.empty()) rep.metrics["write_p50_us"] = Percentile(write_us, 50);

  if (write_us.size() >= 1000) {
    rep.metrics["write_p99_us"] = Percentile(write_us, 99);
  } else {
    rep.notes.push_back("write_p99_us omitted: " +
                        std::to_string(write_us.size()) +
                        " writes in the window (needs 1000)");
  }
  rep.metrics["hit_rate"] = Ratio(d("cache_hits"), d("reads"));
  rep.metrics["remote_stmts_per_query"] = Ratio(
      static_cast<double>(end.db.queries_executed - base.db.queries_executed),
      rt_queries);
  rep.metrics["wan_trips_per_query"] = Ratio(d("gateway.batches"), rt_queries);
  rep.metrics["cpu_us_per_query"] = Median(seg_cpu_per_query);
  rep.metrics["peak_rss_mb"] = PeakRssMb();
  rep.metrics["error_rate"] = Ratio(static_cast<double>(rep.failed),
                                    static_cast<double>(rep.attempted));
  rep.metrics["stale_reads"] = static_cast<double>(stale);

  if (queries == 0) rep.check_failures.push_back("no queries in the window");
  if (stale != 0) {
    rep.check_failures.push_back(std::to_string(stale) + " stale reads");
  }
  if (null_reads != 0) {
    rep.check_failures.push_back(std::to_string(null_reads) +
                                 " successful reads returned no result");
  }
  if (rep.failed != 0) {
    rep.check_failures.push_back(std::to_string(rep.failed) +
                                 " statements failed");
  }

  if (opts.trace) {
    // ---- Per-layer, from the runtime's registry and trace ring ----
    const auto& m = obs.metrics;
    double qw50 = 0, qw99 = 0;
    for (int i = 0; i < cfg.pool.num_threads; ++i) {
      const auto* h = m.FindHistogram("rt.pool.worker" + std::to_string(i) +
                                      ".queue_wait_wall_us");
      if (h == nullptr) continue;
      qw50 = std::max(qw50, static_cast<double>(h->Percentile(50)));
      qw99 = std::max(qw99, static_cast<double>(h->Percentile(99)));
    }
    rep.metrics["rt.pool_queue_wait_us.p50"] = qw50;
    rep.metrics["rt.pool_queue_wait_us.p99"] = qw99;
    if (const auto* h = m.FindHistogram("rt.gateway.batch_size")) {
      rep.metrics["rt.batch_size.p50"] = static_cast<double>(h->Percentile(50));
    }
    rep.metrics["rt.statements_per_trip"] =
        Ratio(d("gateway.batch_statements"), d("gateway.batches"));
    rep.metrics["rt.pool_rejected_predictive"] = d("pool.rejected_predictive");
    if (const auto* h = m.FindHistogram("rt.latency.learn_lock_wait_wall_us")) {
      rep.metrics["core.learn_lock_wait_us.p99"] =
          static_cast<double>(h->Percentile(99));
    }
    rep.metrics["core.predictions_per_query"] =
        Ratio(d("predictions_issued"), rt_queries);
    rep.metrics["core.predictions_skipped_per_query"] =
        Ratio(d("predictions_skipped"), rt_queries);
    rep.metrics["core.predictions_shed_per_query"] =
        Ratio(d("predictions_shed"), rt_queries);
    rep.metrics["core.coalesced_per_read"] =
        Ratio(d("coalesced_waits"), d("reads"));
    rep.metrics["core.fdqs_discovered"] =
        static_cast<double>(end.c.at("fdqs_discovered"));
    rep.metrics["core.fdqs_invalidated"] =
        static_cast<double>(end.c.at("fdqs_invalidated"));
    // The rt host records no kPredictionIssued events; its counter, read
    // at the traced segments' edges, gives the predictions issued.
    uint64_t issued_traced = 0;
    for (int k = 0; k < num_segments; ++k) {
      if (!Traced(opts, k)) continue;
      issued_traced += snaps[static_cast<size_t>(k) + 1].c.at(
                           "predictions_issued") -
                       snaps[static_cast<size_t>(k)].c.at("predictions_issued");
    }
    if (obs.trace.dropped() == 0) {
      rep.metrics["core.prediction_hit_ratio"] =
          Ratio(static_cast<double>(FirstPredictionHits(obs.trace)),
                static_cast<double>(issued_traced));
    } else {
      rep.notes.push_back("core.prediction_hit_ratio omitted: trace ring "
                          "dropped events");
    }
    const double c_hits =
        static_cast<double>(end.cache.hits - base.cache.hits);
    const double c_misses =
        static_cast<double>(end.cache.misses - base.cache.misses);
    rep.metrics["cache.hit_ratio"] = Ratio(c_hits, c_hits + c_misses);
    rep.metrics["cache.evictions_per_put"] =
        Ratio(static_cast<double>(end.cache.evictions - base.cache.evictions),
              static_cast<double>(end.cache.puts - base.cache.puts));
    rep.metrics["cache.fill_ratio"] =
        Ratio(static_cast<double>(end.cache.bytes_used),
              static_cast<double>(apollo->result_cache().capacity_bytes()));
    rep.metrics["db.rows_examined_per_stmt"] = Ratio(
        static_cast<double>(end.db.rows_examined - base.db.rows_examined),
        static_cast<double>(end.db.queries_executed -
                            base.db.queries_executed));
    double cpu_u = 0, cpu_t = 0, q_u = 0, q_t = 0;
    for (int k = 0; k < num_segments; ++k) {
      const bool traced = Traced(opts, k);
      (traced ? cpu_t : cpu_u) += seg_cpu[static_cast<size_t>(k)];
      (traced ? q_t : q_u) += seg_queries[static_cast<size_t>(k)];
    }
    const double untraced = Ratio(cpu_u, q_u);
    if (untraced > 0) {
      rep.metrics["obs.tracing_overhead_pct"] =
          (Ratio(cpu_t, q_t) / untraced - 1.0) * 100.0;
    }
  }

  apollo->Shutdown();
  apollo.reset();
  db.reset();
  wl.reset();
  while (static_cast<int>(setup_s.size()) < setup_reps) {
    setup_s.push_back(TimeSetup(name, opts.seed));
  }
  rep.metrics["setup_s"] = Median(setup_s);
  if (*std::min_element(setup_s.begin(), setup_s.end()) < 0) {
    rep.check_failures.push_back("a timed set-up failed");
  }

  if (opts.trace) {
    std::sort(stream.begin(), stream.end(),
              [](const StreamEntry& a, const StreamEntry& b) {
                return a.seq < b.seq;
              });
    ReplayLayers(opts, std::move(stream), &spans, &rep);
    rep.spans = spans.Take();
  }
  return rep;
}

}  // namespace perfbench
