// Cluster recovery: 3 edges x 100k+ sessions through edge crash, link
// partition and rejoin (DESIGN.md Section 15).
//
// Real-thread harness over cluster::EdgeCluster. Driver threads push two
// traffic classes through the router:
//
//   - drive-by sessions (the bulk; >100k distinct ids per scenario):
//     each walks one correlated A->B->C chain once, exercising routing
//     and predictive prefetching exactly like warm_restart's regime;
//   - resident sessions: long-lived writers that continuously probe the
//     consistency contract. Each owns one CL_KV row, writes a strictly
//     increasing value and reads it straight back (read-your-writes:
//     the readback must equal the write, through failover included),
//     and cross-reads other residents' rows asserting per-session
//     monotonicity (a value lower than one this session already
//     observed would be a stale serve). Both checks count
//     staleness_violations, which must be exactly zero.
//
// Timeline (per scenario): learn to steady state; crash one edge (its
// sessions fail over with their version vectors); partition the two
// survivors (invalidations stall; the vector gate degrades to extra
// misses, never staleness); heal; restart the crashed edge and sample
// its windowed hit rate until it re-reaches 90% of its own pre-crash
// steady state. Scenario "cold" rejoins blank; scenario "warm" is
// identical (same seeds) but gossip-warm-starts from a live peer over
// the fault-injected link. The gate is warm rejoining >= 4x faster,
// with zero client-visible errors in both (no designed reject window
// exists here: some edge is always live).
//
// Emits BENCH_cluster.json; the CI cluster-smoke job gates on "pass".
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench_common.h"
#include "cluster/edge_cluster.h"
#include "db/database.h"

namespace {

using namespace apollo;

struct Opts {
  int edges = 3;
  int threads = 24;
  int chains = 1200;       // distinct A->B->C template chains
  int keys = 30;           // rows per chain table
  int residents = 600;     // long-lived consistency-probe sessions
  int drive_by_pool = 140000;  // distinct drive-by session ids (cycled)
  double warm_s = 12.0;    // phase A: learn to steady state
  double crash_s = 2.5;    // phase B: target edge down, failover traffic
  double partition_s = 2.5;  // phase C: survivors partitioned
  double recover_s = 14.0;   // phase D: post-restart ramp sampling
  /// When non-empty, each edge's learned-state snapshot is dumped to
  /// <dir>/<scenario>_e<N>.snap at scenario end — feed two of them to
  /// `snapshot_inspect --diff` to quantify cross-edge learning drift.
  std::string snapshot_dir;
  double window_s = 0.5;
  int rtt_us = 1200;
  int min_sessions = 100000;
  uint64_t seed = 42;
  std::string json_path = "BENCH_cluster.json";
};

constexpr int kKvBase = 1000000;  // CL_KV keys, clear of chain key ranges
constexpr int kMinWindowReads = 30;  // below this a window is unmeasured

void SetupClusterDb(db::Database* db, const Opts& o) {
  using common::ValueType;
  for (int t = 0; t < o.chains; ++t) {
    const std::string ts = std::to_string(t);
    {
      db::Schema s("CL_A" + ts,
                   {{"A_ID", ValueType::kInt}, {"A_B_ID", ValueType::kInt}});
      s.AddIndex("PRIMARY", {"A_ID"});
      (void)db->CreateTable(std::move(s));
    }
    {
      db::Schema s("CL_B" + ts,
                   {{"B_ID", ValueType::kInt}, {"B_C_ID", ValueType::kInt}});
      s.AddIndex("PRIMARY", {"B_ID"});
      (void)db->CreateTable(std::move(s));
    }
    {
      db::Schema s("CL_C" + ts,
                   {{"C_ID", ValueType::kInt}, {"C_V", ValueType::kInt}});
      s.AddIndex("PRIMARY", {"C_ID"});
      (void)db->CreateTable(std::move(s));
    }
    for (int k = 1; k <= o.keys; ++k) {
      (void)db->GetTable("CL_A" + ts)
          ->Insert({common::Value::Int(k), common::Value::Int(100000 + k)});
      (void)db->GetTable("CL_B" + ts)
          ->Insert({common::Value::Int(100000 + k),
                    common::Value::Int(200000 + k)});
      (void)db->GetTable("CL_C" + ts)
          ->Insert({common::Value::Int(200000 + k),
                    common::Value::Int(7 * k)});
    }
  }
  db::Schema s("CL_KV", {{"K", ValueType::kInt}, {"V", ValueType::kInt}});
  s.AddIndex("PRIMARY", {"K"});
  (void)db->CreateTable(std::move(s));
  for (int r = 0; r < o.residents; ++r) {
    (void)db->GetTable("CL_KV")->Insert(
        {common::Value::Int(kKvBase + r), common::Value::Int(0)});
  }
}

struct Window {
  double end_s = 0;     // since scenario start
  uint64_t reads = 0;   // hits + coalesced + misses in the window
  double hit_rate = 0;  // hits + coalesced over reads
};

struct ScenarioOut {
  std::vector<Window> windows;  // target edge only
  double restart_s = 0;         // restart instant, since scenario start
  double steady = 0;            // pre-crash steady hit rate (phase A tail)
  double t90_s = -1;            // restart -> 90% of steady
  uint64_t sessions = 0;
  uint64_t staleness_violations = 0;
  uint64_t client_errors = 0;
  uint64_t queries = 0;
  uint64_t inv_sent = 0, inv_applied = 0, inv_dup = 0, inv_gaps = 0;
  uint64_t gossip_bytes = 0, reroutes = 0;
  persist::RestoreStats restore;  // warm scenario only
};

/// Per-thread driver: cycles its slice of resident probes between
/// drive-by chain walks. Throttled so drive-by session cardinality stays
/// near the pool size instead of exploding when everything cache-hits.
class Driver {
 public:
  Driver(cluster::EdgeCluster* cl, const Opts& o, int tid,
         std::atomic<uint64_t>* next_session, std::atomic<bool>* stop,
         std::atomic<uint64_t>* staleness, std::atomic<uint64_t>* errors,
         std::atomic<uint64_t>* queries)
      : cl_(cl),
        o_(o),
        rng_(o.seed * 1117 + static_cast<uint64_t>(tid)),
        next_session_(next_session),
        stop_(stop),
        staleness_(staleness),
        errors_(errors),
        queries_(queries) {
    for (int r = tid; r < o.residents; r += o.threads) {
      residents_.push_back(r);
      resident_value_.push_back(0);
    }
  }

  void Run() {
    uint64_t iter = 0;
    while (!stop_->load(std::memory_order_relaxed)) {
      if (!residents_.empty() && iter % 6 == 5) {
        ResidentProbe(iter / 6 % residents_.size());
      } else {
        DriveByWalk();
      }
      ++iter;
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  }

 private:
  common::ResultSetPtr Exec(uint64_t session, const std::string& sql) {
    auto r = cl_->Execute(static_cast<core::ClientId>(session), sql);
    queries_->fetch_add(1, std::memory_order_relaxed);
    if (!r.ok()) {
      errors_->fetch_add(1, std::memory_order_relaxed);
      return nullptr;
    }
    return *r;
  }

  void DriveByWalk() {
    const uint64_t n = next_session_->fetch_add(1, std::memory_order_relaxed);
    const uint64_t sid = static_cast<uint64_t>(o_.residents) +
                         n % static_cast<uint64_t>(o_.drive_by_pool);
    const int t = static_cast<int>(rng_.UniformInt(0, o_.chains - 1));
    const int k = static_cast<int>(rng_.UniformInt(1, o_.keys));
    const std::string ts = std::to_string(t);
    (void)Exec(sid, "SELECT A_ID, A_B_ID FROM CL_A" + ts +
                        " WHERE A_ID = " + std::to_string(k));
    (void)Exec(sid, "SELECT B_ID, B_C_ID FROM CL_B" + ts +
                        " WHERE B_ID = " + std::to_string(100000 + k));
    (void)Exec(sid, "SELECT C_V FROM CL_C" + ts +
                        " WHERE C_ID = " + std::to_string(200000 + k));
  }

  void ResidentProbe(size_t slot) {
    const int r = residents_[slot];
    const uint64_t sid = static_cast<uint64_t>(r);
    const std::string key = std::to_string(kKvBase + r);
    const uint64_t val = ++resident_value_[slot];
    auto w = Exec(sid, "UPDATE CL_KV SET V = " + std::to_string(val) +
                           " WHERE K = " + key);
    auto rb = Exec(sid, "SELECT V FROM CL_KV WHERE K = " + key);
    if (w != nullptr && rb != nullptr) {
      // Read-your-writes: this session's readback must see its own write
      // (the row has exactly one writer), wherever the router sent it.
      if (rb->num_rows() != 1 ||
          rb->At(0, 0).AsInt() != static_cast<int64_t>(val)) {
        staleness_->fetch_add(1, std::memory_order_relaxed);
      }
    }
    // Cross-read another resident's row: values are strictly increasing,
    // so this session observing a smaller value than it already has for
    // that row would be a stale serve (monotonic-reads violation).
    const int other =
        static_cast<int>(rng_.UniformInt(0, o_.residents - 1));
    auto cr = Exec(sid, "SELECT V FROM CL_KV WHERE K = " +
                            std::to_string(kKvBase + other));
    if (cr != nullptr && cr->num_rows() == 1) {
      const int64_t v = cr->At(0, 0).AsInt();
      auto it = last_seen_.find(other);
      if (it != last_seen_.end() && v < it->second) {
        staleness_->fetch_add(1, std::memory_order_relaxed);
      }
      last_seen_[other] = v;
    }
  }

  cluster::EdgeCluster* cl_;
  const Opts& o_;
  util::Rng rng_;
  std::atomic<uint64_t>* next_session_;
  std::atomic<bool>* stop_;
  std::atomic<uint64_t>* staleness_;
  std::atomic<uint64_t>* errors_;
  std::atomic<uint64_t>* queries_;
  std::vector<int> residents_;          // this thread's resident slots
  std::vector<uint64_t> resident_value_;
  std::unordered_map<int, int64_t> last_seen_;  // cross-read watermarks
};

/// Mean measured hit rate over the last quarter of phase A's windows.
double SteadyOfPhaseA(const std::vector<Window>& ws, double warm_s) {
  std::vector<double> a;
  for (const auto& w : ws) {
    if (w.end_s <= warm_s && w.reads >= kMinWindowReads) {
      a.push_back(w.hit_rate);
    }
  }
  if (a.empty()) return 0.0;
  const size_t tail = std::max<size_t>(1, a.size() / 4);
  double sum = 0;
  for (size_t i = a.size() - tail; i < a.size(); ++i) sum += a[i];
  return sum / static_cast<double>(tail);
}

ScenarioOut RunScenario(const Opts& o, bool warm) {
  db::Database db;
  SetupClusterDb(&db, o);

  cluster::ClusterConfig cfg;
  cfg.num_edges = static_cast<size_t>(o.edges);
  cfg.seed = o.seed;
  cfg.edge.apollo = bench::PaperApolloConfig();
  cfg.edge.apollo.verification_period = 10;
  cfg.edge.apollo.seed = o.seed * 131;
  cfg.edge.gateway.rtt = std::chrono::microseconds(o.rtt_us);
  cfg.edge.pool.num_threads = 8;
  cfg.edge.pool.queue_capacity = 1024;
  cfg.edge.cache_bytes = db.ApproximateDataBytes() / 20;
  cfg.gossip_on_restart = warm;
  // Lively but imperfect links: transient loss plus ack loss manufacture
  // retransmissions and duplicates through the real protocol; a short
  // breaker cooldown keeps rejoin from being starved by the crash phase.
  cfg.link.faults.transient_error_rate = 0.02;
  cfg.link.ack_loss_rate = 0.02;
  cfg.link.breaker.failure_threshold = 16;
  cfg.link.breaker.cooldown = util::Millis(200);
  cfg.link.breaker.probe_jitter = 0.2;
  cfg.link.backoff.initial = util::Millis(2);
  cfg.link.backoff.cap = util::Millis(50);
  cluster::EdgeCluster cl(&db, cfg);

  const size_t target = static_cast<size_t>(o.edges) - 1;  // crash victim
  const size_t surv_a = 0, surv_b = 1;  // partitioned pair (survivors)
  auto& m = cl.observability().metrics;
  const std::string p = "cluster.e" + std::to_string(target) + ".";
  auto* hits = m.FindCounter(p + "cache_hits");
  auto* coal = m.FindCounter(p + "coalesced_waits");
  auto* misses = m.FindCounter(p + "cache_misses");

  std::atomic<uint64_t> next_session{0}, staleness{0}, errors{0}, queries{0};
  std::atomic<bool> stop{false};
  std::vector<std::unique_ptr<Driver>> drivers;
  std::vector<std::thread> threads;
  for (int t = 0; t < o.threads; ++t) {
    drivers.push_back(std::make_unique<Driver>(
        &cl, o, t, &next_session, &stop, &staleness, &errors, &queries));
    threads.emplace_back([d = drivers.back().get()] { d->Run(); });
  }

  ScenarioOut out;
  const auto t0 = std::chrono::steady_clock::now();
  auto since_start = [&t0] {
    return std::chrono::duration_cast<std::chrono::duration<double>>(
               std::chrono::steady_clock::now() - t0)
        .count();
  };

  // Sampler: windowed hit rate of the target edge (hits + coalesced over
  // all cache-gated reads), from shared counters — generations of the
  // edge share instruments, so deltas span the restart cleanly.
  std::thread sampler([&] {
    uint64_t ph = 0, pc = 0, pm = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      std::this_thread::sleep_for(
          std::chrono::microseconds(static_cast<int64_t>(o.window_s * 1e6)));
      const uint64_t h = hits->Value(), c = coal->Value(),
                     mi = misses->Value();
      Window w;
      w.end_s = since_start();
      const uint64_t dh = h - ph + c - pc, dm = mi - pm;
      w.reads = dh + dm;
      w.hit_rate = w.reads > 0
                       ? static_cast<double>(dh) / static_cast<double>(w.reads)
                       : 0.0;
      ph = h;
      pc = c;
      pm = mi;
      out.windows.push_back(w);
    }
  });

  auto sleep_s = [](double s) {
    std::this_thread::sleep_for(
        std::chrono::microseconds(static_cast<int64_t>(s * 1e6)));
  };

  sleep_s(o.warm_s);
  cl.CrashEdge(target);
  sleep_s(o.crash_s);
  cl.SetPartitioned(surv_a, surv_b, true);
  sleep_s(o.partition_s);
  cl.SetPartitioned(surv_a, surv_b, false);
  out.restart_s = since_start();
  auto rst = cl.RestartEdge(target, warm ? 1 : 0, &out.restore);
  if (!rst.ok()) {
    std::fprintf(stderr, "restart failed: %s\n", rst.message().c_str());
    std::exit(1);
  }
  sleep_s(o.recover_s);
  // Slow machines accumulate sessions slower; extend (bounded) until the
  // cardinality floor is met so the gate measures the protocol, not the
  // host. The recovery ramp is long since sampled by now.
  for (int i = 0; i < 40; ++i) {
    if (next_session.load() >= static_cast<uint64_t>(o.drive_by_pool) ||
        static_cast<uint64_t>(o.residents) + next_session.load() >=
            static_cast<uint64_t>(o.min_sessions) + 10000) {
      break;
    }
    sleep_s(0.5);
  }

  stop.store(true);
  for (auto& t : threads) t.join();
  sampler.join();

  if (!o.snapshot_dir.empty()) {
    for (int e = 0; e < o.edges; ++e) {
      if (!cl.alive(static_cast<size_t>(e))) continue;
      std::string path = o.snapshot_dir + "/" + (warm ? "warm" : "cold") +
                         "_e" + std::to_string(e) + ".snap";
      std::ofstream snap(path, std::ios::binary);
      snap << cl.edge_runtime(static_cast<size_t>(e))->SnapshotBytes();
    }
  }

  cl.Shutdown();

  out.steady = SteadyOfPhaseA(out.windows, o.warm_s);
  const double threshold = 0.9 * out.steady;
  for (const auto& w : out.windows) {
    if (w.end_s > out.restart_s && w.reads >= kMinWindowReads &&
        w.hit_rate >= threshold) {
      out.t90_s = w.end_s - out.restart_s;
      break;
    }
  }
  out.sessions =
      static_cast<uint64_t>(o.residents) +
      std::min(next_session.load(), static_cast<uint64_t>(o.drive_by_pool));
  out.staleness_violations = staleness.load();
  out.client_errors = errors.load();
  out.queries = queries.load();
  for (int e = 0; e < o.edges; ++e) {
    const auto& c = cl.counters(static_cast<size_t>(e));
    out.inv_sent += c.invalidations_sent->Value();
    out.inv_applied += c.invalidations_applied->Value();
    out.inv_dup += c.invalidations_duplicate->Value();
    out.inv_gaps += c.invalidation_gaps->Value();
    out.gossip_bytes += c.gossip_bytes->Value();
    out.reroutes += c.reroutes->Value();
  }
  return out;
}

void PrintScenario(const char* name, const ScenarioOut& s, const Opts& o) {
  std::printf(
      "%s: %llu queries over %llu sessions; steady %.1f%%; restart at "
      "%.1fs; time-to-90%%: %.1fs; staleness=%llu errors=%llu\n",
      name, static_cast<unsigned long long>(s.queries),
      static_cast<unsigned long long>(s.sessions), 100.0 * s.steady,
      s.restart_s, s.t90_s, static_cast<unsigned long long>(
                                s.staleness_violations),
      static_cast<unsigned long long>(s.client_errors));
  std::printf(
      "  repl: sent=%llu applied=%llu dup=%llu gaps=%llu gossip=%lluB "
      "reroutes=%llu\n",
      static_cast<unsigned long long>(s.inv_sent),
      static_cast<unsigned long long>(s.inv_applied),
      static_cast<unsigned long long>(s.inv_dup),
      static_cast<unsigned long long>(s.inv_gaps),
      static_cast<unsigned long long>(s.gossip_bytes),
      static_cast<unsigned long long>(s.reroutes));
  for (const auto& w : s.windows) {
    if (w.reads < kMinWindowReads) continue;
    std::printf("  [%5.1fs]%s hit-rate %5.1f%% (%llu reads)\n", w.end_s,
                w.end_s > s.restart_s ? "*" : " ", 100.0 * w.hit_rate,
                static_cast<unsigned long long>(w.reads));
  }
  (void)o;
  std::fflush(stdout);
}

bool ParseDouble(const char* arg, const char* flag, double* out) {
  size_t n = std::strlen(flag);
  if (std::strncmp(arg, flag, n) != 0 || arg[n] != '=') return false;
  *out = std::atof(arg + n + 1);
  return true;
}

bool ParseString(const char* arg, const char* flag, std::string* out) {
  size_t n = std::strlen(flag);
  if (std::strncmp(arg, flag, n) != 0 || arg[n] != '=') return false;
  *out = arg + n + 1;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Opts o;
  for (int i = 1; i < argc; ++i) {
    double v;
    if (ParseDouble(argv[i], "--warm-s", &o.warm_s) ||
        ParseDouble(argv[i], "--crash-s", &o.crash_s) ||
        ParseDouble(argv[i], "--partition-s", &o.partition_s) ||
        ParseDouble(argv[i], "--recover-s", &o.recover_s) ||
        ParseDouble(argv[i], "--window-s", &o.window_s) ||
        ParseString(argv[i], "--json", &o.json_path) ||
        ParseString(argv[i], "--snapshot-dir", &o.snapshot_dir)) {
      continue;
    }
    if (ParseDouble(argv[i], "--threads", &v)) {
      o.threads = static_cast<int>(v);
      continue;
    }
    if (ParseDouble(argv[i], "--chains", &v)) {
      o.chains = static_cast<int>(v);
      continue;
    }
    if (ParseDouble(argv[i], "--residents", &v)) {
      o.residents = static_cast<int>(v);
      continue;
    }
    if (ParseDouble(argv[i], "--min-sessions", &v)) {
      o.min_sessions = static_cast<int>(v);
      continue;
    }
    if (ParseDouble(argv[i], "--rtt-us", &v)) {
      o.rtt_us = static_cast<int>(v);
      continue;
    }
    if (ParseDouble(argv[i], "--seed", &v)) {
      o.seed = static_cast<uint64_t>(v);
      continue;
    }
    std::fprintf(
        stderr,
        "usage: cluster_recovery [--threads=N] [--chains=T] [--residents=R] "
        "[--warm-s=S] [--crash-s=S] [--partition-s=S] [--recover-s=S] "
        "[--window-s=S] [--rtt-us=U] [--min-sessions=N] [--seed=S] "
        "[--json=PATH] [--snapshot-dir=DIR]\n");
    return 2;
  }

  bench::PrintHeader(
      "Cluster recovery: 3 edges, crash + partition + rejoin, cold vs. "
      "gossip-warm (correlated-chain workload, consistency probes)");

  ScenarioOut cold = RunScenario(o, /*warm=*/false);
  PrintScenario("cold", cold, o);
  ScenarioOut warm = RunScenario(o, /*warm=*/true);
  PrintScenario("warm", warm, o);

  // A cold rejoin that never re-reaches threshold inside the sampling
  // horizon counts as the horizon itself — a lower bound that only makes
  // the >= 4x gate harder for warm, never easier.
  const double cold_t90 = cold.t90_s > 0 ? cold.t90_s : o.recover_s;
  const double speedup = warm.t90_s > 0 ? cold_t90 / warm.t90_s : -1.0;
  const uint64_t staleness =
      cold.staleness_violations + warm.staleness_violations;
  const uint64_t errors = cold.client_errors + warm.client_errors;
  const uint64_t sessions = std::min(cold.sessions, warm.sessions);
  const bool pass = staleness == 0 && errors == 0 &&
                    sessions >= static_cast<uint64_t>(o.min_sessions) &&
                    warm.t90_s > 0 && speedup >= 4.0;

  std::printf("\ncold time-to-90%%: %.1f s%s\n", cold_t90,
              cold.t90_s > 0 ? "" : " (never; horizon lower bound)");
  std::printf("warm time-to-90%%: %.1f s  (gossip restored %llu templates, "
              "%llu pairs from %llu-byte snapshot)\n",
              warm.t90_s,
              static_cast<unsigned long long>(warm.restore.templates),
              static_cast<unsigned long long>(warm.restore.pairs),
              static_cast<unsigned long long>(warm.restore.snapshot_bytes));
  std::printf("warm rejoin speedup: %.2fx (target >= 4x)\n", speedup);
  std::printf("sessions: %llu (floor %d); staleness violations: %llu; "
              "client errors: %llu\n",
              static_cast<unsigned long long>(sessions), o.min_sessions,
              static_cast<unsigned long long>(staleness),
              static_cast<unsigned long long>(errors));
  std::printf("cluster_recovery_ok=%s\n", pass ? "yes" : "NO");

  std::ofstream json(o.json_path);
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "{\"bench\":\"cluster_recovery\",\"edges\":%d,\"threads\":%d,"
      "\"chains\":%d,\"residents\":%d,\"sessions\":%llu,"
      "\"steady_hit_rate\":%.4f,\"cold_t90_s\":%.2f,\"warm_t90_s\":%.2f,"
      "\"warm_speedup\":%.2f,\"staleness_violations\":%llu,"
      "\"client_errors\":%llu,\"invalidations_sent\":%llu,"
      "\"invalidations_applied\":%llu,\"invalidations_duplicate\":%llu,"
      "\"invalidation_gaps\":%llu,\"gossip_bytes\":%llu,\"reroutes\":%llu,"
      "\"pass\":%s}\n",
      o.edges, o.threads, o.chains, o.residents,
      static_cast<unsigned long long>(sessions), cold.steady, cold_t90,
      warm.t90_s, speedup, static_cast<unsigned long long>(staleness),
      static_cast<unsigned long long>(errors),
      static_cast<unsigned long long>(cold.inv_sent + warm.inv_sent),
      static_cast<unsigned long long>(cold.inv_applied + warm.inv_applied),
      static_cast<unsigned long long>(cold.inv_dup + warm.inv_dup),
      static_cast<unsigned long long>(cold.inv_gaps + warm.inv_gaps),
      static_cast<unsigned long long>(cold.gossip_bytes + warm.gossip_bytes),
      static_cast<unsigned long long>(cold.reroutes + warm.reroutes),
      pass ? "true" : "false");
  json << buf;
  std::printf("wrote %s\n", o.json_path.c_str());
  return 0;
}
