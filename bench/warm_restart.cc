// Warm restart: time-to-90%-of-steady-state hit rate, cold vs. warm
// (DESIGN.md Section 11).
//
// The workload is correlation-dominated: each interaction walks one of
// `--chains` distinct three-step query chains (A -> B -> C, parameters
// propagated through result values, fresh key per interaction drawn from
// a keyspace far larger than the cache). Residency-based hits are
// therefore rare; nearly every cache hit is a *predictive prefetch* that
// exists only because the middleware has confirmed that chain's
// transition edges and param mappings. That is the regime the paper's
// geo-distributed applications live in, and the one where learned state
// is expensive to rebuild: each chain must be observed
// verification-period times before its predictions fire, so a cold
// instance relearns for minutes.
//
// Scenario "cold": blank learning state, online relearn; windowed samples
// record when the hit rate first reaches 90% of its own steady state
// (mean over the run's last quarter). The learned state is then
// checkpointed.
//
// Scenario "warm": identical testbed and seeds, fresh *empty* cache —
// only learning state crosses the restart, cached result sets are
// deliberately not trusted — but Restore() runs before the first query.
// Predictions fire from each client's first interaction, so the hit rate
// should cross the same threshold in <= 20% of the cold relearn time,
// with zero client-visible errors in either run.
//
// Hits are counted as cache hits plus coalesced waits (a read served by
// subscribing to an in-flight prefetch avoided the WAN round trip just
// the same). Emits BENCH_warm_restart.json plus the snapshot itself for
// the CI artifact; phase lengths are overridable so the CI smoke job can
// run a short version.
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/apollo_middleware.h"
#include "persist/snapshot.h"
#include "workload/client_driver.h"

namespace {

using namespace apollo;

struct Opts {
  int clients = 20;
  int chains = 60;         // distinct A->B->C template chains
  int keys = 200;          // rows per chain table
  double cold_minutes = 10.0;  // cold run: relearn + steady-state tail
  double warm_minutes = 4.0;   // warm run only needs to show the ramp
  double window_s = 15.0;      // hit-rate sampling window
  uint64_t seed = 42;
  std::string snapshot_path = "warm_restart.snapshot";
  std::string json_path = "BENCH_warm_restart.json";
};

/// One emulated client: think, then walk a random chain, propagating the
/// key through the three steps with a short app-side pause between them
/// (the render-then-query gap that prefetches exploit).
class ChainClient : public workload::WorkloadClient {
 public:
  ChainClient(int chains, int keys) : chains_(chains), keys_(keys) {}

  void RunInteraction(workload::ClientContext& ctx,
                      std::function<void()> done) override {
    const int t = static_cast<int>(ctx.rng().UniformInt(0, chains_ - 1));
    const int k = static_cast<int>(ctx.rng().UniformInt(1, keys_));
    const std::string ts = std::to_string(t);
    auto step3 = [&ctx, ts, k, done]() {
      ctx.Query("SELECT C_V FROM WR_C" + ts + " WHERE C_ID = " +
                    std::to_string(200000 + k),
                [done](common::ResultSetPtr) { done(); });
    };
    auto step2 = [&ctx, ts, k, step3]() {
      ctx.Query("SELECT B_ID, B_C_ID FROM WR_B" + ts + " WHERE B_ID = " +
                    std::to_string(100000 + k),
                [&ctx, step3](common::ResultSetPtr) {
                  ctx.loop()->After(util::Millis(200), step3);
                });
    };
    ctx.Query("SELECT A_ID, A_B_ID FROM WR_A" + ts + " WHERE A_ID = " +
                  std::to_string(k),
              [&ctx, step2](common::ResultSetPtr) {
                ctx.loop()->After(util::Millis(200), step2);
              });
  }

  double MeanThinkSeconds() const override { return 2.0; }

 private:
  int chains_;
  int keys_;
};

void SetupChainDb(db::Database* db, int chains, int keys) {
  using common::ValueType;
  for (int t = 0; t < chains; ++t) {
    const std::string ts = std::to_string(t);
    {
      db::Schema s("WR_A" + ts,
                   {{"A_ID", ValueType::kInt}, {"A_B_ID", ValueType::kInt}});
      s.AddIndex("PRIMARY", {"A_ID"});
      (void)db->CreateTable(std::move(s));
    }
    {
      db::Schema s("WR_B" + ts,
                   {{"B_ID", ValueType::kInt}, {"B_C_ID", ValueType::kInt}});
      s.AddIndex("PRIMARY", {"B_ID"});
      (void)db->CreateTable(std::move(s));
    }
    {
      db::Schema s("WR_C" + ts,
                   {{"C_ID", ValueType::kInt}, {"C_V", ValueType::kInt}});
      s.AddIndex("PRIMARY", {"C_ID"});
      (void)db->CreateTable(std::move(s));
    }
    for (int k = 1; k <= keys; ++k) {
      (void)db->GetTable("WR_A" + ts)
          ->Insert({common::Value::Int(k), common::Value::Int(100000 + k)});
      (void)db->GetTable("WR_B" + ts)
          ->Insert({common::Value::Int(100000 + k),
                    common::Value::Int(200000 + k)});
      (void)db->GetTable("WR_C" + ts)
          ->Insert({common::Value::Int(200000 + k),
                    common::Value::Int(7 * k)});
    }
  }
}

struct ScenarioOut {
  std::vector<double> window_end_s;
  std::vector<double> window_hit_rate;
  uint64_t client_errors = 0;
  uint64_t queries = 0;
  uint64_t predictions = 0;
  persist::RestoreStats restore;  // warm scenario only
};

/// First window end at which the hit rate reaches `threshold`; -1 if the
/// run never gets there.
double TimeToThreshold(const ScenarioOut& s, double threshold) {
  for (size_t i = 0; i < s.window_hit_rate.size(); ++i) {
    if (s.window_hit_rate[i] >= threshold) return s.window_end_s[i];
  }
  return -1.0;
}

/// Mean hit rate over the last quarter of the run's windows.
double SteadyHitRate(const ScenarioOut& s) {
  if (s.window_hit_rate.empty()) return 0.0;
  size_t tail = std::max<size_t>(1, s.window_hit_rate.size() / 4);
  double sum = 0.0;
  for (size_t i = s.window_hit_rate.size() - tail;
       i < s.window_hit_rate.size(); ++i) {
    sum += s.window_hit_rate[i];
  }
  return sum / static_cast<double>(tail);
}

/// Builds a fresh testbed (database, WAN, cache, middleware, clients) and
/// runs one scenario. Cold and warm runs differ only in `warm` (Restore
/// before the first query) and in length; all seeds match, so the client
/// population and think-time schedules are identical.
ScenarioOut RunScenario(const Opts& o, bool warm, double minutes) {
  db::Database db;
  SetupChainDb(&db, o.chains, o.keys);

  sim::EventLoop loop;
  auto obs = std::make_shared<obs::Observability>(8192);
  obs->trace.set_clock([&loop]() { return loop.now(); });
  obs->trace.set_enabled(true);

  net::RemoteDbConfig rcfg = bench::WanRemote();
  rcfg.seed = o.seed * 7919 + 13;
  net::RemoteDatabase remote(&loop, &db, rcfg, obs.get());

  // Cache far smaller than the keyspace: residency hits stay marginal, so
  // the hit rate tracks predictive prefetches — the component of steady
  // state that learned state actually buys.
  cache::KvCache cache(db.ApproximateDataBytes() / 50, /*num_shards=*/8,
                       obs.get(), "cache0.");
  core::ApolloConfig acfg = bench::PaperApolloConfig();
  // Paper-regime relearn cost: each of the `chains` template pairs needs
  // this many consistent observations before its predictions fire.
  acfg.verification_period = 10;
  core::ApolloMiddleware mw(&loop, &remote, &cache, acfg, obs.get(), "mw0.");

  ScenarioOut out;
  if (warm) {
    auto st = mw.Restore(o.snapshot_path, &out.restore);
    if (!st.ok()) {
      std::fprintf(stderr, "restore failed: %s\n", st.message().c_str());
      std::exit(1);
    }
  }

  const util::SimTime start = loop.now();
  const util::SimTime end =
      start + static_cast<util::SimDuration>(minutes * 60.0 * 1e6);
  std::vector<std::unique_ptr<workload::ClientDriver>> drivers;
  for (int i = 0; i < o.clients; ++i) {
    auto d = std::make_unique<workload::ClientDriver>(
        &loop, &mw, /*id=*/i,
        std::make_unique<ChainClient>(o.chains, o.keys),
        o.seed * 733 + static_cast<uint64_t>(i));
    d->Start(end);
    drivers.push_back(std::move(d));
  }

  // Windowed hit-rate sampler over the middleware's client-read counters.
  struct Prev {
    uint64_t hits = 0, misses = 0;
  };
  auto prev = std::make_shared<Prev>();
  const auto window = static_cast<util::SimDuration>(o.window_s * 1e6);
  for (util::SimTime t = start + window; t <= end; t += window) {
    loop.At(t, [&, prev, t]() {
      const core::MiddlewareStats& s = mw.stats();
      const uint64_t hits = s.cache_hits + s.coalesced_waits;
      uint64_t dh = hits - prev->hits;
      uint64_t dm = s.cache_misses - prev->misses;
      prev->hits = hits;
      prev->misses = s.cache_misses;
      out.window_end_s.push_back(util::ToSeconds(t - start));
      out.window_hit_rate.push_back(
          dh + dm > 0 ? static_cast<double>(dh) /
                            static_cast<double>(dh + dm)
                      : 0.0);
    });
  }

  // Drain in-flight interactions, then leave > max delta-t past the last
  // query so the cold run's checkpoint can fold every closed transition
  // window it observed.
  loop.RunUntil(end + util::Seconds(30));

  for (const auto& d : drivers) out.client_errors += d->context().errors();
  out.queries = mw.stats().queries;
  out.predictions = mw.stats().predictions_issued;

  if (!warm) {
    auto st = mw.Checkpoint(o.snapshot_path);
    if (!st.ok()) {
      std::fprintf(stderr, "checkpoint failed: %s\n", st.message().c_str());
      std::exit(1);
    }
  }
  return out;
}

void PrintScenario(const char* name, const ScenarioOut& s) {
  std::printf("%s: %llu queries, %llu predictions, %llu client-visible "
              "errors\n",
              name, static_cast<unsigned long long>(s.queries),
              static_cast<unsigned long long>(s.predictions),
              static_cast<unsigned long long>(s.client_errors));
  for (size_t i = 0; i < s.window_end_s.size(); ++i) {
    std::printf("  [%6.0fs] hit-rate %5.1f%%\n", s.window_end_s[i],
                100.0 * s.window_hit_rate[i]);
  }
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
    if (ParseDouble(argv[i], "--cold-minutes", &o.cold_minutes) ||
        ParseDouble(argv[i], "--warm-minutes", &o.warm_minutes) ||
        ParseDouble(argv[i], "--window-s", &o.window_s) ||
        ParseString(argv[i], "--snapshot", &o.snapshot_path) ||
        ParseString(argv[i], "--json", &o.json_path)) {
      continue;
    }
    if (ParseDouble(argv[i], "--clients", &v)) {
      o.clients = static_cast<int>(v);
      continue;
    }
    if (ParseDouble(argv[i], "--chains", &v)) {
      o.chains = static_cast<int>(v);
      continue;
    }
    if (ParseDouble(argv[i], "--keys", &v)) {
      o.keys = static_cast<int>(v);
      continue;
    }
    if (ParseDouble(argv[i], "--seed", &v)) {
      o.seed = static_cast<uint64_t>(v);
      continue;
    }
    std::fprintf(stderr,
                 "usage: warm_restart [--cold-minutes=M] [--warm-minutes=M] "
                 "[--window-s=S] [--clients=N] [--chains=T] [--keys=K] "
                 "[--seed=S] [--snapshot=PATH] [--json=PATH]\n");
    return 2;
  }

  bench::PrintHeader(
      "Warm restart: time to 90% of steady-state hit rate, cold vs. warm "
      "(correlated-chain workload)");

  ScenarioOut cold = RunScenario(o, /*warm=*/false, o.cold_minutes);
  PrintScenario("cold", cold);
  ScenarioOut warm = RunScenario(o, /*warm=*/true, o.warm_minutes);
  PrintScenario("warm", warm);

  const double steady = SteadyHitRate(cold);
  const double threshold = 0.9 * steady;
  const double cold_t90 = TimeToThreshold(cold, threshold);
  const double warm_t90 = TimeToThreshold(warm, threshold);
  const double ratio =
      (cold_t90 > 0 && warm_t90 > 0) ? warm_t90 / cold_t90 : -1.0;

  std::printf(
      "\nsteady-state hit rate %.1f%% (cold-run tail); 90%% threshold "
      "%.1f%%\n",
      100.0 * steady, 100.0 * threshold);
  std::printf("cold time-to-90%%: %.0f s\n", cold_t90);
  std::printf("warm time-to-90%%: %.0f s  (restored %llu templates, %llu "
              "pairs, %llu sessions from %llu-byte snapshot)\n",
              warm_t90,
              static_cast<unsigned long long>(warm.restore.templates),
              static_cast<unsigned long long>(warm.restore.pairs),
              static_cast<unsigned long long>(warm.restore.sessions),
              static_cast<unsigned long long>(warm.restore.snapshot_bytes));
  std::printf("warm/cold ratio: %.3f  (target <= 0.20)\n", ratio);
  std::printf("client-visible errors: cold=%llu warm=%llu\n",
              static_cast<unsigned long long>(cold.client_errors),
              static_cast<unsigned long long>(warm.client_errors));
  const bool pass = ratio > 0 && ratio <= 0.20 && warm.client_errors == 0;
  std::printf("warm_restart_ok=%s\n", pass ? "yes" : "NO");

  std::ofstream json(o.json_path);
  char buf[640];
  std::snprintf(
      buf, sizeof(buf),
      "{\"bench\":\"warm_restart\",\"clients\":%d,\"chains\":%d,"
      "\"keys\":%d,\"cold_minutes\":%.2f,\"warm_minutes\":%.2f,"
      "\"window_s\":%.1f,\"steady_hit_rate\":%.4f,"
      "\"cold_time_to_90_s\":%.1f,\"warm_time_to_90_s\":%.1f,"
      "\"warm_cold_ratio\":%.4f,\"cold_client_errors\":%llu,"
      "\"warm_client_errors\":%llu,\"snapshot_bytes\":%llu,"
      "\"restored_templates\":%llu,\"restored_pairs\":%llu,"
      "\"restored_sessions\":%llu,\"pass\":%s}\n",
      o.clients, o.chains, o.keys, o.cold_minutes, o.warm_minutes,
      o.window_s, steady, cold_t90, warm_t90, ratio,
      static_cast<unsigned long long>(cold.client_errors),
      static_cast<unsigned long long>(warm.client_errors),
      static_cast<unsigned long long>(warm.restore.snapshot_bytes),
      static_cast<unsigned long long>(warm.restore.templates),
      static_cast<unsigned long long>(warm.restore.pairs),
      static_cast<unsigned long long>(warm.restore.sessions),
      pass ? "true" : "false");
  json << buf;
  json.close();
  std::printf("wrote %s and %s\n", o.json_path.c_str(),
              o.snapshot_path.c_str());
  return 0;
}
