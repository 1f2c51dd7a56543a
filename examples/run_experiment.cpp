// run_experiment: command-line experiment runner — compose any paper-style
// experiment without writing code.
//
//   ./build/examples/run_experiment --workload tpcc --system apollo
//       --clients 100 --minutes 10 --rtt-ms 70 --instances 1
//       --tau 0.01 --dt-s 15 --alpha 0          (all on one command line)
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workload/driver.h"
#include "workload/tpcc.h"
#include "workload/tpcw.h"

using namespace apollo;

namespace {

struct Args {
  std::string workload = "tpcw";
  std::string system = "apollo";
  int clients = 30;
  double minutes = 10;
  double rtt_ms = 70;
  int instances = 1;
  double tau = 0.01;
  double dt_s = 15;
  double alpha = 0;
  uint64_t seed = 42;
  bool timeline = false;
  double cache_mb = 0;  // 0 = 5% of DB
  bool no_freshness = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (flag == "--workload") {
      args->workload = next();
    } else if (flag == "--system") {
      args->system = next();
    } else if (flag == "--clients") {
      args->clients = std::atoi(next());
    } else if (flag == "--minutes") {
      args->minutes = std::atof(next());
    } else if (flag == "--rtt-ms") {
      args->rtt_ms = std::atof(next());
    } else if (flag == "--instances") {
      args->instances = std::atoi(next());
    } else if (flag == "--tau") {
      args->tau = std::atof(next());
    } else if (flag == "--dt-s") {
      args->dt_s = std::atof(next());
    } else if (flag == "--alpha") {
      args->alpha = std::atof(next());
    } else if (flag == "--seed") {
      args->seed = std::strtoull(next(), nullptr, 10);
    } else if (flag == "--timeline") {
      args->timeline = true;
    } else if (flag == "--cache-mb") {
      args->cache_mb = std::atof(next());
    } else if (flag == "--no-freshness") {
      args->no_freshness = true;
    } else if (flag == "--help") {
      return false;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::printf(
        "usage: run_experiment [--workload tpcw|tpcc] "
        "[--system apollo|memcached|fido] [--clients N] [--minutes M]\n"
        "                      [--rtt-ms X] [--instances K] [--tau T] "
        "[--dt-s D] [--alpha A] [--seed S] [--timeline]\n");
    return 1;
  }

  workload::RunConfig cfg;
  if (args.system == "apollo") {
    cfg.system = workload::SystemType::kApollo;
  } else if (args.system == "memcached") {
    cfg.system = workload::SystemType::kMemcached;
    cfg.warmup = cfg.duration;  // warmed cache, as in the paper
  } else if (args.system == "fido") {
    cfg.system = workload::SystemType::kFido;
  } else {
    std::fprintf(stderr, "unknown system %s\n", args.system.c_str());
    return 1;
  }
  cfg.num_clients = args.clients;
  cfg.duration = util::Minutes(args.minutes);
  cfg.remote.rtt =
      sim::LatencyModel::LogNormal(util::Millis(args.rtt_ms), 0.05);
  cfg.num_instances = args.instances;
  cfg.apollo.tau = args.tau;
  cfg.apollo.alpha = args.alpha;
  cfg.apollo.delta_ts = {util::Seconds(1),
                         util::Seconds(args.dt_s / 3.0),
                         util::Seconds(args.dt_s)};
  cfg.seed = args.seed;
  cfg.bucket_width = util::Minutes(1);
  if (args.cache_mb > 0) {
    cfg.cache_bytes = static_cast<size_t>(args.cache_mb * (1 << 20));
  }
  if (args.no_freshness) cfg.apollo.enable_freshness_check = false;

  workload::RunResult r;
  if (args.workload == "tpcw") {
    workload::TpcwWorkload w;
    r = workload::RunExperiment(w, cfg);
  } else if (args.workload == "tpcc") {
    workload::TpccWorkload w;
    r = workload::RunExperiment(w, cfg);
  } else {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 1;
  }

  std::printf("%s on %s, %d clients, %.0f sim-min, rtt %.0f ms\n",
              r.system_name.c_str(), args.workload.c_str(), r.num_clients,
              args.minutes, args.rtt_ms);
  std::printf("  mean %.2f ms | p50 %.2f | p95 %.2f | p97 %.2f | p99 %.2f\n",
              r.MeanMs(), r.PercentileMs(50), r.PercentileMs(95),
              r.PercentileMs(97), r.PercentileMs(99));
  std::printf("  queries %llu | hit-rate %.1f%% | coalesced %llu | "
              "evictions %llu | errors %llu\n",
              static_cast<unsigned long long>(r.mw.queries),
              100.0 * r.cache_stats.HitRate(),
              static_cast<unsigned long long>(r.mw.coalesced_waits),
              static_cast<unsigned long long>(r.cache_stats.evictions),
              static_cast<unsigned long long>(r.mw.parse_errors));
  std::printf("  predictions %llu (skipped: cached %llu, inflight %llu, "
              "fresh %llu) | FDQs %llu (%llu invalidated) | ADQ reloads "
              "%llu\n",
              static_cast<unsigned long long>(r.mw.predictions_issued),
              static_cast<unsigned long long>(r.mw.predictions_skipped_cached),
              static_cast<unsigned long long>(
                  r.mw.predictions_skipped_inflight),
              static_cast<unsigned long long>(r.mw.predictions_skipped_fresh),
              static_cast<unsigned long long>(r.mw.fdqs_discovered),
              static_cast<unsigned long long>(r.mw.fdqs_invalidated),
              static_cast<unsigned long long>(r.mw.adq_reloads));
  std::printf("  remote queries %llu (%llu predictive) | db bytes %.1f MiB "
              "| cache %.1f MiB | learning state %.2f MiB\n",
              static_cast<unsigned long long>(r.remote.queries),
              static_cast<unsigned long long>(r.remote.predictive_queries),
              static_cast<double>(r.db_bytes) / (1 << 20),
              static_cast<double>(r.cache_capacity) / (1 << 20),
              static_cast<double>(r.learning_bytes) / (1 << 20));
  if (args.timeline) {
    std::printf("  timeline:");
    for (const auto& p : r.metrics->Timeline()) {
      std::printf(" [%.0fm]%.1f", p.minute, p.mean_ms);
    }
    std::printf(" (mean ms per minute)\n");
  }
  return 0;
}
