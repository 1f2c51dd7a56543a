#include "workload/driver.h"

#include <cstdio>
#include <cstdlib>

#include "core/apollo_middleware.h"
#include "fido/fido_middleware.h"
#include "workload/client_driver.h"

namespace apollo::workload {

namespace {

/// Loads `workload` into `db`, or aborts in every build type: an
/// experiment on a half-built database would report figures of nothing.
void SetupOrDie(Workload& workload, db::Database* db) {
  const util::Status st = workload.Setup(db);
  if (st.ok()) return;
  std::fprintf(stderr, "RunExperiment: %s workload setup failed: %s\n",
               workload.name().c_str(), st.ToString().c_str());
  std::abort();
}

core::MiddlewareStats Sub(const core::MiddlewareStats& a,
                          const core::MiddlewareStats& b) {
  core::MiddlewareStats d;
  d.queries = a.queries - b.queries;
  d.reads = a.reads - b.reads;
  d.writes = a.writes - b.writes;
  d.cache_hits = a.cache_hits - b.cache_hits;
  d.cache_misses = a.cache_misses - b.cache_misses;
  d.coalesced_waits = a.coalesced_waits - b.coalesced_waits;
  d.parse_errors = a.parse_errors - b.parse_errors;
  d.predictions_issued = a.predictions_issued - b.predictions_issued;
  d.predictions_skipped_cached =
      a.predictions_skipped_cached - b.predictions_skipped_cached;
  d.predictions_skipped_inflight =
      a.predictions_skipped_inflight - b.predictions_skipped_inflight;
  d.predictions_skipped_fresh =
      a.predictions_skipped_fresh - b.predictions_skipped_fresh;
  d.predictions_skipped_invalid =
      a.predictions_skipped_invalid - b.predictions_skipped_invalid;
  d.predictions_skipped_incomplete =
      a.predictions_skipped_incomplete - b.predictions_skipped_incomplete;
  d.adq_reloads = a.adq_reloads - b.adq_reloads;
  d.shed_predictions = a.shed_predictions - b.shed_predictions;
  d.shed_adq_reloads = a.shed_adq_reloads - b.shed_adq_reloads;
  d.subscriber_fallbacks = a.subscriber_fallbacks - b.subscriber_fallbacks;
  d.fdqs_discovered = a.fdqs_discovered - b.fdqs_discovered;
  d.fdqs_invalidated = a.fdqs_invalidated - b.fdqs_invalidated;
  d.find_fdq_wall_us = a.find_fdq_wall_us - b.find_fdq_wall_us;
  d.find_fdq_calls = a.find_fdq_calls - b.find_fdq_calls;
  d.construct_fdq_wall_us = a.construct_fdq_wall_us - b.construct_fdq_wall_us;
  d.construct_fdq_calls = a.construct_fdq_calls - b.construct_fdq_calls;
  return d;
}

core::MiddlewareStats Add(const core::MiddlewareStats& a,
                          const core::MiddlewareStats& b) {
  core::MiddlewareStats s = a;
  s.queries += b.queries;
  s.reads += b.reads;
  s.writes += b.writes;
  s.cache_hits += b.cache_hits;
  s.cache_misses += b.cache_misses;
  s.coalesced_waits += b.coalesced_waits;
  s.parse_errors += b.parse_errors;
  s.predictions_issued += b.predictions_issued;
  s.predictions_skipped_cached += b.predictions_skipped_cached;
  s.predictions_skipped_inflight += b.predictions_skipped_inflight;
  s.predictions_skipped_fresh += b.predictions_skipped_fresh;
  s.predictions_skipped_invalid += b.predictions_skipped_invalid;
  s.predictions_skipped_incomplete += b.predictions_skipped_incomplete;
  s.adq_reloads += b.adq_reloads;
  s.shed_predictions += b.shed_predictions;
  s.shed_adq_reloads += b.shed_adq_reloads;
  s.subscriber_fallbacks += b.subscriber_fallbacks;
  s.fdqs_discovered += b.fdqs_discovered;
  s.fdqs_invalidated += b.fdqs_invalidated;
  s.find_fdq_wall_us += b.find_fdq_wall_us;
  s.find_fdq_calls += b.find_fdq_calls;
  s.construct_fdq_wall_us += b.construct_fdq_wall_us;
  s.construct_fdq_calls += b.construct_fdq_calls;
  return s;
}

cache::CacheStats SubCache(const cache::CacheStats& a,
                           const cache::CacheStats& b) {
  cache::CacheStats d;
  d.hits = a.hits - b.hits;
  d.misses = a.misses - b.misses;
  d.puts = a.puts - b.puts;
  d.evictions = a.evictions - b.evictions;
  d.oversize_rejected = a.oversize_rejected - b.oversize_rejected;
  d.admission_rejected = a.admission_rejected - b.admission_rejected;
  d.sketch_resets = a.sketch_resets - b.sketch_resets;
  d.evictions_window = a.evictions_window - b.evictions_window;
  d.evictions_main = a.evictions_main - b.evictions_main;
  d.bytes_used = a.bytes_used;  // level, not counter
  d.entries = a.entries;
  return d;
}

void AccumulateCache(cache::CacheStats& into, const cache::CacheStats& s) {
  into.hits += s.hits;
  into.misses += s.misses;
  into.puts += s.puts;
  into.evictions += s.evictions;
  into.oversize_rejected += s.oversize_rejected;
  into.admission_rejected += s.admission_rejected;
  into.sketch_resets += s.sketch_resets;
  into.evictions_window += s.evictions_window;
  into.evictions_main += s.evictions_main;
  into.bytes_used += s.bytes_used;
  into.entries += s.entries;
}

net::RemoteDbStats SubRemote(const net::RemoteDbStats& a,
                             const net::RemoteDbStats& b) {
  net::RemoteDbStats d;
  d.queries = a.queries - b.queries;
  d.predictive_queries = a.predictive_queries - b.predictive_queries;
  d.attempts = a.attempts - b.attempts;
  d.errors = a.errors - b.errors;
  d.client_errors = a.client_errors - b.client_errors;
  d.predictive_errors = a.predictive_errors - b.predictive_errors;
  d.retries = a.retries - b.retries;
  d.timeouts = a.timeouts - b.timeouts;
  d.late_responses = a.late_responses - b.late_responses;
  d.breaker_opens = a.breaker_opens - b.breaker_opens;
  return d;
}

db::DatabaseStats SubDb(const db::DatabaseStats& a,
                        const db::DatabaseStats& b) {
  db::DatabaseStats d;
  d.queries_executed = a.queries_executed - b.queries_executed;
  d.reads = a.reads - b.reads;
  d.writes = a.writes - b.writes;
  d.rows_examined = a.rows_examined - b.rows_examined;
  return d;
}

}  // namespace

std::string SystemTypeName(SystemType t) {
  switch (t) {
    case SystemType::kApollo: return "apollo";
    case SystemType::kMemcached: return "memcached";
    case SystemType::kFido: return "fido";
  }
  return "?";
}

RunResult RunExperiment(Workload& workload, const RunConfig& config) {
  // ---- Substrate ----
  db::Database db;
  SetupOrDie(workload, &db);
  if (config.switch_to != nullptr) SetupOrDie(*config.switch_to, &db);
  const size_t db_bytes = db.ApproximateDataBytes();
  const size_t cache_bytes =
      config.cache_bytes != 0
          ? config.cache_bytes
          : (config.cache_ratio > 0.0
                 ? static_cast<size_t>(static_cast<double>(db_bytes) *
                                       config.cache_ratio)
                 : db_bytes / 20);

  sim::EventLoop loop;

  // ---- Per-run observability bundle (DESIGN.md Section 8) ----
  // Every component registers its instruments here, qualified by an
  // instance prefix; trace events are stamped with the loop's simulated
  // clock so enabling tracing cannot perturb results.
  auto obs = std::make_shared<obs::Observability>(config.trace_capacity);
  obs->trace.set_clock([&loop]() { return loop.now(); });
  obs->trace.set_enabled(config.enable_trace);

  net::RemoteDbConfig remote_cfg = config.remote;
  remote_cfg.seed = config.seed * 7919 + 13;
  net::RemoteDatabase remote(&loop, &db, remote_cfg, obs.get());

  // ---- Middleware instances, each with a dedicated cache ----
  std::vector<std::unique_ptr<cache::KvCache>> caches;
  std::vector<std::unique_ptr<core::Middleware>> instances;
  std::vector<fido::FidoMiddleware*> fido_instances;
  // Latency-breakdown histograms per instance (interval sampler input).
  std::vector<obs::HistogramMetric*> wan_hists;
  std::vector<obs::HistogramMetric*> cache_hists;
  for (int k = 0; k < config.num_instances; ++k) {
    const std::string mw_prefix = "mw" + std::to_string(k) + ".";
    const std::string cache_prefix = "cache" + std::to_string(k) + ".";
    cache::KvCacheOptions cache_opts;
    cache_opts.policy = config.apollo.cache_policy;
    cache_opts.window_fraction = config.apollo.cache_window_fraction;
    caches.push_back(std::make_unique<cache::KvCache>(
        cache_bytes, /*num_shards=*/8, obs.get(), cache_prefix,
        cache_opts));
    if (config.system == SystemType::kFido) {
      auto f = std::make_unique<fido::FidoMiddleware>(
          &loop, &remote, caches.back().get(), config.apollo, obs.get(),
          mw_prefix);
      fido_instances.push_back(f.get());
      instances.push_back(std::move(f));
    } else {
      // Memcached is the same host with prediction off (paper 4.1).
      core::ApolloConfig acfg = config.apollo;
      if (config.system == SystemType::kMemcached) {
        acfg.enable_prediction = false;
      }
      instances.push_back(std::make_unique<core::ApolloMiddleware>(
          &loop, &remote, caches.back().get(), acfg, obs.get(), mw_prefix));
    }
    wan_hists.push_back(
        obs->metrics.FindHistogram(mw_prefix + "latency.wan_us"));
    cache_hists.push_back(
        obs->metrics.FindHistogram(mw_prefix + "latency.cache_us"));
  }

  // ---- Fido offline training (paper 4.1: traces 2x the run length) ----
  // Training objects must outlive the whole simulation: events scheduled
  // during training (think-time wakeups, in-flight WAN callbacks) may
  // still sit in the loop's queue when the measurement phase runs.
  std::unique_ptr<cache::KvCache> training_cache;
  std::unique_ptr<core::ApolloMiddleware> training_mw;
  std::vector<std::vector<std::string>> traces;
  std::vector<std::unique_ptr<ClientDriver>> trainers;
  if (config.system == SystemType::kFido) {
    util::SimDuration training_span = static_cast<util::SimDuration>(
        static_cast<double>(config.duration) * config.fido_training_factor);
    training_cache = std::make_unique<cache::KvCache>(cache_bytes);
    // The recorder is a Memcached host: it only has to serve the queries.
    core::ApolloConfig tcfg = config.apollo;
    tcfg.enable_prediction = false;
    training_mw = std::make_unique<core::ApolloMiddleware>(
        &loop, &remote, training_cache.get(), tcfg);
    traces.resize(static_cast<size_t>(config.num_clients));
    for (int i = 0; i < config.num_clients; ++i) {
      auto d = std::make_unique<ClientDriver>(
          &loop, training_mw.get(), /*id=*/i,
          workload.MakeClient(i, config.seed * 50021 +
                                     static_cast<uint64_t>(i)),
          config.seed * 887 + static_cast<uint64_t>(i));
      d->context().set_trace(&traces[static_cast<size_t>(i)]);
      d->Start(loop.now() + training_span);
      trainers.push_back(std::move(d));
    }
    loop.RunUntil(loop.now() + training_span + util::Seconds(10));
    for (auto* f : fido_instances) f->Train(traces);
  }

  // ---- Clients (pinned round-robin across instances) ----
  const util::SimTime phase_start = loop.now();
  const util::SimTime measure_start = phase_start + config.warmup;
  const util::SimTime end_time = measure_start + config.duration;

  auto metrics = std::make_shared<RunMetrics>(
      measure_start, config.bucket_width, config.bucket_percentiles);
  std::vector<std::unique_ptr<ClientDriver>> drivers;
  for (int i = 0; i < config.num_clients; ++i) {
    core::Middleware* mw =
        instances[static_cast<size_t>(i % config.num_instances)].get();
    auto d = std::make_unique<ClientDriver>(
        &loop, mw, /*id=*/i,
        workload.MakeClient(i, config.seed * 10007 +
                                   static_cast<uint64_t>(i)),
        config.seed * 733 + static_cast<uint64_t>(i));
    d->context().set_record_deadline(end_time);
    drivers.push_back(std::move(d));
  }

  // Stats snapshots at measurement start (deltas exclude warm-up/training).
  core::MiddlewareStats mw_base;
  cache::CacheStats cache_base;
  net::RemoteDbStats remote_base;
  db::DatabaseStats db_base;
  uint64_t client_errors_base = 0;
  auto sum_client_errors = [&drivers]() {
    uint64_t total = 0;
    for (const auto& d : drivers) total += d->context().errors();
    return total;
  };
  loop.At(measure_start, [&]() {
    for (const auto& inst : instances) {
      mw_base = Add(mw_base, inst->stats());
    }
    for (const auto& c : caches) {
      AccumulateCache(cache_base, c->stats());
    }
    cache_base.bytes_used = 0;  // levels are end-of-run, not deltas
    cache_base.entries = 0;
    remote_base = remote.stats();
    db_base = db.stats();
    client_errors_base = sum_client_errors();
    for (auto& d : drivers) d->context().set_metrics(metrics.get());
  });

  // ---- Degradation time series (sampled counter deltas) ----
  std::vector<IntervalSample> samples;
  struct SamplerState {
    core::MiddlewareStats mw;
    net::RemoteDbStats remote;
    uint64_t client_errors = 0;
    double wan_sum_us = 0.0, cache_sum_us = 0.0;
    uint64_t wan_count = 0, cache_count = 0;
  };
  auto sampler_prev = std::make_shared<SamplerState>();
  auto sum_latency_hists = [&wan_hists, &cache_hists](SamplerState* out) {
    out->wan_sum_us = out->cache_sum_us = 0.0;
    out->wan_count = out->cache_count = 0;
    for (const auto* h : wan_hists) {
      out->wan_sum_us += h->Sum();
      out->wan_count += h->Count();
    }
    for (const auto* h : cache_hists) {
      out->cache_sum_us += h->Sum();
      out->cache_count += h->Count();
    }
  };
  if (config.sample_interval > 0) {
    loop.At(measure_start, [&, sampler_prev]() {
      for (const auto& inst : instances) {
        sampler_prev->mw = Add(sampler_prev->mw, inst->stats());
      }
      sampler_prev->remote = remote.stats();
      sampler_prev->client_errors = sum_client_errors();
      sum_latency_hists(sampler_prev.get());
    });
    const int num_samples =
        static_cast<int>(config.duration / config.sample_interval);
    for (int k = 1; k <= num_samples; ++k) {
      const util::SimTime at = measure_start + k * config.sample_interval;
      loop.At(at, [&, sampler_prev, k]() {
        core::MiddlewareStats mw_now;
        for (const auto& inst : instances) {
          mw_now = Add(mw_now, inst->stats());
        }
        const core::MiddlewareStats mwd = Sub(mw_now, sampler_prev->mw);
        const net::RemoteDbStats rd =
            SubRemote(remote.stats(), sampler_prev->remote);
        const uint64_t errs_now = sum_client_errors();

        IntervalSample s;
        s.minute_end = util::ToSeconds(static_cast<util::SimDuration>(k) *
                                       config.sample_interval) /
                       60.0;
        s.queries = mwd.reads + mwd.writes;
        const uint64_t lookups = mwd.cache_hits + mwd.cache_misses;
        s.hit_rate = lookups == 0 ? 0.0
                                  : static_cast<double>(mwd.cache_hits) /
                                        static_cast<double>(lookups);
        s.retries = rd.retries;
        s.timeouts = rd.timeouts;
        s.breaker_opens = rd.breaker_opens;
        s.shed_predictions = mwd.shed_predictions;
        s.shed_adq_reloads = mwd.shed_adq_reloads;
        s.remote_errors = rd.errors;
        s.client_errors = errs_now - sampler_prev->client_errors;

        SamplerState lat_now;
        sum_latency_hists(&lat_now);
        if (lat_now.wan_count > sampler_prev->wan_count) {
          s.mean_wan_ms =
              (lat_now.wan_sum_us - sampler_prev->wan_sum_us) /
              static_cast<double>(lat_now.wan_count -
                                  sampler_prev->wan_count) /
              1000.0;
        }
        if (lat_now.cache_count > sampler_prev->cache_count) {
          s.mean_cache_ms =
              (lat_now.cache_sum_us - sampler_prev->cache_sum_us) /
              static_cast<double>(lat_now.cache_count -
                                  sampler_prev->cache_count) /
              1000.0;
        }
        samples.push_back(s);

        sampler_prev->mw = mw_now;
        sampler_prev->remote = remote.stats();
        sampler_prev->client_errors = errs_now;
        sampler_prev->wan_sum_us = lat_now.wan_sum_us;
        sampler_prev->wan_count = lat_now.wan_count;
        sampler_prev->cache_sum_us = lat_now.cache_sum_us;
        sampler_prev->cache_count = lat_now.cache_count;
      });
    }
  }

  if (config.switch_to != nullptr) {
    loop.At(measure_start + config.switch_at, [&]() {
      for (size_t i = 0; i < drivers.size(); ++i) {
        drivers[i]->SwapBehaviour(config.switch_to->MakeClient(
            static_cast<int>(i),
            config.seed * 20011 + static_cast<uint64_t>(i)));
      }
    });
  }

  for (auto& d : drivers) d->Start(end_time);
  loop.RunUntil(end_time + util::Seconds(10));

  // ---- Collect ----
  RunResult result;
  result.system_name = SystemTypeName(config.system);
  result.num_clients = config.num_clients;
  result.metrics = metrics;
  core::MiddlewareStats mw_total;
  for (const auto& inst : instances) {
    mw_total = Add(mw_total, inst->stats());
    result.learning_bytes += inst->LearningStateBytes();
  }
  result.mw = Sub(mw_total, mw_base);
  cache::CacheStats cache_total;
  for (const auto& c : caches) {
    AccumulateCache(cache_total, c->stats());
  }
  result.cache_stats = SubCache(cache_total, cache_base);
  result.remote = SubRemote(remote.stats(), remote_base);
  result.db = SubDb(db.stats(), db_base);
  result.client_visible_errors = sum_client_errors() - client_errors_base;
  result.samples = std::move(samples);
  result.db_bytes = db_bytes;
  result.cache_capacity = cache_bytes;
  result.sim_events = loop.events_processed();
  if (config.enable_trace && !config.trace_jsonl_path.empty()) {
    obs->trace.WriteJsonl(config.trace_jsonl_path);
  }
  // The bundle outlives the event loop; detach the clock so late Record()
  // calls (there should be none) cannot dereference the dead loop.
  obs->trace.set_clock(nullptr);
  result.obs = std::move(obs);
  return result;
}

}  // namespace apollo::workload
