// sim-tpcw: workload::RunExperiment with Apollo on the simulator, 30 TPC-W
// clients, the figure harnesses' base configuration (70 ms lognormal WAN,
// 7 s think time, paper learning parameters) and tracing off. It is the
// only workload that runs the sim/net layers and the ApolloMiddleware
// host. It simulates half a minute per second of --seconds.
//
// The clients are wrapped so every statement passes a recording
// middleware on its way to the real one: that yields the statement stream
// for the replay, simulated write latencies (RunMetrics does not split
// reads from writes), the non-null-read check, and the thread's CPU and
// wall time at each slice of the simulated duration, without touching the
// experiment's own accounting.
//
// The simulator is deterministic, so the untraced run replays one
// experiment kReplays times, at once on threads of their own, and every
// replay does the same work, slice by slice. qps and CPU per query take,
// for each slice, the fastest wall and CPU time of any replay. The host's
// speed swings by a quarter within seconds and differs between cores at
// one instant; these minima drop most of its slow spells.
#include <algorithm>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "db/database.h"
#include "workload/driver.h"
#include "workload/workload.h"

namespace perfbench {

using namespace apollo;

namespace {

constexpr int kClients = 30;

constexpr int kReplays = 3;
constexpr int kSlices = 20;

/// Process CPU, wall clock and statements submitted at one instant.
struct Mark {
  double cpu_s = 0;
  int64_t wall_ns = 0;
  uint64_t submitted = 0;
};

/// What the recording middlewares of one experiment saw.
struct Recorder {
  bool record_stream = false;
  util::SimTime end_time = 0;  // latencies count for submits before this
  uint64_t seq = 0;
  std::vector<StreamEntry> stream;
  std::vector<double> write_us;  // simulated
  uint64_t null_reads = 0;
  /// marks[k] is taken at the first submit at or after k / kSlices of the
  /// simulated duration.
  std::vector<Mark> marks;

  void OnSubmit(util::SimTime now) {
    while (marks.size() <= kSlices &&
           now >= end_time / kSlices *
                      static_cast<util::SimTime>(marks.size())) {
      marks.push_back(Mark{ThreadCpuSeconds(), NowNs(), seq});
    }
    ++seq;
  }
};

/// Forwards a client's statements to its real context, recording them.
class RecordingMiddleware : public core::Middleware {
 public:
  RecordingMiddleware(workload::ClientContext* outer, Recorder* rec)
      : outer_(outer), rec_(rec) {}

  void SubmitQuery(core::ClientId client, const std::string& sql,
                   QueryCallback callback) override {
    const util::SimTime t0 = outer_->loop()->now();
    const uint64_t errors_before = outer_->errors();
    if (rec_->record_stream) {
      rec_->stream.push_back(StreamEntry{rec_->seq, client, sql});
    }
    rec_->OnSubmit(t0);
    const bool read = IsRead(sql);
    outer_->Query(sql, [this, t0, errors_before, read,
                        callback = std::move(callback)](
                           common::ResultSetPtr result) {
      if (!read && t0 < rec_->end_time) {
        rec_->write_us.push_back(
            static_cast<double>(outer_->loop()->now() - t0));
      }
      if (outer_->errors() > errors_before) {
        callback(util::Status(util::StatusCode::kUnavailable,
                              "statement failed"));
        return;
      }
      if (read && result == nullptr) ++rec_->null_reads;
      callback(std::move(result));
    });
  }
  const core::MiddlewareStats& stats() const override { return stats_; }
  std::string name() const override { return "perfbench-recorder"; }

 private:
  workload::ClientContext* outer_;
  Recorder* rec_;
  core::MiddlewareStats stats_;
};

class RecordingClient : public workload::WorkloadClient {
 public:
  RecordingClient(std::unique_ptr<workload::WorkloadClient> inner,
                  Recorder* rec)
      : inner_(std::move(inner)), rec_(rec) {}

  void RunInteraction(workload::ClientContext& ctx,
                      std::function<void()> done) override {
    // The ClientDriver's context lives as long as the client; wrap it
    // once.
    if (ctx_ == nullptr) {
      mw_ = std::make_unique<RecordingMiddleware>(&ctx, rec_);
      ctx_ = std::make_unique<workload::ClientContext>(ctx.loop(), mw_.get(),
                                                       ctx.id(), &ctx.rng());
    }
    inner_->RunInteraction(*ctx_, std::move(done));
  }
  double MeanThinkSeconds() const override {
    return inner_->MeanThinkSeconds();
  }

 private:
  std::unique_ptr<workload::WorkloadClient> inner_;
  Recorder* rec_;
  std::unique_ptr<RecordingMiddleware> mw_;
  std::unique_ptr<workload::ClientContext> ctx_;
};

/// Wraps a workload's clients and times its set-up.
class RecordingWorkload : public workload::Workload {
 public:
  RecordingWorkload(std::unique_ptr<workload::Workload> inner, Recorder* rec)
      : inner_(std::move(inner)), rec_(rec) {}

  std::string name() const override { return inner_->name(); }
  util::Status Setup(db::Database* db) override {
    const int64_t t0 = NowNs();
    const double cpu0 = ThreadCpuSeconds();
    util::Status st = inner_->Setup(db);
    setup_wall_s += static_cast<double>(NowNs() - t0) / 1e9;
    setup_cpu_s += ThreadCpuSeconds() - cpu0;
    return st;
  }
  std::unique_ptr<workload::WorkloadClient> MakeClient(
      int index, uint64_t seed) override {
    return std::make_unique<RecordingClient>(inner_->MakeClient(index, seed),
                                             rec_);
  }

  double setup_wall_s = 0, setup_cpu_s = 0;

 private:
  std::unique_ptr<workload::Workload> inner_;
  Recorder* rec_;
};

struct Experiment {
  workload::RunResult result;
  Recorder rec;
  double wall_s = 0;  // excluding the workload's set-up
  double cpu_s = 0;   // likewise
};

void RunOne(const Options& opts, double sim_seconds, bool traced,
            Experiment* out) {
  workload::RunConfig cfg;
  cfg.system = workload::SystemType::kApollo;
  cfg.num_clients = kClients;
  cfg.duration = util::Seconds(sim_seconds);
  cfg.remote.rtt = sim::LatencyModel::LogNormal(util::Millis(70), 0.05);
  cfg.apollo.delta_ts = {util::Seconds(1), util::Seconds(5),
                         util::Seconds(15)};
  cfg.apollo.tau = 0.01;
  cfg.apollo.alpha = 0.0;
  cfg.seed = opts.seed;
  cfg.enable_trace = traced;
  cfg.trace_capacity = traced ? (1u << 20) : 8192;
  out->rec.record_stream = traced;
  out->rec.end_time = cfg.duration;  // Apollo has no warm-up phase
  RecordingWorkload wl(MakeWorkload(opts.workload, opts.seed), &out->rec);
  const int64_t t0 = NowNs();
  const double cpu0 = ThreadCpuSeconds();
  out->result = workload::RunExperiment(wl, cfg);
  out->wall_s = static_cast<double>(NowNs() - t0) / 1e9 - wl.setup_wall_s;
  out->cpu_s = ThreadCpuSeconds() - cpu0 - wl.setup_cpu_s;
}

}  // namespace

Report RunSimWorkload(const Options& opts) {
  Report rep;
  const int setup_reps = SetupReps(opts);
  std::vector<double> setup_s;
  for (int i = 1; i < (setup_reps + 1) / 2; ++i) {
    setup_s.push_back(TimeSetup(opts.workload, opts.seed));
  }
  // Untraced: kReplays replays of one experiment. Traced: two, the second
  // traced; both do identical work, so their CPU difference is the tracing
  // overhead. Each runs on a thread of its own.
  const int runs = opts.trace ? 2 : kReplays;
  std::vector<std::unique_ptr<Experiment>> exps;
  for (int i = 0; i < runs; ++i) exps.push_back(std::make_unique<Experiment>());
  SpanRecorder spans;
  std::vector<std::thread> threads;
  for (int i = 0; i < runs; ++i) {
    threads.emplace_back([&, i] {
      const bool traced = opts.trace && i == 1;
      const int64_t t0 = NowNs();
      RunOne(opts, 30.0 * opts.seconds, traced, exps[i].get());
      if (traced) spans.Add("sim.run_experiment", t0, NowNs(), 0, 0);
    });
  }
  for (auto& t : threads) t.join();
  while (static_cast<int>(setup_s.size()) < setup_reps) {
    setup_s.push_back(TimeSetup(opts.workload, opts.seed));
  }
  if (*std::min_element(setup_s.begin(), setup_s.end()) < 0) {
    rep.check_failures.push_back("a timed set-up failed");
  }
  Experiment* exp = exps.back().get();
  const workload::RunResult& r = exp->result;
  const double q = static_cast<double>(r.mw.queries);

  rep.attempted = r.mw.queries;
  rep.failed = r.client_visible_errors;
  const auto& marks = exps.front()->rec.marks;  // untraced in either mode
  bool same_work = true;
  for (const auto& other : exps) {
    same_work = same_work && other->result.mw.queries == r.mw.queries &&
                other->rec.marks.size() == marks.size();
    for (size_t k = 0; same_work && k < marks.size(); ++k) {
      same_work = other->rec.marks[k].submitted == marks[k].submitted;
    }
  }
  if (!same_work) {
    rep.check_failures.push_back(
        "runs of one seed diverged: their simulated work differs");
  }
  // Each slice at the fastest wall and CPU time of an untraced run.
  const size_t untraced_runs = opts.trace || !same_work ? 1 : exps.size();
  double slice_queries = 0, wall_s = 0, cpu_s = 0;
  for (size_t k = 0; k + 1 < marks.size(); ++k) {
    slice_queries +=
        static_cast<double>(marks[k + 1].submitted - marks[k].submitted);
    double wall = 0, cpu = 0;
    for (size_t i = 0; i < untraced_runs; ++i) {
      const auto& m = exps[i]->rec.marks;
      const double w = static_cast<double>(m[k + 1].wall_ns - m[k].wall_ns);
      const double c = m[k + 1].cpu_s - m[k].cpu_s;
      wall = i == 0 ? w : std::min(wall, w);
      cpu = i == 0 ? c : std::min(cpu, c);
    }
    wall_s += wall / 1e9;
    cpu_s += cpu;
  }
  rep.metrics["qps"] = Ratio(slice_queries, wall_s);
  if (r.metrics) {
    rep.metrics["mean_us"] = r.metrics->MeanMs() * 1000.0;
    rep.metrics["p50_us"] =
        static_cast<double>(r.metrics->histogram().Percentile(50));
    rep.metrics["p99_us"] =
        static_cast<double>(r.metrics->histogram().Percentile(99));
  }
  std::vector<double>& w = exp->rec.write_us;
  if (!w.empty()) rep.metrics["write_p50_us"] = Percentile(w, 50);
  if (w.size() >= 1000) {
    rep.metrics["write_p99_us"] = Percentile(w, 99);
  } else {
    rep.notes.push_back("write_p99_us omitted: " + std::to_string(w.size()) +
                        " writes in the window (needs 1000)");
  }
  rep.metrics["hit_rate"] = Ratio(static_cast<double>(r.mw.cache_hits),
                                  static_cast<double>(r.mw.reads));
  rep.metrics["remote_stmts_per_query"] =
      Ratio(static_cast<double>(r.db.queries_executed), q);
  rep.metrics["wan_trips_per_query"] =
      Ratio(static_cast<double>(r.remote.queries), q);
  rep.metrics["cpu_us_per_query"] = Ratio(cpu_s * 1e6, slice_queries);
  rep.metrics["setup_s"] = Median(setup_s);
  rep.metrics["peak_rss_mb"] = PeakRssMb();
  rep.metrics["error_rate"] = Ratio(static_cast<double>(rep.failed), q);
  rep.metrics["stale_reads"] = 0;
  rep.notes.push_back(CacheSizeNote(r.cache_capacity, r.db_bytes));
  rep.notes.push_back("stale_reads: the consistency probes run on the rt "
                      "workloads only");

  if (q == 0) rep.check_failures.push_back("no queries in the window");
  if (r.client_visible_errors != 0) {
    rep.check_failures.push_back(std::to_string(r.client_visible_errors) +
                                 " client-visible errors");
  }
  if (exp->rec.null_reads != 0) {
    rep.check_failures.push_back(std::to_string(exp->rec.null_reads) +
                                 " successful reads returned no result");
  }

  if (opts.trace) {
    const auto& m = r.obs->metrics;
    if (const auto* h = m.FindHistogram("mw0.latency.learn_wall_us")) {
      rep.metrics["core.learn_us.mean"] = h->Mean();
    }
    if (const auto* h = m.FindHistogram("mw0.latency.predict_decide_wall_us")) {
      rep.metrics["core.predict_decide_us.mean"] = h->Mean();
    }
    const auto& mw = r.mw;
    rep.metrics["core.predictions_per_query"] =
        Ratio(static_cast<double>(mw.predictions_issued), q);
    rep.metrics["core.predictions_skipped_per_query"] = Ratio(
        static_cast<double>(
            mw.predictions_skipped_cached + mw.predictions_skipped_inflight +
            mw.predictions_skipped_fresh + mw.predictions_skipped_invalid +
            mw.predictions_skipped_incomplete),
        q);
    rep.metrics["core.predictions_shed_per_query"] =
        Ratio(static_cast<double>(mw.shed_predictions), q);
    rep.metrics["core.coalesced_per_read"] =
        Ratio(static_cast<double>(mw.coalesced_waits),
              static_cast<double>(mw.reads));
    rep.metrics["core.fdqs_discovered"] =
        static_cast<double>(mw.fdqs_discovered);
    rep.metrics["core.fdqs_invalidated"] =
        static_cast<double>(mw.fdqs_invalidated);
    if (r.obs->trace.dropped() == 0) {
      rep.metrics["core.prediction_hit_ratio"] =
          Ratio(static_cast<double>(FirstPredictionHits(r.obs->trace)),
                static_cast<double>(mw.predictions_issued));
    } else {
      rep.notes.push_back("core.prediction_hit_ratio omitted: trace ring "
                          "dropped events");
    }
    const auto& cs = r.cache_stats;
    rep.metrics["cache.hit_ratio"] = cs.HitRate();
    rep.metrics["cache.evictions_per_put"] =
        Ratio(static_cast<double>(cs.evictions), static_cast<double>(cs.puts));
    rep.metrics["cache.fill_ratio"] =
        Ratio(static_cast<double>(cs.bytes_used),
              static_cast<double>(r.cache_capacity));
    rep.metrics["db.rows_examined_per_stmt"] =
        Ratio(static_cast<double>(r.db.rows_examined),
              static_cast<double>(r.db.queries_executed));
    const double events = static_cast<double>(r.sim_events);
    rep.metrics["sim.events_per_query"] = Ratio(events, q);
    rep.metrics["sim.wall_us_per_event"] = Ratio(exp->wall_s * 1e6, events);
    rep.metrics["net.remote_attempts_per_query"] =
        Ratio(static_cast<double>(r.remote.attempts), q);
    const Experiment& untraced = *exps.front();
    const double base = Ratio(untraced.cpu_s,
                              static_cast<double>(untraced.result.mw.queries));
    if (base > 0) {
      rep.metrics["obs.tracing_overhead_pct"] =
          (Ratio(exp->cpu_s, q) / base - 1.0) * 100.0;
    }

    ReplayLayers(opts, std::move(exp->rec.stream), &spans, &rep);
    rep.spans = spans.Take();
  }
  return rep;
}

}  // namespace perfbench
