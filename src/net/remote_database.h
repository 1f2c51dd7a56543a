// RemoteDatabase: the geo-distant database as seen from the edge node.
//
// Wraps a db::Database behind (a) a WAN round trip sampled from a latency
// distribution and (b) a k-server service station modelling the database
// machine's worker pool. The query executes for real against the in-memory
// engine; its simulated service time is derived from the actual rows the
// executor examined, so expensive queries (joins, aggregations) cost
// proportionally more simulated time — the property Apollo's
// cost-prioritized caching exploits.
//
// The WAN hop is chaos-hardened: a seeded sim::FaultInjector can inject
// transient errors, latency spikes/jitter and full-outage windows, and
// every query runs under a retry loop with per-attempt timeout, capped
// exponential backoff with jitter, a bounded retry budget, and a circuit
// breaker that opens after consecutive transport failures. Predictive
// (prefetch) traffic is sheddable: the middleware consults
// AllowPredictive()/Degraded() to drop optional load first while client
// queries keep their retry budget.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>

#include "db/database.h"
#include "net/circuit_breaker.h"
#include "sql/template_cache.h"
#include "obs/observability.h"
#include "sim/event_loop.h"
#include "sim/fault_injector.h"
#include "sim/latency_model.h"
#include "sim/service_station.h"
#include "util/backoff.h"
#include "util/rng.h"

namespace apollo::net {

struct RemoteDbConfig {
  /// Full round-trip network latency per query (edge <-> datacenter).
  sim::LatencyModel rtt = sim::LatencyModel::Constant(util::Millis(70));
  /// Base service time per query on the database machine.
  util::SimDuration exec_base = util::Micros(150);
  /// Additional service time per row of ResultSet::cost_rows: the rows
  /// the reference scan plan examines, so the charge does not depend on
  /// the plan the executor runs.
  util::SimDuration exec_per_row = util::Micros(2);
  /// Cap on a single query's modelled service time.
  util::SimDuration exec_cap = util::Millis(40);
  /// Database worker pool width (paper: 16 vCPUs on the DB machine).
  int db_servers = 16;
  uint64_t seed = 42;

  // ---- Fault model & resilience (DESIGN.md "Fault model") ----

  /// Fault schedule; an empty schedule injects nothing and keeps runs
  /// bit-identical to a fault-free build.
  sim::FaultSchedule faults;
  /// Per-attempt timeout; 0 disables timeouts entirely (no timer events
  /// are scheduled, preserving fault-free event counts).
  util::SimDuration query_timeout = 0;
  /// Retry budget for client queries (attempts = 1 + max_retries). Only
  /// transport-level failures (Unavailable / DeadlineExceeded) retry.
  int max_retries = 3;
  /// Retry budget for predictive queries; they are optional, so default 0.
  int predictive_max_retries = 0;
  /// Backoff between retry attempts.
  util::BackoffPolicy backoff;
  /// Circuit breaker: opens after this many consecutive transport
  /// failures; half-opens for a probe after `breaker_cooldown`.
  int breaker_failure_threshold = 8;
  util::SimDuration breaker_cooldown = util::Seconds(2);
  /// Degradation heuristic independent of the breaker: if the most recent
  /// `timeout_spike_threshold` timeouts all happened within
  /// `timeout_spike_window`, the remote path reports Degraded() and the
  /// middleware sheds predictive load.
  int timeout_spike_threshold = 5;
  util::SimDuration timeout_spike_window = util::Seconds(5);
};

/// Thin snapshot view over the registry-backed "remote.*" counters (the
/// obs::MetricsRegistry is the source of truth; see RemoteDatabase::stats).
struct RemoteDbStats {
  uint64_t queries = 0;             // logical queries submitted
  uint64_t predictive_queries = 0;  // ... of which tagged predictive
  uint64_t attempts = 0;            // WAN attempts (>= queries with retries)
  uint64_t errors = 0;              // queries that ultimately failed
  uint64_t client_errors = 0;       // ... failures visible to clients
  uint64_t predictive_errors = 0;   // ... failures of prefetch work
  uint64_t retries = 0;             // retry attempts scheduled
  uint64_t timeouts = 0;            // attempts abandoned by the timeout
  uint64_t late_responses = 0;      // responses landing after their timeout
  uint64_t breaker_opens = 0;       // breaker open/re-open transitions
};

class RemoteDatabase {
 public:
  /// Callback with the execution outcome plus the per-table versions
  /// observed at the database when the query (de)committed.
  using Callback = std::function<void(
      util::Result<common::ResultSetPtr>,
      std::unordered_map<std::string, uint64_t> versions)>;

  /// `obs` is the per-run observability bundle; when null a private one
  /// is created so the "remote.*" instruments always exist.
  RemoteDatabase(sim::EventLoop* loop, db::Database* database,
                 RemoteDbConfig config, obs::Observability* obs = nullptr);

  /// Executes `sql` remotely. `predictive` tags prefetch work for stats
  /// and selects the (smaller) predictive retry budget. The callback
  /// fires exactly once after outbound hop + queueing + service + return
  /// hop of simulated time — or once the retry budget is exhausted.
  void Execute(const std::string& sql, Callback callback,
               bool predictive = false);

  /// Prepared variant: ships a cached template + bound parameters instead
  /// of SQL text, so the remote edge never re-parses. Same WAN/retry/fault
  /// model and identical simulated cost as Execute of the instantiated
  /// text. Requires `tpl->statement` to be non-null.
  void ExecutePrepared(sql::CachedTemplatePtr tpl,
                       std::vector<common::Value> params, Callback callback,
                       bool predictive = false);

  /// True while the remote path is degraded: breaker not closed, or a
  /// recent burst of timeouts. Drives shed-predictions-first.
  bool Degraded() const;

  /// Gate for sheddable prefetch work. False while degraded, except that
  /// a half-open breaker admits exactly one prediction as the probe.
  bool AllowPredictive();

  /// Assembles the legacy stats view from the registry counters.
  const RemoteDbStats& stats() const;
  const CircuitBreaker& breaker() const { return breaker_; }
  const sim::FaultInjector& fault_injector() const { return injector_; }
  const sim::ServiceStationStats& station_stats() const {
    return station_.stats();
  }
  db::Database* database() { return database_; }

 private:
  /// Retry state for one logical query.
  struct Query {
    std::string sql;  // empty on the prepared path
    /// Prepared path: shared immutable template + bound values. When `tpl`
    /// is set the remote edge executes tpl->statement with `params` and
    /// never parses text.
    sql::CachedTemplatePtr tpl;
    std::vector<common::Value> params;
    Callback callback;
    bool predictive = false;
    int retries_left = 0;
    int attempt = 0;        // attempts started
    int live_attempt = -1;  // attempt the timeout/response race is for
    bool live_open = false; // false once the live attempt settled
  };
  using QueryPtr = std::shared_ptr<Query>;

  void StartAttempt(const QueryPtr& q);
  /// Claims the settle right for `attempt`; false if it already settled
  /// (timed out or superseded), in which case the response is "late".
  bool ClaimAttempt(const QueryPtr& q, int attempt, bool is_response);
  /// Transport-level failure: feeds the breaker and retries or fails.
  void HandleTransportFailure(const QueryPtr& q, util::Status status);
  /// Delivers the final error to the caller (with error accounting).
  void FinishError(const QueryPtr& q, const util::Status& status);
  void NoteTimeout(util::SimTime now);
  bool TimeoutSpike(util::SimTime now) const;

  sim::EventLoop* loop_;
  db::Database* database_;
  RemoteDbConfig config_;
  sim::ServiceStation station_;
  util::Rng rng_;
  sim::FaultInjector injector_;
  CircuitBreaker breaker_;
  /// Timestamps of the most recent timeouts (bounded by the spike
  /// threshold) for the timeout-spike degradation heuristic.
  std::deque<util::SimTime> recent_timeouts_;

  /// Registry-backed instruments ("remote.*"); the legacy RemoteDbStats
  /// struct is assembled from these on demand.
  std::unique_ptr<obs::Observability> owned_obs_;  // fallback when none given
  obs::Observability* obs_;
  struct Counters {
    obs::Counter* queries;
    obs::Counter* predictive_queries;
    obs::Counter* attempts;
    obs::Counter* errors;
    obs::Counter* client_errors;
    obs::Counter* predictive_errors;
    obs::Counter* retries;
    obs::Counter* timeouts;
    obs::Counter* late_responses;
    obs::Counter* breaker_opens;
  };
  Counters c_{};
  mutable RemoteDbStats stats_view_;
};

}  // namespace apollo::net
