#include "net/remote_database.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "sql/parser.h"

namespace apollo::net {

namespace {

/// The smallest cost_rows charged exec_cap, ceil((cap - base) / per_row):
/// a count at or past it is charged the cap whatever its value, so the
/// executor need not count further and every charge stays exact. Nothing
/// is counted when no row is charged or the cap leaves nothing to charge.
db::CostRows ChargeableCostRows(const RemoteDbConfig& c) {
  if (c.exec_per_row <= 0 || c.exec_cap <= c.exec_base) {
    return db::CostRows::kSkip;
  }
  const auto span = static_cast<uint64_t>(c.exec_cap - c.exec_base);
  const auto per_row = static_cast<uint64_t>(c.exec_per_row);
  return {(span + per_row - 1) / per_row};
}

}  // namespace

RemoteDatabase::RemoteDatabase(sim::EventLoop* loop, db::Database* database,
                               RemoteDbConfig config, obs::Observability* obs)
    : loop_(loop),
      database_(database),
      config_(config),
      cost_(ChargeableCostRows(config)),
      station_(loop, kDbServers),
      rng_(config.seed),
      injector_(config.faults, config.seed ^ 0xf4a17b0c5d3e2a91ull),
      breaker_({config.breaker_failure_threshold, config.breaker_cooldown}) {
  if (obs == nullptr) {
    owned_obs_ = std::make_unique<obs::Observability>();
    obs = owned_obs_.get();
  }
  obs_ = obs;
  obs::MetricsRegistry& m = obs_->metrics;
  c_.queries = m.RegisterCounter("remote.queries");
  c_.predictive_queries = m.RegisterCounter("remote.predictive_queries");
  c_.attempts = m.RegisterCounter("remote.attempts");
  c_.errors = m.RegisterCounter("remote.errors");
  c_.client_errors = m.RegisterCounter("remote.client_errors");
  c_.predictive_errors = m.RegisterCounter("remote.predictive_errors");
  c_.retries = m.RegisterCounter("remote.retries");
  c_.timeouts = m.RegisterCounter("remote.timeouts");
  c_.late_responses = m.RegisterCounter("remote.late_responses");
  c_.breaker_opens = m.RegisterCounter("remote.breaker_opens");
}

const RemoteDbStats& RemoteDatabase::stats() const {
  stats_view_.queries = c_.queries->Value();
  stats_view_.predictive_queries = c_.predictive_queries->Value();
  stats_view_.attempts = c_.attempts->Value();
  stats_view_.errors = c_.errors->Value();
  stats_view_.client_errors = c_.client_errors->Value();
  stats_view_.predictive_errors = c_.predictive_errors->Value();
  stats_view_.retries = c_.retries->Value();
  stats_view_.timeouts = c_.timeouts->Value();
  stats_view_.late_responses = c_.late_responses->Value();
  stats_view_.breaker_opens = c_.breaker_opens->Value();
  return stats_view_;
}

void RemoteDatabase::Execute(const std::string& sql, Callback callback,
                             bool predictive) {
  auto q = std::make_shared<Query>();
  q->sql = sql;
  Submit(std::move(q), std::move(callback), predictive);
}

void RemoteDatabase::Execute(const sql::AdmittedQuery& adm, Callback callback,
                             bool predictive) {
  auto q = std::make_shared<Query>();
  if (adm.preparable()) {
    q->tpl = adm.tpl;
    q->params = adm.params;
  } else {
    q->sql = adm.canonical_text;
  }
  Submit(std::move(q), std::move(callback), predictive);
}

void RemoteDatabase::Submit(QueryPtr q, Callback callback, bool predictive) {
  c_.queries->Inc();
  if (predictive) c_.predictive_queries->Inc();
  q->callback = std::move(callback);
  q->predictive = predictive;
  q->retries_left =
      std::max(0, predictive ? config_.predictive_max_retries
                             : config_.max_retries);
  StartAttempt(q);
}

bool RemoteDatabase::ClaimAttempt(const QueryPtr& q, int attempt,
                                  bool is_response) {
  if (!q->live_open || q->live_attempt != attempt) {
    // Already settled: the timeout fired first (and possibly a retry is
    // underway). A real response arriving now is wasted WAN work.
    if (is_response) c_.late_responses->Inc();
    return false;
  }
  q->live_open = false;
  return true;
}

void RemoteDatabase::StartAttempt(const QueryPtr& q) {
  c_.attempts->Inc();
  const int attempt = q->attempt++;
  q->live_attempt = attempt;
  q->live_open = true;

  if (config_.query_timeout > 0) {
    loop_->After(config_.query_timeout, [this, q, attempt]() {
      if (!ClaimAttempt(q, attempt, /*is_response=*/false)) return;
      const util::SimTime now = loop_->now();
      c_.timeouts->Inc();
      NoteTimeout(now);
      HandleTransportFailure(
          q, util::Status::DeadlineExceeded("remote query timeout"));
    });
  }

  const sim::FaultDecision fault = injector_.OnAttempt(loop_->now());
  util::SimDuration rtt = config_.rtt.Sample(rng_);
  if (fault.latency_multiplier != 1.0) {
    rtt = static_cast<util::SimDuration>(static_cast<double>(rtt) *
                                         fault.latency_multiplier);
  }
  util::SimDuration outbound = rtt / 2;
  util::SimDuration inbound = rtt - outbound;

  loop_->After(outbound, [this, q, attempt, inbound,
                          transient = fault.transient_error]() mutable {
    // Transport-level rejections turn around at the remote edge without
    // consuming database service time.
    if (injector_.InOutage(loop_->now())) {
      injector_.RecordOutageRejection();
      loop_->After(inbound, [this, q, attempt]() {
        if (!ClaimAttempt(q, attempt, /*is_response=*/true)) return;
        HandleTransportFailure(
            q, util::Status::Unavailable("remote outage window"));
      });
      return;
    }
    if (transient) {
      loop_->After(inbound, [this, q, attempt]() {
        if (!ClaimAttempt(q, attempt, /*is_response=*/true)) return;
        HandleTransportFailure(
            q, util::Status::Unavailable("transient network error"));
      });
      return;
    }
    // Text path: parse on arrival; a malformed query costs only the base
    // service time. Prepared path: the cached statement arrives with the
    // request, so there is nothing to parse.
    std::unique_ptr<sql::Statement> parsed;
    const sql::Statement* statement = nullptr;
    if (q->tpl != nullptr) {
      statement = q->tpl->statement.get();
    } else {
      auto stmt = sql::Parse(q->sql);
      if (!stmt.ok()) {
        auto status = stmt.status();
        station_.Submit(config_.exec_base, [this, q, attempt, status,
                                            inbound]() {
          loop_->After(inbound, [this, q, attempt, status]() {
            if (!ClaimAttempt(q, attempt, /*is_response=*/true)) return;
            breaker_.OnSuccess();  // the link worked; the query is just bad
            FinishError(q, status);
          });
        });
        return;
      }
      parsed = std::move(*stmt);
      statement = parsed.get();
    }
    // Execute for real to learn the true cost, then charge simulated
    // service time proportional to the work the reference scan plan
    // does, whichever plan the executor ran.
    auto result =
        q->tpl != nullptr
            ? database_->ExecutePrepared(*statement, q->params, cost_)
            : database_->ExecuteStatement(*statement, cost_);
    util::SimDuration service = config_.exec_base;
    std::unordered_map<std::string, uint64_t> versions;
    if (result.ok()) {
      service += static_cast<util::SimDuration>(
          (*result)->cost_rows() * config_.exec_per_row);
      service = std::min(service, config_.exec_cap);
      versions = database_->VersionsOf(statement->TablesTouched());
    }
    station_.Submit(service, [this, q, attempt, inbound,
                              result = std::move(result),
                              versions = std::move(versions)]() mutable {
      loop_->After(inbound, [this, q, attempt, result = std::move(result),
                             versions = std::move(versions)]() mutable {
        if (!ClaimAttempt(q, attempt, /*is_response=*/true)) return;
        breaker_.OnSuccess();
        if (!result.ok()) {
          FinishError(q, result.status());
          return;
        }
        q->callback(std::move(result), std::move(versions));
      });
    });
  });
}

void RemoteDatabase::HandleTransportFailure(const QueryPtr& q,
                                            util::Status status) {
  if (breaker_.OnFailure(loop_->now())) c_.breaker_opens->Inc();
  if (status.IsRetryable() && q->retries_left > 0) {
    --q->retries_left;
    c_.retries->Inc();
    // q->attempt was already incremented for the failed attempt, so the
    // 0-indexed retry number is attempt - 1.
    util::SimDuration delay = config_.backoff.Delay(q->attempt - 1, rng_);
    loop_->After(delay, [this, q]() { StartAttempt(q); });
    return;
  }
  FinishError(q, status);
}

void RemoteDatabase::FinishError(const QueryPtr& q,
                                 const util::Status& status) {
  c_.errors->Inc();
  if (q->predictive) {
    c_.predictive_errors->Inc();
  } else {
    c_.client_errors->Inc();
  }
  q->callback(status, {});
}

void RemoteDatabase::NoteTimeout(util::SimTime now) {
  recent_timeouts_.push_back(now);
  while (recent_timeouts_.size() >
         static_cast<size_t>(std::max(1, config_.timeout_spike_threshold))) {
    recent_timeouts_.pop_front();
  }
}

bool RemoteDatabase::TimeoutSpike(util::SimTime now) const {
  if (config_.timeout_spike_threshold <= 0) return false;
  if (recent_timeouts_.size() <
      static_cast<size_t>(config_.timeout_spike_threshold)) {
    return false;
  }
  return recent_timeouts_.front() >= now - config_.timeout_spike_window;
}

bool RemoteDatabase::Degraded() const {
  return !breaker_.IsClosed() || TimeoutSpike(loop_->now());
}

bool RemoteDatabase::AllowPredictive() {
  if (TimeoutSpike(loop_->now())) return false;
  return breaker_.AllowOptional(loop_->now());
}

}  // namespace apollo::net
