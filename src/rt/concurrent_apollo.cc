#include "rt/concurrent_apollo.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "persist/learned_state.h"
#include "persist/snapshot.h"
#include "util/wall_clock.h"

namespace apollo::rt {

namespace {
/// Result-cache eviction options from the learning config (DESIGN.md §13).
cache::KvCacheOptions BuildCacheOptions(const core::ApolloConfig& cfg) {
  cache::KvCacheOptions opt;
  opt.policy = cfg.cache_policy;
  opt.window_fraction = cfg.cache_window_fraction;
  return opt;
}

/// One admitted query as a batch sub-statement (prepared when possible).
BatchStatement StatementFor(const sql::AdmittedQuery& adm, bool is_write) {
  BatchStatement st;
  if (adm.preparable()) {
    st.tpl = adm.tpl;
    st.params = adm.params;
  } else {
    st.sql = adm.canonical_text;
  }
  st.is_write = is_write;
  st.tables = is_write ? adm.tables_written() : adm.tables_read();
  return st;
}
}  // namespace

ConcurrentApollo::ConcurrentApollo(db::Database* db,
                                   ConcurrentApolloConfig config,
                                   obs::Observability* obs,
                                   const std::string& metric_prefix)
    : db_(db),
      config_(std::move(config)),
      owned_obs_(obs == nullptr ? std::make_unique<obs::Observability>()
                                : nullptr),
      obs_(obs == nullptr ? owned_obs_.get() : obs),
      cache_(config_.cache_bytes, kCacheShards, obs_,
             metric_prefix + "cache.", BuildCacheOptions(config_.apollo)),
      protocol_(&cache_, config_.apollo.enable_pubsub_dedup),
      brownout_(config_.overload.enabled
                    ? std::make_unique<BrownoutController>(
                          config_.overload, obs_,
                          metric_prefix + "overload.")
                    : nullptr),
      pool_(BuildPoolConfig(), obs_, metric_prefix + "pool."),
      gateway_(db, config_.gateway, obs_, metric_prefix + "gateway."),
      c_(RegisterCounters(obs_->metrics, metric_prefix)),
      engine_(config_.apollo, &tcache_,
              {.fdqs_discovered = c_.fdqs_discovered,
               .fdqs_invalidated = c_.fdqs_invalidated,
               .adq_reloads = c_.adq_reloads,
               // Every skip reason lands in the one rt counter.
               .skipped_fresh = c_.predictions_skipped,
               .skipped_incomplete = c_.predictions_skipped,
               .skipped_invalid = c_.predictions_skipped,
               .find_fdq_calls = c_.find_fdq_calls,
               .construct_fdq_calls = c_.construct_fdq_calls,
               .find_fdq_wall_us = c_.find_fdq_wall_us,
               .construct_fdq_wall_us = c_.construct_fdq_wall_us},
              brownout_ == nullptr
                  ? core::PredictionEngine::Veto()
                  : [this](const core::ClientSession& s, const core::Fdq& f,
                           uint64_t trigger) {
                      return BrownoutVetoesPrediction(s, f, trigger);
                    }),
      epoch_(std::chrono::steady_clock::now()) {
  obs::MetricsRegistry& m = obs_->metrics;
  const std::string& p = metric_prefix;
  query_wall_us_ = m.RegisterHistogram(p + "latency.query_wall_us");
  learn_lock_wait_wall_us_ =
      m.RegisterHistogram(p + "latency.learn_lock_wait_wall_us");
  admit_fast_wall_us_ = m.RegisterHistogram(p + "latency.admit_fast_wall_us");
  admit_full_wall_us_ = m.RegisterHistogram(p + "latency.admit_full_wall_us");
  learn_shards_.reserve(kLearnShards);
  for (size_t i = 0; i < kLearnShards; ++i) {
    auto shard = std::make_unique<LearnShard>();
    shard->wait_us = m.RegisterHistogram(p + "latency.learn_shard" +
                                         std::to_string(i) +
                                         ".lock_wait_wall_us");
    learn_shards_.push_back(std::move(shard));
  }
  learning_pruned_edges_ = m.RegisterCounter(p + "learning_pruned_edges");
  learning_pruned_pairs_ = m.RegisterCounter(p + "learning_pruned_pairs");
  engine_.mapper().SetPruneCounter(learning_pruned_pairs_);
  overload_rejected_ = m.RegisterCounter(p + "overload.rejected");
  deadline_missed_ = m.RegisterCounter(p + "overload.deadline_missed");
  stale_served_ = m.RegisterCounter(p + "overload.stale_served");
  predictions_shed_utility_ =
      m.RegisterCounter(p + "overload.predictions_shed_utility");
  adq_reloads_shed_ = m.RegisterCounter(p + "overload.adq_reloads_shed");
  checkpoints_ = m.RegisterCounter(p + "persist.checkpoints");
  checkpoint_errors_ = m.RegisterCounter(p + "persist.checkpoint_errors");
  checkpoint_deferred_ = m.RegisterCounter(p + "persist.checkpoint_deferred");
  checkpoint_copy_wall_us_ =
      m.RegisterHistogram(p + "persist.checkpoint_copy_wall_us");
  checkpoint_write_wall_us_ =
      m.RegisterHistogram(p + "persist.checkpoint_write_wall_us");
  if (!config_.persist.path.empty()) {
    // Warm restart before any worker thread exists; a missing snapshot
    // (first boot) or damaged sections are not errors.
    util::Status s = RestoreNow();
    (void)s;
    if (config_.persist.checkpoint_interval_ms > 0) StartCheckpointer();
  }
}

ConcurrentApollo::~ConcurrentApollo() { Shutdown(); }

ConcurrentApollo::Counters ConcurrentApollo::RegisterCounters(
    obs::MetricsRegistry& m, const std::string& p) {
  Counters c;
  c.queries = m.RegisterCounter(p + "queries");
  c.reads = m.RegisterCounter(p + "reads");
  c.writes = m.RegisterCounter(p + "writes");
  c.cache_hits = m.RegisterCounter(p + "cache_hits");
  c.cache_misses = m.RegisterCounter(p + "cache_misses");
  c.coalesced_waits = m.RegisterCounter(p + "coalesced_waits");
  c.parse_errors = m.RegisterCounter(p + "parse_errors");
  c.subscriber_fallbacks = m.RegisterCounter(p + "subscriber_fallbacks");
  c.predictions_issued = m.RegisterCounter(p + "predictions_issued");
  c.predictions_shed = m.RegisterCounter(p + "predictions_shed");
  c.predictions_skipped = m.RegisterCounter(p + "predictions_skipped");
  c.adq_reloads = m.RegisterCounter(p + "adq_reloads");
  c.fdqs_discovered = m.RegisterCounter(p + "fdqs_discovered");
  c.fdqs_invalidated = m.RegisterCounter(p + "fdqs_invalidated");
  c.find_fdq_calls = m.RegisterCounter(p + "find_fdq_calls");
  c.construct_fdq_calls = m.RegisterCounter(p + "construct_fdq_calls");
  c.find_fdq_wall_us = m.RegisterGauge(p + "find_fdq_wall_us");
  c.construct_fdq_wall_us = m.RegisterGauge(p + "construct_fdq_wall_us");
  return c;
}

ThreadPoolConfig ConcurrentApollo::BuildPoolConfig() {
  ThreadPoolConfig pc = config_.pool;
  if (brownout_ != nullptr) {
    BrownoutController* b = brownout_.get();
    pc.sojourn_callback = [b](int64_t us) { b->RecordSojourn(us); };
  }
  return pc;
}

void ConcurrentApollo::Shutdown() {
  if (shut_down_) return;
  shut_down_ = true;
  if (checkpointer_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(persist_mu_);
      stop_checkpointer_ = true;
    }
    persist_cv_.notify_all();
    checkpointer_.join();
  }
  // Gateway first: batches still in the WAN heap complete (or fail) and
  // their pool completions drain before the pool joins.
  gateway_.Shutdown();
  pool_.Shutdown();
  if (!config_.persist.path.empty()) {
    // Final snapshot after the pool drained: no in-flight learning left.
    util::Status s = CheckpointNow();
    (void)s;  // failures are counted in persist.checkpoint_errors
  }
}

void ConcurrentApollo::StartCheckpointer() {
  checkpointer_ = std::thread([this] {
    const auto interval =
        std::chrono::milliseconds(config_.persist.checkpoint_interval_ms);
    std::unique_lock<std::mutex> lock(persist_mu_);
    while (!stop_checkpointer_) {
      if (persist_cv_.wait_for(lock, interval,
                               [this] { return stop_checkpointer_; })) {
        break;
      }
      lock.unlock();
      if (brownout_ != nullptr && brownout_->DeferCheckpoints()) {
        // Under heavy brownout the snapshot's lock-hold time and file I/O
        // compete with draining the backlog; skip this tick and let the
        // next interval (or shutdown) pick it up.
        checkpoint_deferred_->Inc();
      } else {
        util::Status s = CheckpointNow();
        (void)s;  // counted in persist.checkpoint_errors
      }
      lock.lock();
    }
  });
}

util::Status ConcurrentApollo::CheckpointNow() {
  if (config_.persist.path.empty()) {
    return util::Status::InvalidArgument("persistence is disabled");
  }
  // One checkpoint at a time: an on-demand call racing the periodic
  // checkpointer would write the same target concurrently for no gain.
  std::lock_guard<std::mutex> serialize(checkpoint_mu_);
  int64_t copy_us = 0;
  const std::string bytes = BuildSnapshotBytes(&copy_us);
  checkpoint_copy_wall_us_->Record(copy_us);
  const auto write_t0 = std::chrono::steady_clock::now();
  util::Status s = persist::WriteFileAtomic(config_.persist.path, bytes);
  checkpoint_write_wall_us_->Record(
      static_cast<int64_t>(util::WallMicrosSince(write_t0)));
  if (!s.ok()) {
    checkpoint_errors_->Inc();
    return s;
  }
  checkpoints_->Inc();
  if (obs_->trace.enabled()) {
    obs_->trace.Record(obs::TraceEventType::kSnapshotSaved, -1, 0,
                       obs::SkipReason::kNone, bytes.size());
  }
  return util::Status::OK();
}

std::string ConcurrentApollo::SnapshotBytes() {
  return BuildSnapshotBytes(/*copy_wall_us=*/nullptr);
}

std::string ConcurrentApollo::BuildSnapshotBytes(int64_t* copy_wall_us) {
  // Copy-then-encode: plain State copies under the locks, all encoding
  // after release. Learning-state mutation happens under the learn
  // shards, so holding every shard (fixed ascending order) makes the copy
  // consistent across structures.
  persist::LearnedStateCopy copy;
  const auto copy_t0 = std::chrono::steady_clock::now();
  {
    auto learn = LockAllLearn();
    copy = persist::CopyLearnedState(LearnedStateView(), NowUs());
  }
  if (copy_wall_us != nullptr) {
    *copy_wall_us = static_cast<int64_t>(util::WallMicrosSince(copy_t0));
  }
  return persist::EncodeLearnedState(std::move(copy),
                                     static_cast<uint64_t>(NowUs()));
}

persist::LearnedState ConcurrentApollo::LearnedStateView() {
  persist::LearnedState st;
  st.templates = &tcache_;
  st.engine = prediction_engine();
  st.config = &config_.apollo;
  st.for_each_session = [this](const persist::SessionFn& fn) {
    std::lock_guard<std::mutex> slock(sessions_mu_);
    for (auto& [_, session] : sessions_) {
      std::lock_guard<std::mutex> lk(session->mu);
      fn(session->core);
    }
  };
  st.with_session = [this](core::ClientId id, const persist::SessionFn& fn) {
    Session& session = SessionFor(id);
    std::lock_guard<std::mutex> lk(session.mu);
    fn(session.core);
  };
  return st;
}

util::Status ConcurrentApollo::RestoreNow(persist::RestoreStats* stats) {
  if (config_.persist.path.empty()) {
    return util::Status::InvalidArgument("persistence is disabled");
  }
  persist::Snapshot snap;
  APOLLO_ASSIGN_OR_RETURN(snap,
                          persist::ReadSnapshotFile(config_.persist.path));
  ApplySnapshot(snap, stats);
  return util::Status::OK();
}

util::Status ConcurrentApollo::RestoreFromBytes(std::string_view bytes,
                                                persist::RestoreStats* stats) {
  persist::Snapshot snap;
  APOLLO_ASSIGN_OR_RETURN(snap, persist::ParseSnapshot(bytes));
  ApplySnapshot(snap, stats);
  return util::Status::OK();
}

void ConcurrentApollo::ApplySnapshot(const persist::Snapshot& snap,
                                     persist::RestoreStats* stats) {
  persist::RestoreStats local;
  auto learn = LockAllLearn();
  persist::ApplySnapshot(snap, LearnedStateView(),
                         stats != nullptr ? stats : &local, &obs_->trace);
}

util::SimTime ConcurrentApollo::NowUs() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

std::unique_lock<std::mutex> ConcurrentApollo::LockLearn(
    uint64_t session_key) {
  LearnShard& shard = *learn_shards_[session_key % learn_shards_.size()];
  auto t0 = std::chrono::steady_clock::now();
  std::unique_lock<std::mutex> lock(shard.mu);
  const int64_t waited = static_cast<int64_t>(util::WallMicrosSince(t0));
  learn_lock_wait_wall_us_->Record(waited);
  shard.wait_us->Record(waited);
  return lock;
}

std::vector<std::unique_lock<std::mutex>> ConcurrentApollo::LockAllLearn() {
  auto t0 = std::chrono::steady_clock::now();
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(learn_shards_.size());
  // Ascending index order — the fixed total order every all-shard
  // acquisition uses, so whole-engine stops can't deadlock each other.
  for (auto& shard : learn_shards_) {
    locks.emplace_back(shard->mu);
  }
  learn_lock_wait_wall_us_->Record(
      static_cast<int64_t>(util::WallMicrosSince(t0)));
  return locks;
}

bool ConcurrentApollo::Quiescent() {
  // Both "done" totals are read before both "accepted" totals. Accepted
  // counts rise before work is queued and done counts after it has fully
  // run, including whatever it handed on (a pool task submits its batch,
  // a batch's completion runs its continuations). So when they match, no
  // task or batch was outstanding at any point between the reads.
  const uint64_t pool_done = pool_.executed();
  const uint64_t batches_done = gateway_.batches_completed();
  return gateway_.batches_accepted() == batches_done &&
         pool_.accepted() == pool_done && protocol_.num_inflight() == 0;
}

ConcurrentApollo::Session& ConcurrentApollo::SessionFor(
    core::ClientId client) {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  auto it = sessions_.find(client);
  if (it == sessions_.end()) {
    it = sessions_
             .emplace(client,
                      std::make_unique<Session>(client, config_.apollo))
             .first;
    it->second->core.stream.SetPruneCounter(learning_pruned_edges_);
  }
  return *it->second;
}

bool ConcurrentApollo::ExportSessionVv(core::ClientId client,
                                       cache::VersionVector* vv,
                                       cache::VersionVector* written_vv) {
  Session* session = nullptr;
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    auto it = sessions_.find(client);
    if (it == sessions_.end()) return false;
    session = it->second.get();
  }
  std::lock_guard<std::mutex> lock(session->mu);
  if (vv != nullptr) *vv = session->core.vv;
  if (written_vv != nullptr) *written_vv = session->written_vv;
  return true;
}

void ConcurrentApollo::ImportSessionVv(core::ClientId client,
                                       const cache::VersionVector& vv,
                                       const cache::VersionVector& written_vv) {
  Session& session = SessionFor(client);
  std::lock_guard<std::mutex> lock(session.mu);
  for (const auto& [t, v] : vv.entries()) session.core.vv.AdvanceTo(t, v);
  for (const auto& [t, v] : written_vv.entries()) {
    session.core.vv.AdvanceTo(t, v);
    session.written_vv.AdvanceTo(t, v);
  }
}

util::Result<sql::AdmittedQuery> ConcurrentApollo::AdmitQuery(
    const std::string& sql) {
  auto t0 = std::chrono::steady_clock::now();
  auto adm = tcache_.Admit(sql);
  if (!adm.ok()) {
    admit_full_wall_us_->Record(
        static_cast<int64_t>(util::WallMicrosSince(t0)));
    return adm;
  }
  (adm->via_fast_path ? admit_fast_wall_us_ : admit_full_wall_us_)
      ->Record(static_cast<int64_t>(util::WallMicrosSince(t0)));
  return adm;
}

util::Result<common::ResultSetPtr> ConcurrentApollo::Execute(
    core::ClientId client, const std::string& sql) {
  Deadline deadline = kNoDeadline;
  if (brownout_ != nullptr && config_.overload.default_deadline.count() > 0) {
    deadline =
        std::chrono::steady_clock::now() + config_.overload.default_deadline;
  }
  return Execute(client, sql, deadline);
}

util::Result<common::ResultSetPtr> ConcurrentApollo::Execute(
    core::ClientId client, const std::string& sql, Deadline deadline) {
  auto t0 = std::chrono::steady_clock::now();
  c_.queries->Inc();
  if (brownout_ != nullptr) brownout_->Tick();
  if (brownout_ != nullptr && brownout_->RejectClient()) {
    // L4: shed at the door so queued work drains. Unavailable is
    // retryable — callers back off and retry, which is the point.
    overload_rejected_->Inc();
    if (obs_->trace.enabled()) {
      obs_->trace.Record(obs::TraceEventType::kOverloadRejected,
                         static_cast<int>(client), 0);
    }
    return util::Status::Unavailable("overload: rejecting new queries");
  }
  auto adm = AdmitQuery(sql);
  if (!adm.ok()) {
    c_.parse_errors->Inc();
    return adm.status();
  }
  Session& session = SessionFor(client);
  auto out = adm->read_only()
                 ? ExecuteRead(session, std::move(*adm), deadline)
                 : ExecuteWrite(session, std::move(*adm), deadline);
  if (!out.ok() &&
      out.status().code() == util::StatusCode::kDeadlineExceeded) {
    deadline_missed_->Inc();
    if (obs_->trace.enabled()) {
      obs_->trace.Record(obs::TraceEventType::kDeadlineMiss,
                         static_cast<int>(client), 0);
    }
  }
  query_wall_us_->Record(static_cast<int64_t>(util::WallMicrosSince(t0)));
  return out;
}

util::Result<common::ResultSetPtr> ConcurrentApollo::ExecuteRead(
    Session& session, sql::AdmittedQuery adm, Deadline deadline) {
  c_.reads->Inc();
  tcache_.BumpObservations(*adm.tpl);

  cache::VersionVector vv_copy;
  {
    std::lock_guard<std::mutex> lock(session.mu);
    vv_copy = session.core.vv;
  }
  auto entry =
      cache_.GetCompatible(adm.canonical_text, vv_copy, adm.tables_read());
  if (entry.has_value()) {
    c_.cache_hits->Inc();
    {
      std::lock_guard<std::mutex> lock(session.mu);
      core::ReadProtocol::Observe(session.core.vv, entry->stamp,
                                  adm.tables_read());
    }
    common::ResultSetPtr rs = entry->result;
    FinishRead(session, adm, entry->result);
    return rs;
  }
  // L3 serve-stale-within-bound: before paying a remote round trip the
  // middleware can no longer afford, serve an entry that fails the full
  // session-freshness check but (a) is younger than stale_bound and
  // (b) still covers this session's own writes (read-your-writes holds;
  // cross-session monotonic reads are what brownout relaxes).
  if (brownout_ != nullptr && brownout_->ServeStaleAllowed()) {
    cache::VersionVector written_floor;
    {
      std::lock_guard<std::mutex> lock(session.mu);
      written_floor = session.written_vv;
    }
    const int64_t min_put_us =
        NowUs() - std::chrono::duration_cast<std::chrono::microseconds>(
                      config_.overload.stale_bound)
                      .count();
    auto stale = cache_.GetStaleWithin(adm.canonical_text, written_floor,
                                       adm.tables_read(), min_put_us);
    if (stale.has_value()) {
      c_.cache_hits->Inc();
      stale_served_->Inc();
      if (obs_->trace.enabled()) {
        obs_->trace.Record(obs::TraceEventType::kStaleServed,
                           static_cast<int>(session.core.id),
                           adm.fingerprint());
      }
      {
        // MergeMax only ever advances the vector, so acknowledging the
        // stale entry's stamp is safe even when it trails the session.
        std::lock_guard<std::mutex> lock(session.mu);
        session.core.vv.MergeMax(stale->stamp, adm.tables_read());
      }
      common::ResultSetPtr rs = stale->result;
      FinishRead(session, adm, stale->result);
      return rs;
    }
  }
  c_.cache_misses->Inc();

  Promise<Published> promise;
  const bool leader = protocol_.LeadOrSubscribe(
      adm.canonical_text,
      [promise](const util::Result<common::ResultSetPtr>& result,
                const cache::VersionVector& stamp) {
        promise.Set(Published{result, stamp});
      });
  if (leader) return RemoteRead(session, adm, /*publish=*/true, deadline);
  // Another thread is executing this exact query: block on its published
  // outcome (client worker threads may wait on futures).
  c_.coalesced_waits->Inc();
  Published pub = promise.GetFuture().Take();
  core::ReadProtocol::Verdict verdict;
  {
    std::lock_guard<std::mutex> lock(session.mu);
    verdict = core::ReadProtocol::OnPublished(session.core.vv, pub.result,
                                              pub.stamp, adm.tables_read());
  }
  if (verdict == core::ReadProtocol::Verdict::kFail) return pub.result.status();
  if (verdict == core::ReadProtocol::Verdict::kReRead) {
    c_.subscriber_fallbacks->Inc();
    return RemoteRead(session, adm, /*publish=*/false, deadline);
  }
  FinishRead(session, adm, pub.result.value());
  return pub.result;
}

util::Result<common::ResultSetPtr> ConcurrentApollo::RemoteRead(
    Session& session, const sql::AdmittedQuery& adm, bool publish,
    Deadline deadline) {
  // Pre-issue learning pass: every learning/predict decision that does
  // not need the pending result is made NOW, so the discovered fan-out
  // rides the SAME round trip as the trigger (paper §3.1's pipelining
  // argument applied to the wire). Predictions whose source rows must
  // come from this query's result are deferred to the post-pass. If the
  // remote trip then fails, this pass has already recorded the query in
  // the learning state: harmless speculative knowledge.
  PredictionPlan plan;
  if (config_.apollo.enable_prediction) {
    core::ObservedQuery q;
    q.tpl = adm.tpl.get();
    q.params = adm.params;
    q.result_pending = true;
    Learn(session, q, &plan);
  }

  // Co-issued items are cache-checked against the versions this round
  // trip is about to make the session observe (the current table
  // versions): the decision a post-completion check would take.
  cache::VersionVector vv_check;
  {
    std::lock_guard<std::mutex> lock(session.mu);
    vv_check = session.core.vv;
  }
  for (const auto& [t, v] : db_->VersionsOf(adm.tables_read())) {
    vv_check.AdvanceTo(t, v);
  }
  util::SimDuration remote_time = 0;
  RemoteResult rr = RoundTrip(session, adm, /*is_write=*/false, vv_check,
                              std::move(plan.items), deadline, &remote_time);
  if (!rr.result.ok()) {
    if (publish) protocol_.Publish(adm.canonical_text, rr.result, {});
    return rr.result.status();
  }
  const cache::VersionVector stamp =
      protocol_.Fill(adm, *rr.result, rr.versions, remote_time, NowUs());
  {
    std::lock_guard<std::mutex> lock(session.mu);
    core::ReadProtocol::Observe(session.core.vv, stamp, adm.tables_read());
  }
  common::ResultSetPtr rs = *rr.result;
  // Outside session.mu (see the lock ordering in the header).
  if (publish) protocol_.Publish(adm.canonical_text, rr.result, stamp);
  adm.tpl->RecordExecution(remote_time);
  // Post-pass: the result lands in `recent`, and the deferred FDQs get
  // their (single) retry with the source rows now available.
  if (config_.apollo.enable_prediction) {
    PredictionPlan post;
    {
      auto lock = LockLearn(static_cast<uint64_t>(session.core.id));
      std::lock_guard<std::mutex> slock(session.mu);
      engine_.OnResultLanded(session.core, adm.fingerprint(), rs,
                             plan.deferred, NowUs(), post);
    }
    IssuePredictionPlan(session, std::move(post.items));
  }
  return util::Result<common::ResultSetPtr>(std::move(rs));
}

RemoteResult ConcurrentApollo::RoundTrip(
    Session& session, const sql::AdmittedQuery& adm, bool is_write,
    const cache::VersionVector& vv_check,
    std::vector<core::PredictionItem> items, Deadline deadline,
    util::SimDuration* remote_time) {
  std::vector<BatchStatement> stmts;
  std::vector<ArmedPrediction> armed;
  std::vector<core::PredictionItem> overflow;
  stmts.reserve(items.size() + 1);
  stmts.push_back(StatementFor(adm, is_write));
  for (auto& item : items) {
    if (stmts.size() >= kMaxBatchStatements) {
      overflow.push_back(std::move(item));
      continue;
    }
    ArmedPrediction a;
    if (!ArmPrediction(session, item, vv_check, &a)) continue;
    stmts.push_back(StatementFor(a.adm, /*is_write=*/false));
    armed.push_back(std::move(a));
  }
  auto t0 = std::chrono::steady_clock::now();
  std::vector<Future<RemoteResult>> futures =
      SendBatch(session, std::move(stmts), std::move(armed), deadline);
  IssuePredictionPlan(session, std::move(overflow));
  RemoteResult rr = futures[0].Take();
  *remote_time = static_cast<int64_t>(util::WallMicrosSince(t0));
  return rr;
}

void ConcurrentApollo::FinishRead(Session& session,
                                  const sql::AdmittedQuery& adm,
                                  common::ResultSetPtr result) {
  if (!config_.apollo.enable_prediction) return;
  core::ObservedQuery q;
  q.tpl = adm.tpl.get();
  q.params = adm.params;
  q.result = std::move(result);
  PredictionPlan plan;
  Learn(session, q, &plan);
  IssuePredictionPlan(session, std::move(plan.items));
}

util::Result<common::ResultSetPtr> ConcurrentApollo::ExecuteWrite(
    Session& session, sql::AdmittedQuery adm, Deadline deadline) {
  c_.writes->Inc();
  tcache_.BumpObservations(*adm.tpl);

  // The learning pass (including informed ADQ reload) runs pre-issue —
  // none of its decisions need the write's outcome — and its prediction
  // fan-out rides the write's round trip. In-order batch execution at the
  // gateway means those reads see the post-write rows and versions. As
  // for reads, a failed write leaves the (harmless) learning record.
  PredictionPlan plan;
  if (config_.apollo.enable_prediction) {
    core::ObservedQuery q;
    q.tpl = adm.tpl.get();
    q.params = adm.params;
    Learn(session, q, &plan);
  }
  // Arm co-issued predictions against post-write visibility: the write in
  // this batch bumps every written table past any resident cache stamp,
  // so cached entries reading those tables can never satisfy the skip
  // check.
  cache::VersionVector vv_check;
  {
    std::lock_guard<std::mutex> lock(session.mu);
    vv_check = session.core.vv;
  }
  for (const auto& t : adm.tables_written()) {
    vv_check.AdvanceTo(t, std::numeric_limits<uint64_t>::max());
  }
  util::SimDuration remote_time = 0;
  RemoteResult rr = RoundTrip(session, adm, /*is_write=*/true, vv_check,
                              std::move(plan.items), deadline, &remote_time);
  if (!rr.result.ok()) return rr.result.status();
  {
    std::lock_guard<std::mutex> lock(session.mu);
    core::ReadProtocol::OnWriteAck(session.core.vv, rr.versions);
    // Floor for brownout serve-stale: the session's own writes are never
    // relaxed, whatever the degradation level.
    for (const auto& [t, v] : rr.versions) session.written_vv.AdvanceTo(t, v);
  }
  adm.tpl->RecordExecution(remote_time);
  if (config_.on_write) config_.on_write(rr.versions);
  return rr.result;
}

// ---------------------------------------------------------------------------
// Learning / prediction: core::PredictionEngine under the learn shards
// ---------------------------------------------------------------------------

void ConcurrentApollo::Learn(Session& s, const core::ObservedQuery& q,
                             PredictionPlan* plan) {
  auto shard = LockLearn(static_cast<uint64_t>(s.core.id));
  std::vector<uint64_t> invalidated;
  {
    std::lock_guard<std::mutex> slock(s.mu);
    const util::SimTime now = NowUs();
    invalidated = engine_.Learn(s.core, q, now);
    engine_.Predict(s.core, q, now, *plan);
    if (!q.read_only() && config_.apollo.enable_adq_reload) {
      if (brownout_ != nullptr && brownout_->ShedAdqReloads()) {
        // >= L2: reload passes are speculation too, and they fan out hard.
        adq_reloads_shed_->Inc();
      } else {
        engine_.ReloadAdqs(s.core, q, now, *plan);
      }
    }
  }
  if (invalidated.empty()) return;
  std::lock_guard<std::mutex> lock(sessions_mu_);
  for (auto& [_, other] : sessions_) {
    if (other.get() == &s) continue;
    std::lock_guard<std::mutex> olock(other->mu);
    for (uint64_t fdq : invalidated) other->core.satisfied.erase(fdq);
  }
}

void ConcurrentApollo::OnPredictionCompleted(Session& s,
                                             uint64_t template_id,
                                             common::ResultSetPtr result,
                                             int depth) {
  if (!config_.apollo.enable_prediction) return;
  PredictionPlan plan;
  {
    auto lock = LockLearn(static_cast<uint64_t>(s.core.id));
    std::lock_guard<std::mutex> slock(s.mu);
    engine_.OnPredictionCompleted(s.core, template_id, std::move(result),
                                  depth, NowUs(), plan);
  }
  IssuePredictionPlan(s, std::move(plan.items));
}

bool ConcurrentApollo::BrownoutVetoesPrediction(const core::ClientSession& s,
                                                const core::Fdq& f,
                                                uint64_t trigger) {
  if (!brownout_->AllowSpeculation()) {
    c_.predictions_skipped->Inc();
    if (obs_->trace.enabled()) {
      obs_->trace.Record(obs::TraceEventType::kPredictionSkipped,
                         static_cast<int>(s.id), f.id,
                         obs::SkipReason::kOverload);
    }
    return true;
  }
  // Expected benefit of this prediction: how likely the client is to issue
  // f after the trigger (transition probability, floored by f's overall
  // popularity so cold graphs still rank) times the remote round trip a
  // hit would save.
  const sql::CachedTemplate* tpl = tcache_.GetByFingerprint(f.id);
  double p = s.stream.primary().TransitionProbability(trigger, f.id);
  if (tpl != nullptr) {
    const uint64_t total =
        std::max<uint64_t>(1, tcache_.total_observations());
    const double popularity =
        static_cast<double>(
            tpl->observations.load(std::memory_order_relaxed)) /
        static_cast<double>(total);
    p = std::max(p, popularity);
  }
  const double utility_us = p * core::PredictionEngine::ExpectedExecUs(tpl);
  brownout_->RecordUtility(utility_us);
  if (brownout_->ShouldShedPrediction(utility_us)) {
    predictions_shed_utility_->Inc();
    c_.predictions_skipped->Inc();
    if (obs_->trace.enabled()) {
      obs_->trace.Record(obs::TraceEventType::kPredictionSkipped,
                         static_cast<int>(s.id), f.id,
                         obs::SkipReason::kLowUtility);
    }
    return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Batched prediction transport (DESIGN.md Section 14)
// ---------------------------------------------------------------------------

bool ConcurrentApollo::ArmPrediction(Session& s,
                                     const core::PredictionItem& item,
                                     const cache::VersionVector& vv_check,
                                     ArmedPrediction* out) {
  auto adm = AdmitQuery(item.sql);
  const auto admission = protocol_.AdmitPrediction(
      adm, vv_check,
      [this, &s, template_id = item.template_id,
       depth = item.depth](const common::ResultSetPtr& rs) {
        OnPredictionCompleted(s, template_id, rs, depth);
      });
  if (admission != core::ReadProtocol::Admission::kAdmit) {
    c_.predictions_skipped->Inc();
    return false;
  }
  // Counted once armed onto a trip, as the simulator counts after its
  // cache and in-flight checks: a skipped item is never also issued.
  c_.predictions_issued->Inc();
  out->item = item;
  out->adm = std::move(*adm);
  return true;
}

std::vector<Future<RemoteResult>> ConcurrentApollo::SendBatch(
    Session& s, std::vector<BatchStatement> stmts,
    std::vector<ArmedPrediction> armed, Deadline deadline) {
  const size_t first = stmts.size() - armed.size();
  auto t0 = std::chrono::steady_clock::now();
  std::vector<Future<RemoteResult>> futures = gateway_.ExecuteBatchAsync(
      &pool_, std::move(stmts), deadline, static_cast<uint64_t>(s.core.id));
  for (size_t i = 0; i < armed.size(); ++i) {
    auto a = std::make_shared<ArmedPrediction>(std::move(armed[i]));
    futures[first + i].Then([this, &s, a, t0](const RemoteResult& rr) {
      FinishPrediction(s, *a, t0, rr);
    });
  }
  return futures;
}

void ConcurrentApollo::FinishPrediction(
    Session& s, const ArmedPrediction& armed,
    std::chrono::steady_clock::time_point t0, const RemoteResult& rr) {
  const std::string& key = armed.adm.canonical_text;
  if (!rr.result.ok()) {
    protocol_.Publish(key, rr.result, {});
    return;
  }
  // Wall time from batch issue to completion — the round trip a future
  // cache hit on this entry saves (cost-aware eviction input).
  const int64_t remote_wall_us =
      static_cast<int64_t>(util::WallMicrosSince(t0));
  const cache::VersionVector stamp = protocol_.FillPredicted(
      key, armed.item.template_id, armed.item.probability, *rr.result,
      rr.versions, remote_wall_us, NowUs());
  const sql::CachedTemplate* tpl =
      tcache_.GetByFingerprint(armed.item.template_id);
  if (tpl != nullptr) tpl->RecordExecution(remote_wall_us);
  common::ResultSetPtr rs = *rr.result;
  protocol_.Publish(key, rr.result, stamp);
  OnPredictionCompleted(s, armed.item.template_id, std::move(rs),
                        armed.item.depth);
}

void ConcurrentApollo::IssuePredictionPlan(
    Session& s, std::vector<core::PredictionItem> items) {
  if (items.empty()) return;
  const size_t n = items.size();
  // shared_ptr: pool tasks require copyable closures.
  auto shared =
      std::make_shared<std::vector<core::PredictionItem>>(std::move(items));
  bool accepted = pool_.Submit(
      TaskClass::kPredictive, static_cast<uint64_t>(s.core.id),
      [this, &s, shared] { RunPredictionBatch(s, std::move(*shared)); });
  if (!accepted) {
    // The whole plan is shed as one unit: it would have been one queue
    // slot and (mostly) one round trip.
    c_.predictions_shed->Inc(n);
  }
}

void ConcurrentApollo::RunPredictionBatch(
    Session& s, std::vector<core::PredictionItem> items) {
  cache::VersionVector vv_copy;
  {
    std::lock_guard<std::mutex> lock(s.mu);
    vv_copy = s.core.vv;
  }
  std::vector<BatchStatement> stmts;
  std::vector<ArmedPrediction> armed;
  auto flush = [&] {
    if (stmts.empty()) return;
    SendBatch(s, std::move(stmts), std::move(armed), kNoDeadline);
    stmts.clear();
    armed.clear();
  };
  for (const auto& item : items) {
    ArmedPrediction a;
    if (!ArmPrediction(s, item, vv_copy, &a)) continue;
    stmts.push_back(StatementFor(a.adm, /*is_write=*/false));
    armed.push_back(std::move(a));
    // Overflowing fan-out goes out as additional, concurrently in-flight
    // round trips rather than being dropped.
    if (stmts.size() >= kMaxBatchStatements) flush();
  }
  flush();
}

}  // namespace apollo::rt
